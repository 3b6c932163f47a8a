//! The workspace's one host-thread fan-out.
//!
//! Host parallelism lives *across* independent points — sweep points,
//! chaos scales, autotune candidates, each owning its devices and RNG
//! streams — and never inside a simulated cycle. Every `--jobs` flag
//! ends here.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Evaluates `f(0) .. f(n - 1)` on up to `jobs` scoped worker threads
/// pulling indices off a shared counter, and returns the results in
/// index order — so nothing downstream can depend on the thread count
/// or the interleaving. `jobs` is clamped to `1..=n`; a single worker
/// (which covers `n == 0`) runs on the calling thread without spawning.
///
/// # Panics
///
/// Re-raises the panic of any `f(i)` on the calling thread.
pub fn fan_out<T: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = jobs.clamp(1, n.max(1));
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let pull = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out indices; results
            // travel back through the join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut pairs: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(pull)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_match_the_serial_map_and_every_index_runs_once() {
        for n in [0, 1, 33] {
            let expected: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
            for jobs in [0, 1, 2, 7, n + 5] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let got = fan_out(jobs, n, |i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * i + 1
                });
                assert_eq!(got, expected, "jobs={jobs} n={n}");
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 1),
                    "jobs={jobs} n={n}: an index ran zero or several times"
                );
            }
        }
    }

    #[test]
    fn a_worker_panic_propagates_with_its_message() {
        for jobs in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                fan_out(jobs, 9, |i| {
                    assert!(i != 5, "point five failed");
                    i
                })
            });
            let payload = caught.expect_err("the panic must leave fan_out");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(msg, Some("point five failed"), "jobs={jobs}");
        }
    }
}
