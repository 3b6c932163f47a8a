//! Measured multithreaded host-CPU BP-M baseline.
//!
//! The only baseline this reproduction can honestly *measure* is the
//! machine it runs on. This is a parallel BP-M running the golden
//! reference's own band sweep ([`bp::sweep_band`]): within each
//! directional sweep, strips of the orthogonal axis run on scoped
//! threads (the same parallel decomposition VIP's software uses). The
//! benches report its throughput next to the simulated VIP numbers.

use vip_kernels::bp::{self, Messages, Mrf, Sweep};

/// Runs `iters` BP-M iterations using up to `threads` worker threads
/// and returns the final messages.
#[must_use]
pub fn run_parallel(mrf: &Mrf, iters: usize, threads: usize) -> Messages {
    let mut msgs = Messages::new(&mrf.params);
    for _ in 0..iters {
        for dir in Sweep::iteration_order() {
            parallel_sweep(mrf, &mut msgs, dir, threads);
        }
    }
    msgs
}

/// One parallel directional sweep.
pub fn parallel_sweep(mrf: &Mrf, msgs: &mut Messages, dir: Sweep, threads: usize) {
    let p = &mrf.params;
    let l = p.labels;
    let norm = msgs.normalize;
    let (w, h) = (p.width, p.height);

    let vertical = dir.is_vertical();
    let ortho = if vertical { w } else { h };
    let threads = threads.clamp(1, ortho);

    // Only the written plane changes during a sweep, and its *old*
    // values are also inputs (the chain), which each worker reads from
    // its own copy; the two planes across the sweep are shared read-only.
    let (written, across) = msgs.planes_mut(dir);

    // Vertical sweeps parallelize over x, horizontal over y; each worker
    // owns a contiguous ortho band. The written plane is row-major, so
    // bands are strided: to stay in safe Rust each worker sweeps its own
    // copy of the plane and the owned band is spliced back afterwards.
    let band = ortho.div_ceil(threads);
    let results: Vec<(usize, usize, Vec<i16>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let o0 = t * band;
            let o1 = ((t + 1) * band).min(ortho);
            if o0 >= o1 {
                continue;
            }
            let written_ro: &[i16] = written;
            handles.push(scope.spawn(move || {
                let mut out = written_ro.to_vec();
                bp::sweep_band(mrf, &mut out, across, dir, o0..o1, norm);
                (o0, o1, out)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    // Splice each worker's band back (bands are disjoint in the ortho
    // axis; copy only positions the worker owned).
    for (o0, o1, out) in results {
        for y in 0..h {
            for x in 0..w {
                let owned = if vertical {
                    (o0..o1).contains(&x)
                } else {
                    (o0..o1).contains(&y)
                };
                if owned {
                    let a = (y * w + x) * l;
                    written[a..a + l].copy_from_slice(&out[a..a + l]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_kernels::bp::{self, MrfParams};

    #[test]
    fn parallel_matches_sequential_golden() {
        let (w, h, l) = (32, 16, 8);
        let costs = bp::stereo_data_costs(w, h, l, 9);
        let mrf = Mrf::new(MrfParams::truncated_linear(w, h, l, 2, 10), costs);
        let par = run_parallel(&mrf, 3, 4);
        let mut seq = Messages::new(&mrf.params);
        for _ in 0..3 {
            bp::iteration(&mrf, &mut seq);
        }
        assert_eq!(par.from_above, seq.from_above);
        assert_eq!(par.from_below, seq.from_below);
        assert_eq!(par.from_left, seq.from_left);
        assert_eq!(par.from_right, seq.from_right);

        // Both normalizations, data costs near the rail (θ̂ saturates)
        // and scattered over the whole range, bands of every width.
        let near_rail = (0..w * h * l).map(|i| i16::MAX - ((i * 37) % 900) as i16);
        let scattered = (0..w * h * l).map(|i| (i * 40_503) as u16 as i16);
        let smooth = MrfParams::truncated_linear(w, h, l, 700, 9_000);
        for costs in [near_rail.collect::<Vec<_>>(), scattered.collect()] {
            let mrf = Mrf::new(smooth.clone(), costs);
            for init in [
                Messages::new(&mrf.params),
                Messages::new_unnormalized(&mrf.params),
            ] {
                let mut seq = init.clone();
                for _ in 0..2 {
                    bp::iteration(&mrf, &mut seq);
                }
                for threads in [1, 2, 3, 7] {
                    let mut par = init.clone();
                    for _ in 0..2 {
                        for dir in Sweep::iteration_order() {
                            parallel_sweep(&mrf, &mut par, dir, threads);
                        }
                    }
                    assert_eq!(par, seq, "normalize {} threads {threads}", init.normalize);
                }
            }
        }
    }

    #[test]
    fn single_thread_also_matches() {
        let (w, h, l) = (16, 16, 4);
        let costs = bp::stereo_data_costs(w, h, l, 2);
        let mrf = Mrf::new(MrfParams::truncated_linear(w, h, l, 1, 6), costs);
        let par = run_parallel(&mrf, 2, 1);
        let mut seq = Messages::new(&mrf.params);
        for _ in 0..2 {
            bp::iteration(&mrf, &mut seq);
        }
        assert_eq!(par.from_above, seq.from_above);
    }
}
