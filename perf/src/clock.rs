//! Host time on a box whose clock is not constant.
//!
//! The sandbox this benchmark was defined on runs its cores in two
//! states — a dependent multiply-add chain takes 1.84 ns per step in
//! one and 2.35 ns in the other — and flips between them in phases of
//! one to thirty seconds whatever the guest is doing (README,
//! "Run-to-run spread"). A run that happens to sit in the slow state
//! reads 27 % slower than one that does not, which is wider than any
//! change this benchmark is meant to resolve.
//!
//! So every timed call is bracketed by two runs of that chain (the
//! *probe*), and its wall time is scaled to the reference state by the
//! probes' mean. A call whose two probes disagree straddled a flip: its
//! scale is a guess, and the estimators skip it whenever the same work
//! has a sample that did not. The probe touches no memory and runs for
//! three quarters of a millisecond, so it neither disturbs the caches of the
//! code being timed nor costs a visible share of the run.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Steps of the dependent chain one probe run takes: 46 µs, short
/// enough that most runs fit between two timer interrupts.
const PROBE_STEPS: u64 = 25_000;

/// Runs one probe takes the best of. Sixteen runs of 25 000 steps
/// repeat to 0.2 % back to back (95th percentile) where two runs of
/// 200 000 steps — the same 0.75 ms — repeat to 6 %.
const PROBE_RUNS: usize = 16;

/// Nanoseconds one step takes in the reference (faster) state of the
/// box the benchmark was defined on. Only ratios of reported times
/// mean anything across machines: on another machine, or under a
/// compiler that schedules the chain differently, this constant shifts
/// every host-time metric by one common factor. So that the shift
/// cannot be silent, every run prints the fastest step it saw
/// ([`fastest_ns_per_step`]), `BASELINE.json` records it, and
/// `perf/check.sh` fails when it has left the reference.
pub const REFERENCE_NS_PER_STEP: f64 = 1.836;

/// The fastest probe this process has taken, in seconds, as `f64`
/// bits. A statistic: it publishes no other data.
static FASTEST_PROBE: AtomicU64 = AtomicU64::new(f64::INFINITY.to_bits());

/// Largest relative disagreement of a call's two probes at which its
/// scale still counts as known.
const STEADY_TOLERANCE: f64 = 0.03;

/// Seconds the probe chain takes right now: the best of
/// [`PROBE_RUNS`], so that an interrupt inside some of them does not
/// read as a slow clock.
#[must_use]
pub fn probe() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_RUNS {
        let t = Instant::now();
        let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
        for i in 0..PROBE_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            x ^= x >> 29;
        }
        black_box(x);
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Positive floats order like their bit patterns.
    FASTEST_PROBE.fetch_min(best.to_bits(), Ordering::Relaxed);
    best
}

/// Nanoseconds per step of the fastest probe this process has taken:
/// what [`REFERENCE_NS_PER_STEP`] should read on this machine once the
/// run has seen the faster clock state.
#[must_use]
pub fn fastest_ns_per_step() -> f64 {
    f64::from_bits(FASTEST_PROBE.load(Ordering::Relaxed)) * 1e9 / PROBE_STEPS as f64
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall seconds the call took.
    pub raw_s: f64,
    /// Reference-state seconds per wall second while it ran (below 1
    /// in the slow state).
    pub scale: f64,
    /// Whether the probes before and after agreed.
    pub steady: bool,
}

impl Sample {
    /// A sample from a call's wall time and the probe readings taken
    /// just before and just after it.
    #[must_use]
    pub fn new(raw_s: f64, probe_before_s: f64, probe_after_s: f64) -> Self {
        let reference_s = PROBE_STEPS as f64 * REFERENCE_NS_PER_STEP * 1e-9;
        let lo = probe_before_s.min(probe_after_s);
        let hi = probe_before_s.max(probe_after_s);
        Sample {
            raw_s,
            scale: reference_s / ((lo + hi) / 2.0),
            steady: hi - lo <= STEADY_TOLERANCE * lo,
        }
    }

    /// The call's time in reference-state seconds.
    #[must_use]
    pub fn scaled_s(&self) -> f64 {
        self.raw_s * self.scale
    }
}

/// Runs `f` between two probes and times it.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample) {
    let before = probe();
    let t = Instant::now();
    let out = f();
    let raw_s = t.elapsed().as_secs_f64();
    (out, Sample::new(raw_s, before, probe()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_reference_over_the_mean_probe() {
        let reference_s = PROBE_STEPS as f64 * REFERENCE_NS_PER_STEP * 1e-9;
        let s = Sample::new(2.0, reference_s, reference_s);
        assert!(s.steady);
        assert!((s.scale - 1.0).abs() < 1e-12);
        assert!((s.scaled_s() - 2.0).abs() < 1e-12);
        // Both probes 25 % slow: a fifth of the wall time was the clock.
        let s = Sample::new(2.0, 1.25 * reference_s, 1.25 * reference_s);
        assert!(s.steady);
        assert!((s.scaled_s() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn disagreeing_probes_mark_the_sample_unsteady() {
        let s = Sample::new(1.0, 1.00e-3, 1.02e-3);
        assert!(s.steady);
        let s = Sample::new(1.0, 1.00e-3, 1.27e-3);
        assert!(!s.steady);
        let s = Sample::new(1.0, 1.27e-3, 1.00e-3);
        assert!(!s.steady);
    }

    #[test]
    fn timed_returns_the_value_and_a_positive_time() {
        let (v, s) = timed(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(s.raw_s >= 0.0 && s.scale > 0.0);
        let now = probe();
        assert!(now > 0.0);
        let fastest = fastest_ns_per_step();
        assert!(fastest > 0.0 && fastest <= now * 1e9 / PROBE_STEPS as f64);
    }
}
