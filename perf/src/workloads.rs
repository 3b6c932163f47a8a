//! The workload interface and the table of the six workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::clock::Sample;
use crate::serving::ServeWorkload;
use crate::tiles::{self, Engine, TileWorkload};
use crate::trace::Tracer;

/// What one iteration of a workload produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Iter {
    /// The timed region: one sample per engine / `serve` call, in
    /// call order (staging, read-back and checking are outside it).
    /// Call `k` does the same simulated work in every iteration.
    pub calls: Vec<Sample>,
    /// Calls `k` and `k + period` of the timed region do the same
    /// simulated work; 0 when no two calls do.
    pub period: usize,
    /// Simulated cycles the iteration reports as `sim_cycles`: Σ tile
    /// quiesce cycles, or the fleet makespan.
    pub sim_cycles: u64,
    /// Simulated cycles of device work, the numerator of
    /// `sim_mcycles_per_host_s`: Σ tile quiesce cycles, or Σ
    /// per-device busy cycles.
    pub sim_work_cycles: u64,
    /// Simulated instructions retired.
    pub sim_instr: u64,
    /// Simulated latency of every operation, in cycles (tile runs or
    /// served requests).
    pub latencies: Vec<u64>,
    /// Simulated cycles of every unit of device work, in execution
    /// order (what the accuracy pass compares engine against engine).
    pub unit_cycles: Vec<u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Requests that chaos injection kept from being served: counted
    /// among the failed operations of the result line, but expected, so
    /// they do not fail the run.
    pub chaos_unserved: u64,
    /// Per-layer count rows this iteration contributes (name → value).
    pub rows: BTreeMap<&'static str, f64>,
}

impl Iter {
    /// Whether two iterations agree on every simulated result (host
    /// time aside) — the repeat-exactly check.
    #[must_use]
    pub fn same_simulation(&self, other: &Iter) -> bool {
        let strip = |it: &Iter| Iter {
            calls: Vec::new(),
            ..it.clone()
        };
        strip(self) == strip(other)
    }
}

/// One benchmark workload, already set up.
pub trait Workload {
    /// Rebuilds the inputs, runs the timed region, checks the outputs.
    fn iterate(&mut self, tr: &mut Tracer) -> Iter;

    /// The accuracy pass, run once outside every timed region: worst
    /// |functional-tier cycle estimate − cycle-accurate count| ÷
    /// cycle-accurate count × 100 over the tile shapes the workload
    /// executed in `reference` (its first iteration).
    ///
    /// # Errors
    ///
    /// A message when a reference simulation itself fails.
    fn func_cycle_err_pct_abs(&mut self, reference: &Iter) -> Result<f64, String>;

    /// Per-layer rows that cost extra runs and are therefore only
    /// produced in the traced pass. `call_s` is the untraced host time
    /// of each call of an iteration (`host_s_per_iter` is its sum),
    /// measured beside the traced iterations.
    fn traced_rows(&mut self, _reference: &Iter, _call_s: &[f64]) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
}

/// One workload of the benchmark.
pub struct Spec {
    /// Name, as `BENCHMARK.json` and `--workload` spell it.
    pub name: &'static str,
    /// The one-line reason it exists.
    pub why: &'static str,
    /// Timed iterations per second of `--seconds`.
    pub iters_per_s: f64,
    /// Times a run sets the workload up.
    pub setups: usize,
}

/// The six workloads, in ledger order.
///
/// A run makes `iters_per_s × seconds` timed iterations and `setups`
/// set-ups whatever the host's speed, because every host time is a
/// minimum and a minimum can only fall as samples are added: a count
/// that followed the host would let a faster or quieter host report a
/// better time for the same program twice over. The rates are what the
/// defining machine sustains in the slower of its two clock states, so
/// there a run's iterations take `--seconds`; the set-up counts give the
/// 5 ms set-ups as many samples as they need and keep the 0.8 s one
/// inside the run's time budget.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "tile_exact",
        why: "BP, conv and FC evaluation tiles on the cycle-accurate event engine: PE, vector, LSU and vault-controller ticks do the work",
        iters_per_s: 0.8,
        setups: 12,
    },
    Spec {
        name: "tile_functional",
        why: "the same tiles on the functional tier: decoded-block lane loops and storage dominate; carries the accuracy metric",
        iters_per_s: 0.9,
        setups: 12,
    },
    Spec {
        name: "latency_chase",
        why: "dependent row-miss loads with tens of idle cycles each: next_event/skip_to dominate, PE issue and lane loops are bypassed",
        iters_per_s: 4.0,
        setups: 40,
    },
    Spec {
        name: "noc_bp",
        why: "one BP-M iteration across vaults: the only workload loading the torus, multi-vault HMC and the step loop over more than 4 PEs",
        iters_per_s: 0.6,
        setups: 24,
    },
    Spec {
        name: "serve_mix",
        why: "four closed-loop sessions on the functional engine: staging, program cache, scheduler events, snapshot preempt/migrate; --seed has no payload to vary, traffic is pinned",
        iters_per_s: 1.5,
        setups: 6,
    },
    Spec {
        name: "serve_durable_chaos",
        why: "journaled chaos session crashed and resumed every 16 events: snapshot codec, journal, checkpoint restore, verified replay; traffic and chaos seeds pinned, not --seed",
        iters_per_s: 1.2,
        setups: 3,
    },
];

impl Spec {
    /// The workload called `name`.
    ///
    /// # Errors
    ///
    /// A message naming the known workloads.
    pub fn named(name: &str) -> Result<&'static Spec, String> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (one of {names:?})")
        })
    }

    /// Timed iterations a run makes for `--seconds`: never fewer than
    /// four (a traced run alternates traced and untraced iterations and
    /// needs two of each).
    #[must_use]
    pub fn iterations(&self, seconds: f64) -> usize {
        ((self.iters_per_s * seconds).round() as usize).max(4)
    }
}

/// Where the repository's files live relative to the working
/// directory: the documented command runs from the repository root,
/// `cargo test` from `perf/`.
///
/// # Errors
///
/// A message when neither place holds `schedules/` and `perf/`.
pub fn repo_root() -> Result<PathBuf, String> {
    [".", ".."]
        .into_iter()
        .map(PathBuf::from)
        .find(|root| root.join("schedules").is_dir() && root.join("perf/Cargo.toml").is_file())
        .ok_or_else(|| "run from the repository root (schedules/ and perf/ not found)".to_owned())
}

/// Sets up workload `spec` from `seed`: generated operands, programs,
/// golden outputs, a first staging of every tile, reference tables —
/// everything up to its first iteration. Timed by the caller as
/// `setup_s`.
///
/// # Panics
///
/// Panics on a [`Spec`] that is not one of [`WORKLOADS`].
#[must_use]
pub fn build(spec: &Spec, seed: u64, root: &Path) -> Box<dyn Workload> {
    let sched_dir = root.join("schedules");
    match spec.name {
        "tile_exact" => Box::new(TileWorkload::new(
            tiles::eval_tiles(seed, &sched_dir),
            Engine::Event,
            1,
        )),
        "tile_functional" => Box::new(TileWorkload::new(
            tiles::eval_tiles(seed, &sched_dir),
            Engine::Functional,
            tiles::FUNCTIONAL_REPEATS,
        )),
        "latency_chase" => Box::new(TileWorkload::new(
            vec![tiles::chase_tile(
                seed,
                tiles::CHASE_CHAIN,
                tiles::CHASE_LAPS,
            )],
            Engine::Event,
            1,
        )),
        "noc_bp" => Box::new(TileWorkload::new(
            vec![tiles::noc_bp_tile(seed, tiles::NOC_BP_PES)],
            Engine::Event,
            1,
        )),
        // The serving layer stages fixed operand patterns: there is
        // nothing for the seed to draw (see `serving`).
        "serve_mix" => Box::new(ServeWorkload::mix(root)),
        "serve_durable_chaos" => Box::new(ServeWorkload::durable_chaos(root)),
        other => unreachable!("`{other}` is in WORKLOADS but has no builder"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke test: every workload sets up from a seed other than
    /// the default, checks every output of two iterations, fails no
    /// operation, and repeats its simulated results exactly.
    #[test]
    fn every_workload_runs_clean_and_repeats_exactly() {
        let root = repo_root().expect("repository root");
        let mut tr = Tracer::disabled();
        for spec in &WORKLOADS {
            let name = spec.name;
            let mut workload = build(spec, 11, &root);
            let first = workload.iterate(&mut tr);
            let second = workload.iterate(&mut tr);
            assert!(first.attempted > 0, "{name}");
            assert_eq!((first.failed, second.failed), (0, 0), "{name}");
            assert_eq!(first.chaos_unserved, 0, "{name}");
            assert!(first.sim_cycles > 0 && first.sim_instr > 0, "{name}");
            assert!(
                !first.calls.is_empty() && !first.latencies.is_empty(),
                "{name}"
            );
            assert_eq!(first.sim_cycles, second.sim_cycles, "{name}");
            assert!(first.same_simulation(&second), "{name}");
            assert_eq!(first.calls.len(), second.calls.len(), "{name}");
        }
    }

    #[test]
    fn the_iteration_count_follows_the_seconds_and_nothing_else() {
        let exact = Spec::named("tile_exact").expect("a listed workload");
        assert_eq!(exact.iterations(15.0), 12);
        assert_eq!(exact.iterations(30.0), 24);
        // Two traced and two untraced iterations at the least.
        assert_eq!(exact.iterations(1.0), 4);
    }

    #[test]
    fn an_unknown_workload_is_an_error_naming_the_known_ones() {
        let err = Spec::named("tile_exact_").err().expect("no such workload");
        assert!(err.contains("tile_exact_") && err.contains("serve_durable_chaos"));
    }
}
