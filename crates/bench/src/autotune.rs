//! Parallel schedule autotuning over the kernel codegen knobs.
//!
//! The search runs the methodology ROADMAP item 5 asks for: enumerate
//! a kernel's valid schedule grid ([`SearchSpace::enumerate`]), sample
//! it with a seeded shuffle, prune cheaply on the two-tier functional
//! engine, and promote the survivors to full cycle-accurate
//! confirmation. Concretely, per kernel:
//!
//! 1. **Seed** — the stock grid is enumerated (invalid points are
//!    already fenced off by `TileClass::validate`) and, when larger
//!    than the point budget, sampled without replacement by a
//!    [`SplitMix64`] shuffle of the fixed `--seed`.
//! 2. **Halving rungs (functional tier)** — every candidate runs on
//!    [`Engine::Functional`],
//!    first with a stretched duty cycle (few accurate timing windows —
//!    fast, rough), then the surviving half with the default window
//!    density (slower, ~1% cycle error). Each rung keeps the better
//!    half by estimated cycles.
//! 3. **Confirm (cycle-accurate)** — the last `confirm` survivors plus
//!    the hand-picked default run on the event-driven cycle-accurate
//!    engine; the winner is the point with the fewest *exact* cycles,
//!    ties broken by the schedule encoding, so the result is a total
//!    order independent of thread interleaving.
//!
//! Points execute on a scoped thread pool (`--jobs`) pulling indices
//! from a shared atomic counter — work stealing without a queue
//! structure. Every point, on either engine, goes through the
//! checkpointing [`Runner`] (`Runner::run_point` with its engine), so a
//! killed search resumed with `--resume` skips every finished point,
//! picks an interrupted one up from its checkpoint, and reproduces
//! bit-identical results: simulation is deterministic, a restored
//! point continues exactly as the paused one would have, ranking is a
//! pure function of the results, and artifact serialization is
//! byte-stable.

use std::io;
use std::time::Instant;

use vip_core::{Engine, FuncConfig, SystemConfig};
use vip_kernels::schedule::{BpSearchSpace, ConvSearchSpace, FcSearchSpace, Schedule, SearchSpace};
use vip_kernels::schedule_store;
use vip_kernels::tile::TileClass;
use vip_mem::MemConfig;
use vip_rng::SplitMix64;
use vip_serve::fan_out;

use crate::experiments::{self, FC_TILE_LARGE};
use crate::runner::{PointStatus, Runner};

/// One kernel family's tuning target: the dense timing tile the paper's
/// evaluation is built around, in its autotunable shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneKernel {
    /// The 64×32×16 BP-M tile, one iteration.
    Bp,
    /// The deep convolution tile (64→64 channels, 16×8).
    Cnn,
    /// The large fully-connected tile (2048×256).
    Mlp,
}

impl TuneKernel {
    /// Every tunable kernel, in report order.
    pub const ALL: [TuneKernel; 3] = [TuneKernel::Bp, TuneKernel::Cnn, TuneKernel::Mlp];

    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TuneKernel::Bp => "bp",
            TuneKernel::Cnn => "cnn",
            TuneKernel::Mlp => "mlp",
        }
    }

    /// The timing tile this kernel tunes: its shape, its default
    /// schedule, its artifact key and its stager.
    #[must_use]
    pub fn class(self) -> TileClass {
        match self {
            TuneKernel::Bp => experiments::bp_tile(1),
            TuneKernel::Cnn => TileClass::Cnn {
                in_channels: 64,
                out_channels: 64,
                filters_per_group: 2,
            },
            TuneKernel::Mlp => TileClass::Mlp {
                inputs: FC_TILE_LARGE.0,
                outputs: FC_TILE_LARGE.1,
            },
        }
    }

    fn space(self) -> SearchSpace {
        match self {
            TuneKernel::Bp => SearchSpace::Bp(BpSearchSpace::stock()),
            TuneKernel::Cnn => SearchSpace::Conv(ConvSearchSpace::stock()),
            TuneKernel::Mlp => SearchSpace::Fc(FcSearchSpace::stock()),
        }
    }
}

/// Search parameters.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// Deterministic seed for the sampling shuffle.
    pub seed: u64,
    /// Worker threads pulling points off the shared queue.
    pub jobs: usize,
    /// Point budget per kernel (`0` = the whole valid grid).
    pub sample: usize,
    /// Survivors promoted to cycle-accurate confirmation.
    pub confirm: usize,
    /// Memory preset for the simulated machine.
    pub mem: MemConfig,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: 7,
            jobs: 1,
            sample: 0,
            confirm: 3,
            mem: MemConfig::baseline(),
        }
    }
}

/// One kernel's search outcome.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Which kernel.
    pub kernel: TuneKernel,
    /// The artifact-store shape key.
    pub key: String,
    /// Structural configuration fingerprint of the tuned machine.
    pub fingerprint: u64,
    /// Valid grid points enumerated.
    pub grid: usize,
    /// Points actually searched (after sampling).
    pub searched: usize,
    /// The best schedule found (cycle-accurate winner).
    pub best: Schedule,
    /// Exact cycles of the best schedule.
    pub best_cycles: u64,
    /// Exact cycles of the hand-picked default on the same tile.
    pub default_cycles: u64,
    /// Host seconds this kernel's search took.
    pub wall_s: f64,
}

impl TuneResult {
    /// Fractional improvement of best over default (positive = faster).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        1.0 - self.best_cycles as f64 / self.default_cycles as f64
    }
}

/// A rung-0 functional pass with a stretched duty cycle: ~4x fewer
/// accurate timing windows than the default, trading estimate quality
/// for host speed.
fn rough_func_config() -> FuncConfig {
    FuncConfig {
        stretch_work: FuncConfig::default().stretch_work * 4,
        ..FuncConfig::default()
    }
}

/// Deterministically samples `take` schedules from `all` without
/// replacement (seeded Fisher–Yates prefix). `take == 0` or
/// `take >= all.len()` keeps the whole grid.
fn sample_points(all: Vec<Schedule>, take: usize, seed: u64) -> Vec<Schedule> {
    if take == 0 || take >= all.len() {
        return all;
    }
    let mut rng = SplitMix64::new(seed);
    let mut pool = all;
    for i in 0..take {
        let j = i + rng.usize_in(0..pool.len() - i);
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

/// Ranks `(cycles, schedule)` rows ascending by cycles, ties broken by
/// the schedule encoding — a total order with no dependence on
/// completion order.
fn rank(rows: &mut [(u64, Schedule)]) {
    rows.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| a.1.encoding().cmp(&b.1.encoding()))
    });
}

/// Tunes one kernel through the full pipeline. All durable state goes
/// through `runner` (so `--resume` works mid-search); the returned
/// result is deterministic for a fixed seed regardless of `cfg.jobs`.
///
/// # Errors
///
/// Fails only on I/O errors against the runner's directory.
pub fn tune_kernel(
    kernel: TuneKernel,
    cfg: &TuneConfig,
    runner: &Runner,
) -> io::Result<TuneResult> {
    let started = Instant::now();
    let class = kernel.class();
    let key = class.key();
    let machine = SystemConfig::single_vault(cfg.mem.clone());
    let fingerprint = machine.snapshot_fingerprint();
    let grid = kernel.space().enumerate(&class, &machine);
    let grid_size = grid.len();
    let mut candidates = sample_points(grid, cfg.sample, cfg.seed ^ fingerprint);
    let searched = candidates.len();

    // Halving rungs on the functional tier: rough duty cycle first,
    // default second. Each rung keeps the better half (at least the
    // confirmation count).
    let rungs = [(0usize, Some(rough_func_config())), (1, None)];
    for (rung, func) in rungs {
        if candidates.len() <= cfg.confirm {
            break;
        }
        let run_one = |i: usize| -> io::Result<(u64, Schedule)> {
            let sched = candidates[i];
            let name = format!("tune-{key}@func{rung}");
            let res = runner.run_point(
                &name,
                &sched.encoding(),
                fingerprint,
                Engine::Functional,
                || {
                    let tile = experiments::tile_sim_scheduled(cfg.mem.clone(), class, 1, &sched);
                    match func {
                        Some(f) => tile.with_func_config(f),
                        None => tile,
                    }
                },
            )?;
            // A degraded point ranks last but stays recorded.
            let cycles = match res.status {
                PointStatus::Completed => res.cycles,
                PointStatus::Degraded => u64::MAX,
            };
            Ok((cycles, sched))
        };
        let mut rows = fan_out(cfg.jobs, candidates.len(), run_one)
            .into_iter()
            .collect::<io::Result<Vec<_>>>()?;
        rank(&mut rows);
        let keep = candidates.len().div_ceil(2).max(cfg.confirm);
        rows.truncate(keep);
        candidates = rows.into_iter().map(|(_, s)| s).collect();
    }

    // Cycle-accurate confirmation: survivors plus the hand-picked
    // default (so the winner's margin is measured, not estimated).
    let default = class.default_schedule();
    if !candidates.contains(&default) {
        candidates.push(default);
    }
    let confirm_one = |i: usize| -> io::Result<(u64, Schedule)> {
        let sched = candidates[i];
        let name = format!("tune-{key}@cycle");
        let res = runner.run_point(&name, &sched.encoding(), fingerprint, Engine::Fast, || {
            experiments::tile_sim_scheduled(cfg.mem.clone(), class, 1, &sched)
        })?;
        let cycles = match res.status {
            PointStatus::Completed => res.cycles,
            PointStatus::Degraded => u64::MAX,
        };
        Ok((cycles, sched))
    };
    let mut rows = fan_out(cfg.jobs, candidates.len(), confirm_one)
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?;
    let default_cycles = rows
        .iter()
        .find(|(_, s)| *s == default)
        .expect("default was confirmed")
        .0;
    rank(&mut rows);
    let (best_cycles, best) = rows[0];

    Ok(TuneResult {
        kernel,
        key,
        fingerprint,
        grid: grid_size,
        searched,
        best,
        best_cycles,
        default_cycles,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// Tunes every kernel in [`TuneKernel::ALL`] and writes the winning
/// schedule artifacts into `out` ([`vip_kernels::schedule_store`]
/// layout). An artifact is written even when the winner *is* the
/// default — the checked-in file then documents that the default
/// survived the search.
///
/// # Errors
///
/// Fails only on I/O errors against the runner's directory or the
/// artifact directory.
pub fn tune_all(
    cfg: &TuneConfig,
    runner: &Runner,
    out: &std::path::Path,
) -> io::Result<Vec<TuneResult>> {
    let mut results = Vec::new();
    for kernel in TuneKernel::ALL {
        let res = tune_kernel(kernel, cfg, runner)?;
        schedule_store::save(out, &res.key, res.fingerprint, &res.best)?;
        results.push(res);
    }
    Ok(results)
}

/// Renders the `BENCH_autotune.json` report. Every field except
/// `wall_s` and `jobs` is deterministic for a fixed seed.
#[must_use]
pub fn report_json(cfg: &TuneConfig, results: &[TuneResult]) -> String {
    let entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"key\": \"{}\", \"fingerprint\": \"{:016x}\", \
                 \"grid_points\": {}, \"searched_points\": {}, \
                 \"default_cycles\": {}, \"best_cycles\": {}, \
                 \"improvement_pct\": {:.2}, \"best_schedule\": \"{}\", \"wall_s\": {:.3}}}",
                r.kernel.label(),
                r.key,
                r.fingerprint,
                r.grid,
                r.searched,
                r.default_cycles,
                r.best_cycles,
                r.improvement() * 100.0,
                r.best.encoding(),
                r.wall_s,
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"autotune\",\n  \"unit_note\": \"default_cycles and best_cycles are \
         exact event-driven cycle counts of each kernel's dense timing tile; improvement_pct = \
         1 - best/default; searches prune on the functional tier and confirm survivors \
         cycle-accurately\",\n  \"seed\": {},\n  \"jobs\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        cfg.jobs,
        entries.join(",\n")
    )
}
