//! The serving workloads: `serve_mix` and `serve_durable_chaos`.
//!
//! Both drive `vip_serve` as a closed loop (16 clients, each waiting
//! for its reply and then thinking 0–40 000 cycles) over 4 simulated
//! devices, requests drawn from the standard mix, 5 000-cycle slices.
//!
//! A `serve` call cannot be paused from outside, and host time is the
//! sum over an iteration's calls of each call's best time (see
//! `estimator`), which repeats run to run only when a call is short
//! enough to find a quiet moment of the host. So both workloads are
//! cut into short calls the only way the public API allows:
//!
//! * `serve_mix` serves its 128 requests as [`MIX_SESSIONS`] sessions
//!   of [`MIX_REQUESTS`], each a `serve` call of its own on the
//!   functional engine with its own request trace. Over the four
//!   sessions the deterministic counters show every scheduler path at
//!   work: 11 preemptions, 9 migrations, 10 batches, a 0.81
//!   program-cache hit ratio (each session starts with a cold cache).
//! * `serve_durable_chaos` is one journaled, checkpointed session under
//!   chaos that is abandoned every [`STOP_EVERY`] settled events and
//!   resumed from disk — a crash-looping run, each resume a call. It
//!   runs on the cycle-accurate engine, because only there does a
//!   restored fleet repeat the uninterrupted run: the functional tier
//!   re-times its sampling windows after a restore, so on it a resume
//!   either fails its journal verification, and `serve_durable` then
//!   silently wipes the point and recomputes it from scratch, or, with
//!   no journal tail to verify, silently ends in a different outcome.
//!
//! The traffic shape — which class each request draws, every think
//! time, every chaos draw — is pinned by [`TRAFFIC_SEED`], not by
//! `--seed`: the serving layer stages fixed operand patterns, so a
//! seed has no payload to vary, and the simulated-time metrics
//! (`sim_cycles`, `sim_p99_latency_us`) carry a zero-tolerance bound
//! that a seed-dependent request trace would break on every run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vip_core::{RunOutcome, SystemConfig};
use vip_serve::{
    serve, serve_durable, serve_durable_interrupted, ChaosConfig, Engine, LoadMode, PointStore,
    ProgramCache, ServeConfig, ServeOutcome, Terminal, TileClass, Workload as Traffic,
};

use crate::clock::{self, Sample};
use crate::trace::Tracer;
use crate::workloads::{Iter, Workload};

/// Seed of the request traces (session `s` draws from
/// `TRAFFIC_SEED + s`) and of the chaos streams.
pub const TRAFFIC_SEED: u64 = 7;

/// Sessions per `serve_mix` iteration.
pub const MIX_SESSIONS: u64 = 4;

/// Requests per `serve_mix` session.
pub const MIX_REQUESTS: usize = 32;

/// Requests of the `serve_durable_chaos` session. On the
/// cycle-accurate engine 32 requests cost what 128 cost on the
/// functional one; at 128 an iteration takes 7 s and two requests end
/// `Failed`.
pub const DURABLE_REQUESTS: usize = 32;

/// Mean closed-loop think time in device cycles. (At the serving
/// benches' 200 000 the functional engine leaves the fleet half idle:
/// no slice length gives more than 4 preemptions.)
pub const THINK: u64 = 20_000;

/// Device slice length: short enough that the long BP jobs span many
/// slices, so interactive arrivals preempt them and parked jobs
/// migrate.
pub const QUANTUM: u64 = 5_000;

/// Whole-fleet checkpoint cadence of the durable run, in settled
/// scheduler events.
pub const CHECKPOINT_EVERY: u64 = 32;

/// Settled events between two crashes of the durable run. Half the
/// checkpoint cadence, so resumes alternate between a checkpoint with
/// an empty journal tail and one with 16 events to replay and verify.
pub const STOP_EVERY: u64 = 16;

/// Chaos intensity, percent of `ChaosConfig::default_rates`.
pub const CHAOS_SCALE_PCT: u32 = 100;

/// Fingerprint the durable run directories are filed under. Every
/// iteration gets a fresh directory, so no state of another
/// configuration can ever be replayed into a run.
const STORE_FINGERPRINT: u64 = 0x7065_7266_0000_0001;

/// A reference run of one dispatchable (class, batch) tile on the
/// serving engine.
#[derive(Debug, Clone, Copy)]
struct TileRef {
    class: TileClass,
    batch: usize,
    instructions: u64,
    cycles: u64,
}

/// Where the durable variant keeps its state.
struct Durable {
    out_dir: PathBuf,
    runs: u64,
    uninterrupted: Option<ServeOutcome>,
}

/// A closed-loop serving workload.
pub struct ServeWorkload {
    cfg: ServeConfig,
    sessions: Vec<Traffic>,
    table: Vec<TileRef>,
    durable: Option<Durable>,
    first: Option<Vec<ServeOutcome>>,
}

pub(crate) fn fleet(root: &Path, engine: Engine, chaos: Option<ChaosConfig>) -> ServeConfig {
    ServeConfig {
        devices: 4,
        quantum: QUANTUM,
        engine,
        schedule_dir: root.join("schedules"),
        chaos,
        ..ServeConfig::default()
    }
}

pub(crate) fn traffic(session: u64, requests: usize) -> Traffic {
    Traffic {
        seed: TRAFFIC_SEED + session,
        requests,
        mode: LoadMode::Closed {
            clients: 16,
            think: THINK,
        },
        mix: Traffic::standard_mix(),
    }
}

pub(crate) fn chaos() -> ChaosConfig {
    ChaosConfig::default_rates(TRAFFIC_SEED).scaled(CHAOS_SCALE_PCT)
}

/// Stages and runs one (class, batch) tile standalone on `engine`, in
/// slices of the fleet's quantum as a device of the fleet would;
/// returns its cycles, its retired instructions, and the clock-scaled
/// host seconds of staging and running it.
fn run_tile(
    cfg: &ServeConfig,
    cache: &ProgramCache,
    class: TileClass,
    batch: usize,
    engine: Engine,
) -> Result<(u64, u64, f64), String> {
    let dev_cfg = SystemConfig::single_vault(cfg.mem.clone());
    let ((ran, instructions), sample) = clock::timed(|| {
        let mut job = class.stage(&dev_cfg, batch, &cfg.schedule_dir, cache);
        job.sys.set_step_shards(1);
        job.load_programs();
        let mut pause_at = cfg.quantum;
        let ran = loop {
            match engine.advance(&mut job.sys, pause_at, job.limit) {
                Ok(RunOutcome::Paused(_)) => pause_at += cfg.quantum,
                Ok(RunOutcome::Quiesced(cycles)) => break Ok(cycles),
                Err(e) => break Err(e),
            }
        };
        (ran, job.sys.stats().pe.instructions)
    });
    let cycles = ran.map_err(|e| format!("reference tile {class:?} x{batch} failed: {e}"))?;
    Ok((cycles, instructions, sample.scaled_s()))
}

/// Whether the durable run directory under `dir` holds a file whose
/// name ends in `suffix`.
fn run_dir_has(dir: &Path, suffix: &str) -> Result<bool, String> {
    Ok(
        std::fs::read_dir(vip_serve::run_dir(dir, STORE_FINGERPRINT))
            .map_err(|e| format!("list run directory: {e}"))?
            .flatten()
            .any(|e| e.file_name().to_string_lossy().ends_with(suffix)),
    )
}

impl ServeWorkload {
    fn new(cfg: ServeConfig, sessions: Vec<Traffic>, durable: Option<Durable>) -> Self {
        // The reference table: every (class, batch) the scheduler can
        // dispatch, staged through the same stagers and program cache
        // and run once on the serving engine. It supplies the simulated
        // instruction counts `ServeOutcome` does not carry (barrier
        // spins make them the engine's own).
        let cache = ProgramCache::new();
        let mut table = Vec::new();
        for entry in Traffic::standard_mix() {
            for batch in 1..=entry.class.batch_limit().min(cfg.batch_max) {
                let (cycles, instructions, _) =
                    run_tile(&cfg, &cache, entry.class, batch, cfg.engine)
                        .expect("reference tiles of the standard mix run clean");
                table.push(TileRef {
                    class: entry.class,
                    batch,
                    instructions,
                    cycles,
                });
            }
        }
        ServeWorkload {
            cfg,
            sessions,
            table,
            durable,
            first: None,
        }
    }

    /// `serve_mix`: the clean fleet on the functional engine.
    #[must_use]
    pub fn mix(root: &Path) -> Self {
        let sessions = (0..MIX_SESSIONS)
            .map(|s| traffic(s, MIX_REQUESTS))
            .collect();
        Self::new(fleet(root, Engine::Functional, None), sessions, None)
    }

    /// `serve_durable_chaos`: one session on the cycle-accurate engine
    /// under chaos, journaled, crashed and resumed again and again.
    #[must_use]
    pub fn durable_chaos(root: &Path) -> Self {
        let durable = Durable {
            out_dir: root.join("perf/out"),
            runs: 0,
            uninterrupted: None,
        };
        Self::new(
            fleet(root, Engine::Fast, Some(chaos())),
            vec![traffic(0, DURABLE_REQUESTS)],
            Some(durable),
        )
    }

    /// Completed tiles per (class, batch) of `outcomes`, from the
    /// served requests (each tile of batch `b` serves `b` of them).
    fn tiles_run(&self, outcomes: &[ServeOutcome]) -> Vec<(&TileRef, f64)> {
        let mut served: Vec<(&TileRef, f64)> = self.table.iter().map(|t| (t, 0.0)).collect();
        let records = outcomes.iter().flat_map(|o| &o.records);
        for rec in records.filter(|r| r.status.is_served()) {
            let slot = served
                .iter_mut()
                .find(|(t, _)| t.class == rec.class && t.batch == rec.batch)
                .expect("the table covers every dispatchable (class, batch)");
            slot.1 += 1.0 / rec.batch as f64;
        }
        served.retain(|(_, tiles)| *tiles > 0.0);
        served
    }

    /// One durable run: the session journals and checkpoints until it
    /// is abandoned [`STOP_EVERY`] events on, then reopens the store,
    /// restores the latest checkpoint, replays and verifies the journal
    /// tail, and goes on to the next crash — until it finishes. Every
    /// segment is a timed call.
    fn run_durable(&mut self, tr: &mut Tracer, it: &mut Iter) -> Result<ServeOutcome, String> {
        let (cfg, traffic) = (&self.cfg, &self.sessions[0]);
        let durable = self.durable.as_mut().expect("durable variant");
        let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
        // A fresh directory per run, removed on success: a rerun can
        // never resume stale state.
        durable.runs += 1;
        let dir = durable
            .out_dir
            .join(format!("durable-{}-{}", std::process::id(), durable.runs));
        let _ = std::fs::remove_dir_all(&dir);
        let open = |tr: &mut Tracer| {
            tr.span("serve.store_open", |_| {
                PointStore::open(&dir, 0, STORE_FINGERPRINT)
            })
            .map_err(|e| fail("open store", &e))
        };

        if durable.uninterrupted.is_none() {
            let mut store = open(tr)?;
            let whole = tr
                .span("serve.durable_reference", |_| {
                    serve_durable(cfg, traffic, &mut store, CHECKPOINT_EVERY)
                })
                .map_err(|e| fail("uninterrupted durable run", &e))?;
            durable.uninterrupted = Some(whole);
            drop(store);
            std::fs::remove_dir_all(&dir).map_err(|e| fail("clean run directory", &e))?;
        }

        let mut stop_after = 0;
        loop {
            // What the last crash left: no finished point yet, and past
            // the first checkpoint one on disk to resume from.
            let resumable = tr.span("harness.verify", |_| {
                if stop_after == 0 {
                    return Ok(true);
                }
                if run_dir_has(&dir, ".done")? {
                    return Ok(false);
                }
                if stop_after >= CHECKPOINT_EVERY && !run_dir_has(&dir, ".ckpt")? {
                    return Err(format!(
                        "the crash after {stop_after} events left no checkpoint"
                    ));
                }
                Ok(true)
            })?;
            if !resumable {
                break;
            }
            stop_after += STOP_EVERY;
            let (ran, segment) = tr.timed_span("serve.durable_segment", |tr| {
                let mut store = open(tr)?;
                serve_durable_interrupted(cfg, traffic, &mut store, CHECKPOINT_EVERY, stop_after)
                    .map_err(|e| fail("durable segment", &e))
            });
            ran?;
            it.calls.push(segment);
        }

        // The finished point's done-record is the outcome.
        let resumed = tr.span("serve.durable_result", |tr| {
            let mut store = open(tr)?;
            serve_durable(cfg, traffic, &mut store, CHECKPOINT_EVERY)
                .map_err(|e| fail("read the finished run", &e))
        })?;
        it.attempted += 1;
        if Some(&resumed) != durable.uninterrupted.as_ref() {
            eprintln!("resumed outcome differs from the uninterrupted durable run's");
            it.failed += 1;
        }
        tr.span("harness.cleanup", |_| std::fs::remove_dir_all(&dir))
            .map_err(|e| fail("clean run directory", &e))?;
        Ok(resumed)
    }
}

impl Workload for ServeWorkload {
    fn iterate(&mut self, tr: &mut Tracer) -> Iter {
        let mut it = Iter::default();
        let outcomes = if self.durable.is_some() {
            match self.run_durable(tr, &mut it) {
                Ok(outcome) => vec![outcome],
                Err(e) => {
                    eprintln!("durable run failed: {e}");
                    it.attempted += 1;
                    it.failed += 1;
                    return it;
                }
            }
        } else {
            let mut outcomes = Vec::with_capacity(self.sessions.len());
            for session in &self.sessions {
                let (outcome, sample) = tr.timed_span("serve.serve", |_| serve(&self.cfg, session));
                it.calls.push(sample);
                outcomes.push(outcome);
            }
            outcomes
        };

        tr.span("harness.verify", |_| {
            // Every request is an operation; so is the iteration as a
            // whole, which must repeat the first one's outcomes exactly.
            let unserved = outcomes
                .iter()
                .flat_map(|o| &o.records)
                .filter(|r| !r.status.is_served())
                .count() as u64;
            it.attempted += outcomes.iter().map(|o| o.records.len() as u64).sum::<u64>() + 1;
            // A request chaos kept from being served is counted, and
            // expected; without chaos it is a failed check.
            if self.cfg.chaos.is_some() {
                it.chaos_unserved += unserved;
            } else {
                it.failed += unserved;
            }
            match &self.first {
                Some(first) if *first != outcomes => {
                    eprintln!("serve outcome differs from the first iteration's");
                    it.failed += 1;
                }
                Some(_) => {}
                None => self.first = Some(outcomes.clone()),
            }
        });

        let records = || outcomes.iter().flat_map(|o| &o.records);
        it.sim_cycles = outcomes.iter().map(|o| o.makespan).sum();
        it.sim_work_cycles = outcomes.iter().flat_map(|o| &o.device_busy).sum();
        it.latencies = records().filter_map(|r| r.latency()).collect();
        let mut instr = 0.0;
        for (tile, tiles) in self.tiles_run(&outcomes) {
            instr += tile.instructions as f64 * tiles;
            it.unit_cycles.push(tile.cycles);
        }
        it.sim_instr = instr.round() as u64;

        let sum = |f: fn(&ServeOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
        let (hits, misses) = (sum(|o| o.cache_hits), sum(|o| o.cache_misses));
        let recovered = records()
            .filter(|r| matches!(r.status, Terminal::Recovered { .. }))
            .count();
        for (name, value) in [
            ("serve.cache.hit_ratio", hits / (hits + misses).max(1.0)),
            ("serve.dispatches", sum(|o| o.dispatches)),
            ("serve.batches", sum(|o| o.batches)),
            ("serve.preemptions", sum(|o| o.preemptions)),
            ("serve.migrations", sum(|o| o.migrations)),
            ("serve.rejections", sum(|o| o.rejections)),
            ("serve.chaos.retries", sum(|o| o.chaos.job_retries)),
            ("serve.chaos.recovered", recovered as f64),
            ("serve.chaos.quarantines", sum(|o| o.chaos.quarantines)),
            ("serve.chaos.failed", sum(|o| o.chaos.failed)),
        ] {
            it.rows.insert(name, value);
        }
        it
    }

    /// Worst of the mix's three tile classes, unbatched: each run once
    /// on the engine the fleet does not serve on, against the table's
    /// run on the one it does.
    fn func_cycle_err_pct_abs(&mut self, _reference: &Iter) -> Result<f64, String> {
        let cache = ProgramCache::new();
        let mut worst = 0f64;
        for tile in self.table.iter().filter(|t| t.batch == 1) {
            let (exact, estimate) = match self.cfg.engine {
                Engine::Functional => (
                    run_tile(&self.cfg, &cache, tile.class, 1, Engine::Fast)?.0,
                    tile.cycles,
                ),
                _ => (
                    tile.cycles,
                    run_tile(&self.cfg, &cache, tile.class, 1, Engine::Functional)?.0,
                ),
            };
            let err = (estimate as f64 - exact as f64).abs() / exact as f64;
            worst = worst.max(err * 100.0);
        }
        Ok(worst)
    }

    fn traced_rows(&mut self, reference: &Iter, call_s: &[f64]) -> BTreeMap<&'static str, f64> {
        let mut rows = BTreeMap::new();
        let host_s: f64 = call_s.iter().sum();
        let Some(first) = self.first.as_ref() else {
            return rows;
        };
        let dispatches = reference
            .rows
            .get("serve.dispatches")
            .copied()
            .unwrap_or(0.0);
        rows.insert(
            "serve.host_us_per_dispatch",
            host_s / dispatches.max(1.0) * 1e6,
        );
        // What the dispatched tiles cost when staged and run on their
        // own, on the serving engine, with a warm program cache (best
        // of six); the rest of the serve calls is scheduler, cache,
        // snapshot and (durable) journal, checkpoint and resume work.
        let cache = ProgramCache::new();
        let mut standalone = 0.0;
        for (tile, tiles) in self.tiles_run(first) {
            let best = (0..7)
                .filter_map(|_| {
                    run_tile(&self.cfg, &cache, tile.class, tile.batch, self.cfg.engine).ok()
                })
                .skip(1) // the first run fills the cache
                .map(|(_, _, host_s)| host_s)
                .fold(f64::INFINITY, f64::min);
            standalone += best * tiles;
        }
        rows.insert("serve.residual_share", 1.0 - standalone / host_s);
        if self.durable.is_some() {
            // Phase A is the segments of the first half of the run's
            // events, phase B the rest.
            let (phase_a, phase_b) = call_s.split_at(call_s.len() / 2);
            rows.insert("serve.durable.phaseA_s", phase_a.iter().sum());
            rows.insert("serve.durable.phaseB_s", phase_b.iter().sum());
            let plain: Vec<(ServeOutcome, Sample)> = (0..3)
                .map(|_| clock::timed(|| serve(&self.cfg, &self.sessions[0])))
                .collect();
            if plain.iter().all(|(outcome, _)| *outcome == first[0]) {
                let best = plain
                    .iter()
                    .map(|(_, s)| s.scaled_s())
                    .fold(f64::INFINITY, f64::min);
                rows.insert("serve.durable.overhead_ratio", host_s / best);
            } else {
                eprintln!("plain chaos run differs from the durable one; no overhead ratio");
            }
        }
        rows
    }
}
