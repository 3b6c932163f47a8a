//! Seeded chaos injection and the fleet's failure taxonomy.
//!
//! Production fleets lose devices: bits flip, tiles wedge, whole chips
//! fall over mid-job. This module is the deterministic model of that
//! regime — every perturbation is drawn from a per-device
//! [`SplitMix64`](vip_rng::SplitMix64) stream seeded from
//! [`ChaosConfig::seed`], and the scheduler's event loop serializes
//! every draw, so a chaos run is exactly as reproducible as a clean
//! one: same seed + same config ⇒ the same crashes on the same slices,
//! the same recoveries, byte-identical reports at any `--jobs`.
//!
//! Three failure classes, all architecturally meaningful rather than
//! synthetic:
//!
//! * **Fault-poisoned devices** — a seeded fraction of the fleet runs
//!   with a live per-device [`FaultConfig`] (DRAM retention flips on
//!   the vault read path). Single-bit hits are absorbed by SECDED and
//!   never change results; double-bit hits surface as the typed
//!   [`SimError::UncorrectableMemory`](vip_core::SimError) machine
//!   check and fail the job cleanly.
//! * **Induced hangs** — a slice-start draw wedges the device by
//!   capping the engine's cycle budget at the slice boundary, so the
//!   run surfaces a genuine [`HangReport`](vip_core::HangReport) of
//!   the live machine (which PEs are parked where), not a fabricated
//!   error.
//! * **Device crashes** — a slice-end draw kills the device outright:
//!   the in-flight slice is lost, the job recovers elsewhere, and the
//!   device is quarantined (or, on a second draw, permanently
//!   decommissioned).
//!
//! The recovery half lives in [`scheduler`](crate::scheduler); this
//! module also carries the chaos *sweep* — availability, recovery
//! latency, and goodput versus injected failure rate, rendered as
//! `BENCH_chaos.json`.

use vip_core::FailureClass;
use vip_faults::FaultConfig;
use vip_rng::SplitMix64;
use vip_snap::{snapshot_enum, snapshot_struct, Fingerprint, Snapshot, Writer};

use crate::durable::{DurableConfig, DurableError, PointStore};
use crate::fanout::fan_out;
use crate::metrics::{availability_pct, ms, recovery_summary, throughput_rps};
use crate::scheduler::{serve, serve_durable, Rejection, ServeConfig, ServeOutcome};
use crate::workload::{LoadMode, MixEntry, Workload};

/// Chaos-model knobs. All rates are integer parts-per-million
/// ([`vip_faults::PPM_SCALE`]) so configs stay `Copy + Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for every per-device chaos stream (independent of the
    /// workload seed).
    pub seed: u64,
    /// Per-slice-end chance the device crashes, losing the slice.
    pub crash_ppm: u32,
    /// Given a crash, chance it is a permanent decommission rather
    /// than a recoverable quarantine.
    pub decommission_ppm: u32,
    /// Per-slice-start chance the slice wedges (the engine's budget is
    /// capped at the slice boundary, surfacing a genuine hang report).
    pub hang_ppm: u32,
    /// Per-device chance (drawn once at fleet construction) the device
    /// runs with the live fault injector below.
    pub flaky_ppm: u32,
    /// Fault template applied to flaky devices; each device's sections
    /// are re-seeded from its own chaos stream so two flaky devices
    /// fault independently.
    pub faults: FaultConfig,
    /// Periodic-checkpoint cadence: a running job snapshots every this
    /// many completed slices (`0` disables periodic checkpoints; jobs
    /// then always recover by re-running from admission).
    pub checkpoint_every: u32,
    /// Dispatch attempts a job gets before it is terminally failed
    /// (`1` = no retries).
    pub max_attempts: u32,
    /// Base re-dispatch backoff in fleet cycles; doubles per failed
    /// attempt (capped at `backoff << 6`).
    pub retry_backoff: u64,
    /// Base quarantine length in fleet cycles after a device failure;
    /// doubles per failed health probe (capped at `quarantine << 6`).
    pub quarantine: u64,
    /// Chance a quarantined device passes its health probe and
    /// rejoins the fleet.
    pub probe_pass_ppm: u32,
    /// Failed health probes before a quarantined device is
    /// permanently decommissioned (the open circuit-breaker).
    pub max_strikes: u32,
    /// Per-job wall-clock (fleet-cycle) deadline measured from
    /// admission; a job that would dispatch or retry past it is
    /// terminally rejected with [`Rejection::Timeout`]. `0` disables.
    pub deadline: u64,
    /// Load-shedding floor: while `healthy devices * 100 < floor *
    /// fleet size`, arriving batch-priority work is terminally shed
    /// with [`Rejection::Shed`]. `0` disables.
    pub shed_floor_pct: u32,
}

impl ChaosConfig {
    /// A moderate default chaos regime: sub-percent per-slice crash
    /// and hang rates, a quarter of the fleet fault-poisoned, periodic
    /// checkpoints every other slice, bounded retries. No deadline and
    /// no shedding — enable those knobs explicitly.
    #[must_use]
    pub fn default_rates(seed: u64) -> Self {
        ChaosConfig {
            seed,
            crash_ppm: 8_000,
            decommission_ppm: 80_000,
            hang_ppm: 6_000,
            flaky_ppm: 250_000,
            faults: FaultConfig {
                dram: Some(vip_faults::DramFaultConfig {
                    seed,
                    single_bit_ppm: 40,
                    double_bit_ppm: 25,
                }),
                noc: None,
                pe: None,
            },
            checkpoint_every: 2,
            max_attempts: 5,
            retry_backoff: 25_000,
            quarantine: 200_000,
            probe_pass_ppm: 600_000,
            max_strikes: 6,
            deadline: 0,
            shed_floor_pct: 0,
        }
    }

    /// Every injection rate — crash, hang, and the fault template's
    /// per-access rates — scaled to `pct` percent of its configured
    /// value (saturating at certainty): the knob the chaos sweep
    /// turns. At 0 % nothing injects, so the sweep's baseline point is
    /// the unperturbed fleet. Policy knobs (retries, checkpoints,
    /// quarantine) and the flaky-device draw are left alone, so the
    /// same devices stay flaky across a sweep — only how hard their
    /// faults fire changes.
    #[must_use]
    pub fn scaled(mut self, pct: u32) -> Self {
        let scale = |ppm: u32| {
            u32::try_from((u64::from(ppm) * u64::from(pct) / 100).min(vip_faults::PPM_SCALE))
                .unwrap_or(u32::MAX)
        };
        self.crash_ppm = scale(self.crash_ppm);
        self.hang_ppm = scale(self.hang_ppm);
        if let Some(dram) = self.faults.dram.as_mut() {
            dram.single_bit_ppm = scale(dram.single_bit_ppm);
            dram.double_bit_ppm = scale(dram.double_bit_ppm);
        }
        if let Some(noc) = self.faults.noc.as_mut() {
            noc.corrupt_ppm = scale(noc.corrupt_ppm);
            noc.drop_ppm = scale(noc.drop_ppm);
        }
        if let Some(pe) = self.faults.pe.as_mut() {
            pe.writeback_flip_ppm = scale(pe.writeback_flip_ppm);
        }
        self
    }

    /// The per-device chaos stream: independent of the workload's
    /// streams and of every other device's.
    #[must_use]
    pub fn device_rng(&self, device: usize) -> SplitMix64 {
        SplitMix64::new(self.seed ^ 0x0063_6861_6f73 ^ ((device as u64) << 32))
    }

    /// The fault template re-seeded for one device, so flaky devices
    /// draw independent fault streams.
    #[must_use]
    pub fn device_faults(&self, device: usize) -> FaultConfig {
        let salt = SplitMix64::new(self.seed ^ 0x6661_756c_7473 ^ (device as u64)).next_u64();
        let mut faults = self.faults;
        if let Some(dram) = faults.dram.as_mut() {
            dram.seed ^= salt;
        }
        if let Some(noc) = faults.noc.as_mut() {
            noc.seed ^= salt;
        }
        if let Some(pe) = faults.pe.as_mut() {
            pe.seed ^= salt;
        }
        faults
    }
}

/// Why a job's dispatch died under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The chaos model crashed the device at a slice end.
    Crash,
    /// The device's engine surfaced a typed [`SimError`]
    /// (vip_core::SimError) — a hang (organic or induced), a machine
    /// check on poisoned data, a trap.
    Sim(FailureClass),
}

impl FailureKind {
    /// Stable lower-case label for reports and assertions.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Crash => "crash",
            FailureKind::Sim(class) => class.label(),
        }
    }
}

snapshot_enum!(FailureKind, "failure kind tag" { 0 => Crash, 1 => Sim(class) });

/// A request's typed terminal status. Every issued request ends in
/// exactly one of these; [`Terminal::Pending`] is the in-flight
/// placeholder and never survives a finished run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Still in flight (never present in a returned outcome).
    Pending,
    /// Completed with no failure along the way.
    Completed,
    /// Failed at least once, then completed — `via_snapshot` says the
    /// last recovery restored a periodic checkpoint rather than
    /// re-running from admission.
    Recovered {
        /// Total dispatch attempts (≥ 2).
        attempts: u32,
        /// Whether the final recovery restored a snapshot.
        via_snapshot: bool,
    },
    /// Terminally refused: queue-full (open loop), deadline timeout,
    /// or load shedding.
    Rejected(Rejection),
    /// Every dispatch attempt died; the last failure's kind and the
    /// attempt count.
    Failed {
        /// What killed the final attempt.
        kind: FailureKind,
        /// Dispatch attempts consumed.
        attempts: u32,
    },
}

impl Terminal {
    /// Whether the request produced results.
    #[must_use]
    pub fn is_served(self) -> bool {
        matches!(self, Terminal::Completed | Terminal::Recovered { .. })
    }
}

snapshot_enum!(Terminal, "terminal status tag" {
    0 => Pending,
    1 => Completed,
    2 => Recovered { attempts, via_snapshot },
    3 => Rejected(rejection),
    4 => Failed { kind, attempts },
});

/// Chaos and recovery counters for one serving run. All zero when
/// chaos is disabled and nothing faulted.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ChaosStats {
    /// Slice-end crash draws that fired.
    pub crashes: u64,
    /// Slice-start hang draws that actually wedged a slice.
    pub induced_hangs: u64,
    /// Dispatches that died with [`SimError::Hang`](vip_core::SimError)
    /// (induced or organic).
    pub hang_failures: u64,
    /// Dispatches that died with a non-hang [`SimError`]
    /// (vip_core::SimError) — machine checks, traps, NoC give-ups.
    pub fault_failures: u64,
    /// Failed jobs re-queued for another attempt.
    pub job_retries: u64,
    /// Recoveries that restored a periodic snapshot onto a device.
    pub recoveries_snapshot: u64,
    /// Recoveries that re-ran the job from admission.
    pub recoveries_restart: u64,
    /// Devices placed in quarantine.
    pub quarantines: u64,
    /// Health probes run on quarantined devices.
    pub probes: u64,
    /// Health probes that failed (device stayed out).
    pub probe_failures: u64,
    /// Devices permanently decommissioned (crash draw or opened
    /// circuit breaker).
    pub decommissions: u64,
    /// Requests terminally rejected by the per-job deadline.
    pub timeouts: u64,
    /// Requests terminally shed for lack of healthy capacity.
    pub shed: u64,
    /// Requests whose every dispatch attempt died.
    pub failed: u64,
}

snapshot_struct!(ChaosStats {
    crashes,
    induced_hangs,
    hang_failures,
    fault_failures,
    job_retries,
    recoveries_snapshot,
    recoveries_restart,
    quarantines,
    probes,
    probe_failures,
    decommissions,
    timeouts,
    shed,
    failed
});

/// One chaos sweep's shape: a fixed closed-loop workload replayed at
/// increasing chaos intensity.
#[derive(Debug, Clone)]
pub struct ChaosSweepConfig {
    /// Fleet and policy knobs; `serve.chaos` must be `Some` — it is
    /// the 100 % point the scales multiply.
    pub serve: ServeConfig,
    /// Workload seed shared by every point.
    pub seed: u64,
    /// Requests per point.
    pub requests: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Mean client think time (cycles).
    pub think: u64,
    /// Chaos intensity per point, as percent of the configured crash
    /// and hang rates (0 = clean baseline).
    pub scales: Vec<u32>,
    /// Worker threads for the point fan-out (wall clock only, never
    /// results).
    pub jobs: usize,
    /// The request mix.
    pub mix: Vec<MixEntry>,
}

impl ChaosSweepConfig {
    /// The run fingerprint durable state is filed under — every
    /// result-affecting knob of the chaos sweep. `jobs` is excluded:
    /// the fan-out width never changes results.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.push_bytes(b"chaos-sweep");
        self.serve.absorb(&mut f);
        f.push_u64(self.seed);
        f.push_usize(self.requests);
        f.push_usize(self.clients);
        f.push_u64(self.think);
        f.push_usize(self.scales.len());
        for &s in &self.scales {
            f.push_u64(u64::from(s));
        }
        f.push_usize(self.mix.len());
        for entry in &self.mix {
            let mut w = Writer::new();
            entry.class.save(&mut w);
            f.push_bytes(&w.into_bytes());
            f.push_u64(u64::from(entry.weight));
            f.push_u64(u64::from(entry.priority));
        }
        f.finish()
    }

    /// The closed-loop workload every point replays.
    fn workload(&self) -> Workload {
        Workload {
            seed: self.seed,
            requests: self.requests,
            mode: LoadMode::Closed {
                clients: self.clients,
                think: self.think,
            },
            mix: self.mix.clone(),
        }
    }

    /// The fleet configuration of each point, in `scales` order.
    ///
    /// # Panics
    ///
    /// Panics if `serve.chaos` is `None`.
    fn serve_configs(&self) -> Vec<ServeConfig> {
        let base = self.serve.chaos.expect("chaos sweep needs a chaos config");
        let at = |&scale: &u32| ServeConfig {
            chaos: Some(base.scaled(scale)),
            ..self.serve.clone()
        };
        self.scales.iter().map(at).collect()
    }
}

/// One completed chaos sweep point.
#[derive(Debug)]
pub struct ChaosPoint {
    /// Percent of the configured crash/hang rates injected here.
    pub scale: u32,
    /// The full serving outcome.
    pub outcome: ServeOutcome,
}

/// Runs every point of the chaos sweep: the same seeded closed-loop
/// workload at each chaos scale, through [`fan_out`] — results in input
/// order, deterministic at any `jobs`.
///
/// # Panics
///
/// Panics if `serve.chaos` is `None` — a chaos sweep over a fleet
/// with chaos disabled would sweep nothing.
#[must_use]
pub fn run_chaos_sweep(cfg: &ChaosSweepConfig) -> Vec<ChaosPoint> {
    let serve_cfgs = cfg.serve_configs();
    let workload = cfg.workload();
    fan_out(cfg.jobs, cfg.scales.len(), |i| ChaosPoint {
        scale: cfg.scales[i],
        outcome: serve(&serve_cfgs[i], &workload),
    })
}

/// [`run_chaos_sweep`] with host-crash durability: each point journals
/// its scheduler events and checkpoints its whole fleet (chaos RNG
/// cursors included) under `run_dir(durable.dir, cfg.fingerprint())`,
/// and with `durable.resume` set a rerun continues every interrupted
/// point — the final report is byte-identical to an uninterrupted
/// run's. Without `resume`, prior state for this configuration is
/// wiped first.
///
/// # Errors
///
/// [`DurableError`] when the filesystem refuses a read or write.
///
/// # Panics
///
/// Panics if `serve.chaos` is `None`, like [`run_chaos_sweep`].
pub fn run_chaos_sweep_durable(
    cfg: &ChaosSweepConfig,
    durable: &DurableConfig,
) -> Result<Vec<ChaosPoint>, DurableError> {
    let serve_cfgs = cfg.serve_configs();
    let workload = cfg.workload();
    let fingerprint = cfg.fingerprint();
    durable.begin_run(fingerprint)?;
    fan_out(cfg.jobs, cfg.scales.len(), |i| {
        let mut store = PointStore::open(&durable.dir, i, fingerprint)?;
        let every = durable.checkpoint_every;
        let outcome = serve_durable(&serve_cfgs[i], &workload, &mut store, every)?;
        Ok(ChaosPoint {
            scale: cfg.scales[i],
            outcome,
        })
    })
    .into_iter()
    .collect()
}

fn point_json(p: &ChaosPoint) -> String {
    let o = &p.outcome;
    let served = o.records.iter().filter(|r| r.status.is_served()).count();
    let recovered = o
        .records
        .iter()
        .filter(|r| matches!(r.status, crate::chaos::Terminal::Recovered { .. }))
        .count();
    let rec_lat = recovery_summary(o);
    let c = &o.chaos;
    format!(
        "    {{\"scale_pct\": {}, \"issued\": {}, \"served\": {}, \"recovered\": {}, \
         \"failed\": {}, \"timeouts\": {}, \"shed\": {}, \"rejections\": {}, \
         \"availability_pct\": {:.4}, \"goodput_rps\": {:.2}, \
         \"recovery_p50_ms\": {:.4}, \"recovery_p99_ms\": {:.4}, \
         \"crashes\": {}, \"induced_hangs\": {}, \"hang_failures\": {}, \
         \"fault_failures\": {}, \"job_retries\": {}, \"recoveries_snapshot\": {}, \
         \"recoveries_restart\": {}, \"quarantines\": {}, \"probes\": {}, \
         \"probe_failures\": {}, \"decommissions\": {}, \"makespan_cycles\": {}}}",
        p.scale,
        o.records.len(),
        served,
        recovered,
        c.failed,
        c.timeouts,
        c.shed,
        o.rejections,
        availability_pct(o),
        throughput_rps(o),
        ms(rec_lat.map_or(0, |l| l.p50)),
        ms(rec_lat.map_or(0, |l| l.p99)),
        c.crashes,
        c.induced_hangs,
        c.hang_failures,
        c.fault_failures,
        c.job_retries,
        c.recoveries_snapshot,
        c.recoveries_restart,
        c.quarantines,
        c.probes,
        c.probe_failures,
        c.decommissions,
        o.makespan,
    )
}

/// Renders `BENCH_chaos.json`: availability, recovery latency, and
/// goodput versus injected failure rate. Free of wall-clock and
/// `jobs` fields, so re-runs of the same seed/config are
/// byte-identical — the determinism gate diffs two of these.
#[must_use]
pub fn chaos_report_json(cfg: &ChaosSweepConfig, points: &[ChaosPoint]) -> String {
    let chaos = cfg.serve.chaos.expect("chaos sweep needs a chaos config");
    let entries: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\n  \"bench\": \"chaos\",\n  \"unit_note\": \"closed-loop fleet sweep over chaos \
         intensity (percent of the configured per-slice crash/hang rates); availability = \
         served requests / issued; goodput_rps = served * clock_hz / makespan_cycles; \
         recovery latency is arrival-to-completion of failed-then-recovered requests, \
         nearest-rank, ms at the 1.25 GHz device clock\",\n  \"seed\": {},\n  \
         \"chaos_seed\": {},\n  \"engine\": \"{}\",\n  \"devices\": {},\n  \
         \"queue_depth\": {},\n  \"quantum\": {},\n  \"crash_ppm\": {},\n  \
         \"hang_ppm\": {},\n  \"flaky_ppm\": {},\n  \"checkpoint_every\": {},\n  \
         \"max_attempts\": {},\n  \"deadline\": {},\n  \"shed_floor_pct\": {},\n  \
         \"requests_per_point\": {},\n  \"clients\": {},\n  \"think_cycles\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        chaos.seed,
        cfg.serve.engine.label(),
        cfg.serve.devices,
        cfg.serve.queue_depth,
        cfg.serve.quantum,
        chaos.crash_ppm,
        chaos.hang_ppm,
        chaos.flaky_ppm,
        chaos.checkpoint_every,
        chaos.max_attempts,
        chaos.deadline,
        chaos.shed_floor_pct,
        cfg.requests,
        cfg.clients,
        cfg.think,
        entries.join(",\n")
    )
}

/// The chaos-smoke acceptance gate: the run held together under
/// injection. Specifically — every request reached a typed terminal
/// status; the clean (scale-0) point served everything; availability
/// stayed at or above `floor_pct` everywhere; the loaded end actually
/// injected failures; and every failure was either recovered or
/// accounted terminal (served + failed + rejected = issued).
///
/// # Errors
///
/// Returns a human-readable description of the first violated
/// property.
pub fn chaos_gate(points: &[ChaosPoint], floor_pct: f64) -> Result<(), String> {
    if points.is_empty() {
        return Err("chaos sweep produced no points".into());
    }
    for p in points {
        let o = &p.outcome;
        let mut served = 0usize;
        let mut failed = 0usize;
        let mut rejected = 0usize;
        for r in &o.records {
            match r.status {
                Terminal::Pending => {
                    return Err(format!(
                        "scale {}%: request {} ended without a terminal status",
                        p.scale, r.id
                    ));
                }
                Terminal::Completed | Terminal::Recovered { .. } => served += 1,
                Terminal::Failed { .. } => failed += 1,
                Terminal::Rejected(_) => rejected += 1,
            }
        }
        if served + failed + rejected != o.records.len() {
            return Err(format!(
                "scale {}%: {} served + {} failed + {} rejected ≠ {} issued",
                p.scale,
                served,
                failed,
                rejected,
                o.records.len()
            ));
        }
        let avail = availability_pct(o);
        if p.scale == 0 && served != o.records.len() {
            return Err(format!(
                "clean point served only {}/{} requests",
                served,
                o.records.len()
            ));
        }
        if avail < floor_pct {
            return Err(format!(
                "scale {}%: availability {avail:.2}% below the {floor_pct:.2}% floor",
                p.scale
            ));
        }
    }
    let hottest = points.last().expect("non-empty");
    let c = &hottest.outcome.chaos;
    if hottest.scale > 0 && c.crashes + c.hang_failures + c.fault_failures == 0 {
        return Err(format!(
            "scale {}% injected no failures — the sweep proves nothing",
            hottest.scale
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_integer_exact_and_saturating() {
        let base = ChaosConfig::default_rates(7);
        let half = base.scaled(50);
        assert_eq!(half.crash_ppm, base.crash_ppm / 2);
        assert_eq!(half.hang_ppm, base.hang_ppm / 2);
        assert_eq!(
            half.faults.dram.unwrap().single_bit_ppm,
            base.faults.dram.unwrap().single_bit_ppm / 2
        );
        // Policy knobs and the flaky draw are untouched.
        assert_eq!(half.flaky_ppm, base.flaky_ppm);
        assert_eq!(half.max_attempts, base.max_attempts);
        // At 0 % nothing injects at all: the baseline point is clean.
        let zero = base.scaled(0);
        assert_eq!((zero.crash_ppm, zero.hang_ppm), (0, 0));
        assert!(zero.faults.is_inert());
        let huge = base.scaled(u32::MAX);
        assert_eq!(huge.crash_ppm, vip_faults::PPM_SCALE as u32);
    }

    #[test]
    fn device_streams_and_faults_are_independent() {
        let cfg = ChaosConfig::default_rates(9);
        assert_ne!(cfg.device_rng(0).next_u64(), cfg.device_rng(1).next_u64());
        let f0 = cfg.device_faults(0);
        let f1 = cfg.device_faults(1);
        assert_ne!(f0.dram.unwrap().seed, f1.dram.unwrap().seed);
        // Rates are preserved; only seeds move.
        assert_eq!(
            f0.dram.unwrap().double_bit_ppm,
            cfg.faults.dram.unwrap().double_bit_ppm
        );
    }

    #[test]
    fn terminal_classification() {
        assert!(Terminal::Completed.is_served());
        assert!(Terminal::Recovered {
            attempts: 2,
            via_snapshot: true
        }
        .is_served());
        assert!(!Terminal::Pending.is_served());
        assert!(!Terminal::Failed {
            kind: FailureKind::Crash,
            attempts: 5
        }
        .is_served());
        assert_eq!(FailureKind::Crash.label(), "crash");
        assert_eq!(
            FailureKind::Sim(vip_core::FailureClass::Memory).label(),
            "memory"
        );
    }
}
