//! The discrete-event fleet scheduler.
//!
//! One fleet-wide virtual clock, one event heap. Devices are full
//! simulated `System`s; the scheduler advances the one holding a job
//! in bounded quanta (eagerly simulating each slice when it is
//! dispatched, then scheduling the completion event at the fleet time
//! the slice ends). Everything is ordered by `(cycle, sequence)` with
//! a monotone sequence counter, so execution is a pure function of
//! the workload seed — no host threads, no wall clock, no hashmap
//! iteration order anywhere near a decision.
//!
//! Admission: two FIFO queues (priority 0 = interactive, 1 = batch)
//! with a shared depth bound; an arrival that would exceed the bound
//! gets a typed [`Rejection`] (terminal in open loop, retry-after-
//! backoff in closed loop). Dispatch prefers interactive work, batches
//! same-key compatible requests up to the class's batch limit, and
//! resumes parked jobs before starting new batch-class work.
//!
//! Preemption: a batch-priority job that pauses at a slice boundary
//! while interactive work is queued is snapshotted (the bit-exact
//! checkpoint of [`vip_core::System::save_snapshot`]) and parked; the
//! snapshot restores onto whichever device frees up first — migration
//! across devices is safe because every device in the fleet shares
//! one structural configuration fingerprint.
//!
//! Failure and recovery: a dispatch that dies — a typed
//! [`SimError`](vip_core::SimError) from the engine, or a chaos-model
//! device crash ([`ChaosConfig`]) — is a policy decision, never a
//! panic. The job retries with exponential backoff on whatever healthy
//! device frees up, restoring its last periodic snapshot where one
//! exists and re-running from admission otherwise; the sick device is
//! quarantined behind health probes (circuit-breaker style) or
//! permanently decommissioned; jobs that exhaust their attempts, miss
//! their deadline, or arrive while surviving capacity is below the
//! shedding floor resolve to typed terminal statuses ([`Terminal`]).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::path::PathBuf;

use vip_core::{Engine, RunOutcome, SimError, System, SystemConfig};
use vip_faults::{FaultConfig, PPM_SCALE};
use vip_kernels::cache::{CacheKey, ProgramCache};
use vip_kernels::tile::{ResultReader, TileClass};
use vip_mem::MemConfig;
use vip_rng::SplitMix64;
use vip_snap::{
    read_header, save_sorted, snapshot_enum, snapshot_struct, write_header, Fingerprint, Reader,
    SnapError, Snapshot, Writer,
};

use crate::chaos::{ChaosConfig, ChaosStats, FailureKind, Terminal};
use crate::durable::{DurableError, LoadedPoint, PointStore};
use crate::workload::{LoadMode, Workload};

/// Fleet and policy knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated devices in the pool.
    pub devices: usize,
    /// Shared admission bound: queued requests across both priority
    /// classes may not exceed this.
    pub queue_depth: usize,
    /// Device slice length in cycles; preemption and completion are
    /// only observed at slice boundaries.
    pub quantum: u64,
    /// Upper bound on requests batched into one tile (further capped
    /// by each class's [`TileClass::batch_limit`]).
    pub batch_max: usize,
    /// Stepping engine for every device.
    pub engine: Engine,
    /// Per-device memory configuration (devices are single-vault).
    pub mem: MemConfig,
    /// Where tuned schedule artifacts live.
    pub schedule_dir: PathBuf,
    /// The chaos model: seeded device failures and the recovery
    /// policy. `None` runs the fleet clean (failures in staged tiles
    /// still resolve to typed terminal statuses, with no retries).
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            devices: 4,
            queue_depth: 64,
            quantum: 100_000,
            batch_max: 8,
            engine: Engine::Fast,
            mem: MemConfig::baseline(),
            schedule_dir: vip_kernels::schedule_store::dir(),
            chaos: None,
        }
    }
}

impl ServeConfig {
    /// Absorbs every result-affecting knob into a run fingerprint —
    /// the key durable run directories are filed under, so persisted
    /// state from a differently-configured run can never be replayed
    /// into this one. Chaos knobs are folded in through their
    /// canonical snapshot encoding.
    pub(crate) fn absorb(&self, f: &mut Fingerprint) {
        f.push_usize(self.devices);
        f.push_usize(self.queue_depth);
        f.push_u64(self.quantum);
        f.push_usize(self.batch_max);
        f.push_bytes(self.engine.label().as_bytes());
        f.push_u64(SystemConfig::single_vault(self.mem.clone()).snapshot_fingerprint());
        f.push_bytes(self.schedule_dir.to_string_lossy().as_bytes());
        match self.chaos {
            None => f.push_bool(false),
            Some(ch) => {
                f.push_bool(true);
                f.push_u64(ch.seed);
                for ppm in [
                    ch.crash_ppm,
                    ch.decommission_ppm,
                    ch.hang_ppm,
                    ch.flaky_ppm,
                    ch.probe_pass_ppm,
                ] {
                    f.push_u64(u64::from(ppm));
                }
                let mut w = Writer::new();
                ch.faults.save(&mut w);
                f.push_bytes(&w.into_bytes());
                f.push_u64(u64::from(ch.checkpoint_every));
                f.push_u64(u64::from(ch.max_attempts));
                f.push_u64(ch.retry_backoff);
                f.push_u64(ch.quarantine);
                f.push_u64(u64::from(ch.max_strikes));
                f.push_u64(ch.deadline);
                f.push_u64(u64::from(ch.shed_floor_pct));
            }
        }
    }
}

/// Why an arrival or queued request was terminally refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The shared queue bound was already met.
    QueueFull {
        /// The rejected request's priority class.
        priority: u8,
        /// Queue occupancy at the instant of rejection.
        depth: usize,
    },
    /// The per-job deadline expired before the request could (re)run.
    Timeout {
        /// The configured deadline in fleet cycles.
        deadline: u64,
        /// Fleet cycles the request had waited when it was cut.
        waited: u64,
    },
    /// Surviving healthy capacity fell below the shedding floor and
    /// the request's priority class was sacrificed.
    Shed {
        /// Healthy devices at the instant of shedding.
        healthy: usize,
        /// Total devices in the fleet.
        devices: usize,
    },
}

snapshot_enum!(Rejection, "rejection tag" {
    0 => QueueFull { priority, depth },
    1 => Timeout { deadline, waited },
    2 => Shed { healthy, devices },
});

/// The full life of one request, as the report records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (issue order).
    pub id: u64,
    /// Issuing client (closed loop only).
    pub client: Option<usize>,
    /// What was asked for.
    pub class: TileClass,
    /// The class's schedule-store shape key.
    pub key: String,
    /// Priority class (0 interactive, 1 batch).
    pub priority: u8,
    /// Fleet cycle the request (finally) arrived.
    pub arrival: u64,
    /// Fleet cycle its tile started running, if it ever did.
    pub dispatch: Option<u64>,
    /// Fleet cycle its results were read back.
    pub completion: Option<u64>,
    /// Device the tile finished on.
    pub device: Option<usize>,
    /// Requests sharing its tile (1 = unbatched).
    pub batch: usize,
    /// Times its job moved to a different device via snapshot.
    pub migrations: u32,
    /// Closed-loop admission retries before it got in.
    pub retries: u32,
    /// Terminal rejection, if any (queue-full, timeout, shed).
    pub rejection: Option<Rejection>,
    /// Dispatch attempts its job consumed (0 if never dispatched;
    /// >1 means the job failed and was re-dispatched).
    pub attempts: u32,
    /// Every device its job ran slices on, in first-visit order
    /// (consecutive duplicates collapsed).
    pub devices: Vec<usize>,
    /// The typed terminal status (never [`Terminal::Pending`] in a
    /// returned outcome).
    pub status: Terminal,
    /// FNV-1a hash of the request's result blob.
    pub result_hash: u64,
}

impl RequestRecord {
    /// Queueing + service latency in cycles, if the request completed.
    #[must_use]
    pub fn latency(&self) -> Option<u64> {
        self.completion.map(|c| c - self.arrival)
    }
}

snapshot_struct!(RequestRecord {
    id,
    client,
    class,
    key,
    priority,
    arrival,
    dispatch,
    completion,
    device,
    batch,
    migrations,
    retries,
    rejection,
    attempts,
    devices,
    status,
    result_hash
});

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Per-request records, in id order, one per issued request.
    pub records: Vec<RequestRecord>,
    /// Fleet cycle the last event settled.
    pub makespan: u64,
    /// Slice-boundary preemptions taken.
    pub preemptions: u64,
    /// Parked jobs resumed on a device other than the one they left.
    pub migrations: u64,
    /// Tiles dispatched serving more than one request.
    pub batches: u64,
    /// Total tiles dispatched.
    pub dispatches: u64,
    /// High-water queue occupancy per priority class.
    pub max_queue_depth: [usize; 2],
    /// Arrivals refused admission at the queue bound (terminal in open
    /// loop, retried in closed loop). Deadline and shedding rejections
    /// are counted in [`ChaosStats`] instead.
    pub rejections: u64,
    /// Busy cycles per device (failed slices included — the device
    /// was occupied while they ran).
    pub device_busy: Vec<u64>,
    /// Prepared-program cache hits over the run.
    pub cache_hits: u64,
    /// Prepared-program cache misses (program builds) over the run.
    pub cache_misses: u64,
    /// Chaos and recovery counters.
    pub chaos: ChaosStats,
}

snapshot_struct!(ServeOutcome {
    records,
    makespan,
    preemptions,
    migrations,
    batches,
    dispatches,
    max_queue_depth,
    rejections,
    device_busy,
    cache_hits,
    cache_misses,
    chaos
});

/// A queued request awaiting dispatch.
#[derive(Debug, Clone)]
struct Pending {
    id: u64,
    class: TileClass,
    priority: u8,
}

snapshot_struct!(Pending {
    id,
    class,
    priority
});

/// The scheduler's view of one in-flight tile.
#[derive(Debug)]
struct JobMeta {
    reqs: Vec<u64>,
    class: TileClass,
    limit: u64,
    reader: ResultReader,
    home: usize,
    /// Dispatch attempts so far (1 = first).
    attempt: u32,
    /// The job failed at least once and was re-dispatched.
    recovered: bool,
    /// The most recent recovery restored a snapshot (vs. restaged).
    via_snapshot: bool,
    /// What killed the most recent attempt, if any.
    last_failure: Option<FailureKind>,
    /// Last periodic checkpoint, bit-exact, restorable on any device.
    ckpt: Option<Vec<u8>>,
    /// Paused slices since the last periodic checkpoint.
    slices_since_ckpt: u32,
}

/// A job parked mid-flight: either a bit-exact snapshot (preemption,
/// checkpoint recovery) or a restage-from-admission marker.
#[derive(Debug)]
struct Parked {
    meta: JobMeta,
    /// `Some`: restore these bytes. `None`: re-stage the class from
    /// scratch (the job had no usable checkpoint).
    snapshot: Option<Vec<u8>>,
    /// Earliest fleet cycle this job may dispatch (retry backoff).
    not_before: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceEnd {
    Done,
    Paused,
    /// The slice died with a typed failure; the job needs recovery.
    Failed(FailureKind),
}

snapshot_enum!(SliceEnd, "slice end tag" { 0 => Done, 1 => Paused, 2 => Failed(kind) });

struct Running {
    meta: JobMeta,
    sys: Box<System>,
    end: SliceEnd,
}

/// One device's health, as the recovery policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    Quarantined,
    Dead,
}

snapshot_enum!(Health, "health tag" { 0 => Healthy, 1 => Quarantined, 2 => Dead });

/// Per-device chaos state: the device's own draw stream, its wired
/// fault injector (if the flaky draw selected it), and its health.
struct DeviceChaos {
    rng: SplitMix64,
    flaky: bool,
    faults: FaultConfig,
    health: Health,
    /// Failed health probes since the last pass (the circuit
    /// breaker's open count).
    strikes: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvKind {
    /// Request with this id arrives (or retries admission).
    Arrive(u64),
    /// The device's current slice ends.
    Device(usize),
    /// A quarantined device runs its health probe.
    Probe(usize),
    /// A retry backoff expired: try dispatching idle devices.
    Kick,
}

impl EvKind {
    /// `(tag, argument)` encoding for journal records and checkpoints.
    fn encode(self) -> (u8, u64) {
        match self {
            EvKind::Arrive(id) => (0, id),
            EvKind::Device(d) => (1, d as u64),
            EvKind::Probe(d) => (2, d as u64),
            EvKind::Kick => (3, 0),
        }
    }

    fn decode(tag: u8, arg: u64) -> Result<Self, SnapError> {
        Ok(match tag {
            0 => EvKind::Arrive(arg),
            1 => EvKind::Device(
                usize::try_from(arg).map_err(|_| SnapError::Corrupt("device index"))?,
            ),
            2 => {
                EvKind::Probe(usize::try_from(arg).map_err(|_| SnapError::Corrupt("device index"))?)
            }
            3 => EvKind::Kick,
            _ => return Err(SnapError::Corrupt("event kind tag")),
        })
    }
}

type EventHeap = BinaryHeap<Reverse<(u64, u64, EvKind)>>;

/// The read-only context the event handlers share.
struct Ctx<'a> {
    cfg: &'a ServeConfig,
    dev_cfg: &'a SystemConfig,
    cache: &'a ProgramCache,
    workload: &'a Workload,
}

/// Shared mutable bookkeeping the event handlers thread through.
struct Fleet {
    heap: EventHeap,
    seq: u64,
    issued: u64,
    /// Events popped and handled so far — the write-ahead journal's
    /// record ordinal and the fleet-checkpoint cadence counter.
    events_settled: u64,
    client_of: HashMap<u64, usize>,
    think_rngs: Vec<SplitMix64>,
    queues: [VecDeque<Pending>; 2],
    parked: VecDeque<Parked>,
    devices: Vec<Option<Running>>,
    chaos: Vec<DeviceChaos>,
    outcome: ServeOutcome,
}

impl Fleet {
    fn post(&mut self, at: u64, kind: EvKind) {
        self.heap.push(Reverse((at, self.seq, kind)));
        self.seq += 1;
    }

    /// Issues request number `issued` at fleet time `at` and returns
    /// its id (the record is appended; the arrival event is not).
    fn issue(&mut self, workload: &Workload, at: u64, client: Option<usize>) -> u64 {
        let id = self.issued;
        self.issued += 1;
        let entry = workload.draw(id);
        self.outcome.records.push(RequestRecord {
            id,
            client,
            class: entry.class,
            key: entry.class.key(),
            priority: entry.priority,
            arrival: at,
            dispatch: None,
            completion: None,
            device: None,
            batch: 1,
            migrations: 0,
            retries: 0,
            rejection: None,
            attempts: 0,
            devices: Vec::new(),
            status: Terminal::Pending,
            result_hash: 0,
        });
        if let Some(c) = client {
            self.client_of.insert(id, c);
        }
        id
    }

    /// Whether device `d` is idle and healthy enough to take work.
    fn device_available(&self, d: usize) -> bool {
        self.devices[d].is_none()
            && self
                .chaos
                .get(d)
                .is_none_or(|c| c.health == Health::Healthy)
    }

    /// Devices currently healthy (all of them when chaos is off).
    fn healthy_count(&self) -> usize {
        if self.chaos.is_empty() {
            self.devices.len()
        } else {
            self.chaos
                .iter()
                .filter(|c| c.health == Health::Healthy)
                .count()
        }
    }

    /// Devices not permanently decommissioned.
    fn alive_count(&self) -> usize {
        if self.chaos.is_empty() {
            self.devices.len()
        } else {
            self.chaos
                .iter()
                .filter(|c| c.health != Health::Dead)
                .count()
        }
    }

    /// Removes and returns the first parked job whose retry backoff
    /// has expired.
    fn take_parked(&mut self, now: u64) -> Option<Parked> {
        let i = self.parked.iter().position(|p| p.not_before <= now)?;
        self.parked.remove(i)
    }

    /// Appends `d` to each request's device trail (consecutive
    /// duplicates collapsed) and refreshes the attempt count.
    fn note_dispatch(&mut self, reqs: &[u64], attempt: u32, d: usize) {
        for req in reqs {
            let rec = &mut self.outcome.records[usize::try_from(*req).expect("id fits")];
            rec.attempts = attempt;
            if rec.devices.last() != Some(&d) {
                rec.devices.push(d);
            }
        }
    }

    /// A cheap FNV digest of the scheduler-visible state, journaled
    /// with every event so replay divergence is caught at the first
    /// differing event rather than at the end of the run.
    fn digest(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.push_u64(self.seq);
        f.push_u64(self.issued);
        f.push_usize(self.outcome.records.len());
        f.push_u64(self.outcome.makespan);
        f.push_u64(self.outcome.dispatches);
        f.push_u64(self.outcome.preemptions);
        f.push_u64(self.outcome.migrations);
        f.push_u64(self.outcome.batches);
        f.push_u64(self.outcome.rejections);
        f.push_usize(self.queues[0].len());
        f.push_usize(self.queues[1].len());
        f.push_usize(self.parked.len());
        f.push_usize(self.devices.iter().filter(|d| d.is_some()).count());
        let c = &self.outcome.chaos;
        f.push_u64(
            c.crashes
                + c.induced_hangs
                + c.hang_failures
                + c.fault_failures
                + c.job_retries
                + c.quarantines
                + c.probes
                + c.decommissions
                + c.timeouts
                + c.shed
                + c.failed,
        );
        f.finish()
    }
}

/// One settled scheduler event, as the write-ahead journal records it.
struct StepEvent {
    /// Ordinal of this event (1-based count of settled events).
    index: u64,
    /// Fleet cycle the event fired.
    now: u64,
    /// What fired.
    kind: EvKind,
    /// [`Fleet::digest`] after handling the event.
    digest: u64,
}

/// Encodes one journal record payload.
fn event_payload(ev: &StepEvent) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(ev.index);
    w.u64(ev.now);
    let (tag, arg) = ev.kind.encode();
    w.u8(tag);
    w.u64(arg);
    w.u64(ev.digest);
    w.into_bytes()
}

/// Sets the request's terminal status (mirroring a rejection into the
/// legacy field) and, in closed loop, lets the issuing client move on
/// to its next request — terminal outcomes must not starve the loop.
fn resolve(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, id: u64, status: Terminal) {
    let rec = &mut fleet.outcome.records[usize::try_from(id).expect("id fits")];
    debug_assert_eq!(rec.status, Terminal::Pending, "double-resolved request");
    rec.status = status;
    if let Terminal::Rejected(r) = status {
        rec.rejection = Some(r);
    }
    if let LoadMode::Closed { think, .. } = ctx.workload.mode {
        if (fleet.issued as usize) < ctx.workload.requests {
            if let Some(&c) = fleet.client_of.get(&id) {
                let gap = fleet.think_rngs[c].below(2 * think + 1);
                let at = now + gap;
                let next = fleet.issue(ctx.workload, at, Some(c));
                fleet.post(at, EvKind::Arrive(next));
            }
        }
    }
}

/// Runs `workload` over the fleet described by `cfg` and returns the
/// full outcome. Deterministic: same config + same workload ⇒
/// identical outcome, field for field — with or without chaos.
///
/// # Panics
///
/// Panics if the fleet is empty, the queue bound is zero, or the
/// quantum is zero. A device failure (hang, trap, machine check,
/// chaos crash) is a policy outcome, not a panic.
#[must_use]
pub fn serve(cfg: &ServeConfig, workload: &Workload) -> ServeOutcome {
    let dev_cfg = SystemConfig::single_vault(cfg.mem.clone());
    let cache = ProgramCache::new();
    let ctx = Ctx {
        cfg,
        dev_cfg: &dev_cfg,
        cache: &cache,
        workload,
    };
    let mut fleet = init_fleet(&ctx);
    while step(&mut fleet, &ctx).is_some() {}
    finalize(fleet, &ctx)
}

/// Builds the fleet at cycle zero: chaos streams seeded, the
/// workload's initial arrivals posted, nothing dispatched yet.
fn init_fleet(ctx: &Ctx<'_>) -> Fleet {
    let cfg = ctx.cfg;
    let workload = ctx.workload;
    assert!(cfg.devices > 0, "fleet needs at least one device");
    assert!(cfg.queue_depth > 0, "queue bound must admit something");
    assert!(cfg.quantum > 0, "a zero quantum cannot make progress");

    let chaos_state = cfg.chaos.map_or_else(Vec::new, |ch| {
        (0..cfg.devices)
            .map(|d| {
                let mut rng = ch.device_rng(d);
                let flaky = ch.flaky_ppm > 0 && rng.below(PPM_SCALE) < u64::from(ch.flaky_ppm);
                DeviceChaos {
                    rng,
                    flaky,
                    faults: ch.device_faults(d),
                    health: Health::Healthy,
                    strikes: 0,
                }
            })
            .collect()
    });

    let mut fleet = Fleet {
        heap: BinaryHeap::new(),
        seq: 0,
        issued: 0,
        events_settled: 0,
        client_of: HashMap::new(),
        think_rngs: Vec::new(),
        queues: [VecDeque::new(), VecDeque::new()],
        parked: VecDeque::new(),
        devices: (0..cfg.devices).map(|_| None).collect(),
        chaos: chaos_state,
        outcome: ServeOutcome {
            records: Vec::with_capacity(workload.requests),
            makespan: 0,
            preemptions: 0,
            migrations: 0,
            batches: 0,
            dispatches: 0,
            max_queue_depth: [0, 0],
            rejections: 0,
            device_busy: vec![0; cfg.devices],
            cache_hits: 0,
            cache_misses: 0,
            chaos: ChaosStats::default(),
        },
    };

    match workload.mode {
        LoadMode::Open { mean_gap } => {
            let mut rng = workload.arrival_rng();
            let mut t = 0u64;
            for _ in 0..workload.requests {
                t += rng.below(2 * mean_gap + 1);
                let id = fleet.issue(workload, t, None);
                fleet.post(t, EvKind::Arrive(id));
            }
        }
        LoadMode::Closed { clients, think: _ } => {
            assert!(clients > 0, "closed loop needs at least one client");
            for c in 0..clients {
                fleet.think_rngs.push(workload.think_rng(c));
                if (fleet.issued as usize) < workload.requests {
                    let id = fleet.issue(workload, 0, Some(c));
                    fleet.post(0, EvKind::Arrive(id));
                }
            }
        }
    }
    fleet
}

/// Pops and fully handles the next event, or returns `None` when the
/// heap has drained (the run is over). The returned [`StepEvent`] is
/// what the write-ahead journal records for this step.
fn step(fleet: &mut Fleet, ctx: &Ctx<'_>) -> Option<StepEvent> {
    let Reverse((now, _, kind)) = fleet.heap.pop()?;
    fleet.outcome.makespan = fleet.outcome.makespan.max(now);
    match kind {
        EvKind::Arrive(id) => on_arrive(fleet, ctx, now, id),
        EvKind::Device(d) => on_device(fleet, ctx, now, d),
        EvKind::Probe(d) => on_probe(fleet, ctx, now, d),
        EvKind::Kick => {
            for d in 0..ctx.cfg.devices {
                if fleet.device_available(d) {
                    dispatch(fleet, ctx, now, d);
                }
            }
        }
    }
    fleet.events_settled += 1;
    Some(StepEvent {
        index: fleet.events_settled,
        now,
        kind,
        digest: fleet.digest(),
    })
}

/// Sweeps the drained fleet into its final [`ServeOutcome`].
fn finalize(mut fleet: Fleet, ctx: &Ctx<'_>) -> ServeOutcome {
    // Defensive totality: a fleet collapse resolves everything at the
    // instant of collapse, so nothing should still be pending — but a
    // typed terminal status is a contract, so sweep rather than trust.
    let devices = ctx.cfg.devices;
    for i in 0..fleet.outcome.records.len() {
        if fleet.outcome.records[i].status == Terminal::Pending {
            fleet.outcome.chaos.shed += 1;
            let rec = &mut fleet.outcome.records[i];
            rec.status = Terminal::Rejected(Rejection::Shed {
                healthy: 0,
                devices,
            });
            rec.rejection = Some(Rejection::Shed {
                healthy: 0,
                devices,
            });
        }
    }

    fleet.outcome.cache_hits = ctx.cache.hits();
    fleet.outcome.cache_misses = ctx.cache.misses();
    fleet.outcome
}

fn on_arrive(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, id: u64) {
    let idx = usize::try_from(id).expect("id fits");
    let priority = fleet.outcome.records[idx].priority;
    if let Some(ch) = ctx.cfg.chaos {
        // A dead fleet can serve nothing: shed terminally instead of
        // retrying forever.
        if fleet.alive_count() == 0 {
            fleet.outcome.chaos.shed += 1;
            resolve(
                fleet,
                ctx,
                now,
                id,
                Terminal::Rejected(Rejection::Shed {
                    healthy: 0,
                    devices: ctx.cfg.devices,
                }),
            );
            return;
        }
        // Load shedding: below the floor, batch-priority work is
        // sacrificed so surviving capacity serves interactive work.
        let healthy = fleet.healthy_count();
        if ch.shed_floor_pct > 0
            && priority > 0
            && healthy * 100 < (ch.shed_floor_pct as usize) * ctx.cfg.devices
        {
            fleet.outcome.chaos.shed += 1;
            resolve(
                fleet,
                ctx,
                now,
                id,
                Terminal::Rejected(Rejection::Shed {
                    healthy,
                    devices: ctx.cfg.devices,
                }),
            );
            return;
        }
    }
    let depth = fleet.queues[0].len() + fleet.queues[1].len();
    let rec = &mut fleet.outcome.records[idx];
    if depth >= ctx.cfg.queue_depth {
        fleet.outcome.rejections += 1;
        match ctx.workload.mode {
            LoadMode::Open { .. } => {
                let rejection = Rejection::QueueFull {
                    priority: rec.priority,
                    depth,
                };
                resolve(fleet, ctx, now, id, Terminal::Rejected(rejection));
            }
            LoadMode::Closed { .. } => {
                // Back off one quantum and retry; the arrival time
                // moves so latency measures from the admitting
                // attempt.
                rec.retries += 1;
                let at = now + ctx.cfg.quantum;
                rec.arrival = at;
                fleet.post(at, EvKind::Arrive(id));
            }
        }
        return;
    }
    let q = usize::from(rec.priority.min(1));
    let pending = Pending {
        id,
        class: rec.class,
        priority: rec.priority,
    };
    fleet.queues[q].push_back(pending);
    fleet.outcome.max_queue_depth[q] = fleet.outcome.max_queue_depth[q].max(fleet.queues[q].len());
    assert!(
        fleet.queues[0].len() + fleet.queues[1].len() <= ctx.cfg.queue_depth,
        "admission bound violated"
    );
    if let Some(d) = (0..ctx.cfg.devices).find(|&d| fleet.device_available(d)) {
        dispatch(fleet, ctx, now, d);
    }
}

fn on_device(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, d: usize) {
    let running = fleet.devices[d].take().expect("device event without a job");
    // The chaos crash draw happens at every slice end, before the
    // slice's outcome is believed: a crash loses the slice (even a
    // completed one — results are only read back from live devices).
    if let Some(ch) = ctx.cfg.chaos {
        if ch.crash_ppm > 0 && fleet.chaos[d].rng.below(PPM_SCALE) < u64::from(ch.crash_ppm) {
            fleet.outcome.chaos.crashes += 1;
            let permanent = ch.decommission_ppm > 0
                && fleet.chaos[d].rng.below(PPM_SCALE) < u64::from(ch.decommission_ppm);
            recover_job(fleet, ctx, now, running.meta, FailureKind::Crash);
            take_down(fleet, ctx, now, d, permanent);
            return;
        }
    }
    match running.end {
        SliceEnd::Done => {
            let Running { meta, sys, .. } = running;
            let blobs = meta.reader.read(sys.hmc());
            assert!(
                blobs.len() >= meta.reqs.len(),
                "tile produced fewer result blobs than batched requests"
            );
            let batch = meta.reqs.len();
            let status = if meta.recovered {
                Terminal::Recovered {
                    attempts: meta.attempt,
                    via_snapshot: meta.via_snapshot,
                }
            } else {
                Terminal::Completed
            };
            for (req, blob) in meta.reqs.iter().zip(&blobs) {
                let i = usize::try_from(*req).expect("id fits");
                let rec = &mut fleet.outcome.records[i];
                rec.completion = Some(now);
                rec.device = Some(d);
                rec.batch = batch;
                rec.result_hash = vip_snap::hash_bytes(blob);
                // `resolve` chains the closed-loop client, preserving
                // the issue order of the pre-failure-handling
                // scheduler: batched requests chain in batch order.
                resolve(fleet, ctx, now, *req, status);
            }
            dispatch(fleet, ctx, now, d);
        }
        SliceEnd::Paused => {
            let batch_job =
                running.meta.reqs.iter().all(|r| {
                    fleet.outcome.records[usize::try_from(*r).expect("id fits")].priority > 0
                });
            if batch_job && !fleet.queues[0].is_empty() {
                // Interactive work is waiting: park the batch job
                // bit-exactly and give the queue the device.
                fleet.outcome.preemptions += 1;
                let snapshot = running.sys.save_snapshot();
                fleet.parked.push_back(Parked {
                    meta: running.meta,
                    snapshot: Some(snapshot),
                    not_before: now,
                });
                dispatch(fleet, ctx, now, d);
            } else {
                let mut running = running;
                run_slice(fleet, ctx, &mut running, now, d);
                fleet.devices[d] = Some(running);
            }
        }
        SliceEnd::Failed(kind) => {
            match kind {
                FailureKind::Sim(vip_core::FailureClass::Hang) => {
                    fleet.outcome.chaos.hang_failures += 1;
                }
                FailureKind::Sim(_) => fleet.outcome.chaos.fault_failures += 1,
                FailureKind::Crash => unreachable!("crashes are drawn, not slice outcomes"),
            }
            recover_job(fleet, ctx, now, running.meta, kind);
            if ctx.cfg.chaos.is_some() {
                // A failure is evidence of a sick device: open the
                // breaker and probe before trusting it again.
                take_down(fleet, ctx, now, d, false);
            } else {
                dispatch(fleet, ctx, now, d);
            }
        }
    }
}

/// Re-queues a failed job for another attempt — restoring its last
/// periodic checkpoint where one exists, restaging from admission
/// otherwise — or resolves its requests terminally when the retry
/// budget, the deadline, or the fleet itself has run out.
fn recover_job(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, meta: JobMeta, kind: FailureKind) {
    let ch = ctx.cfg.chaos;
    let attempts = meta.attempt;
    let max_attempts = ch.map_or(1, |c| c.max_attempts.max(1));
    let deadline = ch.map_or(0, |c| c.deadline);
    if deadline > 0 {
        let all_expired = meta.reqs.iter().all(|req| {
            let rec = &fleet.outcome.records[usize::try_from(*req).expect("id fits")];
            now > rec.arrival.saturating_add(deadline)
        });
        if all_expired {
            for req in meta.reqs.clone() {
                let waited =
                    now - fleet.outcome.records[usize::try_from(req).expect("id fits")].arrival;
                fleet.outcome.chaos.timeouts += 1;
                resolve(
                    fleet,
                    ctx,
                    now,
                    req,
                    Terminal::Rejected(Rejection::Timeout { deadline, waited }),
                );
            }
            return;
        }
    }
    if attempts >= max_attempts || fleet.alive_count() == 0 {
        for req in meta.reqs {
            fleet.outcome.chaos.failed += 1;
            resolve(fleet, ctx, now, req, Terminal::Failed { kind, attempts });
        }
        return;
    }
    fleet.outcome.chaos.job_retries += 1;
    let mut meta = meta;
    meta.attempt += 1;
    meta.recovered = true;
    meta.last_failure = Some(kind);
    let snapshot = meta.ckpt.clone();
    meta.via_snapshot = snapshot.is_some();
    if snapshot.is_some() {
        fleet.outcome.chaos.recoveries_snapshot += 1;
    } else {
        fleet.outcome.chaos.recoveries_restart += 1;
    }
    let backoff = ch.map_or(0, |c| c.retry_backoff << (attempts - 1).min(6));
    let at = now + backoff;
    fleet.parked.push_back(Parked {
        meta,
        snapshot,
        not_before: at,
    });
    fleet.post(at, EvKind::Kick);
}

/// Quarantines device `d` behind a health probe, or decommissions it
/// permanently. A collapse (no device left alive) resolves every
/// queued and parked request on the spot.
fn take_down(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, d: usize, permanent: bool) {
    let ch = ctx.cfg.chaos.expect("take_down is a chaos-path action");
    if permanent {
        fleet.chaos[d].health = Health::Dead;
        fleet.outcome.chaos.decommissions += 1;
        if fleet.alive_count() == 0 {
            collapse(fleet, ctx, now);
        }
    } else {
        fleet.chaos[d].health = Health::Quarantined;
        fleet.outcome.chaos.quarantines += 1;
        let strikes = fleet.chaos[d].strikes;
        fleet.post(
            now + (ch.quarantine.max(1) << strikes.min(6)),
            EvKind::Probe(d),
        );
    }
}

/// A quarantined device's health probe: pass rejoins the fleet, fail
/// adds a strike and re-quarantines with doubled backoff until the
/// breaker opens for good.
fn on_probe(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, d: usize) {
    let ch = ctx.cfg.chaos.expect("probe events only exist under chaos");
    if fleet.chaos[d].health != Health::Quarantined {
        return;
    }
    fleet.outcome.chaos.probes += 1;
    if fleet.chaos[d].rng.below(PPM_SCALE) < u64::from(ch.probe_pass_ppm) {
        fleet.chaos[d].health = Health::Healthy;
        fleet.chaos[d].strikes = 0;
        dispatch(fleet, ctx, now, d);
    } else {
        fleet.outcome.chaos.probe_failures += 1;
        fleet.chaos[d].strikes += 1;
        if fleet.chaos[d].strikes >= ch.max_strikes.max(1) {
            fleet.chaos[d].health = Health::Dead;
            fleet.outcome.chaos.decommissions += 1;
            if fleet.alive_count() == 0 {
                collapse(fleet, ctx, now);
            }
        } else {
            let strikes = fleet.chaos[d].strikes;
            fleet.post(
                now + (ch.quarantine.max(1) << strikes.min(6)),
                EvKind::Probe(d),
            );
        }
    }
}

/// The whole fleet is dead: resolve every queued and parked request
/// terminally so the run still accounts for everything it admitted.
fn collapse(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64) {
    let devices = ctx.cfg.devices;
    let queued: Vec<u64> = fleet
        .queues
        .iter_mut()
        .flat_map(|q| q.drain(..))
        .map(|p| p.id)
        .collect();
    for id in queued {
        fleet.outcome.chaos.shed += 1;
        resolve(
            fleet,
            ctx,
            now,
            id,
            Terminal::Rejected(Rejection::Shed {
                healthy: 0,
                devices,
            }),
        );
    }
    let parked: Vec<Parked> = fleet.parked.drain(..).collect();
    for p in parked {
        let kind = p.meta.last_failure.unwrap_or(FailureKind::Crash);
        for req in p.meta.reqs {
            fleet.outcome.chaos.failed += 1;
            resolve(
                fleet,
                ctx,
                now,
                req,
                Terminal::Failed {
                    kind,
                    attempts: p.meta.attempt,
                },
            );
        }
    }
}

/// Picks the next job for idle, healthy device `d` and starts its
/// first slice. Preference order: fresh interactive batch, then a
/// parked job whose backoff expired, then fresh batch-class work.
fn dispatch(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, d: usize) {
    debug_assert!(fleet.devices[d].is_none());
    let mut running = if let Some(r) = start_batch(fleet, ctx, now, d, 0) {
        r
    } else if let Some(p) = fleet.take_parked(now) {
        resume_parked(fleet, ctx, d, p)
    } else if let Some(r) = start_batch(fleet, ctx, now, d, 1) {
        r
    } else {
        return;
    };
    run_slice(fleet, ctx, &mut running, now, d);
    fleet.devices[d] = Some(running);
}

/// Brings a parked job back onto device `d`: restores its snapshot
/// (counting a migration if the device changed), or restages it from
/// admission when it parked without one.
fn resume_parked(fleet: &mut Fleet, ctx: &Ctx<'_>, d: usize, p: Parked) -> Running {
    let mut meta = p.meta;
    let sys = if let Some(bytes) = &p.snapshot {
        let mut sys = Box::new(System::new(ctx.dev_cfg.clone()));
        sys.restore_snapshot(bytes)
            .expect("fleet devices share one fingerprint");
        if meta.home != d {
            fleet.outcome.migrations += 1;
            for req in &meta.reqs {
                let i = usize::try_from(*req).expect("id fits");
                fleet.outcome.records[i].migrations += 1;
            }
        }
        // The snapshot carries the *source* device's fault wiring;
        // the job now runs under the destination's.
        apply_device_faults(fleet, ctx, &mut sys, d);
        sys
    } else {
        let batch = meta.reqs.len();
        let mut staged = meta
            .class
            .stage(ctx.dev_cfg, batch, &ctx.cfg.schedule_dir, ctx.cache);
        staged.load_programs();
        fleet.outcome.dispatches += 1;
        if batch > 1 {
            fleet.outcome.batches += 1;
        }
        meta.reader = staged.reader;
        meta.limit = staged.limit;
        meta.slices_since_ckpt = 0;
        let mut sys = Box::new(staged.sys);
        apply_device_faults(fleet, ctx, &mut sys, d);
        sys
    };
    meta.home = d;
    fleet.note_dispatch(&meta.reqs.clone(), meta.attempt, d);
    Running {
        meta,
        sys,
        end: SliceEnd::Paused,
    }
}

/// Wires device `d`'s fault injector into `sys` (flaky devices get
/// their per-device config, healthy ones an explicit all-off). A
/// no-op when chaos is disabled, preserving the clean fleet's exact
/// behaviour.
fn apply_device_faults(fleet: &Fleet, ctx: &Ctx<'_>, sys: &mut System, d: usize) {
    if ctx.cfg.chaos.is_none() {
        return;
    }
    if fleet.chaos[d].flaky && !fleet.chaos[d].faults.is_inert() {
        sys.set_fault_config(&fleet.chaos[d].faults);
    } else {
        sys.set_fault_config(&FaultConfig::disabled());
    }
}

/// Pops queue `q`'s head plus every same-class follower (in arrival
/// order, up to the batch bound), stages the tile, and returns it
/// ready for its first slice — or `None` if the queue ran out
/// (including when every queued request had blown its deadline).
/// Batching is the only reordering the FIFO-fairness property
/// permits: it may lift same-key requests past other keys, but never
/// reorders requests of one key.
fn start_batch(fleet: &mut Fleet, ctx: &Ctx<'_>, now: u64, d: usize, q: usize) -> Option<Running> {
    let deadline = ctx.cfg.chaos.map_or(0, |c| c.deadline);
    let expired = |rec: &RequestRecord| deadline > 0 && now > rec.arrival.saturating_add(deadline);
    let head = loop {
        let head = fleet.queues[q].pop_front()?;
        let idx = usize::try_from(head.id).expect("id fits");
        if expired(&fleet.outcome.records[idx]) {
            let waited = now - fleet.outcome.records[idx].arrival;
            fleet.outcome.chaos.timeouts += 1;
            resolve(
                fleet,
                ctx,
                now,
                head.id,
                Terminal::Rejected(Rejection::Timeout { deadline, waited }),
            );
            continue;
        }
        break head;
    };
    let limit = ctx.cfg.batch_max.min(head.class.batch_limit()).max(1);
    let mut reqs = vec![head.id];
    if limit > 1 {
        let mut i = 0;
        while i < fleet.queues[q].len() && reqs.len() < limit {
            if fleet.queues[q][i].class == head.class
                && fleet.queues[q][i].priority == head.priority
            {
                let p = fleet.queues[q]
                    .remove(i)
                    .expect("scanned index is in range");
                let idx = usize::try_from(p.id).expect("id fits");
                if expired(&fleet.outcome.records[idx]) {
                    let waited = now - fleet.outcome.records[idx].arrival;
                    fleet.outcome.chaos.timeouts += 1;
                    resolve(
                        fleet,
                        ctx,
                        now,
                        p.id,
                        Terminal::Rejected(Rejection::Timeout { deadline, waited }),
                    );
                } else {
                    reqs.push(p.id);
                }
            } else {
                i += 1;
            }
        }
    }
    let batch = reqs.len();
    fleet.outcome.dispatches += 1;
    if batch > 1 {
        fleet.outcome.batches += 1;
    }
    let mut staged = head
        .class
        .stage(ctx.dev_cfg, batch, &ctx.cfg.schedule_dir, ctx.cache);
    staged.load_programs();
    for req in &reqs {
        let i = usize::try_from(*req).expect("id fits");
        let rec = &mut fleet.outcome.records[i];
        rec.dispatch = Some(now);
        rec.batch = batch;
    }
    let mut sys = Box::new(staged.sys);
    apply_device_faults(fleet, ctx, &mut sys, d);
    fleet.note_dispatch(&reqs, 1, d);
    Some(Running {
        meta: JobMeta {
            reqs,
            class: head.class,
            limit: staged.limit,
            reader: staged.reader,
            home: d,
            attempt: 1,
            recovered: false,
            via_snapshot: false,
            last_failure: None,
            ckpt: None,
            slices_since_ckpt: 0,
        },
        sys,
        end: SliceEnd::Paused,
    })
}

/// Simulates one quantum on the job's own system (eagerly) and posts
/// the slice-end event at the fleet time it lands. A chaos hang draw
/// caps the engine's budget at the slice boundary, so a wedged slice
/// surfaces the engine's own typed [`SimError::Hang`] with a genuine
/// report of the live machine; any other engine error becomes a typed
/// slice failure for the recovery path.
fn run_slice(fleet: &mut Fleet, ctx: &Ctx<'_>, running: &mut Running, now: u64, d: usize) {
    let start = running.sys.now();
    let pause = start
        .saturating_add(ctx.cfg.quantum)
        .min(running.meta.limit);
    let mut limit = running.meta.limit;
    let mut induced = false;
    if let Some(ch) = ctx.cfg.chaos {
        if ch.hang_ppm > 0 && fleet.chaos[d].rng.below(PPM_SCALE) < u64::from(ch.hang_ppm) {
            limit = pause;
            induced = true;
        }
    }
    match ctx.cfg.engine.advance(&mut running.sys, pause, limit) {
        Ok(res) => {
            running.end = match res {
                RunOutcome::Quiesced(_) => SliceEnd::Done,
                RunOutcome::Paused(_) => SliceEnd::Paused,
            };
            if running.end == SliceEnd::Paused {
                if let Some(ch) = ctx.cfg.chaos {
                    if ch.checkpoint_every > 0 {
                        running.meta.slices_since_ckpt += 1;
                        if running.meta.slices_since_ckpt >= ch.checkpoint_every {
                            running.meta.ckpt = Some(running.sys.save_snapshot());
                            running.meta.slices_since_ckpt = 0;
                        }
                    }
                }
            }
        }
        Err(e) => {
            if induced && matches!(e, SimError::Hang(_)) {
                fleet.outcome.chaos.induced_hangs += 1;
            }
            running.end = SliceEnd::Failed(FailureKind::Sim(e.class()));
        }
    }
    let end = running.sys.now();
    let delta = end - start;
    fleet.outcome.device_busy[d] += delta;
    fleet.post(now + delta, EvKind::Device(d));
}

// ---------------------------------------------------------------------------
// Fleet checkpointing: the codec for the whole scheduler state.
//
// The `Snapshot` canonicality contract holds throughout: unordered
// containers (the event heap, the client map) serialize sorted, so the
// same logical fleet always checkpoints to the same bytes. Derived
// state is not persisted — each job's `ResultReader` is rebuilt from
// its tile class, and each device `System` round-trips through its own
// bit-exact snapshot.
// ---------------------------------------------------------------------------

// Hand-written: the draw stream is `vip-rng`'s `SplitMix64`, persisted
// as its cursor.
impl Snapshot for DeviceChaos {
    fn save(&self, w: &mut Writer) {
        w.u64(self.rng.state());
        w.bool(self.flaky);
        self.faults.save(w);
        self.health.save(w);
        w.u32(self.strikes);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(DeviceChaos {
            rng: SplitMix64::new(r.u64()?),
            flaky: r.bool()?,
            faults: FaultConfig::restore(r)?,
            health: Health::restore(r)?,
            strikes: r.u32()?,
        })
    }
}

fn save_job(meta: &JobMeta, w: &mut Writer) {
    meta.reqs.save(w);
    meta.class.save(w);
    w.u64(meta.limit);
    w.usize(meta.home);
    w.u32(meta.attempt);
    w.bool(meta.recovered);
    w.bool(meta.via_snapshot);
    meta.last_failure.save(w);
    meta.ckpt.save(w);
    w.u32(meta.slices_since_ckpt);
}

/// Decodes a [`JobMeta`], rebuilding its result reader (a pure
/// function of the tile class, batch size, and schedule store).
fn restore_job(r: &mut Reader<'_>, ctx: &Ctx<'_>) -> Result<JobMeta, SnapError> {
    let reqs: Vec<u64> = Vec::restore(r)?;
    if reqs.is_empty() {
        return Err(SnapError::Corrupt("job without requests"));
    }
    let class = TileClass::restore(r)?;
    let limit = r.u64()?;
    let home = r.usize()?;
    let attempt = r.u32()?;
    let recovered = r.bool()?;
    let via_snapshot = r.bool()?;
    let last_failure = Option::restore(r)?;
    let ckpt = Option::restore(r)?;
    let slices_since_ckpt = r.u32()?;
    let reader = class.reader_for(ctx.dev_cfg, reqs.len(), &ctx.cfg.schedule_dir);
    Ok(JobMeta {
        reqs,
        class,
        limit,
        reader,
        home,
        attempt,
        recovered,
        via_snapshot,
        last_failure,
        ckpt,
        slices_since_ckpt,
    })
}

fn save_parked(p: &Parked, w: &mut Writer) {
    save_job(&p.meta, w);
    p.snapshot.save(w);
    w.u64(p.not_before);
}

fn restore_parked(r: &mut Reader<'_>, ctx: &Ctx<'_>) -> Result<Parked, SnapError> {
    Ok(Parked {
        meta: restore_job(r, ctx)?,
        snapshot: Option::restore(r)?,
        not_before: r.u64()?,
    })
}

fn save_running(running: &Running, w: &mut Writer) {
    save_job(&running.meta, w);
    w.nested(|w| running.sys.save_into(w));
    running.end.save(w);
}

fn restore_running(r: &mut Reader<'_>, ctx: &Ctx<'_>) -> Result<Running, SnapError> {
    let meta = restore_job(r, ctx)?;
    let snap = r.bytes()?;
    let mut sys = Box::new(System::new(ctx.dev_cfg.clone()));
    sys.restore_snapshot(snap)?;
    let end = SliceEnd::restore(r)?;
    Ok(Running { meta, sys, end })
}

/// Serializes the whole fleet — scheduler bookkeeping, every busy
/// device's bit-exact snapshot, chaos RNG cursors, the partial
/// outcome, and the program cache's key set — into one checkpoint
/// blob keyed by the run fingerprint.
fn save_fleet(fleet: &Fleet, ctx: &Ctx<'_>, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, fingerprint);
    let mut events: Vec<(u64, u64, EvKind)> = fleet.heap.iter().map(|Reverse(e)| *e).collect();
    events.sort_unstable();
    w.usize(events.len());
    for (at, seq, kind) in events {
        w.u64(at);
        w.u64(seq);
        let (tag, arg) = kind.encode();
        w.u8(tag);
        w.u64(arg);
    }
    w.u64(fleet.seq);
    w.u64(fleet.issued);
    w.u64(fleet.events_settled);
    save_sorted(&mut w, &fleet.client_of);
    let cursors: Vec<u64> = fleet.think_rngs.iter().map(SplitMix64::state).collect();
    cursors.save(&mut w);
    fleet.queues[0].save(&mut w);
    fleet.queues[1].save(&mut w);
    w.usize(fleet.parked.len());
    for p in &fleet.parked {
        save_parked(p, &mut w);
    }
    w.usize(fleet.devices.len());
    for dev in &fleet.devices {
        match dev {
            None => w.bool(false),
            Some(running) => {
                w.bool(true);
                save_running(running, &mut w);
            }
        }
    }
    fleet.chaos.save(&mut w);
    fleet.outcome.save(&mut w);
    ctx.cache.keys().save(&mut w);
    w.u64(ctx.cache.hits());
    w.u64(ctx.cache.misses());
    w.into_bytes()
}

/// Decodes a [`save_fleet`] blob back into a live fleet, priming the
/// program cache with the checkpointed key set and counters. Every
/// malformed input is a typed [`SnapError`] — never a panic.
fn restore_fleet(bytes: &[u8], ctx: &Ctx<'_>, fingerprint: u64) -> Result<Fleet, SnapError> {
    let mut r = Reader::new(bytes);
    read_header(&mut r, fingerprint)?;
    let n = r.count()?;
    let mut heap = EventHeap::with_capacity(n);
    for _ in 0..n {
        let at = r.u64()?;
        let seq = r.u64()?;
        let tag = r.u8()?;
        let arg = r.u64()?;
        heap.push(Reverse((at, seq, EvKind::decode(tag, arg)?)));
    }
    let seq = r.u64()?;
    let issued = r.u64()?;
    let events_settled = r.u64()?;
    let client_of = Vec::restore(&mut r)?.into_iter().collect();
    let cursors: Vec<u64> = Vec::restore(&mut r)?;
    let queues = [VecDeque::restore(&mut r)?, VecDeque::restore(&mut r)?];
    let n = r.count()?;
    let mut parked = VecDeque::with_capacity(n);
    for _ in 0..n {
        parked.push_back(restore_parked(&mut r, ctx)?);
    }
    let n = r.usize()?;
    if n != ctx.cfg.devices {
        return Err(SnapError::Corrupt("device count mismatch"));
    }
    let mut devices = Vec::with_capacity(n);
    for _ in 0..n {
        devices.push(if r.bool()? {
            Some(restore_running(&mut r, ctx)?)
        } else {
            None
        });
    }
    let chaos: Vec<DeviceChaos> = Vec::restore(&mut r)?;
    if chaos.len() != ctx.cfg.chaos.map_or(0, |_| ctx.cfg.devices) {
        return Err(SnapError::Corrupt("chaos state count mismatch"));
    }
    let outcome = ServeOutcome::restore(&mut r)?;
    let cache_keys: Vec<CacheKey> = Vec::restore(&mut r)?;
    let hits = r.u64()?;
    let misses = r.u64()?;
    r.finish()?;
    ctx.cache.prime(cache_keys, hits, misses);
    Ok(Fleet {
        heap,
        seq,
        issued,
        events_settled,
        client_of,
        think_rngs: cursors.into_iter().map(SplitMix64::new).collect(),
        queues,
        parked,
        devices,
        chaos,
        outcome,
    })
}

// ---------------------------------------------------------------------------
// The durable driver: journaled execution with verified replay.
// ---------------------------------------------------------------------------

fn outcome_bytes(outcome: &ServeOutcome, fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    write_header(&mut w, fingerprint);
    outcome.save(&mut w);
    w.into_bytes()
}

fn decode_outcome(bytes: &[u8], fingerprint: u64) -> Result<ServeOutcome, SnapError> {
    let mut r = Reader::new(bytes);
    read_header(&mut r, fingerprint)?;
    let outcome = ServeOutcome::restore(&mut r)?;
    r.finish()?;
    Ok(outcome)
}

/// Runs `workload` durably over `store`: every settled scheduler event
/// appends one frame to the write-ahead journal, a whole-fleet
/// checkpoint lands every `checkpoint_every` events (`0` = journal
/// only), and the finished outcome is published as the point's
/// done-record. When the store already holds state from an interrupted
/// run, the run restores the latest checkpoint and *verifies* itself
/// against the journal tail while replaying it — so the returned
/// outcome is byte-identical to an uninterrupted run's.
///
/// Corrupt or divergent persisted state is never fatal (and never a
/// panic): the point's files are wiped and the run recomputed from
/// scratch. A fresh attempt can only fail with [`DurableError::Io`].
///
/// # Errors
///
/// [`DurableError::Io`] when the filesystem refuses a read or write.
pub fn serve_durable(
    cfg: &ServeConfig,
    workload: &Workload,
    store: &mut PointStore,
    checkpoint_every: u64,
) -> Result<ServeOutcome, DurableError> {
    match try_serve_durable(cfg, workload, store, checkpoint_every, None) {
        Err(DurableError::Corrupt { .. } | DurableError::Diverged { .. }) => {
            store.reset()?;
            let outcome = try_serve_durable(cfg, workload, store, checkpoint_every, None)?;
            Ok(outcome.expect("uninterrupted run always finishes"))
        }
        done => Ok(done?.expect("uninterrupted run always finishes")),
    }
}

/// [`serve_durable`], abandoned after `stop_after` settled events —
/// the in-process stand-in for a host crash between journal appends,
/// used by the durability tests to exercise resume at exact event
/// boundaries. The store is left exactly as a kill at that point
/// would leave it (journal synced, no done-record).
///
/// # Errors
///
/// As [`serve_durable`].
pub fn serve_durable_interrupted(
    cfg: &ServeConfig,
    workload: &Workload,
    store: &mut PointStore,
    checkpoint_every: u64,
    stop_after: u64,
) -> Result<(), DurableError> {
    match try_serve_durable(cfg, workload, store, checkpoint_every, Some(stop_after)) {
        Err(DurableError::Corrupt { .. } | DurableError::Diverged { .. }) => {
            store.reset()?;
            try_serve_durable(cfg, workload, store, checkpoint_every, Some(stop_after))?;
            Ok(())
        }
        done => {
            done?;
            Ok(())
        }
    }
}

/// One durable attempt. `Ok(None)` means `stop_after` cut the run
/// short (test-only); `Ok(Some(..))` is the finished outcome.
fn try_serve_durable(
    cfg: &ServeConfig,
    workload: &Workload,
    store: &mut PointStore,
    checkpoint_every: u64,
    stop_after: Option<u64>,
) -> Result<Option<ServeOutcome>, DurableError> {
    let fingerprint = store.fingerprint();
    let (ckpt, journal) = match store.load()? {
        LoadedPoint::Done(bytes) => {
            return decode_outcome(&bytes, fingerprint).map(Some).map_err(|e| {
                DurableError::Corrupt {
                    path: store.done_path(),
                    source: e,
                }
            });
        }
        LoadedPoint::Resume { ckpt, journal } => (ckpt, journal),
    };

    let dev_cfg = SystemConfig::single_vault(cfg.mem.clone());
    let cache = ProgramCache::new();
    let ctx = Ctx {
        cfg,
        dev_cfg: &dev_cfg,
        cache: &cache,
        workload,
    };
    // The loaded checkpoint is consumed here: it is freed before the
    // first event, not held through the segment.
    let mut fleet = match ckpt {
        Some(bytes) => {
            restore_fleet(&bytes, &ctx, fingerprint).map_err(|e| DurableError::Corrupt {
                path: store.latest_ckpt_path(),
                source: e,
            })?
        }
        None => init_fleet(&ctx),
    };
    // Journal frames settled after the checkpoint, awaiting
    // verification against what replay actually produces.
    let mut verify: VecDeque<Vec<u8>> = journal.into();

    while let Some(ev) = step(&mut fleet, &ctx) {
        let payload = event_payload(&ev);
        match verify.pop_front() {
            Some(expected) => {
                if expected != payload {
                    return Err(DurableError::Diverged { event: ev.index });
                }
            }
            None => store.append(&payload)?,
        }
        // The cadence rule: checkpoint on the boundary, but never while
        // journal frames are still pending verification — during replay
        // the verify queue drains exactly at the boundary only when the
        // original run died *inside* its checkpoint write, which is
        // precisely the case that needs the checkpoint retaken.
        if checkpoint_every > 0 && fleet.events_settled % checkpoint_every == 0 && verify.is_empty()
        {
            store.checkpoint(&save_fleet(&fleet, &ctx, fingerprint))?;
        }
        if stop_after.is_some_and(|n| fleet.events_settled >= n) {
            return Ok(None);
        }
    }
    if !verify.is_empty() {
        // The journal records events this replay never produced.
        return Err(DurableError::Diverged {
            event: fleet.events_settled + 1,
        });
    }
    let outcome = finalize(fleet, &ctx);
    store.finish(&outcome_bytes(&outcome, fingerprint))?;
    Ok(Some(outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A durable run on the functional engine, cut after `stop` settled
    /// events and resumed from the store the cut left behind, ends in
    /// exactly the outcome `serve` gives. A resume that diverges fails
    /// here instead of being wiped and recomputed, as `serve_durable`
    /// would do. The shape is the benchmark's serving fleet (standard
    /// mix, four devices, 5 000-cycle slices, 16 closed-loop clients);
    /// at each stop point a restored device that recalibrated its
    /// functional clock instead of keeping it would take another path.
    #[test]
    fn functional_resumes_repeat_the_uninterrupted_run() {
        const FP: u64 = 0xf0c1_0c4f_0000_0001;
        let cases: [(bool, u64, &[u64]); 3] = [
            (false, 8, &[24, 32, 40, 60]),
            (false, 16, &[32, 40]),
            (true, 8, &[28, 40]),
        ];
        for (chaos, cadence, stops) in cases {
            let cfg = ServeConfig {
                quantum: 5_000,
                engine: Engine::Functional,
                chaos: chaos.then(|| ChaosConfig::default_rates(7)),
                ..ServeConfig::default()
            };
            let workload = Workload {
                seed: 7,
                requests: 32,
                mode: LoadMode::Closed {
                    clients: 16,
                    think: 20_000,
                },
                mix: Workload::standard_mix(),
            };
            let want = serve(&cfg, &workload);
            for &stop in stops {
                let what = format!("chaos {chaos}, cadence {cadence}, stop {stop}");
                let root = std::env::temp_dir().join(format!(
                    "vip-func-resume-{}-{chaos}-{cadence}-{stop}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&root);
                let mut store = PointStore::open(&root, 0, FP).expect("open point store");
                let cut = try_serve_durable(&cfg, &workload, &mut store, cadence, Some(stop));
                assert!(matches!(cut, Ok(None)), "{what}: the cut run ended {cut:?}");
                drop(store);
                let mut store = PointStore::open(&root, 0, FP).expect("reopen point store");
                match try_serve_durable(&cfg, &workload, &mut store, cadence, None) {
                    Ok(Some(got)) => assert!(got == want, "{what}: a different outcome"),
                    other => panic!("{what}: the resume ended {other:?}"),
                }
                let _ = std::fs::remove_dir_all(&root);
            }
        }
    }
}
