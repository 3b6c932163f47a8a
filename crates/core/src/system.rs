//! The full VIP system: PEs + vault controllers + torus, clocked
//! together.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use vip_faults::FaultConfig;
use vip_isa::{scan_block, Block, Program, Reg};
use vip_mem::{Hmc, IdHasher, MemRequest, MemResponse, RequestKind};
use vip_noc::Torus;
use vip_snap::{read_header, snapshot_enum, write_header, Reader, SnapError, Snapshot, Writer};

use crate::config::SystemConfig;
use crate::error::{BlockedPe, HangReport, SimError};
use crate::fast_func::{exec_block, BlockOutcome, FuncClock, FuncConfig};
use crate::pe::Pe;
use crate::stats::{FuncStats, PeStats, SystemStats, WorkCounts};
use crate::Cycle;

/// How a bounded [`System::run_until`] slice ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every PE halted and the machine drained at the given cycle.
    Quiesced(Cycle),
    /// The pause bound was reached with work still in flight; the cycle
    /// equals the bound. Snapshot here and a later restore continues
    /// bit-identically.
    Paused(Cycle),
}

/// Traffic carried on the torus between vaults.
#[derive(Debug)]
enum SysMsg {
    /// A PE's memory request heading to a remote vault controller.
    Req(MemRequest),
    /// A completion heading back to PE `pe`'s vault.
    Resp { pe: usize, resp: MemResponse },
}

snapshot_enum!(SysMsg, "system message tag" { 0 => Req(req), 1 => Resp { pe, resp } });

fn req_bytes(req: &MemRequest) -> usize {
    match req.kind {
        RequestKind::Read | RequestKind::FeLoad => 16,
        RequestKind::Write | RequestKind::FeStore => 16 + req.data.len(),
    }
}

fn resp_bytes(resp: &MemResponse) -> usize {
    8 + resp.data.len()
}

/// Requests a PE's egress queue holds before its LSU waits to emit.
const EGRESS_DEPTH: usize = 8;

/// When a PE next needs a visit: its own next event (`pe_next`, told if
/// its egress has room for an emission) or its `to_pe` head maturing. The
/// one rule behind `step_with`'s due times and its debug asleep check.
fn due_time(
    pe_next: impl FnOnce(bool) -> Option<Cycle>,
    egress: &VecDeque<MemRequest>,
    to_pe: &VecDeque<(Cycle, MemResponse)>,
) -> Cycle {
    let next = pe_next(egress.len() < EGRESS_DEPTH).unwrap_or(Cycle::MAX);
    to_pe.front().map_or(next, |&(ready, _)| next.min(ready))
}

/// A set of small ids as a bitmap. Walking it visits the members in
/// ascending order, the order of the full scans it replaces.
#[derive(Debug, PartialEq)]
struct IdSet(Vec<u64>);

impl IdSet {
    fn new(ids: usize) -> Self {
        IdSet(vec![0; ids.div_ceil(64)])
    }

    fn insert(&mut self, id: usize) {
        self.0[id / 64] |= 1 << (id % 64);
    }

    fn remove(&mut self, id: usize) {
        self.0[id / 64] &= !(1 << (id % 64));
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut walk = Walk::default();
        std::iter::from_fn(move || walk.next(self))
    }
}

/// An ascending walk over an [`IdSet`] that reads each word on reaching
/// it: the walker may remove its member, not insert ahead of itself.
#[derive(Default)]
struct Walk {
    word: usize,
    bits: u64,
}

impl Walk {
    fn next(&mut self, set: &IdSet) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *set.0.get(self.word)?;
            self.word += 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word - 1) * 64 + bit)
    }
}

/// What the step keeps about the egress and link queues so that each
/// phase walks only those holding work. Derived: never snapshotted; debug
/// builds hold it to [`System::scan_active`] after every step.
#[derive(Debug, PartialEq)]
struct Active {
    /// Requests queued across all of `pe_egress`.
    queued: usize,
    /// The PEs whose `pe_egress` queue is non-empty.
    egress: IdSet,
    /// The vault each non-empty `pe_egress` queue's head is bound for,
    /// decoded once, when the request becomes the head.
    dst: Vec<usize>,
    /// The vaults with a non-empty `to_vault_local`, `vault_ingress` or
    /// `vault_egress` queue.
    vaults: IdSet,
}

/// Each PE's star downlink: its serialization state, the completions in
/// flight on it, and the due time their arrival lowers.
struct Downlinks<'a> {
    busy: &'a mut [Cycle],
    to_pe: &'a mut [VecDeque<(Cycle, MemResponse)>],
    due: &'a mut [Cycle],
    latency: Cycle,
}

impl Downlinks<'_> {
    /// Puts `resp` on PE `pe`'s downlink at `now`. The link serializes,
    /// so arrivals are in order and a queue's head is its earliest
    /// entry: lowering the PE's due time to this arrival keeps it no
    /// later than the head.
    fn send(&mut self, pe: usize, resp: MemResponse, now: Cycle) {
        let flits = 1 + resp_bytes(&resp).div_ceil(8) as u64;
        let start = now.max(self.busy[pe]);
        self.busy[pe] = start + flits;
        let ready = start + flits + self.latency;
        self.due[pe] = self.due[pe].min(ready);
        self.to_pe[pe].push_back((ready, resp));
    }
}

/// The complete system simulator (Figure 1's left half).
///
/// Holds `vaults × pes_per_vault` [`Pe`]s, the [`Hmc`] memory stack, and
/// the [`Torus`]. PEs reach their local vault controller over a star link
/// (configurable latency, 8 B/cycle serialization) and remote vaults over
/// the torus; completions retrace the path. Everything advances in
/// lock-step, one 0.8 ns cycle per [`step`](System::step).
///
/// See the crate docs for a runnable example.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    now: Cycle,
    pes: Vec<Pe>,
    hmc: Hmc,
    net: Torus<SysMsg>,
    /// Requests a PE has emitted but not yet pushed onto a link.
    pe_egress: Vec<VecDeque<MemRequest>>,
    /// Serialization state of each PE's star uplink.
    uplink_busy: Vec<Cycle>,
    /// Serialization state of each PE's star downlink.
    downlink_busy: Vec<Cycle>,
    /// In-flight on local star links toward each vault: (ready, request).
    to_vault_local: Vec<VecDeque<(Cycle, MemRequest)>>,
    /// Requests at a vault waiting for transaction-queue space.
    vault_ingress: Vec<VecDeque<MemRequest>>,
    /// Completions at a vault waiting to inject onto the torus.
    vault_egress: Vec<VecDeque<(usize, MemResponse)>>,
    /// In-flight completions on each PE's downlink: (ready, response).
    to_pe: Vec<VecDeque<(Cycle, MemResponse)>>,
    /// When PE `i` next needs a visit from `step` ([`due_time`]: issue,
    /// an LSU emission its egress queue has room for, vector drain, its
    /// `to_pe` head maturing); `Cycle::MAX` when only a completion not
    /// yet on its downlink, or a slot freed in its egress, can move it.
    /// Maintained by the wake-driven run loops only, and marked all-due
    /// at each of their entries, so nothing the host does between runs
    /// needs to touch it. Derived state: never snapshotted.
    due: Vec<Cycle>,
    /// The last cycle PE `i`'s per-cycle counters are settled through —
    /// its last visit, while a run loop has it asleep.
    asleep_since: Vec<Cycle>,
    /// The active sets of the egress and link queues.
    active: Active,
    /// PEs that have not halted — an O(1) quiescence pre-gate,
    /// recounted at [`run`](System::run) entry and maintained by `step`.
    unhalted: usize,
    /// Requests emitted by PEs whose completion has not yet been
    /// delivered back (the other half of the quiescence pre-gate).
    inflight_msgs: usize,
    /// Decoded straight-line blocks, keyed on `(program fingerprint,
    /// pc)` so PEs running the same program share entries and reloads
    /// never serve stale code. Derived state: never snapshotted, and it
    /// survives a restore because the keys do.
    block_cache: HashMap<(u64, u64), Arc<Block>, BuildHasherDefault<IdHasher>>,
    /// The functional tier's calibration and hand-off state.
    func_clock: FuncClock,
    /// Duty-cycle knobs for [`run_functional`](System::run_functional).
    func_cfg: FuncConfig,
    /// Functional-tier counters (block cache, window, drain activity).
    func_stats: FuncStats,
    /// Host work done so far; its `mem` and `noc` parts stay zero here
    /// (the components count their own). Not state: never serialized.
    work: WorkCounts,
}

/// Why a functional stretch returned control to the orchestrator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StretchEnd {
    /// Every PE halted.
    AllHalted,
    /// The busiest PE consumed the stretch's work budget; time for an
    /// accurate timing window.
    Budget,
    /// A full round made no progress with live PEs remaining: every
    /// live PE is parked on a full-empty word.
    Deadlock,
    /// An instruction would trap; architectural state is parked exactly
    /// at it.
    Trapped,
}

impl System {
    /// Builds an idle system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see [`SystemConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        cfg.validate();
        let total = cfg.total_pes();
        let vaults = cfg.mem.vaults;
        let pes = (0..total)
            .map(|id| Pe::new(id, id / cfg.pes_per_vault, &cfg))
            .collect();
        System {
            hmc: Hmc::new(cfg.mem.clone()),
            net: Torus::new(cfg.torus),
            pes,
            now: 0,
            pe_egress: vec![VecDeque::new(); total],
            uplink_busy: vec![0; total],
            downlink_busy: vec![0; total],
            to_vault_local: vec![VecDeque::new(); vaults],
            vault_ingress: vec![VecDeque::new(); vaults],
            vault_egress: vec![VecDeque::new(); vaults],
            to_pe: vec![VecDeque::new(); total],
            due: vec![0; total],
            asleep_since: vec![0; total],
            active: Active {
                queued: 0,
                egress: IdSet::new(total),
                dst: vec![0; total],
                vaults: IdSet::new(vaults),
            },
            unhalted: 0,
            inflight_msgs: 0,
            block_cache: HashMap::default(),
            func_cfg: FuncConfig::default(),
            func_stats: FuncStats::default(),
            func_clock: FuncClock::default(),
            work: WorkCounts::default(),
            cfg,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Total PE count.
    #[must_use]
    pub fn total_pes(&self) -> usize {
        self.pes.len()
    }

    /// The current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Immutable access to PE `pe`.
    #[must_use]
    pub fn pe(&self, pe: usize) -> &Pe {
        &self.pes[pe]
    }

    /// Mutable access to PE `pe` (host setup: scratchpad preloading).
    pub fn pe_mut(&mut self, pe: usize) -> &mut Pe {
        &mut self.pes[pe]
    }

    /// The memory stack (host reads of results).
    #[must_use]
    pub fn hmc(&self) -> &Hmc {
        &self.hmc
    }

    /// Mutable memory stack (host loading of inputs).
    pub fn hmc_mut(&mut self) -> &mut Hmc {
        &mut self.hmc
    }

    /// Loads `program` into one PE.
    pub fn load_program(&mut self, pe: usize, program: &Program) {
        self.pes[pe].load_program(program);
    }

    /// Loads the same program into every PE (SPMD style; PEs diverge via
    /// their id registers).
    pub fn load_program_all(&mut self, program: &Program) {
        for pe in &mut self.pes {
            pe.load_program(program);
        }
    }

    /// No-op: the step is always serial. Kept only because the frozen
    /// `perf/` benchmark package calls it at three sites; the next
    /// `benchmark` PR removes those calls, the
    /// `core.system.shards2_over_serial` ledger row, and this method.
    #[doc(hidden)]
    pub fn set_step_shards(&mut self, _shards: usize) {}

    /// Sets a scalar register in one PE before the run.
    pub fn set_reg(&mut self, pe: usize, r: Reg, value: u64) {
        self.pes[pe].set_reg(r, value);
    }

    /// Advances the whole system one cycle, visiting every PE: the
    /// naive engine's step, and the reference the wake-driven run loops
    /// are checked against.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if a PE trapped, consumed poisoned memory,
    /// received an orphan response, or the NoC abandoned a packet. The
    /// error is deterministic: every PE still steps this cycle and the
    /// lowest-PE-id failure wins, so all stepping engines report the
    /// same error for the same program and fault seed.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_with(true).map(drop)
    }

    /// The one stepping core. `all_due` is the skip policy: with it
    /// every PE is visited and the wake bookkeeping is left alone;
    /// without it (the run loops that called
    /// [`wake_all`](Self::wake_all)) phase 4a visits only the PEs whose
    /// [`due`](Self::due) time has come, an `Err` return has already
    /// [settled](Self::settle_pes) the sleepers' counters, and `Ok`
    /// carries the next-event bound: the first cycle after this one on
    /// which anything can happen. The phases take it as a running
    /// minimum over what they already touch — every PE's due time, every
    /// non-empty link and egress queue's head — and only when all of
    /// those are quiet past the next cycle does it read the torus's and
    /// the vaults' cached wakes. It equals the from-scratch
    /// [`scan_next_event`](Self::scan_next_event), which debug builds
    /// check after every such step. With `all_due` it is `now + 1`.
    fn step_with(&mut self, all_due: bool) -> Result<Cycle, SimError> {
        self.work.steps += 1;
        self.now += 1;
        let now = self.now;
        // The next-event bound, before the `now + 1` floor.
        let mut next = Cycle::MAX;
        let local_lat = self.cfg.local_link_latency;
        let pes_per_vault = self.cfg.pes_per_vault;

        // 1. Memory stack: tick and route completions toward PEs.
        let mut downlinks = Downlinks {
            busy: &mut self.downlink_busy,
            to_pe: &mut self.to_pe,
            due: &mut self.due,
            latency: local_lat,
        };
        {
            let (vault_egress, vault_set) = (&mut self.vault_egress, &mut self.active.vaults);
            self.hmc.tick_with(|vault, resp| {
                let pe = (resp.id >> 32) as usize;
                if pe / pes_per_vault == vault {
                    downlinks.send(pe, resp, now);
                } else {
                    vault_egress[vault].push_back((pe, resp));
                    vault_set.insert(vault);
                }
            });
        }

        // 2. Network: advance, surface abandoned packets, drain
        // deliveries.
        self.net.tick();
        if let Some(pkt) = self.net.pop_failed() {
            if !all_due {
                // No PE sees this cycle.
                self.settle_pes(now - 1);
            }
            return Err(SimError::NocDeliveryFailed {
                src: pkt.src,
                dst: pkt.dst,
            });
        }
        while let Some((node, pkt)) = self.net.pop_delivered() {
            match pkt.payload {
                SysMsg::Req(req) => {
                    self.vault_ingress[node].push_back(req);
                    self.active.vaults.insert(node);
                }
                SysMsg::Resp { pe, resp } => {
                    debug_assert_eq!(pe / pes_per_vault, node);
                    downlinks.send(pe, resp, now);
                }
            }
        }

        // 3. Local star links arriving at vault controllers, in the
        // vaults whose link queues hold work.
        let mut walk = Walk::default();
        while let Some(vault) = walk.next(&self.active.vaults) {
            let local = &mut self.to_vault_local[vault];
            let ingress = &mut self.vault_ingress[vault];
            while let Some((_, req)) = local.pop_front_if(|&mut (ready, _)| ready <= now) {
                ingress.push_back(req);
            }
            // Drain ingress into the transaction queue.
            while self.hmc.can_accept(vault) {
                let Some(req) = ingress.pop_front() else {
                    break;
                };
                self.hmc.enqueue(vault, req).expect("checked can_accept");
            }
            // Inject queued completions onto the torus.
            let egress = &mut self.vault_egress[vault];
            while self.net.can_inject(vault) {
                let Some((pe, resp)) = egress.pop_front() else {
                    break;
                };
                let bytes = resp_bytes(&resp);
                self.net
                    .inject(vault, pe / pes_per_vault, bytes, SysMsg::Resp { pe, resp })
                    .expect("checked can_inject");
            }
            // A non-empty ingress queue waits on the vault's own next
            // event (the transaction queue is full); a completion left
            // in egress on the port, which stays busy for the whole step.
            if let Some(&(ready, _)) = local.front() {
                next = next.min(ready);
            }
            if !egress.is_empty() {
                next = next.min(self.net.inject_ready_at(vault));
            } else if local.is_empty() && ingress.is_empty() {
                self.active.vaults.remove(vault);
            }
        }

        // 4a. PEs: deliver matured completions, tick, and emit at most
        // one request into the PE's private egress queue; all
        // shared-structure work stays in 4b. With `all_due` every PE is
        // visited. Without it a PE whose due time is still ahead is
        // skipped: nothing it would do this cycle is observable except
        // one stall-counter bump, which the visit that ends its sleep
        // replays ([`Pe::fast_forward`]) before anything can change the
        // stall. A visit touches only its own PE and queues, so it changes
        // no one else's due time. Every due PE is stepped even after one
        // has failed, and the lowest-PE-id error is the one reported.
        let (mut visited, mut received, mut emitted) = (0, 0, 0);
        let mut first_err: Option<SimError> = None;
        for i in 0..self.pes.len() {
            if !all_due && self.due[i] > now {
                debug_assert!(
                    due_time(
                        |room| self.pes[i].next_event(now - 1, room),
                        &self.pe_egress[i],
                        &self.to_pe[i]
                    ) > now,
                    "PE {i}: asleep until {} but due at {now}",
                    self.due[i]
                );
                next = next.min(self.due[i]);
                continue;
            }
            visited += 1;
            let pe = &mut self.pes[i];
            let queue = &mut self.to_pe[i];
            if !all_due {
                pe.fast_forward(self.asleep_since[i], now - 1);
                self.asleep_since[i] = now;
            }

            let mut pe_err: Option<SimError> = None;
            while let Some((_, resp)) = queue.pop_front_if(|&mut (ready, _)| ready <= now) {
                match pe.receive(&resp) {
                    Ok(()) => {
                        received += 1;
                        // Copied out by `receive`: back to the read pool.
                        self.hmc.storage_mut().recycle(resp.data);
                    }
                    Err(e) => {
                        pe_err = Some(e);
                        break;
                    }
                }
            }

            if pe_err.is_none() {
                let was_halted = pe.is_halted();
                match pe.tick(now) {
                    Ok(()) => {
                        let egress = &mut self.pe_egress[i];
                        if egress.len() < EGRESS_DEPTH {
                            if let Some(req) = pe.emit_request() {
                                if egress.is_empty() {
                                    self.active.dst[i] = self.cfg.mem.vault_of(req.addr);
                                    self.active.egress.insert(i);
                                }
                                egress.push_back(req);
                                emitted += 1;
                            }
                        }
                        if !was_halted && pe.is_halted() {
                            self.unhalted = self.unhalted.saturating_sub(1);
                        }
                    }
                    Err(e) => pe_err = Some(e),
                }
            }

            if !all_due {
                self.due[i] = due_time(|room| pe.next_due(now, room), &self.pe_egress[i], queue);
                next = next.min(self.due[i]);
            }

            if first_err.is_none() {
                first_err = pe_err;
            }
        }
        // One saturating update per cycle, not one per PE: `inflight_msgs`
        // is snapshotted, and the two orders differ where it saturates.
        self.inflight_msgs = self.inflight_msgs.saturating_sub(received) + emitted;
        self.active.queued += emitted;
        self.work.pe_visits += visited;
        if let Some(e) = first_err {
            if !all_due {
                self.settle_pes(now);
            }
            return Err(e);
        }

        // 4b. Dispatch the oldest pending request of each PE with one
        // onto its uplink or the torus, in PE-id order. A head left bound
        // for the torus waits on its vault's injection port, which later
        // PEs of the same vault may still take: the walk reads the port
        // once it has passed them (ids are grouped by vault).
        let mut port_wait = None;
        let mut walk = Walk::default();
        while let Some(pe_id) = walk.next(&self.active.egress) {
            let (vault, dst) = (pe_id / pes_per_vault, self.active.dst[pe_id]);
            if let Some(v) = port_wait.filter(|&v| v != vault) {
                next = next.min(self.net.inject_ready_at(v));
                port_wait = None;
            }
            let local = dst == vault;
            if local && self.uplink_busy[pe_id] <= now || !local && self.net.can_inject(vault) {
                let egress = &mut self.pe_egress[pe_id];
                let req = egress.pop_front().expect("a member of the egress set");
                if egress.len() == EGRESS_DEPTH - 1 {
                    // The slot an emission may be asleep waiting for.
                    self.due[pe_id] = self.due[pe_id].min(now + 1);
                    next = next.min(now + 1);
                }
                match egress.front() {
                    Some(head) => self.active.dst[pe_id] = self.cfg.mem.vault_of(head.addr),
                    None => self.active.egress.remove(pe_id),
                }
                self.active.queued -= 1;
                if local {
                    let flits = 1 + req_bytes(&req).div_ceil(8) as u64;
                    self.uplink_busy[pe_id] = now + flits;
                    let link = &mut self.to_vault_local[vault];
                    if link.is_empty() {
                        // The new head; behind one, it is not the next event.
                        next = next.min(now + flits + local_lat);
                    }
                    link.push_back((now + flits + local_lat, req));
                    self.active.vaults.insert(vault);
                } else {
                    let bytes = req_bytes(&req);
                    self.net
                        .inject(vault, dst, bytes, SysMsg::Req(req))
                        .expect("checked can_inject");
                }
                if self.pe_egress[pe_id].is_empty() {
                    continue;
                }
            }
            // The head left waits on its link.
            if self.active.dst[pe_id] == vault {
                next = next.min(self.uplink_busy[pe_id]);
            } else {
                port_wait = Some(vault);
            }
        }
        if let Some(v) = port_wait {
            next = next.min(self.net.inject_ready_at(v));
        }
        debug_assert_eq!(self.active, self.scan_active(), "stale active sets");
        if all_due {
            return Ok(now + 1);
        }

        // The rest of the machine, only while everything above is quiet
        // past the next cycle: the torus's wake, then the vaults'.
        let floor = now + 1;
        next = next.max(floor);
        if next > floor {
            self.work.torus_bound_reads += 1;
            next = next.min(self.net.wake().unwrap_or(Cycle::MAX));
            if next > floor {
                self.work.vault_bound_reads += 1;
                next = next.min(self.hmc.next_event());
            }
        }
        debug_assert_eq!(
            next,
            self.scan_next_event(),
            "the step's next-event bound disagrees with the machine"
        );
        Ok(next)
    }

    /// The active sets recomputed from the queues themselves (an empty
    /// queue's meaningless `dst` entry is copied, not recomputed).
    fn scan_active(&self) -> Active {
        let mut active = Active {
            queued: self.pe_egress.iter().map(VecDeque::len).sum(),
            egress: IdSet::new(self.pes.len()),
            dst: self.active.dst.clone(),
            vaults: IdSet::new(self.cfg.mem.vaults),
        };
        for (pe, queue) in self.pe_egress.iter().enumerate() {
            if let Some(head) = queue.front() {
                active.egress.insert(pe);
                active.dst[pe] = self.cfg.mem.vault_of(head.addr);
            }
        }
        for v in 0..self.cfg.mem.vaults {
            let (local, ingress) = (&self.to_vault_local[v], &self.vault_ingress[v]);
            if local.len() + ingress.len() + self.vault_egress[v].len() > 0 {
                active.vaults.insert(v);
            }
        }
        active
    }

    /// Marks every PE due and settled as of now — the entry of every
    /// wake-driven run loop. Between runs the host may have changed
    /// anything a due time was derived from (`pe_mut`, `load_program`,
    /// `set_reg`, `restore_snapshot`, the drain's freeze), and every run
    /// loop [settles](Self::settle_pes) before it returns, so starting
    /// from "visit everyone" is always right and nothing else has to
    /// remember to call this.
    fn wake_all(&mut self) {
        self.due.fill(0);
        self.asleep_since.fill(self.now);
    }

    /// Brings every sleeping PE's per-cycle counters up to `through` —
    /// what `stats()`, `pe(i).stats()`, snapshots and hang reports read.
    /// Every exit of a wake-driven run loop passes through here (the
    /// error exits inside [`step_with`](Self::step_with)). Due times
    /// stay as they are: settling changes no input of `issue_state`.
    fn settle_pes(&mut self, through: Cycle) {
        for (pe, asleep_since) in self.pes.iter_mut().zip(&mut self.asleep_since) {
            pe.fast_forward(*asleep_since, through);
            *asleep_since = through;
        }
    }

    /// Whether every PE has halted and all memory traffic has drained.
    #[must_use]
    pub fn is_quiesced(&self) -> bool {
        self.pes.iter().all(Pe::is_halted) && self.machine_idle()
    }

    /// A sound lower bound on the next cycle (strictly after `now`) at
    /// which any component can make observable progress: a PE issues or
    /// emits, a queued message matures or unblocks, a vault schedules a
    /// DRAM command or refreshes, or a packet moves on the torus;
    /// `Cycle::MAX` if nothing ever can. Only meaningful inside a
    /// wake-driven run loop, right after a step: the PE and `to_pe`
    /// candidates are read from [`due`](Self::due).
    ///
    /// Sound means never *late*: stepping every cycle in `(now, bound)`
    /// would change nothing but per-cycle counters (which
    /// [`skip_to`](System::skip_to) replays). Waking early is merely a
    /// missed shortcut. `vault_ingress` needs no candidate of its own: a
    /// non-empty ingress queue implies the vault's transaction queue is
    /// full (`step` drains ingress while space remains), so that vault's
    /// own next event covers it.
    ///
    /// Computed from the queues, the due times and the torus's flights
    /// one by one: the debug-build oracle for the bound
    /// [`step_with`](Self::step_with) returns.
    fn scan_next_event(&self) -> Cycle {
        let floor = self.now + 1;
        let mut next = self.due.iter().copied().min().unwrap_or(Cycle::MAX);
        if next <= floor {
            return floor;
        }
        next = next.min(self.hmc.next_event().max(floor));
        if let Some(c) = self.net.next_event() {
            next = next.min(c.max(floor));
        }
        for vault in self.active.vaults.iter() {
            if let Some(&(ready, _)) = self.to_vault_local[vault].front() {
                next = next.min(ready.max(floor));
            }
            if !self.vault_egress[vault].is_empty() {
                next = next.min(self.net.inject_ready_at(vault).max(floor));
            }
        }
        for pe_id in self.active.egress.iter() {
            let vault = pe_id / self.cfg.pes_per_vault;
            let c = if self.active.dst[pe_id] == vault {
                self.uplink_busy[pe_id]
            } else {
                self.net.inject_ready_at(vault)
            };
            next = next.min(c.max(floor));
        }
        next
    }

    /// Jumps the clock to `to`, replaying the per-cycle counters a
    /// cycle-by-cycle run of the intervening (provably event-free)
    /// cycles would have produced. Only valid when the last step's
    /// next-event bound lies past `to` — which puts every PE's due time
    /// past it too: they sleep through the jump like through any other
    /// cycle they are not due, and their counters are replayed when they
    /// wake.
    fn skip_to(&mut self, to: Cycle) {
        debug_assert!(to > self.now);
        debug_assert!(self.due.iter().all(|&due| due > to));
        self.work.skips += 1;
        self.work.skipped_cycles += to - self.now;
        self.hmc.skip_to(to);
        self.net.skip_to(to);
        self.now = to;
    }

    /// Rebuilds the O(1) quiescence pre-gate from scratch (program
    /// loading happens outside `step`, which otherwise maintains it
    /// incrementally).
    fn recount_quiesce_counters(&mut self) {
        self.unhalted = self.pes.iter().filter(|p| !p.is_halted()).count();
    }

    /// Runs until every PE halts and the machine drains, fast-forwarding
    /// over cycles in which nothing can happen (stepping remains
    /// bit-identical to [`run_naive`](System::run_naive): same quiesce
    /// cycle, same statistics).
    ///
    /// Returns the cycle count at quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hang`] with a structured [`HangReport`] —
    /// which PEs are blocked where, on which full-empty words, what the
    /// network and vault queues still hold — if the system has not
    /// quiesced within `max_cycles` (a full-empty deadlock or simply too
    /// small a limit), or any other [`SimError`] a step raises.
    pub fn run(&mut self, max_cycles: Cycle) -> Result<Cycle, SimError> {
        match self.run_inner(max_cycles, max_cycles)? {
            RunOutcome::Quiesced(at) => Ok(at),
            RunOutcome::Paused(_) => {
                unreachable!("pause bound equals the limit, which hangs instead")
            }
        }
    }

    /// Runs with the fast-forward engine until the system quiesces *or*
    /// the clock reaches `pause_at`, whichever comes first — the slice
    /// API the checkpointing harness is built on. Pausing is
    /// behaviour-preserving: a paused run continued (directly or via a
    /// snapshot restored onto a fresh system) finishes bit-identically —
    /// same quiesce cycle, same statistics, same memory image — to one
    /// that never paused. `pause_at` is clamped to `max_cycles`.
    ///
    /// # Errors
    ///
    /// As for [`run`](System::run): [`SimError::Hang`] if `max_cycles`
    /// arrives without quiescence, or whatever error a step raises.
    pub fn run_until(
        &mut self,
        pause_at: Cycle,
        max_cycles: Cycle,
    ) -> Result<RunOutcome, SimError> {
        self.run_inner(pause_at.min(max_cycles), max_cycles)
    }

    fn run_inner(&mut self, pause_at: Cycle, max_cycles: Cycle) -> Result<RunOutcome, SimError> {
        self.recount_quiesce_counters();
        self.wake_all();
        let outcome = self.run_awake(pause_at, max_cycles);
        if outcome.is_ok() {
            // A step that fails has settled already, at the cycle the
            // PEs last saw.
            self.settle_pes(self.now);
        }
        match outcome? {
            Some(outcome) => Ok(outcome),
            None => Err(SimError::Hang(Box::new(self.hang_report(max_cycles)))),
        }
    }

    /// [`run_inner`](Self::run_inner)'s loop, between the wake-all at
    /// its entry and the settle at its exit; `None` is the hang.
    fn run_awake(
        &mut self,
        pause_at: Cycle,
        max_cycles: Cycle,
    ) -> Result<Option<RunOutcome>, SimError> {
        while self.now < pause_at {
            let next = self.step_with(false)?;
            if self.unhalted == 0 && self.inflight_msgs == 0 && self.is_quiesced() {
                return Ok(Some(RunOutcome::Quiesced(self.now)));
            }
            // Nothing can happen strictly before `next`: land one cycle
            // short and let the next step take it.
            let target = (next - 1).min(pause_at);
            if target > self.now {
                self.skip_to(target);
            }
        }
        if pause_at < max_cycles {
            // Catches a system that was already quiesced at entry (the
            // in-loop check covers everything the slice itself stepped).
            if self.unhalted == 0 && self.inflight_msgs == 0 && self.is_quiesced() {
                return Ok(Some(RunOutcome::Quiesced(self.now)));
            }
            return Ok(Some(RunOutcome::Paused(self.now)));
        }
        Ok(None)
    }

    /// [`run`](System::run) without the event-driven fast-forward: steps
    /// every cycle and evaluates full quiescence each time. The
    /// reference implementation the determinism tests and the
    /// `sim_throughput` benchmark compare against.
    ///
    /// # Errors
    ///
    /// As for [`run`](System::run): [`SimError::Hang`] at the limit, or
    /// whatever error a step raises.
    pub fn run_naive(&mut self, max_cycles: Cycle) -> Result<Cycle, SimError> {
        match self.run_naive_until(max_cycles, max_cycles)? {
            RunOutcome::Quiesced(at) => Ok(at),
            RunOutcome::Paused(_) => {
                unreachable!("pause bound equals the limit, which hangs instead")
            }
        }
    }

    /// [`run_naive`](System::run_naive) with a pause bound — the naive
    /// engine's counterpart to [`run_until`](System::run_until), with
    /// the same exact-pause contract: the clock stops at `pause_at` (or
    /// quiescence, whichever comes first), and a paused run continued —
    /// directly or via a snapshot restored onto a fresh system —
    /// finishes bit-identically to one that never paused. `pause_at` is
    /// clamped to `max_cycles`.
    ///
    /// # Errors
    ///
    /// As for [`run_naive`](System::run_naive): [`SimError::Hang`] if
    /// `max_cycles` arrives without quiescence, or whatever error a
    /// step raises.
    pub fn run_naive_until(
        &mut self,
        pause_at: Cycle,
        max_cycles: Cycle,
    ) -> Result<RunOutcome, SimError> {
        let pause_at = pause_at.min(max_cycles);
        while self.now < pause_at {
            self.step()?;
            if self.is_quiesced() {
                return Ok(RunOutcome::Quiesced(self.now));
            }
        }
        if pause_at < max_cycles {
            // Catches a system that was already quiesced at entry (the
            // in-loop check covers everything the slice itself stepped).
            if self.is_quiesced() {
                return Ok(RunOutcome::Quiesced(self.now));
            }
            return Ok(RunOutcome::Paused(self.now));
        }
        Err(SimError::Hang(Box::new(self.hang_report(max_cycles))))
    }

    /// Overrides the functional tier's duty-cycle knobs (see
    /// [`FuncConfig`]). Tuning state only: every setting yields the
    /// same architectural results, differing in wall-clock speed and
    /// timing-estimate accuracy.
    pub fn set_func_config(&mut self, cfg: FuncConfig) {
        self.func_cfg = cfg;
    }

    /// The functional tier's duty-cycle knobs.
    #[must_use]
    pub fn func_config(&self) -> &FuncConfig {
        &self.func_cfg
    }

    /// Whether nothing is in flight anywhere — [`is_quiesced`]
    /// (System::is_quiesced) minus the all-halted requirement. Live PEs
    /// whose front ends simply have not issued yet count as idle; the
    /// functional tier may take over exactly at such boundaries.
    fn machine_idle(&self) -> bool {
        debug_assert_eq!(self.active, self.scan_active(), "stale active sets");
        self.pes.iter().all(|pe| pe.is_quiesced(self.now))
            && self.hmc.is_idle()
            && self.net.is_idle()
            && self.active.queued == 0
            && self.active.vaults.iter().next().is_none()
            && self.to_pe.iter().all(VecDeque::is_empty)
    }

    /// Whether any fault injector is wired at a non-zero rate. Live
    /// faults are keyed on cycle-level coordinates (vault access
    /// counters, retired-instruction counts at specific cycles) that
    /// the functional tier does not reproduce, so such runs stay on the
    /// cycle-accurate engine. Injectors wired at rate zero can never
    /// fire and do not force that.
    fn faults_active(&self) -> bool {
        self.hmc
            .config()
            .faults
            .is_some_and(|f| f.single_bit_ppm > 0 || f.double_bit_ppm > 0)
            || self
                .net
                .config()
                .faults
                .is_some_and(|f| f.corrupt_ppm > 0 || f.drop_ppm > 0)
            || self
                .pes
                .iter()
                .any(|p| p.fault_config().is_some_and(|f| f.writeback_flip_ppm > 0))
    }

    /// Steps the cycle-accurate model with every PE's issue frozen until
    /// nothing is in flight, or `limit` cycles pass. Freezing keeps
    /// in-flight work (LSU completions, vector drains, queued traffic)
    /// retiring without letting front ends issue more, so the drain
    /// converges whenever no request is parked on a full-empty word.
    /// Returns whether the machine reached idle; PEs are always thawed.
    fn drain_to_idle(&mut self, limit: Cycle) -> Result<bool, SimError> {
        let t0 = self.now;
        let deadline = self.now.saturating_add(limit.max(1));
        for pe in &mut self.pes {
            pe.set_frozen(true);
        }
        self.wake_all();
        let drained = loop {
            if self.machine_idle() {
                break Ok(true);
            }
            if self.now >= deadline {
                break Ok(false);
            }
            let next = match self.step_with(false) {
                Ok(next) => next,
                Err(e) => break Err(e),
            };
            let target = (next - 1).min(deadline);
            if target > self.now {
                self.skip_to(target);
            }
        };
        if drained.is_ok() {
            // Before the thaw: a frozen PE charges no stall for the
            // cycles it slept, a thawed one would.
            self.settle_pes(self.now);
        }
        for pe in &mut self.pes {
            pe.set_frozen(false);
        }
        self.func_stats.accurate_cycles += self.now - t0;
        drained
    }

    /// Stamps the functional clock forward to `to`: active-cycle
    /// counters for the PEs that participated (and all still-live PEs),
    /// the vault clocks with skipped refreshes credited on schedule,
    /// and the torus clock. Only valid when the machine is idle —
    /// nothing in flight means nothing to replay.
    fn advance_functional_clock(&mut self, to: Cycle, ran: &[bool]) {
        if to <= self.now {
            return;
        }
        for (i, pe) in self.pes.iter_mut().enumerate() {
            // A PE that halted in an earlier stretch stopped being active
            // then: its `active_cycles` stays where that stretch left it.
            if ran[i] || !pe.is_halted() {
                pe.set_active_cycles(to);
            }
        }
        self.hmc.advance_idle(to);
        self.net.skip_to(to);
        self.func_stats.functional_cycles += to - self.now;
        self.now = to;
    }

    /// Runs every live PE functionally, round-robin in `quantum`-work
    /// turns, until the busiest PE exhausts the stretch budget, all PEs
    /// halt, or only the cycle-accurate engine can make further
    /// progress (trap, deadlock). Returns how the stretch ended, which
    /// PEs executed anything, and the busiest PE's work-unit total —
    /// the quantity the clock advance extrapolates from.
    fn functional_stretch(&mut self) -> (StretchEnd, Vec<bool>, u64) {
        self.work.stretches += 1;
        let n = self.pes.len();
        let quantum = self.func_cfg.quantum.max(1);
        let budget = self.func_cfg.stretch_work.max(1);
        let mut ran = vec![false; n];
        let mut done = vec![0u64; n];
        // One-entry memo over the cache: a dense kernel's self-looping
        // block hits here without touching the hash map.
        let mut memo: Option<(u64, usize, Arc<Block>)> = None;
        let mut blocks = 0;
        let end = 'stretch: loop {
            let mut progressed = false;
            let mut live = 0usize;
            for i in 0..n {
                if self.pes[i].is_halted() {
                    continue;
                }
                live += 1;
                let fp = self.pes[i].prog_fp();
                let turn_work = self.pes[i].stats().work_units;
                let turn_insts = self.pes[i].stats().instructions;
                let turn_limit = turn_work.saturating_add(quantum);
                loop {
                    let pc = self.pes[i].pc();
                    let block: &Block = match &mut memo {
                        Some((mfp, mpc, b)) if *mfp == fp && *mpc == pc => b,
                        memo => {
                            let b = match self.block_cache.get(&(fp, pc as u64)) {
                                Some(b) => {
                                    self.func_stats.block_cache_hits += 1;
                                    Arc::clone(b)
                                }
                                None => {
                                    self.func_stats.block_cache_misses += 1;
                                    self.func_stats.blocks_decoded += 1;
                                    let b = Arc::new(scan_block(self.pes[i].program(), pc));
                                    self.block_cache.insert((fp, pc as u64), Arc::clone(&b));
                                    b
                                }
                            };
                            &memo.insert((fp, pc, b)).2
                        }
                    };
                    blocks += 1;
                    let outcome =
                        exec_block(&mut self.pes[i].func_parts(), block, self.hmc.storage_mut());
                    match outcome {
                        BlockOutcome::Continue => {
                            if self.pes[i].stats().work_units >= turn_limit {
                                break;
                            }
                        }
                        BlockOutcome::Halted => {
                            // Falling off the program's end retires
                            // nothing, so count the halt transition as
                            // progress explicitly.
                            progressed = true;
                            ran[i] = true;
                            break;
                        }
                        BlockOutcome::Blocked => break,
                        BlockOutcome::Trapped => break 'stretch StretchEnd::Trapped,
                    }
                }
                let dw = self.pes[i].stats().work_units - turn_work;
                if dw > 0 {
                    progressed = true;
                    ran[i] = true;
                    done[i] += dw;
                }
                self.func_stats.functional_instructions +=
                    self.pes[i].stats().instructions - turn_insts;
            }
            if live == 0 {
                break StretchEnd::AllHalted;
            }
            if done.iter().copied().max().unwrap_or(0) >= budget {
                break StretchEnd::Budget;
            }
            if !progressed {
                break StretchEnd::Deadlock;
            }
        };
        self.work.blocks += blocks;
        let max_done = done.iter().copied().max().unwrap_or(0);
        (end, ran, max_done)
    }

    /// One cycle-accurate timing window: a warmup slice (pipelines and
    /// vault queues refill from the post-stretch cold start), then a
    /// measured sample whose busiest-PE work-unit delta calibrates the
    /// extrapolation rate. Quiescing inside the window is fine — the
    /// caller's loop head notices.
    fn accurate_window(&mut self, max_cycles: Cycle) -> Result<(), SimError> {
        let t0 = self.now;
        self.func_stats.windows += 1;
        self.work.windows += 1;
        let warmup = self.func_cfg.warmup_cycles.max(1);
        let sample = self
            .func_cfg
            .sample_cycles
            .max(1)
            .saturating_mul(1 << self.func_clock.boost);
        let outcome =
            self.run_inner(self.now.saturating_add(warmup).min(max_cycles), max_cycles)?;
        if matches!(outcome, RunOutcome::Paused(_)) {
            let work0: Vec<u64> = self.pes.iter().map(|p| p.stats().work_units).collect();
            let s0 = self.now;
            let outcome =
                self.run_inner(self.now.saturating_add(sample).min(max_cycles), max_cycles)?;
            // A quiesced sample's tail is idle drain, which would skew
            // the rate; keep the previous calibration then.
            if matches!(outcome, RunOutcome::Paused(_)) {
                let dw = self
                    .pes
                    .iter()
                    .zip(&work0)
                    .map(|(p, w0)| p.stats().work_units - w0)
                    .max()
                    .unwrap_or(0);
                self.func_clock.observe(self.now - s0, dw, sample);
            }
        }
        self.func_stats.accurate_cycles += self.now - t0;
        Ok(())
    }

    fn run_functional_inner(
        &mut self,
        pause_at: Cycle,
        max_cycles: Cycle,
    ) -> Result<RunOutcome, SimError> {
        if self.faults_active() || self.func_clock.poisoned {
            // Live fault injection (or an earlier trap/deadlock
            // detection) needs exact per-cycle coordinates; only the
            // cycle-accurate engine provides them.
            return self.run_inner(pause_at, max_cycles);
        }
        self.recount_quiesce_counters();
        loop {
            if !self.machine_idle() && !self.drain_to_idle(self.func_cfg.drain_cycles)? {
                // Something is parked (a full-empty request from an
                // earlier accurate window). Run a timing window so
                // partner PEs can publish, then retry the drain.
                self.func_stats.drain_retries += 1;
                if self.now >= pause_at && pause_at < max_cycles {
                    return Ok(RunOutcome::Paused(self.now));
                }
                self.accurate_window(max_cycles)?;
                continue;
            }
            if self.unhalted == 0 && self.inflight_msgs == 0 && self.is_quiesced() {
                return Ok(RunOutcome::Quiesced(self.now));
            }
            if self.now >= max_cycles {
                return Err(SimError::Hang(Box::new(self.hang_report(max_cycles))));
            }
            if self.now >= pause_at {
                return Ok(RunOutcome::Paused(self.now));
            }
            if !self.func_clock.calibrated() {
                // A stretch now would extrapolate at the nominal rate;
                // calibrate from the program's own early behaviour
                // first. Short programs may simply finish inside this
                // window — the loop head notices.
                self.accurate_window(max_cycles)?;
                continue;
            }
            let (end, ran, work) = self.functional_stretch();
            if matches!(end, StretchEnd::Trapped | StretchEnd::Deadlock) {
                // Architectural state sits exactly at the trapping /
                // parked instructions; the cycle-accurate engine
                // re-dispatches them and reports the identical typed
                // error (or diagnoses the genuine hang).
                self.func_clock.poisoned = true;
                return self.run_inner(pause_at, max_cycles);
            }
            let to = self
                .now
                .saturating_add(self.func_clock.estimate(work))
                .min(pause_at);
            self.advance_functional_clock(to, &ran);
            self.recount_quiesce_counters();
            if matches!(end, StretchEnd::Budget) && self.now < pause_at {
                self.accurate_window(max_cycles)?;
            }
        }
    }

    /// Runs on the two-tier engine — block-cached functional execution
    /// with sampled cycle-accurate timing windows — until every PE
    /// halts. Architectural results (registers, scratchpads, memory,
    /// full-empty bits, retirement counters) are bit-identical to
    /// [`run`](System::run); the returned cycle count is an estimate
    /// extrapolated from the sampled windows rather than an exact
    /// replay, and per-cycle occupancy breakdowns are approximate.
    /// Programs that trap, deadlock, or run with live fault injection
    /// are delegated to the cycle-accurate engine, preserving its exact
    /// errors.
    ///
    /// # Errors
    ///
    /// As for [`run`](System::run): [`SimError::Hang`] if the estimated
    /// clock reaches `max_cycles` without quiescence, or the identical
    /// [`SimError`] the cycle-accurate engine reports for a trapping
    /// program.
    pub fn run_functional(&mut self, max_cycles: Cycle) -> Result<Cycle, SimError> {
        match self.run_functional_inner(max_cycles, max_cycles)? {
            RunOutcome::Quiesced(at) => Ok(at),
            RunOutcome::Paused(_) => {
                unreachable!("pause bound equals the limit, which hangs instead")
            }
        }
    }

    /// [`run_functional`](System::run_functional) with a pause bound:
    /// returns [`RunOutcome::Paused`] once the (estimated) clock
    /// reaches `pause_at`, pausing at a machine-idle boundary whenever
    /// one is reachable — so the paused cycle may exceed `pause_at` by
    /// up to a drain (looser than [`run_until`](System::run_until),
    /// which pauses exactly). Snapshots taken at the pause restore and
    /// continue under any engine.
    ///
    /// # Errors
    ///
    /// As for [`run_functional`](System::run_functional).
    pub fn run_functional_until(
        &mut self,
        pause_at: Cycle,
        max_cycles: Cycle,
    ) -> Result<RunOutcome, SimError> {
        self.run_functional_inner(pause_at.min(max_cycles), max_cycles)
    }

    /// The hang-diagnosis watchdog: snapshots every unhalted PE (pc,
    /// stall cause, full-empty words it is parked on), the packets still
    /// inside the torus, and each vault's queued transaction count.
    #[must_use]
    pub fn hang_report(&self, limit: Cycle) -> HangReport {
        let blocked = self
            .pes
            .iter()
            .filter(|p| !p.is_halted())
            .map(|p| BlockedPe {
                pe: p.id(),
                pc: p.pc(),
                stall: p.stall_reason(self.now),
                fe_waits: p.fe_waits(),
            })
            .collect();
        HangReport {
            limit,
            halted_pes: self.pes.iter().filter(|p| p.is_halted()).count(),
            total_pes: self.pes.len(),
            blocked,
            noc_in_flight: self.net.in_flight(),
            vault_queue_depths: (0..self.cfg.mem.vaults)
                .map(|v| self.hmc.pending(v))
                .collect(),
        }
    }

    /// Rewires fault injection across every layer at runtime (the
    /// construction-time path is [`SystemConfig::with_faults`]).
    pub fn set_fault_config(&mut self, faults: &FaultConfig) {
        self.hmc.set_faults(faults.dram);
        self.net.set_faults(faults.noc);
        for pe in &mut self.pes {
            pe.set_faults(faults.pe);
        }
    }

    /// Serializes the complete simulation state into a versioned,
    /// self-describing byte image: a header carrying the format version
    /// and the configuration's structural fingerprint, then the clock,
    /// every PE (architectural and microarchitectural state), the memory
    /// stack (backing storage, ECC sidecar, per-vault timing and queues),
    /// the torus (in-flight packets with retry state), every system-level
    /// queue, the link serialization state and the functional tier's
    /// counters and clock.
    ///
    /// Restored onto a [`System`] of the same configuration, the image
    /// runs on bit-identically — quiesce cycle, statistics, memory image
    /// — to the paused machine (on the exact engines, to the run never
    /// paused), on every engine, with or without live faults (their
    /// configurations travel in the body; draws are keyed on captured
    /// coordinates), bar the three decode-cache counters of the
    /// functional tier, whose block cache is not captured.
    #[must_use]
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        write_header(&mut w, self.cfg.snapshot_fingerprint());
        w.u64(self.now);
        w.usize(self.pes.len());
        for pe in &self.pes {
            pe.save_state(&mut w);
        }
        self.hmc.save_state(&mut w);
        self.net.save_state(&mut w);
        self.pe_egress.save(&mut w);
        self.uplink_busy.save(&mut w);
        self.downlink_busy.save(&mut w);
        self.to_vault_local.save(&mut w);
        self.vault_ingress.save(&mut w);
        self.vault_egress.save(&mut w);
        self.to_pe.save(&mut w);
        w.usize(self.inflight_msgs);
        self.func_stats.save(&mut w);
        self.func_clock.save(&mut w);
        w.into_bytes()
    }

    /// Restores a [`save_snapshot`](System::save_snapshot) image onto
    /// this system. The system must have been built with a configuration
    /// whose [structural fingerprint](SystemConfig::snapshot_fingerprint)
    /// matches the one in the image; fault configurations are taken from
    /// the image (they are runtime state, not structure). The derived
    /// quiescence caches are rebuilt, so the next run continues
    /// bit-identically on any engine.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on a bad magic/version, a fingerprint
    /// mismatch, a truncated or corrupt image, or trailing bytes.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = Reader::new(bytes);
        read_header(&mut r, self.cfg.snapshot_fingerprint())?;
        self.now = r.u64()?;
        let pes = r.usize()?;
        if pes != self.pes.len() {
            return Err(SnapError::Corrupt("PE count mismatch"));
        }
        for pe in &mut self.pes {
            pe.restore_state(&mut r)?;
        }
        self.hmc.restore_state(&mut r)?;
        self.net.restore_state(&mut r)?;
        self.pe_egress = Vec::restore(&mut r)?;
        self.uplink_busy = Vec::restore(&mut r)?;
        self.downlink_busy = Vec::restore(&mut r)?;
        self.to_vault_local = Vec::restore(&mut r)?;
        self.vault_ingress = Vec::restore(&mut r)?;
        self.vault_egress = Vec::restore(&mut r)?;
        self.to_pe = Vec::restore(&mut r)?;
        self.inflight_msgs = r.usize()?;
        self.func_stats = FuncStats::restore(&mut r)?;
        self.func_clock = FuncClock::restore(&mut r)?;
        r.finish()?;
        if self.pe_egress.len() != self.pes.len()
            || self.uplink_busy.len() != self.pes.len()
            || self.downlink_busy.len() != self.pes.len()
            || self.to_pe.len() != self.pes.len()
            || self.to_vault_local.len() != self.cfg.mem.vaults
            || self.vault_ingress.len() != self.cfg.mem.vaults
            || self.vault_egress.len() != self.cfg.mem.vaults
        {
            return Err(SnapError::Corrupt("queue geometry mismatch"));
        }
        // Derived caches are not serialized — rebuild them from the
        // restored PEs. The block cache is keyed on program
        // fingerprints, so surviving entries stay valid.
        self.recount_quiesce_counters();
        self.active = self.scan_active();
        Ok(())
    }

    /// The host work this system's engines have done so far, the vault
    /// controllers' and the torus's included (see [`WorkCounts`]).
    #[must_use]
    pub fn work_counts(&self) -> WorkCounts {
        WorkCounts {
            mem: self.hmc.work(),
            noc: self.net.work(),
            ..self.work
        }
    }

    /// Statistics snapshot: every PE's counters merged, plus the memory
    /// stack's, the network's and the functional tier's.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        let mut pe = PeStats::default();
        for p in &self.pes {
            pe.merge(p.stats());
        }
        SystemStats {
            cycles: self.now,
            pe,
            mem: self.hmc.stats(),
            noc: self.net.stats(),
            func: self.func_stats,
        }
    }
}
