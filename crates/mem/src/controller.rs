//! The vault controller: transaction queueing, FR-FCFS command
//! scheduling, refresh, and full-empty atomics.

use crate::addr::DecodedAddr;
use crate::bank::Bank;
use crate::config::{MemConfig, RowPolicy};
use crate::req::{MemRequest, MemResponse, QueueFullError, RequestKind};
use crate::stats::{MemStats, MemWork};
use crate::storage::Storage;
use crate::timing::BASELINE_T_REFI_PS;
use crate::Cycle;
use std::collections::VecDeque;
use vip_faults::secded::Decoded;
use vip_faults::{fault_roll, fault_value, FaultDomain};
use vip_snap::{Reader, SnapError, Snapshot, Writer};

#[derive(Debug)]
struct Txn {
    req: MemRequest,
    decoded: DecodedAddr,
    enqueued: Cycle,
    caused_act: bool,
    /// Older queued transactions this one [`conflicts`] with and so
    /// must not pass. A function of the queue's contents: rebuilt on
    /// restore, never serialized.
    older_conflicts: usize,
    /// Arrival number, the age order across lanes. Derived likewise.
    seq: u64,
}

/// Whether two transactions must keep their queue order: plain ones
/// touching overlapping bytes (RAW/WAR/WAW through DRAM). Full-empty
/// transactions are exempt — their ordering comes from the full bit
/// itself, and blocking on them would deadlock producer-consumer pairs
/// that share a word by design.
fn conflicts(a: &MemRequest, b: &MemRequest) -> bool {
    if a.is_full_empty() || b.is_full_empty() {
        return false;
    }
    let (a, b) = (a.byte_range(), b.byte_range());
    a.start < b.end && b.start < a.end
}

// Hand-written: `older_conflicts` and `seq` are derived from the queue
// and stay off the wire.
impl Snapshot for Txn {
    fn save(&self, w: &mut Writer) {
        self.req.save(w);
        self.decoded.save(w);
        w.u64(self.enqueued);
        w.bool(self.caused_act);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Txn {
            req: MemRequest::restore(r)?,
            decoded: DecodedAddr::restore(r)?,
            enqueued: r.u64()?,
            caused_act: r.bool()?,
            older_conflicts: 0, // `restore_state` recounts and renumbers
            seq: 0,
        })
    }
}

#[derive(Debug)]
struct PendingCompletion {
    at: Cycle,
    response: MemResponse,
    latency: Cycle,
    /// Push number: `seq - done_base` is this entry's place in
    /// `done_order`. Derived like [`Txn::seq`], never serialized.
    seq: u64,
}

// Hand-written: `seq` stays off the wire.
impl Snapshot for PendingCompletion {
    fn save(&self, w: &mut Writer) {
        w.u64(self.at);
        self.response.save(w);
        w.u64(self.latency);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(PendingCompletion {
            at: r.u64()?,
            response: MemResponse::restore(r)?,
            latency: r.u64()?,
            seq: 0, // `restore_state` renumbers
        })
    }
}

/// A bank's cached candidate for the scheduler: the oldest unparked
/// transaction of one of the two classes the bank's row state splits its
/// lane into. A class shares one bank-level `ready_at`, so its oldest
/// stands for all of it.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// First cycle the bank lets the class's next command issue;
    /// `Cycle::MAX` when the class has no unparked transaction.
    ready_at: Cycle,
    seq: u64,
    /// Index into the lane.
    pos: usize,
}

impl Head {
    const NONE: Head = Head {
        ready_at: Cycle::MAX,
        seq: u64::MAX,
        pos: 0,
    };
}

/// One bank's share of the transaction queue, oldest first, with the
/// scheduler's view of it. Only the transactions are state; the rest is
/// derived from them, the bank and the full-empty bits.
#[derive(Debug)]
struct Lane {
    txns: Vec<Txn>,
    /// Oldest unparked transaction to the bank's open row (a column).
    hit: Head,
    /// Oldest unparked transaction needing a precharge or an activate.
    work: Head,
    /// The heads predate something that touched this bank: a command
    /// on it, a refresh, a full-empty flip, or a full-empty newcomer.
    dirty: bool,
}

impl Lane {
    /// Empties the lane: no transactions, so no heads, nothing stale.
    fn clear(&mut self) {
        self.txns.clear();
        (self.hit, self.work, self.dirty) = (Head::NONE, Head::NONE, false);
    }
}

/// Whether `txn` cannot act until something else releases it: an
/// older conflicting transaction's column issue (a command on its bank)
/// or a flip of its full-empty bit (a bump of the storage's epoch).
/// Either dirties its lane and re-derives the wake bound, so a parked
/// transaction contributes no candidate of its own. Exactly one side of
/// a full-empty load/store pair is permitted at any time, so a queued
/// pair always produces one.
fn parked(storage: &Storage, txn: &Txn) -> bool {
    txn.older_conflicts > 0 || !fe_permits(storage, &txn.req)
}

/// The first cycle `bank` lets the next DRAM command toward `row` — a
/// column if it is the open row, else the precharge or activate that
/// leads there — issue.
fn ready_at(bank: &Bank, row: u64) -> Cycle {
    match bank.open_row() {
        Some(open) if open == row => bank.earliest_column(),
        Some(_) => bank.earliest_precharge(),
        None => bank.earliest_activate(),
    }
}

fn fe_permits(storage: &Storage, req: &MemRequest) -> bool {
    match req.kind {
        RequestKind::FeLoad => storage.is_full(req.addr),
        RequestKind::FeStore => !storage.is_full(req.addr),
        _ => true,
    }
}

/// Cycle-level model of one HMC vault: a transaction queue in front of 16
/// independently-controlled banks sharing one 10 GB/s data path.
///
/// Scheduling is first-ready, first-come-first-served (FR-FCFS): the
/// oldest transaction whose row is open issues first; otherwise the
/// controller works on opening the oldest transaction's row, precharging
/// a conflicting row if necessary. One command issues per cycle. Refresh
/// fires every tREFI and stalls the whole vault for tRFC (all-bank
/// refresh, as in the HMC). Under the closed-page policy every column
/// command carries auto-precharge.
///
/// Full-empty transactions ([`RequestKind::FeLoad`]/[`RequestKind::FeStore`]) wait in
/// the queue until the word's full bit permits, then issue like a normal
/// column access; because command issue is serialized per vault the
/// test-and-update is atomic (§IV-A's synchronization variables).
#[derive(Debug)]
pub struct VaultController {
    vault: usize,
    cfg: MemConfig,
    banks: Vec<Bank>,
    /// The transaction queue, dealt by bank (`lanes[b]` fronts
    /// `banks[b]`): bank state alone decides what a queued transaction
    /// may do next, so the scheduler asks each bank, not each of them.
    lanes: Vec<Lane>,
    /// Per bank, the earliest cycle its lane can act: the earlier of its
    /// heads' `ready_at` when the lane is clean, `0` when it is dirty (its
    /// heads must be recomputed before anyone may trust them), and
    /// `Cycle::MAX` when it is empty or all parked. Dense, so the
    /// scheduler's pass reads one array and opens only the lanes whose
    /// bank can act this cycle. Derived, never serialized.
    soonest: Vec<Cycle>,
    /// Bit `b % 64` of word `b / 64` is set while `lanes[b]` holds a
    /// transaction: the pass walks these, in ascending bank order, so an
    /// idle bank costs it nothing. Derived, never serialized.
    occupied: Vec<u64>,
    /// Transactions queued over all lanes.
    queued: usize,
    next_seq: u64,
    completions: Vec<PendingCompletion>,
    /// Slots of `completions` in push order. Bursts are serialized on
    /// the data bus, so that is `at` order and retirement reads the
    /// front only; the `Vec` itself keeps its `swap_remove` order, which
    /// is serialized state. Derived, never serialized.
    done_order: VecDeque<usize>,
    /// The `seq` of `done_order`'s front (completions retired so far).
    done_base: u64,
    /// `at` of `done_order`'s front, the earliest pending; `Cycle::MAX`
    /// when none. Derived, never serialized.
    next_done: Cycle,
    now: Cycle,
    next_refresh: Cycle,
    refresh_pending: bool,
    refresh_until: Cycle,
    bus_free_at: Cycle,
    stats: MemStats,
    /// The vault's own [`next_event`](Self::next_event) bound, cached by
    /// the last active tick: every tick strictly before it only bumps
    /// `busy_cycles`. `0` is "unknown". Derived, never serialized.
    wake: Cycle,
    /// The command side's half of `wake`: what the scheduler or the
    /// refresh logic last returned as the earliest cycle either can act.
    /// A tick before it (woken by a maturing completion) skips both.
    /// An unblocked plain `enqueue` lowers it; `0` is "unknown", set by
    /// a full-empty `enqueue` or flip, `advance_idle` and
    /// `restore_state`. Derived likewise.
    cmd_wake: Cycle,
    /// The storage's full-empty epoch `wake` and the lanes' heads were
    /// computed under; a flip since then (by anyone) may have released
    /// or parked a transaction, so neither holds.
    fe_seen: u64,
    /// Host work done so far. Not state: never serialized, and a
    /// restore leaves it counting on.
    work: MemWork,
}

impl VaultController {
    /// Creates the controller for `vault` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemConfig::validate`].
    #[must_use]
    pub fn new(vault: usize, cfg: MemConfig) -> Self {
        cfg.validate().expect("valid memory configuration");
        let banks = vec![Bank::new(); cfg.banks_per_vault];
        let lane = |_| Lane {
            txns: Vec::new(),
            hit: Head::NONE,
            work: Head::NONE,
            dirty: false,
        };
        let next_refresh = cfg.timing.t_refi();
        VaultController {
            vault,
            cfg,
            lanes: banks.iter().map(lane).collect(),
            soonest: vec![Cycle::MAX; banks.len()],
            occupied: vec![0; banks.len().div_ceil(64)],
            banks,
            queued: 0,
            next_seq: 0,
            completions: Vec::new(),
            done_order: VecDeque::new(),
            done_base: 0,
            next_done: Cycle::MAX,
            now: 0,
            next_refresh,
            refresh_pending: false,
            refresh_until: 0,
            bus_free_at: 0,
            stats: MemStats::default(),
            wake: 0,
            cmd_wake: 0,
            fe_seen: 0,
            work: MemWork::default(),
        }
    }

    /// The vault index.
    #[must_use]
    pub fn vault(&self) -> usize {
        self.vault
    }

    /// Number of queued (unissued) transactions.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// Wires (or removes) retention-fault injection at runtime.
    pub fn set_faults(&mut self, faults: Option<vip_faults::DramFaultConfig>) {
        self.cfg.faults = faults;
    }

    /// Whether the transaction queue can accept another request.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queued < self.cfg.trans_queue_depth
    }

    /// Whether no work is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.completions.is_empty()
    }

    /// Statistics snapshot (with `elapsed_cycles` set to the current
    /// cycle).
    #[must_use]
    pub fn stats(&self) -> MemStats {
        MemStats {
            elapsed_cycles: self.now,
            ..self.stats
        }
    }

    /// The host work this controller has done (see [`MemWork`]).
    #[must_use]
    pub fn work(&self) -> MemWork {
        self.work
    }

    /// Enqueues a transaction.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the transaction queue is full (the
    /// caller retries next cycle — this is the back-pressure the NoC
    /// sees).
    ///
    /// # Panics
    ///
    /// Panics if the request crosses a column boundary or targets a
    /// different vault (the load-store unit splits requests into columns
    /// and the network routes them, so either is a simulator bug).
    pub fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFullError> {
        if !self.can_accept() {
            return Err(QueueFullError { vault: self.vault });
        }
        let len = req.payload_len();
        let granule = self.cfg.request_granule() as u64; // a power of two
        assert!(
            (req.addr & (granule - 1)) + len as u64 <= granule,
            "request at {:#x} len {} crosses a {}-byte request granule (HMC packets \
             carry at most 128 B and never cross a DRAM row)",
            req.addr,
            len,
            granule
        );
        let decoded = self.cfg.mapping.decode(&self.cfg, req.addr);
        assert_eq!(
            decoded.vault, self.vault,
            "request at {:#x} routed to vault {} but maps to vault {}",
            req.addr, self.vault, decoded.vault
        );
        self.work.transactions += 1;
        // The request stays inside one granule (asserted above) and a
        // granule inside one row of one bank (every mapping's property,
        // tested in `addr`): whatever overlaps it is in this bank's lane.
        let lane = &mut self.lanes[decoded.bank];
        let older_conflicts = lane.txns.iter().filter(|t| conflicts(&t.req, &req)).count();
        if older_conflicts == 0 {
            // The newcomer may act as soon as its bank allows. A blocked
            // one waits on an older column issue, which recomputes both
            // bounds and this lane's heads anyway.
            let bank = &self.banks[decoded.bank];
            let ready_at = ready_at(bank, decoded.row);
            self.wake = self.wake.min(ready_at);
            if req.is_full_empty() {
                // Whether it parks is the storage's to say: `wake`
                // assumes it free (early is harmless there), the command
                // side, which must stay exact, forgets what it knew.
                (self.cmd_wake, lane.dirty) = (0, true);
                self.soonest[decoded.bank] = 0;
            } else {
                self.cmd_wake = self.cmd_wake.min(ready_at);
                // The youngest: the head of its class only if that has none.
                let hits = bank.open_row() == Some(decoded.row);
                let head = if hits { &mut lane.hit } else { &mut lane.work };
                if !lane.dirty && head.ready_at == Cycle::MAX {
                    let (seq, pos) = (self.next_seq, lane.txns.len());
                    *head = Head { ready_at, seq, pos };
                    let soonest = &mut self.soonest[decoded.bank];
                    *soonest = (*soonest).min(ready_at);
                }
            }
        }
        self.push(Txn {
            req,
            decoded,
            enqueued: self.now,
            caused_act: false,
            older_conflicts,
            seq: 0, // `push` numbers it
        });
        Ok(())
    }

    /// Appends `txn`, the youngest, to its bank's lane; the lane's heads
    /// are the caller's to keep.
    fn push(&mut self, mut txn: Txn) {
        txn.seq = self.next_seq;
        let bank = txn.decoded.bank;
        self.occupied[bank / 64] |= 1 << (bank % 64);
        self.lanes[bank].txns.push(txn);
        self.queued += 1;
        self.next_seq += 1;
    }

    /// Advances one cycle: retires matured completions into `out`, then
    /// issues at most one DRAM command. A tick strictly before the
    /// cached wake bound does neither — by construction nothing can
    /// happen on it — and only counts the cycle.
    #[inline]
    pub fn tick(&mut self, storage: &mut Storage, out: &mut Vec<MemResponse>) {
        let quiet = self.now + 1 < self.wake && self.fe_seen == storage.fe_epoch();
        debug_assert!(
            !quiet || self.scan_next_event(storage) > self.now + 1,
            "vault {}: wake bound {} would skip a live cycle",
            self.vault,
            self.wake
        );
        self.now += 1;
        if !self.is_idle() {
            self.stats.busy_cycles += 1;
        }
        if !quiet {
            self.active_tick(storage, out);
        }
    }

    /// The part of [`tick`](Self::tick) on which something may happen,
    /// out of line so that a quiet tick is a compare and two counters.
    #[inline(never)]
    fn active_tick(&mut self, storage: &mut Storage, out: &mut Vec<MemResponse>) {
        self.work.active_ticks += 1;
        let now = self.now;
        if now >= self.next_done {
            self.retire(out);
        }
        if self.fe_seen != storage.fe_epoch() {
            // A flip since the heads were computed: any lane may hold a
            // transaction it parked or released.
            self.fe_seen = storage.fe_epoch();
            self.cmd_wake = 0;
            self.dirty_all();
        }

        // Below `cmd_wake` a completion woke this tick: every bank, the
        // refresh timer (never later than the bound) and the queue are
        // where the pass that computed it left them.
        if now >= self.cmd_wake {
            self.cmd_wake = if now < self.refresh_until {
                // Refresh in progress: the whole vault is blocked.
                self.refresh_until
            } else {
                if now >= self.next_refresh {
                    self.refresh_pending = true;
                }
                if !self.refresh_pending {
                    self.schedule(storage)
                } else if self.try_start_refresh() {
                    self.refresh_until
                } else {
                    // Work toward refresh: precharge one open bank, else
                    // wait while banks drain tRAS/tWR. Nothing else may
                    // issue, so the refresh starts promptly; the window
                    // is tightly bounded, so step through it.
                    self.issue_precharge_for_refresh();
                    now + 1
                }
            };
        }
        self.wake = self.cmd_wake.min(self.next_done).max(now + 1);
        debug_assert_eq!(
            self.wake,
            self.scan_next_event(storage),
            "vault {}: bank heads disagree with the queue",
            self.vault
        );
    }

    /// Retires matured completions, earliest first: the front of
    /// `done_order`, taken out of the `Vec` by `swap_remove` (that order
    /// is serialized state). Runs only on a cycle one matures.
    fn retire(&mut self, out: &mut Vec<MemResponse>) {
        self.next_done = Cycle::MAX;
        while let Some(&slot) = self.done_order.front() {
            if self.completions[slot].at > self.now {
                self.next_done = self.completions[slot].at;
                break;
            }
            self.done_order.pop_front();
            self.done_base += 1;
            let done = self.completions.swap_remove(slot);
            if let Some(moved) = self.completions.get(slot) {
                // `swap_remove` filled the slot with the last entry.
                self.done_order[(moved.seq - self.done_base) as usize] = slot;
            }
            self.stats.total_latency_cycles += done.latency;
            match done.response.kind {
                RequestKind::Read | RequestKind::FeLoad => {
                    self.stats.reads += 1;
                    self.stats.bytes_read += done.response.data.len() as u64;
                }
                RequestKind::Write | RequestKind::FeStore => {
                    self.stats.writes += 1;
                }
            }
            out.push(done.response);
        }
    }

    /// A sound lower bound on the next cycle at which this vault can do
    /// anything: retire a completion, make refresh progress, or issue a
    /// DRAM command. Refresh fires unconditionally every tREFI, so there
    /// always is one and the result is always `Some` (the `Option` stays
    /// for callers outside the workspace that match on it).
    ///
    /// "Sound lower bound" means the vault is guaranteed idle on every
    /// cycle in `(now, next_event)`; waking early is harmless (the tick
    /// is a no-op), waking late would change simulated behaviour. The
    /// estimate deliberately over-approximates readiness: it ignores the
    /// one-command-per-cycle limit, which only makes a candidate cycle
    /// *early*, never late.
    ///
    /// Reads the bound the last active tick cached (see `wake`) while it
    /// holds; walks the queue only after something invalidated it.
    #[must_use]
    pub fn next_event(&self, storage: &Storage) -> Option<Cycle> {
        Some(self.wake_bound(storage))
    }

    /// [`next_event`](Self::next_event) without the `Option`.
    #[inline]
    pub(crate) fn wake_bound(&self, storage: &Storage) -> Cycle {
        if self.wake != 0 && self.fe_seen == storage.fe_epoch() {
            self.wake.max(self.now + 1)
        } else {
            self.scan_next_event(storage)
        }
    }

    /// [`next_event`](Self::next_event) computed from scratch, from the
    /// transactions and completions themselves and none of what is
    /// cached about them: the slow path, and what debug builds hold
    /// every active tick's bound against.
    fn scan_next_event(&self, storage: &Storage) -> Cycle {
        // Completions retire when their cycle matures, even mid-refresh.
        let next = self.command_wake(storage).min(self.earliest_completion());
        next.max(self.now + 1)
    }

    /// What `next_done` caches, from the completions themselves.
    fn earliest_completion(&self) -> Cycle {
        let at = self.completions.iter().map(|done| done.at);
        at.min().unwrap_or(Cycle::MAX)
    }

    /// The earliest cycle the command side (refresh and the scheduler)
    /// can act, given the state the current cycle leaves behind.
    fn command_wake(&self, storage: &Storage) -> Cycle {
        if self.now < self.refresh_until {
            // The whole vault is blocked; nothing issues earlier.
            return self.refresh_until;
        }
        if self.refresh_pending {
            // Working toward refresh: one precharge per cycle, or
            // waiting out tRAS/tWR. The window is tightly bounded, so
            // step through it.
            return self.now + 1;
        }
        // Refresh fires every tREFI regardless of load (the counter
        // must match a cycle-by-cycle run exactly).
        self.lanes
            .iter()
            .flat_map(|lane| &lane.txns)
            .filter(|txn| !parked(storage, txn))
            .map(|txn| ready_at(&self.banks[txn.decoded.bank], txn.decoded.row))
            .fold(self.next_refresh, Cycle::min)
    }

    /// Jumps the vault's clock to `to`, replaying the per-cycle counters
    /// that `to - now` idle ticks would have accumulated. Callers must
    /// have established (via [`next_event`](Self::next_event)) that every
    /// skipped cycle is a no-op; the queue/completion occupancy is
    /// constant across such a window, so the busy-cycle counter advances
    /// linearly.
    pub fn skip_to(&mut self, to: Cycle) {
        debug_assert!(to >= self.now);
        if !self.is_idle() {
            self.stats.busy_cycles += to - self.now;
        }
        self.now = to;
    }

    /// Jumps an *idle* vault's clock far forward, crediting the
    /// refreshes that would have fired on schedule during the span
    /// instead of performing them late. The functional execution tier
    /// uses this when it retires a stretch of untimed work: unlike
    /// [`skip_to`](Self::skip_to), the jump may cross any number of
    /// tREFI boundaries, and the vault comes out with its refresh
    /// schedule aligned to the new clock (no catch-up refresh burst
    /// distorting the next timing window).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vault still has queued or
    /// in-flight work — idle means idle.
    pub fn advance_idle(&mut self, to: Cycle) {
        debug_assert!(self.is_idle());
        if to <= self.now {
            return;
        }
        self.now = to;
        self.refresh_pending = false;
        let refi = self.cfg.timing.t_refi();
        while self.next_refresh <= to {
            self.next_refresh += refi;
            self.stats.refreshes += 1;
        }
        // Any refresh that was mid-flight completed within the span.
        self.refresh_until = self.refresh_until.min(to);
        (self.wake, self.cmd_wake) = (0, 0);
    }

    /// Serializes every piece of mutable controller state: bank state
    /// machines, the transaction queue (the lanes merged back into
    /// arrival order), pending completions (in their exact in-memory
    /// order — retirement uses `swap_remove`, so the order is
    /// architecturally significant), the refresh machinery, the
    /// shared-bus reservation, counters, and the runtime-settable fault
    /// configuration.
    pub fn save_state(&self, w: &mut Writer) {
        self.banks.save(w);
        w.usize(self.queued);
        let mut from = 0;
        for _ in 0..self.queued {
            // Lanes are `seq`-ordered: each one's next is its first
            // transaction not yet written.
            let next = self
                .lanes
                .iter()
                .filter_map(|lane| lane.txns.iter().find(|t| t.seq >= from))
                .min_by_key(|t| t.seq)
                .expect("`queued` counts the lanes' transactions");
            next.save(w);
            from = next.seq + 1;
        }
        self.completions.save(w);
        w.u64(self.now);
        w.u64(self.next_refresh);
        w.bool(self.refresh_pending);
        w.u64(self.refresh_until);
        w.u64(self.bus_free_at);
        self.stats.save(w);
        self.cfg.faults.save(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto a
    /// controller freshly built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure, if the snapshot's
    /// bank count, or a queued transaction's bank, disagrees with this
    /// controller's geometry, or if its pending completions are not
    /// what a serialized data bus leaves: distinct `at`s, none past the
    /// bus reservation.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let banks = Vec::<Bank>::restore(r)?;
        if banks.len() != self.banks.len() {
            return Err(SnapError::Corrupt("bank count mismatch"));
        }
        self.banks = banks;
        let queue = Vec::<Txn>::restore(r)?;
        if queue.iter().any(|t| t.decoded.bank >= self.lanes.len()) {
            return Err(SnapError::Corrupt("queued transaction's bank out of range"));
        }
        let mut completions = Vec::<PendingCompletion>::restore(r)?;
        self.now = r.u64()?;
        self.next_refresh = r.u64()?;
        self.refresh_pending = r.bool()?;
        self.refresh_until = r.u64()?;
        self.bus_free_at = r.u64()?;
        self.stats = MemStats::restore(r)?;
        self.cfg.faults = Option::restore(r)?;
        // Push order is `at` order: the bus serializes bursts.
        let mut order: Vec<usize> = (0..completions.len()).collect();
        order.sort_unstable_by_key(|&slot| completions[slot].at);
        for (seq, &slot) in order.iter().enumerate() {
            completions[slot].seq = seq as u64;
        }
        let at = |slot: &usize| completions[*slot].at;
        if order.windows(2).any(|pair| at(&pair[0]) == at(&pair[1]))
            || order.last().is_some_and(|last| at(last) > self.bus_free_at)
        {
            return Err(SnapError::Corrupt(
                "pending completions overlap on the data bus",
            ));
        }
        // Re-deal the queue into lanes and rebuild everything derived.
        self.lanes.iter_mut().for_each(Lane::clear);
        self.soonest.fill(Cycle::MAX);
        self.occupied.fill(0);
        (self.queued, self.next_seq) = (0, 0);
        for mut txn in queue {
            let lane = &mut self.lanes[txn.decoded.bank];
            txn.older_conflicts = lane
                .txns
                .iter()
                .filter(|o| conflicts(&o.req, &txn.req))
                .count();
            lane.dirty = true;
            self.soonest[txn.decoded.bank] = 0;
            self.push(txn);
        }
        (self.completions, self.done_order, self.done_base) = (completions, order.into(), 0);
        self.next_done = self.earliest_completion();
        (self.wake, self.cmd_wake) = (0, 0);
        Ok(())
    }

    fn try_start_refresh(&mut self) -> bool {
        let now = self.now;
        if self.banks.iter().all(|b| b.refresh_ready(now)) {
            let until = now + self.cfg.timing.t_rfc();
            for bank in &mut self.banks {
                bank.block_until(until);
            }
            // Every bank's deadlines moved, and the precharges leading
            // here closed rows behind the heads' backs.
            self.dirty_all();
            self.refresh_until = until;
            self.next_refresh += self.cfg.timing.t_refi();
            self.refresh_pending = false;
            self.stats.refreshes += 1;
            true
        } else {
            false
        }
    }

    /// Marks every non-empty lane's heads stale.
    fn dirty_all(&mut self) {
        for (lane, soonest) in self.lanes.iter_mut().zip(&mut self.soonest) {
            if !lane.txns.is_empty() {
                (lane.dirty, *soonest) = (true, 0);
            }
        }
    }

    /// Whether `bank`'s summary, `soonest` and its `occupied` bit, is
    /// what the lane's transactions, heads and dirty mark say.
    fn summary_holds(&self, bank: usize) -> bool {
        let lane = &self.lanes[bank];
        let soonest = match (lane.txns.is_empty(), lane.dirty) {
            (true, _) => Cycle::MAX,
            (false, true) => 0,
            (false, false) => lane.hit.ready_at.min(lane.work.ready_at),
        };
        let occupied = self.occupied[bank / 64] >> (bank % 64) & 1 == 1;
        self.soonest[bank] == soonest && occupied != lane.txns.is_empty()
    }

    fn issue_precharge_for_refresh(&mut self) {
        let now = self.now;
        let timing = self.cfg.timing;
        if let Some(bank) = self.banks.iter_mut().find(|b| b.can_precharge(now)) {
            bank.precharge(now, &timing);
        }
    }

    /// FR-FCFS over the occupied banks' heads: issue the oldest ready
    /// row-hit column; failing that, do the row work (precharge a
    /// conflicting row, or activate) of the oldest transaction whose
    /// bank permits it now. Parked transactions are nobody's head —
    /// opening a parked full-empty one's row would be wasted work and can
    /// livelock conflicting rows. Returns the earliest cycle the queue or
    /// the refresh timer can next act: the pass has seen every occupied
    /// bank's `soonest`, and a command changes only its own bank's.
    ///
    /// A lane whose `soonest` is still ahead holds no ready head, so the
    /// pass reads its summary and nothing else; the lanes it opens are
    /// the ones that can act now and the dirty ones, which it re-heads.
    fn schedule(&mut self, storage: &mut Storage) -> Cycle {
        debug_assert!(
            (0..self.lanes.len()).all(|bank| self.summary_holds(bank)),
            "vault {}: the bank summary disagrees with the lanes",
            self.vault
        );
        self.work.passes += 1;
        let now = self.now;
        let (mut hit, mut work) = (Head::NONE, Head::NONE);
        let (mut hit_bank, mut work_bank) = (0, 0);
        // The earliest head, its bank, and the earliest outside it.
        let (mut first, mut first_bank, mut second) = (Cycle::MAX, usize::MAX, Cycle::MAX);
        for word in 0..self.occupied.len() {
            let mut banks = self.occupied[word];
            self.work.banks_walked += u64::from(banks.count_ones());
            while banks != 0 {
                let bank = word * 64 + banks.trailing_zeros() as usize;
                banks &= banks - 1;
                let mut soonest = self.soonest[bank];
                if soonest <= now {
                    self.work.lanes_opened += 1;
                    if self.lanes[bank].dirty {
                        self.rehead(bank, storage);
                    }
                    let lane = &self.lanes[bank];
                    if lane.hit.ready_at <= now && lane.hit.seq < hit.seq {
                        (hit, hit_bank) = (lane.hit, bank);
                    }
                    if lane.work.ready_at <= now && lane.work.seq < work.seq {
                        (work, work_bank) = (lane.work, bank);
                    }
                    soonest = self.soonest[bank];
                }
                if soonest < first {
                    (second, first, first_bank) = (first, soonest, bank);
                } else {
                    second = second.min(soonest);
                }
            }
        }
        let bank = if hit.ready_at <= now {
            self.issue_column(hit_bank, hit.pos, storage);
            hit_bank
        } else if work.ready_at <= now {
            let timing = self.cfg.timing;
            let txn = &mut self.lanes[work_bank].txns[work.pos];
            let bank = &mut self.banks[work_bank];
            if bank.open_row().is_some() {
                bank.precharge(now, &timing);
                self.stats.row_conflicts += 1;
            } else {
                bank.activate(now, txn.decoded.row, &timing);
                txn.caused_act = true;
                self.stats.row_misses += 1;
            }
            work_bank
        } else {
            return first.min(self.next_refresh);
        };
        // A full-empty column flipped its word's bit: whatever that parks
        // or releases names the same word, so sits in this lane.
        self.fe_seen = storage.fe_epoch();
        self.rehead(bank, storage);
        let others = if bank == first_bank { second } else { first };
        others.min(self.soonest[bank]).min(self.next_refresh)
    }

    /// Recomputes `bank`'s heads, and its `soonest`, from its lane, its
    /// row state and the full-empty bits.
    fn rehead(&mut self, bank: usize, storage: &Storage) {
        let state = &self.banks[bank];
        let lane = &mut self.lanes[bank];
        (lane.hit, lane.work, lane.dirty) = (Head::NONE, Head::NONE, false);
        for (pos, txn) in lane.txns.iter().enumerate() {
            if parked(storage, txn) {
                continue;
            }
            let row = txn.decoded.row;
            let hits = state.open_row() == Some(row);
            let head = if hits { &mut lane.hit } else { &mut lane.work };
            if head.ready_at == Cycle::MAX {
                let (ready_at, seq) = (ready_at(state, row), txn.seq);
                *head = Head { ready_at, seq, pos };
            }
        }
        self.soonest[bank] = lane.hit.ready_at.min(lane.work.ready_at);
    }

    /// The protected read data path: lands any retention faults due on
    /// the words of this access, SECDED-decodes them (correcting and
    /// scrubbing single-bit flips), then reads the — possibly repaired —
    /// bytes. Returns the data and whether an uncorrectable error
    /// poisons it.
    ///
    /// Fault draws are keyed by (word address, issue cycle): vault issue
    /// cycles are bit-identical across the stepping engines, so every
    /// engine sees the same faults. Only fully-contained aligned 8-byte
    /// words participate (ECC is word-granular).
    fn read_protected(&mut self, storage: &mut Storage, addr: u64, len: usize) -> (Vec<u8>, bool) {
        let mut poisoned = false;
        if let Some(f) = self.cfg.faults {
            let single = u64::from(
                f.effective_single_bit_ppm(self.cfg.timing.t_refi_ps, BASELINE_T_REFI_PS),
            );
            let double = u64::from(f.double_bit_ppm);
            let end = addr + len as u64;
            let mut word = addr.next_multiple_of(8);
            while word + 8 <= end {
                if single + double > 0 {
                    let roll = fault_roll(f.seed, FaultDomain::DramRetention, word, self.now);
                    if roll < single + double {
                        let v = fault_value(f.seed, FaultDomain::DramRetention, word, self.now);
                        let b1 = (v % 64) as u32;
                        if roll < single {
                            storage.corrupt_word(word, &[b1]);
                        } else {
                            let b2 = ((v >> 8) % 63) as u32;
                            // Map onto 0..64 \ {b1} so the flips are
                            // always two distinct bits.
                            let b2 = if b2 >= b1 { b2 + 1 } else { b2 };
                            storage.corrupt_word(word, &[b1, b2]);
                        }
                        self.stats.retention_faults += 1;
                    }
                }
                // Decode unconditionally: corruption injected by an
                // earlier uncorrectable read is still pending.
                match storage.ecc_decode(word) {
                    Some(Decoded::Corrected { .. }) => self.stats.ecc_corrected += 1,
                    Some(Decoded::Uncorrectable) => {
                        self.stats.ecc_uncorrectable += 1;
                        poisoned = true;
                    }
                    Some(Decoded::Clean) | None => {}
                }
                word += 8;
            }
        }
        (storage.read_buf(addr, len), poisoned)
    }

    /// Issues the column command of `lanes[bank].txns[pos]` and takes
    /// the transaction off the queue.
    fn issue_column(&mut self, bank: usize, pos: usize, storage: &mut Storage) {
        let lane = &mut self.lanes[bank];
        let txn = lane.txns.remove(pos);
        debug_assert!(self.banks[bank].can_access(self.now, txn.decoded.row));
        for younger in &mut lane.txns[pos..] {
            younger.older_conflicts -= usize::from(conflicts(&txn.req, &younger.req));
        }
        self.queued -= 1;
        if lane.txns.is_empty() {
            self.occupied[bank / 64] &= !(1 << (bank % 64));
        }
        let now = self.now;
        let timing = self.cfg.timing;
        // A request spanning several columns of one row issues its
        // column commands tCCD apart (same bank); the data occupies the
        // shared bus for one burst per column.
        let len = txn.req.payload_len() as u64;
        let col = self.cfg.col_bytes as u64; // a power of two
        let cols = (((txn.req.addr & (col - 1)) + len + col - 1) >> col.trailing_zeros()).max(1);
        let last_cmd = now + (cols - 1) * timing.t_ccd();
        let data_start =
            (last_cmd + timing.t_cl()).max(self.bus_free_at + (cols - 1) * self.cfg.burst_cycles);
        let burst_end = data_start + self.cfg.burst_cycles;
        // The data-bus rule FIFO retirement stands on: bursts never
        // overlap, so this one ends after every pending one.
        debug_assert!(
            burst_end >= self.bus_free_at + self.cfg.burst_cycles
                && self.completions.iter().all(|done| done.at < burst_end),
            "vault {}: the burst ending at {burst_end} overlaps an earlier one",
            self.vault
        );
        self.bus_free_at = burst_end;
        self.banks[txn.decoded.bank].column_issued(last_cmd, &timing);

        if !txn.caused_act {
            self.stats.row_hits += 1;
        }

        let response = match txn.req.kind {
            RequestKind::Read => {
                let (data, poisoned) = self.read_protected(storage, txn.req.addr, txn.req.len);
                self.banks[txn.decoded.bank].access_read(burst_end, &timing);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::Read,
                    addr: txn.req.addr,
                    data,
                    poisoned,
                }
            }
            RequestKind::Write => {
                self.banks[txn.decoded.bank].access_write(burst_end, &timing);
                self.stats.bytes_written += txn.req.data.len() as u64;
                storage.write(txn.req.addr, &txn.req.data);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::Write,
                    addr: txn.req.addr,
                    data: Vec::new(),
                    poisoned: false,
                }
            }
            RequestKind::FeLoad => {
                let (data, poisoned) = self.read_protected(storage, txn.req.addr, 8);
                self.banks[txn.decoded.bank].access_read(burst_end, &timing);
                storage.set_full(txn.req.addr, false);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::FeLoad,
                    addr: txn.req.addr,
                    data,
                    poisoned,
                }
            }
            RequestKind::FeStore => {
                self.banks[txn.decoded.bank].access_write(burst_end, &timing);
                self.stats.bytes_written += txn.req.data.len() as u64;
                storage.write(txn.req.addr, &txn.req.data);
                storage.set_full(txn.req.addr, true);
                MemResponse {
                    id: txn.req.id,
                    kind: RequestKind::FeStore,
                    addr: txn.req.addr,
                    data: Vec::new(),
                    poisoned: false,
                }
            }
        };

        if self.cfg.policy == RowPolicy::ClosedPage {
            let pre_at = match txn.req.kind {
                RequestKind::Write | RequestKind::FeStore => burst_end + timing.t_wr(),
                _ => burst_end,
            };
            self.banks[txn.decoded.bank].auto_precharge_at(pre_at, &timing);
        }

        self.next_done = self.next_done.min(burst_end);
        let seq = self.done_base + self.done_order.len() as u64;
        self.done_order.push_back(self.completions.len());
        self.completions.push(PendingCompletion {
            at: burst_end,
            response,
            latency: burst_end - txn.enqueued,
            seq,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_rng::{for_each_seed, SplitMix64};

    fn run_until_idle(
        vc: &mut VaultController,
        storage: &mut Storage,
        limit: Cycle,
    ) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for _ in 0..limit {
            vc.tick(storage, &mut out);
            if vc.is_idle() {
                break;
            }
        }
        assert!(
            vc.is_idle(),
            "controller did not drain within {limit} cycles"
        );
        out
    }

    #[test]
    fn read_returns_written_data() {
        let mut storage = Storage::new();
        storage.write(64, &[7; 32]);
        let mut vc = VaultController::new(0, MemConfig::baseline());
        vc.enqueue(MemRequest::read(1, 64, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].data, vec![7; 32]);
        let s = vc.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn cold_read_latency_is_trcd_plus_tcl_plus_burst() {
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        let expect = cfg.timing.t_rcd() + cfg.timing.t_cl() + cfg.burst_cycles;
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert_eq!(out.len(), 1);
        // +2: one cycle for the enqueue tick to see it, one for ACT itself.
        let measured = vc.stats().total_latency_cycles;
        assert!(
            (expect..=expect + 2).contains(&measured),
            "latency {measured}, expected about {expect}"
        );
    }

    #[test]
    fn open_page_hits_same_row() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::baseline());
        // Two columns of the same row.
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, 32, 32)).unwrap();
        run_until_idle(&mut vc, &mut storage, 500);
        let s = vc.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 1);
    }

    #[test]
    fn closed_page_never_hits() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::closed_page());
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, 32, 32)).unwrap();
        run_until_idle(&mut vc, &mut storage, 800);
        let s = vc.stats();
        assert_eq!(s.row_misses, 2);
        assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn row_conflict_precharges() {
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        // Same bank, different rows: rows advance every
        // banks*row_bytes bytes under vault-row-bank-col.
        let stride = (cfg.banks_per_vault * cfg.row_bytes) as u64;
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, stride, 32)).unwrap();
        run_until_idle(&mut vc, &mut storage, 1000);
        let s = vc.stats();
        assert_eq!(s.row_conflicts, 1);
        assert_eq!(s.row_misses, 2);
    }

    #[test]
    fn different_banks_overlap() {
        // Reads to N different banks should take far less than N x the
        // single-read latency thanks to bank-level parallelism.
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        let row_stride = cfg.row_bytes as u64; // next bank
        let mut vc = VaultController::new(0, cfg.clone());
        for b in 0..8u64 {
            vc.enqueue(MemRequest::read(b, b * row_stride, 32)).unwrap();
        }
        let mut out = Vec::new();
        let mut cycles = 0;
        while !vc.is_idle() {
            vc.tick(&mut storage, &mut out);
            cycles += 1;
            assert!(cycles < 5000);
        }
        assert_eq!(out.len(), 8);
        let single = cfg.timing.t_rcd() + cfg.timing.t_cl() + cfg.burst_cycles + 2;
        assert!(
            cycles < 8 * single / 2,
            "8 bank-parallel reads took {cycles} cycles (single ~{single})"
        );
    }

    #[test]
    fn refresh_blocks_and_counts() {
        let mut storage = Storage::new();
        let cfg = MemConfig::baseline();
        let refi = cfg.timing.t_refi();
        let mut vc = VaultController::new(0, cfg);
        let mut out = Vec::new();
        for _ in 0..(refi * 3 + 10) {
            vc.tick(&mut storage, &mut out);
        }
        assert_eq!(vc.stats().refreshes, 3);
    }

    #[test]
    fn fe_store_then_load_pair() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::baseline());
        // The load is queued first but cannot proceed until the store
        // sets the full bit.
        vc.enqueue(MemRequest::fe_load(1, 128)).unwrap();
        vc.enqueue(MemRequest::fe_store(2, 128, 0xabcd)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 2000);
        assert_eq!(out.len(), 2);
        let load = out.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(
            u64::from_le_bytes(load.data.clone().try_into().unwrap()),
            0xabcd
        );
        assert!(!storage.is_full(128), "load consumed the full bit");
    }

    #[test]
    fn fe_load_waits_indefinitely_without_producer() {
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, MemConfig::baseline());
        vc.enqueue(MemRequest::fe_load(1, 128)).unwrap();
        let mut out = Vec::new();
        for _ in 0..500 {
            vc.tick(&mut storage, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(vc.pending(), 1);
    }

    #[test]
    fn queue_backpressure() {
        let cfg = MemConfig::baseline();
        let depth = cfg.trans_queue_depth;
        let mut vc = VaultController::new(0, cfg);
        for i in 0..depth {
            vc.enqueue(MemRequest::read(i as u64, (i * 32) as u64, 32))
                .unwrap();
        }
        assert!(vc.enqueue(MemRequest::read(99, 0, 32)).is_err());
    }

    #[test]
    fn multi_column_packets_within_a_row_are_legal() {
        // With the 128 B packet option, requests span up to 128 B of one
        // row.
        let mut storage = Storage::new();
        storage.write(16, &[9; 32]);
        let mut vc = VaultController::new(0, MemConfig::with_hmc_packets());
        vc.enqueue(MemRequest::read(1, 16, 32)).unwrap();
        vc.enqueue(MemRequest::read(2, 0, 128)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 1000);
        assert_eq!(out.iter().find(|r| r.id == 1).unwrap().data, vec![9; 32]);
        assert_eq!(out.iter().find(|r| r.id == 2).unwrap().data.len(), 128);
    }

    #[test]
    fn injected_single_bit_faults_are_corrected_and_counted() {
        // Fire on every word-read: the data still comes back golden
        // because SECDED corrects each flip on the fly.
        let cfg = MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
            seed: 0xfa017,
            single_bit_ppm: 1_000_000,
            double_bit_ppm: 0,
        });
        let mut storage = Storage::new();
        storage.write(0, &[0x5a; 32]);
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(1, 0, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert_eq!(out[0].data, vec![0x5a; 32], "corrected in flight");
        assert!(!out[0].poisoned);
        let s = vc.stats();
        assert_eq!(s.retention_faults, 4, "one per word of the column");
        assert_eq!(s.ecc_corrected, 4);
        assert_eq!(s.ecc_uncorrectable, 0);
        // Scrubbing repaired the backing store too.
        assert_eq!(storage.read_vec(0, 32), vec![0x5a; 32]);
        assert_eq!(storage.corrupted_words(), 0);
    }

    #[test]
    fn injected_double_bit_faults_poison_the_response() {
        let cfg = MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
            seed: 3,
            single_bit_ppm: 0,
            double_bit_ppm: 1_000_000,
        });
        let mut storage = Storage::new();
        storage.write(0, &[0x11; 32]);
        let mut vc = VaultController::new(0, cfg);
        vc.enqueue(MemRequest::read(7, 0, 32)).unwrap();
        let out = run_until_idle(&mut vc, &mut storage, 500);
        assert!(out[0].poisoned);
        assert_ne!(out[0].data, vec![0x11; 32], "data really is damaged");
        let s = vc.stats();
        assert_eq!(s.ecc_uncorrectable, 4);
        assert_eq!(s.ecc_corrected, 0);
    }

    #[test]
    fn zero_rate_faults_change_nothing() {
        // A wired injector with zero rates must be bit-identical to no
        // injector at all, including every statistic.
        let run = |cfg: MemConfig| {
            let mut storage = Storage::new();
            storage.write(64, &[7; 32]);
            let mut vc = VaultController::new(0, cfg);
            vc.enqueue(MemRequest::read(1, 64, 32)).unwrap();
            vc.enqueue(MemRequest::fe_store(2, 128, 5)).unwrap();
            vc.enqueue(MemRequest::fe_load(3, 128)).unwrap();
            let out = run_until_idle(&mut vc, &mut storage, 2000);
            (out, vc.stats())
        };
        let plain = run(MemConfig::baseline());
        let wired = run(
            MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
                seed: 99,
                single_bit_ppm: 0,
                double_bit_ppm: 0,
            }),
        );
        assert_eq!(plain, wired);
    }

    #[test]
    #[should_panic(expected = "request granule")]
    fn crossing_the_request_granule_panics() {
        // Default packets are one column; 32 B starting mid-column
        // crosses the granule.
        let mut vc = VaultController::new(0, MemConfig::baseline());
        let _ = vc.enqueue(MemRequest::read(1, 16, 32));
    }

    #[test]
    #[should_panic(expected = "request granule")]
    fn crossing_a_row_panics_even_with_big_packets() {
        let mut vc = VaultController::new(0, MemConfig::with_hmc_packets());
        let _ = vc.enqueue(MemRequest::read(1, 64, 128));
    }

    #[test]
    #[should_panic(expected = "routed to vault")]
    fn wrong_vault_panics() {
        let cfg = MemConfig::baseline();
        let other_vault_addr = cfg.vault_base(1);
        let mut vc = VaultController::new(0, cfg);
        let _ = vc.enqueue(MemRequest::read(1, other_vault_addr, 32));
    }

    // ---- scheduler oracle ------------------------------------------
    //
    // The scheduler as it stood before it became incremental and then
    // bank-major, kept as the reference the production `tick` is
    // differentially tested against: it sees the queue as one
    // age-ordered list, every transaction re-derives its older-conflict
    // test by scanning the whole list ahead of it (whatever bank that
    // is in), the list is walked twice a cycle, every completion is
    // looked at every cycle, and nothing is ever skipped. It shares the
    // lanes as storage and `issue_column` as the DRAM-side effect of a
    // column command, and none of the heads, counts or bounds.
    impl VaultController {
        fn reference_tick(&mut self, storage: &mut Storage, out: &mut Vec<MemResponse>) {
            self.now += 1;
            if self.lanes.iter().any(|lane| !lane.txns.is_empty()) || !self.completions.is_empty() {
                self.stats.busy_cycles += 1;
            }
            let now = self.now;
            let mut i = 0;
            while i < self.completions.len() {
                if self.completions[i].at <= now {
                    let done = self.completions.swap_remove(i);
                    self.stats.total_latency_cycles += done.latency;
                    match done.response.kind {
                        RequestKind::Read | RequestKind::FeLoad => {
                            self.stats.reads += 1;
                            self.stats.bytes_read += done.response.data.len() as u64;
                        }
                        RequestKind::Write | RequestKind::FeStore => self.stats.writes += 1,
                    }
                    out.push(done.response);
                } else {
                    i += 1;
                }
            }
            if self.now < self.refresh_until {
                return;
            }
            if self.now >= self.next_refresh {
                self.refresh_pending = true;
            }
            if self.refresh_pending {
                if !self.try_start_refresh() {
                    self.issue_precharge_for_refresh();
                }
                return;
            }
            self.reference_schedule(storage);
        }

        /// The single age-ordered queue, as `(bank, lane position)`.
        fn reference_queue(&self) -> Vec<(usize, usize)> {
            let mut queue: Vec<(usize, usize)> = (0..self.lanes.len())
                .flat_map(|bank| (0..self.lanes[bank].txns.len()).map(move |pos| (bank, pos)))
                .collect();
            queue.sort_by_key(|&(bank, pos)| self.lanes[bank].txns[pos].seq);
            queue
        }

        fn reference_older_conflict(&self, queue: &[(usize, usize)], idx: usize) -> bool {
            let txn = &self.lanes[queue[idx].0].txns[queue[idx].1];
            if txn.req.is_full_empty() {
                return false;
            }
            let (start, end) = (txn.req.addr, txn.req.addr + txn.req.payload_len() as u64);
            queue[..idx].iter().any(|&(bank, pos)| {
                let older = &self.lanes[bank].txns[pos];
                !older.req.is_full_empty()
                    && start < older.req.addr + older.req.payload_len() as u64
                    && older.req.addr < end
            })
        }

        fn reference_schedule(&mut self, storage: &mut Storage) {
            let now = self.now;
            let queue = self.reference_queue();
            let hit_idx = (0..queue.len()).find(|&i| {
                let txn = &self.lanes[queue[i].0].txns[queue[i].1];
                self.banks[txn.decoded.bank].can_access(now, txn.decoded.row)
                    && fe_permits(storage, &txn.req)
                    && !self.reference_older_conflict(&queue, i)
            });
            if let Some(idx) = hit_idx {
                self.issue_column(queue[idx].0, queue[idx].1, storage);
                return;
            }
            for idx in 0..queue.len() {
                let (bank_idx, pos) = queue[idx];
                let txn = &self.lanes[bank_idx].txns[pos];
                assert_eq!(txn.decoded.bank, bank_idx, "dealt to the wrong lane");
                let row = txn.decoded.row;
                if !fe_permits(storage, &txn.req) || self.reference_older_conflict(&queue, idx) {
                    continue;
                }
                let timing = self.cfg.timing;
                let bank = &mut self.banks[bank_idx];
                match bank.open_row() {
                    Some(open) if open == row => continue,
                    Some(_) if bank.can_precharge(now) => {
                        bank.precharge(now, &timing);
                        self.stats.row_conflicts += 1;
                        return;
                    }
                    None if bank.can_activate(now) => {
                        bank.activate(now, row, &timing);
                        self.lanes[bank_idx].txns[pos].caused_act = true;
                        self.stats.row_misses += 1;
                        return;
                    }
                    _ => {}
                }
            }
        }

        fn saved(&self) -> Vec<u8> {
            let mut w = Writer::new();
            self.save_state(&mut w);
            w.into_bytes()
        }
    }

    /// A request stream built to collide: a handful of request granules
    /// over two rows of `banks` banks (strided over the vault's, so high
    /// bank numbers occur), partial-granule writes at 8-byte offsets,
    /// and full-empty load/store pairs queued in either order.
    fn random_requests(
        rng: &mut SplitMix64,
        cfg: &MemConfig,
        banks: usize,
        next_id: &mut u64,
    ) -> Vec<MemRequest> {
        let mut id = || {
            *next_id += 1;
            *next_id
        };
        let banks = banks.min(cfg.banks_per_vault);
        let granule = cfg.request_granule() as u64;
        let granules_per_row = cfg.row_bytes as u64 / granule;
        let mut place = DecodedAddr {
            vault: 0,
            bank: rng.below(banks as u64) as usize * (cfg.banks_per_vault / banks),
            row: rng.below(2),
            col: rng.below(granules_per_row.min(3)) * (granule / cfg.col_bytes as u64),
            offset: 0,
        };
        match rng.below(10) {
            0 => {
                // Sync words live two rows past the plain granules.
                place.row += 2;
                let word = cfg.mapping.encode(cfg, place) + 8 * rng.below(2);
                let pair = [
                    MemRequest::fe_load(id(), word),
                    MemRequest::fe_store(id(), word, rng.next_u64()),
                ];
                if rng.bool() {
                    pair.into_iter().rev().collect()
                } else {
                    pair.into()
                }
            }
            kind => {
                let column = cfg.mapping.encode(cfg, place);
                let offset = 8 * rng.below(granule / 8);
                let len = 8 * (1 + rng.below((granule - offset) / 8)) as usize;
                vec![if kind < 5 {
                    MemRequest::write(id(), column + offset, rng.bytes(len))
                } else {
                    MemRequest::read(id(), column + offset, len)
                }]
            }
        }
    }

    /// Drives the production controller and the reference with one
    /// seeded stream for `cycles` cycles at `load_pct` % offered load:
    /// same responses in the same order on the same cycle, same
    /// statistics. Half-way, the production side is saved, restored onto
    /// a fresh controller (even seeds) or a used one (odd) and re-saved
    /// (the derived counts, heads, retirement order and wake bounds must
    /// come back without being in the bytes), and the copy carries on.
    /// Now and then it jumps with `next_event`/`skip_to` instead of
    /// ticking, which the reference never does.
    fn differential(cfg: &MemConfig, banks: usize, seed: u64, cycles: Cycle, load_pct: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut fast = VaultController::new(0, cfg.clone());
        let mut slow = VaultController::new(0, cfg.clone());
        let (mut fast_mem, mut slow_mem) = (Storage::new(), Storage::new());
        let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
        let (mut next_id, mut retired) = (0, 0);
        while slow.now < cycles {
            if slow.now == cycles / 2 {
                let bytes = fast.saved();
                let mut copy = if seed & 1 == 0 {
                    VaultController::new(0, cfg.clone())
                } else {
                    used_controller(cfg, banks, seed)
                };
                copy.restore_state(&mut Reader::new(&bytes)).unwrap();
                assert_eq!(
                    copy.saved(),
                    bytes,
                    "seed {seed:#x}: restore re-saves differently"
                );
                fast = copy;
            }
            if rng.below(100) < load_pct {
                let reqs = random_requests(&mut rng, cfg, banks, &mut next_id);
                if slow.pending() + reqs.len() <= cfg.trans_queue_depth {
                    for req in reqs {
                        fast.enqueue(req.clone()).unwrap();
                        slow.enqueue(req).unwrap();
                    }
                }
            } else if rng.below(32) == 0 {
                let next = fast.next_event(&fast_mem).unwrap();
                assert!(next > fast.now);
                fast.skip_to(next - 1);
                while slow.now < next - 1 {
                    slow.reference_tick(&mut slow_mem, &mut slow_out);
                    assert!(
                        slow_out.is_empty(),
                        "seed {seed:#x}: skipped over a completion"
                    );
                }
            }
            fast.tick(&mut fast_mem, &mut fast_out);
            slow.reference_tick(&mut slow_mem, &mut slow_out);
            assert_eq!(fast_out, slow_out, "seed {seed:#x}, cycle {}", slow.now);
            retired += fast_out.len();
            fast_out.clear();
            slow_out.clear();
        }
        assert_eq!(fast.stats(), slow.stats(), "seed {seed:#x}");
        assert_eq!(
            fast.saved(),
            slow.saved(),
            "seed {seed:#x}: final state differs"
        );
        assert_eq!(fast_mem.fe_epoch(), slow_mem.fe_epoch());
        assert!(retired > 0, "seed {seed:#x}: nothing completed");
    }

    /// A controller stopped in the middle of some other stream, with
    /// transactions queued, heads cached and completions pending: all of
    /// which `restore_state` must replace, not merge with.
    fn used_controller(cfg: &MemConfig, banks: usize, seed: u64) -> VaultController {
        let mut rng = SplitMix64::new(!seed);
        let mut vc = VaultController::new(0, cfg.clone());
        let (mut mem, mut out, mut next_id) = (Storage::new(), Vec::new(), 1 << 32);
        for _ in 0..150 {
            let reqs = random_requests(&mut rng, cfg, banks, &mut next_id);
            if vc.pending() + reqs.len() <= cfg.trans_queue_depth / 2 {
                reqs.into_iter().for_each(|req| vc.enqueue(req).unwrap());
            }
            vc.tick(&mut mem, &mut out);
        }
        vc
    }

    /// The production controller and the reference, fed and ticked
    /// together.
    struct Lockstep {
        fast: VaultController,
        slow: VaultController,
        fast_mem: Storage,
        slow_mem: Storage,
        retired: usize,
    }

    impl Lockstep {
        fn new(cfg: &MemConfig) -> Self {
            Lockstep {
                fast: VaultController::new(0, cfg.clone()),
                slow: VaultController::new(0, cfg.clone()),
                fast_mem: Storage::new(),
                slow_mem: Storage::new(),
                retired: 0,
            }
        }

        /// Enqueues `reqs` on both, ticks both once: the same responses
        /// and, byte for byte, the same state (which includes the
        /// completions' `swap_remove` order).
        fn step(&mut self, reqs: impl IntoIterator<Item = MemRequest>) {
            for req in reqs {
                self.fast.enqueue(req.clone()).unwrap();
                self.slow.enqueue(req).unwrap();
            }
            let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
            self.fast.tick(&mut self.fast_mem, &mut fast_out);
            self.slow.reference_tick(&mut self.slow_mem, &mut slow_out);
            assert_eq!(fast_out, slow_out, "cycle {}", self.slow.now);
            assert_eq!(
                self.fast.saved(),
                self.slow.saved(),
                "cycle {}",
                self.slow.now
            );
            self.retired += fast_out.len();
        }

        fn drain(&mut self) {
            while !self.slow.is_idle() {
                self.step([]);
            }
        }

        /// Reads of row 0 of banks `0..banks`, which leave the rows open.
        fn open_rows(&mut self, cfg: &MemConfig, banks: usize) {
            self.step((0..banks).map(|bank| MemRequest::read(bank as u64, at(cfg, bank, 0, 0), 8)));
            self.drain();
        }
    }

    /// The address of `col` of `row` of `bank` in vault 0.
    fn at(cfg: &MemConfig, bank: usize, row: u64, col: u64) -> u64 {
        let place = DecodedAddr {
            vault: 0,
            bank,
            row,
            col,
            offset: 0,
        };
        cfg.mapping.encode(cfg, place)
    }

    #[test]
    fn incremental_scheduler_retires_a_deep_completion_list_in_order() {
        // Row hits over 16 open banks issue one a cycle and leave the bus
        // one every four: completions pile up, which is where retirement
        // by index and the reference's walk could part ways.
        let cfg = MemConfig::baseline();
        let mut pair = Lockstep::new(&cfg);
        pair.open_rows(&cfg, 16);
        let (mut next, mut deepest) = (0u64, 0);
        let mut spare = used_controller(&cfg, 12, 0xdee9);
        for cycle in 0..400 {
            let mut reqs = Vec::new();
            while pair.fast.pending() + reqs.len() < cfg.trans_queue_depth
                && pair.fast.completions.len() + pair.fast.pending() + reqs.len() < 48
            {
                next += 1;
                let addr = at(&cfg, next as usize % 16, 0, next / 16 % 8);
                reqs.push(if next % 5 == 0 {
                    MemRequest::write(100 + next, addr, vec![next as u8; 32])
                } else {
                    MemRequest::read(100 + next, addr, 32)
                });
            }
            if (200..264).contains(&cycle) {
                // Onto whatever the last round left behind: a controller
                // one cycle stale, after the first a foreign one.
                let bytes = pair.fast.saved();
                spare.restore_state(&mut Reader::new(&bytes)).unwrap();
                assert_eq!(spare.saved(), bytes, "cycle {cycle}");
                std::mem::swap(&mut pair.fast, &mut spare);
                deepest = deepest.max(pair.fast.completions.len());
            }
            pair.step(reqs);
        }
        assert!(
            deepest >= 16,
            "only {deepest} completions were ever pending"
        );
        pair.drain();
        assert_eq!(pair.retired as u64, 16 + next);
    }

    #[test]
    fn incremental_scheduler_takes_an_enqueue_on_a_completion_only_wake() {
        // A hit issues, and its completion is all the vault waits for —
        // alone, or with a row conflict queued that tRAS holds back past
        // it. A second hit arriving on any cycle around the completion's
        // tick, that very tick included, must issue when the reference
        // issues it.
        let cfg = MemConfig::baseline();
        let mut on_the_wake = 0;
        for blocked in [false, true] {
            for arrival in 0..80 {
                let mut pair = Lockstep::new(&cfg);
                pair.open_rows(&cfg, 1);
                let mut first = vec![MemRequest::read(10, at(&cfg, 0, 0, 1), 32)];
                if blocked {
                    pair.step([MemRequest::read(11, at(&cfg, 1, 0, 0), 32)]);
                    first.push(MemRequest::read(12, at(&cfg, 1, 1, 0), 32));
                }
                pair.step(first);
                for cycle in 0..200 {
                    let lands = cycle == arrival;
                    let next = pair.fast.now + 1;
                    if lands && next >= pair.fast.next_done && next < pair.fast.cmd_wake {
                        on_the_wake += 1;
                    }
                    pair.step(lands.then(|| MemRequest::read(13, at(&cfg, 0, 0, 2), 32)));
                }
                assert!(pair.slow.is_idle(), "arrival {arrival}");
            }
        }
        assert!(on_the_wake >= 2, "no arrival met a completion-only tick");
    }

    #[test]
    fn incremental_scheduler_parks_full_empty_newcomers_in_clean_lanes() {
        // Bank 0 holds a plain read to a closed row (a work head, once a
        // pass has cleaned the lane); full-empty loads and stores of a
        // word in the open row or in a third one, full or empty to begin
        // with, arrive in either order at every spacing.
        let cfg = MemConfig::baseline();
        let mut clean_arrivals = 0;
        for variant in 0..8 {
            let (store_first, open_row, prefilled) =
                (variant & 1 != 0, variant & 2 != 0, variant & 4 != 0);
            let word = at(&cfg, 0, if open_row { 0 } else { 2 }, 3) + 8;
            for gap in 1..=40 {
                let mut pair = Lockstep::new(&cfg);
                pair.fast_mem.set_full(word, prefilled);
                pair.slow_mem.set_full(word, prefilled);
                pair.open_rows(&cfg, 1);
                pair.step([MemRequest::read(20, at(&cfg, 0, 1, 0), 32)]);
                let mut sync = [
                    MemRequest::fe_load(21, word),
                    MemRequest::fe_store(22, word, 0x5eed),
                ];
                if store_first {
                    sync.reverse();
                }
                let [early, late] = sync;
                let (mut early, mut late) = (Some(early), Some(late));
                for cycle in 0..400 {
                    let req = match cycle {
                        3 => early.take(),
                        c if c == 3 + gap => late.take(),
                        _ => None,
                    };
                    clean_arrivals += usize::from(req.is_some() && !pair.fast.lanes[0].dirty);
                    pair.step(req);
                }
                // Whichever of the pair the bit permits goes first and
                // releases the other; the bit ends where it began.
                assert_eq!(pair.retired, 4, "variant {variant} gap {gap}");
                assert_eq!(pair.fast_mem.is_full(word), prefilled);
            }
        }
        assert!(clean_arrivals > 300, "lanes were dirty on arrival");
    }

    #[test]
    fn incremental_scheduler_restore_rejects_bursts_that_overlap() {
        let cfg = MemConfig::baseline();
        let mut pair = Lockstep::new(&cfg);
        pair.open_rows(&cfg, 4);
        pair.step((0..4).map(|bank| MemRequest::read(30 + bank as u64, at(&cfg, bank, 0, 1), 32)));
        while pair.fast.completions.len() < 3 {
            pair.step([]);
        }
        let good = pair.fast.saved();
        let restore =
            |bytes: &[u8]| used_controller(&cfg, 2, 7).restore_state(&mut Reader::new(bytes));
        assert!(restore(&good).is_ok());
        // Two completions on one cycle, in either slot order.
        for (from, to) in [(0, 2), (2, 0), (1, 2)] {
            pair.fast.completions[to].at = pair.fast.completions[from].at;
            let err = restore(&pair.fast.saved()).unwrap_err();
            assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
            pair.fast.restore_state(&mut Reader::new(&good)).unwrap();
        }
        // A burst past the bus reservation.
        pair.fast.completions[1].at = pair.fast.bus_free_at + 1;
        let err = restore(&pair.fast.saved()).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn incremental_scheduler_matches_the_quadratic_reference() {
        // Refresh every ~1200 cycles so every stream crosses several.
        let mut quick_refresh = MemConfig::baseline();
        quick_refresh.timing.t_refi_ps /= 8;
        let faulty = MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
            seed: 0xd1ff,
            single_bit_ppm: 20_000,
            double_bit_ppm: 5_000,
        });
        let low_interleave = MemConfig {
            mapping: crate::AddressMapping::LowInterleave,
            name: "low interleave",
            ..MemConfig::baseline()
        };
        let configs = [
            MemConfig::baseline(),
            MemConfig::closed_page(),
            MemConfig::with_hmc_packets(),
            quick_refresh,
            faulty,
            MemConfig::more_ranks(),
            MemConfig::fewer_ranks(),
            low_interleave,
            many_banks(),
        ];
        for_each_seed("incremental_scheduler_matches", 0x5c4e_d000, 12, |seed| {
            // Two crowded lanes on the even seeds, a dozen on the odd.
            let banks = if seed % 2 == 0 { 2 } else { 12 };
            for cfg in &configs {
                // A trickle, a busy queue, and a queue held full.
                for load_pct in [8, 45, 100] {
                    differential(cfg, banks, seed ^ load_pct, 6_000, load_pct);
                }
            }
        });
    }

    /// More banks than any integer mask has bits: `banks_per_vault` is
    /// bounded only by being a power of two, so nothing the scheduler
    /// keeps per bank may assume a width.
    fn many_banks() -> MemConfig {
        MemConfig {
            banks_per_vault: 512,
            rows_per_bank: 2_048,
            name: "many banks",
            ..MemConfig::baseline()
        }
    }

    #[test]
    fn any_power_of_two_bank_count_validates_and_schedules() {
        let cfg = many_banks();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.total_bytes(), MemConfig::baseline().total_bytes());
        let mut storage = Storage::new();
        let mut vc = VaultController::new(0, cfg.clone());
        // Fill the queue with one read per bank, from the top bank down.
        for i in 0..cfg.trans_queue_depth {
            let bank = cfg.banks_per_vault - 1 - 16 * i;
            let addr = (bank * cfg.row_bytes) as u64;
            assert_eq!(cfg.mapping.decode(&cfg, addr).bank, bank);
            vc.enqueue(MemRequest::read(i as u64, addr, 32)).unwrap();
        }
        let out = run_until_idle(&mut vc, &mut storage, 2_000);
        // Nothing orders reads of distinct banks but age.
        let ids: Vec<u64> = out.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..cfg.trans_queue_depth as u64).collect::<Vec<_>>());
        assert_eq!(vc.stats().row_misses, cfg.trans_queue_depth as u64);
    }

    #[test]
    fn host_flip_of_a_full_empty_bit_wakes_the_parked_load_on_time() {
        let cfg = MemConfig::baseline();
        let mut fast = VaultController::new(0, cfg.clone());
        let mut slow = VaultController::new(0, cfg);
        let (mut fast_mem, mut slow_mem) = (Storage::new(), Storage::new());
        let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
        fast.enqueue(MemRequest::fe_load(1, 128)).unwrap();
        slow.enqueue(MemRequest::fe_load(1, 128)).unwrap();
        for cycle in 1..=600 {
            if cycle == 300 {
                // Parked for hundreds of cycles: the vault's own bound
                // points at the next refresh, far away.
                assert!(fast.next_event(&fast_mem).unwrap() > 1_000);
                fast_mem.set_full(128, true);
                slow_mem.set_full(128, true);
                assert_eq!(fast.next_event(&fast_mem), Some(cycle));
            }
            fast.tick(&mut fast_mem, &mut fast_out);
            slow.reference_tick(&mut slow_mem, &mut slow_out);
            assert_eq!(fast_out, slow_out, "cycle {cycle}");
        }
        assert_eq!(fast_out.len(), 1, "the load issued once the word filled");
        assert_eq!(fast.stats(), slow.stats());
    }
}
