//! The vault controller: transaction queueing, FR-FCFS command
//! scheduling, refresh, and full-empty atomics.

use std::collections::VecDeque;

use crate::addr::DecodedAddr;
use crate::bank::Bank;
use crate::config::{MemConfig, RowPolicy};
use crate::req::{MemRequest, MemResponse, QueueFullError, RequestKind};
use crate::stats::MemStats;
use crate::storage::Storage;
use crate::timing::BASELINE_T_REFI_PS;
use crate::Cycle;
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
            older_conflicts: 0, // `restore_state` recounts
        })
    }
}

#[derive(Debug)]
struct PendingCompletion {
    at: Cycle,
    response: MemResponse,
    latency: Cycle,
}

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
        })
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
    queue: VecDeque<Txn>,
    completions: Vec<PendingCompletion>,
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
    /// The storage's full-empty epoch `wake` was computed under; a flip
    /// since then (by anyone) may have released a parked transaction,
    /// so the bound no longer holds.
    fe_seen: u64,
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
        let next_refresh = cfg.timing.t_refi();
        VaultController {
            vault,
            cfg,
            banks,
            queue: VecDeque::new(),
            completions: Vec::new(),
            now: 0,
            next_refresh,
            refresh_pending: false,
            refresh_until: 0,
            bus_free_at: 0,
            stats: MemStats::default(),
            wake: 0,
            fe_seen: 0,
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
        self.queue.len()
    }

    /// Wires (or removes) retention-fault injection at runtime.
    pub fn set_faults(&mut self, faults: Option<vip_faults::DramFaultConfig>) {
        self.cfg.faults = faults;
    }

    /// Whether the transaction queue can accept another request.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.trans_queue_depth
    }

    /// Whether no work is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
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
        let granule = self.cfg.request_granule() as u64;
        assert!(
            (req.addr % granule) + len as u64 <= granule,
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
        let older_conflicts = self
            .queue
            .iter()
            .filter(|t| conflicts(&t.req, &req))
            .count();
        let txn = Txn {
            req,
            decoded,
            enqueued: self.now,
            caused_act: false,
            older_conflicts,
        };
        if older_conflicts == 0 {
            // The newcomer may act as soon as its bank allows (a parked
            // full-empty one is assumed free to: early wake is harmless).
            // A blocked one waits on an older column issue, an event
            // that recomputes the bound anyway.
            self.wake = self.wake.min(self.ready_at(&txn));
        }
        self.queue.push_back(txn);
        Ok(())
    }

    /// Advances one cycle: retires matured completions into `out`, then
    /// issues at most one DRAM command. A tick strictly before the
    /// cached wake bound does neither — by construction nothing can
    /// happen on it — and only counts the cycle.
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
        if quiet {
            return;
        }

        // Retire matured completions.
        let now = self.now;
        let mut next_done = Cycle::MAX;
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
                    RequestKind::Write | RequestKind::FeStore => {
                        self.stats.writes += 1;
                    }
                }
                out.push(done.response);
            } else {
                next_done = next_done.min(self.completions[i].at);
                i += 1;
            }
        }

        let idle_until = if now < self.refresh_until {
            // Refresh in progress: the whole vault is blocked.
            Some(self.refresh_until)
        } else {
            if now >= self.next_refresh {
                self.refresh_pending = true;
            }
            if self.refresh_pending {
                // Work toward refresh: start it, else precharge one open
                // bank, else wait while banks drain tRAS/tWR. Nothing
                // else may issue, so the refresh starts promptly.
                if !self.try_start_refresh() {
                    self.issue_precharge_for_refresh();
                }
                None
            } else {
                self.schedule(storage)
            }
        };
        self.wake = match idle_until {
            Some(next_command) => next_done.min(next_command),
            // A command changed bank, queue or completion state.
            None => self.scan_next_event(storage),
        };
        self.fe_seen = storage.fe_epoch();
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
    /// holds; rescans the queue only after something invalidated it.
    #[must_use]
    pub fn next_event(&self, storage: &Storage) -> Option<Cycle> {
        Some(self.wake_bound(storage))
    }

    /// [`next_event`](Self::next_event) without the `Option`.
    pub(crate) fn wake_bound(&self, storage: &Storage) -> Cycle {
        if self.wake != 0 && self.fe_seen == storage.fe_epoch() {
            self.wake.max(self.now + 1)
        } else {
            self.scan_next_event(storage)
        }
    }

    /// [`next_event`](Self::next_event) computed from scratch.
    fn scan_next_event(&self, storage: &Storage) -> Cycle {
        // Completions retire when their cycle matures, even mid-refresh.
        let next_done = self.completions.iter().map(|done| done.at).min();
        let next = self
            .command_wake(storage)
            .min(next_done.unwrap_or(Cycle::MAX));
        next.max(self.now + 1)
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
        self.queue
            .iter()
            .filter(|txn| !self.parked(storage, txn))
            .map(|txn| self.ready_at(txn))
            .fold(self.next_refresh, Cycle::min)
    }

    /// Whether `txn` cannot act until something else releases it: an
    /// older conflicting transaction's column issue (an active tick of
    /// this vault) or a flip of its full-empty bit (a bump of the
    /// storage's epoch). Either re-derives the wake bound, so a parked
    /// transaction contributes no candidate of its own. Exactly one
    /// side of a full-empty load/store pair is permitted at any time,
    /// so a queued pair always produces one.
    fn parked(&self, storage: &Storage, txn: &Txn) -> bool {
        txn.older_conflicts > 0 || !self.fe_permits(storage, &txn.req)
    }

    /// The first cycle `txn`'s next DRAM command — a column to its open
    /// row, else the precharge or activate that leads there — may
    /// issue, as far as its bank is concerned.
    fn ready_at(&self, txn: &Txn) -> Cycle {
        let bank = &self.banks[txn.decoded.bank];
        match bank.open_row() {
            Some(row) if row == txn.decoded.row => bank.earliest_column(),
            Some(_) => bank.earliest_precharge(),
            None => bank.earliest_activate(),
        }
    }

    /// Jumps the vault's clock to `to`, replaying the per-cycle counters
    /// that `to - now` idle ticks would have accumulated. Callers must
    /// have established (via [`next_event`](Self::next_event)) that every
    /// skipped cycle is a no-op; the queue/completion occupancy is
    /// constant across such a window, so the busy-cycle counter advances
    /// linearly.
    pub fn skip_to(&mut self, to: Cycle) {
        debug_assert!(to >= self.now);
        if !self.queue.is_empty() || !self.completions.is_empty() {
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
        debug_assert!(self.queue.is_empty() && self.completions.is_empty());
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
        self.wake = 0;
    }

    /// Serializes every piece of mutable controller state: bank state
    /// machines, the transaction queue, pending completions (in their
    /// exact in-memory order — retirement uses `swap_remove`, so the
    /// order is architecturally significant), the refresh machinery,
    /// the shared-bus reservation, counters, and the runtime-settable
    /// fault configuration.
    pub fn save_state(&self, w: &mut Writer) {
        self.banks.save(w);
        self.queue.save(w);
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
    /// Returns a [`SnapError`] on decode failure or if the snapshot's
    /// bank count disagrees with this controller's geometry.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let banks = Vec::<Bank>::restore(r)?;
        if banks.len() != self.banks.len() {
            return Err(SnapError::Corrupt("bank count mismatch"));
        }
        self.banks = banks;
        self.queue = VecDeque::restore(r)?;
        self.completions = Vec::restore(r)?;
        self.now = r.u64()?;
        self.next_refresh = r.u64()?;
        self.refresh_pending = r.bool()?;
        self.refresh_until = r.u64()?;
        self.bus_free_at = r.u64()?;
        self.stats = MemStats::restore(r)?;
        self.cfg.faults = Option::restore(r)?;
        for i in 0..self.queue.len() {
            let req = &self.queue[i].req;
            let older = self.queue.iter().take(i);
            self.queue[i].older_conflicts = older.filter(|o| conflicts(&o.req, req)).count();
        }
        self.wake = 0;
        Ok(())
    }

    fn try_start_refresh(&mut self) -> bool {
        let now = self.now;
        if self.banks.iter().all(|b| b.refresh_ready(now)) {
            let until = now + self.cfg.timing.t_rfc();
            for bank in &mut self.banks {
                bank.block_until(until);
            }
            self.refresh_until = until;
            self.next_refresh += self.cfg.timing.t_refi();
            self.refresh_pending = false;
            self.stats.refreshes += 1;
            true
        } else {
            false
        }
    }

    fn issue_precharge_for_refresh(&mut self) {
        let now = self.now;
        let timing = self.cfg.timing;
        if let Some(bank) = self.banks.iter_mut().find(|b| b.can_precharge(now)) {
            bank.precharge(now, &timing);
        }
    }

    /// FR-FCFS in one walk of the queue: issue the oldest ready row-hit
    /// column; failing that, do the row work (precharge a conflicting
    /// row, or activate) of the oldest transaction whose bank permits
    /// it now. Parked full-empty transactions take no part — opening
    /// their row would be wasted work and can livelock conflicting
    /// rows. When nothing can issue, returns the earliest cycle
    /// something could (the walk has seen every candidate).
    fn schedule(&mut self, storage: &mut Storage) -> Option<Cycle> {
        let now = self.now;
        let mut idle_until = self.next_refresh;
        let mut row_work = None;
        let mut hit = None;
        for (idx, txn) in self.queue.iter().enumerate() {
            if self.parked(storage, txn) {
                continue;
            }
            let ready_at = self.ready_at(txn);
            if ready_at > now {
                idle_until = idle_until.min(ready_at);
            } else if self.banks[txn.decoded.bank].can_access(now, txn.decoded.row) {
                hit = Some(idx);
                break;
            } else if row_work.is_none() {
                row_work = Some(idx);
            }
        }
        if let Some(idx) = hit {
            self.issue_column(idx, storage);
            return None;
        }
        let Some(idx) = row_work else {
            return Some(idle_until);
        };
        let timing = self.cfg.timing;
        let row = self.queue[idx].decoded.row;
        let bank = &mut self.banks[self.queue[idx].decoded.bank];
        if bank.open_row().is_some() {
            bank.precharge(now, &timing);
            self.stats.row_conflicts += 1;
        } else {
            bank.activate(now, row, &timing);
            self.queue[idx].caused_act = true;
            self.stats.row_misses += 1;
        }
        None
    }

    fn fe_permits(&self, storage: &Storage, req: &MemRequest) -> bool {
        match req.kind {
            RequestKind::FeLoad => storage.is_full(req.addr),
            RequestKind::FeStore => !storage.is_full(req.addr),
            _ => true,
        }
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
        (storage.read_vec(addr, len), poisoned)
    }

    fn issue_column(&mut self, idx: usize, storage: &mut Storage) {
        let mut txn = self.queue.remove(idx).expect("index in range");
        for younger in self.queue.iter_mut().skip(idx) {
            younger.older_conflicts -= usize::from(conflicts(&txn.req, &younger.req));
        }
        let now = self.now;
        let timing = self.cfg.timing;
        // A request spanning several columns of one row issues its
        // column commands tCCD apart (same bank); the data occupies the
        // shared bus for one burst per column.
        let len = txn.req.payload_len() as u64;
        let col = self.cfg.col_bytes as u64;
        let cols = ((txn.req.addr % col) + len).div_ceil(col).max(1);
        let last_cmd = now + (cols - 1) * timing.t_ccd();
        let data_start =
            (last_cmd + timing.t_cl()).max(self.bus_free_at + (cols - 1) * self.cfg.burst_cycles);
        let burst_end = data_start + self.cfg.burst_cycles;
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

        txn.caused_act = false;
        self.completions.push(PendingCompletion {
            at: burst_end,
            response,
            latency: burst_end - txn.enqueued,
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
    // The scheduler as it stood before it became incremental, kept
    // verbatim as the reference the production `tick` is differentially
    // tested against: every transaction re-derives its older-conflict
    // test by scanning the queue ahead of it, the queue is walked twice
    // a cycle, and nothing is ever skipped.
    impl VaultController {
        fn reference_tick(&mut self, storage: &mut Storage, out: &mut Vec<MemResponse>) {
            self.now += 1;
            if !self.queue.is_empty() || !self.completions.is_empty() {
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

        fn reference_older_conflict(&self, idx: usize) -> bool {
            let txn = &self.queue[idx];
            if txn.req.is_full_empty() {
                return false;
            }
            let (start, end) = (txn.req.addr, txn.req.addr + txn.req.payload_len() as u64);
            self.queue.iter().take(idx).any(|older| {
                !older.req.is_full_empty()
                    && start < older.req.addr + older.req.payload_len() as u64
                    && older.req.addr < end
            })
        }

        fn reference_schedule(&mut self, storage: &mut Storage) {
            let now = self.now;
            let hit_idx = (0..self.queue.len()).find(|&i| {
                let txn = &self.queue[i];
                self.banks[txn.decoded.bank].can_access(now, txn.decoded.row)
                    && self.fe_permits(storage, &txn.req)
                    && !self.reference_older_conflict(i)
            });
            if let Some(idx) = hit_idx {
                self.issue_column(idx, storage);
                return;
            }
            for idx in 0..self.queue.len() {
                let (bank_idx, row) = (self.queue[idx].decoded.bank, self.queue[idx].decoded.row);
                if !self.fe_permits(storage, &self.queue[idx].req)
                    || self.reference_older_conflict(idx)
                {
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
                        self.queue[idx].caused_act = true;
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

    /// A request stream built to collide: a handful of columns over two
    /// rows of two banks, partial-column writes at 8-byte offsets, and
    /// full-empty load/store pairs queued in either order.
    fn random_requests(
        rng: &mut SplitMix64,
        cfg: &MemConfig,
        next_id: &mut u64,
    ) -> Vec<MemRequest> {
        let mut id = || {
            *next_id += 1;
            *next_id
        };
        let bank = rng.below(2) * cfg.row_bytes as u64;
        let row = rng.below(2) * (cfg.banks_per_vault * cfg.row_bytes) as u64;
        let granule = cfg.request_granule() as u64;
        let column = bank + row + rng.below(3) * granule;
        match rng.below(10) {
            0 => {
                // Sync words live past the plain columns' granules.
                let word = column + 4 * granule + 8 * rng.below(2);
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
    /// a fresh controller and re-saved (the derived counts and the wake
    /// bound must come back without being in the bytes), and the copy
    /// carries on. Now and then it jumps with `next_event`/`skip_to`
    /// instead of ticking, which the reference never does.
    fn differential(cfg: &MemConfig, seed: u64, cycles: Cycle, load_pct: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut fast = VaultController::new(0, cfg.clone());
        let mut slow = VaultController::new(0, cfg.clone());
        let (mut fast_mem, mut slow_mem) = (Storage::new(), Storage::new());
        let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
        let (mut next_id, mut retired) = (0, 0);
        while slow.now < cycles {
            if slow.now == cycles / 2 {
                let bytes = fast.saved();
                let mut copy = VaultController::new(0, cfg.clone());
                copy.restore_state(&mut Reader::new(&bytes)).unwrap();
                assert_eq!(
                    copy.saved(),
                    bytes,
                    "seed {seed:#x}: restore re-saves differently"
                );
                fast = copy;
            }
            if rng.below(100) < load_pct {
                let reqs = random_requests(&mut rng, cfg, &mut next_id);
                if slow.queue.len() + reqs.len() <= cfg.trans_queue_depth {
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
        let configs = [
            MemConfig::baseline(),
            MemConfig::closed_page(),
            MemConfig::with_hmc_packets(),
            quick_refresh,
            faulty,
        ];
        for_each_seed("incremental_scheduler_matches", 0x5c4e_d000, 12, |seed| {
            for cfg in &configs {
                // A trickle, a busy queue, and a queue held full.
                for load_pct in [8, 45, 100] {
                    differential(cfg, seed ^ load_pct, 6_000, load_pct);
                }
            }
        });
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
