//! The VIP processing engine: front end, issue logic and timing.
//!
//! What an instruction *does* is `crate::fast_func::execute`, the
//! datapath every engine shares. This module decides when it may issue
//! ([`Pe::tick`]'s gating), sends memory operations to the LSU, and
//! times what the datapath retired.

use vip_faults::PeFaultConfig;
use vip_isa::{Instruction, Program, Reg, Trap};
use vip_mem::{MemRequest, MemResponse};
use vip_snap::{Reader, SnapError, Snapshot, Writer};

use crate::arc::ArcTable;
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::fast_func::{exec_branch, execute, sram_operands, vector_ranges, ExecBufs, Retired};
use crate::lsu::{LoadStoreUnit, LsuError};
use crate::scalar::ScalarRegs;
use crate::scratchpad::Scratchpad;
use crate::stats::PeStats;
use crate::vector::VectorUnit;
use crate::Cycle;

/// Why issue stalled this cycle (for the statistics breakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum StallReason {
    /// A scalar source (or overwritten destination) register's valid bit
    /// is clear — an `ld.reg` fill is in flight.
    ScalarOperand = 0,
    /// The vector unit is still streaming a previous instruction's beats.
    VectorBusy = 1,
    /// A scratchpad operand range overlaps a live ARC entry.
    ArcOverlap = 2,
    /// No free ARC entry for a new scratchpad load.
    ArcFull = 3,
    /// The load-store unit is at its 64-outstanding limit.
    LsqBusy = 4,
    /// `v.drain` waiting for the vector pipeline to empty.
    Drain = 5,
    /// `memfence` waiting for outstanding loads/stores.
    Fence = 6,
    /// Front-end bubble after a taken branch.
    BranchBubble = 7,
}

impl StallReason {
    /// Number of distinct reasons (sizes the stats array).
    pub const COUNT: usize = 8;

    /// All reasons, in index order.
    #[must_use]
    pub fn all() -> [StallReason; Self::COUNT] {
        [
            StallReason::ScalarOperand,
            StallReason::VectorBusy,
            StallReason::ArcOverlap,
            StallReason::ArcFull,
            StallReason::LsqBusy,
            StallReason::Drain,
            StallReason::Fence,
            StallReason::BranchBubble,
        ]
    }
}

/// What the front end would do at a given cycle (see `Pe::issue_state`).
///
/// The two stalled variants split on *what lifts the stall*: a
/// `StalledUntil` clears at a cycle the PE already knows (vector unit
/// free, branch bubble over), while a plain `Stalled` clears only when
/// external input arrives (a memory completion filling a register,
/// draining the LSQ, or retiring an ARC entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueState {
    /// An instruction issues (or the PE halts by falling off the end).
    Ready,
    /// Stalled; only an external event can unblock.
    Stalled(StallReason),
    /// Stalled until a locally-known cycle.
    StalledUntil(StallReason, Cycle),
}

/// A PE's architectural (ISA-visible) state, as extracted by
/// [`Pe::arch_state`] after the system quiesces. The cycle-level model
/// and the `vip-ref` architectural interpreter must agree on every field
/// for every program — that is the conformance contract the differential
/// fuzzer checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeArchState {
    /// All 64 scalar registers.
    pub regs: [u64; vip_isa::NUM_REGS],
    /// The full scratchpad image.
    pub scratchpad: Vec<u8>,
}

/// Mutable views of exactly the PE state the datapath touches (see
/// `crate::fast_func::execute`): the architectural state, the
/// statistics and the operand scratch, split apart so the functional
/// tier can borrow them alongside the system's DRAM storage. Timing
/// state (LSU, ARC, stall bookkeeping) is deliberately absent — it
/// belongs to the cycle model's front end, which wraps the datapath,
/// and the functional tier never consults it.
pub(crate) struct FuncParts<'a> {
    pub id: usize,
    pub pc: &'a mut usize,
    pub halted: &'a mut bool,
    pub regs: &'a mut ScalarRegs,
    pub sp: &'a mut Scratchpad,
    pub vec: &'a mut VectorUnit,
    pub stats: &'a mut PeStats,
    pub bufs: &'a mut ExecBufs,
    pub faults: Option<PeFaultConfig>,
    pub branch_penalty: u64,
    /// The memory stack's capacity, which no DRAM transfer may pass.
    pub dram_bytes: u64,
}

/// One retired-instruction trace record (see [`Pe::enable_trace`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the instruction issued.
    pub cycle: Cycle,
    /// Program counter.
    pub pc: usize,
    /// The instruction.
    pub inst: Instruction,
}

/// One VIP processing engine (§III-B, Figure 1).
///
/// Owned and clocked by [`System`](crate::System); unit tests may also
/// drive one directly. See the crate docs for the modelled pipeline
/// structure and its fidelity notes.
#[derive(Debug)]
pub struct Pe {
    id: usize,
    vault: usize,
    program: Program,
    pc: usize,
    halted: bool,
    regs: ScalarRegs,
    sp: Scratchpad,
    arc: ArcTable,
    vec: VectorUnit,
    lsu: LoadStoreUnit,
    stall_until: Cycle,
    branch_penalty: u64,
    multiply_latency: u64,
    reduce_latency: u64,
    stats: PeStats,
    /// Vector-operand scratch for the datapath. Never serialized.
    bufs: ExecBufs,
    faults: Option<PeFaultConfig>,
    trace: Option<Vec<TraceEvent>>,
    trace_limit: usize,
    /// Fingerprint of the loaded program (the block-cache key half the
    /// functional tier shares across SPMD PEs). Derived from the
    /// program, so not serialized.
    prog_fp: u64,
    /// Freeze gate for the functional tier's drain phase: a frozen PE
    /// still receives completions and emits queued LSU requests, but
    /// issues nothing new. Always false outside `System::drain_to_idle`,
    /// so snapshots never see it.
    frozen: bool,
    /// What [`issue_state`](Self::issue_state) is known to return —
    /// its last answer, kept while that still holds. A stall holds until
    /// its own deadline (`StalledUntil`) and `Ready` holds until the
    /// instruction issues (every time-dependent gate only ever opens),
    /// or until something that feeds `issue_state` changes, and every
    /// such change goes through [`wake`](Self::wake). Derived from the
    /// rest of the PE: never serialized.
    issue_memo: Option<IssueState>,
}

impl Pe {
    /// Creates PE `id` belonging to `vault` with `cfg`'s parameters.
    #[must_use]
    pub fn new(id: usize, vault: usize, cfg: &SystemConfig) -> Self {
        Pe {
            id,
            vault,
            program: Program::default(),
            pc: 0,
            halted: true, // no program loaded yet
            regs: ScalarRegs::new(),
            sp: Scratchpad::new(cfg.scratchpad_bytes),
            arc: ArcTable::new(cfg.arc_entries),
            vec: VectorUnit::new(),
            lsu: LoadStoreUnit::new(
                id,
                cfg.lsq_entries,
                cfg.mem.request_granule(),
                cfg.mem.total_bytes(),
            ),
            stall_until: 0,
            branch_penalty: cfg.branch_penalty,
            multiply_latency: cfg.multiply_latency,
            reduce_latency: cfg.reduce_latency,
            stats: PeStats::default(),
            bufs: ExecBufs::default(),
            faults: cfg.pe_faults,
            trace: None,
            trace_limit: 0,
            prog_fp: vip_isa::program_fingerprint(&Program::default()),
            frozen: false,
            issue_memo: None,
        }
    }

    /// Rewires the writeback fault injector (`None` disables it).
    pub fn set_faults(&mut self, faults: Option<PeFaultConfig>) {
        self.faults = faults;
    }

    /// Starts recording an issue trace of up to `limit` instructions
    /// (older events are kept; recording stops at the limit). Useful for
    /// debugging generated programs.
    pub fn enable_trace(&mut self, limit: usize) {
        self.trace = Some(Vec::new());
        self.trace_limit = limit;
    }

    /// The recorded trace (empty unless [`enable_trace`](Self::enable_trace)
    /// was called).
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// This PE's global index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The vault this PE lives in.
    #[must_use]
    pub fn vault(&self) -> usize {
        self.vault
    }

    /// Loads `program` into the instruction buffer and resets the PC.
    ///
    /// The program is passed through the 64-bit binary instruction
    /// encoding and decoded back — the instruction buffer holds encoded
    /// words in hardware, so anything a PE runs is guaranteed
    /// representable in the ISA's binary format.
    ///
    /// # Panics
    ///
    /// Panics if an instruction cannot be encoded (an immediate too wide
    /// for its field) — a code-generation bug.
    pub fn load_program(&mut self, program: &Program) {
        let decoded: Vec<_> = program
            .iter()
            .map(|inst| {
                let word = inst.encode().expect("program instructions are encodable");
                vip_isa::Instruction::decode(word).expect("encoded word decodes")
            })
            .collect();
        debug_assert_eq!(decoded.as_slice(), program.as_slice());
        self.program = Program::new(decoded);
        self.prog_fp = vip_isa::program_fingerprint(&self.program);
        self.pc = 0;
        self.halted = program.is_empty();
        self.wake();
    }

    /// Fingerprint of the loaded program (block-cache key half).
    pub(crate) fn prog_fp(&self) -> u64 {
        self.prog_fp
    }

    /// The loaded program (block scanning).
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// Freezes or thaws issue (see the `frozen` field).
    pub(crate) fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
        self.wake();
    }

    /// The live writeback-fault wiring (the functional tier's
    /// faults-active gate reads it).
    pub(crate) fn fault_config(&self) -> Option<PeFaultConfig> {
        self.faults
    }

    /// Stamps the active-cycle counter (the functional tier's clock
    /// advance; the cycle-accurate paths maintain it via `tick`).
    pub(crate) fn set_active_cycles(&mut self, c: Cycle) {
        self.stats.active_cycles = c;
    }

    /// Splits this PE into the parts the datapath needs.
    pub(crate) fn func_parts(&mut self) -> FuncParts<'_> {
        self.wake();
        FuncParts {
            id: self.id,
            pc: &mut self.pc,
            halted: &mut self.halted,
            regs: &mut self.regs,
            sp: &mut self.sp,
            vec: &mut self.vec,
            stats: &mut self.stats,
            bufs: &mut self.bufs,
            faults: self.faults,
            branch_penalty: self.branch_penalty,
            dram_bytes: self.lsu.dram_bytes(),
        }
    }

    /// Whether the PE has executed `halt` (or has no program).
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the front end will issue nothing more: halted, or frozen
    /// by the functional engine's drain until the thaw.
    pub(crate) fn is_stopped(&self) -> bool {
        self.halted || self.frozen
    }

    /// Whether the PE still has loads/stores or vector work in flight.
    #[must_use]
    pub fn is_quiesced(&self, now: Cycle) -> bool {
        self.lsu.is_empty() && self.vec.drained(now)
    }

    /// Sets a scalar register (host initialization).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs.write(r, value);
        self.wake();
    }

    /// Reads a scalar register (host inspection).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the register has a fill in flight.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs.read(r)
    }

    /// Host access to the scratchpad.
    #[must_use]
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.sp
    }

    /// Host mutation of the scratchpad (test preloading).
    pub fn scratchpad_mut(&mut self) -> &mut Scratchpad {
        self.wake();
        &mut self.sp
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &PeStats {
        &self.stats
    }

    /// Snapshot of this PE's architectural state: all 64 scalar registers
    /// and the full scratchpad image.
    ///
    /// Meaningful once the PE has quiesced (no register fills in flight);
    /// the differential conformance harness compares it against the
    /// architectural interpreter in `vip-ref`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any register still has a fill in flight.
    #[must_use]
    pub fn arch_state(&self) -> PeArchState {
        let mut regs = [0u64; vip_isa::NUM_REGS];
        for r in Reg::all() {
            regs[r.index()] = self.regs.read(r);
        }
        PeArchState {
            regs,
            scratchpad: self.sp.read(0, self.sp.len()).expect("full-range read"),
        }
    }

    /// The current program counter (watchdog/debug inspection).
    #[must_use]
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Why issue would stall at `now`, if it would (`None` when halted
    /// or ready to issue). Feeds the hang-diagnosis report.
    #[must_use]
    pub fn stall_reason(&self, now: Cycle) -> Option<StallReason> {
        if self.halted {
            return None;
        }
        match self.issue_state(now) {
            IssueState::Ready => None,
            IssueState::Stalled(reason) | IssueState::StalledUntil(reason, _) => Some(reason),
        }
    }

    /// Full-empty words this PE has synchronization requests parked on,
    /// as `(address, is_load)` sorted by address.
    #[must_use]
    pub fn fe_waits(&self) -> Vec<(u64, bool)> {
        self.lsu.fe_outstanding()
    }

    /// Applies a memory completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OrphanResponse`] if the response matches no
    /// in-flight request, or [`SimError::UncorrectableMemory`] if it
    /// carries ECC-poisoned data a load would have consumed.
    pub fn receive(&mut self, resp: &MemResponse) -> Result<(), SimError> {
        // A completion only frees: a register, an ARC entry, an LSQ slot.
        // That lifts a stall on external input, and can neither end a
        // stall with a deadline nor stop a ready instruction — unless it
        // overwrites a value the host wrote over the pending fill, which
        // a ready instruction may read.
        if matches!(self.issue_memo, Some(IssueState::Stalled(_))) {
            self.wake();
        }
        let overwrote = self
            .lsu
            .complete(resp, &mut self.sp, &mut self.regs, &mut self.arc)
            .map_err(|e| match e {
                LsuError::Orphan { id, outstanding } => SimError::OrphanResponse {
                    pe: self.id,
                    id,
                    outstanding,
                },
                LsuError::Poisoned { addr } => SimError::UncorrectableMemory { pe: self.id, addr },
            })?;
        if overwrote {
            self.wake();
        }
        Ok(())
    }

    /// Pulls at most one outbound memory request this cycle.
    pub fn emit_request(&mut self) -> Option<MemRequest> {
        let req = self.lsu.next_request();
        if req.is_some() && !self.lsq_has_room() {
            // The one input of `issue_state` a stalled PE changes by
            // itself: the request that fills the LSQ turns an `ArcFull`
            // stall into `LsqBusy`.
            self.wake();
        }
        req
    }

    fn stall(&mut self, reason: StallReason) {
        self.stats.stalls[reason as usize] += 1;
    }

    /// Forgets the memoised issue state: an input of
    /// [`issue_state`](Self::issue_state) may have changed.
    fn wake(&mut self) {
        self.issue_memo = None;
    }

    /// [`issue_state`](Self::issue_state) at `now`, answered from the
    /// memo while that still holds.
    fn probe(&self, now: Cycle) -> IssueState {
        match self.issue_memo {
            Some(IssueState::StalledUntil(_, until)) if now >= until => self.issue_state(now),
            Some(memo) => {
                debug_assert_eq!(
                    memo,
                    self.issue_state(now),
                    "PE {}: stale issue memo",
                    self.id
                );
                memo
            }
            None => self.issue_state(now),
        }
    }

    fn regs_ready(&self, inst: &Instruction) -> bool {
        self.regs.all_valid()
            || (inst.reads().iter().all(|&r| self.regs.is_valid(r))
                && inst.writes().is_none_or(|r| self.regs.is_valid(r)))
    }

    /// Probes what [`tick`](Self::tick) would do at `now` without doing
    /// it — the single source of truth for issue gating. `tick` dispatches
    /// only on [`IssueState::Ready`]; the fast stepping engine uses the
    /// stall variants to bound how far it may jump.
    ///
    /// The checks run in exactly `tick`'s priority order, so the reported
    /// stall reason matches the counter a cycle-by-cycle run would bump.
    fn issue_state(&self, now: Cycle) -> IssueState {
        debug_assert!(!self.halted);
        if now < self.stall_until {
            return IssueState::StalledUntil(StallReason::BranchBubble, self.stall_until);
        }
        let Some(inst) = self.program.get(self.pc) else {
            // Falling off the end halts at dispatch; that is progress.
            return IssueState::Ready;
        };
        if !self.regs_ready(inst) {
            return IssueState::Stalled(StallReason::ScalarOperand);
        }
        use Instruction::*;
        match *inst {
            VDrain => {
                if self.vec.drained(now) {
                    IssueState::Ready
                } else {
                    IssueState::StalledUntil(StallReason::Drain, self.vec.complete_at())
                }
            }
            MatVec { .. } | VecVec { .. } | VecScalar { .. } => {
                if !self.vec.ready(now) {
                    return IssueState::StalledUntil(
                        StallReason::VectorBusy,
                        self.vec.busy_until(),
                    );
                }
                if vector_ranges(&self.regs, &self.vec, inst)
                    .iter()
                    .any(|&(addr, len)| self.arc.overlaps(addr, len))
                {
                    return IssueState::Stalled(StallReason::ArcOverlap);
                }
                IssueState::Ready
            }
            LdSram { .. } | StSram { .. } => {
                let (sp, _, len) = sram_operands(&self.regs, inst);
                if self.arc.overlaps(sp, len) {
                    return IssueState::Stalled(StallReason::ArcOverlap);
                }
                if !self.lsq_has_room() {
                    return IssueState::Stalled(StallReason::LsqBusy);
                }
                if matches!(inst, LdSram { .. }) && !self.arc.has_free_entry() {
                    return IssueState::Stalled(StallReason::ArcFull);
                }
                IssueState::Ready
            }
            LdReg { .. } | LdRegFe { .. } | StReg { .. } | StRegFf { .. } => {
                if !self.lsq_has_room() {
                    return IssueState::Stalled(StallReason::LsqBusy);
                }
                IssueState::Ready
            }
            MemFence => {
                if self.lsu.is_empty() {
                    IssueState::Ready
                } else {
                    IssueState::Stalled(StallReason::Fence)
                }
            }
            _ => IssueState::Ready,
        }
    }

    /// A sound lower bound on the next cycle (strictly after `now`) at
    /// which this PE can make progress on its own: issue an instruction,
    /// emit a memory request (counted only if `emit`: the system has room
    /// to take one), or finish draining the vector pipeline. `None` means
    /// the PE only moves again on external input (a memory completion, or
    /// room for its emission), which the system tracks through its queues.
    #[must_use]
    pub fn next_event(&self, now: Cycle, emit: bool) -> Option<Cycle> {
        self.next_event_given(now, self.issue_probe(now + 1), emit)
    }

    /// [`next_event`](Self::next_event) for the stepping core. It also
    /// keeps the issue state it evaluated for `now + 1`, so the tick that
    /// the answer asks for does not evaluate it a second time.
    pub(crate) fn next_due(&mut self, now: Cycle, emit: bool) -> Option<Cycle> {
        let issue = self.issue_probe(now + 1);
        if issue.is_some() {
            self.issue_memo = issue;
        }
        self.next_event_given(now, issue, emit)
    }

    /// What the front end would do at `at`; `None` when it is halted or
    /// frozen and so does nothing.
    fn issue_probe(&self, at: Cycle) -> Option<IssueState> {
        (!self.halted && !self.frozen).then(|| self.probe(at))
    }

    fn next_event_given(&self, now: Cycle, issue: Option<IssueState>, emit: bool) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            debug_assert!(c > now);
            next = Some(next.map_or(c, |n: Cycle| n.min(c)));
        };
        match issue {
            Some(IssueState::Ready) => consider(now + 1),
            Some(IssueState::StalledUntil(_, at)) => consider(at),
            // External-dependency stalls (scalar operand, ARC, LSQ,
            // fence): lifted only by a completion arriving, which
            // the system's queue events cover.
            Some(IssueState::Stalled(_)) | None => {}
        }
        if emit && self.lsu.can_emit() {
            consider(now + 1);
        }
        if !self.vec.drained(now) {
            // Quiescence (and `v.drain`) watches this even after halt.
            consider(self.vec.complete_at());
        }
        next
    }

    /// Replays the cycles `(from, to]` as the no-op stall ticks they are
    /// guaranteed to be (the caller established via
    /// [`next_event`](Self::next_event) that nothing can issue in the
    /// window, and delivered it no completion), updating the per-cycle
    /// counters a cycle-by-cycle run would have accumulated. With no
    /// external input, the stall reason observed at `from + 1` holds for
    /// the whole window. This is how a PE the stepping core left asleep
    /// catches up, and it must run before whatever ends the sleep (a
    /// completion, a thaw) changes that reason.
    pub(crate) fn fast_forward(&mut self, from: Cycle, to: Cycle) {
        if self.halted || to <= from {
            return;
        }
        self.stats.active_cycles = to;
        if self.frozen {
            // Frozen issue is not a stall: the drain deliberately parked
            // the front end, so no counter should be charged.
            return;
        }
        match self.probe(from + 1) {
            IssueState::Ready => {
                debug_assert!(false, "fast-forward across a ready-to-issue cycle");
            }
            IssueState::Stalled(reason) | IssueState::StalledUntil(reason, _) => {
                self.stats.stalls[reason as usize] += to - from;
            }
        }
    }

    /// Advances the front end one cycle, issuing at most one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trap`] if the issued instruction is
    /// architecturally illegal (out-of-bounds scratchpad range, zero
    /// vector length, misaligned register address…). The trap carries
    /// this PE's id and the offending pc; architectural state is left as
    /// the reference interpreter leaves it at the same trap.
    pub fn tick(&mut self, now: Cycle) -> Result<(), SimError> {
        if self.halted {
            return Ok(());
        }
        self.stats.active_cycles = now;
        if self.frozen {
            return Ok(());
        }
        let state = self.probe(now);
        self.issue_memo = (state != IssueState::Ready).then_some(state);
        if let IssueState::Stalled(reason) | IssueState::StalledUntil(reason, _) = state {
            self.stall(reason);
            return Ok(());
        }
        let Some(inst) = self.program.get(self.pc).copied() else {
            // Fell off the end of the program: treat as halt.
            self.halted = true;
            return Ok(());
        };

        let issued_before = self.stats.instructions;
        let pc_before = self.pc;

        self.dispatch(now, inst).map_err(|trap| SimError::Trap {
            pe: self.id,
            pc: pc_before,
            trap,
        })?;

        if self.stats.instructions > issued_before {
            if let Some(trace) = &mut self.trace {
                if trace.len() < self.trace_limit {
                    trace.push(TraceEvent {
                        cycle: now,
                        pc: pc_before,
                        inst,
                    });
                }
            }
        }
        Ok(())
    }

    /// Issues one instruction: memory operations go to the LSU, control
    /// flow moves the front end, and everything else retires through the
    /// shared datapath ([`execute`]), which this then times — a vector
    /// operation occupies the vector unit for its beats plus the depth
    /// of the pipelines it runs through. Trap checks run in the same
    /// order as the `vip-ref` interpreter so both report the same trap
    /// for the same program.
    fn dispatch(&mut self, now: Cycle, inst: Instruction) -> Result<(), Trap> {
        use Instruction::*;
        match inst {
            LdSram { .. } => self.issue_ld_sram(&inst)?,
            StSram { .. } => self.issue_st_sram(&inst)?,
            LdReg { rd, rs_addr } => self.issue_ld_reg(rd, rs_addr, false)?,
            LdRegFe { rd, rs_addr } => self.issue_ld_reg(rd, rs_addr, true)?,
            StReg { rs, rs_addr } => self.issue_st_reg(rs, rs_addr, false)?,
            StRegFf { rs, rs_addr } => self.issue_st_reg(rs, rs_addr, true)?,
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.regs.read(rs1), self.regs.read(rs2));
                self.branch(now, taken, target);
            }
            Jmp { target } => self.branch(now, true, target),
            Halt => {
                self.stats.retire_front_end();
                self.halted = true;
            }
            _ => {
                let retired = execute(&mut self.func_parts(), &inst, |_| {
                    unreachable!("memory and control instructions are routed above")
                })?;
                if let Retired::Vector {
                    beats,
                    multiply,
                    reduce,
                } = retired
                {
                    let vert = if multiply { self.multiply_latency } else { 1 };
                    let horiz = if reduce { self.reduce_latency } else { 0 };
                    self.vec.issue(now, beats, vert + horiz);
                }
                self.pc += 1;
            }
        }
        Ok(())
    }

    fn branch(&mut self, now: Cycle, taken: bool, target: u32) {
        exec_branch(&mut self.func_parts(), taken, target);
        if taken {
            self.stall_until = now + 1 + self.branch_penalty;
        }
    }

    fn retire_ldst(&mut self) {
        self.stats.retire_ldst();
        self.pc += 1;
    }

    fn lsq_has_room(&self) -> bool {
        self.lsu.outstanding() < 64
    }

    fn issue_ld_sram(&mut self, inst: &Instruction) -> Result<(), Trap> {
        let (sp, dram, len) = sram_operands(&self.regs, inst);
        // Range checks before allocating the ARC entry so a trapping
        // instruction leaves no dangling range.
        Trap::check_sp_range(sp, len, self.sp.len())?;
        self.lsu.check_dram(dram, len)?;
        // A zero-length transfer moves nothing: it retires without an
        // ARC entry or an LSU operation (which must have a chunk to send).
        if len != 0 {
            let arc_id = self
                .arc
                .insert(sp, len)
                .expect("issue_state checked for a free ARC entry");
            self.lsu.push_load_sram(dram, sp, len, arc_id);
        }
        self.retire_ldst();
        Ok(())
    }

    fn issue_st_sram(&mut self, inst: &Instruction) -> Result<(), Trap> {
        let (sp, dram, len) = sram_operands(&self.regs, inst);
        let data = self.sp.slice(sp, len)?;
        self.lsu.check_dram(dram, len)?;
        if len != 0 {
            self.lsu.push_store_sram(dram, data);
        }
        self.retire_ldst();
        Ok(())
    }

    fn issue_ld_reg(&mut self, rd: Reg, rs_addr: Reg, full_empty: bool) -> Result<(), Trap> {
        let dram = self.regs.read(rs_addr);
        self.lsu.push_load_reg(dram, rd, full_empty)?;
        self.regs.invalidate(rd);
        self.retire_ldst();
        Ok(())
    }

    fn issue_st_reg(&mut self, rs: Reg, rs_addr: Reg, full_empty: bool) -> Result<(), Trap> {
        let dram = self.regs.read(rs_addr);
        let value = self.regs.read(rs);
        self.lsu.push_store_reg(dram, value, full_empty)?;
        self.retire_ldst();
        Ok(())
    }

    /// Serializes the PE's architectural and microarchitectural state:
    /// the loaded program (as encoded instruction words), front-end
    /// position, register file with valid bits, scratchpad, ARC table,
    /// vector-unit timing, LSU outstanding-request sets, and statistics.
    ///
    /// Structural parameters (`id`, `vault`, latencies) come from config
    /// at rebuild time; the issue trace is a host debug facility and is
    /// not captured.
    pub fn save_state(&self, w: &mut Writer) {
        w.usize(self.program.as_slice().len());
        for inst in self.program.iter() {
            w.u64(inst.encode().expect("loaded instructions are encodable"));
        }
        w.usize(self.pc);
        w.bool(self.halted);
        self.regs.save(w);
        self.sp.save(w);
        self.arc.save(w);
        self.vec.save(w);
        self.lsu.save_state(w);
        w.u64(self.stall_until);
        self.stats.save(w);
        self.faults.save(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto a PE
    /// freshly built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure, including instruction
    /// words that no longer decode.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        let len = r.count()?;
        let mut insts = Vec::with_capacity(len);
        for _ in 0..len {
            let word = r.u64()?;
            insts.push(
                Instruction::decode(word)
                    .map_err(|_| SnapError::Corrupt("undecodable instruction word"))?,
            );
        }
        self.program = Program::new(insts);
        self.prog_fp = vip_isa::program_fingerprint(&self.program);
        self.frozen = false;
        self.wake();
        self.pc = r.usize()?;
        self.halted = r.bool()?;
        self.regs = ScalarRegs::restore(r)?;
        self.sp = Scratchpad::restore(r)?;
        self.arc = ArcTable::restore(r)?;
        self.vec = VectorUnit::restore(r)?;
        self.lsu.restore_state(r)?;
        self.stall_until = r.u64()?;
        self.stats = PeStats::restore(r)?;
        self.faults = Option::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_isa::{alu, Asm, ElemType, VerticalOp};

    fn pe() -> Pe {
        Pe::new(0, 0, &SystemConfig::small_test())
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Runs the PE without any memory system (scalar/vector-only
    /// programs).
    fn run_local(pe: &mut Pe, max: u64) {
        for now in 1..=max {
            pe.tick(now).unwrap();
            if pe.is_halted() {
                return;
            }
        }
        panic!("PE did not halt in {max} cycles");
    }

    #[test]
    fn scalar_loop_computes() {
        let mut p = pe();
        let mut asm = Asm::new();
        // sum = 0; for i in 0..10 { sum += i }
        asm.mov_imm(r(1), 0) // i
            .mov_imm(r(2), 10)
            .mov_imm(r(3), 0) // sum
            .label("loop")
            .add(r(3), r(3), r(1))
            .addi(r(1), r(1), 1)
            .blt(r(1), r(2), "loop")
            .halt();
        p.load_program(&asm.assemble().unwrap());
        run_local(&mut p, 1000);
        assert_eq!(p.reg(r(3)), 45);
        assert!(p.stats().stalls_for(StallReason::BranchBubble) > 0);
    }

    #[test]
    fn vector_add_in_scratchpad() {
        let mut p = pe();
        // a at 0, b at 32, result at 64, vl=16 i16.
        for i in 0..16 {
            alu::write_lane(
                p.scratchpad_mut().slice_mut(0, 32).unwrap(),
                i,
                ElemType::I16,
                i as i64,
            );
            alu::write_lane(
                p.scratchpad_mut().slice_mut(32, 32).unwrap(),
                i,
                ElemType::I16,
                100,
            );
        }
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 16)
            .set_vl(r(1))
            .mov_imm(r(2), 0)
            .mov_imm(r(3), 32)
            .mov_imm(r(4), 64)
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .v_drain()
            .halt();
        p.load_program(&asm.assemble().unwrap());
        run_local(&mut p, 1000);
        for i in 0..16 {
            assert_eq!(
                alu::read_lane(p.scratchpad().slice(64, 32).unwrap(), i, ElemType::I16),
                100 + i as i64
            );
        }
        assert_eq!(p.stats().lane_ops, 16);
    }

    #[test]
    fn mat_vec_min_sum_matches_reference() {
        let mut p = pe();
        let ty = ElemType::I16;
        // 4x4 smoothness at 0, theta-hat at 128, result at 192.
        let smooth: Vec<i64> = (0..16).map(|i| (i % 5) as i64).collect();
        let theta: Vec<i64> = vec![3, 1, 4, 1];
        {
            let sp = p.scratchpad_mut();
            for (i, &v) in smooth.iter().enumerate() {
                alu::write_lane(sp.slice_mut(0, 32).unwrap(), i, ty, v);
            }
            for (i, &v) in theta.iter().enumerate() {
                alu::write_lane(sp.slice_mut(128, 8).unwrap(), i, ty, v);
            }
        }
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 4)
            .set_vl(r(1))
            .set_mr(r(1))
            .mov_imm(r(2), 0) // matrix
            .mov_imm(r(3), 128) // vector
            .mov_imm(r(4), 192) // dst
            .mat_vec(
                VerticalOp::Add,
                vip_isa::HorizontalOp::Min,
                ty,
                r(4),
                r(2),
                r(3),
            )
            .v_drain()
            .halt();
        p.load_program(&asm.assemble().unwrap());
        run_local(&mut p, 1000);
        for row in 0..4 {
            let expect = (0..4)
                .map(|i| smooth[row * 4 + i] + theta[i])
                .min()
                .unwrap();
            assert_eq!(
                alu::read_lane(p.scratchpad().slice(192, 8).unwrap(), row, ty),
                expect,
                "row {row}"
            );
        }
        // 2 ops per matrix element: add + min.
        assert_eq!(p.stats().lane_ops, 32);
    }

    #[test]
    fn vector_busy_stalls_issue() {
        let mut p = pe();
        let mut asm = Asm::new();
        // vl = 512 i16 = 1 KiB = 128 beats: the second op must wait.
        asm.mov_imm(r(1), 512)
            .set_vl(r(1))
            .mov_imm(r(2), 0)
            .mov_imm(r(3), 1024)
            .mov_imm(r(4), 2048)
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .halt();
        p.load_program(&asm.assemble().unwrap());
        run_local(&mut p, 2000);
        assert!(
            p.stats().stalls_for(StallReason::VectorBusy) >= 127,
            "second vector op should wait out the first's 128 beats; stalled {}",
            p.stats().stalls_for(StallReason::VectorBusy)
        );
    }

    #[test]
    fn falls_off_end_halts() {
        let mut p = pe();
        let mut asm = Asm::new();
        asm.nop();
        p.load_program(&asm.assemble().unwrap());
        run_local(&mut p, 10);
        assert!(p.is_halted());
    }

    #[test]
    fn empty_program_is_halted() {
        let mut p = pe();
        p.load_program(&Program::default());
        assert!(p.is_halted());
    }

    #[test]
    fn out_of_bounds_vector_op_is_a_typed_error() {
        let mut p = pe();
        let mut asm = Asm::new();
        // vl = 4096 i16 = 8 KiB: twice the scratchpad.
        asm.mov_imm(r(1), 4096)
            .set_vl(r(1))
            .mov_imm(r(2), 0)
            .vec_vec(VerticalOp::Add, ElemType::I16, r(2), r(2), r(2))
            .halt();
        p.load_program(&asm.assemble().unwrap());
        let err = (1..100)
            .find_map(|now| p.tick(now).err())
            .expect("the vector op must trap");
        assert_eq!(
            err,
            SimError::Trap {
                pe: 0,
                pc: 3,
                trap: Trap::ScratchpadOutOfBounds {
                    addr: 0,
                    len: 8192,
                    capacity: 4096
                }
            }
        );

        // Sources in range, destination two bytes over the end: the
        // trap names the destination, and nothing was written or
        // counted on the way to it.
        let mut p = pe();
        p.scratchpad_mut().write(0, &[1; 64]).unwrap();
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 16)
            .set_vl(r(1))
            .mov_imm(r(2), 0)
            .mov_imm(r(3), 4096 - 30)
            .vec_vec(VerticalOp::Add, ElemType::I16, r(3), r(2), r(2))
            .halt();
        p.load_program(&asm.assemble().unwrap());
        let err = (1..100)
            .find_map(|now| p.tick(now).err())
            .expect("the vector op must trap");
        assert_eq!(
            err,
            SimError::Trap {
                pe: 0,
                pc: 4,
                trap: Trap::ScratchpadOutOfBounds {
                    addr: 4096 - 30,
                    len: 32,
                    capacity: 4096
                }
            }
        );
        assert_eq!(p.scratchpad().slice(4096 - 30, 30).unwrap(), [0; 30]);
        assert_eq!((p.stats().instructions, p.stats().lane_ops), (4, 0));
    }

    #[test]
    fn writeback_flips_fire_and_are_counted() {
        let program = {
            let mut asm = Asm::new();
            asm.mov_imm(r(1), 0);
            for _ in 0..64 {
                asm.addi(r(1), r(1), 1);
            }
            asm.halt();
            asm.assemble().unwrap()
        };
        let mut clean = pe();
        clean.load_program(&program);
        run_local(&mut clean, 1000);
        assert_eq!(clean.stats().writeback_flips, 0);

        let mut faulty = pe();
        faulty.set_faults(Some(PeFaultConfig {
            seed: 0xf11b,
            writeback_flip_ppm: vip_faults::PPM_SCALE as u32, // every writeback
        }));
        faulty.load_program(&program);
        run_local(&mut faulty, 1000);
        assert_eq!(
            faulty.stats().writeback_flips,
            65,
            "mov_imm + 64 addi writebacks all flip"
        );
        assert_ne!(faulty.reg(r(1)), clean.reg(r(1)), "corruption is visible");
    }

    // ---- stall-memo invariants -------------------------------------

    /// Two copies of one PE driven in lockstep: `memo` as production
    /// runs it, `fresh` with its issue memo dropped before every tick so
    /// each cycle is re-derived by `issue_state`. Whatever the
    /// host does to both in between, they must never differ.
    struct Lockstep {
        memo: Pe,
        fresh: Pe,
        now: Cycle,
    }

    impl Lockstep {
        fn new(asm: &Asm) -> Self {
            let program = asm.assemble().unwrap();
            let (mut memo, mut fresh) = (pe(), pe());
            memo.load_program(&program);
            fresh.load_program(&program);
            Lockstep {
                memo,
                fresh,
                now: 0,
            }
        }

        fn both(&mut self, f: impl Fn(&mut Pe)) {
            f(&mut self.memo);
            f(&mut self.fresh);
        }

        /// One cycle; returns the request the LSU emitted, if any.
        fn tick(&mut self) -> Option<MemRequest> {
            self.now += 1;
            self.fresh.wake();
            self.memo.tick(self.now).unwrap();
            self.fresh.tick(self.now).unwrap();
            assert_eq!(self.memo.stats(), self.fresh.stats(), "cycle {}", self.now);
            assert_eq!(self.memo.pc(), self.fresh.pc(), "cycle {}", self.now);
            assert_eq!(
                self.memo.next_event(self.now, true),
                self.fresh.next_event(self.now, true)
            );
            let req = self.memo.emit_request();
            assert_eq!(req, self.fresh.emit_request());
            // As the stepping core ends a visit: the due time, which
            // leaves the answer for the next cycle — `Ready` included —
            // in the memo.
            assert_eq!(
                self.memo.next_due(self.now, true),
                self.fresh.next_event(self.now, true)
            );
            req
        }

        fn ticks(&mut self, n: u64) {
            for _ in 0..n {
                self.tick();
            }
        }

        fn run_to_halt(&mut self) {
            while !self.memo.is_halted() {
                assert!(self.now < 10_000, "PE did not halt");
                self.tick();
            }
        }

        fn stall(&self) -> Option<StallReason> {
            self.memo.stall_reason(self.now + 1)
        }
    }

    /// vl = 512 i16 (128 beats), operands at 0 / 1024, result at 2048.
    fn long_vector_setup(asm: &mut Asm) {
        asm.mov_imm(r(1), 512)
            .set_vl(r(1))
            .mov_imm(r(2), 0)
            .mov_imm(r(3), 1024)
            .mov_imm(r(4), 2048);
    }

    #[test]
    fn a_completion_mid_stall_changes_the_reason() {
        let mut asm = Asm::new();
        long_vector_setup(&mut asm);
        asm.mov_imm(r(6), 64)
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .ld_reg(r(2), r(6))
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .halt();
        let mut l = Lockstep::new(&asm);
        let mut req = None;
        while req.is_none() {
            req = l.tick();
        }
        let req = req.unwrap();
        l.ticks(20);
        assert_eq!(l.stall(), Some(StallReason::ScalarOperand));
        // The fill lands while the first vector op still streams: the
        // operand stall turns into a vector-busy stall with a deadline.
        let resp = MemResponse {
            id: req.id,
            kind: req.kind,
            addr: req.addr,
            data: 0u64.to_le_bytes().to_vec(),
            poisoned: false,
        };
        l.both(|p| p.receive(&resp).unwrap());
        assert_eq!(l.stall(), Some(StallReason::VectorBusy));
        l.run_to_halt();
        let stats = l.memo.stats();
        assert!(stats.stalls_for(StallReason::ScalarOperand) >= 20);
        assert!(stats.stalls_for(StallReason::VectorBusy) > 50);
    }

    #[test]
    fn a_fill_over_a_host_written_register_wakes_a_ready_front_end() {
        // The host writes r2 while its fill is in flight, and the front
        // end, ready for the `v.v` that reads it, holds that answer; the
        // fill then lands a value that puts the `v.v`'s sources on the
        // range a scratchpad load still holds.
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 0)
            .mov_imm(r(3), 4096)
            .mov_imm(r(4), 32)
            .mov_imm(r(5), 8192)
            .mov_imm(r(6), 16)
            .mov_imm(r(8), 2048)
            .set_vl(r(6))
            .ld_sram(ElemType::I16, r(1), r(3), r(4)) // ARC [0, 64)
            .ld_reg(r(2), r(5))
            .nop()
            .nop()
            .nop()
            .nop()
            .vec_vec(VerticalOp::Add, ElemType::I16, r(8), r(2), r(2))
            .halt();
        let mut l = Lockstep::new(&asm);
        let mut fill = None;
        while l.memo.pc() < 12 {
            if let Some(req) = l.tick() {
                fill = (req.addr == 8192).then_some(req).or(fill);
            }
        }
        let fill = fill.expect("the ld.reg went out with the nops");
        l.both(|p| p.set_reg(r(2), 1024));
        l.tick();
        assert_eq!(l.stall(), None, "ready with the host's r2");
        let resp = MemResponse {
            id: fill.id,
            kind: fill.kind,
            addr: fill.addr,
            data: 0u64.to_le_bytes().to_vec(),
            poisoned: false,
        };
        l.both(|p| p.receive(&resp).unwrap());
        l.tick();
        assert_eq!(l.stall(), Some(StallReason::ArcOverlap));
    }

    #[test]
    fn deadline_stalls_lift_exactly_at_their_deadline() {
        // Branch bubbles, vector-busy and drain stalls all carry a
        // deadline; the lockstep harness pins the cycle each one lifts.
        let mut asm = Asm::new();
        long_vector_setup(&mut asm);
        asm.mov_imm(r(7), 0)
            .mov_imm(r(8), 3)
            .label("again")
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .vec_vec(VerticalOp::Mul, ElemType::I16, r(4), r(2), r(3))
            .v_drain()
            .addi(r(7), r(7), 1)
            .blt(r(7), r(8), "again")
            .halt();
        let mut l = Lockstep::new(&asm);
        l.run_to_halt();
        let stats = l.memo.stats();
        assert!(stats.stalls_for(StallReason::VectorBusy) >= 3 * 127);
        assert!(stats.stalls_for(StallReason::Drain) > 0);
        assert!(stats.stalls_for(StallReason::BranchBubble) > 0);

        // And the simplest deadline by hand: a taken jump at cycle 1
        // bubbles the front end for exactly `branch_penalty` cycles.
        let mut asm = Asm::new();
        asm.jmp("next").label("next").halt();
        let mut p = pe();
        p.load_program(&asm.assemble().unwrap());
        let penalty = SystemConfig::small_test().branch_penalty;
        for now in 1..=1 + penalty {
            p.tick(now).unwrap();
            assert!(!p.is_halted(), "halted early at {now}");
        }
        p.tick(2 + penalty).unwrap();
        assert!(p.is_halted());
        assert_eq!(p.stats().stalls_for(StallReason::BranchBubble), penalty);
    }

    #[test]
    fn filling_the_lsq_turns_arc_full_into_lsq_busy() {
        // 21 unrolled loads of five requests each, one every three
        // cycles: the 21st finds the 20-entry ARC full with the LSU
        // still behind, and while it waits the LSU's own emissions take
        // the last of the 64 LSQ slots — the one stall a PE changes the
        // reason of by itself.
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 0) // scratchpad cursor
            .mov_imm(r(2), 1 << 20) // DRAM cursor
            .mov_imm(r(3), 80); // i16 elements: 160 B
        for _ in 0..21 {
            asm.ld_sram(ElemType::I16, r(1), r(2), r(3))
                .addi(r(1), r(1), 160)
                .addi(r(2), r(2), 160);
        }
        asm.halt();
        let mut l = Lockstep::new(&asm);
        while l.stall() != Some(StallReason::ArcFull) {
            assert!(l.now < 200, "never filled the ARC");
            l.tick();
        }
        l.ticks(20);
        assert_eq!(l.stall(), Some(StallReason::LsqBusy));
        let stats = l.memo.stats();
        assert!(stats.stalls_for(StallReason::ArcFull) > 0);
        assert!(stats.stalls_for(StallReason::LsqBusy) > 0);
    }

    #[test]
    fn freeze_host_writes_and_restore_mid_stall() {
        let mut asm = Asm::new();
        long_vector_setup(&mut asm);
        asm.mov_imm(r(6), 4096) // scratchpad destination of the load
            .mov_imm(r(9), 32)
            .ld_sram(ElemType::I16, r(2), r(6), r(9)) // covers [0, 64)
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
            .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(3), r(3))
            .halt();
        let mut l = Lockstep::new(&asm);
        l.ticks(30);
        assert_eq!(l.stall(), Some(StallReason::ArcOverlap));

        // Frozen cycles charge nothing; the thaw resumes the same stall.
        let stalled = l.memo.stats().stalls_for(StallReason::ArcOverlap);
        l.both(|p| p.set_frozen(true));
        l.ticks(5);
        assert_eq!(l.memo.stats().stalls_for(StallReason::ArcOverlap), stalled);
        l.both(|p| p.set_frozen(false));
        l.ticks(5);
        assert_eq!(l.stall(), Some(StallReason::ArcOverlap));

        // Save mid-stall and carry on from the restored copy: the memo
        // is not in the bytes and comes back by itself.
        let save = |p: &Pe| {
            let mut w = Writer::new();
            p.save_state(&mut w);
            w.into_bytes()
        };
        let (bytes, saved_at) = (save(&l.memo), l.now);
        assert_eq!(bytes, save(&l.fresh));
        let mut copy = pe();
        copy.restore_state(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(save(&copy), bytes);
        l.memo = copy;
        l.ticks(5);
        assert_eq!(l.stall(), Some(StallReason::ArcOverlap));

        // The host moves the first operand off the loading range: the
        // overlap is gone on the very next cycle, no completion needed.
        l.both(|p| p.set_reg(r(2), 1024));
        l.tick();
        assert_eq!(l.stall(), Some(StallReason::VectorBusy));
        assert_eq!(l.memo.stats().vector_instructions, 2, "setvl + first v.v");

        // Rolling both back onto the earlier image (a used PE, holding
        // a memo of the wrong stall) returns to the overlap stall.
        l.ticks(3);
        l.both(|p| p.restore_state(&mut Reader::new(&bytes)).unwrap());
        l.now = saved_at;
        l.ticks(5);
        assert_eq!(l.stall(), Some(StallReason::ArcOverlap));
    }

    use vip_isa::Program;
}
