//! The functional execution tier: block-cached architectural
//! interpretation with sampled cycle-accurate timing windows.
//!
//! The cycle-level engines spend most of their time re-deciding, every
//! cycle, that a dense vector kernel is about to do the obvious thing.
//! This tier removes that per-cycle cost: straight-line blocks are
//! decoded once (see [`vip_isa::scan_block`]), cached keyed on
//! `(program fingerprint, pc)`, and executed as tight loops that touch
//! only architectural state — scalar registers, the scratchpad, DRAM
//! contents and full-empty bits — plus the retirement counters. No LSU,
//! no ARC, no queues, no clock.
//!
//! This module also holds the PE datapath itself. [`execute`] is the
//! one routine that says what a compute instruction *does* — operands,
//! [`vip_isa::alu`], writeback, retirement counters, trap checks in the
//! reference interpreter's order — and [`vector_ranges`] the one that
//! says where its operands lie. The cycle model (`Pe::dispatch`) issues
//! into the same routine and adds vector-unit occupancy, the ARC
//! interlock and the LSU around it; this tier adds only memory
//! operations that take effect at once. `vip-ref`'s interpreter is
//! deliberately a separate implementation: it is what both are
//! checked against.
//!
//! Correctness contract: for fault-free programs, the architectural
//! state after a functional run is **bit-identical** to the
//! cycle-accurate engines' — compute instructions retire through the
//! same code, and full-empty operations resolve atomically
//! against the same backing store the vault controllers use. Cycle
//! counts, by contrast, are *estimates* — extrapolated from sampled
//! accurate windows — and stall/active-cycle breakdowns are not
//! maintained. Anything that needs exact timing (live fault injection,
//! trap reporting, hang diagnosis) drops back to the cycle-accurate
//! model; the functional engine's pass through `System::advance`
//! owns that orchestration.
//!
//! Execution within a block is transactional with respect to traps: an
//! instruction reads all sources (performing the checks, in reference
//! order) before writing anything, so a trapping pc can be handed to
//! the cycle-accurate engine to re-dispatch and report the identical
//! typed error with identical statistics.

use vip_faults::{fault_fires, fault_value, FaultDomain};
use vip_isa::{alu, Block, BlockEnd, ElemType, Instruction, Reg, Trap};
use vip_mem::Storage;
use vip_snap::snapshot_struct;

use crate::pe::FuncParts;
use crate::scalar::ScalarRegs;
use crate::vector::VectorUnit;
use crate::Cycle;

/// Duty-cycle knobs for the functional tier: tuning state, in neither
/// the snapshot nor its fingerprint (set them on a restore target too).
/// Runs with different knobs end in the same architectural state; only
/// the timing estimate and wall-clock speed differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncConfig {
    /// Cycle-accurate cycles run at the head of each timing window
    /// before measurement starts (warms pipelines and vault queues out
    /// of the post-stretch cold start).
    pub warmup_cycles: Cycle,
    /// Cycle-accurate cycles measured per window; cycles-per-work-unit
    /// over this span calibrates the extrapolation.
    pub sample_cycles: Cycle,
    /// Work units (see `PeStats::work_units`) the busiest PE may retire
    /// functionally between timing windows. Together with the window
    /// length this sets the duty cycle — and the speedup ceiling.
    pub stretch_work: u64,
    /// Work units one PE may retire per round-robin turn. Small enough
    /// that a spin-waiting PE cannot race arbitrarily far ahead of the
    /// partner it is waiting on; large enough to amortize the turn
    /// overhead.
    pub quantum: u64,
    /// Cycle budget for draining in-flight machine state to idle at a
    /// window/stretch boundary before falling back to another accurate
    /// window.
    pub drain_cycles: Cycle,
}

impl Default for FuncConfig {
    /// Defaults tuned on the dense-tile benches (`sim_throughput`):
    /// ~10-15x over the event-driven engine with cycle-estimate error
    /// around 1%. Warmups much below ~1000 cycles start the sample
    /// inside the post-drain cold-start transient (empty pipelines,
    /// DMA still in flight) and skew the measured rate badly.
    fn default() -> Self {
        FuncConfig {
            warmup_cycles: 1_000,
            sample_cycles: 8_000,
            stretch_work: 150_000,
            quantum: 2_048,
            drain_cycles: 20_000,
        }
    }
}

/// The functional tier's clock: what its timing windows have measured,
/// and whether it has handed off for good. Machine state, so it travels
/// in the snapshot and a restored run keeps its calibration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FuncClock {
    /// Decayed (cycles, work units) history of the measured samples.
    accum: (Cycle, u64),
    /// Doublings of the configured sample length (see `observe`).
    pub(crate) boost: u64,
    /// The tier handed off to the cycle-accurate engine for good: it
    /// met a trap or a deadlock, which only that engine may report.
    pub(crate) poisoned: bool,
}

snapshot_struct!(FuncClock {
    accum,
    boost,
    poisoned
});

impl FuncClock {
    /// Whether a sample has measured the rate: every fold adds at least
    /// one work unit after the halving.
    pub(crate) fn calibrated(&self) -> bool {
        self.accum.1 > 0
    }

    /// Cycles `work` work units take at the measured rate (nominal 1
    /// cycle/work-unit before the first sample). `work_units`
    /// lower-bounds real occupancy, so estimates start optimistic.
    pub(crate) fn estimate(&self, work: u64) -> Cycle {
        if work == 0 {
            return 0;
        }
        let (dt, dw) = if self.calibrated() {
            self.accum
        } else {
            (1, 1)
        };
        let est = (u128::from(work) * u128::from(dt)) / u128::from(dw);
        Cycle::try_from(est).unwrap_or(Cycle::MAX).max(1)
    }

    /// Folds in one window's sample: `dw` work units retired by the
    /// busiest PE over `dt` cycles of a `sample`-cycle window.
    pub(crate) fn observe(&mut self, dt: Cycle, dw: u64, sample: Cycle) {
        if dw == 0 {
            // Nothing retired while we watched: watch longer (up to 64x),
            // or a slow phase could retire all its work inside the drains.
            self.boost = (self.boost + 1).min(6);
            return;
        }
        self.boost = 0;
        // One window is noisy and a lifetime average never tracks a phase
        // change: halve the history once it spans 32 samples.
        let halve = u32::from(self.accum.0 > 32 * sample);
        self.accum = ((self.accum.0 >> halve) + dt, (self.accum.1 >> halve) + dw);
    }
}

/// Reusable scratch buffers for vector operands — the executor performs
/// no per-instruction allocation once these are warm. Sources are copied
/// out before the destination is written, so operands may overlap.
/// Scratch: each PE owns a set and none of it is ever serialized.
#[derive(Debug, Default)]
pub(crate) struct ExecBufs {
    a: Vec<u8>,
    b: Vec<u8>,
    d: Vec<u8>,
}

/// How one block execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockOutcome {
    /// Block fully retired; `pc` points at the next block.
    Continue,
    /// Block retired and the PE halted (`halt` or program end).
    Halted,
    /// Parked on a full-empty word at the ender; `pc` points at the
    /// ender for a later retry (functional or cycle-accurate).
    Blocked,
    /// An instruction would trap. No state was mutated by it and `pc`
    /// points at it; the cycle-accurate engine re-dispatches to raise
    /// the identical typed error.
    Trapped,
}

/// What the front end needs to time an instruction [`execute`] retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Retired {
    /// Done at issue; nothing occupies the vector unit.
    Next,
    /// A vector operation streaming `beats` beats through the datapath:
    /// through the multiplier array if `multiply`, and on into the
    /// horizontal reduction tree if `reduce` (`m.v`).
    Vector {
        beats: u64,
        multiply: bool,
        reduce: bool,
    },
}

/// The scratchpad ranges `(address, bytes)` of a vector instruction's
/// operands: sources first, destination last — the order the reference
/// interpreter checks them in. `v.s` has one source; its second range
/// is empty. This is the only place operand geometry is written: the
/// executor fetches through it and the issue stage's ARC interlock
/// checks the same ranges. The lengths are products of guest values,
/// so they saturate — an oversize operand fails the range check like
/// any other out-of-range one and never wraps into a legal length.
#[inline(always)]
pub(crate) fn vector_ranges(
    regs: &ScalarRegs,
    vec: &VectorUnit,
    inst: &Instruction,
) -> [(usize, usize); 3] {
    use Instruction::*;
    let at = |r: Reg| regs.read(r) as usize;
    let row = |ty: ElemType| vec.vl().saturating_mul(ty.size_bytes());
    match *inst {
        MatVec {
            ty,
            rd,
            rs_mat,
            rs_vec,
            ..
        } => [
            (at(rs_mat), vec.mr().saturating_mul(row(ty))),
            (at(rs_vec), row(ty)),
            (at(rd), vec.mr().saturating_mul(ty.size_bytes())),
        ],
        VecVec {
            ty, rd, rs1, rs2, ..
        } => [(at(rs1), row(ty)), (at(rs2), row(ty)), (at(rd), row(ty))],
        VecScalar { ty, rd, rs_vec, .. } => [(at(rs_vec), row(ty)), (0, 0), (at(rd), row(ty))],
        _ => unreachable!("{inst} has no vector operands"),
    }
}

/// The operands of `ld.sram` / `st.sram` as `(scratchpad address, DRAM
/// address, bytes)`; the length saturates like [`vector_ranges`]'.
#[inline(always)]
pub(crate) fn sram_operands(regs: &ScalarRegs, inst: &Instruction) -> (usize, u64, usize) {
    use Instruction::*;
    let (LdSram {
        ty,
        rd_sp: r_sp,
        rs_addr,
        rs_len,
    }
    | StSram {
        ty,
        rs_sp: r_sp,
        rs_addr,
        rs_len,
    }) = *inst
    else {
        unreachable!("{inst} is not a scratchpad transfer")
    };
    let len = (regs.read(rs_len) as usize).saturating_mul(ty.size_bytes());
    (regs.read(r_sp) as usize, regs.read(rs_addr), len)
}

/// Writes a scalar result, possibly flipping one bit if the PE
/// writeback injector fires at this (pe, retired-count) coordinate, and
/// retires the instruction. The register file has no ECC — this is the
/// one injector with no graceful-degradation net under it. The
/// functional tier only runs with inert fault wiring, so there the roll
/// never fires; rolling anyway keeps "wired at rate zero" runs
/// bit-identical to "disabled" runs in every counter, which the
/// fault-determinism suite asserts.
#[inline(always)]
fn scalar_writeback(p: &mut FuncParts<'_>, rd: Reg, v: u64) {
    let v = match p.faults {
        Some(f)
            if fault_fires(
                f.seed,
                FaultDomain::PeWriteback,
                p.id as u64,
                p.stats.instructions,
                f.writeback_flip_ppm,
            ) =>
        {
            p.stats.writeback_flips += 1;
            let bit = fault_value(
                f.seed,
                FaultDomain::PeWriteback,
                p.id as u64,
                p.stats.instructions,
            ) % 64;
            v ^ 1u64 << bit
        }
        _ => v,
    };
    p.regs.write(rd, v);
    p.stats.retire_scalar(1);
}

/// The body every vector operation shares: fetch the sources, `compute`
/// the destination lanes, write them back and charge the lane work.
/// All three ranges are checked — the destination before its buffer is
/// sized from it — ahead of the first write, so a trapping instruction
/// leaves no trace.
#[inline(always)]
fn vector_op(
    p: &mut FuncParts<'_>,
    inst: &Instruction,
    ty: ElemType,
    multiply: bool,
    reduce: bool,
    compute: impl FnOnce(&mut [u8], &[u8], &[u8]),
) -> Result<Retired, Trap> {
    let [a, b, d] = vector_ranges(p.regs, p.vec, inst);
    let bufs = &mut *p.bufs;
    bufs.a.clear();
    bufs.a.extend_from_slice(p.sp.slice(a.0, a.1)?);
    bufs.b.clear();
    bufs.b.extend_from_slice(p.sp.slice(b.0, b.1)?);
    Trap::check_sp_range(d.0, d.1, p.sp.len())?;
    bufs.d.clear();
    bufs.d.resize(d.1, 0);
    compute(&mut bufs.d, &bufs.a, &bufs.b);
    p.sp.slice_mut(d.0, d.1)?.copy_from_slice(&bufs.d);

    // `m.v` streams `mr` rows and follows each lane's vertical
    // operation with a horizontal one.
    let rows = if reduce { p.vec.mr() } else { 1 };
    let beats = rows as u64 * VectorUnit::beats(p.vec.vl(), ty);
    let lanes = (rows * p.vec.vl()) as u64;
    let lane_ops = if reduce { 2 * lanes } else { lanes };
    let mul_ops = if multiply { lanes } else { 0 };
    // One scratchpad port per operand: a read per source, the writeback.
    let ports = if b.1 == 0 { 2 } else { 3 };
    p.stats.retire_vector_op(lane_ops, mul_ops, ports, beats);
    Ok(Retired::Vector {
        beats,
        multiply,
        reduce,
    })
}

/// The PE datapath: executes one compute instruction architecturally —
/// operands read, [`vip_isa::alu`] applied, result written, retirement
/// counters bumped — with trap checks in the reference interpreter's
/// order, and reports what the front end needs to time it. Every
/// engine retires compute instructions here; the cycle model wraps
/// issue gating and vector-unit occupancy around it, the functional
/// tier nothing. Memory and control instructions are the caller's:
/// `other` handles whichever of them the caller has not already routed
/// elsewhere. Does **not** advance `pc`.
///
/// Inlined into both callers, resolvers and writeback included, so each
/// keeps a single `match` per instruction: the functional tier retires
/// one in about 15 ns, and a second, out-of-line level of dispatch
/// measured 2–3 % of its host time on the dense tiles.
#[inline(always)]
pub(crate) fn execute(
    p: &mut FuncParts<'_>,
    inst: &Instruction,
    other: impl FnOnce(&mut FuncParts<'_>) -> Result<(), Trap>,
) -> Result<Retired, Trap> {
    use Instruction::*;
    match *inst {
        SetVl { rs } => {
            p.vec.set_vl(p.regs.read(rs) as usize)?;
            p.stats.retire_vector(1);
        }
        SetMr { rs } => {
            p.vec.set_mr(p.regs.read(rs) as usize)?;
            p.stats.retire_vector(1);
        }
        MatVec { vop, hop, ty, .. } => {
            let (vl, mr) = (p.vec.vl(), p.vec.mr());
            return vector_op(p, inst, ty, vop.is_multiply(), true, |d, m, v| {
                alu::mat_vec(vop, hop, ty, d, m, v, mr, vl);
            });
        }
        VecVec { op, ty, .. } => {
            let vl = p.vec.vl();
            return vector_op(p, inst, ty, op.is_multiply(), false, |d, a, b| {
                alu::vec_vec(op, ty, d, a, b, vl);
            });
        }
        VecScalar {
            op, ty, rs_scalar, ..
        } => {
            let (vl, s) = (p.vec.vl(), p.regs.read(rs_scalar));
            return vector_op(p, inst, ty, op.is_multiply(), false, |d, a, _| {
                alu::vec_scalar(op, ty, d, a, s, vl);
            });
        }
        Scalar { op, rd, rs1, rs2 } => {
            let v = op.eval(p.regs.read(rs1), p.regs.read(rs2));
            scalar_writeback(p, rd, v);
        }
        ScalarImm { op, rd, rs1, imm } => {
            let v = op.eval(p.regs.read(rs1), imm as i64 as u64);
            scalar_writeback(p, rd, v);
        }
        Mov { rd, rs } => {
            let v = p.regs.read(rs);
            scalar_writeback(p, rd, v);
        }
        MovImm { rd, imm } => scalar_writeback(p, rd, imm as u64),
        VDrain | MemFence | Nop => p.stats.retire_front_end(),
        _ => other(p)?,
    }
    Ok(Retired::Next)
}

/// Retires a branch (`jmp` is one that is always taken) and moves `pc`;
/// a taken branch's work includes the front-end bubble behind it.
pub(crate) fn exec_branch(p: &mut FuncParts<'_>, taken: bool, target: u32) {
    if taken {
        p.stats.retire_scalar(1 + p.branch_penalty);
        *p.pc = target as usize;
    } else {
        p.stats.retire_scalar(1);
        *p.pc += 1;
    }
}

/// Executes one straight-line body instruction: [`execute`], plus what
/// is the functional tier's own — memory operations take effect at
/// once against `mem`, with no LSU, ARC or vault in between. (Register
/// fills bypass the writeback fault roll, as the LSU's completion path
/// does.)
fn exec_inst(p: &mut FuncParts<'_>, inst: &Instruction, mem: &mut Storage) -> Result<(), Trap> {
    execute(p, inst, |p| {
        use Instruction::*;
        match *inst {
            LdSram { .. } => {
                let (sp, dram, len) = sram_operands(p.regs, inst);
                let dst = p.sp.slice_mut(sp, len)?;
                Trap::check_dram_range(dram, len, p.dram_bytes)?;
                mem.read(dram, dst);
            }
            StSram { .. } => {
                let (sp, dram, len) = sram_operands(p.regs, inst);
                let src = p.sp.slice(sp, len)?;
                Trap::check_dram_range(dram, len, p.dram_bytes)?;
                mem.write(dram, src);
            }
            LdReg { rd, rs_addr } => {
                let dram = reg_word(p, rs_addr)?;
                let v = mem.read_u64(dram);
                p.regs.write(rd, v);
            }
            StReg { rs, rs_addr } => {
                let dram = reg_word(p, rs_addr)?;
                mem.write_u64(dram, p.regs.read(rs));
            }
            _ => unreachable!("block bodies contain only straight-line instructions"),
        }
        p.stats.retire_ldst();
        Ok(())
    })
    .map(drop)
}

/// The DRAM word a register load-store names through `rs_addr`, checked
/// as the LSU checks it at issue: aligned, then inside the stack.
fn reg_word(p: &FuncParts<'_>, rs_addr: Reg) -> Result<u64, Trap> {
    let dram = p.regs.read(rs_addr);
    Trap::check_reg_addr(dram)?;
    Trap::check_dram_range(dram, 8, p.dram_bytes)?;
    Ok(dram)
}

/// Executes one decoded block against a PE's architectural state.
///
/// Precondition: `*p.pc == block.start` and the PE is live. On return,
/// `pc` points wherever the outcome says; statistics reflect exactly the
/// instructions that retired.
pub(crate) fn exec_block(p: &mut FuncParts<'_>, block: &Block, mem: &mut Storage) -> BlockOutcome {
    debug_assert_eq!(*p.pc, block.start);
    for (i, inst) in block.body.iter().enumerate() {
        if exec_inst(p, inst, mem).is_err() {
            *p.pc = block.start + i;
            return BlockOutcome::Trapped;
        }
    }
    // The ender moves `pc` off itself only by retiring.
    *p.pc = block.end_pc();
    match block.end {
        BlockEnd::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let taken = cond.eval(p.regs.read(rs1), p.regs.read(rs2));
            exec_branch(p, taken, target);
            BlockOutcome::Continue
        }
        BlockEnd::Jmp { target } => {
            exec_branch(p, true, target);
            BlockOutcome::Continue
        }
        BlockEnd::LdRegFe { rd, rs_addr } => {
            let Ok(dram) = reg_word(p, rs_addr) else {
                return BlockOutcome::Trapped;
            };
            if !mem.is_full(dram) {
                return BlockOutcome::Blocked;
            }
            let v = mem.read_u64(dram);
            mem.set_full(dram, false);
            p.regs.write(rd, v);
            p.stats.retire_ldst();
            *p.pc += 1;
            BlockOutcome::Continue
        }
        BlockEnd::StRegFf { rs, rs_addr } => {
            let Ok(dram) = reg_word(p, rs_addr) else {
                return BlockOutcome::Trapped;
            };
            if mem.is_full(dram) {
                return BlockOutcome::Blocked;
            }
            mem.write_u64(dram, p.regs.read(rs));
            mem.set_full(dram, true);
            p.stats.retire_ldst();
            *p.pc += 1;
            BlockOutcome::Continue
        }
        BlockEnd::Halt => {
            p.stats.retire_front_end();
            *p.halted = true;
            BlockOutcome::Halted
        }
        BlockEnd::ProgramEnd => {
            // Falling off the end halts without retiring anything, as
            // `Pe::tick` does.
            *p.halted = true;
            BlockOutcome::Halted
        }
    }
}
