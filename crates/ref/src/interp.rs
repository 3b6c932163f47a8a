//! The architectural reference interpreter.
//!
//! Executes VIP programs functionally, with no notion of time: each PE
//! runs its instruction stream in program order, and memory operations
//! take effect immediately. This is the architectural contract the
//! cycle-level model must preserve — the PE executes instructions
//! functionally *at issue* in program order, and the LSU/vault ordering
//! rules make same-PE memory traffic look sequential — so for any legal
//! program the two must reach identical final state. Vector results
//! are computed lane by lane through the semantic definitions
//! ([`alu::vertical`], [`alu::reduce`]), not through the buffer kernels
//! ([`alu::mat_vec`] and friends) the engines call, so the differential
//! fuzzer is an oracle for those kernels too.
//!
//! The only inter-PE coupling is through shared DRAM, including its
//! full-empty bits. Those are the one place the architecture exposes
//! *synchronization*, so the interpreter models blocking: a `ld.reg.fe`
//! on an empty word (or `st.reg.ff` on a full one) parks the PE, and
//! [`RefSystem::run`] round-robins the PEs until all halt, reporting a
//! deadlock if a round passes with every live PE parked. Programs whose
//! final state depends on inter-PE races beyond that pairwise handoff
//! discipline are not conformance-testable; the fuzzer's generator is
//! careful to emit only race-free programs.

use std::fmt;

use vip_core::PeArchState;
use vip_isa::{alu, ElemType, Instruction, Program, Reg, Trap, NUM_REGS};
use vip_mem::Storage;

/// What one interpreted step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An instruction executed (or the PE just halted).
    Progress,
    /// The PE is parked on a full-empty word in the wrong state.
    Blocked,
    /// The PE has halted.
    Halted,
}

/// Why a reference run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefRunError {
    /// A PE executed an illegal instruction.
    Trap {
        /// The PE that trapped.
        pe: usize,
        /// Program counter of the trapping instruction.
        pc: usize,
        /// The trapping instruction.
        inst: Instruction,
        /// The architectural trap.
        trap: Trap,
    },
    /// Every live PE is parked on a full-empty word: the program can
    /// never finish.
    Deadlock {
        /// PEs still parked.
        blocked: Vec<usize>,
    },
    /// The program exceeded the interpreter's step budget (a runaway
    /// loop).
    StepLimit,
}

impl fmt::Display for RefRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefRunError::Trap { pe, pc, inst, trap } => {
                write!(f, "pe{pe} trapped at pc {pc} (`{inst}`): {trap}")
            }
            RefRunError::Deadlock { blocked } => {
                write!(f, "full-empty deadlock; blocked PEs: {blocked:?}")
            }
            RefRunError::StepLimit => write!(f, "step limit exceeded (runaway loop?)"),
        }
    }
}

impl std::error::Error for RefRunError {}

/// Bytes in `elems` elements of `ty`. Element counts are guest register
/// values: a product past the address space pins at `usize::MAX`, so it
/// fails the scratchpad range check (and is reported as that length)
/// rather than wrapping into a legal one.
fn byte_len(elems: usize, ty: ElemType) -> usize {
    elems.saturating_mul(ty.size_bytes())
}

/// One PE of the reference machine: registers, scratchpad, PC, and the
/// vector configuration — nothing else, because nothing else is
/// architectural — plus the size of the DRAM it addresses.
#[derive(Debug, Clone)]
pub struct RefPe {
    program: Program,
    pc: usize,
    halted: bool,
    regs: [u64; NUM_REGS],
    sp: Vec<u8>,
    vl: usize,
    mr: usize,
    dram_bytes: u64,
}

impl RefPe {
    /// A PE with a `bytes`-byte scratchpad over `dram_bytes` of DRAM, and
    /// no program (halted).
    #[must_use]
    pub fn new(bytes: usize, dram_bytes: u64) -> Self {
        RefPe {
            program: Program::default(),
            pc: 0,
            halted: true,
            regs: [0; NUM_REGS],
            sp: vec![0; bytes],
            vl: 1,
            mr: 1,
            dram_bytes,
        }
    }

    /// Loads a program and resets the PC.
    pub fn load_program(&mut self, program: &Program) {
        self.program = program.clone();
        self.pc = 0;
        self.halted = program.is_empty();
    }

    /// Whether the PE has halted.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Host access to a scalar register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Host mutation of a scalar register.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Host access to the scratchpad image.
    #[must_use]
    pub fn scratchpad(&self) -> &[u8] {
        &self.sp
    }

    /// Host mutation of the scratchpad (test preloading).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the scratchpad.
    pub fn write_scratchpad(&mut self, addr: usize, bytes: &[u8]) {
        self.sp[addr..addr + bytes.len()].copy_from_slice(bytes);
    }

    /// This PE's architectural state, in the same shape the cycle-level
    /// [`vip_core::Pe::arch_state`] reports for comparison.
    #[must_use]
    pub fn arch_state(&self) -> PeArchState {
        PeArchState {
            regs: self.regs,
            scratchpad: self.sp.clone(),
        }
    }

    fn sp_read(&self, addr: usize, len: usize) -> Result<Vec<u8>, Trap> {
        Trap::check_sp_range(addr, len, self.sp.len())?;
        Ok(self.sp[addr..addr + len].to_vec())
    }

    fn sp_write(&mut self, addr: usize, data: &[u8]) -> Result<(), Trap> {
        Trap::check_sp_range(addr, data.len(), self.sp.len())?;
        self.sp[addr..addr + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// The DRAM word a register load-store addresses through `rs`:
    /// 8-byte aligned, then inside the memory.
    fn reg_word(&self, rs: Reg) -> Result<u64, Trap> {
        let dram = self.regs[rs.index()];
        Trap::check_reg_addr(dram)?;
        Trap::check_dram_range(dram, 8, self.dram_bytes)?;
        Ok(dram)
    }

    /// Executes at most one instruction against `mem`.
    ///
    /// A blocked full-empty access leaves the PC unchanged and returns
    /// [`Step::Blocked`]; the caller retries after other PEs have run.
    ///
    /// # Errors
    ///
    /// Returns the [`Trap`] for an illegal instruction (the cycle-level
    /// PE panics on the same programs).
    pub fn step(&mut self, mem: &mut Storage) -> Result<Step, Trap> {
        if self.halted {
            return Ok(Step::Halted);
        }
        let Some(inst) = self.program.get(self.pc).copied() else {
            // Fell off the end of the program: treat as halt.
            self.halted = true;
            return Ok(Step::Halted);
        };

        use Instruction::*;
        match inst {
            SetVl { rs } => {
                let vl = self.regs[rs.index()] as usize;
                Trap::check_vl(vl)?;
                self.vl = vl;
            }
            SetMr { rs } => {
                let mr = self.regs[rs.index()] as usize;
                Trap::check_mr(mr)?;
                self.mr = mr;
            }
            VDrain | MemFence | Nop => {}
            MatVec {
                vop,
                hop,
                ty,
                rd,
                rs_mat,
                rs_vec,
            } => {
                let (vl, mr) = (self.vl, self.mr);
                let row = byte_len(vl, ty);
                let d = self.regs[rd.index()] as usize;
                let mat =
                    self.sp_read(self.regs[rs_mat.index()] as usize, mr.saturating_mul(row))?;
                let vec = self.sp_read(self.regs[rs_vec.index()] as usize, row)?;
                // No longer than the matrix just read (`vl` is at least 1).
                let mut dst = vec![0u8; byte_len(mr, ty)];
                for r in 0..mr {
                    let sum = (0..vl).fold(alu::reduce_identity(hop, ty), |acc, i| {
                        let m = alu::read_lane(&mat, r * vl + i, ty);
                        let x = alu::vertical(vop, ty, m, alu::read_lane(&vec, i, ty));
                        alu::reduce(hop, ty, acc, x)
                    });
                    alu::write_lane(&mut dst, r, ty, sum);
                }
                self.sp_write(d, &dst)?;
            }
            VecVec {
                op,
                ty,
                rd,
                rs1,
                rs2,
            } => {
                let len = byte_len(self.vl, ty);
                let d = self.regs[rd.index()] as usize;
                let a = self.sp_read(self.regs[rs1.index()] as usize, len)?;
                let b = self.sp_read(self.regs[rs2.index()] as usize, len)?;
                let mut dst = vec![0u8; len];
                for i in 0..self.vl {
                    let (x, y) = (alu::read_lane(&a, i, ty), alu::read_lane(&b, i, ty));
                    alu::write_lane(&mut dst, i, ty, alu::vertical(op, ty, x, y));
                }
                self.sp_write(d, &dst)?;
            }
            VecScalar {
                op,
                ty,
                rd,
                rs_vec,
                rs_scalar,
            } => {
                let len = byte_len(self.vl, ty);
                let d = self.regs[rd.index()] as usize;
                let a = self.sp_read(self.regs[rs_vec.index()] as usize, len)?;
                let s = alu::truncate_scalar(ty, self.regs[rs_scalar.index()]);
                let mut dst = vec![0u8; len];
                for i in 0..self.vl {
                    let x = alu::read_lane(&a, i, ty);
                    alu::write_lane(&mut dst, i, ty, alu::vertical(op, ty, x, s));
                }
                self.sp_write(d, &dst)?;
            }
            Scalar { op, rd, rs1, rs2 } => {
                self.regs[rd.index()] = op.eval(self.regs[rs1.index()], self.regs[rs2.index()]);
            }
            ScalarImm { op, rd, rs1, imm } => {
                self.regs[rd.index()] = op.eval(self.regs[rs1.index()], imm as i64 as u64);
            }
            Mov { rd, rs } => self.regs[rd.index()] = self.regs[rs.index()],
            MovImm { rd, imm } => self.regs[rd.index()] = imm as u64,
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.regs[rs1.index()], self.regs[rs2.index()]) {
                    self.pc = target as usize;
                } else {
                    self.pc += 1;
                }
                return Ok(Step::Progress);
            }
            Jmp { target } => {
                self.pc = target as usize;
                return Ok(Step::Progress);
            }
            LdSram {
                ty,
                rd_sp,
                rs_addr,
                rs_len,
            } => {
                let sp = self.regs[rd_sp.index()] as usize;
                let dram = self.regs[rs_addr.index()];
                let len = byte_len(self.regs[rs_len.index()] as usize, ty);
                Trap::check_sp_range(sp, len, self.sp.len())?;
                Trap::check_dram_range(dram, len, self.dram_bytes)?;
                let data = mem.read_vec(dram, len);
                self.sp_write(sp, &data)?;
            }
            StSram {
                ty,
                rs_sp,
                rs_addr,
                rs_len,
            } => {
                let sp = self.regs[rs_sp.index()] as usize;
                let dram = self.regs[rs_addr.index()];
                let len = byte_len(self.regs[rs_len.index()] as usize, ty);
                let data = self.sp_read(sp, len)?;
                Trap::check_dram_range(dram, len, self.dram_bytes)?;
                mem.write(dram, &data);
            }
            LdReg { rd, rs_addr } => {
                let dram = self.reg_word(rs_addr)?;
                self.regs[rd.index()] = mem.read_u64(dram);
            }
            StReg { rs, rs_addr } => {
                let dram = self.reg_word(rs_addr)?;
                mem.write_u64(dram, self.regs[rs.index()]);
            }
            LdRegFe { rd, rs_addr } => {
                let dram = self.reg_word(rs_addr)?;
                if !mem.is_full(dram) {
                    return Ok(Step::Blocked);
                }
                self.regs[rd.index()] = mem.read_u64(dram);
                mem.set_full(dram, false);
            }
            StRegFf { rs, rs_addr } => {
                let dram = self.reg_word(rs_addr)?;
                if mem.is_full(dram) {
                    return Ok(Step::Blocked);
                }
                mem.write_u64(dram, self.regs[rs.index()]);
                mem.set_full(dram, true);
            }
            Halt => {
                self.halted = true;
                return Ok(Step::Progress);
            }
        }
        self.pc += 1;
        Ok(Step::Progress)
    }
}

/// The whole reference machine: `n` PEs sharing one flat DRAM image.
#[derive(Debug, Clone)]
pub struct RefSystem {
    pes: Vec<RefPe>,
    mem: Storage,
}

impl RefSystem {
    /// `num_pes` PEs with `scratchpad_bytes` scratchpads over empty DRAM
    /// of `dram_bytes` (a transfer past it traps).
    #[must_use]
    pub fn new(num_pes: usize, scratchpad_bytes: usize, dram_bytes: u64) -> Self {
        RefSystem {
            pes: (0..num_pes)
                .map(|_| RefPe::new(scratchpad_bytes, dram_bytes))
                .collect(),
            mem: Storage::new(),
        }
    }

    /// The PEs.
    #[must_use]
    pub fn pes(&self) -> &[RefPe] {
        &self.pes
    }

    /// Mutable PE access (host initialization).
    pub fn pe_mut(&mut self, pe: usize) -> &mut RefPe {
        &mut self.pes[pe]
    }

    /// The DRAM image.
    #[must_use]
    pub fn mem(&self) -> &Storage {
        &self.mem
    }

    /// Mutable DRAM access (host initialization).
    pub fn mem_mut(&mut self) -> &mut Storage {
        &mut self.mem
    }

    /// Loads `program` into PE `pe`.
    pub fn load_program(&mut self, pe: usize, program: &Program) {
        self.pes[pe].load_program(program);
    }

    /// Runs every PE to completion, round-robin with run-to-block
    /// scheduling: each round, every live PE executes until it halts or
    /// parks on a full-empty word; parked PEs retry next round after
    /// their peers have run.
    ///
    /// `max_steps` bounds total executed instructions across all PEs.
    ///
    /// # Errors
    ///
    /// [`RefRunError::Trap`] for an illegal instruction,
    /// [`RefRunError::Deadlock`] if a whole round passes with every live
    /// PE parked, [`RefRunError::StepLimit`] past the step budget.
    pub fn run(&mut self, max_steps: u64) -> Result<(), RefRunError> {
        let mut steps = 0u64;
        loop {
            let mut progressed = false;
            let mut blocked = Vec::new();
            for i in 0..self.pes.len() {
                loop {
                    let pe = &mut self.pes[i];
                    let (pc, inst) = (pe.pc, pe.program.get(pe.pc).copied());
                    match pe.step(&mut self.mem) {
                        Ok(Step::Progress) => {
                            progressed = true;
                            steps += 1;
                            if steps > max_steps {
                                return Err(RefRunError::StepLimit);
                            }
                        }
                        Ok(Step::Blocked) => {
                            blocked.push(i);
                            break;
                        }
                        Ok(Step::Halted) => break,
                        Err(trap) => {
                            return Err(RefRunError::Trap {
                                pe: i,
                                pc,
                                inst: inst.unwrap_or(Instruction::Nop),
                                trap,
                            });
                        }
                    }
                }
            }
            if self.pes.iter().all(|pe| pe.halted) {
                return Ok(());
            }
            if !progressed {
                return Err(RefRunError::Deadlock { blocked });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_isa::Asm;

    const DRAM: u64 = 1 << 28;

    #[test]
    fn scalar_loop_sums() {
        // Sum 0..10 with a backwards branch.
        let mut a = Asm::new();
        a.mov_imm(Reg::new(1), 0); // acc
        a.mov_imm(Reg::new(2), 0); // i
        a.mov_imm(Reg::new(3), 10); // limit
        a.label("loop");
        a.add(Reg::new(1), Reg::new(1), Reg::new(2));
        a.addi(Reg::new(2), Reg::new(2), 1);
        a.blt(Reg::new(2), Reg::new(3), "loop");
        a.halt();
        let p = a.assemble().unwrap();

        let mut sys = RefSystem::new(1, 4096, DRAM);
        sys.load_program(0, &p);
        sys.run(10_000).unwrap();
        assert_eq!(sys.pes()[0].reg(Reg::new(1)), 45);
    }

    #[test]
    fn vector_add_matches_alu() {
        let mut a = Asm::new();
        a.mov_imm(Reg::new(1), 16); // vl
        a.set_vl(Reg::new(1));
        a.mov_imm(Reg::new(2), 0); // src a
        a.mov_imm(Reg::new(3), 32); // src b
        a.mov_imm(Reg::new(4), 64); // dst
        a.vec_vec(
            vip_isa::VerticalOp::Add,
            ElemType::I16,
            Reg::new(4),
            Reg::new(2),
            Reg::new(3),
        );
        a.halt();
        let p = a.assemble().unwrap();

        let mut sys = RefSystem::new(1, 4096, DRAM);
        for i in 0..16u16 {
            let off = i as usize * 2;
            sys.pe_mut(0).sp[off..off + 2].copy_from_slice(&i.to_le_bytes());
            sys.pe_mut(0).sp[32 + off..32 + off + 2].copy_from_slice(&(100 * i).to_le_bytes());
        }
        sys.load_program(0, &p);
        sys.run(10_000).unwrap();
        for i in 0..16u16 {
            let off = 64 + i as usize * 2;
            let got = i16::from_le_bytes([sys.pes()[0].sp[off], sys.pes()[0].sp[off + 1]]);
            assert_eq!(got, (101 * i) as i16);
        }
    }

    #[test]
    fn full_empty_handoff_and_deadlock() {
        // PE 0 produces into an empty word; PE 1 consumes it.
        let addr = 0x1000u64;
        let mut prod = Asm::new();
        prod.mov_imm(Reg::new(1), addr as i64);
        prod.mov_imm(Reg::new(2), 0xfeed);
        prod.st_reg_ff(Reg::new(2), Reg::new(1));
        prod.halt();
        let mut cons = Asm::new();
        cons.mov_imm(Reg::new(1), addr as i64);
        cons.ld_reg_fe(Reg::new(3), Reg::new(1));
        cons.halt();

        // Consumer first in the round-robin order: it must park, then
        // be woken by the producer.
        let mut sys = RefSystem::new(2, 4096, DRAM);
        sys.load_program(0, &cons.assemble().unwrap());
        sys.load_program(1, &prod.assemble().unwrap());
        sys.run(10_000).unwrap();
        assert_eq!(sys.pes()[0].reg(Reg::new(3)), 0xfeed);
        assert!(!sys.mem().is_full(addr), "fe load clears the bit");

        // A lone consumer with nobody filling the word deadlocks.
        let mut cons2 = Asm::new();
        cons2.mov_imm(Reg::new(1), addr as i64);
        cons2.ld_reg_fe(Reg::new(3), Reg::new(1));
        cons2.halt();
        let mut sys = RefSystem::new(1, 4096, DRAM);
        sys.load_program(0, &cons2.assemble().unwrap());
        assert_eq!(
            sys.run(10_000),
            Err(RefRunError::Deadlock { blocked: vec![0] })
        );
    }

    #[test]
    fn traps_are_reported_not_panicked() {
        let mut a = Asm::new();
        a.mov_imm(Reg::new(1), 4096); // one past the end
        a.mov_imm(Reg::new(2), 0x100);
        a.mov_imm(Reg::new(3), 4);
        a.ld_sram(ElemType::I16, Reg::new(1), Reg::new(2), Reg::new(3));
        a.halt();
        let mut sys = RefSystem::new(1, 4096, DRAM);
        sys.load_program(0, &a.assemble().unwrap());
        match sys.run(10_000) {
            Err(RefRunError::Trap {
                pe: 0, pc: 3, trap, ..
            }) => {
                assert!(matches!(trap, Trap::ScratchpadOutOfBounds { .. }));
            }
            other => panic!("expected a trap, got {other:?}"),
        }

        // Lengths are products of guest registers. 2^63 i16 elements
        // are 2^64 bytes: the length pins at the top of the address
        // space and fails the range check; it does not wrap to zero.
        let mut a = Asm::new();
        a.mov_imm(Reg::new(1), 1);
        a.slli(Reg::new(1), Reg::new(1), 63);
        a.set_vl(Reg::new(1));
        a.vec_vec(
            vip_isa::VerticalOp::Add,
            ElemType::I16,
            Reg::new(2),
            Reg::new(2),
            Reg::new(2),
        );
        a.halt();
        let mut sys = RefSystem::new(1, 4096, DRAM);
        sys.load_program(0, &a.assemble().unwrap());
        let Err(RefRunError::Trap { pc: 3, trap, .. }) = sys.run(10_000) else {
            panic!("vl = 2^63 must trap at the vector op");
        };
        assert_eq!(
            trap,
            Trap::ScratchpadOutOfBounds {
                addr: 0,
                len: usize::MAX,
                capacity: 4096
            }
        );
    }

    #[test]
    fn dram_transfers_stay_inside_the_memory() {
        // `st.sram` of four i32s, then a word through `ld.reg` and one
        // through `st.reg.ff`, at `dram`: the first trap, if any.
        let run = |dram: i64| {
            let mut a = Asm::new();
            a.mov_imm(Reg::new(1), 0)
                .mov_imm(Reg::new(2), dram)
                .mov_imm(Reg::new(3), 4)
                .st_sram(ElemType::I32, Reg::new(1), Reg::new(2), Reg::new(3))
                .ld_reg(Reg::new(4), Reg::new(2))
                .st_reg_ff(Reg::new(4), Reg::new(2))
                .halt();
            let mut sys = RefSystem::new(1, 4096, DRAM);
            sys.load_program(0, &a.assemble().unwrap());
            match sys.run(100) {
                Ok(()) => None,
                Err(RefRunError::Trap { pc, trap, .. }) => Some((pc, trap)),
                Err(e) => panic!("{e}"),
            }
        };
        let dram_trap = |pc, addr, len| {
            let trap = Trap::DramOutOfBounds {
                addr,
                len,
                capacity: DRAM,
            };
            Some((pc, trap))
        };
        let top = DRAM as i64;
        assert_eq!(run(top - 16), None, "the last 16 bytes are memory");
        assert_eq!(run(top - 8), dram_trap(3, DRAM - 8, 16));
        assert_eq!(run(top), dram_trap(3, DRAM, 16));
        // A transfer that would wrap the address space traps like any other.
        assert_eq!(run(-8), dram_trap(3, u64::MAX - 7, 16));
        // The register word's own checks: alignment first, then bounds.
        let mut a = Asm::new();
        a.mov_imm(Reg::new(2), top)
            .ld_reg(Reg::new(4), Reg::new(2))
            .halt();
        let mut sys = RefSystem::new(1, 4096, DRAM);
        sys.load_program(0, &a.assemble().unwrap());
        let Err(RefRunError::Trap { trap, .. }) = sys.run(100) else {
            panic!("a word at the capacity must trap");
        };
        assert_eq!(trap, dram_trap(1, DRAM, 8).unwrap().1);
        let mut a = Asm::new();
        a.mov_imm(Reg::new(2), top + 1)
            .ld_reg(Reg::new(4), Reg::new(2))
            .halt();
        let mut sys = RefSystem::new(1, 4096, DRAM);
        sys.load_program(0, &a.assemble().unwrap());
        let Err(RefRunError::Trap { trap, .. }) = sys.run(100) else {
            panic!("a misaligned word must trap");
        };
        assert_eq!(trap, Trap::MisalignedRegAccess { addr: DRAM + 1 });
    }

    #[test]
    fn a_zero_length_transfer_is_a_no_op_up_to_the_capacity() {
        for (sp, ok) in [(0, true), (4096, true), (4097, false)] {
            let mut a = Asm::new();
            a.mov_imm(Reg::new(1), sp);
            a.mov_imm(Reg::new(2), 0x100);
            a.ld_sram(ElemType::I64, Reg::new(1), Reg::new(2), Reg::new(3));
            a.st_sram(ElemType::I64, Reg::new(1), Reg::new(2), Reg::new(3));
            a.halt();
            let mut sys = RefSystem::new(1, 4096, DRAM);
            sys.load_program(0, &a.assemble().unwrap());
            assert_eq!(sys.run(10_000).is_ok(), ok, "scratchpad address {sp}");
            assert!(sys.pes()[0].scratchpad().iter().all(|&b| b == 0));
        }
    }
}
