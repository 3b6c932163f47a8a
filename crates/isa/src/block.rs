//! Decoded straight-line blocks for the functional execution tier.
//!
//! A [`Block`] is a maximal straight-line run of instructions starting
//! at some PC: the body carries every instruction that unconditionally
//! falls through to the next one, and the [`BlockEnd`] names the single
//! instruction (or program-end condition) that decides where control
//! goes next. Scanning is purely syntactic — whether an instruction can
//! *trap* at runtime depends on register values, so trap handling stays
//! with the executor, not the scanner.
//!
//! Block enders are exactly the points where a functional interpreter
//! must stop and consult machine state it does not own:
//!
//! * [`Branch`](Instruction::Branch) / [`Jmp`](Instruction::Jmp) —
//!   control leaves the straight line;
//! * [`LdRegFe`](Instruction::LdRegFe) / [`StRegFf`](Instruction::StRegFf)
//!   — full-empty synchronization can block on another PE;
//! * [`Halt`](Instruction::Halt) and falling off the end of the
//!   program — the PE stops.

use crate::inst::Instruction;
use crate::ops::BranchCond;
use crate::program::Program;
use crate::types::Reg;

/// How a straight-line block hands control onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockEnd {
    /// A conditional branch: taken goes to `target`, not-taken falls
    /// through to the instruction after the branch.
    Branch {
        /// Branch condition.
        cond: BranchCond,
        /// First comparison operand.
        rs1: Reg,
        /// Second comparison operand.
        rs2: Reg,
        /// Taken-path PC.
        target: u32,
    },
    /// An unconditional jump to `target`.
    Jmp {
        /// Destination PC.
        target: u32,
    },
    /// A full-empty load (`ld.reg.fe`): may block until the word fills.
    LdRegFe {
        /// Destination register.
        rd: Reg,
        /// Register holding the DRAM address.
        rs_addr: Reg,
    },
    /// A full-empty store (`st.reg.ff`): may block until the word
    /// empties.
    StRegFf {
        /// Register holding the value to store.
        rs: Reg,
        /// Register holding the DRAM address.
        rs_addr: Reg,
    },
    /// An explicit `halt`.
    Halt,
    /// The scan ran off the end of the program (which halts the PE).
    ProgramEnd,
}

/// One decoded straight-line block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// PC of the first body instruction (or of the ender, for an empty
    /// body).
    pub start: usize,
    /// The straight-line instructions, in program order.
    pub body: Vec<Instruction>,
    /// What terminates the block.
    pub end: BlockEnd,
}

impl Block {
    /// PC of the ender instruction ([`BlockEnd::ProgramEnd`]: one past
    /// the last program instruction).
    #[must_use]
    pub fn end_pc(&self) -> usize {
        self.start + self.body.len()
    }

    /// Fall-through PC after the ender (meaningful for a not-taken
    /// branch or a completed full-empty op).
    #[must_use]
    pub fn next_pc(&self) -> usize {
        self.end_pc() + 1
    }
}

/// Scans the maximal straight-line block starting at `pc`.
///
/// Always succeeds: a `pc` at or past the end of the program yields an
/// empty body with [`BlockEnd::ProgramEnd`].
#[must_use]
pub fn scan_block(program: &Program, pc: usize) -> Block {
    let mut body = Vec::new();
    let mut at = pc;
    loop {
        let Some(inst) = program.get(at).copied() else {
            return Block {
                start: pc,
                body,
                end: BlockEnd::ProgramEnd,
            };
        };
        use Instruction::*;
        let end = match inst {
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Some(BlockEnd::Branch {
                cond,
                rs1,
                rs2,
                target,
            }),
            Jmp { target } => Some(BlockEnd::Jmp { target }),
            LdRegFe { rd, rs_addr } => Some(BlockEnd::LdRegFe { rd, rs_addr }),
            StRegFf { rs, rs_addr } => Some(BlockEnd::StRegFf { rs, rs_addr }),
            Halt => Some(BlockEnd::Halt),
            _ => None,
        };
        match end {
            Some(end) => {
                return Block {
                    start: pc,
                    body,
                    end,
                };
            }
            None => {
                body.push(inst);
                at += 1;
            }
        }
    }
}

/// FNV-1a over a program's encoded instruction words — the key that
/// makes decoded blocks shareable across PEs running the same (SPMD)
/// program and safely discardable when a different program loads.
///
/// The accumulator is written out here rather than taken from
/// `vip_snap::Fingerprint` (the same FNV-1a): `vip-isa` depends on no
/// crate and `vip-snap` not on it, so sharing one would add a dependency
/// edge for six lines. The key lives only in memory, so nothing requires
/// the two to agree.
///
/// # Panics
///
/// Panics if an instruction cannot be encoded — the same
/// code-generation bug `Pe::load_program` rejects.
#[must_use]
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for inst in program.iter() {
        let word = inst.encode().expect("program instructions are encodable");
        for byte in word.to_le_bytes() {
            mix(byte);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Asm;
    use crate::types::ElemType;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn scans_up_to_a_branch() {
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 0)
            .mov_imm(r(2), 10)
            .label("loop")
            .addi(r(1), r(1), 1)
            .blt(r(1), r(2), "loop")
            .halt();
        let p = asm.assemble().unwrap();

        let b = scan_block(&p, 0);
        assert_eq!(b.start, 0);
        assert_eq!(b.body.len(), 3);
        assert_eq!(
            b.end,
            BlockEnd::Branch {
                cond: crate::ops::BranchCond::Lt,
                rs1: r(1),
                rs2: r(2),
                target: 2,
            }
        );
        assert_eq!(b.end_pc(), 3);
        assert_eq!(b.next_pc(), 4);

        // Re-scanning from the loop head sees only the loop body.
        let b = scan_block(&p, 2);
        assert_eq!(b.body.len(), 1);
        assert_eq!(b.end_pc(), 3);

        // The halt is its own (empty-body) block.
        let b = scan_block(&p, 4);
        assert!(b.body.is_empty());
        assert_eq!(b.end, BlockEnd::Halt);
    }

    #[test]
    fn sync_ops_end_blocks() {
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 0x100)
            .ld_reg_fe(r(2), r(1))
            .st_reg_ff(r(2), r(1))
            .halt();
        let p = asm.assemble().unwrap();
        let b = scan_block(&p, 0);
        assert_eq!(b.body.len(), 1);
        assert_eq!(
            b.end,
            BlockEnd::LdRegFe {
                rd: r(2),
                rs_addr: r(1)
            }
        );
        let b = scan_block(&p, 2);
        assert!(b.body.is_empty());
        assert_eq!(
            b.end,
            BlockEnd::StRegFf {
                rs: r(2),
                rs_addr: r(1)
            }
        );
    }

    #[test]
    fn off_end_is_program_end() {
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 1).nop();
        let p = asm.assemble().unwrap();
        let b = scan_block(&p, 0);
        assert_eq!(b.body.len(), 2);
        assert_eq!(b.end, BlockEnd::ProgramEnd);
        assert_eq!(b.end_pc(), 2);
        // Scanning from past the end is legal and empty.
        let b = scan_block(&p, 7);
        assert!(b.body.is_empty());
        assert_eq!(b.end, BlockEnd::ProgramEnd);
    }

    #[test]
    fn vector_and_memory_ops_stay_in_the_body() {
        let mut asm = Asm::new();
        asm.mov_imm(r(1), 16)
            .set_vl(r(1))
            .mov_imm(r(2), 0)
            .mov_imm(r(3), 0x200)
            .mov_imm(r(4), 16)
            .ld_sram(ElemType::I16, r(2), r(3), r(4))
            .vec_vec(crate::ops::VerticalOp::Add, ElemType::I16, r(2), r(2), r(2))
            .st_sram(ElemType::I16, r(2), r(3), r(4))
            .memfence()
            .halt();
        let p = asm.assemble().unwrap();
        let b = scan_block(&p, 0);
        assert_eq!(b.body.len(), 9, "everything but the halt falls through");
        assert_eq!(b.end, BlockEnd::Halt);
    }

    #[test]
    fn fingerprint_distinguishes_programs() {
        let mut a = Asm::new();
        a.mov_imm(r(1), 1).halt();
        let pa = a.assemble().unwrap();
        let mut b = Asm::new();
        b.mov_imm(r(1), 2).halt();
        let pb = b.assemble().unwrap();
        assert_ne!(program_fingerprint(&pa), program_fingerprint(&pb));
        assert_eq!(program_fingerprint(&pa), program_fingerprint(&pa));
        assert_eq!(program_fingerprint(&Program::default()), {
            // Empty program: plain FNV offset basis.
            0xcbf2_9ce4_8422_2325
        });
    }
}
