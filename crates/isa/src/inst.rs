//! The VIP instruction representation (Table II).

use std::fmt;

use crate::ops::{BranchCond, HorizontalOp, ScalarAluOp, VerticalOp};
use crate::types::{ElemType, Reg};

/// One VIP instruction.
///
/// Instructions fall into three groups, dispatched by the unified decode
/// stage to independent back-end pipelines (§III-B, Figure 1):
///
/// * **vector** — `set.vl` / `set.mr` / `v.drain` configuration, `m.v.*.*`
///   matrix-vector, `v.v.*` vector-vector, and `v.s.*` vector-scalar
///   operations. Vector operands are *scratchpad addresses* held in scalar
///   registers (the vector memory-memory paradigm, §III-A);
/// * **scalar** — 64-bit ALU operations, moves, and control flow;
/// * **load-store** — transfers between DRAM and either the scratchpad
///   (`ld.sram` / `st.sram`) or scalar registers (`ld.reg` / `st.reg`),
///   plus `memfence`. `ld.reg.fe` / `st.reg.ff` are the full-empty
///   synchronization accesses the paper's software design relies on
///   (§IV-A); they execute atomically at the vault controller.
///
/// Branch targets are absolute instruction-buffer indices; the assembler
/// and [`Asm`](crate::Asm) builder resolve labels to indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // ---- vector configuration ----
    /// `set.vl rs` — set the vector length (in elements) from a scalar
    /// register.
    SetVl { rs: Reg },
    /// `set.mr rs` — set the matrix row count for `m.v` operations from a
    /// scalar register.
    SetMr { rs: Reg },
    /// `v.drain` — stall issue until the vector pipeline is empty
    /// (conservative hazard avoidance, §III-A).
    VDrain,

    // ---- vector operations (operands are scratchpad addresses in regs) ----
    /// `m.v.<vop>.<hop>.<ty> rd, rs_mat, rs_vec` — for each of the `mr`
    /// matrix rows starting at scratchpad address `rs_mat`, combine the row
    /// with the vector at `rs_vec` using `vop`, reduce with `hop`, and
    /// write the `mr` scalar results contiguously at scratchpad address
    /// `rd` (the f₆-category operation of §II-E).
    MatVec {
        vop: VerticalOp,
        hop: HorizontalOp,
        ty: ElemType,
        rd: Reg,
        rs_mat: Reg,
        rs_vec: Reg,
    },
    /// `v.v.<op>.<ty> rd, rs1, rs2` — element-wise operation between two
    /// scratchpad vectors (f₃ category).
    VecVec {
        op: VerticalOp,
        ty: ElemType,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `v.s.<op>.<ty> rd, rs_vec, rs_scalar` — element-wise operation
    /// between a scratchpad vector and a broadcast scalar register value
    /// (f₄ category).
    VecScalar {
        op: VerticalOp,
        ty: ElemType,
        rd: Reg,
        rs_vec: Reg,
        rs_scalar: Reg,
    },

    // ---- scalar ----
    /// `<op> rd, rs1, rs2` — register-register scalar ALU operation.
    Scalar {
        op: ScalarAluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `<op>i rd, rs1, imm` — register-immediate scalar ALU operation.
    ScalarImm {
        op: ScalarAluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// `mov rd, rs` — register move.
    Mov { rd: Reg, rs: Reg },
    /// `mov.imm rd, imm` — load a sign-extended immediate.
    MovImm { rd: Reg, imm: i64 },
    /// `b<cond> rs1, rs2, target` — conditional branch to an absolute
    /// instruction index.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: u32,
    },
    /// `jmp target` — unconditional jump to an absolute instruction index.
    Jmp { target: u32 },

    // ---- load-store ----
    /// `ld.sram.<ty> rd_sp, rs_addr, rs_len` — copy `rs_len` elements from
    /// DRAM address `rs_addr` into scratchpad address `rd_sp`. Creates an
    /// ARC entry covering the destination range until completion.
    LdSram {
        ty: ElemType,
        rd_sp: Reg,
        rs_addr: Reg,
        rs_len: Reg,
    },
    /// `st.sram.<ty> rs_sp, rs_addr, rs_len` — copy `rs_len` elements from
    /// scratchpad address `rs_sp` to DRAM address `rs_addr`.
    StSram {
        ty: ElemType,
        rs_sp: Reg,
        rs_addr: Reg,
        rs_len: Reg,
    },
    /// `ld.reg rd, rs_addr` — load a 64-bit word from DRAM into a scalar
    /// register.
    LdReg { rd: Reg, rs_addr: Reg },
    /// `st.reg rs, rs_addr` — store a scalar register to DRAM.
    StReg { rs: Reg, rs_addr: Reg },
    /// `ld.reg.fe rd, rs_addr` — full-empty load: blocks until the word's
    /// full bit is set, reads it, and atomically clears the bit.
    LdRegFe { rd: Reg, rs_addr: Reg },
    /// `st.reg.ff rs, rs_addr` — full-empty store: blocks until the word's
    /// full bit is clear, writes it, and atomically sets the bit.
    StRegFf { rs: Reg, rs_addr: Reg },
    /// `memfence` — stall issue until all outstanding loads and stores
    /// from this PE have completed.
    MemFence,

    // ---- miscellany ----
    /// `nop` — consume an issue slot.
    Nop,
    /// `halt` — terminate this PE's program.
    Halt,
}

/// The scalar registers an instruction reads (see
/// [`Instruction::reads`]): at most three, held inline so the issue
/// stage's per-cycle operand check allocates nothing. Dereferences to a
/// slice.
#[derive(Debug, Clone, Copy)]
pub struct RegList {
    regs: [Reg; 3],
    len: u8,
}

impl RegList {
    fn new(list: &[Reg]) -> Self {
        let mut regs = [Reg::new(0); 3];
        regs[..list.len()].copy_from_slice(list);
        RegList {
            regs,
            len: list.len() as u8,
        }
    }
}

impl std::ops::Deref for RegList {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

/// Which back-end pipeline an instruction is dispatched to (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Vector pipeline (vertical + horizontal units) and its configuration.
    Vector,
    /// Scalar ALU and control flow.
    Scalar,
    /// Load-store unit.
    LoadStore,
    /// Front-end only (`nop`, `halt`, `v.drain`, `memfence` are resolved at
    /// decode/issue).
    FrontEnd,
}

impl Instruction {
    /// The pipeline this instruction is dispatched to.
    #[must_use]
    pub fn pipeline(&self) -> Pipeline {
        use Instruction::*;
        match self {
            SetVl { .. } | SetMr { .. } | MatVec { .. } | VecVec { .. } | VecScalar { .. } => {
                Pipeline::Vector
            }
            Scalar { .. }
            | ScalarImm { .. }
            | Mov { .. }
            | MovImm { .. }
            | Branch { .. }
            | Jmp { .. } => Pipeline::Scalar,
            LdSram { .. }
            | StSram { .. }
            | LdReg { .. }
            | StReg { .. }
            | LdRegFe { .. }
            | StRegFf { .. } => Pipeline::LoadStore,
            VDrain | MemFence | Nop | Halt => Pipeline::FrontEnd,
        }
    }

    /// Scalar registers read by this instruction.
    #[must_use]
    pub fn reads(&self) -> RegList {
        use Instruction::*;
        match *self {
            SetVl { rs } | SetMr { rs } => RegList::new(&[rs]),
            MatVec {
                rd, rs_mat, rs_vec, ..
            } => RegList::new(&[rd, rs_mat, rs_vec]),
            VecVec { rd, rs1, rs2, .. } => RegList::new(&[rd, rs1, rs2]),
            VecScalar {
                rd,
                rs_vec,
                rs_scalar,
                ..
            } => RegList::new(&[rd, rs_vec, rs_scalar]),
            Scalar { rs1, rs2, .. } => RegList::new(&[rs1, rs2]),
            ScalarImm { rs1, .. } => RegList::new(&[rs1]),
            Mov { rs, .. } => RegList::new(&[rs]),
            MovImm { .. } => RegList::new(&[]),
            Branch { rs1, rs2, .. } => RegList::new(&[rs1, rs2]),
            Jmp { .. } => RegList::new(&[]),
            LdSram {
                rd_sp,
                rs_addr,
                rs_len,
                ..
            } => RegList::new(&[rd_sp, rs_addr, rs_len]),
            StSram {
                rs_sp,
                rs_addr,
                rs_len,
                ..
            } => RegList::new(&[rs_sp, rs_addr, rs_len]),
            LdReg { rs_addr, .. } => RegList::new(&[rs_addr]),
            StReg { rs, rs_addr } | StRegFf { rs, rs_addr } => RegList::new(&[rs, rs_addr]),
            LdRegFe { rs_addr, .. } => RegList::new(&[rs_addr]),
            VDrain | MemFence | Nop | Halt => RegList::new(&[]),
        }
    }

    /// The scalar register written by this instruction, if any.
    ///
    /// Note that vector instructions write the *scratchpad*, not scalar
    /// registers; their `rd` operand is read (it holds the destination
    /// scratchpad address).
    #[must_use]
    pub fn writes(&self) -> Option<Reg> {
        use Instruction::*;
        match *self {
            Scalar { rd, .. }
            | ScalarImm { rd, .. }
            | Mov { rd, .. }
            | MovImm { rd, .. }
            | LdReg { rd, .. }
            | LdRegFe { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Whether this is a control-flow instruction.
    #[must_use]
    pub fn is_control_flow(&self) -> bool {
        matches!(self, Instruction::Branch { .. } | Instruction::Jmp { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match *self {
            SetVl { rs } => write!(f, "set.vl {rs}"),
            SetMr { rs } => write!(f, "set.mr {rs}"),
            VDrain => write!(f, "v.drain"),
            MatVec {
                vop,
                hop,
                ty,
                rd,
                rs_mat,
                rs_vec,
            } => {
                write!(f, "m.v.{vop}.{hop}.{ty} {rd}, {rs_mat}, {rs_vec}")
            }
            VecVec {
                op,
                ty,
                rd,
                rs1,
                rs2,
            } => write!(f, "v.v.{op}.{ty} {rd}, {rs1}, {rs2}"),
            VecScalar {
                op,
                ty,
                rd,
                rs_vec,
                rs_scalar,
            } => {
                write!(f, "v.s.{op}.{ty} {rd}, {rs_vec}, {rs_scalar}")
            }
            Scalar { op, rd, rs1, rs2 } => write!(f, "{op} {rd}, {rs1}, {rs2}"),
            ScalarImm { op, rd, rs1, imm } => write!(f, "{op}i {rd}, {rs1}, {imm}"),
            Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            MovImm { rd, imm } => write!(f, "mov.imm {rd}, {imm}"),
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{cond} {rs1}, {rs2}, {target}"),
            Jmp { target } => write!(f, "jmp {target}"),
            LdSram {
                ty,
                rd_sp,
                rs_addr,
                rs_len,
            } => {
                write!(f, "ld.sram.{ty} {rd_sp}, {rs_addr}, {rs_len}")
            }
            StSram {
                ty,
                rs_sp,
                rs_addr,
                rs_len,
            } => {
                write!(f, "st.sram.{ty} {rs_sp}, {rs_addr}, {rs_len}")
            }
            LdReg { rd, rs_addr } => write!(f, "ld.reg {rd}, {rs_addr}"),
            StReg { rs, rs_addr } => write!(f, "st.reg {rs}, {rs_addr}"),
            LdRegFe { rd, rs_addr } => write!(f, "ld.reg.fe {rd}, {rs_addr}"),
            StRegFf { rs, rs_addr } => write!(f, "st.reg.ff {rs}, {rs_addr}"),
            MemFence => write!(f, "memfence"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn display_matches_figure2_style() {
        let inst = Instruction::MatVec {
            vop: VerticalOp::Add,
            hop: HorizontalOp::Min,
            ty: ElemType::I16,
            rd: r(10),
            rs_mat: r(15),
            rs_vec: r(11),
        };
        assert_eq!(inst.to_string(), "m.v.add.min.i16 r10, r15, r11");
    }

    #[test]
    fn pipelines() {
        assert_eq!(Instruction::VDrain.pipeline(), Pipeline::FrontEnd);
        assert_eq!(Instruction::SetVl { rs: r(1) }.pipeline(), Pipeline::Vector);
        assert_eq!(
            Instruction::Mov { rd: r(1), rs: r(2) }.pipeline(),
            Pipeline::Scalar
        );
        assert_eq!(Instruction::MemFence.pipeline(), Pipeline::FrontEnd);
        assert_eq!(
            Instruction::LdReg {
                rd: r(1),
                rs_addr: r(2)
            }
            .pipeline(),
            Pipeline::LoadStore
        );
    }

    #[test]
    fn read_write_sets() {
        let ld = Instruction::LdSram {
            ty: ElemType::I16,
            rd_sp: r(11),
            rs_addr: r(7),
            rs_len: r(61),
        };
        assert_eq!(*ld.reads(), [r(11), r(7), r(61)]);
        assert_eq!(ld.writes(), None);

        let add = Instruction::ScalarImm {
            op: ScalarAluOp::Add,
            rd: r(3),
            rs1: r(4),
            imm: 1,
        };
        assert_eq!(*add.reads(), [r(4)]);
        assert_eq!(add.writes(), Some(r(3)));

        // Vector instructions read their "destination" register: it holds a
        // scratchpad address.
        let vv = Instruction::VecVec {
            op: VerticalOp::Add,
            ty: ElemType::I16,
            rd: r(1),
            rs1: r(2),
            rs2: r(3),
        };
        assert_eq!(vv.writes(), None);
        assert!(vv.reads().contains(&r(1)));
        assert!(Instruction::Halt.reads().is_empty());
    }
}
