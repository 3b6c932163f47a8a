//! # vip-isa — the VIP instruction set
//!
//! This crate defines the instruction set of the Versatile Inference
//! Processor (VIP) from *"VIP: A Versatile Inference Processor"* (Hurkat &
//! Martínez, HPCA 2019), Table II, together with everything needed to write,
//! inspect, and execute VIP programs:
//!
//! * [`Instruction`] — the typed instruction representation, covering the
//!   vector (`m.v.*`, `v.v.*`, `v.s.*`), scalar, and load-store groups;
//! * [`Program`] — an assembled instruction sequence that fits the PE's
//!   1,024-entry instruction buffer;
//! * [`Asm`] — a label-aware program builder for generating code from Rust;
//! * [`assemble`] — a two-pass text assembler accepting the syntax used in
//!   the paper's Figure 2 (e.g. `m.v.add.min.i16 r10, r15, r11`);
//! * [`encode`](Instruction::encode) / [`decode`](Instruction::decode) — a
//!   fixed-width 64-bit binary encoding with round-trip guarantees;
//! * [`alu`] — the *exact* arithmetic semantics of the 64-bit sub-word
//!   datapath (saturating fixed-point lanes), shared by the cycle-level
//!   simulator and the golden reference kernels so that simulated results
//!   are bit-identical to the references.
//!
//! ## Example
//!
//! Assemble and inspect the min-sum belief-propagation message update from
//! the paper's Figure 2:
//!
//! ```
//! use vip_isa::{assemble, Instruction};
//!
//! # fn main() -> Result<(), vip_isa::AsmError> {
//! let program = assemble(
//!     "ld.sram.i16 r11, r7, r61
//!      v.v.add.i16 r11, r11, r12
//!      m.v.add.min.i16 r10, r15, r11
//!      st.sram.i16 r10, r14, r61
//!      halt",
//! )?;
//! assert_eq!(program.len(), 5);
//! assert!(matches!(program[2], Instruction::MatVec { .. }));
//! # Ok(())
//! # }
//! ```

pub mod alu;
mod asm;
mod block;
mod builder;
mod encode;
mod inst;
mod ops;
mod program;
mod trap;
mod types;

pub use asm::{assemble, AsmError};
pub use block::{program_fingerprint, scan_block, Block, BlockEnd};
pub use builder::Asm;
pub use encode::{DecodeError, EncodeError};
pub use inst::{Instruction, RegList};
pub use ops::{BranchCond, HorizontalOp, ScalarAluOp, VerticalOp};
pub use program::Program;
pub use trap::Trap;
pub use types::{ElemType, Reg, RegParseError, NUM_REGS};

/// Capacity of a PE's instruction buffer, in instructions (§III-B).
pub const INST_BUFFER_ENTRIES: usize = 1024;
