//! # vip-core — the VIP processing engine and full-system simulator
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*"VIP: A Versatile Inference Processor"*, Hurkat & Martínez, HPCA
//! 2019): an execution-driven, cycle-level model of the VIP processing
//! engine (PE) and of the complete 128-PE system in the logic layer of an
//! HMC-style memory stack.
//!
//! ## The PE (§III-B, Figure 1)
//!
//! Each [`Pe`] contains:
//!
//! * a unified front end (1,024-entry instruction buffer, in-order issue,
//!   out-of-order completion, no precise exceptions);
//! * a **scalar unit**: 64×64-bit register file with per-register valid
//!   bits — instructions reading or overwriting a register with a pending
//!   fill stall at issue;
//! * a **vector unit**: a vertical (element-wise) pipeline feeding a
//!   horizontal (reduction) pipeline over a 64-bit sub-word datapath
//!   (8×8 b / 4×16 b / 2×32 b / 1×64 b per beat); long vectors stream over
//!   multiple beats in the classic temporal style. Add-like lanes take one
//!   cycle, multiplies four;
//! * a 4 KiB **scratchpad** in place of a vector register file (the vector
//!   memory-memory paradigm, §III-A) with dedicated vector (2R+1W) and
//!   load-store (1R+1W) ports;
//! * the **ARC** (array range check): a 20-entry associative table of
//!   scratchpad ranges with outstanding loads; instructions touching an
//!   overlapping range stall at issue;
//! * a **load-store unit** with 64 outstanding requests that splits
//!   scratchpad↔DRAM transfers into 32-byte DRAM columns.
//!
//! ## The system (§III, §III-C)
//!
//! [`System`] instantiates 4 PEs per vault over `vip-mem`'s HMC model and
//! `vip-noc`'s 8×4 torus: PEs reach their local vault controller through
//! a star hookup and remote vaults through the torus. Full-empty
//! synchronization operations resolve atomically at vault controllers.
//!
//! ## Fidelity notes
//!
//! Vector instructions execute *functionally at issue* while occupying
//! the vector pipelines for their streamed beat count — i.e. we model
//! perfect operand chaining, which is what lets the paper's Figure 2
//! sequence of back-to-back dependent `v.v.add`s work. Loads are the
//! asynchronous hazard the hardware really guards (via the ARC), and the
//! simulator enforces exactly that. See DESIGN.md.
//!
//! ```
//! use vip_core::{System, SystemConfig};
//! use vip_isa::{assemble, Reg};
//!
//! // One PE computes 3 + 4 and stores it to DRAM.
//! let mut sys = System::new(SystemConfig::small_test());
//! let program = assemble(
//!     "add r3, r1, r2
//!      st.reg r3, r4
//!      memfence
//!      halt",
//! ).unwrap();
//! sys.load_program(0, &program);
//! sys.set_reg(0, Reg::new(1), 3);
//! sys.set_reg(0, Reg::new(2), 4);
//! sys.set_reg(0, Reg::new(4), 0x100);
//! sys.run(10_000).unwrap();
//! assert_eq!(sys.hmc().host_read_u64(0x100), 7);
//! ```

mod arc;
mod config;
mod engine;
mod error;
mod fast_func;
mod lsu;
mod pe;
pub mod power;
mod scalar;
mod scratchpad;
mod stats;
mod system;
mod vector;

pub use arc::ArcTable;
pub use config::SystemConfig;
pub use engine::Engine;
pub use error::{BlockedPe, FailureClass, HangReport, SimError};
pub use fast_func::FuncConfig;
pub use lsu::{LoadStoreUnit, LsuError};
pub use pe::{Pe, PeArchState, StallReason, TraceEvent};
pub use scalar::ScalarRegs;
pub use scratchpad::Scratchpad;
pub use stats::{FuncStats, PeStats, RooflinePoint, SystemStats, WorkCounts};
pub use system::{RunOutcome, System};
pub use vector::VectorUnit;

/// One clock cycle of the 1.25 GHz clock (0.8 ns).
pub type Cycle = u64;

/// The PE clock frequency in Hz (§III: 1.25 GHz).
pub const CLOCK_HZ: f64 = 1.25e9;

/// Converts a cycle count to milliseconds of simulated time.
#[must_use]
pub fn cycles_to_ms(cycles: Cycle) -> f64 {
    cycles as f64 / CLOCK_HZ * 1e3
}
