//! Typed simulation errors and the hang-diagnosis watchdog report.
//!
//! Nothing on a program-visible failure path panics: an illegal program
//! surfaces as [`SimError::Trap`], an uncorrectable memory error as
//! [`SimError::UncorrectableMemory`], an abandoned NoC packet as
//! [`SimError::NocDeliveryFailed`], and a run that exhausts its cycle
//! budget as [`SimError::Hang`] carrying a structured [`HangReport`] —
//! which PEs are parked on which full-empty words, what the network
//! still holds, how deep each vault queue is — shaped like the reference
//! interpreter's deadlock report so the two can be compared.

use std::fmt;

use vip_isa::Trap;
use vip_mem::ReqId;

use crate::pe::StallReason;
use crate::Cycle;

/// A fatal simulation outcome. `Eq`/`Clone` so tests can assert on the
/// exact failure and the differential harness can compare engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A PE executed an architecturally illegal instruction.
    Trap {
        /// The PE that trapped.
        pe: usize,
        /// The program counter of the offending instruction.
        pc: usize,
        /// The architectural trap classification (shared with the
        /// reference interpreter).
        trap: Trap,
    },
    /// A memory response arrived that matches no in-flight load-store
    /// request — a protocol bug, reported with enough state to debug it.
    OrphanResponse {
        /// The PE whose load-store unit received the response.
        pe: usize,
        /// The orphaned response id.
        id: ReqId,
        /// The request ids actually outstanding, sorted.
        outstanding: Vec<ReqId>,
    },
    /// ECC detected an uncorrectable (double-bit) error in data a PE
    /// consumed — the machine-check path.
    UncorrectableMemory {
        /// The consuming PE.
        pe: usize,
        /// The poisoned DRAM address.
        addr: u64,
    },
    /// The NoC abandoned a packet after exhausting its retransmission
    /// budget.
    NocDeliveryFailed {
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
    },
    /// The run hit its cycle budget before every PE halted. Boxed: the
    /// report is large and `SimError` travels through `Result`s.
    Hang(Box<HangReport>),
}

/// The coarse policy-relevant classification of a [`SimError`] — what a
/// supervising layer (the serving fleet's failure handler, a report
/// writer) keys retry / quarantine / accounting decisions on, without
/// matching every variant's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureClass {
    /// An architecturally illegal instruction ([`SimError::Trap`]).
    Trap,
    /// A machine-check on consumed data
    /// ([`SimError::UncorrectableMemory`]).
    Memory,
    /// The interconnect gave up on a packet
    /// ([`SimError::NocDeliveryFailed`]).
    Noc,
    /// A simulator protocol violation ([`SimError::OrphanResponse`]).
    Protocol,
    /// The cycle budget ran out with work in flight
    /// ([`SimError::Hang`]).
    Hang,
}

impl FailureClass {
    /// Stable lower-case label for reports and test assertions.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Trap => "trap",
            FailureClass::Memory => "memory",
            FailureClass::Noc => "noc",
            FailureClass::Protocol => "protocol",
            FailureClass::Hang => "hang",
        }
    }
}

vip_snap::snapshot_enum!(FailureClass, "failure class tag" {
    0 => Trap,
    1 => Memory,
    2 => Noc,
    3 => Protocol,
    4 => Hang,
});

impl SimError {
    /// This error's [`FailureClass`].
    #[must_use]
    pub fn class(&self) -> FailureClass {
        match self {
            SimError::Trap { .. } => FailureClass::Trap,
            SimError::UncorrectableMemory { .. } => FailureClass::Memory,
            SimError::NocDeliveryFailed { .. } => FailureClass::Noc,
            SimError::OrphanResponse { .. } => FailureClass::Protocol,
            SimError::Hang(_) => FailureClass::Hang,
        }
    }
}

/// What one unhalted PE was doing when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedPe {
    /// The PE index.
    pub pe: usize,
    /// Its program counter.
    pub pc: usize,
    /// Why issue was stalled, if it was (`None`: the PE was ready or
    /// between instructions — e.g. spinning on a branch).
    pub stall: Option<StallReason>,
    /// Full-empty words the PE's outstanding requests are parked on:
    /// `(address, is_load)`. The classic deadlock shows up here as a
    /// `fe.load` of a word no one will ever fill.
    pub fe_waits: Vec<(u64, bool)>,
}

/// The hang-diagnosis watchdog report: a structured snapshot of every
/// live component at the moment the cycle budget ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// The exhausted cycle budget.
    pub limit: Cycle,
    /// PEs that reached `halt`.
    pub halted_pes: usize,
    /// Total PEs in the system.
    pub total_pes: usize,
    /// Per-PE blocked state for every unhalted PE.
    pub blocked: Vec<BlockedPe>,
    /// Packets still inside the torus.
    pub noc_in_flight: usize,
    /// Queued (unissued) transactions per vault, indexed by vault.
    pub vault_queue_depths: Vec<usize>,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trap { pe, pc, trap } => {
                write!(f, "PE {pe} trapped at pc {pc}: {trap}")
            }
            SimError::OrphanResponse {
                pe,
                id,
                outstanding,
            } => {
                write!(
                    f,
                    "PE {pe}: response {id:#x} matches no in-flight request \
                     (outstanding: {outstanding:x?})"
                )
            }
            SimError::UncorrectableMemory { pe, addr } => {
                write!(
                    f,
                    "PE {pe}: uncorrectable memory error (double-bit, ECC-detected) \
                     at address {addr:#x}"
                )
            }
            SimError::NocDeliveryFailed { src, dst } => {
                write!(
                    f,
                    "NoC delivery from node {src} to node {dst} failed after \
                     exhausting retransmission budget"
                )
            }
            SimError::Hang(report) => report.fmt(f),
        }
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation exceeded {} cycles with {}/{} PEs halted",
            self.limit, self.halted_pes, self.total_pes
        )?;
        for b in &self.blocked {
            write!(f, "\n  PE {} at pc {}", b.pe, b.pc)?;
            if let Some(stall) = b.stall {
                write!(f, " stalled on {stall:?}")?;
            }
            for &(addr, is_load) in &b.fe_waits {
                let kind = if is_load { "fe.load" } else { "fe.store" };
                write!(f, ", waiting on {kind} at {addr:#x}")?;
            }
        }
        if self.noc_in_flight > 0 {
            write!(f, "\n  NoC: {} packets in flight", self.noc_in_flight)?;
        }
        let queued: usize = self.vault_queue_depths.iter().sum();
        if queued > 0 {
            write!(f, "\n  vault queues: {queued} transactions pending at")?;
            for (v, depth) in self.vault_queue_depths.iter().enumerate() {
                if *depth > 0 {
                    write!(f, " vault {v} ({depth})")?;
                }
            }
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

impl From<Box<HangReport>> for SimError {
    fn from(report: Box<HangReport>) -> Self {
        SimError::Hang(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hang_report_names_blocked_pes_and_addresses() {
        let report = HangReport {
            limit: 1000,
            halted_pes: 3,
            total_pes: 4,
            blocked: vec![BlockedPe {
                pe: 2,
                pc: 7,
                stall: Some(StallReason::LsqBusy),
                fe_waits: vec![(0x1f8, true)],
            }],
            noc_in_flight: 1,
            vault_queue_depths: vec![0, 2, 0, 0],
        };
        let text = SimError::Hang(Box::new(report)).to_string();
        assert!(text.contains("3/4 PEs halted"), "{text}");
        assert!(text.contains("PE 2 at pc 7"), "{text}");
        assert!(text.contains("fe.load at 0x1f8"), "{text}");
        assert!(text.contains("1 packets in flight"), "{text}");
        assert!(text.contains("vault 1 (2)"), "{text}");
    }

    #[test]
    fn errors_are_comparable() {
        let a = SimError::UncorrectableMemory { pe: 1, addr: 64 };
        assert_eq!(a, a.clone());
        assert_ne!(a, SimError::NocDeliveryFailed { src: 0, dst: 1 });
    }
}
