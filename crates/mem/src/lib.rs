//! # vip-mem — cycle-level HMC-style 3D-stacked DRAM model
//!
//! The VIP paper couples its 128 processing engines to a Hybrid Memory
//! Cube-like 3D-stacked memory (§III-C) and evaluates it with DRAMSim2.
//! This crate is the from-scratch Rust equivalent of that substrate:
//!
//! * 32 vertical partitions (*vaults*), each with 16 DRAM banks, 65,536
//!   rows of 256 B per bank, and a 10 GB/s data path (320 GB/s aggregate);
//! * the timing parameters of Table III ([`DramTiming`]), expressed in the
//!   shared 0.8 ns clock;
//! * per-bank state machines honouring tRCD/tRP/tRAS/tWR/tCCD/tCL with
//!   FR-FCFS scheduling, [`RowPolicy::OpenPage`] or
//!   [`RowPolicy::ClosedPage`] row-buffer policies, and periodic refresh
//!   (tREFI/tRFC, including the DDR4 refresh-4x mode VIP uses);
//! * both address-mapping schemes the paper discusses
//!   ([`AddressMapping::VaultRowBankCol`] with the vault index in the high
//!   bits so PEs access their local vaults, and the HMC-default
//!   [`AddressMapping::LowInterleave`]);
//! * **execution-driven** data storage: reads return the bytes writes put
//!   there, and full-empty bits (§IV-A's synchronization variables) are
//!   honoured atomically at the vault controller;
//! * the configuration presets of the Figure 5 sensitivity study
//!   ([`MemConfig::closed_page`], `more_ranks`, `fewer_ranks`, `wide_row`,
//!   `narrow_row`, `refresh_2x`, `refresh_1x`).
//!
//! The top-level type is [`Hmc`]; callers enqueue [`MemRequest`]s per
//! vault and call [`Hmc::tick`] once per 0.8 ns cycle, collecting
//! [`MemResponse`]s.
//!
//! ```
//! use vip_mem::{Hmc, MemConfig, MemRequest};
//!
//! let mut hmc = Hmc::new(MemConfig::baseline());
//! hmc.host_write(0x40, &[1, 2, 3, 4]);
//! let vault = hmc.config().vault_of(0x40);
//! hmc.enqueue(vault, MemRequest::read(7, 0x40, 4)).unwrap();
//! let mut responses = Vec::new();
//! for _ in 0..200 {
//!     hmc.tick(&mut responses);
//! }
//! assert_eq!(responses.len(), 1);
//! assert_eq!(responses[0].data, vec![1, 2, 3, 4]);
//! ```

mod addr;
mod bank;
mod config;
mod controller;
mod hmc;
mod remap;
mod req;
mod stats;
mod storage;
mod timing;

pub use addr::{AddressMapping, DecodedAddr};
pub use config::{ConfigError, MemConfig, RowPolicy};
pub use controller::VaultController;
pub use hmc::Hmc;
pub use remap::BitShuffle;
pub use req::{MemRequest, MemResponse, QueueFullError, ReqId, RequestKind};
pub use stats::{MemStats, MemWork};
pub use storage::Storage;
pub use timing::{DramTiming, BASELINE_T_REFI_PS};

/// Hasher for the simulator's maps keyed by `u64`s and tuples of them:
/// the storage's page numbers and word addresses, the functional tier's
/// `(program, pc)` blocks. The keys are counters and addresses the
/// simulation mints itself, so one odd multiply per word (folded so both
/// the bucket and the tag bits see every key bit) spreads them; SipHash's
/// flood resistance buys nothing here and costs a lookup per DRAM access.
/// Each word is mixed into what the ones before it left, so a one-word
/// key hashes as it always has.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("id maps hash u64 keys only");
    }

    fn write_u64(&mut self, id: u64) {
        let h = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `u64`-keyed map hashed by [`IdHasher`].
pub type IdMap<V> = std::collections::HashMap<u64, V, std::hash::BuildHasherDefault<IdHasher>>;

/// One clock cycle of the shared 1.25 GHz clock (0.8 ns), the simulator's
/// unit of time.
pub type Cycle = u64;

/// Picoseconds per clock cycle (0.8 ns at 1.25 GHz; Table III's tCK).
pub const CYCLE_PS: u64 = 800;

/// Converts a duration in picoseconds to cycles, rounding up.
#[must_use]
pub fn ps_to_cycles(ps: u64) -> Cycle {
    ps.div_ceil(CYCLE_PS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_folds_every_word_of_a_key() {
        use std::hash::{Hash, Hasher};
        let hash = |key: &dyn Fn(&mut IdHasher)| {
            let mut h = IdHasher::default();
            key(&mut h);
            h.finish()
        };
        // One word hashes as the single multiply and fold.
        let one = |id: u64| hash(&|h| id.hash(h));
        let h = 0xabcd_u64.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        assert_eq!(one(0xabcd), h ^ (h >> 32));
        // Pairs that share either word still hash apart.
        let pair = |a: u64, b: u64| hash(&|h| (a, b).hash(h));
        let mut seen = std::collections::HashSet::new();
        for fp in [0, 1, 0x9e37_79b9, u64::MAX] {
            for pc in 0..64 {
                assert!(seen.insert(pair(fp, pc)), "({fp:#x}, {pc})");
            }
        }
        assert_ne!(pair(1, 2), pair(2, 1));
    }

    #[test]
    fn ps_conversion_rounds_up() {
        assert_eq!(ps_to_cycles(800), 1);
        assert_eq!(ps_to_cycles(801), 2);
        assert_eq!(ps_to_cycles(13_750), 18); // tCL = 13.75 ns
        assert_eq!(ps_to_cycles(0), 0);
    }
}
