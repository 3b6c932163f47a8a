//! System configuration.

use vip_faults::{FaultConfig, PeFaultConfig};
use vip_mem::{AddressMapping, MemConfig, RowPolicy};
use vip_noc::TorusConfig;
use vip_snap::Fingerprint;

/// Configuration of a complete VIP system.
///
/// [`SystemConfig::vip`] is the paper's machine: 128 PEs, 4 per vault, 32
/// vaults, 4 KiB scratchpads. [`SystemConfig::small_test`] shrinks the
/// memory stack's refresh-heavy full configuration to something unit
/// tests can spin quickly (geometry is unchanged; only the torus and PE
/// parameters matter for small programs).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Memory-stack configuration (vault count comes from here).
    pub mem: MemConfig,
    /// Torus geometry (must cover `mem.vaults` routers).
    pub torus: TorusConfig,
    /// PEs per vault (§III: 4).
    pub pes_per_vault: usize,
    /// Scratchpad bytes per PE (§III-A: 4 KiB).
    pub scratchpad_bytes: usize,
    /// ARC entries per PE (§III-B: 20).
    pub arc_entries: usize,
    /// Maximum outstanding load-store requests per PE (§III-B: 64).
    pub lsq_entries: usize,
    /// Issue bubble on a taken branch (front-end refill).
    pub branch_penalty: u64,
    /// Extra completion latency of multiply beats (4-stage pipeline).
    pub multiply_latency: u64,
    /// Extra completion latency through the horizontal (reduction) unit.
    pub reduce_latency: u64,
    /// Latency of the PE ↔ local-vault star link, cycles.
    pub local_link_latency: u64,
    /// PE fault injection (scalar writeback bit flips). `None` disables
    /// injection entirely; DRAM and NoC injection live in
    /// [`MemConfig::faults`] and [`TorusConfig::faults`] respectively —
    /// [`SystemConfig::with_faults`] wires all three from one
    /// [`FaultConfig`].
    pub pe_faults: Option<PeFaultConfig>,
}

impl SystemConfig {
    /// The paper's full machine: 32 vaults × 4 PEs on the Table III
    /// memory system and the 8×4 torus.
    #[must_use]
    pub fn vip() -> Self {
        SystemConfig {
            mem: MemConfig::baseline(),
            torus: TorusConfig::vip(),
            pes_per_vault: 4,
            scratchpad_bytes: 4096,
            arc_entries: 20,
            lsq_entries: 64,
            branch_penalty: 2,
            multiply_latency: 4,
            reduce_latency: 2,
            local_link_latency: 1,
            pe_faults: None,
        }
    }

    /// Wires a complete [`FaultConfig`] into every layer: DRAM retention
    /// faults into the memory configuration, link faults into the torus,
    /// and writeback flips into the PEs. A zero-rate config exercises the
    /// full injection machinery without ever firing — the determinism
    /// tests run exactly that.
    #[must_use]
    pub fn with_faults(mut self, faults: &FaultConfig) -> Self {
        self.mem.faults = faults.dram;
        self.torus.faults = faults.noc;
        self.pe_faults = faults.pe;
        self
    }

    /// The full machine with a different memory configuration (the
    /// Figure 5 sweeps).
    #[must_use]
    pub fn vip_with_mem(mem: MemConfig) -> Self {
        SystemConfig { mem, ..Self::vip() }
    }

    /// A single-vault (4-PE) system around the given memory preset —
    /// the independent-tile simulation vehicle (§V-A) and the serving
    /// layer's per-device configuration: same PE and timing parameters
    /// as the full machine, 1×1 torus.
    #[must_use]
    pub fn single_vault(mut mem: MemConfig) -> Self {
        mem.vaults = 1;
        SystemConfig {
            mem,
            torus: TorusConfig {
                width: 1,
                height: 1,
                ..TorusConfig::vip()
            },
            ..Self::vip()
        }
    }

    /// A single-vault, 4-PE configuration for unit tests and
    /// independent-tile simulations (§V-A): same PE and timing
    /// parameters, 1×1 torus.
    #[must_use]
    pub fn small_test() -> Self {
        Self::single_vault(MemConfig::baseline())
    }

    /// A reduced multi-vault configuration (`vaults` must be a power of
    /// two laid out on a `vaults`×1 torus) for cross-vault tests.
    #[must_use]
    pub fn test_vaults(vaults: usize) -> Self {
        assert!(vaults.is_power_of_two() && vaults <= 32);
        let mut mem = MemConfig::baseline();
        mem.vaults = vaults;
        SystemConfig {
            mem,
            torus: TorusConfig {
                width: vaults,
                height: 1,
                ..TorusConfig::vip()
            },
            ..Self::vip()
        }
    }

    /// Total PE count.
    #[must_use]
    pub fn total_pes(&self) -> usize {
        self.mem.vaults * self.pes_per_vault
    }

    /// Peak vector throughput in 16-bit operations per second (vertical +
    /// horizontal lanes across all PEs; §III: 1,280 GOp/s at 16 bit).
    #[must_use]
    pub fn peak_ops_16(&self) -> f64 {
        // 4 lanes per beat, x2 for the chained vertical+horizontal units.
        self.total_pes() as f64 * 4.0 * 2.0 * crate::CLOCK_HZ
    }

    /// Peak DRAM bandwidth in bytes per second.
    #[must_use]
    pub fn peak_bandwidth(&self) -> f64 {
        self.mem.peak_bytes_per_cycle() * crate::CLOCK_HZ
    }

    /// FNV-1a digest of every *structural* parameter — the machine shape
    /// a snapshot is only valid against. Excluded on purpose: all three
    /// fault configurations (runtime-settable via
    /// [`System::set_fault_config`](crate::System::set_fault_config) and
    /// serialized in the snapshot body instead), and `mem.name` (a debug
    /// label).
    ///
    /// A snapshot restores only onto a system whose fingerprint matches;
    /// [`System::restore_snapshot`](crate::System::restore_snapshot)
    /// rejects the rest with a typed error.
    #[must_use]
    pub fn snapshot_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        let m = &self.mem;
        f.push_usize(m.vaults);
        f.push_usize(m.banks_per_vault);
        f.push_usize(m.rows_per_bank);
        f.push_usize(m.row_bytes);
        f.push_usize(m.col_bytes);
        f.push_u64(match m.policy {
            RowPolicy::OpenPage => 0,
            RowPolicy::ClosedPage => 1,
        });
        f.push_u64(match m.mapping {
            AddressMapping::VaultRowBankCol => 0,
            AddressMapping::LowInterleave => 1,
        });
        f.push_u64(m.timing.t_cl_ps);
        f.push_u64(m.timing.t_rcd_ps);
        f.push_u64(m.timing.t_rp_ps);
        f.push_u64(m.timing.t_ras_ps);
        f.push_u64(m.timing.t_wr_ps);
        f.push_u64(m.timing.t_ccd_ps);
        f.push_u64(m.timing.t_rfc_ps);
        f.push_u64(m.timing.t_refi_ps);
        f.push_usize(m.trans_queue_depth);
        f.push_u64(m.burst_cycles);
        f.push_usize(m.max_packet_bytes);
        f.push_usize(self.torus.width);
        f.push_usize(self.torus.height);
        f.push_u64(self.torus.hop_latency);
        f.push_usize(self.torus.flit_bytes);
        f.push_u64(self.torus.header_flits);
        f.push_usize(self.pes_per_vault);
        f.push_usize(self.scratchpad_bytes);
        f.push_usize(self.arc_entries);
        f.push_usize(self.lsq_entries);
        f.push_u64(self.branch_penalty);
        f.push_u64(self.multiply_latency);
        f.push_u64(self.reduce_latency);
        f.push_u64(self.local_link_latency);
        f.finish()
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the torus does not cover the vault count or the memory
    /// configuration is invalid.
    pub fn validate(&self) {
        self.mem.validate().expect("memory configuration");
        assert_eq!(
            self.torus.nodes(),
            self.mem.vaults,
            "torus has {} nodes but the stack has {} vaults",
            self.torus.nodes(),
            self.mem.vaults
        );
        assert!(self.pes_per_vault > 0);
        assert!(self.scratchpad_bytes.is_power_of_two());
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::vip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vip_matches_paper_numbers() {
        let cfg = SystemConfig::vip();
        cfg.validate();
        assert_eq!(cfg.total_pes(), 128);
        // 1,280 GOp/s peak at 16-bit (footnote 2).
        assert!((cfg.peak_ops_16() / 1e9 - 1280.0).abs() < 1e-6);
        // 320 GB/s peak bandwidth.
        assert!((cfg.peak_bandwidth() / 1e9 - 320.0).abs() < 1e-6);
    }

    #[test]
    fn small_configs_validate() {
        SystemConfig::small_test().validate();
        SystemConfig::test_vaults(4).validate();
    }
}
