//! Memory-system configuration and the Figure 5 sensitivity presets.

use std::fmt;

use crate::addr::AddressMapping;
use crate::timing::DramTiming;
use vip_faults::DramFaultConfig;

/// Row-buffer management policy (§III-C, §VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave rows open after column accesses; precharge only on a
    /// conflict. VIP's choice: with no caches, spatially-close requests
    /// hit the open row.
    #[default]
    OpenPage,
    /// Precharge immediately after every column access (the HMC default).
    ClosedPage,
}

impl fmt::Display for RowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowPolicy::OpenPage => f.write_str("open-page"),
            RowPolicy::ClosedPage => f.write_str("closed-page"),
        }
    }
}

/// Error returned by [`MemConfig::validate`]: which configuration was
/// rejected, which field broke the constraint, and why. Structured so
/// callers (and test failures) name the exact knob to fix instead of
/// panicking with an anonymous string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The configuration's human-readable name (e.g. "open page").
    pub config: &'static str,
    /// The offending field of [`MemConfig`].
    pub field: &'static str,
    /// What constraint the field violates.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid memory configuration {:?}: {}: {}",
            self.config, self.field, self.message
        )
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of the HMC-style memory system.
///
/// The default ([`MemConfig::baseline`]) is the paper's Table III: 32
/// vaults × 16 banks × 65,536 rows × 256 B, open page, vault index in the
/// high address bits, refresh-4x. The other constructors are the exact
/// variations of the Figure 5 sensitivity study; each preserves total
/// capacity (8 GiB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Number of vaults (vertical partitions). Table III: 32.
    pub vaults: usize,
    /// Banks per vault (the HMC has one bank per rank, so "banks" and
    /// "ranks" are interchangeable — §VI-C). Table III: 16.
    pub banks_per_vault: usize,
    /// Rows per bank. Table III: 65,536.
    pub rows_per_bank: usize,
    /// Bytes per row. Table III: 256.
    pub row_bytes: usize,
    /// Bytes per column access (the transfer granule). 32 B, burst of 8
    /// on the 32-bit vault data path.
    pub col_bytes: usize,
    /// Row-buffer policy.
    pub policy: RowPolicy,
    /// Address-interleaving scheme.
    pub mapping: AddressMapping,
    /// DRAM timing parameters.
    pub timing: DramTiming,
    /// Transaction-queue depth per vault. Table III: 32.
    pub trans_queue_depth: usize,
    /// Cycles the vault data bus is busy per column transfer: 32 B at
    /// 8 B/cycle (32-bit DDR TSVs at 1.25 GHz = 10 GB/s per vault).
    pub burst_cycles: u64,
    /// Largest request packet in bytes. The paper's DRAMSim2 setup uses
    /// one 32 B column per transaction (Table III: burst 8 on a 32-bit
    /// path), which is the default; the HMC specification also allows
    /// up to 128 B packets ([`MemConfig::with_hmc_packets`]).
    pub max_packet_bytes: usize,
    /// DRAM retention-fault injection on the vault read path (`None`:
    /// no injector wired). The single-bit rate scales with the
    /// configured tREFI relative to Table III's baseline, matching the
    /// physics of the Figure 5 refresh sweep.
    pub faults: Option<DramFaultConfig>,
    /// A human-readable name for reports.
    pub name: &'static str,
}

impl MemConfig {
    /// The paper's baseline configuration ("open page" in Figure 5).
    #[must_use]
    pub fn baseline() -> Self {
        MemConfig {
            vaults: 32,
            banks_per_vault: 16,
            rows_per_bank: 65_536,
            row_bytes: 256,
            col_bytes: 32,
            policy: RowPolicy::OpenPage,
            mapping: AddressMapping::VaultRowBankCol,
            timing: DramTiming::table_iii(),
            trans_queue_depth: 32,
            burst_cycles: 4,
            max_packet_bytes: 32,
            faults: None,
            name: "open page",
        }
    }

    /// Closed-page row-buffer policy (the HMC default; Figure 5 "closed
    /// page").
    #[must_use]
    pub fn closed_page() -> Self {
        MemConfig {
            policy: RowPolicy::ClosedPage,
            name: "closed page",
            ..Self::baseline()
        }
    }

    /// 4× the banks (ranks), capacity held constant (Figure 5 "more
    /// ranks").
    #[must_use]
    pub fn more_ranks() -> Self {
        MemConfig {
            banks_per_vault: 64,
            rows_per_bank: 16_384,
            name: "more ranks",
            ..Self::baseline()
        }
    }

    /// ¼ the banks (ranks), capacity held constant (Figure 5 "fewer
    /// ranks").
    #[must_use]
    pub fn fewer_ranks() -> Self {
        MemConfig {
            banks_per_vault: 4,
            rows_per_bank: 262_144,
            name: "fewer ranks",
            ..Self::baseline()
        }
    }

    /// 4× wider rows, capacity held constant (Figure 5 "wide row").
    #[must_use]
    pub fn wide_row() -> Self {
        MemConfig {
            row_bytes: 1024,
            rows_per_bank: 16_384,
            name: "wide row",
            ..Self::baseline()
        }
    }

    /// ¼-width rows, capacity held constant (Figure 5 "narrow row").
    #[must_use]
    pub fn narrow_row() -> Self {
        MemConfig {
            row_bytes: 64,
            rows_per_bank: 262_144,
            name: "narrow row",
            ..Self::baseline()
        }
    }

    /// tREFI and tRFC doubled (Figure 5 "refresh 2x").
    #[must_use]
    pub fn refresh_2x() -> Self {
        MemConfig {
            timing: DramTiming::table_iii().with_refresh_scale(2),
            name: "refresh 2x",
            ..Self::baseline()
        }
    }

    /// tREFI and tRFC at 4× — the standard JEDEC refresh rate (Figure 5
    /// "refresh 1x").
    #[must_use]
    pub fn refresh_1x() -> Self {
        MemConfig {
            timing: DramTiming::table_iii().with_refresh_scale(4),
            name: "refresh 1x",
            ..Self::baseline()
        }
    }

    /// All eight Figure 5 configurations, in the figure's order (bottom to
    /// top: open page, closed page, narrow row, wide row, fewer ranks,
    /// more ranks, refresh 2x, refresh 1x).
    #[must_use]
    pub fn figure5_sweep() -> Vec<MemConfig> {
        vec![
            Self::baseline(),
            Self::closed_page(),
            Self::narrow_row(),
            Self::wide_row(),
            Self::fewer_ranks(),
            Self::more_ranks(),
            Self::refresh_2x(),
            Self::refresh_1x(),
        ]
    }

    /// Checks internal consistency (power-of-two geometry, column fits in
    /// a row, non-empty queues).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field: &'static str, message: String| ConfigError {
            config: self.name,
            field,
            message,
        };
        let pow2 = |field: &'static str, v: usize| {
            if v.is_power_of_two() {
                Ok(())
            } else {
                Err(err(field, format!("{v} must be a power of two")))
            }
        };
        pow2("vaults", self.vaults)?;
        pow2("banks_per_vault", self.banks_per_vault)?;
        pow2("rows_per_bank", self.rows_per_bank)?;
        pow2("row_bytes", self.row_bytes)?;
        pow2("col_bytes", self.col_bytes)?;
        if self.col_bytes > self.row_bytes {
            return Err(err(
                "col_bytes",
                format!("{} exceeds row_bytes ({})", self.col_bytes, self.row_bytes),
            ));
        }
        if self.trans_queue_depth == 0 {
            return Err(err("trans_queue_depth", "must be nonzero".into()));
        }
        if self.burst_cycles == 0 {
            return Err(err("burst_cycles", "must be nonzero".into()));
        }
        if !self.max_packet_bytes.is_power_of_two() || self.max_packet_bytes < self.col_bytes {
            return Err(err(
                "max_packet_bytes",
                format!(
                    "{} must be a power of two of at least one column",
                    self.max_packet_bytes
                ),
            ));
        }
        if let Some(f) = self.faults {
            let cap = vip_faults::PPM_SCALE as u32;
            if f.single_bit_ppm > cap || f.double_bit_ppm > cap {
                return Err(err(
                    "faults",
                    format!(
                        "fault rates ({}, {} ppm) exceed {cap} ppm",
                        f.single_bit_ppm, f.double_bit_ppm
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Capacity of one vault in bytes.
    #[must_use]
    pub fn vault_bytes(&self) -> u64 {
        (self.banks_per_vault * self.rows_per_bank * self.row_bytes) as u64
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.vault_bytes() * self.vaults as u64
    }

    /// The vault an address maps to under this configuration's scheme.
    #[must_use]
    pub fn vault_of(&self, addr: u64) -> usize {
        self.mapping.vault_of(self, addr)
    }

    /// The lowest address served by `vault` under the
    /// vault-high-bits mapping — the base of that vault's contiguous
    /// region. The kernel tilers use this to place data in a PE's local
    /// vault (§III-C).
    ///
    /// # Panics
    ///
    /// Panics if the configured mapping is not
    /// [`AddressMapping::VaultRowBankCol`] (under low-order interleaving
    /// vaults do not own contiguous regions).
    #[must_use]
    pub fn vault_base(&self, vault: usize) -> u64 {
        assert_eq!(
            self.mapping,
            AddressMapping::VaultRowBankCol,
            "vault_base is only meaningful with the vault-high mapping"
        );
        assert!(vault < self.vaults, "vault {vault} out of range");
        self.vault_bytes() * vault as u64
    }

    /// The baseline configuration with full-size 128 B HMC request
    /// packets (a fidelity option beyond the paper's 32 B DRAMSim2
    /// transactions).
    #[must_use]
    pub fn with_hmc_packets() -> Self {
        MemConfig {
            max_packet_bytes: 128,
            name: "open page, 128 B packets",
            ..Self::baseline()
        }
    }

    /// Largest single request the stack accepts: at most
    /// [`max_packet_bytes`](Self::max_packet_bytes), never crossing a
    /// DRAM row. Under low-order vault interleaving consecutive columns
    /// belong to different vaults, so packets shrink to one column
    /// there.
    #[must_use]
    pub fn request_granule(&self) -> usize {
        match self.mapping {
            AddressMapping::VaultRowBankCol => self.row_bytes.min(self.max_packet_bytes),
            AddressMapping::LowInterleave => self.col_bytes,
        }
    }

    /// Peak aggregate DRAM bandwidth in bytes per cycle (all vaults).
    #[must_use]
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.vaults as f64 * self.col_bytes as f64 / self.burst_cycles as f64
    }

    /// This configuration with DRAM retention-fault injection wired.
    #[must_use]
    pub fn with_faults(self, faults: DramFaultConfig) -> Self {
        MemConfig {
            faults: Some(faults),
            ..self
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate_and_preserve_capacity() -> Result<(), ConfigError> {
        let base = MemConfig::baseline();
        assert_eq!(base.total_bytes(), 8 << 30); // 8 GiB
        for cfg in MemConfig::figure5_sweep() {
            // A violation propagates as a ConfigError naming the preset
            // and field, not as a panic.
            cfg.validate()?;
            assert_eq!(cfg.total_bytes(), base.total_bytes(), "{}", cfg.name);
        }
        Ok(())
    }

    #[test]
    fn config_errors_name_config_and_field() {
        let mut cfg = MemConfig::narrow_row();
        cfg.rows_per_bank = 100;
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.config, "narrow row");
        assert_eq!(e.field, "rows_per_bank");
        let shown = e.to_string();
        assert!(
            shown.contains("narrow row") && shown.contains("rows_per_bank"),
            "{shown}"
        );

        let hot = MemConfig::baseline().with_faults(vip_faults::DramFaultConfig {
            seed: 1,
            single_bit_ppm: 2_000_000,
            double_bit_ppm: 0,
        });
        let e = hot.validate().unwrap_err();
        assert_eq!(e.field, "faults");
    }

    #[test]
    fn baseline_matches_table_iii() {
        let cfg = MemConfig::baseline();
        assert_eq!(cfg.vaults, 32);
        assert_eq!(cfg.banks_per_vault, 16);
        assert_eq!(cfg.rows_per_bank, 65_536);
        assert_eq!(cfg.row_bytes, 256);
        assert_eq!(cfg.policy, RowPolicy::OpenPage);
        assert_eq!(cfg.trans_queue_depth, 32);
        // 32 B per 4 cycles per vault = 10 GB/s; x32 vaults = 320 GB/s.
        let gb_per_s = cfg.peak_bytes_per_cycle() * 1.25e9 / 1e9;
        assert!((gb_per_s - 320.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = MemConfig::baseline();
        cfg.vaults = 3;
        assert!(cfg.validate().is_err());

        let mut cfg = MemConfig::baseline();
        cfg.col_bytes = 512;
        assert!(cfg.validate().is_err());

        let mut cfg = MemConfig::baseline();
        cfg.trans_queue_depth = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn vault_base_partitions_address_space() {
        let cfg = MemConfig::baseline();
        assert_eq!(cfg.vault_base(0), 0);
        assert_eq!(cfg.vault_base(1), 256 << 20); // 256 MiB per vault
        assert_eq!(cfg.vault_of(cfg.vault_base(5)), 5);
        assert_eq!(cfg.vault_of(cfg.vault_base(5) + 12345), 5);
    }
}
