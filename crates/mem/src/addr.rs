//! Physical address interleaving schemes (§III-C).

use crate::config::MemConfig;
use vip_snap::snapshot_struct;

/// A physical address decomposed into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    /// Vault index.
    pub vault: usize,
    /// Bank index within the vault.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column index within the row.
    pub col: u64,
    /// Byte offset within the column.
    pub offset: u64,
}

snapshot_struct!(DecodedAddr {
    vault,
    bank,
    row,
    col,
    offset
});

/// Address-interleaving scheme.
///
/// The default HMC scheme indexes vaults with *low* address bits, which
/// maximizes parallelism for an external host streaming through memory.
/// VIP instead puts the vault index in the *most significant* bits so
/// that each PE can allocate data wholly inside its local vault and keep
/// traffic off the on-chip network (§III-C). The paper notes this is a
/// static bit shuffle, simpler than virtual memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// `vault : row : bank : col : offset` — VIP's scheme (Table III
    /// "vault-row-bank-col"): vault in the high bits, so each vault owns
    /// a contiguous region; consecutive columns stay in one row (good for
    /// open-page streaming), and consecutive rows rotate banks.
    #[default]
    VaultRowBankCol,
    /// `row : bank : col : vault : offset` — the HMC-default scheme with
    /// the vault index in the low bits just above the column offset.
    LowInterleave,
}

impl AddressMapping {
    /// Bit position of each field's lowest bit, as `[col, bank, row,
    /// vault]`. The geometry is validated powers of two, so every field
    /// is a shift and a mask: the system decodes the vault of every
    /// waiting request every cycle, and a 64-bit divide there shows.
    fn shifts(self, cfg: &MemConfig) -> [u32; 4] {
        let offset_bits = cfg.col_bytes.trailing_zeros();
        let col_bits = cfg.row_bytes.trailing_zeros() - offset_bits;
        let bank_bits = cfg.banks_per_vault.trailing_zeros();
        match self {
            // low → high: col, bank, row, vault
            AddressMapping::VaultRowBankCol => {
                let bank = offset_bits + col_bits;
                let row = bank + bank_bits;
                [
                    offset_bits,
                    bank,
                    row,
                    row + cfg.rows_per_bank.trailing_zeros(),
                ]
            }
            // low → high: vault, col, bank, row
            AddressMapping::LowInterleave => {
                let col = offset_bits + cfg.vaults.trailing_zeros();
                let bank = col + col_bits;
                [col, bank, bank + bank_bits, offset_bits]
            }
        }
    }

    /// Decomposes `addr` into DRAM coordinates under `cfg`'s geometry.
    ///
    /// Addresses wrap modulo total capacity (high bits beyond the
    /// configured geometry are ignored).
    #[must_use]
    pub fn decode(self, cfg: &MemConfig, addr: u64) -> DecodedAddr {
        let [col, bank, row, vault] = self.shifts(cfg);
        let field = |shift: u32, count: usize| (addr >> shift) & (count as u64 - 1);
        DecodedAddr {
            vault: field(vault, cfg.vaults) as usize,
            bank: field(bank, cfg.banks_per_vault) as usize,
            row: field(row, cfg.rows_per_bank),
            col: field(col, cfg.row_bytes / cfg.col_bytes),
            offset: addr & (cfg.col_bytes as u64 - 1),
        }
    }

    /// The vault field of [`decode`](Self::decode) alone.
    pub(crate) fn vault_of(self, cfg: &MemConfig, addr: u64) -> usize {
        let [.., vault] = self.shifts(cfg);
        (addr >> vault) as usize & (cfg.vaults - 1)
    }

    /// Recomposes DRAM coordinates into a physical address (the inverse
    /// of [`decode`](Self::decode)).
    #[must_use]
    pub fn encode(self, cfg: &MemConfig, d: DecodedAddr) -> u64 {
        let [col, bank, row, vault] = self.shifts(cfg);
        (d.col << col)
            | ((d.bank as u64) << bank)
            | (d.row << row)
            | ((d.vault as u64) << vault)
            | d.offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vip_rng::{for_each_seed, SplitMix64};

    #[test]
    fn vault_high_keeps_vault_regions_contiguous() {
        let cfg = MemConfig::baseline();
        let m = AddressMapping::VaultRowBankCol;
        let vault_bytes = cfg.vault_bytes();
        for v in [0u64, 1, 7, 31] {
            let lo = m.decode(&cfg, v * vault_bytes);
            let hi = m.decode(&cfg, (v + 1) * vault_bytes - 1);
            assert_eq!(lo.vault as u64, v);
            assert_eq!(hi.vault as u64, v);
        }
    }

    #[test]
    fn low_interleave_rotates_vaults_per_column() {
        let cfg = MemConfig {
            mapping: AddressMapping::LowInterleave,
            ..MemConfig::baseline()
        };
        let m = AddressMapping::LowInterleave;
        assert_eq!(m.decode(&cfg, 0).vault, 0);
        assert_eq!(m.decode(&cfg, 32).vault, 1);
        assert_eq!(m.decode(&cfg, 32 * 31).vault, 31);
        assert_eq!(m.decode(&cfg, 32 * 32).vault, 0);
    }

    #[test]
    fn sequential_columns_share_a_row_under_vault_high() {
        let cfg = MemConfig::baseline();
        let m = AddressMapping::VaultRowBankCol;
        let a = m.decode(&cfg, 0);
        let b = m.decode(&cfg, 32);
        let c = m.decode(&cfg, 224);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.col, 1);
        assert_eq!(c.col, 7);
        // The next column rolls into the next bank (bank rotation).
        let d = m.decode(&cfg, 256);
        assert_eq!(d.bank, a.bank + 1);
        assert_eq!(d.row, a.row);
    }

    #[test]
    fn encode_is_inverse_of_decode() {
        for cfg in [
            MemConfig::baseline(),
            MemConfig::wide_row(),
            MemConfig::narrow_row(),
            MemConfig::more_ranks(),
            MemConfig::fewer_ranks(),
        ] {
            for mapping in [
                AddressMapping::VaultRowBankCol,
                AddressMapping::LowInterleave,
            ] {
                for addr in [0u64, 31, 32, 1000, 123_456_789, cfg.total_bytes() - 1] {
                    let d = mapping.decode(&cfg, addr);
                    assert_eq!(
                        mapping.encode(&cfg, d),
                        addr,
                        "{mapping:?} {} addr {addr}",
                        cfg.name
                    );
                }
            }
        }
    }

    /// `decode` is shifts and masks; the layouts are defined by division
    /// and remainder. Every preset under both mappings, at `0`,
    /// `u64::MAX`, both sides of every field boundary (fields start at
    /// powers of two) and seeded addresses in and beyond capacity.
    #[test]
    fn decode_matches_the_arithmetic_definition() {
        let mut presets = MemConfig::figure5_sweep();
        presets.push(MemConfig::with_hmc_packets());
        let mut addrs = vec![0, u64::MAX];
        for bit in 0..64 {
            let boundary = 1u64 << bit;
            addrs.extend([boundary - 1, boundary, boundary + 1]);
        }
        for_each_seed("decode_matches_the_arithmetic", 0xadd2_0000, 4, |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut addrs = addrs.clone();
            for _ in 0..256 {
                addrs.extend([rng.next_u64(), rng.below(8 << 30)]);
            }
            for preset in &presets {
                for mapping in [
                    AddressMapping::VaultRowBankCol,
                    AddressMapping::LowInterleave,
                ] {
                    let cfg = MemConfig {
                        mapping,
                        ..preset.clone()
                    };
                    let col_bytes = cfg.col_bytes as u64;
                    let cols = (cfg.row_bytes / cfg.col_bytes) as u64;
                    let (banks, rows) = (cfg.banks_per_vault as u64, cfg.rows_per_bank as u64);
                    let vaults = cfg.vaults as u64;
                    for &addr in &addrs {
                        let block = addr / col_bytes;
                        let (vault, col, bank, row) = match mapping {
                            AddressMapping::VaultRowBankCol => (
                                block / cols / banks / rows % vaults,
                                block % cols,
                                block / cols % banks,
                                block / cols / banks % rows,
                            ),
                            AddressMapping::LowInterleave => (
                                block % vaults,
                                block / vaults % cols,
                                block / vaults / cols % banks,
                                block / vaults / cols / banks % rows,
                            ),
                        };
                        let expect = DecodedAddr {
                            vault: vault as usize,
                            bank: bank as usize,
                            row,
                            col,
                            offset: addr % col_bytes,
                        };
                        let context = format!("{mapping:?} {} addr {addr:#x}", cfg.name);
                        assert_eq!(mapping.decode(&cfg, addr), expect, "{context}");
                        assert_eq!(cfg.vault_of(addr), expect.vault, "{context}");
                    }
                }
            }
        });
    }

    /// What lets the vault controller keep its conflict bookkeeping per
    /// bank: two requests that each pass `enqueue`'s granule assert and
    /// share a byte sit in the same row of the same bank, so an
    /// overlapping older request is always found in the newcomer's lane.
    #[test]
    fn overlapping_requests_share_vault_bank_and_row() {
        let mut presets = MemConfig::figure5_sweep();
        presets.push(MemConfig::with_hmc_packets());
        for_each_seed("overlapping_requests_share", 0x0b4a_4000, 8, |seed| {
            let mut rng = SplitMix64::new(seed);
            for preset in &presets {
                for mapping in [
                    AddressMapping::VaultRowBankCol,
                    AddressMapping::LowInterleave,
                ] {
                    let cfg = MemConfig {
                        mapping,
                        ..preset.clone()
                    };
                    let granule = cfg.request_granule() as u64;
                    let legal = |addr: u64, len: u64| (addr % granule) + len <= granule;
                    let mut pairs = 0;
                    while pairs < 200 {
                        let (a, b) = (
                            rng.below(cfg.total_bytes() - 2 * granule) + granule,
                            rng.below(2 * granule),
                        );
                        let b = a + b - granule;
                        let (a_len, b_len) = (1 + rng.below(granule), 1 + rng.below(granule));
                        let overlap = a < b + b_len && b < a + a_len;
                        if !(legal(a, a_len) && legal(b, b_len) && overlap) {
                            continue;
                        }
                        pairs += 1;
                        let place = |addr| {
                            let d = mapping.decode(&cfg, addr);
                            (d.vault, d.bank, d.row)
                        };
                        for addr in [a + a_len - 1, b, b + b_len - 1] {
                            assert_eq!(
                                place(addr),
                                place(a),
                                "{mapping:?} {}: [{a:#x}; {a_len}] and [{b:#x}; {b_len}]",
                                cfg.name
                            );
                        }
                    }
                }
            }
        });
    }
}
