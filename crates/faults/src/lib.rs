//! Deterministic, seed-driven fault injection.
//!
//! VIP sits in the logic layer of an HMC-like 3D stack, and the paper's
//! §VI-C refresh study (1x/2x/4x tREFI) is exactly the regime where DRAM
//! retention faults become visible. This crate models the fault sources
//! the simulator injects — retention bit flips on the DRAM read path,
//! flit corruption and drops on torus links, PE register-writeback
//! upsets — together with the graceful-degradation codes that absorb
//! them: a SECDED (72,64) Hamming code on the vault read path and a
//! CRC-32 on NoC packets.
//!
//! # Determinism contract
//!
//! Every fault decision is a *stateless* function of
//! `(seed, domain, a, b)` — there is no mutable RNG stream anywhere.
//! The coordinates `a`/`b` are architectural (a word address and the
//! issue cycle, a packet uid and its hop count, a PE id and its retired
//! instruction count), so the same program under the same seed sees the
//! same faults regardless of which stepping engine runs it, how PEs are
//! sharded across threads, or in what order components tick. This is
//! what lets the differential fuzzer referee fault runs too.
//!
//! With every rate at zero (or every config `None`) the injector is
//! inert and the machine must stay bit-identical to a build without it.

#![forbid(unsafe_code)]

pub mod crc;
pub mod secded;

use vip_rng::SplitMix64;
use vip_snap::snapshot_struct;

/// One million — fault rates are expressed as integer parts-per-million
/// so configs stay `Copy + Eq` (no floats).
pub const PPM_SCALE: u64 = 1_000_000;

/// The architectural site a fault draw applies to. Each domain hashes
/// differently so e.g. DRAM word 64 at cycle 3 and NoC packet 64 at hop
/// 3 are independent coin flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultDomain {
    /// Retention flips in a DRAM word, keyed by (word address, issue
    /// cycle).
    DramRetention,
    /// Flit corruption/drop on a torus link, keyed by (packet uid,
    /// attempt/hop coordinates).
    NocFlit,
    /// A PE scalar register writeback upset, keyed by (pe id, retired
    /// instruction count).
    PeWriteback,
}

impl FaultDomain {
    const fn tag(self) -> u64 {
        match self {
            FaultDomain::DramRetention => 0x5eed_d0d0_d4a3_0001,
            FaultDomain::NocFlit => 0x5eed_d0d0_f117_0002,
            FaultDomain::PeWriteback => 0x5eed_d0d0_57a7_0003,
        }
    }
}

/// A stateless 64-bit hash of `(seed, domain, a, b, salt)`: three
/// chained SplitMix64 steps, each feeding the next seed. Deterministic
/// across platforms and independent of any call ordering.
fn mix(seed: u64, domain: FaultDomain, a: u64, b: u64, salt: u64) -> u64 {
    let s1 = SplitMix64::new(seed ^ domain.tag() ^ salt).next_u64();
    let s2 = SplitMix64::new(s1 ^ a).next_u64();
    SplitMix64::new(s2 ^ b).next_u64()
}

/// The raw uniform roll in `[0, PPM_SCALE)` for the fault at
/// architectural coordinates `(a, b)`. Callers partition the range into
/// outcome bands — e.g. `[0, single_ppm)` is a single-bit flip,
/// `[single_ppm, single_ppm + double_ppm)` a double-bit flip — so
/// mutually exclusive outcomes cost one draw and stay exactly
/// calibrated.
#[must_use]
pub fn fault_roll(seed: u64, domain: FaultDomain, a: u64, b: u64) -> u64 {
    mix(seed, domain, a, b, 0x9f4a) % PPM_SCALE
}

/// Whether the fault at architectural coordinates `(a, b)` fires under
/// `rate_ppm` parts-per-million. A zero rate never fires (and performs
/// no hashing), `PPM_SCALE` or more always fires.
#[must_use]
pub fn fault_fires(seed: u64, domain: FaultDomain, a: u64, b: u64, rate_ppm: u32) -> bool {
    rate_ppm > 0 && fault_roll(seed, domain, a, b) < u64::from(rate_ppm)
}

/// A uniform payload for a fault that fired (which bit to flip, which
/// byte to corrupt). Hashed with a different salt than [`fault_fires`]
/// so the two are independent draws over the same coordinates.
#[must_use]
pub fn fault_value(seed: u64, domain: FaultDomain, a: u64, b: u64) -> u64 {
    mix(seed, domain, a, b, 0x7a1e)
}

/// DRAM retention-fault rates, applied per 8-byte word per read access
/// on the vault data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramFaultConfig {
    /// Seed for the DRAM fault domain.
    pub seed: u64,
    /// Single-bit flip rate per word-read, in parts per million. SECDED
    /// corrects these.
    pub single_bit_ppm: u32,
    /// Double-bit flip rate per word-read, in ppm. SECDED only detects
    /// these: the response comes back poisoned.
    pub double_bit_ppm: u32,
}

impl DramFaultConfig {
    /// Retention faults scale with the refresh interval: the paper's 2x
    /// and 4x refresh-divisor studies leave cells un-refreshed for
    /// proportionally longer. Given the configured `t_refi_ps` and the
    /// baseline it is scaled from, returns the effective single-bit
    /// rate (integer math so all engines agree exactly).
    #[must_use]
    pub fn effective_single_bit_ppm(&self, t_refi_ps: u64, baseline_t_refi_ps: u64) -> u32 {
        if baseline_t_refi_ps == 0 {
            return self.single_bit_ppm;
        }
        let scaled = u64::from(self.single_bit_ppm) * t_refi_ps / baseline_t_refi_ps;
        u32::try_from(scaled.min(PPM_SCALE)).unwrap_or(u32::MAX)
    }
}

/// NoC link-fault rates and the retransmission protocol bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocFaultConfig {
    /// Seed for the NoC fault domain.
    pub seed: u64,
    /// Per-link-traversal flit corruption rate in ppm. The CRC catches
    /// these at the destination and the packet is retransmitted.
    pub corrupt_ppm: u32,
    /// Per-link-traversal flit drop rate in ppm. A missing flit is also
    /// a retransmission.
    pub drop_ppm: u32,
    /// How many retransmissions a packet gets before the NoC declares
    /// delivery failed (surfaced as a typed simulation error).
    pub max_retries: u32,
    /// Base retransmission backoff in cycles; doubles per attempt
    /// (capped at `backoff << 6`).
    pub backoff: u64,
}

/// PE register-writeback upset rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeFaultConfig {
    /// Seed for the PE fault domain.
    pub seed: u64,
    /// Per-scalar-writeback single-bit flip rate in ppm. The PE has no
    /// protection on its register file: these silently corrupt
    /// architectural state (and are counted, so tests can see them).
    pub writeback_flip_ppm: u32,
}

/// The full injector configuration: one optional section per layer.
/// `None` means the layer has no injector wired at all; a wired section
/// with all-zero rates is inert but exercises the fault code paths
/// (the determinism tests use exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultConfig {
    /// DRAM retention faults (absorbed by SECDED on the vault read
    /// path).
    pub dram: Option<DramFaultConfig>,
    /// NoC link faults (absorbed by CRC + retransmission).
    pub noc: Option<NocFaultConfig>,
    /// PE writeback upsets (unprotected).
    pub pe: Option<PeFaultConfig>,
}

impl FaultConfig {
    /// No injector anywhere: the machine is bit-identical to a build
    /// without this crate.
    #[must_use]
    pub const fn disabled() -> Self {
        FaultConfig {
            dram: None,
            noc: None,
            pe: None,
        }
    }

    /// Every injector wired but with all rates zero: exercises the
    /// fault plumbing while provably changing nothing. Determinism
    /// tests compare this against [`FaultConfig::disabled`].
    #[must_use]
    pub const fn zero_rate(seed: u64) -> Self {
        FaultConfig {
            dram: Some(DramFaultConfig {
                seed,
                single_bit_ppm: 0,
                double_bit_ppm: 0,
            }),
            noc: Some(NocFaultConfig {
                seed,
                corrupt_ppm: 0,
                drop_ppm: 0,
                max_retries: 4,
                backoff: 8,
            }),
            pe: Some(PeFaultConfig {
                seed,
                writeback_flip_ppm: 0,
            }),
        }
    }

    /// True if no section can ever fire a fault.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.dram
            .is_none_or(|d| d.single_bit_ppm == 0 && d.double_bit_ppm == 0)
            && self
                .noc
                .is_none_or(|n| n.corrupt_ppm == 0 && n.drop_ppm == 0)
            && self.pe.is_none_or(|p| p.writeback_flip_ppm == 0)
    }
}

snapshot_struct!(DramFaultConfig {
    seed,
    single_bit_ppm,
    double_bit_ppm
});
snapshot_struct!(NocFaultConfig {
    seed,
    corrupt_ppm,
    drop_ppm,
    max_retries,
    backoff
});
snapshot_struct!(PeFaultConfig {
    seed,
    writeback_flip_ppm
});
snapshot_struct!(FaultConfig { dram, noc, pe });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_stateless_and_deterministic() {
        let a = fault_value(7, FaultDomain::DramRetention, 0x40, 123);
        let b = fault_value(7, FaultDomain::DramRetention, 0x40, 123);
        assert_eq!(a, b);
        // Different coordinates, domains, or seeds decorrelate.
        assert_ne!(a, fault_value(7, FaultDomain::DramRetention, 0x48, 123));
        assert_ne!(a, fault_value(7, FaultDomain::DramRetention, 0x40, 124));
        assert_ne!(a, fault_value(7, FaultDomain::NocFlit, 0x40, 123));
        assert_ne!(a, fault_value(8, FaultDomain::DramRetention, 0x40, 123));
    }

    #[test]
    fn fire_and_value_are_independent_draws() {
        // The payload draw must not be a function of the fire draw.
        let fire = mix(7, FaultDomain::NocFlit, 1, 2, 0x9f4a);
        let value = fault_value(7, FaultDomain::NocFlit, 1, 2);
        assert_ne!(fire, value);
    }

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires() {
        for i in 0..1000 {
            assert!(!fault_fires(42, FaultDomain::DramRetention, i, i, 0));
            assert!(fault_fires(
                42,
                FaultDomain::DramRetention,
                i,
                i,
                PPM_SCALE as u32
            ));
        }
    }

    #[test]
    fn fire_rate_tracks_ppm() {
        // 5% nominal over 20k trials: expect 1000 ± a generous margin.
        let hits = (0..20_000u64)
            .filter(|&i| fault_fires(9, FaultDomain::PeWriteback, i, 0, 50_000))
            .count();
        assert!((700..1300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn refresh_scaling_is_integer_exact() {
        let cfg = DramFaultConfig {
            seed: 0,
            single_bit_ppm: 250,
            double_bit_ppm: 0,
        };
        let base = 1_950_000;
        assert_eq!(cfg.effective_single_bit_ppm(base, base), 250);
        assert_eq!(cfg.effective_single_bit_ppm(base * 2, base), 500);
        assert_eq!(cfg.effective_single_bit_ppm(base * 4, base), 1000);
        // Degenerate baseline falls back to the nominal rate.
        assert_eq!(cfg.effective_single_bit_ppm(base, 0), 250);
        // Saturates at certainty.
        assert_eq!(
            cfg.effective_single_bit_ppm(base * 100_000, base),
            PPM_SCALE as u32
        );
    }

    #[test]
    fn inertness() {
        assert!(FaultConfig::disabled().is_inert());
        assert!(FaultConfig::zero_rate(77).is_inert());
        let mut hot = FaultConfig::zero_rate(77);
        hot.dram.as_mut().unwrap().single_bit_ppm = 1;
        assert!(!hot.is_inert());
    }
}
