//! The differential conformance fuzzer: ≥ 512 seeded random multi-PE
//! programs, each executed on the architectural reference interpreter
//! and on every stepping engine (naive, fast-forward, functional), with
//! complete final architectural state compared.
//!
//! On a failure the panic message carries the seed, the disagreeing
//! engine, the first mismatching locations, and the minimized
//! disassembled programs. Re-run just the failing case with
//! `VIP_TEST_SEED=<seed> cargo test -p vip-ref`.
//!
//! The seed space is split across four `#[test]` functions so the
//! default test runner parallelizes the sweep.

use vip_ref::{fuzz_one, GenConfig};
use vip_rng::for_each_seed;

fn fuzz_range(label: &str, base: u64, count: u64) {
    let cfg = GenConfig::default();
    for_each_seed(label, base, count, |seed| {
        if let Err(d) = fuzz_one(seed, &cfg) {
            panic!("{d}");
        }
    });
}

#[test]
fn differential_seeds_a() {
    fuzz_range("differential_seeds_a", 0x0000, 128);
}

#[test]
fn differential_seeds_b() {
    fuzz_range("differential_seeds_b", 0x1000, 128);
}

#[test]
fn differential_seeds_c() {
    fuzz_range("differential_seeds_c", 0x2000, 128);
}

#[test]
fn differential_seeds_d() {
    fuzz_range("differential_seeds_d", 0x3000, 128);
}

#[test]
fn differential_single_pe_cases() {
    // A single-PE configuration exercises nothing concurrent: any
    // failure here is purely a PE-pipeline conformance bug, which makes
    // repros much easier to read.
    let cfg = GenConfig {
        num_pes: 1,
        max_ring_rounds: 0,
        ..GenConfig::default()
    };
    for_each_seed("differential_single_pe_cases", 0x4000, 64, |seed| {
        if let Err(d) = fuzz_one(seed, &cfg) {
            panic!("{d}");
        }
    });
}

#[test]
fn differential_operand_extremes() {
    // Zero-length DMAs among the ordinary segments, and every other
    // case ends one PE in an instruction whose operand registers hold
    // 0, cap - 1, cap, 2^32, 2^63 or u64::MAX: where the reference
    // traps, every engine must stop on the identical typed trap.
    let cfg = GenConfig {
        extremes: true,
        ..GenConfig::default()
    };
    for_each_seed("differential_operand_extremes", 0x6000, 128, |seed| {
        if let Err(d) = fuzz_one(seed, &cfg) {
            panic!("{d}");
        }
    });
}

#[test]
fn differential_dram_extremes() {
    // Every case ends one PE in a DRAM transfer or register word at the
    // top of the memory, at its capacity, or far past it — up to where
    // the range wraps the address space: where the reference traps,
    // every engine must stop on the identical typed trap.
    let cfg = GenConfig {
        dram_extremes: true,
        ..GenConfig::default()
    };
    for_each_seed("differential_dram_extremes", 0x7000, 64, |seed| {
        if let Err(d) = fuzz_one(seed, &cfg) {
            panic!("{d}");
        }
    });
}

#[test]
fn differential_sync_heavy_cases() {
    // Bias toward full-empty traffic: many ring rounds, few segments.
    let cfg = GenConfig {
        max_segments: 4,
        max_ring_rounds: 6,
        ..GenConfig::default()
    };
    for_each_seed("differential_sync_heavy_cases", 0x5000, 64, |seed| {
        if let Err(d) = fuzz_one(seed, &cfg) {
            panic!("{d}");
        }
    });
}
