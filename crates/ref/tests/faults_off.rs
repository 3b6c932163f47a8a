//! Fault-injector inertness, checked differentially: the same seeded
//! random multi-PE programs the conformance fuzzer uses are run on
//! every cycle-level stepping engine twice — once with no injector
//! wired at all ([`FaultConfig::disabled`]) and once with every
//! injector wired at zero rate ([`FaultConfig::zero_rate`]) — and the
//! complete final architectural state, the cycle count, and every
//! statistics counter must be bit-identical. This is the PR's core
//! safety contract: with faults disabled the machine is
//! indistinguishable from a build without the fault subsystem.

use vip_core::{System, SystemConfig, SystemStats};
use vip_faults::FaultConfig;
use vip_ref::diff::{diff_snapshots, ArchSnapshot, Engine, MAX_CYCLES};
use vip_ref::{generate, GenConfig, Materialized};
use vip_rng::for_each_seed;

/// Runs `m` on one engine with the given fault configuration and
/// returns the final architectural snapshot plus the full statistics
/// record (cycles included).
fn run_with(m: &Materialized, engine: Engine, faults: &FaultConfig) -> (ArchSnapshot, SystemStats) {
    let mut sys = System::new(SystemConfig::small_test().with_faults(faults));
    assert!(m.programs.len() <= sys.total_pes());
    for (addr, bytes) in &m.mem_init {
        sys.hmc_mut().host_write(*addr, bytes);
    }
    for addr in &m.full_init {
        sys.hmc_mut().host_set_full(*addr, true);
    }
    for (pe, sp) in m.sp_init.iter().enumerate() {
        sys.pe_mut(pe)
            .scratchpad_mut()
            .write(0, sp)
            .expect("generated scratchpad image fits");
    }
    for (pe, p) in m.programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    // Small cases: shrink the windows so the functional tier engages
    // instead of finishing inside the calibration run (the exact
    // engines ignore the setting).
    sys.set_func_config(vip_core::FuncConfig {
        warmup_cycles: 64,
        sample_cycles: 256,
        stretch_work: 2_000,
        quantum: 64,
        drain_cycles: 5_000,
    });
    engine
        .run(&mut sys, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{engine} engine with {faults:?}: {e}"));
    let snapshot = ArchSnapshot {
        pes: (0..m.programs.len())
            .map(|i| sys.pe(i).arch_state())
            .collect(),
        dram: m
            .check_ranges
            .iter()
            .map(|&(addr, len)| (addr, sys.hmc().host_read(addr, len)))
            .collect(),
        full: m
            .check_ranges
            .iter()
            .map(|&(addr, len)| {
                (
                    addr,
                    (0..len / 8)
                        .map(|w| sys.hmc().host_is_full(addr + w as u64 * 8))
                        .collect(),
                )
            })
            .collect(),
    };
    (snapshot, sys.stats())
}

#[test]
fn zero_rate_injector_is_bit_identical_on_every_engine() {
    let cfg = GenConfig::default();
    for_each_seed("faults_off_differential", 0x6000, 24, |seed| {
        let m = generate(seed, &cfg).materialize_full();
        // The injector seed deliberately varies with the program seed:
        // inertness must not depend on which seed the inert draws use.
        let wired = FaultConfig::zero_rate(seed ^ 0x5eed);
        assert!(wired.is_inert());
        for engine in Engine::ALL {
            let (plain_snap, plain_stats) = run_with(&m, engine, &FaultConfig::disabled());
            let (wired_snap, wired_stats) = run_with(&m, engine, &wired);
            if let Some(detail) = diff_snapshots(&plain_snap, &wired_snap) {
                panic!(
                    "seed {seed:#x}, {engine} engine: zero-rate injector changed \
                     architectural state:\n{detail}"
                );
            }
            assert_eq!(
                plain_stats, wired_stats,
                "seed {seed:#x}, {engine} engine: zero-rate injector changed \
                 cycle count or statistics"
            );
            assert_eq!(wired_stats.mem.retention_faults, 0);
            assert_eq!(wired_stats.noc.crc_detected + wired_stats.noc.dropped, 0);
            assert_eq!(wired_stats.pe.writeback_flips, 0);
        }
    });
}

#[test]
fn engines_agree_with_a_wired_zero_rate_injector() {
    // Cross-engine agreement (not just plain-vs-wired within one
    // engine): all three engines with the injector wired must still
    // land on the same state and cycle count as each other.
    let cfg = GenConfig::default();
    for_each_seed("faults_off_cross_engine", 0x7000, 12, |seed| {
        let m = generate(seed, &cfg).materialize_full();
        let wired = FaultConfig::zero_rate(seed);
        let (base_snap, base_stats) = run_with(&m, Engine::Naive, &wired);
        let (snap, stats) = run_with(&m, Engine::Fast, &wired);
        if let Some(detail) = diff_snapshots(&base_snap, &snap) {
            panic!("seed {seed:#x}: naive vs fast-forward under wired injector:\n{detail}");
        }
        assert_eq!(
            base_stats, stats,
            "seed {seed:#x}: naive vs fast-forward stats"
        );
        // The functional tier promises bit-identical architectural
        // state and retirement counters; its cycle-dependent numbers
        // (estimated clock, refresh counts, occupancy) legitimately
        // differ, so compare only the retirement side of the record.
        let (func_snap, func_stats) = run_with(&m, Engine::Functional, &wired);
        if let Some(detail) = diff_snapshots(&base_snap, &func_snap) {
            panic!("seed {seed:#x}: naive vs functional under wired injector:\n{detail}");
        }
        for (name, base, func) in [
            (
                "instructions",
                base_stats.pe.instructions,
                func_stats.pe.instructions,
            ),
            (
                "scalar_instructions",
                base_stats.pe.scalar_instructions,
                func_stats.pe.scalar_instructions,
            ),
            (
                "vector_instructions",
                base_stats.pe.vector_instructions,
                func_stats.pe.vector_instructions,
            ),
            (
                "ldst_instructions",
                base_stats.pe.ldst_instructions,
                func_stats.pe.ldst_instructions,
            ),
            ("lane_ops", base_stats.pe.lane_ops, func_stats.pe.lane_ops),
            (
                "lane_mul_ops",
                base_stats.pe.lane_mul_ops,
                func_stats.pe.lane_mul_ops,
            ),
            ("sp_beats", base_stats.pe.sp_beats, func_stats.pe.sp_beats),
            (
                "work_units",
                base_stats.pe.work_units,
                func_stats.pe.work_units,
            ),
            (
                "writeback_flips",
                base_stats.pe.writeback_flips,
                func_stats.pe.writeback_flips,
            ),
        ] {
            assert_eq!(base, func, "seed {seed:#x}: naive vs functional {name}");
        }
    });
}
