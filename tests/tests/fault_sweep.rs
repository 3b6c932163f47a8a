//! End-to-end fault-injection sweep: a multi-vault workload whose
//! traffic crosses the torus is run under simultaneous DRAM, NoC, and
//! PE injection across several seeds. The sweep is the CI smoke test
//! for the whole robustness subsystem: SECDED absorbs the DRAM hits,
//! CRC + retransmission absorbs the link hits, nothing panics, and
//! every outcome — including the deliberately-provoked failure paths —
//! is a typed error reproducible from the seed.

use vip_core::{Engine, SimError, System, SystemConfig, SystemStats};
use vip_faults::{DramFaultConfig, FaultConfig, NocFaultConfig, PeFaultConfig};
use vip_isa::{assemble, Program, Reg};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// A ping-pong workload: PE 0 (vault 0) streams stores into vault 3,
/// reads them back, and re-publishes locally — every access crosses the
/// torus twice, so NoC faults get plenty of link traversals to land on.
fn cross_vault_program() -> Program {
    assemble(
        "mov.imm r6, 0
         loop: st.reg r1, r2
         memfence
         ld.reg r3, r2
         addi r2, r2, 8
         addi r1, r1, 1
         st.reg r3, r4
         addi r4, r4, 8
         addi r5, r5, -1
         bne r5, r6, loop
         memfence
         halt",
    )
    .unwrap()
}

const ROUNDS: u64 = 32;

fn run_sweep_case(faults: &FaultConfig) -> Result<(SystemStats, Vec<u64>), SimError> {
    let cfg = SystemConfig::test_vaults(4).with_faults(faults);
    let remote_base = cfg.mem.vault_base(3) + 0x100;
    let mut sys = System::new(cfg);
    sys.load_program(0, &cross_vault_program());
    sys.set_reg(0, r(1), 0x1000);
    sys.set_reg(0, r(2), remote_base);
    sys.set_reg(0, r(4), 0x40);
    sys.set_reg(0, r(5), ROUNDS);
    sys.run(2_000_000)?;
    let copied = (0..ROUNDS)
        .map(|i| sys.hmc().host_read_u64(0x40 + i * 8))
        .collect();
    Ok((sys.stats(), copied))
}

fn expected_copies() -> Vec<u64> {
    (0..ROUNDS).map(|i| 0x1000 + i).collect()
}

#[test]
fn sweep_recovers_from_simultaneous_dram_and_noc_faults() {
    // Moderate rates across three seeds: the run must complete with
    // golden data every time, and across the sweep both recovery
    // mechanisms must demonstrably have fired.
    let mut total_corrected = 0;
    let mut total_link_faults = 0;
    for seed in [0xa0, 0xa1, 0xa2] {
        let faults = FaultConfig {
            dram: Some(DramFaultConfig {
                seed,
                single_bit_ppm: 20_000,
                double_bit_ppm: 0,
            }),
            noc: Some(NocFaultConfig {
                seed,
                corrupt_ppm: 20_000,
                drop_ppm: 10_000,
                max_retries: 16,
                backoff: 4,
            }),
            pe: None,
        };
        let (stats, copied) = run_sweep_case(&faults)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: recoverable-rate sweep failed: {e}"));
        assert_eq!(copied, expected_copies(), "seed {seed:#x}: data corrupted");
        assert_eq!(stats.mem.ecc_uncorrectable, 0, "seed {seed:#x}");
        assert_eq!(stats.noc.delivery_failures, 0, "seed {seed:#x}");
        assert_eq!(
            stats.noc.retries,
            stats.noc.crc_detected + stats.noc.dropped,
            "seed {seed:#x}: every link fault costs exactly one retry"
        );
        total_corrected += stats.mem.ecc_corrected;
        total_link_faults += stats.noc.retries;
    }
    assert!(total_corrected > 0, "no DRAM fault fired across the sweep");
    assert!(total_link_faults > 0, "no NoC fault fired across the sweep");
}

#[test]
fn double_bit_faults_surface_as_a_typed_machine_check() {
    // Crank double-bit flips high enough that a load is guaranteed to
    // consume poisoned data: the run must end in UncorrectableMemory
    // naming the consuming PE — never a panic.
    let faults = FaultConfig {
        dram: Some(DramFaultConfig {
            seed: 0xbad,
            single_bit_ppm: 0,
            double_bit_ppm: 200_000,
        }),
        noc: None,
        pe: None,
    };
    match run_sweep_case(&faults) {
        Err(SimError::UncorrectableMemory { pe, .. }) => assert_eq!(pe, 0),
        other => panic!("expected a machine check, got {other:?}"),
    }
}

#[test]
fn exhausted_retransmission_budget_is_a_typed_delivery_failure() {
    // With a sky-high drop rate and almost no retry budget, some packet
    // will exhaust its retransmissions; the NoC reports which link gave
    // up rather than hanging or panicking.
    let faults = FaultConfig {
        dram: None,
        noc: Some(NocFaultConfig {
            seed: 0xdead,
            corrupt_ppm: 0,
            drop_ppm: 600_000,
            max_retries: 1,
            backoff: 1,
        }),
        pe: None,
    };
    match run_sweep_case(&faults) {
        Err(SimError::NocDeliveryFailed { .. }) => {}
        other => panic!("expected a delivery failure, got {other:?}"),
    }
}

#[test]
fn unprotected_writeback_upsets_are_counted_but_silent() {
    // The register file has no ECC: a low-rate writeback upset must not
    // crash the machine, and the flip counter records the exposure even
    // when the corrupted register never changes an outcome. Outcomes
    // may legitimately differ from golden here — the assertion is that
    // whatever happens is a typed outcome, reproducible from the seed.
    for seed in [0xc0, 0xc1] {
        let faults = FaultConfig {
            dram: None,
            noc: None,
            pe: Some(PeFaultConfig {
                seed,
                writeback_flip_ppm: 5_000,
            }),
        };
        let a = run_sweep_case(&faults);
        let b = run_sweep_case(&faults);
        assert_eq!(a, b, "seed {seed:#x}: outcome must replay exactly");
        if let Ok((stats, copied)) = a {
            // No flip landed on a load-bearing bit this seed — then the
            // data must be untouched (flips only ever hit writebacks).
            if stats.pe.writeback_flips == 0 {
                assert_eq!(copied, expected_copies(), "seed {seed:#x}");
            }
        }
    }
}

#[test]
fn sweep_outcomes_are_independent_of_the_stepping_engine() {
    // The determinism contract under LIVE faults: naive and
    // fast-forward stepping see the identical fault pattern because
    // draws key off architectural coordinates, not wall-clock event
    // order.
    let faults = FaultConfig {
        dram: Some(DramFaultConfig {
            seed: 0xe0,
            single_bit_ppm: 20_000,
            double_bit_ppm: 0,
        }),
        noc: Some(NocFaultConfig {
            seed: 0xe0,
            corrupt_ppm: 20_000,
            drop_ppm: 0,
            max_retries: 16,
            backoff: 4,
        }),
        pe: None,
    };
    let cfg = SystemConfig::test_vaults(4).with_faults(&faults);
    let remote_base = cfg.mem.vault_base(3) + 0x100;
    let run = |naive: bool| {
        let mut sys = System::new(cfg.clone());
        sys.load_program(0, &cross_vault_program());
        sys.set_reg(0, r(1), 0x1000);
        sys.set_reg(0, r(2), remote_base);
        sys.set_reg(0, r(4), 0x40);
        sys.set_reg(0, r(5), ROUNDS);
        if naive {
            Engine::Naive.run(&mut sys, 2_000_000).unwrap();
        } else {
            sys.run(2_000_000).unwrap();
        }
        sys.stats()
    };
    assert_eq!(run(true), run(false), "fault pattern depends on engine");
}
