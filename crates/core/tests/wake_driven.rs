//! Pause-everywhere differential for wake-driven stepping.
//!
//! `run`/`run_until` visit only the PEs that are due and replay a
//! sleeper's per-cycle counters when it wakes; `run_naive_until` (public
//! `step`) visits every PE every cycle and is the reference. Nothing a
//! caller can read — `stats()` down to every per-cause stall counter,
//! each PE's own `stats()`, the snapshot bytes, the error and what the
//! counters read after it — may tell the two apart, at whatever cycle
//! the run is paused.
//!
//! The debug-build assertions in `step` (a skipped PE still says "not
//! due" from scratch) run underneath; CI also runs this file in
//! `--release`, the build without them.

use vip_core::{FuncConfig, RunOutcome, SimError, StallReason, System, SystemConfig};
use vip_faults::{FaultConfig, NocFaultConfig};
use vip_isa::{Asm, ElemType, HorizontalOp, Program, Reg, VerticalOp};

const LIMIT: u64 = 200_000;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Eight PEs over two vaults, the DRAM data bus at half rate: the vault
/// falls behind two streaming LSUs far enough to fill a 64-entry LSQ.
fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::test_vaults(2);
    cfg.mem.burst_cycles = 8;
    cfg
}

/// Vector-busy, drain and branch-bubble sleeps (all `StalledUntil`):
/// long vector ops back to back, a drain, a taken branch, three times.
fn vector_loop() -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 256)
        .set_vl(r(1))
        .mov_imm(r(2), 0)
        .mov_imm(r(3), 1024)
        .mov_imm(r(4), 2048)
        .mov_imm(r(7), 0)
        .mov_imm(r(8), 3)
        .label("again")
        .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
        .vec_vec(VerticalOp::Mul, ElemType::I16, r(4), r(2), r(3))
        .v_drain()
        .addi(r(7), r(7), 1)
        .blt(r(7), r(8), "again")
        .mov_imm(r(1), 8)
        .set_vl(r(1))
        .set_mr(r(1))
        .mat_vec(
            VerticalOp::Add,
            HorizontalOp::Min,
            ElemType::I16,
            r(4),
            r(2),
            r(3),
        )
        .v_drain()
        .halt();
    asm.assemble().unwrap()
}

/// ARC-overlap, fence and — with many small loads — ARC-full or — with
/// a few large ones — LSQ-busy sleeps (all plain `Stalled`): `loads`
/// scratchpad loads of `elems` i16 each from `base`, a burst of
/// register stores queueing behind them, a vector op over the range
/// still loading, a store of the result, a fence.
fn dma_pressure(base: u64, loads: i64, elems: i64) -> Program {
    let bytes = 2 * elems;
    assert!(loads * bytes <= 3968);
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 0) // scratchpad cursor
        .mov_imm(r(2), base as i64) // DRAM cursor
        .mov_imm(r(3), elems);
    for _ in 0..loads {
        asm.ld_sram(ElemType::I16, r(1), r(2), r(3))
            .addi(r(1), r(1), bytes as i32)
            .addi(r(2), r(2), bytes as i32);
    }
    for _ in 0..40 {
        asm.st_reg(r(3), r(2)).addi(r(2), r(2), 8);
    }
    asm.mov_imm(r(4), 64)
        .set_vl(r(4))
        .mov_imm(r(5), (loads - 1) * bytes) // the last load's destination
        .mov_imm(r(6), 0)
        .mov_imm(r(9), 3968)
        .vec_vec(VerticalOp::Add, ElemType::I16, r(9), r(5), r(6))
        .st_sram(ElemType::I16, r(9), r(2), r(4))
        .memfence()
        .halt();
    asm.assemble().unwrap()
}

/// Scalar-operand sleeps: a dependent chain of register loads through
/// `first`, each link's address the previous link's data.
fn pointer_chase(first: u64, links: i64) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(1), first as i64)
        .mov_imm(r(2), 0)
        .mov_imm(r(3), links)
        .label("chase")
        .ld_reg(r(1), r(1))
        .addi(r(2), r(2), 1)
        .blt(r(2), r(3), "chase")
        .halt();
    asm.assemble().unwrap()
}

/// A full-empty wait: parked on `flag` until the producer publishes,
/// then stores what it took.
fn fe_consumer(flag: u64, out: u64) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(2), flag as i64)
        .mov_imm(r(4), out as i64)
        .ld_reg_fe(r(3), r(2))
        .st_reg(r(3), r(4))
        .memfence()
        .halt();
    asm.assemble().unwrap()
}

/// Spins `delay` iterations, then publishes to `flag`.
fn fe_producer(flag: u64, delay: i64) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 42)
        .mov_imm(r(2), flag as i64)
        .mov_imm(r(5), 0)
        .mov_imm(r(6), delay)
        .label("delay")
        .addi(r(5), r(5), 1)
        .blt(r(5), r(6), "delay")
        .st_reg_ff(r(1), r(2))
        .memfence()
        .halt();
    asm.assemble().unwrap()
}

/// Halts with stores still in its LSU: the halted PE keeps emitting and
/// receiving without ever ticking its front end again.
fn store_and_halt(dst: u64) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 0)
        .mov_imm(r(2), dst as i64)
        .mov_imm(r(3), 512) // i16 elements: 1 KiB, 32 requests a store
        .st_sram(ElemType::I16, r(1), r(2), r(3))
        .st_sram(ElemType::I16, r(1), r(2), r(3))
        .halt();
    asm.assemble().unwrap()
}

/// Four 1 KiB stores alternating between `local` and `remote`, then a
/// fence. The LSU emits a request a cycle and the uplink or the torus
/// takes one every seven, so the PE's egress queue sits at its depth of
/// 8 — holding heads bound for both vaults — behind a front end stalled
/// on the full LSQ and then on the fence.
fn store_stream(local: u64, remote: u64) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 0).mov_imm(r(3), 512);
    for k in 0..4u64 {
        let base = if k.is_multiple_of(2) { local } else { remote };
        asm.mov_imm(r(2), (base + 0x5_0000 + k * 0x1000) as i64)
            .st_sram(ElemType::I16, r(1), r(2), r(3));
    }
    asm.memfence().halt();
    asm.assemble().unwrap()
}

/// [`build_with`] with PE 5 (vault 1) streaming stores of a byte ramp to
/// both vaults.
fn build_streaming() -> System {
    let cfg = cfg();
    let stream = store_stream(cfg.mem.vault_base(1), cfg.mem.vault_base(0));
    let mut sys = build_with(cfg, Some(&stream));
    let ramp: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
    sys.pe_mut(5).scratchpad_mut().write(0, &ramp).unwrap();
    sys
}

/// Eight PEs over two vaults, one program per sleep state; PE 5 has no
/// program at all. `extra` replaces PE 5's (absent) program.
fn build_with(cfg: SystemConfig, extra: Option<&Program>) -> System {
    let v1 = cfg.mem.vault_base(1);
    let mut sys = System::new(cfg);
    // The chase ring: each word holds the address of the next, the
    // links alternating vaults so PE 2 crosses the torus on every other.
    let link = |i: u64| (if i.is_multiple_of(2) { v1 } else { 0 }) + 0x4_0000 + i * 0x1040;
    for i in 0..8 {
        sys.hmc_mut().host_write_u64(link(i), link((i + 1) % 8));
    }
    let flag = 0x200;
    sys.load_program(0, &vector_loop());
    sys.load_program(1, &dma_pressure(0x10_0000, 24, 80));
    sys.load_program(2, &pointer_chase(link(0), 6));
    sys.load_program(3, &fe_consumer(flag, 0x400));
    sys.load_program(4, &store_and_halt(v1 + 0x20_0000));
    if let Some(program) = extra {
        sys.load_program(5, program);
    }
    sys.load_program(6, &fe_producer(flag, 120));
    sys.load_program(7, &dma_pressure(0x30_0000, 12, 160));
    sys
}

fn build() -> System {
    build_with(cfg(), None)
}

/// PE 1 alone chasing a ring whose links alternate vaults, every other
/// PE without a program: each load into vault 1 crosses the torus both
/// ways, and between loads nothing moves but the one flight, so the
/// torus's wake is what ends those skips.
fn build_cross_vault_chase() -> System {
    let cfg = cfg();
    let v1 = cfg.mem.vault_base(1);
    let mut sys = System::new(cfg);
    let link = |i: u64| (if i.is_multiple_of(2) { v1 } else { 0 }) + 0x6_0000 + i * 0x1040;
    for i in 0..16 {
        sys.hmc_mut().host_write_u64(link(i), link((i + 1) % 16));
    }
    sys.load_program(1, &pointer_chase(link(0), 24));
    sys
}

/// Everything a caller can read, compared field by field so a mismatch
/// names the PE.
fn assert_same(event: &System, naive: &System, what: &str) {
    assert_eq!(event.now(), naive.now(), "{what}: clock");
    for i in 0..event.total_pes() {
        assert_eq!(event.pe(i).stats(), naive.pe(i).stats(), "{what}: PE {i}");
    }
    assert_eq!(event.stats(), naive.stats(), "{what}: stats()");
    assert!(
        event.save_snapshot() == naive.save_snapshot(),
        "{what}: snapshot bytes"
    );
}

#[test]
fn the_mix_reaches_every_sleep_state() {
    let mut sys = build();
    let cycles = sys.run_naive(LIMIT).unwrap();
    assert!((1_000..20_000).contains(&cycles), "{cycles}");
    let stats = sys.stats();
    for reason in StallReason::all() {
        assert!(stats.pe.stalls_for(reason) > 0, "no {reason:?} stall");
    }
    assert_eq!(sys.hmc().host_read_u64(0x400), 42, "the handoff happened");
    assert!(sys.pe(5).is_halted() && sys.pe(5).stats().active_cycles == 0);
    assert!(stats.noc.packets > 0);
}

#[test]
fn pausing_at_any_cycle_reads_the_same_on_both_engines() {
    pause_everywhere(build);
}

#[test]
fn a_full_egress_queue_reads_the_same_on_both_engines() {
    // PE 5 asleep behind its full egress queue is woken by the dispatch
    // that frees a slot, not by the clock.
    pause_everywhere(build_streaming);
    let mut sys = build_streaming();
    sys.run(LIMIT).unwrap();
    let ramp = sys.pe(5).scratchpad().read(0, 1024).unwrap();
    for k in 0..4u64 {
        let base = sys
            .config()
            .mem
            .vault_base(if k.is_multiple_of(2) { 1 } else { 0 });
        let stored = sys.hmc().host_read(base + 0x5_0000 + k * 0x1000, 1024);
        assert!(stored == ramp, "store {k}");
    }
}

#[test]
fn a_chase_across_the_torus_reads_the_same_on_both_engines() {
    pause_everywhere(build_cross_vault_chase);
    let mut sys = build_cross_vault_chase();
    sys.run(LIMIT).unwrap();
    let work = sys.work_counts();
    assert!(sys.stats().noc.packets >= 24, "{:?}", sys.stats().noc);
    assert!(work.skips > 0 && work.noc.flight_visits > 0, "{work:?}");
    // Some bounds stopped at the torus: a flight was about to move.
    assert!(work.torus_bound_reads > work.vault_bound_reads, "{work:?}");
}

#[test]
fn a_slice_paused_on_a_skip_target_resumes_bit_identically() {
    // The cycles the event engine jumps to are the ones it does not step
    // but steps the cycle after; a fresh run to `k` steps exactly the
    // cycles up to `k` the whole run steps, so the step counts of runs
    // to every `k` name them. Pausing on one lands the clock where the
    // skip would have, and the next slice must take the event on the
    // very next cycle — in place, or from an image on a fresh machine.
    let build = build_cross_vault_chase;
    let mut whole = build();
    let total = whole.run(LIMIT).unwrap();
    let steps: Vec<u64> = (0..=total)
        .map(|k| {
            let mut sys = build();
            sys.run_until(k, LIMIT).unwrap();
            sys.work_counts().steps
        })
        .collect();
    let targets: Vec<u64> = (1..total)
        .filter(|&k| {
            let k = k as usize;
            steps[k] == steps[k - 1] && steps[k + 1] == steps[k] + 1
        })
        .collect();
    assert!(targets.len() >= 24, "{} skip targets", targets.len());
    for k in targets {
        let mut paused = build();
        assert_eq!(paused.run_until(k, LIMIT).unwrap(), RunOutcome::Paused(k));
        let mut restored = System::new(cfg());
        restored.restore_snapshot(&paused.save_snapshot()).unwrap();
        for sys in [&mut paused, &mut restored] {
            assert_eq!(sys.run(LIMIT).unwrap(), total, "paused at {k}");
            assert_same(sys, &whole, &format!("paused at {k}"));
        }
    }
}

#[test]
fn restoring_mid_stream_onto_a_used_machine_reads_the_same() {
    // Images taken while PE 5's egress queue is full and the link queues
    // hold its stores, restored onto a machine stopped elsewhere in the
    // same stream (its active sets name other queues and heads), then
    // finished on either engine.
    let mut whole = build_streaming();
    let total = whole.run(LIMIT).unwrap();
    for (k, at) in (20..420u64).step_by(19).enumerate() {
        let mut donor = build_streaming();
        donor.run_until(at, LIMIT).unwrap();
        let mut used = build_streaming();
        used.run_until(at + 37, LIMIT).unwrap();
        used.restore_snapshot(&donor.save_snapshot()).unwrap();
        let end = if k.is_multiple_of(2) {
            used.run(LIMIT)
        } else {
            used.run_naive(LIMIT)
        };
        assert_eq!(end.unwrap(), total, "restored at {at}");
        assert_same(&used, &whole, &format!("restored at {at}"));
    }
}

/// Runs a fresh event machine from `build` to every pause in the first
/// 500 cycles, a stride through the rest and the last cycles before
/// quiescence, against one naive machine walked forward a cycle at a
/// time.
fn pause_everywhere(build: fn() -> System) {
    let total = build().run_naive(LIMIT).unwrap();
    // One naive machine walks forward a cycle at a time; a fresh event
    // machine runs to each pause from reset. Every cycle of the first
    // 500 (all eight programs start, stall and sleep in there), then a
    // stride through the rest and the last cycles before quiescence.
    let pauses: Vec<u64> = (0..500)
        .chain((500..total).step_by(41))
        .chain(total.saturating_sub(12)..=total + 2)
        .collect();
    let mut naive = build();
    for k in pauses {
        let mut event = build();
        let got = event.run_until(k, LIMIT).unwrap();
        // A quiesced machine asked to run on steps once more; leave the
        // reference where it quiesced.
        let want = if naive.now() == total {
            RunOutcome::Quiesced(total)
        } else {
            naive.run_naive_until(k, LIMIT).unwrap()
        };
        assert_eq!(got, want, "pause {k}");
        assert_eq!(
            matches!(got, RunOutcome::Quiesced(_)),
            k >= total,
            "pause {k}"
        );
        assert_same(&event, &naive, &format!("pause {k}"));
    }
}

/// The paper's machine, 128 PEs over 32 vaults on the 8×4 torus — eight
/// times the PEs of anything else in the suite. Every PE runs the same
/// load / vector-op / store / fence kernel over its own buffer, odd PEs
/// streaming from the next vault over the torus.
#[test]
fn the_papers_128_pe_machine_reads_the_same_on_both_engines() {
    let build = || {
        let cfg = SystemConfig::vip();
        let mut sys = System::new(cfg.clone());
        assert_eq!(sys.total_pes(), 128);
        for pe in 0..sys.total_pes() {
            let vault = (pe / cfg.pes_per_vault + pe % 2) % cfg.mem.vaults;
            let base = cfg.mem.vault_base(vault) + 0x10_0000 + pe as u64 * 0x1_0000;
            sys.load_program(pe, &dma_pressure(base, 6, 80));
        }
        sys
    };
    let mut event = build();
    let mut naive = build();
    let total = event.run(LIMIT).unwrap();
    assert_eq!(naive.run_naive(LIMIT).unwrap(), total, "quiesce cycle");
    assert_same(&event, &naive, "128 PEs");
    let stats = event.stats();
    assert!(stats.noc.packets > 0, "odd PEs cross the torus");
    assert!((1_000..20_000).contains(&total), "{total}");
}

#[test]
fn chained_slices_equal_the_whole_run() {
    let mut whole = build();
    let total = whole.run(LIMIT).unwrap();
    let mut naive = build();
    assert_eq!(naive.run_naive(LIMIT).unwrap(), total);
    assert_same(&whole, &naive, "whole run");

    // Slices of every small length, the engine alternating, every third
    // boundary crossed through a snapshot onto the other of two
    // machines — each one used, holding due times of cycles the image
    // knows nothing of.
    let mut sliced = build();
    let mut spare = naive;
    let mut at = 0;
    let mut slice = 0u64;
    let end = loop {
        slice += 1;
        at += 1 + slice % 23;
        let outcome = if slice.is_multiple_of(2) {
            sliced.run_naive_until(at, LIMIT)
        } else {
            sliced.run_until(at, LIMIT)
        }
        .unwrap();
        if let RunOutcome::Quiesced(end) = outcome {
            break end;
        }
        if slice.is_multiple_of(3) {
            let image = sliced.save_snapshot();
            std::mem::swap(&mut sliced, &mut spare);
            sliced.restore_snapshot(&image).unwrap();
        }
    };
    assert_eq!(end, total);
    assert_same(&sliced, &whole, "sliced run");
}

/// Runs `build` on both engines to the same error and compares what is
/// left behind.
fn assert_same_failure(build: impl Fn() -> System, limit: u64) -> SimError {
    let (mut event, mut naive) = (build(), build());
    let got = event.run(limit).unwrap_err();
    let want = naive.run_naive(limit).unwrap_err();
    assert_eq!(got, want);
    assert_same(&event, &naive, "after the error");
    // And stopped short of it first: the error is the same one.
    let mut paused = build();
    let before = event.now() - 1;
    assert_eq!(
        paused.run_until(before, limit).unwrap(),
        RunOutcome::Paused(before)
    );
    assert_eq!(paused.run(limit).unwrap_err(), want);
    assert_same(&paused, &naive, "after the error, resumed");
    got
}

#[test]
fn a_trap_reads_the_same_on_both_engines() {
    // PE 5 spins a while, then issues a vector op twice the scratchpad:
    // it traps with its neighbours asleep in every state.
    let mut asm = Asm::new();
    asm.mov_imm(r(5), 0)
        .mov_imm(r(6), 150)
        .label("delay")
        .addi(r(5), r(5), 1)
        .blt(r(5), r(6), "delay")
        .mov_imm(r(1), 4096)
        .set_vl(r(1))
        .mov_imm(r(2), 0)
        .vec_vec(VerticalOp::Add, ElemType::I16, r(2), r(2), r(2))
        .halt();
    let trapping = asm.assemble().unwrap();
    let err = assert_same_failure(|| build_with(cfg(), Some(&trapping)), LIMIT);
    assert!(matches!(err, SimError::Trap { pe: 5, .. }), "{err:?}");
}

#[test]
fn a_hang_reads_the_same_on_both_engines() {
    // A second consumer on a word nobody fills: everyone else finishes
    // and the watchdog fires with one PE parked.
    let orphan = fe_consumer(0x280, 0x480);
    let err = assert_same_failure(|| build_with(cfg(), Some(&orphan)), 30_000);
    let SimError::Hang(report) = err else {
        panic!("expected a hang, got {err:?}");
    };
    assert_eq!((report.halted_pes, report.blocked.len()), (7, 1));
    assert_eq!(report.blocked[0].stall, Some(StallReason::ScalarOperand));
}

#[test]
fn an_abandoned_packet_reads_the_same_on_both_engines() {
    // Every flit dropped: the first remote request exhausts its retries
    // and `step` returns before the PE phase of that cycle.
    let faults = FaultConfig {
        noc: Some(NocFaultConfig {
            seed: 7,
            corrupt_ppm: 0,
            drop_ppm: vip_faults::PPM_SCALE as u32,
            max_retries: 2,
            backoff: 4,
        }),
        ..FaultConfig::disabled()
    };
    let err = assert_same_failure(|| build_with(cfg().with_faults(&faults), None), LIMIT);
    assert!(matches!(err, SimError::NocDeliveryFailed { .. }), "{err:?}");
}

#[test]
fn the_functional_tiers_frozen_drains_charge_what_they_did() {
    // Short stretches and windows, so the run is mostly drains: frozen
    // PEs asleep on their LSUs, settled before each thaw. The counters
    // below were recorded with every PE visited every cycle (the commit
    // before wake-driven stepping).
    let mut sys = build();
    let knobs = FuncConfig {
        warmup_cycles: 40,
        sample_cycles: 90,
        stretch_work: 150,
        quantum: 16,
        drain_cycles: 400,
    };
    sys.set_func_config(knobs);
    let cycles = sys.run_functional(LIMIT).unwrap();
    let stats = sys.stats();
    assert!(stats.func.drain_retries > 0 && stats.func.windows > 3);
    let stalls: Vec<u64> = StallReason::all()
        .iter()
        .map(|&reason| stats.pe.stalls_for(reason))
        .collect();
    let active: Vec<u64> = (0..sys.total_pes())
        .map(|i| sys.pe(i).stats().active_cycles)
        .collect();
    assert_eq!(cycles, EXPECT_CYCLES);
    assert_eq!(stalls, EXPECT_STALLS);
    assert_eq!(active, EXPECT_ACTIVE);
    assert_eq!(
        (stats.func.accurate_cycles, stats.func.functional_cycles),
        EXPECT_FUNC_CYCLES
    );

    // The drain is a run-loop entry like any other: it may find the
    // machine mid-flight on a restored image, with the due times of the
    // run the machine did before still lying around.
    // (Paused late enough, and with budget enough, that this drain
    // succeeds — and at a cycle where a frozen PE's LSU has a request to
    // emit that no completion will wake it for.)
    let mut donor = build();
    donor.run_until(1_300, LIMIT).unwrap();
    let image = donor.save_snapshot();
    let mut fresh = System::new(cfg());
    let mut used = sys;
    for machine in [&mut fresh, &mut used] {
        machine.restore_snapshot(&image).unwrap();
        machine.set_func_config(FuncConfig {
            drain_cycles: 5_000,
            ..knobs
        });
        machine.run_functional(LIMIT).unwrap();
    }
    assert_eq!(fresh.stats().func.drain_retries, 0);
    // (All but the block-cache counters, which say the used machine's
    // cache was warm.)
    assert_eq!(used.now(), fresh.now());
    for i in 0..used.total_pes() {
        assert_eq!(used.pe(i).stats(), fresh.pe(i).stats(), "PE {i}");
    }
    let (used, fresh) = (used.stats(), fresh.stats());
    assert_eq!(
        (used.pe, used.mem, used.noc),
        (fresh.pe, fresh.mem, fresh.noc)
    );
    assert_eq!(
        (used.func.accurate_cycles, used.func.drain_retries),
        (fresh.func.accurate_cycles, fresh.func.drain_retries)
    );
}

const EXPECT_CYCLES: u64 = 3182;
const EXPECT_STALLS: [u64; StallReason::COUNT] = [1223, 189, 583, 64, 109, 196, 688, 246];
const EXPECT_ACTIVE: [u64; 8] = [1617, 2652, 2208, 3182, 6, 0, 2652, 3182];
const EXPECT_FUNC_CYCLES: (u64, u64) = (3180, 2);
