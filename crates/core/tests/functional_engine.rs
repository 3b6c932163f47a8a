//! The two-tier functional engine's contract, checked directly:
//! bit-identical architectural state and retirement counters against
//! the cycle-accurate engines, identical typed errors for trapping
//! programs, full-empty handoffs and deadlock diagnosis, snapshot
//! interoperability, a run restored at every pause repeating the run
//! paused in place, and a sanity bound on the extrapolated clock.

use vip_core::{Engine, FuncConfig, RunOutcome, SimError, System, SystemConfig};
use vip_isa::{Asm, ElemType, Program, Reg, VerticalOp};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// A dense compute tile: stream a vector loop over the scratchpad with
/// a scalar counter, then store a result word to DRAM.
fn dense_loop(iters: i64) -> Program {
    let mut a = Asm::new();
    a.mov_imm(r(1), 16);
    a.set_vl(r(1));
    a.mov_imm(r(2), 0); // src a
    a.mov_imm(r(3), 64); // src b
    a.mov_imm(r(4), 128); // dst
    a.mov_imm(r(5), 0); // i
    a.mov_imm(r(6), iters);
    a.label("loop");
    a.vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3));
    a.vec_vec(VerticalOp::Mul, ElemType::I16, r(2), r(4), r(3));
    a.addi(r(5), r(5), 1);
    a.blt(r(5), r(6), "loop");
    a.mov_imm(r(7), 0x2000);
    a.st_reg(r(5), r(7));
    a.memfence();
    a.halt();
    a.assemble().unwrap()
}

fn seeded_system(program: &Program, pes: usize) -> System {
    let mut sys = System::new(SystemConfig::small_test());
    for pe in 0..pes {
        sys.load_program(pe, program);
        for i in 0..64u16 {
            let b = (i as u8).wrapping_mul(3).wrapping_add(pe as u8);
            sys.pe_mut(pe)
                .scratchpad_mut()
                .write(i as usize * 2, &[b, b ^ 0x5a])
                .unwrap();
        }
    }
    sys
}

#[test]
fn dense_loop_matches_accurate_state_and_counters() {
    let p = dense_loop(5_000);
    let mut accurate = seeded_system(&p, 2);
    let mut functional = seeded_system(&p, 2);
    accurate.run(4_000_000).unwrap();
    Engine::Functional.run(&mut functional, 4_000_000).unwrap();

    for pe in 0..2 {
        assert_eq!(
            accurate.pe(pe).arch_state(),
            functional.pe(pe).arch_state(),
            "pe{pe} architectural state"
        );
    }
    assert_eq!(
        accurate.hmc().host_read_u64(0x2000),
        functional.hmc().host_read_u64(0x2000)
    );
    let a = accurate.stats();
    let f = functional.stats();
    assert_eq!(a.pe.instructions, f.pe.instructions);
    assert_eq!(a.pe.scalar_instructions, f.pe.scalar_instructions);
    assert_eq!(a.pe.vector_instructions, f.pe.vector_instructions);
    assert_eq!(a.pe.ldst_instructions, f.pe.ldst_instructions);
    assert_eq!(a.pe.lane_ops, f.pe.lane_ops);
    assert_eq!(a.pe.lane_mul_ops, f.pe.lane_mul_ops);
    assert_eq!(a.pe.sp_beats, f.pe.sp_beats);
    assert_eq!(a.pe.work_units, f.pe.work_units);

    // The functional tier actually engaged: blocks were decoded once
    // and re-dispatched from the cache, and most instructions retired
    // functionally.
    assert!(f.func.blocks_decoded > 0);
    assert!(f.func.block_cache_hits > f.func.block_cache_misses);
    assert!(f.func.functional_instructions > a.pe.instructions / 2);
    assert_eq!(a.func.functional_instructions, 0);
}

#[test]
fn cycle_estimate_tracks_the_accurate_clock() {
    let p = dense_loop(3_000);
    let mut accurate = seeded_system(&p, 4);
    let mut functional = seeded_system(&p, 4);
    let exact = accurate.run(40_000_000).unwrap();
    let est = Engine::Functional.run(&mut functional, 40_000_000).unwrap();
    let err = (est as f64 - exact as f64).abs() / exact as f64;
    assert!(
        err < 0.15,
        "estimated clock {est} strays {:.1}% from the accurate {exact}",
        err * 100.0
    );
}

#[test]
fn trapping_programs_report_the_identical_error() {
    // An out-of-bounds scratchpad destination, a few instructions in.
    let mut a = Asm::new();
    a.mov_imm(r(1), 8192); // past the 4 KiB scratchpad
    a.mov_imm(r(2), 0x100);
    a.mov_imm(r(3), 4);
    a.ld_sram(ElemType::I16, r(1), r(2), r(3));
    a.halt();
    let dma = a.assemble().unwrap();
    // A vector op whose sources are in range and whose destination
    // alone runs off the end.
    let mut a = Asm::new();
    a.mov_imm(r(1), 16);
    a.set_vl(r(1));
    a.mov_imm(r(2), 0);
    a.mov_imm(r(3), 4096 - 30);
    a.vec_vec(VerticalOp::Add, ElemType::I16, r(3), r(2), r(2));
    a.halt();
    let vector = a.assemble().unwrap();

    for (p, pc) in [(&dma, 3), (&vector, 4)] {
        let run = |mode: u8| -> (SimError, vip_core::PeStats, Vec<u8>) {
            let mut sys = System::new(SystemConfig::small_test());
            sys.load_program(0, p);
            sys.pe_mut(0).scratchpad_mut().write(0, &[1; 64]).unwrap();
            let err = match mode {
                0 => Engine::Naive.run(&mut sys, 100_000),
                1 => sys.run(100_000),
                _ => Engine::Functional.run(&mut sys, 100_000),
            }
            .unwrap_err();
            (err, sys.stats().pe, sys.pe(0).arch_state().scratchpad)
        };
        let (naive_err, naive_stats, naive_sp) = run(0);
        let (fast_err, fast_stats, fast_sp) = run(1);
        let (func_err, func_stats, func_sp) = run(2);
        assert!(
            matches!(naive_err, SimError::Trap { pe: 0, pc: at, .. } if at == pc),
            "{naive_err:?}"
        );
        assert_eq!(naive_err, fast_err);
        assert_eq!(naive_err, func_err);
        // The trapping instruction retires nothing, counts nothing and
        // writes nothing in any tier.
        assert_eq!(naive_stats.instructions, pc as u64);
        assert_eq!(naive_stats.lane_ops, 0);
        assert_eq!(naive_stats, fast_stats);
        assert_eq!(naive_stats, func_stats);
        assert_eq!(naive_sp[64..], [0; 4096 - 64]);
        assert_eq!(naive_sp, fast_sp);
        assert_eq!(naive_sp, func_sp);
    }
}

#[test]
fn full_empty_handoff_between_functional_pes() {
    let data = 0x3000u64;
    let ack = 0x3008u64;
    // A two-PE ping-pong: PE 1 publishes a counter and waits for the
    // consumer's acknowledgement before producing the next value, so
    // neither side ever has more than one handshake in flight (an
    // unthrottled producer would genuinely exhaust the vault queue
    // with parked full-empty retries — on every engine).
    let mut prod = Asm::new();
    prod.mov_imm(r(1), data as i64);
    prod.mov_imm(r(8), ack as i64);
    prod.mov_imm(r(2), 0); // i
    prod.mov_imm(r(3), 50);
    prod.mov_imm(r(4), 0); // echo checksum
    prod.label("loop");
    prod.st_reg_ff(r(2), r(1));
    prod.ld_reg_fe(r(9), r(8));
    prod.add(r(4), r(4), r(9)); // depend on the ack: throttles issue
    prod.addi(r(2), r(2), 1);
    prod.blt(r(2), r(3), "loop");
    prod.mov_imm(r(6), 0x4008);
    prod.st_reg(r(4), r(6));
    prod.memfence();
    prod.halt();
    let mut cons = Asm::new();
    cons.mov_imm(r(1), data as i64);
    cons.mov_imm(r(8), ack as i64);
    cons.mov_imm(r(4), 0); // sum
    cons.mov_imm(r(2), 0);
    cons.mov_imm(r(3), 50);
    cons.label("loop");
    cons.ld_reg_fe(r(5), r(1));
    cons.add(r(4), r(4), r(5)); // depend on the data word
    cons.st_reg_ff(r(5), r(8)); // echo it back as the ack
    cons.addi(r(2), r(2), 1);
    cons.blt(r(2), r(3), "loop");
    cons.mov_imm(r(6), 0x4000);
    cons.st_reg(r(4), r(6));
    cons.memfence();
    cons.halt();
    let (prod, cons) = (prod.assemble().unwrap(), cons.assemble().unwrap());

    let run = |functional: bool| -> (u64, u64) {
        let mut sys = System::new(SystemConfig::small_test());
        sys.load_program(0, &cons);
        sys.load_program(1, &prod);
        if functional {
            // Small windows force the handshake across the
            // functional/accurate boundary many times.
            sys.set_func_config(FuncConfig {
                warmup_cycles: 50,
                sample_cycles: 200,
                stretch_work: 1_000,
                quantum: 8,
                drain_cycles: 5_000,
            });
            Engine::Functional.run(&mut sys, 4_000_000).unwrap();
        } else {
            sys.run(4_000_000).unwrap();
        }
        (
            sys.hmc().host_read_u64(0x4000),
            sys.hmc().host_read_u64(0x4008),
        )
    };
    let want = (0..50).sum::<u64>();
    assert_eq!(run(false), (want, want));
    assert_eq!(run(true), (want, want));
}

/// Dense work, then a load of a word nobody fills.
fn parks_forever() -> Program {
    let mut a = Asm::new();
    a.mov_imm(r(1), 16);
    a.set_vl(r(1));
    a.mov_imm(r(2), 0);
    a.mov_imm(r(3), 64);
    a.mov_imm(r(5), 0);
    a.mov_imm(r(6), 200);
    a.label("loop");
    a.vec_vec(VerticalOp::Add, ElemType::I16, r(3), r(2), r(3));
    a.addi(r(5), r(5), 1);
    a.blt(r(5), r(6), "loop");
    a.mov_imm(r(1), 0x5000);
    a.ld_reg_fe(r(2), r(1));
    a.halt();
    a.assemble().unwrap()
}

/// Knobs short enough that the functional tier calibrates, runs and
/// detects the deadlock of [`parks_forever`] within a few hundred cycles.
const DEADLOCK_KNOBS: FuncConfig = FuncConfig {
    warmup_cycles: 10,
    sample_cycles: 50,
    stretch_work: 10_000,
    quantum: 64,
    drain_cycles: 2_000,
};

#[test]
fn functional_deadlock_is_diagnosed_as_a_hang() {
    // The functional tier reaches the blocked front-end op after
    // calibration, detects the no-progress round, and delegates to the
    // cycle-accurate engine — whose hang diagnosis must match a plain
    // accurate run.
    let program = parks_forever();
    let hang = |functional: bool| {
        let mut sys = System::new(SystemConfig::small_test());
        sys.load_program(0, &program);
        let err = if functional {
            sys.set_func_config(DEADLOCK_KNOBS);
            Engine::Functional.run(&mut sys, 200_000).unwrap_err()
        } else {
            sys.run(200_000).unwrap_err()
        };
        match err {
            SimError::Hang(report) => report,
            other => panic!("expected a hang, got {other:?}"),
        }
    };
    let accurate = hang(false);
    let functional = hang(true);
    assert_eq!(functional.limit, 200_000);
    assert_eq!(functional.limit, accurate.limit);
    assert_eq!(functional.halted_pes, accurate.halted_pes);
    assert_eq!(functional.total_pes, accurate.total_pes);
    // `halt` retires even with the full-empty load still parked, so
    // the accurate diagnosis reports no *blocked* (unhalted) PE — the
    // functional tier must land on the identical shape.
    assert_eq!(functional.blocked, accurate.blocked);
}

#[test]
fn mid_run_functional_snapshot_resumes_under_any_engine() {
    let p = dense_loop(20_000);
    let mut reference = seeded_system(&p, 3);
    Engine::Naive.run(&mut reference, 40_000_000).unwrap();

    let mut paused = seeded_system(&p, 3);
    match Engine::Functional
        .advance(&mut paused, 60_000, 40_000_000)
        .unwrap()
    {
        RunOutcome::Paused(at) => assert!(at >= 60_000),
        RunOutcome::Quiesced(c) => panic!("quiesced at {c} before the pause"),
    }
    let image = paused.save_snapshot();

    for finish in 0..3u8 {
        let mut resumed = seeded_system(&p, 3);
        resumed.restore_snapshot(&image).unwrap();
        match finish {
            0 => Engine::Functional
                .run(&mut resumed, 40_000_000)
                .map(|_| ())
                .unwrap(),
            1 => resumed.run(40_000_000).map(|_| ()).unwrap(),
            _ => Engine::Naive
                .run(&mut resumed, 40_000_000)
                .map(|_| ())
                .unwrap(),
        }
        for pe in 0..3 {
            assert_eq!(
                reference.pe(pe).arch_state(),
                resumed.pe(pe).arch_state(),
                "engine {finish}, pe{pe} diverged after restoring a functional-tier snapshot"
            );
        }
        assert_eq!(
            reference.stats().pe.instructions,
            resumed.stats().pe.instructions,
            "engine {finish} retirement count"
        );
    }
}

#[test]
fn duty_cycle_knobs_do_not_change_results() {
    let p = dense_loop(600);
    let mut base = seeded_system(&p, 2);
    Engine::Functional.run(&mut base, 4_000_000).unwrap();

    let mut tweaked = seeded_system(&p, 2);
    tweaked.set_func_config(FuncConfig {
        warmup_cycles: 100,
        sample_cycles: 500,
        stretch_work: 5_000,
        quantum: 64,
        drain_cycles: 2_000,
    });
    Engine::Functional.run(&mut tweaked, 4_000_000).unwrap();

    for pe in 0..2 {
        assert_eq!(base.pe(pe).arch_state(), tweaked.pe(pe).arch_state());
    }
    assert_eq!(
        base.stats().pe.work_units,
        tweaked.stats().pe.work_units,
        "retired work is knob-independent"
    );
    assert!(tweaked.stats().func.windows > base.stats().func.windows);
}

#[test]
fn empty_and_instant_programs_quiesce() {
    let mut sys = System::new(SystemConfig::small_test());
    sys.load_program(0, &Asm::new().halt().assemble().unwrap());
    let at = Engine::Functional.run(&mut sys, 10_000).unwrap();
    assert!(sys.pe(0).is_halted());
    assert!(at <= 10_000);
}

/// Where a sliced run continues after each pause.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hop {
    /// The paused machine runs on.
    InPlace,
    /// The pause is saved and restored onto a newly built machine.
    Fresh,
    /// The pause is saved and restored onto the other of two machines,
    /// the first of which has already run the program to its end.
    Used,
}

/// How a sliced run ended, after how many pauses, on which machine.
type Sliced = (Result<u64, SimError>, usize, System);

/// Runs `build()`'s machine on the functional engine under `knobs` in
/// `slice`-cycle pauses until it quiesces or fails, continuing after
/// each pause as `hop` says.
fn sliced(
    build: &dyn Fn() -> System,
    knobs: FuncConfig,
    slice: u64,
    limit: u64,
    hop: Hop,
) -> Sliced {
    let with_knobs = || {
        let mut sys = build();
        sys.set_func_config(knobs);
        sys
    };
    let mut sys = with_knobs();
    let mut spare = with_knobs();
    let _ = Engine::Functional.run(&mut spare, limit);
    for pauses in 0.. {
        let pause_at = sys.now() + slice;
        let image = match Engine::Functional.advance(&mut sys, pause_at, limit) {
            Ok(RunOutcome::Paused(_)) => sys.save_snapshot(),
            end => return (end.map(|_| sys.now()), pauses, sys),
        };
        match hop {
            Hop::InPlace => continue,
            Hop::Fresh => sys = with_knobs(),
            Hop::Used => std::mem::swap(&mut sys, &mut spare),
        }
        sys.restore_snapshot(&image).unwrap();
    }
    unreachable!()
}

/// The machine image with the functional tier's three decode-cache
/// counters zeroed: the block cache is not in the image, so a restored
/// machine decodes afresh what the paused one held. The image ends in
/// `FuncStats` (eight words, those three first) and the 25-byte clock.
fn image_but_decode_cache(sys: &System) -> Vec<u8> {
    let mut image = sys.save_snapshot();
    let at = image.len() - 25 - 8 * 8;
    let decoded = sys.stats().func.blocks_decoded;
    assert_eq!(image[at..at + 8], decoded.to_le_bytes(), "image layout");
    image[at..at + 3 * 8].fill(0);
    image
}

/// Runs `build()`'s machine sliced in place, then restored at every
/// pause onto fresh and onto used machines, and asserts all three end
/// alike; returns how the run ended.
fn assert_restores_repeat_it(
    what: &str,
    build: &dyn Fn() -> System,
    knobs: FuncConfig,
    slice: u64,
    limit: u64,
) -> Result<u64, SimError> {
    let (end, pauses, paused) = sliced(build, knobs, slice, limit, Hop::InPlace);
    assert!(pauses > 2, "{what}: {pauses} pauses");
    let want = image_but_decode_cache(&paused);
    for hop in [Hop::Fresh, Hop::Used] {
        let (got, _, restored) = sliced(build, knobs, slice, limit, hop);
        assert_eq!(got, end, "{what}, {hop:?}: how the run ended");
        assert!(
            image_but_decode_cache(&restored) == want,
            "{what}, {hop:?}: the machine differs"
        );
    }
    end
}

#[test]
fn restoring_at_every_pause_repeats_the_run_paused_in_place() {
    let short = FuncConfig {
        warmup_cycles: 100,
        sample_cycles: 500,
        stretch_work: 5_000,
        quantum: 64,
        drain_cycles: 2_000,
    };
    let dense = || seeded_system(&dense_loop(60_000), 3);
    for (knobs, slice) in [(FuncConfig::default(), 5_000), (short, 3_000)] {
        let end = assert_restores_repeat_it("dense", &dense, knobs, slice, 40_000_000);
        assert!(end.is_ok(), "{end:?}");
    }
    // Paused after the tier has poisoned itself and handed off to the
    // cycle-accurate engine for good.
    let deadlock = || {
        let mut sys = System::new(SystemConfig::small_test());
        sys.load_program(0, &parks_forever());
        sys
    };
    for (slice, limit) in [(20_000, 200_000), (50, 20_000)] {
        let end = assert_restores_repeat_it("deadlock", &deadlock, DEADLOCK_KNOBS, slice, limit);
        assert!(matches!(end, Err(SimError::Hang(_))), "{end:?}");
    }
}
