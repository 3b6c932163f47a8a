//! Focused behavioural tests of the system model: fences, hazards,
//! structural limits, deadlock detection, and address-mapping modes.

use vip_core::{Engine, RunOutcome, SimError, StallReason, System, SystemConfig};
use vip_isa::{assemble, Asm, ElemType, Reg, VerticalOp};
use vip_mem::AddressMapping;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

#[test]
fn memfence_orders_store_before_flag() {
    // Classic publication pattern on one PE: data store, fence, flag
    // store. The host must never observe flag set with stale data —
    // here we just verify both landed and the fence stalled issue.
    let mut sys = System::new(SystemConfig::small_test());
    let p = assemble(
        "st.reg r1, r2
         memfence
         st.reg r3, r4
         memfence
         halt",
    )
    .unwrap();
    sys.load_program(0, &p);
    sys.set_reg(0, r(1), 7);
    sys.set_reg(0, r(2), 0x100);
    sys.set_reg(0, r(3), 1);
    sys.set_reg(0, r(4), 0x200);
    sys.run(100_000).unwrap();
    assert_eq!(sys.hmc().host_read_u64(0x100), 7);
    assert_eq!(sys.hmc().host_read_u64(0x200), 1);
    assert!(sys.pe(0).stats().stalls_for(StallReason::Fence) > 0);
}

#[test]
fn arc_guards_vector_reads_of_inflight_loads() {
    // A v.v.add immediately consuming a just-issued ld.sram must stall
    // on the ARC, not read stale zeros.
    let mut sys = System::new(SystemConfig::small_test());
    sys.hmc_mut().host_write(0x40, &[5u8, 0, 6, 0, 7, 0, 8, 0]); // 4 i16
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 4)
        .set_vl(r(1))
        .mov_imm(r(2), 0) // sp dst of load
        .mov_imm(r(3), 0x40)
        .mov_imm(r(4), 4)
        .ld_sram(ElemType::I16, r(2), r(3), r(4))
        .mov_imm(r(5), 64) // second operand region (zeros)
        .mov_imm(r(6), 128)
        .vec_vec(VerticalOp::Add, ElemType::I16, r(6), r(2), r(5))
        .v_drain()
        .halt();
    sys.load_program(0, &asm.assemble().unwrap());
    sys.run(100_000).unwrap();
    let out = sys.pe(0).scratchpad().read(128, 8).unwrap();
    assert_eq!(out, vec![5, 0, 6, 0, 7, 0, 8, 0]);
    assert!(
        sys.pe(0).stats().stalls_for(StallReason::ArcOverlap) > 0,
        "the vector op must have waited on the ARC"
    );
}

#[test]
fn arc_capacity_throttles_but_never_corrupts() {
    // Issue 30 small loads back-to-back: more than the 20 ARC entries.
    // Expect ArcFull stalls, and all data landing correctly.
    let mut sys = System::new(SystemConfig::small_test());
    for i in 0..30u64 {
        sys.hmc_mut().host_write_u64(0x1000 + i * 32, i + 1);
    }
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 4); // 4 x i16 = one word
    for i in 0..30 {
        asm.mov_imm(r(2), i * 32) // sp
            .mov_imm(r(3), 0x1000 + i * 32)
            .ld_sram(ElemType::I16, r(2), r(3), r(1));
    }
    asm.memfence().halt();
    sys.load_program(0, &asm.assemble().unwrap());
    sys.run(200_000).unwrap();
    for i in 0..30usize {
        let bytes = sys.pe(0).scratchpad().read(i * 32, 8).unwrap();
        assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), i as u64 + 1);
    }
    assert!(
        sys.pe(0).stats().stalls_for(StallReason::ArcFull) > 0,
        "30 outstanding loads must exhaust the 20-entry ARC"
    );
}

#[test]
fn unsatisfied_full_empty_load_hangs_with_a_diagnosis() {
    // A ld.reg.fe with no producer is a deadlock; run() reports it
    // as a structured hang diagnosis rather than spinning forever.
    let mut sys = System::new(SystemConfig::small_test());
    // The addi consumer keeps the PE un-halted at the fence of the
    // never-filled register.
    let p = assemble("ld.reg.fe r1, r2\naddi r1, r1, 1\nhalt").unwrap();
    sys.load_program(0, &p);
    sys.set_reg(0, r(2), 0x800);
    let err = sys.run(20_000).unwrap_err();
    let SimError::Hang(report) = &err else {
        panic!("expected a hang, got {err:?}");
    };
    assert_eq!(
        (report.limit, report.halted_pes, report.total_pes),
        (20_000, 3, 4)
    );
    // The watchdog names the blocked PE, its pc, and the exact
    // full-empty word it is parked on.
    assert_eq!(report.blocked.len(), 1);
    let blocked = &report.blocked[0];
    assert_eq!((blocked.pe, blocked.pc), (0, 1));
    assert_eq!(blocked.stall, Some(StallReason::ScalarOperand));
    assert_eq!(blocked.fe_waits, vec![(0x800, true)]);
    let text = err.to_string();
    assert!(text.contains("3/4 PEs halted"), "{text}");
    assert!(text.contains("fe.load at 0x800"), "{text}");
}

#[test]
fn host_release_of_a_parked_pe_is_engine_independent() {
    // A PE parked on a full-empty word, its vault idle with a far-off
    // wake bound. The run pauses mid-stall; the host fills the word and
    // rewrites an operand register through `pe_mut`; the run goes on.
    // Event engine, naive engine and a snapshot restored mid-stall onto
    // a fresh system must agree on the cycle and every counter — the
    // memoised stall and the vault's cached bound are both derived
    // state that each of those paths rebuilds its own way.
    let program = assemble(
        "ld.reg.fe r1, r2
         add r3, r1, r4
         st.reg r3, r5
         memfence
         halt",
    )
    .unwrap();
    let parked = || {
        let mut sys = System::new(SystemConfig::small_test());
        sys.load_program(0, &program);
        sys.set_reg(0, r(2), 0x100);
        sys.set_reg(0, r(4), 1);
        sys.set_reg(0, r(5), 0x200);
        sys
    };
    let release = |sys: &mut System| {
        assert_eq!(
            sys.pe(0).stall_reason(sys.now()),
            Some(StallReason::ScalarOperand)
        );
        sys.hmc_mut().host_write_u64(0x100, 40);
        sys.hmc_mut().host_set_full(0x100, true);
        sys.pe_mut(0).set_reg(r(4), 2);
    };
    let finish = |sys: &mut System, cycles: u64| {
        assert_eq!(sys.hmc().host_read_u64(0x200), 42);
        assert!(!sys.hmc().host_is_full(0x100), "the load consumed the word");
        (cycles, sys.stats())
    };

    let mut event = parked();
    assert_eq!(
        Engine::Fast.advance(&mut event, 500, 10_000),
        Ok(RunOutcome::Paused(500))
    );
    let image = event.save_snapshot();
    release(&mut event);
    let cycles = event.run(10_000).unwrap();
    let expect = finish(&mut event, cycles);

    let mut naive = parked();
    assert_eq!(
        Engine::Naive.advance(&mut naive, 500, 10_000),
        Ok(RunOutcome::Paused(500))
    );
    assert_eq!(
        naive.save_snapshot(),
        image,
        "derived state is not in the image"
    );
    release(&mut naive);
    let cycles = Engine::Naive.run(&mut naive, 10_000).unwrap();
    assert_eq!(finish(&mut naive, cycles), expect);

    let mut restored = parked();
    restored.restore_snapshot(&image).unwrap();
    release(&mut restored);
    let cycles = restored.run(10_000).unwrap();
    assert_eq!(finish(&mut restored, cycles), expect);
}

#[test]
fn taken_branches_pay_the_front_end_bubble() {
    let mut sys = System::new(SystemConfig::small_test());
    let p = assemble(
        "mov.imm r1, 0
         mov.imm r2, 100
         loop: addi r1, r1, 1
         blt r1, r2, loop
         halt",
    )
    .unwrap();
    sys.load_program(0, &p);
    let cycles = sys.run(100_000).unwrap();
    // 100 iterations x (2 instructions + branch penalty 2) + setup.
    let bubbles = sys.pe(0).stats().stalls_for(StallReason::BranchBubble);
    assert_eq!(bubbles, 99 * 2, "99 taken branches x 2-cycle bubble");
    assert!(cycles >= 100 * 2 + bubbles);
}

#[test]
fn low_interleave_mapping_still_computes_correctly() {
    // Switch to the HMC-default low-order interleave: a 4-vault system
    // where consecutive columns rotate vaults. The same program must
    // produce the same results; only the traffic pattern changes.
    let mut cfg = SystemConfig::test_vaults(4);
    cfg.mem.mapping = AddressMapping::LowInterleave;
    let mut sys = System::new(cfg);
    // Write a 256-byte pattern via st.sram from a preloaded scratchpad.
    let data: Vec<u8> = (0..=255).collect();
    sys.pe_mut(0).scratchpad_mut().write(0, &data).unwrap();
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 0)
        .mov_imm(r(2), 0x40) // deliberately unaligned to columns? keep aligned
        .mov_imm(r(3), 128) // 128 i16 = 256 B spanning several vaults
        .st_sram(ElemType::I16, r(1), r(2), r(3))
        .memfence()
        .mov_imm(r(4), 1024)
        .ld_sram(ElemType::I16, r(4), r(2), r(3))
        .memfence()
        .halt();
    sys.load_program(0, &asm.assemble().unwrap());
    sys.run(500_000).unwrap();
    assert_eq!(sys.pe(0).scratchpad().read(1024, 256).unwrap(), data);
    // The interleave really spread the traffic: several vaults saw work.
    let busy_vaults = (0..4)
        .filter(|&v| sys.hmc().vault_stats(v).transactions() > 0)
        .count();
    assert_eq!(
        busy_vaults, 4,
        "low interleave spreads 256 B over all vaults"
    );
}

#[test]
fn scalar_operand_stall_on_inflight_ld_reg() {
    // An add consuming an ld.reg result must wait for the valid bit.
    let mut sys = System::new(SystemConfig::small_test());
    sys.hmc_mut().host_write_u64(0x100, 41);
    let p = assemble(
        "ld.reg r1, r2
         addi r1, r1, 1
         halt",
    )
    .unwrap();
    sys.load_program(0, &p);
    sys.set_reg(0, r(2), 0x100);
    sys.run(100_000).unwrap();
    assert_eq!(sys.pe(0).reg(r(1)), 42);
    assert!(sys.pe(0).stats().stalls_for(StallReason::ScalarOperand) > 0);
}

#[test]
fn stats_report_issue_mix() {
    let mut sys = System::new(SystemConfig::small_test());
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 8)
        .set_vl(r(1))
        .mov_imm(r(2), 0)
        .mov_imm(r(3), 64)
        .mov_imm(r(4), 128)
        .vec_vec(VerticalOp::Add, ElemType::I16, r(4), r(2), r(3))
        .mov_imm(r(5), 0x100)
        .st_sram(ElemType::I16, r(4), r(5), r(1))
        .memfence()
        .halt();
    sys.load_program(0, &asm.assemble().unwrap());
    sys.run(100_000).unwrap();
    let s = sys.stats();
    assert_eq!(s.pe.vector_instructions, 2); // set.vl + v.v.add
    assert_eq!(s.pe.ldst_instructions, 1);
    assert!(s.pe.scalar_instructions >= 5);
    assert_eq!(s.pe.lane_ops, 8);
    assert_eq!(s.mem.bytes_written, 16);
}

#[test]
fn maximum_size_program_loads_and_runs() {
    // Exactly 1,024 instructions: 1,023 nops + halt.
    let mut asm = Asm::new();
    for _ in 0..1023 {
        asm.nop();
    }
    asm.halt();
    let p = asm.assemble().unwrap();
    assert_eq!(p.len(), 1024);
    let mut sys = System::new(SystemConfig::small_test());
    sys.load_program(0, &p);
    let cycles = sys.run(10_000).unwrap();
    assert!(cycles >= 1024);
}

#[test]
fn instruction_trace_records_issues_in_order() {
    let mut sys = System::new(SystemConfig::small_test());
    sys.pe_mut(0).enable_trace(100);
    let p = assemble(
        "mov.imm r1, 1
         mov.imm r2, 3
         loop: addi r1, r1, 1
         blt r1, r2, loop
         halt",
    )
    .unwrap();
    sys.load_program(0, &p);
    sys.run(10_000).unwrap();
    let trace = sys.pe(0).trace();
    // 2 movs + 2x(addi + blt) + halt = 7 issued instructions.
    assert_eq!(trace.len(), 7);
    assert_eq!(trace[0].pc, 0);
    assert_eq!(trace[2].pc, 2, "first loop body");
    assert_eq!(trace[4].pc, 2, "second loop body");
    assert!(
        trace.windows(2).all(|w| w[0].cycle < w[1].cycle),
        "cycles increase"
    );
    assert!(matches!(trace[6].inst, vip_isa::Instruction::Halt));
}

#[test]
fn trace_respects_its_limit() {
    let mut sys = System::new(SystemConfig::small_test());
    sys.pe_mut(0).enable_trace(3);
    let p = assemble("nop\nnop\nnop\nnop\nnop\nhalt").unwrap();
    sys.load_program(0, &p);
    sys.run(10_000).unwrap();
    assert_eq!(sys.pe(0).trace().len(), 3);
}

#[test]
fn trace_is_empty_when_disabled() {
    let mut sys = System::new(SystemConfig::small_test());
    let p = assemble("nop\nhalt").unwrap();
    sys.load_program(0, &p);
    sys.run(10_000).unwrap();
    assert!(sys.pe(0).trace().is_empty());
}
