//! Guest operand values at the extremes of their range.
//!
//! Addresses and lengths reach the PE as whole 64-bit register values,
//! so `vl`, `mr`, a DMA length or a scratchpad address can be anything
//! — zero, one short of the capacity, `2^63`, `u64::MAX`. Whatever they
//! are, every engine must end the same way: the same typed
//! [`SimError`] (or the same clean completion), the same retirement
//! counters and the same architectural state, in debug and in release
//! — never a host panic, and never a product that wraps into a legal
//! length. The expected traps are worked out here in 128-bit
//! arithmetic, independently of the simulator's own resolvers.

use vip_core::{Engine, FuncConfig, PeArchState, PeStats, SimError, System, SystemConfig};
use vip_isa::{Asm, ElemType, HorizontalOp, Program, Reg, Trap, VerticalOp};

const CAP: u64 = 4096;
const EXTREME_LENGTHS: [u64; 3] = [u64::MAX, 1 << 63, u64::MAX / 2];
const EXTREME_ADDRS: [u64; 2] = [u64::MAX, CAP - 1];

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Where a run ended, in the terms every engine must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), SimError>,
    /// The retirement counters: the PE's statistics with the
    /// timing-dependent fields (active cycles, the stall breakdown),
    /// which the functional engine does not maintain, zeroed.
    retired: PeStats,
    state: PeArchState,
    dram: Vec<u8>,
}

fn retired(stats: &PeStats) -> PeStats {
    PeStats {
        active_cycles: 0,
        stalls: Default::default(),
        ..*stats
    }
}

/// The DRAM window the DMA cases read and write.
const DRAM: u64 = 0x4000;

fn staged(program: &Program, regs: &[(u8, u64)]) -> System {
    let mut sys = System::new(SystemConfig::small_test());
    sys.load_program(0, program);
    for &(reg, value) in regs {
        sys.set_reg(0, r(reg), value);
    }
    let image: Vec<u8> = (0..CAP).map(|i| (i * 7 + 3) as u8).collect();
    sys.pe_mut(0).scratchpad_mut().write(0, &image).unwrap();
    sys.hmc_mut().host_write(DRAM, &[0xa5; 64]);
    sys
}

/// Runs `program` on the naive engine, the event engine, and the
/// functional engine twice — with its default windows, where a short
/// program ends inside the first cycle-accurate window, and with
/// windows small enough that the instruction under test is reached by
/// the block executor — and returns the one outcome all four share.
fn run_everywhere(program: &Program, regs: &[(u8, u64)]) -> Outcome {
    let engines = ["naive", "event", "functional", "functional (stretch)"];
    let mut outcomes = engines.iter().enumerate().map(|(engine, name)| {
        let mut sys = staged(program, regs);
        let result = match engine {
            0 => Engine::Naive.run(&mut sys, 1_000_000),
            1 => sys.run(1_000_000),
            2 => Engine::Functional.run(&mut sys, 1_000_000),
            _ => {
                sys.set_func_config(FuncConfig {
                    warmup_cycles: 10,
                    sample_cycles: 50,
                    stretch_work: 10_000,
                    quantum: 64,
                    drain_cycles: 2_000,
                });
                let result = Engine::Functional.run(&mut sys, 1_000_000);
                assert!(
                    sys.stats().func.functional_instructions > 0,
                    "the block executor never engaged"
                );
                result
            }
        };
        let outcome = Outcome {
            result: result.map(drop),
            retired: retired(sys.pe(0).stats()),
            state: sys.pe(0).arch_state(),
            dram: sys.hmc().host_read(DRAM, 64),
        };
        (outcome, name)
    });
    let (first, _) = outcomes.next().unwrap();
    for (other, name) in outcomes {
        assert_eq!(first, other, "naive vs {name}");
    }
    first
}

/// A scalar warm-up loop long enough for the small-window functional
/// run to calibrate and reach `body` in a functional stretch: four
/// instructions of program text, `WARMUP_INSTRUCTIONS` retired.
fn after_warmup(body: impl FnOnce(&mut Asm)) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(20), 0)
        .mov_imm(r(21), 300)
        .label("warm")
        .addi(r(20), r(20), 1)
        .blt(r(20), r(21), "warm");
    body(&mut asm);
    asm.halt();
    asm.assemble().unwrap()
}
const BODY_PC: usize = 4;
const WARMUP_INSTRUCTIONS: u64 = 2 + 2 * 300;

/// The first out-of-range `(address, bytes)` among `ranges`, as the
/// trap the PE must raise; lengths arrive as exact 128-bit products and
/// saturate only in the report.
fn first_trap(ranges: &[(u64, u128)]) -> Option<Trap> {
    ranges
        .iter()
        .find(|&&(addr, len)| u128::from(addr).saturating_add(len) > u128::from(CAP))
        .map(|&(addr, len)| Trap::ScratchpadOutOfBounds {
            addr: addr as usize,
            len: usize::try_from(len).unwrap_or(usize::MAX),
            capacity: CAP as usize,
        })
}

#[derive(Clone, Copy, Debug)]
enum VectorOp {
    MatVec,
    VecVec,
    VecScalar,
}

/// `set.vl r1; set.mr r5; <op> dst=r2, a=r3, b=r4` with every register
/// set by the host. Returns the program and the operand ranges in
/// check order.
fn vector_case(
    op: VectorOp,
    ty: ElemType,
    (vl, mr): (u64, u64),
    (dst, a, b): (u64, u64, u64),
) -> (Program, Vec<(u64, u128)>) {
    let program = after_warmup(|asm| {
        asm.set_vl(r(1)).set_mr(r(5));
        match op {
            VectorOp::MatVec => {
                asm.mat_vec(VerticalOp::Mul, HorizontalOp::Add, ty, r(2), r(3), r(4))
            }
            VectorOp::VecVec => asm.vec_vec(VerticalOp::Add, ty, r(2), r(3), r(4)),
            VectorOp::VecScalar => asm.vec_scalar(VerticalOp::Max, ty, r(2), r(3), r(6)),
        };
    });
    let (vl, mr, es) = (u128::from(vl), u128::from(mr), ty.size_bytes() as u128);
    let ranges = match op {
        // `mr * vl` fits 128 bits; only the element size can carry it over.
        VectorOp::MatVec => vec![
            (a, (mr * vl).saturating_mul(es)),
            (b, vl * es),
            (dst, mr * es),
        ],
        VectorOp::VecVec => vec![(a, vl * es), (b, vl * es), (dst, vl * es)],
        VectorOp::VecScalar => vec![(a, vl * es), (dst, vl * es)],
    };
    (program, ranges)
}

fn check_vector_case(
    op: VectorOp,
    ty: ElemType,
    (vl, mr): (u64, u64),
    (dst, a, b): (u64, u64, u64),
) {
    let (program, ranges) = vector_case(op, ty, (vl, mr), (dst, a, b));
    let pc = BODY_PC + 2;
    let regs = [(1, vl), (5, mr), (2, dst), (3, a), (4, b), (6, 7)];
    let got = run_everywhere(&program, &regs);
    let label = format!("{op:?}.{ty:?} vl={vl:#x} mr={mr:#x} dst={dst:#x} a={a:#x} b={b:#x}");
    match first_trap(&ranges) {
        Some(trap) => {
            assert_eq!(
                got.result,
                Err(SimError::Trap { pe: 0, pc, trap }),
                "{label}"
            );
            // Nothing counted: the warm-up, `set.vl` and `set.mr` only.
            assert_eq!(got.retired.instructions, WARMUP_INSTRUCTIONS + 2, "{label}");
            assert_eq!(got.retired.lane_ops + got.retired.sp_beats, 0, "{label}");
            // Nothing written.
            let untouched = staged(&program, &regs).pe(0).arch_state().scratchpad;
            assert_eq!(got.state.scratchpad, untouched, "{label}");
        }
        None => assert_eq!(got.result, Ok(()), "{label}"),
    }
}

#[test]
fn vector_lengths_at_the_extremes_trap_identically() {
    for op in [VectorOp::MatVec, VectorOp::VecVec, VectorOp::VecScalar] {
        for ty in [ElemType::I8, ElemType::I16, ElemType::I64] {
            for len in EXTREME_LENGTHS {
                check_vector_case(op, ty, (len, 1), (0, 64, 128));
                check_vector_case(op, ty, (len, len), (0, 64, 128));
            }
        }
    }
    for len in EXTREME_LENGTHS {
        check_vector_case(VectorOp::MatVec, ElemType::I16, (4, len), (0, 64, 128));
    }
    // 2^32 rows of 2^32 lanes: a product that wraps to zero.
    let wrap = (1 << 32, 1 << 32);
    check_vector_case(VectorOp::MatVec, ElemType::I8, wrap, (0, 64, 128));
}

#[test]
fn vector_addresses_at_the_extremes_trap_identically() {
    for op in [VectorOp::MatVec, VectorOp::VecVec, VectorOp::VecScalar] {
        for addr in EXTREME_ADDRS {
            check_vector_case(op, ElemType::I16, (4, 2), (addr, 64, 128));
            check_vector_case(op, ElemType::I16, (4, 2), (0, addr, 128));
            check_vector_case(op, ElemType::I16, (4, 2), (0, 64, addr));
            check_vector_case(op, ElemType::I16, (4, 2), (addr, addr, addr));
        }
        // One byte at the last address is legal.
        check_vector_case(op, ElemType::I8, (1, 1), (CAP - 1, CAP - 1, CAP - 1));
    }
}

/// `ld.sram` / `st.sram` of `len` elements at scratchpad address `sp`.
fn check_dma_case(load: bool, ty: ElemType, sp: u64, len: u64) {
    let program = after_warmup(|asm| {
        if load {
            asm.ld_sram(ty, r(1), r(2), r(3));
        } else {
            asm.st_sram(ty, r(1), r(2), r(3));
        }
        // A second, ordinary transfer behind it: a zero-length one must
        // leave the LSU and the ARC in working order.
        asm.mov_imm(r(4), 8)
            .mov_imm(r(5), 1024)
            .ld_sram(ElemType::I8, r(5), r(2), r(4))
            .memfence();
    });
    let regs = [(1, sp), (2, DRAM), (3, len)];
    let got = run_everywhere(&program, &regs);
    let label = format!("load={load} {ty:?} sp={sp:#x} len={len:#x}");
    let bytes = u128::from(len) * ty.size_bytes() as u128;
    match first_trap(&[(sp, bytes)]) {
        Some(trap) => {
            let pc = BODY_PC;
            assert_eq!(
                got.result,
                Err(SimError::Trap { pe: 0, pc, trap }),
                "{label}"
            );
            assert_eq!(got.retired.instructions, WARMUP_INSTRUCTIONS, "{label}");
            assert_eq!(got.retired.ldst_instructions, 0, "{label}");
        }
        None => {
            assert_eq!(got.result, Ok(()), "{label}");
            // Both transfers, the two `mov.imm`s, the fence and `halt`.
            assert_eq!(got.retired.instructions, WARMUP_INSTRUCTIONS + 6, "{label}");
            assert_eq!(got.retired.ldst_instructions, 2, "{label}");
            assert_eq!(got.state.scratchpad[1024..1032], [0xa5; 8], "{label}");
        }
    }
}

#[test]
fn dma_lengths_and_addresses_at_the_extremes() {
    for load in [true, false] {
        for ty in [ElemType::I8, ElemType::I16, ElemType::I64] {
            for len in [0, 1 << 63, u64::MAX, u64::MAX / 2] {
                for sp in [0, CAP - 1, CAP, u64::MAX] {
                    check_dma_case(load, ty, sp, len);
                }
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum DramOp {
    LdSram,
    StSram,
    LdReg,
    StReg,
    /// `st.reg.ff` then `ld.reg.fe` on the same word.
    FePair,
}

/// One DRAM access at `addr` from scratchpad 0: `ld.sram` / `st.sram` of
/// `len` bytes, or a register word (8 bytes; `len` is then the value
/// stored). The expected end is worked out here: a register word is
/// checked for alignment first, then every access for reaching past the
/// machine's memory.
fn check_dram_case(op: DramOp, addr: u64, len: u64) {
    let program = after_warmup(|asm| {
        match op {
            DramOp::LdSram => asm.ld_sram(ElemType::I8, r(1), r(2), r(3)),
            DramOp::StSram => asm.st_sram(ElemType::I8, r(1), r(2), r(3)),
            DramOp::LdReg => asm.ld_reg(r(4), r(2)),
            DramOp::StReg => asm.st_reg(r(3), r(2)),
            DramOp::FePair => asm.st_reg_ff(r(3), r(2)).ld_reg_fe(r(4), r(2)),
        };
        asm.memfence();
    });
    let regs = [(1, 0), (2, addr), (3, len)];
    let got = run_everywhere(&program, &regs);
    let label = format!("{op:?} addr={addr:#x} len={len:#x}");
    let capacity = SystemConfig::small_test().mem.total_bytes();
    let (word, bytes) = match op {
        DramOp::LdSram | DramOp::StSram => (false, len),
        DramOp::LdReg | DramOp::StReg | DramOp::FePair => (true, 8),
    };
    let trap = if word && !addr.is_multiple_of(8) {
        Some(Trap::MisalignedRegAccess { addr })
    } else if u128::from(addr) + u128::from(bytes) > u128::from(capacity) {
        let len = bytes as usize;
        Some(Trap::DramOutOfBounds {
            addr,
            len,
            capacity,
        })
    } else {
        None
    };
    match trap {
        Some(trap) => {
            let pc = BODY_PC;
            assert_eq!(
                got.result,
                Err(SimError::Trap { pe: 0, pc, trap }),
                "{label}"
            );
            assert_eq!(got.retired.instructions, WARMUP_INSTRUCTIONS, "{label}");
            assert_eq!(got.retired.ldst_instructions, 0, "{label}");
        }
        None => {
            assert_eq!(got.result, Ok(()), "{label}");
            let ldst = if matches!(op, DramOp::FePair) { 2 } else { 1 };
            assert_eq!(got.retired.ldst_instructions, ldst, "{label}");
            match op {
                // The memory's last words start as zero.
                DramOp::LdReg => assert_eq!(got.state.regs[4], 0, "{label}"),
                DramOp::FePair => assert_eq!(got.state.regs[4], len, "{label}"),
                _ => {}
            }
        }
    }
}

#[test]
fn dram_addresses_at_the_extremes() {
    let capacity = SystemConfig::small_test().mem.total_bytes();
    let addrs = [
        capacity - 64,
        capacity - 8,
        capacity - 1,
        capacity,
        1 << 63,
        u64::MAX - 7,
        u64::MAX,
    ];
    for addr in addrs {
        for len in [0, 1, 8, 64] {
            check_dram_case(DramOp::LdSram, addr, len);
            check_dram_case(DramOp::StSram, addr, len);
        }
        for op in [DramOp::LdReg, DramOp::StReg, DramOp::FePair] {
            check_dram_case(op, addr, 0x5eed);
        }
    }
}

#[test]
fn a_zero_length_transfer_is_a_no_op() {
    // The no-op itself, pinned: it completes, moves no byte in either
    // direction and holds no ARC entry against the vector op behind it.
    for load in [true, false] {
        let program = after_warmup(|asm| {
            if load {
                asm.ld_sram(ElemType::I16, r(1), r(2), r(3));
            } else {
                asm.st_sram(ElemType::I16, r(1), r(2), r(3));
            }
            asm.mov_imm(r(4), 8)
                .set_vl(r(4))
                .vec_vec(VerticalOp::Add, ElemType::I8, r(1), r(1), r(1))
                .v_drain();
        });
        let regs = [(1, 0), (2, DRAM), (3, 0)];
        let got = run_everywhere(&program, &regs);
        assert_eq!(got.result, Ok(()));
        assert_eq!(got.dram, [0xa5; 64]);
        let before = staged(&program, &regs).pe(0).arch_state().scratchpad;
        let doubled: Vec<u8> = before[..8].iter().map(|b| b * 2).collect();
        assert_eq!(got.state.scratchpad[..8], doubled[..]);
        assert_eq!(got.state.scratchpad[8..], before[8..]);
    }
}
