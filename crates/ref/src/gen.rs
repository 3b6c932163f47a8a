//! Seeded generator of random-but-valid VIP test programs.
//!
//! A generated [`TestCase`] is a *deterministic multi-PE workload*: its
//! final architectural state is a function of the programs and the
//! initial memory image alone, never of engine timing. That is what
//! makes it usable for differential conformance testing — the
//! architectural interpreter and every cycle-level stepping engine must
//! all land on the same final state. Determinism comes from a memory
//! discipline, not from avoiding sharing:
//!
//! * every PE owns a private DRAM *arena*; stores go only there;
//! * loads target the PE's own arena or a shared *read-only* region;
//! * full-empty words are used at most once per direction (one
//!   `st.reg.ff`, one `ld.reg.fe`), so their final value and state are
//!   race-free;
//! * the only cross-PE traffic is a full-empty *ring handoff*: in round
//!   `r`, PE `i` fills its slot and then drains PE `i-1`'s slot. Stores
//!   precede loads in program order, so the ring cannot deadlock.
//!
//! A test case is a list of independent *segments* per PE, each drawn
//! from its own sub-seed. Segments are the unit of minimization: the
//! harness re-materializes the case with segments masked off (ring
//! rounds drop on every PE at once) and keeps the divergence-preserving
//! subsets, without perturbing the surviving segments' randomness.

use vip_isa::{Asm, BranchCond, ElemType, HorizontalOp, Program, Reg, ScalarAluOp, VerticalOp};
use vip_rng::SplitMix64;

/// Base of the shared read-only DRAM region (pseudo-random bytes).
pub const RO_BASE: u64 = 0x1_0000;
/// Length of the read-only region.
pub const RO_LEN: usize = 4096;
/// Base of PE 0's private read-write arena.
pub const ARENA_BASE: u64 = 0x2_0000;
/// Address stride between consecutive PEs' arenas.
pub const ARENA_STRIDE: u64 = 0x1_0000;
/// Length of each PE's arena.
pub const ARENA_LEN: usize = 4096;
/// Base of the private full-empty word region.
pub const FE_BASE: u64 = 0x8_0000;
/// Full-empty slots reserved per PE.
pub const FE_SLOTS_PER_PE: usize = 256;
/// Base of the ring-handoff full-empty region.
pub const RING_BASE: u64 = 0x9_0000;

/// PE `pe`'s private arena base.
#[must_use]
pub fn arena_base(pe: usize) -> u64 {
    ARENA_BASE + pe as u64 * ARENA_STRIDE
}

/// PE `pe`'s `slot`-th private full-empty word.
#[must_use]
pub fn fe_addr(pe: usize, slot: usize) -> u64 {
    FE_BASE + ((pe * FE_SLOTS_PER_PE + slot) * 8) as u64
}

/// The round-`round` ring slot owned by PE `i` (of `n`).
#[must_use]
pub fn ring_addr(round: usize, i: usize, n: usize) -> u64 {
    RING_BASE + ((round * n + i) * 8) as u64
}

/// What the operand-extremes flavour draws address and length registers
/// from, given the scratchpad capacity: both ends of the legal range,
/// one past it, and values whose products with an element size wrap or
/// overflow 64 bits.
#[must_use]
pub fn extremes(sp_bytes: usize) -> [u64; 6] {
    let cap = sp_bytes as u64;
    [0, cap - 1, cap, 1 << 32, 1 << 63, u64::MAX]
}

/// The DRAM capacity of the machine the cases run on
/// (`SystemConfig::small_test`, one vault): transfers past it trap.
#[must_use]
pub fn dram_bytes() -> u64 {
    vip_core::SystemConfig::small_test().mem.total_bytes()
}

/// What the DRAM-extremes flavour draws DRAM addresses from, given the
/// capacity: the last bytes and words inside it, the capacity itself,
/// and addresses far past it, up to where a transfer wraps the address
/// space.
#[must_use]
pub fn dram_extremes(capacity: u64) -> [u64; 6] {
    [
        capacity - 64,
        capacity - 8,
        capacity - 1,
        capacity,
        1 << 63,
        u64::MAX - 7,
    ]
}

/// Scratch registers r1–r5 hold addresses and configuration; r6/r7 are
/// loop state; r16–r31 carry data between segments.
const DATA_REG_BASE: u8 = 16;
const DATA_REGS: u8 = 16;

fn data_reg(rng: &mut SplitMix64) -> Reg {
    Reg::new(DATA_REG_BASE + rng.below(u64::from(DATA_REGS)) as u8)
}

/// Generator knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of PEs the case targets.
    pub num_pes: usize,
    /// Scratchpad capacity per PE in bytes.
    pub scratchpad_bytes: usize,
    /// Maximum random segments per PE (at least 2 are drawn).
    pub max_segments: usize,
    /// Maximum ring-handoff rounds (0 disables the ring).
    pub max_ring_rounds: usize,
    /// The operand-extremes flavour: zero-length DMAs are sprinkled in,
    /// and half the cases end one PE's program in an instruction whose
    /// address and length registers are drawn from [`extremes`]. It
    /// nearly always traps — identically on the reference and every
    /// engine, or the case diverges.
    pub extremes: bool,
    /// The DRAM-extremes flavour: every case ends one PE's program in a
    /// transfer or register word at an address drawn from
    /// [`dram_extremes`], which traps wherever it reaches past the
    /// memory — identically on the reference and every engine.
    pub dram_extremes: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            num_pes: 4,
            scratchpad_bytes: 4096,
            max_segments: 10,
            max_ring_rounds: 3,
            extremes: false,
            dram_extremes: false,
        }
    }
}

/// One independently generated, independently removable piece of a PE's
/// program. Each carries the sub-seed its contents are drawn from, so
/// masking one segment off never changes what another emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentSpec {
    /// Straight-line scalar ALU ops over the data registers.
    Scalar { sub_seed: u64, n: usize },
    /// One vector instruction (`m.v`/`v.v`/`v.s`) with fresh `vl`/`mr`.
    Vector { sub_seed: u64 },
    /// `ld.sram` from the read-only region or the PE's arena.
    SramLoad { sub_seed: u64 },
    /// `st.sram` into the PE's arena.
    SramStore { sub_seed: u64 },
    /// `ld.reg` from the read-only region or the PE's arena.
    RegLoad { sub_seed: u64 },
    /// `st.reg` into the PE's arena.
    RegStore { sub_seed: u64 },
    /// A counted backwards-branch loop over scalar ops.
    Loop { sub_seed: u64, count: i64, n: usize },
    /// A forward branch that may skip a block of scalar ops.
    Skip { sub_seed: u64, n: usize },
    /// `st.reg.ff` then `ld.reg.fe` on a fresh private word.
    FePrivate { sub_seed: u64, slot: usize },
    /// `ld.reg.fe` of a word the host pre-fills.
    FeSeeded { sub_seed: u64, slot: usize },
    /// One round of the cross-PE ring handoff. Present on every PE;
    /// removable only on every PE at once.
    FeRing { sub_seed: u64, round: usize },
    /// A zero-length `ld.sram` or `st.sram`: legal anywhere up to and
    /// including the capacity, and a no-op.
    SramEmpty { sub_seed: u64 },
    /// The last segment of one PE: an instruction with every operand
    /// register drawn from [`extremes`], which nearly always traps.
    Extreme { sub_seed: u64 },
    /// The last segment of one PE: a DRAM transfer, or a register word,
    /// at an address drawn from [`dram_extremes`].
    DramExtreme { sub_seed: u64 },
}

impl SegmentSpec {
    /// Whether this is a ring segment of round `round`.
    #[must_use]
    pub fn is_ring_round(&self, round: usize) -> bool {
        matches!(self, SegmentSpec::FeRing { round: r, .. } if *r == round)
    }
}

/// A generated multi-PE test case: per-PE segment lists plus everything
/// derived from the seed. Programs and the host memory image are
/// *materialized* from the specs, optionally under a mask.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// The seed this case was generated from.
    pub seed: u64,
    /// Generator knobs used.
    pub cfg: GenConfig,
    /// Per-PE segment lists.
    pub specs: Vec<Vec<SegmentSpec>>,
    /// Ring rounds present (each appears once per PE).
    pub ring_rounds: usize,
}

/// A materialized test case: what to load and poke before running, and
/// which DRAM windows to compare afterwards.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// One program per PE.
    pub programs: Vec<Program>,
    /// Initial scratchpad image per PE.
    pub sp_init: Vec<Vec<u8>>,
    /// Host DRAM writes `(addr, bytes)` before the run.
    pub mem_init: Vec<(u64, Vec<u8>)>,
    /// Words the host marks *full* before the run.
    pub full_init: Vec<u64>,
    /// DRAM windows `(addr, len)` whose bytes and full bits are part of
    /// the architectural result.
    pub check_ranges: Vec<(u64, usize)>,
}

/// Generates the test case for `seed`.
#[must_use]
pub fn generate(seed: u64, cfg: &GenConfig) -> TestCase {
    let mut rng = SplitMix64::new(seed);
    let ring_rounds = if cfg.max_ring_rounds > 0 && cfg.num_pes > 1 {
        rng.below(cfg.max_ring_rounds as u64 + 1) as usize
    } else {
        0
    };

    let mut specs = Vec::with_capacity(cfg.num_pes);
    for _ in 0..cfg.num_pes {
        let n_segs = rng.usize_in(2..cfg.max_segments.max(3));
        let mut pe_specs: Vec<SegmentSpec> = (0..n_segs)
            .map(|_| {
                let sub_seed = rng.next_u64();
                match rng.below(10) {
                    0 | 1 => SegmentSpec::Scalar {
                        sub_seed,
                        n: rng.usize_in(2..8),
                    },
                    2 | 3 => SegmentSpec::Vector { sub_seed },
                    4 => SegmentSpec::SramLoad { sub_seed },
                    5 => SegmentSpec::SramStore { sub_seed },
                    6 => SegmentSpec::RegLoad { sub_seed },
                    7 => SegmentSpec::RegStore { sub_seed },
                    8 => SegmentSpec::Loop {
                        sub_seed,
                        count: rng.i64_in(2..5),
                        n: rng.usize_in(1..4),
                    },
                    _ => SegmentSpec::Skip {
                        sub_seed,
                        n: rng.usize_in(1..4),
                    },
                }
            })
            .collect();
        // Sprinkle in private full-empty traffic; each segment gets a
        // fresh slot so no word is reused.
        for slot in 0..rng.below(3) as usize {
            let sub_seed = rng.next_u64();
            let seg = if rng.bool() {
                SegmentSpec::FePrivate { sub_seed, slot }
            } else {
                SegmentSpec::FeSeeded { sub_seed, slot }
            };
            let at = rng.usize_in(0..pe_specs.len() + 1);
            pe_specs.insert(at, seg);
        }
        // Ring rounds, in round order at random positions.
        for round in 0..ring_rounds {
            let sub_seed = rng.next_u64();
            let after = pe_specs
                .iter()
                .position(|s| s.is_ring_round(round.wrapping_sub(1)))
                .map_or(0, |p| p + 1);
            let at = rng.usize_in(after..pe_specs.len() + 1);
            pe_specs.insert(at, SegmentSpec::FeRing { sub_seed, round });
        }
        specs.push(pe_specs);
    }
    // Drawn after everything else, so the flavour never perturbs what a
    // seed generates without it.
    if cfg.extremes {
        for pe_specs in &mut specs {
            for _ in 0..rng.below(3) {
                let at = rng.usize_in(0..pe_specs.len() + 1);
                let sub_seed = rng.next_u64();
                pe_specs.insert(at, SegmentSpec::SramEmpty { sub_seed });
            }
        }
        if rng.bool() {
            let sub_seed = rng.next_u64();
            specs[rng.usize_in(0..cfg.num_pes)].push(SegmentSpec::Extreme { sub_seed });
        }
    }
    // After the operand-extremes draws, for the same reason.
    if cfg.dram_extremes {
        let sub_seed = rng.next_u64();
        specs[rng.usize_in(0..cfg.num_pes)].push(SegmentSpec::DramExtreme { sub_seed });
    }

    TestCase {
        seed,
        cfg: *cfg,
        specs,
        ring_rounds,
    }
}

impl TestCase {
    /// A mask enabling every segment.
    #[must_use]
    pub fn full_mask(&self) -> Vec<Vec<bool>> {
        self.specs.iter().map(|s| vec![true; s.len()]).collect()
    }

    /// Materializes programs and host state with every segment enabled.
    #[must_use]
    pub fn materialize_full(&self) -> Materialized {
        let mask = self.full_mask();
        self.materialize(&mask)
    }

    /// Materializes programs and host state for the enabled segments.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match the spec shape or if a program
    /// fails to assemble (a generator bug).
    #[must_use]
    pub fn materialize(&self, mask: &[Vec<bool>]) -> Materialized {
        assert_eq!(mask.len(), self.specs.len(), "mask shape mismatch");
        let n = self.cfg.num_pes;
        let mut programs = Vec::with_capacity(n);
        let mut sp_init = Vec::with_capacity(n);
        let mut mem_init = Vec::new();
        let mut full_init = Vec::new();

        // Seed-derived, mask-independent host images.
        let mut img_rng = SplitMix64::new(self.seed ^ 0x1ace_5eed_0f00_d000);
        let ro = img_rng.bytes(RO_LEN);
        mem_init.push((RO_BASE, ro));

        for (pe, pe_specs) in self.specs.iter().enumerate() {
            assert_eq!(mask[pe].len(), pe_specs.len(), "mask shape mismatch");
            sp_init.push(img_rng.bytes(self.cfg.scratchpad_bytes));
            // Give each arena deterministic initial contents so loads
            // that precede stores still read defined data.
            mem_init.push((arena_base(pe), img_rng.bytes(ARENA_LEN)));

            let mut asm = Asm::new();
            let mut label = 0usize;
            let mut init_rng = SplitMix64::new(self.seed ^ (pe as u64).wrapping_mul(0x9e37));
            for i in 0..DATA_REGS {
                let v = init_rng.i64_in(-(1 << 39)..(1 << 39));
                asm.mov_imm(Reg::new(DATA_REG_BASE + i), v);
            }
            for (seg, &enabled) in pe_specs.iter().zip(&mask[pe]) {
                if !enabled {
                    continue;
                }
                seg.emit(pe, n, self.cfg.scratchpad_bytes, &mut asm, &mut label);
                if let SegmentSpec::FeSeeded { sub_seed, slot } = *seg {
                    let addr = fe_addr(pe, slot);
                    let value = SplitMix64::new(sub_seed).next_u64();
                    mem_init.push((addr, value.to_le_bytes().to_vec()));
                    full_init.push(addr);
                }
            }
            asm.halt();
            programs.push(asm.assemble().expect("generated programs assemble"));
        }

        let mut check_ranges = vec![(RO_BASE, RO_LEN)];
        for pe in 0..n {
            check_ranges.push((arena_base(pe), ARENA_LEN));
            check_ranges.push((fe_addr(pe, 0), FE_SLOTS_PER_PE * 8));
        }
        if self.ring_rounds > 0 {
            check_ranges.push((RING_BASE, self.ring_rounds * n * 8));
        }

        Materialized {
            programs,
            sp_init,
            mem_init,
            full_init,
            check_ranges,
        }
    }
}

impl SegmentSpec {
    /// Emits this segment's instructions for PE `pe` of `n`.
    fn emit(&self, pe: usize, n: usize, sp_bytes: usize, asm: &mut Asm, label: &mut usize) {
        let (r1, r2, r3, r5) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(5));
        let (r6, r7) = (Reg::new(6), Reg::new(7));
        match *self {
            SegmentSpec::Scalar { sub_seed, n } => {
                let mut rng = SplitMix64::new(sub_seed);
                for _ in 0..n {
                    emit_scalar_op(&mut rng, asm);
                }
            }
            SegmentSpec::Vector { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                let ty = ElemType::all()[rng.below(4) as usize];
                let es = ty.size_bytes();
                match rng.below(3) {
                    0 => {
                        // m.v: mat is mr x vl, result is mr lanes.
                        let mr = rng.usize_in(1..9);
                        let vl_max = 64.min(sp_bytes / (mr * es)).max(1);
                        let vl = rng.usize_in(1..vl_max + 1);
                        let mat_len = mr * vl * es;
                        let vec_len = vl * es;
                        let dst_len = mr * es;
                        let mat = rng.usize_in(0..sp_bytes - mat_len + 1);
                        let vec = rng.usize_in(0..sp_bytes - vec_len + 1);
                        let dst = rng.usize_in(0..sp_bytes - dst_len + 1);
                        let vop = VerticalOp::all()[rng.below(6) as usize];
                        let hop = HorizontalOp::all()[rng.below(3) as usize];
                        asm.mov_imm(r1, vl as i64).set_vl(r1);
                        asm.mov_imm(r5, mr as i64).set_mr(r5);
                        asm.mov_imm(r1, dst as i64);
                        asm.mov_imm(r2, mat as i64);
                        asm.mov_imm(r3, vec as i64);
                        asm.mat_vec(vop, hop, ty, r1, r2, r3);
                    }
                    1 => {
                        let vl = rng.usize_in(1..65);
                        let len = vl * es;
                        let a = rng.usize_in(0..sp_bytes - len + 1);
                        let b = rng.usize_in(0..sp_bytes - len + 1);
                        let dst = rng.usize_in(0..sp_bytes - len + 1);
                        let op = non_nop_vop(&mut rng);
                        asm.mov_imm(r1, vl as i64).set_vl(r1);
                        asm.mov_imm(r1, dst as i64);
                        asm.mov_imm(r2, a as i64);
                        asm.mov_imm(r3, b as i64);
                        asm.vec_vec(op, ty, r1, r2, r3);
                    }
                    _ => {
                        let vl = rng.usize_in(1..65);
                        let len = vl * es;
                        let a = rng.usize_in(0..sp_bytes - len + 1);
                        let dst = rng.usize_in(0..sp_bytes - len + 1);
                        let op = non_nop_vop(&mut rng);
                        let s = data_reg(&mut rng);
                        asm.mov_imm(r1, vl as i64).set_vl(r1);
                        asm.mov_imm(r1, dst as i64);
                        asm.mov_imm(r2, a as i64);
                        asm.vec_scalar(op, ty, r1, r2, s);
                    }
                }
                if rng.below(4) == 0 {
                    asm.v_drain();
                }
            }
            SegmentSpec::SramLoad { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                let ty = ElemType::all()[rng.below(4) as usize];
                let es = ty.size_bytes();
                let elems = rng.usize_in(1..512 / es + 1);
                let len = elems * es;
                let sp = rng.usize_in(0..sp_bytes - len + 1);
                let dram = if rng.bool() {
                    RO_BASE + rng.usize_in(0..RO_LEN - len + 1) as u64
                } else {
                    arena_base(pe) + rng.usize_in(0..ARENA_LEN - len + 1) as u64
                };
                asm.mov_imm(r1, sp as i64);
                asm.mov_imm(r2, dram as i64);
                asm.mov_imm(r3, elems as i64);
                asm.ld_sram(ty, r1, r2, r3);
            }
            SegmentSpec::SramStore { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                let ty = ElemType::all()[rng.below(4) as usize];
                let es = ty.size_bytes();
                let elems = rng.usize_in(1..512 / es + 1);
                let len = elems * es;
                let sp = rng.usize_in(0..sp_bytes - len + 1);
                let dram = arena_base(pe) + rng.usize_in(0..ARENA_LEN - len + 1) as u64;
                asm.mov_imm(r1, sp as i64);
                asm.mov_imm(r2, dram as i64);
                asm.mov_imm(r3, elems as i64);
                asm.st_sram(ty, r1, r2, r3);
            }
            SegmentSpec::RegLoad { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                let dram = if rng.bool() {
                    RO_BASE + rng.below((RO_LEN / 8) as u64) * 8
                } else {
                    arena_base(pe) + rng.below((ARENA_LEN / 8) as u64) * 8
                };
                let rd = data_reg(&mut rng);
                asm.mov_imm(r2, dram as i64);
                asm.ld_reg(rd, r2);
            }
            SegmentSpec::RegStore { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                let dram = arena_base(pe) + rng.below((ARENA_LEN / 8) as u64) * 8;
                let rs = data_reg(&mut rng);
                asm.mov_imm(r2, dram as i64);
                asm.st_reg(rs, r2);
            }
            SegmentSpec::Loop { sub_seed, count, n } => {
                let mut rng = SplitMix64::new(sub_seed);
                let name = format!("loop_{pe}_{label}");
                *label += 1;
                asm.mov_imm(r6, 0);
                asm.mov_imm(r7, count);
                asm.label(&name);
                for _ in 0..n {
                    emit_scalar_op(&mut rng, asm);
                }
                asm.addi(r6, r6, 1);
                asm.blt(r6, r7, &name);
            }
            SegmentSpec::Skip { sub_seed, n } => {
                let mut rng = SplitMix64::new(sub_seed);
                let name = format!("skip_{pe}_{label}");
                *label += 1;
                let cond = BranchCond::all()[rng.below(4) as usize];
                asm.mov_imm(r1, rng.i64_in(-2..3));
                asm.mov_imm(r2, rng.i64_in(-2..3));
                asm.branch(cond, r1, r2, &name);
                for _ in 0..n {
                    emit_scalar_op(&mut rng, asm);
                }
                asm.label(&name);
            }
            SegmentSpec::FePrivate { sub_seed, slot } => {
                let mut rng = SplitMix64::new(sub_seed);
                let addr = fe_addr(pe, slot);
                let src = data_reg(&mut rng);
                let rd = data_reg(&mut rng);
                asm.mov_imm(r1, addr as i64);
                asm.st_reg_ff(src, r1);
                asm.ld_reg_fe(rd, r1);
            }
            SegmentSpec::FeSeeded { sub_seed, slot } => {
                let mut rng = SplitMix64::new(sub_seed);
                let _value = rng.next_u64(); // consumed by materialize()
                let addr = fe_addr(pe, slot);
                let rd = data_reg(&mut rng);
                asm.mov_imm(r1, addr as i64);
                asm.ld_reg_fe(rd, r1);
            }
            SegmentSpec::FeRing { sub_seed, round } => {
                let mut rng = SplitMix64::new(sub_seed);
                let own = ring_addr(round, pe, n);
                let pred = ring_addr(round, (pe + n - 1) % n, n);
                let src = data_reg(&mut rng);
                let rd = data_reg(&mut rng);
                asm.mov_imm(r1, own as i64);
                asm.st_reg_ff(src, r1);
                asm.mov_imm(r2, pred as i64);
                asm.ld_reg_fe(rd, r2);
            }
            SegmentSpec::SramEmpty { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                let ty = ElemType::all()[rng.below(4) as usize];
                asm.mov_imm(r1, rng.usize_in(0..sp_bytes + 1) as i64);
                asm.mov_imm(r2, (arena_base(pe) + rng.below(ARENA_LEN as u64)) as i64);
                asm.mov_imm(r3, 0);
                if rng.bool() {
                    asm.ld_sram(ty, r1, r2, r3);
                } else {
                    asm.st_sram(ty, r1, r2, r3);
                }
            }
            SegmentSpec::Extreme { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                emit_extreme(&mut rng, pe, sp_bytes, asm);
            }
            SegmentSpec::DramExtreme { sub_seed } => {
                let mut rng = SplitMix64::new(sub_seed);
                emit_dram_extreme(&mut rng, asm);
            }
        }
    }
}

/// Loads `value` — one of [`extremes`] or [`dram_extremes`] — into `rd`.
fn load_extreme(asm: &mut Asm, rd: Reg, value: u64) {
    if value == 1 << 63 {
        // Past `mov.imm`'s 40-bit immediate.
        asm.mov_imm(rd, 1).slli(rd, rd, 63);
    } else {
        asm.mov_imm(rd, value as i64);
    }
}

/// Emits one vector or DMA instruction whose `vl` / `mr` / length and
/// address registers all hold [`extremes`] values. Nearly every draw
/// traps — a zero `vl` at its `set.vl`, a range past the capacity, a
/// product past 64 bits. The few that are legal (a zero-length DMA at
/// the capacity, one-byte lanes over the whole scratchpad) are ordinary
/// deterministic instructions; the reference decides which is which.
fn emit_extreme(rng: &mut SplitMix64, pe: usize, sp_bytes: usize, asm: &mut Asm) {
    let regs @ [r1, r2, r3, r4, r5] = [1, 2, 3, 4, 5].map(Reg::new);
    let values = extremes(sp_bytes);
    for reg in regs {
        load_extreme(asm, reg, values[rng.below(values.len() as u64) as usize]);
    }
    let ty = ElemType::all()[rng.below(4) as usize];
    match rng.below(5) {
        0 => {
            let vop = VerticalOp::all()[rng.below(6) as usize];
            let hop = HorizontalOp::all()[rng.below(3) as usize];
            asm.set_vl(r4).set_mr(r5).mat_vec(vop, hop, ty, r3, r1, r2);
        }
        1 => {
            asm.set_vl(r4).vec_vec(non_nop_vop(rng), ty, r3, r1, r2);
        }
        2 => {
            let s = data_reg(rng);
            asm.set_vl(r4).vec_scalar(non_nop_vop(rng), ty, r2, r1, s);
        }
        // `r4` elements between `r1` and the PE's own arena.
        kind => {
            asm.mov_imm(r5, arena_base(pe) as i64);
            if kind == 3 {
                asm.ld_sram(ty, r1, r5, r4);
            } else {
                asm.st_sram(ty, r1, r5, r4);
            }
        }
    }
}

/// Emits one DRAM access at an address drawn from [`dram_extremes`]:
/// `ld.sram` / `st.sram` of 0, 1, 2 or 8 elements from scratchpad 0,
/// `ld.reg`, `st.reg`, or a `st.reg.ff` / `ld.reg.fe` pair on one word
/// (filled, then drained, so a legal pair cannot park). Legal draws
/// touch only words no other segment uses.
fn emit_dram_extreme(rng: &mut SplitMix64, asm: &mut Asm) {
    let [r1, r2, r3] = [1, 2, 3].map(Reg::new);
    let addrs = dram_extremes(dram_bytes());
    load_extreme(asm, r2, addrs[rng.below(addrs.len() as u64) as usize]);
    let value = data_reg(rng);
    match rng.below(5) {
        kind @ (0 | 1) => {
            let ty = ElemType::all()[rng.below(4) as usize];
            asm.mov_imm(r1, 0);
            asm.mov_imm(r3, [0, 1, 2, 8][rng.below(4) as usize]);
            if kind == 0 {
                asm.ld_sram(ty, r1, r2, r3);
            } else {
                asm.st_sram(ty, r1, r2, r3);
            }
        }
        2 => {
            asm.ld_reg(value, r2);
        }
        3 => {
            asm.st_reg(value, r2);
        }
        _ => {
            asm.st_reg_ff(value, r2).ld_reg_fe(data_reg(rng), r2);
        }
    }
}

fn non_nop_vop(rng: &mut SplitMix64) -> VerticalOp {
    loop {
        let op = VerticalOp::all()[rng.below(6) as usize];
        if op != VerticalOp::Nop {
            return op;
        }
    }
}

fn emit_scalar_op(rng: &mut SplitMix64, asm: &mut Asm) {
    let op = ScalarAluOp::all()[rng.below(8) as usize];
    let rd = data_reg(rng);
    let rs1 = data_reg(rng);
    if rng.bool() {
        let rs2 = data_reg(rng);
        asm.scalar(op, rd, rs1, rs2);
    } else {
        let imm = rng.i64_in(-(1 << 23)..(1 << 23)) as i32;
        asm.scalar_imm(op, rd, rs1, imm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(42, &cfg).materialize_full();
        let b = generate(42, &cfg).materialize_full();
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.mem_init, b.mem_init);
        assert_eq!(a.full_init, b.full_init);
    }

    #[test]
    fn masking_preserves_surviving_segments() {
        let cfg = GenConfig::default();
        let case = generate(7, &cfg);
        let mut mask = case.full_mask();
        // Disable the first segment of PE 0; PE 1's program must be
        // unchanged.
        mask[0][0] = false;
        let full = case.materialize_full();
        let cut = case.materialize(&mask);
        assert_eq!(full.programs[1], cut.programs[1]);
        assert!(cut.programs[0].len() <= full.programs[0].len());
    }

    #[test]
    fn the_extremes_flavour_only_adds_segments() {
        // Its draws come last: the same seed generates the same case
        // with the flavour's segments taken back out.
        let plain = GenConfig::default();
        let flavoured = GenConfig {
            extremes: true,
            ..plain
        };
        let (mut extreme, mut empties) = (0, 0);
        for seed in 0..64 {
            let mut with = generate(seed, &flavoured);
            for specs in &mut with.specs {
                specs.retain(|s| match s {
                    SegmentSpec::Extreme { .. } => {
                        extreme += 1;
                        false
                    }
                    SegmentSpec::SramEmpty { .. } => {
                        empties += 1;
                        false
                    }
                    _ => true,
                });
            }
            assert_eq!(with.specs, generate(seed, &plain).specs, "seed {seed}");
        }
        assert!((16..=48).contains(&extreme), "{extreme} of 64 cases");
        assert!(empties > 64, "{empties} zero-length transfers");
    }

    #[test]
    fn the_dram_extremes_flavour_only_adds_one_segment() {
        let plain = GenConfig {
            extremes: true,
            ..GenConfig::default()
        };
        let flavoured = GenConfig {
            dram_extremes: true,
            ..plain
        };
        for seed in 0..64 {
            let mut with = generate(seed, &flavoured);
            let before: usize = with.specs.iter().map(Vec::len).sum();
            for specs in &mut with.specs {
                specs.retain(|s| !matches!(s, SegmentSpec::DramExtreme { .. }));
            }
            let after: usize = with.specs.iter().map(Vec::len).sum();
            assert_eq!(before, after + 1, "seed {seed}");
            assert_eq!(with.specs, generate(seed, &plain).specs, "seed {seed}");
        }
    }

    #[test]
    fn programs_fit_the_instruction_buffer() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let m = generate(seed, &cfg).materialize_full();
            for p in &m.programs {
                assert!(p.len() <= vip_isa::INST_BUFFER_ENTRIES);
            }
        }
    }
}
