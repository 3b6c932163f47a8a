//! The buffer kernels (`alu::vec_vec`, `vec_scalar`, `mat_vec`) against
//! a wide-integer reference written here: i128 arithmetic, its own lane
//! encoding, nothing shared with `alu::vertical` / `alu::reduce`.
//!
//! `v.v` and `v.s` are exhaustive over 8-bit lanes and cover the rails
//! and their neighbours plus seeded samples at 16 / 32 / 64 bits. `m.v`
//! covers every type × vertical × horizontal operator over row counts
//! and lengths on both sides of the 64-lane block of the saturating-sum
//! kernel, in four operand regimes. The fourth, *prefix-adversarial*, is
//! the one a "sum wide, clamp once" shortcut gets wrong: a block whose
//! total is in range while a prefix of it is not.
//!
//! Run in debug (overflow checks prove the kernels' wide sums exact) and
//! in `--release` (the vectorized code).

use vip_isa::{alu, ElemType, HorizontalOp, VerticalOp};
use vip_rng::SplitMix64;

fn rails(ty: ElemType) -> (i128, i128) {
    let bits = 8 * ty.size_bytes() as u32;
    (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1)
}

fn sat(ty: ElemType, v: i128) -> i128 {
    let (min, max) = rails(ty);
    v.clamp(min, max)
}

fn ref_vertical(op: VerticalOp, ty: ElemType, a: i128, b: i128) -> i128 {
    match op {
        VerticalOp::Add => sat(ty, a + b),
        VerticalOp::Sub => sat(ty, a - b),
        VerticalOp::Mul => sat(ty, a * b),
        VerticalOp::Min => a.min(b),
        VerticalOp::Max => a.max(b),
        VerticalOp::Nop => a,
    }
}

/// One row of `m.v`: the fold starts at the operator's identity and
/// saturates (for `Add`) after every lane.
fn ref_row(vop: VerticalOp, hop: HorizontalOp, ty: ElemType, row: &[i128], vec: &[i128]) -> i128 {
    let (min, max) = rails(ty);
    let lanes = row
        .iter()
        .zip(vec)
        .map(|(&m, &v)| ref_vertical(vop, ty, m, v));
    match hop {
        HorizontalOp::Add => lanes.fold(0, |acc, x| sat(ty, acc + x)),
        HorizontalOp::Min => lanes.fold(max, i128::min),
        HorizontalOp::Max => lanes.fold(min, i128::max),
    }
}

fn encode(ty: ElemType, lanes: &[i128]) -> Vec<u8> {
    let n = ty.size_bytes();
    lanes
        .iter()
        .flat_map(|v| v.to_le_bytes().into_iter().take(n))
        .collect()
}

fn decode(ty: ElemType, bytes: &[u8]) -> Vec<i128> {
    bytes
        .chunks_exact(ty.size_bytes())
        .map(|lane| {
            let fill = if lane[lane.len() - 1] & 0x80 != 0 {
                0xff
            } else {
                0
            };
            let mut wide = [fill; 16];
            wide[..lane.len()].copy_from_slice(lane);
            i128::from_le_bytes(wide)
        })
        .collect()
}

/// `v.v` over `a` and `b` lane for lane, for all six operators.
fn check_vertical(ty: ElemType, a: &[i128], b: &[i128]) {
    let (abuf, bbuf) = (encode(ty, a), encode(ty, b));
    let mut dst = vec![0u8; abuf.len()];
    for op in VerticalOp::all() {
        alu::vec_vec(op, ty, &mut dst, &abuf, &bbuf, a.len());
        for (i, got) in decode(ty, &dst).into_iter().enumerate() {
            let want = ref_vertical(op, ty, a[i], b[i]);
            assert_eq!(got, want, "v.v {op:?} {ty:?} ({}, {})", a[i], b[i]);
        }
    }
}

/// `v.s` over `a` with each of `scalars` in turn, for all six operators.
fn check_scalar(ty: ElemType, a: &[i128], scalars: &[i128]) {
    let abuf = encode(ty, a);
    let mut dst = vec![0u8; abuf.len()];
    // The bits of a register the lane occupies; `v.s` ignores the rest.
    let lane = u64::MAX >> (64 - 8 * ty.size_bytes());
    for &s in scalars {
        let reg = (s as u64 & lane) | (0xa5a5_a5a5_a5a5_a5a5 & !lane);
        for op in VerticalOp::all() {
            alu::vec_scalar(op, ty, &mut dst, &abuf, reg, a.len());
            for (i, got) in decode(ty, &dst).into_iter().enumerate() {
                let want = ref_vertical(op, ty, a[i], s);
                assert_eq!(got, want, "v.s {op:?} {ty:?} ({}, {s})", a[i]);
            }
        }
    }
}

#[test]
fn vertical_ops_exhaustive_over_i8() {
    let ty = ElemType::I8;
    let all: Vec<i128> = (-128..=127).collect();
    let a: Vec<i128> = all.iter().flat_map(|&x| [x; 256]).collect();
    let b: Vec<i128> = all.iter().cycle().take(a.len()).copied().collect();
    check_vertical(ty, &a, &b);
    check_scalar(ty, &all, &all);
}

/// The rails, zero, the square roots of the rails (where a product
/// starts to saturate), the half range (where a sum does), all with
/// their neighbours, and seeded samples.
fn interesting(ty: ElemType, rng: &mut SplitMix64) -> Vec<i128> {
    let (min, max) = rails(ty);
    let root = (max as f64).sqrt() as i128;
    let mut vals = Vec::new();
    for centre in [min, -max / 2, -root, 0, root, max / 2, max] {
        vals.extend((-2..=2).map(|d| sat(ty, centre + d)));
    }
    for _ in 0..40 {
        // Full-range and small-magnitude samples alike.
        let v = rng.next_u64() as i64 >> rng.below(64);
        vals.push(decode(ty, &encode(ty, &[i128::from(v)]))[0]);
    }
    vals
}

#[test]
fn vertical_ops_on_rails_and_samples_i16_i32_i64() {
    let mut rng = SplitMix64::new(0x1a9e_0001);
    for ty in [ElemType::I16, ElemType::I32, ElemType::I64] {
        let vals = interesting(ty, &mut rng);
        let n = vals.len();
        let a: Vec<i128> = vals.iter().flat_map(|&x| vec![x; n]).collect();
        let b: Vec<i128> = vals.iter().cycle().take(a.len()).copied().collect();
        check_vertical(ty, &a, &b);
        check_scalar(ty, &vals, &vals);
    }
}

const ROWS: std::ops::RangeInclusive<usize> = 1..=5;
/// Either side of one, two, three and four 64-lane blocks, and a lone lane.
const LENS: [usize; 8] = [1, 63, 64, 65, 128, 131, 192, 256];

/// Runs `m.v` over `mat` (rows of `vec.len()` lanes) for every
/// horizontal operator and compares each row with [`ref_row`].
fn check_mat_vec(vop: VerticalOp, ty: ElemType, mat: &[i128], vec: &[i128], what: &str) {
    let (len, rows) = (vec.len(), mat.len() / vec.len());
    let (mbuf, vbuf) = (encode(ty, mat), encode(ty, vec));
    let mut dst = vec![0u8; rows * ty.size_bytes()];
    for hop in HorizontalOp::all() {
        alu::mat_vec(vop, hop, ty, &mut dst, &mbuf, &vbuf, rows, len);
        for (r, got) in decode(ty, &dst).into_iter().enumerate() {
            let want = ref_row(vop, hop, ty, &mat[r * len..(r + 1) * len], vec);
            assert_eq!(
                got, want,
                "m.v {vop:?}.{hop:?} {ty:?} {rows}x{len} row {r}: {what}"
            );
        }
    }
}

#[test]
fn mat_vec_random_operands_in_three_regimes() {
    let mut rng = SplitMix64::new(0x1a9e_0002);
    for ty in ElemType::all() {
        let (_, max) = rails(ty);
        // Tiny: whole rows stay in range. Half: lanes do, sums do not.
        // Full: nearly every step saturates.
        for (regime, bound) in [("tiny", 3), ("half", max / 2), ("full", max)] {
            let mut draw = |n: usize| -> Vec<i128> {
                (0..n)
                    .map(|_| {
                        let span = (2 * bound + 1) as u128;
                        (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) % span
                    })
                    .map(|v| v as i128 - bound)
                    .collect()
            };
            for vop in VerticalOp::all() {
                for rows in ROWS {
                    for len in LENS {
                        let (mat, vec) = (draw(rows * len), draw(len));
                        check_mat_vec(vop, ty, &mat, &vec, regime);
                    }
                }
            }
        }
    }
}

/// The lanes a prefix-adversarial pattern occupies.
#[derive(Debug, Clone, Copy)]
enum Site {
    FirstBlock,
    LastBlock,
    Tail,
}

/// How the accumulator reaches the site: untouched, or pinned to a rail
/// by the lanes before it (and the site's own first quarter).
#[derive(Debug, Clone, Copy)]
enum Arrival {
    Neutral,
    AtMax,
    AtMin,
}

/// What the site holds.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// Large positives then as many large negatives: total zero, prefix
    /// far above the rail.
    UpThenDown,
    DownThenUp,
    /// Two positives summing to exactly `MAX + over`, then a small
    /// negative: the bound holds (`over = 0`) or fails by one.
    EdgeMax {
        over: i128,
    },
    EdgeMin {
        over: i128,
    },
}

const SITES: [Site; 3] = [Site::FirstBlock, Site::LastBlock, Site::Tail];
const ARRIVALS: [Arrival; 3] = [Arrival::Neutral, Arrival::AtMax, Arrival::AtMin];
const PATTERNS: [Pattern; 6] = [
    Pattern::UpThenDown,
    Pattern::DownThenUp,
    Pattern::EdgeMax { over: 0 },
    Pattern::EdgeMax { over: 1 },
    Pattern::EdgeMin { over: 0 },
    Pattern::EdgeMin { over: 1 },
];

/// One row of vertical *results* (the caller picks operands that
/// produce them) of `len` lanes: small values everywhere, the lanes
/// before `site` driving the accumulator to `arrival`, and `pattern`
/// inside the site.
fn adversarial_row(
    ty: ElemType,
    len: usize,
    site: Site,
    arrival: Arrival,
    pattern: Pattern,
) -> Vec<i128> {
    let (min, max) = rails(ty);
    let blocks = len / 64;
    let (start, end) = match site {
        Site::FirstBlock => (0, len.min(64)),
        Site::LastBlock => (
            64 * blocks.saturating_sub(1),
            (64 * blocks).max(len.min(64)),
        ),
        Site::Tail if len > 64 * blocks => (64 * blocks, len),
        // No tail: the last lanes of the row stand in.
        Site::Tail => (len - len.min(8), len),
    };
    let mut row: Vec<i128> = (0..len as i128).map(|i| i % 3 - 1).collect();
    let width = end - start;
    let push = match arrival {
        Arrival::Neutral => 0,
        Arrival::AtMax => max / 3 + 1,
        Arrival::AtMin => min / 3 - 1,
    };
    let lead = width / 4;
    row[..start + lead].fill(push);
    let big = max - max / 8;
    let run = lead.max(1);
    let body: Vec<i128> = match pattern {
        Pattern::UpThenDown => [vec![big; run], vec![-big; run]].concat(),
        Pattern::DownThenUp => [vec![-big; run], vec![big; run]].concat(),
        Pattern::EdgeMax { over } => vec![max / 2, max / 2 + 1 + over, -5],
        Pattern::EdgeMin { over } => vec![min / 2, min / 2 - over, 5],
    };
    for (lane, v) in row[start + lead..end].iter_mut().zip(body) {
        *lane = v;
    }
    row
}

#[test]
fn mat_vec_prefix_adversarial_rows() {
    let cases: Vec<(Site, Arrival, Pattern)> = SITES
        .iter()
        .flat_map(|&s| ARRIVALS.iter().map(move |&a| (s, a)))
        .flat_map(|(s, a)| PATTERNS.iter().map(move |&p| (s, a, p)))
        .collect();
    for ty in ElemType::all() {
        let (min, max) = rails(ty);
        for vop in VerticalOp::all() {
            // The vector operand under which `vop(m, v)` is `m` — and,
            // for `Mul`, also the one that negates it.
            let mut passthrough = vec![match vop {
                VerticalOp::Add | VerticalOp::Sub | VerticalOp::Nop => 0,
                VerticalOp::Mul => 1,
                VerticalOp::Min => max,
                VerticalOp::Max => min,
            }];
            if vop == VerticalOp::Mul {
                passthrough.push(-1);
            }
            for v in passthrough {
                for len in LENS {
                    let vec = vec![v; len];
                    for rows in ROWS {
                        for batch in cases.chunks(rows) {
                            let mat: Vec<i128> = batch
                                .iter()
                                .flat_map(|&(s, a, p)| adversarial_row(ty, len, s, a, p))
                                .collect();
                            check_mat_vec(vop, ty, &mat, &vec, &format!("{batch:?}"));
                        }
                    }
                }
            }
        }
    }
}

/// The generator does build what it is for: rows whose true sum is in
/// range while the saturating fold is somewhere else.
#[test]
fn adversarial_rows_defeat_total_then_clamp() {
    for ty in ElemType::all() {
        let ones = vec![1; 256];
        let defeated = |pattern| {
            let row = adversarial_row(ty, 256, Site::LastBlock, Arrival::Neutral, pattern);
            let fold = ref_row(VerticalOp::Mul, HorizontalOp::Add, ty, &row, &ones);
            fold != sat(ty, row.iter().sum())
        };
        assert!(defeated(Pattern::UpThenDown), "{ty:?}");
        assert!(defeated(Pattern::DownThenUp), "{ty:?}");
        assert!(!defeated(Pattern::EdgeMax { over: 0 }), "{ty:?}");
        assert!(defeated(Pattern::EdgeMax { over: 1 }), "{ty:?}");
        assert!(!defeated(Pattern::EdgeMin { over: 0 }), "{ty:?}");
        assert!(defeated(Pattern::EdgeMin { over: 1 }), "{ty:?}");
    }
}
