//! Arithmetic semantics of the VIP vector datapath.
//!
//! Both vertical and horizontal vector units operate on 64-bit beats of
//! one, two, four, or eight sign-extended lanes (§III-B). Lane arithmetic
//! **saturates** to the lane's representable range — the fixed-point
//! behaviour assumed by the paper's "16-bit dynamic fixed point"
//! workloads (§IV) — while scalar-unit arithmetic wraps.
//!
//! This module is the *single source of truth* for datapath arithmetic:
//! the cycle-level PE model in `vip-core` and the golden reference kernels
//! in `vip-kernels` both call into it, which is what makes simulated
//! scratchpad contents bit-identical to the reference outputs.

use std::ops::Add;

use crate::ops::{HorizontalOp, VerticalOp};
use crate::types::ElemType;

/// Smallest representable lane value for `ty`.
#[must_use]
pub fn lane_min(ty: ElemType) -> i64 {
    match ty {
        ElemType::I8 => i64::from(i8::MIN),
        ElemType::I16 => i64::from(i16::MIN),
        ElemType::I32 => i64::from(i32::MIN),
        ElemType::I64 => i64::MIN,
    }
}

/// Largest representable lane value for `ty`.
#[must_use]
pub fn lane_max(ty: ElemType) -> i64 {
    match ty {
        ElemType::I8 => i64::from(i8::MAX),
        ElemType::I16 => i64::from(i16::MAX),
        ElemType::I32 => i64::from(i32::MAX),
        ElemType::I64 => i64::MAX,
    }
}

/// Clamps `value` to the representable range of `ty`.
#[must_use]
pub fn saturate(ty: ElemType, value: i64) -> i64 {
    value.clamp(lane_min(ty), lane_max(ty))
}

/// Applies a vertical (element-wise) operator to one lane.
///
/// `Add`, `Sub`, and `Mul` saturate; `Min`/`Max` select; `Nop` passes the
/// first operand through (used by `m.v.nop.*` pure reductions).
///
/// 64-bit lanes use `i128` intermediates so saturation is still exact.
#[must_use]
pub fn vertical(op: VerticalOp, ty: ElemType, a: i64, b: i64) -> i64 {
    let wide = |x: i64| i128::from(x);
    let sat = |v: i128| {
        let lo = i128::from(lane_min(ty));
        let hi = i128::from(lane_max(ty));
        v.clamp(lo, hi) as i64
    };
    match op {
        VerticalOp::Add => sat(wide(a) + wide(b)),
        VerticalOp::Sub => sat(wide(a) - wide(b)),
        VerticalOp::Mul => sat(wide(a) * wide(b)),
        VerticalOp::Min => a.min(b),
        VerticalOp::Max => a.max(b),
        VerticalOp::Nop => a,
    }
}

/// The identity element of a horizontal (reduction) operator.
#[must_use]
pub fn reduce_identity(op: HorizontalOp, ty: ElemType) -> i64 {
    match op {
        HorizontalOp::Add => 0,
        HorizontalOp::Min => lane_max(ty),
        HorizontalOp::Max => lane_min(ty),
    }
}

/// Folds one lane into a running reduction.
#[must_use]
pub fn reduce(op: HorizontalOp, ty: ElemType, acc: i64, x: i64) -> i64 {
    match op {
        HorizontalOp::Add => vertical(VerticalOp::Add, ty, acc, x),
        HorizontalOp::Min => acc.min(x),
        HorizontalOp::Max => acc.max(x),
    }
}

/// Reads the sign-extended lane at element index `idx` from a
/// little-endian byte buffer.
///
/// # Panics
///
/// Panics if the lane extends past the end of `bytes`.
#[must_use]
pub fn read_lane(bytes: &[u8], idx: usize, ty: ElemType) -> i64 {
    match ty {
        ElemType::I8 => i64::from(i8::load(&i8::lanes(bytes)[idx])),
        ElemType::I16 => i64::from(i16::load(&i16::lanes(bytes)[idx])),
        ElemType::I32 => i64::from(i32::load(&i32::lanes(bytes)[idx])),
        ElemType::I64 => i64::load(&i64::lanes(bytes)[idx]),
    }
}

/// Writes lane `idx` of a little-endian byte buffer. The value is
/// truncated to the lane width (callers saturate first).
///
/// # Panics
///
/// Panics if the lane extends past the end of `bytes`.
pub fn write_lane(bytes: &mut [u8], idx: usize, ty: ElemType, value: i64) {
    match ty {
        ElemType::I8 => i8::narrow(value).store(&mut i8::lanes_mut(bytes)[idx]),
        ElemType::I16 => i16::narrow(value).store(&mut i16::lanes_mut(bytes)[idx]),
        ElemType::I32 => i32::narrow(value).store(&mut i32::lanes_mut(bytes)[idx]),
        ElemType::I64 => value.store(&mut i64::lanes_mut(bytes)[idx]),
    }
}

/// Native-width lane arithmetic behind the buffer-level entry points.
///
/// [`vertical`] stays the semantic definition (i128 intermediates,
/// explicit clamping); this trait restates it with each type's native
/// saturating operators so the hot loops below can hoist the
/// `(op, ty)` dispatch out of the lane loop and auto-vectorize. The
/// `lane_paths_match_vertical` test pins the two formulations to each
/// other exactly.
trait LaneNum: Copy {
    /// The lane's little-endian bytes: `[u8; BYTES]`.
    type Bytes;
    /// Twice the lane's bits: holds the product of two lanes, and the
    /// sum of an accumulator and [`BLOCK`] lanes, exactly.
    type Wide: Copy + Default + Add<Output = Self::Wide>;
    const BYTES: usize;
    /// Whether arithmetic in `Wide` beats the native overflow-checked
    /// operators. Not for 64-bit lanes: `i128` sums and products do not
    /// vectorize, so those keep `saturating_mul` and the plain fold.
    const WIDE_PAYS: bool = Self::BYTES < 8;
    /// `bytes` as whole lanes (a trailing partial lane is dropped).
    fn lanes(bytes: &[u8]) -> &[Self::Bytes];
    fn lanes_mut(bytes: &mut [u8]) -> &mut [Self::Bytes];
    fn load(lane: &Self::Bytes) -> Self;
    fn store(self, lane: &mut Self::Bytes);
    fn sat_add(self, o: Self) -> Self;
    fn sat_sub(self, o: Self) -> Self;
    fn sat_mul(self, o: Self) -> Self;
    fn lane_min(self, o: Self) -> Self;
    fn lane_max(self, o: Self) -> Self;
    fn narrow(v: i64) -> Self;
    fn widen(self) -> Self::Wide;
    /// `Some(w)` as a lane if it is representable.
    fn fit(w: Self::Wide) -> Option<Self>;
}

macro_rules! impl_lane_num {
    ($($t:ty => $w:ty),*) => {$(
        impl LaneNum for $t {
            type Bytes = [u8; size_of::<$t>()];
            type Wide = $w;
            const BYTES: usize = size_of::<$t>();
            #[inline(always)]
            fn lanes(bytes: &[u8]) -> &[Self::Bytes] {
                bytes.as_chunks().0
            }
            #[inline(always)]
            fn lanes_mut(bytes: &mut [u8]) -> &mut [Self::Bytes] {
                bytes.as_chunks_mut().0
            }
            #[inline(always)]
            fn load(lane: &Self::Bytes) -> Self {
                <$t>::from_le_bytes(*lane)
            }
            #[inline(always)]
            fn store(self, lane: &mut Self::Bytes) {
                *lane = self.to_le_bytes();
            }
            #[inline(always)]
            fn sat_add(self, o: Self) -> Self {
                self.saturating_add(o)
            }
            #[inline(always)]
            fn sat_sub(self, o: Self) -> Self {
                self.saturating_sub(o)
            }
            #[inline(always)]
            fn sat_mul(self, o: Self) -> Self {
                // `saturating_mul` is a scalar multiply and overflow
                // test that keeps the lane loop from vectorizing.
                if !Self::WIDE_PAYS {
                    return self.saturating_mul(o);
                }
                let (min, max) = (<$t>::MIN.widen(), <$t>::MAX.widen());
                (self.widen() * o.widen()).clamp(min, max) as $t
            }
            #[inline(always)]
            fn lane_min(self, o: Self) -> Self {
                self.min(o)
            }
            #[inline(always)]
            fn lane_max(self, o: Self) -> Self {
                self.max(o)
            }
            #[inline(always)]
            fn narrow(v: i64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn widen(self) -> $w {
                <$w>::from(self)
            }
            #[inline(always)]
            fn fit(w: $w) -> Option<Self> {
                <$t>::try_from(w).ok()
            }
        }
    )*};
}

impl_lane_num!(i8 => i16, i16 => i32, i32 => i64, i64 => i128);

/// `dst[i] = f(a[i], b[i])` with the operator resolved once, outside
/// the lane loop.
#[inline(always)]
fn zip_lanes<T: LaneNum>(dst: &mut [u8], a: &[u8], b: &[u8], len: usize, f: impl Fn(T, T) -> T) {
    let n = len * T::BYTES;
    let dst = T::lanes_mut(&mut dst[..n]);
    for ((d, a), b) in dst.iter_mut().zip(T::lanes(&a[..n])).zip(T::lanes(&b[..n])) {
        f(T::load(a), T::load(b)).store(d);
    }
}

#[inline(always)]
fn vec_vec_typed<T: LaneNum>(op: VerticalOp, dst: &mut [u8], a: &[u8], b: &[u8], len: usize) {
    match op {
        VerticalOp::Add => zip_lanes::<T>(dst, a, b, len, T::sat_add),
        VerticalOp::Sub => zip_lanes::<T>(dst, a, b, len, T::sat_sub),
        VerticalOp::Mul => zip_lanes::<T>(dst, a, b, len, T::sat_mul),
        VerticalOp::Min => zip_lanes::<T>(dst, a, b, len, T::lane_min),
        VerticalOp::Max => zip_lanes::<T>(dst, a, b, len, T::lane_max),
        VerticalOp::Nop => zip_lanes::<T>(dst, a, b, len, |a, _| a),
    }
}

/// Element-wise `dst[i] = op(a[i], b[i])` over `len` lanes of byte
/// buffers — the semantics of `v.v` instructions.
///
/// # Panics
///
/// Panics if any buffer is shorter than `len` lanes.
pub fn vec_vec(op: VerticalOp, ty: ElemType, dst: &mut [u8], a: &[u8], b: &[u8], len: usize) {
    match ty {
        ElemType::I8 => vec_vec_typed::<i8>(op, dst, a, b, len),
        ElemType::I16 => vec_vec_typed::<i16>(op, dst, a, b, len),
        ElemType::I32 => vec_vec_typed::<i32>(op, dst, a, b, len),
        ElemType::I64 => vec_vec_typed::<i64>(op, dst, a, b, len),
    }
}

#[inline(always)]
fn map_lanes<T: LaneNum>(dst: &mut [u8], a: &[u8], len: usize, f: impl Fn(T) -> T) {
    let n = len * T::BYTES;
    for (d, a) in T::lanes_mut(&mut dst[..n])
        .iter_mut()
        .zip(T::lanes(&a[..n]))
    {
        f(T::load(a)).store(d);
    }
}

#[inline(always)]
fn vec_scalar_typed<T: LaneNum>(op: VerticalOp, dst: &mut [u8], a: &[u8], b: T, len: usize) {
    match op {
        VerticalOp::Add => map_lanes::<T>(dst, a, len, |x| x.sat_add(b)),
        VerticalOp::Sub => map_lanes::<T>(dst, a, len, |x| x.sat_sub(b)),
        VerticalOp::Mul => map_lanes::<T>(dst, a, len, |x| x.sat_mul(b)),
        VerticalOp::Min => map_lanes::<T>(dst, a, len, |x| x.lane_min(b)),
        VerticalOp::Max => map_lanes::<T>(dst, a, len, |x| x.lane_max(b)),
        VerticalOp::Nop => map_lanes::<T>(dst, a, len, |x| x),
    }
}

/// Element-wise `dst[i] = op(a[i], scalar)` over `len` lanes — the
/// semantics of `v.s` instructions. The scalar register value is
/// truncated to the lane width before broadcasting.
///
/// # Panics
///
/// Panics if a buffer is shorter than `len` lanes.
pub fn vec_scalar(op: VerticalOp, ty: ElemType, dst: &mut [u8], a: &[u8], scalar: u64, len: usize) {
    let b = truncate_scalar(ty, scalar);
    match ty {
        ElemType::I8 => vec_scalar_typed::<i8>(op, dst, a, i8::narrow(b), len),
        ElemType::I16 => vec_scalar_typed::<i16>(op, dst, a, i16::narrow(b), len),
        ElemType::I32 => vec_scalar_typed::<i32>(op, dst, a, i32::narrow(b), len),
        ElemType::I64 => vec_scalar_typed::<i64>(op, dst, a, i64::narrow(b), len),
    }
}

/// `result[r] = reduce_hop over i of vop(mat[r][i], vec[i])` for `rows`
/// rows of `len` lanes each — the semantics of `m.v` instructions. Matrix
/// rows are contiguous in `mat`; the `rows` results are written to
/// contiguous lanes of `dst`.
///
/// # Panics
///
/// Panics if a buffer is shorter than implied by `rows`/`len`.
#[allow(clippy::too_many_arguments)]
pub fn mat_vec(
    vop: VerticalOp,
    hop: HorizontalOp,
    ty: ElemType,
    dst: &mut [u8],
    mat: &[u8],
    vec: &[u8],
    rows: usize,
    len: usize,
) {
    match ty {
        ElemType::I8 => mat_vec_typed::<i8>(vop, hop, ty, dst, mat, vec, rows, len),
        ElemType::I16 => mat_vec_typed::<i16>(vop, hop, ty, dst, mat, vec, rows, len),
        ElemType::I32 => mat_vec_typed::<i32>(vop, hop, ty, dst, mat, vec, rows, len),
        ElemType::I64 => mat_vec_typed::<i64>(vop, hop, ty, dst, mat, vec, rows, len),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mat_vec_typed<T: LaneNum>(
    vop: VerticalOp,
    hop: HorizontalOp,
    ty: ElemType,
    dst: &mut [u8],
    mat: &[u8],
    vec: &[u8],
    rows: usize,
    len: usize,
) {
    match vop {
        VerticalOp::Add => mat_rows::<T, _>(hop, ty, dst, mat, vec, rows, len, T::sat_add),
        VerticalOp::Sub => mat_rows::<T, _>(hop, ty, dst, mat, vec, rows, len, T::sat_sub),
        VerticalOp::Mul => mat_rows::<T, _>(hop, ty, dst, mat, vec, rows, len, T::sat_mul),
        VerticalOp::Min => mat_rows::<T, _>(hop, ty, dst, mat, vec, rows, len, T::lane_min),
        VerticalOp::Max => mat_rows::<T, _>(hop, ty, dst, mat, vec, rows, len, T::lane_max),
        VerticalOp::Nop => mat_rows::<T, _>(hop, ty, dst, mat, vec, rows, len, |a, _| a),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mat_rows<T: LaneNum, VF: Fn(T, T) -> T>(
    hop: HorizontalOp,
    ty: ElemType,
    dst: &mut [u8],
    mat: &[u8],
    vec: &[u8],
    rows: usize,
    len: usize,
    vf: VF,
) {
    let ident = T::narrow(reduce_identity(hop, ty));
    match hop {
        HorizontalOp::Add if T::WIDE_PAYS => mat_dot::<T, _>(dst, mat, vec, rows, len, vf),
        HorizontalOp::Add => mat_inner::<T, _, _>(dst, mat, vec, rows, len, ident, vf, T::sat_add),
        HorizontalOp::Min => mat_inner::<T, _, _>(dst, mat, vec, rows, len, ident, vf, T::lane_min),
        HorizontalOp::Max => mat_inner::<T, _, _>(dst, mat, vec, rows, len, ident, vf, T::lane_max),
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn mat_inner<T: LaneNum, VF: Fn(T, T) -> T, HF: Fn(T, T) -> T>(
    dst: &mut [u8],
    mat: &[u8],
    vec: &[u8],
    rows: usize,
    len: usize,
    ident: T,
    vf: VF,
    hf: HF,
) {
    let row_bytes = len * T::BYTES;
    let vec = T::lanes(&vec[..row_bytes]);
    let dst = T::lanes_mut(&mut dst[..rows * T::BYTES]);
    for (r, d) in dst.iter_mut().enumerate() {
        let row = T::lanes(&mat[r * row_bytes..(r + 1) * row_bytes]);
        let mut acc = ident;
        for (m, v) in row.iter().zip(vec) {
            acc = hf(acc, vf(T::load(m), T::load(v)));
        }
        acc.store(d);
    }
}

/// Lanes summed per step of [`mat_dot`]. The tiles' row lengths (192,
/// 64, 256) are multiples of it, and with twice a lane's bits
/// [`LaneNum::Wide`] holds the sum of an accumulator and `BLOCK` lanes
/// exactly (65 × 2¹⁵ ≪ 2³¹; tightest for 8-bit lanes, 65 × 2⁷ < 2¹⁵).
const BLOCK: usize = 64;

/// The sequential saturating sum — the definition of `HorizontalOp::Add`.
#[inline(always)]
fn fold_sat<T: LaneNum>(acc: T, lanes: &[T]) -> T {
    lanes.iter().fold(acc, |acc, &x| acc.sat_add(x))
}

/// [`mat_inner`] for `HorizontalOp::Add`, whose saturating fold is
/// order-dependent and so cannot vectorize as written. Per block of
/// [`BLOCK`] lanes, the vertical results are stored and their positive
/// parts `pos` and negative parts `neg` summed exactly — plain
/// associative sums. Every prefix of the sequential fold over the block
/// lies in `acc + neg ..= acc + pos`; if both ends are representable no
/// step saturates and the fold is `acc + pos + neg`. Otherwise, and for
/// the tail, the stored lanes are folded one by one.
#[inline(always)]
fn mat_dot<T: LaneNum, VF: Fn(T, T) -> T>(
    dst: &mut [u8],
    mat: &[u8],
    vec: &[u8],
    rows: usize,
    len: usize,
    vf: VF,
) {
    let row_bytes = len * T::BYTES;
    let (vec, vec_tail) = T::lanes(&vec[..row_bytes]).as_chunks::<BLOCK>();
    let dst = T::lanes_mut(&mut dst[..rows * T::BYTES]);
    let zero = T::narrow(0);
    let mut vals = [zero; BLOCK];
    for (r, d) in dst.iter_mut().enumerate() {
        let row = T::lanes(&mat[r * row_bytes..(r + 1) * row_bytes]);
        let (row, row_tail) = row.as_chunks::<BLOCK>();
        let mut acc = zero;
        for (m, v) in row.iter().zip(vec) {
            let (mut pos, mut neg) = (T::Wide::default(), T::Wide::default());
            for ((x, m), v) in vals.iter_mut().zip(m).zip(v) {
                *x = vf(T::load(m), T::load(v));
                pos = pos + x.lane_max(zero).widen();
                neg = neg + x.lane_min(zero).widen();
            }
            let (lo, hi) = (acc.widen() + neg, acc.widen() + pos);
            acc = match (T::fit(lo), T::fit(hi), T::fit(lo + pos)) {
                (Some(_), Some(_), Some(sum)) => sum,
                _ => fold_sat(acc, &vals),
            };
        }
        let tail = &mut vals[..row_tail.len()];
        for ((x, m), v) in tail.iter_mut().zip(row_tail).zip(vec_tail) {
            *x = vf(T::load(m), T::load(v));
        }
        fold_sat(acc, tail).store(d);
    }
}

/// Truncates a 64-bit scalar register value to a sign-extended lane of
/// type `ty` (how `v.s` instructions interpret the scalar operand).
#[must_use]
pub fn truncate_scalar(ty: ElemType, value: u64) -> i64 {
    match ty {
        ElemType::I8 => i64::from(value as u8 as i8),
        ElemType::I16 => i64::from(value as u16 as i16),
        ElemType::I32 => i64::from(value as u32 as i32),
        ElemType::I64 => value as i64,
    }
}

/// Saturating 16-bit addition — convenience for golden kernels.
#[must_use]
#[inline]
pub fn sat_add16(a: i16, b: i16) -> i16 {
    a.saturating_add(b)
}

/// Saturating 16-bit subtraction — convenience for golden kernels.
#[must_use]
#[inline]
pub fn sat_sub16(a: i16, b: i16) -> i16 {
    a.saturating_sub(b)
}

/// Saturating 16-bit multiplication — convenience for golden kernels.
#[must_use]
#[inline]
pub fn sat_mul16(a: i16, b: i16) -> i16 {
    (i32::from(a) * i32::from(b)).clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// Pairs per step of [`sat_dot16`]: a step's products sum to at most
/// 2¹⁵ × 2¹⁵ = 2³⁰ in magnitude, so neither wide sum can overflow `i32`.
const DOT_STEP: usize = 1 << 15;

/// The saturating dot product `acc ⊕ a₀⊗b₀ ⊕ a₁⊗b₁ ⊕ …`, folded left to
/// right with [`sat_add16`] over [`sat_mul16`] — the golden kernels'
/// accumulation. Every prefix of the fold lies within `|acc| + Σ|pᵢ|` of
/// zero, so while that bound is at most `i16::MAX` no step saturates and
/// the fold equals the plain wide sum, which vectorizes; otherwise the
/// products are folded one by one.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length.
#[must_use]
#[inline]
pub fn sat_dot16(acc: i16, a: &[i16], b: &[i16]) -> i16 {
    assert_eq!(a.len(), b.len(), "sat_dot16 operands differ in length");
    a.chunks(DOT_STEP)
        .zip(b.chunks(DOT_STEP))
        .fold(acc, |acc, (a, b)| {
            let (mut sum, mut mag) = (0i32, 0i32);
            for (&x, &y) in a.iter().zip(b) {
                let p = i32::from(sat_mul16(x, y));
                sum += p;
                mag += p.abs();
            }
            if i32::from(acc).abs() + mag <= i32::from(i16::MAX) {
                (i32::from(acc) + sum) as i16
            } else {
                a.iter()
                    .zip(b)
                    .fold(acc, |acc, (&x, &y)| sat_add16(acc, sat_mul16(x, y)))
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_at_lane_bounds() {
        assert_eq!(vertical(VerticalOp::Add, ElemType::I16, 32000, 1000), 32767);
        assert_eq!(
            vertical(VerticalOp::Sub, ElemType::I16, -32000, 1000),
            -32768
        );
        assert_eq!(vertical(VerticalOp::Mul, ElemType::I8, 100, 100), 127);
        assert_eq!(vertical(VerticalOp::Mul, ElemType::I8, -100, 100), -128);
        assert_eq!(
            vertical(VerticalOp::Add, ElemType::I64, i64::MAX, i64::MAX),
            i64::MAX
        );
        assert_eq!(
            vertical(VerticalOp::Mul, ElemType::I64, i64::MIN, -1),
            i64::MAX
        );
    }

    #[test]
    fn min_max_and_nop() {
        assert_eq!(vertical(VerticalOp::Min, ElemType::I16, 3, -5), -5);
        assert_eq!(vertical(VerticalOp::Max, ElemType::I16, 3, -5), 3);
        assert_eq!(vertical(VerticalOp::Nop, ElemType::I16, 42, -5), 42);
    }

    #[test]
    fn reduce_identities() {
        for ty in ElemType::all() {
            assert_eq!(reduce_identity(HorizontalOp::Add, ty), 0);
            assert_eq!(reduce_identity(HorizontalOp::Min, ty), lane_max(ty));
            assert_eq!(reduce_identity(HorizontalOp::Max, ty), lane_min(ty));
        }
    }

    #[test]
    fn lane_io_roundtrip() {
        let mut buf = vec![0u8; 32];
        for ty in ElemType::all() {
            for (i, v) in [-1i64, 0, 1, lane_min(ty), lane_max(ty)].iter().enumerate() {
                if i * ty.size_bytes() + ty.size_bytes() > buf.len() {
                    continue;
                }
                write_lane(&mut buf, i, ty, *v);
                assert_eq!(read_lane(&buf, i, ty), *v, "{ty:?} lane {i}");
            }
        }
    }

    #[test]
    fn mat_vec_min_sum_matches_manual() {
        // 2x3 matrix, min-sum: result[r] = min_i(mat[r][i] + vec[i]).
        let ty = ElemType::I16;
        let mut mat = vec![0u8; 12];
        let mut vec_ = vec![0u8; 6];
        let mut dst = vec![0u8; 4];
        for (i, v) in [1i64, 5, 9, 2, 0, 7].iter().enumerate() {
            write_lane(&mut mat, i, ty, *v);
        }
        for (i, v) in [10i64, 1, 3].iter().enumerate() {
            write_lane(&mut vec_, i, ty, *v);
        }
        mat_vec(
            VerticalOp::Add,
            HorizontalOp::Min,
            ty,
            &mut dst,
            &mat,
            &vec_,
            2,
            3,
        );
        assert_eq!(read_lane(&dst, 0, ty), 6); // min(11, 6, 12)
        assert_eq!(read_lane(&dst, 1, ty), 1); // min(12, 1, 10)
    }

    #[test]
    fn mat_vec_dot_product() {
        let ty = ElemType::I32;
        let mut mat = vec![0u8; 16];
        let mut v = vec![0u8; 16];
        let mut dst = vec![0u8; 4];
        for i in 0..4 {
            write_lane(&mut mat, i, ty, (i + 1) as i64);
            write_lane(&mut v, i, ty, 2);
        }
        mat_vec(
            VerticalOp::Mul,
            HorizontalOp::Add,
            ty,
            &mut dst,
            &mat,
            &v,
            1,
            4,
        );
        assert_eq!(read_lane(&dst, 0, ty), 20);
    }

    #[test]
    fn vec_scalar_broadcast_truncates() {
        let ty = ElemType::I16;
        let a = {
            let mut b = vec![0u8; 4];
            write_lane(&mut b, 0, ty, 5);
            write_lane(&mut b, 1, ty, -5);
            b
        };
        let mut dst = vec![0u8; 4];
        // 0x1_0000 truncates to 0 for 16-bit lanes.
        vec_scalar(VerticalOp::Add, ty, &mut dst, &a, 0x1_0000, 2);
        assert_eq!(read_lane(&dst, 0, ty), 5);
        assert_eq!(read_lane(&dst, 1, ty), -5);
    }

    #[test]
    fn lane_paths_match_vertical() {
        // The hoisted native-saturating lane loops must agree with the
        // i128-clamping `vertical`/`reduce` definitions on every
        // operator, element type, and boundary value.
        use crate::ops::{HorizontalOp, VerticalOp};
        let vops = [
            VerticalOp::Add,
            VerticalOp::Sub,
            VerticalOp::Mul,
            VerticalOp::Min,
            VerticalOp::Max,
            VerticalOp::Nop,
        ];
        for ty in ElemType::all() {
            let vals = [
                lane_min(ty),
                lane_min(ty) + 1,
                -3,
                -1,
                0,
                1,
                2,
                7,
                lane_max(ty) - 1,
                lane_max(ty),
            ];
            let len = vals.len();
            let mut a = vec![0u8; len * ty.size_bytes()];
            let mut b = vec![0u8; len * ty.size_bytes()];
            for (i, &v) in vals.iter().enumerate() {
                write_lane(&mut a, i, ty, v);
                write_lane(&mut b, i, ty, vals[len - 1 - i]);
            }
            for vop in vops {
                let mut got = vec![0u8; a.len()];
                vec_vec(vop, ty, &mut got, &a, &b, len);
                for i in 0..len {
                    let want = vertical(vop, ty, read_lane(&a, i, ty), read_lane(&b, i, ty));
                    assert_eq!(read_lane(&got, i, ty), want, "v.v {vop:?} {ty:?} lane {i}");
                }
                for scalar in [0u64, 1, u64::MAX, lane_max(ty) as u64, 0x8000_0001] {
                    let mut got = vec![0u8; a.len()];
                    vec_scalar(vop, ty, &mut got, &a, scalar, len);
                    let s = truncate_scalar(ty, scalar);
                    for i in 0..len {
                        let want = vertical(vop, ty, read_lane(&a, i, ty), s);
                        assert_eq!(
                            read_lane(&got, i, ty),
                            want,
                            "v.s {vop:?} {ty:?} lane {i} scalar {scalar:#x}"
                        );
                    }
                }
                for hop in [HorizontalOp::Add, HorizontalOp::Min, HorizontalOp::Max] {
                    // 2 rows of len/2 lanes out of the same buffers.
                    let (rows, rlen) = (2, len / 2);
                    let mut got = vec![0u8; rows * ty.size_bytes()];
                    mat_vec(vop, hop, ty, &mut got, &a, &b, rows, rlen);
                    for r in 0..rows {
                        let mut want = reduce_identity(hop, ty);
                        for i in 0..rlen {
                            let m = read_lane(&a, r * rlen + i, ty);
                            let v = read_lane(&b, i, ty);
                            want = reduce(hop, ty, want, vertical(vop, ty, m, v));
                        }
                        assert_eq!(
                            read_lane(&got, r, ty),
                            want,
                            "m.v {vop:?}/{hop:?} {ty:?} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sat16_helpers_match_vertical() {
        let cases = [
            (32000i16, 1000i16),
            (-32000, -1000),
            (181, 181),
            (-182, 181),
            (i16::MIN, i16::MIN),
            (i16::MIN, i16::MAX),
            (i16::MAX, i16::MIN),
            (i16::MAX, i16::MAX),
        ];
        for (a, b) in cases {
            assert_eq!(
                i64::from(sat_add16(a, b)),
                vertical(VerticalOp::Add, ElemType::I16, a.into(), b.into())
            );
            assert_eq!(
                i64::from(sat_sub16(a, b)),
                vertical(VerticalOp::Sub, ElemType::I16, a.into(), b.into())
            );
            assert_eq!(
                i64::from(sat_mul16(a, b)),
                vertical(VerticalOp::Mul, ElemType::I16, a.into(), b.into())
            );
        }
    }
}
