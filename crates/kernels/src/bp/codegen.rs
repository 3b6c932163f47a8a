//! VIP code generation for BP-M message sweeps (§IV-A).
//!
//! The generated code follows the paper's software design: the
//! smoothness matrix lives in the scratchpad for the whole run, message
//! updates stream through double-buffered scratchpad groups of four
//! pixels (the "software pipelined to load data four iterations before
//! it is used" of §IV-A, Figure 2), `m.v.add.min` performs the min-sum
//! update, and strips of the orthogonal axis are distributed across PEs
//! with full-empty barriers between direction phases.
//!
//! [`VectorMachineStyle`] reproduces the Figure 4 sensitivity study:
//! the same kernel emitted for VIP proper (`SpReduce`), for VIP without
//! its reduction unit (`SpNoReduce`: divide-and-conquer `v.v.min`
//! halving), and for an emulated traditional vector-register machine
//! (`Rf*`: pack/unpack copies around every operand, following §VI-B's
//! ⌈N/w⌉-cycle register-move model).

use vip_isa::{Asm, ElemType, HorizontalOp, Program, Reg, VerticalOp};
use vip_mem::Hmc;

use super::{Messages, Mrf, Sweep};
use crate::sync::{self, BarrierAddrs, BarrierRegs};

const TY: ElemType = ElemType::I16;

/// Which of the five per-vertex-vector planes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Theta,
    FromAbove,
    FromBelow,
    FromLeft,
    FromRight,
}

/// DRAM layout of one MRF instance: five planes (θ and the four message
/// arrays — the `(4+1) × L × Ix × Iy` values of §II-A), the smoothness
/// matrix, and the synchronization words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpLayout {
    /// Base DRAM address (32-byte aligned).
    pub base: u64,
    /// Grid width.
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Labels.
    pub labels: usize,
    /// Bank-stagger padding in bytes appended to each image row and
    /// each plane. The default, 256 (one DRAM row), rotates vertical
    /// walks through all 16 banks; [`BpLayout::packed`] sets 0 for the
    /// ablation study, and the autotuner searches other values.
    pub row_pad: usize,
}

impl BpLayout {
    /// Creates a layout at `base` with the default bank-aware padding.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 32-byte aligned.
    #[must_use]
    pub fn new(base: u64, width: usize, height: usize, labels: usize) -> Self {
        Self::with_row_pad(base, width, height, labels, 256)
    }

    /// Creates a layout with an explicit bank-stagger pad.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `row_pad` is not 32-byte aligned.
    #[must_use]
    pub fn with_row_pad(
        base: u64,
        width: usize,
        height: usize,
        labels: usize,
        row_pad: usize,
    ) -> Self {
        assert_eq!(base % 32, 0, "layout base must be column aligned");
        assert_eq!(row_pad % 32, 0, "row pad must be column aligned");
        BpLayout {
            base,
            width,
            height,
            labels,
            row_pad,
        }
    }

    /// A densely packed layout without bank-aware padding — the naive
    /// placement, kept for the ablation bench.
    #[must_use]
    pub fn packed(base: u64, width: usize, height: usize, labels: usize) -> Self {
        Self::with_row_pad(base, width, height, labels, 0)
    }

    /// Logical bytes per plane (without padding).
    #[must_use]
    pub fn plane_bytes(&self) -> u64 {
        (self.width * self.height * self.labels * 2) as u64
    }

    /// Bytes between consecutive image rows of a plane. The pad
    /// (one DRAM row by default) staggers vertical walks of the grid
    /// (the horizontal sweeps' access pattern) through all 16 banks
    /// instead of aliasing onto two — bank-aware placement, the kind of
    /// layout tuning §IV-A's hand-written assembly implies.
    #[must_use]
    pub fn row_stride(&self) -> u64 {
        (self.width * self.labels * 2 + self.row_pad) as u64
    }

    /// Distance between consecutive planes, likewise bank-staggered.
    #[must_use]
    pub fn plane_stride(&self) -> u64 {
        self.height as u64 * self.row_stride() + self.row_pad as u64
    }

    fn plane_base(&self, plane: Plane) -> u64 {
        let p = self.plane_stride();
        self.base
            + p * match plane {
                Plane::Theta => 0,
                Plane::FromAbove => 1,
                Plane::FromBelow => 2,
                Plane::FromLeft => 3,
                Plane::FromRight => 4,
            }
    }

    /// DRAM address of the smoothness matrix.
    #[must_use]
    pub fn smoothness_base(&self) -> u64 {
        self.base + 5 * self.plane_stride()
    }

    /// DRAM address of the synchronization words (barrier counter and
    /// generation).
    #[must_use]
    pub fn sync_base(&self) -> u64 {
        let s = self.smoothness_base() + (self.labels * self.labels * 2) as u64;
        s.next_multiple_of(32)
    }

    /// Total footprint in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.sync_base() + 64 - self.base
    }

    /// Stages an MRF instance and message state into memory and
    /// initializes the barrier (host side, zero simulated time).
    pub fn load_into(&self, hmc: &mut Hmc, mrf: &Mrf, msgs: &Messages) {
        assert_eq!(mrf.params.width, self.width);
        assert_eq!(mrf.params.height, self.height);
        assert_eq!(mrf.params.labels, self.labels);
        let mut write_plane = |base: u64, data: &[i16]| {
            let row_elems = self.width * self.labels;
            for (y, row) in data.chunks(row_elems).enumerate() {
                hmc.host_write(
                    base + y as u64 * self.row_stride(),
                    &sync::i16s_to_bytes(row),
                );
            }
        };
        write_plane(self.plane_base(Plane::Theta), &mrf.data_costs);
        write_plane(self.plane_base(Plane::FromAbove), &msgs.from_above);
        write_plane(self.plane_base(Plane::FromBelow), &msgs.from_below);
        write_plane(self.plane_base(Plane::FromLeft), &msgs.from_left);
        write_plane(self.plane_base(Plane::FromRight), &msgs.from_right);
        hmc.host_write(
            self.smoothness_base(),
            &sync::i16s_to_bytes(&mrf.params.smoothness),
        );
        BarrierAddrs::at(self.sync_base()).init(hmc);
    }

    /// Reads the message state back out of memory (host side).
    #[must_use]
    pub fn read_messages(&self, hmc: &Hmc, normalize: bool) -> Messages {
        let row_bytes = self.width * self.labels * 2;
        let read = |p: Plane| {
            let base = self.plane_base(p);
            let mut out = Vec::with_capacity(self.width * self.height * self.labels);
            for y in 0..self.height as u64 {
                out.extend(sync::bytes_to_i16s(
                    &hmc.host_read(base + y * self.row_stride(), row_bytes),
                ));
            }
            out
        };
        Messages {
            from_above: read(Plane::FromAbove),
            from_below: read(Plane::FromBelow),
            from_left: read(Plane::FromLeft),
            from_right: read(Plane::FromRight),
            normalize,
        }
    }
}

/// The four machine configurations of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorMachineStyle {
    /// VIP proper: scratchpad + reduction unit (SP+R).
    SpReduce,
    /// Scratchpad without the reduction unit: divide-and-conquer halving
    /// with `v.v.min` (SP−R).
    SpNoReduce,
    /// Emulated vector-register file with a reduction unit (RF+R):
    /// pack/unpack copies around every vector operand.
    RfReduce,
    /// Emulated vector-register file without a reduction unit (RF−R).
    RfNoReduce,
}

impl VectorMachineStyle {
    /// All four, in Figure 4's order (top to bottom: SP+R, SP−R, RF+R,
    /// RF−R).
    #[must_use]
    pub fn all() -> [VectorMachineStyle; 4] {
        [
            VectorMachineStyle::SpReduce,
            VectorMachineStyle::SpNoReduce,
            VectorMachineStyle::RfReduce,
            VectorMachineStyle::RfNoReduce,
        ]
    }

    /// Display label matching the figure.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VectorMachineStyle::SpReduce => "SP+R",
            VectorMachineStyle::SpNoReduce => "SP-R",
            VectorMachineStyle::RfReduce => "RF+R",
            VectorMachineStyle::RfNoReduce => "RF-R",
        }
    }

    /// Inverse of [`label`](Self::label) — used when parsing schedule
    /// artifacts.
    #[must_use]
    pub fn from_label(label: &str) -> Option<VectorMachineStyle> {
        Self::all().into_iter().find(|s| s.label() == label)
    }

    pub(crate) fn uses_reduction(self) -> bool {
        matches!(
            self,
            VectorMachineStyle::SpReduce | VectorMachineStyle::RfReduce
        )
    }

    fn register_file(self) -> bool {
        matches!(
            self,
            VectorMachineStyle::RfReduce | VectorMachineStyle::RfNoReduce
        )
    }
}

/// Parameters of one strip: a single sweep direction over a band of the
/// orthogonal axis.
#[derive(Debug, Clone, Copy)]
pub struct StripParams {
    /// The MRF's memory layout.
    pub layout: BpLayout,
    /// Sweep direction.
    pub sweep: Sweep,
    /// `[start, end)` along the orthogonal axis (x for vertical sweeps,
    /// y for horizontal). Width must be a multiple of 8 (the group
    /// ping-pong's unroll).
    pub ortho_range: (usize, usize),
    /// Subtract element 0 of each new message (see
    /// [`Messages::normalize`]).
    pub normalize: bool,
    /// Machine configuration (Figure 4); use `SpReduce` for VIP proper.
    pub style: VectorMachineStyle,
    /// Rotating scratchpad group buffers: 2 selects the classic per-row
    /// ping-pong, 3+ the flat cross-row software pipeline (clamped to
    /// the strip's group count). See `BpSchedule::group_bufs`.
    pub group_bufs: usize,
}

/// Named registers used by the generated code.
#[derive(Debug, Clone, Copy)]
struct Regs {
    // constants
    l: Reg,
    l4: Reg,
    ll: Reg,
    one: Reg,
    zero: Reg,
    c8: Reg,
    c4: Reg,
    c2: Reg,
    // scratchpad addresses
    sp_s: Reg,
    sp_zeros: Reg,
    sp_out: Reg,
    sp_rep: Reg,
    sp_g0: Reg,
    sp_g1: Reg,
    sp_stg: Reg,
    stg_h8: Reg,
    stg_h4: Reg,
    stg_h2: Reg,
    stg_h1: Reg,
    // temporaries
    t: Reg,
    a: Reg,
    s1: Reg,
    s2: Reg,
    o: Reg,
    // pointers
    p_th: Reg,
    p_al: Reg,
    p_s1: Reg,
    p_s2: Reg,
    p_out: Reg,
    // loop counters
    seq: Reg,
    seq_n: Reg,
    grp: Reg,
    grp_n: Reg,
    iter: Reg,
    iter_n: Reg,
    my_gen: Reg,
    buf_a: Reg,
    buf_b: Reg,
    buf_xor: Reg,
    // flat-pipeline extras: two more rotating buffer bases and the
    // group-within-row counters that fold the per-row pointer
    // adjustment into the flat group loop
    buf_c: Reg,
    buf_d: Reg,
    lg_load: Reg,
    lg_store: Reg,
    lg_n: Reg,
    ld_n: Reg,
}

impl Regs {
    fn allocate() -> Self {
        let mut next = 0u8;
        let mut r = || {
            let reg = Reg::new(next);
            next += 1;
            reg
        };
        Regs {
            l: r(),
            l4: r(),
            ll: r(),
            one: r(),
            zero: r(),
            c8: r(),
            c4: r(),
            c2: r(),
            sp_s: r(),
            sp_zeros: r(),
            sp_out: r(),
            sp_rep: r(),
            sp_g0: r(),
            sp_g1: r(),
            sp_stg: r(),
            stg_h8: r(),
            stg_h4: r(),
            stg_h2: r(),
            stg_h1: r(),
            t: r(),
            a: r(),
            s1: r(),
            s2: r(),
            o: r(),
            p_th: r(),
            p_al: r(),
            p_s1: r(),
            p_s2: r(),
            p_out: r(),
            seq: r(),
            seq_n: r(),
            grp: r(),
            grp_n: r(),
            iter: r(),
            iter_n: r(),
            my_gen: r(),
            buf_a: r(),
            buf_b: r(),
            buf_xor: r(),
            buf_c: r(),
            buf_d: r(),
            lg_load: r(),
            lg_store: r(),
            lg_n: r(),
            ld_n: r(),
        }
    }

    fn barrier(&self) -> BarrierRegs {
        BarrierRegs {
            my_gen: self.my_gen,
            tmp: self.t,
            addr_cnt: self.a,
            addr_gen: self.s1,
            n: self.s2,
            zero: self.o,
        }
    }
}

/// Scratchpad offsets for label count `l` and `bufs` rotating group
/// buffers (2 for the classic ping-pong).
#[derive(Debug, Clone, Copy)]
struct SpMap {
    lb: usize,
    s: usize,
    zeros: usize,
    g0: usize,
    out: usize,
    rep: usize,
    stg: usize,
}

impl SpMap {
    fn new(labels: usize, bufs: usize) -> Self {
        assert!(bufs >= 2, "the group pipeline needs at least two buffers");
        let lb = labels * 2;
        let ll = labels * labels * 2;
        let s = 0;
        let zeros = s + ll;
        let g0 = zeros + lb;
        let out = g0 + bufs * 16 * lb;
        let rep = out + 4 * lb;
        let stg = rep + lb;
        assert!(
            stg + lb <= 4096,
            "scratchpad layout overflows for {labels} labels with {bufs} group buffers"
        );
        SpMap {
            lb,
            s,
            zeros,
            g0,
            out,
            rep,
            stg,
        }
    }

    /// Base offset of rotating group buffer `i`.
    fn g(&self, i: usize) -> usize {
        self.g0 + i * 16 * self.lb
    }
}

#[derive(Debug, Clone, Copy)]
struct SweepGeom {
    seq_count: usize,
    seq_start: i64,
    seq_stride: i64,
    ortho_stride: i64,
    out_delta: i64,
    along: Plane,
    s1: Plane,
    s2: Plane,
    contiguous: bool,
}

fn geometry(layout: &BpLayout, sweep: Sweep) -> SweepGeom {
    let ps = (layout.labels * 2) as i64;
    let rs = layout.row_stride() as i64;
    let (w, h) = (layout.width as i64, layout.height as i64);
    match sweep {
        Sweep::Down => SweepGeom {
            seq_count: layout.height - 1,
            seq_start: 0,
            seq_stride: rs,
            ortho_stride: ps,
            out_delta: rs,
            along: Plane::FromAbove,
            s1: Plane::FromLeft,
            s2: Plane::FromRight,
            contiguous: true,
        },
        Sweep::Up => SweepGeom {
            seq_count: layout.height - 1,
            seq_start: (h - 1) * rs,
            seq_stride: -rs,
            ortho_stride: ps,
            out_delta: -rs,
            along: Plane::FromBelow,
            s1: Plane::FromLeft,
            s2: Plane::FromRight,
            contiguous: true,
        },
        Sweep::Right => SweepGeom {
            seq_count: layout.width - 1,
            seq_start: 0,
            seq_stride: ps,
            ortho_stride: rs,
            out_delta: ps,
            along: Plane::FromLeft,
            s1: Plane::FromAbove,
            s2: Plane::FromBelow,
            contiguous: false,
        },
        Sweep::Left => SweepGeom {
            seq_count: layout.width - 1,
            seq_start: (w - 1) * ps,
            seq_stride: -ps,
            ortho_stride: rs,
            out_delta: -ps,
            along: Plane::FromRight,
            s1: Plane::FromAbove,
            s2: Plane::FromBelow,
            contiguous: false,
        },
    }
}

/// Emits the constant/prologue setup shared by all strips (run once per
/// program): register constants, scratchpad map registers, `set.vl` /
/// `set.mr`, and the smoothness-matrix load.
fn emit_prologue(asm: &mut Asm, r: &Regs, layout: &BpLayout, sp: &SpMap) {
    let l = layout.labels as i64;
    asm.mov_imm(r.l, l)
        .mov_imm(r.l4, 4 * l)
        .mov_imm(r.ll, l * l)
        .mov_imm(r.one, 1)
        .mov_imm(r.zero, 0)
        .mov_imm(r.c8, 8)
        .mov_imm(r.c4, 4)
        .mov_imm(r.c2, 2)
        .mov_imm(r.sp_s, sp.s as i64)
        .mov_imm(r.sp_zeros, sp.zeros as i64)
        .mov_imm(r.sp_out, sp.out as i64)
        .mov_imm(r.sp_rep, sp.rep as i64)
        .mov_imm(r.sp_g0, sp.g(0) as i64)
        .mov_imm(r.sp_g1, sp.g(1) as i64)
        .mov_imm(r.sp_stg, sp.stg as i64)
        .mov_imm(r.stg_h8, (sp.stg + 16) as i64)
        .mov_imm(r.stg_h4, (sp.stg + 8) as i64)
        .mov_imm(r.stg_h2, (sp.stg + 4) as i64)
        .mov_imm(r.stg_h1, (sp.stg + 2) as i64)
        .mov_imm(r.my_gen, 0)
        .set_vl(r.l)
        .set_mr(r.l)
        // Load the smoothness matrix; the ARC covers the dependency.
        .mov_imm(r.a, layout.smoothness_base() as i64)
        .ld_sram(TY, r.sp_s, r.a, r.ll);
}

/// Emits the contiguous 4-pixel group load into the buffer whose base
/// address register is `buf`, bumping the prefetch pointers.
fn emit_group_load_contig(asm: &mut Asm, r: &Regs, sp: &SpMap, buf: Reg, group_bytes: i32) {
    let lb = sp.lb as i32;
    for (section, ptr) in [
        (0, r.p_th),
        (4 * lb, r.p_al),
        (8 * lb, r.p_s1),
        (12 * lb, r.p_s2),
    ] {
        asm.addi(r.t, buf, section).ld_sram(TY, r.t, ptr, r.l4);
    }
    for ptr in [r.p_th, r.p_al, r.p_s1, r.p_s2] {
        asm.addi(ptr, ptr, group_bytes);
    }
}

/// Emits the strided loads of one pixel `u` into `buf` for horizontal
/// sweeps, bumping the pointers one ortho step.
fn emit_pixel_load(asm: &mut Asm, r: &Regs, sp: &SpMap, buf: Reg, u: usize, ortho_stride: i32) {
    let lb = sp.lb as i32;
    let u = u as i32;
    for (section, ptr) in [
        (u, r.p_th),
        (4 + u, r.p_al),
        (8 + u, r.p_s1),
        (12 + u, r.p_s2),
    ] {
        asm.addi(r.t, buf, section * lb).ld_sram(TY, r.t, ptr, r.l);
    }
    for ptr in [r.p_th, r.p_al, r.p_s1, r.p_s2] {
        asm.addi(ptr, ptr, ortho_stride);
    }
}

/// Emits the message computation for pixel `u` of the group in `buf`.
#[allow(clippy::too_many_arguments)]
fn emit_compute(
    asm: &mut Asm,
    r: &Regs,
    sp: &SpMap,
    style: VectorMachineStyle,
    normalize: bool,
    labels: usize,
    buf: Reg,
    u: usize,
    label_prefix: &str,
) {
    let lb = sp.lb as i32;
    let u = u as i32;
    asm.addi(r.t, buf, u * lb)
        .addi(r.a, buf, (4 + u) * lb)
        .addi(r.s1, buf, (8 + u) * lb)
        .addi(r.s2, buf, (12 + u) * lb)
        .addi(r.o, r.sp_out, u * lb);
    if style.register_file() {
        // Unpack emulation: one ⌈L/w⌉-cycle register move per operand
        // (§VI-B's model), expressed as identity copies.
        for reg in [r.t, r.a, r.s1, r.s2] {
            asm.vec_scalar(VerticalOp::Add, TY, reg, reg, r.zero);
        }
    }
    asm.vec_vec(VerticalOp::Add, TY, r.t, r.t, r.a)
        .vec_vec(VerticalOp::Add, TY, r.t, r.t, r.s1)
        .vec_vec(VerticalOp::Add, TY, r.t, r.t, r.s2);

    if style.uses_reduction() {
        asm.mat_vec(VerticalOp::Add, HorizontalOp::Min, TY, r.o, r.sp_s, r.t);
    } else {
        assert_eq!(labels, 16, "no-reduction emulation is generated for L = 16");
        assert!(
            !normalize,
            "no-reduction styles run unnormalized (Figure 4)"
        );
        // Divide-and-conquer: tmp = S_row + θ̂, then log2(L) halving
        // v.v.min steps, then a one-element copy into out[l].
        let loop_label = format!("{label_prefix}_l");
        asm.mov(r.a, r.sp_s) // S row pointer
            .mov(r.s1, r.o) // out element pointer
            .mov_imm(r.s2, 0) // label counter
            .label(&loop_label)
            .vec_vec(VerticalOp::Add, TY, r.sp_stg, r.a, r.t)
            .set_vl(r.c8)
            .vec_vec(VerticalOp::Min, TY, r.sp_stg, r.sp_stg, r.stg_h8)
            .set_vl(r.c4)
            .vec_vec(VerticalOp::Min, TY, r.sp_stg, r.sp_stg, r.stg_h4)
            .set_vl(r.c2)
            .vec_vec(VerticalOp::Min, TY, r.sp_stg, r.sp_stg, r.stg_h2)
            .set_vl(r.one)
            .vec_vec(VerticalOp::Min, TY, r.sp_stg, r.sp_stg, r.stg_h1)
            .vec_vec(VerticalOp::Max, TY, r.s1, r.sp_stg, r.sp_stg) // copy
            .set_vl(r.l)
            .addi(r.a, r.a, lb)
            .addi(r.s1, r.s1, 2)
            .addi(r.s2, r.s2, 1)
            .blt(r.s2, r.l, &loop_label);
    }
    if style.register_file() {
        // Repack emulation.
        asm.vec_scalar(VerticalOp::Add, TY, r.o, r.o, r.zero);
    }
    if normalize {
        // Broadcast out[0] into `rep` via an m.v with vl = 1, then
        // subtract — the argmin-invariant renormalization.
        asm.set_vl(r.one)
            .mat_vec(
                VerticalOp::Add,
                HorizontalOp::Min,
                TY,
                r.sp_rep,
                r.sp_zeros,
                r.o,
            )
            .set_vl(r.l)
            .vec_vec(VerticalOp::Sub, TY, r.o, r.o, r.sp_rep);
    }
}

fn emit_store_contig(asm: &mut Asm, r: &Regs, group_bytes: i32) {
    asm.st_sram(TY, r.sp_out, r.p_out, r.l4)
        .addi(r.p_out, r.p_out, group_bytes);
}

fn emit_store_strided(asm: &mut Asm, r: &Regs, sp: &SpMap, ortho_stride: i32) {
    let lb = sp.lb as i32;
    for u in 0..4i32 {
        asm.addi(r.o, r.sp_out, u * lb)
            .st_sram(TY, r.o, r.p_out, r.l)
            .addi(r.p_out, r.p_out, ortho_stride);
    }
}

/// Emits one full strip (pointer setup, row loop, group pipeline).
/// `prefix` must be unique per strip in the program.
fn emit_strip(asm: &mut Asm, r: &Regs, p: &StripParams, prefix: &str) {
    let (o0, o1) = p.ortho_range;
    let n_groups = (o1 - o0) / 4;
    if p.group_bufs > 2 && n_groups >= 2 {
        emit_strip_flat(asm, r, p, prefix);
    } else {
        emit_strip_pingpong(asm, r, p, prefix);
    }
}

/// The classic per-row ping-pong: two buffers, prefetch drained and
/// restarted at every sequential step.
#[allow(clippy::too_many_lines)]
fn emit_strip_pingpong(asm: &mut Asm, r: &Regs, p: &StripParams, prefix: &str) {
    let layout = &p.layout;
    let sp = SpMap::new(layout.labels, p.group_bufs.max(2));
    let g = geometry(layout, p.sweep);
    let (o0, o1) = p.ortho_range;
    assert!(o1 > o0, "empty strip");
    let n_pixels = o1 - o0;
    let n_groups = n_pixels / 4;
    assert_eq!(n_pixels % 4, 0, "strips need a multiple of 4 pixels");
    let group_bytes = i32::try_from(4 * g.ortho_stride).expect("group stride fits");
    let os = i32::try_from(g.ortho_stride).expect("ortho stride fits");
    let row_advance = n_groups as i64 * i64::from(group_bytes);
    let adjust = i32::try_from(g.seq_stride - row_advance).expect("row adjustment fits");

    let ortho_off = o0 as i64 * g.ortho_stride;
    let base = |plane: Plane| layout.plane_base(plane) as i64 + g.seq_start + ortho_off;

    asm.mov_imm(r.p_th, base(Plane::Theta))
        .mov_imm(r.p_al, base(g.along))
        .mov_imm(r.p_s1, base(g.s1))
        .mov_imm(r.p_s2, base(g.s2))
        .mov_imm(r.p_out, base(g.along) + g.out_delta)
        .mov_imm(r.seq, 0)
        .mov_imm(r.seq_n, g.seq_count as i64);

    let row_label = format!("{prefix}_row");
    asm.label(&row_label);

    // Software-pipelined ping-pong: prefetch group g+1 while computing
    // group g. Vertical (contiguous) strips load whole groups in four
    // `ld.sram`s; horizontal strips interleave per-pixel loads with the
    // computes so the 20-entry ARC bounds outstanding scratchpad loads.
    let prologue = |asm: &mut Asm| {
        if g.contiguous {
            emit_group_load_contig(asm, r, &sp, r.sp_g0, group_bytes);
        } else {
            for u in 0..4 {
                emit_pixel_load(asm, r, &sp, r.sp_g0, u, os);
            }
        }
    };
    let emit_body = |asm: &mut Asm, compute_buf: Reg, prefetch_buf: Option<Reg>, tag: &str| {
        if g.contiguous {
            if let Some(buf) = prefetch_buf {
                emit_group_load_contig(asm, r, &sp, buf, group_bytes);
            }
        }
        for u in 0..4 {
            emit_compute(
                asm,
                r,
                &sp,
                p.style,
                p.normalize,
                layout.labels,
                compute_buf,
                u,
                &format!("{prefix}_{tag}_{u}"),
            );
            if !g.contiguous {
                if let Some(buf) = prefetch_buf {
                    emit_pixel_load(asm, r, &sp, buf, u, os);
                }
            }
        }
        if g.contiguous {
            emit_store_contig(asm, r, group_bytes);
        } else {
            emit_store_strided(asm, r, &sp, os);
        }
    };
    prologue(asm);
    if n_groups > 1 {
        // The loop body computes the buffer named by `buf_a` while
        // prefetching into `buf_b`; an XOR against (G0 ^ G1) swaps the
        // two each trip, so only one body's worth of instructions is
        // emitted (the instruction buffer holds 1,024 entries).
        asm.mov(r.buf_a, r.sp_g0)
            .mov(r.buf_b, r.sp_g1)
            .mov_imm(r.buf_xor, (sp.g(0) ^ sp.g(1)) as i64);
        let gl = format!("{prefix}_grp");
        asm.mov_imm(r.grp, 0)
            .mov_imm(r.grp_n, n_groups as i64 - 1)
            .label(&gl);
        emit_body(asm, r.buf_a, Some(r.buf_b), "ga");
        asm.scalar(vip_isa::ScalarAluOp::Xor, r.buf_a, r.buf_a, r.buf_xor)
            .scalar(vip_isa::ScalarAluOp::Xor, r.buf_b, r.buf_b, r.buf_xor)
            .addi(r.grp, r.grp, 1)
            .blt(r.grp, r.grp_n, &gl);
        // Drain the final group (no prefetch).
        emit_body(asm, r.buf_a, None, "gf");
    } else {
        emit_body(asm, r.sp_g0, None, "gf");
    }

    // Advance to the next sequential position.
    for ptr in [r.p_th, r.p_al, r.p_s1, r.p_s2, r.p_out] {
        asm.addi(ptr, ptr, adjust);
    }
    asm.addi(r.seq, r.seq, 1).blt(r.seq, r.seq_n, &row_label);
}

/// The flat software pipeline: one group loop over the whole strip
/// (`seq_count × n_groups` trips) with `min(group_bufs, n_groups)`
/// rotating buffers, so the prefetch stream never drains at a row
/// boundary. The per-row pointer adjustment is folded into the loop:
/// the load pointers and the store pointer each carry a
/// group-within-row counter and take the adjustment when it wraps.
///
/// Safety of prefetching across the row boundary: the along-plane
/// values a row reads were stored by the *previous* row's groups, and
/// with depth ≤ `n_groups` (enforced by the clamp plus
/// `BpSchedule::validate`) every such store is issued in a strictly
/// earlier loop trip than the load that reads it. The LSU emits
/// requests in program order and the vault controller never reorders
/// overlapping transactions, so the RAW dependency through DRAM holds.
#[allow(clippy::too_many_lines)]
fn emit_strip_flat(asm: &mut Asm, r: &Regs, p: &StripParams, prefix: &str) {
    let layout = &p.layout;
    let sp = SpMap::new(layout.labels, p.group_bufs);
    let g = geometry(layout, p.sweep);
    let (o0, o1) = p.ortho_range;
    assert!(o1 > o0, "empty strip");
    let n_pixels = o1 - o0;
    let n_groups = n_pixels / 4;
    assert_eq!(n_pixels % 4, 0, "strips need a multiple of 4 pixels");
    let depth = p.group_bufs.min(n_groups);
    assert!(depth >= 2, "flat pipeline needs at least two buffers");
    let group_bytes = i32::try_from(4 * g.ortho_stride).expect("group stride fits");
    let os = i32::try_from(g.ortho_stride).expect("ortho stride fits");
    let row_advance = n_groups as i64 * i64::from(group_bytes);
    let adjust = i32::try_from(g.seq_stride - row_advance).expect("row adjustment fits");
    let total = g.seq_count * n_groups;

    let ortho_off = o0 as i64 * g.ortho_stride;
    let base = |plane: Plane| layout.plane_base(plane) as i64 + g.seq_start + ortho_off;

    // The rotation set: compute always reads `bufs[0]`, prefetch always
    // targets `bufs[depth - 1]`, and each trip rotates left by one.
    let all_bufs = [r.buf_a, r.buf_b, r.buf_c, r.buf_d];
    let bufs = &all_bufs[..depth];

    asm.mov_imm(r.p_th, base(Plane::Theta))
        .mov_imm(r.p_al, base(g.along))
        .mov_imm(r.p_s1, base(g.s1))
        .mov_imm(r.p_s2, base(g.s2))
        .mov_imm(r.p_out, base(g.along) + g.out_delta)
        .mov_imm(r.lg_n, n_groups as i64);
    for (i, &buf) in bufs.iter().enumerate() {
        asm.mov_imm(buf, sp.g(i) as i64);
    }

    // Bump the load-group counter; on row wrap, adjust the four load
    // pointers to the next sequential position. Depth ≤ n_groups means
    // the warm-up never wraps, so this is only emitted in the loop.
    let wrap_loads = |asm: &mut Asm, label: String| {
        asm.addi(r.lg_load, r.lg_load, 1)
            .blt(r.lg_load, r.lg_n, &label);
        for ptr in [r.p_th, r.p_al, r.p_s1, r.p_s2] {
            asm.addi(ptr, ptr, adjust);
        }
        asm.mov_imm(r.lg_load, 0).label(&label);
    };
    let wrap_store = |asm: &mut Asm, label: String| {
        asm.addi(r.lg_store, r.lg_store, 1)
            .blt(r.lg_store, r.lg_n, &label);
        asm.addi(r.p_out, r.p_out, adjust).mov_imm(r.lg_store, 0);
        asm.label(&label);
    };

    // Warm-up: fill the first depth-1 buffers (no wrap possible).
    for &buf in &bufs[..depth - 1] {
        if g.contiguous {
            emit_group_load_contig(asm, r, &sp, buf, group_bytes);
        } else {
            for u in 0..4 {
                emit_pixel_load(asm, r, &sp, buf, u, os);
            }
        }
    }
    asm.mov_imm(r.lg_load, (depth - 1) as i64)
        .mov_imm(r.lg_store, 0);

    // One loop over every group in the strip. The prefetch (and its
    // row-wrap pointer adjustment) is guarded by the trip count: the
    // last depth-1 trips have nothing left to load and only drain the
    // pipeline, so a single emitted body covers steady state and drain.
    let main = format!("{prefix}_fs");
    asm.mov_imm(r.grp, 0)
        .mov_imm(r.grp_n, total as i64)
        .mov_imm(r.ld_n, (total - (depth - 1)) as i64)
        .label(&main);
    if g.contiguous {
        let skip = format!("{prefix}_nl");
        asm.bge(r.grp, r.ld_n, &skip);
        emit_group_load_contig(asm, r, &sp, bufs[depth - 1], group_bytes);
        wrap_loads(asm, format!("{prefix}_wl"));
        asm.label(&skip);
    }
    for u in 0..4 {
        emit_compute(
            asm,
            r,
            &sp,
            p.style,
            p.normalize,
            layout.labels,
            bufs[0],
            u,
            &format!("{prefix}_fa_{u}"),
        );
        if !g.contiguous {
            let skip = format!("{prefix}_nl{u}");
            asm.bge(r.grp, r.ld_n, &skip);
            emit_pixel_load(asm, r, &sp, bufs[depth - 1], u, os);
            if u == 3 {
                wrap_loads(asm, format!("{prefix}_wl"));
            }
            asm.label(&skip);
        }
    }
    if g.contiguous {
        emit_store_contig(asm, r, group_bytes);
    } else {
        emit_store_strided(asm, r, &sp, os);
    }
    wrap_store(asm, format!("{prefix}_ws"));
    asm.mov(r.t, bufs[0]);
    for i in 0..depth - 1 {
        asm.mov(bufs[i], bufs[i + 1]);
    }
    asm.mov(bufs[depth - 1], r.t);
    asm.addi(r.grp, r.grp, 1).blt(r.grp, r.grp_n, &main);
}

/// Generates a standalone single-PE program performing one directional
/// sweep over `ortho_range` — the Figure 4 micro-kernel.
///
/// # Panics
///
/// Panics if the strip geometry violates the alignment rules in
/// [`StripParams`] or the program exceeds the instruction buffer.
#[must_use]
pub fn strip_program(p: &StripParams) -> Program {
    let r = Regs::allocate();
    let sp = SpMap::new(p.layout.labels, p.group_bufs.max(2));
    let mut asm = Asm::new();
    emit_prologue(&mut asm, &r, &p.layout, &sp);
    emit_strip(&mut asm, &r, p, "s0");
    asm.memfence().halt();
    asm.assemble().expect("strip program assembles")
}

/// Generates per-PE programs for `iters` full BP-M iterations over the
/// whole grid under an explicit schedule, with the schedule's PEs
/// splitting each sweep's orthogonal axis and barrier-synchronizing
/// between the vertical and horizontal phases (§IV-A's schedule).
///
/// # Panics
///
/// Panics if `sched.validate` rejects the grid shape or the schedule's
/// `row_pad` disagrees with the staged layout.
#[must_use]
pub fn bp_iteration_programs(
    layout: &BpLayout,
    sched: &crate::schedule::BpSchedule,
    iters: usize,
    normalize: bool,
) -> Vec<Program> {
    assert!(iters > 0);
    sched
        .validate(layout.width, layout.height, layout.labels)
        .expect("bp schedule is valid for the grid");
    assert_eq!(
        sched.row_pad, layout.row_pad,
        "schedule row pad must match the staged layout"
    );
    let (total_pes, style) = (sched.pes, sched.style);
    let x_chunk = layout.width / total_pes;
    let y_chunk = layout.height / total_pes;
    let barrier = BarrierAddrs::at(layout.sync_base());

    (0..total_pes)
        .map(|pe| {
            let r = Regs::allocate();
            let sp = SpMap::new(layout.labels, sched.group_bufs.max(2));
            let mut asm = Asm::new();
            emit_prologue(&mut asm, &r, layout, &sp);
            asm.mov_imm(r.iter, 0)
                .mov_imm(r.iter_n, iters as i64)
                .label("iter");

            let x_range = (pe * x_chunk, (pe + 1) * x_chunk);
            let y_range = (pe * y_chunk, (pe + 1) * y_chunk);
            for (sweep, range, tag) in [
                (Sweep::Down, x_range, "d"),
                (Sweep::Up, x_range, "u"),
                (Sweep::Right, y_range, "r"),
                (Sweep::Left, y_range, "l"),
            ] {
                let strip = StripParams {
                    layout: *layout,
                    sweep,
                    ortho_range: range,
                    normalize,
                    style,
                    group_bufs: sched.group_bufs,
                };
                emit_strip(&mut asm, &r, &strip, tag);
                if matches!(sweep, Sweep::Up | Sweep::Left) {
                    // Phase boundary: publish stores, then barrier.
                    asm.memfence();
                    sync::emit_barrier(
                        &mut asm,
                        &r.barrier(),
                        barrier,
                        total_pes as u64,
                        &format!("bar_{tag}"),
                    );
                }
            }
            asm.addi(r.iter, r.iter, 1)
                .blt(r.iter, r.iter_n, "iter")
                .halt();
            asm.assemble().expect("BP iteration program assembles")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_program_fits_instruction_buffer() {
        let layout = BpLayout::new(0, 64, 32, 16);
        for style in VectorMachineStyle::all() {
            for group_bufs in [2, 3, 4] {
                let p = strip_program(&StripParams {
                    layout,
                    sweep: Sweep::Down,
                    ortho_range: (0, 64),
                    normalize: false,
                    style,
                    group_bufs,
                });
                assert!(
                    p.len() <= 1024,
                    "{} gb{group_bufs}: {} instructions",
                    style.label(),
                    p.len()
                );
            }
        }
    }

    #[test]
    fn iteration_programs_fit_and_differ_per_pe() {
        let layout = BpLayout::new(0, 32, 32, 16);
        let progs =
            bp_iteration_programs(&layout, &crate::schedule::BpSchedule::default(), 2, true);
        assert_eq!(progs.len(), 4);
        for p in &progs {
            assert!(p.len() <= 1024, "{} instructions", p.len());
        }
        assert_ne!(progs[0], progs[1], "PEs get different strips");
    }

    #[test]
    fn layout_is_packed_and_aligned() {
        let l = BpLayout::new(1 << 20, 64, 32, 16);
        assert_eq!(l.plane_bytes(), 64 * 32 * 16 * 2);
        assert_eq!(l.row_stride(), 64 * 16 * 2 + 256);
        assert_eq!(l.plane_stride(), 32 * l.row_stride() + 256);
        assert_eq!(l.smoothness_base(), (1 << 20) + 5 * l.plane_stride());
        assert_eq!(l.sync_base() % 32, 0);
        assert!(l.total_bytes() > 5 * l.plane_bytes());
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn misaligned_strip_width_panics() {
        let layout = BpLayout::new(0, 64, 32, 16);
        let _ = strip_program(&StripParams {
            layout,
            sweep: Sweep::Down,
            ortho_range: (0, 6),
            normalize: false,
            style: VectorMachineStyle::SpReduce,
            group_bufs: 2,
        });
    }

    #[test]
    fn narrow_four_pixel_strip_is_legal() {
        let layout = BpLayout::new(0, 64, 32, 16);
        let p = strip_program(&StripParams {
            layout,
            sweep: Sweep::Down,
            ortho_range: (0, 4),
            normalize: true,
            style: VectorMachineStyle::SpReduce,
            group_bufs: 2,
        });
        assert!(p.len() <= 1024);
    }
}
