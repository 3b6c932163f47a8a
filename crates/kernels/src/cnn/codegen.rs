//! VIP code generation for convolution and pooling tiles (§IV-B).
//!
//! The convolution follows the paper's template: load as many filters
//! into the scratchpad as fit, keep a ring of `k+1` input *columns*
//! (1 × k × z activation slices), prefetch the next column while
//! applying the resident filters to the current window, and emit one
//! `m.v.mul.add` per kernel column — Equation (5a) — followed by short
//! `v.v.add`s for Equations (5b)–(5d), bias, and ReLU. Layers whose
//! filters exceed the 4 KiB scratchpad run in *partial* mode: each vault
//! convolves a channel shard and a second accumulation pass sums the
//! shards, adds biases, and applies ReLU.
//!
//! Activations use the padded layout of [`super::golden`]: the host
//! zero-pads when staging, so the generated inner loop has no boundary
//! cases.

use vip_isa::{Asm, ElemType, HorizontalOp, Program, Reg, VerticalOp};
use vip_mem::Hmc;

use super::golden::{padded_at, padded_len};
use super::{ConvLayer, PoolLayer};
use crate::schedule::ConvSchedule;
use crate::sync::{bytes_to_i16s, i16s_to_bytes};

const TY: ElemType = ElemType::I16;

/// Whether a convolution tile produces finished activations or
/// channel-shard partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvMode {
    /// Bias + ReLU inline (layer fits one vault's scratchpads).
    Full,
    /// No bias/ReLU; a separate [`accumulate_program`] pass merges
    /// shards.
    Partial,
}

/// DRAM layout of one convolution tile.
#[derive(Debug, Clone, Copy)]
pub struct ConvLayout {
    /// The layer geometry (for partial mode, `in_channels` is the
    /// shard's channel count).
    pub layer: ConvLayer,
    /// Padded input activations.
    pub input_base: u64,
    /// Packed filters (see [`pack_filters`]).
    pub weights_base: u64,
    /// Biases, `[out_channels]`.
    pub bias_base: u64,
    /// Padded output activations (or partials).
    pub output_base: u64,
    /// Filters resident per scratchpad pass.
    pub filters_per_group: usize,
    /// Full or partial (sharded) operation.
    pub mode: ConvMode,
}

impl ConvLayout {
    /// The memory map of the synthetic timing tile: one full (not
    /// sharded) convolution staged alone in a vault.
    /// [`crate::tile::TileClass`] stages this, and a fleet-checkpoint
    /// restore rebuilds it to read a finished tile back.
    #[must_use]
    pub fn timing_tile(layer: ConvLayer, filters_per_group: usize) -> Self {
        ConvLayout {
            layer,
            input_base: 0,
            weights_base: 0x40_0100,
            bias_base: 0x80_0200,
            output_base: 0xc0_0300,
            filters_per_group,
            mode: ConvMode::Full,
        }
    }

    /// The largest filter-group size the 4 KiB scratchpad supports for
    /// `layer` (power-of-two capped at `out_channels`).
    #[must_use]
    pub fn max_filters_per_group(layer: &ConvLayer) -> usize {
        let (k, ci) = (layer.kernel, layer.in_channels);
        let col_bytes = 4 * k * ci * 2; // 4-column ring
        let mut f = 1;
        loop {
            let next = f * 2;
            let need = next * k * k * ci * 2 + col_bytes + 3 * next * 2 + next * 2;
            if need > 4096 || next > layer.out_channels {
                return f;
            }
            f = next;
        }
    }

    fn sp_map(&self, ring: usize) -> ConvSpMap {
        let (k, ci) = (self.layer.kernel, self.layer.in_channels);
        let f = self.filters_per_group;
        let filt = 0;
        let bias = filt + f * k * k * ci * 2;
        let cols = bias + f * 2;
        let col_bytes = k * ci * 2;
        let p0 = cols + ring * col_bytes;
        let p1 = p0 + f * 2;
        let p2 = p1 + f * 2;
        let end = p2 + f * 2;
        assert!(end <= 4096, "conv scratchpad layout needs {end} bytes");
        ConvSpMap {
            filt,
            bias,
            cols,
            col_bytes,
            p0,
            p1,
            p2,
        }
    }

    /// The hand-picked default schedule for this layout's layer and
    /// filter grouping.
    #[must_use]
    pub fn default_schedule(&self) -> ConvSchedule {
        ConvSchedule::default_for(&self.layer, self.filters_per_group)
    }

    /// Bytes of one packed filter group.
    #[must_use]
    pub fn group_weight_bytes(&self) -> usize {
        self.filters_per_group * self.layer.kernel * self.layer.kernel * self.layer.in_channels * 2
    }

    /// Stages padded input, packed weights, and biases (host side).
    pub fn load_into(&self, hmc: &mut Hmc, padded_input: &[i16], weights: &[i16], bias: &[i16]) {
        let l = &self.layer;
        assert_eq!(
            padded_input.len(),
            padded_len(l.width, l.height, l.in_channels, l.pad)
        );
        assert_eq!(bias.len(), l.out_channels);
        let packed = pack_filters(l, self.filters_per_group, weights);
        hmc.host_write(self.input_base, &i16s_to_bytes(padded_input));
        hmc.host_write(self.weights_base, &i16s_to_bytes(&packed));
        hmc.host_write(self.bias_base, &i16s_to_bytes(bias));
    }

    /// Reads the padded output array back (host side).
    #[must_use]
    pub fn read_output(&self, hmc: &Hmc) -> Vec<i16> {
        let l = &self.layer;
        let n = padded_len(l.width, l.height, l.out_channels, l.pad) * 2;
        bytes_to_i16s(&hmc.host_read(self.output_base, n))
    }
}

#[derive(Debug, Clone, Copy)]
struct ConvSpMap {
    filt: usize,
    bias: usize,
    cols: usize,
    col_bytes: usize,
    p0: usize,
    p1: usize,
    p2: usize,
}

/// Packs natural `[f][ky][kx][c]` filters into the per-group, per-
/// kernel-column layout the generated code streams:
/// `[group][kx][f_in_group][ky][c]` — each `kx` block is an `m.v` matrix
/// whose rows are one filter's `(ky, c)` slice.
///
/// # Panics
///
/// Panics if `filters_per_group` does not divide `out_channels` or the
/// weight count mismatches.
#[must_use]
pub fn pack_filters(layer: &ConvLayer, filters_per_group: usize, weights: &[i16]) -> Vec<i16> {
    let (k, ci, co) = (layer.kernel, layer.in_channels, layer.out_channels);
    assert_eq!(weights.len(), co * k * k * ci);
    assert_eq!(
        co % filters_per_group,
        0,
        "group size must divide filter count"
    );
    let mut out = Vec::with_capacity(weights.len());
    for g in 0..co / filters_per_group {
        for kx in 0..k {
            for fl in 0..filters_per_group {
                let f = g * filters_per_group + fl;
                for ky in 0..k {
                    for c in 0..ci {
                        out.push(weights[((f * k + ky) * k + kx) * ci + c]);
                    }
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct ConvRegs {
    // constants
    kz: Reg,
    f: Reg,
    ci: Reg,
    wlen: Reg,
    zero: Reg,
    // scratchpad bases
    sp_filt: Reg,
    sp_bias: Reg,
    sp_p0: Reg,
    sp_p1: Reg,
    sp_p2: Reg,
    // temps
    t: Reg,
    d: Reg,
    // pointers
    p_w: Reg,
    p_b: Reg,
    p_in: Reg,
    p_in_base: Reg,
    p_out: Reg,
    p_out_base: Reg,
    // counters
    fg: Reg,
    fg_n: Reg,
    y: Reg,
    y_n: Reg,
    x: Reg,
    x_n: Reg,
}

impl ConvRegs {
    fn allocate() -> Self {
        let mut next = 0u8;
        let mut r = || {
            let reg = Reg::new(next);
            next += 1;
            reg
        };
        ConvRegs {
            kz: r(),
            f: r(),
            ci: r(),
            wlen: r(),
            zero: r(),
            sp_filt: r(),
            sp_bias: r(),
            sp_p0: r(),
            sp_p1: r(),
            sp_p2: r(),
            t: r(),
            d: r(),
            p_w: r(),
            p_b: r(),
            p_in: r(),
            p_in_base: r(),
            p_out: r(),
            p_out_base: r(),
            fg: r(),
            fg_n: r(),
            y: r(),
            y_n: r(),
            x: r(),
            x_n: r(),
        }
    }
}

/// Emits the loads for one input column (k row-slices of `ci` channels)
/// into ring slot `slot`, then advances `p_in` one column.
fn emit_column_load(asm: &mut Asm, r: &ConvRegs, sp: &ConvSpMap, layout: &ConvLayout, slot: usize) {
    let l = &layout.layer;
    let in_row_bytes = ((l.width + 2 * l.pad) * l.in_channels * 2) as i32;
    let cb = sp.col_bytes as i32;
    let ci_b = (l.in_channels * 2) as i32;
    for row in 0..l.kernel as i32 {
        asm.addi(
            r.t,
            r.zero,
            (sp.cols as i32) + slot as i32 * cb + row * ci_b,
        )
        .addi(r.d, r.p_in, row * in_row_bytes)
        .ld_sram(TY, r.t, r.d, r.ci);
    }
    asm.addi(r.p_in, r.p_in, ci_b);
}

/// Generates per-PE programs for one convolution tile under an
/// explicit schedule, splitting output rows across the schedule's PEs.
///
/// The schedule's `ring` sets the input-column ring depth (and with it
/// the x-loop unroll and prefetch distance); `interleave_rows` assigns
/// each PE every `pes`-th output row instead of a contiguous band.
///
/// # Panics
///
/// Panics if `sched.validate` rejects the layer shape or
/// `sched.filters_per_group` disagrees with the layout's packed-weight
/// grouping.
#[must_use]
pub fn conv_tile_programs(layout: &ConvLayout, sched: &ConvSchedule) -> Vec<Program> {
    let l = layout.layer;
    sched
        .validate(&l)
        .expect("conv schedule is valid for the layer");
    assert_eq!(
        sched.filters_per_group, layout.filters_per_group,
        "schedule group size must match the staged packing"
    );
    let (ring, pes) = (sched.ring, sched.pes);
    let sp = layout.sp_map(ring);
    let rows_per_pe = l.height / pes;
    let n_groups = l.out_channels / layout.filters_per_group;
    let kz = l.kernel * l.in_channels;
    let in_row_bytes = (l.width + 2 * l.pad) * l.in_channels * 2;
    let out_row_bytes = (l.width + 2 * l.pad) * l.out_channels * 2;
    let out_px_bytes = l.out_channels * 2;
    let fb = layout.filters_per_group * 2;
    let blk = (layout.filters_per_group * kz * 2) as i32; // kx block bytes
                                                          // Rows advance one padded row per trip for a contiguous band,
                                                          // `pes` rows per trip when interleaved.
    let row_step = if sched.interleave_rows { pes } else { 1 };

    (0..pes)
        .map(|pe| {
            let r = ConvRegs::allocate();
            let mut asm = Asm::new();
            let y0 = if sched.interleave_rows {
                pe
            } else {
                pe * rows_per_pe
            };
            // First output pixel of this PE's first row, at padded
            // coordinates (pad, y0 + pad).
            let out_start = layout.output_base
                + (padded_at(l.width, l.out_channels, l.pad, l.pad, y0 + l.pad) * 2) as u64;
            // Input window top-left for output row y0 is padded row y0.
            let in_start = layout.input_base + (y0 * in_row_bytes) as u64;

            asm.mov_imm(r.kz, kz as i64)
                .mov_imm(r.f, layout.filters_per_group as i64)
                .mov_imm(r.ci, l.in_channels as i64)
                .mov_imm(r.wlen, (layout.filters_per_group * l.kernel * kz) as i64)
                .mov_imm(r.zero, 0)
                .mov_imm(r.sp_filt, sp.filt as i64)
                .mov_imm(r.sp_bias, sp.bias as i64)
                .mov_imm(r.sp_p0, sp.p0 as i64)
                .mov_imm(r.sp_p1, sp.p1 as i64)
                .mov_imm(r.sp_p2, sp.p2 as i64)
                .mov_imm(r.p_w, layout.weights_base as i64)
                .mov_imm(r.p_b, layout.bias_base as i64)
                .mov_imm(r.p_in_base, in_start as i64)
                .mov_imm(r.p_out_base, out_start as i64)
                .set_mr(r.f)
                .mov_imm(r.fg, 0)
                .mov_imm(r.fg_n, n_groups as i64)
                .label("fg");

            // Load this group's filters and biases.
            asm.ld_sram(TY, r.sp_filt, r.p_w, r.wlen)
                .mov_imm(r.t, layout.group_weight_bytes() as i64)
                .add(r.p_w, r.p_w, r.t);
            if layout.mode == ConvMode::Full {
                asm.ld_sram(TY, r.sp_bias, r.p_b, r.f)
                    .addi(r.p_b, r.p_b, fb as i32);
            }
            asm.mov(r.p_in, r.p_in_base)
                .mov(r.p_out, r.p_out_base)
                .mov_imm(r.y, 0)
                .mov_imm(r.y_n, rows_per_pe as i64)
                .label("row");

            // Prime the column ring with columns 0..ring-2.
            for slot in 0..ring - 1 {
                emit_column_load(&mut asm, &r, &sp, layout, slot);
            }

            asm.mov_imm(r.x, 0)
                .mov_imm(r.x_n, (l.width / ring) as i64)
                .label("xl");
            for u in 0..ring {
                // Prefetch column x+ring-1 into the ring slot being
                // vacated.
                emit_column_load(&mut asm, &r, &sp, layout, (u + ring - 1) % ring);
                // One m.v.mul.add per kernel column (Equation 5a+5b):
                // matrix = the kx block of the packed filters, vector =
                // the window's kx-th input column.
                asm.set_vl(r.kz);
                let cb = sp.col_bytes as i32;
                for (kx, p) in [r.sp_p0, r.sp_p1, r.sp_p2].into_iter().enumerate() {
                    let slot = ((u + kx) % ring) as i32;
                    asm.addi(r.t, r.zero, sp.cols as i32 + slot * cb)
                        .addi(r.d, r.sp_filt, kx as i32 * blk)
                        .mat_vec(VerticalOp::Mul, HorizontalOp::Add, TY, p, r.d, r.t);
                }
                asm.set_vl(r.f)
                    .vec_vec(VerticalOp::Add, TY, r.sp_p0, r.sp_p0, r.sp_p1)
                    .vec_vec(VerticalOp::Add, TY, r.sp_p0, r.sp_p0, r.sp_p2);
                if layout.mode == ConvMode::Full {
                    asm.vec_vec(VerticalOp::Add, TY, r.sp_p0, r.sp_p0, r.sp_bias)
                        .vec_scalar(VerticalOp::Max, TY, r.sp_p0, r.sp_p0, r.zero);
                }
                asm.st_sram(TY, r.sp_p0, r.p_out, r.f)
                    .addi(r.p_out, r.p_out, out_px_bytes as i32);
            }
            asm.addi(r.x, r.x, 1).blt(r.x, r.x_n, "xl");

            // Row epilogue: rewind column pointer to the next row's
            // start, advance the output past the padding border. The
            // loads ran `ring - 1` prefetch columns past the row; the
            // over-read lands in the next padded row (or zero-backed
            // pages at the tile's end) and is never consumed.
            let consumed = ((l.width + ring - 1) * l.in_channels * 2) as i64;
            let in_adj = (row_step * in_row_bytes) as i64 - consumed;
            let out_adj = (row_step * out_row_bytes) as i64 - (l.width * out_px_bytes) as i64;
            asm.mov_imm(r.t, in_adj)
                .add(r.p_in, r.p_in, r.t)
                .mov_imm(r.t, out_adj)
                .add(r.p_out, r.p_out, r.t)
                .addi(r.y, r.y, 1)
                .blt(r.y, r.y_n, "row");

            // Next filter group writes the next F output channels.
            asm.addi(r.p_out_base, r.p_out_base, fb as i32)
                .addi(r.fg, r.fg, 1)
                .blt(r.fg, r.fg_n, "fg")
                .memfence()
                .halt();
            asm.assemble().expect("conv program assembles")
        })
        .collect()
}

/// DRAM layout of a pooling tile.
#[derive(Debug, Clone, Copy)]
pub struct PoolLayout {
    /// Layer geometry.
    pub layer: PoolLayer,
    /// Padded input, `(H+2) × (W+2) × C`.
    pub input_base: u64,
    /// Padded output, `(H/2+2) × (W/2+2) × C`.
    pub output_base: u64,
}

impl PoolLayout {
    /// Stages the padded input (host side).
    pub fn load_into(&self, hmc: &mut Hmc, padded_input: &[i16]) {
        let l = &self.layer;
        assert_eq!(
            padded_input.len(),
            padded_len(l.width, l.height, l.channels, 1)
        );
        hmc.host_write(self.input_base, &i16s_to_bytes(padded_input));
    }

    /// Reads the padded output (host side).
    #[must_use]
    pub fn read_output(&self, hmc: &Hmc) -> Vec<i16> {
        let l = &self.layer;
        let n = padded_len(l.out_width(), l.out_height(), l.channels, 1) * 2;
        bytes_to_i16s(&hmc.host_read(self.output_base, n))
    }

    /// Output pixels per scratchpad chunk.
    fn chunk(&self) -> usize {
        // Two input buffers of 2G×C plus the output reuses buffer B.
        let g = 1024 / self.layer.channels;
        g.clamp(1, 8).min(self.layer.out_width())
    }
}

/// Generates per-PE programs for a 2×2 max-pool tile, output rows split
/// across `pes`.
///
/// # Panics
///
/// Panics if output rows don't divide across PEs or the output width is
/// not a multiple of the internal chunk size.
#[must_use]
pub fn pool_tile_programs(layout: &PoolLayout, pes: usize) -> Vec<Program> {
    let l = layout.layer;
    let (ow, oh, c) = (l.out_width(), l.out_height(), l.channels);
    assert_eq!(oh % pes, 0, "output rows must divide across PEs");
    let g = layout.chunk();
    assert_eq!(
        ow % g,
        0,
        "output width {ow} must be a multiple of the chunk {g}"
    );
    let rows_per_pe = oh / pes;
    let in_row_bytes = ((l.width + 2) * c * 2) as i64;
    let out_row_bytes = ((ow + 2) * c * 2) as i64;
    let chunk_in_bytes = (2 * g * c * 2) as i64;
    let chunk_out_bytes = (g * c * 2) as i64;
    // Scratchpad: A | B (B doubles as the output buffer).
    let sp_a = 0usize;
    let sp_b = 2 * g * c * 2;
    assert!(2 * sp_b <= 4096, "pool chunk overflows the scratchpad");

    (0..pes)
        .map(|pe| {
            let mut next = 0u8;
            let mut reg = || {
                let r = Reg::new(next);
                next += 1;
                r
            };
            let (r_len, r_c, r_a, r_b, r_t, r_t2, r_pa, r_pb, r_po, r_y, r_yn, r_x, r_xn) = (
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
            );
            let y0 = pe * rows_per_pe;
            // Input rows 2*y0+1, 2*y0+2 (padded coords), interior column 1.
            let in_a =
                layout.input_base + ((2 * y0 + 1) as i64 * in_row_bytes) as u64 + (c * 2) as u64;
            let out_start =
                layout.output_base + ((y0 + 1) as i64 * out_row_bytes) as u64 + (c * 2) as u64;

            let mut asm = Asm::new();
            asm.mov_imm(r_len, (2 * g * c) as i64)
                .mov_imm(r_c, c as i64)
                .mov_imm(r_a, sp_a as i64)
                .mov_imm(r_b, sp_b as i64)
                .mov_imm(r_pa, in_a as i64)
                .mov_imm(r_po, out_start as i64)
                .mov_imm(r_y, 0)
                .mov_imm(r_yn, rows_per_pe as i64)
                .label("row")
                .mov_imm(r_x, 0)
                .mov_imm(r_xn, (ow / g) as i64)
                .label("xl");
            // Load 2G input pixels from each of the two rows.
            asm.mov(r_pb, r_pa);
            asm.mov_imm(r_t, in_row_bytes).add(r_pb, r_pb, r_t);
            asm.ld_sram(TY, r_a, r_pa, r_len)
                .ld_sram(TY, r_b, r_pb, r_len)
                .set_vl(r_len)
                .vec_vec(VerticalOp::Max, TY, r_a, r_a, r_b)
                .set_vl(r_c);
            // Horizontal pairs: out[g] = max(A[2g], A[2g+1]).
            for gi in 0..g {
                let out_at = sp_b + gi * c * 2;
                asm.addi(r_t, r_a, (2 * gi * c * 2) as i32)
                    .addi(r_t2, r_t, (c * 2) as i32)
                    .mov_imm(r_b, out_at as i64)
                    .vec_vec(VerticalOp::Max, TY, r_b, r_t, r_t2);
            }
            asm.mov_imm(r_b, sp_b as i64)
                .mov_imm(r_t, (g * c) as i64)
                .st_sram(TY, r_b, r_po, r_t);
            asm.mov_imm(r_t, chunk_in_bytes)
                .add(r_pa, r_pa, r_t)
                .mov_imm(r_t, chunk_out_bytes)
                .add(r_po, r_po, r_t)
                .addi(r_x, r_x, 1)
                .blt(r_x, r_xn, "xl");
            // Row epilogue: inputs advance two rows, outputs one.
            let in_adj = 2 * in_row_bytes - (ow / g) as i64 * chunk_in_bytes;
            let out_adj = out_row_bytes - (ow / g) as i64 * chunk_out_bytes;
            asm.mov_imm(r_t, in_adj)
                .add(r_pa, r_pa, r_t)
                .mov_imm(r_t, out_adj)
                .add(r_po, r_po, r_t)
                .addi(r_y, r_y, 1)
                .blt(r_y, r_yn, "row")
                .memfence()
                .halt();
            asm.assemble().expect("pool program assembles")
        })
        .collect()
}

/// DRAM layout for the shard-accumulation pass and its program
/// generator: sums `shards` partial arrays, adds a host-replicated bias
/// row, applies ReLU, and writes finished activations.
#[derive(Debug, Clone)]
pub struct AccumulateLayout {
    /// The (full) layer being finished.
    pub layer: ConvLayer,
    /// Base of each shard's padded partial array.
    pub partial_bases: Vec<u64>,
    /// A bias row replicated `chunk` times (host-staged).
    pub bias_row_base: u64,
    /// Final padded output.
    pub output_base: u64,
}

/// Generates per-PE programs for the accumulation pass.
///
/// # Panics
///
/// Panics if rows don't divide across PEs or the chunk does not divide
/// the width.
#[must_use]
pub fn accumulate_program(layout: &AccumulateLayout, pes: usize) -> Vec<Program> {
    let l = layout.layer;
    let co = l.out_channels;
    let g = (640 / co).clamp(1, 8).min(l.width);
    assert_eq!(
        l.width % g,
        0,
        "width {} must be a multiple of chunk {g}",
        l.width
    );
    assert_eq!(l.height % pes, 0);
    let rows_per_pe = l.height / pes;
    let row_bytes = ((l.width + 2 * l.pad) * co * 2) as i64;
    let chunk_bytes = (g * co * 2) as i64;
    let sp_acc = 0usize;
    let sp_tmp = g * co * 2;
    let sp_bias = 2 * g * co * 2;
    assert!(sp_bias + g * co * 2 <= 4096);

    (0..pes)
        .map(|pe| {
            let mut next = 0u8;
            let mut reg = || {
                let r = Reg::new(next);
                next += 1;
                r
            };
            let (r_len, r_acc, r_tmp, r_bias, r_t, r_zero, r_po, r_y, r_yn, r_x, r_xn) = (
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
                reg(),
            );
            let p_shard: Vec<Reg> = layout.partial_bases.iter().map(|_| reg()).collect();
            let y0 = pe * rows_per_pe;
            let interior =
                |base: u64| base + (padded_at(l.width, co, l.pad, l.pad, y0 + l.pad) * 2) as u64;

            let mut asm = Asm::new();
            asm.mov_imm(r_len, (g * co) as i64)
                .mov_imm(r_acc, sp_acc as i64)
                .mov_imm(r_tmp, sp_tmp as i64)
                .mov_imm(r_bias, sp_bias as i64)
                .mov_imm(r_zero, 0)
                .mov_imm(r_po, interior(layout.output_base) as i64);
            for (reg, base) in p_shard.iter().zip(&layout.partial_bases) {
                asm.mov_imm(*reg, interior(*base) as i64);
            }
            // The replicated bias row loads once.
            asm.mov_imm(r_t, layout.bias_row_base as i64)
                .ld_sram(TY, r_bias, r_t, r_len)
                .set_vl(r_len)
                .mov_imm(r_y, 0)
                .mov_imm(r_yn, rows_per_pe as i64)
                .label("row")
                .mov_imm(r_x, 0)
                .mov_imm(r_xn, (l.width / g) as i64)
                .label("xl");
            asm.ld_sram(TY, r_acc, p_shard[0], r_len);
            for shard in &p_shard[1..] {
                asm.ld_sram(TY, r_tmp, *shard, r_len).vec_vec(
                    VerticalOp::Add,
                    TY,
                    r_acc,
                    r_acc,
                    r_tmp,
                );
            }
            asm.vec_vec(VerticalOp::Add, TY, r_acc, r_acc, r_bias)
                .vec_scalar(VerticalOp::Max, TY, r_acc, r_acc, r_zero)
                .st_sram(TY, r_acc, r_po, r_len);
            for reg in p_shard.iter().chain([&r_po]) {
                asm.mov_imm(r_t, chunk_bytes).add(*reg, *reg, r_t);
            }
            asm.addi(r_x, r_x, 1).blt(r_x, r_xn, "xl");
            let adj = row_bytes - (l.width / g) as i64 * chunk_bytes;
            for reg in p_shard.iter().chain([&r_po]) {
                asm.mov_imm(r_t, adj).add(*reg, *reg, r_t);
            }
            asm.addi(r_y, r_y, 1)
                .blt(r_y, r_yn, "row")
                .memfence()
                .halt();
            asm.assemble().expect("accumulate program assembles")
        })
        .collect()
}

/// Replicates a bias vector `chunk` times for the accumulation pass's
/// single bias-row load. `chunk` must match what
/// [`accumulate_program`] derives: `clamp(640 / out_channels, 1, 8)`
/// capped at the width.
#[must_use]
pub fn replicate_bias(layer: &ConvLayer, bias: &[i16]) -> Vec<i16> {
    let g = (640 / layer.out_channels).clamp(1, 8).min(layer.width);
    let mut row = Vec::with_capacity(g * bias.len());
    for _ in 0..g {
        row.extend_from_slice(bias);
    }
    row
}
