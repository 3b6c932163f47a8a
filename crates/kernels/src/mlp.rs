//! Multi-layer perceptrons / fully-connected layers (§II-C, §IV-C).
//!
//! A fully-connected layer is a tiled GEMV: the generated code streams
//! `MR × KC` weight chunks through the scratchpad, multiplies each
//! against the resident input segment with `m.v.mul.add` (the f₆
//! operation), and accumulates partials with `v.v.add`, starting the
//! accumulator at the bias so Equation (4)'s bias add costs nothing
//! extra. The golden reference reproduces the chunked accumulation
//! order exactly, so saturation behaviour matches bit-for-bit.

use vip_isa::alu::{sat_add16, sat_dot16};
use vip_isa::{Asm, ElemType, HorizontalOp, Program, Reg, VerticalOp};
use vip_mem::Hmc;

use crate::cnn::FcLayer;
use crate::schedule::FcSchedule;
use crate::sync::{bytes_to_i16s, i16s_to_bytes};

const TY: ElemType = ElemType::I16;

/// Rows per `m.v` (the matrix-rows configuration) in the default
/// schedule.
pub const MR: usize = 4;
/// Input columns per chunk in the default schedule.
pub const KC: usize = 256;

/// Golden fully-connected forward pass with the generated code's
/// chunked accumulation order: `acc = bias; for each KC chunk: acc +=
/// (chunk partial computed from zero)`, then optional ReLU.
///
/// `weights` are row-major `[outputs][inputs]`.
///
/// # Panics
///
/// Panics on length mismatches or if `inputs` is not a multiple of
/// [`KC`].
#[must_use]
pub fn fc_forward(
    layer: &FcLayer,
    input: &[i16],
    weights: &[i16],
    bias: &[i16],
    relu: bool,
) -> Vec<i16> {
    fc_forward_kc(layer, input, weights, bias, relu, KC)
}

/// [`fc_forward`] with an explicit column-chunk width — the golden
/// reference for a scheduled tile, since the saturating partial-sum
/// boundaries move with `kc`.
///
/// # Panics
///
/// Panics on length mismatches or if `inputs % kc != 0`.
#[must_use]
pub fn fc_forward_kc(
    layer: &FcLayer,
    input: &[i16],
    weights: &[i16],
    bias: &[i16],
    relu: bool,
    kc: usize,
) -> Vec<i16> {
    assert_eq!(input.len(), layer.inputs);
    assert_eq!(bias.len(), layer.outputs);
    fc_forward_batch(layer, input, weights, bias, relu, 1, kc)
}

/// Batched golden forward pass: `inputs` holds `batch` concatenated
/// input vectors; the result concatenates `batch` output vectors. The
/// accumulation order matches [`fc_batch_tile_programs`]: per row chunk
/// and column chunk, the weight chunk is applied to every batch element
/// before moving on (weights stream once — the §II-C batching
/// economics), using `kc`-column chunks.
///
/// # Panics
///
/// Panics on length mismatches or if `inputs_len % kc != 0`.
#[must_use]
pub fn fc_forward_batch(
    layer: &FcLayer,
    inputs: &[i16],
    weights: &[i16],
    bias: &[i16],
    relu: bool,
    batch: usize,
    kc: usize,
) -> Vec<i16> {
    assert_eq!(inputs.len(), layer.inputs * batch);
    assert_eq!(weights.len(), layer.inputs * layer.outputs);
    assert_eq!(layer.inputs % kc, 0);
    let mut out = vec![0i16; layer.outputs * batch];
    for m in 0..layer.outputs {
        let row = &weights[m * layer.inputs..][..layer.inputs];
        for b in 0..batch {
            let x = &inputs[b * layer.inputs..][..layer.inputs];
            let acc = row
                .chunks_exact(kc)
                .zip(x.chunks_exact(kc))
                .fold(bias[m], |acc, (w, x)| sat_add16(acc, sat_dot16(0, w, x)));
            out[b * layer.outputs + m] = if relu { acc.max(0) } else { acc };
        }
    }
    out
}

/// Packs row-major weights into the `[row_chunk][col_chunk][mr][kc]`
/// stream the generated code loads contiguously, with the default
/// schedule's chunk shape.
///
/// # Panics
///
/// Panics unless `outputs % MR == 0` and `inputs % KC == 0`.
#[must_use]
pub fn pack_weights(layer: &FcLayer, weights: &[i16]) -> Vec<i16> {
    pack_weights_with(layer, weights, MR, KC)
}

/// [`pack_weights`] with an explicit column-chunk width (the batched
/// tile uses a narrower `kc` so `batch` input segments fit beside the
/// weight chunk).
///
/// # Panics
///
/// Panics unless `outputs % MR == 0` and `inputs % kc == 0`.
#[must_use]
pub fn pack_weights_kc(layer: &FcLayer, weights: &[i16], kc: usize) -> Vec<i16> {
    pack_weights_with(layer, weights, MR, kc)
}

/// [`pack_weights`] with an explicit chunk shape — the packing for a
/// scheduled tile must use the schedule's `(mr, kc)`.
///
/// # Panics
///
/// Panics unless `outputs % mr == 0` and `inputs % kc == 0`.
#[must_use]
pub fn pack_weights_with(layer: &FcLayer, weights: &[i16], mr: usize, kc: usize) -> Vec<i16> {
    assert_eq!(weights.len(), layer.inputs * layer.outputs);
    assert_eq!(layer.outputs % mr, 0);
    assert_eq!(layer.inputs % kc, 0);
    let mut out = Vec::with_capacity(weights.len());
    for rc in 0..layer.outputs / mr {
        for cc in 0..layer.inputs / kc {
            for m in 0..mr {
                let row = rc * mr + m;
                let col0 = cc * kc;
                out.extend_from_slice(&weights[row * layer.inputs + col0..][..kc]);
            }
        }
    }
    out
}

/// DRAM layout of one fully-connected tile.
#[derive(Debug, Clone, Copy)]
pub struct FcLayout {
    /// Layer geometry.
    pub layer: FcLayer,
    /// Input vector, `[inputs]`.
    pub input_base: u64,
    /// Packed weights (see [`pack_weights`]).
    pub weights_base: u64,
    /// Bias vector, `[outputs]`.
    pub bias_base: u64,
    /// Output vector, `[outputs]`.
    pub output_base: u64,
    /// Apply ReLU (all VGG fully-connected layers except fc8).
    pub relu: bool,
}

impl FcLayout {
    /// The memory map of the synthetic timing tile: one layer staged
    /// alone in a vault, ReLU applied. [`crate::tile::TileClass`]
    /// stages this, and a fleet-checkpoint restore rebuilds it to read
    /// a finished tile back.
    #[must_use]
    pub fn timing_tile(layer: FcLayer) -> Self {
        FcLayout {
            layer,
            input_base: 0,
            weights_base: 0x10_0100,
            bias_base: 0x80_0200,
            output_base: 0x90_0300,
            relu: true,
        }
    }

    /// Stages inputs, packed weights, and biases (host side), packed
    /// for the default schedule.
    pub fn load_into(&self, hmc: &mut Hmc, input: &[i16], weights: &[i16], bias: &[i16]) {
        self.load_into_scheduled(hmc, &FcSchedule::default(), input, weights, bias);
    }

    /// Stages the tile with the weight packing `sched`'s generated code
    /// expects — staging and [`fc_tile_programs`] must use the same
    /// schedule.
    pub fn load_into_scheduled(
        &self,
        hmc: &mut Hmc,
        sched: &FcSchedule,
        input: &[i16],
        weights: &[i16],
        bias: &[i16],
    ) {
        hmc.host_write(self.input_base, &i16s_to_bytes(input));
        hmc.host_write(
            self.weights_base,
            &i16s_to_bytes(&pack_weights_with(&self.layer, weights, sched.mr, sched.kc)),
        );
        hmc.host_write(self.bias_base, &i16s_to_bytes(bias));
    }

    /// Reads the output vector (host side).
    #[must_use]
    pub fn read_output(&self, hmc: &Hmc) -> Vec<i16> {
        bytes_to_i16s(&hmc.host_read(self.output_base, self.layer.outputs * 2))
    }
}

/// Instructions in each program [`fc_tile_programs`] emits: a block's
/// row chunks are unrolled, 8 instructions each, around 35 of prologue,
/// loop control and store-out. [`FcSchedule::validate`] holds this to
/// the instruction buffer before any code is generated.
pub(crate) fn fc_program_len(rc_block: usize) -> usize {
    35 + 8 * rc_block
}

/// Generates per-PE programs for one fully-connected tile under an
/// explicit schedule, splitting output-row chunks across the
/// schedule's PEs. The staged weights must be packed with the same
/// schedule ([`FcLayout::load_into_scheduled`]).
///
/// The schedule's `rc_block` keeps that many row-chunk accumulators
/// resident per column sweep, so each input segment is streamed from
/// DRAM once per *block* instead of once per row chunk — the dominant
/// non-weight traffic term of the tile.
///
/// # Panics
///
/// Panics if `sched.validate` rejects the layer shape.
#[must_use]
pub fn fc_tile_programs(layout: &FcLayout, sched: &FcSchedule) -> Vec<Program> {
    let l = layout.layer;
    sched
        .validate(&l)
        .expect("fc schedule is valid for the layer");
    let (kc, mr, rb, pes) = (sched.kc, sched.mr, sched.rc_block, sched.pes);
    let row_chunks = l.outputs / mr;
    let chunks_per_pe = row_chunks / pes;
    let blocks_per_pe = chunks_per_pe / rb;
    let col_chunks = l.inputs / kc;
    // Scratchpad: weight chunk | input chunk | rc_block accumulators |
    // partial.
    let sp_w = 0usize;
    let sp_x = sp_w + mr * kc * 2;
    let sp_acc = sp_x + kc * 2;
    let sp_p = sp_acc + rb * mr * 2;
    let w_chunk_bytes = (mr * kc * 2) as i32;
    // Distance in the packed stream between the same column chunk of
    // two consecutive row chunks.
    let rc_stride = col_chunks * mr * kc * 2;

    (0..pes)
        .map(|pe| {
            let mut next = 0u8;
            let mut reg = || {
                let r = Reg::new(next);
                next += 1;
                r
            };
            let (r_kc, r_mr, r_bm, r_w, r_x, r_p, r_zero) =
                (reg(), reg(), reg(), reg(), reg(), reg(), reg());
            let (r_pw, r_px, r_pb, r_po, r_blk, r_blkn, r_cc, r_ccn, r_t, r_t2) = (
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

            let first_chunk = pe * chunks_per_pe;
            let w_start = layout.weights_base + (first_chunk * rc_stride) as u64;
            let b_start = layout.bias_base + (first_chunk * mr * 2) as u64;
            let o_start = layout.output_base + (first_chunk * mr * 2) as u64;

            let mut asm = Asm::new();
            asm.mov_imm(r_kc, kc as i64)
                .mov_imm(r_mr, mr as i64)
                .mov_imm(r_bm, (rb * mr) as i64)
                .mov_imm(r_w, sp_w as i64)
                .mov_imm(r_x, sp_x as i64)
                .mov_imm(r_p, sp_p as i64)
                .mov_imm(r_zero, 0)
                .mov_imm(r_pw, w_start as i64)
                .mov_imm(r_pb, b_start as i64)
                .mov_imm(r_po, o_start as i64)
                .set_mr(r_mr)
                .mov_imm(r_blk, 0)
                .mov_imm(r_blkn, blocks_per_pe as i64)
                .label("blk");
            // The block's accumulators start at the bias chunks, which
            // are contiguous across the block's row chunks.
            asm.set_vl(r_bm)
                .mov_imm(r_t, sp_acc as i64)
                .ld_sram(TY, r_t, r_pb, r_bm)
                .addi(r_pb, r_pb, (rb * mr * 2) as i32)
                .mov_imm(r_px, layout.input_base as i64)
                .mov_imm(r_cc, 0)
                .mov_imm(r_ccn, col_chunks as i64)
                .label("cc");
            // One input segment serves every row chunk in the block.
            asm.ld_sram(TY, r_x, r_px, r_kc)
                .addi(r_px, r_px, (kc * 2) as i32);
            for j in 0..rb {
                let w_off = i32::try_from(j * rc_stride).expect("packed row-chunk offset fits");
                asm.mov_imm(r_t, (mr * kc) as i64)
                    .addi(r_t2, r_pw, w_off)
                    .ld_sram(TY, r_w, r_t2, r_t)
                    .set_vl(r_kc)
                    .mat_vec(VerticalOp::Mul, HorizontalOp::Add, TY, r_p, r_w, r_x)
                    .set_vl(r_mr)
                    .mov_imm(r_t, (sp_acc + j * mr * 2) as i64)
                    .vec_vec(VerticalOp::Add, TY, r_t, r_t, r_p);
            }
            asm.addi(r_pw, r_pw, w_chunk_bytes)
                .addi(r_cc, r_cc, 1)
                .blt(r_cc, r_ccn, "cc");
            // Skip the block's remaining row chunks in the weight
            // stream (the column loop walked only the first).
            let w_skip = i32::try_from((rb - 1) * rc_stride).expect("block weight skip fits");
            asm.addi(r_pw, r_pw, w_skip);
            // Finish the whole block contiguously: ReLU + store.
            asm.set_vl(r_bm).mov_imm(r_t, sp_acc as i64);
            if layout.relu {
                asm.vec_scalar(VerticalOp::Max, TY, r_t, r_t, r_zero);
            }
            asm.st_sram(TY, r_t, r_po, r_bm)
                .addi(r_po, r_po, (rb * mr * 2) as i32)
                .addi(r_blk, r_blk, 1)
                .blt(r_blk, r_blkn, "blk")
                .memfence()
                .halt();
            let program = asm.assemble().expect("fc program assembles");
            debug_assert!(program.len() <= fc_program_len(rb), "stale length model");
            program
        })
        .collect()
}

/// DRAM layout of a *batched* fully-connected tile: `batch` input
/// vectors share each streamed weight chunk (§II-C's batching
/// economics, Figure 3c's AI shift).
#[derive(Debug, Clone, Copy)]
pub struct FcBatchLayout {
    /// Layer geometry.
    pub layer: FcLayer,
    /// Images per batch (16 in the paper's batched experiments).
    pub batch: usize,
    /// Column-chunk width; narrower than [`KC`] so the batch's input
    /// segments fit beside the weight chunk (64 works for batch 16).
    pub kc: usize,
    /// Input matrix, `[batch][inputs]`.
    pub input_base: u64,
    /// Weights packed by [`pack_weights_kc`] with this layout's `kc`.
    pub weights_base: u64,
    /// Bias vector, `[outputs]`.
    pub bias_base: u64,
    /// Output matrix, `[batch][outputs]`.
    pub output_base: u64,
    /// Apply ReLU.
    pub relu: bool,
}

impl FcBatchLayout {
    /// [`FcLayout::timing_tile`]'s memory map for a batch of `batch`
    /// inputs at column-chunk width `kc`.
    #[must_use]
    pub fn timing_tile(layer: FcLayer, batch: usize, kc: usize) -> Self {
        let single = FcLayout::timing_tile(layer);
        FcBatchLayout {
            layer,
            batch,
            kc,
            input_base: single.input_base,
            weights_base: single.weights_base,
            bias_base: single.bias_base,
            output_base: single.output_base,
            relu: single.relu,
        }
    }

    /// Stages inputs (concatenated batch), packed weights, and biases.
    pub fn load_into(&self, hmc: &mut Hmc, inputs: &[i16], weights: &[i16], bias: &[i16]) {
        assert_eq!(inputs.len(), self.layer.inputs * self.batch);
        hmc.host_write(self.input_base, &i16s_to_bytes(inputs));
        hmc.host_write(
            self.weights_base,
            &i16s_to_bytes(&pack_weights_kc(&self.layer, weights, self.kc)),
        );
        hmc.host_write(self.bias_base, &i16s_to_bytes(bias));
    }

    /// Reads the `[batch][outputs]` result (host side).
    #[must_use]
    pub fn read_output(&self, hmc: &Hmc) -> Vec<i16> {
        bytes_to_i16s(&hmc.host_read(self.output_base, self.layer.outputs * self.batch * 2))
    }
}

/// Generates per-PE programs for a batched fully-connected tile. Each
/// weight chunk is loaded once and applied to every batch element —
/// the data reuse that moves the fc layers toward the compute roof at
/// batch 16 (Figure 3c).
///
/// # Panics
///
/// Panics unless the row chunks divide across PEs, `inputs % kc == 0`,
/// and the scratchpad fits `batch` input segments plus a weight chunk.
#[must_use]
pub fn fc_batch_tile_programs(layout: &FcBatchLayout, pes: usize) -> Vec<Program> {
    let l = layout.layer;
    let (batch, kc) = (layout.batch, layout.kc);
    assert_eq!(l.inputs % kc, 0);
    assert_eq!(l.outputs % MR, 0);
    let row_chunks = l.outputs / MR;
    assert_eq!(row_chunks % pes, 0, "row chunks must divide across PEs");
    let chunks_per_pe = row_chunks / pes;
    let col_chunks = l.inputs / kc;

    // Scratchpad: weight chunk | batch x-segments | batch accumulators |
    // partial | bias chunk.
    let sp_w = 0usize;
    let sp_x = sp_w + MR * kc * 2;
    let sp_acc = sp_x + batch * kc * 2;
    let sp_p = sp_acc + batch * MR * 2;
    let sp_bias = sp_p + MR * 2;
    assert!(
        sp_bias + MR * 2 <= 4096,
        "batched fc tile overflows the scratchpad"
    );

    (0..pes)
        .map(|pe| {
            let mut next = 0u8;
            let mut reg = || {
                let r = Reg::new(next);
                next += 1;
                r
            };
            let (r_kc, r_mr, r_w, r_p, r_bias, r_zero, r_t, r_t2) =
                (reg(), reg(), reg(), reg(), reg(), reg(), reg(), reg());
            let (r_pw, r_pb, r_ccoff, r_rcoff, r_rc, r_rcn, r_cc, r_ccn) =
                (reg(), reg(), reg(), reg(), reg(), reg(), reg(), reg());

            let first_chunk = pe * chunks_per_pe;
            let w_start = layout.weights_base + (first_chunk * col_chunks * MR * kc * 2) as u64;
            let b_start = layout.bias_base + (first_chunk * MR * 2) as u64;

            let mut asm = Asm::new();
            asm.mov_imm(r_kc, kc as i64)
                .mov_imm(r_mr, MR as i64)
                .mov_imm(r_w, sp_w as i64)
                .mov_imm(r_p, sp_p as i64)
                .mov_imm(r_bias, sp_bias as i64)
                .mov_imm(r_zero, 0)
                .mov_imm(r_pw, w_start as i64)
                .mov_imm(r_pb, b_start as i64)
                .mov_imm(r_rcoff, (first_chunk * MR * 2) as i64)
                .set_mr(r_mr)
                .mov_imm(r_rc, 0)
                .mov_imm(r_rcn, chunks_per_pe as i64)
                .label("rc");
            // Bias chunk -> every batch accumulator.
            asm.set_vl(r_mr)
                .ld_sram(TY, r_bias, r_pb, r_mr)
                .addi(r_pb, r_pb, (MR * 2) as i32);
            for b in 0..batch {
                asm.mov_imm(r_t, (sp_acc + b * MR * 2) as i64).vec_scalar(
                    VerticalOp::Add,
                    TY,
                    r_t,
                    r_bias,
                    r_zero,
                );
            }
            asm.mov_imm(r_ccoff, 0)
                .mov_imm(r_cc, 0)
                .mov_imm(r_ccn, col_chunks as i64)
                .label("cc");
            // One weight chunk, applied to all batch elements.
            asm.mov_imm(r_t, (MR * kc) as i64)
                .ld_sram(TY, r_w, r_pw, r_t)
                .addi(r_pw, r_pw, (MR * kc * 2) as i32);
            for b in 0..batch {
                // Load x_b's kc-segment: input_base + b*inputs*2 + ccoff.
                asm.mov_imm(r_t, (layout.input_base + (b * l.inputs * 2) as u64) as i64)
                    .add(r_t, r_t, r_ccoff)
                    .mov_imm(r_t2, (sp_x + b * kc * 2) as i64)
                    .ld_sram(TY, r_t2, r_t, r_kc);
            }
            for b in 0..batch {
                asm.mov_imm(r_t2, (sp_x + b * kc * 2) as i64)
                    .set_vl(r_kc)
                    .mat_vec(VerticalOp::Mul, HorizontalOp::Add, TY, r_p, r_w, r_t2)
                    .set_vl(r_mr)
                    .mov_imm(r_t, (sp_acc + b * MR * 2) as i64)
                    .vec_vec(VerticalOp::Add, TY, r_t, r_t, r_p);
            }
            asm.addi(r_ccoff, r_ccoff, (kc * 2) as i32)
                .addi(r_cc, r_cc, 1)
                .blt(r_cc, r_ccn, "cc");
            // Finish the row chunk: ReLU + store per batch element.
            for b in 0..batch {
                asm.mov_imm(r_t, (sp_acc + b * MR * 2) as i64);
                if layout.relu {
                    asm.vec_scalar(VerticalOp::Max, TY, r_t, r_t, r_zero);
                }
                asm.mov_imm(
                    r_t2,
                    (layout.output_base + (b * l.outputs * 2) as u64) as i64,
                )
                .add(r_t2, r_t2, r_rcoff)
                .st_sram(TY, r_t, r_t2, r_mr);
            }
            asm.addi(r_rcoff, r_rcoff, (MR * 2) as i32)
                .addi(r_rc, r_rc, 1)
                .blt(r_rc, r_rcn, "rc")
                .memfence()
                .halt();
            asm.assemble().expect("batched fc program assembles")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_weights_layout() {
        let layer = FcLayer {
            name: "t",
            inputs: KC * 2,
            outputs: MR * 2,
        };
        let weights: Vec<i16> = (0..layer.inputs * layer.outputs)
            .map(|i| i as i16)
            .collect();
        let packed = pack_weights(&layer, &weights);
        assert_eq!(packed.len(), weights.len());
        // First packed row is row 0's first KC columns.
        assert_eq!(&packed[..KC], &weights[..KC]);
        // Second packed row is row 1's first KC columns.
        assert_eq!(
            &packed[KC..2 * KC],
            &weights[layer.inputs..layer.inputs + KC]
        );
    }

    #[test]
    fn golden_matches_naive_when_unsaturated() {
        let layer = FcLayer {
            name: "t",
            inputs: KC,
            outputs: 4,
        };
        let input: Vec<i16> = (0..KC).map(|i| (i % 5) as i16 - 2).collect();
        let weights: Vec<i16> = (0..KC * 4).map(|i| (i % 7) as i16 - 3).collect();
        let bias = [1i16, -1, 0, 5];
        let out = fc_forward(&layer, &input, &weights, &bias, false);
        for m in 0..4 {
            let naive: i32 = (0..KC)
                .map(|j| i32::from(weights[m * KC + j]) * i32::from(input[j]))
                .sum::<i32>()
                + i32::from(bias[m]);
            assert_eq!(i32::from(out[m]), naive, "row {m}");
        }
    }

    #[test]
    fn relu_clamps() {
        let layer = FcLayer {
            name: "t",
            inputs: KC,
            outputs: 4,
        };
        let input = vec![0i16; KC];
        let weights = vec![0i16; KC * 4];
        let out = fc_forward(&layer, &input, &weights, &[-3, 3, -1, 0], true);
        assert_eq!(out, vec![0, 3, 0, 0]);
    }
}
