//! Golden reference CNN layers with VIP's saturating fixed-point
//! semantics and the exact accumulation order of the generated code.
//!
//! Activations live in *padded* arrays — `(H+2p) × (W+2p) × C` with
//! zeroed borders, channel index fastest — so that the generated VIP
//! code needs no boundary special-casing (the host zero-pads when
//! staging; DESIGN.md documents this choice). Convolution accumulates
//! per kernel-column block (`kx`), matching the `m.v.mul.add`-per-column
//! decomposition of Equations (5a)–(5d), so saturation behaviour is
//! bit-identical to the simulated programs.

use vip_isa::alu::{sat_add16, sat_dot16};

use super::{ConvLayer, PoolLayer};

/// Length of a padded activation array.
#[must_use]
pub fn padded_len(width: usize, height: usize, channels: usize, pad: usize) -> usize {
    (width + 2 * pad) * (height + 2 * pad) * channels
}

/// Index into a padded activation array (padded coordinates).
#[must_use]
pub fn padded_at(width: usize, channels: usize, pad: usize, xp: usize, yp: usize) -> usize {
    (yp * (width + 2 * pad) + xp) * channels
}

/// Zero-pads an unpadded `H × W × C` activation array.
#[must_use]
pub fn pad_input(
    width: usize,
    height: usize,
    channels: usize,
    pad: usize,
    data: &[i16],
) -> Vec<i16> {
    assert_eq!(data.len(), width * height * channels);
    let mut out = vec![0i16; padded_len(width, height, channels, pad)];
    for y in 0..height {
        for x in 0..width {
            let src = (y * width + x) * channels;
            let dst = padded_at(width, channels, pad, x + pad, y + pad);
            out[dst..dst + channels].copy_from_slice(&data[src..src + channels]);
        }
    }
    out
}

/// Extracts the interior of a padded activation array.
#[must_use]
pub fn unpad_output(
    width: usize,
    height: usize,
    channels: usize,
    pad: usize,
    data: &[i16],
) -> Vec<i16> {
    assert_eq!(data.len(), padded_len(width, height, channels, pad));
    let mut out = vec![0i16; width * height * channels];
    for y in 0..height {
        for x in 0..width {
            let src = padded_at(width, channels, pad, x + pad, y + pad);
            let dst = (y * width + x) * channels;
            out[dst..dst + channels].copy_from_slice(&data[src..src + channels]);
        }
    }
    out
}

/// Forward convolution (+ optional bias and ReLU).
///
/// `input` is padded `(H+2p) × (W+2p) × C_in`; `weights` are
/// `[f][ky][kx][c]`; the result is padded `(H+2p) × (W+2p) × C_out` with
/// zero borders. Accumulation: per `kx` block over `(ky, c)` from zero,
/// then block partials summed in `kx` order, then bias, then ReLU — the
/// generated code's exact order.
///
/// # Panics
///
/// Panics on mismatched array lengths.
#[must_use]
pub fn conv_forward(
    layer: &ConvLayer,
    input: &[i16],
    weights: &[i16],
    bias: &[i16],
    relu: bool,
) -> Vec<i16> {
    let (w, h, ci, co, k, p) = (
        layer.width,
        layer.height,
        layer.in_channels,
        layer.out_channels,
        layer.kernel,
        layer.pad,
    );
    assert_eq!(input.len(), padded_len(w, h, ci, p), "input length");
    assert_eq!(weights.len(), co * k * k * ci, "weights length");
    assert_eq!(bias.len(), co, "bias length");

    let mut out = vec![0i16; padded_len(w, h, co, p)];
    for y in 0..h {
        for x in 0..w {
            let at = padded_at(w, co, p, x + p, y + p);
            for (f, o) in out[at..at + co].iter_mut().enumerate() {
                let mut v = 0;
                for kx in 0..k {
                    let mut partial = 0;
                    for ky in 0..k {
                        let i = padded_at(w, ci, p, x + kx, y + ky);
                        let wt = ((f * k + ky) * k + kx) * ci;
                        partial = sat_dot16(partial, &input[i..i + ci], &weights[wt..wt + ci]);
                    }
                    v = sat_add16(v, partial);
                }
                v = sat_add16(v, bias[f]);
                *o = if relu { v.max(0) } else { v };
            }
        }
    }
    out
}

/// A channel-shard partial convolution (no bias, no ReLU) — what each
/// vault computes when a layer's filters are sharded across vaults
/// (§IV-B). `layer.in_channels` must be the shard's channel count.
#[must_use]
pub fn conv_partial(layer: &ConvLayer, input_shard: &[i16], weights_shard: &[i16]) -> Vec<i16> {
    let zeros = vec![0i16; layer.out_channels];
    conv_forward(layer, input_shard, weights_shard, &zeros, false)
}

/// The shard-accumulation phase: sums partials in shard order, adds
/// bias, applies ReLU. All arrays are padded `(H+2p) × (W+2p) × C_out`.
///
/// # Panics
///
/// Panics if no partials are given or lengths mismatch.
#[must_use]
pub fn relu_bias_sum(layer: &ConvLayer, partials: &[&[i16]], bias: &[i16], relu: bool) -> Vec<i16> {
    assert!(!partials.is_empty());
    let (w, h, co, p) = (layer.width, layer.height, layer.out_channels, layer.pad);
    let mut out = vec![0i16; padded_len(w, h, co, p)];
    for y in 0..h {
        for x in 0..w {
            let at = padded_at(w, co, p, x + p, y + p);
            for f in 0..co {
                let mut v = partials[0][at + f];
                for sh in &partials[1..] {
                    v = sat_add16(v, sh[at + f]);
                }
                v = sat_add16(v, bias[f]);
                if relu {
                    v = v.max(0);
                }
                out[at + f] = v;
            }
        }
    }
    out
}

/// 2×2 stride-2 max pooling. Input is padded `(H+2) × (W+2) × C` (pad
/// 1); output is padded `(H/2+2) × (W/2+2) × C` ready to feed the next
/// convolution.
#[must_use]
pub fn max_pool(layer: &PoolLayer, input: &[i16]) -> Vec<i16> {
    let (w, h, c) = (layer.width, layer.height, layer.channels);
    assert_eq!(input.len(), padded_len(w, h, c, 1));
    let (ow, oh) = (layer.out_width(), layer.out_height());
    let mut out = vec![0i16; padded_len(ow, oh, c, 1)];
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..c {
                let v = [(0, 0), (1, 0), (0, 1), (1, 1)]
                    .into_iter()
                    .map(|(dx, dy)| {
                        input[padded_at(w, c, 1, 2 * ox + dx + 1, 2 * oy + dy + 1) + ch]
                    })
                    .max()
                    .expect("four candidates");
                out[padded_at(ow, c, 1, ox + 1, oy + 1) + ch] = v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_layer() -> ConvLayer {
        ConvLayer {
            name: "t",
            in_channels: 2,
            out_channels: 2,
            width: 4,
            height: 4,
            kernel: 3,
            pad: 1,
        }
    }

    #[test]
    fn pad_unpad_roundtrip() {
        let data: Vec<i16> = (0..4 * 4 * 2).map(|i| i as i16).collect();
        let padded = pad_input(4, 4, 2, 1, &data);
        assert_eq!(padded.len(), 6 * 6 * 2);
        assert_eq!(padded[0], 0, "border is zero");
        assert_eq!(unpad_output(4, 4, 2, 1, &padded), data);
    }

    #[test]
    fn identity_kernel_convolution() {
        // A kernel that is 1 at (ky=1, kx=1, c=f) copies the input.
        let layer = small_layer();
        let data: Vec<i16> = (0..32).map(|i| (i % 11) as i16 - 5).collect();
        let input = pad_input(4, 4, 2, 1, &data);
        let mut weights = vec![0i16; 2 * 3 * 3 * 2];
        for f in 0..2 {
            weights[((f * 3 + 1) * 3 + 1) * 2 + f] = 1;
        }
        let out = conv_forward(&layer, &input, &weights, &[0, 0], false);
        assert_eq!(unpad_output(4, 4, 2, 1, &out), data);
    }

    #[test]
    fn bias_and_relu() {
        let layer = small_layer();
        let input = vec![0i16; padded_len(4, 4, 2, 1)];
        let weights = vec![0i16; 36];
        let out = conv_forward(&layer, &input, &weights, &[5, -5], true);
        let inner = unpad_output(4, 4, 2, 1, &out);
        assert!(inner.iter().step_by(2).all(|&v| v == 5));
        assert!(
            inner.iter().skip(1).step_by(2).all(|&v| v == 0),
            "ReLU clamps -5"
        );
    }

    #[test]
    fn sharded_equals_monolithic_when_no_saturation() {
        // With small values, shard partials + accumulate == full conv.
        let mut layer = small_layer();
        layer.in_channels = 4;
        let data: Vec<i16> = (0..4 * 4 * 4).map(|i| ((i * 7) % 9) as i16 - 4).collect();
        let input = pad_input(4, 4, 4, 1, &data);
        let weights: Vec<i16> = (0..2 * 9 * 4).map(|i| ((i * 5) % 7) as i16 - 3).collect();
        let bias = [3i16, -2];
        let full = conv_forward(&layer, &input, &weights, &bias, true);

        // Split channels 0..2 and 2..4.
        let shard_layer = ConvLayer {
            in_channels: 2,
            ..layer
        };
        let split_input = |lo: usize| -> Vec<i16> {
            let mut v = Vec::new();
            for px in 0..6 * 6 {
                v.extend_from_slice(&input[px * 4 + lo..px * 4 + lo + 2]);
            }
            v
        };
        let split_weights = |lo: usize| -> Vec<i16> {
            let mut v = Vec::new();
            for fk in 0..2 * 9 {
                v.extend_from_slice(&weights[fk * 4 + lo..fk * 4 + lo + 2]);
            }
            v
        };
        let p0 = conv_partial(&shard_layer, &split_input(0), &split_weights(0));
        let p1 = conv_partial(&shard_layer, &split_input(2), &split_weights(2));
        let merged = relu_bias_sum(&layer, &[&p0, &p1], &bias, true);
        assert_eq!(merged, full);
    }

    #[test]
    fn pooling_picks_maxima() {
        let layer = PoolLayer {
            name: "p",
            channels: 1,
            width: 4,
            height: 4,
        };
        let data: Vec<i16> = vec![
            1, 9, 2, 3, //
            4, 5, 6, 7, //
            0, 0, 1, 1, //
            8, 0, 1, 2,
        ];
        let input = pad_input(4, 4, 1, 1, &data);
        let out = max_pool(&layer, &input);
        let inner = unpad_output(2, 2, 1, 1, &out);
        assert_eq!(inner, vec![9, 7, 8, 2]);
    }
}
