//! The golden references against their definitions.
//!
//! `conv_forward` and `fc_forward_batch` fold through `alu::sat_dot16`,
//! which takes a wide (vectorized) sum whenever no prefix of the fold can
//! saturate; BP-M's sweeps run one allocation-free message update, whose
//! min-sum is a vectorizable fold. Each is held here to the plain sequential
//! loops that define it — the generated code's accumulation order, one
//! saturating step at a time — over seeded shapes in three operand
//! regimes: the benchmark's ±5 (every fast path taken), products near
//! the i16 rails, and the full range, where partial sums saturate mid-sum
//! and come back. Run in debug and `--release`: the vector code exists
//! only in the latter.

use vip_isa::alu::{sat_add16, sat_dot16, sat_mul16, sat_sub16};
use vip_kernels::bp::{self, Messages, Mrf, MrfParams, Sweep};
use vip_kernels::cnn::{self, ConvLayer, FcLayer};
use vip_kernels::mlp;
use vip_rng::{for_each_seed, SplitMix64};

#[derive(Debug, Clone, Copy)]
enum Regime {
    /// The benchmark's operands: no sum ever saturates.
    Small,
    /// `|a|, |b|` in 150..=220: single products straddle the rails.
    Rails,
    /// Any `i16`.
    Full,
}

const REGIMES: [Regime; 3] = [Regime::Small, Regime::Rails, Regime::Full];

fn operand(rng: &mut SplitMix64, regime: Regime) -> i16 {
    match regime {
        Regime::Small => rng.i64_in(-5..6) as i16,
        Regime::Rails => {
            let m = rng.i64_in(150..221) as i16;
            if rng.bool() {
                m
            } else {
                -m
            }
        }
        Regime::Full => rng.next_u64() as i16,
    }
}

fn operands(rng: &mut SplitMix64, regime: Regime, n: usize) -> Vec<i16> {
    (0..n).map(|_| operand(rng, regime)).collect()
}

/// The saturating dot product's definition in `i128`, independent of
/// the `alu` helpers.
fn dot_i128(acc: i16, a: &[i16], b: &[i16]) -> i16 {
    let clamp = |v: i128| v.clamp(i128::from(i16::MIN), i128::from(i16::MAX));
    let s = a.iter().zip(b).fold(i128::from(acc), |s, (&x, &y)| {
        clamp(s + clamp(i128::from(x) * i128::from(y)))
    });
    s as i16
}

/// `acc`, `a`, `b` with `b` all ones and `|acc| + Σ|aᵢ|` = `bound`, every
/// term of sign `sign`.
fn at_bound(bound: i32, sign: i16) -> (i16, Vec<i16>, Vec<i16>) {
    let a = vec![sign * 16_380, sign * 16_380];
    let acc = sign * (bound - 2 * 16_380) as i16;
    (acc, a, vec![1; 2])
}

#[test]
fn sat_dot16_at_the_fast_path_bound() {
    for bound in [32_767, 32_768] {
        for sign in [1, -1] {
            let (acc, a, b) = at_bound(bound, sign);
            let want = dot_i128(acc, &a, &b);
            assert_eq!(sat_dot16(acc, &a, &b), want, "bound {bound}, sign {sign}");
        }
    }
    // The rail itself: 32 767 is the last sum the wide path may return,
    // 32 768 must saturate.
    assert_eq!(sat_dot16(7, &[16_380, 16_380], &[1, 1]), i16::MAX);
    assert_eq!(sat_dot16(8, &[16_380, 16_380], &[1, 1]), i16::MAX);
    assert_eq!(sat_dot16(-8, &[-16_380, -16_380], &[1, 1]), i16::MIN);
    // A prefix saturates, then the sum comes back inside the range: the
    // fold is not the clamped wide sum.
    assert_eq!(sat_dot16(32_000, &[1_000, -1_000], &[1, 1]), 31_767);
    assert_eq!(sat_dot16(-32_000, &[-1_000, 1_000], &[1, 1]), -31_768);
    assert_eq!(sat_dot16(5, &[], &[]), 5);
}

#[test]
fn sat_dot16_matches_the_sequential_fold() {
    for_each_seed("sat_dot16_matches_the_sequential_fold", 0xd07, 64, |seed| {
        let mut rng = SplitMix64::new(seed);
        for regime in REGIMES {
            let n = rng.usize_in(0..300);
            let (a, b) = (operands(&mut rng, regime, n), operands(&mut rng, regime, n));
            let acc = operand(&mut rng, regime);
            assert_eq!(
                sat_dot16(acc, &a, &b),
                dot_i128(acc, &a, &b),
                "{regime:?} n {n}"
            );
        }
    });
}

#[test]
fn sat_dot16_beyond_one_wide_step() {
    // Longer than the `i32` sums' step, so their overflow would show:
    // rail products of both signs (|Σpᵢ| alone would pass 2³¹), and small
    // ones that stay on the fast path across steps.
    let n = 3 * (1 << 15) + 5;
    let rails: Vec<i16> = (0..n)
        .map(|i| if i % 2 == 0 { i16::MIN } else { i16::MAX })
        .collect();
    let ones = vec![1; n];
    for acc in [0, -1, i16::MAX] {
        assert_eq!(sat_dot16(acc, &rails, &ones), dot_i128(acc, &rails, &ones));
    }
    let lows = vec![i16::MIN; n];
    assert_eq!(sat_dot16(0, &lows, &ones), i16::MIN);
    let mut rng = SplitMix64::new(0x1006);
    let small = operands(&mut rng, Regime::Small, n);
    let signs: Vec<i16> = (0..n).map(|i| if i % 3 == 0 { -1 } else { 1 }).collect();
    assert_eq!(sat_dot16(3, &small, &signs), dot_i128(3, &small, &signs));
}

// ---------------------------------------------------------------- FC ---

/// The FC golden's definition: per output and batch element, the bias,
/// then each `kc` chunk's partial folded from zero one product at a time.
fn fc_sequential(
    layer: &FcLayer,
    inputs: &[i16],
    weights: &[i16],
    bias: &[i16],
    relu: bool,
    batch: usize,
    kc: usize,
) -> Vec<i16> {
    let mut out = vec![0i16; layer.outputs * batch];
    for m in 0..layer.outputs {
        for b in 0..batch {
            let x = &inputs[b * layer.inputs..][..layer.inputs];
            let mut acc = bias[m];
            for chunk in 0..layer.inputs / kc {
                let mut partial = 0i16;
                for j in 0..kc {
                    let col = chunk * kc + j;
                    partial =
                        sat_add16(partial, sat_mul16(weights[m * layer.inputs + col], x[col]));
                }
                acc = sat_add16(acc, partial);
            }
            out[b * layer.outputs + m] = if relu { acc.max(0) } else { acc };
        }
    }
    out
}

#[test]
fn fc_golden_matches_its_definition() {
    for_each_seed("fc_golden_matches_its_definition", 0xfc, 6, |seed| {
        let mut rng = SplitMix64::new(seed);
        let inputs = 7 * 64 * rng.usize_in(1..3);
        for regime in REGIMES {
            let layer = FcLayer {
                name: "t",
                inputs,
                outputs: rng.usize_in(1..9),
            };
            let weights = operands(&mut rng, regime, inputs * layer.outputs);
            let bias = operands(&mut rng, regime, layer.outputs);
            for batch in [1, 3] {
                let x = operands(&mut rng, regime, inputs * batch);
                for kc in [1, 7, 64, inputs] {
                    for relu in [false, true] {
                        let want = fc_sequential(&layer, &x, &weights, &bias, relu, batch, kc);
                        let got =
                            mlp::fc_forward_batch(&layer, &x, &weights, &bias, relu, batch, kc);
                        assert_eq!(got, want, "{regime:?} batch {batch} kc {kc} relu {relu}");
                        if batch == 1 {
                            let one = mlp::fc_forward_kc(&layer, &x, &weights, &bias, relu, kc);
                            assert_eq!(one, want, "{regime:?} kc {kc} relu {relu}");
                        }
                    }
                }
            }
        }
    });
}

// -------------------------------------------------------------- conv ---

/// The conv golden's definition: per output, each `kx` block's partial
/// folded from zero over `(ky, c)` one product at a time, the partials
/// summed in `kx` order, then bias, then ReLU.
fn conv_sequential(
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
    let mut out = vec![0i16; cnn::padded_len(w, h, co, p)];
    for y in 0..h {
        for x in 0..w {
            for f in 0..co {
                let mut partials = vec![0i16; k];
                for (kx, acc) in partials.iter_mut().enumerate() {
                    for ky in 0..k {
                        for c in 0..ci {
                            let iv = input[cnn::padded_at(w, ci, p, x + kx, y + ky) + c];
                            let wv = weights[((f * k + ky) * k + kx) * ci + c];
                            *acc = sat_add16(*acc, sat_mul16(iv, wv));
                        }
                    }
                }
                let mut v = partials[0];
                for &pt in &partials[1..] {
                    v = sat_add16(v, pt);
                }
                v = sat_add16(v, bias[f]);
                if relu {
                    v = v.max(0);
                }
                out[cnn::padded_at(w, co, p, x + p, y + p) + f] = v;
            }
        }
    }
    out
}

fn random_conv(rng: &mut SplitMix64) -> ConvLayer {
    let kernel = [1, 3, 5][rng.usize_in(0..3)];
    ConvLayer {
        name: "t",
        in_channels: rng.usize_in(1..24),
        out_channels: rng.usize_in(1..5),
        width: rng.usize_in(1..7),
        height: rng.usize_in(1..6),
        kernel,
        pad: kernel / 2,
    }
}

/// Channels `lo..hi` of a `[..][channels]` array.
fn channel_slice(data: &[i16], channels: usize, lo: usize, hi: usize) -> Vec<i16> {
    data.chunks_exact(channels)
        .flat_map(|px| px[lo..hi].iter().copied())
        .collect()
}

#[test]
fn conv_golden_matches_its_definition() {
    for_each_seed("conv_golden_matches_its_definition", 0xc0, 24, |seed| {
        let mut rng = SplitMix64::new(seed);
        for regime in REGIMES {
            let layer = random_conv(&mut rng);
            let (w, h, ci, p) = (layer.width, layer.height, layer.in_channels, layer.pad);
            let input = cnn::pad_input(w, h, ci, p, &operands(&mut rng, regime, w * h * ci));
            let weights = operands(&mut rng, regime, layer.weights());
            let bias = operands(&mut rng, regime, layer.out_channels);
            for relu in [false, true] {
                let want = conv_sequential(&layer, &input, &weights, &bias, relu);
                let got = cnn::conv_forward(&layer, &input, &weights, &bias, relu);
                assert_eq!(got, want, "{regime:?} {layer:?} relu {relu}");
            }

            // Channel shards: each vault's partial, then the accumulation.
            let cut = rng.usize_in(0..ci + 1);
            let shards = [0..cut, cut..ci].map(|r| {
                let shard = ConvLayer {
                    in_channels: r.len(),
                    ..layer
                };
                let x = channel_slice(&input, ci, r.start, r.end);
                let wt = channel_slice(&weights, ci, r.start, r.end);
                let zeros = vec![0; layer.out_channels];
                let want = conv_sequential(&shard, &x, &wt, &zeros, false);
                let got = cnn::conv_partial(&shard, &x, &wt);
                assert_eq!(got, want, "{regime:?} shard {r:?} of {layer:?}");
                got
            });
            let merged = cnn::relu_bias_sum(&layer, &[&shards[0], &shards[1]], &bias, true);
            let mut want = vec![0i16; merged.len()];
            for (o, (a, b)) in want.iter_mut().zip(shards[0].iter().zip(&shards[1])) {
                *o = sat_add16(*a, *b);
            }
            for y in 0..h {
                for x in 0..w {
                    let at = cnn::padded_at(w, layer.out_channels, p, x + p, y + p);
                    for (o, &b) in want[at..].iter_mut().zip(&bias) {
                        *o = sat_add16(*o, b).max(0);
                    }
                }
            }
            assert_eq!(merged, want, "{regime:?} merged shards of {layer:?}");
        }
    });
}

// ---------------------------------------------------------------- BP ---

/// One BP-M sweep by its definition: per update, `θ̂` built by whole-array
/// saturating adds (data cost, then the message along the sweep, then the
/// two across it), the min over `l'` of `θ_{v,w}(l, l') ⊕ θ̂(l')` for each
/// `l`, then element 0 subtracted when normalizing.
fn sweep_sequential(mrf: &Mrf, msgs: &mut Messages, dir: Sweep) {
    let (w, h, l) = (mrf.params.width, mrf.params.height, mrf.params.labels);
    let positions: Vec<(usize, usize, usize, usize)> = match dir {
        Sweep::Down => (0..h - 1)
            .flat_map(|y| (0..w).map(move |x| (x, y, x, y + 1)))
            .collect(),
        Sweep::Up => (1..h)
            .rev()
            .flat_map(|y| (0..w).map(move |x| (x, y, x, y - 1)))
            .collect(),
        Sweep::Right => (0..w - 1)
            .flat_map(|x| (0..h).map(move |y| (x, y, x + 1, y)))
            .collect(),
        Sweep::Left => (1..w)
            .rev()
            .flat_map(|x| (0..h).map(move |y| (x, y, x - 1, y)))
            .collect(),
    };
    for (x, y, tx, ty) in positions {
        let at = mrf.params.at(x, y);
        let mut th = mrf.theta(x, y).to_vec();
        let order = match dir {
            Sweep::Down => [&msgs.from_above, &msgs.from_left, &msgs.from_right],
            Sweep::Up => [&msgs.from_below, &msgs.from_left, &msgs.from_right],
            Sweep::Right => [&msgs.from_left, &msgs.from_above, &msgs.from_below],
            Sweep::Left => [&msgs.from_right, &msgs.from_above, &msgs.from_below],
        };
        for arr in order {
            for (o, &m) in th.iter_mut().zip(&arr[at..at + l]) {
                *o = sat_add16(*o, m);
            }
        }
        let mut msg: Vec<i16> = (0..l)
            .map(|lv| {
                (0..l)
                    .map(|lp| sat_add16(mrf.params.smoothness[lv * l + lp], th[lp]))
                    .min()
                    .expect("labels > 0")
            })
            .collect();
        if msgs.normalize {
            let m0 = msg[0];
            for v in &mut msg {
                *v = sat_sub16(*v, m0);
            }
        }
        let written = match dir {
            Sweep::Down => &mut msgs.from_above,
            Sweep::Up => &mut msgs.from_below,
            Sweep::Right => &mut msgs.from_left,
            Sweep::Left => &mut msgs.from_right,
        };
        let to = mrf.params.at(tx, ty);
        written[to..to + l].copy_from_slice(&msg);
    }
}

/// Data costs and a smoothness matrix: stereo-like non-negative costs,
/// costs near the positive rail (θ̂ saturates), or any `i16`.
fn random_mrf(rng: &mut SplitMix64, regime: Regime) -> Mrf {
    let (w, h, l) = (rng.usize_in(1..9), rng.usize_in(1..7), rng.usize_in(1..17));
    let n = w * h * l;
    let (costs, smoothness): (Vec<i16>, Vec<i16>) = match regime {
        Regime::Small => {
            let lambda = rng.i64_in(1..4) as i16;
            let trunc = rng.i64_in(2..20) as i16;
            let p = MrfParams::truncated_linear(w, h, l, lambda, trunc);
            let costs = (0..n).map(|_| rng.i64_in(0..64) as i16).collect();
            (costs, p.smoothness)
        }
        Regime::Rails => (
            (0..n).map(|_| rng.i64_in(30_000..32_768) as i16).collect(),
            (0..l * l).map(|_| rng.i64_in(0..4_000) as i16).collect(),
        ),
        Regime::Full => (
            (0..n).map(|_| rng.next_u64() as i16).collect(),
            (0..l * l).map(|_| rng.next_u64() as i16).collect(),
        ),
    };
    Mrf::new(
        MrfParams {
            width: w,
            height: h,
            labels: l,
            smoothness,
        },
        costs,
    )
}

#[test]
fn bp_golden_matches_its_definition() {
    for_each_seed("bp_golden_matches_its_definition", 0xb9, 24, |seed| {
        let mut rng = SplitMix64::new(seed);
        for regime in REGIMES {
            let mrf = random_mrf(&mut rng, regime);
            for normalize in [true, false] {
                let mut got = if normalize {
                    Messages::new(&mrf.params)
                } else {
                    Messages::new_unnormalized(&mrf.params)
                };
                if !matches!(regime, Regime::Small) {
                    // Start from saturating messages, not zeros.
                    for arr in [
                        &mut got.from_above,
                        &mut got.from_below,
                        &mut got.from_left,
                        &mut got.from_right,
                    ] {
                        arr.iter_mut()
                            .for_each(|m| *m = operand(&mut rng, Regime::Full));
                    }
                }
                let mut want = got.clone();
                for iter in 0..3 {
                    for dir in Sweep::iteration_order() {
                        bp::sweep(&mrf, &mut got, dir);
                        sweep_sequential(&mrf, &mut want, dir);
                        assert_eq!(got, want, "{regime:?} norm {normalize} iter {iter} {dir:?}");
                    }
                }
                assert_eq!(bp::labels(&mrf, &got), bp::labels(&mrf, &want));
            }
        }
    });
}
