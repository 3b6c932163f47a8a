//! Golden reference BP-M with VIP's exact saturating 16-bit arithmetic.

use std::ops::Range;

use vip_isa::alu::{sat_add16, sat_sub16};

use super::{Mrf, MrfParams, Sweep};

/// The four message arrays, named by arrival direction, each
/// `height × width × labels` and initialized to zero (uninformative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Messages {
    /// Message into `(x, y)` from `(x, y-1)`.
    pub from_above: Vec<i16>,
    /// Message into `(x, y)` from `(x, y+1)`.
    pub from_below: Vec<i16>,
    /// Message into `(x, y)` from `(x-1, y)`.
    pub from_left: Vec<i16>,
    /// Message into `(x, y)` from `(x+1, y)`.
    pub from_right: Vec<i16>,
    /// Whether updates subtract element 0 of each new message (the
    /// broadcast-normalization idiom the generated VIP code uses to keep
    /// 16-bit values in range; argmin-invariant).
    pub normalize: bool,
}

impl Messages {
    /// Zeroed messages for `params`' geometry, with normalization on.
    #[must_use]
    pub fn new(params: &MrfParams) -> Self {
        let n = params.vertices() * params.labels;
        Messages {
            from_above: vec![0; n],
            from_below: vec![0; n],
            from_left: vec![0; n],
            from_right: vec![0; n],
            normalize: true,
        }
    }

    /// Zeroed messages with normalization off (matches the paper's raw
    /// Figure 2 instruction sequence; saturates after a few iterations).
    #[must_use]
    pub fn new_unnormalized(params: &MrfParams) -> Self {
        Messages {
            normalize: false,
            ..Self::new(params)
        }
    }

    /// The array a sweep writes, and the two arriving across the sweep
    /// in the order `θ̂` adds them. The written array is also read: the
    /// message a vertex received along the sweep is its `θ̂`'s first term.
    pub fn planes_mut(&mut self, dir: Sweep) -> (&mut [i16], [&[i16]; 2]) {
        match dir {
            Sweep::Down => (&mut self.from_above, [&self.from_left, &self.from_right]),
            Sweep::Up => (&mut self.from_below, [&self.from_left, &self.from_right]),
            Sweep::Right => (&mut self.from_left, [&self.from_above, &self.from_below]),
            Sweep::Left => (&mut self.from_right, [&self.from_above, &self.from_below]),
        }
    }
}

/// One message update, from the vertex at offset `from` to the one at
/// `to`. `θ̂` of Equation (1a) — the data cost plus `along[from..]`, then
/// `across` in order, i.e. every incoming message except the one from the
/// target — goes into `th` (`labels` long); the min-sum of Equation (1b),
/// `m(l) = min_{l'} (θ_{v,w}(l, l') + θ̂(l'))`, into `along[to..]`, then
/// optionally minus its element 0.
fn message_update(
    mrf: &Mrf,
    along: &mut [i16],
    across: [&[i16]; 2],
    from: usize,
    to: usize,
    normalize: bool,
    th: &mut [i16],
) {
    let l = th.len();
    th.copy_from_slice(&mrf.data_costs[from..from + l]);
    for plane in [&*along, across[0], across[1]] {
        for (t, &m) in th.iter_mut().zip(&plane[from..from + l]) {
            *t = sat_add16(*t, m);
        }
    }
    let msg = &mut along[to..to + l];
    for (lv, m) in msg.iter_mut().enumerate() {
        *m = mrf.params.smoothness[lv * l..][..l]
            .iter()
            .zip(&*th)
            .fold(i16::MAX, |best, (&s, &t)| best.min(sat_add16(s, t)));
    }
    if normalize {
        let m0 = msg[0];
        for m in msg {
            *m = sat_sub16(*m, m0);
        }
    }
}

/// Sweeps `dir` over the lines `band` of the orthogonal axis (columns of
/// a vertical sweep, rows of a horizontal one), each line sequential
/// along the sweep axis, updating `along` in place; `along` and `across`
/// are what [`Messages::planes_mut`] returns. Lines never read each
/// other, so disjoint bands can run on separate copies of `along`.
pub fn sweep_band(
    mrf: &Mrf,
    along: &mut [i16],
    across: [&[i16]; 2],
    dir: Sweep,
    band: Range<usize>,
    normalize: bool,
) {
    let p = &mrf.params;
    let (w, h) = (p.width, p.height);
    let mut th = vec![0; p.labels];
    let mut update = |from, to| message_update(mrf, along, across, from, to, normalize, &mut th);
    match dir {
        Sweep::Down => {
            for y in 0..h - 1 {
                for x in band.clone() {
                    update(p.at(x, y), p.at(x, y + 1));
                }
            }
        }
        Sweep::Up => {
            for y in (1..h).rev() {
                for x in band.clone() {
                    update(p.at(x, y), p.at(x, y - 1));
                }
            }
        }
        Sweep::Right => {
            for x in 0..w - 1 {
                for y in band.clone() {
                    update(p.at(x, y), p.at(x + 1, y));
                }
            }
        }
        Sweep::Left => {
            for x in (1..w).rev() {
                for y in band.clone() {
                    update(p.at(x, y), p.at(x - 1, y));
                }
            }
        }
    }
}

/// Performs one directional sweep over the whole grid, sequential along
/// the sweep axis (matching the generated VIP code's schedule exactly).
pub fn sweep(mrf: &Mrf, msgs: &mut Messages, dir: Sweep) {
    let p = &mrf.params;
    let lines = if dir.is_vertical() { p.width } else { p.height };
    let normalize = msgs.normalize;
    let (along, across) = msgs.planes_mut(dir);
    sweep_band(mrf, along, across, dir, 0..lines, normalize);
}

/// One BP-M iteration: all four directional sweeps.
pub fn iteration(mrf: &Mrf, msgs: &mut Messages) {
    for dir in Sweep::iteration_order() {
        sweep(mrf, msgs, dir);
    }
}

/// Per-vertex beliefs (Equation (2)'s argument): data cost plus all four
/// incoming messages.
#[must_use]
pub fn beliefs(mrf: &Mrf, msgs: &Messages) -> Vec<i16> {
    let mut out = mrf.data_costs.clone();
    for arr in [
        &msgs.from_above,
        &msgs.from_below,
        &msgs.from_left,
        &msgs.from_right,
    ] {
        for (o, &m) in out.iter_mut().zip(arr.iter()) {
            *o = sat_add16(*o, m);
        }
    }
    out
}

/// The most favorable label per vertex (argmin of the belief; first
/// minimum wins ties).
#[must_use]
pub fn labels(mrf: &Mrf, msgs: &Messages) -> Vec<u8> {
    let l = mrf.params.labels;
    beliefs(mrf, msgs)
        .chunks(l)
        .map(|b| {
            b.iter()
                .enumerate()
                .min_by_key(|&(_, &v)| v)
                .map(|(i, _)| i as u8)
                .expect("labels > 0")
        })
        .collect()
}

/// Runs `iters` BP-M iterations from zero messages and returns the label
/// map.
#[must_use]
pub fn run(mrf: &Mrf, iters: usize) -> Vec<u8> {
    let mut msgs = Messages::new(&mrf.params);
    for _ in 0..iters {
        iteration(mrf, &mut msgs);
    }
    labels(mrf, &msgs)
}

/// The hierarchical "construct" phase (§VI-A): pools each 2×2 block's
/// data costs into one coarse vertex (saturating sum), halving each
/// dimension.
///
/// # Panics
///
/// Panics if the grid dimensions are odd.
#[must_use]
pub fn coarse_mrf(mrf: &Mrf) -> Mrf {
    let p = &mrf.params;
    assert!(
        p.width.is_multiple_of(2) && p.height.is_multiple_of(2),
        "construct needs even dimensions"
    );
    let (cw, ch, l) = (p.width / 2, p.height / 2, p.labels);
    let cparams = MrfParams {
        width: cw,
        height: ch,
        labels: l,
        smoothness: p.smoothness.clone(),
    };
    let mut costs = vec![0i16; cw * ch * l];
    for cy in 0..ch {
        for cx in 0..cw {
            for (dx, dy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let src = mrf.theta(2 * cx + dx, 2 * cy + dy);
                let at = cparams.at(cx, cy);
                for (o, &v) in costs[at..at + l].iter_mut().zip(src) {
                    *o = sat_add16(*o, v);
                }
            }
        }
    }
    Mrf::new(cparams, costs)
}

/// The hierarchical "copy" phase: initializes fine-grid messages from the
/// converged coarse-grid messages (each fine vertex inherits its coarse
/// parent's message).
#[must_use]
pub fn refine_messages(coarse: &MrfParams, coarse_msgs: &Messages, fine: &MrfParams) -> Messages {
    assert_eq!(coarse.width * 2, fine.width);
    assert_eq!(coarse.height * 2, fine.height);
    let l = fine.labels;
    let mut out = Messages::new(fine);
    out.normalize = coarse_msgs.normalize;
    let copy = |src: &Vec<i16>, dst: &mut Vec<i16>| {
        for y in 0..fine.height {
            for x in 0..fine.width {
                let from = coarse.at(x / 2, y / 2);
                let to = fine.at(x, y);
                dst[to..to + l].copy_from_slice(&src[from..from + l]);
            }
        }
    };
    copy(&coarse_msgs.from_above, &mut out.from_above);
    copy(&coarse_msgs.from_below, &mut out.from_below);
    copy(&coarse_msgs.from_left, &mut out.from_left);
    copy(&coarse_msgs.from_right, &mut out.from_right);
    out
}

/// Hierarchical BP-M (§VI-A): construct a coarse MRF, run `coarse_iters`
/// there, copy messages up, then run `fine_iters` on the full grid.
#[must_use]
pub fn hierarchical_run(mrf: &Mrf, coarse_iters: usize, fine_iters: usize) -> Vec<u8> {
    let coarse = coarse_mrf(mrf);
    let mut cmsgs = Messages::new(&coarse.params);
    for _ in 0..coarse_iters {
        iteration(&coarse, &mut cmsgs);
    }
    let mut msgs = refine_messages(&coarse.params, &cmsgs, &mrf.params);
    for _ in 0..fine_iters {
        iteration(mrf, &mut msgs);
    }
    labels(mrf, &msgs)
}

/// The MRF energy of a labeling: the sum of data costs at the chosen
/// labels plus smoothness costs over all 4-connected neighbor pairs —
/// the objective function BP-M approximately minimizes. Lower is
/// better; iterating BP should not make this worse on typical inputs.
#[must_use]
pub fn labeling_energy(mrf: &Mrf, labels: &[u8]) -> i64 {
    let p = &mrf.params;
    assert_eq!(labels.len(), p.vertices());
    let l = p.labels;
    let mut energy = 0i64;
    for y in 0..p.height {
        for x in 0..p.width {
            let lv = labels[y * p.width + x] as usize;
            energy += i64::from(mrf.theta(x, y)[lv]);
            if x + 1 < p.width {
                let lw = labels[y * p.width + x + 1] as usize;
                energy += i64::from(p.smoothness[lv * l + lw]);
            }
            if y + 1 < p.height {
                let lw = labels[(y + 1) * p.width + x] as usize;
                energy += i64::from(p.smoothness[lv * l + lw]);
            }
        }
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::super::stereo_data_costs;
    use super::*;

    fn tiny_mrf() -> Mrf {
        let params = MrfParams::truncated_linear(8, 8, 4, 2, 6);
        // A step edge: left half prefers label 0, right half label 3.
        let mut costs = vec![0i16; 8 * 8 * 4];
        for y in 0..8 {
            for x in 0..8 {
                let preferred = if x < 4 { 0 } else { 3 };
                for l in 0..4 {
                    costs[params.at(x, y) + l] = if l == preferred { 0 } else { 20 };
                }
            }
        }
        Mrf::new(params, costs)
    }

    #[test]
    fn bp_recovers_step_edge() {
        let mrf = tiny_mrf();
        let out = run(&mrf, 4);
        for y in 0..8 {
            for x in 0..8 {
                let expect = if x < 4 { 0 } else { 3 };
                assert_eq!(out[y * 8 + x], expect, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn smoothing_fills_in_noisy_pixel() {
        let mut mrf = tiny_mrf();
        // Corrupt one interior pixel to prefer a wrong label strongly,
        // but neighbors should pull it back.
        let at = mrf.params.at(2, 4);
        for l in 0..4 {
            mrf.data_costs[at + l] = if l == 2 { 0 } else { 8 };
        }
        let out = run(&mrf, 6);
        assert_eq!(
            out[4 * 8 + 2],
            0,
            "smoothness should override weak evidence"
        );
    }

    #[test]
    fn zero_iterations_is_pure_data_term() {
        let mrf = tiny_mrf();
        let out = run(&mrf, 0);
        assert_eq!(out[0], 0);
        assert_eq!(out[7], 3);
    }

    #[test]
    fn normalization_does_not_change_labels_early() {
        // Before anything saturates, normalized and unnormalized BP pick
        // identical labels (argmin is shift-invariant).
        let mrf = tiny_mrf();
        let mut a = Messages::new(&mrf.params);
        let mut b = Messages::new_unnormalized(&mrf.params);
        for _ in 0..2 {
            iteration(&mrf, &mut a);
            iteration(&mrf, &mut b);
        }
        assert_eq!(labels(&mrf, &a), labels(&mrf, &b));
    }

    #[test]
    fn normalized_messages_stay_bounded() {
        let mrf = tiny_mrf();
        let mut msgs = Messages::new(&mrf.params);
        for _ in 0..20 {
            iteration(&mrf, &mut msgs);
        }
        let max = msgs
            .from_above
            .iter()
            .chain(&msgs.from_below)
            .chain(&msgs.from_left)
            .chain(&msgs.from_right)
            .map(|&v| i32::from(v).abs())
            .max()
            .unwrap();
        assert!(max < 1000, "normalized messages stay small, got {max}");
    }

    #[test]
    fn hierarchical_converges_faster_on_stereo() {
        // On a synthetic stereo pair, 1 coarse + 1 fine hierarchical
        // iteration should agree with plain BP at 4 iterations on a
        // majority of pixels (it converges faster — the paper's point).
        let (w, h, l) = (32, 16, 8);
        let costs = stereo_data_costs(w, h, l, 42);
        let params = MrfParams::truncated_linear(w, h, l, 2, 10);
        let mrf = Mrf::new(params, costs);
        let plain = run(&mrf, 4);
        let hier = hierarchical_run(&mrf, 2, 1);
        let agree = plain.iter().zip(&hier).filter(|(a, b)| a == b).count();
        assert!(
            agree * 10 >= plain.len() * 7,
            "hierarchical agrees on {agree}/{} pixels",
            plain.len()
        );
    }

    #[test]
    fn bp_lowers_the_mrf_energy() {
        // The point of message passing: the smoothed labeling has lower
        // energy than the per-pixel argmin of the data term.
        let (w, h, l) = (32, 16, 8);
        let costs = stereo_data_costs(w, h, l, 19);
        let params = MrfParams::truncated_linear(w, h, l, 2, 10);
        let mrf = Mrf::new(params, costs);
        let data_only = run(&mrf, 0);
        let smoothed = run(&mrf, 4);
        let e0 = labeling_energy(&mrf, &data_only);
        let e4 = labeling_energy(&mrf, &smoothed);
        assert!(e4 < e0, "BP should lower energy: {e0} -> {e4}");
    }

    #[test]
    fn bp_recovers_true_disparity_better_than_data_term() {
        // With the synthetic stereo pair's known disparity field, BP's
        // labeling is closer to ground truth than the raw matching
        // costs' argmin.
        let (w, h, l) = (48, 24, 16);
        let (_, _, truth) = super::super::synthetic_stereo_pair(w, h, l, 77);
        let costs = stereo_data_costs(w, h, l, 77);
        let mrf = Mrf::new(MrfParams::truncated_linear(w, h, l, 3, 20), costs);
        let err = |labels: &[u8]| -> usize {
            labels
                .iter()
                .zip(&truth)
                .filter(|(a, b)| (i16::from(**a) - i16::from(**b)).abs() > 1)
                .count()
        };
        let raw_err = err(&run(&mrf, 0));
        let bp_err = err(&run(&mrf, 4));
        assert!(
            bp_err < raw_err,
            "BP should beat the data term: raw {raw_err}, bp {bp_err} bad pixels of {}",
            truth.len()
        );
    }

    #[test]
    fn construct_halves_dimensions_and_sums() {
        let mrf = tiny_mrf();
        let coarse = coarse_mrf(&mrf);
        assert_eq!(coarse.params.width, 4);
        assert_eq!(coarse.params.height, 4);
        // Block (0,0): four pixels each preferring label 0 with cost 20
        // on the others.
        assert_eq!(coarse.theta(0, 0)[0], 0);
        assert_eq!(coarse.theta(0, 0)[1], 80);
    }
}
