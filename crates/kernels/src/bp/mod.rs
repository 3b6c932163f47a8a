//! Min-sum belief propagation (BP-M) on 2D grid Markov random fields
//! (§II-A, §IV-A).
//!
//! The MRF is the grid graph used by depth-from-stereo: one vertex per
//! pixel, `L` labels (disparities), a data-cost vector `θ_v` per vertex
//! and a shared smoothness-cost matrix `θ_{v,w}`. BP-M (Tappen &
//! Freeman's accelerated schedule) sweeps messages across the grid in
//! each of the four directions per iteration; within a direction updates
//! are strictly sequential along the sweep axis and parallel along the
//! orthogonal axis — the property VIP's software design exploits.
//!
//! Message arrays are named by *arrival* direction: `from_above[x, y]`
//! is the message vertex `(x, y)` received from `(x, y-1)`, and is what
//! the downward sweep writes.

mod codegen;
mod golden;
mod hier;
mod model;
mod stereo;

pub use codegen::{
    bp_iteration_programs, strip_program, BpLayout, StripParams, VectorMachineStyle,
};
pub use golden::{
    beliefs, coarse_mrf, hierarchical_run, iteration, labeling_energy, labels, refine_messages,
    run, sweep, sweep_band, Messages,
};
pub use hier::{construct_programs, copy_messages_programs};
pub use model::{BpCosts, BpExtrapolation};
pub use stereo::{stereo_data_costs, synthetic_stereo_pair};

/// A sweep direction (the message-update order within one BP-M
/// iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sweep {
    /// Top-to-bottom: writes `from_above`.
    Down,
    /// Bottom-to-top: writes `from_below`.
    Up,
    /// Left-to-right: writes `from_left`.
    Right,
    /// Right-to-left: writes `from_right`.
    Left,
}

impl Sweep {
    /// The four sweeps in the order one BP-M iteration performs them.
    #[must_use]
    pub fn iteration_order() -> [Sweep; 4] {
        [Sweep::Down, Sweep::Up, Sweep::Right, Sweep::Left]
    }

    /// Whether the sweep axis is vertical (sequential in `y`).
    #[must_use]
    pub fn is_vertical(self) -> bool {
        matches!(self, Sweep::Down | Sweep::Up)
    }
}

/// Parameters of a grid MRF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrfParams {
    /// Grid width (pixels).
    pub width: usize,
    /// Grid height (pixels).
    pub height: usize,
    /// Number of labels (disparities). 16 for the paper's stereo task.
    pub labels: usize,
    /// Smoothness-cost matrix `θ_{v,w}(l_v, l_w)`, row-major `L×L`.
    pub smoothness: Vec<i16>,
}

impl MrfParams {
    /// A truncated-linear smoothness model: `min(λ·|l − l'|, τ)` — the
    /// standard choice for stereo (Felzenszwalb & Huttenlocher).
    #[must_use]
    pub fn truncated_linear(
        width: usize,
        height: usize,
        labels: usize,
        lambda: i16,
        trunc: i16,
    ) -> Self {
        let mut smoothness = vec![0i16; labels * labels];
        for a in 0..labels {
            for b in 0..labels {
                let diff = (a as i16 - b as i16).abs();
                smoothness[a * labels + b] = (lambda.saturating_mul(diff)).min(trunc);
            }
        }
        MrfParams {
            width,
            height,
            labels,
            smoothness,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn vertices(&self) -> usize {
        self.width * self.height
    }

    /// Index of the first label of vertex `(x, y)` in a per-vertex-vector
    /// array.
    #[must_use]
    pub fn at(&self, x: usize, y: usize) -> usize {
        (y * self.width + x) * self.labels
    }
}

/// An MRF instance: parameters plus per-vertex data costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mrf {
    /// Grid and smoothness parameters.
    pub params: MrfParams,
    /// Data costs, `height × width × labels`, laid out row-major with the
    /// label index fastest.
    pub data_costs: Vec<i16>,
}

impl Mrf {
    /// Wraps parameters and data costs.
    ///
    /// # Panics
    ///
    /// Panics if `data_costs` has the wrong length.
    #[must_use]
    pub fn new(params: MrfParams, data_costs: Vec<i16>) -> Self {
        assert_eq!(
            data_costs.len(),
            params.vertices() * params.labels,
            "data costs must be width x height x labels"
        );
        Mrf { params, data_costs }
    }

    /// The data-cost vector of vertex `(x, y)`.
    #[must_use]
    pub fn theta(&self, x: usize, y: usize) -> &[i16] {
        let at = self.params.at(x, y);
        &self.data_costs[at..at + self.params.labels]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_linear_shape() {
        let p = MrfParams::truncated_linear(4, 4, 8, 2, 6);
        assert_eq!(p.smoothness[0], 0); // diagonal
        assert_eq!(p.smoothness[1], 2); // |0-1| * 2
        assert_eq!(p.smoothness[7], 6); // truncated at 6
        assert_eq!(p.smoothness[7 * 8 + 7], 0);
        // Symmetric.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(p.smoothness[a * 8 + b], p.smoothness[b * 8 + a]);
            }
        }
    }

    #[test]
    fn indexing() {
        let p = MrfParams::truncated_linear(10, 5, 16, 1, 4);
        assert_eq!(p.at(0, 0), 0);
        assert_eq!(p.at(1, 0), 16);
        assert_eq!(p.at(0, 1), 160);
        assert_eq!(p.vertices(), 50);
    }

    #[test]
    #[should_panic(expected = "width x height x labels")]
    fn wrong_cost_length_panics() {
        let p = MrfParams::truncated_linear(4, 4, 4, 1, 3);
        let _ = Mrf::new(p, vec![0; 10]);
    }
}
