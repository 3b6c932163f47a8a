//! # vip-kernels — the paper's workloads on VIP
//!
//! Implements the three workload families the VIP paper evaluates (§II,
//! §IV), each in three forms:
//!
//! 1. a **golden reference** in plain Rust using the exact saturating
//!    16-bit fixed-point semantics of the VIP datapath
//!    ([`vip_isa::alu`]), against which simulated outputs are verified
//!    bit-for-bit;
//! 2. a **VIP code generator** emitting real VIP assembly — tiled,
//!    software-pipelined, and synchronized with full-empty variables the
//!    way §IV describes;
//! 3. an **analytical model** of operations and bytes per kernel, used
//!    for roofline placement (Figure 3) and for the paper's own
//!    independent-tile extrapolation methodology (§V-A).
//!
//! Modules:
//!
//! * [`bp`] — min-sum belief propagation (BP-M) on 2D grid Markov random
//!   fields: depth-from-stereo data costs, directional message sweeps,
//!   the hierarchical variant, and per-strip/per-tile VIP programs;
//! * [`cnn`] — convolution / ReLU / max-pool layers with the VGG-16 and
//!   VGG-19 geometries, plus the scratchpad-tiled VIP convolution
//!   template of §IV-B;
//! * [`mlp`] — fully-connected layers (tiled GEMV) per §IV-C;
//! * [`sync`] — the full-empty barrier and producer-consumer flag
//!   snippets shared by the generated programs;
//! * [`schedule`] / [`schedule_store`] — the typed codegen schedules
//!   the autotuner searches and the artifacts it files;
//! * [`tile`] / [`cache`] — the §V-A timing tile every report, search
//!   point and served request runs ([`tile::TileClass`]: shape →
//!   schedule → staged system + programs), and the prepared-program
//!   cache its stager shares.

pub mod bp;
pub mod cache;
pub mod cnn;
pub mod mlp;
pub mod schedule;
pub mod schedule_store;
pub mod sync;
pub mod tile;

/// Fixed-point element type used by every evaluated workload ("16-bit
/// dynamic fixed point", §IV).
pub const ELEM: vip_isa::ElemType = vip_isa::ElemType::I16;

/// Bytes per element.
pub const ELEM_BYTES: usize = 2;

/// Deterministic small-magnitude operand values (weights, activations,
/// biases) that exercise signs without instantly saturating — what the
/// timing tile ([`tile::TileClass`]) and the kernel tests stage.
#[must_use]
pub fn pattern(n: usize, scale: i16, offset: i16) -> Vec<i16> {
    // `(i * 7 + 3) % 11`, kept as a running residue: every dispatch
    // stages through here, and a division per element showed.
    let mut residue = 3;
    (0..n)
        .map(|_| {
            let v = residue as i16 * scale - offset;
            residue += 7;
            if residue >= 11 {
                residue -= 11;
            }
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn pattern_is_its_definition() {
        for (n, scale, offset) in [(0, 1, 5), (1, 1, 5), (23, 3, 10), (4_099, -7, -2)] {
            let expect: Vec<i16> = (0..n)
                .map(|i| ((i * 7 + 3) % 11) as i16 * scale - offset)
                .collect();
            assert_eq!(super::pattern(n, scale, offset), expect, "n {n}");
        }
    }
}
