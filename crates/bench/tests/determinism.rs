//! Regression tests for the stepping engine: the event-driven
//! fast-forward path must be bit-identical to naive cycle-by-cycle
//! stepping — same quiesce cycle and the same full `SystemStats` (every
//! counter, including per-cause stall breakdowns, DRAM busy/refresh
//! accounting, and NoC totals).

use vip_bench::experiments::{
    bp_tile_sim, conv_tile_sim, fc_tile_sim, mem_latency_tile_sim, PreparedTile,
};
use vip_core::Engine;
use vip_mem::MemConfig;

fn assert_engines_identical(name: &str, make: &dyn Fn() -> PreparedTile) {
    let naive = make().run(Engine::Naive);
    let fast = make().run(Engine::Fast);
    assert_eq!(
        naive.cycles, fast.cycles,
        "{name}: fast-forward quiesced at a different cycle"
    );
    assert_eq!(
        naive.stats, fast.stats,
        "{name}: fast-forward produced different statistics"
    );
}

#[test]
fn bp_tile_engines_agree() {
    assert_engines_identical("bp_tile", &|| bp_tile_sim(MemConfig::baseline(), 1));
}

#[test]
fn cnn_conv_tile_engines_agree() {
    assert_engines_identical("cnn_conv_tile", &|| {
        conv_tile_sim(MemConfig::baseline(), 4, 8, 8)
    });
}

#[test]
fn mlp_fc_tile_engines_agree() {
    assert_engines_identical("mlp_fc_tile", &|| fc_tile_sim(MemConfig::baseline()));
}

#[test]
fn mem_latency_chase_engines_agree() {
    assert_engines_identical("mem_latency_chase", &|| {
        mem_latency_tile_sim(MemConfig::baseline(), 512)
    });
}
