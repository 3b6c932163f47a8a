//! Simulator-throughput benches: the independent-tile simulations behind
//! Table IV and Figure 3 (BP iteration, convolution, pooling,
//! fully-connected).

use vip_bench::{experiments, harness};
use vip_mem::MemConfig;

fn main() {
    harness::time("tile_simulations/bp_tile_iteration", 5, || {
        experiments::bp_tile_run(MemConfig::baseline(), 1).cycles
    });
    harness::time("tile_simulations/conv_tile_c64", 5, || {
        experiments::conv_tile_run(MemConfig::baseline(), 64, 8, 2).cycles
    });
    harness::time("tile_simulations/conv_tile_c1_1_regime", 5, || {
        experiments::conv_tile_run(MemConfig::baseline(), 4, 8, 8).cycles
    });
    harness::time("tile_simulations/pool_tile", 5, || {
        experiments::pool_tile_run(MemConfig::baseline()).cycles
    });
    harness::time("tile_simulations/fc_tile", 5, || {
        experiments::fc_tile_run(MemConfig::baseline()).cycles
    });
}
