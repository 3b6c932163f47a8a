//! Host-throughput benchmark for the stepping engines: runs the BP,
//! CNN, and MLP tile simulations, a latency-bound pointer chase and a
//! streaming probe of the paper's full 128-PE machine (`vip128`) under
//! naive cycle-by-cycle stepping, the event-driven fast-forward engine,
//! and the two-tier functional engine, then prints a JSON report to
//! stdout (host seconds, speedups, simulated Mcycles/s, host ns per
//! event-engine cycle, and the functional tier's cycle-estimate error
//! per workload).
//!
//! The two cycle-accurate engines must agree on the quiesce cycle
//! exactly; the functional engine's clock is an extrapolation, so it
//! is reported as a signed error against the accurate count instead.
//!
//! Each engine/workload pair gets one untimed warmup run (page the
//! tile's working set and the simulator's code paths in), then
//! `RUNS` timed runs; the median wall-clock time is reported. The
//! sub-50 ms tiles otherwise jitter several percent run to run.
//!
//! Regenerate the checked-in baseline with:
//!
//! ```text
//! cargo run --release --bin sim_throughput > BENCH_sim_throughput.json
//! ```
//!
//! With `--gate` (used by CI's perf-smoke job) the process exits
//! nonzero unless at least two of the three dense tiles keep a
//! functional-tier speedup of at least [`GATE_MIN_FUNC_SPEEDUP`]x —
//! typical numbers are 10x+, so the gate trips on real regressions,
//! not runner noise.

use std::time::Instant;

use vip_bench::cli::Cli;
use vip_bench::experiments::{
    bp_tile_sim, conv_tile_sim, fc_shape_tile_sim, mem_latency_tile_sim, vip128_sim, PreparedTile,
    FC_TILE_LARGE,
};
use vip_core::{Engine, FuncStats};
use vip_mem::MemConfig;

/// Timed repetitions per engine/workload pair (plus one warmup).
const RUNS: usize = 5;

/// `--gate`: minimum functional-tier speedup (vs the event-driven
/// engine) that at least two dense tiles must reach.
const GATE_MIN_FUNC_SPEEDUP: f64 = 5.0;

/// The compute-bound tiles the `--gate` check applies to;
/// `mem_latency_chase` is latency-bound by construction and measures
/// a different ceiling.
const DENSE_TILES: &[&str] = &["bp_tile", "cnn_conv_tile", "mlp_fc_tile"];

/// Loop trips of every PE in the `vip128` case.
const VIP128_LAPS: i64 = 8;

fn run_once(tile: PreparedTile, engine: Engine) -> (u64, f64, FuncStats) {
    let start = Instant::now();
    let run = tile.run(engine);
    (run.cycles, start.elapsed().as_secs_f64(), run.stats.func)
}

/// One warmup run, then the median of [`RUNS`] timed runs. The
/// simulation is deterministic, so every repetition lands on the same
/// cycle count; only the host time varies.
fn timed(make: impl Fn() -> PreparedTile, engine: Engine) -> (u64, f64, FuncStats) {
    let (cycles, _, func) = run_once(make(), engine);
    let mut times: Vec<f64> = (0..RUNS)
        .map(|_| {
            let (c, s, _) = run_once(make(), engine);
            assert_eq!(c, cycles, "nondeterministic quiesce cycle across runs");
            s
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (cycles, times[times.len() / 2], func)
}

type Case = (&'static str, fn() -> PreparedTile);

fn main() {
    let cases: &[Case] = &[
        ("bp_tile", || bp_tile_sim(MemConfig::baseline(), 4)),
        ("cnn_conv_tile", || {
            conv_tile_sim(MemConfig::baseline(), 64, 64, 2)
        }),
        // The large FC shape: 4x the matrix of the layer-time tile, so
        // the functional tier's block cache amortizes its decode cost
        // across many more hits (the small tile decodes almost as many
        // blocks as it reuses).
        ("mlp_fc_tile", || {
            fc_shape_tile_sim(MemConfig::baseline(), FC_TILE_LARGE)
        }),
        ("mem_latency_chase", || {
            mem_latency_tile_sim(MemConfig::baseline(), 16_384)
        }),
        // The paper's 128-PE machine, every PE streaming: what one step
        // of the whole machine costs (`fast_ns_per_cycle`).
        ("vip128", || vip128_sim(VIP128_LAPS)),
    ];

    let mut cli = Cli::new("sim_throughput", "[--gate]");
    let mut gate = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--gate" => gate = true,
            _ => cli.usage(),
        }
    }
    let mut entries = Vec::new();
    let mut dense_passing = 0usize;
    for (name, make) in cases {
        let (naive_cycles, naive_s, _) = timed(make, Engine::Naive);
        let (fast_cycles, fast_s, _) = timed(make, Engine::Fast);
        let (func_cycles, func_s, func) = timed(make, Engine::Functional);
        assert_eq!(
            naive_cycles, fast_cycles,
            "{name}: cycle-accurate engines disagree on the quiesce cycle"
        );
        let speedup = naive_s / fast_s;
        let func_speedup = fast_s / func_s;
        let cycle_err_pct = (func_cycles as f64 - fast_cycles as f64) / fast_cycles as f64 * 100.0;
        let fast_mcps = fast_cycles as f64 / fast_s / 1e6;
        let fast_ns_per_cycle = fast_s * 1e9 / fast_cycles as f64;
        let func_mcps = func_cycles as f64 / func_s / 1e6;
        if DENSE_TILES.contains(name) && func_speedup >= GATE_MIN_FUNC_SPEEDUP {
            dense_passing += 1;
        }
        eprintln!(
            "{name:<18} {fast_cycles:>10} cycles  naive {naive_s:>7.3} s  fast {fast_s:>7.3} s  \
             func {func_s:>7.3} s  func {func_speedup:>6.2}x  cycle err {cycle_err_pct:>+6.2}%  \
             {func_mcps:>8.2} Mcyc/s"
        );
        entries.push(format!(
            "    {{\"name\": \"{name}\", \"sim_cycles\": {fast_cycles}, \"naive_s\": {naive_s:.6}, \
             \"fast_s\": {fast_s:.6}, \"speedup\": {speedup:.2}, \
             \"fast_mcycles_per_s\": {fast_mcps:.2}, \
             \"fast_ns_per_cycle\": {fast_ns_per_cycle:.1}, \"func_s\": {func_s:.6}, \
             \"func_speedup\": {func_speedup:.2}, \"func_sim_cycles\": {func_cycles}, \
             \"func_cycle_err_pct\": {cycle_err_pct:.3}, \"func_mcycles_per_s\": {func_mcps:.2}, \
             \"func_blocks_decoded\": {}, \"func_block_cache_hits\": {}, \
             \"func_block_cache_misses\": {}, \"func_instructions\": {}, \
             \"func_accurate_cycles\": {}, \"func_windows\": {}}}",
            func.blocks_decoded,
            func.block_cache_hits,
            func.block_cache_misses,
            func.functional_instructions,
            func.accurate_cycles,
            func.windows,
        ));
    }

    println!(
        "{{\n  \"bench\": \"sim_throughput\",\n  \"unit_note\": \"host wall-clock seconds, \
         median of {RUNS} runs after one warmup; speedup = naive_s / fast_s, func_speedup = \
         fast_s / func_s; func_cycle_err_pct = functional clock estimate vs the exact \
         cycle-accurate count\",\n  \"results\": [\n{}\n  ]\n}}",
        entries.join(",\n")
    );

    if gate && dense_passing < 2 {
        eprintln!(
            "perf gate FAILED: only {dense_passing} of {} dense tiles reached \
             {GATE_MIN_FUNC_SPEEDUP}x functional-tier speedup (need 2)",
            DENSE_TILES.len()
        );
        std::process::exit(1);
    }
}
