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
//! With `--counts` it times nothing: it runs every case once on the
//! event-driven and the functional engines and prints their work
//! counters (steps, skips, PE visits, vault passes, ...), one line each
//! — the exact, host-independent record of what the engines did, pinned
//! by `crates/bench/tests/work_counts.rs`:
//!
//! ```text
//! cargo run --release --bin sim_throughput -- --counts > crates/bench/tests/data/work_counts.txt
//! ```
//!
//! With `--gate` (used by CI's perf-smoke job) the process exits
//! nonzero unless at least two of the three dense tiles keep a
//! functional-tier speedup of at least [`GATE_MIN_FUNC_SPEEDUP`]x —
//! typical numbers are 10x+, so the gate trips on real regressions,
//! not runner noise.

use std::time::Instant;

use vip_bench::cli::Cli;
use vip_bench::experiments::{throughput_cases, work_count_lines, PreparedTile};
use vip_core::{Engine, FuncStats};

/// Timed repetitions per engine/workload pair (plus one warmup).
const RUNS: usize = 5;

/// `--gate`: minimum functional-tier speedup (vs the event-driven
/// engine) that at least two dense tiles must reach.
const GATE_MIN_FUNC_SPEEDUP: f64 = 5.0;

/// The compute-bound tiles the `--gate` check applies to;
/// `mem_latency_chase` is latency-bound by construction and measures
/// a different ceiling.
const DENSE_TILES: &[&str] = &["bp_tile", "cnn_conv_tile", "mlp_fc_tile"];

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

fn main() {
    let mut cli = Cli::new("sim_throughput", "[--gate] [--counts]");
    let (mut gate, mut counts) = (false, false);
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--gate" => gate = true,
            "--counts" => counts = true,
            _ => cli.usage(),
        }
    }
    if counts {
        for case in throughput_cases() {
            eprintln!("counting {}", case.0);
            for line in work_count_lines(case) {
                println!("{line}");
            }
        }
        return;
    }
    let mut entries = Vec::new();
    let mut dense_passing = 0usize;
    for (name, make) in throughput_cases() {
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
        if DENSE_TILES.contains(&name) && func_speedup >= GATE_MIN_FUNC_SPEEDUP {
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
