//! The benchmark's metric tables — the single source `BENCHMARK.json`
//! is generated from (`vip-perf --benchmark-json`) and checked against.
//!
//! Host-time metrics use the host's wall clock; every `sim_*` metric
//! is simulated time or a simulated count and repeats exactly for a
//! given program, whatever the seed.

use std::fmt::Write as _;

use crate::workloads::{Spec, WORKLOADS};

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: name, unit, direction, regression bound (the
/// share of the parent's median it may worsen by).
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// A per-layer metric: name, unit, direction.
pub type PerLayer = (&'static str, &'static str, Better);

/// Bound of the host-time metrics and of peak memory: 10 %. With the
/// clock scaled out and every timed call short enough to find a quiet
/// moment of the host, runs of one build repeat to 1–3.5 % on the
/// defining machine even in its bad stretches (README, "Run-to-run
/// spread"); differences smaller than that need the paired protocol.
const HOST_BOUND: f64 = 0.10;

/// Bound of `setup_s`: the largest the benchmark's contract allows,
/// as it asks for the set-up metric. Set-ups here take 4–100 ms (0.8 s
/// on `serve_durable_chaos`), and a quarter of the shortest is 1 ms —
/// still under the 5 ms floor below which a set-up change is noise.
const SETUP_BOUND: f64 = 0.25;

/// Bound of the simulated metrics. They repeat exactly, so any change
/// is a change of simulated behaviour the PR must intend; one part in a
/// thousand is the smallest tolerance that is still a positive share
/// (`perf/check.sh` holds them to exact equality).
const EXACT_BOUND: f64 = 0.001;

use Better::{Higher, Lower};

/// The end-to-end metrics, measured untraced on every workload.
///
/// `failed_ops_pct` is not among them: the benchmark's contract wants
/// workloads on which no operation fails and metrics that are never 0,
/// and carries the count in the result line's `attempted` and `failed`.
/// It is a per-layer row, and every run prints it.
pub const END_TO_END: [EndToEnd; 8] = [
    // Host seconds to build the workload (operands, codegen, schedule
    // load, golden outputs, first staging, reference table): best of
    // the run's set-ups.
    ("setup_s", "s", Lower, SETUP_BOUND),
    // Host seconds inside the timed region: Σ over its calls of each
    // call's minimum over the iterations.
    ("host_s_per_iter", "s", Lower, HOST_BOUND),
    // Simulated device cycles per host second.
    ("sim_mcycles_per_host_s", "Mcycles/s", Higher, HOST_BOUND),
    // Simulated instructions per host second.
    ("sim_minstr_per_host_s", "Minstr/s", Higher, HOST_BOUND),
    // VmHWM at exit.
    ("peak_rss_mb", "MB", Lower, HOST_BOUND),
    // Simulated cycles per iteration (Σ tile quiesce cycles; Σ fleet
    // makespans).
    ("sim_cycles", "cycles", Lower, EXACT_BOUND),
    // Worst-tile |functional estimate − exact| ÷ exact × 100 over the
    // tile shapes the workload executes (serving: the mix's classes).
    ("func_cycle_err_pct_abs", "%", Lower, EXACT_BOUND),
    // Nearest-rank p99 of the simulated latency of the workload's
    // operations (served requests; tile runs).
    // `sim_us`: microseconds of simulated, not host, time.
    ("sim_p99_latency_us", "sim_us", Lower, EXACT_BOUND),
];

/// The per-layer metrics, produced by the traced pass of every
/// workload. Micro rows (a layer's public functions called in
/// isolation) read the same on every workload; the rows marked
/// "workload" describe the workload being run and are 0 where it does
/// not exercise the layer.
pub const PER_LAYER: [PerLayer; 104] = [
    // isa
    ("isa.alu.vec_vec_melem_per_s.i8", "Melem/s", Higher),
    ("isa.alu.vec_vec_melem_per_s.i16", "Melem/s", Higher),
    ("isa.alu.vec_vec_melem_per_s.i32", "Melem/s", Higher),
    ("isa.alu.vec_vec_melem_per_s.i64", "Melem/s", Higher),
    ("isa.alu.mat_vec_mmac_per_s.i16", "Mmac/s", Higher),
    ("isa.block.scan_ns_per_inst", "ns", Lower),
    ("isa.block.fingerprint_ns_per_inst", "ns", Lower),
    // kernels
    ("kernels.codegen_ms.bp", "ms", Lower),
    ("kernels.codegen_ms.conv", "ms", Lower),
    ("kernels.codegen_ms.fc", "ms", Lower),
    ("kernels.stage_mb_per_s", "MB/s", Higher),
    ("kernels.golden_ms.bp", "ms", Lower),
    ("kernels.golden_ms.conv", "ms", Lower),
    ("kernels.golden_ms.fc", "ms", Lower),
    // mem
    ("mem.controller.mcycles_per_s.stream", "Mcycles/s", Higher),
    ("mem.controller.mcycles_per_s.rowmiss", "Mcycles/s", Higher),
    ("mem.controller.ns_per_txn.stream", "ns", Lower),
    ("mem.controller.ns_per_txn.rowmiss", "ns", Lower),
    ("mem.controller.skip_ns_per_event", "ns", Lower),
    ("mem.storage.read_mb_per_s", "MB/s", Higher),
    ("mem.storage.write_mb_per_s", "MB/s", Higher),
    // noc
    ("noc.torus.ns_per_packet.uniform", "ns", Lower),
    ("noc.torus.mcycles_per_s.uniform", "Mcycles/s", Higher),
    ("noc.torus.tick_ns.idle", "ns", Lower),
    ("noc.torus.skip_ns_per_event", "ns", Lower),
    ("noc.packets", "count", Lower), // workload
    // core
    ("core.pe.tick_ns.scalar_loop", "ns", Lower),
    ("core.pe.tick_ns.vector_sp", "ns", Lower),
    ("core.system.naive.mcycles_per_s.bp", "Mcycles/s", Higher),
    ("core.system.naive.mcycles_per_s.cnn", "Mcycles/s", Higher),
    ("core.system.naive.mcycles_per_s.mlp", "Mcycles/s", Higher),
    ("core.system.naive.mcycles_per_s.chase", "Mcycles/s", Higher),
    ("core.system.event.mcycles_per_s.bp", "Mcycles/s", Higher),
    ("core.system.event.mcycles_per_s.cnn", "Mcycles/s", Higher),
    ("core.system.event.mcycles_per_s.mlp", "Mcycles/s", Higher),
    ("core.system.event.mcycles_per_s.chase", "Mcycles/s", Higher),
    (
        "core.system.functional.mcycles_per_s.bp",
        "Mcycles/s",
        Higher,
    ),
    (
        "core.system.functional.mcycles_per_s.cnn",
        "Mcycles/s",
        Higher,
    ),
    (
        "core.system.functional.mcycles_per_s.mlp",
        "Mcycles/s",
        Higher,
    ),
    (
        "core.system.functional.mcycles_per_s.chase",
        "Mcycles/s",
        Higher,
    ),
    ("core.system.event_over_naive.bp", "x", Higher),
    ("core.system.event_over_naive.cnn", "x", Higher),
    ("core.system.event_over_naive.mlp", "x", Higher),
    ("core.system.event_over_naive.chase", "x", Higher),
    ("core.system.ns_per_pe_cycle.4pe", "ns", Lower),
    ("core.system.ns_per_pe_cycle.16pe", "ns", Lower),
    ("core.system.shards2_over_serial.noc2v", "x", Higher),
    ("core.func.block_cache_hit_ratio.bp", "ratio", Higher),
    ("core.func.block_cache_hit_ratio.cnn", "ratio", Higher),
    ("core.func.block_cache_hit_ratio.mlp", "ratio", Higher),
    ("core.func.windows.bp", "count", Lower),
    ("core.func.windows.cnn", "count", Lower),
    ("core.func.windows.mlp", "count", Lower),
    ("core.func.accurate_cycle_share.bp", "ratio", Lower),
    ("core.func.accurate_cycle_share.cnn", "ratio", Lower),
    ("core.func.accurate_cycle_share.mlp", "ratio", Lower),
    ("core.snapshot.save_mb_per_s", "MB/s", Higher),
    ("core.snapshot.restore_mb_per_s", "MB/s", Higher),
    ("core.snapshot.bytes", "B", Lower),
    // snap / faults
    ("snap.codec.write_mb_per_s", "MB/s", Higher),
    ("snap.codec.read_mb_per_s", "MB/s", Higher),
    ("snap.crc32_mb_per_s", "MB/s", Higher),
    ("snap.scan_frames_mb_per_s", "MB/s", Higher),
    ("faults.crc32_mb_per_s", "MB/s", Higher),
    ("faults.secded_mword_per_s", "Mword/s", Higher),
    // serve
    ("serve.tiles.stage_ms.mlp", "ms", Lower),
    ("serve.tiles.stage_ms.cnn", "ms", Lower),
    ("serve.tiles.stage_ms.bp", "ms", Lower),
    ("serve.cache.hit_ns", "ns", Lower),
    ("serve.cache.miss_ms", "ms", Lower),
    ("serve.cache.hit_ratio", "ratio", Higher), // workload
    ("serve.dispatches", "count", Lower),       // workload
    ("serve.batches", "count", Higher),         // workload
    ("serve.preemptions", "count", Lower),      // workload
    ("serve.migrations", "count", Lower),       // workload
    ("serve.rejections", "count", Lower),       // workload
    ("serve.host_us_per_dispatch", "us", Lower), // workload
    ("serve.residual_share", "share", Lower),   // workload
    ("serve.durable.append_us", "us", Lower),
    ("serve.durable.checkpoint_ms", "ms", Lower),
    ("serve.durable.checkpoint_bytes", "B", Lower),
    ("serve.durable.load_ms", "ms", Lower),
    ("serve.durable.phaseA_s", "s", Lower),       // workload
    ("serve.durable.phaseB_s", "s", Lower),       // workload
    ("serve.durable.overhead_ratio", "x", Lower), // workload
    ("serve.chaos.retries", "count", Lower),      // workload
    ("serve.chaos.recovered", "count", Higher),   // workload
    ("serve.chaos.quarantines", "count", Lower),  // workload
    ("serve.chaos.failed", "count", Lower),       // workload
    // bench
    ("bench.sweep.serve_quick_s", "s", Lower),
    ("bench.sweep.chaos_quick_s", "s", Lower),
    ("bench.runner.atomic_write_us", "us", Lower),
    // harness (all workload): span self times per traced iteration,
    // failures, and the trace's own cost and coverage.
    ("span.stage_ms", "ms", Lower),
    ("span.load_program_ms", "ms", Lower),
    ("span.run_ms", "ms", Lower),
    ("span.read_back_ms", "ms", Lower),
    ("span.verify_ms", "ms", Lower),
    ("span.serve_ms", "ms", Lower),
    ("span.store_ms", "ms", Lower),
    ("failed_ops_pct", "%", Lower),
    ("trace_overhead_pct", "%", Lower),
    ("ledger_coverage_pct", "%", Higher),
    ("traced_iterations", "iters", Higher),
    // Fastest clock probe of the run: what `clock`'s reference should
    // read on this machine.
    ("harness.clock_ns_per_step", "ns", Lower),
];

/// The per-layer row each span name's self time is folded into.
pub const SPAN_ROWS: [(&str, &str); 11] = [
    ("kernels.stage", "span.stage_ms"),
    ("core.load_program", "span.load_program_ms"),
    ("core.run", "span.run_ms"),
    ("mem.read_back", "span.read_back_ms"),
    ("harness.verify", "span.verify_ms"),
    ("serve.serve", "span.serve_ms"),
    ("serve.durable_segment", "span.serve_ms"),
    ("serve.durable_result", "span.serve_ms"),
    ("serve.durable_reference", "span.serve_ms"),
    ("serve.store_open", "span.store_ms"),
    ("harness.cleanup", "span.store_ms"),
];

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
#[must_use]
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("string write");
    out.push_str("  \"workloads\": [\n");
    for (i, Spec { name, why, .. }) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        )
        .expect("string write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \
             \"bound\": {bound}}}{comma}",
            better.label()
        )
        .expect("string write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.label()
        )
        .expect("string write");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|(n, ..)| *n));
        names.extend(PER_LAYER.iter().map(|(n, ..)| *n));
        for name in &names {
            assert!(valid_name(name), "bad name {name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        for Spec { why, setups, .. } in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains(['\n', '"']));
            assert!(setups >= 3, "setup_s is the best of several set-ups");
        }
        let units = END_TO_END
            .iter()
            .map(|(_, u, ..)| *u)
            .chain(PER_LAYER.iter().map(|(_, u, _)| *u));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        for (name, _, _, bound) in END_TO_END {
            assert!((0.0..=0.25).contains(&bound), "{name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s", Lower, SETUP_BOUND)));
        assert!(END_TO_END.iter().all(|(.., bound)| *bound <= SETUP_BOUND));
        for (_, row) in SPAN_ROWS {
            assert!(PER_LAYER.iter().any(|(n, ..)| *n == row), "{row}");
        }
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let root = crate::workloads::repo_root().expect("repository root");
        let on_disk = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `vip-perf --benchmark-json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
