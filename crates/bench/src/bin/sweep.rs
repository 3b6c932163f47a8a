//! A crash-tolerant, resumable tile sweep.
//!
//! Runs a fixed list of independent-tile simulations through the
//! checkpointing [`runner`](vip_bench::runner) and writes a final
//! `report.txt` atomically into the sweep directory. Kill it at any
//! point — including with SIGKILL — and a re-run with `--resume` skips
//! finished points, restores interrupted ones from their latest
//! checkpoint, and produces a report byte-identical to an
//! uninterrupted run.
//!
//! Flags:
//!
//! * `--dir <path>` — sweep working directory (default `sweep-out`)
//! * `--checkpoint-every <cycles>` — simulated cycles between mid-run
//!   snapshots; `0` disables checkpointing (default `1000000`)
//! * `--resume` — reuse records and checkpoints from a previous run
//! * `--budget-secs <s>` — per-point wall-clock budget; a point still
//!   running when it expires is recorded as a partial row (with the
//!   hang watchdog's report on stderr) and the sweep moves on
//! * `--quick` — a smaller point list for smoke tests

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use vip_bench::cli::Cli;
use vip_bench::experiments::{self, PreparedTile};
use vip_bench::runner::{PointStatus, Runner};
use vip_core::{Engine, SystemConfig};
use vip_mem::MemConfig;

type Stage = Box<dyn Fn() -> PreparedTile>;

fn points(quick: bool) -> Vec<(&'static str, Stage)> {
    let mut pts: Vec<(&'static str, Stage)> = vec![
        (
            "fc-tile",
            Box::new(|| experiments::fc_tile_sim(MemConfig::baseline())),
        ),
        (
            "conv-tile-c4",
            Box::new(|| experiments::conv_tile_sim(MemConfig::baseline(), 4, 8, 8)),
        ),
        (
            "mem-latency-chase",
            Box::new(|| experiments::mem_latency_tile_sim(MemConfig::baseline(), 512)),
        ),
    ];
    if !quick {
        pts.push((
            "bp-tile-1iter",
            Box::new(|| experiments::bp_tile_sim(MemConfig::baseline(), 1)),
        ));
        pts.push((
            "conv-tile-c64",
            Box::new(|| experiments::conv_tile_sim(MemConfig::baseline(), 64, 8, 2)),
        ));
    }
    pts
}

fn main() {
    let mut cli = Cli::new(
        "sweep",
        "[--dir <path>] [--checkpoint-every <cycles>] [--resume] [--budget-secs <s>] [--quick]",
    );
    let mut dir = PathBuf::from("sweep-out");
    let mut checkpoint_every = 1_000_000u64;
    let mut resume = false;
    let mut budget_secs: Option<u64> = None;
    let mut quick = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--dir" => dir = cli.value("--dir"),
            "--checkpoint-every" => checkpoint_every = cli.value("--checkpoint-every"),
            "--resume" => resume = true,
            "--budget-secs" => budget_secs = Some(cli.value("--budget-secs")),
            "--quick" => quick = true,
            _ => cli.usage(),
        }
    }

    let runner = Runner::new(&dir)
        .expect("create sweep directory")
        .checkpoint_every(checkpoint_every)
        .budget(budget_secs.map(Duration::from_secs))
        .resume(resume);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{:<20} {:>8} {:>14} {:>12}",
        "point", "status", "cycles", "bw (GB/s)"
    );
    let mut degraded = 0usize;
    // Every point stages against the baseline single-vault config, so
    // one fingerprint identifies them all — computed up front so
    // resumed points skip staging entirely.
    let fingerprint = SystemConfig::single_vault(MemConfig::baseline()).snapshot_fingerprint();
    for (name, stage) in points(quick) {
        let res = runner
            .run_point(name, "", fingerprint, Engine::Fast, stage)
            .expect("sweep directory writable");
        let status = match res.status {
            PointStatus::Completed => "ok",
            PointStatus::Degraded => "partial",
        };
        if res.status == PointStatus::Degraded {
            degraded += 1;
        }
        let cached = if res.from_cache { "  (cached)" } else { "" };
        println!("{name}: {status}, {} cycles{cached}", res.cycles);
        let _ = writeln!(
            report,
            "{:<20} {:>8} {:>14} {:>12.3}",
            name,
            status,
            res.cycles,
            res.stats.bandwidth_gbs()
        );
    }
    let path = runner
        .write_report("report.txt", &report)
        .expect("report written");
    println!("report: {}", path.display());
    if degraded > 0 {
        println!("{degraded} point(s) degraded; partial rows recorded");
    }
}
