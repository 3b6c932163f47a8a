//! `tune` — parallel schedule autotuner over the kernel codegen knobs.
//!
//! Searches each dense timing tile's schedule space (BP, CNN, MLP) with
//! the successive-halving pipeline in [`vip_bench::autotune`]: seeded
//! sampling, functional-tier pruning rungs, cycle-accurate confirmation
//! of the survivors. Winning schedules land as JSON artifacts under
//! `--out` (loaded automatically by the default experiment stagers via
//! the configuration fingerprint) and the search summary as
//! `BENCH_autotune.json` under `--dir`.
//!
//! The search is deterministic for a fixed `--seed` regardless of
//! `--jobs`, and crash-tolerant: every point is durably recorded under
//! `--dir`, so a killed search rerun with `--resume` skips finished
//! points and emits byte-identical artifacts.

use std::path::PathBuf;
use std::time::Duration;

use vip_bench::autotune::{self, TuneConfig, TuneKernel};
use vip_bench::cli::Cli;
use vip_bench::runner::Runner;
use vip_mem::MemConfig;

fn main() {
    let mut cli = Cli::new(
        "tune",
        "[--jobs N] [--seed S] [--sample N] [--confirm N] [--dir <path>] \
         [--out <path>] [--budget-secs N] [--resume] [--kernel bp|cnn|mlp] [--quick]",
    );
    let mut cfg = TuneConfig::default();
    let mut dir = PathBuf::from("tune-out");
    let mut out = PathBuf::from("schedules");
    let mut budget: Option<Duration> = None;
    let mut resume = false;
    let mut kernels: Vec<TuneKernel> = TuneKernel::ALL.to_vec();
    let mut quick = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--jobs" => cfg.jobs = cli.value("--jobs"),
            "--seed" => cfg.seed = cli.value("--seed"),
            "--sample" => cfg.sample = cli.value("--sample"),
            "--confirm" => cfg.confirm = cli.value("--confirm"),
            "--dir" => dir = cli.value("--dir"),
            "--out" => out = cli.value("--out"),
            "--budget-secs" => budget = Some(Duration::from_secs(cli.value("--budget-secs"))),
            "--resume" => resume = true,
            "--kernel" => {
                let name: String = cli.value("--kernel");
                let kernel = TuneKernel::ALL
                    .into_iter()
                    .find(|k| k.label() == name)
                    .unwrap_or_else(|| {
                        eprintln!("--kernel: unknown kernel `{name}`");
                        cli.usage();
                    });
                kernels = vec![kernel];
            }
            "--quick" => quick = true,
            _ => cli.usage(),
        }
    }
    if quick {
        // CI smoke shape: a handful of points, one confirmation beyond
        // the default, still exercising every pipeline stage.
        cfg.sample = 6;
        cfg.confirm = 2;
    }
    cfg.mem = MemConfig::baseline();

    let runner = Runner::new(&dir)
        .expect("create tune dir")
        .budget(budget)
        .resume(resume);

    let mut results = Vec::new();
    for kernel in kernels {
        let res = autotune::tune_kernel(kernel, &cfg, &runner).expect("tune kernel");
        vip_kernels::schedule_store::save(&out, &res.key, res.fingerprint, &res.best)
            .expect("write schedule artifact");
        eprintln!(
            "{}: {} grid, {} searched, default {} cycles, best {} cycles ({:+.2}%) [{}]",
            res.kernel.label(),
            res.grid,
            res.searched,
            res.default_cycles,
            res.best_cycles,
            res.improvement() * 100.0,
            res.best.encoding(),
        );
        results.push(res);
    }

    let report = autotune::report_json(&cfg, &results);
    let path = runner
        .write_report("BENCH_autotune.json", &report)
        .expect("write report");
    println!("{}", path.display());
}
