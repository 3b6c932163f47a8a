//! `vip-perf` — the repository's host-performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload <name> [--seed 7] [--seconds 15] [--trace 0|1]
//! ```
//!
//! One invocation runs one workload. Untraced (`--trace 0`) it prints
//! every end-to-end metric; traced (`--trace 1`) it records a span
//! around every call the harness makes into a layer, runs the micro
//! ledger, prints every per-layer metric, and writes
//! `perf/out/<workload>.trace.json`. Either way the outputs of every
//! iteration are checked, the last line of standard output is one JSON
//! object, and the exit code is nonzero if a check failed.
//!
//! Everything is measured from outside: the harness only calls public
//! functions of the `vip-*` crates, on one host thread.

mod clock;
mod estimator;
mod ledger;
mod metrics;
mod serving;
mod tiles;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use clock::Sample;
use estimator::{percentile, piecewise_min, summarize, Summary};
use trace::Tracer;
use workloads::{Iter, Spec};

/// A run that has taken this many times `--seconds` over its timed
/// iterations stops short of its iteration count (and says so): the
/// host is far slower than the one the counts were sized on.
const OVERRUN: f64 = 1.6;

/// Simulated cycles per microsecond (the 1.25 GHz device clock).
const CYCLES_PER_US: f64 = vip_core::CLOCK_HZ / 1e6;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: vip-perf --workload <name> [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] | --benchmark-json";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 7,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--benchmark-json" => return Ok(None),
            "--workload" => out.workload = value("a name")?,
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if out.workload.is_empty() {
        return Err(USAGE.to_owned());
    }
    Ok(Some(out))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// What a measured run produced.
struct Measured {
    /// Every time the workload was set up, as a one-call iteration.
    setup: Vec<Vec<Sample>>,
    /// The calls of every untraced iteration.
    untraced: Vec<Vec<Sample>>,
    /// The calls of every traced iteration.
    traced: Vec<Vec<Sample>>,
    /// Untraced host seconds of each call of an iteration.
    call_s: Vec<f64>,
    reference: Iter,
    func_err_pct: f64,
    attempted: u64,
    /// Operations that failed a check: any makes the run incorrect.
    failed: u64,
    /// Requests chaos injection kept from being served: reported with
    /// the failed operations, expected, and no reason to fail the run.
    chaos_unserved: u64,
    workload: Box<dyn workloads::Workload>,
}

impl Measured {
    /// `host_s_per_iter`: the calls of an iteration, each at its best.
    fn host_s(&self) -> f64 {
        self.call_s.iter().sum()
    }
}

/// Sets the workload up its fixed number of times, one after the other
/// (the first set-up is the cold one, from process start; `setup_s` is
/// the best of all of them, like every host time here), runs the
/// reference iteration and the accuracy pass, then makes the workload's
/// fixed number of timed iterations. With tracing, odd iterations are
/// traced and even ones are not, so both kinds sample the same stretch
/// of host time.
fn measure(args: &Args, root: &Path, tr: &mut Tracer) -> Result<Measured, String> {
    let spec = Spec::named(&args.workload)?;
    let mut setup = Vec::with_capacity(spec.setups);
    let mut workload = None;
    for _ in 0..spec.setups {
        let (built, sample) =
            tr.timed_span("harness.setup", |_| workloads::build(spec, args.seed, root));
        // The previous workload goes only now. Its memory stays in the
        // allocator's free lists, and the iterations' machines are
        // carved from it: dropping it before the build makes
        // `tile_exact` read 5 % slower, pages then being faulted in
        // inside the timed calls.
        workload = Some(built);
        setup.push(vec![sample]);
    }
    let mut workload = workload.ok_or("a workload is set up at least once")?;

    // The reference iteration doubles as the warm-up: untimed, and
    // every later iteration must repeat its simulated results exactly.
    tr.set_enabled(false);
    let reference = workload.iterate(tr);
    let (mut attempted, mut failed) = (reference.attempted, reference.failed);
    let mut chaos_unserved = reference.chaos_unserved;
    let func_err_pct = workload.func_cycle_err_pct_abs(&reference)?;

    let iterations = spec.iterations(args.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0..iterations {
        if i >= 4 && start.elapsed().as_secs_f64() > OVERRUN * args.seconds {
            println!("stopped after {i} of {iterations} iterations: the host is too slow");
            break;
        }
        let trace_this = args.trace && i % 2 == 1;
        tr.set_enabled(trace_this);
        tr.set_iter(i64::try_from(i).expect("a run makes a few dozen iterations"));
        let it = tr.span("harness.iter", |tr| workload.iterate(tr));
        attempted += it.attempted + 1;
        failed += it.failed;
        chaos_unserved += it.chaos_unserved;
        if !it.same_simulation(&reference) {
            eprintln!("iteration {i} did not repeat the reference iteration's simulated results");
            failed += 1;
        }
        if trace_this {
            &mut traced
        } else {
            &mut untraced
        }
        .push(it.calls);
    }
    tr.set_enabled(args.trace);
    tr.set_iter(trace::NO_ITER);
    let call_s = piecewise_min(&untraced, reference.period)
        .ok_or("an iteration skipped part of its timed region")?;
    Ok(Measured {
        setup,
        untraced,
        traced,
        call_s,
        reference,
        func_err_pct,
        attempted,
        failed,
        chaos_unserved,
        workload,
    })
}

fn end_to_end(m: &Measured) -> Result<BTreeMap<&'static str, f64>, String> {
    let host = m.host_s();
    let setup = piecewise_min(&m.setup, 0).ok_or("no set-up was timed")?[0];
    let p99 = percentile(&m.reference.latencies, 99).ok_or("no operation completed")?;
    Ok(BTreeMap::from([
        ("setup_s", setup),
        ("host_s_per_iter", host),
        (
            "sim_mcycles_per_host_s",
            m.reference.sim_work_cycles as f64 / 1e6 / host,
        ),
        (
            "sim_minstr_per_host_s",
            m.reference.sim_instr as f64 / 1e6 / host,
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        ("sim_cycles", m.reference.sim_cycles as f64),
        ("func_cycle_err_pct_abs", m.func_err_pct),
        ("sim_p99_latency_us", p99 as f64 / CYCLES_PER_US),
    ]))
}

fn per_layer(
    args: &Args,
    root: &Path,
    m: &mut Measured,
    tr: &mut Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut rows = ledger::run(args.seed, root, tr)?;
    rows.extend(m.reference.rows.clone());
    rows.extend(m.workload.traced_rows(&m.reference, &m.call_s));

    let traced: f64 = piecewise_min(&m.traced, m.reference.period)
        .ok_or("a traced iteration skipped part of its timed region")?
        .iter()
        .sum();
    let spans = trace::ledger(tr.spans(), "harness.iter");
    for (span, row) in metrics::SPAN_ROWS {
        if let Some(ms) = spans.self_ms.get(span) {
            *rows.entry(row).or_default() += ms;
        }
    }
    rows.insert(
        "failed_ops_pct",
        (m.failed + m.chaos_unserved) as f64 / m.attempted as f64 * 100.0,
    );
    rows.insert("trace_overhead_pct", (traced / m.host_s() - 1.0) * 100.0);
    rows.insert("ledger_coverage_pct", spans.coverage_pct);
    rows.insert("traced_iterations", spans.iterations as f64);
    rows.insert("harness.clock_ns_per_step", clock::fastest_ns_per_step());
    Ok(rows)
}

fn summary_line(label: &str, unit: &str, s: &Summary) -> String {
    format!(
        "{label}: n {} min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} {unit}",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    )
}

/// Diagnostics beside the estimate: the raw wall seconds of whole
/// iterations, and the clock scale and steadiness of their calls.
fn print_host_diagnostics(label: &str, iters: &[Vec<Sample>]) {
    let wall: Vec<f64> = iters
        .iter()
        .map(|calls| calls.iter().map(|c| c.raw_s).sum())
        .collect();
    let calls: Vec<&Sample> = iters.iter().flatten().collect();
    let scale: Vec<f64> = calls.iter().map(|c| c.scale).collect();
    if let (Some(wall), Some(scale)) = (summarize(&wall), summarize(&scale)) {
        println!("{}", summary_line(&format!("{label} wall"), "s", &wall));
        println!(
            "{}; {} of {} calls straddled a clock flip",
            summary_line(&format!("{label} clock scale"), "x", &scale),
            calls.iter().filter(|c| !c.steady).count(),
            calls.len()
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let root = workloads::repo_root()?;
    let mut tr = if args.trace {
        Tracer::recording(1 << 16)
    } else {
        Tracer::disabled()
    };
    let mut m = measure(args, &root, &mut tr)?;

    let (values, table): (BTreeMap<&'static str, f64>, Vec<(&str, &str)>) = if args.trace {
        let rows = per_layer(args, &root, &mut m, &mut tr)?;
        let out = root.join("perf/out");
        std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
        let path = out.join(format!("{}.trace.json", args.workload));
        std::fs::write(&path, trace::chrome_trace_json(tr.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("trace: {} spans in {}", tr.spans().len(), path.display());
        let table = metrics::PER_LAYER
            .iter()
            .map(|(n, u, _)| (*n, *u))
            .collect();
        (rows, table)
    } else {
        let table = metrics::END_TO_END
            .iter()
            .map(|(n, u, ..)| (*n, *u))
            .collect();
        (end_to_end(&m)?, table)
    };
    if let Some(stray) = values.keys().find(|k| !table.iter().any(|(n, _)| n == *k)) {
        return Err(format!("`{stray}` is not a declared metric"));
    }

    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_host_diagnostics("setup", &m.setup);
    println!(
        "first set-up, the cold one from process start: {:.6} s",
        m.setup[0][0].scaled_s()
    );
    print_host_diagnostics("untraced iteration", &m.untraced);
    print_host_diagnostics("traced iteration", &m.traced);
    let call_ms: Vec<String> = m.call_s.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    println!("untraced calls at their best: [{}] ms", call_ms.join(", "));
    let lat = &m.reference.latencies;
    println!(
        "simulated latency: {} operations, p50 {} p90 {} p99 {} max {} cycles",
        lat.len(),
        percentile(lat, 50).unwrap_or(0),
        percentile(lat, 90).unwrap_or(0),
        percentile(lat, 99).unwrap_or(0),
        percentile(lat, 100).unwrap_or(0),
    );
    println!(
        "simulated cycles per unit of work: {:?}",
        m.reference.unit_cycles
    );
    println!(
        "operations: {} attempted, {} failed a check, {} requests left unserved by chaos injection \
         (failed_ops_pct {:.4})",
        m.attempted,
        m.failed,
        m.chaos_unserved,
        (m.failed + m.chaos_unserved) as f64 / m.attempted as f64 * 100.0
    );
    println!(
        "clock probe: fastest {:.4} ns per step, reference {} ns per step",
        clock::fastest_ns_per_step(),
        clock::REFERENCE_NS_PER_STEP
    );

    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        // Rows the workload does not exercise read 0.
        let value = values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        println!("{name:<44} {value:>18.6} {unit}");
        let comma = if i > 0 { ", " } else { "" };
        write!(
            json,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("string write");
    }
    // Only a failed check makes the run incorrect: terminal statuses
    // that chaos injection produced are counted, not judged.
    let correct = m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        m.attempted,
        m.failed + m.chaos_unserved
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: an output check did not pass (see above)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
