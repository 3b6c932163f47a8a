//! The offered-load sweep and the `BENCH_serving.json` report.
//!
//! A sweep runs the same seeded closed-loop workload at increasing
//! client counts until (and past) fleet saturation, one independent
//! [`serve`] run per point. Points are embarrassingly parallel —
//! every run owns its devices and RNG streams — so they go through
//! [`fan_out`], which returns results in input order. Nothing in the
//! report depends on wall clock or thread count: the same seed and
//! config produce a byte-identical `BENCH_serving.json` at any `--jobs`.

use vip_snap::{Fingerprint, Snapshot, Writer};

use crate::durable::{DurableConfig, DurableError, PointStore};
use crate::fanout::fan_out;
use crate::metrics::{latency_summary, ms, throughput_rps, LatencySummary};
use crate::scheduler::{serve, serve_durable, ServeConfig, ServeOutcome};
use crate::workload::{LoadMode, MixEntry, Workload};

/// One sweep's shape.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Fleet and policy knobs shared by every point.
    pub serve: ServeConfig,
    /// Workload seed shared by every point.
    pub seed: u64,
    /// Requests per point.
    pub requests: usize,
    /// Mean closed-loop think time (cycles).
    pub think: u64,
    /// Client counts to sweep, in order.
    pub clients: Vec<usize>,
    /// Worker threads for the point fan-out (≥ 1; affects wall clock
    /// only, never results).
    pub jobs: usize,
    /// The request mix.
    pub mix: Vec<MixEntry>,
}

impl SweepConfig {
    /// The run fingerprint durable state is filed under: every
    /// result-affecting knob of the sweep, absorbed in declaration
    /// order. `jobs` is deliberately excluded — the fan-out width
    /// never changes results, so a resumed run may use a different
    /// one.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.push_bytes(b"serve-sweep");
        self.serve.absorb(&mut f);
        f.push_u64(self.seed);
        f.push_usize(self.requests);
        f.push_u64(self.think);
        f.push_usize(self.clients.len());
        for &c in &self.clients {
            f.push_usize(c);
        }
        f.push_usize(self.mix.len());
        for entry in &self.mix {
            let mut w = Writer::new();
            entry.class.save(&mut w);
            f.push_bytes(&w.into_bytes());
            f.push_u64(u64::from(entry.weight));
            f.push_u64(u64::from(entry.priority));
        }
        f.finish()
    }

    /// The closed-loop workload of the point with `clients` clients.
    fn workload(&self, clients: usize) -> Workload {
        Workload {
            seed: self.seed,
            requests: self.requests,
            mode: LoadMode::Closed {
                clients,
                think: self.think,
            },
            mix: self.mix.clone(),
        }
    }
}

/// One completed sweep point.
#[derive(Debug)]
pub struct SweepPoint {
    /// Concurrent clients at this point.
    pub clients: usize,
    /// The full serving outcome.
    pub outcome: ServeOutcome,
}

/// Runs every point of the sweep.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> Vec<SweepPoint> {
    fan_out(cfg.jobs, cfg.clients.len(), |i| {
        let clients = cfg.clients[i];
        let outcome = serve(&cfg.serve, &cfg.workload(clients));
        SweepPoint { clients, outcome }
    })
}

/// [`run_sweep`] with host-crash durability: each point journals its
/// scheduler events and checkpoints its fleet under
/// `run_dir(durable.dir, cfg.fingerprint())`, finished points collapse
/// to done-records, and with `durable.resume` set a rerun picks every
/// point up where the crash left it — producing results byte-identical
/// to an uninterrupted run. Without `resume`, prior state for this
/// configuration is wiped first.
///
/// # Errors
///
/// [`DurableError`] when the filesystem refuses a read or write
/// (corrupt or divergent persisted state is recovered by recomputing,
/// not reported).
pub fn run_sweep_durable(
    cfg: &SweepConfig,
    durable: &DurableConfig,
) -> Result<Vec<SweepPoint>, DurableError> {
    let fingerprint = cfg.fingerprint();
    durable.begin_run(fingerprint)?;
    fan_out(cfg.jobs, cfg.clients.len(), |i| {
        let clients = cfg.clients[i];
        let mut store = PointStore::open(&durable.dir, i, fingerprint)?;
        let every = durable.checkpoint_every;
        let outcome = serve_durable(&cfg.serve, &cfg.workload(clients), &mut store, every)?;
        Ok(SweepPoint { clients, outcome })
    })
    .into_iter()
    .collect()
}

fn point_json(p: &SweepPoint) -> String {
    let o = &p.outcome;
    let completed = o.records.iter().filter(|r| r.completion.is_some()).count();
    let lat = latency_summary(o).unwrap_or(LatencySummary {
        completed: 0,
        p50: 0,
        p99: 0,
        mean: 0,
        max: 0,
    });
    format!(
        "    {{\"clients\": {}, \"issued\": {}, \"completed\": {}, \"rejections\": {}, \
         \"throughput_rps\": {:.2}, \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"mean_ms\": {:.4}, \
         \"max_ms\": {:.4}, \"makespan_cycles\": {}, \"dispatches\": {}, \"batches\": {}, \
         \"preemptions\": {}, \"migrations\": {}, \"max_queue_depth\": [{}, {}], \
         \"cache_hits\": {}, \"cache_misses\": {}}}",
        p.clients,
        o.records.len(),
        completed,
        o.rejections,
        throughput_rps(o),
        ms(lat.p50),
        ms(lat.p99),
        ms(lat.mean),
        ms(lat.max),
        o.makespan,
        o.dispatches,
        o.batches,
        o.preemptions,
        o.migrations,
        o.max_queue_depth[0],
        o.max_queue_depth[1],
        o.cache_hits,
        o.cache_misses,
    )
}

/// Renders `BENCH_serving.json`. Deliberately free of wall-clock and
/// `jobs` fields so re-runs of the same seed/config are byte-identical
/// — the determinism gate diffs two of these.
#[must_use]
pub fn report_json(cfg: &SweepConfig, points: &[SweepPoint]) -> String {
    let entries: Vec<String> = points.iter().map(point_json).collect();
    format!(
        "{{\n  \"bench\": \"serving\",\n  \"unit_note\": \"closed-loop sweep over client \
         counts; latency percentiles are integer nearest-rank over per-request \
         arrival-to-completion cycles, converted to ms at the 1.25 GHz device clock; \
         throughput_rps = completed * clock_hz / makespan_cycles\",\n  \"seed\": {},\n  \
         \"engine\": \"{}\",\n  \"devices\": {},\n  \"queue_depth\": {},\n  \"quantum\": {},\n  \
         \"batch_max\": {},\n  \"requests_per_point\": {},\n  \"think_cycles\": {},\n  \
         \"points\": [\n{}\n  ]\n}}\n",
        cfg.seed,
        cfg.serve.engine.label(),
        cfg.serve.devices,
        cfg.serve.queue_depth,
        cfg.serve.quantum,
        cfg.serve.batch_max,
        cfg.requests,
        cfg.think,
        entries.join(",\n")
    )
}

/// The serve-smoke acceptance gate: every point completed its full
/// request count, throughput is nonzero everywhere, and the curve is
/// sane — the most-loaded point's throughput and p99 both at or above
/// the least-loaded point's (monotone-then-saturating load curve).
///
/// # Errors
///
/// Returns a human-readable description of the first violated
/// property.
pub fn gate(points: &[SweepPoint], requests: usize) -> Result<(), String> {
    if points.is_empty() {
        return Err("sweep produced no points".into());
    }
    for p in points {
        let completed = p
            .outcome
            .records
            .iter()
            .filter(|r| r.completion.is_some())
            .count();
        if completed != requests {
            return Err(format!(
                "point clients={} completed {completed}/{requests} requests",
                p.clients
            ));
        }
        if throughput_rps(&p.outcome) <= 0.0 {
            return Err(format!("point clients={} has zero throughput", p.clients));
        }
    }
    let first = points.first().expect("non-empty");
    let last = points.last().expect("non-empty");
    let (t0, t1) = (
        throughput_rps(&first.outcome),
        throughput_rps(&last.outcome),
    );
    if t1 < t0 {
        return Err(format!(
            "throughput fell under load: {t0:.2} rps at {} clients vs {t1:.2} rps at {}",
            first.clients, last.clients
        ));
    }
    let p99 = |p: &SweepPoint| latency_summary(&p.outcome).map_or(0, |l| l.p99);
    if p99(last) < p99(first) {
        return Err(format!(
            "p99 shrank under load: {} cycles at {} clients vs {} cycles at {}",
            p99(first),
            first.clients,
            p99(last),
            last.clients
        ));
    }
    Ok(())
}
