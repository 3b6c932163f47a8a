//! # vip-serve — multi-tenant serving over a pool of simulated VIP devices
//!
//! The ROADMAP's production-scale serving layer: a deterministic
//! discrete-event request scheduler (hand-rolled executor, no async
//! runtime — determinism for a fixed seed is the house contract)
//! multiplexing seeded open- and closed-loop inference workloads over
//! a fleet of N independently simulated single-vault VIP devices.
//!
//! The pieces, bottom up:
//!
//! * the tiles themselves are not defined here: a request names a
//!   [`TileClass`] and every dispatch stages it through
//!   [`vip_kernels::tile`] — the same stager, schedule resolver and
//!   prepared-program cache ([`ProgramCache`]) the bench reports and
//!   the autotuner use — then advances the device in bounded quanta
//!   via [`Engine::advance`], so preemption decisions only ever
//!   happen at slice boundaries.
//! * [`workload`] — seeded request mixes and the open/closed load
//!   modes.
//! * [`scheduler`] — the discrete-event fleet executor: bounded
//!   admission queues with typed rejection, same-key batching,
//!   priority preemption via bit-exact snapshots, and migration of a
//!   parked job onto whichever device frees up first.
//! * [`chaos`] — the seeded failure model (fault-poisoned devices,
//!   induced hangs, crashes and decommissions) and the recovery
//!   policy's knobs: periodic checkpoints, bounded retry with backoff,
//!   quarantine behind health probes, deadlines, load shedding —
//!   plus the chaos sweep and `BENCH_chaos.json`.
//! * [`durable`] — host-crash durability: the CRC-framed write-ahead
//!   journal of scheduler events, whole-fleet checkpoints (device
//!   snapshots, queues, RNG cursors, cache keys), and the
//!   verified-replay resume behind `--resume` — a resumed run's
//!   report is byte-identical to an uninterrupted one's.
//! * [`fanout`] — the one host-thread fan-out: independent points on
//!   `--jobs` workers, results in input order. Host threads run
//!   across points, never inside a simulated cycle.
//! * [`metrics`] / [`sweep`] — per-request latency records, integer
//!   nearest-rank percentiles, availability and recovery summaries,
//!   the offered-load sweep, and the `BENCH_serving.json` report
//!   (byte-identical for a fixed seed at any `--jobs`).

pub mod chaos;
pub mod durable;
pub mod fanout;
pub mod metrics;
pub mod scheduler;
pub mod sweep;
pub mod workload;

pub use chaos::{
    chaos_gate, chaos_report_json, run_chaos_sweep, run_chaos_sweep_durable, ChaosConfig,
    ChaosPoint, ChaosStats, ChaosSweepConfig, FailureKind, Terminal,
};
pub use durable::{run_dir, DurableConfig, DurableError, LoadedPoint, PointStore};
pub use fanout::fan_out;
pub use scheduler::{
    serve, serve_durable, serve_durable_interrupted, Rejection, RequestRecord, ServeConfig,
    ServeOutcome,
};
pub use sweep::{gate, report_json, run_sweep, run_sweep_durable, SweepConfig, SweepPoint};
pub use vip_core::Engine;
pub use vip_kernels::cache::ProgramCache;
pub use vip_kernels::tile::{StagedJob, TileClass};
pub use workload::{LoadMode, MixEntry, Workload};
