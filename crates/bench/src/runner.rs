//! Crash-tolerant experiment running: periodic snapshots, durable
//! per-point results, and resumable sweeps.
//!
//! Each experiment point is identified by a stable 64-bit hash of its
//! name and the structural configuration fingerprint
//! ([`SystemConfig::snapshot_fingerprint`]), and runs on the stepping
//! [`Engine`] its caller picks — cycle-accurate confirmations and the
//! autotuner's functional pruning rungs alike. The runner keeps two files
//! per point under its working directory:
//!
//! * `<hash>.done` — the finished (or degraded) result row, written
//!   once when the point leaves the runner;
//! * `<hash>.ckpt` — the latest mid-run [`System`] snapshot, rewritten
//!   every `checkpoint_every` simulated cycles and deleted once the
//!   point completes.
//!
//! Every file write goes through write-to-temp-then-rename
//! ([`atomic_write`]), so a crash or SIGKILL at any instant leaves
//! either the old file or the new one on disk, never a torn half-file.
//! A sweep re-run with [`Runner::resume`] skips points that already
//! have a `.done` record and picks interrupted points up from their
//! `.ckpt` snapshot; because a restored machine continues exactly as the
//! paused one would have on every engine, the resumed sweep's final
//! report is byte-identical to an uninterrupted one.
//!
//! A point that exhausts its per-point wall-clock budget (or its
//! simulated-cycle limit) degrades instead of aborting the sweep: the
//! runner prints the hang watchdog's structured report to stderr,
//! records a partial row, and moves on to the next point.
//!
//! [`SystemConfig::snapshot_fingerprint`]: vip_core::SystemConfig::snapshot_fingerprint

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vip_core::{Engine, RunOutcome, SimError, System, SystemStats};
use vip_snap::{read_header, write_header, Reader, Snapshot, Writer};

use crate::experiments::PreparedTile;

/// How a point left the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointStatus {
    /// The tile quiesced within all its budgets.
    Completed,
    /// The point hit its wall-clock or simulated-cycle budget (or a
    /// typed simulation error); the recorded row holds the partial
    /// counters at the moment it was abandoned.
    Degraded,
}

/// The durable outcome of one experiment point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point's sweep-unique name.
    pub name: String,
    /// Completed or degraded.
    pub status: PointStatus,
    /// Simulated cycles covered (to quiescence if completed).
    pub cycles: u64,
    /// Full statistics at that point.
    pub stats: SystemStats,
    /// Whether the result came from a prior run's `.done` record
    /// instead of a fresh simulation.
    pub from_cache: bool,
}

/// Stable identity of an experiment point: its name and full parameter
/// encoding hashed together with the structural configuration
/// fingerprint. Hashing the encoding too means two points that share a
/// name but differ in any schedule or sweep parameter never collide —
/// a `--resume` can't wrongly skip one on the strength of the other's
/// record. Each field is length-prefixed so `("ab", "c")` and
/// `("a", "bc")` hash differently.
#[must_use]
pub fn point_hash(name: &str, encoding: &str, fingerprint: u64) -> u64 {
    let mut bytes = Vec::with_capacity(name.len() + encoding.len() + 24);
    for field in [name, encoding] {
        bytes.extend_from_slice(&(field.len() as u64).to_le_bytes());
        bytes.extend_from_slice(field.as_bytes());
    }
    bytes.extend_from_slice(&fingerprint.to_le_bytes());
    vip_snap::hash_bytes(&bytes)
}

pub use vip_snap::atomic_write;

/// The checkpointing point runner. Construct with [`Runner::new`], then
/// configure with the builder-style setters.
#[derive(Debug, Clone)]
pub struct Runner {
    dir: PathBuf,
    checkpoint_every: u64,
    budget: Option<Duration>,
    resume: bool,
}

impl Runner {
    /// A runner keeping its durable state under `dir` (created if
    /// missing). Defaults: checkpoint every 1M simulated cycles, no
    /// wall-clock budget, no resume.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Runner {
            dir,
            checkpoint_every: 1_000_000,
            budget: None,
            resume: false,
        })
    }

    /// Simulated cycles between mid-run checkpoints; `0` disables
    /// checkpointing (the point runs straight to its limit).
    #[must_use]
    pub fn checkpoint_every(mut self, cycles: u64) -> Self {
        self.checkpoint_every = cycles;
        self
    }

    /// Per-point wall-clock budget. A point still running when it
    /// expires is abandoned with a structured hang report and a
    /// degraded row; the sweep continues.
    #[must_use]
    pub fn budget(mut self, budget: Option<Duration>) -> Self {
        self.budget = budget;
        self
    }

    /// Whether to reuse `.done` records and `.ckpt` snapshots left by a
    /// previous (possibly killed) run.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// The runner's durable-state directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn done_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.done"))
    }

    fn ckpt_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.ckpt"))
    }

    /// Runs one experiment point to completion (or degradation) on
    /// `engine`, checkpointing along the way. `fingerprint` is the structural
    /// configuration fingerprint of the system the point targets
    /// (callers have it from the config they stage with); passing it
    /// up front lets a `--resume` hit against the `.done` record
    /// return *before* `stage` runs, so cached points skip program
    /// preparation entirely. `stage` builds the point's
    /// [`PreparedTile`] — it is called once normally, and a second
    /// time only if a leftover checkpoint proves unreadable and the
    /// point must restart clean. `encoding` is the point's full
    /// parameter encoding (empty for points whose name alone is the
    /// identity); it is folded into the durable identity hash (see
    /// [`point_hash`]). The record does not name the engine: a caller
    /// running one point on two engines gives the two runs distinct
    /// names.
    ///
    /// # Errors
    ///
    /// Fails only on I/O errors against the runner's directory; every
    /// simulation failure degrades into a recorded partial row instead.
    ///
    /// # Panics
    ///
    /// Panics if the staged tile's configuration does not hash to
    /// `fingerprint` — that would silently divorce the durable record
    /// from the simulation it claims to describe.
    pub fn run_point(
        &self,
        name: &str,
        encoding: &str,
        fingerprint: u64,
        engine: Engine,
        stage: impl Fn() -> PreparedTile,
    ) -> io::Result<PointResult> {
        let hash = point_hash(name, encoding, fingerprint);
        let done_path = self.done_path(hash);
        let ckpt_path = self.ckpt_path(hash);

        if self.resume {
            if let Some((status, cycles, stats)) = read_done(&done_path, fingerprint) {
                return Ok(PointResult {
                    name: name.to_owned(),
                    status,
                    cycles,
                    stats,
                    from_cache: true,
                });
            }
        }

        let tile = stage();
        assert_eq!(
            tile.system().config().snapshot_fingerprint(),
            fingerprint,
            "point `{name}`: staged tile does not match the declared fingerprint"
        );
        let (mut sys, limit) = tile.into_system();
        if self.resume {
            if let Ok(bytes) = fs::read(&ckpt_path) {
                if let Err(e) = sys.restore_snapshot(&bytes) {
                    // A checkpoint from a different configuration (or a
                    // pre-atomic-write torn file) is discarded; the
                    // restore may have part-written the system, so
                    // restage from scratch.
                    eprintln!("point `{name}`: discarding unusable checkpoint ({e:?})");
                    let (fresh, _) = stage().into_system();
                    sys = fresh;
                }
            }
        }

        let started = Instant::now();
        loop {
            let pause_at = if self.checkpoint_every == 0 {
                limit
            } else {
                sys.now().saturating_add(self.checkpoint_every).min(limit)
            };
            match engine.advance(&mut sys, pause_at, limit) {
                Ok(RunOutcome::Quiesced(cycles)) => {
                    let stats = sys.stats();
                    self.write_done(&done_path, fingerprint, PointStatus::Completed, &stats)?;
                    let _ = fs::remove_file(&ckpt_path);
                    return Ok(PointResult {
                        name: name.to_owned(),
                        status: PointStatus::Completed,
                        cycles,
                        stats,
                        from_cache: false,
                    });
                }
                Ok(RunOutcome::Paused(_)) => {
                    atomic_write(&ckpt_path, &sys.save_snapshot())?;
                    if self
                        .budget
                        .is_some_and(|budget| started.elapsed() >= budget)
                    {
                        // Leave the checkpoint in place: a later run
                        // with a larger budget can pick the point up.
                        eprintln!(
                            "point `{name}`: wall-clock budget exhausted at cycle {}\n{}",
                            sys.now(),
                            sys.hang_report(limit)
                        );
                        return self.degrade(name, &done_path, fingerprint, &sys);
                    }
                }
                Err(err) => {
                    // Cycle-budget hangs carry the watchdog report;
                    // traps and delivery failures print their own
                    // diagnosis. Either way the sweep continues.
                    eprintln!("point `{name}`: simulation failed: {err}");
                    if !matches!(err, SimError::Hang(_)) {
                        let _ = fs::remove_file(&ckpt_path);
                    }
                    return self.degrade(name, &done_path, fingerprint, &sys);
                }
            }
        }
    }

    fn degrade(
        &self,
        name: &str,
        done_path: &Path,
        fingerprint: u64,
        sys: &System,
    ) -> io::Result<PointResult> {
        let stats = sys.stats();
        self.write_done(done_path, fingerprint, PointStatus::Degraded, &stats)?;
        Ok(PointResult {
            name: name.to_owned(),
            status: PointStatus::Degraded,
            cycles: sys.now(),
            stats,
            from_cache: false,
        })
    }

    fn write_done(
        &self,
        path: &Path,
        fingerprint: u64,
        status: PointStatus,
        stats: &SystemStats,
    ) -> io::Result<()> {
        let mut w = Writer::new();
        write_header(&mut w, fingerprint);
        w.bool(status == PointStatus::Completed);
        stats.save(&mut w);
        atomic_write(path, &w.into_bytes())
    }

    /// Atomically writes a sweep's final report file under the runner's
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure from the write or the rename.
    pub fn write_report(&self, file_name: &str, contents: &str) -> io::Result<PathBuf> {
        let path = self.dir.join(file_name);
        atomic_write(&path, contents.as_bytes())?;
        Ok(path)
    }
}

/// Reads a `.done` record back, tolerating absence and rejecting
/// records from another configuration (fingerprint mismatch) or with
/// any form of corruption.
fn read_done(path: &Path, fingerprint: u64) -> Option<(PointStatus, u64, SystemStats)> {
    let bytes = fs::read(path).ok()?;
    let mut r = Reader::new(&bytes);
    read_header(&mut r, fingerprint).ok()?;
    let status = if r.bool().ok()? {
        PointStatus::Completed
    } else {
        PointStatus::Degraded
    };
    let stats = SystemStats::restore(&mut r).ok()?;
    r.finish().ok()?;
    Some((status, stats.cycles, stats))
}
