//! Host-crash durability: the write-ahead journal and whole-fleet
//! checkpoint store behind `serve --resume`.
//!
//! The scheduler is a pure function of its seed and configuration, so
//! durability here is *verified replay* rather than command sourcing:
//! every settled event appends one CRC-framed record (its ordinal,
//! fleet time, kind, and a digest of the fleet state it left behind)
//! to a journal segment, and every `checkpoint_every` events the whole
//! fleet — device snapshots, queues, parked jobs, RNG cursors, the
//! program cache's key set, the partial outcome — is written to a
//! `.ckpt` file with write-then-rename ([`vip_snap::atomic_write_parts`]:
//! the frame head, then the encoded fleet, never a framed copy of it).
//! On resume, the latest valid checkpoint restores the fleet and the
//! journal tail is replayed: the scheduler re-executes each event and
//! byte-compares what it produced against the recorded frame, so a
//! stale or foreign journal surfaces as [`DurableError::Diverged`]
//! instead of silently wrong output. A torn final record — the crash
//! landed mid-append — is truncated at the last intact CRC frame.
//!
//! Layout, under a run directory keyed by the sweep configuration's
//! fingerprint (`run-<fp>/`): point `i` at checkpoint ordinal `n` owns
//! `p{i}-{n}.ckpt` plus journal segment `p{i}-{n}.journal` holding the
//! events settled *after* that checkpoint; ordinal 0 is the fresh
//! start (no `.ckpt`). Writing checkpoint `n+1` rotates to segment
//! `n+1` and prunes ordinal `n` — segment rotation *is* the journal's
//! garbage collection, so disk usage is one checkpoint plus one
//! partial segment per point. A finished point collapses to a single
//! `p{i}.done` record holding its encoded outcome.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use vip_snap::{
    atomic_write, atomic_write_parts, frame, frame_head, journal_header, read_journal_header,
    scan_frames, tmp_sibling, SnapError, FRAME_OVERHEAD,
};

/// Where and how often durable serving persists its state.
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Root directory for run directories (one per config fingerprint).
    pub dir: PathBuf,
    /// Whole-fleet checkpoint cadence in settled events (`0` journals
    /// without checkpoints; resume then replays from the start).
    pub checkpoint_every: u64,
    /// Continue from persisted state when present. When `false`, any
    /// prior state for this configuration is wiped first.
    pub resume: bool,
}

impl DurableConfig {
    /// Readies the run directory filed under `fingerprint` for a sweep:
    /// unless resuming, whatever an earlier run of this configuration
    /// left there is wiped.
    pub(crate) fn begin_run(&self, fingerprint: u64) -> Result<(), DurableError> {
        if self.resume {
            return Ok(());
        }
        let dir = run_dir(&self.dir, fingerprint);
        match fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                Err(io_err("wipe run directory", &dir, e))
            }
            _ => Ok(()),
        }
    }
}

/// Why a durable serving run could not complete. Every corrupted-input
/// failure decodes to one of these — never a panic.
#[derive(Debug)]
pub enum DurableError {
    /// The filesystem refused an operation.
    Io {
        /// What was being attempted.
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A checkpoint or done-record failed to decode (bad header, torn
    /// body, invariant violation).
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// The typed decode failure.
        source: SnapError,
    },
    /// Replay produced a record that differs from the journal — the
    /// persisted state belongs to a different run or configuration.
    Diverged {
        /// Ordinal of the first mismatching event.
        event: u64,
    },
    /// A journal append came before [`PointStore::load`] or
    /// [`PointStore::reset`] opened a segment, or after
    /// [`PointStore::finish`] closed it.
    NotOpen {
        /// The segment the record was meant for.
        path: PathBuf,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { op, path, source } => {
                write!(f, "cannot {op} {}: {source}", path.display())
            }
            DurableError::Corrupt { path, source } => {
                write!(f, "corrupt durable state in {}: {source}", path.display())
            }
            DurableError::Diverged { event } => {
                write!(
                    f,
                    "journal diverged from replay at event {event} (state from a \
                     different run?)"
                )
            }
            DurableError::NotOpen { path } => {
                write!(
                    f,
                    "cannot append to {}: no journal segment is open",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Corrupt { source, .. } => Some(source),
            DurableError::Diverged { .. } | DurableError::NotOpen { .. } => None,
        }
    }
}

fn io_err(op: &'static str, path: &Path, source: io::Error) -> DurableError {
    DurableError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// The run directory for one configuration fingerprint under `root`.
#[must_use]
pub fn run_dir(root: &Path, fingerprint: u64) -> PathBuf {
    root.join(format!("run-{fingerprint:016x}"))
}

/// What [`PointStore::load`] found on disk for a point.
#[derive(Debug)]
pub enum LoadedPoint {
    /// The point already finished; the encoded outcome.
    Done(Vec<u8>),
    /// The point is fresh or was interrupted.
    Resume {
        /// Latest valid checkpoint bytes, if one was taken.
        ckpt: Option<Vec<u8>>,
        /// Journal frames settled after that checkpoint, torn tail
        /// already truncated.
        journal: Vec<Vec<u8>>,
    },
}

/// Durable state for one sweep point: its checkpoint files, its
/// journal segments, and its done-record, all under one run directory.
#[derive(Debug)]
pub struct PointStore {
    dir: PathBuf,
    idx: usize,
    fingerprint: u64,
    ordinal: u64,
    journal: Option<fs::File>,
}

impl PointStore {
    /// Opens (creating the run directory if needed) the store for
    /// point `idx` of the run fingerprinted `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] if the directory cannot be created.
    pub fn open(root: &Path, idx: usize, fingerprint: u64) -> Result<Self, DurableError> {
        let dir = run_dir(root, fingerprint);
        fs::create_dir_all(&dir).map_err(|e| io_err("create run directory", &dir, e))?;
        Ok(PointStore {
            dir,
            idx,
            fingerprint,
            ordinal: 0,
            journal: None,
        })
    }

    /// The run fingerprint this store was opened with.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The run directory holding this point's files.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub(crate) fn done_path(&self) -> PathBuf {
        self.dir.join(format!("p{}.done", self.idx))
    }

    fn ckpt_path(&self, ordinal: u64) -> PathBuf {
        self.dir.join(format!("p{}-{}.ckpt", self.idx, ordinal))
    }

    fn segment_path(&self, ordinal: u64) -> PathBuf {
        self.dir.join(format!("p{}-{}.journal", self.idx, ordinal))
    }

    /// The path of the latest checkpoint file (for error reports).
    #[must_use]
    pub fn latest_ckpt_path(&self) -> PathBuf {
        self.ckpt_path(self.ordinal)
    }

    /// File names `p{idx}-<ordinal>.<ext>` for this point, parsed.
    fn ordinals_on_disk(&self, ext: &str) -> Result<Vec<u64>, DurableError> {
        let prefix = format!("p{}-", self.idx);
        let suffix = format!(".{ext}");
        let mut found = Vec::new();
        let entries =
            fs::read_dir(&self.dir).map_err(|e| io_err("list run directory", &self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list run directory", &self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(mid) = name
                .strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(&suffix))
            {
                if let Ok(n) = mid.parse::<u64>() {
                    found.push(n);
                }
            }
        }
        found.sort_unstable();
        Ok(found)
    }

    /// Removes every file of this point except checkpoint + segment
    /// `keep` (pass `None` to remove everything, done-record included).
    /// Best-effort: a file another pruner already removed is fine.
    fn prune_except(&self, keep: Option<u64>) -> Result<(), DurableError> {
        for ext in ["ckpt", "journal"] {
            for n in self.ordinals_on_disk(ext)? {
                if Some(n) != keep {
                    let path = match ext {
                        "ckpt" => self.ckpt_path(n),
                        _ => self.segment_path(n),
                    };
                    let _ = fs::remove_file(path);
                }
            }
        }
        // Leftover temporaries from a crash mid-checkpoint-write.
        let prefix = format!("p{}", self.idx);
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if let Some(name) = name.to_str() {
                    if name.starts_with(&prefix) && name.ends_with(".tmp") {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }
        if keep.is_none() {
            let _ = fs::remove_file(self.done_path());
        }
        Ok(())
    }

    /// Creates (truncating) segment `ordinal` with a journal header and
    /// leaves it open for appends.
    fn fresh_segment(&mut self, ordinal: u64) -> Result<(), DurableError> {
        let path = self.segment_path(ordinal);
        let mut file = fs::File::create(&path).map_err(|e| io_err("create journal", &path, e))?;
        file.write_all(&journal_header(self.fingerprint))
            .map_err(|e| io_err("write journal header", &path, e))?;
        self.ordinal = ordinal;
        self.journal = Some(file);
        Ok(())
    }

    /// Loads whatever this point left behind: its done-record, or the
    /// latest valid checkpoint plus the journal tail (torn final frame
    /// truncated away), or nothing. Superseded checkpoint ordinals and
    /// stray temporaries are pruned here, so resume only ever depends
    /// on the retained set. Leaves the journal open for appends.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] on filesystem failures;
    /// [`DurableError::Corrupt`] if the latest checkpoint's CRC frame
    /// fails to validate. Unreadable journal *content* is not an
    /// error: the checkpoint is authoritative and a segment that lost
    /// its header is recreated empty.
    pub fn load(&mut self) -> Result<LoadedPoint, DurableError> {
        let done = self.done_path();
        match fs::read(&done) {
            Ok(bytes) => return Ok(LoadedPoint::Done(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("read done record", &done, e)),
        }
        let latest = self.ordinals_on_disk("ckpt")?.last().copied();
        self.prune_except(Some(latest.unwrap_or(0)))?;
        let ordinal = latest.unwrap_or(0);
        let ckpt = match latest {
            None => None,
            Some(n) => {
                let path = self.ckpt_path(n);
                let mut raw = fs::read(&path).map_err(|e| io_err("read checkpoint", &path, e))?;
                // A checkpoint is one CRC frame; anything else — torn,
                // bit-flipped, trailing garbage — is typed corruption
                // (the caller recovers by resetting and recomputing).
                let scan = scan_frames(&raw);
                if scan.frames.len() != 1 || scan.valid_len != raw.len() {
                    return Err(DurableError::Corrupt {
                        path,
                        source: SnapError::Corrupt("checkpoint is not one intact CRC frame"),
                    });
                }
                // The payload stays in the buffer it was read into.
                raw.drain(..FRAME_OVERHEAD);
                Some(raw)
            }
        };
        let seg_path = self.segment_path(ordinal);
        let journal = match fs::read(&seg_path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Crash between checkpoint rename and segment creation.
                self.fresh_segment(ordinal)?;
                Vec::new()
            }
            Err(e) => return Err(io_err("read journal", &seg_path, e)),
            Ok(bytes) => match read_journal_header(&bytes, self.fingerprint) {
                Err(_) => {
                    // The segment never got a whole header (or belongs
                    // to another build): the checkpoint still holds the
                    // authoritative state, so restart the segment.
                    self.fresh_segment(ordinal)?;
                    Vec::new()
                }
                Ok(start) => {
                    let scan = scan_frames(&bytes[start..]);
                    let frames: Vec<Vec<u8>> = scan.frames.iter().map(|f| f.to_vec()).collect();
                    // Append mode: writes land past the valid prefix
                    // even after the torn-tail truncation below.
                    let file = fs::OpenOptions::new()
                        .append(true)
                        .open(&seg_path)
                        .map_err(|e| io_err("open journal", &seg_path, e))?;
                    if scan.torn {
                        // The torn-tail rule: truncate at the last
                        // intact CRC frame.
                        file.set_len((start + scan.valid_len) as u64)
                            .map_err(|e| io_err("truncate journal", &seg_path, e))?;
                    }
                    self.ordinal = ordinal;
                    self.journal = Some(file);
                    frames
                }
            },
        };
        Ok(LoadedPoint::Resume { ckpt, journal })
    }

    /// Appends one CRC-framed record to the open journal segment.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] if the write fails;
    /// [`DurableError::NotOpen`] if no [`PointStore::load`] (or
    /// [`PointStore::reset`]) opened a segment.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        let framed = frame(payload);
        let path = self.segment_path(self.ordinal);
        let Some(file) = self.journal.as_mut() else {
            return Err(DurableError::NotOpen { path });
        };
        let nth = APPENDS.fetch_add(1, Ordering::Relaxed) + 1;
        if crash_armed(CrashPoint::Journal, nth) {
            // Simulated host death mid-append: half a frame reaches the
            // disk, then the process dies without unwinding.
            let _ = file.write_all(&framed[..framed.len() / 2]);
            let _ = file.sync_all();
            std::process::abort();
        }
        file.write_all(&framed)
            .map_err(|e| io_err("append journal record", &path, e))?;
        if crash_armed(CrashPoint::Event, nth) {
            // Simulated host death between records: the frame is whole.
            let _ = file.sync_all();
            std::process::abort();
        }
        Ok(())
    }

    /// Writes checkpoint `ordinal + 1` atomically (write-then-rename,
    /// the body wrapped in one CRC frame so corruption is detectable),
    /// rotates the journal to a fresh segment, and prunes the
    /// superseded checkpoint and segment. The frame's head and `bytes`
    /// go to the file one after the other: the payload is never copied.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] if any write fails, or if `bytes` is too
    /// long for a frame's `u32` length.
    pub fn checkpoint(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let next = self.ordinal + 1;
        let path = self.ckpt_path(next);
        let head = frame_head(bytes).ok_or_else(|| {
            let too_long = io::Error::new(io::ErrorKind::InvalidInput, "over u32::MAX bytes");
            io_err("frame checkpoint", &path, too_long)
        })?;
        let nth = CKPTS.fetch_add(1, Ordering::Relaxed) + 1;
        if crash_armed(CrashPoint::Ckpt, nth) {
            // Simulated host death mid-checkpoint: a torn temporary, the
            // first half of `head ‖ bytes`, is left behind; the rename
            // never happens. Joining the two costs nothing here: the
            // process dies next.
            let framed = [&head[..], bytes].concat();
            let _ = fs::write(tmp_sibling(&path), &framed[..framed.len() / 2]);
            std::process::abort();
        }
        atomic_write_parts(&path, &[&head, bytes])
            .map_err(|e| io_err("write checkpoint", &path, e))?;
        self.fresh_segment(next)?;
        self.prune_except(Some(next))
    }

    /// Publishes the point's encoded outcome as its done-record and
    /// removes the now-superseded checkpoint and journal files.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] if the write fails.
    pub fn finish(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let path = self.done_path();
        atomic_write(&path, bytes).map_err(|e| io_err("write done record", &path, e))?;
        self.journal = None;
        self.prune_except(Some(u64::MAX))?;
        Ok(())
    }

    /// Wipes every file of this point and reopens fresh at ordinal 0 —
    /// the recovery of last resort when persisted state is corrupt or
    /// diverged.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] if the fresh segment cannot be created.
    pub fn reset(&mut self) -> Result<(), DurableError> {
        self.journal = None;
        self.prune_except(None)?;
        self.fresh_segment(0)
    }
}

/// Where the `VIP_DURABLE_CRASH` hook can kill the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    /// After the Nth whole journal append (clean inter-record kill).
    Event,
    /// During the Nth checkpoint write (torn temporary).
    Ckpt,
    /// During the Nth journal append (torn frame).
    Journal,
}

static APPENDS: AtomicU64 = AtomicU64::new(0);
static CKPTS: AtomicU64 = AtomicU64::new(0);

fn crash_spec() -> Option<(CrashPoint, u64)> {
    static SPEC: OnceLock<Option<(CrashPoint, u64)>> = OnceLock::new();
    *SPEC.get_or_init(|| {
        let raw = std::env::var("VIP_DURABLE_CRASH").ok()?;
        let (kind, n) = raw.split_once(':')?;
        let n: u64 = n.parse().ok()?;
        let point = match kind {
            "event" => CrashPoint::Event,
            "ckpt" => CrashPoint::Ckpt,
            "journal" => CrashPoint::Journal,
            _ => return None,
        };
        Some((point, n))
    })
}

/// The crash-injection hook the durability integration tests use:
/// `VIP_DURABLE_CRASH=event:N|ckpt:N|journal:N` aborts the process at
/// the Nth occurrence of that point (1-based, process-wide — run the
/// fan-out with `--jobs 1` for a deterministic kill site).
fn crash_armed(point: CrashPoint, nth: u64) -> bool {
    crash_spec() == Some((point, nth))
}
