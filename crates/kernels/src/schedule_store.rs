//! The checked-in schedule artifact store.
//!
//! The autotuner (`vip-bench`'s `autotune` module) emits its best
//! schedule per (kernel shape, arch config) as a JSON file under
//! `schedules/`; the one tile stager ([`crate::tile::TileClass`]) looks
//! those artifacts up at staging time and falls back to the hand-picked
//! default when no valid artifact matches
//! ([`TileClass::schedule`](crate::tile::TileClass::schedule) is the
//! only reader). Files are keyed by the kernel's shape string and
//! the structural configuration fingerprint
//! (`vip_core::SystemConfig::snapshot_fingerprint`):
//!
//! ```text
//! schedules/fc-2048x64-00a1b2c3d4e5f607.json
//! ```
//!
//! so a schedule tuned for one machine shape can never be applied to
//! another. The JSON payload is a [`Schedule`] artifact
//! ([`Schedule::to_json`]) — deterministic field order and byte-stable
//! re-serialization, which is what lets a resumed search re-emit
//! byte-identical artifacts.

use std::io;
use std::path::{Path, PathBuf};

use crate::cnn::{ConvLayer, FcLayer};
use crate::schedule::Schedule;

/// Environment variable overriding the artifact directory.
pub const DIR_ENV: &str = "VIP_SCHEDULE_DIR";

/// The artifact directory: `$VIP_SCHEDULE_DIR` if set, else
/// `schedules` relative to the working directory.
#[must_use]
pub fn dir() -> PathBuf {
    std::env::var_os(DIR_ENV).map_or_else(|| PathBuf::from("schedules"), PathBuf::from)
}

/// Shape key for a fully-connected tile.
#[must_use]
pub fn fc_key(layer: &FcLayer) -> String {
    format!("fc-{}x{}", layer.inputs, layer.outputs)
}

/// Shape key for a convolution tile.
#[must_use]
pub fn conv_key(layer: &ConvLayer) -> String {
    format!(
        "conv-{}x{}x{}x{}",
        layer.in_channels, layer.out_channels, layer.width, layer.height
    )
}

/// Shape key for a BP grid.
#[must_use]
pub fn bp_key(width: usize, height: usize, labels: usize) -> String {
    format!("bp-{width}x{height}x{labels}")
}

/// File name of the artifact for `key` under configuration
/// `fingerprint`.
#[must_use]
pub fn artifact_name(key: &str, fingerprint: u64) -> String {
    format!("{key}-{fingerprint:016x}.json")
}

/// Loads the schedule artifact for `(key, fingerprint)` from `from`,
/// returning `None` when the file is absent, unreadable, malformed, or
/// names a different kernel family than its key prefix.
#[must_use]
pub fn load_from(from: &Path, key: &str, fingerprint: u64) -> Option<Schedule> {
    let text = std::fs::read_to_string(from.join(artifact_name(key, fingerprint))).ok()?;
    let sched = Schedule::from_json(&text).ok()?;
    key.starts_with(sched.kernel()).then_some(sched)
}

/// Atomically writes the artifact for `(key, fingerprint)` into `into`
/// (created if missing) and returns its path.
///
/// # Errors
///
/// Propagates any I/O failure from the directory creation or write.
pub fn save(into: &Path, key: &str, fingerprint: u64, sched: &Schedule) -> io::Result<PathBuf> {
    std::fs::create_dir_all(into)?;
    let path = into.join(artifact_name(key, fingerprint));
    vip_snap::atomic_write(&path, sched.to_json().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FcSchedule, Schedule};

    #[test]
    fn save_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("vip-schedules-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sched = Schedule::Fc(FcSchedule {
            kc: 128,
            mr: 8,
            rc_block: 2,
            pes: 4,
        });
        let key = "fc-2048x64";
        let path = save(&dir, key, 0xfeed, &sched).expect("artifact written");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "fc-2048x64-000000000000feed.json"
        );
        assert_eq!(load_from(&dir, key, 0xfeed), Some(sched));
        // Wrong fingerprint or key: no artifact.
        assert_eq!(load_from(&dir, key, 0xbeef), None);
        assert_eq!(load_from(&dir, "fc-2048x256", 0xfeed), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn family_mismatch_is_rejected() {
        let dir = std::env::temp_dir().join(format!("vip-schedules-mm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sched = Schedule::Fc(FcSchedule::default());
        // An FC schedule stored under a bp- key loads as None.
        save(&dir, "bp-64x32x16", 7, &sched).expect("artifact written");
        assert_eq!(load_from(&dir, "bp-64x32x16", 7), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
