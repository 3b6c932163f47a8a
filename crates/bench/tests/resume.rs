//! Kill-and-resume smoke test: SIGKILL the sweep binary mid-run, resume
//! it, and the final report must be byte-identical to an uninterrupted
//! sweep — the crash-tolerance contract of the checkpointing runner.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sweep_args(dir: &Path, resume: bool) -> Vec<String> {
    let mut args = vec![
        "--dir".to_owned(),
        dir.display().to_string(),
        "--quick".to_owned(),
        "--checkpoint-every".to_owned(),
        "500".to_owned(),
    ];
    if resume {
        args.push("--resume".to_owned());
    }
    args
}

fn run_sweep(dir: &Path, resume: bool) {
    let status = Command::new(SWEEP)
        .args(sweep_args(dir, resume))
        .stdout(Stdio::null())
        .status()
        .expect("sweep binary runs");
    assert!(status.success(), "sweep exited with {status}");
}

fn has_checkpoint(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries
        .flatten()
        .any(|e| e.path().extension().is_some_and(|ext| ext == "ckpt"))
}

/// A `--resume` hit on a finished point must return the durable record
/// without re-preparing the point: the staging closure never runs on
/// the cached path (the fingerprint is supplied up front).
#[test]
fn resumed_point_skips_staging() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use vip_bench::experiments;
    use vip_bench::runner::Runner;
    use vip_mem::MemConfig;

    let dir = scratch_dir("stagecount");
    let runner = Runner::new(&dir).expect("runner dir").resume(true);
    let fingerprint =
        vip_core::SystemConfig::single_vault(MemConfig::baseline()).snapshot_fingerprint();
    let staged = AtomicUsize::new(0);
    let stage = || {
        staged.fetch_add(1, Ordering::Relaxed);
        experiments::fc_shape_tile_sim(MemConfig::baseline(), (256, 16))
    };

    let first = runner
        .run_point(
            "stage-count",
            "",
            fingerprint,
            vip_core::Engine::Fast,
            stage,
        )
        .expect("first run");
    assert!(!first.from_cache);
    assert_eq!(staged.load(Ordering::Relaxed), 1);

    let second = runner
        .run_point(
            "stage-count",
            "",
            fingerprint,
            vip_core::Engine::Fast,
            stage,
        )
        .expect("second run");
    assert!(second.from_cache, "second run must hit the .done record");
    assert_eq!(
        staged.load(Ordering::Relaxed),
        1,
        "cached point re-ran its staging closure"
    );
    assert_eq!(first.cycles, second.cycles);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_sweep_resumes_to_an_identical_report() {
    let clean = scratch_dir("clean");
    let killed = scratch_dir("killed");

    // Reference: an uninterrupted sweep.
    run_sweep(&clean, false);
    let clean_report = std::fs::read(clean.join("report.txt")).expect("clean report");

    // Victim: start the same sweep, wait for the first durable
    // checkpoint to land, then SIGKILL it mid-run.
    let mut child = Command::new(SWEEP)
        .args(sweep_args(&killed, false))
        .stdout(Stdio::null())
        .spawn()
        .expect("sweep binary spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if has_checkpoint(&killed) {
            break;
        }
        if child.try_wait().expect("child status").is_some() {
            // The sweep outran the poll and finished cleanly; the
            // resume below is then a no-op and the reports must still
            // match.
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared in 60s");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.kill(); // SIGKILL on unix: no destructors, no flushes
    let _ = child.wait();

    // Resume and compare against the uninterrupted run, byte for byte.
    run_sweep(&killed, true);
    let resumed_report = std::fs::read(killed.join("report.txt")).expect("resumed report");
    assert_eq!(
        resumed_report, clean_report,
        "resumed sweep's report differs from the uninterrupted run"
    );

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&killed);
}
