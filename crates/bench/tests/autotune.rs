//! Autotuner contracts: the search result is a pure function of the
//! seed (thread count changes wall-clock, never the winner), and a
//! SIGKILLed search resumed with `--resume` emits byte-identical
//! schedule artifacts.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vip_bench::autotune::{tune_all, tune_kernel, TuneConfig, TuneKernel};
use vip_bench::runner::Runner;
use vip_core::SystemConfig;
use vip_kernels::schedule_store;

const TUNE: &str = env!("CARGO_BIN_EXE_tune");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-tune-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn jobs_do_not_change_the_search_result() {
    let cfg = TuneConfig {
        seed: 11,
        sample: 4,
        confirm: 1,
        ..TuneConfig::default()
    };

    let mut outcomes = Vec::new();
    for jobs in [1usize, 4] {
        let dir = scratch_dir(&format!("jobs{jobs}"));
        let runner = Runner::new(&dir).expect("runner dir");
        let cfg = TuneConfig {
            jobs,
            ..cfg.clone()
        };
        let res = tune_kernel(TuneKernel::Bp, &cfg, &runner).expect("search runs");
        outcomes.push((res.best, res.best_cycles, res.default_cycles, res.searched));
        let _ = std::fs::remove_dir_all(&dir);
    }

    assert_eq!(
        outcomes[0], outcomes[1],
        "jobs=4 found a different winner than jobs=1 for the same seed"
    );
}

/// Writer meets reader: the key and fingerprint `tune` files an
/// artifact under are the ones the stager looks it up by. A drift
/// between the two would not fail anything — it would quietly degrade
/// every tile to its default schedule.
#[test]
fn the_stager_resolves_what_the_tuner_writes() {
    let cfg = TuneConfig {
        seed: 11,
        sample: 4,
        confirm: 1,
        ..TuneConfig::default()
    };
    let machine = SystemConfig::single_vault(cfg.mem.clone());

    // A default that survives its search proves nothing here (the
    // fallback is the default too), so every kernel is searched and at
    // least one winner must differ from its default.
    let dir = scratch_dir("writer-reader");
    let out = scratch_dir("writer-reader-schedules");
    let runner = Runner::new(&dir).expect("runner dir");
    let results = tune_all(&cfg, &runner, &out).expect("search runs");
    assert!(results
        .iter()
        .any(|res| res.best != res.kernel.class().default_schedule()));
    for res in results {
        let class = res.kernel.class();
        assert_eq!(class.schedule(&machine, &out), res.best, "{}", res.key);
    }
    for dir in [&dir, &out] {
        let _ = std::fs::remove_dir_all(dir);
    }

    // The checked-in artifacts resolve; none falls back.
    let checked_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schedules");
    for kernel in TuneKernel::ALL {
        let class = kernel.class();
        let filed =
            schedule_store::load_from(&checked_in, &class.key(), machine.snapshot_fingerprint())
                .unwrap_or_else(|| panic!("no checked-in artifact for {}", class.key()));
        assert_eq!(class.validate(&machine, &filed), Ok(()), "{}", class.key());
        assert_eq!(class.schedule(&machine, &checked_in), filed);
    }
}

fn tune_args(dir: &Path, out: &Path, resume: bool) -> Vec<String> {
    let mut args = vec![
        "--quick".to_owned(),
        "--kernel".to_owned(),
        "bp".to_owned(),
        "--jobs".to_owned(),
        "2".to_owned(),
        "--dir".to_owned(),
        dir.display().to_string(),
        "--out".to_owned(),
        out.display().to_string(),
    ];
    if resume {
        args.push("--resume".to_owned());
    }
    args
}

fn run_tune(dir: &Path, out: &Path, resume: bool) {
    let status = Command::new(TUNE)
        .args(tune_args(dir, out, resume))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("tune binary runs");
    assert!(status.success(), "tune exited with {status}");
}

/// The single schedule artifact under `out`, as (file name, bytes).
fn artifact(out: &Path) -> (String, Vec<u8>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(out)
        .expect("artifact dir")
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 1, "expected exactly one schedule artifact");
    let name = entries[0]
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    (name, std::fs::read(&entries[0]).expect("artifact readable"))
}

fn has_done_record(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries
        .flatten()
        .any(|e| e.path().extension().is_some_and(|ext| ext == "done"))
}

#[test]
fn killed_tune_resumes_to_identical_artifacts() {
    let clean_dir = scratch_dir("clean");
    let clean_out = scratch_dir("clean-schedules");
    let killed_dir = scratch_dir("killed");
    let killed_out = scratch_dir("killed-schedules");

    // Reference: an uninterrupted search.
    run_tune(&clean_dir, &clean_out, false);
    let clean_artifact = artifact(&clean_out);

    // Victim: start the same search, wait for the first durable point
    // record, then SIGKILL it mid-search.
    let mut child = Command::new(TUNE)
        .args(tune_args(&killed_dir, &killed_out, false))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("tune binary spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if has_done_record(&killed_dir) {
            break;
        }
        if child.try_wait().expect("child status").is_some() {
            // The search outran the poll and finished cleanly; the
            // resume below is then a no-op and the artifacts must
            // still match.
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no point record appeared in 120s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.kill(); // SIGKILL on unix: no destructors, no flushes
    let _ = child.wait();

    // Resume and compare artifacts against the uninterrupted run,
    // byte for byte.
    run_tune(&killed_dir, &killed_out, true);
    let resumed_artifact = artifact(&killed_out);
    assert_eq!(
        resumed_artifact, clean_artifact,
        "resumed search's artifact differs from the uninterrupted run"
    );

    for dir in [&clean_dir, &clean_out, &killed_dir, &killed_out] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
