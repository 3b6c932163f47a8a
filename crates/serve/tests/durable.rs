//! Durability conformance: a serving run that journals, checkpoints,
//! crashes, and resumes must produce an outcome **byte-identical** to
//! an uninterrupted run — and every corrupted-state path must resolve
//! to a typed recovery, never a panic and never silently wrong output.
//!
//! The in-process crash stand-in is `serve_durable_interrupted`, which
//! abandons the run at an exact settled-event boundary, leaving the
//! store as a host crash there would. Process-level SIGKILL coverage
//! (including kills *inside* checkpoint and journal writes) lives in
//! the bench crate's `serve_resume` test, which drives the real
//! binaries through the `VIP_DURABLE_CRASH` hook.

use std::path::{Path, PathBuf};

use vip_rng::SplitMix64;
use vip_serve::{
    chaos_report_json, report_json, run_chaos_sweep, run_chaos_sweep_durable, run_dir, run_sweep,
    run_sweep_durable, serve, serve_durable, serve_durable_interrupted, ChaosConfig,
    ChaosSweepConfig, DurableConfig, Engine, LoadMode, LoadedPoint, PointStore, ServeConfig,
    ServeOutcome, SweepConfig, Workload,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small fleet with slices short enough that jobs span several, so
/// checkpoints land mid-job and devices carry live state.
fn fleet(chaos: Option<ChaosConfig>) -> ServeConfig {
    ServeConfig {
        devices: 3,
        queue_depth: 8,
        quantum: 15_000,
        batch_max: 2,
        engine: Engine::Fast,
        chaos,
        ..ServeConfig::default()
    }
}

/// Chaos hot enough that a short run exercises crashes, hangs,
/// quarantines, and both recovery paths.
fn hot_chaos(seed: u64) -> ChaosConfig {
    let mut c = ChaosConfig::default_rates(seed);
    c.crash_ppm = 60_000;
    c.hang_ppm = 45_000;
    c.flaky_ppm = 500_000;
    if let Some(dram) = c.faults.dram.as_mut() {
        dram.single_bit_ppm = 100;
        dram.double_bit_ppm = 60;
    }
    c.checkpoint_every = 1;
    c.max_attempts = 6;
    c.retry_backoff = 10_000;
    c.quarantine = 50_000;
    c.probe_pass_ppm = 700_000;
    c
}

fn closed(seed: u64, requests: usize, clients: usize) -> Workload {
    Workload {
        seed,
        requests,
        mode: LoadMode::Closed {
            clients,
            think: 20_000,
        },
        mix: Workload::small_mix(),
    }
}

const FP: u64 = 0xd0d0_cafe_f00d_0001;

fn open_store(root: &Path) -> PointStore {
    PointStore::open(root, 0, FP).expect("open point store")
}

/// Files of point 0 in the run directory with the given extension.
fn point_files(root: &Path, ext: &str) -> Vec<String> {
    let dir = run_dir(root, FP);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().map(str::to_owned))
        .filter(|n| n.starts_with("p0") && n.ends_with(ext))
        .collect();
    names.sort();
    names
}

fn assert_identical(got: &ServeOutcome, want: &ServeOutcome, what: &str) {
    assert_eq!(got, want, "{what}: resumed outcome differs from reference");
}

#[test]
fn durable_run_matches_plain_serve_and_reloads_its_done_record() {
    let root = scratch("clean");
    let cfg = fleet(None);
    let wl = closed(0x51, 16, 4);
    let want = serve(&cfg, &wl);

    let mut store = open_store(&root);
    let got = serve_durable(&cfg, &wl, &mut store, 64).expect("durable run");
    assert_identical(&got, &want, "first durable run");

    // A finished point collapses to its done-record alone.
    assert_eq!(point_files(&root, ".done").len(), 1);
    assert!(point_files(&root, ".ckpt").is_empty());
    assert!(point_files(&root, ".journal").is_empty());

    // A rerun loads the done-record without recomputing.
    let mut store = open_store(&root);
    let again = serve_durable(&cfg, &wl, &mut store, 64).expect("done-record reload");
    assert_identical(&again, &want, "done-record reload");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chaos_durable_run_matches_plain_serve() {
    let root = scratch("chaos");
    let cfg = fleet(Some(hot_chaos(0xc4a0)));
    let wl = closed(0x31, 20, 6);
    let want = serve(&cfg, &wl);
    let mut store = open_store(&root);
    let got = serve_durable(&cfg, &wl, &mut store, 32).expect("durable chaos run");
    assert_identical(&got, &want, "chaos durable run");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_is_byte_identical_at_every_interrupt_point() {
    let cfg = fleet(Some(hot_chaos(0xc4a0)));
    let wl = closed(0x77, 14, 4);
    let want = serve(&cfg, &wl);
    // Interrupt points spanning mid-slice, checkpoint boundaries, and
    // well past the end of the run; cadence 0 is journal-only mode.
    for cadence in [16u64, 0] {
        for stop in [1u64, 3, 7, 16, 17, 48, 120, 250, 1_000, 100_000] {
            let root = scratch(&format!("stop-{cadence}-{stop}"));
            let mut store = open_store(&root);
            serve_durable_interrupted(&cfg, &wl, &mut store, cadence, stop)
                .expect("interrupted run");
            drop(store);
            let mut store = open_store(&root);
            let got = serve_durable(&cfg, &wl, &mut store, cadence).expect("resumed run");
            assert_identical(&got, &want, &format!("cadence {cadence}, stop {stop}"));
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

#[test]
fn chained_crashes_resume_to_the_same_bytes() {
    let cfg = fleet(Some(hot_chaos(0xdead)));
    let wl = closed(0x90, 14, 4);
    let want = serve(&cfg, &wl);
    let root = scratch("chained");
    // Die three times at increasing depths, then finish.
    for stop in [5u64, 40, 90] {
        let mut store = open_store(&root);
        serve_durable_interrupted(&cfg, &wl, &mut store, 16, stop).expect("interrupted run");
    }
    let mut store = open_store(&root);
    let got = serve_durable(&cfg, &wl, &mut store, 16).expect("final resume");
    assert_identical(&got, &want, "three chained crashes");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn gc_retains_exactly_one_checkpoint_generation() {
    let cfg = fleet(Some(hot_chaos(0xbeef)));
    let wl = closed(0x13, 14, 4);
    let want = serve(&cfg, &wl);
    let root = scratch("gc");
    let mut store = open_store(&root);
    serve_durable_interrupted(&cfg, &wl, &mut store, 16, 40).expect("interrupted run");
    drop(store);

    // Segment rotation is the GC: after 40 events at cadence 16, two
    // checkpoints were taken but only the newest generation survives —
    // one .ckpt and its one .journal segment, same ordinal, no .done.
    let ckpts = point_files(&root, ".ckpt");
    let journals = point_files(&root, ".journal");
    assert_eq!(
        ckpts.len(),
        1,
        "superseded checkpoints not pruned: {ckpts:?}"
    );
    assert_eq!(
        journals.len(),
        1,
        "superseded segments not pruned: {journals:?}"
    );
    assert_eq!(
        ckpts[0].trim_end_matches(".ckpt"),
        journals[0].trim_end_matches(".journal"),
        "checkpoint and journal generations disagree"
    );
    assert!(point_files(&root, ".done").is_empty());
    assert!(point_files(&root, ".tmp").is_empty());

    // And the retained set alone is sufficient to finish the run.
    let mut store = open_store(&root);
    let got = serve_durable(&cfg, &wl, &mut store, 16).expect("resume from retained set");
    assert_identical(&got, &want, "resume from GC-retained set");
    let _ = std::fs::remove_dir_all(&root);
}

/// Leaves an interrupted run in `root` and returns the paths of its
/// checkpoint and journal files. The stop point must land inside the
/// run (the small closed-loop workloads here settle ~60–80 events) so
/// the state genuinely represents a crash, not a finished point.
fn interrupted_state(
    root: &Path,
    cfg: &ServeConfig,
    wl: &Workload,
    stop: u64,
) -> (PathBuf, PathBuf) {
    let mut store = open_store(root);
    serve_durable_interrupted(cfg, wl, &mut store, 16, stop).expect("interrupted run");
    drop(store);
    assert!(
        point_files(root, ".done").is_empty(),
        "run finished before event {stop}; pick an earlier stop point"
    );
    let ckpts = point_files(root, ".ckpt");
    assert!(
        !ckpts.is_empty(),
        "no checkpoint landed before event {stop}"
    );
    let dir = run_dir(root, FP);
    let ckpt = dir.join(&ckpts[0]);
    let journal = dir.join(&point_files(root, ".journal")[0]);
    (ckpt, journal)
}

#[test]
fn torn_journal_tail_is_truncated_on_resume() {
    let cfg = fleet(Some(hot_chaos(0x70a0)));
    let wl = closed(0x21, 14, 4);
    let want = serve(&cfg, &wl);
    let root = scratch("torn");
    let (_, journal) = interrupted_state(&root, &cfg, &wl, 33);

    // A crash mid-append leaves half a frame: fake one by appending a
    // plausible-but-incomplete record.
    let mut bytes = std::fs::read(&journal).expect("journal bytes");
    bytes.extend_from_slice(&47u32.to_le_bytes()); // length prefix...
    bytes.extend_from_slice(&[0xAB; 10]); // ...but only 10 payload bytes
    std::fs::write(&journal, &bytes).expect("write torn journal");

    let mut store = open_store(&root);
    let got = serve_durable(&cfg, &wl, &mut store, 16).expect("resume over torn tail");
    assert_identical(&got, &want, "torn journal tail");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_checkpoint_is_detected_and_recomputed() {
    let cfg = fleet(Some(hot_chaos(0x0bad)));
    let wl = closed(0x42, 14, 4);
    let want = serve(&cfg, &wl);
    for flip_at_fraction in [0.1f64, 0.5, 0.9] {
        let root = scratch(&format!("ckpt-flip-{}", (flip_at_fraction * 10.0) as u32));
        let (ckpt, _) = interrupted_state(&root, &cfg, &wl, 33);
        let mut bytes = std::fs::read(&ckpt).expect("checkpoint bytes");
        let at = ((bytes.len() as f64) * flip_at_fraction) as usize;
        bytes[at] ^= 0x40;
        std::fs::write(&ckpt, &bytes).expect("write corrupt checkpoint");

        // The CRC frame catches the flip; the point resets and
        // recomputes to the exact reference bytes — no panic, no
        // silently wrong report.
        let mut store = open_store(&root);
        let got = serve_durable(&cfg, &wl, &mut store, 16).expect("recovery from corruption");
        assert_identical(&got, &want, "corrupt checkpoint");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn tampered_journal_record_diverges_and_recomputes() {
    let cfg = fleet(Some(hot_chaos(0x5afe)));
    let wl = closed(0x64, 14, 4);
    let want = serve(&cfg, &wl);
    let root = scratch("tamper");
    let (_, journal) = interrupted_state(&root, &cfg, &wl, 33);

    // Replace the journal tail with a *valid* CRC frame holding bogus
    // bytes: the CRC scan accepts it, so only replay verification can
    // catch it — as DurableError::Diverged, recovered by recompute.
    let header_len = vip_snap::JOURNAL_HEADER_LEN;
    let mut bytes = std::fs::read(&journal).expect("journal bytes");
    bytes.truncate(header_len);
    bytes.extend_from_slice(&vip_snap::frame(b"not a real scheduler event"));
    std::fs::write(&journal, &bytes).expect("write tampered journal");

    let mut store = open_store(&root);
    let got = serve_durable(&cfg, &wl, &mut store, 16).expect("recovery from divergence");
    assert_identical(&got, &want, "tampered journal record");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_mutation_fuzz_never_panics_and_never_serves_wrong_bytes() {
    let cfg = fleet(Some(hot_chaos(0xf022)));
    let wl = closed(0x08, 14, 4);
    let want = serve(&cfg, &wl);
    let root = scratch("fuzz");
    let (ckpt, journal) = interrupted_state(&root, &cfg, &wl, 33);
    let pristine_ckpt = std::fs::read(&ckpt).expect("checkpoint bytes");
    let pristine_journal = std::fs::read(&journal).expect("journal bytes");

    let mut rng = SplitMix64::new(0xfa22);
    for round in 0..150 {
        // Restore the pristine crash state, then corrupt the
        // checkpoint with 1–4 random byte mutations.
        std::fs::write(&ckpt, &pristine_ckpt).expect("reset checkpoint");
        std::fs::write(&journal, &pristine_journal).expect("reset journal");
        let mut bytes = pristine_ckpt.clone();
        for _ in 0..rng.usize_in(1..5) {
            let at = rng.usize_in(0..bytes.len());
            bytes[at] ^= (rng.next_u64() as u8) | 1;
        }
        std::fs::write(&ckpt, &bytes).expect("write mutated checkpoint");

        // Every mutation must resolve to the reference outcome: the
        // CRC frame rejects the corruption (or replay verification
        // catches the divergence) and the point recomputes.
        let mut store = open_store(&root);
        let got = serve_durable(&cfg, &wl, &mut store, 16)
            .unwrap_or_else(|e| panic!("round {round}: durable run failed: {e}"));
        assert_identical(&got, &want, &format!("fuzz round {round}"));
        // The recompute published a done-record; wipe it so the next
        // round exercises the corrupt-checkpoint path again.
        let dir = run_dir(&root, FP);
        let _ = std::fs::remove_file(dir.join("p0.done"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sweep_durable_report_matches_plain_sweep() {
    let root = scratch("sweep");
    let cfg = SweepConfig {
        serve: fleet(None),
        seed: 0xa11ce,
        requests: 10,
        think: 20_000,
        clients: vec![1, 2, 4],
        jobs: 2,
        mix: Workload::small_mix(),
    };
    let plain = run_sweep(&cfg);
    let durable = DurableConfig {
        dir: root.clone(),
        checkpoint_every: 64,
        resume: false,
    };
    let points = run_sweep_durable(&cfg, &durable).expect("durable sweep");
    assert_eq!(
        report_json(&cfg, &points),
        report_json(&cfg, &plain),
        "durable sweep report differs"
    );
    // Resuming a finished sweep replays done-records only.
    let resumed = run_sweep_durable(
        &cfg,
        &DurableConfig {
            resume: true,
            ..durable
        },
    )
    .expect("resumed sweep");
    assert_eq!(report_json(&cfg, &resumed), report_json(&cfg, &plain));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn chaos_sweep_durable_report_matches_plain_sweep() {
    let root = scratch("chaos-sweep");
    let cfg = ChaosSweepConfig {
        serve: fleet(Some(hot_chaos(0xbad5eed))),
        seed: 0xa11ce,
        requests: 10,
        clients: 4,
        think: 20_000,
        scales: vec![0, 100],
        jobs: 2,
        mix: Workload::small_mix(),
    };
    let plain = run_chaos_sweep(&cfg);
    let durable = DurableConfig {
        dir: root.clone(),
        checkpoint_every: 64,
        resume: false,
    };
    let points = run_chaos_sweep_durable(&cfg, &durable).expect("durable chaos sweep");
    assert_eq!(
        chaos_report_json(&cfg, &points),
        chaos_report_json(&cfg, &plain),
        "durable chaos sweep report differs"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Payloads for the checkpoint byte tests: odd lengths, so the torn
/// half of a frame ends mid-word.
fn ckpt_payload(seed: u64, len: usize) -> Vec<u8> {
    SplitMix64::new(seed).bytes(len)
}

/// A checkpoint file is its payload in one CRC frame, byte for byte —
/// `u32 len | u32 CRC-32(payload) | payload`, exactly what
/// `vip_snap::frame` builds — and `load` hands back the payload alone.
#[test]
fn a_checkpoint_file_is_its_payload_in_one_crc_frame() {
    let root = scratch("ckpt-bytes");
    let dir = run_dir(&root, FP);
    let mut store = open_store(&root);
    for (ordinal, len) in [(1, 0), (2, 1), (3, 7), (4, 65_537)] {
        let payload = ckpt_payload(ordinal, len);
        store.checkpoint(&payload).expect("checkpoint");
        let file = std::fs::read(dir.join(format!("p0-{ordinal}.ckpt"))).expect("checkpoint file");
        assert_eq!(file, vip_snap::frame(&payload), "{len}-byte payload");
        let mut reopened = open_store(&root);
        match reopened.load().expect("load") {
            LoadedPoint::Resume {
                ckpt: Some(ckpt), ..
            } => assert_eq!(ckpt, payload, "{len}-byte payload read back"),
            other => panic!("{len}-byte payload loaded as {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Where the crash child below keeps its store, set only in the child.
const CRASH_CHILD_ROOT: &str = "VIP_DURABLE_TEST_CRASH_ROOT";

/// `VIP_DURABLE_CRASH=ckpt:N` dies inside the Nth checkpoint write and
/// leaves the torn temporary a host death mid-write would: the first
/// half of the framed payload, and no renamed file. The hook aborts the
/// process, so the test runs its own binary again as the child that
/// crashes; the checkpoint before it stays whole.
#[test]
fn a_crash_inside_a_checkpoint_leaves_the_first_half_of_its_frame() {
    let first = ckpt_payload(0xc4a5_0001, 10_001);
    let second = ckpt_payload(0xc4a5_0002, 20_003);
    if let Ok(root) = std::env::var(CRASH_CHILD_ROOT) {
        let mut store = open_store(Path::new(&root));
        store.checkpoint(&first).expect("first checkpoint");
        store.checkpoint(&second).expect("second checkpoint");
        return; // the hook must have aborted inside the second
    }
    let root = scratch("ckpt-crash");
    let status = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([
            "--exact",
            "a_crash_inside_a_checkpoint_leaves_the_first_half_of_its_frame",
        ])
        .env(CRASH_CHILD_ROOT, &root)
        .env("VIP_DURABLE_CRASH", "ckpt:2")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("the test binary runs");
    assert!(!status.success(), "the crash hook did not fire ({status})");
    let dir = run_dir(&root, FP);
    let framed = vip_snap::frame(&second);
    let torn = std::fs::read(dir.join("p0-2.ckpt.tmp")).expect("torn temporary");
    assert_eq!(torn, framed[..framed.len() / 2], "the torn temporary");
    assert!(
        !dir.join("p0-2.ckpt").exists(),
        "the torn write was renamed"
    );
    let whole = std::fs::read(dir.join("p0-1.ckpt")).expect("the checkpoint before");
    assert_eq!(whole, vip_snap::frame(&first), "the checkpoint before");
    let _ = std::fs::remove_dir_all(&root);
}

/// An append with no open segment is a typed error, not a panic: before
/// `load` or `reset` opened one, and after `finish` closed it.
#[test]
fn appending_with_no_open_segment_is_a_typed_error() {
    let root = scratch("not-open");
    let mut store = open_store(&root);
    let not_open = |store: &mut PointStore| {
        matches!(
            store.append(b"admit 0"),
            Err(vip_serve::DurableError::NotOpen { .. })
        )
    };
    assert!(not_open(&mut store), "before load");
    store.load().expect("load");
    store.append(b"admit 0").expect("append after load");
    store.finish(b"outcome").expect("finish");
    assert!(not_open(&mut store), "after finish");
    let _ = std::fs::remove_dir_all(&root);
}
