//! Format anchors for everything `vip-snap` puts on disk that
//! `snapshot_roundtrip::bp_tile_image_bytes_are_anchored` cannot see: a
//! multi-vault machine image with packets on the torus, a fleet
//! checkpoint with its journal segment and done-record, a bench-runner
//! `.done` row, the fault configuration's canonical encoding (which
//! names durable run directories) and an image of pages that hold a few
//! words each — plus the typed refusal of the previous version's files.
//!
//! A round trip only proves save and restore agree with each other;
//! these prove the bytes are still the ones `FORMAT_VERSION` 4 builds
//! write. Version 4 appended the functional tier's clock (25 B) to every
//! machine image and changed nothing else, so each image anchor also
//! checks that the image, read back as version 3 ([`as_v3`]), is the
//! bytes version 3 builds wrote; journal segments and done-records only
//! carry the new version word. Fleet checkpoints embed machine images
//! inside their own frame and were re-recorded. The version 3 values
//! were measured on the tree before the hand-written `Snapshot` impls
//! became `snapshot_struct!` / `snapshot_enum!` field lists — except
//! `p0-11.ckpt` and `p0-13.ckpt`, the two fleet checkpoints that hold a
//! BP program-cache key: they were re-recorded (+4 B each, `:it1`) when
//! that key gained the iteration count, a change of content, not of
//! format. A change to the format bumps `FORMAT_VERSION` and re-derives
//! them.

use std::path::{Path, PathBuf};

use vip_bench::experiments;
use vip_bench::runner::{point_hash, Runner};
use vip_core::{RunOutcome, System, SystemConfig};
use vip_faults::{DramFaultConfig, FaultConfig, NocFaultConfig, PeFaultConfig};
use vip_isa::{Asm, ElemType, Program, Reg, VerticalOp};
use vip_mem::MemConfig;
use vip_serve::{
    run_dir, serve, serve_durable, serve_durable_interrupted, ChaosConfig, Engine, LoadMode,
    PointStore, ServeConfig, Workload,
};
use vip_snap::{crc32, read_header, scan_frames, Reader, SnapError, Snapshot, Writer};

/// Bytes the functional tier's clock adds to the end of a machine image.
const CLOCK_BYTES: usize = 25;

/// `bytes` as a `FORMAT_VERSION` 3 build wrote them: the version word
/// set back and the trailing `clock` bytes dropped.
fn as_v3(bytes: &[u8], clock: usize) -> Vec<u8> {
    let mut old = bytes[..bytes.len() - clock].to_vec();
    old[8..12].copy_from_slice(&3u32.to_le_bytes());
    old
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-anchors-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every anchor pins `(length, CRC-32)`.
fn assert_sig(bytes: &[u8], want: (usize, u32), what: &str) {
    let got = (bytes.len(), crc32(bytes));
    assert_eq!(
        got, want,
        "{what}: got ({}, {:#010x}), anchored ({}, {:#010x})",
        got.0, got.1, want.0, want.1
    );
}

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Streams 1 KiB from `src` through the scratchpad to `dst`, twice, with
/// a vector op on the loaded range in between.
fn copy_through(src: u64, dst: u64) -> Program {
    let mut asm = Asm::new();
    asm.mov_imm(r(1), 0)
        .mov_imm(r(2), src as i64)
        .mov_imm(r(3), dst as i64)
        .mov_imm(r(4), 512)
        .mov_imm(r(5), 64)
        .set_vl(r(5))
        .mov_imm(r(6), 2048);
    for _ in 0..2 {
        asm.ld_sram(ElemType::I16, r(1), r(2), r(4))
            .vec_vec(VerticalOp::Add, ElemType::I16, r(6), r(1), r(1))
            .st_sram(ElemType::I16, r(1), r(3), r(4))
            .st_reg(r(4), r(3));
    }
    asm.memfence().halt();
    asm.assemble().expect("assembles")
}

/// Eight PEs over two vaults, every PE loading from the *other* vault
/// and storing back to it, with live link faults so flights carry retry
/// state: requests with and without payloads and completions all cross
/// the torus.
fn cross_vault_system() -> System {
    let cfg = SystemConfig::test_vaults(2);
    let mut sys = System::new(cfg.clone());
    for pe in 0..sys.total_pes() {
        let remote = cfg.mem.vault_base(1 - pe / cfg.pes_per_vault);
        let src = remote + 0x10_0000 + pe as u64 * 0x1_0000;
        for word in 0..128 {
            sys.hmc_mut()
                .host_write_u64(src + word * 8, (pe as u64) << 32 | word);
        }
        sys.load_program(pe, &copy_through(src, src + 0x8000));
    }
    sys.set_fault_config(&FaultConfig {
        dram: Some(DramFaultConfig {
            seed: 0xa11c_0001,
            single_bit_ppm: 300,
            double_bit_ppm: 0,
        }),
        noc: Some(NocFaultConfig {
            seed: 0xa11c_0002,
            corrupt_ppm: 40_000,
            drop_ppm: 10_000,
            max_retries: 32,
            backoff: 4,
        }),
        pe: Some(PeFaultConfig {
            seed: 0xa11c_0003,
            writeback_flip_ppm: 0,
        }),
    });
    sys
}

/// (a) A two-vault image paused with packets on the wire: torus
/// flights, `SysMsg` requests and completions, vault egress queues.
#[test]
fn multi_vault_image_with_flights_is_anchored() {
    // (pause cycle, (bytes, CRC-32), version 3 CRC-32)
    let anchors = [
        // Read requests going out, read data coming back.
        (150, (87_621, 0xb5cf_6fa3_u32), 0xe8d4_9af0_u32),
        // Write requests (payloads on the wire) and their acks.
        (1_550, (107_693, 0x8d1a_5e8c), 0x2a95_356c),
        // All four at once.
        (1_850, (118_076, 0x9717_3cb7), 0xd418_b7a5),
    ];
    for (pause_at, want, v3_crc) in anchors {
        let mut sys = cross_vault_system();
        let outcome = Engine::Fast
            .advance(&mut sys, pause_at, 200_000)
            .expect("paused run succeeds");
        assert!(matches!(outcome, RunOutcome::Paused(_)), "{outcome:?}");
        let noc = sys.stats().noc;
        assert!(
            noc.packets > noc.delivered,
            "cycle {pause_at}: nothing on the wire ({} injected, {} delivered)",
            noc.packets,
            noc.delivered
        );
        let image = sys.save_snapshot();
        assert_sig(&image, want, &format!("cycle {pause_at}"));
        assert_sig(
            &as_v3(&image, CLOCK_BYTES),
            (want.0 - CLOCK_BYTES, v3_crc),
            &format!("cycle {pause_at}, as version 3"),
        );
    }
    // The run they were cut from finishes, retries and all.
    let mut sys = cross_vault_system();
    sys.run(200_000).expect("quiesces");
    let stats = sys.stats();
    assert!(stats.noc.retries > 0, "no link fault ever fired");
    assert_eq!(stats.noc.packets, stats.noc.delivered);
}

/// (g) A machine image whose storage pages hold a few words each: the
/// latency chase's staging, one pointer per DRAM row and so one word per
/// 4 KiB page, plus a page that took 17 words one at a time, a page of
/// 16, and a zero-valued word alone on its page. Every page is on the
/// wire as its 4 KiB image, however the store holds it; pinned before
/// storage learned to keep such pages small.
#[test]
fn a_machine_image_of_sparse_pages_is_anchored() {
    let (mut sys, limit) =
        experiments::mem_latency_tile_sim(MemConfig::baseline(), 64).into_system();
    let far = 0x80_0000;
    for i in 0..17 {
        sys.hmc_mut().host_write_u64(far + i * 72, 0x5eed_0000 + i);
    }
    for i in 0..16 {
        sys.hmc_mut()
            .host_write_u64(far + 0x1000 + i * 8, i.wrapping_mul(0x9e37_79b9));
    }
    sys.hmc_mut().host_write_u64(far + 0x2ff8, 0);
    assert_sig(&sys.save_snapshot(), (296_281, 0xf32b_996a), "staged chase");
    sys.run(limit).expect("the chase quiesces");
    assert_sig(
        &sys.save_snapshot(),
        (296_289, 0x0bd8_c607),
        "finished chase",
    );
}

/// Chaos hot enough that a short run crashes, hangs, quarantines and
/// recovers both ways (the `durable` suite's setting).
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

/// Point 0's files in the run directory, by name.
fn point_files(root: &Path, fingerprint: u64) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(run_dir(root, fingerprint))
        .expect("run directory")
        .flatten()
        .map(|e| {
            let name = e.file_name().to_str().expect("utf-8 name").to_owned();
            (name, std::fs::read(e.path()).expect("readable"))
        })
        .collect();
    files.sort();
    files
}

/// The run directory fingerprint of the fleet anchors.
const FLEET_FP: u64 = 0xd0d0_cafe_f00d_0017;

/// The anchored chaos fleet and its workload, under an empty schedule
/// directory (so the bytes depend on neither the host path nor
/// `schedules/`), which the caller removes.
fn anchored_fleet(schedules: PathBuf) -> (ServeConfig, Workload) {
    let cfg = ServeConfig {
        devices: 3,
        queue_depth: 8,
        quantum: 15_000,
        batch_max: 2,
        engine: Engine::Fast,
        schedule_dir: schedules,
        chaos: Some(hot_chaos(0xc4a0)),
        ..ServeConfig::default()
    };
    let wl = Workload {
        seed: 0x77,
        requests: 48,
        mode: LoadMode::Closed {
            clients: 6,
            think: 20_000,
        },
        mix: Workload::small_mix(),
    };
    (cfg, wl)
}

/// (b) The fleet checkpoint, the journal segment behind it and the
/// done-record of a chaos run, under a constant store fingerprint.
#[test]
fn fleet_checkpoint_journal_and_done_record_are_anchored() {
    let schedules = scratch("schedules");
    let (cfg, wl) = anchored_fleet(schedules.clone());

    // (events settled at the interrupt, [(file, bytes, CRC-32)]); every
    // journal segment, read back as version 3, is 143 B with CRC-32
    // `V3_JOURNALS[i]`.
    type Files = &'static [(&'static str, usize, u32)];
    let anchors: [(u64, Files); 4] = [
        // Three devices mid-tile.
        (
            11,
            &[
                ("p0-1.ckpt", 189_747, 0x3108_d680),
                ("p0-1.journal", 143, 0xb9dc_05a0),
            ],
        ),
        // One device quarantined, two dead, a crashed job parked for a
        // restart, four requests queued.
        (
            83,
            &[
                ("p0-10.ckpt", 7_249, 0xc7a4_b452),
                ("p0-10.journal", 143, 0x72cc_ad5d),
            ],
        ),
        // A paused job carrying its periodic device checkpoint.
        (
            91,
            &[
                ("p0-11.ckpt", 524_565, 0x8c33_ac41),
                ("p0-11.journal", 143, 0x2205_8dad),
            ],
        ),
        // A machine-checked job parked on its device snapshot.
        (
            107,
            &[
                ("p0-13.ckpt", 523_349, 0x3040_ebb9),
                ("p0-13.journal", 143, 0x5c71_d904),
            ],
        ),
    ];
    const V3_JOURNALS: [u32; 4] = [0x1886_7911, 0xd396_d1ec, 0x835f_f11c, 0xfd2b_a5b5];
    for ((stop_after, want), v3_journal) in anchors.into_iter().zip(V3_JOURNALS) {
        let root = scratch(&format!("fleet-{stop_after}"));
        let mut store = PointStore::open(&root, 0, FLEET_FP).expect("open point store");
        serve_durable_interrupted(&cfg, &wl, &mut store, 8, stop_after).expect("interrupted run");
        let files = point_files(&root, FLEET_FP);
        let names: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        let want_names: Vec<&str> = want.iter().map(|(n, ..)| *n).collect();
        assert_eq!(names, want_names, "stop after {stop_after}");
        for ((name, bytes), &(_, len, crc)) in files.iter().zip(want) {
            assert_sig(
                bytes,
                (len, crc),
                &format!("stop after {stop_after}: {name}"),
            );
        }
        assert_sig(
            &as_v3(&files[1].1, 0),
            (143, v3_journal),
            &format!("stop after {stop_after}: journal as version 3"),
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    let root = scratch("fleet-done");
    let mut store = PointStore::open(&root, 0, FLEET_FP).expect("open point store");
    let outcome = serve_durable(&cfg, &wl, &mut store, 8).expect("durable run");
    assert!(
        outcome.chaos.recoveries_snapshot > 0 && outcome.chaos.quarantines > 0,
        "the run no longer exercises recovery: {:?}",
        outcome.chaos
    );
    let files = point_files(&root, FLEET_FP);
    assert_eq!(files.len(), 1, "a finished point is its done-record alone");
    assert_eq!(files[0].0, "p0.done");
    assert_sig(&files[0].1, (6_874, 0xd379_82ef), "p0.done");
    assert_sig(
        &as_v3(&files[0].1, 0),
        (6_874, 0xf48b_50b7),
        "p0.done as version 3",
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&schedules);
}

/// (c) A bench-runner `.done` row: header, status byte, `SystemStats`.
#[test]
fn bench_runner_done_record_is_anchored() {
    let dir = scratch("runner");
    let fingerprint = SystemConfig::single_vault(MemConfig::baseline()).snapshot_fingerprint();
    let result = Runner::new(&dir)
        .expect("runner dir")
        .run_point("anchor", "enc", fingerprint, Engine::Fast, || {
            experiments::fc_shape_tile_sim(MemConfig::baseline(), (256, 16))
        })
        .expect("point runs");
    assert!(!result.from_cache);
    let hash = point_hash("anchor", "enc", fingerprint);
    let done = std::fs::read(dir.join(format!("{hash:016x}.done"))).expect("done record");
    assert_sig(&done, (437, 0x236b_0faf), ".done record");
    assert_sig(
        &as_v3(&done, 0),
        (437, 0x83e1_ef59),
        ".done record as version 3",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d) `FaultConfig`'s canonical encoding, which `ServeConfig::absorb`
/// folds into the run fingerprint — i.e. into run-directory names.
#[test]
fn fault_config_encoding_is_anchored() {
    let encode = |f: &FaultConfig| {
        let mut w = Writer::new();
        f.save(&mut w);
        w.into_bytes()
    };
    assert_eq!(encode(&FaultConfig::disabled()), [0, 0, 0]);
    let all = FaultConfig {
        dram: Some(DramFaultConfig {
            seed: 0x0123_4567_89ab_cdef,
            single_bit_ppm: 250,
            double_bit_ppm: 7,
        }),
        noc: Some(NocFaultConfig {
            seed: 0xfeed_f00d_dead_beef,
            corrupt_ppm: 1_000,
            drop_ppm: 20,
            max_retries: 9,
            backoff: 0x1_0000_0003,
        }),
        pe: Some(PeFaultConfig {
            seed: 42,
            writeback_flip_ppm: 999_999,
        }),
    };
    let bytes = encode(&all);
    assert_sig(&bytes, (59, 0x15e7_f32d), "all three injectors");
    // Spelled out once, so the anchor is readable: presence byte, then
    // the section's fields little-endian in declaration order.
    assert_eq!(bytes[0], 1);
    assert_eq!(bytes[1..9], 0x0123_4567_89ab_cdef_u64.to_le_bytes());
    assert_eq!(bytes[9..13], 250_u32.to_le_bytes());
    assert_eq!(bytes[13..17], 7_u32.to_le_bytes());
    assert_eq!(bytes[17], 1);
    assert_eq!(bytes[46], 1);
    assert_eq!(bytes[55..59], 999_999_u32.to_le_bytes());
}

/// (e) A `FORMAT_VERSION` 3 image of a fresh single-vault machine (no
/// storage pages, hence small), written by a version 3 build: restore
/// refuses it with a typed error before touching the machine, and it is
/// exactly what this build writes for that machine, read back as
/// version 3.
#[test]
fn a_version_3_machine_image_is_refused_with_a_typed_error() {
    const V3_IMAGE: &[u8] = include_bytes!("data/single_vault_v3.snap");
    let cfg = SystemConfig::single_vault(MemConfig::baseline());
    let fresh = System::new(cfg.clone()).save_snapshot();
    let mut sys = System::new(cfg);
    assert_eq!(
        sys.restore_snapshot(V3_IMAGE),
        Err(SnapError::BadVersion {
            found: 3,
            expected: 4
        })
    );
    assert_eq!(sys.save_snapshot(), fresh, "a refused restore wrote state");
    assert_eq!(as_v3(&fresh, CLOCK_BYTES), V3_IMAGE);
}

/// (f) A version 3 fleet checkpoint left in a point store — the anchored
/// run's `p0-10.ckpt`, as a version 3 build wrote it. Its CRC frame is
/// intact, so only its header can refuse it: the resume takes the typed
/// corruption path, wipes the point and recomputes it from scratch.
#[test]
fn a_version_3_fleet_checkpoint_is_recomputed_not_resumed() {
    const V3_CKPT: &[u8] = include_bytes!("data/fleet_v3.ckpt");
    let scan = scan_frames(V3_CKPT);
    assert_eq!((scan.frames.len(), scan.valid_len), (1, V3_CKPT.len()));
    assert_eq!(
        read_header(&mut Reader::new(scan.frames[0]), FLEET_FP),
        Err(SnapError::BadVersion {
            found: 3,
            expected: 4
        })
    );

    let schedules = scratch("schedules-v3");
    let (cfg, wl) = anchored_fleet(schedules.clone());
    let root = scratch("fleet-v3");
    let dir = run_dir(&root, FLEET_FP);
    std::fs::create_dir_all(&dir).expect("run directory");
    std::fs::write(dir.join("p0-10.ckpt"), V3_CKPT).expect("plant the checkpoint");
    let mut store = PointStore::open(&root, 0, FLEET_FP).expect("open point store");
    let got = serve_durable(&cfg, &wl, &mut store, 8).expect("recomputed, not fatal");
    assert_eq!(got, serve(&cfg, &wl));
    let files = point_files(&root, FLEET_FP);
    assert_eq!(
        files.len(),
        1,
        "the stale checkpoint outlived the recompute"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&schedules);
}
