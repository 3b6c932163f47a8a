//! Mid-kernel save/restore must be invisible: a tile paused at cycle C,
//! snapshotted, restored onto a fresh machine, and run to completion
//! must be bit-identical — cycle count, every statistics counter, and
//! the full machine image — to the same tile run uninterrupted, under
//! each stepping engine and with live fault injection.

use vip_bench::experiments::{self, PreparedTile};
use vip_core::{Engine, RunOutcome, System, SystemConfig};
use vip_faults::{DramFaultConfig, FaultConfig, NocFaultConfig};
use vip_mem::MemConfig;
use vip_snap::Writer;

fn finish(sys: &mut System, limit: u64, engine: Engine) -> u64 {
    engine
        .run(sys, limit)
        .expect("tile quiesces within its limit")
}

/// Runs `stage`'s tile twice — once straight through, once paused at
/// `pause_at`, snapshotted, and restored onto a freshly staged machine
/// — and asserts the two end states are bit-identical.
fn assert_restore_is_invisible(
    stage: impl Fn() -> PreparedTile,
    pause_at: u64,
    engine: Engine,
    faults: Option<&FaultConfig>,
) {
    // Uninterrupted reference run.
    let (mut base, limit) = stage().into_system();
    if let Some(f) = faults {
        base.set_fault_config(f);
    }
    let base_cycles = finish(&mut base, limit, engine);
    let base_stats = base.stats();
    let base_image = base.save_snapshot();

    // Interrupted run: pause mid-kernel and snapshot.
    let (mut first, limit) = stage().into_system();
    if let Some(f) = faults {
        first.set_fault_config(f);
    }
    match Engine::Fast
        .advance(&mut first, pause_at, limit)
        .expect("paused run succeeds")
    {
        RunOutcome::Paused(_) => {}
        RunOutcome::Quiesced(c) => {
            panic!("tile quiesced at cycle {c}, before the mid-kernel pause at {pause_at}")
        }
    }
    let snapshot = first.save_snapshot();

    // Restore onto a fresh machine. The fault configuration travels in
    // the snapshot body, so the restore target does not set it.
    let (mut resumed, limit) = stage().into_system();
    resumed
        .restore_snapshot(&snapshot)
        .expect("snapshot restores onto an identically configured system");
    let cycles = finish(&mut resumed, limit, engine);

    assert_eq!(cycles, base_cycles, "quiesce cycle diverged after restore");
    assert_eq!(
        resumed.stats(),
        base_stats,
        "statistics diverged after restore"
    );
    assert_eq!(
        resumed.save_snapshot(),
        base_image,
        "final machine image diverged after restore"
    );
}

fn bp_tile() -> PreparedTile {
    experiments::bp_tile_sim(MemConfig::baseline(), 1)
}

fn cnn_tile() -> PreparedTile {
    experiments::conv_tile_sim(MemConfig::baseline(), 64, 8, 2)
}

fn mlp_tile() -> PreparedTile {
    experiments::fc_tile_sim(MemConfig::baseline())
}

#[test]
fn bp_tile_roundtrips_under_fast_forward() {
    assert_restore_is_invisible(bp_tile, 20_000, Engine::Fast, None);
}

#[test]
fn bp_tile_roundtrips_under_naive_stepping() {
    assert_restore_is_invisible(bp_tile, 20_000, Engine::Naive, None);
}

#[test]
fn cnn_tile_roundtrips_mid_kernel() {
    assert_restore_is_invisible(cnn_tile, 10_000, Engine::Fast, None);
}

#[test]
fn mlp_tile_roundtrips_mid_kernel() {
    assert_restore_is_invisible(mlp_tile, 10_000, Engine::Fast, None);
}

#[test]
fn bp_tile_roundtrips_with_live_faults() {
    // Nonzero rates on both protected layers: SECDED absorbs the DRAM
    // single-bit flips, CRC + retransmission absorbs the link hits, and
    // the interrupted run must see exactly the same faults as the
    // uninterrupted one.
    let faults = FaultConfig {
        dram: Some(DramFaultConfig {
            seed: 0xD12A_0001,
            single_bit_ppm: 200,
            double_bit_ppm: 0,
        }),
        noc: Some(NocFaultConfig {
            seed: 0xD12A_0002,
            corrupt_ppm: 100,
            drop_ppm: 0,
            max_retries: 8,
            backoff: 4,
        }),
        pe: None,
    };
    assert_restore_is_invisible(bp_tile, 20_000, Engine::Fast, Some(&faults));
}

/// Format anchor: the image's length and CRC-32 at two mid-kernel pause
/// points of the BP tile. The version 3 values were computed at the
/// commit before the vault queue was re-laid bank-major (`c06a880`);
/// `FORMAT_VERSION` 4 appended the functional tier's 25-byte
/// clock, so the image read back as version 3 (version word set back,
/// clock dropped) must still match them. A round trip only proves that
/// save and restore agree with each other; this proves the bytes are
/// still the ones older builds wrote — the queue in arrival order, the
/// completions in their `swap_remove` order. A change to the format
/// bumps `FORMAT_VERSION` and re-derives these.
#[test]
fn bp_tile_image_bytes_are_anchored() {
    // (pause cycle, queued transactions in the vault, bytes, CRC-32,
    // version 3 CRC-32)
    let anchors = [
        (20_000, 20, 425_346, 0x579f_fa60_u32, 0x1d55_8bf8_u32),
        (22_000, 32, 424_938, 0xfa19_de1a, 0xb64a_b7c5), // the queue is full
    ];
    for (pause_at, queued, bytes, crc, v3_crc) in anchors {
        let (mut sys, limit) = bp_tile().into_system();
        let outcome = Engine::Fast
            .advance(&mut sys, pause_at, limit)
            .expect("paused run succeeds");
        assert!(matches!(outcome, RunOutcome::Paused(_)), "{outcome:?}");
        assert_eq!(sys.hmc().pending(0), queued, "cycle {pause_at}");
        let image = sys.save_snapshot();
        assert_eq!(image.len(), bytes, "cycle {pause_at}");
        assert_eq!(
            vip_snap::crc32(&image),
            crc,
            "cycle {pause_at}: {:#010x}",
            vip_snap::crc32(&image)
        );
        let mut v3 = image[..bytes - 25].to_vec();
        v3[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            vip_snap::crc32(&v3),
            v3_crc,
            "cycle {pause_at} as version 3"
        );
    }
}

/// A machine image nested in a larger one (a fleet checkpoint) is
/// encoded once, in place, through `Writer::nested` and
/// `System::save_into` — to exactly the bytes of its `save_snapshot`
/// image written length-prefixed, between other fields. The machine is
/// a BP tile paused mid-run with transactions queued in its vault.
#[test]
fn a_nested_image_is_the_length_prefixed_snapshot() {
    for pause_at in [20_000, 22_000] {
        let (mut sys, limit) = bp_tile().into_system();
        let outcome = Engine::Fast
            .advance(&mut sys, pause_at, limit)
            .expect("paused run succeeds");
        assert!(matches!(outcome, RunOutcome::Paused(_)), "{outcome:?}");
        assert!(
            sys.hmc().pending(0) > 0,
            "cycle {pause_at}: no traffic in flight"
        );
        let mut copied = Writer::new();
        copied.u8(0xa5);
        copied.bytes(&sys.save_snapshot());
        copied.u8(0x5a);
        let mut in_place = Writer::new();
        in_place.u8(0xa5);
        in_place.nested(|w| sys.save_into(w));
        in_place.u8(0x5a);
        assert!(
            in_place.into_bytes() == copied.into_bytes(),
            "cycle {pause_at}: the nested image differs"
        );
    }
}

#[test]
fn restore_rejects_a_mismatched_configuration() {
    let (mut sys, _) = bp_tile().into_system();
    Engine::Fast
        .advance(&mut sys, 5_000, 80_000_000)
        .expect("runs");
    let snapshot = sys.save_snapshot();

    // Same tile on a different memory configuration: the structural
    // fingerprint differs, so restore must refuse with a typed error.
    let mut other = System::new(SystemConfig::single_vault(MemConfig::closed_page()));
    let err = other
        .restore_snapshot(&snapshot)
        .expect_err("fingerprint mismatch is rejected");
    assert!(
        matches!(err, vip_snap::SnapError::ConfigMismatch { .. }),
        "unexpected error: {err:?}"
    );
}
