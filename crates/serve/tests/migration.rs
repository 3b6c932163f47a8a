//! Preempt-via-snapshot migration conformance.
//!
//! For every tile class and every stepping engine: running a request in
//! slices on one device must be indistinguishable from parking it as a
//! snapshot after every slice and restoring it onto the other of two
//! devices — a brand-new one first, then each time the one it left.
//! Results, quiesce cycle and every timing counter must agree on all
//! three engines, under the functional tier's default knobs and under
//! short ones that put many timing windows into each slice.

use vip_core::{FuncConfig, RunOutcome, System, SystemConfig, SystemStats};
use vip_mem::MemConfig;
use vip_serve::{Engine, ProgramCache, TileClass};

/// Device slice length, the serving benchmark's: every tile spans at
/// least two slices on every engine.
const SLICE: u64 = 5_000;

fn classes() -> Vec<TileClass> {
    vec![
        TileClass::Mlp {
            inputs: 2048,
            outputs: 64,
        },
        TileClass::Cnn {
            in_channels: 16,
            out_channels: 16,
            filters_per_group: 8,
        },
        TileClass::Bp {
            width: 32,
            height: 32,
            labels: 16,
            iters: 1,
        },
    ]
}

struct Finished {
    blobs: Vec<Vec<u8>>,
    slices: usize,
    stats: SystemStats,
    snapshot: Vec<u8>,
}

/// Runs `class` in `SLICE`-cycle slices to quiescence. With `migrate`,
/// every pause parks the job as a snapshot and restores it onto the
/// other device before the next slice.
fn run_sliced(
    engine: Engine,
    class: TileClass,
    cfg: &SystemConfig,
    knobs: FuncConfig,
    migrate: bool,
) -> Finished {
    let dir = std::env::temp_dir().join("vip-serve-missing-schedules");
    let mut staged = class.stage(cfg, 1, &dir, &ProgramCache::new());
    staged.load_programs();
    let mut devices = [staged.sys, System::new(cfg.clone())];
    for dev in &mut devices {
        dev.set_func_config(knobs);
    }
    let (mut on, mut slices) = (0, 0);
    loop {
        let pause_at = devices[on].now() + SLICE;
        let out = engine
            .advance(&mut devices[on], pause_at, staged.limit)
            .expect("tile completes");
        slices += 1;
        match out {
            RunOutcome::Quiesced(_) => break,
            RunOutcome::Paused(_) if migrate => {
                let parked = devices[on].save_snapshot();
                on = 1 - on;
                devices[on]
                    .restore_snapshot(&parked)
                    .expect("same fingerprint restores");
            }
            RunOutcome::Paused(_) => {}
        }
    }
    let dev = &devices[on];
    Finished {
        blobs: staged.reader.read(dev.hmc()),
        slices,
        stats: dev.stats(),
        snapshot: dev.save_snapshot(),
    }
}

/// `stats` less the functional tier's three decode-cache counters, which
/// count what each restore decoded afresh.
fn timing(mut stats: SystemStats) -> SystemStats {
    stats.func.blocks_decoded = 0;
    stats.func.block_cache_hits = 0;
    stats.func.block_cache_misses = 0;
    stats
}

#[test]
fn migration_preserves_results_on_every_engine() {
    let cfg = SystemConfig::single_vault(MemConfig::baseline());
    let short = FuncConfig {
        warmup_cycles: 100,
        sample_cycles: 500,
        stretch_work: 5_000,
        quantum: 64,
        drain_cycles: 2_000,
    };
    for class in classes() {
        let mut results: Vec<Vec<Vec<u8>>> = Vec::new();
        for (engine, knobs) in [
            (Engine::Fast, FuncConfig::default()),
            (Engine::Naive, FuncConfig::default()),
            (Engine::Functional, FuncConfig::default()),
            (Engine::Functional, short),
        ] {
            let what = format!("{class:?}/{engine}/{knobs:?}");
            let in_place = run_sliced(engine, class, &cfg, knobs, false);
            let migrated = run_sliced(engine, class, &cfg, knobs, true);
            assert!(in_place.slices > 1, "{what}: finished in one slice");
            assert_eq!(in_place.slices, migrated.slices, "{what}: slices");
            assert_eq!(in_place.blobs, migrated.blobs, "{what}: results");
            assert_eq!(
                timing(in_place.stats),
                timing(migrated.stats),
                "{what}: cycles or counters"
            );
            // Exact engines only: the decode-cache counters ride in the image.
            if engine != Engine::Functional {
                assert_eq!(in_place.snapshot, migrated.snapshot, "{what}: final image");
            }
            results.push(in_place.blobs);
        }
        // Every engine and every set of knobs computes the same results.
        assert!(
            results.iter().all(|r| *r == results[0]),
            "{class:?}: engines differ"
        );
    }
}
