//! The micro ledger: each layer's public functions called in
//! isolation, on inputs shaped like the workloads', from outside.
//!
//! Every timed row is the best of a few short repetitions (host noise
//! on this class of box is additive, see README), each a clock-scaled
//! timed call like the workloads' own, so the whole ledger is on one
//! time base. Rows are the same whichever workload the traced run was
//! asked for, so six traced runs give six samples of each.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

use vip_core::{Pe, RunOutcome, System, SystemConfig};
use vip_isa::{
    alu, program_fingerprint, scan_block, Asm, ElemType, HorizontalOp, Program, Reg, VerticalOp,
};
use vip_mem::{MemConfig, MemRequest, Storage, VaultController};
use vip_noc::{Torus, TorusConfig};
use vip_rng::SplitMix64;
use vip_serve::{
    run_chaos_sweep, run_sweep, serve_durable_interrupted, ChaosConfig, ChaosSweepConfig,
    LoadedPoint, PointStore, ProgramCache, ServeConfig, SweepConfig, TileClass,
    Workload as Traffic,
};
use vip_snap::{Reader, Writer};

use crate::clock;
use crate::serving;
use crate::tiles::{self, Engine, Tile};
use crate::trace::Tracer;

/// Rows by name.
pub type Rows = BTreeMap<&'static str, f64>;

/// Best (smallest) clock-scaled host seconds of `reps` calls of `f`,
/// and what that call returned.
fn best_run<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    (0..reps)
        .map(|_| {
            let (out, sample) = clock::timed(|| black_box(f()));
            (sample.scaled_s(), out)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one repetition")
}

/// [`best_run`] for calls whose result is of no interest.
fn best_of<R>(reps: usize, f: impl FnMut() -> R) -> f64 {
    best_run(reps, f).0
}

const MIB: usize = 1 << 20;

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

fn isa_rows(rows: &mut Rows, programs: &[&Program]) {
    // Saturating add over 4 KiB buffers, per element width.
    let a: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
    let b: Vec<u8> = (0..4096u32).map(|i| (i * 13 + 5) as u8).collect();
    let mut dst = vec![0u8; 4096];
    const CALLS: usize = 2000;
    for (name, ty, bytes) in [
        ("isa.alu.vec_vec_melem_per_s.i8", ElemType::I8, 1),
        ("isa.alu.vec_vec_melem_per_s.i16", ElemType::I16, 2),
        ("isa.alu.vec_vec_melem_per_s.i32", ElemType::I32, 4),
        ("isa.alu.vec_vec_melem_per_s.i64", ElemType::I64, 8),
    ] {
        let lanes = 4096 / bytes;
        let secs = best_of(5, || {
            for _ in 0..CALLS {
                alu::vec_vec(VerticalOp::Add, ty, &mut dst, black_box(&a), &b, lanes);
            }
            dst[0]
        });
        rows.insert(name, (lanes * CALLS) as f64 / 1e6 / secs);
    }

    // The FC tile's m.v shape: 4 rows of 256 i16 lanes, multiply-add.
    let (mr, kc) = (4, 256);
    let secs = best_of(5, || {
        for _ in 0..CALLS {
            alu::mat_vec(
                VerticalOp::Mul,
                HorizontalOp::Add,
                ElemType::I16,
                &mut dst,
                black_box(&a[..mr * kc * 2]),
                &b[..kc * 2],
                mr,
                kc,
            );
        }
        dst[0]
    });
    rows.insert(
        "isa.alu.mat_vec_mmac_per_s.i16",
        (mr * kc * CALLS) as f64 / 1e6 / secs,
    );

    let insts: usize = programs.iter().map(|p| p.len()).sum();
    let secs = best_of(5, || {
        let mut blocks = 0usize;
        for p in programs {
            let mut pc = 0;
            while pc < p.len() {
                let block = scan_block(p, pc);
                pc = block.next_pc();
                blocks += block.body.len();
            }
        }
        blocks
    });
    rows.insert("isa.block.scan_ns_per_inst", secs * 1e9 / insts as f64);
    let secs = best_of(5, || {
        programs
            .iter()
            .fold(0u64, |h, p| h ^ program_fingerprint(p))
    });
    rows.insert(
        "isa.block.fingerprint_ns_per_inst",
        secs * 1e9 / insts as f64,
    );
}

fn kernels_rows(rows: &mut Rows, bp: &Tile, cnn: &Tile, mlp: &Tile) {
    for (tile, codegen, golden) in [
        (bp, "kernels.codegen_ms.bp", "kernels.golden_ms.bp"),
        (cnn, "kernels.codegen_ms.conv", "kernels.golden_ms.conv"),
        (mlp, "kernels.codegen_ms.fc", "kernels.golden_ms.fc"),
    ] {
        rows.insert(codegen, tile.codegen_s * 1e3);
        rows.insert(golden, tile.golden_s * 1e3);
    }
    // `load_into` / `host_write` of the three tiles' operands.
    let staged: usize = [bp, cnn, mlp].iter().map(|t| t.staged_bytes).sum();
    let secs = best_of(5, || {
        [bp, cnn, mlp].map(|t| t.stage().hmc().storage().resident_bytes())
    });
    rows.insert("kernels.stage_mb_per_s", mb_per_s(staged, secs));
}

/// Feeds `txns` reads to one vault controller — `depth` outstanding at
/// a time, addresses `stride` apart — and steps it to completion,
/// either ticking every cycle or jumping with `next_event`/`skip_to`.
/// Returns (controller cycles, skips taken).
fn drive_vault(txns: u64, depth: usize, stride: u64, skip: bool) -> (u64, u64) {
    let cfg = MemConfig {
        vaults: 1,
        ..MemConfig::baseline()
    };
    let mut vault = VaultController::new(0, cfg);
    let mut storage = Storage::new();
    let mut out = Vec::with_capacity(depth);
    let (mut issued, mut done, mut cycles, mut skips) = (0u64, 0u64, 0u64, 0u64);
    while done < txns {
        while issued < txns && vault.pending() < depth && vault.can_accept() {
            vault
                .enqueue(MemRequest::read(issued, issued * stride, 32))
                .expect("checked can_accept");
            issued += 1;
        }
        if skip {
            if let Some(next) = vault.next_event(&storage) {
                if next - 1 > cycles {
                    vault.skip_to(next - 1);
                    cycles = next - 1;
                    skips += 1;
                }
            }
        }
        vault.tick(&mut storage, &mut out);
        cycles += 1;
        done += out.len() as u64;
        out.clear();
    }
    (cycles, skips)
}

fn mem_rows(rows: &mut Rows) {
    let cfg = MemConfig::baseline();
    let row_stride = (cfg.row_bytes * cfg.banks_per_vault) as u64;
    let best = |txns, depth, stride, skip| best_run(3, || drive_vault(txns, depth, stride, skip));
    // Sequential 32 B columns with the queue kept full: row hits.
    let (secs, (cycles, _)) = best(40_000, 8, 32, false);
    rows.insert(
        "mem.controller.mcycles_per_s.stream",
        cycles as f64 / 1e6 / secs,
    );
    rows.insert("mem.controller.ns_per_txn.stream", secs * 1e9 / 40_000.0);
    // The chase's pattern: one outstanding load, every one a row miss
    // in bank 0.
    let (secs, (cycles, _)) = best(4_000, 1, row_stride, false);
    rows.insert(
        "mem.controller.mcycles_per_s.rowmiss",
        cycles as f64 / 1e6 / secs,
    );
    rows.insert("mem.controller.ns_per_txn.rowmiss", secs * 1e9 / 4_000.0);
    let (secs, (_, skips)) = best(20_000, 1, row_stride, true);
    rows.insert(
        "mem.controller.skip_ns_per_event",
        secs * 1e9 / skips as f64,
    );

    // 32-byte columns over 1 MiB, the access size the controller and
    // the functional tier use.
    let mut storage = Storage::new();
    let column = [0x5au8; 32];
    let secs = best_of(5, || {
        for at in (0..MIB as u64).step_by(32) {
            storage.write(at, &column);
        }
    });
    rows.insert("mem.storage.write_mb_per_s", mb_per_s(MIB, secs));
    let mut buf = [0u8; 32];
    let secs = best_of(5, || {
        for at in (0..MIB as u64).step_by(32) {
            storage.read(at, &mut buf);
        }
        buf[0]
    });
    rows.insert("mem.storage.read_mb_per_s", mb_per_s(MIB, secs));
}

fn noc_rows(rows: &mut Rows, seed: u64) {
    // The paper's 8×4 torus under seeded uniform traffic: every node
    // offers a 32-byte packet with probability 1/8 per cycle.
    const PACKETS: u64 = 20_000;
    let uniform = || {
        let mut net: Torus<u64> = Torus::new(TorusConfig::vip());
        let nodes = net.config().nodes();
        let mut rng = SplitMix64::new(seed ^ 0x006e_6f63);
        let (mut delivered, mut cycles) = (0u64, 0u64);
        while delivered < PACKETS {
            for src in 0..nodes {
                if rng.below(8) == 0 && net.can_inject(src) {
                    let dst = rng.usize_in(0..nodes);
                    net.inject(src, dst, 32, cycles)
                        .expect("checked can_inject");
                }
            }
            net.tick();
            cycles += 1;
            while net.pop_delivered().is_some() {
                delivered += 1;
            }
        }
        cycles
    };
    let (secs, cycles) = best_run(3, uniform);
    rows.insert(
        "noc.torus.ns_per_packet.uniform",
        secs * 1e9 / PACKETS as f64,
    );
    rows.insert(
        "noc.torus.mcycles_per_s.uniform",
        cycles as f64 / 1e6 / secs,
    );

    const TICKS: u64 = 200_000;
    let mut idle: Torus<u64> = Torus::new(TorusConfig::vip());
    let secs = best_of(3, || {
        for _ in 0..TICKS {
            idle.tick();
        }
        idle.now()
    });
    rows.insert("noc.torus.tick_ns.idle", secs * 1e9 / TICKS as f64);

    // One packet at a time across the torus, jumping between its hops.
    let (secs, skips) = best_run(3, || {
        let mut skips = 0u64;
        let mut hop: Torus<u64> = Torus::new(TorusConfig::vip());
        for i in 0..2_000u64 {
            hop.inject(0, 18, 32, i).expect("idle port");
            while hop.pop_delivered().is_none() {
                if let Some(next) = hop.next_event() {
                    if next - 1 > hop.now() {
                        hop.skip_to(next - 1);
                        skips += 1;
                    }
                }
                hop.tick();
            }
        }
        skips
    });
    rows.insert("noc.torus.skip_ns_per_event", secs * 1e9 / skips as f64);
}

/// Ticks one PE alone through a memory-free program; host ns per tick.
fn pe_tick_ns(program: &Program) -> f64 {
    let cfg = tiles::vault_cfg();
    let (secs, ticks) = best_run(3, || {
        let mut pe = Pe::new(0, 0, &cfg);
        pe.load_program(program);
        let mut now = 0u64;
        while !pe.is_halted() {
            now += 1;
            pe.tick(now).expect("memory-free program cannot trap");
        }
        now
    });
    secs * 1e9 / ticks as f64
}

fn pe_rows(rows: &mut Rows) {
    let r = Reg::new;
    let mut scalar = Asm::new();
    scalar
        .mov_imm(r(1), 0)
        .mov_imm(r(2), 50_000)
        .label("spin")
        .addi(r(3), r(3), 3)
        .add(r(4), r(4), r(3))
        .addi(r(1), r(1), 1)
        .blt(r(1), r(2), "spin")
        .halt();
    rows.insert(
        "core.pe.tick_ns.scalar_loop",
        pe_tick_ns(&scalar.assemble().expect("scalar loop assembles")),
    );
    // 256-lane i16 saturating adds between scratchpad regions.
    let mut vector = Asm::new();
    vector
        .mov_imm(r(1), 0)
        .mov_imm(r(2), 2_000)
        .mov_imm(r(5), 256)
        .set_vl(r(5))
        .mov_imm(r(6), 0)
        .mov_imm(r(7), 512)
        .mov_imm(r(8), 1024)
        .label("vec")
        .vec_vec(VerticalOp::Add, ElemType::I16, r(8), r(6), r(7))
        .addi(r(1), r(1), 1)
        .blt(r(1), r(2), "vec")
        .v_drain()
        .halt();
    rows.insert(
        "core.pe.tick_ns.vector_sp",
        pe_tick_ns(&vector.assemble().expect("vector loop assembles")),
    );
}

/// Runs a machine `ready` builds for `cycles` simulated cycles on the
/// event engine; best clock-scaled host seconds of three such runs.
fn capped_run(ready: impl Fn() -> System, cycles: u64) -> f64 {
    (0..3)
        .map(|_| {
            let mut sys = ready();
            let (ran, sample) = clock::timed(|| sys.run_until(cycles, u64::MAX));
            match ran {
                Ok(RunOutcome::Paused(_)) => sample.scaled_s(),
                other => panic!("capped run ended early: {other:?}"),
            }
        })
        .fold(f64::INFINITY, f64::min)
}

fn system_rows(
    rows: &mut Rows,
    seed: u64,
    tiles: [(&'static str, &Tile); 4],
) -> Result<(), String> {
    let name = |prefix: &str, tile: &str| -> &'static str {
        let want = format!("{prefix}.{tile}");
        crate::metrics::PER_LAYER
            .iter()
            .map(|(n, ..)| *n)
            .find(|n| *n == want)
            .unwrap_or_else(|| panic!("{want} is not a declared per-layer metric"))
    };
    for (label, tile) in tiles {
        let run = |engine| {
            tile.run_once(engine)
                .map_err(|e| format!("{label} on {engine:?}: {e}"))
        };
        let (naive_cycles, naive_s, _) = run(Engine::Naive)?;
        let (event_cycles, event_s, _) = run(Engine::Event)?;
        let (func_cycles, func_s, stats) = run(Engine::Functional)?;
        if naive_cycles != event_cycles {
            return Err(format!(
                "{label}: naive quiesced at {naive_cycles}, event engine at {event_cycles}"
            ));
        }
        for (engine, cycles, secs) in [
            ("naive", naive_cycles, naive_s),
            ("event", event_cycles, event_s),
            ("functional", func_cycles, func_s),
        ] {
            rows.insert(
                name(&format!("core.system.{engine}.mcycles_per_s"), label),
                cycles as f64 / 1e6 / secs,
            );
        }
        rows.insert(
            name("core.system.event_over_naive", label),
            naive_s / event_s,
        );
        if label == "bp" {
            let pe_cycles = (event_cycles * tile.cfg.total_pes() as u64) as f64;
            rows.insert("core.system.ns_per_pe_cycle.4pe", event_s * 1e9 / pe_cycles);
        }
        if label != "chase" {
            let f = stats.func;
            let lookups = (f.block_cache_hits + f.block_cache_misses).max(1);
            rows.insert(
                name("core.func.block_cache_hit_ratio", label),
                f.block_cache_hits as f64 / lookups as f64,
            );
            rows.insert(name("core.func.windows", label), f.windows as f64);
            rows.insert(
                name("core.func.accurate_cycle_share", label),
                f.accurate_cycles as f64 / func_cycles as f64,
            );
        }
    }

    // The 16-PE split of the cross-vault BP grid: a rate only (see
    // `tiles::noc_bp_tile` for why it is capped and unverified).
    const CAP_16PE: u64 = 40_000;
    let wide = tiles::noc_bp_tile(seed, 16);
    let secs = capped_run(|| wide.ready(), CAP_16PE);
    rows.insert(
        "core.system.ns_per_pe_cycle.16pe",
        secs * 1e9 / (CAP_16PE * 16) as f64,
    );

    // Sharded stepping against serial on a 2-vault 64×64×8 BP grid.
    // Capped: two host threads per simulated cycle lose 30–50× today
    // (0.1 ms of host time per simulated cycle), so three repetitions
    // of anything longer would eat the run's time budget.
    const CAP_SHARDS: u64 = 5_000;
    let sched = vip_kernels::schedule::BpSchedule {
        pes: 8,
        ..Default::default()
    };
    let two_vaults = tiles::bp_tile(
        "noc2v",
        seed,
        SystemConfig::test_vaults(2),
        (64, 64, 8),
        1,
        &sched,
        true,
    );
    let serial_s = capped_run(|| two_vaults.ready(), CAP_SHARDS);
    let sharded_s = capped_run(
        || {
            let mut sharded = two_vaults.ready();
            sharded.set_step_shards(2);
            sharded
        },
        CAP_SHARDS,
    );
    rows.insert(
        "core.system.shards2_over_serial.noc2v",
        serial_s / sharded_s,
    );
    Ok(())
}

fn snapshot_rows(rows: &mut Rows, bp: &Tile) {
    // The BP tile paused mid-run: live PE, LSU, vault and storage state.
    let mut sys = bp.ready();
    match sys.run_until(100_000, u64::MAX) {
        Ok(RunOutcome::Paused(_)) => {}
        other => panic!("the BP tile ended before its snapshot: {other:?}"),
    }
    let image = sys.save_snapshot();
    let secs = best_of(20, || sys.save_snapshot().len());
    rows.insert("core.snapshot.save_mb_per_s", mb_per_s(image.len(), secs));
    let mut onto = System::new(bp.cfg.clone());
    let secs = best_of(20, || onto.restore_snapshot(&image).is_ok());
    rows.insert(
        "core.snapshot.restore_mb_per_s",
        mb_per_s(image.len(), secs),
    );
    rows.insert("core.snapshot.bytes", image.len() as f64);
}

fn snap_rows(rows: &mut Rows) {
    let blob = vec![0xa5u8; 4096];
    let encode = || {
        let mut w = Writer::new();
        for i in 0..(MIB / 2 / 8) as u64 {
            w.u64(i);
        }
        for _ in 0..MIB / 2 / 4096 {
            w.bytes(&blob);
        }
        w.into_bytes()
    };
    let image = encode();
    let secs = best_of(5, || encode().len());
    rows.insert("snap.codec.write_mb_per_s", mb_per_s(image.len(), secs));
    let secs = best_of(5, || {
        let mut r = Reader::new(&image);
        let mut sum = 0u64;
        for _ in 0..MIB / 2 / 8 {
            sum ^= r.u64().expect("encoded above");
        }
        for _ in 0..MIB / 2 / 4096 {
            sum ^= r.bytes().expect("encoded above").len() as u64;
        }
        sum
    });
    rows.insert("snap.codec.read_mb_per_s", mb_per_s(image.len(), secs));

    let secs = best_of(3, || vip_snap::crc32(black_box(&image)));
    rows.insert("snap.crc32_mb_per_s", mb_per_s(image.len(), secs));
    // A journal of scheduler-event-sized (33-byte) records.
    let journal: Vec<u8> = (0..8192u64)
        .flat_map(|i| vip_snap::frame(&[i as u8; 33]))
        .collect();
    let secs = best_of(3, || {
        vip_snap::scan_frames(black_box(&journal)).frames.len()
    });
    rows.insert("snap.scan_frames_mb_per_s", mb_per_s(journal.len(), secs));

    let quarter = &image[..MIB / 4];
    let secs = best_of(3, || vip_faults::crc::crc32(black_box(quarter)));
    rows.insert("faults.crc32_mb_per_s", mb_per_s(quarter.len(), secs));
    const WORDS: u64 = 20_000;
    let secs = best_of(3, || {
        let mut clean = 0u64;
        for i in 0..WORDS {
            let word = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let check = vip_faults::secded::encode(word);
            if vip_faults::secded::decode(black_box(word), check)
                == vip_faults::secded::Decoded::Clean
            {
                clean += 1;
            }
        }
        clean
    });
    rows.insert("faults.secded_mword_per_s", WORDS as f64 / 1e6 / secs);
}

fn serve_rows(rows: &mut Rows, root: &Path) -> Result<(), String> {
    let sched_dir = root.join("schedules");
    let dev_cfg = tiles::vault_cfg();
    let warm = ProgramCache::new();
    let mix = Traffic::standard_mix();
    for (row, entry) in [
        "serve.tiles.stage_ms.mlp",
        "serve.tiles.stage_ms.cnn",
        "serve.tiles.stage_ms.bp",
    ]
    .into_iter()
    .zip(&mix)
    {
        let stage = |cache: &ProgramCache| entry.class.stage(&dev_cfg, 1, &sched_dir, cache).limit;
        stage(&warm);
        rows.insert(row, best_of(5, || stage(&warm)) * 1e3);
        if matches!(entry.class, TileClass::Bp { .. }) {
            // A miss builds the programs; a hit is the lookup alone
            // (staging cost subtracted).
            let cold = best_of(3, || stage(&ProgramCache::new()));
            let hit = best_of(5, || stage(&warm));
            rows.insert("serve.cache.miss_ms", (cold - hit).max(0.0) * 1e3);
        }
    }
    let key = warm
        .keys()
        .into_iter()
        .next()
        .ok_or("program cache stayed empty")?;
    const LOOKUPS: usize = 10_000;
    let secs = best_of(3, || {
        for _ in 0..LOOKUPS {
            black_box(warm.get_or_build(key.clone(), Vec::new));
        }
    });
    rows.insert("serve.cache.hit_ns", secs * 1e9 / LOOKUPS as f64);

    // The durable workload's own session abandoned after its second
    // checkpoint gives a real fleet checkpoint to measure the store
    // with.
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let dir = root.join(format!("perf/out/ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = serving::fleet(root, vip_serve::Engine::Fast, Some(serving::chaos()));
    let session = serving::traffic(0, serving::DURABLE_REQUESTS);
    let fp = 0x7065_7266_0000_0002;
    let every = serving::CHECKPOINT_EVERY;
    let mut store = PointStore::open(&dir, 0, fp).map_err(|e| fail("open store", &e))?;
    serve_durable_interrupted(&cfg, &session, &mut store, every, 2 * every + 8)
        .map_err(|e| fail("interrupted run", &e))?;
    drop(store);
    let mut store = PointStore::open(&dir, 0, fp).map_err(|e| fail("reopen store", &e))?;
    let (secs, loaded) = best_run(3, || store.load());
    rows.insert("serve.durable.load_ms", secs * 1e3);
    let LoadedPoint::Resume {
        ckpt: Some(ckpt),
        journal,
    } = loaded.map_err(|e| fail("load store", &e))?
    else {
        return Err("interrupted run left no checkpoint".to_owned());
    };
    rows.insert("serve.durable.checkpoint_bytes", ckpt.len() as f64);
    let record = journal.first().cloned().unwrap_or_else(|| vec![0; 33]);
    const APPENDS: usize = 2_000;
    let (secs, appended) = best_run(3, || (0..APPENDS).try_for_each(|_| store.append(&record)));
    appended.map_err(|e| fail("append", &e))?;
    rows.insert("serve.durable.append_us", secs * 1e6 / APPENDS as f64);
    let (secs, written) = best_run(5, || store.checkpoint(&ckpt));
    written.map_err(|e| fail("checkpoint", &e))?;
    rows.insert("serve.durable.checkpoint_ms", secs * 1e3);
    drop(store);
    std::fs::remove_dir_all(&dir).map_err(|e| fail("clean ledger directory", &e))?;
    Ok(())
}

fn bench_rows(rows: &mut Rows, root: &Path) -> Result<(), String> {
    // The `serve --quick` and `chaos --quick` sweep shapes, one job.
    let quick = |devices, quantum, chaos| ServeConfig {
        devices,
        quantum,
        schedule_dir: root.join("schedules"),
        chaos,
        ..ServeConfig::default()
    };
    let sweep = SweepConfig {
        serve: quick(2, 100_000, None),
        seed: 7,
        requests: 24,
        think: 200_000,
        clients: vec![1, 2, 4, 8],
        jobs: 1,
        mix: Traffic::small_mix(),
    };
    rows.insert(
        "bench.sweep.serve_quick_s",
        best_of(2, || run_sweep(&sweep)),
    );

    let mut chaos = ChaosConfig::default_rates(7);
    chaos.crash_ppm = 60_000;
    chaos.hang_ppm = 80_000;
    chaos.flaky_ppm = 500_000;
    if let Some(dram) = chaos.faults.dram.as_mut() {
        dram.single_bit_ppm = 150;
        dram.double_bit_ppm = 80;
    }
    chaos.checkpoint_every = 1;
    chaos.retry_backoff = 10_000;
    chaos.quarantine = 50_000;
    let sweep = ChaosSweepConfig {
        serve: quick(3, 2_000, Some(chaos)),
        seed: 7,
        requests: 16,
        clients: 6,
        think: 100_000,
        scales: vec![0, 25, 50, 100, 200],
        jobs: 1,
        mix: Traffic::small_mix(),
    };
    rows.insert(
        "bench.sweep.chaos_quick_s",
        best_of(2, || run_chaos_sweep(&sweep)),
    );

    let dir = root.join(format!("perf/out/ledger-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("report.json");
    let page = vec![b'x'; 4096];
    const WRITES: usize = 200;
    let (secs, written) = best_run(3, || {
        (0..WRITES).try_for_each(|_| vip_bench::runner::atomic_write(&path, &page))
    });
    written.map_err(|e| format!("atomic_write: {e}"))?;
    rows.insert("bench.runner.atomic_write_us", secs * 1e6 / WRITES as f64);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("clean {}: {e}", dir.display()))?;
    Ok(())
}

/// Runs the whole micro ledger. Each layer's pass is a span of its
/// own, so the trace file shows what the ledger itself cost.
///
/// # Errors
///
/// A message when a reference simulation fails, the naive and event
/// engines disagree on a quiesce cycle, or the scratch directory under
/// `perf/out/` cannot be used.
pub fn run(seed: u64, root: &Path, tr: &mut Tracer) -> Result<Rows, String> {
    let mut rows = Rows::new();
    let sched_dir = root.join("schedules");
    // One BP iteration instead of the evaluation tile's four: the
    // engines' rates are the same and the ledger stays inside the
    // run's time budget.
    let bp = tiles::bp_eval_tile(seed, &sched_dir, 1);
    let cnn = tiles::conv_eval_tile(seed, &sched_dir);
    let mlp = tiles::fc_eval_tile(seed, &sched_dir);
    let chase = tiles::chase_tile(seed, tiles::CHASE_CHAIN, 4);

    tr.span("ledger.isa", |_| {
        let programs: Vec<&Program> = [&bp, &cnn, &mlp]
            .iter()
            .flat_map(|t| t.programs.iter())
            .collect();
        isa_rows(&mut rows, &programs);
    });
    tr.span("ledger.kernels", |_| {
        kernels_rows(&mut rows, &bp, &cnn, &mlp)
    });
    tr.span("ledger.mem", |_| mem_rows(&mut rows));
    tr.span("ledger.noc", |_| noc_rows(&mut rows, seed));
    tr.span("ledger.core", |_| {
        pe_rows(&mut rows);
        snapshot_rows(&mut rows, &bp);
        system_rows(
            &mut rows,
            seed,
            [("bp", &bp), ("cnn", &cnn), ("mlp", &mlp), ("chase", &chase)],
        )
    })?;
    tr.span("ledger.snap_faults", |_| snap_rows(&mut rows));
    tr.span("ledger.serve", |_| serve_rows(&mut rows, root))?;
    tr.span("ledger.bench", |_| bench_rows(&mut rows, root))?;
    Ok(rows)
}
