//! The tile workloads: `tile_exact`, `tile_functional`,
//! `latency_chase`, and `noc_bp`.
//!
//! A [`Tile`] is everything needed to stage, run, and check one
//! simulated kernel tile: the machine configuration, the generated
//! per-PE programs, the seeded operands, and the golden output. The
//! operands come from `--seed`; the machine, the schedules, and the
//! program shapes do not, and the kernels have no data-dependent
//! control flow, so simulated cycle counts repeat exactly across seeds
//! while the bytes checked against golden change.

use std::path::Path;
use std::time::Instant;

use vip_core::{RunOutcome, SimError, System, SystemConfig, SystemStats};
use vip_isa::{Asm, Program, Reg};
use vip_kernels::bp::{self, bp_iteration_programs, BpLayout, Messages, Mrf, MrfParams};
use vip_kernels::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, ConvMode, FcLayer};
use vip_kernels::mlp::{self, FcLayout};
use vip_kernels::schedule::{BpSchedule, ConvSchedule, FcSchedule, Schedule};
use vip_kernels::schedule_store as store;
use vip_kernels::sync::i16s_to_bytes;
use vip_mem::MemConfig;
use vip_rng::SplitMix64;

use crate::clock;
use crate::trace::Tracer;
use crate::workloads::{Iter, Workload};

/// Simulated-cycle budget before a tile counts as hung.
const CYCLE_LIMIT: u64 = 200_000_000;

/// The stepping engine a tile runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `System::run_naive`: every cycle stepped.
    Naive,
    /// `System::run`: event-driven fast-forward, cycle-accurate.
    Event,
    /// `System::run_functional`: decoded blocks plus sampled windows.
    Functional,
}

impl Engine {
    /// Runs `sys` to quiescence on this engine.
    ///
    /// # Errors
    ///
    /// Whatever [`SimError`] the engine raises.
    pub fn run(self, sys: &mut System) -> Result<u64, SimError> {
        match self {
            Engine::Naive => sys.run_naive(CYCLE_LIMIT),
            Engine::Event => sys.run(CYCLE_LIMIT),
            Engine::Functional => sys.run_functional(CYCLE_LIMIT),
        }
    }

    /// Runs `sys` on this engine until it quiesces or its clock
    /// reaches `pause_at`.
    ///
    /// # Errors
    ///
    /// Whatever [`SimError`] the engine raises.
    pub fn run_until(self, sys: &mut System, pause_at: u64) -> Result<RunOutcome, SimError> {
        match self {
            Engine::Naive => sys.run_naive_until(pause_at, CYCLE_LIMIT),
            Engine::Event => sys.run_until(pause_at, CYCLE_LIMIT),
            Engine::Functional => sys.run_functional_until(pause_at, CYCLE_LIMIT),
        }
    }
}

/// Simulated cycles per timed call of a dense tile on the exact
/// engines: 35–70 ms of host time. A tile is run in slices this long
/// (`run_until` pauses are behaviour-preserving), each a call of its
/// own, because the per-call minimum then needs 50 quiet milliseconds
/// where a whole tile needs up to two quiet seconds.
const SLICE_CYCLES: u64 = 50_000;

type StageFn = Box<dyn Fn(&mut System)>;
type ReadFn = Box<dyn Fn(&System) -> Vec<u8>>;

/// One stageable, checkable simulated tile.
pub struct Tile {
    /// Short name (`bp`, `cnn`, `mlp`, `chase`, `noc_bp`).
    pub name: &'static str,
    /// The machine it runs on.
    pub cfg: SystemConfig,
    /// Per-PE programs.
    pub programs: Vec<Program>,
    /// The bytes the finished tile must produce.
    pub golden: Vec<u8>,
    /// Operand bytes [`Tile::stage`] writes (for MB/s rows).
    pub staged_bytes: usize,
    /// Simulated cycles per timed call on the exact engines.
    pub slice_cycles: u64,
    /// Host seconds the program generator took.
    pub codegen_s: f64,
    /// Host seconds the golden reference took.
    pub golden_s: f64,
    stage: StageFn,
    read: ReadFn,
}

impl Tile {
    /// A fresh single-host-thread system with the operands staged
    /// (programs not yet loaded).
    #[must_use]
    pub fn stage(&self) -> System {
        let mut sys = System::new(self.cfg.clone());
        sys.set_step_shards(1);
        (self.stage)(&mut sys);
        sys
    }

    /// Loads the per-PE programs.
    pub fn load_programs(&self, sys: &mut System) {
        for (pe, p) in self.programs.iter().enumerate() {
            sys.load_program(pe, p);
        }
    }

    /// [`stage`](Tile::stage) then [`load_programs`](Tile::load_programs).
    #[must_use]
    pub fn ready(&self) -> System {
        let mut sys = self.stage();
        self.load_programs(&mut sys);
        sys
    }

    /// Reads the finished tile's output bytes.
    #[must_use]
    pub fn read(&self, sys: &System) -> Vec<u8> {
        (self.read)(sys)
    }

    /// Stages, runs on `engine`, and returns cycles, clock-scaled host
    /// seconds of the run call alone, and the statistics — the
    /// untraced helper the accuracy pass and the micro ledger share.
    ///
    /// # Errors
    ///
    /// Whatever [`SimError`] the engine raises.
    pub fn run_once(&self, engine: Engine) -> Result<(u64, f64, SystemStats), SimError> {
        let mut sys = self.ready();
        let (ran, sample) = clock::timed(|| engine.run(&mut sys));
        Ok((ran?, sample.scaled_s(), sys.stats()))
    }
}

/// Runs `f` and returns its wall seconds, unscaled: set-up is itself a
/// timed call, so its parts take no clock probes of their own.
fn wall_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Seeded small-magnitude operands (the range the checked-in
/// `pattern` operands cover, so sums stay clear of saturation the
/// same way).
fn operands(rng: &mut SplitMix64, n: usize) -> Vec<i16> {
    (0..n).map(|_| rng.i64_in(-5..6) as i16).collect()
}

fn messages_bytes(m: &Messages) -> Vec<u8> {
    [&m.from_above, &m.from_below, &m.from_left, &m.from_right]
        .into_iter()
        .flat_map(|plane| i16s_to_bytes(plane))
        .collect()
}

/// A BP-M tile: `iters` iterations over a `w`×`h`×`l` grid on `cfg`
/// under `sched`, stereo data costs drawn from `seed`. `normalize`
/// selects the renormalizing variant (and matching golden).
#[must_use]
pub fn bp_tile(
    name: &'static str,
    seed: u64,
    cfg: SystemConfig,
    (w, h, l): (usize, usize, usize),
    iters: usize,
    sched: &BpSchedule,
    normalize: bool,
) -> Tile {
    let mrf = Mrf::new(
        MrfParams::truncated_linear(w, h, l, 2, 12),
        bp::stereo_data_costs(w, h, l, seed),
    );
    let init = if normalize {
        Messages::new(&mrf.params)
    } else {
        Messages::new_unnormalized(&mrf.params)
    };
    let layout = BpLayout::with_row_pad(0, w, h, l, sched.row_pad);
    let (programs, codegen_s) =
        wall_timed(|| bp_iteration_programs(&layout, sched, iters, normalize));
    let (golden, golden_s) = wall_timed(|| {
        let mut msgs = init.clone();
        for _ in 0..iters {
            bp::iteration(&mrf, &mut msgs);
        }
        messages_bytes(&msgs)
    });
    Tile {
        name,
        cfg,
        programs,
        golden,
        staged_bytes: 5 * w * h * l * 2,
        slice_cycles: SLICE_CYCLES,
        codegen_s,
        golden_s,
        stage: Box::new(move |sys| layout.load_into(sys.hmc_mut(), &mrf, &init)),
        read: Box::new(move |sys| messages_bytes(&layout.read_messages(sys.hmc(), normalize))),
    }
}

/// The single-vault machine every `sim_throughput` tile runs on.
#[must_use]
pub fn vault_cfg() -> SystemConfig {
    SystemConfig::single_vault(MemConfig::baseline())
}

/// The paper-evaluation BP tile: 64×32×16, four iterations of the raw
/// Figure 2 update, tuned schedule from `sched_dir` when one matches.
#[must_use]
pub fn bp_eval_tile(seed: u64, sched_dir: &Path, iters: usize) -> Tile {
    let (w, h, l) = (64, 32, 16);
    let cfg = vault_cfg();
    let sched = match store::load_from(
        sched_dir,
        &store::bp_key(w, h, l),
        cfg.snapshot_fingerprint(),
    ) {
        Some(Schedule::Bp(s)) if s.validate(w, h, l).is_ok() => s,
        _ => BpSchedule::default(),
    };
    bp_tile("bp", seed, cfg, (w, h, l), iters, &sched, false)
}

/// The paper-evaluation conv tile: 64→64 channels over 16×8, 3×3.
#[must_use]
pub fn conv_eval_tile(seed: u64, sched_dir: &Path) -> Tile {
    let layer = ConvLayer {
        name: "tile",
        in_channels: 64,
        out_channels: 64,
        width: 16,
        height: 8,
        kernel: 3,
        pad: 1,
    };
    let cfg = vault_cfg();
    let sched = match store::load_from(
        sched_dir,
        &store::conv_key(&layer),
        cfg.snapshot_fingerprint(),
    ) {
        Some(Schedule::Conv(s)) if s.validate(&layer).is_ok() => s,
        _ => ConvSchedule::default_for(&layer, 2),
    };
    let mut rng = SplitMix64::new(seed ^ 0x636f_6e76);
    let input = cnn::pad_input(
        layer.width,
        layer.height,
        layer.in_channels,
        layer.pad,
        &operands(&mut rng, layer.width * layer.height * layer.in_channels),
    );
    let weights = operands(&mut rng, layer.weights());
    let bias = operands(&mut rng, layer.out_channels);
    let layout = ConvLayout {
        layer,
        input_base: 0,
        weights_base: 0x40_0100,
        bias_base: 0x80_0200,
        output_base: 0xc0_0300,
        filters_per_group: sched.filters_per_group,
        mode: ConvMode::Full,
    };
    let interior = move |padded: &[i16]| {
        i16s_to_bytes(&cnn::unpad_output(
            layer.width,
            layer.height,
            layer.out_channels,
            layer.pad,
            padded,
        ))
    };
    let (programs, codegen_s) = wall_timed(|| conv_tile_programs(&layout, &sched));
    let (golden, golden_s) =
        wall_timed(|| interior(&cnn::conv_forward(&layer, &input, &weights, &bias, true)));
    Tile {
        name: "cnn",
        cfg,
        programs,
        golden,
        staged_bytes: (input.len() + weights.len() + bias.len()) * 2,
        slice_cycles: SLICE_CYCLES,
        codegen_s,
        golden_s,
        stage: Box::new(move |sys| layout.load_into(sys.hmc_mut(), &input, &weights, &bias)),
        read: Box::new(move |sys| interior(&layout.read_output(sys.hmc()))),
    }
}

/// The paper-evaluation fully-connected tile: 2048 inputs × 256 rows.
#[must_use]
pub fn fc_eval_tile(seed: u64, sched_dir: &Path) -> Tile {
    let layer = FcLayer {
        name: "tile",
        inputs: 2048,
        outputs: 256,
    };
    let cfg = vault_cfg();
    let sched = match store::load_from(
        sched_dir,
        &store::fc_key(&layer),
        cfg.snapshot_fingerprint(),
    ) {
        Some(Schedule::Fc(s)) if s.validate(&layer).is_ok() => s,
        _ => FcSchedule::default(),
    };
    let mut rng = SplitMix64::new(seed ^ 0x0066_6321);
    let input = operands(&mut rng, layer.inputs);
    let weights = operands(&mut rng, layer.inputs * layer.outputs);
    let bias = operands(&mut rng, layer.outputs);
    let layout = FcLayout {
        layer,
        input_base: 0,
        weights_base: 0x10_0100,
        bias_base: 0x80_0200,
        output_base: 0x90_0300,
        relu: true,
    };
    let (programs, codegen_s) = wall_timed(|| mlp::fc_tile_programs(&layout, &sched));
    let (golden, golden_s) = wall_timed(|| {
        i16s_to_bytes(&mlp::fc_forward_kc(
            &layer, &input, &weights, &bias, true, sched.kc,
        ))
    });
    Tile {
        name: "mlp",
        cfg,
        programs,
        golden,
        staged_bytes: (input.len() + weights.len() + bias.len()) * 2,
        slice_cycles: SLICE_CYCLES,
        codegen_s,
        golden_s,
        stage: Box::new(move |sys| {
            layout.load_into_scheduled(sys.hmc_mut(), &sched, &input, &weights, &bias);
        }),
        read: Box::new(move |sys| i16s_to_bytes(&layout.read_output(sys.hmc()))),
    }
}

/// A latency-bound pointer chase on one PE of a single-vault system
/// (the shape of `vip_bench::experiments::mem_latency_tile_sim`): every
/// link strides one full bank rotation, so each `ld.reg` is a row miss
/// in bank 0 and the next address depends on it. The visiting order is
/// a seeded permutation of the `chain` slots; the program walks the
/// closed chain `laps` times and stops eight links short, so the final
/// cursor it must produce depends on the seed.
///
/// Laps keep the host footprint apart from the simulated length: every
/// link owns a 4 KiB storage page, so one lap of `chain` × `laps` links
/// would spend its host time faulting pages in, and how long that takes
/// is the host's memory system's business, not the simulator's.
///
/// # Panics
///
/// Panics unless `chain` is a multiple of 8 and at least 16, and
/// `laps` at least 1.
#[must_use]
pub fn chase_tile(seed: u64, chain: u64, laps: u64) -> Tile {
    const UNROLL: u64 = 8;
    assert!(chain.is_multiple_of(UNROLL) && chain >= 2 * UNROLL && laps >= 1);
    let cfg = vault_cfg();
    let stride = (cfg.mem.row_bytes * cfg.mem.banks_per_vault) as u64;
    let slot = move |i: u64| stride * (i + 1); // clear of address 0
    let r = Reg::new;

    let ((links, last), golden_s) = wall_timed(|| {
        // Fisher-Yates over slots 1.. (slot 0 starts the walk).
        let mut order: Vec<u64> = (0..chain).collect();
        let mut rng = SplitMix64::new(seed ^ 0x0063_6861_7365);
        for i in (2..order.len()).rev() {
            order.swap(i, 1 + rng.usize_in(0..i));
        }
        let links: Vec<(u64, u64)> = (0..order.len())
            .map(|i| (slot(order[i]), slot(order[(i + 1) % order.len()])))
            .collect();
        // laps × chain − UNROLL hops from slot 0, modulo the chain.
        let stop = usize::try_from(chain - UNROLL).expect("chain fits");
        (links, slot(order[stop]))
    });
    let (chase, codegen_s) = wall_timed(|| {
        let mut asm = Asm::new();
        asm.mov_imm(r(1), slot(0) as i64) // cursor
            .mov_imm(r(2), 0) // loop trips done
            .mov_imm(r(3), (laps * chain / UNROLL - 1) as i64)
            .label("chase");
        for _ in 0..UNROLL {
            asm.ld_reg(r(4), r(1)).mov(r(1), r(4));
        }
        asm.addi(r(2), r(2), 1).blt(r(2), r(3), "chase").halt();
        asm.assemble().expect("pointer-chase program assembles")
    });
    let mut idle = Asm::new();
    idle.halt();
    let idle = idle.assemble().expect("halt program assembles");
    let mut programs = vec![idle; cfg.total_pes()];
    programs[0] = chase;
    Tile {
        name: "chase",
        cfg,
        programs,
        golden: last.to_le_bytes().to_vec(),
        staged_bytes: links.len() * 8,
        // The event engine skips most of a chase's cycles: 40× the
        // dense tiles' simulated cycles per host second.
        slice_cycles: 40 * SLICE_CYCLES,
        codegen_s,
        golden_s,
        stage: Box::new(move |sys| {
            for &(at, next) in &links {
                sys.hmc_mut().host_write_u64(at, next);
            }
        }),
        read: Box::new(move |sys| sys.pe(0).reg(r(1)).to_le_bytes().to_vec()),
    }
}

/// Grid of the cross-vault BP tile.
pub const NOC_BP_GRID: (usize, usize, usize) = (128, 128, 8);

/// One normalized BP-M iteration over a 128×128×8 MRF resident in
/// vault 0 of a 4-vault machine, split across `pes` PEs with a
/// cross-vault barrier.
///
/// `noc_bp` uses 8 PEs (vaults 0 and 1, one torus hop). The 16-PE
/// split of this grid does **not** reproduce `bp::iteration`: on the
/// event engine 1 528 of the 524 288 message words differ (29 on the
/// functional engine), all written by PEs two hops from the data — a
/// cross-vault ordering defect in the simulated program that this
/// benchmark may not fix. The 16-PE machine is still measured, as a
/// capped and unverified rate row (`core.system.ns_per_pe_cycle.16pe`).
#[must_use]
pub fn noc_bp_tile(seed: u64, pes: usize) -> Tile {
    let sched = BpSchedule {
        pes,
        ..BpSchedule::default()
    };
    bp_tile(
        "noc_bp",
        seed,
        SystemConfig::test_vaults(4),
        NOC_BP_GRID,
        1,
        &sched,
        true,
    )
}

/// PEs `noc_bp` splits the grid across.
pub const NOC_BP_PES: usize = 8;

/// Chain of `latency_chase`: 32 laps of 4 096 links are 131 072
/// dependent loads (8× the `sim_throughput` chase) over 16 MiB of
/// storage pages.
pub const CHASE_CHAIN: u64 = 4_096;
pub const CHASE_LAPS: u64 = 32;

/// Functional repeats of the three tiles per `tile_functional`
/// iteration.
pub const FUNCTIONAL_REPEATS: usize = 10;

/// The three `sim_throughput` tiles (BP 64×32×16 ×4 iterations, conv
/// 64→64, FC 2048×256) with the checked-in tuned schedules.
#[must_use]
pub fn eval_tiles(seed: u64, sched_dir: &Path) -> Vec<Tile> {
    vec![
        bp_eval_tile(seed, sched_dir, 4),
        conv_eval_tile(seed, sched_dir),
        fc_eval_tile(seed, sched_dir),
    ]
}

/// A workload that runs a fixed list of tiles on one engine.
pub struct TileWorkload {
    tiles: Vec<Tile>,
    engine: Engine,
    repeats: usize,
}

impl TileWorkload {
    /// `tiles` × `repeats` per iteration on `engine`.
    #[must_use]
    pub fn new(tiles: Vec<Tile>, engine: Engine, repeats: usize) -> Self {
        // Set-up ends with every tile staged once: storage pages
        // faulted in, programs validated by the loader.
        for tile in &tiles {
            drop(tile.ready());
        }
        TileWorkload {
            tiles,
            engine,
            repeats,
        }
    }

    /// Worst-tile |functional estimate − exact| ÷ exact × 100, given
    /// the cycle counts this workload's own engine already produced.
    fn cycle_error_pct(&self, own_cycles: &[u64]) -> Result<f64, SimError> {
        let other = match self.engine {
            Engine::Functional => Engine::Event,
            _ => Engine::Functional,
        };
        let mut worst = 0f64;
        for (tile, &own) in self.tiles.iter().zip(own_cycles) {
            let (theirs, _, _) = tile.run_once(other)?;
            let (exact, estimate) = match self.engine {
                Engine::Functional => (theirs, own),
                _ => (own, theirs),
            };
            worst = worst.max((estimate as f64 - exact as f64).abs() / exact as f64 * 100.0);
        }
        Ok(worst)
    }
}

impl Workload for TileWorkload {
    fn iterate(&mut self, tr: &mut Tracer) -> Iter {
        let mut it = Iter::default();
        for repeat in 0..self.repeats {
            if repeat == 1 {
                // Every repeat makes the first one's calls again.
                it.period = it.calls.len();
            }
            for tile in &self.tiles {
                it.attempted += 1;
                let mut sys = tr.span("kernels.stage", |_| tile.stage());
                tr.span("core.load_program", |_| tile.load_programs(&mut sys));
                // The functional tier re-times its sampling windows
                // around a pause, so it runs whole.
                let slice = match self.engine {
                    Engine::Functional => CYCLE_LIMIT,
                    Engine::Naive | Engine::Event => tile.slice_cycles,
                };
                let mut pause_at = slice;
                let ran = loop {
                    let (ran, sample) =
                        tr.timed_span("core.run", |_| self.engine.run_until(&mut sys, pause_at));
                    it.calls.push(sample);
                    match ran {
                        Ok(RunOutcome::Paused(_)) => pause_at = pause_at.saturating_add(slice),
                        Ok(RunOutcome::Quiesced(cycles)) => break Ok(cycles),
                        Err(e) => break Err(e),
                    }
                };
                let cycles = match ran {
                    Ok(cycles) => cycles,
                    Err(e) => {
                        eprintln!("{}: simulation failed: {e}", tile.name);
                        it.failed += 1;
                        continue;
                    }
                };
                let got = tr.span("mem.read_back", |_| tile.read(&sys));
                if !tr.span("harness.verify", |_| got == tile.golden) {
                    eprintln!("{}: output differs from golden", tile.name);
                    it.failed += 1;
                }
                let stats = sys.stats();
                it.sim_cycles += cycles;
                it.sim_work_cycles += cycles;
                it.sim_instr += stats.pe.instructions;
                it.latencies.push(cycles);
                it.unit_cycles.push(cycles);
                *it.rows.entry("noc.packets").or_default() += stats.noc.packets as f64;
                // Freeing a machine is host work too (128 MiB of pages
                // on the chase); the span keeps it in the ledger.
                tr.span("harness.teardown", |_| drop(sys));
            }
        }
        it
    }

    fn func_cycle_err_pct_abs(&mut self, reference: &Iter) -> Result<f64, String> {
        self.cycle_error_pct(&reference.unit_cycles[..self.tiles.len()])
            .map_err(|e| format!("accuracy pass failed: {e}"))
    }
}
