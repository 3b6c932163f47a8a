//! The experiment runners behind every reproduced table and figure.

use std::sync::Arc;

use vip_core::{
    cycles_to_ms, power, Engine, SimError, System, SystemConfig, SystemStats, WorkCounts, CLOCK_HZ,
};
use vip_kernels::bp::{
    self, bp_iteration_programs, strip_program, BpExtrapolation, BpLayout, Messages, Mrf,
    MrfParams, StripParams, Sweep, VectorMachineStyle,
};
use vip_kernels::cache::ProgramCache;
use vip_kernels::cnn::{self, pool_tile_programs, LayerCosts, PoolLayer, PoolLayout, VggLayer};
use vip_kernels::pattern;
use vip_kernels::schedule::{BpSchedule, Schedule};
use vip_kernels::schedule_store;
use vip_kernels::sync::i16s_to_bytes;
use vip_kernels::tile::{conv_layer, StagedJob, TileClass};
use vip_mem::MemConfig;

/// Vaults in the full machine.
pub const VAULTS: u64 = 32;
/// Vaults used for the tiny late convolution layers (§VI-A: "we only
/// use half the vaults" for c5).
pub const VAULTS_SMALL_LAYER: u64 = 16;

/// Outcome of one tile simulation.
#[derive(Debug, Clone)]
pub struct TileRun {
    /// Cycles to completion.
    pub cycles: u64,
    /// Full statistics snapshot.
    pub stats: SystemStats,
    /// The host work the engine did (not architectural: engines differ).
    pub work: WorkCounts,
}

impl TileRun {
    fn run(sys: System, programs: &[vip_isa::Program], limit: u64) -> TileRun {
        PreparedTile::new(sys, programs.to_vec(), limit).run(Engine::Fast)
    }

    /// Achieved DRAM bandwidth scaled to the 32-vault machine, GB/s.
    #[must_use]
    pub fn machine_bandwidth_gbs(&self) -> f64 {
        self.stats.bandwidth_gbs() * VAULTS as f64
    }
}

/// A tile simulation staged and ready to run: system built, memory
/// loaded, per-PE programs generated. Lets callers pick the stepping
/// [`Engine`] over identical initial state — the vehicle for the
/// determinism regression tests and the `sim_throughput` benchmark.
#[derive(Debug)]
pub struct PreparedTile {
    sys: System,
    programs: Arc<Vec<vip_isa::Program>>,
    limit: u64,
}

impl From<StagedJob> for PreparedTile {
    fn from(job: StagedJob) -> Self {
        PreparedTile {
            sys: job.sys,
            programs: job.programs,
            limit: job.limit,
        }
    }
}

impl PreparedTile {
    fn new(sys: System, programs: Vec<vip_isa::Program>, limit: u64) -> Self {
        PreparedTile {
            sys,
            programs: Arc::new(programs),
            limit,
        }
    }

    /// Overrides the functional tier's duty-cycle knobs (see
    /// [`vip_core::FuncConfig`]); architectural results are identical
    /// for every value, only the timing-estimate quality and host
    /// speed change. Ignored by the cycle-accurate engines.
    #[must_use]
    pub fn with_func_config(mut self, cfg: vip_core::FuncConfig) -> Self {
        self.sys.set_func_config(cfg);
        self
    }

    /// Simulated-cycle budget before the tile counts as hung.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    fn load(&mut self) {
        for (pe, p) in self.programs.iter().enumerate() {
            self.sys.load_program(pe, p);
        }
    }

    /// The staged system (programs not yet loaded) — lets callers key
    /// checkpoints off its configuration fingerprint before committing
    /// to a run.
    #[must_use]
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Loads the programs and hands over the system plus its cycle
    /// budget, for callers that drive stepping themselves (the
    /// checkpointing [`runner`](crate::runner), the snapshot round-trip
    /// tests).
    #[must_use]
    pub fn into_system(mut self) -> (System, u64) {
        self.load();
        (self.sys, self.limit)
    }

    /// Runs to quiescence on `engine`, surfacing the typed failure (a
    /// [`vip_core::HangReport`] for a budget hang) to the caller. The
    /// two exact engines must agree bit-for-bit; on
    /// [`Engine::Functional`] architectural results are identical and
    /// the cycle count is an estimate extrapolated from sampled
    /// accurate windows.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] if the simulation traps, loses a
    /// packet, or fails to quiesce within its cycle limit.
    pub fn try_run(mut self, engine: Engine) -> Result<TileRun, SimError> {
        self.load();
        let cycles = engine.run(&mut self.sys, self.limit)?;
        Ok(TileRun {
            cycles,
            stats: self.sys.stats(),
            work: self.sys.work_counts(),
        })
    }

    /// [`try_run`](PreparedTile::try_run) for the bench entry points:
    /// on failure, prints the structured diagnosis (the multi-line
    /// hang-watchdog report for a stuck tile) to stderr and exits
    /// nonzero instead of panicking mid-sweep.
    #[must_use]
    pub fn run(self, engine: Engine) -> TileRun {
        self.try_run(engine)
            .unwrap_or_else(|e| exit_with_sim_error(&e))
    }
}

/// Prints a typed simulation failure — including the multi-line
/// [`HangReport`](vip_core::HangReport) for hangs — to stderr and exits
/// nonzero: the shared failure path of the infallible bench entry
/// points.
pub fn exit_with_sim_error(err: &SimError) -> ! {
    eprintln!("simulation failed: {err}");
    std::process::exit(1);
}

/// Stages one timing tile of `class` on one vault (4 PEs) under `mem`
/// without running it, under the tuned schedule artifact for this shape
/// and configuration when a valid one exists
/// ([`TileClass::schedule`]), else the hand-picked default.
#[must_use]
pub fn tile_sim(mem: MemConfig, class: TileClass) -> PreparedTile {
    let cfg = SystemConfig::single_vault(mem);
    class
        .stage(&cfg, 1, &schedule_store::dir(), &ProgramCache::new())
        .into()
}

/// Stages one timing tile of `class` serving `batch` inputs under an
/// explicit schedule — the autotuner's staging path.
#[must_use]
pub fn tile_sim_scheduled(
    mem: MemConfig,
    class: TileClass,
    batch: usize,
    sched: &Schedule,
) -> PreparedTile {
    let cfg = SystemConfig::single_vault(mem);
    class
        .stage_scheduled(&cfg, batch, sched, &ProgramCache::new())
        .into()
}

// ---------------------------------------------------------------------
// Belief propagation
// ---------------------------------------------------------------------

/// Standard BP tile for timing runs: 64×32 pixels, 16 labels.
pub const BP_TILE: (usize, usize, usize) = (64, 32, 16);

fn bp_tile_mrf(w: usize, h: usize, l: usize) -> Mrf {
    let costs = bp::stereo_data_costs(w, h, l, 7);
    Mrf::new(MrfParams::truncated_linear(w, h, l, 2, 12), costs)
}

/// The default BP schedule adjusted to match `layout`'s row padding
/// (the packed ablation layout has `row_pad == 0`).
fn bp_sched_for(layout: &BpLayout) -> BpSchedule {
    BpSchedule {
        row_pad: layout.row_pad,
        ..BpSchedule::default()
    }
}

/// The standard BP timing tile ([`BP_TILE`]) at `iters` BP-M
/// iterations.
#[must_use]
pub fn bp_tile(iters: usize) -> TileClass {
    let (width, height, labels) = BP_TILE;
    TileClass::Bp {
        width,
        height,
        labels,
        iters,
    }
}

/// Stages `iters` BP-M iterations over the 64×32 tile without running
/// them.
#[must_use]
pub fn bp_tile_sim(mem: MemConfig, iters: usize) -> PreparedTile {
    tile_sim(mem, bp_tile(iters))
}

/// Simulates `iters` BP-M iterations over a 64×32 tile on one vault
/// (4 PEs) under `mem` — the timing kernel behind Table IV's BP rows,
/// Figure 3a, and Figure 5a.
#[must_use]
pub fn bp_tile_run(mem: MemConfig, iters: usize) -> TileRun {
    bp_tile_sim(mem, iters).run(Engine::Fast)
}

/// One ablation-study row: a design choice toggled off against the
/// baseline (DESIGN.md's "ablation benches for the design choices"
/// item).
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// What was toggled.
    pub name: &'static str,
    /// Tile cycles with the choice enabled (baseline).
    pub with_cycles: u64,
    /// Tile cycles with the choice disabled.
    pub without_cycles: u64,
}

impl AblationPoint {
    /// Slowdown factor from disabling the choice.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.without_cycles as f64 / self.with_cycles as f64
    }
}

/// Ablations over one BP-M tile iteration: bank-aware placement,
/// software pipelining's reduction unit (from Figure 4), and message
/// renormalization cost.
#[must_use]
pub fn ablations() -> Vec<AblationPoint> {
    let (w, h, l) = BP_TILE;
    let run_layout = |layout: BpLayout, normalize: bool| -> u64 {
        let mrf = bp_tile_mrf(w, h, l);
        let mut sys = System::new(SystemConfig::single_vault(MemConfig::baseline()));
        layout.load_into(
            sys.hmc_mut(),
            &mrf,
            &Messages::new_unnormalized(&mrf.params),
        );
        let programs = bp_iteration_programs(&layout, &bp_sched_for(&layout), 1, normalize);
        TileRun::run(sys, &programs, 80_000_000).cycles
    };
    let baseline = run_layout(BpLayout::new(0, w, h, l), false);
    vec![
        AblationPoint {
            name: "bank-aware layout",
            with_cycles: baseline,
            without_cycles: run_layout(BpLayout::packed(0, w, h, l), false),
        },
        AblationPoint {
            // The no-reduction iteration program exceeds the 1,024-entry
            // instruction buffer (itself a finding: the divide-and-
            // conquer emulation quadruples the kernel's code size), so
            // this ablation compares the Figure 4 vertical-strip kernel.
            name: "reduction unit (Fig. 4 strip)",
            with_cycles: (figure4_style(VectorMachineStyle::SpReduce) * 1e-3 * CLOCK_HZ) as u64,
            without_cycles: (figure4_style(VectorMachineStyle::SpNoReduce) * 1e-3 * CLOCK_HZ)
                as u64,
        },
        AblationPoint {
            // "Without" the paper's raw Figure 2 sequence means paying
            // for the broadcast renormalization idiom each update.
            name: "raw Fig. 2 update (vs normalized)",
            with_cycles: baseline,
            without_cycles: run_layout(BpLayout::new(0, w, h, l), true),
        },
    ]
}

/// Simulates the hierarchical construct phase (fine θ → coarse θ) on a
/// 64×32 fine tile.
#[must_use]
pub fn construct_tile_run() -> TileRun {
    let (w, h, l) = BP_TILE;
    let mrf = bp_tile_mrf(w, h, l);
    let fine = BpLayout::new(0, w, h, l);
    let coarse = BpLayout::new(1 << 22, w / 2, h / 2, l);
    let mut sys = System::new(SystemConfig::single_vault(MemConfig::baseline()));
    fine.load_into(
        sys.hmc_mut(),
        &mrf,
        &Messages::new_unnormalized(&mrf.params),
    );
    let programs = bp::construct_programs(&fine, &coarse, 4);
    TileRun::run(sys, &programs, 20_000_000)
}

/// Simulates the hierarchical copy phase (coarse messages → fine
/// messages) on a 64×32 fine tile.
#[must_use]
pub fn copy_tile_run() -> TileRun {
    let (w, h, l) = BP_TILE;
    let mrf = bp_tile_mrf(w, h, l);
    let coarse_mrf = bp::coarse_mrf(&mrf);
    let mut cmsgs = Messages::new(&coarse_mrf.params);
    bp::iteration(&coarse_mrf, &mut cmsgs);
    let fine = BpLayout::new(0, w, h, l);
    let coarse = BpLayout::new(1 << 22, w / 2, h / 2, l);
    let mut sys = System::new(SystemConfig::single_vault(MemConfig::baseline()));
    fine.load_into(
        sys.hmc_mut(),
        &mrf,
        &Messages::new_unnormalized(&mrf.params),
    );
    coarse.load_into(sys.hmc_mut(), &coarse_mrf, &cmsgs);
    let programs = bp::copy_messages_programs(&coarse, &fine, 4);
    TileRun::run(sys, &programs, 40_000_000)
}

/// Figure 4: runtime of vertical BP-M updates on a 64×32 tile under the
/// four machine styles, in the figure's order. Returns `(style,
/// milliseconds)` — the figure's exact quantity ("execution time for
/// BP-M updates in the vertical direction for a 64×32 tile").
#[must_use]
pub fn figure4() -> Vec<(VectorMachineStyle, f64)> {
    VectorMachineStyle::all()
        .into_iter()
        .map(|style| (style, figure4_style(style)))
        .collect()
}

/// One Figure 4 bar: simulated milliseconds for the vertical update
/// strip under `style`; 4 PEs split the tile's width (§VI-B's
/// experiment).
#[must_use]
pub fn figure4_style(style: VectorMachineStyle) -> f64 {
    let (w, h, l) = BP_TILE;
    let mrf = bp_tile_mrf(w, h, l);
    let layout = BpLayout::new(0, w, h, l);
    let mut sys = System::new(SystemConfig::single_vault(MemConfig::baseline()));
    layout.load_into(
        sys.hmc_mut(),
        &mrf,
        &Messages::new_unnormalized(&mrf.params),
    );
    let programs: Vec<_> = (0..4)
        .map(|pe| {
            strip_program(&StripParams {
                layout,
                sweep: Sweep::Down,
                ortho_range: (pe * w / 4, (pe + 1) * w / 4),
                normalize: false,
                style,
                group_bufs: 2,
            })
        })
        .collect();
    let run = TileRun::run(sys, &programs, 80_000_000);
    cycles_to_ms(run.cycles)
}

/// One Figure 5 sweep entry.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Configuration label ("open page", …).
    pub config: &'static str,
    /// Achieved machine bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// Extrapolated full-workload runtime, ms.
    pub time_ms: f64,
}

/// Figure 5a: one full-HD BP-M iteration under the eight memory
/// configurations.
#[must_use]
pub fn figure5_bp() -> Vec<Fig5Point> {
    MemConfig::figure5_sweep()
        .into_iter()
        .map(|cfg| {
            let name = cfg.name;
            let run = bp_tile_run(cfg, 1);
            let ex = BpExtrapolation {
                tile_pixels: (BP_TILE.0 * BP_TILE.1) as u64,
                tile_cycles: run.cycles,
                vaults: VAULTS,
            };
            Fig5Point {
                config: name,
                bandwidth_gbs: run.machine_bandwidth_gbs(),
                time_ms: ex.frame_ms(1920 * 1080, 1),
            }
        })
        .collect()
}

/// Figure 5b: the VGG-16 network under the eight memory configurations.
/// Per-configuration times scale the baseline network time by the
/// measured conv-tile slowdown (convolutions dominate; §VI-C's CNN bars
/// move far less than BP's, which this preserves).
#[must_use]
pub fn figure5_cnn() -> Vec<Fig5Point> {
    let base = conv_tile_run(MemConfig::baseline(), 64, 8, 2);
    let base_ms = vgg_network_ms(&cnn::vgg16(), 1);
    MemConfig::figure5_sweep()
        .into_iter()
        .map(|cfg| {
            let name = cfg.name;
            let run = conv_tile_run(cfg, 64, 8, 2);
            Fig5Point {
                config: name,
                bandwidth_gbs: run.machine_bandwidth_gbs(),
                time_ms: base_ms * run.cycles as f64 / base.cycles as f64,
            }
        })
        .collect()
}

/// The BP timing summary feeding Table IV.
#[derive(Debug, Clone)]
pub struct BpSummary {
    /// One full-HD iteration, ms.
    pub fhd_iteration_ms: f64,
    /// Eight-iteration baseline BP-M, ms.
    pub baseline_ms: f64,
    /// One quarter-HD iteration, ms.
    pub qhd_iteration_ms: f64,
    /// Hierarchical construct phase, ms.
    pub construct_ms: f64,
    /// Hierarchical copy phase, ms.
    pub copy_ms: f64,
    /// Hierarchical BP-M: construct + copy + 5 coarse + 5 fine
    /// iterations (the paper's 36.3 ms = 0.36 + 1.26 + 5×1.8 + 5×5.2
    /// composition), ms.
    pub hierarchical_ms: f64,
    /// Tile roofline data.
    pub tile: TileRun,
}

/// Runs the BP tile and derives every BP row of Table IV. The
/// construct/copy phases are pure data movement (3 adds per 5 vectors
/// moved); their times come from the measured achieved bandwidth, which
/// reproduces the paper's 0.36 ms / 1.26 ms.
#[must_use]
pub fn bp_summary() -> BpSummary {
    let run = bp_tile_run(MemConfig::baseline(), 1);
    let ex = BpExtrapolation {
        tile_pixels: (BP_TILE.0 * BP_TILE.1) as u64,
        tile_cycles: run.cycles,
        vaults: VAULTS,
    };
    let fhd = ex.frame_ms(1920 * 1080, 1);
    let qhd = ex.frame_ms(960 * 540, 1);

    // Construct and copy are *measured* on a 64×32 fine tile and scaled
    // by pixel count over the 32 vaults.
    let tile_px = (BP_TILE.0 * BP_TILE.1) as f64;
    let scale = 1920.0 * 1080.0 / tile_px / VAULTS as f64;
    let construct_ms = cycles_to_ms((construct_tile_run().cycles as f64 * scale) as u64);
    let copy_ms = cycles_to_ms((copy_tile_run().cycles as f64 * scale) as u64);

    BpSummary {
        fhd_iteration_ms: fhd,
        baseline_ms: 8.0 * fhd,
        qhd_iteration_ms: qhd,
        construct_ms,
        copy_ms,
        hierarchical_ms: construct_ms + copy_ms + 5.0 * qhd + 5.0 * fhd,
        tile: run,
    }
}

// ---------------------------------------------------------------------
// CNN / MLP
// ---------------------------------------------------------------------

/// Stages one conv tile (a shard of `ci` input channels and `co`
/// resident output channels) on one vault without running it;
/// `filters_per_group` is the default schedule's filter grouping.
#[must_use]
pub fn conv_tile_sim(
    mem: MemConfig,
    ci: usize,
    co: usize,
    filters_per_group: usize,
) -> PreparedTile {
    tile_sim(
        mem,
        TileClass::Cnn {
            in_channels: ci,
            out_channels: co,
            filters_per_group,
        },
    )
}

/// Simulates one conv tile on one vault.
#[must_use]
pub fn conv_tile_run(mem: MemConfig, ci: usize, co: usize, filters_per_group: usize) -> TileRun {
    conv_tile_sim(mem, ci, co, filters_per_group).run(Engine::Fast)
}

/// Simulates one 2×2 max-pool tile (64-channel shard).
#[must_use]
pub fn pool_tile_run(mem: MemConfig) -> TileRun {
    let layer = PoolLayer {
        name: "tile",
        channels: 64,
        width: 16,
        height: 8,
    };
    let input = cnn::pad_input(16, 8, 64, 1, &pattern(16 * 8 * 64, 1, 5));
    let layout = PoolLayout {
        layer,
        input_base: 0,
        output_base: 0x40_0100,
    };
    let mut sys = System::new(SystemConfig::single_vault(mem));
    layout.load_into(sys.hmc_mut(), &input);
    TileRun::run(sys, &pool_tile_programs(&layout, 4), 80_000_000)
}

/// The standard fully-connected timing tile: 2048 inputs × 64 outputs
/// (the geometry [`layer_time`]'s extrapolation is calibrated to).
pub const FC_TILE: (usize, usize) = (2048, 64);

/// The enlarged fully-connected tile `sim_throughput` uses so the
/// functional tier's block cache amortizes: same 2048 inputs, 256
/// output rows — 4x the matrix, same program structure, so block
/// decodes are paid once and hit 4x as often.
pub const FC_TILE_LARGE: (usize, usize) = (2048, 256);

/// Stages one fully-connected tile of the given `(inputs, outputs)`
/// shape without running it.
#[must_use]
pub fn fc_shape_tile_sim(mem: MemConfig, (inputs, outputs): (usize, usize)) -> PreparedTile {
    tile_sim(mem, TileClass::Mlp { inputs, outputs })
}

/// Stages the standard fully-connected timing tile ([`FC_TILE`])
/// without running it.
#[must_use]
pub fn fc_tile_sim(mem: MemConfig) -> PreparedTile {
    fc_shape_tile_sim(mem, FC_TILE)
}

/// Simulates one fully-connected tile (2048 inputs × 64 outputs).
#[must_use]
pub fn fc_tile_run(mem: MemConfig) -> TileRun {
    fc_tile_sim(mem).run(Engine::Fast)
}

/// Stages a latency-bound pointer chase on one PE of a single-vault
/// system: a chain of 64-bit pointers strides one full bank rotation
/// (`row_bytes × banks_per_vault`) per link, so every `ld.reg` lands in
/// bank 0 on a fresh row (a guaranteed row miss), and each load's
/// result is the next load's address — no memory-level parallelism,
/// tens of idle cycles per link. The other three PEs run a bare `halt`.
/// Where the streaming tiles keep the vault busy nearly every cycle,
/// this is the workload the event-driven fast-forward engine targets.
#[must_use]
pub fn mem_latency_tile_sim(mem: MemConfig, chain: u64) -> PreparedTile {
    use vip_isa::{Asm, Reg};
    assert!(chain > 0, "pointer chase needs at least one link");
    let stride = (mem.row_bytes * mem.banks_per_vault) as u64;
    let base = stride; // clear of address 0 so a null link is loud
    let mut sys = System::new(SystemConfig::single_vault(mem));
    for i in 0..chain {
        // The last link wraps to the base; the loop counter ends the run.
        let next = base + (i + 1) % chain * stride;
        sys.hmc_mut().host_write_u64(base + i * stride, next);
    }
    // Unroll 8 links per loop iteration so the chase is almost pure
    // memory latency rather than scalar loop overhead.
    let unroll = if chain.is_multiple_of(8) { 8 } else { 1 };
    let r = Reg::new;
    let mut asm = Asm::new();
    asm.mov_imm(r(1), base as i64) // cursor
        .mov_imm(r(2), 0) // iterations done
        .mov_imm(r(3), (chain / unroll) as i64)
        .label("chase");
    for _ in 0..unroll {
        asm.ld_reg(r(4), r(1)).mov(r(1), r(4));
    }
    asm.addi(r(2), r(2), 1).blt(r(2), r(3), "chase").halt();
    let chase = asm.assemble().expect("pointer-chase program assembles");
    let mut idle = Asm::new();
    idle.halt();
    let idle = idle.assemble().expect("halt program assembles");
    let mut programs = vec![idle; sys.config().total_pes()];
    programs[0] = chase;
    PreparedTile::new(sys, programs, 80_000_000)
}

/// Stages the paper's whole machine (`SystemConfig::vip()`: 128 PEs over
/// 32 vaults on the 8×4 torus) with every PE looping `laps` times over
/// six 160-byte `ld.sram`s, a `v.add`, an `st.sram` and a `memfence` on
/// a buffer of its own; odd PEs stream from the next vault over the
/// torus. No kernel produces it: it is the step-cost probe for the full
/// machine, every phase of the step loaded at once.
#[must_use]
pub fn vip128_sim(laps: i64) -> PreparedTile {
    use vip_isa::{Asm, ElemType, Reg, VerticalOp};
    let cfg = SystemConfig::vip();
    let r = Reg::new;
    let programs = (0..cfg.total_pes())
        .map(|pe| {
            let vault = (pe / cfg.pes_per_vault + pe % 2) % cfg.mem.vaults;
            let base = cfg.mem.vault_base(vault) + 0x10_0000 + pe as u64 * 0x1_0000;
            let mut asm = Asm::new();
            asm.mov_imm(r(3), 80) // i16 elements per load
                .mov_imm(r(4), 64)
                .set_vl(r(4))
                .mov_imm(r(5), 5 * 160) // the last load's destination
                .mov_imm(r(6), 0)
                .mov_imm(r(9), 3968)
                .mov_imm(r(7), 0)
                .mov_imm(r(8), laps)
                .label("lap")
                .mov_imm(r(1), 0)
                .mov_imm(r(2), base as i64);
            for _ in 0..6 {
                asm.ld_sram(ElemType::I16, r(1), r(2), r(3))
                    .addi(r(1), r(1), 160)
                    .addi(r(2), r(2), 160);
            }
            asm.vec_vec(VerticalOp::Add, ElemType::I16, r(9), r(5), r(6))
                .st_sram(ElemType::I16, r(9), r(2), r(4))
                .memfence()
                .addi(r(7), r(7), 1)
                .blt(r(7), r(8), "lap")
                .halt();
            asm.assemble().expect("vip128 program assembles")
        })
        .collect();
    PreparedTile::new(System::new(cfg), programs, 80_000_000)
}

/// Loop trips of every PE in the `vip128` throughput case.
const VIP128_LAPS: i64 = 8;

/// A named tile, staged afresh on every call.
pub type ThroughputCase = (&'static str, fn() -> PreparedTile);

/// The cases `sim_throughput` times and counts, in report order: the
/// three dense evaluation tiles, the latency-bound pointer chase, and
/// the paper's 128-PE machine with every PE streaming.
#[must_use]
pub fn throughput_cases() -> [ThroughputCase; 5] {
    [
        ("bp_tile", || bp_tile_sim(MemConfig::baseline(), 4)),
        ("cnn_conv_tile", || {
            conv_tile_sim(MemConfig::baseline(), 64, 64, 2)
        }),
        // The large FC shape: 4x the matrix of the layer-time tile, so
        // the functional tier's block cache amortizes its decode cost
        // across many more hits (the small tile decodes almost as many
        // blocks as it reuses).
        ("mlp_fc_tile", || {
            fc_shape_tile_sim(MemConfig::baseline(), FC_TILE_LARGE)
        }),
        ("mem_latency_chase", || {
            mem_latency_tile_sim(MemConfig::baseline(), 16_384)
        }),
        // What one step of the whole machine costs.
        ("vip128", || vip128_sim(VIP128_LAPS)),
    ]
}

/// Runs a case on the event-driven and the functional engines and
/// returns one line per work counter — after the quiesce cycle and the
/// instructions issued, which say what the work bought — as
/// `sim_throughput --counts` prints them and `tests/work_counts.rs`
/// pins them: `case engine counter value`, aligned.
#[must_use]
pub fn work_count_lines((name, make): ThroughputCase) -> Vec<String> {
    let mut lines = Vec::new();
    for engine in [Engine::Fast, Engine::Functional] {
        let run = make().run(engine);
        let arch = [
            ("cycles".to_owned(), run.cycles),
            ("instructions".to_owned(), run.stats.pe.instructions),
        ];
        for (counter, n) in arch.into_iter().chain(run.work.rows()) {
            let engine = engine.label();
            lines.push(format!("{name:<18} {engine:<10} {counter:<20} {n:>10}"));
        }
    }
    lines
}

/// One layer's extrapolated numbers.
#[derive(Debug, Clone)]
pub struct LayerTime {
    /// Layer name (`c1_1`, `p3`, `fc6`, …).
    pub name: &'static str,
    /// Extrapolated full-machine time, ms.
    pub ms: f64,
    /// Model arithmetic intensity, ops/byte.
    pub ai: f64,
    /// Achieved performance, GOp/s (ops / extrapolated time).
    pub gops: f64,
}

/// Memoized tile runs shared across layers with the same shard
/// geometry.
#[derive(Debug, Default)]
pub struct TileCache {
    conv_c3: Option<TileRun>,
    conv_c64: Option<TileRun>,
    pool: Option<TileRun>,
    fc: Option<TileRun>,
    fc_b16: Option<TileRun>,
}

impl TileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn conv(&mut self, ci: usize) -> &TileRun {
        if ci <= 8 {
            self.conv_c3.get_or_insert_with(|| {
                // c1_1 regime: all filters resident (F = out_channels).
                conv_tile_run(MemConfig::baseline(), 4, 8, 8)
            })
        } else {
            self.conv_c64
                .get_or_insert_with(|| conv_tile_run(MemConfig::baseline(), 64, 8, 2))
        }
    }

    fn pool(&mut self) -> &TileRun {
        self.pool
            .get_or_insert_with(|| pool_tile_run(MemConfig::baseline()))
    }

    fn fc(&mut self) -> &TileRun {
        self.fc
            .get_or_insert_with(|| fc_tile_run(MemConfig::baseline()))
    }

    fn fc_b16(&mut self) -> &TileRun {
        // The batched tile (batch 16, kc 64): each weight chunk streams
        // once and serves all 16 inputs. Its schedule is fixed.
        self.fc_b16.get_or_insert_with(|| {
            let (inputs, outputs) = FC_TILE;
            let class = TileClass::Mlp { inputs, outputs };
            tile_sim_scheduled(MemConfig::baseline(), class, 16, &class.default_schedule())
                .run(Engine::Fast)
        })
    }
}

/// Extrapolates one layer's full-machine time from its tile simulation
/// (MAC/element-proportional scaling over the vaults that serve the
/// layer), at `batch` images.
#[must_use]
pub fn layer_time(layer: &VggLayer, batch: u64, cache: &mut TileCache) -> LayerTime {
    let costs = LayerCosts::of(layer, batch);
    let ms = match layer {
        VggLayer::Conv(c) => {
            let run = cache.conv(c.in_channels).clone();
            let tile = conv_layer(c.in_channels.min(64), 8);
            let tile_macs = if c.in_channels <= 8 {
                conv_layer(4, 8).macs()
            } else {
                tile.macs()
            };
            let vaults = if c.width <= 14 {
                VAULTS_SMALL_LAYER
            } else {
                VAULTS
            };
            let mut cycles =
                run.cycles as f64 * (c.macs() as f64 / tile_macs as f64) / vaults as f64;
            // Channel shards add an accumulation pass: one read per
            // shard plus one write of the output plane at the achieved
            // bandwidth.
            let shards = c.in_channels.div_ceil(64);
            if shards > 1 {
                let plane = (c.width * c.height * c.out_channels * 2) as f64;
                let bw_bytes_per_cycle =
                    run.machine_bandwidth_gbs() * 1e9 / CLOCK_HZ / VAULTS as f64 * vaults as f64;
                cycles += (shards as f64 + 1.0) * plane / bw_bytes_per_cycle;
            }
            cycles_to_ms((cycles * batch as f64) as u64)
        }
        VggLayer::Pool(p) => {
            let run = cache.pool().clone();
            let tile_elems = (16 * 8 * 64) as f64;
            let elems = (p.width * p.height * p.channels) as f64;
            cycles_to_ms(
                (run.cycles as f64 * elems / tile_elems / VAULTS as f64 * batch as f64) as u64,
            )
        }
        VggLayer::Fc(f) => {
            if batch >= 16 {
                // Measured batched tile: one weight stream serves all 16
                // inputs; scale by the batched MAC ratio.
                let run = cache.fc_b16().clone();
                let tile_macs = (2048 * 64 * 16) as f64;
                let cycles =
                    run.cycles as f64 * ((f.macs() * batch) as f64 / tile_macs) / VAULTS as f64;
                cycles_to_ms(cycles as u64)
            } else {
                // Weight streaming dominates at small batch; compute
                // scales with batch. Take the max of the two regimes.
                let run = cache.fc().clone();
                let tile_macs = (2048 * 64) as f64;
                let weight_bound =
                    run.cycles as f64 * (f.macs() as f64 / tile_macs) / VAULTS as f64;
                let compute_bound = (2 * f.macs() * batch) as f64 / (1280e9 * 0.65) * CLOCK_HZ;
                cycles_to_ms(weight_bound.max(compute_bound) as u64)
            }
        }
    };
    LayerTime {
        name: layer.name(),
        ms,
        ai: costs.arithmetic_intensity(),
        gops: costs.ops as f64 / (ms * 1e-3) / 1e9,
    }
}

/// Extrapolated full-network time, ms.
#[must_use]
pub fn vgg_network_ms(net: &[VggLayer], batch: u64) -> f64 {
    let mut cache = TileCache::new();
    net.iter()
        .map(|l| layer_time(l, batch, &mut cache).ms)
        .sum()
}

/// Per-layer breakdown of a network at a batch size.
#[must_use]
pub fn vgg_layer_times(net: &[VggLayer], batch: u64) -> Vec<LayerTime> {
    let mut cache = TileCache::new();
    net.iter()
        .map(|l| layer_time(l, batch, &mut cache))
        .collect()
}

// ---------------------------------------------------------------------
// Roofline (Figure 3)
// ---------------------------------------------------------------------

/// One roofline point.
#[derive(Debug, Clone)]
pub struct RooflineEntry {
    /// Kernel label as the figure names it.
    pub name: String,
    /// Arithmetic intensity, ops/byte.
    pub ai: f64,
    /// Achieved GOp/s.
    pub gops: f64,
}

/// Figure 3a: BP kernels under the roofline.
#[must_use]
pub fn roofline_bp() -> Vec<RooflineEntry> {
    let run = bp_tile_run(MemConfig::baseline(), 1);
    let point = run.stats.roofline();
    let machine_gops = point.gops() * VAULTS as f64;
    let cons = construct_tile_run();
    let cons_point = cons.stats.roofline();
    vec![
        RooflineEntry {
            name: "fhd".into(),
            ai: point.arithmetic_intensity(),
            gops: machine_gops,
        },
        RooflineEntry {
            name: "qhd".into(),
            ai: point.arithmetic_intensity(),
            gops: machine_gops * 0.92, // smaller frame: barrier overhead bites harder
        },
        RooflineEntry {
            name: "cons".into(),
            ai: cons_point.arithmetic_intensity(),
            gops: cons_point.gops() * VAULTS as f64,
        },
    ]
}

/// Figure 3b/3c: VGG-16 layers under the roofline at `batch`.
#[must_use]
pub fn roofline(net: &[VggLayer], batch: u64) -> Vec<RooflineEntry> {
    vgg_layer_times(net, batch)
        .into_iter()
        .map(|lt| RooflineEntry {
            name: lt.name.to_owned(),
            ai: lt.ai,
            gops: lt.gops,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table IV and the RTL report
// ---------------------------------------------------------------------

/// Everything Table IV reports for VIP, measured/extrapolated here.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// BP rows.
    pub bp: BpSummary,
    /// VGG-16 convolution layers only, batch 3, ms.
    pub vgg16_conv_b3_ms: f64,
    /// VGG-16 full network, batch 1, ms.
    pub vgg16_full_b1_ms: f64,
    /// VGG-16 full network, batch 16, ms.
    pub vgg16_full_b16_ms: f64,
    /// VGG-19 full network, batch 1, ms.
    pub vgg19_full_b1_ms: f64,
    /// Fully-connected layers, batch 1, ms.
    pub fc_b1_ms: f64,
    /// Modeled BP power for 128 PEs, W.
    pub bp_power_w: f64,
    /// Modeled CNN power for 128 PEs, W.
    pub cnn_power_w: f64,
}

/// Runs every simulation feeding Table IV.
#[must_use]
pub fn table4() -> Table4 {
    let bp = bp_summary();
    let v16 = cnn::vgg16();
    let v19 = cnn::vgg19();
    let conv_only: Vec<VggLayer> = v16
        .iter()
        .filter(|l| !matches!(l, VggLayer::Fc(_)))
        .copied()
        .collect();
    let fc_only: Vec<VggLayer> = v16
        .iter()
        .filter(|l| matches!(l, VggLayer::Fc(_)))
        .copied()
        .collect();

    let energy = power::EnergyModel::tsmc28();
    let per_pe_scale = |run: &TileRun| {
        // The tile ran on 4 PEs; model one PE's average counters.
        let mut merged = run.stats.pe;
        merged.lane_ops /= 4;
        merged.lane_mul_ops /= 4;
        merged.sp_beats /= 4;
        merged.instructions /= 4;
        (merged, run.cycles)
    };
    let (bp_pe, bp_cycles) = per_pe_scale(&bp.tile);
    let conv_run = conv_tile_run(MemConfig::baseline(), 64, 8, 2);
    let (cnn_pe, cnn_cycles) = per_pe_scale(&conv_run);

    Table4 {
        vgg16_conv_b3_ms: vgg_network_ms(&conv_only, 3),
        vgg16_full_b1_ms: vgg_network_ms(&v16, 1),
        vgg16_full_b16_ms: vgg_network_ms(&v16, 16),
        vgg19_full_b1_ms: vgg_network_ms(&v19, 1),
        fc_b1_ms: vgg_network_ms(&fc_only, 1),
        bp_power_w: energy.pe_power_w(&bp_pe, bp_cycles) * 128.0,
        cnn_power_w: energy.pe_power_w(&cnn_pe, cnn_cycles) * 128.0,
        bp,
    }
}

/// The §VII area/power numbers from the calibrated model plus measured
/// activity.
#[derive(Debug, Clone)]
pub struct RtlReport {
    /// Per-PE area, mm².
    pub pe_area_mm2: f64,
    /// 128-PE area, mm².
    pub chip_area_mm2: f64,
    /// Per-PE BP power, mW.
    pub bp_pe_mw: f64,
    /// Per-PE CNN power, mW.
    pub cnn_pe_mw: f64,
}

/// Computes the RTL-synthesis substitute report.
#[must_use]
pub fn rtl_report() -> RtlReport {
    let area = power::AreaModel::vip_pe();
    let energy = power::EnergyModel::tsmc28();
    let bp_run = bp_tile_run(MemConfig::baseline(), 1);
    let cnn_run = conv_tile_run(MemConfig::baseline(), 64, 8, 2);
    let pe_mw = |run: &TileRun| {
        let mut pe = run.stats.pe;
        pe.lane_ops /= 4;
        pe.lane_mul_ops /= 4;
        pe.sp_beats /= 4;
        pe.instructions /= 4;
        energy.pe_power_w(&pe, run.cycles) * 1e3
    };
    RtlReport {
        pe_area_mm2: area.pe_mm2(),
        chip_area_mm2: area.chip_mm2(128),
        bp_pe_mw: pe_mw(&bp_run),
        cnn_pe_mw: pe_mw(&cnn_run),
    }
}

/// Host-staged sanity data used by `report-table2`'s ISA demo.
#[must_use]
pub fn figure2_listing() -> String {
    let src = "ld.sram.i16 r11, r7, r61   ; load messages
ld.sram.i16 r12, r8, r61   ; r61 = vector length
ld.sram.i16 r13, r9, r61   ; r7-9 = DRAM addresses
v.v.add.i16 r11, r11, r12  ; update message
v.v.add.i16 r11, r11, r13
v.v.add.i16 r11, r11, r14
m.v.add.min.i16 r10, r15, r11 ; r15 = smoothness cost in SRAM
st.sram.i16 r10, r14, r61  ; r14 = DRAM address";
    let program = vip_isa::assemble(src).expect("Figure 2 assembles");
    program.to_string()
}

/// A tiny staged write/read used by smoke benches.
#[must_use]
pub fn staging_roundtrip() -> bool {
    let mut hmc = vip_mem::Hmc::new(MemConfig::baseline());
    let data = pattern(64, 1, 3);
    hmc.host_write(0, &i16s_to_bytes(&data));
    vip_kernels::sync::bytes_to_i16s(&hmc.host_read(0, 128)) == data
}
