//! The timing tile: §V-A's evaluation vehicle, defined once.
//!
//! Every number this repo reproduces — Table IV, Figures 3 and 5, each
//! point the autotuner ranks, each request `vip-serve` dispatches — is
//! a run of "the largest *independent tile* of each workload on one
//! vault" at some shape under some schedule. A [`TileClass`] names the
//! shape; [`TileClass::stage_scheduled`] is the one place that says
//! which synthetic operands the tile carries, where they live in DRAM,
//! which generator emits its programs and how many cycles it may take.
//! The bench stagers, the autotuner's grid and the serving scheduler
//! all call it.
//!
//! A tuned schedule artifact ([`crate::schedule_store`], keyed by shape
//! string + structural configuration fingerprint) is input from
//! outside the program: [`TileClass::schedule`] is the one resolver,
//! and an artifact that is missing, malformed, of another family, or
//! out of bounds for the shape *or the machine* falls back to the
//! hand-picked default. Per-PE programs come from the shared
//! [`ProgramCache`], so repeat dispatches skip codegen entirely.
//!
//! Only the fully-connected family batches above 1: its batched
//! codegen ([`mlp::fc_batch_tile_programs`]) streams each weight chunk
//! once for the whole batch — the real economic win. The conv and BP
//! generators are single-image tiles (growing an image loop would
//! overflow the 1,024-entry instruction buffer), so their classes
//! declare a batch limit of 1 and multiplex across devices instead.

use std::path::Path;
use std::sync::Arc;

use vip_core::{System, SystemConfig};
use vip_isa::Program;
use vip_mem::Hmc;
use vip_snap::snapshot_enum;

use crate::bp::{self, bp_iteration_programs, BpLayout, Messages, Mrf, MrfParams};
use crate::cache::{CacheKey, ProgramCache};
use crate::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, FcLayer};
use crate::mlp::{self, FcBatchLayout, FcLayout};
use crate::pattern;
use crate::schedule::{invalid, BpSchedule, ConvSchedule, FcSchedule, Schedule, ScheduleError};
use crate::schedule_store as store;
use crate::sync::i16s_to_bytes;

/// Ceiling on the fully-connected batch size: the batched codegen
/// keeps `batch` input segments and accumulators resident beside one
/// weight chunk, which fits the 4 KiB scratchpad comfortably up to 16
/// at the batching column width.
pub const MAX_MLP_BATCH: usize = 16;

/// Column-chunk width of the batched fully-connected tile (narrower
/// than the single-image default so the batch fits the scratchpad —
/// the value the paper's batch-16 experiments use).
const BATCH_KC: usize = 64;

/// One timing-tile shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileClass {
    /// A fully-connected (tiled GEMV) layer of `inputs`×`outputs`.
    Mlp {
        /// Input vector length.
        inputs: usize,
        /// Output rows.
        outputs: usize,
    },
    /// A convolution tile (16×8 spatial, 3×3 kernel, pad 1) over the
    /// given channel shard.
    Cnn {
        /// Input channels resident in the shard.
        in_channels: usize,
        /// Output channels produced by the shard.
        out_channels: usize,
        /// Filters resident per scratchpad pass (the default-schedule
        /// grouping when no tuned artifact matches).
        filters_per_group: usize,
    },
    /// `iters` BP-M message-passing iterations over a `width`×`height`
    /// grid with `labels` labels.
    Bp {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
        /// Labels per pixel.
        labels: usize,
        /// Iterations per request.
        iters: usize,
    },
}

impl TileClass {
    /// The schedule-store shape key ([`crate::schedule_store`]).
    #[must_use]
    pub fn key(&self) -> String {
        match *self {
            TileClass::Mlp { inputs, outputs } => store::fc_key(&fc_layer(inputs, outputs)),
            TileClass::Cnn {
                in_channels,
                out_channels,
                ..
            } => store::conv_key(&conv_layer(in_channels, out_channels)),
            TileClass::Bp {
                width,
                height,
                labels,
                ..
            } => store::bp_key(width, height, labels),
        }
    }

    /// How many requests of this class one staged tile can serve.
    #[must_use]
    pub fn batch_limit(&self) -> usize {
        match *self {
            // Batched fc codegen needs the batching column width to
            // divide the input length; shapes that don't divide stay
            // unbatched rather than faulting at stage time.
            TileClass::Mlp { inputs, .. } if inputs % BATCH_KC == 0 => MAX_MLP_BATCH,
            _ => 1,
        }
    }

    /// Simulated-cycle budget before a dispatch of `batch` requests
    /// counts as hung.
    #[must_use]
    pub fn cycle_limit(&self, batch: usize) -> u64 {
        if batch > 1 {
            160_000_000
        } else {
            80_000_000
        }
    }

    /// The hand-picked schedule this class runs under when no tuned
    /// artifact applies (and the one the autotuner must beat).
    #[must_use]
    pub fn default_schedule(&self) -> Schedule {
        match *self {
            TileClass::Mlp { .. } => Schedule::Fc(FcSchedule::default()),
            TileClass::Cnn {
                in_channels,
                out_channels,
                filters_per_group,
            } => Schedule::Conv(ConvSchedule::default_for(
                &conv_layer(in_channels, out_channels),
                filters_per_group,
            )),
            TileClass::Bp { .. } => Schedule::Bp(BpSchedule::default()),
        }
    }

    /// Checks `sched` against this class's shape and against the
    /// machine it is to run on.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Invalid`] if the schedule belongs to
    /// another kernel family, fails its family's shape check, or splits
    /// the tile across more PEs than `cfg` has.
    pub fn validate(&self, cfg: &SystemConfig, sched: &Schedule) -> Result<(), ScheduleError> {
        let pes = match (*self, sched) {
            (TileClass::Mlp { inputs, outputs }, Schedule::Fc(s)) => {
                s.validate(&fc_layer(inputs, outputs))?;
                s.pes
            }
            (
                TileClass::Cnn {
                    in_channels,
                    out_channels,
                    ..
                },
                Schedule::Conv(s),
            ) => {
                s.validate(&conv_layer(in_channels, out_channels))?;
                s.pes
            }
            (
                TileClass::Bp {
                    width,
                    height,
                    labels,
                    ..
                },
                Schedule::Bp(s),
            ) => {
                s.validate(width, height, labels)?;
                s.pes
            }
            _ => {
                return Err(invalid(format!(
                    "a {} schedule cannot drive a {} tile",
                    sched.kernel(),
                    self.key()
                )))
            }
        };
        if pes > cfg.total_pes() {
            return Err(invalid(format!(
                "{pes}-PE split on a {}-PE machine",
                cfg.total_pes()
            )));
        }
        Ok(())
    }

    /// The schedule this class runs under on `cfg`: the tuned artifact
    /// under `dir` for this shape and configuration if there is one and
    /// it passes [`validate`](Self::validate), else
    /// [`default_schedule`](Self::default_schedule). A rejected
    /// artifact is treated exactly like a missing one.
    #[must_use]
    pub fn schedule(&self, cfg: &SystemConfig, dir: &Path) -> Schedule {
        store::load_from(dir, &self.key(), cfg.snapshot_fingerprint())
            .filter(|sched| self.validate(cfg, sched).is_ok())
            .unwrap_or_else(|| self.default_schedule())
    }

    /// Stages one tile serving `batch` requests of this class under
    /// the [`schedule`](Self::schedule) resolved from `sched_dir`.
    ///
    /// # Panics
    ///
    /// As for [`stage_scheduled`](Self::stage_scheduled).
    #[must_use]
    pub fn stage(
        &self,
        cfg: &SystemConfig,
        batch: usize,
        sched_dir: &Path,
        cache: &ProgramCache,
    ) -> StagedJob {
        self.stage_scheduled(cfg, batch, &self.schedule(cfg, sched_dir), cache)
    }

    /// Stages one tile serving `batch` requests of this class under an
    /// explicit schedule: builds the device system, loads
    /// inputs/weights/messages, and resolves prepared programs through
    /// `cache`. Programs are *not* yet loaded into the PEs — the caller
    /// loads them at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` exceeds [`TileClass::batch_limit`] or `sched`
    /// fails [`validate`](Self::validate).
    #[must_use]
    pub fn stage_scheduled(
        &self,
        cfg: &SystemConfig,
        batch: usize,
        sched: &Schedule,
        cache: &ProgramCache,
    ) -> StagedJob {
        assert!(
            batch >= 1 && batch <= self.batch_limit(),
            "batch {batch} outside this class's limit"
        );
        if let Err(why) = self.validate(cfg, sched) {
            panic!(
                "cannot stage {} under `{}`: {why}",
                self.key(),
                sched.encoding()
            );
        }
        let reader = self.layout(batch, sched);
        let mut sys = System::new(cfg.clone());
        let cache_key = |encoding: String| CacheKey {
            key: self.key(),
            encoding,
            fingerprint: cfg.snapshot_fingerprint(),
            batch,
        };
        let programs = match (&reader, sched) {
            (ResultReader::Fc(layout), Schedule::Fc(s)) => {
                let FcLayer {
                    inputs, outputs, ..
                } = layout.layer;
                layout.load_into_scheduled(
                    sys.hmc_mut(),
                    s,
                    &pattern(inputs, 1, 5),
                    &pattern(inputs * outputs, 1, 5),
                    &pattern(outputs, 1, 2),
                );
                cache.get_or_build(cache_key(sched.encoding()), || {
                    mlp::fc_tile_programs(layout, s)
                })
            }
            (ResultReader::FcBatch(layout), _) => {
                let FcLayer {
                    inputs, outputs, ..
                } = layout.layer;
                layout.load_into(
                    sys.hmc_mut(),
                    &pattern(inputs * batch, 1, 5),
                    &pattern(inputs * outputs, 1, 5),
                    &pattern(outputs, 1, 2),
                );
                cache.get_or_build(cache_key(format!("batch-kc{BATCH_KC}")), || {
                    mlp::fc_batch_tile_programs(layout, 4)
                })
            }
            (ResultReader::Conv(layout), Schedule::Conv(s)) => {
                let layer = layout.layer;
                let input = cnn::pad_input(
                    layer.width,
                    layer.height,
                    layer.in_channels,
                    layer.pad,
                    &pattern(layer.width * layer.height * layer.in_channels, 1, 5),
                );
                layout.load_into(
                    sys.hmc_mut(),
                    &input,
                    &pattern(layer.weights(), 1, 3),
                    &pattern(layer.out_channels, 1, 2),
                );
                cache.get_or_build(cache_key(sched.encoding()), || {
                    conv_tile_programs(layout, s)
                })
            }
            (ResultReader::Bp(layout), Schedule::Bp(s)) => {
                let TileClass::Bp { iters, .. } = *self else {
                    unreachable!("only BP classes lay out a BP tile");
                };
                let (width, height, labels) = (layout.width, layout.height, layout.labels);
                let costs = bp::stereo_data_costs(width, height, labels, 7);
                let mrf = Mrf::new(
                    MrfParams::truncated_linear(width, height, labels, 2, 12),
                    costs,
                );
                // Timing runs use the paper's exact Figure 2 instruction
                // sequence (unnormalized: 3L + 2L² ops per update); the
                // normalized variant is exercised by the correctness
                // tests and examples.
                layout.load_into(
                    sys.hmc_mut(),
                    &mrf,
                    &Messages::new_unnormalized(&mrf.params),
                );
                // The iteration count is a loop bound in the generated
                // code but not part of the shape an artifact is tuned
                // for, so it is in the cache key and not the store key.
                cache.get_or_build(cache_key(format!("{}:it{iters}", sched.encoding())), || {
                    bp_iteration_programs(layout, s, iters, false)
                })
            }
            _ => unreachable!("`layout` follows the validated schedule's family"),
        };
        StagedJob {
            sys,
            programs,
            limit: self.cycle_limit(batch),
            reader,
        }
    }

    /// Where a dispatch of `batch` requests of this class under `sched`
    /// keeps its operands and results (the batched fully-connected tile
    /// has one fixed schedule and ignores `sched`).
    /// [`stage_scheduled`](Self::stage_scheduled) stages exactly this
    /// and [`reader_for`](Self::reader_for) rebuilds exactly this, so
    /// what a restored fleet reads back is what was staged.
    fn layout(&self, batch: usize, sched: &Schedule) -> ResultReader {
        match (*self, sched) {
            (TileClass::Mlp { inputs, outputs }, _) if batch > 1 => ResultReader::FcBatch(
                FcBatchLayout::timing_tile(fc_layer(inputs, outputs), batch, BATCH_KC),
            ),
            (TileClass::Mlp { inputs, outputs }, Schedule::Fc(_)) => {
                ResultReader::Fc(FcLayout::timing_tile(fc_layer(inputs, outputs)))
            }
            (
                TileClass::Cnn {
                    in_channels,
                    out_channels,
                    ..
                },
                Schedule::Conv(sched),
            ) => ResultReader::Conv(ConvLayout::timing_tile(
                conv_layer(in_channels, out_channels),
                sched.filters_per_group,
            )),
            (
                TileClass::Bp {
                    width,
                    height,
                    labels,
                    ..
                },
                Schedule::Bp(sched),
            ) => ResultReader::Bp(BpLayout::with_row_pad(
                0,
                width,
                height,
                labels,
                sched.row_pad,
            )),
            _ => unreachable!("callers validate the schedule's family first"),
        }
    }

    /// Rebuilds the [`ResultReader`] a dispatch of `batch` requests of
    /// this class would have been staged with — the piece of job state
    /// a fleet checkpoint cannot serialize (layouts carry static
    /// names), reconstructed instead from the class, the batch size,
    /// and the same schedule resolution [`TileClass::stage`] performs.
    #[must_use]
    pub fn reader_for(&self, cfg: &SystemConfig, batch: usize, sched_dir: &Path) -> ResultReader {
        self.layout(batch, &self.schedule(cfg, sched_dir))
    }
}

snapshot_enum!(TileClass, "tile class tag" {
    0 => Mlp { inputs, outputs },
    1 => Cnn { in_channels, out_channels, filters_per_group },
    2 => Bp { width, height, labels, iters },
});

fn fc_layer(inputs: usize, outputs: usize) -> FcLayer {
    FcLayer {
        name: "tile",
        inputs,
        outputs,
    }
}

/// The simulated conv tile geometry for a channel shard of
/// `in_channels` channels and `out_channels` resident output channels:
/// 16×8 spatial, 3×3 kernel, pad 1.
#[must_use]
pub fn conv_layer(in_channels: usize, out_channels: usize) -> ConvLayer {
    ConvLayer {
        name: "tile",
        in_channels,
        out_channels,
        width: 16,
        height: 8,
        kernel: 3,
        pad: 1,
    }
}

/// A staged dispatch: device system built and loaded with data,
/// prepared programs resolved, result readback captured.
#[derive(Debug)]
pub struct StagedJob {
    /// The device about to run the tile (programs not yet loaded).
    pub sys: System,
    /// Shared per-PE programs from the [`ProgramCache`].
    pub programs: Arc<Vec<Program>>,
    /// Simulated-cycle budget.
    pub limit: u64,
    /// Per-request result readback.
    pub reader: ResultReader,
}

impl StagedJob {
    /// Loads the prepared programs into the device's PEs.
    pub fn load_programs(&mut self) {
        for (pe, p) in self.programs.iter().enumerate() {
            self.sys.load_program(pe, p);
        }
    }
}

/// Knows where a finished tile's outputs live and how to split them
/// per batched request.
#[derive(Debug)]
pub enum ResultReader {
    /// Single-image fully-connected output vector.
    Fc(FcLayout),
    /// Batched fully-connected `[batch][outputs]` matrix — one chunk
    /// per request.
    FcBatch(FcBatchLayout),
    /// Convolution output planes.
    Conv(ConvLayout),
    /// BP message arrays — the full tile region, bit-exact.
    Bp(BpLayout),
}

impl ResultReader {
    /// Reads the finished tile's outputs, one byte blob per batched
    /// request (host-side, after quiescence).
    #[must_use]
    pub fn read(&self, hmc: &Hmc) -> Vec<Vec<u8>> {
        match self {
            ResultReader::Fc(l) => vec![i16s_to_bytes(&l.read_output(hmc))],
            ResultReader::FcBatch(l) => l
                .read_output(hmc)
                .chunks(l.layer.outputs)
                .map(i16s_to_bytes)
                .collect(),
            ResultReader::Conv(l) => vec![i16s_to_bytes(&l.read_output(hmc))],
            ResultReader::Bp(l) => {
                vec![hmc.host_read(l.base, usize::try_from(l.total_bytes()).expect("tile fits"))]
            }
        }
    }
}
