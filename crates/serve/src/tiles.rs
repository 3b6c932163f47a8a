//! The servable tile classes and their batchable stagers.
//!
//! A request names a [`TileClass`]; the scheduler batches compatible
//! requests (same class, same priority) and stages one simulated tile
//! per dispatch. Staging mirrors the bench stagers: tuned schedule
//! artifacts are resolved through [`vip_kernels::schedule_store`]
//! (keyed by shape string + structural configuration fingerprint) and
//! fall back to the hand-picked defaults; per-PE programs come from
//! the shared [`ProgramCache`] so repeat dispatches skip codegen
//! entirely.
//!
//! Only the fully-connected family batches above 1: its batched
//! codegen ([`vip_kernels::mlp::fc_batch_tile_programs`]) streams each
//! weight chunk once for the whole batch — the real economic win. The
//! conv and BP generators are single-image tiles (growing an image
//! loop would overflow the 1,024-entry instruction buffer), so their
//! classes declare a batch limit of 1 and multiplex across devices
//! instead.

use std::path::Path;
use std::sync::Arc;

use vip_core::{System, SystemConfig};
use vip_isa::Program;
use vip_kernels::bp::{self, bp_iteration_programs, BpLayout, Messages, Mrf, MrfParams};
use vip_kernels::cnn::{self, conv_tile_programs, ConvLayer, ConvLayout, FcLayer};
use vip_kernels::mlp::{self, FcBatchLayout, FcLayout};
use vip_kernels::pattern;
use vip_kernels::schedule::{BpSchedule, ConvSchedule, FcSchedule, Schedule};
use vip_kernels::schedule_store as store;
use vip_kernels::sync::i16s_to_bytes;
use vip_mem::Hmc;
use vip_snap::snapshot_enum;

use crate::cache::{CacheKey, ProgramCache};

/// Ceiling on the fully-connected batch size: the batched codegen
/// keeps `batch` input segments and accumulators resident beside one
/// weight chunk, which fits the 4 KiB scratchpad comfortably up to 16
/// at the batching column width.
pub const MAX_MLP_BATCH: usize = 16;

/// Column-chunk width of the batched fully-connected tile (narrower
/// than the single-image default so the batch fits the scratchpad —
/// the value the paper's batch-16 experiments use).
const BATCH_KC: usize = 64;

/// One servable inference tile shape.
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
    /// The schedule-store shape key ([`vip_kernels::schedule_store`]).
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

    /// Stages one tile serving `batch` requests of this class: builds
    /// the device system, loads inputs/weights/messages, and resolves
    /// prepared programs through `cache` (tuned schedules looked up
    /// under `sched_dir`). Programs are *not* yet loaded into the PEs —
    /// the scheduler loads them at dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` exceeds [`TileClass::batch_limit`] or the
    /// shape violates the generated kernel's divisibility rules.
    #[must_use]
    pub fn stage(
        &self,
        cfg: &SystemConfig,
        batch: usize,
        sched_dir: &Path,
        cache: &ProgramCache,
    ) -> StagedJob {
        assert!(
            batch >= 1 && batch <= self.batch_limit(),
            "batch {batch} outside this class's limit"
        );
        let fingerprint = cfg.snapshot_fingerprint();
        let (reader, sched) = self.plan(batch, sched_dir, fingerprint);
        let mut sys = System::new(cfg.clone());
        let cache_key = |encoding: String| CacheKey {
            key: self.key(),
            encoding,
            fingerprint,
            batch,
        };
        let programs = match (&reader, sched) {
            (ResultReader::Fc(layout), Some(Schedule::Fc(sched))) => {
                let FcLayer {
                    inputs, outputs, ..
                } = layout.layer;
                layout.load_into_scheduled(
                    sys.hmc_mut(),
                    &sched,
                    &pattern(inputs, 1, 5),
                    &pattern(inputs * outputs, 1, 5),
                    &pattern(outputs, 1, 2),
                );
                cache.get_or_build(cache_key(Schedule::Fc(sched).encoding()), || {
                    mlp::fc_tile_programs(layout, &sched)
                })
            }
            (ResultReader::FcBatch(layout), None) => {
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
            (ResultReader::Conv(layout), Some(Schedule::Conv(sched))) => {
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
                cache.get_or_build(cache_key(Schedule::Conv(sched).encoding()), || {
                    conv_tile_programs(layout, &sched)
                })
            }
            (ResultReader::Bp(layout), Some(Schedule::Bp(sched))) => {
                let TileClass::Bp { iters, .. } = *self else {
                    unreachable!("only BP classes plan a BP layout");
                };
                let (width, height, labels) = (layout.width, layout.height, layout.labels);
                let costs = bp::stereo_data_costs(width, height, labels, 7);
                let mrf = Mrf::new(
                    MrfParams::truncated_linear(width, height, labels, 2, 12),
                    costs,
                );
                layout.load_into(
                    sys.hmc_mut(),
                    &mrf,
                    &Messages::new_unnormalized(&mrf.params),
                );
                cache.get_or_build(cache_key(Schedule::Bp(sched).encoding()), || {
                    bp_iteration_programs(layout, &sched, iters, false)
                })
            }
            _ => unreachable!("`plan` pairs each layout with its family's schedule"),
        };
        StagedJob {
            sys,
            programs,
            limit: self.cycle_limit(batch),
            reader,
        }
    }

    /// Where a dispatch of `batch` requests of this class keeps its
    /// operands and results, and the schedule that was resolved to
    /// decide it (the tuned artifact under `sched_dir` for this shape
    /// and configuration, else the hand-picked default; the batched
    /// fully-connected tile has one fixed schedule and reports none).
    /// [`stage`](Self::stage) stages exactly this and
    /// [`reader_for`](Self::reader_for) rebuilds exactly this, so what a
    /// restored fleet reads back is what was staged.
    fn plan(
        &self,
        batch: usize,
        sched_dir: &Path,
        fingerprint: u64,
    ) -> (ResultReader, Option<Schedule>) {
        match *self {
            TileClass::Mlp { inputs, outputs } => {
                let layer = fc_layer(inputs, outputs);
                if batch == 1 {
                    let sched = fc_schedule(sched_dir, &layer, fingerprint);
                    let layout = FcLayout::timing_tile(layer);
                    (ResultReader::Fc(layout), Some(Schedule::Fc(sched)))
                } else {
                    let layout = FcBatchLayout::timing_tile(layer, batch, BATCH_KC);
                    (ResultReader::FcBatch(layout), None)
                }
            }
            TileClass::Cnn {
                in_channels,
                out_channels,
                filters_per_group,
            } => {
                let layer = conv_layer(in_channels, out_channels);
                let sched = conv_schedule(sched_dir, &layer, filters_per_group, fingerprint);
                let layout = ConvLayout::timing_tile(layer, sched.filters_per_group);
                (ResultReader::Conv(layout), Some(Schedule::Conv(sched)))
            }
            TileClass::Bp {
                width,
                height,
                labels,
                ..
            } => {
                let sched = bp_schedule(sched_dir, width, height, labels, fingerprint);
                let layout = BpLayout::with_row_pad(0, width, height, labels, sched.row_pad);
                (ResultReader::Bp(layout), Some(Schedule::Bp(sched)))
            }
        }
    }

    /// Rebuilds the [`ResultReader`] a dispatch of `batch` requests of
    /// this class would have been staged with — the piece of job state
    /// a fleet checkpoint cannot serialize (layouts carry static
    /// names), reconstructed instead from the class, the batch size,
    /// and the same schedule resolution [`TileClass::stage`] performs.
    #[must_use]
    pub fn reader_for(&self, batch: usize, sched_dir: &Path, fingerprint: u64) -> ResultReader {
        self.plan(batch, sched_dir, fingerprint).0
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

fn conv_layer(in_channels: usize, out_channels: usize) -> ConvLayer {
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

fn fc_schedule(dir: &Path, layer: &FcLayer, fingerprint: u64) -> FcSchedule {
    match store::load_from(dir, &store::fc_key(layer), fingerprint) {
        Some(Schedule::Fc(s)) if s.validate(layer).is_ok() => s,
        _ => FcSchedule::default(),
    }
}

fn conv_schedule(
    dir: &Path,
    layer: &ConvLayer,
    filters_per_group: usize,
    fingerprint: u64,
) -> ConvSchedule {
    match store::load_from(dir, &store::conv_key(layer), fingerprint) {
        Some(Schedule::Conv(s)) if s.validate(layer).is_ok() => s,
        _ => ConvSchedule::default_for(layer, filters_per_group),
    }
}

fn bp_schedule(dir: &Path, w: usize, h: usize, l: usize, fingerprint: u64) -> BpSchedule {
    match store::load_from(dir, &store::bp_key(w, h, l), fingerprint) {
        Some(Schedule::Bp(s)) if s.validate(w, h, l).is_ok() => s,
        _ => BpSchedule::default(),
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
