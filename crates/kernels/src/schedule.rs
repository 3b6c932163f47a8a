//! Typed, serializable codegen schedules — the autotuning search space.
//!
//! Every hand-picked knob in the kernel code generators (the FC tile's
//! column-chunk width and row-chunk blocking, the convolution's
//! filter-group size and prefetch ring, BP's machine style and
//! bank-aware row padding, and each kernel's PE split) is captured by a
//! per-kernel `*Schedule` struct. A schedule is:
//!
//! * **validated** against the kernel's shape before any code is
//!   generated ([`FcSchedule::validate`] and friends check scratchpad
//!   capacity, divisibility, PE-split rules and the code size a knob
//!   unrolls to, so an invalid search point — or a hostile artifact
//!   file — is rejected up front instead of panicking mid-codegen;
//!   [`TileClass::validate`] adds the family and machine checks);
//! * **serializable** as a small flat JSON object ([`Schedule::to_json`]
//!   / [`Schedule::from_json`]), the on-disk artifact format the
//!   autotuner emits under `schedules/` and the bench harness loads by
//!   configuration fingerprint;
//! * **stably encodable** as a one-line key ([`Schedule::encoding`])
//!   that names search points and feeds the crash-tolerant runner's
//!   point hash.
//!
//! [`SearchSpace`] is the matching per-knob candidate grid; its
//! [`enumerate`](SearchSpace::enumerate) produces every *valid*
//! cartesian combination for a concrete tile class and machine, in a
//! stable order, so a seeded search is deterministic.

use std::fmt;

use vip_core::SystemConfig;
use vip_isa::INST_BUFFER_ENTRIES;

use crate::bp::VectorMachineStyle;
use crate::cnn::ConvLayer;
use crate::cnn::FcLayer;
use crate::tile::TileClass;

/// PE scratchpad capacity in bytes — the hard wall every schedule's
/// working set is validated against.
pub const SCRATCHPAD_BYTES: usize = 4096;

/// Why a schedule (or its JSON form) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The JSON text failed to parse at a byte offset.
    Json {
        /// Byte offset of the error.
        at: usize,
        /// What the parser expected or saw.
        what: String,
    },
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but malformed (wrong type, unknown label).
    BadField {
        /// The field.
        field: &'static str,
        /// What was wrong.
        why: String,
    },
    /// The `kernel` discriminant names no known kernel family.
    UnknownKernel(String),
    /// The schedule parsed but fails a validity check for the kernel
    /// shape (scratchpad overflow, divisibility, PE split).
    Invalid(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Json { at, what } => write!(f, "json error at byte {at}: {what}"),
            ScheduleError::MissingField(field) => write!(f, "missing field `{field}`"),
            ScheduleError::BadField { field, why } => write!(f, "bad field `{field}`: {why}"),
            ScheduleError::UnknownKernel(k) => write!(f, "unknown kernel `{k}`"),
            ScheduleError::Invalid(why) => write!(f, "invalid schedule: {why}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

pub(crate) fn invalid(why: impl Into<String>) -> ScheduleError {
    ScheduleError::Invalid(why.into())
}

// ---------------------------------------------------------------------
// FC (MLP)
// ---------------------------------------------------------------------

/// Codegen schedule for the fully-connected (tiled GEMV) kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcSchedule {
    /// Input columns per streamed weight chunk (the historical
    /// hand-picked value is 256).
    pub kc: usize,
    /// Output rows per `m.v` matrix (`set.mr`); also the weight-pack
    /// row-chunk height.
    pub mr: usize,
    /// Row chunks accumulated per input-segment load. At 1 (the
    /// historical behaviour) the input vector is re-streamed from DRAM
    /// for every row chunk; larger blocks keep several accumulators
    /// resident and reuse each loaded input segment across them.
    pub rc_block: usize,
    /// PEs the tile's row chunks are split across.
    pub pes: usize,
}

impl Default for FcSchedule {
    /// The hand-picked pre-autotuner defaults.
    fn default() -> Self {
        FcSchedule {
            kc: crate::mlp::KC,
            mr: crate::mlp::MR,
            rc_block: 1,
            pes: 4,
        }
    }
}

impl FcSchedule {
    /// Scratchpad bytes the generated code needs: one weight chunk, one
    /// input segment, `rc_block` accumulators, one partial.
    #[must_use]
    pub fn scratchpad_bytes(&self) -> usize {
        self.mr * self.kc * 2 + self.kc * 2 + self.rc_block * self.mr * 2 + self.mr * 2
    }

    /// Checks the schedule against a concrete layer shape.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Invalid`] on scratchpad overflow or any
    /// divisibility violation.
    pub fn validate(&self, layer: &FcLayer) -> Result<(), ScheduleError> {
        if self.kc == 0 || self.mr == 0 || self.rc_block == 0 || self.pes == 0 {
            return Err(invalid("fc schedule knobs must be non-zero"));
        }
        if !layer.inputs.is_multiple_of(self.kc) {
            return Err(invalid(format!(
                "kc {} does not divide {} inputs",
                self.kc, layer.inputs
            )));
        }
        if !layer.outputs.is_multiple_of(self.mr) {
            return Err(invalid(format!(
                "mr {} does not divide {} outputs",
                self.mr, layer.outputs
            )));
        }
        let row_chunks = layer.outputs / self.mr;
        if !row_chunks.is_multiple_of(self.pes) {
            return Err(invalid(format!(
                "{row_chunks} row chunks do not split across {} PEs",
                self.pes
            )));
        }
        if !(row_chunks / self.pes).is_multiple_of(self.rc_block) {
            return Err(invalid(format!(
                "rc_block {} does not divide {} row chunks per PE",
                self.rc_block,
                row_chunks / self.pes
            )));
        }
        let need = self.scratchpad_bytes();
        if need > SCRATCHPAD_BYTES {
            return Err(invalid(format!(
                "working set {need} B overflows the {SCRATCHPAD_BYTES} B scratchpad"
            )));
        }
        let len = crate::mlp::fc_program_len(self.rc_block);
        if len > INST_BUFFER_ENTRIES {
            return Err(invalid(format!(
                "rc_block {} unrolls to {len} instructions, over the \
                 {INST_BUFFER_ENTRIES}-entry instruction buffer",
                self.rc_block
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Conv (CNN)
// ---------------------------------------------------------------------

/// Codegen schedule for the convolution tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvSchedule {
    /// Filters resident in the scratchpad per pass (must match the
    /// packed-weight layout the host stages).
    pub filters_per_group: usize,
    /// Input-column ring slots (and the x-loop unroll). The minimum,
    /// `kernel + 1`, is the historical value; deeper rings prefetch
    /// further ahead of the compute.
    pub ring: usize,
    /// Whether each PE takes every `pes`-th output row instead of a
    /// contiguous block — spreads concurrent row traffic across DRAM
    /// banks.
    pub interleave_rows: bool,
    /// PEs the tile's output rows are split across.
    pub pes: usize,
}

impl ConvSchedule {
    /// The hand-picked defaults for a layer: the given filter-group
    /// size, the minimal `k + 1` ring, blocked rows, 4 PEs.
    #[must_use]
    pub fn default_for(layer: &ConvLayer, filters_per_group: usize) -> Self {
        ConvSchedule {
            filters_per_group,
            ring: layer.kernel + 1,
            interleave_rows: false,
            pes: 4,
        }
    }

    /// Scratchpad bytes: packed filter group + biases + the column ring
    /// + three per-column partial vectors.
    #[must_use]
    pub fn scratchpad_bytes(&self, layer: &ConvLayer) -> usize {
        let (k, ci) = (layer.kernel, layer.in_channels);
        let f = self.filters_per_group;
        f * k * k * ci * 2 + f * 2 + self.ring * k * ci * 2 + 3 * f * 2
    }

    /// Checks the schedule against a concrete layer shape.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Invalid`] on scratchpad overflow or any
    /// divisibility violation.
    pub fn validate(&self, layer: &ConvLayer) -> Result<(), ScheduleError> {
        if self.filters_per_group == 0 || self.ring == 0 || self.pes == 0 {
            return Err(invalid("conv schedule knobs must be non-zero"));
        }
        if !layer.out_channels.is_multiple_of(self.filters_per_group) {
            return Err(invalid(format!(
                "filter group {} does not divide {} output channels",
                self.filters_per_group, layer.out_channels
            )));
        }
        if self.ring < layer.kernel + 1 {
            return Err(invalid(format!(
                "ring {} cannot hold a {}-wide window plus prefetch",
                self.ring, layer.kernel
            )));
        }
        if !layer.width.is_multiple_of(self.ring) {
            return Err(invalid(format!(
                "ring {} does not divide tile width {}",
                self.ring, layer.width
            )));
        }
        if !layer.height.is_multiple_of(self.pes) {
            return Err(invalid(format!(
                "{} rows do not split across {} PEs",
                layer.height, self.pes
            )));
        }
        let need = self.scratchpad_bytes(layer);
        if need > SCRATCHPAD_BYTES {
            return Err(invalid(format!(
                "working set {need} B overflows the {SCRATCHPAD_BYTES} B scratchpad"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// BP
// ---------------------------------------------------------------------

/// Codegen/layout schedule for the BP-M iteration tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BpSchedule {
    /// Vector-machine style (Figure 4); `SpReduce` is VIP proper.
    pub style: VectorMachineStyle,
    /// Bank-stagger padding appended to each image row and plane of the
    /// message arrays; 0 is the densely packed (ablation) placement and
    /// 256 — one DRAM row — the historical hand-pick value.
    pub row_pad: usize,
    /// PEs each sweep's orthogonal axis is split across.
    pub pes: usize,
    /// Rotating scratchpad group buffers per strip. 2 is the historical
    /// hand-written ping-pong, which drains its prefetch pipeline at
    /// every sequential step (row/column) of a strip; 3+ switches the
    /// generator to a flat software pipeline that prefetches across
    /// step boundaries with this many rotating buffers, hiding the DMA
    /// latency the ping-pong re-exposes `seq_count` times per strip.
    pub group_bufs: usize,
}

impl Default for BpSchedule {
    /// The hand-picked pre-autotuner defaults.
    fn default() -> Self {
        BpSchedule {
            style: VectorMachineStyle::SpReduce,
            row_pad: 256,
            pes: 4,
            group_bufs: 2,
        }
    }
}

impl BpSchedule {
    /// Checks the schedule against a tile's grid shape.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Invalid`] if the per-PE strip widths
    /// violate the generator's alignment rules, the padded row stride
    /// outgrows the generated code's pointer-step immediates, or the
    /// label count overflows the scratchpad map.
    pub fn validate(
        &self,
        width: usize,
        height: usize,
        labels: usize,
    ) -> Result<(), ScheduleError> {
        if self.pes == 0 {
            return Err(invalid("bp schedule needs at least one PE"));
        }
        if !self.row_pad.is_multiple_of(32) {
            return Err(invalid(format!(
                "row pad {} is not 32-byte column aligned",
                self.row_pad
            )));
        }
        for (axis, n) in [("width", width), ("height", height)] {
            if !n.is_multiple_of(self.pes) || !(n / self.pes).is_multiple_of(8) {
                return Err(invalid(format!(
                    "{axis} {n} does not split into 8-aligned strips across {} PEs",
                    self.pes
                )));
            }
        }
        // The strip generator walks the planes with `addi` steps, whose
        // immediates are 24-bit signed. The widest is a horizontal
        // strip's wrap to its next column, ∓(pixel + rows-per-PE × row
        // stride); with at least 8 rows per PE it dominates the 4 × row
        // stride group step and the vertical strips' row stride +
        // columns-per-PE × pixel. Checked: `row_pad` is read from an
        // artifact file and may be anything.
        let pixel = labels * 2;
        let widest_step = width
            .checked_mul(pixel)
            .and_then(|row| row.checked_add(self.row_pad))
            .and_then(|row_stride| row_stride.checked_mul(height / self.pes))
            .and_then(|column| column.checked_add(pixel));
        if widest_step.is_none_or(|step| step >= 1 << 23) {
            return Err(invalid(format!(
                "row pad {} puts a strip's pointer steps outside the 24-bit immediate",
                self.row_pad
            )));
        }
        // The divide-and-conquer emulation quadruples the update's code
        // size and a full iteration program then overflows the
        // instruction buffer: the no-reduction styles exist for the
        // Figure 4 strip kernels (`StripParams`), not for tiles.
        if !self.style.uses_reduction() {
            return Err(invalid(format!(
                "a {} iteration program overflows the {INST_BUFFER_ENTRIES}-entry \
                 instruction buffer",
                self.style.label()
            )));
        }
        // Two is the ping-pong; the flat pipeline rotates through at
        // most four buffer registers.
        if !(2..=4).contains(&self.group_bufs) {
            return Err(invalid(format!(
                "{} group buffers: the strip generator rotates 2 to 4",
                self.group_bufs
            )));
        }
        // A buffer deeper than every strip's group count can never be
        // filled (and prefetching that far ahead would overrun the
        // along-plane stores feeding the next sequential step).
        let deepest = (width / self.pes / 4).max(height / self.pes / 4);
        if self.group_bufs > deepest {
            return Err(invalid(format!(
                "{} group buffers exceed the deepest strip's {deepest} groups",
                self.group_bufs
            )));
        }
        // Mirror of the strip generator's SpMap budget.
        let lb = labels * 2;
        let need = labels * labels * 2 + (7 + 16 * self.group_bufs) * lb;
        if need > SCRATCHPAD_BYTES {
            return Err(invalid(format!(
                "{labels} labels with {} group buffers need {need} B of scratchpad, \
                 over {SCRATCHPAD_BYTES}",
                self.group_bufs
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The tagged union + JSON
// ---------------------------------------------------------------------

/// Any kernel family's schedule, as stored in a `schedules/*.json`
/// artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Fully-connected (MLP) tile.
    Fc(FcSchedule),
    /// Convolution (CNN) tile.
    Conv(ConvSchedule),
    /// BP-M iteration tile.
    Bp(BpSchedule),
}

impl Schedule {
    /// The kernel-family discriminant used in file names and JSON.
    #[must_use]
    pub fn kernel(&self) -> &'static str {
        match self {
            Schedule::Fc(_) => "fc",
            Schedule::Conv(_) => "conv",
            Schedule::Bp(_) => "bp",
        }
    }

    /// A stable, compact one-line key naming this exact schedule —
    /// search-point names and the runner's point hash are built from
    /// it.
    #[must_use]
    pub fn encoding(&self) -> String {
        match self {
            Schedule::Fc(s) => format!("fc:kc{}:mr{}:rb{}:pe{}", s.kc, s.mr, s.rc_block, s.pes),
            Schedule::Conv(s) => format!(
                "conv:fg{}:ring{}:{}:pe{}",
                s.filters_per_group,
                s.ring,
                if s.interleave_rows { "ilv" } else { "blk" },
                s.pes
            ),
            Schedule::Bp(s) => format!(
                "bp:{}:pad{}:pe{}:gb{}",
                s.style.label(),
                s.row_pad,
                s.pes,
                s.group_bufs
            ),
        }
    }

    /// Serializes to the flat one-object JSON artifact format
    /// (deterministic field order; byte-stable for equal schedules).
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Schedule::Fc(s) => format!(
                "{{\"kernel\": \"fc\", \"kc\": {}, \"mr\": {}, \"rc_block\": {}, \"pes\": {}}}\n",
                s.kc, s.mr, s.rc_block, s.pes
            ),
            Schedule::Conv(s) => format!(
                "{{\"kernel\": \"conv\", \"filters_per_group\": {}, \"ring\": {}, \
                 \"interleave_rows\": {}, \"pes\": {}}}\n",
                s.filters_per_group, s.ring, s.interleave_rows, s.pes
            ),
            Schedule::Bp(s) => format!(
                "{{\"kernel\": \"bp\", \"style\": \"{}\", \"row_pad\": {}, \"pes\": {}, \
                 \"group_bufs\": {}}}\n",
                s.style.label(),
                s.row_pad,
                s.pes,
                s.group_bufs
            ),
        }
    }

    /// Parses the artifact format written by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] for malformed JSON, missing or
    /// mistyped fields, or an unknown kernel discriminant. Shape
    /// validity is *not* checked here — call the kernel's `validate`
    /// against the concrete shape before generating code.
    pub fn from_json(text: &str) -> Result<Schedule, ScheduleError> {
        let obj = json::parse_object(text)?;
        let kernel = obj.str_field("kernel")?;
        match kernel {
            "fc" => Ok(Schedule::Fc(FcSchedule {
                kc: obj.usize_field("kc")?,
                mr: obj.usize_field("mr")?,
                rc_block: obj.usize_field("rc_block")?,
                pes: obj.usize_field("pes")?,
            })),
            "conv" => Ok(Schedule::Conv(ConvSchedule {
                filters_per_group: obj.usize_field("filters_per_group")?,
                ring: obj.usize_field("ring")?,
                interleave_rows: obj.bool_field("interleave_rows")?,
                pes: obj.usize_field("pes")?,
            })),
            "bp" => {
                let label = obj.str_field("style")?;
                let style = VectorMachineStyle::from_label(label).ok_or_else(|| {
                    ScheduleError::BadField {
                        field: "style",
                        why: format!("unknown machine style `{label}`"),
                    }
                })?;
                Ok(Schedule::Bp(BpSchedule {
                    style,
                    row_pad: obj.usize_field("row_pad")?,
                    pes: obj.usize_field("pes")?,
                    group_bufs: obj.usize_field("group_bufs")?,
                }))
            }
            other => Err(ScheduleError::UnknownKernel(other.to_owned())),
        }
    }
}

// ---------------------------------------------------------------------
// Search spaces
// ---------------------------------------------------------------------

/// Candidate values per FC knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcSearchSpace {
    /// Candidate column-chunk widths.
    pub kc: Vec<usize>,
    /// Candidate `m.v` row counts.
    pub mr: Vec<usize>,
    /// Candidate row-chunk block sizes.
    pub rc_block: Vec<usize>,
    /// Candidate PE splits.
    pub pes: Vec<usize>,
}

impl FcSearchSpace {
    /// The stock grid around the hand-picked defaults.
    #[must_use]
    pub fn stock() -> Self {
        FcSearchSpace {
            kc: vec![64, 128, 256, 512],
            mr: vec![2, 4, 8, 16],
            rc_block: vec![1, 2, 4, 8],
            pes: vec![2, 4],
        }
    }
}

/// Candidate values per convolution knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvSearchSpace {
    /// Candidate filter-group sizes.
    pub filters_per_group: Vec<usize>,
    /// Candidate ring depths.
    pub ring: Vec<usize>,
    /// Candidate row-assignment policies.
    pub interleave_rows: Vec<bool>,
    /// Candidate PE splits.
    pub pes: Vec<usize>,
}

impl ConvSearchSpace {
    /// The stock grid around the hand-picked defaults.
    #[must_use]
    pub fn stock() -> Self {
        ConvSearchSpace {
            filters_per_group: vec![1, 2, 4, 8],
            ring: vec![4, 8, 16],
            interleave_rows: vec![false, true],
            pes: vec![2, 4],
        }
    }
}

/// Candidate values per BP knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpSearchSpace {
    /// Candidate machine styles.
    pub style: Vec<VectorMachineStyle>,
    /// Candidate bank-stagger pads.
    pub row_pad: Vec<usize>,
    /// Candidate PE splits.
    pub pes: Vec<usize>,
    /// Candidate group-buffer depths.
    pub group_bufs: Vec<usize>,
}

impl BpSearchSpace {
    /// The stock grid around the hand-picked defaults.
    ///
    /// Only the scratchpad+reduction style is searched: the divide-and-
    /// conquer emulation the no-reduction styles need quadruples the
    /// code size, and a full iteration program then overflows the
    /// 1,024-entry instruction buffer (see the ablation study) — those
    /// styles exist for the Figure 4 strip kernels, not for tile search.
    #[must_use]
    pub fn stock() -> Self {
        BpSearchSpace {
            style: vec![VectorMachineStyle::SpReduce],
            row_pad: vec![0, 64, 128, 256, 512],
            pes: vec![2, 4],
            group_bufs: vec![2, 3, 4],
        }
    }
}

/// A kernel family's search space: per-knob candidate lists whose valid
/// cartesian combinations the autotuner enumerates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchSpace {
    /// FC grid.
    Fc(FcSearchSpace),
    /// Convolution grid.
    Conv(ConvSearchSpace),
    /// BP grid.
    Bp(BpSearchSpace),
}

impl SearchSpace {
    /// Every combination [`TileClass::validate`] accepts for `class` on
    /// `cfg`, in stable (row-major over the knob lists) order. Invalid
    /// combinations are silently filtered — an empty result means the
    /// grid and the class are incompatible (a grid of another kernel
    /// family always is).
    #[must_use]
    pub fn enumerate(&self, class: &TileClass, cfg: &SystemConfig) -> Vec<Schedule> {
        let mut out = Vec::new();
        let mut keep = |cand: Schedule| {
            if class.validate(cfg, &cand).is_ok() {
                out.push(cand);
            }
        };
        match self {
            SearchSpace::Fc(s) => {
                for &kc in &s.kc {
                    for &mr in &s.mr {
                        for &rc_block in &s.rc_block {
                            for &pes in &s.pes {
                                keep(Schedule::Fc(FcSchedule {
                                    kc,
                                    mr,
                                    rc_block,
                                    pes,
                                }));
                            }
                        }
                    }
                }
            }
            SearchSpace::Conv(s) => {
                for &filters_per_group in &s.filters_per_group {
                    for &ring in &s.ring {
                        for &interleave_rows in &s.interleave_rows {
                            for &pes in &s.pes {
                                keep(Schedule::Conv(ConvSchedule {
                                    filters_per_group,
                                    ring,
                                    interleave_rows,
                                    pes,
                                }));
                            }
                        }
                    }
                }
            }
            SearchSpace::Bp(s) => {
                for &style in &s.style {
                    for &row_pad in &s.row_pad {
                        for &pes in &s.pes {
                            for &group_bufs in &s.group_bufs {
                                keep(Schedule::Bp(BpSchedule {
                                    style,
                                    row_pad,
                                    pes,
                                    group_bufs,
                                }));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Minimal flat-object JSON
// ---------------------------------------------------------------------

/// A tiny parser for the flat one-level JSON objects the schedule
/// artifacts use: string keys mapping to strings, integers or
/// booleans. No nesting, no arrays, no floats, no escapes
/// beyond `\"` and `\\` — deliberately only what the artifact format
/// emits, so the whole round trip stays dependency-free.
mod json {
    use super::ScheduleError;

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Str(String),
        Num(i64),
        Bool(bool),
    }

    #[derive(Debug, Clone)]
    pub struct Object {
        fields: Vec<(String, Value)>,
    }

    impl Object {
        fn get(&self, field: &'static str) -> Result<&Value, ScheduleError> {
            self.fields
                .iter()
                .find(|(k, _)| k == field)
                .map(|(_, v)| v)
                .ok_or(ScheduleError::MissingField(field))
        }

        pub fn str_field(&self, field: &'static str) -> Result<&str, ScheduleError> {
            match self.get(field)? {
                Value::Str(s) => Ok(s),
                other => Err(bad(field, "expected a string", other)),
            }
        }

        pub fn usize_field(&self, field: &'static str) -> Result<usize, ScheduleError> {
            match self.get(field)? {
                Value::Num(n) if *n >= 0 => Ok(*n as usize),
                other => Err(bad(field, "expected a non-negative integer", other)),
            }
        }

        pub fn bool_field(&self, field: &'static str) -> Result<bool, ScheduleError> {
            match self.get(field)? {
                Value::Bool(b) => Ok(*b),
                other => Err(bad(field, "expected a boolean", other)),
            }
        }
    }

    fn bad(field: &'static str, expected: &str, got: &Value) -> ScheduleError {
        ScheduleError::BadField {
            field,
            why: format!("{expected}, got {got:?}"),
        }
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cursor<'a> {
        fn err(&self, what: impl Into<String>) -> ScheduleError {
            ScheduleError::Json {
                at: self.pos,
                what: what.into(),
            }
        }

        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b.is_ascii_whitespace())
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), ScheduleError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected `{}`", b as char)))
            }
        }

        fn string(&mut self) -> Result<String, ScheduleError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos).copied() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        match self.bytes.get(self.pos + 1).copied() {
                            Some(c @ (b'"' | b'\\')) => out.push(c as char),
                            _ => return Err(self.err("unsupported escape")),
                        }
                        self.pos += 2;
                    }
                    Some(c) => {
                        out.push(c as char);
                        self.pos += 1;
                    }
                    None => return Err(self.err("unterminated string")),
                }
            }
        }

        fn value(&mut self) -> Result<Value, ScheduleError> {
            match self.peek() {
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') | Some(b'f') => {
                    for (word, val) in [("true", true), ("false", false)] {
                        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                            self.pos += word.len();
                            return Ok(Value::Bool(val));
                        }
                    }
                    Err(self.err("expected `true` or `false`"))
                }
                Some(c) if c == b'-' || c.is_ascii_digit() => {
                    let start = self.pos;
                    if c == b'-' {
                        self.pos += 1;
                    }
                    while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
                        self.pos += 1;
                    }
                    let text = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("ascii digits are utf-8");
                    text.parse()
                        .map(Value::Num)
                        .map_err(|_| self.err(format!("bad integer `{text}`")))
                }
                _ => Err(self.err("expected a value")),
            }
        }
    }

    /// Parses one flat JSON object.
    pub fn parse_object(text: &str) -> Result<Object, ScheduleError> {
        let mut c = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        };
        c.expect(b'{')?;
        let mut fields = Vec::new();
        if c.peek() == Some(b'}') {
            c.pos += 1;
        } else {
            loop {
                let key = c.string()?;
                c.expect(b':')?;
                let value = c.value()?;
                fields.push((key, value));
                match c.peek() {
                    Some(b',') => c.pos += 1,
                    Some(b'}') => {
                        c.pos += 1;
                        break;
                    }
                    _ => return Err(c.err("expected `,` or `}`")),
                }
            }
        }
        c.skip_ws();
        if c.pos != c.bytes.len() {
            return Err(c.err("trailing bytes after the object"));
        }
        Ok(Object { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fc_layer() -> FcLayer {
        FcLayer {
            name: "t",
            inputs: 2048,
            outputs: 64,
        }
    }

    #[test]
    fn default_schedules_validate() {
        assert_eq!(FcSchedule::default().validate(&fc_layer()), Ok(()));
        let conv = ConvLayer {
            name: "t",
            in_channels: 64,
            out_channels: 64,
            width: 16,
            height: 8,
            kernel: 3,
            pad: 1,
        };
        assert_eq!(ConvSchedule::default_for(&conv, 2).validate(&conv), Ok(()));
        assert_eq!(BpSchedule::default().validate(64, 32, 16), Ok(()));
    }

    #[test]
    fn scratchpad_overflow_rejected() {
        let fat = FcSchedule {
            kc: 512,
            mr: 4,
            rc_block: 1,
            pes: 4,
        };
        let err = fat.validate(&fc_layer()).unwrap_err();
        assert!(matches!(err, ScheduleError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("scratchpad"), "{err}");
    }

    #[test]
    fn divisibility_rejected() {
        let bad = FcSchedule {
            kc: 96,
            ..FcSchedule::default()
        };
        assert!(bad.validate(&fc_layer()).is_err());
        let bad = BpSchedule {
            pes: 3,
            ..BpSchedule::default()
        };
        assert!(bad.validate(64, 32, 16).is_err());
    }

    #[test]
    fn json_round_trips_every_family() {
        let scheds = [
            Schedule::Fc(FcSchedule {
                kc: 128,
                mr: 8,
                rc_block: 2,
                pes: 4,
            }),
            Schedule::Conv(ConvSchedule {
                filters_per_group: 4,
                ring: 8,
                interleave_rows: true,
                pes: 2,
            }),
            Schedule::Bp(BpSchedule {
                style: VectorMachineStyle::RfReduce,
                row_pad: 128,
                pes: 4,
                group_bufs: 3,
            }),
        ];
        for s in scheds {
            let text = s.to_json();
            let back = Schedule::from_json(&text).expect("round trip parses");
            assert_eq!(back, s, "{text}");
            // Byte-stable re-serialization — resume relies on it.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn search_space_round_trips_and_enumerates() {
        let class = TileClass::Mlp {
            inputs: 2048,
            outputs: 64,
        };
        let cands =
            SearchSpace::Fc(FcSearchSpace::stock()).enumerate(&class, &SystemConfig::small_test());
        assert!(!cands.is_empty());
        assert!(cands.contains(&Schedule::Fc(FcSchedule::default())));
        // Everything enumerated validates; nothing overflows.
        for s in &cands {
            let Schedule::Fc(fc) = s else { unreachable!() };
            assert!(fc.scratchpad_bytes() <= SCRATCHPAD_BYTES);
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(
            Schedule::from_json("{\"kernel\": \"fc\"}"),
            Err(ScheduleError::MissingField("kc"))
        ));
        assert!(matches!(
            Schedule::from_json("{\"kernel\": \"gemm\"}"),
            Err(ScheduleError::UnknownKernel(_))
        ));
        assert!(matches!(
            Schedule::from_json("not json"),
            Err(ScheduleError::Json { .. })
        ));
        // The artifact format has no arrays.
        assert!(matches!(
            Schedule::from_json("{\"kernel\": \"fc\", \"kc\": [256]}"),
            Err(ScheduleError::Json { .. })
        ));
        assert!(matches!(
            Schedule::from_json(
                "{\"kernel\": \"bp\", \"style\": \"XX\", \"row_pad\": 0, \"pes\": 4}"
            ),
            Err(ScheduleError::BadField { field: "style", .. })
        ));
    }
}
