//! # vip-snap — versioned binary snapshot codec
//!
//! The deterministic checkpoint/restore subsystem serializes every piece
//! of simulator state — PE microarchitectural state, vault controller
//! queues, in-flight NoC packets, the backing store — into one flat byte
//! buffer so a run can be frozen at an arbitrary cycle and resumed
//! bit-identically (same final cycle count, same statistics, same memory
//! image) under any stepping engine.
//!
//! The codec is deliberately primitive: little-endian fixed-width
//! integers, length-prefixed byte strings, and nothing self-describing.
//! Determinism demands that encoding a given machine state always
//! produces the same bytes, so unordered containers must be serialized
//! in a canonical (sorted) order by their owners, and order-sensitive
//! containers (the NoC's flight list, a vault's completion list) in
//! their exact in-memory order.
//!
//! A snapshot starts with a [`Header`]: magic bytes, the
//! [`FORMAT_VERSION`], and a fingerprint of the *structural*
//! configuration the machine was built with. Restore targets a machine
//! freshly constructed from the same configuration; the fingerprint
//! check turns a config mismatch into a typed
//! [`SnapError::ConfigMismatch`] instead of garbage state.
//!
//! The [`Snapshot`] trait covers value-like state (stats blocks,
//! requests, banks). A type's wire layout is written down once, as a
//! field list next to the type — [`snapshot_struct!`] /
//! [`snapshot_enum!`] expand it to the `save`-in-order /
//! `restore`-into-a-literal pair, and the compiler checks the list
//! against the type (a field or variant missing from it does not
//! compile):
//!
//! ```
//! struct Chunk { addr: u64, data: Vec<u8>, kind: Kind }
//! enum Kind { Read, Write { fill: u8 } }
//! vip_snap::snapshot_struct!(Chunk { addr, data, kind });
//! vip_snap::snapshot_enum!(Kind, "kind tag" { 0 => Read, 1 => Write { fill } });
//! ```
//!
//! Wire order is the list's order, not the declaration's, so fields can
//! be reordered for readability without moving a byte. An impl is
//! written by hand only where it carries an invariant or a foreign type
//! the list cannot express (sorted hash containers, derived fields, a
//! validity check), and says so in a comment. Every decoded element
//! count goes through one guard, [`Reader::count`]; hash containers go
//! through [`save_sorted`].
//!
//! Components whose restore needs an already constructed host (the full
//! `System`, a `Torus`, a vault controller) expose inherent
//! `save_state`/`restore_state` methods built from the same pieces: they
//! restore *into* the host and validate the image against its geometry.
//!
//! Images reach disk through [`atomic_write`] (or its parts form,
//! [`atomic_write_parts`]), the workspace's one
//! write-to-temp-then-rename.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file or buffer.
pub const MAGIC: [u8; 8] = *b"VIPSNAP\0";

/// Bumped whenever the serialized layout of any component changes.
/// Restore rejects other versions — there is no cross-version migration,
/// because a snapshot is a resumable suspension of one build, not an
/// archival format.
pub const FORMAT_VERSION: u32 = 4;

/// Errors surfaced while decoding a snapshot. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// The buffer does not begin with [`MAGIC`].
    BadMagic,
    /// The snapshot was written by a different codec version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The snapshot was taken on a machine with a different structural
    /// configuration than the restore target.
    ConfigMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the restore target.
        expected: u64,
    },
    /// A decoded value violates an invariant (described by the message).
    Corrupt(&'static str),
    /// Decoding finished but bytes remain — the snapshot and the decoder
    /// disagree about the layout.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, {available} left"
                )
            }
            SnapError::BadMagic => f.write_str("not a VIP snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(
                    f,
                    "snapshot format version {found}, this build reads {expected}"
                )
            }
            SnapError::ConfigMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot taken under config fingerprint {found:#018x}, restore \
                     target has {expected:#018x}"
                )
            }
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::TrailingBytes { count } => {
                write!(f, "snapshot has {count} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` so 32- and 64-bit hosts agree.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes raw bytes with no length prefix (the reader must know the
    /// exact length from context, e.g. a fixed page size).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte string that `encode` writes in
    /// place: the same bytes as [`bytes`](Self::bytes) of what `encode`
    /// would write to a writer of its own, without that writer. Reserves
    /// the `u64` length, runs `encode`, then patches the length.
    pub fn nested(&mut self, encode: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u64(0);
        encode(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }
}

/// Cursor over an encoded buffer; every read is bounds-checked.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The error for a read of `needed` bytes (or elements) the buffer
    /// no longer holds.
    fn truncated(&self, needed: usize) -> SnapError {
        SnapError::Truncated {
            needed,
            available: self.remaining(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(self.truncated(n));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let Some(out) = self.buf[self.pos..].first_chunk::<N>() else {
            return Err(self.truncated(N));
        };
        self.pos += N;
        Ok(*out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `usize` encoded as a `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflows host"))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte not 0 or 1")),
        }
    }

    /// Reads an element count — the `usize` prefix of every encoded
    /// collection — and checks it against the bytes left, before the
    /// caller reserves or loops on it. Every element the codec writes
    /// occupies at least one byte, so a larger count can only be a
    /// corrupt or truncated prefix.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the count exceeds
    /// [`remaining`](Self::remaining).
    pub fn count(&mut self) -> Result<usize, SnapError> {
        let count = self.usize()?;
        if count > self.remaining() {
            return Err(self.truncated(count));
        }
        Ok(count)
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads exactly `n` raw bytes (no length prefix).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Asserts the buffer is fully consumed — call once after the last
    /// field so layout drift fails loudly instead of silently ignoring a
    /// tail.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }
}

/// State that round-trips through the codec by value. Implementations
/// must be canonical: the same logical state always encodes to the same
/// bytes (sort unordered containers), and `restore(save(x)) == x`
/// exactly. Declare one with [`snapshot_struct!`] / [`snapshot_enum!`]
/// unless the layout carries an invariant a field list cannot express.
pub trait Snapshot: Sized {
    /// Appends this value's encoding to `w`.
    fn save(&self, w: &mut Writer);
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncation or invariant violations.
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError>;

    /// Appends a counted run of values — what `Vec<Self>` encodes to.
    /// `u8` overrides it (and [`restore_vec`](Self::restore_vec)) with
    /// one copy to the same bytes, so blob fields are plain `Vec<u8>`.
    fn save_slice(items: &[Self], w: &mut Writer) {
        w.usize(items.len());
        for v in items {
            v.save(w);
        }
    }

    /// Decodes a counted run of values written by
    /// [`save_slice`](Self::save_slice).
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore); a count larger than the bytes left
    /// is [`SnapError::Truncated`] before anything is reserved.
    fn restore_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        let count = r.count()?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(Self::restore(r)?);
        }
        Ok(out)
    }
}

macro_rules! impl_snapshot_prim {
    ($($t:ty => $m:ident),* $(,)?) => {
        $(impl Snapshot for $t {
            fn save(&self, w: &mut Writer) {
                w.$m(*self);
            }
            fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                r.$m()
            }
        })*
    };
}

impl_snapshot_prim!(u16 => u16, u32 => u32, u64 => u64, usize => usize, bool => bool);

impl Snapshot for u8 {
    fn save(&self, w: &mut Writer) {
        w.u8(*self);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }

    fn save_slice(items: &[Self], w: &mut Writer) {
        w.bytes(items);
    }

    fn restore_vec(r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// Implements [`Snapshot`] for a struct from its wire layout: the
/// fields, in the order they are written. Expands to `save` calling
/// each field's `save` in that order and `restore` building the struct
/// literal from each field's `restore` — so a field missing from the
/// list does not compile, and reordering the declaration moves no byte.
/// One type parameter is supported (`Packet<T> { .. }`, `T: Snapshot`).
#[macro_export]
macro_rules! snapshot_struct {
    ($ty:ident $(<$g:ident>)? { $($field:ident),* $(,)? }) => {
        impl $(<$g: $crate::Snapshot>)? $crate::Snapshot for $ty $(<$g>)? {
            fn save(&self, w: &mut $crate::Writer) {
                $($crate::Snapshot::save(&self.$field, w);)*
            }

            fn restore(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok($ty {
                    $($field: $crate::Snapshot::restore(r)?,)*
                })
            }
        }
    };
}

/// Implements [`Snapshot`] for an enum from its wire layout: a `u8` tag
/// per variant, then the variant's fields in the order listed. Unit,
/// tuple (`Variant(a, b)` — the names only label the positions) and
/// named-field variants are supported. An unknown tag restores to
/// [`SnapError::Corrupt`] with the message given; a variant missing
/// from the list does not compile.
#[macro_export]
macro_rules! snapshot_enum {
    ($ty:ident, $corrupt:literal {
        $($tag:literal => $variant:ident
            $(($($t:ident),* $(,)?))?
            $({$($n:ident),* $(,)?})?
        ),* $(,)?
    }) => {
        impl $crate::Snapshot for $ty {
            fn save(&self, w: &mut $crate::Writer) {
                match self {
                    $($ty::$variant $(($($t),*))? $({$($n),*})? => {
                        w.u8($tag);
                        $($($crate::Snapshot::save($t, w);)*)?
                        $($($crate::Snapshot::save($n, w);)*)?
                    })*
                }
            }

            fn restore(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $t = $crate::Snapshot::restore(r)?;)*)?
                        $($(let $n = $crate::Snapshot::restore(r)?;)*)?
                        Ok($ty::$variant $(($($t),*))? $({$($n),*})?)
                    })*
                    _ => Err($crate::SnapError::Corrupt($corrupt)),
                }
            }
        }
    };
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut Writer) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(if r.bool()? {
            Some(T::restore(r)?)
        } else {
            None
        })
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut Writer) {
        T::save_slice(self, w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        T::restore_vec(r)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut Writer) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        T::restore_vec(r).map(VecDeque::from)
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut Writer) {
        w.bytes(self.as_bytes());
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        String::from_utf8(u8::restore_vec(r)?)
            .map_err(|_| SnapError::Corrupt("string not valid UTF-8"))
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
        self.1.save(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut Writer) {
        for v in self {
            v.save(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::restore(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Corrupt("array length"))
    }
}

/// Writes a hash container's entries as the `Vec<(K, V)>` of them sorted
/// by key, so the bytes do not depend on iteration order. Restore is
/// `Vec::<(K, V)>::restore(r)?.into_iter().collect()`.
pub fn save_sorted<'a, K, V>(w: &mut Writer, entries: impl IntoIterator<Item = (&'a K, &'a V)>)
where
    K: Snapshot + Ord + 'a,
    V: Snapshot + 'a,
{
    let mut entries: Vec<(&K, &V)> = entries.into_iter().collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    w.usize(entries.len());
    for (k, v) in entries {
        k.save(w);
        v.save(w);
    }
}

/// Writes the snapshot header: magic, format version, and the structural
/// configuration fingerprint of the machine being saved.
pub fn write_header(w: &mut Writer, fingerprint: u64) {
    w.raw(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(fingerprint);
}

/// Validates a snapshot header against the restore target's fingerprint.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::BadVersion`], or
/// [`SnapError::ConfigMismatch`] (plus truncation) when the snapshot
/// cannot be restored onto this machine.
pub fn read_header(r: &mut Reader<'_>, expected_fingerprint: u64) -> Result<(), SnapError> {
    check_header(r, &MAGIC, expected_fingerprint)
}

/// The one header validator, for snapshots and journal segments alike:
/// `magic`, then [`FORMAT_VERSION`], then the expected fingerprint.
fn check_header(
    r: &mut Reader<'_>,
    magic: &[u8; 8],
    expected_fingerprint: u64,
) -> Result<(), SnapError> {
    if r.raw(magic.len())? != magic {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let found = r.u64()?;
    if found != expected_fingerprint {
        return Err(SnapError::ConfigMismatch {
            found,
            expected: expected_fingerprint,
        });
    }
    Ok(())
}

/// Magic bytes opening every write-ahead journal segment.
pub const JOURNAL_MAGIC: [u8; 8] = *b"VIPJRNL\0";

/// Bytes occupied by a journal segment header: magic, format version,
/// and the run's configuration fingerprint.
pub const JOURNAL_HEADER_LEN: usize = 8 + 4 + 8;

/// Bytes of framing overhead per journal record: a `u32` payload length
/// followed by a `u32` CRC-32 of the payload.
pub const FRAME_OVERHEAD: usize = 8;

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[k][b]` is the CRC
/// register after byte `b` followed by `k` zero bytes, so eight input
/// bytes fold into the register with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) over a byte
/// string — the workspace's one implementation (`vip_faults::crc`
/// re-exports it for the NoC's packet checksum). Guards each journal
/// frame and fleet checkpoint so a torn or bit-flipped record is
/// detected and the journal truncated at the last intact frame instead
/// of replaying garbage. Table-driven, eight bytes a step: checkpoint
/// frames run to megabytes and every write and every resume checksums
/// one.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xffff_ffff_u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Encodes the header that opens a journal segment file.
#[must_use]
pub fn journal_header(fingerprint: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.raw(&JOURNAL_MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(fingerprint);
    debug_assert_eq!(w.len(), JOURNAL_HEADER_LEN);
    w.into_bytes()
}

/// Validates a journal segment header and returns the offset where
/// frames begin.
///
/// # Errors
///
/// [`SnapError::BadMagic`], [`SnapError::BadVersion`], or
/// [`SnapError::ConfigMismatch`] (plus truncation) when the segment was
/// not written by this build for this run configuration.
pub fn read_journal_header(buf: &[u8], expected_fingerprint: u64) -> Result<usize, SnapError> {
    check_header(&mut Reader::new(buf), &JOURNAL_MAGIC, expected_fingerprint)?;
    Ok(JOURNAL_HEADER_LEN)
}

/// The head of a CRC frame around `payload`: `u32 payload length |
/// u32 CRC-32(payload)`. `None` when the length does not fit its `u32`.
/// A writer that has the payload in hand writes this head and then the
/// payload, with no framed copy.
#[must_use]
pub fn frame_head(payload: &[u8]) -> Option<[u8; FRAME_OVERHEAD]> {
    let len = frame_len(payload.len())?;
    let mut head = [0; FRAME_OVERHEAD];
    head[..4].copy_from_slice(&len.to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Some(head)
}

/// A payload length as the frame head's `u32`, if it fits.
fn frame_len(len: usize) -> Option<u32> {
    u32::try_from(len).ok()
}

/// Wraps one journal record payload in a CRC frame:
/// [`frame_head`] then the payload.
///
/// # Panics
///
/// Panics if the payload exceeds `u32::MAX` bytes — journal records are
/// single scheduler events, orders of magnitude smaller.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    // Invariant: callers frame single scheduler events here; a payload
    // of unbounded size (a fleet checkpoint) goes through the total
    // `frame_head` instead.
    #[allow(clippy::expect_used)]
    let head = frame_head(payload).expect("journal frame payload fits u32");
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&head);
    out.extend_from_slice(payload);
    out
}

/// The result of scanning a journal segment's frame region: every intact
/// frame in order, the byte length of the valid prefix, and whether a
/// torn (incomplete or corrupt) tail followed it.
#[derive(Debug)]
pub struct JournalScan<'a> {
    /// Payloads of every frame with an intact length prefix and CRC, in
    /// file order.
    pub frames: Vec<&'a [u8]>,
    /// Byte length of the valid prefix (relative to the start of `buf`).
    /// Truncating the file to `header + valid_len` drops the torn tail.
    pub valid_len: usize,
    /// Whether bytes remained past the last intact frame — a torn final
    /// record from a crash mid-append.
    pub torn: bool,
}

/// Scans the frame region of a journal segment (the bytes *after* the
/// header), stopping at the first frame that is incomplete or fails its
/// CRC. Never fails: a journal is append-only, so anything past the last
/// intact frame is a torn tail from a crash mid-write, reported via
/// `torn`/`valid_len` for the caller to truncate.
#[must_use]
pub fn scan_frames(buf: &[u8]) -> JournalScan<'_> {
    let mut frames = Vec::new();
    let mut r = Reader::new(buf);
    let mut valid_len = 0;
    while let (Ok(len), Ok(crc)) = (r.u32(), r.u32()) {
        let Ok(payload) = r.raw(len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        frames.push(payload);
        valid_len = buf.len() - r.remaining();
    }
    JournalScan {
        frames,
        valid_len,
        torn: valid_len != buf.len(),
    }
}

/// FNV-1a accumulator for configuration fingerprints (and for hashing
/// experiment-point names in the bench harness). Stable across platforms
/// and builds — it hashes only values the caller feeds it.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh accumulator at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint {
            state: Self::OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian).
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` as a `u64`.
    pub fn push_usize(&mut self, v: usize) {
        self.push_u64(v as u64);
    }

    /// Absorbs a `bool`.
    pub fn push_bool(&mut self, v: bool) {
        self.push_bytes(&[u8::from(v)]);
    }

    /// The accumulated 64-bit fingerprint.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a hash of a byte string (experiment-point keys).
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut f = Fingerprint::new();
    f.push_bytes(bytes);
    f.finish()
}

/// Writes `bytes` to `path` via a temporary `.tmp` sibling and an
/// atomic rename, so readers (and crash recovery) only ever observe a
/// complete file. Checkpoints, done-records, reports and schedule
/// artifacts all go through here.
///
/// # Errors
///
/// Propagates any I/O failure from the write or the rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_parts(path, &[bytes])
}

/// [`atomic_write`] of the concatenation of `parts`, written one after
/// another without joining them first — a frame head and the megabytes
/// it frames, say.
///
/// # Errors
///
/// Propagates any I/O failure from the write or the rename.
pub fn atomic_write_parts(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    let mut file = fs::File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    drop(file);
    fs::rename(&tmp, path)
}

/// The temporary [`atomic_write`] stages `path` in — public so a
/// crash-injection hook can leave exactly the torn file a host death
/// mid-write would.
#[must_use]
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.bytes(b"hello");
        w.raw(&[9, 9]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.raw(2).unwrap(), &[9, 9]);
        r.finish().unwrap();
    }

    #[test]
    fn nested_writes_the_bytes_of_a_length_prefixed_copy() {
        let pool = vip_rng::SplitMix64::new(0x0e57).bytes(300);
        for len in [0, 1, 8, 255, 300] {
            let body = &pool[..len];
            let mut copied = Writer::new();
            copied.u16(0xbeef);
            copied.bytes(body);
            copied.bytes(&[]);
            copied.u8(7);
            let mut in_place = Writer::new();
            in_place.u16(0xbeef);
            in_place.nested(|w| w.raw(body));
            in_place.nested(|_| {});
            in_place.u8(7);
            assert_eq!(in_place.into_bytes(), copied.into_bytes(), "len {len}");
        }
        // Nested inside nested: each length covers its own span only.
        let mut inner = Writer::new();
        inner.bytes(b"abc");
        inner.u32(9);
        let mut copied = Writer::new();
        copied.bytes(&inner.into_bytes());
        let mut in_place = Writer::new();
        in_place.nested(|w| {
            w.nested(|w| w.raw(b"abc"));
            w.u32(9);
        });
        assert_eq!(in_place.into_bytes(), copied.into_bytes());
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Writer::new();
        w.u32(7);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.u64(),
            Err(SnapError::Truncated {
                needed: 8,
                available: 4
            })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        w.u64(1);
        w.u8(0);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        r.u64().unwrap();
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes { count: 1 }));
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<u32> = VecDeque::from(vec![4, 5]);
        let o: Option<bool> = Some(true);
        let n: Option<u8> = None;
        let t: (u64, bool) = (99, false);
        let a: [u64; 3] = [7, 8, 9];
        let mut w = Writer::new();
        v.save(&mut w);
        d.save(&mut w);
        o.save(&mut w);
        n.save(&mut w);
        t.save(&mut w);
        a.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(Vec::<u64>::restore(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<u32>::restore(&mut r).unwrap(), d);
        assert_eq!(Option::<bool>::restore(&mut r).unwrap(), o);
        assert_eq!(Option::<u8>::restore(&mut r).unwrap(), n);
        assert_eq!(<(u64, bool)>::restore(&mut r).unwrap(), t);
        assert_eq!(<[u64; 3]>::restore(&mut r).unwrap(), a);
        r.finish().unwrap();
    }

    #[test]
    fn corrupt_container_length_truncates_cleanly() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2); // absurd element count
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Vec::<u64>::restore(&mut r),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let mut w = Writer::new();
        write_header(&mut w, 0x1111);
        let buf = w.into_bytes();

        let mut r = Reader::new(&buf);
        read_header(&mut r, 0x1111).unwrap();
        r.finish().unwrap();

        let mut r = Reader::new(&buf);
        assert!(matches!(
            read_header(&mut r, 0x2222),
            Err(SnapError::ConfigMismatch {
                found: 0x1111,
                expected: 0x2222
            })
        ));

        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        let mut r = Reader::new(&bad);
        assert_eq!(read_header(&mut r, 0x1111), Err(SnapError::BadMagic));

        let mut wrong_ver = buf;
        wrong_ver[8] = FORMAT_VERSION as u8 + 1;
        let mut r = Reader::new(&wrong_ver);
        assert!(matches!(
            read_header(&mut r, 0x1111),
            Err(SnapError::BadVersion { .. })
        ));
    }

    #[test]
    fn strings_roundtrip_and_reject_bad_utf8() {
        let s = String::from("mlp-1024x256 ∘ batch");
        let mut w = Writer::new();
        s.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(String::restore(&mut r).unwrap(), s);
        r.finish().unwrap();

        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe, 0x41]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(
            String::restore(&mut r),
            Err(SnapError::Corrupt("string not valid UTF-8"))
        );
    }

    #[test]
    fn absurd_container_length_fails_before_allocation() {
        // A length prefix larger than the remaining input must be
        // rejected up front — no per-element loop, no reservation.
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(
            Vec::<u8>::restore(&mut r),
            Err(SnapError::Truncated {
                needed: usize::MAX / 2,
                available: 0
            })
        );
        let mut r = Reader::new(&buf);
        assert!(matches!(
            VecDeque::<u64>::restore(&mut r),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        id: u64,
        blob: Vec<u8>,
        at: (usize, usize),
        tail: Option<Shape>,
    }
    // Wire order differs from declaration order on purpose.
    snapshot_struct!(Probe { blob, id, tail, at });

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Dot,
        Pair(u16, bool),
        Rect { w: u32, h: u32 },
    }
    snapshot_enum!(Shape, "shape tag" { 0 => Dot, 3 => Pair(a, b), 7 => Rect { w, h } });

    #[derive(Debug, PartialEq)]
    struct Tagged<T> {
        tag: u8,
        body: T,
    }
    snapshot_struct!(Tagged<T> { tag, body });

    fn encode<T: Snapshot>(v: &T) -> Vec<u8> {
        let mut w = Writer::new();
        v.save(&mut w);
        w.into_bytes()
    }

    fn decode<T: Snapshot>(bytes: &[u8]) -> Result<T, SnapError> {
        let mut r = Reader::new(bytes);
        let v = T::restore(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    #[test]
    fn declared_struct_encodes_its_fields_in_list_order() {
        let probe = Probe {
            id: 0x0102_0304_0506_0708,
            blob: vec![9, 8, 7],
            at: (5, 6),
            tail: Some(Shape::Rect { w: 640, h: 480 }),
        };
        let mut w = Writer::new();
        w.bytes(&[9, 8, 7]);
        w.u64(0x0102_0304_0506_0708);
        w.bool(true);
        w.u8(7);
        w.u32(640);
        w.u32(480);
        w.usize(5);
        w.usize(6);
        let by_hand = w.into_bytes();
        assert_eq!(encode(&probe), by_hand);
        assert_eq!(decode::<Probe>(&by_hand), Ok(probe));
    }

    #[test]
    fn declared_enum_roundtrips_every_variant_shape() {
        for (shape, by_hand) in [
            (Shape::Dot, vec![0]),
            (Shape::Pair(0xbeef, true), vec![3, 0xef, 0xbe, 1]),
            (Shape::Rect { w: 1, h: 2 }, vec![7, 1, 0, 0, 0, 2, 0, 0, 0]),
        ] {
            assert_eq!(encode(&shape), by_hand, "{shape:?}");
            assert_eq!(decode::<Shape>(&by_hand), Ok(shape));
        }
        // Tags are the declared ones, not ordinals.
        for tag in [1, 2, 4, 8, 0xff] {
            assert_eq!(
                decode::<Shape>(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]),
                Err(SnapError::Corrupt("shape tag"))
            );
        }
        assert!(matches!(
            decode::<Shape>(&[7, 1, 0, 0, 0]),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn declared_generic_struct_roundtrips() {
        let v = Tagged {
            tag: 4,
            body: vec![Shape::Dot, Shape::Pair(1, false)],
        };
        assert_eq!(encode(&v), [4, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 0]);
        assert_eq!(decode::<Tagged<Vec<Shape>>>(&encode(&v)), Ok(v));
    }

    #[test]
    fn byte_vectors_take_the_bulk_path_to_the_same_bytes() {
        // A one-byte element with no override: the provided per-element
        // `save_slice` / `restore_vec`.
        #[derive(Debug, PartialEq)]
        struct Byte {
            b: u8,
        }
        snapshot_struct!(Byte { b });

        let pool = vip_rng::SplitMix64::new(0xb10b).bytes(1_000);
        for len in [0, 1, 7, 8, 1_000] {
            let bulk = pool[..len].to_vec();
            let slow: Vec<Byte> = bulk.iter().map(|&b| Byte { b }).collect();
            let bytes = encode(&bulk);
            assert_eq!(bytes, encode(&slow), "len {len}");
            assert_eq!(bytes, encode(&Some(bulk.clone()))[1..], "len {len}");
            assert_eq!(decode::<Vec<u8>>(&bytes), Ok(bulk));
            assert_eq!(decode::<Vec<Byte>>(&bytes), Ok(slow));
        }
    }

    #[test]
    fn restore_vec_rejects_a_count_past_the_input_before_reserving() {
        // Reserving `usize::MAX / 2` elements would abort, not return.
        let mut w = Writer::new();
        w.usize(usize::MAX / 2);
        w.u64(0);
        let buf = w.into_bytes();
        let truncated = SnapError::Truncated {
            needed: usize::MAX / 2,
            available: 8,
        };
        assert_eq!(
            u8::restore_vec(&mut Reader::new(&buf)),
            Err(truncated.clone())
        );
        assert_eq!(
            Shape::restore_vec(&mut Reader::new(&buf)),
            Err(truncated.clone())
        );
        assert_eq!(Reader::new(&buf).count(), Err(truncated));
        // One past the bytes left is already too many; exactly the
        // bytes left is not.
        let mut w = Writer::new();
        w.usize(3);
        w.raw(&[0, 0]);
        assert!(Shape::restore_vec(&mut Reader::new(&w.into_bytes())).is_err());
        let mut w = Writer::new();
        w.usize(3);
        w.raw(&[0, 0, 0]);
        assert_eq!(
            Shape::restore_vec(&mut Reader::new(&w.into_bytes())),
            Ok(vec![Shape::Dot; 3])
        );
    }

    #[test]
    fn save_sorted_is_independent_of_insertion_order() {
        use std::collections::HashMap;
        let entries: Vec<(u64, Shape)> = (0..200)
            .map(|i| (i * 0x9e37_79b9 % 1_009, Shape::Pair(i as u16, i % 2 == 0)))
            .collect();
        let forward: HashMap<u64, Shape> = entries.iter().copied().collect();
        let backward: HashMap<u64, Shape> = entries.iter().rev().copied().collect();
        let mut sorted = entries.clone();
        sorted.sort_unstable_by_key(|&(k, _)| k);

        let save = |map: &HashMap<u64, Shape>| {
            let mut w = Writer::new();
            save_sorted(&mut w, map);
            w.into_bytes()
        };
        // The bytes are the sorted `Vec<(K, V)>`'s, whatever the order.
        assert_eq!(save(&forward), encode(&sorted));
        assert_eq!(save(&backward), encode(&sorted));
        let back: HashMap<u64, Shape> = decode::<Vec<(u64, Shape)>>(&save(&forward))
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(back, forward);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The published algorithm, one bit at a time — what `crc32` was
    /// before it went table-driven, kept as its reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffff_u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        let pool = vip_rng::SplitMix64::new(0x0c2c_0032).bytes(70_000);
        // Every length through the 8-byte fold's head and tail cases, at
        // every alignment of the slice start.
        for len in 0..=64 {
            for start in 0..8 {
                let buf = &pool[start..start + len];
                assert_eq!(crc32(buf), crc32_bitwise(buf), "len {len} at +{start}");
            }
        }
        // Large buffers, unaligned at both ends.
        for (start, len) in [(1, 65_521), (3, 4_099), (7, 69_990), (5, 1_000)] {
            let buf = &pool[start..start + len];
            assert_eq!(crc32(buf), crc32_bitwise(buf), "len {len} at +{start}");
        }
        // Degenerate contents the tables could alias on.
        for fill in [0x00, 0xff] {
            let buf = vec![fill; 1_027];
            assert_eq!(crc32(&buf), crc32_bitwise(&buf));
        }
    }

    #[test]
    fn journal_frames_roundtrip_in_order() {
        let mut seg = journal_header(0xfeed);
        seg.extend_from_slice(&frame(b"admit 0"));
        seg.extend_from_slice(&frame(b""));
        seg.extend_from_slice(&frame(b"dispatch 0 -> dev2"));
        let start = read_journal_header(&seg, 0xfeed).unwrap();
        let scan = scan_frames(&seg[start..]);
        assert_eq!(
            scan.frames,
            vec![b"admit 0".as_slice(), b"".as_slice(), b"dispatch 0 -> dev2"]
        );
        assert!(!scan.torn);
        assert_eq!(start + scan.valid_len, seg.len());
    }

    #[test]
    fn journal_header_is_validated() {
        let seg = journal_header(0xfeed);
        assert!(matches!(
            read_journal_header(&seg, 0xbeef),
            Err(SnapError::ConfigMismatch { .. })
        ));
        let mut bad = seg.clone();
        bad[0] ^= 0x80;
        assert_eq!(read_journal_header(&bad, 0xfeed), Err(SnapError::BadMagic));
        let mut old = seg.clone();
        old[8] = old[8].wrapping_add(1);
        assert!(matches!(
            read_journal_header(&old, 0xfeed),
            Err(SnapError::BadVersion { .. })
        ));
        assert!(matches!(
            read_journal_header(&seg[..4], 0xfeed),
            Err(SnapError::Truncated { .. })
        ));
    }

    #[test]
    fn torn_tail_truncates_at_the_last_intact_frame() {
        let a = frame(b"first");
        let b = frame(b"second");
        let mut buf = Vec::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b);

        // Crash mid-append: any strict prefix of the second frame keeps
        // exactly the first frame and reports the tear.
        for cut in a.len()..buf.len() {
            let scan = scan_frames(&buf[..cut]);
            assert_eq!(scan.frames.len(), 1);
            assert_eq!(scan.frames[0], b"first");
            assert_eq!(scan.valid_len, a.len());
            assert_eq!(scan.torn, cut != a.len());
        }

        // A bit flip anywhere in the final frame tears it off cleanly.
        for bit in 0..b.len() * 8 {
            let mut flipped = buf.clone();
            let off = a.len() + bit / 8;
            flipped[off] ^= 1 << (bit % 8);
            let scan = scan_frames(&flipped);
            assert!(scan.frames.len() <= 1, "flipped frame survived");
            assert!(scan.torn);
        }
    }

    #[test]
    fn a_frame_is_its_head_then_its_payload() {
        for payload in [&b""[..], b"x", b"dispatch 0 -> dev2"] {
            let head = frame_head(payload).unwrap();
            assert_eq!(head[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(head[4..], crc32(payload).to_le_bytes());
            assert_eq!(frame(payload), [&head[..], payload].concat());
        }
    }

    #[test]
    fn a_frame_length_fits_u32_up_to_its_largest_value() {
        assert_eq!(frame_len(u32::MAX as usize), Some(u32::MAX));
        assert_eq!(frame_len(u32::MAX as usize + 1), None);
        assert_eq!(frame_len(0), Some(0));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let mut a = Fingerprint::new();
        a.push_u64(1);
        a.push_usize(2);
        a.push_bool(true);
        let mut b = Fingerprint::new();
        b.push_u64(1);
        b.push_usize(2);
        b.push_bool(true);
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.push_u64(1);
        c.push_usize(2);
        c.push_bool(false);
        assert_ne!(a.finish(), c.finish());
        // Known FNV-1a vector: empty input is the offset basis.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
    }
}
