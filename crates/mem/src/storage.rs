//! Sparse execution-driven backing store with full-empty bits.

use crate::{IdHasher, IdMap};
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use vip_faults::secded::{self, Decoded};
use vip_snap::{save_sorted, Reader, SnapError, Snapshot, Writer};

const PAGE_BYTES: u64 = 4096;

/// Distinct words a sparse page holds before it becomes dense: at most
/// 256 B per sparse page (1/16 of a dense one), and a read scans at most
/// 16 entries.
const SPARSE_WORDS: usize = 16;

/// One 4 KiB page of the image, in whichever form its writes allow.
#[derive(Debug, Clone)]
enum Page {
    /// The page's whole image.
    Dense(Box<[u8]>),
    /// The aligned 8-byte words written so far, as `(word index, value)`
    /// in first-write order; every other byte reads zero.
    Sparse(Vec<(u16, u64)>),
}

impl Page {
    /// Writes `bytes` at byte `off`, making the page dense first if it
    /// is sparse.
    fn write(&mut self, off: usize, bytes: &[u8]) {
        match self {
            Page::Dense(data) => data[off..off + bytes.len()].copy_from_slice(bytes),
            Page::Sparse(words) => {
                let mut data = vec![0; PAGE_BYTES as usize].into_boxed_slice();
                overlay(words, 0, &mut data);
                data[off..off + bytes.len()].copy_from_slice(bytes);
                *self = Page::Dense(data);
            }
        }
    }

    /// Writes the aligned word `index`; a sparse page keeps it unless it
    /// is the page's 17th distinct word.
    fn write_word(&mut self, index: u16, value: u64) {
        if let Page::Sparse(words) = self {
            if let Some(word) = words.iter_mut().find(|(i, _)| *i == index) {
                word.1 = value;
                return;
            }
            if words.len() < SPARSE_WORDS {
                words.push((index, value));
                return;
            }
        }
        self.write(usize::from(index) * 8, &value.to_le_bytes());
    }
}

/// Copies the bytes of `words` that fall in `off..off + dst.len()` of
/// their page into `dst`, which starts at page byte `off`.
fn overlay(words: &[(u16, u64)], off: usize, dst: &mut [u8]) {
    let end = off + dst.len();
    for &(index, value) in words {
        let at = usize::from(index) * 8;
        let (lo, hi) = (at.max(off), (at + 8).min(end));
        if lo < hi {
            dst[lo - off..hi - off].copy_from_slice(&value.to_le_bytes()[lo - at..hi - at]);
        }
    }
}

/// Sparse byte-addressable storage for the whole memory stack.
///
/// The simulator is execution-driven (§V-A): loads return the data stores
/// actually put there, which is how simulated kernel outputs are verified
/// against the golden references. Untouched memory reads as zero.
///
/// The image is a map of 4 KiB pages, each *dense* (its whole 4 KiB) or
/// *sparse* (the aligned 8-byte words written to it, over zeros). A page
/// stays sparse while it has only seen aligned one-word writes; its 17th
/// distinct word, or any write that is wider, unaligned or crosses a
/// page, makes it dense for good. A pointer chase that puts one word in
/// each DRAM row so holds 16 B per word, not 4 KiB. The form is not
/// state: every page saves as its 4 KiB image and restores dense.
///
/// A sidecar set tracks the full-empty bit of each 8-byte word (§IV-A);
/// words start *empty*.
///
/// A second sidecar models SECDED (72,64) check bits *lazily*: a word is
/// implicitly clean until the fault injector corrupts it, at which point
/// the check byte of the pristine word is snapshotted into `ecc`. The
/// vault controllers decode against that snapshot on the read path —
/// correcting and scrubbing single-bit flips, poisoning responses on
/// double-bit flips. An overwrite supersedes any pending corruption.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    pages: IdMap<Page>,
    full_bits: HashSet<u64, BuildHasherDefault<IdHasher>>,
    ecc: IdMap<u8>,
    /// Counts full-empty bit flips. Vault controllers compare it against
    /// the value they last saw to learn that a parked full-empty
    /// transaction may have become issuable — whoever flipped the bit.
    /// Derived bookkeeping: not serialized.
    fe_epoch: u64,
    /// Consumed read buffers for [`read_buf`](Self::read_buf) to refill,
    /// so a steady-state DRAM read allocates nothing. Not serialized.
    spare: Vec<Vec<u8>>,
}

impl Storage {
    /// Creates empty (all-zero, all-empty) storage.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let mut at = addr;
        let mut done = 0;
        while done < buf.len() {
            let page = at / PAGE_BYTES;
            let off = (at % PAGE_BYTES) as usize;
            let chunk = ((PAGE_BYTES as usize) - off).min(buf.len() - done);
            let dst = &mut buf[done..done + chunk];
            match self.pages.get(&page) {
                Some(Page::Dense(data)) => dst.copy_from_slice(&data[off..off + chunk]),
                Some(Page::Sparse(words)) => {
                    dst.fill(0);
                    overlay(words, off, dst);
                }
                None => dst.fill(0),
            }
            at += chunk as u64;
            done += chunk;
        }
    }

    /// Convenience: reads `len` bytes into a fresh vector.
    #[must_use]
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        self.read(addr, &mut buf);
        buf
    }

    /// [`read_vec`](Self::read_vec) into a [`recycle`](Self::recycle)d
    /// buffer when there is one.
    pub fn read_buf(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.resize(len, 0); // every byte is overwritten
        self.read(addr, &mut buf);
        buf
    }

    /// Hands a consumed read buffer back (the pool keeps at most 1 024).
    pub fn recycle(&mut self, buf: Vec<u8>) {
        if buf.capacity() > 0 && self.spare.len() < 1024 {
            self.spare.push(buf);
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.put(addr, data);
        if !self.ecc.is_empty() && !data.is_empty() {
            // A write supersedes any pending corruption in the words it
            // touches: the freshly written word is clean by definition.
            let mut word = addr & !7;
            let end = addr + data.len() as u64;
            while word < end {
                self.ecc.remove(&word);
                word += 8;
            }
        }
    }

    /// Writes `data` at `addr` and nothing else: the ECC sidecar is the
    /// caller's business. One aligned word goes to its page in place, a
    /// new page starting sparse; anything else makes its pages dense.
    fn put(&mut self, addr: u64, data: &[u8]) {
        if let (0, Ok(word)) = (addr % 8, <[u8; 8]>::try_from(data)) {
            let value = u64::from_le_bytes(word);
            let index = ((addr % PAGE_BYTES) / 8) as u16;
            match self.pages.entry(addr / PAGE_BYTES) {
                Entry::Occupied(page) => page.into_mut().write_word(index, value),
                Entry::Vacant(page) => {
                    page.insert(Page::Sparse(vec![(index, value)]));
                }
            }
            return;
        }
        let mut at = addr;
        let mut done = 0;
        while done < data.len() {
            let page = at / PAGE_BYTES;
            let off = (at % PAGE_BYTES) as usize;
            let chunk = ((PAGE_BYTES as usize) - off).min(data.len() - done);
            self.pages
                .entry(page)
                .or_insert_with(|| Page::Dense(vec![0; PAGE_BYTES as usize].into_boxed_slice()))
                .write(off, &data[done..done + chunk]);
            at += chunk as u64;
            done += chunk;
        }
    }

    /// Reads the little-endian 64-bit word at `addr`.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut buf = [0; 8];
        self.read(addr, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian 64-bit word at `addr`.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// The full-empty bit of the word containing `addr`.
    #[must_use]
    pub fn is_full(&self, addr: u64) -> bool {
        self.full_bits.contains(&(addr & !7))
    }

    /// Sets or clears the full-empty bit of the word containing `addr`.
    pub fn set_full(&mut self, addr: u64, full: bool) {
        let word = addr & !7;
        let flipped = if full {
            self.full_bits.insert(word)
        } else {
            self.full_bits.remove(&word)
        };
        self.fe_epoch += u64::from(flipped);
    }

    /// How many times any full-empty bit has changed value (see the
    /// `fe_epoch` field).
    #[must_use]
    pub fn fe_epoch(&self) -> u64 {
        self.fe_epoch
    }

    /// Bytes of storage actually materialized (diagnostics).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_BYTES
    }

    /// Injects a retention fault: flips `bits` (0..64) of the 8-byte
    /// word at `addr` (word-aligned). The pristine word's SECDED check
    /// byte is snapshotted first, exactly as real check bits written at
    /// store time would survive a later cell upset, so a subsequent
    /// [`Storage::ecc_decode`] sees data that disagrees with its code.
    pub fn corrupt_word(&mut self, addr: u64, bits: &[u32]) {
        debug_assert_eq!(addr % 8, 0, "corruption is word-granular");
        let word = self.read_u64(addr);
        self.ecc.entry(addr).or_insert_with(|| secded::encode(word));
        let mut corrupted = word;
        for &bit in bits {
            corrupted ^= 1 << (bit % 64);
        }
        // Raw write: must not clear the sidecar entry just made.
        self.put(addr, &corrupted.to_le_bytes());
    }

    /// SECDED-decodes the word at `addr` (word-aligned) against its
    /// sidecar check byte. `None` means the word was never corrupted
    /// and is implicitly clean. On a correctable result the word is
    /// scrubbed in place (corrected data written back, sidecar entry
    /// retired); an uncorrectable word keeps its entry so later reads
    /// stay poisoned too.
    pub fn ecc_decode(&mut self, addr: u64) -> Option<Decoded> {
        debug_assert_eq!(addr % 8, 0, "ECC is word-granular");
        let check = *self.ecc.get(&addr)?;
        let decoded = secded::decode(self.read_u64(addr), check);
        match decoded {
            Decoded::Clean => {
                self.ecc.remove(&addr);
            }
            Decoded::Corrected { data, .. } => {
                // `write` retires the sidecar entry.
                self.write_u64(addr, data);
            }
            Decoded::Uncorrectable => {}
        }
        Some(decoded)
    }

    /// Number of words with an outstanding (injected, not yet scrubbed
    /// or overwritten) corruption — diagnostics.
    #[must_use]
    pub fn corrupted_words(&self) -> usize {
        self.ecc.len()
    }
}

/// Pages, full-empty bits, and the ECC sidecar serialize in sorted key
/// order so the same memory image always produces the same bytes — the
/// containers are hash maps, whose iteration order is not canonical.
/// Hand-written for that and for the pages, raw fixed-size runs with no
/// length prefix: a sparse page saves as its 4 KiB image, and every
/// page restores dense, so the bytes never say which form a page had.
impl Snapshot for Storage {
    fn save(&self, w: &mut Writer) {
        let mut pages: Vec<u64> = self.pages.keys().copied().collect();
        pages.sort_unstable();
        w.usize(pages.len());
        let mut image = vec![0; PAGE_BYTES as usize];
        for page in pages {
            w.u64(page);
            match &self.pages[&page] {
                Page::Dense(data) => w.raw(data),
                Page::Sparse(words) => {
                    image.fill(0);
                    overlay(words, 0, &mut image);
                    w.raw(&image);
                }
            }
        }
        let mut full: Vec<u64> = self.full_bits.iter().copied().collect();
        full.sort_unstable();
        full.save(w);
        save_sorted(w, &self.ecc);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n_pages = r.count()?;
        let mut pages = IdMap::default();
        for _ in 0..n_pages {
            let page = r.u64()?;
            let data = r.raw(PAGE_BYTES as usize)?;
            pages.insert(page, Page::Dense(Vec::from(data).into_boxed_slice()));
        }
        Ok(Storage {
            pages,
            full_bits: Vec::restore(r)?.into_iter().collect(),
            ecc: Vec::restore(r)?.into_iter().collect(),
            ..Storage::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_roundtrip() {
        let mut s = Storage::new();
        assert_eq!(s.read_vec(1234, 16), vec![0; 16]);
        s.write(1234, &[1, 2, 3]);
        assert_eq!(s.read_vec(1233, 5), vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn cross_page_access() {
        let mut s = Storage::new();
        let addr = PAGE_BYTES - 2;
        s.write(addr, &[9, 8, 7, 6]);
        assert_eq!(s.read_vec(addr, 4), vec![9, 8, 7, 6]);
        assert_eq!(s.resident_bytes(), 2 * PAGE_BYTES);
    }

    #[test]
    fn u64_helpers() {
        let mut s = Storage::new();
        s.write_u64(64, 0x1122_3344_5566_7788);
        assert_eq!(s.read_u64(64), 0x1122_3344_5566_7788);
        assert_eq!(s.read_vec(64, 1)[0], 0x88); // little endian
    }

    #[test]
    fn full_empty_bits() {
        let mut s = Storage::new();
        assert!(!s.is_full(128));
        s.set_full(128, true);
        assert!(s.is_full(128));
        assert!(s.is_full(135)); // same word
        assert!(!s.is_full(136)); // next word
        s.set_full(130, false);
        assert!(!s.is_full(128));
    }

    #[test]
    fn fe_epoch_counts_flips_only() {
        let mut s = Storage::new();
        s.set_full(8, false); // already empty
        assert_eq!(s.fe_epoch(), 0);
        s.set_full(8, true);
        s.set_full(12, true); // same word, already full
        assert_eq!(s.fe_epoch(), 1);
        s.set_full(8, false);
        assert_eq!(s.fe_epoch(), 2);
    }

    #[test]
    fn single_bit_corruption_corrects_and_scrubs() {
        let mut s = Storage::new();
        s.write_u64(64, 0xdead_beef_cafe_f00d);
        s.corrupt_word(64, &[17]);
        assert_ne!(s.read_u64(64), 0xdead_beef_cafe_f00d, "fault landed");
        assert_eq!(s.corrupted_words(), 1);
        let decoded = s.ecc_decode(64);
        assert!(
            matches!(decoded, Some(Decoded::Corrected { data, .. }) if data == 0xdead_beef_cafe_f00d),
            "expected correction back to the written word, got {decoded:?}"
        );
        // Scrubbed: storage repaired, sidecar retired, next decode clean.
        assert_eq!(s.read_u64(64), 0xdead_beef_cafe_f00d);
        assert_eq!(s.corrupted_words(), 0);
        assert_eq!(s.ecc_decode(64), None);
    }

    #[test]
    fn double_bit_corruption_stays_poisoned() {
        let mut s = Storage::new();
        s.write_u64(8, 0x0123_4567_89ab_cdef);
        s.corrupt_word(8, &[3, 40]);
        assert_eq!(s.ecc_decode(8), Some(Decoded::Uncorrectable));
        // Still poisoned on a second read...
        assert_eq!(s.ecc_decode(8), Some(Decoded::Uncorrectable));
        // ...until an overwrite supersedes the corruption.
        s.write_u64(8, 77);
        assert_eq!(s.ecc_decode(8), None);
        assert_eq!(s.read_u64(8), 77);
    }

    #[test]
    fn snapshot_roundtrip_preserves_image_bits_and_sidecar() {
        let mut s = Storage::new();
        s.write(100, &[1, 2, 3, 4]);
        s.write(PAGE_BYTES * 3 + 7, &[9; 64]);
        s.set_full(128, true);
        s.set_full(4096, true);
        s.corrupt_word(64, &[5]);
        s.corrupt_word(8192, &[1, 2]);

        let mut w = Writer::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let mut restored = Storage::restore(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.read_vec(100, 4), s.read_vec(100, 4));
        assert_eq!(restored.read_u64(64), s.read_u64(64));
        assert!(restored.is_full(128) && restored.is_full(4096));
        assert!(!restored.is_full(136));
        assert_eq!(restored.corrupted_words(), 2);
        // The pending corruption still decodes identically post-restore.
        assert!(matches!(
            restored.ecc_decode(64),
            Some(Decoded::Corrected { .. })
        ));
        assert_eq!(restored.ecc_decode(8192), Some(Decoded::Uncorrectable));

        // Canonical bytes: re-encoding an identical image is bit-equal.
        let mut w2 = Writer::new();
        s.save(&mut w2);
        assert_eq!(bytes, w2.into_bytes());
    }

    #[test]
    fn pooled_reads_overwrite_every_byte_of_a_recycled_buffer() {
        let mut s = Storage::new();
        s.write(100, &[1, 2, 3, 4]);
        for len in [4, 16, 80] {
            s.recycle(vec![0xff; 40]);
            assert_eq!(s.read_buf(98, len), s.read_vec(98, len), "len {len}");
        }
        s.recycle(Vec::new()); // nothing to reuse: not pooled
        assert_eq!(s.read_buf(100, 2), vec![1, 2]);
    }

    /// Which pages are sparse, ascending.
    fn sparse(s: &Storage) -> Vec<u64> {
        let mut pages: Vec<u64> = (s.pages.iter())
            .filter_map(|(&p, page)| matches!(page, Page::Sparse(_)).then_some(p))
            .collect();
        pages.sort_unstable();
        pages
    }

    #[test]
    fn aligned_words_keep_a_page_sparse_until_its_seventeenth() {
        let mut s = Storage::new();
        for i in 0..16 {
            s.write_u64(i * 16, i + 1);
            s.write_u64(i * 16, i + 100); // rewrites are not new words
        }
        s.write_u64(PAGE_BYTES, 0); // a zero word is still in the image
        assert_eq!(sparse(&s), [0, 1]);
        assert_eq!(s.resident_bytes(), 2 * PAGE_BYTES);
        assert_eq!(s.read_u64(15 * 16), 115);
        assert_eq!(s.read_vec(15 * 16 - 2, 4), [0, 0, 115, 0]);
        s.write_u64(8, 7);
        assert_eq!(sparse(&s), [1], "the 17th word makes the page dense");
        assert_eq!((s.read_u64(8), s.read_u64(15 * 16)), (7, 115));
    }

    #[test]
    fn any_other_write_makes_a_page_dense() {
        // (address, length, pages still sparse): narrow, unaligned, wide,
        // across the page edge, and the empty write, which changes nothing.
        let cases: [(u64, usize, &[u64]); 5] = [
            (8, 4, &[1]),
            (12, 8, &[1]),
            (16, 16, &[1]),
            (PAGE_BYTES - 8, 16, &[]),
            (0, 0, &[0, 1]),
        ];
        for (addr, len, still_sparse) in cases {
            let mut s = Storage::new();
            s.write_u64(0, 1);
            s.write_u64(PAGE_BYTES, 2);
            s.write(addr, &vec![9; len]);
            assert_eq!(sparse(&s), still_sparse, "{len} B at {addr}");
            assert_eq!(s.read_vec(addr, len), vec![9; len]);
            assert_eq!(s.read_u64(0), 1, "{len} B at {addr}");
        }
    }

    #[test]
    fn sparse_pages_corrupt_in_place_and_restore_dense() {
        let mut s = Storage::new();
        s.write_u64(64, 0xdead_beef_cafe_f00d);
        s.corrupt_word(64, &[17]);
        s.corrupt_word(PAGE_BYTES, &[2]); // a fresh page takes the raw word
        assert_eq!(sparse(&s), [0, 1]);
        assert!(matches!(s.ecc_decode(64), Some(Decoded::Corrected { .. })));
        assert_eq!(sparse(&s), [0, 1]);

        let mut w = Writer::new();
        s.save(&mut w);
        let bytes = w.into_bytes();
        let restored = Storage::restore(&mut Reader::new(&bytes)).unwrap();
        assert!(sparse(&restored).is_empty());
        let mut w = Writer::new();
        restored.save(&mut w);
        assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn untouched_words_are_implicitly_clean() {
        let mut s = Storage::new();
        s.write_u64(0, 42);
        assert_eq!(s.ecc_decode(0), None);
        assert_eq!(s.corrupted_words(), 0);
    }
}

/// `Storage` against a dense reference: the 4 KiB page map every store
/// used to be, kept here unchanged. `vip-ref`'s interpreter runs on the
/// same `Storage`, so the differential fuzzer cannot see a storage bug;
/// this is the check that can. Every read, every save's bytes and the
/// diagnostics must agree after every operation.
#[cfg(test)]
mod dense_reference {
    use super::*;
    use vip_rng::{for_each_seed, SplitMix64};

    /// One zero-filled 4 KiB page per page ever written.
    #[derive(Default)]
    struct Dense {
        pages: IdMap<Box<[u8]>>,
        full_bits: HashSet<u64>,
        ecc: IdMap<u8>,
        fe_epoch: u64,
    }

    impl Dense {
        fn read(&self, addr: u64, buf: &mut [u8]) {
            for (i, b) in buf.iter_mut().enumerate() {
                let at = addr + i as u64;
                *b = self
                    .pages
                    .get(&(at / PAGE_BYTES))
                    .map_or(0, |p| p[(at % PAGE_BYTES) as usize]);
            }
        }

        fn read_u64(&self, addr: u64) -> u64 {
            let mut buf = [0; 8];
            self.read(addr, &mut buf);
            u64::from_le_bytes(buf)
        }

        fn raw_write(&mut self, addr: u64, data: &[u8]) {
            for (i, &b) in data.iter().enumerate() {
                let at = addr + i as u64;
                self.pages
                    .entry(at / PAGE_BYTES)
                    .or_insert_with(|| vec![0; PAGE_BYTES as usize].into_boxed_slice())
                    [(at % PAGE_BYTES) as usize] = b;
            }
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            self.raw_write(addr, data);
            let end = addr + data.len() as u64;
            self.ecc
                .retain(|&w, _| data.is_empty() || w + 8 <= addr || w >= end);
        }

        fn set_full(&mut self, addr: u64, full: bool) {
            let word = addr & !7;
            let flipped = if full {
                self.full_bits.insert(word)
            } else {
                self.full_bits.remove(&word)
            };
            self.fe_epoch += u64::from(flipped);
        }

        fn corrupt_word(&mut self, addr: u64, bits: &[u32]) {
            let word = self.read_u64(addr);
            self.ecc.entry(addr).or_insert_with(|| secded::encode(word));
            let flipped = bits.iter().fold(word, |w, &b| w ^ 1 << (b % 64));
            self.raw_write(addr, &flipped.to_le_bytes());
        }

        fn ecc_decode(&mut self, addr: u64) -> Option<Decoded> {
            let check = *self.ecc.get(&addr)?;
            let decoded = secded::decode(self.read_u64(addr), check);
            match decoded {
                Decoded::Clean => {
                    self.ecc.remove(&addr);
                }
                Decoded::Corrected { data, .. } => self.write(addr, &data.to_le_bytes()),
                Decoded::Uncorrectable => {}
            }
            Some(decoded)
        }

        /// `Storage`'s wire layout, written from the dense pages.
        fn save(&self) -> Vec<u8> {
            let mut w = Writer::new();
            let mut pages: Vec<u64> = self.pages.keys().copied().collect();
            pages.sort_unstable();
            w.usize(pages.len());
            for page in pages {
                w.u64(page);
                w.raw(&self.pages[&page]);
            }
            let mut full: Vec<u64> = self.full_bits.iter().copied().collect();
            full.sort_unstable();
            full.save(&mut w);
            save_sorted(&mut w, &self.ecc);
            w.into_bytes()
        }
    }

    fn saved(s: &Storage) -> Vec<u8> {
        let mut w = Writer::new();
        s.save(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> Storage {
        let mut r = Reader::new(bytes);
        let s = Storage::restore(&mut r).expect("a saved store restores");
        r.finish().expect("nothing trails the store");
        s
    }

    /// Pages the draws land on: neighbours (so writes cross between
    /// them), one far away, one at the top of a 40-bit address space.
    const PAGES: [u64; 6] = [0, 1, 2, 3, 0x1_0000, (1 << 28) - 1];

    /// An address on one of [`PAGES`]. Half the draws use only the first
    /// 24 words of a page, so pages fill up word by word and cross the
    /// sparse limit at different times; the rest hit any byte.
    fn addr(rng: &mut SplitMix64) -> u64 {
        let page = PAGES[rng.usize_in(0..PAGES.len())];
        let off = if rng.bool() {
            rng.below(24) * 8
        } else {
            rng.below(PAGE_BYTES)
        };
        page * PAGE_BYTES + off
    }

    fn value(rng: &mut SplitMix64) -> u64 {
        if rng.below(4) == 0 {
            0
        } else {
            rng.next_u64()
        }
    }

    /// Every read shape at `at`: one byte, an aligned or unaligned word,
    /// a short run, a run across the page edge and several KiB.
    fn check_reads(s: &mut Storage, d: &Dense, rng: &mut SplitMix64, at: u64) {
        let word = at & !7;
        assert_eq!(s.read_u64(word), d.read_u64(word), "word at {word:#x}");
        assert_eq!(s.read_u64(at), d.read_u64(at), "unaligned word at {at:#x}");
        let edge = (at / PAGE_BYTES + 1) * PAGE_BYTES - rng.below(12);
        for (from, len) in [
            (at, 1),
            (at, rng.usize_in(0..80)),
            (edge, rng.usize_in(1..40)),
            (at, rng.usize_in(4096..9000)),
        ] {
            let mut want = vec![0; len];
            d.read(from, &mut want);
            assert_eq!(s.read_vec(from, len), want, "{len} B at {from:#x}");
            s.recycle(vec![0xa5; rng.usize_in(1..100)]);
            assert_eq!(s.read_buf(from, len), want, "pooled {len} B at {from:#x}");
        }
    }

    fn check_state(s: &Storage, d: &Dense) {
        assert_eq!(s.resident_bytes(), d.pages.len() as u64 * PAGE_BYTES);
        assert_eq!(s.fe_epoch(), d.fe_epoch);
        assert_eq!(s.corrupted_words(), d.ecc.len());
        assert_eq!(saved(s), d.save(), "saved bytes");
    }

    fn one_run(seed: u64) {
        let mut rng = SplitMix64::new(seed ^ 0x0053_544f_5241_4745);
        let mut s = Storage::new();
        let mut d = Dense::default();
        for step in 0..600 {
            let at = addr(&mut rng);
            match rng.below(16) {
                // Aligned words, zero-valued a quarter of the time: the
                // only writes a page can take and stay sparse.
                0..=4 => {
                    let (word, v) = (at & !7, value(&mut rng));
                    s.write_u64(word, v);
                    d.write(word, &v.to_le_bytes());
                }
                // One word through the byte interface, anywhere.
                5 => {
                    let v = value(&mut rng).to_le_bytes();
                    s.write(at, &v);
                    d.write(at, &v);
                }
                // Narrow and odd-length runs, and the empty write.
                6 => {
                    let len = rng.usize_in(0..24);
                    let data = rng.bytes(len);
                    s.write(at, &data);
                    d.write(at, &data);
                }
                // Across the page edge.
                7 => {
                    let edge = (at / PAGE_BYTES + 1) * PAGE_BYTES - rng.below(16);
                    let len = rng.usize_in(2..40);
                    let data = rng.bytes(len);
                    s.write(edge, &data);
                    d.write(edge, &data);
                }
                // Several KiB: whole pages and then some.
                8 if rng.below(4) == 0 => {
                    let len = rng.usize_in(1024..9000);
                    let data = rng.bytes(len);
                    s.write(at, &data);
                    d.write(at, &data);
                }
                9 => {
                    let full = rng.bool();
                    s.set_full(at, full);
                    d.set_full(at, full);
                }
                10 => {
                    let bits: Vec<u32> = (0..rng.usize_in(1..3))
                        .map(|_| rng.below(64) as u32)
                        .collect();
                    s.corrupt_word(at & !7, &bits);
                    d.corrupt_word(at & !7, &bits);
                }
                11 => assert_eq!(s.ecc_decode(at & !7), d.ecc_decode(at & !7), "{at:#x}"),
                // Round trips: onto a fresh store, or replacing this one.
                12 if rng.below(4) == 0 => {
                    let bytes = d.save();
                    let fresh = restored(&bytes);
                    assert_eq!(saved(&fresh), bytes, "step {step}: fresh restore");
                    if rng.bool() {
                        s = fresh;
                        d.fe_epoch = 0; // derived, so a restore starts it over
                    }
                }
                _ => {}
            }
            assert_eq!(s.is_full(at), d.full_bits.contains(&(at & !7)));
            check_reads(&mut s, &d, &mut rng, at);
            let elsewhere = addr(&mut rng);
            check_reads(&mut s, &d, &mut rng, elsewhere);
            if step % 8 == 0 {
                check_state(&s, &d);
            }
        }
        check_state(&s, &d);
    }

    #[test]
    fn storage_matches_the_dense_reference() {
        for_each_seed(
            "storage_matches_the_dense_reference",
            0x57_0000,
            24,
            one_run,
        );
    }

    /// A page of aligned words, one at a time up to and past 17, each
    /// step compared byte for byte, then written over in place.
    #[test]
    fn storage_matches_the_dense_reference_word_by_word() {
        let mut s = Storage::new();
        let mut d = Dense::default();
        let base = 5 * PAGE_BYTES;
        for i in 0..20 {
            let (at, v) = (base + i * 24, if i == 3 { 0 } else { i * 0x0101 + 1 });
            s.write_u64(at, v);
            d.write(at, &v.to_le_bytes());
            check_state(&s, &d);
            let mut page = vec![0; PAGE_BYTES as usize];
            d.read(base, &mut page);
            assert_eq!(s.read_vec(base, page.len()), page);
            s.write_u64(base + 8, v);
            d.write(base + 8, &v.to_le_bytes());
            check_state(&s, &d);
        }
        s.corrupt_word(base, &[7]);
        d.corrupt_word(base, &[7]);
        check_state(&s, &d);
        assert_eq!(s.ecc_decode(base), d.ecc_decode(base));
        check_state(&s, &d);
    }
}
