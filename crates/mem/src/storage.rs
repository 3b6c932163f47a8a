//! Sparse execution-driven backing store with full-empty bits.

use crate::{IdHasher, IdMap};
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use vip_faults::secded::{self, Decoded};
use vip_snap::{save_sorted, Reader, SnapError, Snapshot, Writer};

const PAGE_BYTES: u64 = 4096;

/// Sparse byte-addressable storage for the whole memory stack.
///
/// The simulator is execution-driven (§V-A): loads return the data stores
/// actually put there, which is how simulated kernel outputs are verified
/// against the golden references. Untouched memory reads as zero. A
/// sidecar set tracks the full-empty bit of each 8-byte word (§IV-A);
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
    pages: IdMap<Box<[u8]>>,
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
            match self.pages.get(&page) {
                Some(data) => buf[done..done + chunk].copy_from_slice(&data[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
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
        let mut at = addr;
        let mut done = 0;
        while done < data.len() {
            let page = at / PAGE_BYTES;
            let off = (at % PAGE_BYTES) as usize;
            let chunk = ((PAGE_BYTES as usize) - off).min(data.len() - done);
            let page_data = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0; PAGE_BYTES as usize].into_boxed_slice());
            page_data[off..off + chunk].copy_from_slice(&data[done..done + chunk]);
            at += chunk as u64;
            done += chunk;
        }
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
        // Raw page write: must not clear the sidecar entry just made.
        let bytes = corrupted.to_le_bytes();
        let mut at = addr;
        let mut done = 0;
        while done < bytes.len() {
            let page = at / PAGE_BYTES;
            let off = (at % PAGE_BYTES) as usize;
            let chunk = ((PAGE_BYTES as usize) - off).min(bytes.len() - done);
            let page_data = self
                .pages
                .entry(page)
                .or_insert_with(|| vec![0; PAGE_BYTES as usize].into_boxed_slice());
            page_data[off..off + chunk].copy_from_slice(&bytes[done..done + chunk]);
            at += chunk as u64;
            done += chunk;
        }
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
/// length prefix.
impl Snapshot for Storage {
    fn save(&self, w: &mut Writer) {
        let mut pages: Vec<u64> = self.pages.keys().copied().collect();
        pages.sort_unstable();
        w.usize(pages.len());
        for page in pages {
            w.u64(page);
            w.raw(&self.pages[&page]);
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
            pages.insert(page, Vec::from(data).into_boxed_slice());
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

    #[test]
    fn untouched_words_are_implicitly_clean() {
        let mut s = Storage::new();
        s.write_u64(0, 42);
        assert_eq!(s.ecc_decode(0), None);
        assert_eq!(s.corrupted_words(), 0);
    }
}
