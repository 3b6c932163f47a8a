//! The ARC — array range check (§III-B).

use vip_snap::{Reader, SnapError, Snapshot, Writer};

/// Identifier of an allocated ARC entry.
pub type ArcId = u32;

/// The associative array of scratchpad address ranges with outstanding
/// loads.
///
/// When an `ld.sram` issues, its destination range is entered here; any
/// subsequent instruction whose scratchpad operands overlap a live entry
/// stalls at issue until the load completes and clears the entry. The
/// table has 20 entries in VIP (more would not close timing at 0.8 ns);
/// a full table stalls further loads.
#[derive(Debug, Clone)]
pub struct ArcTable {
    entries: Vec<Option<(usize, usize)>>, // [start, end)
    next_id: ArcId,
    live: usize,
    /// Bit `slot % 64` of word `slot / 64` is set while `entries[slot]`
    /// is live, so [`overlaps`](Self::overlaps) visits the handful of
    /// live ranges rather than every slot. Derived from `entries`:
    /// never serialized.
    occupied: Vec<u64>,
}

/// The occupancy words for `entries`.
fn occupancy(entries: &[Option<(usize, usize)>]) -> Vec<u64> {
    let mut occupied = vec![0u64; entries.len().div_ceil(64)];
    for (slot, entry) in entries.iter().enumerate() {
        if entry.is_some() {
            occupied[slot / 64] |= 1 << (slot % 64);
        }
    }
    occupied
}

impl ArcTable {
    /// Creates a table with `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ArcTable {
            entries: vec![None; capacity],
            next_id: 0,
            live: 0,
            occupied: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether a new entry can be allocated.
    #[must_use]
    pub fn has_free_entry(&self) -> bool {
        self.live < self.entries.len()
    }

    /// Whether `[start, start+len)` overlaps any live entry. Zero-length
    /// ranges never overlap.
    #[must_use]
    pub fn overlaps(&self, start: usize, len: usize) -> bool {
        if len == 0 {
            return false;
        }
        // `start` is a guest register value: the end saturates, it never
        // wraps.
        let end = start.saturating_add(len);
        for (word, &bits) in self.occupied.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let (s, e) = self.entries[slot].expect("occupied slot is live");
                if start < e && s < end {
                    return true;
                }
                bits &= bits - 1;
            }
        }
        false
    }

    /// Allocates an entry covering `[start, start+len)`, returning its
    /// id, or `None` if the table is full.
    pub fn insert(&mut self, start: usize, len: usize) -> Option<ArcId> {
        let slot = self.entries.iter().position(Option::is_none)?;
        self.entries[slot] = Some((start, start + len));
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.live += 1;
        // Ids encode the slot so clearing is O(1); the generation in the
        // high bits guards against double-clear bugs in the simulator.
        let id = (self.next_id << 8) | slot as ArcId;
        self.next_id += 1;
        Some(id)
    }

    /// Clears the entry `id` (called when its load completes).
    ///
    /// # Panics
    ///
    /// Panics if the entry was already cleared (a simulator bug).
    pub fn clear(&mut self, id: ArcId) {
        let slot = (id & 0xff) as usize;
        assert!(
            self.entries[slot].is_some(),
            "ARC entry {id} already cleared"
        );
        self.entries[slot] = None;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        self.live -= 1;
    }
}

/// Slot occupancy must survive verbatim — ids encode slot indices, so a
/// restored table has to hand back the same ids the in-flight loads
/// recorded before the snapshot. Hand-written: `live` is checked against
/// the slots and `occupied` rebuilt from them.
impl Snapshot for ArcTable {
    fn save(&self, w: &mut Writer) {
        self.entries.save(w);
        w.u32(self.next_id);
        w.usize(self.live);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let entries: Vec<Option<(usize, usize)>> = Vec::restore(r)?;
        let next_id = r.u32()?;
        let live = r.usize()?;
        if live != entries.iter().flatten().count() {
            return Err(SnapError::Corrupt("ARC live count mismatch"));
        }
        Ok(ArcTable {
            occupied: occupancy(&entries),
            entries,
            next_id,
            live,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_semantics() {
        let mut arc = ArcTable::new(20);
        let id = arc.insert(100, 32).unwrap();
        assert!(arc.overlaps(100, 32));
        assert!(arc.overlaps(131, 1));
        assert!(!arc.overlaps(132, 10));
        assert!(!arc.overlaps(90, 10));
        assert!(arc.overlaps(90, 11));
        assert!(!arc.overlaps(0, 0), "zero-length never overlaps");
        arc.clear(id);
        assert!(!arc.overlaps(100, 32));
        assert_eq!(arc.live(), 0);
    }

    #[test]
    fn capacity_limit() {
        let mut arc = ArcTable::new(2);
        let a = arc.insert(0, 8).unwrap();
        let _b = arc.insert(8, 8).unwrap();
        assert!(!arc.has_free_entry());
        assert!(arc.insert(16, 8).is_none());
        arc.clear(a);
        assert!(arc.has_free_entry());
        assert!(arc.insert(16, 8).is_some());
    }

    /// `overlaps` against a scan of every slot, over random
    /// insert/clear traffic, for the paper's 20 entries and for tables
    /// past one occupancy word (ids carry the slot in 8 bits, so 256 is
    /// the largest a table can be) — including across a save/restore,
    /// which rebuilds the occupancy words from the slots.
    #[test]
    fn occupancy_tracks_the_slots_for_any_capacity() {
        for capacity in [1, 20, 64, 65, 200, 256] {
            let mut rng = vip_rng::SplitMix64::new(capacity as u64);
            let mut arc = ArcTable::new(capacity);
            let mut ids: Vec<ArcId> = Vec::new();
            for round in 0..2_000 {
                if !ids.is_empty() && (rng.bool() || !arc.has_free_entry()) {
                    let id = ids.swap_remove(rng.usize_in(0..ids.len()));
                    arc.clear(id);
                } else {
                    ids.push(
                        arc.insert(rng.usize_in(0..4096), rng.usize_in(0..64))
                            .unwrap(),
                    );
                }
                if round % 97 == 0 {
                    let mut w = Writer::new();
                    arc.save(&mut w);
                    let bytes = w.into_bytes();
                    arc = ArcTable::restore(&mut Reader::new(&bytes)).unwrap();
                }
                assert_eq!(arc.live(), ids.len());
                let (start, len) = (rng.usize_in(0..4096), rng.usize_in(0..48));
                let by_scan = len != 0
                    && arc
                        .entries
                        .iter()
                        .flatten()
                        .any(|&(s, e)| start < e && s < start + len);
                assert_eq!(arc.overlaps(start, len), by_scan, "capacity {capacity}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "already cleared")]
    fn double_clear_panics() {
        let mut arc = ArcTable::new(2);
        let a = arc.insert(0, 8).unwrap();
        arc.clear(a);
        arc.clear(a);
    }
}
