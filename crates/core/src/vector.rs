//! Vector-unit configuration and timing state.

use vip_isa::{ElemType, Trap};
use vip_snap::snapshot_struct;

use crate::Cycle;

/// Timing state of the vector pipelines (vertical + horizontal).
///
/// Functionally, vector instructions execute at issue (perfect operand
/// chaining — see the crate docs); this struct tracks the *time* those
/// instructions occupy the datapath. A vector whose footprint exceeds the
/// 64-bit datapath streams over multiple beats, occupying the unit one
/// beat per cycle, as in the temporal vector machines the paper cites
/// (CDC STAR-100, Cray-1). `complete_at` tracks pipeline drain for
/// `v.drain`.
#[derive(Debug, Clone)]
pub struct VectorUnit {
    vl: usize,
    mr: usize,
    busy_until: Cycle,
    complete_at: Cycle,
}

impl VectorUnit {
    /// An idle unit with `vl = 1`, `mr = 1`.
    #[must_use]
    pub fn new() -> Self {
        VectorUnit {
            vl: 1,
            mr: 1,
            busy_until: 0,
            complete_at: 0,
        }
    }

    /// Current vector length in elements (`set.vl`).
    #[must_use]
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Current matrix row count for `m.v` instructions (`set.mr`).
    #[must_use]
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// Sets the vector length.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ZeroVectorLength`] if `vl` is zero (programs
    /// must configure a positive length).
    pub fn set_vl(&mut self, vl: usize) -> Result<(), Trap> {
        Trap::check_vl(vl)?;
        self.vl = vl;
        Ok(())
    }

    /// Sets the matrix row count.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ZeroMatRows`] if `mr` is zero.
    pub fn set_mr(&mut self, mr: usize) -> Result<(), Trap> {
        Trap::check_mr(mr)?;
        self.mr = mr;
        Ok(())
    }

    /// Datapath beats to stream `elems` lanes of `ty` (64-bit datapath).
    #[must_use]
    pub fn beats(elems: usize, ty: ElemType) -> u64 {
        ((elems * ty.size_bytes()).div_ceil(8) as u64).max(1)
    }

    /// Whether a new vector instruction may issue at `now`.
    #[must_use]
    pub fn ready(&self, now: Cycle) -> bool {
        now >= self.busy_until
    }

    /// First cycle at which [`ready`](Self::ready) becomes true.
    #[must_use]
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// First cycle at which [`drained`](Self::drained) becomes true.
    #[must_use]
    pub fn complete_at(&self) -> Cycle {
        self.complete_at
    }

    /// Whether every issued instruction has fully drained at `now`
    /// (`v.drain`'s condition).
    #[must_use]
    pub fn drained(&self, now: Cycle) -> bool {
        now >= self.complete_at
    }

    /// Records the issue of an instruction streaming `beats` beats with
    /// `latency` extra cycles of pipeline depth.
    pub fn issue(&mut self, now: Cycle, beats: u64, latency: u64) {
        debug_assert!(self.ready(now));
        self.busy_until = now + beats;
        self.complete_at = self.complete_at.max(now + beats + latency);
    }
}

impl Default for VectorUnit {
    fn default() -> Self {
        Self::new()
    }
}

snapshot_struct!(VectorUnit {
    vl,
    mr,
    busy_until,
    complete_at
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_counts() {
        assert_eq!(VectorUnit::beats(16, ElemType::I16), 4); // 32 B / 8
        assert_eq!(VectorUnit::beats(1, ElemType::I8), 1);
        assert_eq!(VectorUnit::beats(9, ElemType::I8), 2);
        assert_eq!(VectorUnit::beats(2, ElemType::I64), 2);
    }

    #[test]
    fn occupancy_and_drain() {
        let mut v = VectorUnit::new();
        assert!(v.ready(0));
        v.issue(0, 4, 2);
        assert!(!v.ready(3));
        assert!(v.ready(4));
        assert!(!v.drained(5));
        assert!(v.drained(6));
        // Back-to-back issue extends the drain horizon.
        v.issue(4, 4, 2);
        assert!(v.drained(10));
    }

    #[test]
    fn zero_vl_is_a_typed_trap() {
        let mut v = VectorUnit::new();
        assert_eq!(v.set_vl(0), Err(Trap::ZeroVectorLength));
        assert_eq!(v.set_mr(0), Err(Trap::ZeroMatRows));
        // State is untouched by the rejected writes.
        assert_eq!((v.vl(), v.mr()), (1, 1));
        v.set_vl(16).unwrap();
        assert_eq!(v.vl(), 16);
    }
}
