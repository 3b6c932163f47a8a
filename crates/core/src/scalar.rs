//! The scalar register file with per-register valid bits (§III-B).

use vip_isa::{Reg, NUM_REGS};
use vip_snap::{Reader, SnapError, Snapshot, Writer};

/// 64×64-bit scalar registers, each with a valid bit.
///
/// A register's valid bit is cleared when an instruction that fills it
/// asynchronously (an `ld.reg`) issues, and set when the fill completes;
/// instructions reading — or overwriting — an invalid register stall at
/// issue. This scoreboard is how VIP avoids scalar pipeline hazards
/// without register renaming.
#[derive(Debug, Clone)]
pub struct ScalarRegs {
    values: [u64; NUM_REGS],
    /// Bit `i` is register `i`'s valid bit: one word, so "no fill in
    /// flight" — the common case at issue — is a single compare.
    valid: u64,
}

const _: () = assert!(NUM_REGS == 64, "the valid bits are one u64");

impl ScalarRegs {
    /// All registers zero and valid.
    #[must_use]
    pub fn new() -> Self {
        ScalarRegs {
            values: [0; NUM_REGS],
            valid: u64::MAX,
        }
    }

    /// Reads a register's value.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the register is invalid — issue logic must check
    /// [`is_valid`](Self::is_valid) first.
    #[must_use]
    pub fn read(&self, r: Reg) -> u64 {
        debug_assert!(self.is_valid(r), "read of invalid {r}");
        self.values[r.index()]
    }

    /// Writes a register and marks it valid.
    pub fn write(&mut self, r: Reg, value: u64) {
        self.values[r.index()] = value;
        self.valid |= 1 << r.index();
    }

    /// Whether the register's valid bit is set.
    #[must_use]
    pub fn is_valid(&self, r: Reg) -> bool {
        self.valid >> r.index() & 1 == 1
    }

    /// Whether every register is valid (no `ld.reg` fill in flight).
    #[must_use]
    pub fn all_valid(&self) -> bool {
        self.valid == u64::MAX
    }

    /// Clears the valid bit (an asynchronous fill is in flight).
    pub fn invalidate(&mut self, r: Reg) {
        self.valid &= !(1 << r.index());
    }
}

impl Default for ScalarRegs {
    fn default() -> Self {
        Self::new()
    }
}

/// Valid bits are captured alongside values: a snapshot can land while
/// an `ld.reg` fill is outstanding, leaving registers architecturally
/// invalid. Hand-written: the valid bits are one packed word in memory
/// and a byte each on the wire.
impl Snapshot for ScalarRegs {
    fn save(&self, w: &mut Writer) {
        for v in self.values {
            w.u64(v);
        }
        for i in 0..NUM_REGS {
            w.bool(self.valid >> i & 1 == 1);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let mut regs = ScalarRegs::new();
        for v in &mut regs.values {
            *v = r.u64()?;
        }
        regs.valid = 0;
        for i in 0..NUM_REGS {
            regs.valid |= u64::from(r.bool()?) << i;
        }
        Ok(regs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboarding() {
        let mut regs = ScalarRegs::new();
        let r5 = Reg::new(5);
        assert!(regs.is_valid(r5));
        assert_eq!(regs.read(r5), 0);
        regs.invalidate(r5);
        assert!(!regs.is_valid(r5));
        regs.write(r5, 42);
        assert!(regs.is_valid(r5));
        assert_eq!(regs.read(r5), 42);
    }

    #[test]
    fn all_valid_tracks_every_register_across_a_round_trip() {
        let mut regs = ScalarRegs::new();
        assert!(regs.all_valid());
        for i in [0u8, 31, 63] {
            regs.invalidate(Reg::new(i));
            regs.invalidate(Reg::new(i)); // idempotent
            assert!(!regs.all_valid());
            let mut w = Writer::new();
            regs.save(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(
                bytes.len(),
                NUM_REGS * 8 + NUM_REGS,
                "one byte per valid bit"
            );
            let back = ScalarRegs::restore(&mut Reader::new(&bytes)).unwrap();
            assert!(!back.all_valid());
            for r in Reg::all() {
                assert_eq!(back.is_valid(r), r.index() != usize::from(i));
            }
            regs.write(Reg::new(i), 7);
            assert!(regs.all_valid());
        }
    }
}
