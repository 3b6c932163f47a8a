//! The PE's 4 KiB SRAM scratchpad.

use vip_isa::Trap;
use vip_snap::snapshot_struct;

/// The scratchpad that replaces a vector register file in VIP's vector
/// memory-memory paradigm (§III-A/B).
///
/// Hardware-wise it is eight 512×8-bit banks whose 3R/2W ports are
/// swizzled into 64-bit ports — two read and one write port dedicated to
/// the vector pipeline and one read plus one write port to the load-store
/// unit, so the two never conflict and any byte alignment is legal. The
/// model therefore exposes plain byte-addressed storage with bounds
/// checks; port *counts* never throttle (that is the microarchitectural
/// point of the banked design) while port *width* shows up as the vector
/// unit's beat rate.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    data: Vec<u8>,
}

impl Scratchpad {
    /// Creates a zeroed scratchpad of `bytes` bytes (4,096 for VIP).
    #[must_use]
    pub fn new(bytes: usize) -> Self {
        Scratchpad {
            data: vec![0; bytes],
        }
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the scratchpad has zero capacity (never true in practice).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ScratchpadOutOfBounds`] if the range exceeds the
    /// scratchpad; the PE surfaces it as a typed simulation error.
    pub fn slice(&self, addr: usize, len: usize) -> Result<&[u8], Trap> {
        Trap::check_sp_range(addr, len, self.data.len())?;
        Ok(&self.data[addr..addr + len])
    }

    /// Mutably borrows `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ScratchpadOutOfBounds`] if the range exceeds the
    /// scratchpad.
    pub fn slice_mut(&mut self, addr: usize, len: usize) -> Result<&mut [u8], Trap> {
        Trap::check_sp_range(addr, len, self.data.len())?;
        Ok(&mut self.data[addr..addr + len])
    }

    /// Copies bytes in, for load completions and host preloading.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ScratchpadOutOfBounds`] if the range exceeds the
    /// scratchpad.
    pub fn write(&mut self, addr: usize, bytes: &[u8]) -> Result<(), Trap> {
        self.slice_mut(addr, bytes.len())?.copy_from_slice(bytes);
        Ok(())
    }

    /// Copies bytes out.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ScratchpadOutOfBounds`] if the range exceeds the
    /// scratchpad.
    pub fn read(&self, addr: usize, len: usize) -> Result<Vec<u8>, Trap> {
        Ok(self.slice(addr, len)?.to_vec())
    }
}

snapshot_struct!(Scratchpad { data });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_zero_init() {
        let mut sp = Scratchpad::new(4096);
        assert_eq!(sp.len(), 4096);
        assert_eq!(sp.read(100, 4).unwrap(), vec![0; 4]);
        sp.write(100, &[1, 2, 3]).unwrap();
        assert_eq!(sp.read(99, 5).unwrap(), vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn arbitrary_alignment_is_legal() {
        // The banked+swizzled design means any byte offset works.
        let mut sp = Scratchpad::new(4096);
        sp.write(4093, &[9, 9, 9]).unwrap();
        assert_eq!(sp.read(4093, 3).unwrap(), vec![9, 9, 9]);
    }

    #[test]
    fn out_of_bounds_is_a_typed_trap() {
        let sp = Scratchpad::new(4096);
        assert_eq!(
            sp.slice(4090, 8).unwrap_err(),
            Trap::ScratchpadOutOfBounds {
                addr: 4090,
                len: 8,
                capacity: 4096
            }
        );
        let mut sp = Scratchpad::new(4096);
        assert!(sp.write(4095, &[0, 0]).is_err());
        assert!(sp.read(0, 4097).is_err());
    }
}
