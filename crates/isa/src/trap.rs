//! Architectural trap classification.
//!
//! The ISA promises nothing about out-of-range accesses: the paper's PE
//! has no precise exceptions (§III-B), so an out-of-bounds scratchpad
//! operand or a misaligned `ld.reg` is a *program bug*, not defined
//! behaviour. Both executable models of the ISA — the cycle-level PE in
//! `vip-core` and the architectural interpreter in `vip-ref` — must
//! reject exactly the same programs, so the classification of what is
//! rejected lives here, next to the instruction definitions, and both
//! sides call the same checks. The cycle-level PE panics on a trap (a
//! codegen bug should abort the simulation); the interpreter returns it
//! as an error so the fuzzing harness can report it.

use std::fmt;

/// An architectural trap: a condition under which a VIP program is
/// illegal and execution cannot continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// A vector or load-store operand range runs past the scratchpad.
    ScratchpadOutOfBounds {
        /// First byte of the offending range.
        addr: usize,
        /// Length of the range in bytes.
        len: usize,
        /// Scratchpad capacity in bytes.
        capacity: usize,
    },
    /// A DRAM transfer (`ld.sram`/`st.sram`, or a register load-store's
    /// word) runs past the end of the memory stack.
    DramOutOfBounds {
        /// First byte of the offending range.
        addr: u64,
        /// Length of the range in bytes.
        len: usize,
        /// Memory capacity in bytes.
        capacity: u64,
    },
    /// A `ld.reg`/`st.reg` (or full-empty) DRAM address is not 8-byte
    /// aligned.
    MisalignedRegAccess {
        /// The offending DRAM address.
        addr: u64,
    },
    /// `set.vl` of zero (programs must configure a positive length).
    ZeroVectorLength,
    /// `set.mr` of zero.
    ZeroMatRows,
}

impl Trap {
    /// Checks a scratchpad operand range against the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ScratchpadOutOfBounds`] if `[addr, addr+len)`
    /// does not fit in `capacity` bytes.
    pub fn check_sp_range(addr: usize, len: usize, capacity: usize) -> Result<(), Trap> {
        if addr.checked_add(len).is_some_and(|end| end <= capacity) {
            Ok(())
        } else {
            Err(Trap::ScratchpadOutOfBounds {
                addr,
                len,
                capacity,
            })
        }
    }

    /// Checks a DRAM transfer range against the memory capacity: like
    /// a scratchpad range, it must fit, so an empty transfer is legal up
    /// to and including the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::DramOutOfBounds`] if `[addr, addr+len)` does not
    /// fit in `capacity` bytes, or wraps the address space.
    pub fn check_dram_range(addr: u64, len: usize, capacity: u64) -> Result<(), Trap> {
        let end = u64::try_from(len)
            .ok()
            .and_then(|len| addr.checked_add(len));
        if end.is_some_and(|end| end <= capacity) {
            Ok(())
        } else {
            Err(Trap::DramOutOfBounds {
                addr,
                len,
                capacity,
            })
        }
    }

    /// Checks a register load-store DRAM address for 8-byte alignment.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::MisalignedRegAccess`] if `addr % 8 != 0`.
    pub fn check_reg_addr(addr: u64) -> Result<(), Trap> {
        if addr.is_multiple_of(8) {
            Ok(())
        } else {
            Err(Trap::MisalignedRegAccess { addr })
        }
    }

    /// Checks a `set.vl` operand.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ZeroVectorLength`] if `vl == 0`.
    pub fn check_vl(vl: usize) -> Result<(), Trap> {
        if vl > 0 {
            Ok(())
        } else {
            Err(Trap::ZeroVectorLength)
        }
    }

    /// Checks a `set.mr` operand.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::ZeroMatRows`] if `mr == 0`.
    pub fn check_mr(mr: usize) -> Result<(), Trap> {
        if mr > 0 {
            Ok(())
        } else {
            Err(Trap::ZeroMatRows)
        }
    }
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Trap::ScratchpadOutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "scratchpad access [{addr}, {}) exceeds {capacity} bytes",
                addr.wrapping_add(len),
            ),
            Trap::DramOutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "DRAM access of {len} bytes at {addr:#x} exceeds {capacity} bytes"
            ),
            Trap::MisalignedRegAccess { addr } => {
                write!(
                    f,
                    "register load-store address {addr:#x} is not 8-byte aligned"
                )
            }
            Trap::ZeroVectorLength => write!(f, "set.vl of 0"),
            Trap::ZeroMatRows => write!(f, "set.mr of 0"),
        }
    }
}

impl std::error::Error for Trap {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_range() {
        assert!(Trap::check_sp_range(0, 4096, 4096).is_ok());
        assert!(Trap::check_sp_range(4095, 1, 4096).is_ok());
        assert_eq!(
            Trap::check_sp_range(4090, 8, 4096),
            Err(Trap::ScratchpadOutOfBounds {
                addr: 4090,
                len: 8,
                capacity: 4096
            })
        );
        // Overflow does not wrap into legality.
        assert!(Trap::check_sp_range(usize::MAX, 2, 4096).is_err());
    }

    #[test]
    fn dram_range() {
        let cap = 1 << 28;
        assert!(Trap::check_dram_range(cap - 8, 8, cap).is_ok());
        assert!(Trap::check_dram_range(cap, 0, cap).is_ok());
        for (addr, len) in [
            (cap - 7, 8),
            (cap + 1, 0),
            (u64::MAX - 7, 8),
            (8, usize::MAX),
        ] {
            assert_eq!(
                Trap::check_dram_range(addr, len, cap),
                Err(Trap::DramOutOfBounds {
                    addr,
                    len,
                    capacity: cap
                }),
                "{addr:#x} + {len}"
            );
        }
        // The last byte of the address space is never inside.
        assert!(Trap::check_dram_range(u64::MAX, 1, u64::MAX).is_err());
    }

    #[test]
    fn reg_alignment() {
        assert!(Trap::check_reg_addr(0x40).is_ok());
        assert_eq!(
            Trap::check_reg_addr(0x41),
            Err(Trap::MisalignedRegAccess { addr: 0x41 })
        );
    }

    #[test]
    fn vector_config() {
        assert!(Trap::check_vl(1).is_ok());
        assert_eq!(Trap::check_vl(0), Err(Trap::ZeroVectorLength));
        assert_eq!(Trap::check_mr(0), Err(Trap::ZeroMatRows));
    }

    #[test]
    fn messages_match_the_pe_panics() {
        // The cycle-level PE's panic messages are these Displays; tests
        // that assert on panic substrings rely on them.
        assert!(Trap::check_sp_range(4090, 8, 4096)
            .unwrap_err()
            .to_string()
            .contains("exceeds"));
        assert!(Trap::check_reg_addr(1)
            .unwrap_err()
            .to_string()
            .contains("not 8-byte aligned"));
        assert_eq!(Trap::check_vl(0).unwrap_err().to_string(), "set.vl of 0");
    }
}
