//! Memory request and response types.

use std::fmt;

use vip_snap::{snapshot_enum, snapshot_struct};

/// Caller-chosen request identifier, echoed in the matching
/// [`MemResponse`]. The system simulator uses it to route completions
/// back to the issuing PE.
pub type ReqId = u64;

/// The operation a [`MemRequest`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read `len` bytes.
    Read,
    /// Write the carried bytes.
    Write,
    /// Full-empty load (§IV-A): wait until the 8-byte word's full bit is
    /// set, read it, and atomically clear the bit. Services producer-
    /// consumer synchronization at tile boundaries.
    FeLoad,
    /// Full-empty store: wait until the full bit is clear, write the
    /// 8-byte word, and atomically set the bit.
    FeStore,
}

impl RequestKind {
    /// Whether the request returns data to the requester.
    #[must_use]
    pub fn returns_data(self) -> bool {
        matches!(self, RequestKind::Read | RequestKind::FeLoad)
    }
}

/// A single memory transaction, at most one DRAM column (32 B) long and
/// not crossing a column boundary; the PE load-store unit splits larger
/// transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen identifier echoed in the response.
    pub id: ReqId,
    /// Operation.
    pub kind: RequestKind,
    /// Physical byte address.
    pub addr: u64,
    /// Length in bytes (reads); for writes, `data.len()` is used.
    pub len: usize,
    /// Payload for writes and full-empty stores.
    pub data: Vec<u8>,
}

impl MemRequest {
    /// A read of `len` bytes at `addr`.
    #[must_use]
    pub fn read(id: ReqId, addr: u64, len: usize) -> Self {
        MemRequest {
            id,
            kind: RequestKind::Read,
            addr,
            len,
            data: Vec::new(),
        }
    }

    /// A write of `data` at `addr`.
    #[must_use]
    pub fn write(id: ReqId, addr: u64, data: Vec<u8>) -> Self {
        let len = data.len();
        MemRequest {
            id,
            kind: RequestKind::Write,
            addr,
            len,
            data,
        }
    }

    /// A full-empty load of the 8-byte word at `addr` (must be 8-byte
    /// aligned).
    #[must_use]
    pub fn fe_load(id: ReqId, addr: u64) -> Self {
        debug_assert_eq!(addr % 8, 0, "full-empty accesses are word-aligned");
        MemRequest {
            id,
            kind: RequestKind::FeLoad,
            addr,
            len: 8,
            data: Vec::new(),
        }
    }

    /// A full-empty store of `value` to the 8-byte word at `addr`.
    #[must_use]
    pub fn fe_store(id: ReqId, addr: u64, value: u64) -> Self {
        debug_assert_eq!(addr % 8, 0, "full-empty accesses are word-aligned");
        MemRequest {
            id,
            kind: RequestKind::FeStore,
            addr,
            len: 8,
            data: value.to_le_bytes().to_vec(),
        }
    }

    /// Bytes this request touches: the carried payload for writes,
    /// `len` for everything else.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        if self.kind == RequestKind::Write {
            self.data.len()
        } else {
            self.len
        }
    }

    /// The half-open byte range `[addr, addr + payload_len)`.
    #[must_use]
    pub fn byte_range(&self) -> std::ops::Range<u64> {
        self.addr..self.addr + self.payload_len() as u64
    }

    /// Whether this request only makes forward progress when the word's
    /// full-empty bit permits.
    #[must_use]
    pub fn is_full_empty(&self) -> bool {
        matches!(self.kind, RequestKind::FeLoad | RequestKind::FeStore)
    }
}

snapshot_enum!(RequestKind, "request kind tag" {
    0 => Read,
    1 => Write,
    2 => FeLoad,
    3 => FeStore,
});
snapshot_struct!(MemRequest {
    id,
    kind,
    addr,
    len,
    data
});

/// Completion of a [`MemRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemResponse {
    /// The identifier of the completed request.
    pub id: ReqId,
    /// The operation that completed.
    pub kind: RequestKind,
    /// The request's address.
    pub addr: u64,
    /// Read data (empty for writes and full-empty stores).
    pub data: Vec<u8>,
    /// True if ECC detected an uncorrectable error in `data`: the bytes
    /// cannot be trusted and the consumer must raise a machine-check
    /// style error instead of using them.
    pub poisoned: bool,
}

snapshot_struct!(MemResponse {
    id,
    kind,
    addr,
    data,
    poisoned
});

/// Error returned when a vault's transaction queue is full; retry next
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    /// The vault whose queue rejected the request.
    pub vault: usize,
}

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vault {} transaction queue is full", self.vault)
    }
}

impl std::error::Error for QueueFullError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let r = MemRequest::read(1, 64, 32);
        assert_eq!(r.kind, RequestKind::Read);
        assert!(r.kind.returns_data());
        assert!(!r.is_full_empty());

        let w = MemRequest::write(2, 64, vec![1, 2, 3]);
        assert_eq!(w.len, 3);
        assert_eq!(w.byte_range(), 64..67);
        assert_eq!(r.byte_range(), 64..96);
        assert!(!w.kind.returns_data());

        let fl = MemRequest::fe_load(3, 8);
        assert!(fl.is_full_empty());
        assert!(fl.kind.returns_data());

        let fs = MemRequest::fe_store(4, 16, 0xdead_beef);
        assert_eq!(fs.data.len(), 8);
        assert!(fs.is_full_empty());
    }
}
