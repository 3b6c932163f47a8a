//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
//! the NoC attaches to every packet so the receiver can detect flit
//! corruption and trigger a retransmission. The implementation is
//! [`vip_snap::crc32`], the workspace's one table-driven CRC (journal
//! frames and fleet checkpoints use it too); this module keeps the path
//! the NoC and its users import it by.

pub use vip_snap::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The canonical CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
        assert_ne!(crc32(b"abc"), crc32(b"cba"));
    }
}
