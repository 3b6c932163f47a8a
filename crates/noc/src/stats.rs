//! Network statistics.

use vip_snap::snapshot_struct;

/// Counters accumulated by a [`Torus`](crate::Torus).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NocStats {
    /// Packets injected.
    pub packets: u64,
    /// Packets delivered (popped by receivers may lag this).
    pub delivered: u64,
    /// Flits injected (header + payload).
    pub flits: u64,
    /// Total router-to-router hops traversed.
    pub hops: u64,
    /// Sum over delivered packets of (delivery − injection) cycles.
    pub total_latency_cycles: u64,
    /// Cycles any inter-router link was busy (summed over links).
    pub link_busy_cycles: u64,
    /// Cycles elapsed.
    pub elapsed_cycles: u64,
    /// Flit corruptions the packet CRC caught (each triggers a
    /// retransmission or, past the retry bound, a delivery failure).
    pub crc_detected: u64,
    /// Flits dropped on a link (recovered by the same retransmission
    /// protocol, detected by timeout instead of CRC).
    pub dropped: u64,
    /// Retransmissions performed (total across all packets).
    pub retries: u64,
    /// Packets abandoned after exhausting their retransmission budget.
    /// Surfaced to the system as a typed delivery-failure error.
    pub delivery_failures: u64,
}

impl NocStats {
    /// Mean packet latency in cycles.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.delivered as f64
        }
    }

    /// Mean hops per delivered packet.
    #[must_use]
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops as f64 / self.delivered as f64
        }
    }

    /// Mean link utilization across `links` directed links.
    #[must_use]
    pub fn link_utilization(&self, links: u64) -> f64 {
        if self.elapsed_cycles == 0 || links == 0 {
            0.0
        } else {
            self.link_busy_cycles as f64 / (self.elapsed_cycles * links) as f64
        }
    }
}

// `packets` doubles as the uid allocator for in-flight packets (the
// fault-injection coordinate), so restoring these counters exactly is
// part of the determinism contract, not just bookkeeping.
snapshot_struct!(NocStats {
    packets,
    delivered,
    flits,
    hops,
    total_latency_cycles,
    link_busy_cycles,
    elapsed_cycles,
    crc_detected,
    dropped,
    retries,
    delivery_failures
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = NocStats {
            packets: 4,
            delivered: 4,
            hops: 12,
            total_latency_cycles: 40,
            link_busy_cycles: 100,
            elapsed_cycles: 50,
            ..NocStats::default()
        };
        assert!((s.mean_latency() - 10.0).abs() < 1e-12);
        assert!((s.mean_hops() - 3.0).abs() < 1e-12);
        assert!((s.link_utilization(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        let s = NocStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.mean_hops(), 0.0);
        assert_eq!(s.link_utilization(128), 0.0);
    }
}
