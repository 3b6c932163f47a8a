//! Memory-system statistics (bandwidth, row-buffer behaviour, latency).

use vip_snap::snapshot_struct;

/// Counters accumulated by a vault controller (and aggregated across the
/// stack by [`Hmc::stats`](crate::Hmc::stats)). Figure 5's achieved-
/// bandwidth axis comes straight from these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Completed read transactions.
    pub reads: u64,
    /// Completed write transactions.
    pub writes: u64,
    /// Bytes delivered to requesters.
    pub bytes_read: u64,
    /// Bytes accepted from requesters.
    pub bytes_written: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// ACTIVATE commands issued to an idle (precharged) bank.
    pub row_misses: u64,
    /// PRECHARGE commands issued to close a conflicting open row.
    pub row_conflicts: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Sum over completed transactions of (completion - enqueue) cycles.
    pub total_latency_cycles: u64,
    /// Cycles any transaction was outstanding in this vault (utilization
    /// proxy).
    pub busy_cycles: u64,
    /// Cycles elapsed (set by the owner on snapshot).
    pub elapsed_cycles: u64,
    /// Retention faults the injector landed on this vault's read path
    /// (each event is one corrupted word, single- or double-bit).
    pub retention_faults: u64,
    /// Single-bit errors SECDED corrected (and scrubbed) on reads.
    pub ecc_corrected: u64,
    /// Double-bit errors SECDED detected but could not correct; the
    /// matching responses went out poisoned.
    pub ecc_uncorrectable: u64,
}

impl MemStats {
    /// Completed transactions of either kind.
    #[must_use]
    pub fn transactions(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total data moved in bytes.
    #[must_use]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Mean transaction latency in cycles (0 if nothing completed).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.transactions() == 0 {
            0.0
        } else {
            self.total_latency_cycles as f64 / self.transactions() as f64
        }
    }

    /// Row-buffer hit rate over column accesses (0 if none).
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let accesses = self.row_hits + self.row_misses + self.row_conflicts;
        if accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / accesses as f64
        }
    }

    /// Achieved bandwidth in GB/s given the 0.8 ns cycle.
    #[must_use]
    pub fn bandwidth_gbs(&self) -> f64 {
        if self.elapsed_cycles == 0 {
            0.0
        } else {
            self.bytes_total() as f64 / (self.elapsed_cycles as f64 * 0.8e-9) / 1e9
        }
    }

    /// Accumulates another counter set (for stack-wide aggregation;
    /// `elapsed_cycles` takes the maximum, counters add).
    pub fn merge(&mut self, other: &MemStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.refreshes += other.refreshes;
        self.total_latency_cycles += other.total_latency_cycles;
        self.busy_cycles += other.busy_cycles;
        self.elapsed_cycles = self.elapsed_cycles.max(other.elapsed_cycles);
        self.retention_faults += other.retention_faults;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
    }
}

snapshot_struct!(MemStats {
    reads,
    writes,
    bytes_read,
    bytes_written,
    row_hits,
    row_misses,
    row_conflicts,
    refreshes,
    total_latency_cycles,
    busy_cycles,
    elapsed_cycles,
    retention_faults,
    ecc_corrected,
    ecc_uncorrectable
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = MemStats {
            reads: 3,
            writes: 1,
            bytes_read: 96,
            bytes_written: 32,
            row_hits: 3,
            row_misses: 1,
            total_latency_cycles: 400,
            elapsed_cycles: 1000,
            ..MemStats::default()
        };
        assert_eq!(s.transactions(), 4);
        assert_eq!(s.bytes_total(), 128);
        assert!((s.mean_latency() - 100.0).abs() < 1e-12);
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-12);
        // 128 bytes over 800 ns = 0.16 GB/s.
        assert!((s.bandwidth_gbs() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters_and_maxes_time() {
        let mut a = MemStats {
            reads: 1,
            elapsed_cycles: 10,
            ..MemStats::default()
        };
        let b = MemStats {
            reads: 2,
            elapsed_cycles: 5,
            ..MemStats::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 3);
        assert_eq!(a.elapsed_cycles, 10);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = MemStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.bandwidth_gbs(), 0.0);
    }
}
