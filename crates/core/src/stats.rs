//! Simulation statistics and roofline accounting.

use vip_mem::{MemStats, MemWork};
use vip_noc::{NocStats, NocWork};
use vip_snap::snapshot_struct;

use crate::pe::StallReason;
use crate::Cycle;

/// Per-PE execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeStats {
    /// Cycles before the PE halted.
    pub active_cycles: Cycle,
    /// Instructions issued, total.
    pub instructions: u64,
    /// Vector-group instructions issued.
    pub vector_instructions: u64,
    /// Scalar-group instructions issued.
    pub scalar_instructions: u64,
    /// Load-store-group instructions issued.
    pub ldst_instructions: u64,
    /// Vector-lane ALU operations performed (vertical + horizontal),
    /// the paper's performance metric (§VI-A).
    pub lane_ops: u64,
    /// The subset of [`lane_ops`](Self::lane_ops) that used the
    /// multiplier array (drives the CNN-vs-BP power difference, §VII).
    pub lane_mul_ops: u64,
    /// 64-bit scratchpad beats moved by the vector pipes (2R+1W per
    /// streamed beat) — an input to the energy model.
    pub sp_beats: u64,
    /// Issue-stall cycles by cause.
    pub stalls: [u64; StallReason::COUNT],
    /// Scalar-writeback bits flipped by the fault injector (zero unless
    /// injection is enabled; the register file has no ECC).
    pub writeback_flips: u64,
    /// Abstract work units retired — a lower bound on the cycles this
    /// PE's instruction stream must occupy (vector ops cost their beat
    /// count, taken branches their bubble, everything else one unit).
    /// The functional tier's timing extrapolation is calibrated in
    /// cycles per work unit.
    pub work_units: u64,
}

impl PeStats {
    /// Total issue-stall cycles.
    #[must_use]
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Stall cycles attributed to `reason`.
    #[must_use]
    pub fn stalls_for(&self, reason: StallReason) -> u64 {
        self.stalls[reason as usize]
    }

    /// Retires `nop`, `memfence`, `v.drain` or `halt`: one front-end
    /// slot, no group counter.
    pub(crate) fn retire_front_end(&mut self) {
        self.instructions += 1;
        self.work_units += 1;
    }

    /// Retires a scalar-group instruction that holds the front end for
    /// `work` cycles: one, plus the bubble for a taken branch.
    pub(crate) fn retire_scalar(&mut self, work: u64) {
        self.instructions += 1;
        self.scalar_instructions += 1;
        self.work_units += work;
    }

    /// Retires a load-store-group instruction.
    pub(crate) fn retire_ldst(&mut self) {
        self.instructions += 1;
        self.ldst_instructions += 1;
        self.work_units += 1;
    }

    /// Retires a vector-group instruction worth `work` units: one for
    /// `set.vl` / `set.mr`, its beat count for a vector operation.
    pub(crate) fn retire_vector(&mut self, work: u64) {
        self.instructions += 1;
        self.vector_instructions += 1;
        self.work_units += work;
    }

    /// Charges a vector operation's lane work — `lane_ops` ALU
    /// operations, `mul_ops` of them on the multiplier array, `beats`
    /// datapath beats through each of `ports` scratchpad ports — and
    /// retires it.
    pub(crate) fn retire_vector_op(&mut self, lane_ops: u64, mul_ops: u64, ports: u64, beats: u64) {
        self.lane_ops += lane_ops;
        self.lane_mul_ops += mul_ops;
        self.sp_beats += ports * beats;
        self.retire_vector(beats);
    }

    /// Accumulates another PE's counters.
    pub fn merge(&mut self, other: &PeStats) {
        self.active_cycles = self.active_cycles.max(other.active_cycles);
        self.instructions += other.instructions;
        self.vector_instructions += other.vector_instructions;
        self.scalar_instructions += other.scalar_instructions;
        self.ldst_instructions += other.ldst_instructions;
        self.lane_ops += other.lane_ops;
        self.lane_mul_ops += other.lane_mul_ops;
        self.sp_beats += other.sp_beats;
        for (a, b) in self.stalls.iter_mut().zip(other.stalls.iter()) {
            *a += b;
        }
        self.writeback_flips += other.writeback_flips;
        self.work_units += other.work_units;
    }
}

// `instructions` doubles as the PE's fault-injection coordinate (the
// writeback roll is keyed on it), so exact restoration is part of the
// determinism contract.
snapshot_struct!(PeStats {
    active_cycles,
    instructions,
    vector_instructions,
    scalar_instructions,
    ldst_instructions,
    lane_ops,
    lane_mul_ops,
    sp_beats,
    stalls,
    writeback_flips,
    work_units
});

/// Functional-tier accounting: how much of the run executed as cached
/// straight-line blocks versus under the cycle-accurate model. All
/// counters stay zero for the naive and fast-forward engines, so
/// cross-engine stats-equality tests are unaffected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Straight-line blocks decoded into the block cache.
    pub blocks_decoded: u64,
    /// Block executions served from the cache.
    pub block_cache_hits: u64,
    /// Block executions that had to decode first.
    pub block_cache_misses: u64,
    /// Instructions retired by the functional executor (the rest of
    /// `PeStats::instructions` retired under the cycle-accurate model).
    pub functional_instructions: u64,
    /// Cycles *estimated* for functional stretches (extrapolated from
    /// sampled cycle-accurate windows).
    pub functional_cycles: Cycle,
    /// Cycles actually simulated under the cycle-accurate model
    /// (timing windows plus drains).
    pub accurate_cycles: Cycle,
    /// Completed cycle-accurate sampling windows.
    pub windows: u64,
    /// Drains that hit their budget before the machine went idle and
    /// fell back to an extra accurate window.
    pub drain_retries: u64,
}

snapshot_struct!(FuncStats {
    blocks_decoded,
    block_cache_hits,
    block_cache_misses,
    functional_instructions,
    functional_cycles,
    accurate_cycles,
    windows,
    drain_retries
});

/// Host work a [`System`](crate::System) did: how many steps, skips and
/// visits its engines spent on a run, not what the modelled machine did.
/// Counted on the paths that do the work, never by a debug-build check,
/// so debug and release builds count the same; the counts repeat exactly
/// run to run. Not state: never serialized, outside every statistics
/// comparison between engines, and kept counting across a restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Cycles stepped, by any engine.
    pub steps: u64,
    /// Clock jumps of the wake-driven loops.
    pub skips: u64,
    /// Cycles those jumps crossed.
    pub skipped_cycles: Cycle,
    /// PE visits in the steps' PE phase.
    pub pe_visits: u64,
    /// Next-event bounds that read the vault controllers' wakes (those
    /// the torus's wake left past the next cycle).
    pub vault_bound_reads: u64,
    /// Next-event bounds that read the torus's wake (those whose PEs and
    /// link queues were all quiet past the next cycle).
    pub torus_bound_reads: u64,
    /// Functional stretches run.
    pub stretches: u64,
    /// Decoded blocks the functional tier executed.
    pub blocks: u64,
    /// Cycle-accurate windows the functional tier ran.
    pub windows: u64,
    /// The vault controllers', summed.
    pub mem: MemWork,
    /// The torus's.
    pub noc: NocWork,
}

impl WorkCounts {
    /// Every counter by name (`mem.` and `noc.` prefixed), in
    /// declaration order.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, u64)> {
        let own = [
            ("steps", self.steps),
            ("skips", self.skips),
            ("skipped_cycles", self.skipped_cycles),
            ("pe_visits", self.pe_visits),
            ("vault_bound_reads", self.vault_bound_reads),
            ("torus_bound_reads", self.torus_bound_reads),
            ("stretches", self.stretches),
            ("blocks", self.blocks),
            ("windows", self.windows),
        ];
        let mem = self.mem.rows().map(|(k, n)| (format!("mem.{k}"), n));
        let noc = self.noc.rows().map(|(k, n)| (format!("noc.{k}"), n));
        let own = own.into_iter().map(|(k, n)| (k.to_owned(), n));
        own.chain(mem).chain(noc).collect()
    }
}

/// A point under the performance roofline (Figure 3): work done, bytes
/// moved, time taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// 16-bit vector ALU operations performed.
    pub ops: u64,
    /// DRAM bytes moved (reads + writes, including scalar accesses).
    pub dram_bytes: u64,
    /// Elapsed cycles.
    pub cycles: Cycle,
}

impl RooflinePoint {
    /// Achieved performance in GOp/s.
    #[must_use]
    pub fn gops(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / (self.cycles as f64 / crate::CLOCK_HZ) / 1e9
        }
    }

    /// Arithmetic intensity in operations per byte.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.dram_bytes == 0 {
            f64::INFINITY
        } else {
            self.ops as f64 / self.dram_bytes as f64
        }
    }

    /// The roofline bound for this point's intensity given peak compute
    /// (GOp/s) and bandwidth (GB/s): `min(peak, ai × bw)`.
    #[must_use]
    pub fn roofline_bound(&self, peak_gops: f64, peak_gbs: f64) -> f64 {
        peak_gops.min(self.arithmetic_intensity() * peak_gbs)
    }
}

/// Whole-system statistics snapshot.
///
/// `PartialEq` so determinism tests can assert that two runs (e.g.
/// naive vs. fast-forward stepping) produced bit-identical counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemStats {
    /// Elapsed cycles.
    pub cycles: Cycle,
    /// Aggregated PE counters.
    pub pe: PeStats,
    /// Aggregated memory counters.
    pub mem: MemStats,
    /// Network counters.
    pub noc: NocStats,
    /// Functional-tier counters (all zero under the cycle-accurate
    /// engines).
    pub func: FuncStats,
}

// Serialized for the bench harness's completed-point records, so a
// resumed sweep can reproduce finished rows without re-simulating.
snapshot_struct!(SystemStats {
    cycles,
    pe,
    mem,
    noc,
    func
});

impl SystemStats {
    /// The roofline point this run produced.
    #[must_use]
    pub fn roofline(&self) -> RooflinePoint {
        RooflinePoint {
            ops: self.pe.lane_ops,
            dram_bytes: self.mem.bytes_total(),
            cycles: self.cycles,
        }
    }

    /// Simulated wall-clock milliseconds.
    #[must_use]
    pub fn time_ms(&self) -> f64 {
        crate::cycles_to_ms(self.cycles)
    }

    /// Achieved DRAM bandwidth in GB/s.
    #[must_use]
    pub fn bandwidth_gbs(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mem.bytes_total() as f64 / (self.cycles as f64 / crate::CLOCK_HZ) / 1e9
        }
    }

    /// A human-readable multi-line summary (cycles, time, issue mix,
    /// roofline point, memory and network behaviour) for examples and
    /// debugging sessions.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let p = self.roofline();
        let _ = writeln!(
            s,
            "cycles:        {} ({:.3} ms at 1.25 GHz)",
            self.cycles,
            self.time_ms()
        );
        let _ = writeln!(
            s,
            "instructions:  {} ({} vector, {} scalar, {} load-store)",
            self.pe.instructions,
            self.pe.vector_instructions,
            self.pe.scalar_instructions,
            self.pe.ldst_instructions
        );
        let _ = writeln!(
            s,
            "vector ops:    {} ({} on the multiplier array)",
            self.pe.lane_ops, self.pe.lane_mul_ops
        );
        let _ = writeln!(
            s,
            "roofline:      {:.2} Op/B at {:.1} GOp/s",
            p.arithmetic_intensity(),
            p.gops()
        );
        let _ = writeln!(
            s,
            "DRAM:          {:.2} MB moved, {:.1} GB/s, {:.0}% row hits, {} refreshes",
            self.mem.bytes_total() as f64 / 1e6,
            self.bandwidth_gbs(),
            self.mem.row_hit_rate() * 100.0,
            self.mem.refreshes
        );
        let _ = writeln!(
            s,
            "network:       {} packets, mean {:.1} hops, mean latency {:.1} cycles",
            self.noc.packets,
            self.noc.mean_hops(),
            self.noc.mean_latency()
        );
        let _ = writeln!(s, "issue stalls:  {} cycles total", self.pe.stall_cycles());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roofline_math() {
        let p = RooflinePoint {
            ops: 1_250_000,
            dram_bytes: 125_000,
            cycles: 1_250_000,
        };
        // 1.25M ops in 1ms = 1.25 GOp/ms? No: 1.25e6 ops / (1e-3 s) = 1.25e9 op/s.
        assert!((p.gops() - 1.25).abs() < 1e-9);
        assert!((p.arithmetic_intensity() - 10.0).abs() < 1e-12);
        // Compute-bound at AI 10 with knee at 4.
        assert!((p.roofline_bound(1280.0, 320.0) - 1280.0).abs() < 1e-9);
        let memory_bound = RooflinePoint {
            ops: 100,
            dram_bytes: 1000,
            cycles: 1,
        };
        assert!((memory_bound.roofline_bound(1280.0, 320.0) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PeStats {
            instructions: 5,
            lane_ops: 10,
            active_cycles: 100,
            ..PeStats::default()
        };
        let b = PeStats {
            instructions: 3,
            lane_ops: 20,
            active_cycles: 50,
            ..PeStats::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 8);
        assert_eq!(a.lane_ops, 30);
        assert_eq!(a.active_cycles, 100, "active time is the max, not the sum");
    }

    #[test]
    fn summary_mentions_key_counters() {
        let stats = SystemStats {
            cycles: 1250,
            pe: PeStats {
                instructions: 10,
                lane_ops: 64,
                ..PeStats::default()
            },
            mem: vip_mem::MemStats::default(),
            noc: vip_noc::NocStats::default(),
            func: FuncStats::default(),
        };
        let s = stats.summary();
        assert!(s.contains("cycles:        1250"));
        assert!(s.contains("vector ops:    64"));
        assert!(s.contains("roofline:"));
    }

    #[test]
    fn infinite_intensity_without_traffic() {
        let p = RooflinePoint {
            ops: 10,
            dram_bytes: 0,
            cycles: 10,
        };
        assert!(p.arithmetic_intensity().is_infinite());
    }
}
