//! The differential conformance harness.
//!
//! For one seed: generate a [`TestCase`], run it on the architectural
//! interpreter AND on every cycle-level stepping engine, and compare
//! the complete final architectural state — all 64 scalar registers and
//! the full scratchpad of every PE, plus the bytes *and* full-empty
//! bits of every DRAM window the generator declared architectural —
//! and then, engine against engine, every PE's retirement counters
//! (the reference keeps none, and they feed the power model). A case
//! the reference traps on must end in the identical typed trap on
//! every engine. Any
//! mismatch is a conformance bug in one of the models; the harness
//! greedily minimizes the program (segments are the removal unit; ring
//! rounds drop on every PE at once) and reports the seed plus the
//! minimized, disassembled programs so the failure is reproducible and
//! readable without re-running the fuzzer.

use std::fmt;

pub use vip_core::Engine;
use vip_core::{PeArchState, PeStats, SimError, System, SystemConfig};
use vip_isa::Reg;

use crate::gen::{dram_bytes, generate, GenConfig, Materialized, SegmentSpec, TestCase};
use crate::interp::{RefRunError, RefSystem};

/// Cycle budget for one cycle-level run; generated cases finish in a
/// few thousand cycles, so hitting this means a hang (itself a bug).
pub const MAX_CYCLES: u64 = 4_000_000;

/// Step budget for one reference run.
pub const MAX_REF_STEPS: u64 = 1_000_000;

/// Final architectural state of a run, in directly comparable form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Per-PE registers and scratchpad (PEs that ran a program).
    pub pes: Vec<PeArchState>,
    /// Bytes of each declared DRAM check window.
    pub dram: Vec<(u64, Vec<u8>)>,
    /// Full-empty bit of each 8-byte word of each check window.
    pub full: Vec<(u64, Vec<bool>)>,
}

/// A confirmed reference-vs-engine divergence, fully described.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The generator seed.
    pub seed: u64,
    /// The engine that disagreed with the reference.
    pub engine: Engine,
    /// What differed (first few mismatching locations).
    pub detail: String,
    /// Minimized, disassembled per-PE programs.
    pub listings: Vec<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance divergence: reference vs {} engine, seed {:#x}",
            self.engine, self.seed
        )?;
        writeln!(
            f,
            "repro: VIP_TEST_SEED={:#x} cargo test -p vip-ref",
            self.seed
        )?;
        writeln!(f, "{}", self.detail)?;
        for (pe, listing) in self.listings.iter().enumerate() {
            writeln!(f, "--- minimized pe{pe} program ---")?;
            writeln!(f, "{listing}")?;
        }
        Ok(())
    }
}

/// Runs `m` on the architectural interpreter.
///
/// # Errors
///
/// Propagates the interpreter's trap/deadlock/step-limit errors.
pub fn run_ref(m: &Materialized) -> Result<ArchSnapshot, RefRunError> {
    let sp_bytes = m.sp_init.first().map_or(4096, Vec::len);
    let mut sys = RefSystem::new(m.programs.len(), sp_bytes, dram_bytes());
    for (addr, bytes) in &m.mem_init {
        sys.mem_mut().write(*addr, bytes);
    }
    for addr in &m.full_init {
        sys.mem_mut().set_full(*addr, true);
    }
    for (pe, sp) in m.sp_init.iter().enumerate() {
        sys.pe_mut(pe).write_scratchpad(0, sp);
    }
    for (pe, p) in m.programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    sys.run(MAX_REF_STEPS)?;
    Ok(ArchSnapshot {
        pes: (0..m.programs.len())
            .map(|i| sys.pes()[i].arch_state())
            .collect(),
        dram: m
            .check_ranges
            .iter()
            .map(|&(addr, len)| (addr, sys.mem().read_vec(addr, len)))
            .collect(),
        full: m
            .check_ranges
            .iter()
            .map(|&(addr, len)| {
                (
                    addr,
                    (0..len / 8)
                        .map(|w| sys.mem().is_full(addr + w as u64 * 8))
                        .collect(),
                )
            })
            .collect(),
    })
}

/// One PE's retirement counters — `instructions`, the group counts,
/// `lane_ops`, `lane_mul_ops`, `sp_beats`, `work_units`,
/// `writeback_flips`: its statistics with the timing-dependent fields
/// (active cycles, the stall breakdown), which the functional engine
/// does not maintain, zeroed.
fn retired(stats: &PeStats) -> PeStats {
    PeStats {
        active_cycles: 0,
        stalls: Default::default(),
        ..*stats
    }
}

/// Runs `m` on one cycle-level stepping engine: how the run ended —
/// the final architectural state, or the typed error it stopped on
/// (failing to quiesce in [`MAX_CYCLES`] is one) — and each PE's
/// retirement counters at that point.
///
/// # Panics
///
/// Panics if `m` targets more PEs than [`SystemConfig::small_test`]
/// provides.
pub fn run_engine(
    m: &Materialized,
    engine: Engine,
) -> (Result<ArchSnapshot, SimError>, Vec<PeStats>) {
    let mut sys = System::new(SystemConfig::small_test());
    assert!(
        m.programs.len() <= sys.total_pes(),
        "case targets more PEs than small_test provides"
    );
    for (addr, bytes) in &m.mem_init {
        sys.hmc_mut().host_write(*addr, bytes);
    }
    for addr in &m.full_init {
        sys.hmc_mut().host_set_full(*addr, true);
    }
    for (pe, sp) in m.sp_init.iter().enumerate() {
        sys.pe_mut(pe)
            .scratchpad_mut()
            .write(0, sp)
            .expect("generated scratchpad image fits");
    }
    for (pe, p) in m.programs.iter().enumerate() {
        sys.load_program(pe, p);
    }
    // Generated cases are small; shrink the functional tier's
    // duty-cycle windows so they actually cross the functional/accurate
    // boundary (stretches, drains, re-calibration) instead of finishing
    // inside the first calibration window. The exact engines ignore it.
    sys.set_func_config(vip_core::FuncConfig {
        warmup_cycles: 64,
        sample_cycles: 256,
        stretch_work: 2_000,
        quantum: 64,
        drain_cycles: 5_000,
    });
    let res = engine.run(&mut sys, MAX_CYCLES);
    let counters = (0..m.programs.len())
        .map(|i| retired(sys.pe(i).stats()))
        .collect();
    // After an error fills may still be in flight: there is no settled
    // architectural state to read.
    let end = res.map(|_| ArchSnapshot {
        pes: (0..m.programs.len())
            .map(|i| sys.pe(i).arch_state())
            .collect(),
        dram: m
            .check_ranges
            .iter()
            .map(|&(addr, len)| (addr, sys.hmc().host_read(addr, len)))
            .collect(),
        full: m
            .check_ranges
            .iter()
            .map(|&(addr, len)| {
                (
                    addr,
                    (0..len / 8)
                        .map(|w| sys.hmc().host_is_full(addr + w as u64 * 8))
                        .collect(),
                )
            })
            .collect(),
    });
    (end, counters)
}

/// Describes the first few differences between two snapshots, or `None`
/// if they agree everywhere.
#[must_use]
pub fn diff_snapshots(reference: &ArchSnapshot, observed: &ArchSnapshot) -> Option<String> {
    let mut lines = Vec::new();
    const LIMIT: usize = 8;
    for (pe, (r, o)) in reference.pes.iter().zip(&observed.pes).enumerate() {
        for i in 0..r.regs.len() {
            if r.regs[i] != o.regs[i] && lines.len() < LIMIT {
                lines.push(format!(
                    "pe{pe} {}: ref {:#x} vs engine {:#x}",
                    Reg::new(i as u8),
                    r.regs[i],
                    o.regs[i]
                ));
            }
        }
        for (i, (a, b)) in r.scratchpad.iter().zip(&o.scratchpad).enumerate() {
            if a != b && lines.len() < LIMIT {
                lines.push(format!(
                    "pe{pe} scratchpad[{i:#x}]: ref {a:#04x} vs engine {b:#04x}"
                ));
            }
        }
        if r.scratchpad != o.scratchpad && lines.len() >= LIMIT {
            break;
        }
    }
    for ((base, r), (_, o)) in reference.dram.iter().zip(&observed.dram) {
        for (i, (a, b)) in r.iter().zip(o).enumerate() {
            if a != b && lines.len() < LIMIT {
                lines.push(format!(
                    "dram[{:#x}]: ref {a:#04x} vs engine {b:#04x}",
                    base + i as u64
                ));
            }
        }
    }
    for ((base, r), (_, o)) in reference.full.iter().zip(&observed.full) {
        for (w, (a, b)) in r.iter().zip(o).enumerate() {
            if a != b && lines.len() < LIMIT {
                lines.push(format!(
                    "full[{:#x}]: ref {a} vs engine {b}",
                    base + w as u64 * 8
                ));
            }
        }
    }
    if lines.is_empty() && reference == observed {
        None
    } else if lines.is_empty() {
        Some("snapshots differ in shape".to_owned())
    } else {
        Some(lines.join("\n"))
    }
}

/// Describes the first PE in `pes` whose retirement counters differ
/// between two engines.
fn diff_retired(
    mut pes: std::ops::Range<usize>,
    base: &[PeStats],
    observed: &[PeStats],
) -> Option<String> {
    pes.find(|&pe| base[pe] != observed[pe]).map(|pe| {
        format!(
            "pe{pe} retirement counters: {} engine {:?} vs this engine {:?}",
            Engine::ALL[0],
            base[pe],
            observed[pe]
        )
    })
}

/// Runs `m` on the reference and on every engine and describes the
/// first disagreement. If the reference completes, every engine must
/// complete in the same architectural state; if it traps, every engine
/// must stop on the identical typed trap. Either way the engines'
/// retirement counters must agree with each other — for every PE of a
/// completed run, for the trapping PE otherwise (the others stop
/// wherever the trap's timing caught them).
///
/// # Errors
///
/// The reference's deadlock or step-limit error: such a case has no
/// outcome to compare.
fn divergence(m: &Materialized) -> Result<Option<(Engine, String)>, RefRunError> {
    let (reference, counted) = match run_ref(m) {
        Ok(s) => (Ok(s), 0..m.programs.len()),
        Err(RefRunError::Trap { pe, pc, trap, .. }) => {
            (Err(SimError::Trap { pe, pc, trap }), pe..pe + 1)
        }
        Err(e) => return Err(e),
    };
    let mut base: Option<Vec<PeStats>> = None;
    for engine in Engine::ALL {
        let (observed, counters) = run_engine(m, engine);
        let detail = match (&reference, &observed) {
            (Ok(want), Ok(got)) => diff_snapshots(want, got),
            (Err(want), Err(got)) if want == got => None,
            (Ok(_), Err(got)) => Some(format!("{engine} engine: {got}")),
            (Err(want), Ok(_)) => Some(format!("reference: {want}; the engine completed")),
            (Err(want), Err(got)) => Some(format!("reference: {want}; engine: {got}")),
        }
        .or_else(|| diff_retired(counted.clone(), base.as_ref()?, &counters));
        if let Some(detail) = detail {
            return Ok(Some((engine, detail)));
        }
        base.get_or_insert(counters);
    }
    Ok(None)
}

/// [`divergence`] of a case that must finish, cleanly or in a trap.
///
/// # Panics
///
/// Panics if the reference deadlocks or runs away: a generator (or
/// corpus) bug.
fn first_divergence(m: &Materialized) -> Option<(Engine, String)> {
    divergence(m).unwrap_or_else(|e| panic!("reference cannot finish the program: {e}"))
}

/// Checks one materialized case against every engine (used by corpus
/// regression tests, where there is no seed to minimize from).
///
/// # Errors
///
/// The engine and difference description on any divergence.
///
/// # Panics
///
/// Panics if the reference deadlocks or runs away — corpus programs
/// are expected to finish, cleanly or in a trap.
pub fn check_materialized(m: &Materialized) -> Result<(), (Engine, String)> {
    first_divergence(m).map_or(Ok(()), Err)
}

/// Re-checks a masked case (minimization): whether it still diverges
/// on `engine`. A subset the reference cannot finish has lost the
/// property; keep looking.
fn still_diverges(case: &TestCase, mask: &[Vec<bool>], engine: Engine) -> bool {
    matches!(divergence(&case.materialize(mask)), Ok(Some((e, _))) if e == engine)
}

/// Greedily minimizes a diverging case: tries removing each segment
/// (ring rounds across all PEs at once) and keeps removals that
/// preserve the divergence, looping until a fixpoint.
fn minimize(case: &TestCase, engine: Engine) -> Vec<Vec<bool>> {
    let mut mask = case.full_mask();
    loop {
        let mut shrunk = false;
        // Ring rounds first: they are the coarsest units.
        for round in 0..case.ring_rounds {
            let mut candidate = mask.clone();
            let mut present = false;
            for (pe, pe_specs) in case.specs.iter().enumerate() {
                for (i, seg) in pe_specs.iter().enumerate() {
                    if seg.is_ring_round(round) && candidate[pe][i] {
                        candidate[pe][i] = false;
                        present = true;
                    }
                }
            }
            if present && still_diverges(case, &candidate, engine) {
                mask = candidate;
                shrunk = true;
            }
        }
        for (pe, pe_specs) in case.specs.iter().enumerate() {
            for (i, seg) in pe_specs.iter().enumerate() {
                if !mask[pe][i] || matches!(seg, SegmentSpec::FeRing { .. }) {
                    continue;
                }
                let mut candidate = mask.clone();
                candidate[pe][i] = false;
                if still_diverges(case, &candidate, engine) {
                    mask = candidate;
                    shrunk = true;
                }
            }
        }
        if !shrunk {
            return mask;
        }
    }
}

/// Fuzzes one seed differentially across every engine.
///
/// # Errors
///
/// A minimized, disassembled [`Divergence`] if any engine disagrees
/// with the architectural reference.
pub fn fuzz_one(seed: u64, cfg: &GenConfig) -> Result<(), Box<Divergence>> {
    let case = generate(seed, cfg);
    let m = case.materialize_full();
    let Some((engine, _)) = first_divergence(&m) else {
        return Ok(());
    };
    let mask = minimize(&case, engine);
    let minimized = case.materialize(&mask);
    let detail = first_divergence(&minimized).map_or_else(
        || "divergence did not survive re-run".to_owned(),
        |(_, d)| d,
    );
    Err(Box::new(Divergence {
        seed,
        engine,
        detail,
        listings: minimized.programs.iter().map(|p| p.to_string()).collect(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_of_identical_runs_agree() {
        let cfg = GenConfig::default();
        let m = generate(3, &cfg).materialize_full();
        let a = run_ref(&m).unwrap();
        let b = run_ref(&m).unwrap();
        assert_eq!(diff_snapshots(&a, &b), None);
    }

    #[test]
    fn diff_reports_a_counter_mismatch() {
        let base = vec![PeStats::default(); 2];
        let mut other = base.clone();
        other[1].sp_beats = 3;
        assert_eq!(diff_retired(0..1, &base, &other), None);
        let detail = diff_retired(0..2, &base, &other).unwrap();
        assert!(detail.starts_with("pe1 retirement counters"), "{detail}");
    }

    #[test]
    fn diff_reports_a_register_mismatch() {
        let cfg = GenConfig::default();
        let m = generate(3, &cfg).materialize_full();
        let a = run_ref(&m).unwrap();
        let mut b = a.clone();
        b.pes[0].regs[17] ^= 1;
        let detail = diff_snapshots(&a, &b).unwrap();
        assert!(detail.contains("pe0 r17"), "{detail}");
    }
}
