//! The stepping-engine selector: one name for "which of the three
//! engines", shared by the serving fleet, the bench harness and the
//! differential conformance tests.

use std::fmt;

use crate::{Cycle, RunOutcome, SimError, System};

/// Which stepping engine drives a [`System`]. All three run in the
/// same loop, with one meaning of a pause, a limit and quiescence, and
/// end in the same architectural state; pausing is behaviour-preserving
/// on each, which is what makes preempt-via-snapshot bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Event-driven: steps only the PEs that are due and skips cycles in
    /// which nothing can happen ([`System::run`]) — exact cycles, the
    /// default everywhere.
    Fast,
    /// Cycle-by-cycle reference: steps every PE every cycle — exact
    /// cycles, slow; the conformance baseline.
    Naive,
    /// Two-tier functional: block-cached functional stretches with
    /// sampled cycle-accurate timing windows — bit-identical
    /// architectural results, estimated cycles and approximate per-cycle
    /// occupancy. It pauses at a machine-idle boundary, so a slice may
    /// overrun its pause bound by up to a timing window and a drain
    /// (never reaching the limit). Programs that trap or deadlock, and runs with live fault
    /// injection, go on on the event engine, keeping its exact errors.
    Functional,
}

impl Engine {
    /// Every engine, the reference (naive) engine first.
    pub const ALL: [Engine; 3] = [Engine::Naive, Engine::Fast, Engine::Functional];

    /// Report / CLI label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::Naive => "naive",
            Engine::Functional => "functional",
        }
    }

    /// Parses a CLI label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.label() == s)
    }

    /// Runs `sys` to quiescence within `limit` cycles and returns the
    /// quiesce cycle (an estimate on the functional engine).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Hang`] with a structured
    /// [`HangReport`](crate::HangReport) if the clock reaches `limit`
    /// first, or the typed [`SimError`] a step raises.
    pub fn run(self, sys: &mut System, limit: Cycle) -> Result<Cycle, SimError> {
        // With the pause bound at the limit the loop hangs, never pauses.
        let (RunOutcome::Quiesced(at) | RunOutcome::Paused(at)) =
            sys.advance(self, limit, limit)?;
        Ok(at)
    }

    /// Advances `sys` until it quiesces or its clock reaches
    /// `pause_at`, whichever comes first. `limit` is the job's absolute
    /// cycle budget: a clock that reaches it first is a hang, and a run
    /// re-entered quiesced returns `Quiesced(now)` without stepping.
    /// `Paused(c)` has `pause_at <= c < limit`, with `c == pause_at` on
    /// the exact engines when entered before `pause_at`. A paused run
    /// continued — directly or via a snapshot restored onto a fresh
    /// system — finishes bit-identically (on the exact engines, to one
    /// that never paused).
    ///
    /// # Errors
    ///
    /// As for [`run`](Engine::run).
    pub fn advance(
        self,
        sys: &mut System,
        pause_at: Cycle,
        limit: Cycle,
    ) -> Result<RunOutcome, SimError> {
        sys.advance(self, pause_at, limit)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use vip_isa::{assemble, Reg};

    const LIMIT: Cycle = 100_000;

    /// PE 0 stores and reloads a counter until it reaches 400.
    fn staged() -> System {
        let program = assemble(
            "loop: addi r1, r1, 1
             st.reg r1, r2
             ld.reg r3, r2
             blt r3, r4, loop
             memfence
             halt",
        )
        .unwrap();
        let mut sys = System::new(SystemConfig::small_test());
        sys.load_program(0, &program);
        sys.set_reg(0, Reg::new(2), 0x100);
        sys.set_reg(0, Reg::new(4), 400);
        sys
    }

    /// PE 0 parked on a full-empty word nothing ever fills.
    fn parked() -> System {
        let program = assemble(
            "ld.reg.fe r1, r2
             add r3, r1, r4
             st.reg r3, r5
             memfence
             halt",
        )
        .unwrap();
        let mut sys = System::new(SystemConfig::small_test());
        sys.load_program(0, &program);
        sys.set_reg(0, Reg::new(2), 0x100);
        sys.set_reg(0, Reg::new(5), 0x200);
        sys
    }

    fn hang_limit(result: Result<RunOutcome, SimError>) -> Option<Cycle> {
        match result {
            Err(SimError::Hang(report)) => Some(report.limit),
            _ => None,
        }
    }

    #[test]
    fn every_engine_keeps_the_run_loop_contract() {
        for engine in Engine::ALL {
            let exact = engine != Engine::Functional;

            // Slices pause in [pause_at, limit), on the bound itself on
            // the exact engines, and end where the one-shot run does.
            let mut whole = staged();
            let cycles = engine.run(&mut whole, LIMIT).unwrap();
            assert_eq!(whole.hmc().host_read_u64(0x100), 400, "{engine}");
            let mut sliced = staged();
            let end = loop {
                let pause_at = sliced.now() + 500;
                match engine.advance(&mut sliced, pause_at, LIMIT).unwrap() {
                    RunOutcome::Paused(c) => {
                        assert!(pause_at <= c && c < LIMIT, "{engine}: {c} for {pause_at}");
                        assert!(!exact || c == pause_at, "{engine}: {c} for {pause_at}");
                    }
                    RunOutcome::Quiesced(c) => break c,
                }
            };
            assert_eq!(sliced.hmc().host_read_u64(0x100), 400, "{engine}");
            if exact {
                assert_eq!((end, sliced.stats()), (cycles, whole.stats()), "{engine}");
            }

            // Re-entered quiesced: the same cycle, and nothing stepped.
            let stats = whole.stats();
            assert_eq!(engine.run(&mut whole, LIMIT), Ok(cycles), "{engine}");
            let again = engine.advance(&mut whole, cycles + 10, LIMIT);
            assert_eq!(again, Ok(RunOutcome::Quiesced(cycles)), "{engine}");
            assert_eq!(whole.stats(), stats, "{engine}");

            // A pause bound past the limit: the limit wins.
            let mut late = staged();
            let result = engine.advance(&mut late, 2 * LIMIT, 300);
            assert_eq!(hang_limit(result), Some(300), "{engine}");
            assert!(!exact || late.now() == 300, "{engine}: {}", late.now());

            // A pause the engine cannot take before the limit is a hang,
            // never a pause at or past the limit.
            for pause_at in [1, 500, 2_000, 9_999] {
                let mut sys = parked();
                let result = engine.advance(&mut sys, pause_at, 10_000);
                if exact {
                    assert_eq!(result, Ok(RunOutcome::Paused(pause_at)), "{engine}");
                } else {
                    assert_eq!(hang_limit(result), Some(10_000), "{engine} at {pause_at}");
                }
            }

            // Sliced, a hang is reported at the limit, never past it (the
            // functional engine's drains stop there too), with every PE
            // able to issue again: filled, the word lets PE 0 finish.
            let mut sys = parked();
            let result = loop {
                let pause_at = sys.now() + 500;
                match engine.advance(&mut sys, pause_at, 10_000) {
                    Ok(RunOutcome::Paused(_)) => {}
                    other => break other,
                }
            };
            assert_eq!(hang_limit(result), Some(10_000), "{engine}");
            assert!(sys.now() <= 10_000, "{engine}: hung at {}", sys.now());
            sys.hmc_mut().host_set_full(0x100, true);
            assert!(engine.run(&mut sys, LIMIT).is_ok(), "{engine}: still stuck");
            assert!(sys.pe(0).is_halted(), "{engine}");

            assert_eq!(Engine::parse(engine.label()), Some(engine));
            assert_eq!(engine.to_string(), engine.label());
        }
        assert_eq!(Engine::parse("warp"), None);
    }
}
