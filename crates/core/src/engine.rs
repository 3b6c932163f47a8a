//! The stepping-engine selector: one name for "which of the three
//! engines", shared by the serving fleet, the bench harness and the
//! differential conformance tests.

use std::fmt;

use crate::{Cycle, RunOutcome, SimError, System};

/// Which stepping engine drives a [`System`]. All three end in the
/// same architectural state; pausing is behaviour-preserving on each,
/// which is what makes preempt-via-snapshot bit-exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Event-driven fast-forward ([`System::run`]) — exact cycles, the
    /// default everywhere.
    Fast,
    /// Cycle-by-cycle reference ([`System::run_naive`]) — exact cycles,
    /// slow; the conformance baseline.
    Naive,
    /// Two-tier functional ([`System::run_functional`]) —
    /// bit-identical architectural results, estimated cycles, pauses
    /// loosely (a slice may overrun its quantum by up to a drain).
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
    /// quiesce cycle.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`SimError`] (a hang at `limit`, or a
    /// typed trap).
    pub fn run(self, sys: &mut System, limit: Cycle) -> Result<Cycle, SimError> {
        match self {
            Engine::Fast => sys.run(limit),
            Engine::Naive => sys.run_naive(limit),
            Engine::Functional => sys.run_functional(limit),
        }
    }

    /// Advances `sys` until it quiesces or its clock reaches
    /// `pause_at`, whichever comes first, under this engine's pause
    /// contract. `limit` is the job's absolute cycle budget.
    ///
    /// # Errors
    ///
    /// Propagates the engine's [`SimError`] (a hang at `limit`, or a
    /// typed trap).
    pub fn advance(
        self,
        sys: &mut System,
        pause_at: Cycle,
        limit: Cycle,
    ) -> Result<RunOutcome, SimError> {
        match self {
            Engine::Fast => sys.run_until(pause_at, limit),
            Engine::Naive => sys.run_naive_until(pause_at, limit),
            Engine::Functional => sys.run_functional_until(pause_at, limit),
        }
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

    #[test]
    fn every_engine_dispatches_to_its_system_methods() {
        type Run = fn(&mut System, Cycle) -> Result<Cycle, SimError>;
        type Until = fn(&mut System, Cycle, Cycle) -> Result<RunOutcome, SimError>;
        for engine in Engine::ALL {
            let (run, until): (Run, Until) = match engine {
                Engine::Fast => (System::run, System::run_until),
                Engine::Naive => (System::run_naive, System::run_naive_until),
                Engine::Functional => (System::run_functional, System::run_functional_until),
            };
            let (mut direct, mut via) = (staged(), staged());
            assert_eq!(
                run(&mut direct, LIMIT),
                engine.run(&mut via, LIMIT),
                "{engine}"
            );
            assert_eq!(direct.stats(), via.stats(), "{engine}");
            assert_eq!(via.hmc().host_read_u64(0x100), 400, "{engine}");

            // One mid-run pause, then on to quiescence.
            let (mut direct, mut via) = (staged(), staged());
            for (pause_at, paused) in [(500, true), (LIMIT, false)] {
                let outcome = engine.advance(&mut via, pause_at, LIMIT);
                assert_eq!(until(&mut direct, pause_at, LIMIT), outcome, "{engine}");
                assert_eq!(matches!(outcome, Ok(RunOutcome::Paused(_))), paused);
                assert_eq!(direct.stats(), via.stats(), "{engine} to {pause_at}");
            }
            assert_eq!(Engine::parse(engine.label()), Some(engine));
            assert_eq!(engine.to_string(), engine.label());
        }
        assert_eq!(Engine::parse("warp"), None);
    }
}
