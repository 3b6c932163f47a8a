//! The run methods the frozen `perf/` benchmark package still calls,
//! as one-line forwards into [`Engine`]. They are deprecated, so CI's
//! `clippy -D warnings` rejects any new use in the workspace; moving
//! `perf/` onto [`Engine::run`] / [`Engine::advance`] deletes this
//! module.

use crate::{Cycle, Engine, RunOutcome, SimError, System};

impl System {
    #[doc(hidden)]
    #[deprecated(note = "use `Engine::Fast.advance`")]
    pub fn run_until(&mut self, pause_at: Cycle, limit: Cycle) -> Result<RunOutcome, SimError> {
        Engine::Fast.advance(self, pause_at, limit)
    }

    #[doc(hidden)]
    #[deprecated(note = "use `Engine::Naive.run`")]
    pub fn run_naive(&mut self, limit: Cycle) -> Result<Cycle, SimError> {
        Engine::Naive.run(self, limit)
    }

    #[doc(hidden)]
    #[deprecated(note = "use `Engine::Naive.advance`")]
    pub fn run_naive_until(
        &mut self,
        pause_at: Cycle,
        limit: Cycle,
    ) -> Result<RunOutcome, SimError> {
        Engine::Naive.advance(self, pause_at, limit)
    }

    #[doc(hidden)]
    #[deprecated(note = "use `Engine::Functional.run`")]
    pub fn run_functional(&mut self, limit: Cycle) -> Result<Cycle, SimError> {
        Engine::Functional.run(self, limit)
    }

    #[doc(hidden)]
    #[deprecated(note = "use `Engine::Functional.advance`")]
    pub fn run_functional_until(
        &mut self,
        pause_at: Cycle,
        limit: Cycle,
    ) -> Result<RunOutcome, SimError> {
        Engine::Functional.advance(self, pause_at, limit)
    }

    #[doc(hidden)]
    #[deprecated(note = "a no-op: the step is always serial")]
    pub fn set_step_shards(&mut self, _shards: usize) {}
}
