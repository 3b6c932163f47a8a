//! The whole memory stack: 32 vault controllers over shared storage.

use crate::config::MemConfig;
use crate::controller::VaultController;
use crate::req::{MemRequest, MemResponse, QueueFullError};
use crate::stats::{MemStats, MemWork};
use crate::storage::Storage;
use crate::Cycle;
use vip_faults::DramFaultConfig;
use vip_snap::{Reader, SnapError, Snapshot, Writer};

/// The complete HMC-style memory stack (§III-C): all vault controllers
/// plus the shared execution-driven backing store.
///
/// The system simulator enqueues requests per vault (the on-chip network
/// decides which vault a request reaches) and calls [`tick`](Hmc::tick)
/// once per cycle. Host accessors ([`host_read`](Hmc::host_read) /
/// [`host_write`](Hmc::host_write)) bypass timing and are used to load
/// inputs and extract results.
#[derive(Debug)]
pub struct Hmc {
    cfg: MemConfig,
    storage: Storage,
    vaults: Vec<VaultController>,
    /// Scratch for [`tick_with`](Hmc::tick_with); empty between calls.
    responses: Vec<MemResponse>,
}

impl Hmc {
    /// Builds the stack described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MemConfig::validate`].
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        // Invariant: a stack is built from a validated configuration
        // only, so it has at least one vault; an invalid one is refused.
        #[allow(clippy::expect_used)]
        cfg.validate().expect("valid memory configuration");
        let vaults = (0..cfg.vaults)
            .map(|v| VaultController::new(v, cfg.clone()))
            .collect();
        Hmc {
            cfg,
            storage: Storage::new(),
            vaults,
            responses: Vec::new(),
        }
    }

    /// The configuration this stack was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Whether `vault` can accept another transaction this cycle.
    #[must_use]
    pub fn can_accept(&self, vault: usize) -> bool {
        self.vaults[vault].can_accept()
    }

    /// Queued (unissued) transactions at `vault` — the hang watchdog
    /// reports these depths.
    #[must_use]
    pub fn pending(&self, vault: usize) -> usize {
        self.vaults[vault].pending()
    }

    /// Wires (or removes) DRAM retention-fault injection on every vault
    /// at runtime — the system-level fault plumbing uses this so tests
    /// can arm an existing machine without rebuilding its config.
    pub fn set_faults(&mut self, faults: Option<DramFaultConfig>) {
        self.cfg.faults = faults;
        for vault in &mut self.vaults {
            vault.set_faults(faults);
        }
    }

    /// Enqueues `req` at `vault`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the vault's transaction queue is
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if `req` maps to a different vault than `vault` (a routing
    /// bug) or crosses a column boundary.
    pub fn enqueue(&mut self, vault: usize, req: MemRequest) -> Result<(), QueueFullError> {
        self.vaults[vault].enqueue(req)
    }

    /// Advances every vault one cycle, appending completions (tagged with
    /// their vault via [`MemResponse::addr`] decoding if needed) to
    /// `responses`.
    pub fn tick(&mut self, responses: &mut Vec<MemResponse>) {
        for vault in &mut self.vaults {
            vault.tick(&mut self.storage, responses);
        }
    }

    /// Advances every vault one cycle, invoking `sink(vault, response)`
    /// per completion — the form the system simulator uses to route
    /// completions onto the network at the right vault.
    pub fn tick_with(&mut self, mut sink: impl FnMut(usize, MemResponse)) {
        for (v, vault) in self.vaults.iter_mut().enumerate() {
            vault.tick(&mut self.storage, &mut self.responses);
            for resp in self.responses.drain(..) {
                sink(v, resp);
            }
        }
    }

    /// Whether every vault has drained all queued and in-flight work.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.vaults.iter().all(VaultController::is_idle)
    }

    /// A sound lower bound on the next cycle any vault can act (see
    /// [`VaultController::next_event`]). There always is one: refresh
    /// fires every tREFI even when the stack is idle, and a validated
    /// stack has a vault (without one, nothing ever happens: `MAX`).
    /// Inlined: the event engine reads it on every step that is
    /// otherwise quiet.
    #[inline]
    #[must_use]
    pub fn next_event(&self) -> Cycle {
        self.vaults
            .iter()
            .map(|v| v.wake_bound(&self.storage))
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Jumps every vault's clock to `to`, replaying per-cycle counters
    /// (see [`VaultController::skip_to`]).
    pub fn skip_to(&mut self, to: Cycle) {
        for vault in &mut self.vaults {
            vault.skip_to(to);
        }
    }

    /// Jumps the clock of the (idle) stack far forward, crediting
    /// skipped refreshes on schedule (see
    /// [`VaultController::advance_idle`]).
    pub fn advance_idle(&mut self, to: Cycle) {
        for vault in &mut self.vaults {
            vault.advance_idle(to);
        }
    }

    /// Direct access to the backing store. Zero-time like the host
    /// accessors; the functional execution tier reads through this
    /// without per-call allocation.
    #[must_use]
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Direct mutable access to the backing store (functional-tier
    /// stores; bypasses all timing, like [`host_write`](Self::host_write)).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Zero-time host read (initialization / result extraction).
    #[must_use]
    pub fn host_read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.storage.read_vec(addr, len)
    }

    /// Zero-time host write.
    pub fn host_write(&mut self, addr: u64, data: &[u8]) {
        self.storage.write(addr, data);
    }

    /// Zero-time read of a 64-bit word.
    #[must_use]
    pub fn host_read_u64(&self, addr: u64) -> u64 {
        self.storage.read_u64(addr)
    }

    /// Zero-time write of a 64-bit word.
    pub fn host_write_u64(&mut self, addr: u64, value: u64) {
        self.storage.write_u64(addr, value);
    }

    /// Host access to a word's full-empty bit.
    #[must_use]
    pub fn host_is_full(&self, addr: u64) -> bool {
        self.storage.is_full(addr)
    }

    /// Host control of a word's full-empty bit.
    pub fn host_set_full(&mut self, addr: u64, full: bool) {
        self.storage.set_full(addr, full);
    }

    /// Per-vault statistics.
    #[must_use]
    pub fn vault_stats(&self, vault: usize) -> MemStats {
        self.vaults[vault].stats()
    }

    /// Stack-wide aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for v in &self.vaults {
            total.merge(&v.stats());
        }
        total
    }

    /// The host work every vault controller has done, summed (see
    /// [`MemWork`]).
    #[must_use]
    pub fn work(&self) -> MemWork {
        let mut total = MemWork::default();
        for v in &self.vaults {
            total.merge(&v.work());
        }
        total
    }

    /// Serializes the whole stack's mutable state: the backing store
    /// (data pages, full-empty bits, the ECC sidecar), every vault
    /// controller, and the stack-level fault configuration.
    pub fn save_state(&self, w: &mut Writer) {
        self.storage.save(w);
        w.usize(self.vaults.len());
        for vault in &self.vaults {
            vault.save_state(w);
        }
        self.cfg.faults.save(w);
    }

    /// Restores state saved by [`save_state`](Self::save_state) onto a
    /// stack freshly built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on decode failure or a vault-count
    /// mismatch.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), SnapError> {
        self.storage = Storage::restore(r)?;
        let vaults = r.usize()?;
        if vaults != self.vaults.len() {
            return Err(SnapError::Corrupt("vault count mismatch"));
        }
        for vault in &mut self.vaults {
            vault.restore_state(r)?;
        }
        self.cfg.faults = Option::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::MemRequest;

    /// The boundary of `new`'s invariant: one vault is the fewest a
    /// stack builds with, and it always has a next event.
    #[test]
    fn a_one_vault_stack_always_has_a_next_event() {
        let mut cfg = MemConfig::baseline();
        cfg.vaults = 1;
        assert!(Hmc::new(cfg).next_event() < Cycle::MAX);
    }

    #[test]
    #[should_panic(expected = "valid memory configuration")]
    fn a_stack_without_vaults_is_refused() {
        let mut cfg = MemConfig::baseline();
        cfg.vaults = 0;
        let _ = Hmc::new(cfg);
    }

    #[test]
    fn requests_fan_out_across_vaults() {
        let cfg = MemConfig::baseline();
        let mut hmc = Hmc::new(cfg.clone());
        for v in 0..cfg.vaults {
            let addr = cfg.vault_base(v);
            hmc.host_write(addr, &[v as u8; 32]);
            hmc.enqueue(v, MemRequest::read(v as u64, addr, 32))
                .unwrap();
        }
        let mut responses = Vec::new();
        for _ in 0..500 {
            hmc.tick(&mut responses);
            if hmc.is_idle() {
                break;
            }
        }
        assert_eq!(responses.len(), cfg.vaults);
        for r in &responses {
            assert_eq!(r.data, vec![r.id as u8; 32]);
        }
        let s = hmc.stats();
        assert_eq!(s.reads, cfg.vaults as u64);
        assert_eq!(s.bytes_read, 32 * cfg.vaults as u64);
    }

    #[test]
    fn tick_with_reports_source_vault() {
        let cfg = MemConfig::baseline();
        let mut hmc = Hmc::new(cfg.clone());
        let addr = cfg.vault_base(3) + 64;
        hmc.enqueue(3, MemRequest::read(9, addr, 16)).unwrap();
        let mut seen = Vec::new();
        for _ in 0..500 {
            hmc.tick_with(|v, r| seen.push((v, r.id)));
            if hmc.is_idle() {
                break;
            }
        }
        assert_eq!(seen, vec![(3, 9)]);
    }

    #[test]
    fn host_accessors_roundtrip() {
        let mut hmc = Hmc::new(MemConfig::baseline());
        hmc.host_write_u64(4096, 42);
        assert_eq!(hmc.host_read_u64(4096), 42);
        hmc.host_set_full(4096, true);
        assert!(hmc.host_is_full(4096));
    }
}
