//! Per-bank DRAM state machine.

use crate::timing::DramTiming;
use crate::Cycle;
use vip_snap::snapshot_struct;

/// One DRAM bank: an optional open row plus the earliest cycles at which
/// the next ACTIVATE, column access, or PRECHARGE may legally issue.
///
/// Banks within a vault share data TSVs but have independent control
/// (§III-C: "each bank is also a rank"), so inter-bank constraints live in
/// the vault controller (shared data bus, tCCD) while intra-bank timing
/// (tRCD, tRAS, tRP, tWR) lives here.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bank {
    open_row: Option<u64>,
    earliest_act: Cycle,
    earliest_col: Cycle,
    earliest_pre: Cycle,
    /// Per-bank column-to-column spacing (tCCD). Banks are independent
    /// ranks in the HMC ("each bank is also a rank", §III-C), so tCCD
    /// does not serialize columns across banks — only the shared data
    /// TSVs do.
    next_col: Cycle,
}

impl Bank {
    /// A precharged, idle bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently open row, if any.
    #[must_use]
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Whether the bank is precharged (no open row).
    #[must_use]
    pub fn is_precharged(&self) -> bool {
        self.open_row.is_none()
    }

    /// Whether an ACTIVATE may issue at `now`.
    #[must_use]
    pub fn can_activate(&self, now: Cycle) -> bool {
        self.open_row.is_none() && now >= self.earliest_act
    }

    /// Whether the bank is precharged *and* past tRP, i.e. ready to take
    /// part in a refresh.
    #[must_use]
    pub fn refresh_ready(&self, now: Cycle) -> bool {
        self.can_activate(now)
    }

    /// Issues ACTIVATE for `row`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if [`can_activate`](Self::can_activate) is false.
    pub fn activate(&mut self, now: Cycle, row: u64, t: &DramTiming) {
        debug_assert!(self.can_activate(now));
        self.open_row = Some(row);
        self.earliest_col = now + t.t_rcd();
        self.earliest_pre = now + t.t_ras();
    }

    /// Whether a column command to `row` may issue at `now` (row open,
    /// past tRCD, and past the previous column's tCCD).
    #[must_use]
    pub fn can_access(&self, now: Cycle, row: u64) -> bool {
        self.open_row == Some(row) && now >= self.earliest_col && now >= self.next_col
    }

    /// Records a column command for tCCD spacing.
    pub fn column_issued(&mut self, now: Cycle, t: &DramTiming) {
        self.next_col = now + t.t_ccd();
    }

    /// Issues a read column command; `burst_end` is when the data burst
    /// finishes on the bus.
    pub fn access_read(&mut self, burst_end: Cycle, t: &DramTiming) {
        // Reads permit precharge once the data has left the array; model
        // as burst completion.
        self.earliest_pre = self.earliest_pre.max(burst_end);
        let _ = t;
    }

    /// Issues a write column command; the row must stay open tWR past the
    /// end of the data burst.
    pub fn access_write(&mut self, burst_end: Cycle, t: &DramTiming) {
        self.earliest_pre = self.earliest_pre.max(burst_end + t.t_wr());
    }

    /// Whether PRECHARGE may issue at `now`.
    #[must_use]
    pub fn can_precharge(&self, now: Cycle) -> bool {
        self.open_row.is_some() && now >= self.earliest_pre
    }

    /// Issues PRECHARGE.
    ///
    /// # Panics
    ///
    /// Panics (debug) if [`can_precharge`](Self::can_precharge) is false.
    pub fn precharge(&mut self, now: Cycle, t: &DramTiming) {
        debug_assert!(self.can_precharge(now));
        self.open_row = None;
        self.earliest_act = now + t.t_rp();
    }

    /// Schedules an automatic precharge to take effect at `when`
    /// (closed-page policy: the column command carries auto-precharge).
    pub fn auto_precharge_at(&mut self, when: Cycle, t: &DramTiming) {
        self.open_row = None;
        self.earliest_act = when + t.t_rp();
    }

    /// Blocks the bank until `until` (refresh).
    pub fn block_until(&mut self, until: Cycle) {
        debug_assert!(self.is_precharged());
        self.earliest_act = self.earliest_act.max(until);
    }

    /// First cycle at which a column command to the open row may issue
    /// (tRCD and tCCD both satisfied). Only meaningful while a row is
    /// open.
    #[must_use]
    pub fn earliest_column(&self) -> Cycle {
        self.earliest_col.max(self.next_col)
    }

    /// First cycle at which PRECHARGE may issue (tRAS/tWR satisfied).
    /// Only meaningful while a row is open.
    #[must_use]
    pub fn earliest_precharge(&self) -> Cycle {
        self.earliest_pre
    }

    /// First cycle at which ACTIVATE may issue (tRP satisfied). Only
    /// meaningful while the bank is precharged.
    #[must_use]
    pub fn earliest_activate(&self) -> Cycle {
        self.earliest_act
    }
}

snapshot_struct!(Bank {
    open_row,
    earliest_act,
    earliest_col,
    earliest_pre,
    next_col
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::table_iii()
    }

    #[test]
    fn activate_then_access_honours_trcd() {
        let mut b = Bank::new();
        assert!(b.can_activate(0));
        b.activate(0, 42, &t());
        assert!(!b.can_access(0, 42));
        assert!(!b.can_access(t().t_rcd() - 1, 42));
        assert!(b.can_access(t().t_rcd(), 42));
        assert!(!b.can_access(t().t_rcd(), 43), "different row");
    }

    #[test]
    fn precharge_honours_tras_and_trp() {
        let mut b = Bank::new();
        b.activate(0, 1, &t());
        assert!(!b.can_precharge(t().t_ras() - 1));
        assert!(b.can_precharge(t().t_ras()));
        b.precharge(t().t_ras(), &t());
        assert!(b.is_precharged());
        assert!(!b.can_activate(t().t_ras() + t().t_rp() - 1));
        assert!(b.can_activate(t().t_ras() + t().t_rp()));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = Bank::new();
        b.activate(0, 1, &t());
        let burst_end = 100;
        b.access_write(burst_end, &t());
        assert!(!b.can_precharge(burst_end + t().t_wr() - 1));
        assert!(b.can_precharge(burst_end + t().t_wr()));
    }

    #[test]
    fn auto_precharge_closes_row() {
        let mut b = Bank::new();
        b.activate(0, 1, &t());
        b.auto_precharge_at(50, &t());
        assert!(b.is_precharged());
        assert!(!b.can_activate(50 + t().t_rp() - 1));
        assert!(b.can_activate(50 + t().t_rp()));
    }

    #[test]
    fn refresh_blocking() {
        let mut b = Bank::new();
        b.block_until(500);
        assert!(!b.can_activate(499));
        assert!(b.can_activate(500));
    }
}
