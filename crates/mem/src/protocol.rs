//! The DRAM command observer: a debug-build witness that every command
//! a vault controller issues keeps Table III.
//!
//! A controller built with debug assertions logs each command it issues
//! — ACTIVATE, PRECHARGE (explicit, toward a refresh, or the
//! auto-precharge a closed-page column carries), the READ / WRITE
//! columns and REFRESH — and the log asserts, at each one, the rule it
//! must keep. It judges from the cycles of earlier commands alone, not
//! from the bank state the scheduler consults, so a scheduler that
//! trusts a stale bound is caught at the command it issues too early:
//!
//! * ACT: the bank is precharged, tRP after its PRE;
//! * RD / WR: the addressed row is open, tRCD after its ACT and tCCD
//!   after the bank's previous column;
//! * PRE: a row is open, tRAS after its ACT and tWR after the end of its
//!   last write burst;
//! * REF: every bank precharged for tRP; the refresh due at cycle `d`
//!   issues in `[d, d + tREFI)`, and due cycles are tREFI apart;
//! * every command: none inside a refresh's tRFC, and none once a
//!   refresh is a whole tREFI overdue.
//!
//! A restore starts a fresh log from the image's open rows and refresh
//! schedule (an image carries bank state, not command history), and an
//! idle jump credits the refreshes it spans, as the controller does.
//! Release builds compile none of this.

use crate::bank::Bank;
use crate::{Cycle, DramTiming};

/// The commands one bank has seen, as far back as each rule looks.
#[derive(Debug, Clone, Copy, Default)]
struct BankLog {
    /// The open row, by this log's own account.
    open: Option<u64>,
    act: Option<Cycle>,
    pre: Option<Cycle>,
    /// The bank's last column command.
    col: Option<Cycle>,
    /// The end of the bank's last write burst.
    write_end: Option<Cycle>,
}

/// Table III in cycles, as the controller was configured.
#[derive(Debug, Clone, Copy)]
struct Rules {
    rcd: Cycle,
    rp: Cycle,
    ras: Cycle,
    wr: Cycle,
    ccd: Cycle,
    rfc: Cycle,
    refi: Cycle,
}

/// One vault's command log (see the module documentation).
#[derive(Debug)]
pub(crate) struct CommandLog {
    vault: usize,
    rules: Rules,
    banks: Vec<BankLog>,
    /// The last REFRESH.
    refresh: Option<Cycle>,
    /// The cycle the next REFRESH falls due.
    refresh_due: Cycle,
    /// Commands logged: ACTIVATEs, columns (one per issued
    /// transaction), REFRESHes.
    acts: u64,
    cols: u64,
    refs: u64,
}

impl CommandLog {
    /// An empty log for `banks` precharged banks at cycle 0.
    pub(crate) fn new(vault: usize, t: &DramTiming, banks: usize) -> Self {
        let rules = Rules {
            rcd: t.t_rcd(),
            rp: t.t_rp(),
            ras: t.t_ras(),
            wr: t.t_wr(),
            ccd: t.t_ccd(),
            rfc: t.t_rfc(),
            refi: t.t_refi(),
        };
        CommandLog {
            vault,
            rules,
            banks: vec![BankLog::default(); banks],
            refresh: None,
            refresh_due: rules.refi,
            acts: 0,
            cols: 0,
            refs: 0,
        }
    }

    /// Starts over from a restored image: its banks' open rows and the
    /// cycle its next refresh falls due; no command history.
    pub(crate) fn restored(&mut self, banks: &[Bank], refresh_due: Cycle) {
        for (log, bank) in self.banks.iter_mut().zip(banks) {
            *log = BankLog {
                open: bank.open_row(),
                ..BankLog::default()
            };
        }
        (self.refresh, self.refresh_due) = (None, refresh_due);
    }

    /// An idle jump to `to`: the refreshes falling due up to it are
    /// credited, not issued.
    pub(crate) fn idle_until(&mut self, to: Cycle) {
        while self.refresh_due <= to {
            self.refresh_due += self.rules.refi;
        }
    }

    /// ACTIVATEs, columns and REFRESHes logged so far.
    #[cfg(test)]
    pub(crate) fn commands(&self) -> (u64, u64, u64) {
        (self.acts, self.cols, self.refs)
    }

    /// Asserts `at` is `gap` or more cycles after `since`, if there was
    /// one.
    fn spaced(&self, what: &str, bank: usize, at: Cycle, since: Option<Cycle>, gap: Cycle) {
        if let Some(since) = since {
            assert!(
                at >= since + gap,
                "vault {} bank {bank}: {what} at cycle {at}, {} cycles after cycle {since}",
                self.vault,
                at.saturating_sub(since)
            );
        }
    }

    /// The rules every command keeps: none inside a refresh, none with a
    /// refresh a whole tREFI overdue.
    fn command(&self, what: &str, bank: usize, at: Cycle) {
        self.spaced(what, bank, at, self.refresh, self.rules.rfc);
        assert!(
            at < self.refresh_due + self.rules.refi,
            "vault {} bank {bank}: {what} at cycle {at} with the refresh due at cycle {} \
             still not issued (tREFI)",
            self.vault,
            self.refresh_due
        );
    }

    pub(crate) fn activate(&mut self, bank: usize, at: Cycle, row: u64) {
        self.command("ACT after REF (tRFC)", bank, at);
        let log = self.banks[bank];
        assert!(
            log.open.is_none(),
            "vault {} bank {bank}: ACT at cycle {at} with row {:?} open",
            self.vault,
            log.open
        );
        self.spaced("ACT after PRE (tRP)", bank, at, log.pre, self.rules.rp);
        let log = &mut self.banks[bank];
        (log.open, log.act) = (Some(row), Some(at));
        self.acts += 1;
    }

    /// A PRECHARGE taking effect at `at`: now, or later for the
    /// auto-precharge a closed-page column carries.
    pub(crate) fn precharge(&mut self, bank: usize, at: Cycle) {
        self.command("PRE after REF (tRFC)", bank, at);
        let log = self.banks[bank];
        assert!(
            log.open.is_some(),
            "vault {} bank {bank}: PRE at cycle {at} with no row open",
            self.vault
        );
        self.spaced("PRE after ACT (tRAS)", bank, at, log.act, self.rules.ras);
        self.spaced("PRE after WR (tWR)", bank, at, log.write_end, self.rules.wr);
        let log = &mut self.banks[bank];
        (log.open, log.pre) = (None, Some(at));
    }

    /// The column commands of one transaction to `row`, `first` to
    /// `last` (tCCD apart); `write_end` is where its write burst ends.
    pub(crate) fn column(
        &mut self,
        bank: usize,
        (first, last): (Cycle, Cycle),
        row: u64,
        write_end: Option<Cycle>,
    ) {
        self.command("column after REF (tRFC)", bank, first);
        let log = self.banks[bank];
        assert!(
            log.open == Some(row),
            "vault {} bank {bank}: column to row {row} at cycle {first} with row {:?} open",
            self.vault,
            log.open
        );
        let rules = self.rules;
        self.spaced("column after ACT (tRCD)", bank, first, log.act, rules.rcd);
        self.spaced(
            "column after column (tCCD)",
            bank,
            first,
            log.col,
            rules.ccd,
        );
        let log = &mut self.banks[bank];
        log.col = Some(last);
        if write_end.is_some() {
            log.write_end = write_end;
        }
        self.cols += 1;
    }

    pub(crate) fn refresh(&mut self, at: Cycle) {
        self.command("REF after REF (tRFC)", 0, at);
        assert!(
            at >= self.refresh_due,
            "vault {}: REF at cycle {at}, before its due cycle {} (tREFI)",
            self.vault,
            self.refresh_due
        );
        for bank in 0..self.banks.len() {
            let log = self.banks[bank];
            assert!(
                log.open.is_none(),
                "vault {} bank {bank}: REF at cycle {at} with row {:?} open",
                self.vault,
                log.open
            );
            self.spaced("REF after PRE (tRP)", bank, at, log.pre, self.rules.rp);
        }
        self.refresh = Some(at);
        self.refresh_due += self.rules.refi;
        self.refs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> CommandLog {
        CommandLog::new(0, &DramTiming::table_iii(), 2)
    }

    /// Table III in cycles: tRCD 18, tRP 18, tRAS 35, tWR 19, tCCD 7,
    /// tRFC 102, tREFI 2437.
    #[test]
    fn commands_at_their_earliest_cycles_are_legal() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.column(0, (28, 35), 3, Some(60));
        l.column(0, (42, 42), 3, None);
        l.activate(1, 11, 4);
        l.precharge(1, 46);
        l.precharge(0, 79);
        l.activate(0, 97, 5);
        l.precharge(0, 132);
        l.refresh(2437);
        l.activate(1, 2539, 4);
        l.precharge(1, 2574);
        l.refresh(4874 + 2436);
        assert_eq!(l.commands(), (4, 2, 2));
    }

    #[test]
    #[should_panic(expected = "tRCD")]
    fn a_column_inside_trcd_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.column(0, (27, 27), 3, None);
    }

    #[test]
    #[should_panic(expected = "tCCD")]
    fn a_column_inside_tccd_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.column(0, (28, 35), 3, None);
        l.column(0, (41, 41), 3, None);
    }

    #[test]
    #[should_panic(expected = "with row Some(3) open")]
    fn a_column_to_a_closed_row_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.column(0, (28, 28), 4, None);
    }

    #[test]
    #[should_panic(expected = "tRAS")]
    fn a_precharge_inside_tras_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.precharge(0, 44);
    }

    #[test]
    #[should_panic(expected = "tWR")]
    fn a_precharge_inside_twr_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.column(0, (28, 28), 3, Some(60));
        l.precharge(0, 78);
    }

    #[test]
    #[should_panic(expected = "tRP")]
    fn an_activate_inside_trp_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.precharge(0, 45);
        l.activate(0, 62, 3);
    }

    #[test]
    #[should_panic(expected = "tRFC")]
    fn an_activate_inside_trfc_is_caught() {
        let mut l = log();
        l.refresh(2437);
        l.activate(1, 2538, 4);
    }

    #[test]
    #[should_panic(expected = "with row Some(3) open")]
    fn a_refresh_with_a_row_open_is_caught() {
        let mut l = log();
        l.activate(0, 10, 3);
        l.refresh(2437);
    }

    #[test]
    #[should_panic(expected = "tREFI")]
    fn a_refresh_a_whole_trefi_late_is_caught() {
        let mut l = log();
        l.refresh(2437 * 2);
    }

    #[test]
    #[should_panic(expected = "tREFI")]
    fn a_command_past_a_missed_refresh_is_caught() {
        let mut l = log();
        l.activate(0, 2437 * 2, 3);
    }

    #[test]
    fn a_restore_keeps_open_rows_and_the_refresh_due() {
        let mut l = log();
        let mut open = Bank::new();
        open.activate(0, 9, &DramTiming::table_iii());
        l.restored(&[open, Bank::new()], 5_000);
        // No history: the first column needs only its row open.
        l.column(0, (3_000, 3_000), 9, None);
        l.activate(1, 3_000, 1);
        l.precharge(0, 3_100);
        l.precharge(1, 3_035);
        l.idle_until(7_437);
        l.refresh(9_874);
    }
}
