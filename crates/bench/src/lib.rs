//! # vip-bench — regenerating the paper's evaluation
//!
//! A shared experiment library used by the `report-*` binaries (one per
//! table/figure of the paper) and the bench targets. Experiments
//! follow the paper's §V-A methodology: cycle-level simulation of the
//! largest *independent tile* of each workload on one vault (4 PEs),
//! extrapolated to the 32-vault machine, with outputs verified against
//! the golden references by the test suite.
//!
//! | Paper artifact | Entry point |
//! |---|---|
//! | Table I | [`report::table1`] |
//! | Table II | [`report::table2`] |
//! | Table III | [`report::table3`] |
//! | Table IV | [`experiments::table4`] |
//! | Figure 3 | [`experiments::roofline`] |
//! | Figure 4 | [`experiments::figure4`] |
//! | Figure 5 | [`experiments::figure5_bp`] / [`experiments::figure5_cnn`] |
//! | §VII / Fig. 6 | [`experiments::rtl_report`] |

pub mod autotune;
pub mod cli;
pub mod experiments;
pub mod golden;
pub mod harness;
pub mod report;
pub mod runner;
