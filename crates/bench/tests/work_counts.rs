//! Pins the host work the engines do, exactly.
//!
//! `data/work_counts.txt` holds every work counter of every
//! `sim_throughput` case on the event-driven and the functional engines
//! (steps, clock jumps, PE visits, next-event bounds that read the
//! torus or the vaults, vault active ticks, FR-FCFS passes, banks
//! walked, lanes opened, torus flight visits, functional stretches,
//! blocks and windows), beside the quiesce cycle and instruction count
//! they bought. The counts repeat exactly run to run and build to
//! build, so a change that makes an engine do more work for the same
//! result — step a cycle it could have skipped, visit a PE that is not
//! due, open a lane whose bank cannot act — fails here even though every
//! result stays bit-identical, where a timing would need a quiet machine
//! to notice. A change that means to move them regenerates the file, and
//! its diff is the change's evidence:
//!
//! ```text
//! cargo run --release --bin sim_throughput -- --counts > crates/bench/tests/data/work_counts.txt
//! ```
//!
//! The tiles stage under the checked-in tuned schedules, as they do for
//! `sim_throughput` run from the repository root (with
//! `VIP_SCHEDULE_DIR` unset). CI runs this file in debug and in
//! `--release`.

use std::sync::Once;

use vip_bench::experiments::{throughput_cases, work_count_lines};

const PINNED: &str = include_str!("data/work_counts.txt");

fn assert_pinned(case: &str) {
    // The schedule store is read relative to the working directory.
    static ROOT: Once = Once::new();
    ROOT.call_once(|| {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .expect("the workspace root");
    });
    let case = throughput_cases()
        .into_iter()
        .find(|(name, _)| *name == case)
        .expect("a throughput case");
    let got = work_count_lines(case);
    let want: Vec<&str> = PINNED
        .lines()
        .filter(|line| line.split_whitespace().next() == Some(case.0))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(got, want)| got != *want)
        .map(|(got, want)| format!("  pinned {want}\n  now    {got}"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == want.len(),
        "{}: work counts moved ({} rows now, {} pinned); regenerate \
         data/work_counts.txt with `sim_throughput --counts` if that is \
         the change's intent:\n{}",
        case.0,
        got.len(),
        want.len(),
        moved.join("\n")
    );
}

#[test]
fn bp_tile() {
    assert_pinned("bp_tile");
}

#[test]
fn cnn_conv_tile() {
    assert_pinned("cnn_conv_tile");
}

#[test]
fn mlp_fc_tile() {
    assert_pinned("mlp_fc_tile");
}

#[test]
fn mem_latency_chase() {
    assert_pinned("mem_latency_chase");
}

#[test]
fn vip128() {
    assert_pinned("vip128");
}

#[test]
fn every_case_is_pinned() {
    let mut names: Vec<&str> = PINNED
        .lines()
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    names.dedup();
    let cases: Vec<&str> = throughput_cases().iter().map(|(name, _)| *name).collect();
    assert_eq!(names, cases);
}
