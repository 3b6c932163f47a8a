//! Holds every checked-in golden output to what the binaries print now
//! (see `vip_bench::golden`): the nine `reports/report_*.txt` and the
//! quick serving (fast and functional engine) and chaos JSON reports.
//! A change that moves one regenerates it, from the workspace root, and
//! its diff is the change's evidence:
//!
//! ```text
//! cargo build --release -p vip-bench && target/release/golden --bless
//! ```

use std::path::Path;

use vip_bench::golden::{first_difference, regenerate, GOLDENS};

fn exe(bin: &str) -> &'static str {
    match bin {
        "report_ablation" => env!("CARGO_BIN_EXE_report_ablation"),
        "report_fig3" => env!("CARGO_BIN_EXE_report_fig3"),
        "report_fig4" => env!("CARGO_BIN_EXE_report_fig4"),
        "report_fig5" => env!("CARGO_BIN_EXE_report_fig5"),
        "report_rtl" => env!("CARGO_BIN_EXE_report_rtl"),
        "report_table1" => env!("CARGO_BIN_EXE_report_table1"),
        "report_table2" => env!("CARGO_BIN_EXE_report_table2"),
        "report_table3" => env!("CARGO_BIN_EXE_report_table3"),
        "report_table4" => env!("CARGO_BIN_EXE_report_table4"),
        "serve" => env!("CARGO_BIN_EXE_serve"),
        "chaos" => env!("CARGO_BIN_EXE_chaos"),
        _ => panic!("no binary {bin} in vip-bench"),
    }
}

#[test]
fn every_golden_output_is_unchanged() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let moved: Vec<String> = GOLDENS
        .iter()
        .filter_map(|golden| {
            let scratch =
                Path::new(env!("CARGO_TARGET_TMPDIR")).join(golden.file.replace('/', "_"));
            let got = regenerate(golden, Path::new(exe(golden.bin)), root, &scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", golden.file));
            let want = std::fs::read(root.join(golden.file)).expect("the golden file");
            first_difference(&want, &got).map(|diff| format!("{} moved, {diff}", golden.file))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{}\nregenerate with `target/release/golden --bless` from the workspace \
         root if that is the change's intent",
        moved.join("\n")
    );
}
