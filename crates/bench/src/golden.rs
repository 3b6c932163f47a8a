//! The checked-in outputs every engine change is diffed against.
//!
//! [`GOLDENS`] lists them: the stdout of each `report_*` binary
//! (`reports/report_*.txt`) and the JSON reports of the quick serving
//! sweep on the fast and the functional engine and of the quick chaos
//! sweep (`reports/BENCH_*.json`). Every number in them is a simulated
//! cycle count or derived from one, so they repeat byte for byte, and a
//! change that moves one moved a result. The `golden` binary
//! (`--check`, the default, or `--bless`) and `tests/golden.rs` both
//! regenerate them through [`regenerate`] and compare with
//! [`first_difference`].
//!
//! Each binary runs with the workspace root as its working directory:
//! the tiles read their tuned schedules from `schedules/` relative to
//! it, and elsewhere fall back to default schedules without a word.

use std::io;
use std::path::Path;
use std::process::Command;

use vip_kernels::schedule_store::DIR_ENV;

/// Where a golden's bytes come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The binary's standard output.
    Stdout,
    /// A file the binary writes into the directory passed as `--dir`.
    DirFile(&'static str),
}

/// One checked-in output and the command that regenerates it.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    /// The file, relative to the workspace root.
    pub file: &'static str,
    /// The `vip-bench` binary that writes it.
    pub bin: &'static str,
    /// Its arguments (`--dir` is added for a [`Source::DirFile`]).
    pub args: &'static [&'static str],
    /// Which of its outputs the file holds.
    pub source: Source,
}

const fn report(file: &'static str, bin: &'static str) -> Golden {
    Golden {
        file,
        bin,
        args: &[],
        source: Source::Stdout,
    }
}

/// Every golden output.
pub const GOLDENS: [Golden; 12] = [
    report("reports/report_ablation.txt", "report_ablation"),
    report("reports/report_fig3.txt", "report_fig3"),
    report("reports/report_fig4.txt", "report_fig4"),
    report("reports/report_fig5.txt", "report_fig5"),
    report("reports/report_rtl.txt", "report_rtl"),
    report("reports/report_table1.txt", "report_table1"),
    report("reports/report_table2.txt", "report_table2"),
    report("reports/report_table3.txt", "report_table3"),
    report("reports/report_table4.txt", "report_table4"),
    Golden {
        file: "reports/BENCH_serving_fast.json",
        bin: "serve",
        args: &["--quick", "--jobs", "1", "--engine", "fast"],
        source: Source::DirFile("BENCH_serving.json"),
    },
    Golden {
        file: "reports/BENCH_serving_functional.json",
        bin: "serve",
        args: &["--quick", "--jobs", "1", "--engine", "functional"],
        source: Source::DirFile("BENCH_serving.json"),
    },
    Golden {
        file: "reports/BENCH_chaos.json",
        bin: "chaos",
        args: &["--quick", "--jobs", "1"],
        source: Source::DirFile("BENCH_chaos.json"),
    },
];

/// Runs `exe` (the golden's binary) from `root` and returns the bytes
/// the golden holds. `scratch` is a directory of the caller's for a
/// [`Source::DirFile`] run; it is emptied first.
///
/// # Errors
///
/// An I/O error starting the binary or reading its file, or
/// [`io::ErrorKind::Other`] if it exits unsuccessfully.
pub fn regenerate(golden: &Golden, exe: &Path, root: &Path, scratch: &Path) -> io::Result<Vec<u8>> {
    let mut cmd = Command::new(exe);
    cmd.current_dir(root).args(golden.args).env_remove(DIR_ENV);
    if let Source::DirFile(_) = golden.source {
        if scratch.exists() {
            std::fs::remove_dir_all(scratch)?;
        }
        cmd.arg("--dir").arg(scratch);
    }
    let out = cmd.output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "{} {}: {}\n{}",
            golden.bin,
            golden.args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    match golden.source {
        Source::Stdout => Ok(out.stdout),
        Source::DirFile(name) => std::fs::read(scratch.join(name)),
    }
}

/// The first line on which `got` differs from `want`, 1-based, with
/// both versions of it; `None` if the bytes are equal.
#[must_use]
pub fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    if want == got {
        return None;
    }
    let (want, got) = (String::from_utf8_lossy(want), String::from_utf8_lossy(got));
    let (mut w, mut g) = (want.lines(), got.lines());
    let mut line = 1;
    loop {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                let show = |s: Option<&str>| s.map_or("<end of file>".into(), |s| format!("{s:?}"));
                return Some(format!(
                    "line {line}:\n  golden {}\n  now    {}",
                    show(a),
                    show(b)
                ));
            }
        }
    }
}
