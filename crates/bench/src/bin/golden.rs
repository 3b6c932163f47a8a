//! Regenerates every checked-in golden output (see
//! [`vip_bench::golden`]) and byte-diffs it against the file, printing
//! the first differing line of each that moved.
//!
//! Run it from the workspace root after a release build of `vip-bench`
//! (it runs the binaries beside its own executable):
//!
//! ```text
//! cargo build --release -p vip-bench && target/release/golden [--check | --bless]
//! ```
//!
//! `--check` (the default) exits 1 if any output moved; `--bless`
//! rewrites the files instead.

use std::path::Path;
use std::process::exit;

use vip_bench::cli::Cli;
use vip_bench::golden::{first_difference, regenerate, GOLDENS};

fn main() {
    let mut cli = Cli::new("golden", "[--check | --bless]");
    let mut bless = false;
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--check" => bless = false,
            "--bless" => bless = true,
            _ => cli.usage(),
        }
    }
    if !Path::new("reports").is_dir() || !Path::new("schedules").is_dir() {
        eprintln!("golden: run from the workspace root (no reports/ or schedules/ here)");
        exit(2);
    }
    let exe = std::env::current_exe().expect("the golden binary's path");
    let bins = exe.parent().expect("a directory").to_path_buf();
    let scratch = std::env::temp_dir().join(format!("vip-golden-{}", std::process::id()));
    let root = std::env::current_dir().expect("the workspace root");
    let mut moved = 0;
    for golden in &GOLDENS {
        let got = regenerate(golden, &bins.join(golden.bin), &root, &scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", golden.file));
        let want = std::fs::read(golden.file).unwrap_or_default();
        match first_difference(&want, &got) {
            None => println!("same   {}", golden.file),
            Some(diff) if bless => {
                std::fs::write(golden.file, &got).expect("write the golden file");
                println!("bless  {} ({diff})", golden.file);
            }
            Some(diff) => {
                moved += 1;
                println!("MOVED  {}, {diff}", golden.file);
            }
        }
    }
    // Best effort: the directory is the serving runs' scratch space.
    let _ = std::fs::remove_dir_all(&scratch);
    if moved > 0 {
        eprintln!("golden: {moved} output(s) moved; `--bless` rewrites them");
        exit(1);
    }
}
