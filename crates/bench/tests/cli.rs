//! Unit tests for the shared CLI plumbing: flag walking, typed value
//! parsing, bad-input rejection, and the environment-variable
//! precedence rules the bench binaries rely on.

use std::path::PathBuf;

use vip_bench::cli::{env_seed, Cli, CliError};
use vip_kernels::schedule_store;

fn args(list: &[&str]) -> impl Iterator<Item = String> + use<> {
    list.iter()
        .map(|s| (*s).to_owned())
        .collect::<Vec<_>>()
        .into_iter()
}

#[test]
fn walks_flags_and_parses_typed_values() {
    let mut cli = Cli::from_args(
        "serve",
        "[--devices <n>] [--dir <path>] [--quick]",
        args(&["--devices", "4", "--quick", "--dir", "out/x"]),
    );
    let mut devices = 0usize;
    let mut quick = false;
    let mut dir = PathBuf::new();
    while let Some(arg) = cli.next_arg() {
        match arg.as_str() {
            "--devices" => devices = cli.value("--devices"),
            "--quick" => quick = true,
            "--dir" => dir = cli.value("--dir"),
            other => panic!("unexpected arg {other}"),
        }
    }
    assert_eq!(devices, 4);
    assert!(quick);
    assert_eq!(dir, PathBuf::from("out/x"));
    assert_eq!(cli.next_arg(), None, "arguments must be exhausted");
}

#[test]
fn rejects_missing_and_malformed_values() {
    // Missing: the flag is the last token.
    let mut cli = Cli::from_args("serve", "", args(&["--devices"]));
    assert_eq!(cli.next_arg().as_deref(), Some("--devices"));
    assert_eq!(
        cli.try_value::<usize>("--devices"),
        Err(CliError::MissingValue("--devices".into()))
    );

    // Malformed: present but not a number.
    let mut cli = Cli::from_args("serve", "", args(&["--devices", "many"]));
    assert_eq!(cli.next_arg().as_deref(), Some("--devices"));
    let err = cli.try_value::<usize>("--devices").unwrap_err();
    assert_eq!(
        err,
        CliError::BadValue {
            flag: "--devices".into(),
            value: "many".into(),
        }
    );
    // The error message names both the flag and the offending token.
    let msg = err.to_string();
    assert!(msg.contains("--devices") && msg.contains("many"), "{msg}");

    // A negative count fails at usize but parses at i64 — the type
    // parameter is what validates.
    let mut cli = Cli::from_args("serve", "", args(&["--delta", "-3"]));
    assert_eq!(cli.next_arg().as_deref(), Some("--delta"));
    assert!(cli.try_value::<usize>("--delta").is_err());
    let mut cli = Cli::from_args("serve", "", args(&["--delta", "-3"]));
    assert_eq!(cli.next_arg().as_deref(), Some("--delta"));
    assert_eq!(cli.try_value::<i64>("--delta"), Ok(-3));
}

/// All environment-variable probes live in one test function: tests in
/// one binary share a process, and `set_var`/`remove_var` race across
/// threads.
#[test]
fn env_var_precedence() {
    // VIP_SCHEDULE_DIR overrides the schedule-store directory; unset,
    // the store falls back to `schedules/`.
    unsafe { std::env::remove_var(schedule_store::DIR_ENV) };
    assert_eq!(schedule_store::dir(), PathBuf::from("schedules"));
    unsafe { std::env::set_var(schedule_store::DIR_ENV, "/tmp/tuned") };
    assert_eq!(schedule_store::dir(), PathBuf::from("/tmp/tuned"));
    unsafe { std::env::remove_var(schedule_store::DIR_ENV) };

    // VIP_TEST_SEED overrides the default seed; unset or malformed, the
    // default wins. (Decimal and 0x-prefixed hex both parse.)
    unsafe { std::env::remove_var("VIP_TEST_SEED") };
    assert_eq!(env_seed(7), 7);
    unsafe { std::env::set_var("VIP_TEST_SEED", "41") };
    assert_eq!(env_seed(7), 41);
    unsafe { std::env::set_var("VIP_TEST_SEED", "0x2a") };
    assert_eq!(env_seed(7), 0x2a);
    unsafe { std::env::remove_var("VIP_TEST_SEED") };
    assert_eq!(env_seed(9), 9);
}
