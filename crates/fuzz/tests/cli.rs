//! The `penny-fuzz` command line (`penny_bench::cli`): both flag forms
//! read the same value, a usage error exits 2 with the tool's prefix
//! and nothing on stdout, and a closed stdout ends the run quietly with
//! status 0.

use std::process::{Command, Output, Stdio};

fn penny_fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_penny-fuzz"))
        .args(args)
        .output()
        .expect("spawn penny-fuzz")
}

#[test]
fn both_flag_forms_give_the_same_report() {
    let spaced = penny_fuzz(&["--seed", "1", "--iters", "2", "--conformance-budget", "4"]);
    let joined = penny_fuzz(&["--seed=1", "--iters=2", "--conformance-budget=4"]);
    assert!(spaced.status.success(), "{}", String::from_utf8_lossy(&spaced.stderr));
    assert!(joined.status.success(), "{}", String::from_utf8_lossy(&joined.stderr));
    assert_eq!(spaced.stdout, joined.stdout);
}

#[test]
fn usage_errors_exit_2_with_the_tool_prefix() {
    let cases: &[&[&str]] = &[
        &[],
        &["--seed", "x", "--iters", "1"],
        &["--iters=-1"],
        &["--jobs=0", "--iters", "1"],
        &["--iters"],
        &["--bogus"],
        &["1"],
    ];
    for &args in cases {
        let out = penny_fuzz(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        assert!(stderr.starts_with("penny-fuzz: "), "{args:?}: {stderr}");
    }
}

/// The run fuzzes before it prints its report, so it meets the closed
/// pipe on its first write.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_penny-fuzz"))
        .args(["--seed", "1", "--iters", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn penny-fuzz");
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("wait for penny-fuzz");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
