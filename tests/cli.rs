//! The `penny` command-line front end, driven as a process: `check`,
//! `compile` and `run` on a small kernel, scheme tokens, and a fault
//! injected into a register the kernel reads.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Each thread increments its own word of `A`.
const KERNEL: &str = "\
.kernel inc .params A
entry:
    mov.u32 %r0, %tid.x
    mov.u32 %r5, %ctaid.x
    mov.u32 %r6, %ntid.x
    mad.u32 %r0, %r5, %r6, %r0
    ld.param.u32 %r1, [A]
    mad.u32 %r2, %r0, 4, %r1
    ld.global.u32 %r3, [%r2]
    add.u32 %r4, %r3, 1
    st.global.u32 [%r2], %r4
    ret
";

/// Writes the kernel to a file of its own for test `name` (the tests
/// run in parallel).
fn kernel_file(name: &str) -> PathBuf {
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("penny_cli_{name}.ptx"));
    std::fs::write(&path, KERNEL).expect("write kernel");
    path
}

fn penny(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_penny")).args(args).output().expect("spawn penny")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `run --scheme Penny` over 128 threads of input, plus `extra` flags.
fn run(file: &str, extra: &[&str]) -> Output {
    let mut args = vec!["run", file, "--scheme", "Penny", "--param", "0x1000"];
    args.extend(["--fill", "0x1000", "128", "7", "--dump", "0x1000", "128"]);
    args.extend(extra);
    penny(&args)
}

fn dump_line(out: &Output) -> String {
    let text = stdout(out);
    text.lines().find(|l| l.starts_with("[0x")).expect("a --dump line").to_string()
}

fn recoveries(out: &Output) -> u64 {
    let text = stdout(out);
    let line =
        text.lines().find(|l| l.starts_with("recoveries:")).expect("recoveries line");
    line["recoveries:".len()..].trim().parse().expect("a count")
}

#[test]
fn check_and_compile_exit_zero() {
    let file = kernel_file("check");
    let file = file.to_str().expect("utf-8 path");
    let out = penny(&["check", file]);
    assert!(out.status.success(), "check: {out:?}");
    assert!(stdout(&out).starts_with("inc: ok"), "{}", stdout(&out));

    let out = penny(&["compile", file, "--scheme", "Penny"]);
    assert!(out.status.success(), "compile: {out:?}");
    assert!(stdout(&out).starts_with("scheme: Penny\n"), "{}", stdout(&out));
}

#[test]
fn an_unknown_scheme_token_names_the_accepted_ones() {
    let file = kernel_file("token");
    let out = penny(&["compile", file.to_str().expect("utf-8 path"), "--scheme", "penny"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for token in ["Baseline", "IGpu", "BoltGlobal", "BoltAuto", "Penny"] {
        assert!(err.contains(token), "{token} missing from: {err}");
    }
}

#[test]
fn an_injected_fault_is_recovered_to_the_fault_free_output() {
    let file = kernel_file("inject");
    let file = file.to_str().expect("utf-8 path");
    let clean = run(file, &[]);
    assert!(clean.status.success(), "fault-free run: {clean:?}");
    assert_eq!(recoveries(&clean), 0);

    // Bit 5 of register 2 in lane 3 of block 0's first warp, after its
    // sixth instruction: the compiled kernel's `%ntid.x` copy, which the
    // next `mad` reads.
    let faulty = run(file, &["--inject", "0,0,3,2,5,6"]);
    assert!(faulty.status.success(), "faulty run: {faulty:?}");
    assert!(recoveries(&faulty) >= 1, "{}", stdout(&faulty));
    assert_eq!(dump_line(&faulty), dump_line(&clean));
}
