//! The `penny` command-line front end, driven as a process: `check`,
//! `compile` and `run` on a small kernel, scheme tokens, a fault
//! injected into a register the kernel reads (named by the number
//! `compile --emit` prints), usage errors, both flag forms, and a
//! closed stdout.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

/// `--inject`'s REG is the register number `compile --emit` prints. The
/// parser numbers registers in order of first appearance, so the
/// source's load address `%r2` is another register in the compiled
/// kernel: read it off the emitted load and inject there, right after
/// the instruction that computes it.
#[test]
fn inject_takes_the_register_number_compile_emit_prints() {
    let file = kernel_file("emit_reg");
    let file = file.to_str().expect("utf-8 path");
    let out = penny(&["compile", file, "--scheme", "Penny", "--emit"]);
    assert!(out.status.success(), "compile: {out:?}");
    let text = stdout(&out);
    // The compiled kernel is one block; region markers are not
    // instructions.
    let insts: Vec<&str> = text
        .lines()
        .map(str::trim)
        .skip_while(|l| !l.starts_with(".kernel"))
        .filter(|l| l.contains(' ') && !l.starts_with('.') && !l.starts_with("region"))
        .collect();
    let load =
        insts.iter().position(|l| l.starts_with("ld.global")).expect("a global load");
    let addr = insts[load]
        .split('[')
        .nth(1)
        .and_then(|a| a.strip_suffix(']'))
        .expect("a `[%rN]` address");
    assert!(insts[load - 1].starts_with(&format!("mad.u32 {addr},")), "{text}");
    let reg: u32 =
        addr.strip_prefix("%r").expect("a %r register").parse().expect("a number");
    assert_ne!(reg, 2, "the source's register numbers carried over:\n{text}");

    let clean = run(file, &[]);
    let inject = format!("0,0,3,{reg},5,{load}");
    let faulty = run(file, &["--inject", &inject]);
    assert!(faulty.status.success(), "faulty run: {faulty:?}");
    assert!(recoveries(&faulty) >= 1, "{}", stdout(&faulty));
    assert_eq!(dump_line(&faulty), dump_line(&clean));
}

#[test]
fn both_flag_forms_give_the_same_output() {
    let file = kernel_file("forms");
    let file = file.to_str().expect("utf-8 path");
    let spaced = penny(&["compile", file, "--scheme", "Baseline", "--grid", "2", "--emit"]);
    let joined = penny(&["compile", file, "--scheme=Baseline", "--grid=2", "--emit"]);
    assert!(spaced.status.success(), "{spaced:?}");
    assert_eq!(spaced.stdout, joined.stdout);
    let spaced = run(file, &["--inject", "0,0,3,2,5,6"]);
    let joined = run(file, &["--inject=0,0,3,2,5,6"]);
    assert!(spaced.status.success(), "{spaced:?}");
    assert_eq!(spaced.stdout, joined.stdout);
}

/// A usage error exits 2 with `penny: ` on stderr and nothing on
/// stdout; a file that cannot be read is still a failure (1).
#[test]
fn usage_errors_exit_2_and_failures_exit_1() {
    let file = kernel_file("usage");
    let file = file.to_str().expect("utf-8 path");
    let cases: &[&[&str]] = &[
        &[],
        &["compile"],
        &["bogus", file],
        &["compile", file, "extra"],
        &["compile", file, "--scheme", "penny"],
        &["compile", file, "--grid"],
        &["compile", file, "--grid", "x"],
        &["compile", file, "--emit=1"],
        &["compile", file, "--bogus"],
        &["run", file, "--inject", "0,0,3,2"],
        &["run", file, "--dump", "0x1000"],
    ];
    for &args in cases {
        let out = penny(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        assert!(err.starts_with("penny: "), "{args:?}: {err}");
    }
    let missing = format!("{file}.missing");
    let out = penny(&["check", &missing]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

/// `compile` compiles before it prints, so it meets the closed pipe on
/// its first write: it must stop there with status 0 and no panic.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let file = kernel_file("closed");
    let mut child = Command::new(env!("CARGO_BIN_EXE_penny"))
        .args([
            "compile",
            file.to_str().expect("utf-8 path"),
            "--scheme",
            "Penny",
            "--emit",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn penny");
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("wait for penny");
    let err = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
