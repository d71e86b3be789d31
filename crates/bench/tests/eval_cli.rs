//! The command lines of `penny-eval`, `penny-herd`, `penny-lint` and
//! `penny-prof` (`penny_bench::cli`): every target name and flag is
//! checked before any work starts, a usage error exits 2 with the
//! tool's prefix and nothing on stdout, both flag forms read the same
//! value, a closed stdout ends each tool quietly with status 0, and
//! sharded exhaustive runs answer exactly the positions their shards
//! own.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use penny_bench::conformance::{merge_reports, Shard};
use penny_bench::json::reports_from_json;

fn penny_eval(args: &[&str]) -> Output {
    tool("penny-eval", args)
}

/// Runs one of the crate's binaries to completion.
fn tool(name: &str, args: &[&str]) -> Output {
    Command::new(binary(name)).args(args).output().expect("spawn the tool")
}

fn binary(name: &str) -> &'static str {
    match name {
        "penny-eval" => env!("CARGO_BIN_EXE_penny-eval"),
        "penny-herd" => env!("CARGO_BIN_EXE_penny-herd"),
        "penny-lint" => env!("CARGO_BIN_EXE_penny-lint"),
        "penny-prof" => env!("CARGO_BIN_EXE_penny-prof"),
        other => panic!("no binary {other}"),
    }
}

/// A fresh directory under the system temp dir for test `name`.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("penny-cli-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Unknown targets and flags (the retired ones among them) exit 2 with a
/// `penny-eval:` message and nothing on stdout — even where a valid
/// target, or `all`, comes first.
#[test]
fn unknown_targets_and_flags_exit_2_before_any_output() {
    let cases: &[&[&str]] = &[
        &["conformance-exhaustive"],
        &["static-agreement"],
        &["campaign"],
        &["--bench-json", "conformance"],
        &["--min-speedup", "20", "conformance"],
        &["--min-prune", "0.5", "vulnerability"],
        &["--runs", "100", "multibit"],
        &["all", "bogus-target"],
        &["--workloads", "MT", "table3", "bogus-target"],
        &["--budget", "0", "conformance"],
    ];
    for &args in cases {
        let out = penny_eval(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        assert!(stderr.starts_with("penny-eval: "), "{args:?}: {stderr}");
    }
}

/// `--budget all` sweeps every site; the shard's report, read back from
/// `--report-json`, answers exactly the positions shard 1/2 owns.
#[test]
fn sharded_exhaustive_sweep_answers_the_positions_it_owns() {
    let path = std::env::temp_dir()
        .join(format!("penny-eval-cli-test-{}-shard.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = penny_eval(&[
        "conformance",
        "--workloads",
        "MT",
        "--schemes",
        "Penny",
        "--budget",
        "all",
        "--shard",
        "1/2",
        "--report-json",
        path_arg,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reports = reports_from_json(&std::fs::read_to_string(&path).expect("report JSON"))
        .expect("parse report JSON");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!((r.workload, r.variant, r.shard), ("MT", "Penny", (1, 2)));
    let shard = Shard { index: 1, count: 2 };
    assert_eq!(r.covered + r.pruned_static, shard.owned_count(r.total));
    assert_eq!(r.covered + r.pruned_static + r.skipped, r.total);
    assert!(r.failures.is_empty());
}

/// Each tool works before it prints, so it meets the closed pipe on its
/// first write: it must stop there with status 0 and no panic.
#[test]
fn a_closed_stdout_ends_each_tool_quietly() {
    let out = scratch("closed-stdout");
    let out_arg = format!("--out={}", out.display());
    let cases: &[(&str, &[&str])] = &[
        (
            "penny-eval",
            &[
                "--jobs=1",
                "--workloads=MT",
                "--schemes=Penny",
                "--budget=all",
                "conformance",
            ],
        ),
        (
            "penny-herd",
            &[
                "--workloads=MT",
                "--schemes=Penny",
                "--budget=64",
                "--shards=1",
                "--jobs=1",
                &out_arg,
            ],
        ),
        ("penny-lint", &["--allow=shared-race", "--refinement-table"]),
        ("penny-prof", &["--all-workloads", "--jobs=1", "--summary"]),
    ];
    for &(name, args) in cases {
        let mut child = Command::new(binary(name))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the tool");
        drop(child.stdout.take());
        let done = child.wait_with_output().expect("wait for the tool");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(0), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// A usage error exits 2 with the tool's prefix on stderr and nothing
/// on stdout. `penny-herd --budget 0` is one, raised before any shard
/// spawns (its `--out` directory is never created).
#[test]
fn usage_errors_exit_2_with_the_tool_prefix() {
    let out = scratch("usage");
    let out_arg = format!("--out={}", out.display());
    let cases: &[(&str, &[&str])] = &[
        ("penny-eval", &["--jobs=0", "table1"]),
        ("penny-eval", &["--static-prune=yes", "conformance"]),
        ("penny-eval", &["--schemes", "penny", "conformance"]),
        ("penny-herd", &["--budget", "0", "--shards", "1", "--retries", "0", &out_arg]),
        ("penny-herd", &["--budget=0", &out_arg]),
        ("penny-herd", &["--shards", "0", &out_arg]),
        ("penny-herd", &["--jobs=0", &out_arg]),
        ("penny-herd", &["--workloads", "NOPE", &out_arg]),
        ("penny-herd", &["--retries", "-1", &out_arg]),
        ("penny-herd", &["conformance", &out_arg]),
        ("penny-lint", &[]),
        ("penny-lint", &["--json=1", "MT"]),
        ("penny-lint", &["--launch", "1,2,3,4,5", "MT"]),
        ("penny-lint", &["--bogus", "MT"]),
        ("penny-prof", &["--workload", "MT", "--jobs", "0"]),
        ("penny-prof", &["--workload=MT", "--scheme=penny"]),
        ("penny-prof", &["--workload", "MT", "--conformance"]),
        ("penny-prof", &["MT"]),
    ];
    for &(name, args) in cases {
        let done = tool(name, args);
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(done.stdout.is_empty(), "{name} {args:?} printed before failing");
        assert!(stderr.starts_with(&format!("{name}: ")), "{name} {args:?}: {stderr}");
    }
    assert!(!out.exists(), "a rejected campaign spawned shards");
}

/// Both flag forms read the same value.
#[test]
fn both_flag_forms_give_the_same_output() {
    let pairs: &[(&str, &[&str], &[&str])] = &[
        ("penny-eval", &["--jobs", "1", "table3"], &["--jobs=1", "table3"]),
        (
            "penny-lint",
            &["--launch", "64,1,4,1", "--allow", "x", "MT"],
            &["--launch=64,1,4,1", "--allow=x", "MT"],
        ),
        (
            "penny-prof",
            &["--workload", "MT", "--scheme", "Baseline", "--json"],
            &["--workload=MT", "--scheme=Baseline", "--json"],
        ),
    ];
    for &(name, spaced, joined) in pairs {
        let (a, b) = (tool(name, spaced), tool(name, joined));
        assert!(
            a.status.success(),
            "{name} {spaced:?}: {}",
            String::from_utf8_lossy(&a.stderr)
        );
        assert_eq!(a.status.code(), b.status.code(), "{name} {joined:?}");
        // penny-prof's spans carry wall times; compare the rest.
        let strip = |o: &Output| {
            String::from_utf8_lossy(&o.stdout)
                .split("\"wall_ns\":")
                .map(|part| part.trim_start_matches(|c: char| c.is_ascii_digit()))
                .collect::<String>()
        };
        assert_eq!(strip(&a), strip(&b), "{name} {joined:?}");
    }
}

/// `penny-herd --budget all` sweeps every site of the space across its
/// shards: the shard reports merge into one that skips nothing.
#[test]
fn herd_takes_budget_all() {
    let out = scratch("budget-all");
    let out_arg = format!("--out={}", out.display());
    let args =
        ["--workloads", "MT", "--schemes", "Penny", "--budget", "all", "--shards", "2"];
    let done = tool("penny-herd", &[&args[..], &["--jobs", "1", &out_arg]].concat());
    assert_eq!(done.status.code(), Some(0), "{}", String::from_utf8_lossy(&done.stderr));
    let mut reports = Vec::new();
    for index in 0..2 {
        let text = std::fs::read_to_string(out.join(format!("shard_{index}.json")))
            .expect("shard report");
        reports.extend(reports_from_json(&text).expect("parse shard report"));
    }
    let merged = merge_reports(&reports).expect("the shard reports merge");
    assert_eq!(merged.skipped, 0);
    assert_eq!(merged.covered + merged.pruned_static, merged.total);
    let _ = std::fs::remove_dir_all(&out);
}
