//! The `penny-eval` command line: every target name and flag is checked
//! before any work starts, and a sharded exhaustive `conformance` run
//! answers exactly the positions its shard owns.

use std::process::{Command, Output};

use penny_bench::conformance::Shard;
use penny_bench::json::reports_from_json;

fn penny_eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_penny-eval"))
        .args(args)
        .output()
        .expect("spawn penny-eval")
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
