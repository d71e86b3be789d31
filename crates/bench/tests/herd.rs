//! End-to-end tests for the `penny-herd` shard driver: crash-injected
//! retry reproducing the unsharded report byte-for-byte, graceful
//! degradation to a labelled partial report, warm recording-store
//! reuse across a whole campaign, and failed sites merged as a verdict
//! rather than retried as a crash.
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use penny_bench::conformance::{render_report, run_conformance};
use penny_bench::herd::{run_campaign, CampaignSpec, CommandTemplate};
use penny_bench::SchemeId;
use penny_obs::json;

/// A fresh scratch directory under the system temp dir (unique per
/// process and test).
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("penny-herd-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes an executable wrapper around the real `penny-eval` that
/// injects a crash (exit 7) into shard 1's attempts: the first
/// `crashes` invocations carrying `--shard 1/N` die before doing any
/// work, later ones run for real. Crash bookkeeping lives in marker
/// files inside `dir`, so retries of one test don't see another's.
fn crashy_eval(dir: &Path, crashes: u32) -> PathBuf {
    use std::os::unix::fs::PermissionsExt;
    let eval = env!("CARGO_BIN_EXE_penny-eval");
    let script = dir.join("crashy-eval.sh");
    let markers = dir.join("crash-markers");
    std::fs::create_dir_all(&markers).expect("create marker dir");
    std::fs::write(
        &script,
        format!(
            "#!/bin/sh\n\
             case \" $* \" in\n\
             *\" --shard 1/\"*)\n\
             \tn=0\n\
             \twhile [ -e \"{markers}/$n\" ]; do n=$((n+1)); done\n\
             \tif [ \"$n\" -lt {crashes} ]; then : > \"{markers}/$n\"; exit 7; fi;;\n\
             esac\n\
             exec \"{eval}\" \"$@\"\n",
            markers = markers.display(),
        ),
    )
    .expect("write wrapper");
    let mut perms = std::fs::metadata(&script).expect("stat wrapper").permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(&script, perms).expect("chmod wrapper");
    script
}

fn spec(dir: &Path, budget: u64, retries: u32) -> CampaignSpec {
    CampaignSpec {
        workloads: vec!["MT".to_string()],
        schemes: vec![SchemeId::Penny],
        budget,
        shards: 2,
        jobs_per_shard: 2,
        timeout: Duration::from_secs(300),
        retries,
        backoff: Duration::from_millis(50),
        out_dir: dir.join("out"),
        recording_store: Some(dir.join("rec")),
        shard_obs: true,
    }
}

#[test]
fn killed_shard_is_retried_and_the_merge_is_byte_identical() {
    let dir = scratch("retry");
    let budget = 96;
    let template = CommandTemplate { program: crashy_eval(&dir, 1), args: Vec::new() };
    let outcome = run_campaign(&spec(&dir, budget, 2), &template).expect("campaign");

    // The crash was absorbed: one retry, no permanent failure.
    assert!(!outcome.partial, "one crash within the retry budget must not go partial");
    assert!(outcome.failed_shards().is_empty());
    assert_eq!(outcome.shards[0].attempts, 1, "shard 0 is never crashed");
    assert_eq!(outcome.shards[1].attempts, 2, "shard 1 crashes once, then recovers");

    // Determinism across the crash/retry/process boundary: the merged
    // campaign renders byte-identically to the in-process unsharded run.
    assert_eq!(outcome.merged.len(), 1);
    let merged = &outcome.merged[0];
    assert!(merged.missing_shards.is_empty());
    let unsharded = run_conformance("MT", SchemeId::Penny, budget);
    assert_eq!(render_report(&merged.report), render_report(&unsharded));

    // Second, warm campaign: every shard finds its recording in the
    // store — the spans written by the shard processes prove the record
    // phase was skipped.
    let warm_dir = dir.join("warm");
    let mut warm = spec(&dir, budget, 0);
    warm.out_dir = warm_dir.clone();
    let template = CommandTemplate {
        program: PathBuf::from(env!("CARGO_BIN_EXE_penny-eval")),
        args: Vec::new(),
    };
    let outcome = run_campaign(&warm, &template).expect("warm campaign");
    assert!(!outcome.partial);
    assert_eq!(render_report(&outcome.merged[0].report), render_report(&unsharded));
    for index in 0..warm.shards {
        let obs =
            std::fs::read_to_string(warm_dir.join(format!("shard_{index}.obs.jsonl")))
                .expect("shard obs stream");
        let store_line = obs
            .lines()
            .find(|l| l.contains("\"subject\":\"recording-store\""))
            .expect("recording-store span present");
        let span = json::parse(store_line).expect("valid span line");
        let counters = json::field(span.obj("span").unwrap(), "counters")
            .and_then(|c| c.obj("counters"))
            .expect("counters must be a map");
        let count = |name| json::num_field(counters, name).expect("counter present");
        assert!(count("hits") >= 1, "warm shard {index} must hit the store");
        assert_eq!(count("misses"), 0, "warm shard {index} must not re-record");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_degrade_to_a_labelled_partial_report() {
    let dir = scratch("partial");
    let budget = 64;
    // Shard 1 crashes on every attempt (more crashes than the retry
    // budget ever allows), so it fails permanently.
    let template = CommandTemplate { program: crashy_eval(&dir, 100), args: Vec::new() };
    let outcome = run_campaign(&spec(&dir, budget, 1), &template).expect("campaign");

    assert!(outcome.partial, "a permanently failed shard must flag the campaign partial");
    assert_eq!(outcome.failed_shards(), vec![1], "the missing shard is named");
    assert_eq!(outcome.shards[1].attempts, 2, "retries=1 means two attempts");
    assert!(!outcome.shards[1].ok);

    // The partial merge stays internally consistent: shard 1's sites are
    // skipped, not invented, and the pair names its missing shard.
    assert_eq!(outcome.merged.len(), 1);
    let m = &outcome.merged[0];
    assert!(m.partial);
    assert_eq!(m.missing_shards, vec![1]);
    let r = &m.report;
    assert_eq!(r.covered + r.skipped + r.pruned_static, r.total);
    let unsharded = run_conformance("MT", SchemeId::Penny, budget);
    assert!(r.covered < unsharded.covered, "a partial report covers strictly less");
    assert!(r.covered > 0, "the surviving shard's sites are still covered");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_shard_is_killed_by_the_timeout() {
    let dir = scratch("timeout");
    // A "shard" that sleeps forever: every attempt times out, so the
    // campaign degrades to partial on every shard.
    let script = dir.join("sleepy.sh");
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::write(&script, "#!/bin/sh\nsleep 3600\n").expect("write wrapper");
        let mut p = std::fs::metadata(&script).expect("stat").permissions();
        p.set_mode(0o755);
        std::fs::set_permissions(&script, p).expect("chmod");
    }
    let mut s = spec(&dir, 16, 0);
    s.timeout = Duration::from_millis(200);
    let template = CommandTemplate { program: script, args: Vec::new() };
    let outcome = run_campaign(&s, &template).expect("campaign");
    assert_eq!(outcome.failed_shards(), vec![0, 1]);
    // With no survivors there is nothing to merge — but the campaign
    // still completes and reports itself partial via the shard list.
    assert!(outcome.merged.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failing_sites_are_a_verdict_that_merges_not_a_crash() {
    let dir = scratch("verdict");
    let budget = 64;
    // The unprotected negative control: sites fail to recover, so each
    // shard exits 1 with a complete report. That is merged at once, not
    // retried.
    let mut s = spec(&dir, budget, 2);
    s.schemes = vec![SchemeId::Baseline];
    let eval = PathBuf::from(env!("CARGO_BIN_EXE_penny-eval"));
    let template = CommandTemplate { program: eval.clone(), args: Vec::new() };
    let outcome = run_campaign(&s, &template).expect("campaign");
    assert!(!outcome.partial, "a failed verdict is not a lost shard");
    assert!(outcome.failed_shards().is_empty());
    assert!(outcome.shards.iter().all(|s| s.attempts == 1), "nothing is retried");
    let merged = &outcome.merged[0];
    assert!(merged.missing_shards.is_empty());
    assert!(!merged.report.failures.is_empty(), "the merge keeps the failures");
    let unsharded = run_conformance("MT", SchemeId::Baseline, budget);
    assert_eq!(render_report(&merged.report), render_report(&unsharded));

    // The driver binary reports the failed sites with exit status 1.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_penny-herd"))
        .args(["--workloads", "MT", "--schemes", "Baseline", "--budget", "64"])
        .args(["--shards", "2", "--jobs", "1", "--eval"])
        .arg(&eval)
        .arg("--out")
        .arg(dir.join("bin"))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("run penny-herd");
    assert_eq!(status.code(), Some(1));

    let _ = std::fs::remove_dir_all(&dir);
}
