//! `penny-herd`: fleet-scale conformance campaign orchestration.
//!
//! Fans a conformance campaign out across `--shards` local `penny-eval`
//! processes (sample-position sharding), supervises them with
//! per-attempt timeouts and bounded retry-with-backoff, and merges the
//! surviving shard reports. Determinism makes the merge exact: a full
//! merge renders byte-identically to the unsharded run, and a campaign
//! that lost a shard permanently is *labelled* partial with the missing
//! shard indices named.
//!
//! Usage:
//!
//! ```text
//! penny-herd [--workloads A,B] [--schemes X,Y] [--budget N]
//!            [--shards N] [--jobs N] [--timeout SECS] [--retries N]
//!            [--backoff-ms MS] [--out DIR] [--recording-store DIR]
//!            [--check-against FILE] [--eval PATH]
//! ```
//!
//! * `--workloads` / `--schemes` — the campaign matrix (defaults:
//!   `MT` under `Penny`). Scheme tokens: `Baseline`, `IGpu`,
//!   `BoltGlobal`, `BoltAuto`, `Penny`.
//! * `--budget` — samples per pair, split across the shards.
//! * `--shards` — shard process count (default 4).
//! * `--timeout` — per-attempt wall-clock limit (default 600 s).
//! * `--retries` — re-runs after a failed attempt (default 2);
//!   `--backoff-ms` is the first retry delay, doubling per retry.
//! * `--out` — where shard report (and span) files land.
//! * `--recording-store` — shared content-addressed recording store;
//!   warm campaigns skip the fault-free record phase (see
//!   `DESIGN.md` §16).
//! * `--check-against FILE` — a report JSON written by an *unsharded*
//!   `penny-eval --report-json`; the merged campaign must render
//!   byte-identically (the `scripts/verify.sh` gate).
//! * `--eval PATH` — the shard binary (default: `penny-eval` next to
//!   this executable). Tests point this at crash-injecting wrappers.
//!
//! A shard that exits 0, or 1 with every report complete (a site failed
//! or a static claim was contradicted), is merged with its failures; a
//! shard that crashes, is killed, or exits otherwise (3: a report missed
//! positions the shard owns) is retried.
//!
//! Exit status: 0 clean; 1 site failures, static disagreements or a
//! `--check-against` mismatch; 2 usage errors; 3 campaign completed but
//! partial.

use std::path::PathBuf;
use std::time::Duration;

use penny_bench::herd::{CampaignSpec, CommandTemplate};
use penny_bench::{conformance, SchemeId};

fn main() {
    let mut spec = CampaignSpec {
        workloads: vec!["MT".to_string()],
        schemes: vec![SchemeId::Penny],
        budget: 2000,
        shards: 4,
        jobs_per_shard: std::thread::available_parallelism().map_or(1, |n| n.get()),
        timeout: Duration::from_secs(600),
        retries: 2,
        backoff: Duration::from_millis(250),
        out_dir: PathBuf::from("herd-out"),
        recording_store: None,
        shard_obs: true,
    };
    let mut template = CommandTemplate::penny_eval();
    let mut check_against: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut flag = |name: &str| -> Option<String> {
            if a == name {
                Some(args.next().unwrap_or_else(|| die(&format!("{name} needs a value"))))
            } else {
                a.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(v) = flag("--workloads") {
            spec.workloads = v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect();
        } else if let Some(v) = flag("--schemes") {
            spec.schemes = v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|tok| {
                    SchemeId::from_token(tok).unwrap_or_else(|| {
                        die(&format!("--schemes: {}", SchemeId::unknown_token(tok)))
                    })
                })
                .collect();
        } else if let Some(v) = flag("--budget") {
            spec.budget =
                v.parse().unwrap_or_else(|_| die("--budget needs a non-negative integer"));
        } else if let Some(v) = flag("--shards") {
            spec.shards =
                v.parse().unwrap_or_else(|_| die("--shards needs a positive integer"));
        } else if let Some(v) = flag("--jobs") {
            spec.jobs_per_shard =
                v.parse().unwrap_or_else(|_| die("--jobs needs a positive integer"));
        } else if let Some(v) = flag("--timeout") {
            spec.timeout = Duration::from_secs(
                v.parse().unwrap_or_else(|_| die("--timeout needs seconds")),
            );
        } else if let Some(v) = flag("--retries") {
            spec.retries = v.parse().unwrap_or_else(|_| die("--retries needs an integer"));
        } else if let Some(v) = flag("--backoff-ms") {
            spec.backoff = Duration::from_millis(
                v.parse().unwrap_or_else(|_| die("--backoff-ms needs milliseconds")),
            );
        } else if let Some(v) = flag("--out") {
            spec.out_dir = PathBuf::from(v);
        } else if let Some(v) = flag("--recording-store") {
            spec.recording_store = Some(PathBuf::from(v));
        } else if let Some(v) = flag("--check-against") {
            check_against = Some(v);
        } else if let Some(v) = flag("--eval") {
            template.program = PathBuf::from(v);
        } else {
            die(&format!("unknown argument {a:?}"));
        }
    }
    if spec.shards == 0 {
        die("--shards needs a positive integer");
    }
    if spec.jobs_per_shard == 0 {
        die("--jobs needs a positive integer");
    }

    eprintln!(
        "penny-herd: {} workload(s) x {} scheme(s), budget {}, {} shard(s), \
         timeout {:?}, {} retries",
        spec.workloads.len(),
        spec.schemes.len(),
        spec.budget,
        spec.shards,
        spec.timeout,
        spec.retries
    );
    let outcome = penny_bench::herd::run_campaign(&spec, &template)
        .unwrap_or_else(|e| die(&format!("campaign failed: {e}")));

    let mut site_failures = false;
    let mut rendered = String::new();
    for m in &outcome.merged {
        rendered.push_str(&conformance::render_report(&m.report));
        if m.partial {
            rendered.push_str(&format!(
                "       PARTIAL: missing shard(s) {:?} of {} — counts cover surviving \
                 shards only\n",
                m.missing_shards, spec.shards
            ));
        }
        site_failures |= !m.report.failures.is_empty() || m.report.static_disagreements > 0;
    }
    print!("{rendered}");
    for s in &outcome.shards {
        if s.attempts > 1 || !s.ok {
            eprintln!(
                "penny-herd: shard {}/{}: {} after {} attempt(s)",
                s.index,
                spec.shards,
                if s.ok { "recovered" } else { "FAILED" },
                s.attempts
            );
        }
    }

    if let Some(path) = check_against {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
        let reference = penny_bench::json::reports_from_json(&text)
            .unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
        let expected: String = reference.iter().map(conformance::render_report).collect();
        if outcome.partial {
            eprintln!("penny-herd: check-against skipped — campaign is partial");
        } else if rendered != expected {
            eprintln!("penny-herd: merged campaign does NOT render identically to {path}");
            std::process::exit(1);
        } else {
            eprintln!("penny-herd: merged campaign renders byte-identical to {path}");
        }
    }

    if site_failures {
        std::process::exit(1);
    }
    if outcome.partial {
        eprintln!("penny-herd: campaign is PARTIAL (see missing shards above)");
        std::process::exit(3);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("penny-herd: {msg}");
    std::process::exit(2);
}
