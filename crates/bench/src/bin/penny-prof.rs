//! `penny-prof`: compile and run workloads with the observability layer
//! on, emitting one JSONL span per compiler pass, simulator run, and
//! context field.
//!
//! Usage:
//!
//! ```text
//! penny-prof [--workload ABBR]... [--all-workloads] [--corpus]
//!            [--scheme TOKEN] [--jobs N] [--json] [--summary] [--check]
//!            [--vulnerability] [--conformance BUDGET]
//!            [--assert-share PASS:PCT]
//! ```
//!
//! * `--workload ABBR` — profile one workload (repeatable);
//! * `--all-workloads` — profile every registered paper workload;
//! * `--corpus` — additionally profile the banked fuzz-regression
//!   kernels under `corpus/` (opt-in: the evaluation share gates are
//!   calibrated to the paper's 25 workloads);
//! * `--scheme TOKEN` — compiler/RF scheme, a `SchemeId` token:
//!   `Baseline`, `IGpu`, `BoltGlobal`, `BoltAuto` or `Penny` (default);
//! * `--jobs N` — fan the profiles across N harness workers
//!   (default 1: serial profiling gives the least noisy timings);
//! * `--json` — emit spans as JSONL on stdout (the default output);
//! * `--summary` — print aggregated pass-timing and run-metric tables
//!   instead of (or after) the JSONL stream; with `--conformance` a
//!   campaign table (sites, forks, snapshots, replayed/skipped
//!   instructions, CoW pages) follows;
//! * `--check` — validate every emitted line against the span schema
//!   (`penny_obs::schema`); exit nonzero on any violation;
//! * `--vulnerability` — compile with the static vulnerability analysis
//!   enabled, so the `vulnerability` pass span (site-class counters
//!   included) appears in the stream and summary;
//! * `--conformance BUDGET` — additionally run a BUDGET-site
//!   snapshot/replay conformance sweep per workload, capturing its
//!   `campaign` and per-replay `site` spans into the stream;
//! * `--assert-share PASS:PCT` — exit nonzero if `PASS`'s share of
//!   total pass time exceeds `PCT` percent (CI guardrail; see
//!   `scripts/verify.sh`).
//!
//! Exit status: 0 clean; 1 a schema violation under `--check` or a
//! pass share over its `--assert-share` limit; 2 a usage error, or a
//! workload that fails to run, check or recover.
//!
//! Compiles go through the content-addressed harness cache
//! (`penny_bench::cache`) with this invocation's recorder, so each
//! profile observes the one real (cache-miss) pipeline execution of its
//! key, and the cache's hit/miss/eviction/in-flight counters are
//! appended to the stream as `cache`-kind spans (subject
//! `compile-cache`, workload `harness`).

use std::collections::BTreeMap;

use penny_bench::{cli, out, SchemeId};
use penny_obs::{MemRecorder, Span, SpanKind};
use penny_sim::{Gpu, GpuConfig};
use penny_workloads::Workload;

/// Spans collected for one workload.
struct Profiled {
    abbr: &'static str,
    spans: Vec<Span>,
}

/// Compiles and runs `w` under `scheme` with a live recorder; returns
/// every span the pipeline and simulator emitted. The compile goes
/// through the harness content cache: a first-touch key records its
/// full pass-span stream here; a repeated key (e.g. `--workload STC
/// --workload STC`) is a cache hit and contributes only sim spans.
fn profile(w: &Workload, scheme: SchemeId, vulnerability: bool) -> Profiled {
    let rec = MemRecorder::new();
    let cfg = scheme.config().with_launch(w.dims).with_vulnerability(vulnerability);
    let protected = penny_bench::cache::compiled_with(w, &cfg, &rec);
    let mut gpu = Gpu::new(GpuConfig::fermi().with_rf(scheme.rf()));
    let launch = w.prepare(gpu.global_mut());
    gpu.run_observed(&protected, &launch, &rec)
        .unwrap_or_else(|e| cli::die(format!("{}: run: {e}", w.abbr)));
    if !w.check(gpu.global()) {
        cli::die(format!("{}: wrong output under {scheme:?}", w.abbr));
    }
    Profiled { abbr: w.abbr, spans: rec.take() }
}

/// Pipeline execution order of the known pass labels; the summary
/// table lists passes in this order (unknown labels follow,
/// alphabetically) so rows never reshuffle between runs.
const PASS_ORDER: &[&str] = &[
    "region-formation",
    "checkpoint-placement",
    "overwrite-prevention",
    "validation",
    "pruning",
    "restore-metadata",
    "igpu-renaming",
    "storage-assignment",
    "codegen",
    "vulnerability",
];

fn pass_rank(label: &str) -> (usize, &str) {
    (PASS_ORDER.iter().position(|&p| p == label).unwrap_or(PASS_ORDER.len()), label)
}

/// Aggregated pass timing across every profiled workload: per-pass span
/// count, total/mean wall time, and each pass's share of total pass
/// time, in stable pipeline order.
fn pass_summary(profiles: &[Profiled]) -> String {
    use std::fmt::Write as _;
    // pass label -> (spans, total ns)
    let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for p in profiles {
        for s in p.spans.iter().filter(|s| s.kind == SpanKind::Pass) {
            let e = agg.entry(s.label.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.wall_ns;
        }
    }
    let grand: u64 = agg.values().map(|&(_, ns)| ns).sum();
    let mut rows: Vec<(&str, u64, u64)> =
        agg.into_iter().map(|(pass, (n, ns))| (pass, n, ns)).collect();
    rows.sort_by_key(|&(pass, _, _)| pass_rank(pass));
    let mut out = String::new();
    // The synthetic harness-cache entry carries no pass spans; keep the
    // workload count honest.
    let nworkloads = profiles
        .iter()
        .filter(|p| p.spans.iter().any(|s| s.kind != SpanKind::Cache))
        .count();
    let _ = writeln!(out, "\n== Pass timing ({nworkloads} workloads) ==");
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>14} {:>12} {:>8}",
        "pass", "spans", "total_ns", "mean_ns", "share"
    );
    for (pass, n, ns) in &rows {
        let _ = writeln!(
            out,
            "{pass:<22} {n:>7} {ns:>14} {:>12} {:>7.1}%",
            ns / n.max(&1),
            100.0 * *ns as f64 / grand.max(1) as f64
        );
    }
    out
}

/// Share (percent) of total pass time spent in `label` across the
/// profiles, or `None` if no such pass span exists.
fn pass_share(profiles: &[Profiled], label: &str) -> Option<f64> {
    let mut target = 0u64;
    let mut grand = 0u64;
    for p in profiles {
        for s in p.spans.iter().filter(|s| s.kind == SpanKind::Pass) {
            grand += s.wall_ns;
            if s.label == label {
                target += s.wall_ns;
            }
        }
    }
    (target > 0).then(|| 100.0 * target as f64 / grand.max(1) as f64)
}

/// Snapshot/replay campaign metrics: one row per `campaign` span
/// (sites answered, forked replays, snapshots, replayed vs skipped
/// instructions, CoW pages copied, wall time).
fn campaign_summary(profiles: &[Profiled]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Conformance campaigns (snapshot/replay) ==");
    let _ = writeln!(
        out,
        "{:<6} {:<12} {:>8} {:>7} {:>6} {:>12} {:>14} {:>8} {:>10}",
        "wkld",
        "scheme",
        "sites",
        "forks",
        "snaps",
        "replayed",
        "skipped",
        "pages",
        "wall_ms"
    );
    for p in profiles {
        for s in p.spans.iter().filter(|s| s.kind == SpanKind::Campaign) {
            let c = |name: &str| s.counter(name).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<6} {:<12} {:>8} {:>7} {:>6} {:>12} {:>14} {:>8} {:>10.1}",
                p.abbr,
                s.label,
                c("sites"),
                c("forks"),
                c("snapshots"),
                c("replayed_insts"),
                c("skipped_insts"),
                c("pages_copied"),
                s.wall_ns as f64 / 1e6
            );
        }
    }
    out
}

/// Per-workload simulator run metrics.
fn sim_summary(profiles: &[Profiled]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Simulator runs ==");
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "wkld", "cycles", "skipped", "rf_reads", "rf_writes", "recover", "reexec"
    );
    for p in profiles {
        for s in p.spans.iter().filter(|s| s.kind == SpanKind::Sim) {
            let c = |name: &str| s.counter(name).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<6} {:>12} {:>14} {:>12} {:>12} {:>10} {:>10}",
                p.abbr,
                c("cycles"),
                c("skipped_cycles"),
                c("rf_reads"),
                c("rf_writes"),
                c("recoveries"),
                c("reexec_instructions")
            );
        }
    }
    out
}

fn main() {
    let mut abbrs: Vec<String> = Vec::new();
    let mut all = false;
    let mut corpus = false;
    let mut scheme = SchemeId::Penny;
    let mut jobs: usize = 1;
    let mut json = false;
    let mut summary = false;
    let mut check = false;
    let mut vulnerability = false;
    let mut conformance_budget: Option<u64> = None;
    let mut assert_share: Option<(String, f64)> = None;

    let mut args = cli::Args::from_env("penny-prof");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => abbrs.push(args.value()),
            "--scheme" => scheme = args.scheme(),
            "--jobs" => jobs = args.positive(),
            "--assert-share" => assert_share = Some(args.parse(parse_assert_share)),
            "--conformance" => conformance_budget = Some(args.positive()),
            "--all-workloads" => all = true,
            "--corpus" => corpus = true,
            "--json" => json = true,
            "--summary" => summary = true,
            "--check" => check = true,
            "--vulnerability" => vulnerability = true,
            _ => args.unknown(),
        }
    }
    if !json && !summary {
        json = true; // JSONL is the default output
    }

    let mut workloads: Vec<Workload> = if all {
        if !abbrs.is_empty() {
            cli::die("--all-workloads conflicts with --workload");
        }
        penny_workloads::all()
    } else if abbrs.is_empty() && !corpus {
        cli::die("nothing to profile: pass --workload ABBR, --all-workloads, or --corpus")
    } else {
        abbrs
            .iter()
            .map(|a| {
                penny_workloads::by_abbr(a)
                    .unwrap_or_else(|| cli::die(format!("unknown workload `{a}`")))
            })
            .collect()
    };
    // Banked fuzz kernels are opt-in: the evaluation pass-share gates
    // are calibrated to the paper's 25 workloads.
    if corpus {
        workloads.extend(penny_workloads::corpus::corpus().iter().cloned());
    }

    penny_bench::set_jobs(jobs);
    // Fan the (workload, config) profiles across the parallel harness;
    // results come back in input order, so output is deterministic for
    // any job count. Then append the harness cache counters as
    // `cache`-kind spans so the stream reports cache effectiveness.
    let mut profiles: Vec<Profiled> =
        penny_bench::parallel_map(&workloads, |w| profile(w, scheme, vulnerability));

    // Snapshot/replay conformance sweeps run serially with the
    // process-global sink installed (the sweep itself already fans its
    // sites across the `--jobs` workers), capturing one `campaign` span
    // plus a `site` span per forked replay group into each workload's
    // stream.
    if let Some(budget) = conformance_budget {
        for (w, p) in workloads.iter().zip(&mut profiles) {
            let rec = std::sync::Arc::new(MemRecorder::new());
            penny_bench::obs::set_recorder(rec.clone());
            let report = penny_bench::conformance::run_conformance(w.abbr, scheme, budget);
            penny_bench::obs::clear_recorder();
            if !report.failures.is_empty() {
                cli::die(format!(
                    "{}: {} conformance sites failed to recover under {scheme:?}",
                    w.abbr,
                    report.covered - report.recovered
                ));
            }
            p.spans.extend(rec.take());
        }
    }
    {
        let rec = MemRecorder::new();
        penny_bench::cache::record_cache_spans(&rec);
        profiles.push(Profiled { abbr: "harness", spans: rec.take() });
    }

    let mut violations = 0u64;
    if json || check {
        let mut stdout = String::new();
        for p in &profiles {
            for s in &p.spans {
                let line =
                    s.to_jsonl_with(&[("workload", p.abbr), ("scheme", scheme.name())]);
                if check {
                    if let Err(e) = penny_obs::schema::validate_line(&line) {
                        eprintln!("penny-prof: schema violation: {e}\n  in: {line}");
                        violations += 1;
                    }
                }
                if json {
                    stdout.push_str(&line);
                    stdout.push('\n');
                }
            }
        }
        out!("{stdout}");
    }

    if summary {
        out!("{}", pass_summary(&profiles));
        out!("{}", sim_summary(&profiles));
        if profiles.iter().any(|p| p.spans.iter().any(|s| s.kind == SpanKind::Campaign)) {
            out!("{}", campaign_summary(&profiles));
        }
    }

    if check {
        let total: usize = profiles.iter().map(|p| p.spans.len()).sum();
        eprintln!("penny-prof: checked {total} spans, {violations} schema violations");
        if violations > 0 {
            std::process::exit(1);
        }
    }

    if let Some((pass, limit)) = assert_share {
        match pass_share(&profiles, &pass) {
            Some(share) if share > limit => {
                eprintln!(
                    "penny-prof: pass `{pass}` share {share:.1}% exceeds limit {limit:.1}%"
                );
                std::process::exit(1);
            }
            Some(share) => {
                eprintln!("penny-prof: pass `{pass}` share {share:.1}% <= {limit:.1}%")
            }
            None => cli::die(format!("--assert-share: no spans for pass `{pass}`")),
        }
    }
}

/// Parses `PASS:PCT` (e.g. `overwrite-prevention:35`).
fn parse_assert_share(v: &str) -> Result<(String, f64), &'static str> {
    let (pass, pct) = v.rsplit_once(':').ok_or("needs PASS:PCT")?;
    let limit: f64 = pct
        .parse()
        .ok()
        .filter(|p: &f64| p.is_finite() && *p >= 0.0)
        .ok_or("PCT must be a non-negative number")?;
    Ok((pass.to_string(), limit))
}
