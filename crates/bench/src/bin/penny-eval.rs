//! `penny-eval`: regenerate the paper's tables and figures, and run the
//! fault-space sweeps behind its recovery claims.
//!
//! Usage:
//!
//! ```text
//! penny-eval [--jobs N] [--shard I/N] [--budget N|all]
//!            [--workloads A,B] [--schemes X,Y]
//!            [--static-prune | --static-validate]
//!            [--report-json PATH] [--recording-store DIR] [--obs-jsonl PATH]
//!            [table1|table2|table3|fig9|fig10|fig11|fig12|fig13|fig14|fig15|
//!             multibit|ablation|errorrate|conformance|vulnerability|all]...
//! ```
//!
//! No target means `all`, every table and figure
//! (`penny_bench::report::ALL_TARGETS`); `all` expands where it stands,
//! so `all conformance` also runs the sweep. Every name is checked
//! before any work starts: an unknown target or flag exits 2 with
//! nothing on stdout.
//!
//! `--jobs N` sets the worker-thread count (default: all available
//! cores). Results are bit-identical for every `N`; see
//! `penny_bench::parallel`.
//!
//! * `conformance` — one fault-space sweep per (workload, scheme) pair
//!   through the snapshot/replay engine. By default the deep sweep: MT,
//!   SPMV, SGEMM and BFS under the four protected schemes, `--budget`
//!   sites each (default 2000; `all` sweeps every site).
//!   `--workloads A,B` / `--schemes X,Y` replace the workload or scheme
//!   list with the named workload abbreviations or scheme tokens
//!   (`Baseline`, `IGpu`, `BoltGlobal`, `BoltAuto`, `Penny`).
//!   `--static-prune` answers statically classified sites without
//!   replaying them (`pruned-static` bucket); `--static-validate`
//!   replays them anyway and counts each claim the replay contradicts
//!   (translation validation; see `DESIGN.md` §15). `--shard I/N`
//!   covers only sample positions `pos % N == I`; shard reports merge
//!   bit-identically into the unsharded report
//!   (`penny_bench::conformance::merge_reports`).
//! * `vulnerability` — the analytic static profile: per workload ×
//!   scheme pruned-site fractions, plus a per-register residual-exposure
//!   (AVF-style) ranking for the deep-sweep workloads.
//!
//! Exit status, set after every pair has run and every file is
//! written: 0 clean; 1 (`penny_bench::herd::EXIT_VERDICT`) a site
//! failed to recover or a static claim was contradicted, with every
//! report complete; 2 a usage error, before any work; 3
//! (`penny_bench::herd::EXIT_INCOMPLETE`) a report did not answer
//! (cover or prune) exactly the positions its shard owns. `penny-herd`
//! merges the reports of a shard that exits 0 or 1 and retries any
//! other.
//!
//! File flags (`penny-herd` passes all three to its shard processes;
//! see `DESIGN.md` §16):
//!
//! * `--report-json PATH` writes every conformance report of the run as
//!   versioned JSON (`penny_bench::json`) — written even when sites
//!   fail, so the orchestrator can always merge what succeeded.
//! * `--recording-store DIR` persists fault-free recordings
//!   content-addressed under `DIR` (`penny_bench::recstore`); warm runs
//!   skip the record phase entirely.
//! * `--obs-jsonl PATH` writes every observability span as JSON lines:
//!   one `campaign` span per swept pair (its `wall_ns` is the pair's
//!   sweep time), plus the recording-store and compile-cache counters.

use std::sync::Arc;

use penny_bench::conformance::Shard;
use penny_bench::herd::{EXIT_INCOMPLETE, EXIT_VERDICT};
use penny_bench::{cli, conformance, out, outln, recstore, report, SchemeId, StaticMode};
use penny_obs::MemRecorder;

fn main() {
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shard = Shard::full();
    let mut budget: u64 = 2000;
    let mut mode = StaticMode::Off;
    let mut workloads: Option<Vec<String>> = None;
    let mut schemes: Option<Vec<SchemeId>> = None;
    let mut report_json: Option<String> = None;
    let mut recording_store: Option<String> = None;
    let mut obs_jsonl: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = cli::Args::from_env("penny-eval");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => jobs = args.positive(),
            "--shard" => shard = args.parse(Shard::parse),
            "--budget" => budget = args.budget(),
            "--workloads" => workloads = Some(args.workloads()),
            "--schemes" => schemes = Some(args.schemes()),
            "--report-json" => report_json = Some(args.value()),
            "--recording-store" => recording_store = Some(args.value()),
            "--obs-jsonl" => obs_jsonl = Some(args.value()),
            "--static-prune" => mode = StaticMode::Prune,
            "--static-validate" => mode = StaticMode::Validate,
            _ if a.starts_with('-') => args.unknown(),
            _ => targets.push(a),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    let targets: Vec<&str> = targets
        .iter()
        .flat_map(|t| match t.as_str() {
            "all" => report::ALL_TARGETS.to_vec(),
            t => vec![t],
        })
        .collect();
    let is_figure = |t: &&str| report::ALL_TARGETS.contains(t);
    if let Some(t) = targets
        .iter()
        .find(|t| !is_figure(t) && !matches!(**t, "conformance" | "vulnerability"))
    {
        cli::die(format!("unknown target `{t}` (try `all`)"));
    }

    if let Some(dir) = &recording_store {
        recstore::set_recording_store(std::path::Path::new(dir))
            .unwrap_or_else(|e| cli::die(format!("--recording-store {dir}: {e}")));
    }
    penny_bench::set_jobs(jobs);
    let recorder = obs_jsonl.as_ref().map(|_| {
        let rec = Arc::new(MemRecorder::new());
        penny_bench::obs::set_recorder(rec.clone());
        rec
    });
    if targets.iter().any(is_figure) {
        prewarm_figures();
    }
    let ws: Vec<&str> = match &workloads {
        Some(w) => w.iter().map(String::as_str).collect(),
        None => DEEP_SWEEP_WORKLOADS.to_vec(),
    };
    let ss = schemes.as_deref().unwrap_or(&DEEP_SWEEP_SCHEMES);
    let pairs: Vec<(&str, SchemeId)> =
        ws.iter().flat_map(|&w| ss.iter().map(move |&s| (w, s))).collect();

    // The worst status of any run: an incomplete report outranks a
    // failed verdict.
    let mut status = 0;
    for t in targets {
        match t {
            "conformance" => {
                status = status.max(conformance_cmd(
                    &pairs,
                    budget,
                    shard,
                    mode,
                    report_json.as_deref(),
                ));
            }
            "vulnerability" => vulnerability_cmd(),
            figure => out!("{}", report::render_target(figure).expect("checked above")),
        }
    }
    if let (Some(path), Some(rec)) = (&obs_jsonl, &recorder) {
        // Fold the process-wide cache counters in before dumping, so
        // the stream carries the compile-cache and recording-store
        // totals alongside the per-site spans.
        penny_bench::cache::record_cache_spans(rec.as_ref());
        recstore::record_store_span(rec.as_ref());
        let mut out = String::new();
        for span in rec.take() {
            out.push_str(&span.to_jsonl());
            out.push('\n');
        }
        std::fs::write(path, out)
            .unwrap_or_else(|e| cli::die(format!("writing {path}: {e}")));
    }
    if status != 0 {
        std::process::exit(status);
    }
}

/// The deep-sweep workloads.
const DEEP_SWEEP_WORKLOADS: [&str; 4] = ["MT", "SPMV", "SGEMM", "BFS"];

/// The deep-sweep (protected) schemes.
const DEEP_SWEEP_SCHEMES: [SchemeId; 4] =
    [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu];

/// `conformance`: sweeps each pair's share of `shard` through the
/// snapshot/replay engine. Returns the run's exit status:
/// [`EXIT_INCOMPLETE`] if any report missed a position its shard owns,
/// else [`EXIT_VERDICT`] if any site failed or any static claim was
/// contradicted, else 0 (the caller exits *after* the report JSON and
/// observability spans are flushed).
fn conformance_cmd(
    pairs: &[(&str, SchemeId)],
    budget: u64,
    shard: Shard,
    mode: StaticMode,
    report_json: Option<&str>,
) -> i32 {
    conformance::prewarm(pairs, mode);
    outln!(
        "== Conformance deep sweep (budget {}, shard {}/{}{}) ==",
        if budget == u64::MAX { "all".to_string() } else { budget.to_string() },
        shard.index,
        shard.count,
        match mode {
            StaticMode::Off => "",
            StaticMode::Prune => ", static-prune",
            StaticMode::Validate => ", static-validate",
        }
    );
    let mut status = 0;
    let mut reports = Vec::with_capacity(pairs.len());
    for &(abbr, scheme) in pairs {
        let r =
            conformance::run_conformance_static_sharded(abbr, scheme, budget, mode, shard);
        out!("{}", conformance::render_report(&r));
        outln!(
            "       work: {} forks, {} snapshots, {} pages copied, {} insts replayed \
             ({} cold)",
            r.work.forks,
            r.work.snapshots,
            r.work.pages_copied,
            r.work.replayed_insts,
            r.work.cold_insts
        );
        // Other shards' positions count as skipped; this shard's must
        // all be answered.
        let owned = shard.owned_count(budget.min(r.total));
        if r.covered + r.pruned_static != owned {
            eprintln!(
                "penny-eval: {abbr}/{}: answered {} sites, shard {}/{} owns {owned}",
                r.variant,
                r.covered + r.pruned_static,
                shard.index,
                shard.count
            );
            status = EXIT_INCOMPLETE;
        }
        if !r.failures.is_empty() || r.static_disagreements > 0 {
            status = status.max(EXIT_VERDICT);
        }
        reports.push(r);
    }
    if let Some(path) = report_json {
        let json = penny_bench::json::reports_to_json(&reports);
        std::fs::write(path, json)
            .unwrap_or_else(|e| cli::die(format!("writing {path}: {e}")));
    }
    status
}

/// `vulnerability`: the analytic static profile — per workload × scheme
/// pruned fractions, then the per-register residual-exposure ranking
/// for the deep-sweep workloads under Penny.
fn vulnerability_cmd() {
    const SCHEMES: [SchemeId; 4] =
        [SchemeId::IGpu, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::Penny];
    outln!("== Static vulnerability profile (site fractions of the full fault space) ==");
    for w in penny_workloads::all() {
        for scheme in SCHEMES {
            let p = penny_bench::static_profile(w.abbr, scheme);
            out!("{}", penny_bench::render_profile(&p, 0));
        }
    }
    outln!("== Per-register residual exposure (deep-sweep workloads, Penny) ==");
    for abbr in DEEP_SWEEP_WORKLOADS {
        let p = penny_bench::static_profile(abbr, SchemeId::Penny);
        out!("{}", penny_bench::render_profile(&p, 4));
    }
}

/// Batch-compiles the scheme x workload matrix every figure draws from,
/// fanning the cache misses across the `--jobs` workers up front. The
/// figures then start from cache hits, so their own (serial or
/// parallel) compile order no longer matters for wall time. Artifacts
/// are bit-identical with or without the prewarm: each entry is a pure
/// function of its content key, and in-flight dedup compiles each key
/// at most once.
fn prewarm_figures() {
    let mut pairs = Vec::new();
    for scheme in [
        SchemeId::Baseline,
        SchemeId::IGpu,
        SchemeId::BoltGlobal,
        SchemeId::BoltAuto,
        SchemeId::Penny,
    ] {
        for w in penny_workloads::all() {
            let cfg = scheme.config().with_launch(w.dims);
            pairs.push((w, cfg));
        }
    }
    let _ = penny_bench::cache::compile_batch(&pairs);
}
