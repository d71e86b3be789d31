//! `penny-eval`: regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! penny-eval [--jobs N] [--shard I/N] [--budget N] [--runs N]
//!            [--workloads A,B] [--schemes X,Y] [--report-json PATH]
//!            [--recording-store DIR] [--obs-jsonl PATH]
//!            [--bench-json] [--min-speedup X]
//!            [--static-prune] [--static-validate] [--min-prune X]
//!            [table1|table2|table3|fig9|fig10|fig11|fig12|fig13|fig14|fig15|
//!             multibit|ablation|errorrate|
//!             conformance|conformance-exhaustive|campaign|
//!             vulnerability|static-agreement|all]...
//! ```
//!
//! `--jobs N` sets the worker-thread count for the figure harness
//! (default: all available cores). Results are bit-identical for every
//! `N`; see `penny_bench::parallel`.
//!
//! Shard-process flags (what `penny-herd` drives; see `DESIGN.md` §16):
//!
//! * `--workloads A,B` / `--schemes X,Y` restrict the `conformance`
//!   matrix to the named workload abbreviations and scheme tokens
//!   (`Baseline`, `IGpu`, `BoltGlobal`, `BoltAuto`, `Penny`). When
//!   either is given, the global figure prewarm is skipped so shard
//!   processes start fast.
//! * `--report-json PATH` writes every conformance report of the run as
//!   versioned JSON (`penny_bench::json`) — written even when sites
//!   fail, so the orchestrator can always merge what succeeded.
//! * `--recording-store DIR` persists fault-free recordings
//!   content-addressed under `DIR` (`penny_bench::recstore`); warm runs
//!   skip the record phase entirely.
//! * `--obs-jsonl PATH` appends every observability span (including the
//!   `recording-store` and compile-cache counters) as JSON lines.
//!
//! Campaign subcommands:
//!
//! * `conformance` — the deep fault-space sweep (four workloads × four
//!   protected schemes, `--budget` sites each, default 2000) through the
//!   snapshot/replay engine. `--shard I/N` runs one process-level shard:
//!   shard reports merge bit-identically into the unsharded report
//!   (`penny_bench::conformance::merge_reports`). With `--bench-json`
//!   the deep-sweep pairs are timed (best of 3, recording cost
//!   included) against a cold from-cycle-0 baseline and written to
//!   `BENCH_eval.json`; `--min-speedup X` then exits nonzero if any
//!   pair's snapshot-vs-cold speedup falls below `X` (the
//!   `scripts/verify.sh` throughput gate).
//! * `conformance-exhaustive` — sweeps the **entire** fault space of the
//!   small workloads (MT, STC, FW, BS) under Penny: every site
//!   classified and answered, none sampled.
//! * `campaign` — the Table-1 multi-bit EDC campaign matrix
//!   (`--runs` per cell, default 100) in one process; it does not
//!   shard, so `--shard` with it exits 2.
//!
//! Static-vulnerability subcommands (see `DESIGN.md` §15):
//!
//! * `vulnerability` — the analytic static profile: per
//!   workload × scheme pruned-site fractions plus a per-register
//!   residual-exposure (AVF-style) ranking for the deep-sweep pairs.
//!   `--min-prune X` exits nonzero if the MT/Penny statically-answered
//!   fraction (pruned + never-fires) falls below `X` — the
//!   `scripts/verify.sh` prune-rate regression gate.
//! * `static-agreement` — the translation-validation gauntlet: runs the
//!   deep sweep on MT and SGEMM under every protected scheme in
//!   `StaticMode::Validate` (every statically classified site is
//!   *also* replayed and cross-examined), then validates the entire MT
//!   fault space exhaustively. Any static/dynamic disagreement exits 1.
//!
//! `--static-prune` / `--static-validate` select the static mode for
//! the `conformance` and `conformance-exhaustive` subcommands:
//! pruning answers statically classified sites without replaying them
//! (`pruned-static` bucket in the report); validation replays them
//! anyway and hard-errors on contradictions.

use std::sync::Arc;
use std::time::Instant;

use penny_bench::conformance::Shard;
use penny_bench::{conformance, recstore, report, SchemeId, StaticMode};
use penny_obs::MemRecorder;
use penny_sim::GpuConfig;

fn main() {
    let mut jobs: usize = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shard: Option<Shard> = None;
    let mut budget: u64 = 2000;
    let mut runs: u32 = 100;
    let mut bench_json_out = false;
    let mut min_speedup: Option<f64> = None;
    let mut static_mode = StaticMode::Off;
    let mut min_prune: Option<f64> = None;
    let mut workloads: Option<Vec<String>> = None;
    let mut schemes: Option<Vec<SchemeId>> = None;
    let mut report_json: Option<String> = None;
    let mut obs_jsonl: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut flag = |name: &str| -> Option<String> {
            if a == name {
                Some(args.next().unwrap_or_else(|| die(&format!("{name} needs a value"))))
            } else {
                a.strip_prefix(&format!("{name}=")).map(str::to_string)
            }
        };
        if let Some(v) = flag("--jobs") {
            jobs = v.parse().unwrap_or_else(|_| die("--jobs needs a positive integer"));
        } else if let Some(v) = flag("--shard") {
            shard = Some(Shard::parse(&v).unwrap_or_else(|e| die(&e.to_string())));
        } else if let Some(v) = flag("--budget") {
            budget = v.parse().unwrap_or_else(|_| die("--budget needs a positive integer"));
        } else if let Some(v) = flag("--runs") {
            runs = v.parse().unwrap_or_else(|_| die("--runs needs a positive integer"));
        } else if let Some(v) = flag("--min-speedup") {
            min_speedup =
                Some(v.parse().unwrap_or_else(|_| die("--min-speedup needs a number")));
        } else if let Some(v) = flag("--min-prune") {
            min_prune =
                Some(v.parse().unwrap_or_else(|_| die("--min-prune needs a number")));
        } else if let Some(v) = flag("--workloads") {
            workloads = Some(
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|abbr| {
                        if penny_workloads::by_abbr(abbr).is_none() {
                            die(&format!("--workloads: unknown workload {abbr:?}"));
                        }
                        abbr.to_string()
                    })
                    .collect(),
            );
        } else if let Some(v) = flag("--schemes") {
            schemes = Some(
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|tok| {
                        SchemeId::from_token(tok).unwrap_or_else(|| {
                            die(&format!(
                                "--schemes: unknown scheme {tok:?} (tokens: Baseline, \
                                 IGpu, BoltGlobal, BoltAuto, Penny)"
                            ))
                        })
                    })
                    .collect(),
            );
        } else if let Some(v) = flag("--report-json") {
            report_json = Some(v);
        } else if let Some(v) = flag("--recording-store") {
            recstore::set_recording_store(std::path::Path::new(&v))
                .unwrap_or_else(|e| die(&format!("--recording-store {v}: {e}")));
        } else if let Some(v) = flag("--obs-jsonl") {
            obs_jsonl = Some(v);
        } else if a == "--bench-json" {
            bench_json_out = true;
        } else if a == "--static-prune" {
            static_mode = StaticMode::Prune;
        } else if a == "--static-validate" {
            static_mode = StaticMode::Validate;
        } else {
            targets.push(a);
        }
    }
    if jobs == 0 {
        die("--jobs needs a positive integer");
    }
    if budget == 0 {
        die("--budget needs a positive integer");
    }
    if shard.is_some() && targets.iter().any(|t| t == "campaign") {
        die("campaign runs in one process and takes no --shard");
    }
    let shard = shard.unwrap_or_else(Shard::full);
    penny_bench::set_jobs(jobs);
    let recorder = obs_jsonl.as_ref().map(|_| {
        let rec = Arc::new(MemRecorder::new());
        penny_bench::obs::set_recorder(rec.clone());
        rec
    });
    // The deep-sweep pairs a restricted conformance run covers; `None`
    // means the full built-in matrix.
    let selection: Option<Vec<(&str, SchemeId)>> =
        if workloads.is_some() || schemes.is_some() {
            let ws: Vec<&str> = match &workloads {
                Some(w) => w.iter().map(String::as_str).collect(),
                None => DEEP_SWEEP_WORKLOADS.to_vec(),
            };
            let ss: &[SchemeId] = match &schemes {
                Some(s) => s,
                None => &DEEP_SWEEP_SCHEMES,
            };
            Some(ws.iter().flat_map(|&w| ss.iter().map(move |&s| (w, s))).collect())
        } else {
            None
        };
    // A restricted run is a shard process: the figure-matrix prewarm
    // (5 schemes x every registered workload) would dwarf its real work.
    if selection.is_none() {
        prewarm();
    }

    let targets: Vec<&str> = if targets.is_empty() || targets.iter().any(|a| a == "all") {
        report::ALL_TARGETS.to_vec()
    } else {
        targets.iter().map(String::as_str).collect()
    };
    let mut conformance_failed = false;
    for t in targets {
        if let Some(text) = report::render_target(t) {
            print!("{text}");
            continue;
        }
        match t {
            "conformance" => {
                conformance_failed |= conformance_cmd(&ConformanceArgs {
                    shard,
                    budget,
                    bench_json_out,
                    min_speedup,
                    jobs,
                    mode: static_mode,
                    pairs: selection.as_deref().unwrap_or(&DEEP_SWEEP),
                    report_json: report_json.as_deref(),
                });
            }
            "conformance-exhaustive" => conformance_exhaustive(shard, static_mode),
            "campaign" => campaign_cmd(runs),
            "vulnerability" => vulnerability_cmd(min_prune),
            "static-agreement" => static_agreement(budget),
            other => die(&format!("unknown target `{other}` (try `all`)")),
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
        std::fs::write(path, out).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    }
    if conformance_failed {
        std::process::exit(1);
    }
}

/// The deep-sweep workloads.
const DEEP_SWEEP_WORKLOADS: [&str; 4] = ["MT", "SPMV", "SGEMM", "BFS"];

/// The deep-sweep (protected) schemes.
const DEEP_SWEEP_SCHEMES: [SchemeId; 4] =
    [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu];

/// The deep-sweep (workload, scheme) matrix the conformance subcommand
/// and throughput gate cover.
const DEEP_SWEEP: [(&str, SchemeId); 16] = {
    let mut pairs = [("", SchemeId::Penny); 16];
    let mut i = 0;
    while i < 16 {
        pairs[i] = (DEEP_SWEEP_WORKLOADS[i / 4], DEEP_SWEEP_SCHEMES[i % 4]);
        i += 1;
    }
    pairs
};

/// Everything the `conformance` subcommand consumes.
struct ConformanceArgs<'a> {
    shard: Shard,
    budget: u64,
    bench_json_out: bool,
    min_speedup: Option<f64>,
    jobs: usize,
    mode: StaticMode,
    /// The (workload, scheme) matrix to sweep.
    pairs: &'a [(&'a str, SchemeId)],
    /// Where to write the reports as JSON (always written, even on
    /// failures — the orchestrator merges whatever this shard proved).
    report_json: Option<&'a str>,
}

/// Sites a sweep answered per wall second: the replayed (covered) and
/// the statically pruned alike.
fn answered_per_s(r: &conformance::ConformanceReport, wall: f64) -> f64 {
    (r.covered + r.pruned_static) as f64 / wall.max(1e-9)
}

/// `conformance`: deep sweep through the snapshot/replay engine, one
/// shard of the sample-position partition per invocation. Returns
/// whether any site failed (the caller exits nonzero *after* the
/// report JSON and observability spans are flushed).
fn conformance_cmd(a: &ConformanceArgs) -> bool {
    conformance::prewarm_static(a.pairs, a.mode != StaticMode::Off);
    println!(
        "== Conformance deep sweep (budget {}, shard {}/{}{}) ==",
        a.budget,
        a.shard.index,
        a.shard.count,
        match a.mode {
            StaticMode::Off => "",
            StaticMode::Prune => ", static-prune",
            StaticMode::Validate => ", static-validate",
        }
    );
    let mut failed = false;
    let mut reports = Vec::with_capacity(a.pairs.len());
    for &(abbr, scheme) in a.pairs {
        let t = Instant::now();
        let r = conformance::run_conformance_static_sharded(
            abbr, scheme, a.budget, a.mode, a.shard,
        );
        let wall = t.elapsed().as_secs_f64();
        print!("{}", conformance::render_report(&r));
        println!(
            "       work: {} forks, {} snapshots, {} pages copied, {} insts replayed \
             ({} cold)  [{:.2}s, {:.0} answered/s]",
            r.work.forks,
            r.work.snapshots,
            r.work.pages_copied,
            r.work.replayed_insts,
            r.work.cold_insts,
            wall,
            answered_per_s(&r, wall)
        );
        failed |= !r.failures.is_empty() || r.static_disagreements > 0;
        reports.push(r);
    }
    if let Some(path) = a.report_json {
        let json = penny_bench::json::reports_to_json(&reports);
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    }
    if !failed && (a.bench_json_out || a.min_speedup.is_some()) {
        conformance_bench_json(a.budget, a.min_speedup, a.jobs);
    }
    failed
}

/// Times the snapshot engine against the cold harness on the protected
/// deep-sweep pairs and writes `BENCH_eval.json`; enforces
/// `--min-speedup` when given.
fn conformance_bench_json(budget: u64, min_speedup: Option<f64>, jobs: usize) {
    let pairs = [("MT", SchemeId::Penny), ("SGEMM", SchemeId::Penny)];
    let mut rows = Vec::new();
    for (abbr, scheme) in pairs {
        let b = conformance::bench_throughput(abbr, scheme, budget, 3, 48);
        eprintln!(
            "conformance-bench: {} {}: {:.0} sites/s forked vs {:.1} sites/s cold \
             ({:.1}x, best of 3)",
            b.workload, b.variant, b.forked_sites_per_sec, b.cold_sites_per_sec, b.speedup
        );
        rows.push(b);
    }
    let worst = rows.iter().map(|b| b.speedup).fold(f64::INFINITY, f64::min);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"budget\": {budget},\n"));
    out.push_str("  \"conformance\": [\n");
    for (i, b) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"scheme\": \"{}\", \"covered\": {}, \
             \"forked_wall_seconds\": {:.6}, \"forked_sites_per_sec\": {:.3}, \
             \"cold_sites_timed\": {}, \"cold_wall_seconds\": {:.6}, \
             \"cold_sites_per_sec\": {:.3}, \"speedup\": {:.3}}}{comma}\n",
            b.workload,
            b.variant,
            b.covered,
            b.forked_wall_s,
            b.forked_sites_per_sec,
            b.cold_sites_timed,
            b.cold_wall_s,
            b.cold_sites_per_sec,
            b.speedup
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"conformance_min_speedup\": {worst:.3}\n"));
    out.push_str("}\n");
    match std::fs::write("BENCH_eval.json", &out) {
        Ok(()) => {
            eprintln!("conformance-bench: min speedup {worst:.1}x -> BENCH_eval.json")
        }
        Err(e) => die(&format!("writing BENCH_eval.json: {e}")),
    }
    if let Some(min) = min_speedup {
        if worst < min {
            eprintln!("conformance-bench: speedup {worst:.1}x below required {min:.1}x");
            std::process::exit(1);
        }
    }
}

/// `conformance-exhaustive`: the entire fault space of the small
/// workloads — every site classified and answered, none sampled.
fn conformance_exhaustive(shard: Shard, mode: StaticMode) {
    println!(
        "== Conformance exhaustive sweep (full fault spaces, shard {}/{}{}) ==",
        shard.index,
        shard.count,
        match mode {
            StaticMode::Off => "",
            StaticMode::Prune => ", static-prune",
            StaticMode::Validate => ", static-validate",
        }
    );
    for abbr in ["MT", "STC", "FW", "BS"] {
        let t = Instant::now();
        let r = conformance::run_conformance_static_sharded(
            abbr,
            SchemeId::Penny,
            u64::MAX,
            mode,
            shard,
        );
        let wall = t.elapsed().as_secs_f64();
        // Other shards' positions count as skipped; this shard's must
        // all be answered.
        let owned = Shard { index: r.shard.0, count: r.shard.1 }.owned_count(r.total);
        assert_eq!(
            r.covered + r.pruned_static,
            owned,
            "exhaustive sweep must answer every site the shard owns"
        );
        print!("{}", conformance::render_report(&r));
        println!(
            "       work: {} forks over {} covered sites  [{:.2}s, {:.0} answered/s]",
            r.work.forks,
            r.covered,
            wall,
            answered_per_s(&r, wall)
        );
        if !r.failures.is_empty() || r.static_disagreements > 0 {
            std::process::exit(1);
        }
    }
}

/// `vulnerability`: the analytic static profile — per workload × scheme
/// pruned fractions, then the per-register residual-exposure ranking
/// for the deep-sweep workloads under Penny. `--min-prune` gates the
/// MT/Penny statically-answered fraction.
fn vulnerability_cmd(min_prune: Option<f64>) {
    const SCHEMES: [SchemeId; 4] =
        [SchemeId::IGpu, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::Penny];
    println!("== Static vulnerability profile (site fractions of the full fault space) ==");
    let mut mt_penny_rate = None;
    for w in penny_workloads::all() {
        for scheme in SCHEMES {
            let p = penny_bench::static_profile(w.abbr, scheme);
            print!("{}", penny_bench::render_profile(&p, 0));
            if w.abbr == "MT" && scheme == SchemeId::Penny {
                mt_penny_rate = Some(p.classified_rate());
            }
        }
    }
    println!("== Per-register residual exposure (deep-sweep workloads, Penny) ==");
    for abbr in ["MT", "SPMV", "SGEMM", "BFS"] {
        let p = penny_bench::static_profile(abbr, SchemeId::Penny);
        print!("{}", penny_bench::render_profile(&p, 4));
    }
    if let Some(min) = min_prune {
        let rate = mt_penny_rate.expect("MT is in the registry");
        eprintln!(
            "vulnerability: MT/Penny statically answered {:.1}% (gate {:.1}%)",
            100.0 * rate,
            100.0 * min
        );
        if rate < min {
            eprintln!("vulnerability: below the prune-rate gate");
            std::process::exit(1);
        }
    }
}

/// `static-agreement`: the translation-validation gauntlet. Deep-budget
/// validation of MT and SGEMM under every protected scheme, then an
/// exhaustive validation of the full MT fault space. Every statically
/// classified site is also replayed; one contradiction fails the run.
fn static_agreement(budget: u64) {
    let pairs: Vec<(&str, SchemeId)> = ["MT", "SGEMM"]
        .into_iter()
        .flat_map(|w| {
            [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu]
                .into_iter()
                .map(move |s| (w, s))
        })
        .collect();
    conformance::prewarm_static(&pairs, true);
    println!("== Static/dynamic agreement sweep (budget {budget}, validate mode) ==");
    let mut checked = 0u64;
    for &(abbr, scheme) in &pairs {
        let r =
            conformance::run_conformance_static(abbr, scheme, budget, StaticMode::Validate);
        print!("{}", conformance::render_report(&r));
        checked += r.static_checked;
        if !r.failures.is_empty() || r.static_disagreements > 0 {
            std::process::exit(1);
        }
    }
    println!("== Exhaustive agreement sweep: full MT fault space ==");
    let r = conformance::run_conformance_static(
        "MT",
        SchemeId::Penny,
        u64::MAX,
        StaticMode::Validate,
    );
    print!("{}", conformance::render_report(&r));
    checked += r.static_checked;
    if !r.failures.is_empty() || r.static_disagreements > 0 {
        std::process::exit(1);
    }
    println!("static-agreement: {checked} static claims cross-examined, 0 disagreements");
}

/// `campaign`: the Table-1 multi-bit matrix.
fn campaign_cmd(runs: u32) {
    println!("== Multi-bit EDC campaign ({runs} runs/cell) ==");
    let results = penny_bench::multibit_sweep(runs);
    print!("{}", penny_bench::campaign::render_multibit(&results));
}

/// Batch-compiles the scheme x workload matrix every figure draws from,
/// fanning the cache misses across the `--jobs` workers up front. The
/// figures then start from cache hits, so their own (serial or
/// parallel) compile order no longer matters for wall time. Artifacts
/// are bit-identical with or without the prewarm: each entry is a pure
/// function of its content key, and in-flight dedup compiles each key
/// at most once.
fn prewarm() {
    use penny_bench::SchemeId;
    let machine = GpuConfig::fermi().machine;
    let mut pairs = Vec::new();
    for scheme in [
        SchemeId::Baseline,
        SchemeId::IGpu,
        SchemeId::BoltGlobal,
        SchemeId::BoltAuto,
        SchemeId::Penny,
    ] {
        for w in penny_workloads::all() {
            let cfg = scheme.config().with_launch(w.dims).with_machine(machine);
            pairs.push((w, cfg));
        }
    }
    let _ = penny_bench::cache::compile_batch(&pairs);
}

fn die(msg: &str) -> ! {
    eprintln!("penny-eval: {msg}");
    std::process::exit(2);
}
