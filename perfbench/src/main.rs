//! `penny-benchmark`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! penny-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                 [--out DIR]
//! penny-benchmark compare DIR_A DIR_B
//! ```
//!
//! Every run uses one worker thread (`penny_bench::set_jobs(1)`). On a
//! small shared machine a second thread makes round times depend on
//! whether the host gives the second core at that moment: two-thread
//! compile rounds of one build measured 2x apart between processes.
//!
//! An untraced run (`--trace 0`) sets the workload up several times
//! (timing each), runs one untimed warm-up round, then times rounds
//! until `--seconds` have passed, checking every round's outputs. It
//! prints `<workload> <metric> <value> <unit>` per end-to-end metric,
//! writes `<workload>-seed<N>.json` under the output directory and ends
//! with a one-line JSON result.
//!
//! A traced run (`--trace 1`) traces one set-up and the first traced
//! round into a span tree (written as
//! `trace-<workload>.jsonl`), alternates untraced and traced rounds for
//! `--seconds` to measure the tracing overhead, and reports the
//! per-layer metrics.
//!
//! The exit status is 0 when every check passed, 1 when one failed, and
//! 2 on a usage error.

mod compare;
mod harness;
mod json;
mod layers;
mod metrics;
mod redrive;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use harness::{peak_rss_mb, Ops, Workload};
use report::{Outcome, RunSamples};
use trace::Tracer;

/// An untraced run repeats the set-up at least [`SETUP_REPS`] times and
/// until [`SETUP_BUDGET`] has passed; `setup_s` is the median. Small
/// set-ups (a few kernels) take well under a millisecond, so they need
/// many repetitions for a steady median.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn die(msg: &str) -> ! {
    eprintln!("penny-benchmark: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        let number = |v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| die(&format!("{flag} needs a non-negative integer")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = number(value()),
            "--seconds" => args.seconds = number(value()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = PathBuf::from(value()),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        die(&format!("--workload must be one of {}", workloads::NAMES.join(", ")));
    }
    args
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        if argv.len() != 3 {
            die("usage: penny-benchmark compare DIR_A DIR_B");
        }
        std::process::exit(compare::compare(Path::new(&argv[1]), Path::new(&argv[2])));
    }
    let args = parse_args();
    penny_bench::set_jobs(1);
    harness::quiet_compile_panics();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        die(&format!("{}: {e}", args.out.display()));
    }
    let mut w =
        workloads::make(&args.workload, args.seed, &args.out).expect("name checked");
    let (outcome, metrics, samples) = if args.trace {
        traced_run(w.as_mut(), &args)
    } else {
        untraced_run(w.as_mut(), &args)
    };
    drop(w);

    let metrics = report::with_units(&metrics, args.trace);
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        eprintln!("{}: {failure}", args.workload);
    }
    for (name, value, unit) in &metrics {
        println!("{} {name} {value} {unit}", args.workload);
    }
    let file = match args.trace {
        false => args.out.join(format!("{}-seed{}.json", args.workload, args.seed)),
        true => args.out.join(format!("{}-seed{}-trace.json", args.workload, args.seed)),
    };
    if let Err(e) =
        std::fs::write(&file, report::result_file(&outcome, &metrics, samples.as_ref()))
    {
        eprintln!("penny-benchmark: {}: {e}", file.display());
    }
    println!("{}", report::result_line(&outcome, &metrics));
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

fn outcome(w: &dyn Workload, args: &Args, ops: Ops) -> Outcome {
    Outcome {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        attempted: ops.attempted,
        failed: ops.failed,
        failures: w.final_failures(),
        notes: w.notes(),
    }
}

type RunResult = (Outcome, Vec<(String, f64)>, Option<RunSamples>);

fn untraced_run(w: &mut dyn Workload, args: &Args) -> RunResult {
    let mut samples = RunSamples::default();
    let setup_start = Instant::now();
    while samples.setup_s.len() < SETUP_REPS || setup_start.elapsed() < SETUP_BUDGET {
        let t = Instant::now();
        w.setup(&mut Tracer::off());
        samples.setup_s.push(t.elapsed().as_secs_f64());
    }
    w.warm_up();
    let mut ops = w.check();
    let window = Instant::now();
    loop {
        let t = Instant::now();
        w.round();
        let dt = t.elapsed().as_secs_f64();
        let o = w.check();
        samples.round_s.push(dt);
        samples.items_per_s.push(o.items as f64 / dt);
        ops += o;
        if window.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    samples.peak_rss_mb = peak_rss_mb();
    let metrics = report::end_to_end_values(&samples);
    (outcome(w, args, ops), metrics, Some(samples))
}

fn traced_run(w: &mut dyn Workload, args: &Args) -> RunResult {
    let mut t = Tracer::on();
    t.enter("setup");
    w.setup(&mut t);
    t.exit(&[]);
    w.warm_up();
    let mut ops = w.check();

    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut cache = (0, 0);
    let window = Instant::now();
    loop {
        let start = Instant::now();
        w.round();
        untraced_s.push(start.elapsed().as_secs_f64());
        ops += w.check();

        // The first traced round joins the span tree; later ones only
        // time the overhead.
        let first = traced_s.is_empty();
        let mut scratch = Tracer::on();
        let tracer = if first { &mut t } else { &mut scratch };
        let before = penny_bench::cache::compile_cache_stats();
        let start = Instant::now();
        tracer.enter("round");
        w.traced_round(tracer);
        tracer.exit(&[]);
        traced_s.push(start.elapsed().as_secs_f64());
        if first {
            let after = penny_bench::cache::compile_cache_stats();
            cache = (after.hits - before.hits, after.misses - before.misses);
        }
        ops += w.check();
        if window.elapsed() >= Duration::from_secs(args.seconds) {
            break;
        }
    }
    let path = args.out.join(format!("trace-{}.jsonl", args.workload));
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(t.spans())) {
        eprintln!("penny-benchmark: {}: {e}", path.display());
    }
    let metrics = layers::layer_metrics(
        t.spans(),
        cache.0,
        cache.1,
        stats::median(&traced_s),
        stats::median(&untraced_s),
    );
    (outcome(w, args, ops), metrics, None)
}
