//! `penny-fuzz`: seeded generative differential testing for the Penny
//! pipeline, plus corpus banking and replay.
//!
//! Usage:
//!
//! ```text
//! penny-fuzz --seed N --iters K [--conformance-budget S] [--jobs N]
//!            [--bank DIR] [--obs FILE]
//! penny-fuzz --replay DIR [--conformance-budget S] [--jobs N]
//! penny-fuzz --mint-sparse COUNT --from-seed S --bank DIR
//!            [--conformance-budget S] [--jobs N]
//! penny-fuzz --mint-spec SPEC --bank DIR
//! ```
//!
//! * `--seed N --iters K` — run the gauntlet on `K` generated kernels
//!   derived from seed `N`; print the deterministic report; exit
//!   nonzero if any divergence was found;
//! * `--conformance-budget S` — fault sites per conformance sweep
//!   (default 24 while fuzzing, 2048 for replay/mint; 0 disables);
//! * `--jobs N` — harness workers for conformance classification;
//!   verdicts are identical for any job count;
//! * `--bank DIR` — write every divergence's shrunk reproducer (or
//!   every minted kernel) as a corpus entry under DIR;
//! * `--replay DIR` — re-verify every banked corpus entry through the
//!   full gauntlet (compile → validate → lint → differential → golden
//!   → conformance); exit nonzero on any failure;
//! * `--mint-sparse COUNT --from-seed S` — scan seeds from `S` for
//!   sparse-family kernels on which **all** schemes compile and the
//!   whole gauntlet passes, then bank the first COUNT of them;
//! * `--mint-spec SPEC` — gauntlet-verify and bank one hand-picked
//!   spec (e.g. `sparse;ops=6,3;nnz=5;topo=0x2a`);
//! * `--obs FILE` — install the observability recorder and append the
//!   run's spans (one `campaign` span per gauntlet iteration, plus the
//!   conformance engine's spans) to FILE as schema-checked JSONL.
//!
//! The fuzz report goes to stdout and contains no timings: two runs
//! with identical arguments produce byte-identical output.
//!
//! Exit status: 0 clean; 1 a divergence or a failed corpus replay; 2 a
//! usage error, or a mint or bank that fails.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use penny_bench::{cli, out, outln};
use penny_fuzz::{run_fuzz, run_gauntlet, FuzzConfig};
use penny_obs::MemRecorder;
use penny_sim::gen::{Family, KernelSpec};

struct Args {
    seed: u64,
    iters: u64,
    conformance_budget: Option<u64>,
    jobs: usize,
    bank: Option<PathBuf>,
    replay: Option<PathBuf>,
    mint_sparse: Option<u64>,
    mint_spec: Option<String>,
    from_seed: u64,
    obs: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 1,
        iters: 0,
        conformance_budget: None,
        jobs: 1,
        bank: None,
        replay: None,
        mint_sparse: None,
        mint_spec: None,
        from_seed: 1,
        obs: None,
    };
    let mut args = cli::Args::from_env("penny-fuzz");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => a.seed = args.integer(),
            "--iters" => a.iters = args.integer(),
            "--conformance-budget" => a.conformance_budget = Some(args.integer()),
            "--jobs" => a.jobs = args.positive(),
            "--bank" => a.bank = Some(args.value().into()),
            "--replay" => a.replay = Some(args.value().into()),
            "--mint-sparse" => a.mint_sparse = Some(args.integer()),
            "--mint-spec" => a.mint_spec = Some(args.value()),
            "--from-seed" => a.from_seed = args.integer(),
            "--obs" => a.obs = Some(args.value().into()),
            _ => args.unknown(),
        }
    }
    a
}

/// Flushes the in-memory recorder to `path` as schema-checked JSONL.
fn dump_obs(rec: &MemRecorder, path: &PathBuf) {
    let mut out = String::new();
    for span in rec.snapshot() {
        let line = span.to_jsonl();
        penny_obs::schema::validate_line(&line)
            .unwrap_or_else(|e| cli::die(format!("obs span failed schema check: {e}")));
        out.push_str(&line);
        out.push('\n');
    }
    std::fs::write(path, out)
        .unwrap_or_else(|e| cli::die(format!("writing {}: {e}", path.display())));
}

fn main() -> ExitCode {
    let a = parse_args();
    penny_bench::set_jobs(a.jobs);
    // The gauntlet catches a stage's panic (a compiler, engine or
    // harness bug) and reports it as a divergence with its payload
    // text; keep stderr free of a backtrace per caught panic. A panic
    // outside the gauntlet still exits 101.
    std::panic::set_hook(Box::new(|_| {}));

    let obs_rec = a.obs.as_ref().map(|_| Arc::new(MemRecorder::new()));
    if let Some(rec) = &obs_rec {
        penny_bench::obs::set_recorder(rec.clone());
    }
    let finish_obs = |rec: &Option<Arc<MemRecorder>>| {
        if let (Some(rec), Some(path)) = (rec, &a.obs) {
            penny_bench::obs::clear_recorder();
            dump_obs(rec, path);
        }
    };

    // Replay mode: re-verify a banked corpus directory.
    if let Some(dir) = &a.replay {
        let budget = a.conformance_budget.unwrap_or(2048);
        match penny_fuzz::replay_dir(dir, budget) {
            Ok(n) => {
                outln!("corpus replay: {n} entries verified ({})", dir.display());
                finish_obs(&obs_rec);
                return ExitCode::SUCCESS;
            }
            Err(errors) => {
                outln!("corpus replay: {} failure(s)", errors.len());
                for e in &errors {
                    outln!("  {e}");
                }
                finish_obs(&obs_rec);
                return ExitCode::FAILURE;
            }
        }
    }

    // Mint a single hand-picked spec.
    if let Some(spec_line) = &a.mint_spec {
        let dir =
            a.bank.clone().unwrap_or_else(|| cli::die("--mint-spec needs --bank DIR"));
        let spec = KernelSpec::parse(spec_line)
            .unwrap_or_else(|| cli::die(format!("unparseable spec `{spec_line}`")));
        let cfg = FuzzConfig {
            conformance_budget: a.conformance_budget.unwrap_or(2048),
            ..FuzzConfig::new(0, 0)
        };
        let outcome = run_gauntlet(&spec, &cfg);
        if let Some((kind, scheme, detail)) = &outcome.failure {
            cli::die(format!(
                "spec fails the gauntlet [{}{}]: {detail}",
                kind.tag(),
                scheme.map(|s| format!(" under {s}")).unwrap_or_default()
            ));
        }
        if !outcome.all_schemes_compiled {
            cli::die("spec is skipped by at least one scheme; pick another");
        }
        let path = penny_fuzz::bank_spec(&spec, &dir).unwrap_or_else(|e| cli::die(e));
        outln!("minted {} -> {}", spec.render(), path.display());
        finish_obs(&obs_rec);
        return ExitCode::SUCCESS;
    }

    // Mint mode: scan seeds for bankable sparse kernels.
    if let Some(count) = a.mint_sparse {
        let dir =
            a.bank.clone().unwrap_or_else(|| cli::die("--mint-sparse needs --bank DIR"));
        let budget = a.conformance_budget.unwrap_or(2048);
        let cfg =
            FuzzConfig { conformance_budget: budget, ..FuzzConfig::new(a.from_seed, 0) };
        let mut minted = 0u64;
        let mut seed = a.from_seed;
        while minted < count {
            let spec = KernelSpec::from_seed(seed);
            seed += 1;
            if spec.family != Family::Sparse {
                continue;
            }
            let outcome = run_gauntlet(&spec, &cfg);
            if outcome.failure.is_some() || !outcome.all_schemes_compiled {
                continue;
            }
            let path = penny_fuzz::bank_spec(&spec, &dir).unwrap_or_else(|e| cli::die(e));
            outln!("minted {} -> {}", spec.render(), path.display());
            minted += 1;
        }
        finish_obs(&obs_rec);
        return ExitCode::SUCCESS;
    }

    // Fuzz mode.
    if a.iters == 0 {
        cli::die("nothing to do: pass --iters K, --replay DIR, or --mint-sparse COUNT");
    }
    let mut cfg = FuzzConfig::new(a.seed, a.iters);
    if let Some(budget) = a.conformance_budget {
        cfg.conformance_budget = budget;
    }
    let report = run_fuzz(&cfg);
    out!("{}", report.render());
    if let Some(dir) = &a.bank {
        for d in &report.divergences {
            match penny_fuzz::bank_spec(&d.shrunk, dir) {
                Ok(path) => outln!("banked {} -> {}", d.shrunk.render(), path.display()),
                Err(e) => eprintln!("penny-fuzz: banking failed: {e}"),
            }
        }
    }
    finish_obs(&obs_rec);
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
