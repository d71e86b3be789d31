//! `campaign`: a conformance campaign from kernel text to a merged,
//! serialized report. Every round sweeps the 25 registered workloads
//! under Penny at a sampled budget as four in-process shards over a
//! fresh recording store (shard 0 records and writes each recording,
//! shards 1–3 read it back), merges the shards, and adds sparse kernels
//! generated from the seed, swept unsharded with static pruning. The
//! reports then go through the shard-report JSON codec and back.
//!
//! Unlike the whole-space sweeps, per-pair fixed costs dominate here:
//! record, persist, merge and JSON. The sampled sites rarely share a
//! replay group, so replay runs almost without grouping.

use std::path::{Path, PathBuf};

use penny_bench::conformance::{merge_reports, ConformanceReport, Shard, StaticMode};
use penny_bench::json::{report_to_json, reports_from_json, reports_to_json};
use penny_bench::{conformance, recstore, SchemeId};
use penny_core::Protected;
use penny_sim::gen::{splitmix64, Family, KernelSpec};
use penny_sim::{Gpu, GpuConfig, RfProtection};
use penny_workloads::Workload as Kernel;

use crate::harness::{
    check_report, parse_and_compile, setup_errors, KernelText, Ops, Workload,
};
use crate::redrive::{redrive, Pair};
use crate::trace::Tracer;

/// Sites sampled per pair.
const BUDGET: u64 = 250;

/// In-process shards per registered pair.
const SHARDS: u32 = 4;

/// Generated sparse kernels swept per round.
const GENERATED: usize = 8;

/// Most sparse candidates drawn per set-up; the first [`GENERATED`]
/// that Penny compiles are swept (the compiler rejects some generated
/// kernels).
const MAX_CANDIDATES: usize = 64;

fn shard(index: u32) -> Shard {
    Shard { index, count: SHARDS }
}

/// A generated sparse kernel with its golden output: the fault-free
/// result of the unprotected kernel.
fn generated_kernel(spec: &KernelSpec) -> Result<Kernel, String> {
    let unchecked = penny_fuzz::spec_workload(spec, Vec::new());
    let mut gpu = Gpu::new(GpuConfig::fermi().with_rf(RfProtection::None));
    let launch = unchecked.prepare(gpu.global_mut());
    gpu.run(&Protected::passthrough(spec.build()), &launch)
        .map_err(|e| format!("{}: golden run: {e}", spec.name()))?;
    Ok(penny_fuzz::spec_workload(spec, penny_workloads::user_words(gpu.global())))
}

/// One round's reports.
#[derive(Default)]
struct Outputs {
    /// Each registered pair's merged report, then each generated
    /// kernel's report.
    merged: Vec<Result<ConformanceReport, String>>,
    /// Each shard report, then each generated kernel's report: what the
    /// traced re-drive must reproduce.
    shards: Vec<Result<ConformanceReport, String>>,
    /// `merged` after the JSON round trip.
    parsed: Option<Result<Vec<ConformanceReport>, String>>,
}

/// The `campaign` workload.
pub struct Campaign {
    seed: u64,
    registered: Vec<Kernel>,
    generated: Vec<Kernel>,
    store_root: PathBuf,
    rounds: u64,
    out: Outputs,
    traced: bool,
    /// Unsharded verdicts of each registered pair, then the first round's
    /// verdicts of each generated kernel.
    reference: Vec<String>,
    /// The program's reports of the last untraced round, as JSON.
    program: Vec<String>,
    errors: Vec<String>,
}

impl Campaign {
    /// The workload for `seed` (which picks the generated kernels); its
    /// recording stores live under `scratch`.
    pub fn new(seed: u64, scratch: &Path) -> Campaign {
        Campaign {
            seed,
            registered: penny_workloads::all(),
            generated: Vec::new(),
            store_root: scratch.join(format!("store-{}", std::process::id())),
            rounds: 0,
            out: Outputs::default(),
            traced: false,
            reference: Vec::new(),
            program: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// An empty recording-store directory for the next round.
    fn fresh_store(&mut self) -> PathBuf {
        let dir = self.store_root.join(format!("round-{}", self.rounds));
        self.rounds += 1;
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            self.errors.push(format!("{}: {e}", dir.display()));
        }
        dir
    }
}

/// The merged reports through the shard-report JSON codec and back.
fn json_round_trip(
    t: &mut Tracer,
    merged: &[Result<ConformanceReport, String>],
) -> Result<Vec<ConformanceReport>, String> {
    let ok: Vec<ConformanceReport> =
        merged.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
    let json = t.time("bench.json.render", || reports_to_json(&ok));
    t.time("bench.json.parse", || reports_from_json(&json))
}

impl Drop for Campaign {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_root);
    }
}

impl Workload for Campaign {
    fn setup(&mut self, t: &mut Tracer) {
        let penny = |k: &KernelText, statik: bool| {
            vec![SchemeId::Penny
                .config()
                .with_launch(k.dims)
                .with_validation(true)
                .with_vulnerability(statik)]
        };
        let kernels: Vec<KernelText> = self.registered.iter().map(KernelText::of).collect();
        let compiled = parse_and_compile(t, &kernels, |k| penny(k, false));
        self.errors = setup_errors(&kernels, &compiled);

        // Draw sparse specs in batches until GENERATED of them compile
        // under Penny (about half do), giving up after MAX_CANDIDATES.
        // Kernels must also differ in text: the recording store keys a
        // recording by kernel text and configs, not by input memory, so
        // two specs that differ only in their inputs would share one.
        self.generated.clear();
        let mut drawn = 0;
        let mut i = 0;
        while self.generated.len() < GENERATED && drawn < MAX_CANDIDATES {
            let mut batch = Vec::new();
            while batch.len() < GENERATED && drawn < MAX_CANDIDATES {
                let spec = KernelSpec::from_seed(splitmix64(
                    splitmix64(self.seed).wrapping_add(i),
                ));
                i += 1;
                if spec.family == Family::Sparse {
                    drawn += 1;
                    match generated_kernel(&spec) {
                        Ok(k) => batch.push(k),
                        Err(e) => self.errors.push(e),
                    }
                }
            }
            let texts: Vec<KernelText> = batch.iter().map(KernelText::of).collect();
            let compiled = parse_and_compile(t, &texts, |k| penny(k, true));
            for ((k, text), c) in batch.into_iter().zip(texts).zip(compiled) {
                let compiles =
                    c.artifacts.iter().all(|(a, _)| a.is_ok()) && c.parse_error.is_none();
                if compiles && !self.generated.iter().any(|g| g.source_text() == text.text)
                {
                    self.generated.push(k);
                }
            }
        }
        self.generated.truncate(GENERATED);
    }

    fn warm_up(&mut self) {
        self.reference = self
            .registered
            .iter()
            .map(|w| {
                conformance::render_report(&conformance::run_conformance(
                    w.abbr,
                    SchemeId::Penny,
                    BUDGET,
                ))
            })
            .collect();
        self.round();
    }

    fn round(&mut self) {
        self.traced = false;
        let dir = self.fresh_store();
        if let Err(e) = recstore::set_recording_store(&dir) {
            self.errors.push(format!("{}: {e}", dir.display()));
        }
        let mut out = Outputs::default();
        for w in &self.registered {
            let shards: Vec<ConformanceReport> = (0..SHARDS)
                .map(|i| {
                    conformance::run_conformance_sharded(
                        w.abbr,
                        SchemeId::Penny,
                        BUDGET,
                        shard(i),
                    )
                })
                .collect();
            out.merged.push(merge_reports(&shards).map_err(|e| e.to_string()));
            out.shards.extend(shards.into_iter().map(Ok));
        }
        for g in &self.generated {
            let r = conformance::run_conformance_static_for(
                g,
                SchemeId::Penny,
                BUDGET,
                StaticMode::Prune,
            );
            out.shards.push(Ok(r.clone()));
            out.merged.push(Ok(r));
        }
        recstore::clear_recording_store();
        let _ = std::fs::remove_dir_all(&dir);
        out.parsed = Some(json_round_trip(&mut Tracer::off(), &out.merged));
        self.out = out;
    }

    fn traced_round(&mut self, t: &mut Tracer) {
        self.traced = true;
        let dir = self.fresh_store();
        let mut out = Outputs::default();
        for w in &self.registered {
            t.enter("bench.conformance.pair");
            let mut shards = Vec::new();
            for i in 0..SHARDS {
                let pair = Pair {
                    workload: w,
                    scheme: SchemeId::Penny,
                    budget: BUDGET,
                    mode: StaticMode::Off,
                    shard: shard(i),
                };
                t.enter("bench.conformance.shard");
                shards.push(redrive(t, &pair, Some(&dir)));
                t.exit(&[]);
            }
            let merged = t.time("bench.conformance.merge", || {
                let ok: Result<Vec<ConformanceReport>, String> =
                    shards.iter().cloned().collect();
                ok.and_then(|v| merge_reports(&v).map_err(|e| e.to_string()))
            });
            t.exit(&[]);
            out.merged.push(merged);
            out.shards.extend(shards);
        }
        for g in &self.generated {
            let pair = Pair {
                workload: g,
                scheme: SchemeId::Penny,
                budget: BUDGET,
                mode: StaticMode::Prune,
                shard: Shard::full(),
            };
            t.enter("bench.conformance.pair");
            let r = redrive(t, &pair, Some(&dir));
            t.exit(&[]);
            out.shards.push(r.clone());
            out.merged.push(r);
        }
        let _ = std::fs::remove_dir_all(&dir);
        out.parsed = Some(json_round_trip(t, &out.merged));
        self.out = out;
    }

    fn check(&mut self) -> Ops {
        let mut ops = Ops::default();
        let first = self.reference.len() == self.registered.len();
        let mut rendered_ok = Vec::new();
        for (i, r) in self.out.merged.iter().enumerate() {
            let rendered = r.as_ref().map(conformance::render_report).unwrap_or_default();
            if first && i >= self.registered.len() {
                self.reference.push(rendered.clone());
            }
            if r.is_ok() {
                rendered_ok.push(rendered.clone());
            }
            let verdict = r.as_ref().map_err(String::clone).and_then(|r| {
                check_report(r, false)?;
                if self.reference.get(i) != Some(&rendered) {
                    return Err(format!(
                        "{} {}: merged verdicts differ from the unsharded (or first-round) run",
                        r.workload, r.variant
                    ));
                }
                Ok(r)
            });
            match verdict {
                Ok(r) => {
                    ops.items += r.covered + r.pruned_static;
                    ops.check(true);
                }
                Err(e) => {
                    eprintln!("campaign: {e}");
                    ops.check(false);
                }
            }
        }
        let round_trip = match &self.out.parsed {
            Some(Ok(parsed)) => {
                parsed.iter().map(conformance::render_report).eq(rendered_ok)
            }
            _ => false,
        };
        if !round_trip {
            eprintln!("campaign: reports changed across the JSON round trip");
        }
        ops.check(round_trip);

        let jsons: Vec<String> = self
            .out
            .shards
            .iter()
            .filter_map(|r| r.as_ref().ok().map(report_to_json))
            .collect();
        if !self.traced {
            self.program = jsons;
        } else if jsons != self.program {
            let differing = jsons.iter().zip(&self.program).filter(|(a, b)| a != b).count();
            self.errors.push(format!(
                "campaign: {differing} re-driven shard reports (of {}) differ from the program's",
                self.program.len()
            ));
        }
        ops
    }

    fn final_failures(&self) -> Vec<String> {
        self.errors.clone()
    }

    fn notes(&self) -> Vec<String> {
        let names: Vec<&str> = self.generated.iter().map(|g| g.abbr).collect();
        vec![format!("campaign generated kernels: {}", names.join(" "))]
    }
}
