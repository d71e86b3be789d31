#![warn(missing_docs)]
//! `penny-fuzz`: the generative differential-testing pipeline.
//!
//! Each iteration mints one kernel from [`penny_sim::gen::KernelSpec`]
//! (dense structured loops or the sparse CSR family) and drives it
//! through the full gauntlet:
//!
//! 1. **build + validate** — the generator must emit IR that passes
//!    `penny_ir::validate`;
//! 2. **lint** — the kernel must be lint-clean for its launch geometry
//!    (any diagnostic is a generator bug, reported as a divergence);
//! 3. **compile** — every scheme compiles with `with_validation(true)`
//!    and `with_lint(true)`; protected schemes may *skip* (the Penny
//!    pipeline can reject generator-shaped kernels), the Baseline
//!    scheme must not;
//! 4. **differential** — the pre-decoded engine vs the always-decode
//!    reference must agree on stats and memory, fault-free and under
//!    generated fault plans, for every compiled scheme;
//! 5. **cross-scheme** — every protected scheme's fault-free output
//!    must equal the Baseline golden output;
//! 6. **conformance + static agreement** — a budgeted snapshot/replay
//!    sweep in `StaticMode::Validate`
//!    ([`penny_bench::conformance::run_conformance_static_for`]) must
//!    recover every covered fault site, and every compile-time
//!    [`penny_analysis::StaticSiteClass`] claim must agree with the
//!    replay engine's dynamic verdict (translation validation of the
//!    static vulnerability analysis, on the same replays).
//!
//! A divergence is shrunk ([`shrink_spec`]) to a minimal spec that
//! still reproduces the same divergence kind, and can be banked as a
//! committed corpus workload (`corpus/*.pir`) that
//! [`replay_workload`] — and the `scripts/verify.sh` replay gate —
//! re-verifies forever after.
//!
//! Everything is deterministic: reports contain no timings, and two
//! runs with the same seed and iteration count are byte-identical.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

use penny_analysis::{lint_kernel, LintOptions, Severity};
use penny_bench::conformance::{run_conformance_static_for, ConformanceReport, StaticMode};
use penny_bench::SchemeId;
use penny_core::Protected;
use penny_sim::gen::{self, splitmix64, KernelSpec};
use penny_sim::{GlobalMemory, GpuConfig, RunStats};
use penny_workloads::corpus::CorpusEntry;
use penny_workloads::{user_words, Setup, Source, Suite, Verify, Workload};

/// Fuzzing-run configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; iteration `i` derives its spec from `seed + i`.
    pub seed: u64,
    /// Number of kernels to generate.
    pub iters: u64,
    /// Protected schemes exercised by the differential and
    /// cross-scheme stages.
    pub schemes: Vec<SchemeId>,
    /// Schemes swept by the conformance stage (recoverable schemes
    /// only — unprotected runs legitimately corrupt).
    pub conformance_schemes: Vec<SchemeId>,
    /// Fault-site budget per conformance sweep (0 disables the stage).
    pub conformance_budget: u64,
    /// Fault plans injected per compiled scheme in the differential
    /// stage.
    pub fault_plans: u64,
}

impl FuzzConfig {
    /// The default gauntlet: all four protected schemes
    /// differentially, Penny conformance with a small site budget.
    pub fn new(seed: u64, iters: u64) -> FuzzConfig {
        FuzzConfig {
            seed,
            iters,
            schemes: vec![
                SchemeId::IGpu,
                SchemeId::BoltGlobal,
                SchemeId::BoltAuto,
                SchemeId::Penny,
            ],
            conformance_schemes: vec![SchemeId::Penny],
            conformance_budget: 24,
            fault_plans: 2,
        }
    }
}

/// What went wrong, at gauntlet-stage granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The generator emitted IR that fails validation (or building
    /// panicked).
    Build,
    /// The generated kernel is not lint-clean.
    Lint,
    /// The Baseline (unprotected) pipeline rejected the kernel — it
    /// must accept every generated shape.
    BaselineCompile,
    /// Decoded engine and decode-reference interpreter disagree.
    Differential,
    /// A protected scheme's fault-free output differs from Baseline's.
    SchemeOutput,
    /// A conformance sweep left fault sites unrecovered.
    Conformance,
    /// A compile-time static site classification contradicted the
    /// replay engine's dynamic verdict (translation-validation failure
    /// of the vulnerability analysis).
    StaticAgreement,
    /// A gauntlet stage panicked (engine or harness bug).
    Engine,
}

impl DivergenceKind {
    /// Stable lowercase tag used in reports.
    pub fn tag(self) -> &'static str {
        match self {
            DivergenceKind::Build => "build",
            DivergenceKind::Lint => "lint",
            DivergenceKind::BaselineCompile => "baseline-compile",
            DivergenceKind::Differential => "differential",
            DivergenceKind::SchemeOutput => "scheme-output",
            DivergenceKind::Conformance => "conformance",
            DivergenceKind::StaticAgreement => "static-agreement",
            DivergenceKind::Engine => "engine",
        }
    }
}

/// One confirmed divergence: the minting spec, its shrunk reproducer,
/// and the failing stage.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The spec that surfaced the divergence.
    pub spec: KernelSpec,
    /// Minimal spec still reproducing the same [`DivergenceKind`].
    pub shrunk: KernelSpec,
    /// Failing gauntlet stage.
    pub kind: DivergenceKind,
    /// Scheme the failure occurred under, when stage-specific.
    pub scheme: Option<&'static str>,
    /// Human-readable failure description.
    pub detail: String,
}

/// Aggregate gauntlet-stage counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Kernels generated.
    pub generated: u64,
    /// Kernels passing build + validate + lint.
    pub lint_clean: u64,
    /// Scheme compiles attempted (Baseline + protected).
    pub compiles: u64,
    /// Protected-scheme compiles the Penny pipeline rejected
    /// (tolerated skips, not failures).
    pub compile_skips: u64,
    /// Differential decoded-vs-reference comparisons executed.
    pub differential_runs: u64,
    /// Fault sites covered by conformance sweeps.
    pub conformance_sites: u64,
    /// Static site-class claims cross-examined against the replay
    /// engine (conformance sweeps run in validate mode).
    pub static_claims: u64,
}

impl StageCounts {
    fn add(&mut self, other: &StageCounts) {
        self.generated += other.generated;
        self.lint_clean += other.lint_clean;
        self.compiles += other.compiles;
        self.compile_skips += other.compile_skips;
        self.differential_runs += other.differential_runs;
        self.conformance_sites += other.conformance_sites;
        self.static_claims += other.static_claims;
    }
}

/// The outcome of one spec's trip through the gauntlet.
#[derive(Debug)]
pub struct GauntletOutcome {
    /// Stage counters for this spec alone.
    pub counts: StageCounts,
    /// The failure, if any stage diverged (not yet shrunk).
    pub failure: Option<(DivergenceKind, Option<&'static str>, String)>,
    /// Baseline golden output (sorted nonzero user words), when the
    /// baseline leg ran successfully.
    pub golden: Option<Vec<(u32, u32)>>,
    /// True when every configured scheme compiled (no skips) — the
    /// banking bar for corpus candidates.
    pub all_schemes_compiled: bool,
}

/// The full result of [`run_fuzz`].
#[derive(Debug)]
pub struct FuzzReport {
    /// The configuration that produced this report.
    pub config: FuzzConfig,
    /// Aggregate stage counters.
    pub counts: StageCounts,
    /// Every confirmed divergence, in iteration order.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Deterministic text report (no timings, no ordering ambiguity).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "penny-fuzz report");
        let _ = writeln!(out, "seed {}  iters {}", self.config.seed, self.config.iters);
        let c = &self.counts;
        let _ = writeln!(
            out,
            "generated {}  lint-clean {}  compiles {} (skips {})",
            c.generated, c.lint_clean, c.compiles, c.compile_skips
        );
        let _ = writeln!(
            out,
            "differential runs {}  conformance sites {}  static claims {}",
            c.differential_runs, c.conformance_sites, c.static_claims
        );
        let _ = writeln!(out, "divergences {}", self.divergences.len());
        for (i, d) in self.divergences.iter().enumerate() {
            let _ = writeln!(out, "--- divergence {} [{}] ---", i + 1, d.kind.tag());
            if let Some(s) = d.scheme {
                let _ = writeln!(out, "scheme: {s}");
            }
            let _ = writeln!(out, "spec:   {}", d.spec.render());
            let _ = writeln!(out, "shrunk: {}", d.shrunk.render());
            let _ = writeln!(out, "detail: {}", d.detail);
        }
        out
    }
}

/// The GPU configuration a scheme's runs use.
fn gpu_for(scheme: SchemeId) -> GpuConfig {
    GpuConfig::fermi().with_rf(scheme.rf())
}

/// The compiler configuration the gauntlet uses for a scheme: full
/// validation and the lint gate on.
fn gauntlet_config(scheme: SchemeId, spec: &KernelSpec) -> penny_core::PennyConfig {
    scheme.config().with_launch(spec.dims()).with_validation(true).with_lint(true)
}

/// Compares the two interpreter legs of one differential run.
fn compare_legs(
    fast: (Result<RunStats, penny_sim::SimError>, GlobalMemory),
    reference: (Result<RunStats, penny_sim::SimError>, GlobalMemory),
) -> Result<(), String> {
    match (fast.0, reference.0) {
        (Ok(fs), Ok(rs)) => {
            if fs != rs {
                return Err("stats diverge between decoded and reference paths".into());
            }
            if fast.1 != reference.1 {
                return Err(
                    "final memory diverges between decoded and reference paths".into()
                );
            }
            Ok(())
        }
        (Err(fe), Err(re)) => {
            if fe != re {
                return Err(format!("error kinds diverge: decoded={fe} reference={re}"));
            }
            Ok(())
        }
        (Ok(_), Err(e)) => Err(format!("reference errors ({e}) but decoded succeeds")),
        (Err(e), Ok(_)) => Err(format!("decoded errors ({e}) but reference succeeds")),
    }
}

/// A registry-shaped [`Workload`] for a generated spec (conformance
/// and banking both consume workload values). Leaks the name/abbr
/// strings — bounded by the iteration count.
pub fn spec_workload(spec: &KernelSpec, golden: Vec<(u32, u32)>) -> Workload {
    let kernel = spec.build();
    let entry = CorpusEntry {
        abbr: spec.name(),
        name: format!("fuzz {} {}", spec.family.tag(), spec.render()),
        family: spec.family.tag().to_string(),
        spec: Some(spec.render()),
        dims: spec.dims(),
        image: spec.image(),
        golden,
        asm: kernel.to_string(),
    };
    entry.into_workload()
}

/// Runs one spec through the whole gauntlet. Never panics: stage
/// panics are caught and reported as [`DivergenceKind::Engine`].
pub fn run_gauntlet(spec: &KernelSpec, cfg: &FuzzConfig) -> GauntletOutcome {
    let mut out = GauntletOutcome {
        counts: StageCounts { generated: 1, ..StageCounts::default() },
        failure: None,
        golden: None,
        all_schemes_compiled: true,
    };
    let fail = |o: &mut GauntletOutcome, kind, scheme, detail: String| {
        o.failure = Some((kind, scheme, detail));
    };

    // Stage 1 — build + validate (the builder validates on finish).
    let kernel = match catch_unwind(AssertUnwindSafe(|| spec.build())) {
        Ok(k) => k,
        Err(p) => {
            fail(&mut out, DivergenceKind::Build, None, panic_text(p));
            return out;
        }
    };

    // Stage 2 — lint must be clean for the spec's launch geometry.
    let dims = spec.dims();
    let diags = lint_kernel(&kernel, &LintOptions::for_launch(dims.block, dims.grid));
    if !diags.is_empty() {
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let joined = diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ");
        fail(
            &mut out,
            DivergenceKind::Lint,
            None,
            format!("{} diagnostics ({errors} errors): {joined}", diags.len()),
        );
        return out;
    }
    out.counts.lint_clean = 1;

    // Stage 3a — the Baseline pipeline must accept every generated
    // kernel (it skips checkpoint instrumentation entirely).
    out.counts.compiles += 1;
    let baseline = match catch_unwind(AssertUnwindSafe(|| {
        penny_core::compile(&kernel, &gauntlet_config(SchemeId::Baseline, spec))
    })) {
        Ok(Ok(p)) => p,
        Ok(Err(e)) => {
            fail(
                &mut out,
                DivergenceKind::BaselineCompile,
                Some("Baseline"),
                e.to_string(),
            );
            return out;
        }
        Err(p) => {
            fail(
                &mut out,
                DivergenceKind::BaselineCompile,
                Some("Baseline"),
                panic_text(p),
            );
            return out;
        }
    };

    // Stage 4a — Baseline differential, fault-free; its output is the
    // cross-scheme golden.
    let image = spec.image();
    // Fault seeds follow the spec content, so every spec sees its own
    // deterministic plans.
    let spec_salt = spec.render().bytes().fold(0u64, |h, b| splitmix64(h ^ u64::from(b)));
    let faults_of =
        |salt: u64, regs: u32| gen::fault_plan(splitmix64(spec_salt ^ salt), dims, regs, 3);
    let run_diff = |protected: &Protected,
                    scheme: SchemeId,
                    plan: &penny_sim::FaultPlan|
     -> Result<GlobalMemory, String> {
        let (fast, reference) =
            gen::try_run_pair(protected, dims, &gpu_for(scheme), plan, &image);
        let mem = fast.1.fork();
        compare_legs(fast, reference).map(|()| mem)
    };
    out.counts.differential_runs += 1;
    let golden_mem = match catch_unwind(AssertUnwindSafe(|| {
        run_diff(&baseline, SchemeId::Baseline, &penny_sim::FaultPlan::none())
    })) {
        Ok(Ok(mem)) => mem,
        Ok(Err(e)) => {
            fail(&mut out, DivergenceKind::Differential, Some("Baseline"), e);
            return out;
        }
        Err(p) => {
            fail(&mut out, DivergenceKind::Engine, Some("Baseline"), panic_text(p));
            return out;
        }
    };
    let golden = user_words(&golden_mem);
    out.golden = Some(golden.clone());

    // Stages 3b/4b/5 — protected schemes: compile (skips tolerated),
    // differential fault-free + under fault plans, output vs golden.
    let mut skipped = Vec::new();
    for &scheme in &cfg.schemes {
        out.counts.compiles += 1;
        let Some(protected) = gen::try_compile(&kernel, gauntlet_config(scheme, spec))
        else {
            out.counts.compile_skips += 1;
            out.all_schemes_compiled = false;
            skipped.push(scheme);
            continue;
        };
        let regs = protected.kernel.vreg_limit().max(1);
        let mut plans = vec![penny_sim::FaultPlan::none()];
        for p in 0..cfg.fault_plans {
            plans.push(faults_of(0xF417 + p, regs));
        }
        for (pi, plan) in plans.iter().enumerate() {
            out.counts.differential_runs += 1;
            let res = catch_unwind(AssertUnwindSafe(|| run_diff(&protected, scheme, plan)));
            match res {
                Ok(Ok(mem)) => {
                    // Cross-scheme check on the fault-free run only:
                    // protection must not change program semantics.
                    if pi == 0 && user_words(&mem) != golden {
                        fail(
                            &mut out,
                            DivergenceKind::SchemeOutput,
                            Some(scheme.name()),
                            "fault-free output differs from Baseline golden".into(),
                        );
                        return out;
                    }
                }
                Ok(Err(e)) => {
                    fail(&mut out, DivergenceKind::Differential, Some(scheme.name()), e);
                    return out;
                }
                Err(p) => {
                    fail(
                        &mut out,
                        DivergenceKind::Engine,
                        Some(scheme.name()),
                        panic_text(p),
                    );
                    return out;
                }
            }
        }
    }

    // Stage 6 — budgeted snapshot/replay conformance sweeps in
    // validate mode: same replays, plus a static-vs-dynamic agreement
    // cross-examination of every compile-time site classification.
    if cfg.conformance_budget > 0 && !cfg.conformance_schemes.is_empty() {
        let workload = spec_workload(spec, golden);
        for &scheme in &cfg.conformance_schemes {
            // Stage 3b compiled (and counted) every listed scheme; only
            // an unlisted one is compiled here.
            if skipped.contains(&scheme)
                || (!cfg.schemes.contains(&scheme)
                    && gen::try_compile(&kernel, gauntlet_config(scheme, spec)).is_none())
            {
                continue;
            }
            let budget = cfg.conformance_budget;
            let report = match catch_unwind(AssertUnwindSafe(|| {
                run_conformance_static_for(&workload, scheme, budget, StaticMode::Validate)
            })) {
                Ok(r) => r,
                Err(p) => {
                    fail(
                        &mut out,
                        DivergenceKind::Engine,
                        Some(scheme.name()),
                        panic_text(p),
                    );
                    return out;
                }
            };
            out.counts.conformance_sites += report.covered;
            out.counts.static_claims += report.static_checked;
            if let Some(detail) = conformance_failure(&report) {
                fail(&mut out, DivergenceKind::Conformance, Some(scheme.name()), detail);
                return out;
            }
            if let Some(detail) = static_disagreement(&report) {
                fail(
                    &mut out,
                    DivergenceKind::StaticAgreement,
                    Some(scheme.name()),
                    detail,
                );
                return out;
            }
        }
    }

    out
}

/// Renders a conformance report's failures, if any.
fn conformance_failure(report: &ConformanceReport) -> Option<String> {
    if report.recovered == report.covered {
        return None;
    }
    let mut detail = format!(
        "{}/{} covered sites unrecovered",
        report.covered - report.recovered,
        report.covered
    );
    for f in &report.failures {
        let _ = write!(
            detail,
            "; site b{}w{}l{}r{}bit{}t{}: {}",
            f.injection.block,
            f.injection.warp,
            f.injection.lane,
            f.injection.reg,
            f.injection.bit,
            f.injection.after_warp_insts,
            f.reason
        );
    }
    Some(detail)
}

/// Renders a validate-mode report's static/dynamic disagreements, if
/// any.
fn static_disagreement(report: &ConformanceReport) -> Option<String> {
    if report.static_disagreements == 0 {
        return None;
    }
    let mut detail = format!(
        "{} of {} static claims contradicted by the replay engine",
        report.static_disagreements, report.static_checked
    );
    for (pos, reason) in &report.disagreements {
        let _ = write!(detail, "; site {pos}: {reason}");
    }
    Some(detail)
}

/// Best-effort text from a panic payload.
fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".into()
    }
}

/// Maximum shrink candidates tried per divergence.
pub const MAX_SHRINK_TRIALS: usize = 96;

/// Greedily shrinks `spec` while `fails` holds, deterministically:
/// candidates are tried in a fixed order (drop op block halves, drop
/// single ops, disable the barrier, halve the sparse row density), a
/// candidate is accepted only if it strictly reduces
/// [`KernelSpec::size`] *and* still fails, and the search is bounded
/// by [`MAX_SHRINK_TRIALS`]. The result always still fails (the input
/// is returned unchanged if nothing smaller does).
pub fn shrink_spec(spec: &KernelSpec, fails: &dyn Fn(&KernelSpec) -> bool) -> KernelSpec {
    let mut best = spec.clone();
    let mut trials = 0usize;
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&best) {
            if trials >= MAX_SHRINK_TRIALS {
                return best;
            }
            debug_assert!(cand.size() < best.size());
            trials += 1;
            if fails(&cand) {
                best = cand;
                improved = true;
                break; // restart candidate generation from the new best
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Strictly smaller candidate specs, most aggressive first.
fn shrink_candidates(spec: &KernelSpec) -> Vec<KernelSpec> {
    let mut out = Vec::new();
    let n = spec.ops.len();
    // Drop the first/second half of the op script.
    if n >= 2 {
        let mid = n / 2;
        let mut a = spec.clone();
        a.ops = spec.ops[mid..].to_vec();
        out.push(a);
        let mut b = spec.clone();
        b.ops = spec.ops[..mid].to_vec();
        out.push(b);
    }
    // Drop each single op, ascending index.
    if n >= 2 {
        for i in 0..n {
            let mut c = spec.clone();
            c.ops.remove(i);
            out.push(c);
        }
    }
    // Disable the dense barrier.
    if spec.barrier {
        let mut c = spec.clone();
        c.barrier = false;
        out.push(c);
    }
    // Thin the sparse topology toward single-nonzero rows.
    if spec.max_row_nnz > 1 {
        let mut c = spec.clone();
        c.max_row_nnz = (spec.max_row_nnz / 2).max(1);
        out.push(c);
    }
    out
}

/// Runs the full fuzz loop: `iters` specs derived from `seed`, each
/// through the gauntlet; divergences are shrunk against their
/// divergence kind. Records one `campaign` span per iteration on the
/// process-global recorder (`penny_bench::obs`), when one is
/// installed.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut counts = StageCounts::default();
    let mut divergences = Vec::new();
    for i in 0..cfg.iters {
        let spec = KernelSpec::from_seed(cfg.seed.wrapping_add(i));
        let rec = penny_bench::obs::recorder();
        let timer = penny_obs::SpanTimer::start(rec.as_ref());
        let outcome = run_gauntlet(&spec, cfg);
        counts.add(&outcome.counts);
        if rec.enabled() {
            penny_obs::record(
                rec.as_ref(),
                penny_obs::SpanKind::Campaign,
                &spec.name(),
                "fuzz-gauntlet",
                timer.elapsed_ns(),
                &[
                    ("lint_clean", outcome.counts.lint_clean),
                    ("compiles", outcome.counts.compiles),
                    ("compile_skips", outcome.counts.compile_skips),
                    ("differential_runs", outcome.counts.differential_runs),
                    ("conformance_sites", outcome.counts.conformance_sites),
                    ("diverged", u64::from(outcome.failure.is_some())),
                ],
            );
        }
        if let Some((kind, scheme, detail)) = outcome.failure {
            let shrunk = shrink_spec(
                &spec,
                &|cand| matches!(&run_gauntlet(cand, cfg).failure, Some((k, _, _)) if *k == kind),
            );
            divergences.push(Divergence { spec, shrunk, kind, scheme, detail });
        }
    }
    FuzzReport { config: cfg.clone(), counts, divergences }
}

/// Replays one banked workload through the whole gauntlet: parse +
/// validate + lint, compile under every scheme (validation + lint on),
/// decoded-vs-reference differential (fault-free and faulted), golden
/// output check, and a budgeted Penny conformance sweep in validate
/// mode (every static site-class claim cross-examined against the
/// replay engine).
///
/// # Errors
///
/// Describes the first failing stage.
pub fn replay_workload(w: &Workload, conformance_budget: u64) -> Result<(), String> {
    let kernel = w.kernel().map_err(|e| format!("{}: parse: {e}", w.abbr))?;
    penny_ir::validate(&kernel).map_err(|e| format!("{}: validate: {e}", w.abbr))?;

    let diags = lint_kernel(&kernel, &LintOptions::for_launch(w.dims.block, w.dims.grid));
    if !diags.is_empty() {
        let joined = diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("; ");
        return Err(format!("{}: lint: {joined}", w.abbr));
    }

    let Setup::Image(image) = &w.setup else {
        return Err(format!("{}: corpus workloads must carry a memory image", w.abbr));
    };
    let Verify::Golden(golden) = &w.verify else {
        return Err(format!("{}: corpus workloads must carry a golden snapshot", w.abbr));
    };

    let schemes = [
        SchemeId::Baseline,
        SchemeId::IGpu,
        SchemeId::BoltGlobal,
        SchemeId::BoltAuto,
        SchemeId::Penny,
    ];
    for scheme in schemes {
        let cfg = scheme.config().with_launch(w.dims).with_validation(true).with_lint(true);
        let Some(protected) = gen::try_compile(&kernel, cfg) else {
            if scheme == SchemeId::Baseline || scheme == SchemeId::Penny {
                return Err(format!(
                    "{}: {} must compile banked kernels",
                    w.abbr,
                    scheme.name()
                ));
            }
            continue;
        };
        // Fault-free differential + golden check.
        let (fast, reference) = gen::try_run_pair(
            &protected,
            w.dims,
            &gpu_for(scheme),
            &penny_sim::FaultPlan::none(),
            image,
        );
        let mem = fast.1.fork();
        compare_legs(fast, reference)
            .map_err(|e| format!("{}: {} differential: {e}", w.abbr, scheme.name()))?;
        if user_words(&mem) != **golden {
            return Err(format!(
                "{}: {} fault-free output differs from banked golden",
                w.abbr,
                scheme.name()
            ));
        }
        // Faulted differential.
        let regs = protected.kernel.vreg_limit().max(1);
        let plan = gen::fault_plan(0xC0FFEE ^ regs as u64, w.dims, regs, 3);
        let (fast, reference) =
            gen::try_run_pair(&protected, w.dims, &gpu_for(scheme), &plan, image);
        compare_legs(fast, reference).map_err(|e| {
            format!("{}: {} faulted differential: {e}", w.abbr, scheme.name())
        })?;
    }

    if conformance_budget > 0 {
        let report = run_conformance_static_for(
            w,
            SchemeId::Penny,
            conformance_budget,
            StaticMode::Validate,
        );
        if let Some(detail) = conformance_failure(&report) {
            return Err(format!("{}: conformance: {detail}", w.abbr));
        }
        if let Some(detail) = static_disagreement(&report) {
            return Err(format!("{}: static agreement: {detail}", w.abbr));
        }
    }
    Ok(())
}

/// Banks a spec as a committed corpus file: renders the entry (spec
/// line, memory image, parameter words, golden output, kernel text)
/// and writes `<dir>/<name>.pir`. The caller is responsible for having
/// gauntlet-verified the spec first.
///
/// # Errors
///
/// Propagates I/O errors and refuses specs whose baseline leg fails.
pub fn bank_spec(
    spec: &KernelSpec,
    dir: &std::path::Path,
) -> Result<std::path::PathBuf, String> {
    let kernel = spec.build();
    let dims = spec.dims();
    let image = spec.image();
    let baseline = gen::try_compile(&kernel, gauntlet_config(SchemeId::Baseline, spec))
        .ok_or_else(|| format!("{}: baseline must compile", spec.name()))?;
    let ((_, mem), _) = gen::run_pair(
        &baseline,
        dims,
        &gpu_for(SchemeId::Baseline),
        &penny_sim::FaultPlan::none(),
        &image,
    );
    let entry = CorpusEntry {
        abbr: spec.name(),
        name: format!("fuzz {} {}", spec.family.tag(), spec.name()),
        family: spec.family.tag().to_string(),
        spec: Some(spec.render()),
        dims,
        image,
        golden: user_words(&mem),
        asm: kernel.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.pir", spec.name()));
    std::fs::write(&path, entry.render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Loads and replays every corpus entry under `dir`.
///
/// # Errors
///
/// Returns every failing entry's description (the gate reports all
/// failures, not just the first).
pub fn replay_dir(
    dir: &std::path::Path,
    conformance_budget: u64,
) -> Result<usize, Vec<String>> {
    let workloads = match penny_workloads::corpus::load_dir(dir) {
        Ok(ws) => ws,
        Err(e) => return Err(vec![e]),
    };
    let mut errors = Vec::new();
    for w in &workloads {
        if w.suite != Suite::Corpus {
            errors.push(format!("{}: not a corpus workload", w.abbr));
            continue;
        }
        if let Err(e) = replay_workload(w, conformance_budget) {
            errors.push(e);
        }
    }
    if errors.is_empty() {
        Ok(workloads.len())
    } else {
        Err(errors)
    }
}

/// True when the workload's source is owned text (a banked entry).
pub fn is_text_sourced(w: &Workload) -> bool {
    matches!(w.source, Source::Text(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauntlet_is_clean_on_known_good_specs() {
        let cfg = FuzzConfig { conformance_budget: 8, ..FuzzConfig::new(0, 0) };
        for spec in
            [KernelSpec::dense(vec![0, 5], true), KernelSpec::sparse(vec![0, 6], 0x77, 3)]
        {
            let out = run_gauntlet(&spec, &cfg);
            assert!(out.failure.is_none(), "{:?}: {:?}", spec.render(), out.failure);
            assert_eq!(out.counts.lint_clean, 1);
            assert!(out.golden.is_some());
        }
    }

    #[test]
    fn fuzz_run_is_deterministic() {
        let cfg = FuzzConfig { conformance_budget: 4, ..FuzzConfig::new(11, 6) };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn spec_workload_round_trips_through_corpus_entry() {
        let spec = KernelSpec::sparse(vec![0, 1, 6], 0xBEEF, 4);
        let w = spec_workload(&spec, vec![(0x4000, 7)]);
        assert_eq!(w.suite, Suite::Corpus);
        assert!(is_text_sourced(&w));
        let k = w.kernel().expect("printed kernel must reparse");
        penny_ir::validate(&k).expect("reparsed kernel must validate");
    }
}
