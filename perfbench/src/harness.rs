//! What every workload shares: the workload interface, the cold
//! parse-and-compile step of every set-up, and the conformance report
//! checks.

use std::cell::Cell;
use std::time::Instant;

use penny_bench::conformance::ConformanceReport;
use penny_core::{CompileError, LaunchDims, PennyConfig, Protected};
use penny_obs::MemRecorder;
use penny_sim::GlobalMemory;

use crate::trace::Tracer;

/// Operations one round attempted, the ones that failed a check, and
/// the units of work it completed (the numerator of `items_per_s`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Units of work completed (compiles, answered sites, targets).
    pub items: u64,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Attempted operations whose output check failed.
    pub failed: u64,
}

impl std::ops::AddAssign for Ops {
    fn add_assign(&mut self, o: Ops) {
        self.items += o.items;
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

impl Ops {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The untimed set-up: generate the inputs from the seed, parse every
    /// kernel and compile every (kernel, config) pair the workload uses
    /// from scratch. Called several times; each call starts over.
    fn setup(&mut self, t: &mut Tracer);

    /// One untimed round before timing starts: fills the program's
    /// caches and computes any reference later rounds are checked
    /// against.
    fn warm_up(&mut self) {
        self.round();
    }

    /// One timed round through the program's public entry points; its
    /// outputs are kept for [`Workload::check`].
    fn round(&mut self);

    /// The round with a span around every call into a layer.
    fn traced_round(&mut self, t: &mut Tracer);

    /// Checks the last round's outputs (untimed).
    fn check(&mut self) -> Ops;

    /// Failures no single round's ops record, such as a traced re-drive
    /// disagreeing with the program's own report; one message each.
    fn final_failures(&self) -> Vec<String> {
        Vec::new()
    }

    /// Lines printed before the result (values worth reading beside the
    /// metrics, such as simulated results next to the paper's).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// One kernel of a set-up: a name, its assembly text and launch
/// geometry.
#[derive(Debug, Clone)]
pub struct KernelText {
    /// Display name.
    pub name: String,
    /// Assembly text.
    pub text: String,
    /// Launch geometry.
    pub dims: LaunchDims,
}

impl KernelText {
    /// A workload's kernel.
    pub fn of(w: &penny_workloads::Workload) -> KernelText {
        KernelText { name: w.abbr.to_string(), text: w.source_text(), dims: w.dims }
    }
}

/// One kernel's parse-and-compile outcome.
pub struct Compiled {
    /// The parse error, if the text did not parse.
    pub parse_error: Option<String>,
    /// Per config: the artifact (or compile error) and the compile's
    /// wall time in nanoseconds.
    pub artifacts: Vec<(Result<Protected, CompileError>, u64)>,
}

/// Parses every kernel and compiles it under each of its configs from
/// scratch (no compile cache). With the tracer on, each parse gets an
/// `ir.parse` span and each compile a `core.compile` span with the
/// pipeline's pass spans as children.
pub fn parse_and_compile(
    t: &mut Tracer,
    kernels: &[KernelText],
    configs: impl Fn(&KernelText) -> Vec<PennyConfig>,
) -> Vec<Compiled> {
    kernels.iter().map(|k| compile_one(k, &configs(k), t)).collect()
}

fn compile_one(k: &KernelText, configs: &[PennyConfig], t: &mut Tracer) -> Compiled {
    let parsed = t.time("ir.parse", || penny_ir::parse_kernel(&k.text));
    let kernel = match parsed {
        Ok(kernel) => kernel,
        Err(e) => {
            return Compiled {
                parse_error: Some(format!("{}: {e}", k.name)),
                artifacts: Vec::new(),
            }
        }
    };
    let artifacts = configs
        .iter()
        .map(|cfg| {
            let start = Instant::now();
            let artifact = if t.is_on() {
                t.enter("core.compile");
                let rec = MemRecorder::new();
                let artifact =
                    compile_caught(|| penny_core::compile_observed(&kernel, cfg, &rec));
                t.attach(rec.take(), |s| Some(format!("core.pass.{}", s.label)));
                t.exit(&[]);
                artifact
            } else {
                compile_caught(|| penny_core::compile(&kernel, cfg))
            };
            (artifact, start.elapsed().as_nanos() as u64)
        })
        .collect();
    Compiled { parse_error: None, artifacts }
}

thread_local! {
    /// Set while a compile runs under [`compile_caught`]: the panic hook
    /// installed by [`quiet_compile_panics`] stays silent then.
    static IN_COMPILE: Cell<bool> = const { Cell::new(false) };
}

/// Installs a panic hook that stays silent for panics [`compile_caught`]
/// turns into errors, and reports every other panic as before.
pub fn quiet_compile_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_COMPILE.with(Cell::get) {
            default(info);
        }
    }));
}

/// Runs a compile, turning a compiler panic into
/// [`CompileError::Internal`]. The compiler can still panic on some
/// generated kernels; the program's own generative suites skip those
/// (`penny_sim::gen::try_compile`), and so does this benchmark.
fn compile_caught(
    compile: impl FnOnce() -> Result<Protected, CompileError>,
) -> Result<Protected, CompileError> {
    IN_COMPILE.with(|f| f.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compile));
    IN_COMPILE.with(|f| f.set(false));
    result.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(CompileError::Internal(format!("compiler panicked: {msg}")))
    })
}

/// Set-up failures: a kernel that did not parse or a pair that did not
/// compile, where every input is expected to.
pub fn setup_errors(kernels: &[KernelText], compiled: &[Compiled]) -> Vec<String> {
    let mut errors = Vec::new();
    for (k, c) in kernels.iter().zip(compiled) {
        errors.extend(c.parse_error.clone());
        for (artifact, _) in &c.artifacts {
            if let Err(e) = artifact {
                errors.push(format!("{}: set-up compile: {e}", k.name));
            }
        }
    }
    errors
}

/// User-visible final memory: nonzero words below the checkpoint arena
/// (the comparison the conformance harness makes).
pub fn user_memory(global: &GlobalMemory) -> Vec<(u32, u32)> {
    let mut words = global.nonzero_words();
    words.retain(|&(addr, _)| addr < penny_core::GLOBAL_CKPT_BASE);
    words
}

/// The checks every conformance report must pass: every covered site
/// recovered, no static claim contradicted, and the accounting identity
/// covered + pruned + skipped = total (with nothing skipped when the
/// sweep is exhaustive).
pub fn check_report(r: &ConformanceReport, exhaustive: bool) -> Result<(), String> {
    let name = format!("{} {}", r.workload, r.variant);
    if !r.failures.is_empty() || r.recovered != r.covered {
        return Err(format!(
            "{name}: {} of {} sites did not recover",
            r.covered - r.recovered,
            r.covered
        ));
    }
    if r.static_disagreements != 0 {
        return Err(format!(
            "{name}: {} static claims contradicted",
            r.static_disagreements
        ));
    }
    if r.covered + r.pruned_static + r.skipped != r.total {
        return Err(format!("{name}: covered + pruned + skipped != total"));
    }
    if exhaustive && r.skipped != 0 {
        return Err(format!("{name}: exhaustive sweep skipped {} sites", r.skipped));
    }
    Ok(())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
