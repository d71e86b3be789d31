//! Shared machinery for running workloads under the evaluated schemes.

use penny_coding::Scheme;
use penny_core::{CompileStats, PennyConfig, Protected};
use penny_sim::{engine, GlobalMemory, GpuConfig, RfProtection, RunStats};
use penny_workloads::Workload;

/// The protection schemes of the paper's performance figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeId {
    /// Unmodified program, unprotected RF.
    Baseline,
    /// iGPU (renaming; ECC RF).
    IGpu,
    /// Bolt storing checkpoints in global memory.
    BoltGlobal,
    /// Bolt with Penny's automatic storage assignment.
    BoltAuto,
    /// Fully optimized Penny.
    Penny,
}

impl SchemeId {
    /// Every scheme, in the paper's legend order.
    pub const ALL: [SchemeId; 5] = [
        SchemeId::Baseline,
        SchemeId::IGpu,
        SchemeId::BoltGlobal,
        SchemeId::BoltAuto,
        SchemeId::Penny,
    ];

    /// Parses a CLI token (the variant name, e.g. `BoltGlobal`) back
    /// into a scheme. Tokens are distinct from the slash-y display
    /// names so they survive shells and comma-separated flags.
    pub fn from_token(s: &str) -> Option<SchemeId> {
        Self::ALL.iter().copied().find(|v| v.token() == s)
    }

    /// The CLI token accepted by [`SchemeId::from_token`].
    pub fn token(self) -> &'static str {
        match self {
            SchemeId::Baseline => "Baseline",
            SchemeId::IGpu => "IGpu",
            SchemeId::BoltGlobal => "BoltGlobal",
            SchemeId::BoltAuto => "BoltAuto",
            SchemeId::Penny => "Penny",
        }
    }

    /// Display name (matches the paper's legends).
    pub fn name(self) -> &'static str {
        match self {
            SchemeId::Baseline => "Baseline",
            SchemeId::IGpu => "iGPU",
            SchemeId::BoltGlobal => "Bolt/Global",
            SchemeId::BoltAuto => "Bolt/Auto_storage",
            SchemeId::Penny => "Penny",
        }
    }

    /// Compiler configuration for this scheme.
    pub fn config(self) -> PennyConfig {
        match self {
            SchemeId::Baseline => PennyConfig::unprotected(),
            SchemeId::IGpu => PennyConfig::igpu(),
            SchemeId::BoltGlobal => PennyConfig::bolt_global(),
            SchemeId::BoltAuto => PennyConfig::bolt_auto(),
            SchemeId::Penny => PennyConfig::penny(),
        }
    }

    /// RF protection mode this scheme runs with.
    pub fn rf(self) -> RfProtection {
        match self {
            SchemeId::Baseline => RfProtection::None,
            SchemeId::IGpu => RfProtection::Ecc(Scheme::Secded),
            _ => RfProtection::Edc(Scheme::Parity),
        }
    }
}

/// Result of one measured run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Simulator statistics.
    pub run: RunStats,
    /// Compiler statistics.
    pub compile: CompileStats,
}

/// One (series, workload) cell of a figure: `workload` compiled under
/// `config` for, and run on, `gpu`.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// Compiler configuration (launch dims and machine are filled in).
    pub config: &'a PennyConfig,
    /// Machine and RF protection of the run.
    pub gpu: &'a GpuConfig,
}

impl Job<'_> {
    /// The configuration the job compiles under: its own plus the
    /// workload's launch dims and the run's machine parameters.
    pub fn compile_config(&self) -> PennyConfig {
        self.config.clone().with_launch(self.workload.dims).with_machine(self.gpu.machine)
    }
}

/// Runs every job, simulating each distinct launch once.
///
/// Jobs are grouped by workload, and each workload's jobs by launch key
/// ([`penny_cache::launch_key`] of the artifact's cached launch digest
/// and the job's machine): configurations that lower the kernel to the
/// same engine-visible artifact share one simulation and output check.
/// The workloads fan out across one [`crate::parallel::parallel_map`].
/// Every job gets its own artifact's [`CompileStats`]; results come back
/// in job order and are bit-identical to running each job alone.
///
/// # Panics
///
/// Like [`run_workload`], on compile or simulation failure or wrong
/// output.
pub fn run_batch(jobs: &[Job<'_>]) -> Vec<Measured> {
    let mut by_workload: Vec<Vec<usize>> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match by_workload.iter_mut().find(|g| jobs[g[0]].workload.abbr == job.workload.abbr)
        {
            Some(group) => group.push(i),
            None => by_workload.push(vec![i]),
        }
    }
    let per_workload = crate::parallel::parallel_map(&by_workload, |group| {
        let mut launched: Vec<(u64, RunStats)> = Vec::new();
        group
            .iter()
            .map(|&i| {
                let job = &jobs[i];
                let (protected, digest) =
                    crate::cache::compiled_for_launch(job.workload, &job.compile_config());
                let key = penny_cache::launch_key(digest, job.gpu);
                let run = match launched.iter().find(|(k, _)| *k == key) {
                    Some(&(_, run)) => run,
                    None => {
                        let run = launch(job.workload, &protected, job.config, job.gpu);
                        launched.push((key, run));
                        run
                    }
                };
                (i, Measured { run, compile: protected.stats })
            })
            .collect::<Vec<_>>()
    });
    let mut measured: Vec<(usize, Measured)> = per_workload.into_iter().flatten().collect();
    measured.sort_unstable_by_key(|&(i, _)| i);
    measured.into_iter().map(|(_, m)| m).collect()
}

/// Compiles (or fetches the cached compilation of) and runs one
/// workload under an explicit configuration. The simulator borrows
/// `gpu_config` directly — nothing is cloned per run.
///
/// # Panics
///
/// Panics on compile or simulation failure — the correctness test suite
/// guarantees neither happens for registered workloads.
pub fn run_workload(
    w: &Workload,
    config: &PennyConfig,
    gpu_config: &GpuConfig,
) -> Measured {
    let job = Job { workload: w, config, gpu: gpu_config };
    let protected = crate::cache::compiled(w, &job.compile_config());
    let run = launch(w, &protected, config, gpu_config);
    Measured { run, compile: protected.stats }
}

/// Simulates one compiled artifact of `w` (compiled under `config`) on
/// `gpu_config` and checks the workload's output: the one launch every
/// harness run goes through.
fn launch(
    w: &Workload,
    protected: &Protected,
    config: &PennyConfig,
    gpu_config: &GpuConfig,
) -> RunStats {
    let mut global = GlobalMemory::new();
    let launch = w.prepare(&mut global);
    let run = engine::run_observed(
        gpu_config,
        protected,
        &launch,
        &mut global,
        crate::obs::recorder().as_ref(),
    )
    .unwrap_or_else(|e| panic!("{}: run: {e}", w.abbr));
    assert!(w.check(&global), "{}: wrong output under {config:?}", w.abbr);
    run
}

/// Runs a workload under one of the named schemes (Fermi by default).
pub fn run_scheme(w: &Workload, scheme: SchemeId, base: &GpuConfig) -> Measured {
    let gpu_config = base.clone().with_rf(scheme.rf());
    run_workload(w, &scheme.config(), &gpu_config)
}

/// Geometric mean.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 1.0);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scheme_wiring() {
        assert_eq!(SchemeId::Penny.name(), "Penny");
        assert!(matches!(SchemeId::IGpu.rf(), RfProtection::Ecc(_)));
        assert!(matches!(SchemeId::Penny.rf(), RfProtection::Edc(Scheme::Parity)));
        assert!(matches!(SchemeId::Baseline.rf(), RfProtection::None));
    }

    #[test]
    fn baseline_run_of_one_workload() {
        let w = penny_workloads::by_abbr("MT").expect("MT");
        let m = run_scheme(&w, SchemeId::Baseline, &GpuConfig::fermi());
        assert!(m.run.cycles > 0);
        assert_eq!(m.compile.total_checkpoints, 0);
    }
}
