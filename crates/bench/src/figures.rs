//! One function per table and figure of the paper's evaluation section.
//!
//! Each returns a structured result the `penny-eval` binary renders as a
//! text table; `EXPERIMENTS.md` records the measured values against the
//! paper's.

use penny_core::{OverwritePolicy, PennyConfig, PruningMode, StoragePolicy};
use penny_sim::{energy, GpuConfig, RfProtection};
use penny_workloads::{all, Workload};

use crate::parallel::parallel_map;
use crate::runner::{gmean, run_batch, Job, Measured, SchemeId};

/// A named series of per-workload values plus its geometric mean.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(workload abbreviation, value)` pairs.
    pub values: Vec<(String, f64)>,
    /// Geometric mean over the values.
    pub gmean: f64,
}

impl Series {
    /// Builds a series, computing the geometric mean.
    pub fn new(name: impl Into<String>, values: Vec<(String, f64)>) -> Series {
        let g = gmean(&values.iter().map(|(_, v)| *v).collect::<Vec<_>>());
        Series { name: name.into(), values, gmean: g }
    }

    /// Value for one workload.
    pub fn value(&self, abbr: &str) -> Option<f64> {
        self.values.iter().find(|(a, _)| a == abbr).map(|(_, v)| *v)
    }
}

/// A whole figure: multiple series over the same workloads.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title.
    pub title: String,
    /// Workload abbreviations (x axis).
    pub workloads: Vec<String>,
    /// Series (bars).
    pub series: Vec<Series>,
}

/// The runs behind one overhead figure: every series on every workload,
/// each normalized to the workload's Baseline run on `gpu`.
pub struct Plan {
    /// Figure title.
    pub title: &'static str,
    /// Machine of the Baseline runs the series are normalized to.
    pub gpu: GpuConfig,
    /// Workloads (x axis).
    pub workloads: Vec<Workload>,
    /// Legend label, compiler configuration and machine of each series.
    pub series: Vec<(&'static str, PennyConfig, GpuConfig)>,
}

impl Plan {
    /// Every (series, workload) job, series-major.
    pub fn jobs(&self) -> Vec<Job<'_>> {
        self.series
            .iter()
            .flat_map(|(_, config, gpu)| {
                self.workloads.iter().map(move |workload| Job { workload, config, gpu })
            })
            .collect()
    }

    /// Runs every job in one [`run_batch`]. Returns each workload's
    /// Baseline measurement (one cached simulation per workload and
    /// machine, shared by every figure) and, per series, each
    /// workload's measurement.
    pub fn run(&self) -> (Vec<Measured>, Vec<Vec<Measured>>) {
        let mut measured = run_batch(&self.jobs()).into_iter();
        let baselines =
            parallel_map(&self.workloads, |w| crate::cache::baseline(w, &self.gpu));
        let n = self.workloads.len();
        let rows =
            self.series.iter().map(|_| measured.by_ref().take(n).collect()).collect();
        (baselines, rows)
    }

    /// The figure: each series' execution time over the Baseline's.
    pub fn figure(&self) -> Figure {
        let (baselines, rows) = self.run();
        let series = self
            .series
            .iter()
            .zip(rows)
            .map(|((name, _, _), row)| {
                let values = self
                    .workloads
                    .iter()
                    .zip(row.iter().zip(&baselines))
                    .map(|(w, (m, base))| {
                        (w.abbr.to_string(), m.run.cycles as f64 / base.run.cycles as f64)
                    })
                    .collect();
                Series::new(*name, values)
            })
            .collect();
        Figure {
            title: self.title.into(),
            workloads: self.workloads.iter().map(|w| w.abbr.to_string()).collect(),
            series,
        }
    }
}

/// Figure 9: normalized fault-free execution time of iGPU, Bolt/Global,
/// Bolt/Auto_storage and Penny on the Fermi-class machine.
pub fn fig9() -> Figure {
    fig9_plan().figure()
}

/// The runs of [`fig9`].
pub fn fig9_plan() -> Plan {
    performance_plan(
        "Figure 9: fault-free execution time (Fermi)",
        GpuConfig::fermi(),
        all(),
    )
}

/// Figure 15: the same comparison on the Volta-class machine, over the
/// paper's 19-application subset.
pub fn fig15() -> Figure {
    fig15_plan().figure()
}

/// The runs of [`fig15`].
pub fn fig15_plan() -> Plan {
    let subset = [
        "CP", "NN", "NQU", "SGEMM", "SPMV", "TPACF", "BP", "BFS", "GAU", "HS", "PF",
        "SRAD", "SC", "BS", "BO", "CS", "FW", "SP", "MT",
    ];
    let ws: Vec<Workload> =
        all().into_iter().filter(|w| subset.contains(&w.abbr)).collect();
    performance_plan("Figure 15: fault-free execution time (Volta)", GpuConfig::volta(), ws)
}

fn performance_plan(title: &'static str, gpu: GpuConfig, workloads: Vec<Workload>) -> Plan {
    let series = [
        ("iGPU", SchemeId::IGpu),
        ("Bolt/Global", SchemeId::BoltGlobal),
        ("Bolt/Auto_storage", SchemeId::BoltAuto),
        ("Penny", SchemeId::Penny),
    ]
    .into_iter()
    .map(|(name, scheme)| (name, scheme.config(), gpu.clone().with_rf(scheme.rf())))
    .collect();
    Plan { title, gpu, workloads, series }
}

/// A Fermi plan over all workloads whose series all run on a parity RF.
fn parity_plan(title: &'static str, bars: Vec<(&'static str, PennyConfig)>) -> Plan {
    let gpu = GpuConfig::fermi();
    let parity = gpu.clone().with_rf(RfProtection::Edc(penny_coding::Scheme::Parity));
    let series = bars.into_iter().map(|(name, cfg)| (name, cfg, parity.clone())).collect();
    Plan { title, gpu, workloads: all(), series }
}

/// Figure 10: Penny's optimizations applied cumulatively.
pub fn fig10() -> Figure {
    fig10_plan().figure()
}

/// The runs of [`fig10`].
pub fn fig10_plan() -> Plan {
    // All bars keep storage alternation as the overwrite scheme except
    // the final fully-optimized one, which uses the auto-selector (the
    // paper's fully optimized Penny).
    let no_opt = PennyConfig::penny_no_opt();
    let auto_storage = PennyConfig { storage: StoragePolicy::Auto, ..no_opt.clone() };
    let bcp = PennyConfig { bcp: true, ..auto_storage.clone() };
    let pruning = PennyConfig { pruning: PruningMode::Optimal, ..bcp.clone() };
    let low =
        PennyConfig { low_opts: true, overwrite: OverwritePolicy::Auto, ..pruning.clone() };
    parity_plan(
        "Figure 10: impact of Penny optimizations (accumulated)",
        vec![
            ("No_opt", no_opt),
            ("+Auto_storage", auto_storage),
            ("+BCP", bcp),
            ("+Opt_pruning", pruning),
            ("+Low_opts", low),
        ],
    )
}

/// Figure 11: checkpoint storage assignment x overwrite prevention.
pub fn fig11() -> Figure {
    fig11_plan().figure()
}

/// The runs of [`fig11`].
pub fn fig11_plan() -> Plan {
    let base = PennyConfig::penny();
    let combo = |storage, overwrite| PennyConfig { storage, overwrite, ..base.clone() };
    parity_plan(
        "Figure 11: storage assignment and overwrite prevention",
        vec![
            ("Shared/RR", combo(StoragePolicy::Shared, OverwritePolicy::Renaming)),
            ("Shared/SA", combo(StoragePolicy::Shared, OverwritePolicy::Alternation)),
            ("Global/RR", combo(StoragePolicy::Global, OverwritePolicy::Renaming)),
            ("Global/SA", combo(StoragePolicy::Global, OverwritePolicy::Alternation)),
            ("Auto_storage/Auto_select", combo(StoragePolicy::Auto, OverwritePolicy::Auto)),
            (
                "Auto_storage/No_protection",
                combo(StoragePolicy::Auto, OverwritePolicy::None),
            ),
        ],
    )
}

/// One kernel's checkpoint-pruning breakdown (figure 12).
#[derive(Debug, Clone)]
pub struct PruneBreakdown {
    /// Workload abbreviation.
    pub abbr: String,
    /// Total checkpoints before pruning.
    pub total: u32,
    /// Fraction removed by Bolt's basic pruning.
    pub basic: f64,
    /// Additional fraction removed only by optimal pruning.
    pub additional: f64,
    /// Fraction remaining committed.
    pub committed: f64,
}

/// Figure 12: checkpoints removed by basic vs optimal pruning.
///
/// The counts are compile statistics, so the figure reads them off the
/// cached artifact that fig9's Penny series also runs (the config
/// [`crate::runner::run_scheme`] compiles) instead of simulating it
/// again.
pub fn fig12() -> Vec<PruneBreakdown> {
    let machine = GpuConfig::fermi().machine;
    parallel_map(&all(), |w| {
        let config = SchemeId::Penny.config().with_launch(w.dims).with_machine(machine);
        let stats = crate::cache::compiled(w, &config).stats;
        let total = stats.total_checkpoints.max(1) as f64;
        let basic = stats.pruned_basic as f64 / total;
        let additional = stats.pruned_additional as f64 / total;
        PruneBreakdown {
            abbr: w.abbr.to_string(),
            total: stats.total_checkpoints,
            basic,
            additional,
            committed: (1.0 - basic - additional).max(0.0),
        }
    })
}

/// Figure 13: run-time impact of pruning quality.
pub fn fig13() -> Figure {
    fig13_plan().figure()
}

/// The runs of [`fig13`].
pub fn fig13_plan() -> Plan {
    let base = PennyConfig::penny();
    parity_plan(
        "Figure 13: performance impact of basic/optimal pruning",
        vec![
            ("No_pruning", PennyConfig { pruning: PruningMode::None, ..base.clone() }),
            (
                "Basic_pruning",
                PennyConfig {
                    pruning: PruningMode::Basic { seed: 0xB017, trials: 64 },
                    ..base.clone()
                },
            ),
            ("Opt_pruning", PennyConfig { pruning: PruningMode::Optimal, ..base.clone() }),
        ],
    )
}

/// Figure 14: register-file energy, normalized to an unprotected RF
/// running the baseline program.
pub fn fig14() -> Figure {
    let plan = parity_plan(
        "Figure 14: RF energy consumption (normalized to unprotected)",
        vec![("Parity/Penny", SchemeId::Penny.config())],
    );
    let (baselines, rows) = plan.run();
    let mut ecc = Vec::new();
    let mut penny = Vec::new();
    for ((w, base), p_run) in plan.workloads.iter().zip(&baselines).zip(&rows[0]) {
        // ECC: the baseline program on a SECDED RF (same access counts).
        let e = energy::normalized_rf_energy(
            &base.run.rf,
            penny_coding::Scheme::Secded,
            &base.run.rf,
        );
        // Penny: the instrumented program on a parity RF.
        let p = energy::normalized_rf_energy(
            &p_run.run.rf,
            penny_coding::Scheme::Parity,
            &base.run.rf,
        );
        ecc.push((w.abbr.to_string(), e));
        penny.push((w.abbr.to_string(), p));
    }
    Figure {
        title: plan.title.into(),
        workloads: plan.workloads.iter().map(|w| w.abbr.to_string()).collect(),
        series: vec![Series::new("ECC", ecc), Series::new("Parity/Penny", penny)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_gmean() {
        let s = Series::new("x", vec![("A".into(), 1.0), ("B".into(), 4.0)]);
        assert!((s.gmean - 2.0).abs() < 1e-12);
        assert_eq!(s.value("A"), Some(1.0));
        assert_eq!(s.value("Z"), None);
    }
}
