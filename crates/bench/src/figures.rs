//! One function per table and figure of the paper's evaluation section.
//!
//! Each returns a structured result the `penny-eval` binary renders as a
//! text table; `EXPERIMENTS.md` records the measured values against the
//! paper's.

use penny_core::{OverwritePolicy, PennyConfig, PruningMode, StoragePolicy};
use penny_sim::{energy, GpuConfig, RfProtection};
use penny_workloads::{all, Workload};

use crate::parallel::parallel_map;
use crate::runner::{gmean, run_scheme, run_workload, Measured, SchemeId};

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

fn baseline_cycles(w: &Workload, gpu: &GpuConfig) -> f64 {
    // One cached baseline simulation per (workload, machine) — shared
    // by every series of every figure instead of re-run per series.
    crate::cache::baseline(w, gpu).run.cycles as f64
}

fn overhead_series(
    name: &str,
    gpu: &GpuConfig,
    workloads: &[Workload],
    run: impl Fn(&Workload) -> Measured + Sync,
) -> Series {
    let values = parallel_map(workloads, |w| {
        let base = baseline_cycles(w, gpu);
        let m = run(w);
        (w.abbr.to_string(), m.run.cycles as f64 / base)
    });
    Series::new(name, values)
}

/// Figure 9: normalized fault-free execution time of iGPU, Bolt/Global,
/// Bolt/Auto_storage and Penny on the Fermi-class machine.
pub fn fig9() -> Figure {
    fig_performance(
        "Figure 9: fault-free execution time (Fermi)",
        &GpuConfig::fermi(),
        &all(),
    )
}

/// Figure 15: the same comparison on the Volta-class machine, over the
/// paper's 19-application subset.
pub fn fig15() -> Figure {
    let subset = [
        "CP", "NN", "NQU", "SGEMM", "SPMV", "TPACF", "BP", "BFS", "GAU", "HS", "PF",
        "SRAD", "SC", "BS", "BO", "CS", "FW", "SP", "MT",
    ];
    let ws: Vec<Workload> =
        all().into_iter().filter(|w| subset.contains(&w.abbr)).collect();
    fig_performance(
        "Figure 15: fault-free execution time (Volta)",
        &GpuConfig::volta(),
        &ws,
    )
}

fn fig_performance(title: &str, gpu: &GpuConfig, ws: &[Workload]) -> Figure {
    let series = vec![
        overhead_series("iGPU", gpu, ws, |w| run_scheme(w, SchemeId::IGpu, gpu)),
        overhead_series("Bolt/Global", gpu, ws, |w| {
            run_scheme(w, SchemeId::BoltGlobal, gpu)
        }),
        overhead_series("Bolt/Auto_storage", gpu, ws, |w| {
            run_scheme(w, SchemeId::BoltAuto, gpu)
        }),
        overhead_series("Penny", gpu, ws, |w| run_scheme(w, SchemeId::Penny, gpu)),
    ];
    Figure {
        title: title.into(),
        workloads: ws.iter().map(|w| w.abbr.to_string()).collect(),
        series,
    }
}

/// Figure 10: Penny's optimizations applied cumulatively.
pub fn fig10() -> Figure {
    let gpu = GpuConfig::fermi();
    let ws = all();
    // All bars keep storage alternation as the overwrite scheme except
    // the final fully-optimized one, which uses the auto-selector (the
    // paper's fully optimized Penny).
    let no_opt = PennyConfig::penny_no_opt();
    let auto_storage = PennyConfig { storage: StoragePolicy::Auto, ..no_opt.clone() };
    let bcp = PennyConfig { bcp: true, ..auto_storage.clone() };
    let pruning = PennyConfig { pruning: PruningMode::Optimal, ..bcp.clone() };
    let low =
        PennyConfig { low_opts: true, overwrite: OverwritePolicy::Auto, ..pruning.clone() };
    let bars: Vec<(&str, PennyConfig)> = vec![
        ("No_opt", no_opt),
        ("+Auto_storage", auto_storage),
        ("+BCP", bcp),
        ("+Opt_pruning", pruning),
        ("+Low_opts", low),
    ];
    let parity = gpu.clone().with_rf(RfProtection::Edc(penny_coding::Scheme::Parity));
    let series = bars
        .into_iter()
        .map(|(name, cfg)| {
            overhead_series(name, &gpu, &ws, |w| run_workload(w, &cfg, &parity))
        })
        .collect();
    Figure {
        title: "Figure 10: impact of Penny optimizations (accumulated)".into(),
        workloads: ws.iter().map(|w| w.abbr.to_string()).collect(),
        series,
    }
}

/// Figure 11: checkpoint storage assignment x overwrite prevention.
pub fn fig11() -> Figure {
    let gpu = GpuConfig::fermi();
    let ws = all();
    let base = PennyConfig::penny();
    let combo = |storage, overwrite| PennyConfig { storage, overwrite, ..base.clone() };
    let bars: Vec<(&str, PennyConfig)> = vec![
        ("Shared/RR", combo(StoragePolicy::Shared, OverwritePolicy::Renaming)),
        ("Shared/SA", combo(StoragePolicy::Shared, OverwritePolicy::Alternation)),
        ("Global/RR", combo(StoragePolicy::Global, OverwritePolicy::Renaming)),
        ("Global/SA", combo(StoragePolicy::Global, OverwritePolicy::Alternation)),
        ("Auto_storage/Auto_select", combo(StoragePolicy::Auto, OverwritePolicy::Auto)),
        ("Auto_storage/No_protection", combo(StoragePolicy::Auto, OverwritePolicy::None)),
    ];
    let parity = gpu.clone().with_rf(RfProtection::Edc(penny_coding::Scheme::Parity));
    let series = bars
        .into_iter()
        .map(|(name, cfg)| {
            overhead_series(name, &gpu, &ws, |w| run_workload(w, &cfg, &parity))
        })
        .collect();
    Figure {
        title: "Figure 11: storage assignment and overwrite prevention".into(),
        workloads: ws.iter().map(|w| w.abbr.to_string()).collect(),
        series,
    }
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
/// [`run_scheme`] compiles) instead of simulating it again.
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
    let gpu = GpuConfig::fermi();
    let ws = all();
    let base = PennyConfig::penny();
    let bars: Vec<(&str, PennyConfig)> = vec![
        ("No_pruning", PennyConfig { pruning: PruningMode::None, ..base.clone() }),
        (
            "Basic_pruning",
            PennyConfig {
                pruning: PruningMode::Basic { seed: 0xB017, trials: 64 },
                ..base.clone()
            },
        ),
        ("Opt_pruning", PennyConfig { pruning: PruningMode::Optimal, ..base.clone() }),
    ];
    let parity = gpu.clone().with_rf(RfProtection::Edc(penny_coding::Scheme::Parity));
    let series = bars
        .into_iter()
        .map(|(name, cfg)| {
            overhead_series(name, &gpu, &ws, |w| run_workload(w, &cfg, &parity))
        })
        .collect();
    Figure {
        title: "Figure 13: performance impact of basic/optimal pruning".into(),
        workloads: ws.iter().map(|w| w.abbr.to_string()).collect(),
        series,
    }
}

/// Figure 14: register-file energy, normalized to an unprotected RF
/// running the baseline program.
pub fn fig14() -> Figure {
    let gpu = GpuConfig::fermi();
    let ws = all();
    let rows = parallel_map(&ws, |w| {
        let base = crate::cache::baseline(w, &gpu);
        // ECC: the baseline program on a SECDED RF (same access counts).
        let e = energy::normalized_rf_energy(
            &base.run.rf,
            penny_coding::Scheme::Secded,
            &base.run.rf,
        );
        // Penny: the instrumented program on a parity RF.
        let p_run = run_scheme(w, SchemeId::Penny, &gpu);
        let p = energy::normalized_rf_energy(
            &p_run.run.rf,
            penny_coding::Scheme::Parity,
            &base.run.rf,
        );
        (w.abbr.to_string(), e, p)
    });
    let mut ecc = Vec::new();
    let mut penny = Vec::new();
    for (abbr, e, p) in rows {
        ecc.push((abbr.clone(), e));
        penny.push((abbr, p));
    }
    Figure {
        title: "Figure 14: RF energy consumption (normalized to unprotected)".into(),
        workloads: ws.iter().map(|w| w.abbr.to_string()).collect(),
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
