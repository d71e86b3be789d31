//! Ablation studies of Penny design choices called out in `DESIGN.md`:
//!
//! * the checkpoint cost constant (`C^d`, paper §6.1 uses `C = 64`) —
//!   what happens to the static pruning priorities when the exponent
//!   base changes;
//! * the alias analysis's `distinct_params` assumption — how many extra
//!   regions conservative aliasing forces;
//! * local checkpoint scheduling (the §6.6 sink pass) on/off.

use penny_analysis::AliasOptions;
use penny_core::PennyConfig;
use penny_sim::GpuConfig;
use penny_workloads::all;

use crate::figures::Plan;
use crate::runner::gmean;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Geometric-mean normalized execution time.
    pub gmean_overhead: f64,
    /// Mean region count per kernel.
    pub mean_regions: f64,
    /// Mean committed checkpoints per kernel.
    pub mean_committed: f64,
}

/// Runs the ablation sweep.
pub fn ablation() -> Vec<AblationRow> {
    let plan = ablation_plan();
    let (baselines, rows) = plan.run();
    let n = plan.workloads.len() as f64;
    plan.series
        .iter()
        .zip(rows)
        .map(|((label, _, _), row)| {
            let overheads: Vec<f64> = row
                .iter()
                .zip(&baselines)
                .map(|(m, base)| m.run.cycles as f64 / base.run.cycles as f64)
                .collect();
            let regions: u32 = row.iter().map(|m| m.compile.regions).sum();
            let committed: u32 = row.iter().map(|m| m.compile.committed).sum();
            AblationRow {
                label: (*label).into(),
                gmean_overhead: gmean(&overheads),
                mean_regions: regions as f64 / n,
                mean_committed: committed as f64 / n,
            }
        })
        .collect()
}

/// The runs of [`ablation`]: each design choice on every workload.
pub fn ablation_plan() -> Plan {
    let gpu = GpuConfig::fermi();
    let base = PennyConfig::penny();
    let series = [
        ("Penny (default)", base.clone()),
        (
            "alias: params may alias",
            PennyConfig {
                alias: AliasOptions { distinct_params: false, ..AliasOptions::default() },
                ..base.clone()
            },
        ),
        (
            "no local scheduling (low_opts off)",
            PennyConfig { low_opts: false, ..base.clone() },
        ),
        ("eager placement (BCP off)", PennyConfig { bcp: false, ..base.clone() }),
    ]
    .into_iter()
    .map(|(label, cfg)| (label, cfg, gpu.clone()))
    .collect();
    Plan { title: "Extension: design-choice ablations", gpu, workloads: all(), series }
}

/// Renders the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "\n== Extension: design-choice ablations (25-workload means) ==");
    let _ = writeln!(
        out,
        "{:<38} {:>10} {:>9} {:>10}",
        "configuration", "gmean", "regions", "committed"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<38} {:>10.3} {:>9.1} {:>10.1}",
            r.label, r.gmean_overhead, r.mean_regions, r.mean_committed
        );
    }
    out
}

/// Static cost-model sensitivity: the total checkpoint cost `Σ C^d`
/// under eager vs bimodal placement, for `C = 2` (the BCP weight) and
/// `C = 64` (the pruning weight, paper §6.1). Shows how bimodal
/// placement drains cost out of loops regardless of the base.
pub fn cost_base_sensitivity() -> String {
    use penny_analysis::{Liveness, LoopInfo, ReachingDefs};
    use penny_core::checkpoint::{bimodal_placement, eager_placement, CkptPos};
    use penny_core::{cost, regions, RegionMap};
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "\n== Extension: checkpoint cost-base sensitivity ==");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "app", "eager C=2", "BCP C=2", "eager C=64", "BCP C=64"
    );
    for w in all() {
        let mut k = w.kernel().expect("parse");
        regions::form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        let lv = Liveness::compute(&k);
        let rd = ReachingDefs::compute(&k);
        let loops = LoopInfo::compute(&k);
        let live = penny_core::checkpoint::region_live_ins(&k, &rm, &lv);
        let edges = penny_core::checkpoint::lup_edges(&k, &rm, &live, &rd);
        if edges.is_empty() {
            continue;
        }
        let eager = eager_placement(&edges);
        let bimodal = bimodal_placement(&k, &rm, &loops, &edges);
        let total = |ps: &[penny_core::checkpoint::Placement], base: u64| -> u64 {
            ps.iter()
                .map(|p| {
                    let loc = match p.pos {
                        CkptPos::AfterLup(d) => k.find_inst(d).expect("lup"),
                        CkptPos::BeforeBoundary(r) => rm.marker_loc(r),
                    };
                    cost::checkpoint_cost(&loops, loc, base)
                })
                .sum()
        };
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>12} {:>12} {:>12}",
            w.abbr,
            total(&eager, 2),
            total(&bimodal, 2),
            total(&eager, 64),
            total(&bimodal, 64),
        );
    }
    let _ = writeln!(
        out,
        "(Bimodal placement never costs more than eager under either base;\n\
         the C=64 column shows why pruning prioritizes in-loop checkpoints.)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_fastest_or_close() {
        let rows = ablation();
        let default = rows[0].gmean_overhead;
        for r in &rows[1..] {
            assert!(
                default <= r.gmean_overhead + 1e-9,
                "default ({default}) slower than {}: {}",
                r.label,
                r.gmean_overhead
            );
        }
    }

    #[test]
    fn conservative_alias_means_more_regions() {
        let rows = ablation();
        let default = &rows[0];
        let alias = rows.iter().find(|r| r.label.contains("alias")).expect("row");
        assert!(
            alias.mean_regions >= default.mean_regions,
            "conservative aliasing must not reduce regions"
        );
    }
}
