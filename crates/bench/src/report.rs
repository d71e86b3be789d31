//! Text rendering of tables and figures for the `penny-eval` binary.

use std::fmt::Write as _;

use penny_coding::{table1, BaselineBank, HwCost, Scheme};

use crate::figures::{Figure, PruneBreakdown};

/// The targets `penny-eval all` prints, in order.
pub const ALL_TARGETS: [&str; 13] = [
    "table1",
    "table2",
    "table3",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "multibit",
    "ablation",
    "errorrate",
];

/// The text `penny-eval TARGET` prints for one of [`ALL_TARGETS`]; `None`
/// for any other name.
pub fn render_target(target: &str) -> Option<String> {
    use crate::{campaign, figures};
    Some(match target {
        "table1" => render_table1(),
        "table2" => render_table2(),
        "table3" => render_table3(),
        "fig9" => render_figure(&figures::fig9()),
        "fig10" => render_figure(&figures::fig10()),
        "fig11" => render_figure(&figures::fig11()),
        "fig12" => render_fig12(&figures::fig12()),
        "fig13" => render_figure(&figures::fig13()),
        "fig14" => render_figure(&figures::fig14()),
        "fig15" => render_figure(&figures::fig15()),
        "multibit" => campaign::render_multibit(&campaign::multibit_sweep(100)),
        "ablation" => {
            crate::render_ablation(&crate::ablation()) + &crate::cost_base_sensitivity()
        }
        "errorrate" => campaign::render_error_rate(&campaign::error_rate_sensitivity()),
        _ => return None,
    })
}

/// Renders a [`Figure`] as an aligned text table: workloads as rows,
/// series as columns, geometric mean as the last row.
pub fn render_figure(fig: &Figure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {} ==", fig.title);
    let name_w = 8usize;
    let col_w = fig.series.iter().map(|s| s.name.len() + 2).max().unwrap_or(12).max(10);
    let _ = write!(out, "{:name_w$}", "app");
    for s in &fig.series {
        let _ = write!(out, "{:>col_w$}", s.name);
    }
    let _ = writeln!(out);
    for abbr in &fig.workloads {
        let _ = write!(out, "{abbr:name_w$}");
        for s in &fig.series {
            match s.value(abbr) {
                Some(v) => {
                    let _ = write!(out, "{v:>col_w$.3}");
                }
                None => {
                    let _ = write!(out, "{:>col_w$}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:name_w$}", "gmean");
    for s in &fig.series {
        let _ = write!(out, "{:>col_w$.3}", s.gmean);
    }
    let _ = writeln!(out);
    out
}

/// Renders the paper's Table 1 (storage cost, ECC vs Penny).
pub fn render_table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== Table 1: storage cost for a 32-bit register ==");
    let _ = writeln!(
        out,
        "{:<6} {:<22} {:>8}   {:<22} {:>8}",
        "errors", "conventional ECC", "ovh%", "Penny (EDC+recovery)", "ovh%"
    );
    for row in table1() {
        let _ = writeln!(
            out,
            "{:<6} {:<22} {:>7.1}%   {:<22} {:>7.1}%",
            format!("{} bit", row.error_bits),
            format!("{} ({},32)", row.ecc.name(), row.ecc.paper_n()),
            row.ecc_overhead_pct,
            format!("{} ({},32)", row.penny.name(), row.penny.paper_n()),
            row.penny_overhead_pct,
        );
    }
    out
}

/// Renders the paper's Table 2 (per-bank hardware overheads).
pub fn render_table2() -> String {
    let mut out = String::new();
    let base = BaselineBank::paper();
    let _ = writeln!(out, "\n== Table 2: RF bank hardware overheads (22nm model) ==");
    let _ = writeln!(
        out,
        "baseline bank: {:.3} mm^2, {:.2} ns, {:.2} pJ/access, {:.1} nW leakage",
        base.area_mm2, base.latency_ns, base.energy_pj, base.leakage_nw
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>10} {:>10} {:>10}",
        "scheme", "area%", "latency%", "energy%", "leakage%"
    );
    for scheme in
        [Scheme::Parity, Scheme::Hamming, Scheme::Secded, Scheme::Dected, Scheme::Tecqed]
    {
        let c = HwCost::synthesized(scheme);
        let _ = writeln!(
            out,
            "{:<10} {:>7.1}% {:>9.1}% {:>9.1}% {:>9.1}%",
            scheme.name(),
            c.area_pct,
            c.latency_pct,
            c.energy_pct,
            c.leakage_pct
        );
    }
    out
}

/// Renders the paper's Table 3 (workload roster).
pub fn render_table3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== Table 3: applications used for evaluation ==");
    let _ = writeln!(out, "{:<8} {:<40} suite", "abbr", "application");
    for w in penny_workloads::all() {
        let _ = writeln!(out, "{:<8} {:<40} {}", w.abbr, w.name, w.suite.name());
    }
    out
}

/// Renders figure 12's stacked breakdown as a table.
pub fn render_fig12(rows: &[PruneBreakdown]) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "\n== Figure 12: checkpoints removed by basic/optimal pruning ==");
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>10} {:>12} {:>11}",
        "app", "total", "basic%", "additional%", "committed%"
    );
    let (mut b, mut a, mut c, mut n) = (0.0, 0.0, 0.0, 0);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>9.1}% {:>11.1}% {:>10.1}%",
            r.abbr,
            r.total,
            r.basic * 100.0,
            r.additional * 100.0,
            r.committed * 100.0
        );
        b += r.basic;
        a += r.additional;
        c += r.committed;
        n += 1;
    }
    if n > 0 {
        let nf = n as f64;
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>9.1}% {:>11.1}% {:>10.1}%",
            "average",
            "",
            b / nf * 100.0,
            a / nf * 100.0,
            c / nf * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Series;

    #[test]
    fn tables_render_nonempty() {
        assert!(render_table1().contains("SECDED"));
        assert!(render_table2().contains("Parity"));
        assert!(render_table3().contains("SGEMM"));
    }

    #[test]
    fn figure_rendering_includes_gmean() {
        let fig = Figure {
            title: "t".into(),
            workloads: vec!["A".into()],
            series: vec![Series::new("S", vec![("A".into(), 1.5)])],
        };
        let s = render_figure(&fig);
        assert!(s.contains("gmean"));
        assert!(s.contains("1.500"));
    }
}
