//! `figures`: the paper-reproduction path. Every round regenerates the
//! whole suite `penny-eval all` prints — tables 1–3, figures 9–15, the
//! multi-bit campaign, the ablation and cost-base sensitivity, and the
//! error-rate sweep — and checks each target's rendered text against a
//! golden digest. The engine and the cold fault-injection runs do nearly
//! all the work; snapshot, classify, static and replay never run.

use std::sync::Arc;

use penny_bench::{figures, report, SchemeId};
use penny_cache::Fnv64;
use penny_obs::{MemRecorder, SpanKind};
use penny_sim::GpuConfig;

use crate::harness::{parse_and_compile, setup_errors, KernelText, Ops, Workload};
use crate::trace::Tracer;

/// Suite targets, in `penny-eval all` order.
const TARGETS: [&str; 13] = [
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

/// FNV-1a 64 digests of each target's `penny-eval <target>` output.
const GOLDEN: &str = include_str!("../../golden/figures.txt");

/// Paper values of the Penny geometric-mean overhead (fig. 9, Fermi;
/// fig. 15, Volta), printed beside the simulated ones.
const PAPER_GMEANS: (f64, f64) = (1.033, 1.036);

fn golden(target: &str) -> Option<u64> {
    GOLDEN.lines().find_map(|l| {
        let (t, hex) = l.split_once(' ')?;
        (t == target).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

/// One target's output, as `penny-eval` prints it.
struct Rendered {
    text: String,
    /// The Penny series' geometric mean (figures 9 and 15).
    penny_gmean: Option<f64>,
    /// Cold fault-injection runs the program records no span for.
    unspanned_runs: u64,
}

fn render(target: &str) -> Rendered {
    let mut penny_gmean = None;
    let mut unspanned_runs = 0;
    let mut fig = |f: figures::Figure| {
        penny_gmean = f.series.iter().find(|s| s.name == "Penny").map(|s| s.gmean);
        report::render_figure(&f)
    };
    let text = match target {
        "table1" => report::render_table1(),
        "table2" => report::render_table2(),
        "table3" => report::render_table3(),
        "fig9" => fig(figures::fig9()),
        "fig10" => fig(figures::fig10()),
        "fig11" => fig(figures::fig11()),
        "fig12" => report::render_fig12(&figures::fig12()),
        "fig13" => fig(figures::fig13()),
        "fig14" => fig(figures::fig14()),
        "fig15" => fig(figures::fig15()),
        "multibit" => {
            penny_bench::campaign::render_multibit(&penny_bench::multibit_sweep(100))
        }
        "ablation" => {
            penny_bench::render_ablation(&penny_bench::ablation())
                + &penny_bench::cost_base_sensitivity()
        }
        "errorrate" => {
            let rows = penny_bench::campaign::error_rate_sensitivity();
            unspanned_runs = rows.len() as u64;
            penny_bench::campaign::render_error_rate(&rows)
        }
        other => unreachable!("unknown target {other}"),
    };
    let penny_gmean = if matches!(target, "fig9" | "fig15") { penny_gmean } else { None };
    Rendered { text, penny_gmean, unspanned_runs }
}

/// The span a target's call gets: the two fault-campaign targets belong
/// to the campaign layer, the rest to the figure harness.
fn span_name(target: &str) -> String {
    match target {
        "multibit" | "errorrate" => format!("bench.campaign.{target}"),
        t => format!("bench.figures.{t}"),
    }
}

/// The `figures` workload.
pub struct Figures {
    order: Vec<&'static str>,
    outputs: Vec<Rendered>,
    setup_errors: Vec<String>,
    gmeans: (Option<f64>, Option<f64>),
}

impl Figures {
    /// The suite, its target order shuffled by `seed` (the suite itself
    /// has no seeded input).
    pub fn new(seed: u64) -> Figures {
        let mut order = TARGETS.to_vec();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = penny_sim::gen::splitmix64(s);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        Figures {
            order,
            outputs: Vec::new(),
            setup_errors: Vec::new(),
            gmeans: (None, None),
        }
    }
}

impl Workload for Figures {
    fn setup(&mut self, t: &mut Tracer) {
        let kernels: Vec<KernelText> =
            penny_workloads::all().iter().map(KernelText::of).collect();
        let machines = [GpuConfig::fermi().machine, GpuConfig::volta().machine];
        let compiled = parse_and_compile(t, &kernels, |k| {
            SchemeId::ALL
                .iter()
                .flat_map(|s| {
                    machines.iter().map(|m| s.config().with_launch(k.dims).with_machine(*m))
                })
                .collect()
        });
        self.setup_errors = setup_errors(&kernels, &compiled);
    }

    fn round(&mut self) {
        self.outputs = self.order.iter().map(|t| render(t)).collect();
    }

    fn traced_round(&mut self, t: &mut Tracer) {
        let rec = Arc::new(MemRecorder::new());
        penny_bench::obs::set_recorder(rec.clone());
        self.outputs.clear();
        for target in &self.order {
            t.enter(&span_name(target));
            let out = render(target);
            t.attach(rec.take(), |s| match s.kind {
                SpanKind::Pass => Some(format!("core.pass.{}", s.label)),
                SpanKind::Sim => Some("sim.engine".to_string()),
                SpanKind::Campaign => Some("bench.campaign.edc".to_string()),
                _ => None,
            });
            t.exit(&[("runs", out.unspanned_runs)]);
            self.outputs.push(out);
        }
        penny_bench::obs::clear_recorder();
    }

    fn check(&mut self) -> Ops {
        let mut ops = Ops::default();
        for (target, out) in self.order.iter().zip(&self.outputs) {
            let got = digest(&out.text);
            let want = golden(target);
            if want != Some(got) {
                eprintln!(
                    "figures: {target} output digest {got:016x} != golden {want:016x?}"
                );
            }
            ops.items += 1;
            ops.check(want == Some(got));
            match *target {
                "fig9" => self.gmeans.0 = out.penny_gmean,
                "fig15" => self.gmeans.1 = out.penny_gmean,
                _ => {}
            }
        }
        ops
    }

    fn final_failures(&self) -> Vec<String> {
        self.setup_errors.clone()
    }

    fn notes(&self) -> Vec<String> {
        let line = |name: &str, sim: Option<f64>, paper: f64| {
            format!(
                "figures {name} {:.3} (simulated; paper {paper:.3})",
                sim.unwrap_or(f64::NAN)
            )
        };
        vec![
            line("penny_fermi_gmean", self.gmeans.0, PAPER_GMEANS.0),
            line("penny_volta_gmean", self.gmeans.1, PAPER_GMEANS.1),
        ]
    }
}
