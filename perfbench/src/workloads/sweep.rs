//! `sweep-exhaustive` and `sweep-static`: whole fault spaces swept
//! through the conformance engine, every site answered.
//!
//! * `sweep-exhaustive` — MT and BS under Penny with the static analysis
//!   off: every site is classified from the recording and equal-outcome
//!   sites are grouped onto one forked replay each.
//! * `sweep-static` — BFS, HS, LPS, SP, SRAD and MT under Penny with
//!   static pruning: the vulnerability map answers most sites without a
//!   replay, except on the divergent kernels, which leave 22–70% of
//!   their sites to the dynamic classifier.
//!
//! The spaces are fixed, so the seed only rotates the order the pairs
//! run in.

use penny_bench::conformance::{ConformanceReport, Shard, StaticMode};
use penny_bench::json::report_to_json;
use penny_bench::{conformance, SchemeId};

use crate::harness::{
    check_report, parse_and_compile, setup_errors, KernelText, Ops, Workload,
};
use crate::redrive::{redrive, Pair};
use crate::trace::Tracer;

/// A whole-space sweep workload.
pub struct Sweep {
    name: &'static str,
    pairs: Vec<(penny_workloads::Workload, SchemeId)>,
    mode: StaticMode,
    reports: Vec<Result<ConformanceReport, String>>,
    traced: bool,
    /// Each pair's first-round verdicts (`render_report`).
    reference: Vec<String>,
    /// The program's reports of the last untraced round, as JSON.
    program: Vec<String>,
    errors: Vec<String>,
}

impl Sweep {
    /// `sweep-exhaustive`.
    pub fn exhaustive(seed: u64) -> Sweep {
        Sweep::new("sweep-exhaustive", &["MT", "BS"], StaticMode::Off, seed)
    }

    /// `sweep-static`.
    pub fn statik(seed: u64) -> Sweep {
        Sweep::new(
            "sweep-static",
            &["BFS", "HS", "LPS", "SP", "SRAD", "MT"],
            StaticMode::Prune,
            seed,
        )
    }

    fn new(name: &'static str, abbrs: &[&str], mode: StaticMode, seed: u64) -> Sweep {
        let mut pairs: Vec<_> = abbrs
            .iter()
            .map(|a| {
                (penny_workloads::by_abbr(a).expect("registered workload"), SchemeId::Penny)
            })
            .collect();
        let n = pairs.len();
        pairs.rotate_left((seed % n as u64) as usize);
        Sweep {
            name,
            pairs,
            mode,
            reports: Vec::new(),
            traced: false,
            reference: Vec::new(),
            program: Vec::new(),
            errors: Vec::new(),
        }
    }
}

impl Workload for Sweep {
    fn setup(&mut self, t: &mut Tracer) {
        let kernels: Vec<KernelText> =
            self.pairs.iter().map(|(w, _)| KernelText::of(w)).collect();
        let (scheme, statik) = (self.pairs[0].1, self.mode != StaticMode::Off);
        let compiled = parse_and_compile(t, &kernels, |k| {
            vec![scheme
                .config()
                .with_launch(k.dims)
                .with_validation(true)
                .with_vulnerability(statik)]
        });
        self.errors = setup_errors(&kernels, &compiled);
    }

    fn round(&mut self) {
        self.traced = false;
        self.reports = self
            .pairs
            .iter()
            .map(|(w, s)| {
                Ok(conformance::run_conformance_static(w.abbr, *s, u64::MAX, self.mode))
            })
            .collect();
    }

    fn traced_round(&mut self, t: &mut Tracer) {
        self.traced = true;
        self.reports = self
            .pairs
            .iter()
            .map(|(w, s)| {
                let pair = Pair {
                    workload: w,
                    scheme: *s,
                    budget: u64::MAX,
                    mode: self.mode,
                    shard: Shard::full(),
                };
                t.enter("bench.conformance.pair");
                let r = redrive(t, &pair, None);
                t.exit(&[]);
                r
            })
            .collect();
    }

    fn check(&mut self) -> Ops {
        let mut ops = Ops::default();
        let first = self.reference.is_empty();
        let mut program = Vec::new();
        for (i, r) in self.reports.iter().enumerate() {
            let rendered = r.as_ref().map(conformance::render_report).unwrap_or_default();
            if first {
                self.reference.push(rendered.clone());
            }
            let verdict = r.as_ref().map_err(String::clone).and_then(|r| {
                check_report(r, true)?;
                if self.reference[i] != rendered {
                    return Err(format!(
                        "{} {}: verdicts differ from the first round",
                        r.workload, r.variant
                    ));
                }
                Ok(r)
            });
            match verdict {
                Ok(r) => {
                    ops.items += r.covered + r.pruned_static;
                    ops.check(true);
                    let json = report_to_json(r);
                    if self.traced && self.program.get(i) != Some(&json) {
                        self.errors.push(format!(
                            "{}: re-driven {} {} report differs from the program's",
                            self.name, r.workload, r.variant
                        ));
                    }
                    program.push(json);
                }
                Err(e) => {
                    eprintln!("{}: {e}", self.name);
                    ops.check(false);
                }
            }
        }
        if !self.traced {
            self.program = program;
        }
        ops
    }

    fn final_failures(&self) -> Vec<String> {
        self.errors.clone()
    }
}
