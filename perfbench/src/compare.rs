//! `penny-benchmark compare A B`: judges result directory `B` (a change)
//! against `A` (its parent), per workload and end-to-end metric.
//!
//! Each directory holds untraced result files, one per run
//! (`<workload>-seed<N>.json`). Runs are paired by seed. Per metric the
//! verdict follows the benchmark's rules:
//!
//! * **worse** — B's median is worse than A's by more than the metric's
//!   bound;
//! * **better** — B wins at least 90% of the pairs (ties count for
//!   neither) and the medians differ by more than A's inter-quartile
//!   range;
//! * **unresolved** — A's own spread (IQR over median) is wider than
//!   the bound, and not every B run beats every A run;
//! * **within bound** — otherwise.
//!
//! The exit status is 1 when any metric is worse or any workload's
//! failed share rose.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::NAMES;

/// One run's values as read back from its result file.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations failed.
    pub failed: u64,
    /// End-to-end metric values.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads every untraced result file in `dir`, grouped by workload and
/// sorted by seed.
///
/// # Errors
///
/// An unreadable directory or a malformed result file.
pub fn read_dir(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let field = |k: &str| {
            v.get(k).and_then(Value::num).ok_or(format!("{}: no {k}", path.display()))
        };
        let workload = v
            .get("workload")
            .and_then(Value::str)
            .ok_or(format!("{}: no workload", path.display()))?;
        let mut run = Run {
            seed: field("seed")? as u64,
            attempted: field("attempted")? as u64,
            failed: field("failed")? as u64,
            metrics: BTreeMap::new(),
        };
        for (name, m) in v.get("metrics").and_then(Value::obj).unwrap_or_default() {
            if let Some(x) = m.get("value").and_then(Value::num) {
                run.metrics.insert(name.clone(), x);
            }
        }
        out.entry(workload.to_string()).or_default().push(run);
    }
    for runs in out.values_mut() {
        runs.sort_by_key(|r| r.seed);
    }
    Ok(out)
}

/// A metric's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A credible gain.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// Not worse by more than the bound.
    WithinBound,
    /// The parent's spread exceeds the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's comparison: `(a, b)` value pairs, matched by seed.
pub struct Judged {
    /// A's (q1, median, q3).
    pub a: (f64, f64, f64),
    /// B's (q1, median, q3).
    pub b: (f64, f64, f64),
    /// Share of pairs B wins.
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges paired values of one metric.
pub fn judge(m: &EndToEnd, pairs: &[(f64, f64)]) -> Judged {
    let av: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let bv: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (a, b) = (quartiles(&av), quartiles(&bv));
    // How much worse b is than a, as a share of a (negative: better).
    let worse = |a: f64, b: f64| {
        let d = match m.better {
            Better::Lower => b - a,
            Better::Higher => a - b,
        };
        if a == 0.0 {
            d.signum()
        } else {
            d / a.abs()
        }
    };
    let wins = pairs.iter().filter(|&&(x, y)| worse(x, y) < 0.0).count();
    let win_share = if pairs.is_empty() { 0.0 } else { wins as f64 / pairs.len() as f64 };
    let all_better = av.iter().all(|&x| bv.iter().all(|&y| worse(x, y) < 0.0));
    let spread = if a.1 == 0.0 { 0.0 } else { (a.2 - a.0) / a.1.abs() };
    let verdict = if worse(a.1, b.1) > m.bound {
        Verdict::Worse
    } else if win_share >= 0.9 && worse(a.1, b.1) < 0.0 && (b.1 - a.1).abs() > a.2 - a.0 {
        Verdict::Better
    } else if spread > m.bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Judged { a, b, win_share, verdict }
}

fn pair_runs<'a>(a: &'a [Run], b: &'a [Run]) -> Vec<(&'a Run, &'a Run)> {
    let by_seed: Vec<_> = a
        .iter()
        .filter_map(|x| b.iter().find(|y| y.seed == x.seed).map(|y| (x, y)))
        .collect();
    if by_seed.is_empty() {
        a.iter().zip(b).collect()
    } else {
        by_seed
    }
}

fn failed_share(runs: &[&Run]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Four significant digits, switching to exponent form for large values.
fn sig(x: f64) -> String {
    if x.abs() >= 1e4 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// Prints the comparison table; returns the exit status.
pub fn compare(a_dir: &Path, b_dir: &Path) -> i32 {
    let (a, b) = match (read_dir(a_dir), read_dir(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("penny-benchmark compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<17} {:<12} {:>26} {:>26} {:>5} {:>5}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "n", "win%"
    );
    let mut status = 0;
    for w in NAMES {
        let (Some(ra), Some(rb)) = (a.get(w), b.get(w)) else { continue };
        let pairs = pair_runs(ra, rb);
        for m in &END_TO_END {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(x, y)| {
                    Some((*x.metrics.get(m.name)?, *y.metrics.get(m.name)?))
                })
                .collect();
            let j = judge(m, &values);
            let fmt =
                |q: (f64, f64, f64)| format!("{} [{}, {}]", sig(q.1), sig(q.0), sig(q.2));
            println!(
                "{w:<17} {:<12} {:>26} {:>26} {:>5} {:>4.0}%  {}",
                m.name,
                fmt(j.a),
                fmt(j.b),
                values.len(),
                100.0 * j.win_share,
                j.verdict.as_str()
            );
            if j.verdict == Verdict::Worse {
                status = 1;
            }
        }
        let fa = failed_share(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let fb = failed_share(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        println!("{w:<17} {:<12} {fa:>26.6} {fb:>26.6}", "failed_share");
        if fb > fa {
            status = 1;
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd =
        EndToEnd { name: "t", unit: "s", better: Better::Lower, bound: 0.1 };
    const HIGHER: EndToEnd =
        EndToEnd { name: "r", unit: "1/s", better: Better::Higher, bound: 0.1 };

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let a = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00];
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(judge(&LOWER, &pairs(&a, &faster)).verdict, Verdict::Better);
        assert_eq!(judge(&LOWER, &pairs(&a, &slower)).verdict, Verdict::Worse);
        assert_eq!(judge(&LOWER, &pairs(&a, &same)).verdict, Verdict::WithinBound);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&HIGHER, &pairs(&a, &faster)).verdict, Verdict::Worse);
        assert_eq!(judge(&HIGHER, &pairs(&a, &slower)).verdict, Verdict::Better);
        // A noisy parent leaves a small change unresolved.
        let noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.2, 0.9, 1.1, 1.0];
        let shifted: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&LOWER, &pairs(&noisy, &shifted)).verdict, Verdict::Unresolved);
        assert!((judge(&LOWER, &pairs(&a, &faster)).win_share - 1.0).abs() < 1e-12);
    }
}
