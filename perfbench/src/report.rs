//! Result output: one line per metric, a result file per run under the
//! output directory, and the final one-line JSON result on stdout.

use std::fmt::Write as _;

use crate::metrics::{layer_unit, END_TO_END};
use crate::stats::{median, quartiles};

/// The raw samples of one untraced run.
#[derive(Debug, Clone, Default)]
pub struct RunSamples {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed round, in seconds.
    pub round_s: Vec<f64>,
    /// Items completed per second in each timed round.
    pub items_per_s: Vec<f64>,
    /// `VmHWM` at the end of the run, in MiB.
    pub peak_rss_mb: f64,
}

impl RunSamples {
    /// The samples behind one end-to-end metric.
    pub fn of(&self, name: &str) -> Vec<f64> {
        match name {
            "setup_s" => self.setup_s.clone(),
            "round_s" => self.round_s.clone(),
            "items_per_s" => self.items_per_s.clone(),
            "peak_rss_mb" => vec![self.peak_rss_mb],
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    }
}

/// Every end-to-end metric's value: the median of its samples.
pub fn end_to_end_values(s: &RunSamples) -> Vec<(String, f64)> {
    END_TO_END.iter().map(|m| (m.name.to_string(), median(&s.of(m.name)))).collect()
}

/// A JSON number; non-finite values (which JSON cannot hold) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Counts and verdict of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// Failures outside any single operation (set-up, fidelity).
    pub failures: Vec<String>,
    /// Lines worth reading beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }
}

/// The metrics of a run with their units: the end-to-end set (untraced)
/// or the per-layer set (traced).
pub fn with_units(
    values: &[(String, f64)],
    trace: bool,
) -> Vec<(String, f64, &'static str)> {
    values
        .iter()
        .map(|(n, v)| {
            let unit = if trace {
                layer_unit(n)
            } else {
                END_TO_END.iter().find(|m| m.name == n).map_or("", |m| m.unit)
            };
            (n.clone(), *v, unit)
        })
        .collect()
}

/// The result file: counts, and per metric its value, unit and (for
/// untraced runs) samples, median, quartiles and sample count.
pub fn result_file(
    o: &Outcome,
    metrics: &[(String, f64, &str)],
    samples: Option<&RunSamples>,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        string(&o.workload),
        o.seed,
        o.trace,
        o.correct(),
        o.attempted,
        o.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\n  {}: {{\"value\": {}, \"unit\": {}",
            string(name),
            num(*value),
            string(unit)
        );
        if let Some(s) = samples {
            let v = s.of(name);
            let (q1, q2, q3) = quartiles(&v);
            let list: Vec<String> = v.iter().map(|x| num(*x)).collect();
            let _ = write!(
                out,
                ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]",
                num(q2),
                num(q1),
                num(q3),
                v.len(),
                list.join(", ")
            );
        }
        out.push('}');
    }
    let notes: Vec<String> = o.notes.iter().chain(&o.failures).map(|n| string(n)).collect();
    let _ = writeln!(out, "\n}}, \"notes\": [{}]}}", notes.join(", "));
    out
}

/// The one-line result the benchmark prints last. A run that attempted
/// nothing reports one failed operation, so it never reads as a clean
/// run of zero operations.
pub fn result_line(o: &Outcome, metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!("{}: {{\"value\": {}, \"unit\": {}}}", string(n), num(*v), string(u))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        if o.attempted == 0 { 1 } else { o.failed },
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn result_line_and_file_are_json_with_every_metric() {
        let samples = RunSamples {
            setup_s: vec![0.5, 0.25, 0.75],
            round_s: vec![1.0, 2.0],
            items_per_s: vec![10.0, 20.0],
            peak_rss_mb: 100.0,
        };
        let o = Outcome {
            workload: "w".into(),
            seed: 3,
            trace: false,
            attempted: 4,
            failed: 0,
            failures: vec![],
            notes: vec!["a \"note\"".into()],
        };
        let metrics = with_units(&end_to_end_values(&samples), false);
        let line = json::parse(&result_line(&o, &metrics)).expect("result line is json");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Value::num), Some(4.0));
        let m = line.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s").and_then(|v| v.get("value")).and_then(Value::num),
            Some(0.5)
        );
        assert_eq!(
            m.get("round_s").and_then(|v| v.get("unit")).and_then(Value::str),
            Some("s")
        );
        let file = json::parse(&result_file(&o, &metrics, Some(&samples)))
            .expect("result file is json");
        let setup = file.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("n").and_then(Value::num), Some(3.0));
        assert_eq!(setup.get("samples").and_then(Value::arr).map(<[Value]>::len), Some(3));
    }
}
