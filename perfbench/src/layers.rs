//! Per-layer metrics derived from the traced run's span tree.
//!
//! Span names are layer-qualified (`ir.parse`, `core.compile`,
//! `core.pass.<label>`, `sim.engine`, `sim.snapshot.{record,classify,
//! replay}`, `sim.persist.{read,write}`, `analysis.vulnerability.static`,
//! `bench.figures.<target>`, `bench.campaign.*`,
//! `bench.conformance.{pair,shard,verify,merge}`, `bench.json.{render,
//! parse}`, `cache.compiled`). Each metric sums the self time or the
//! counters of the spans of one layer; the roots' own self time is the
//! unattributed remainder.

use crate::metrics::{PASSES, PER_LAYER};
use crate::stats::percentile;
use crate::trace::{self_times, SpanRec};

struct View<'a> {
    spans: &'a [SpanRec],
    selfs: Vec<u64>,
}

impl View<'_> {
    fn matching(
        &self,
        pred: impl Fn(&str) -> bool,
    ) -> impl Iterator<Item = (&SpanRec, u64)> {
        self.spans
            .iter()
            .zip(self.selfs.iter().copied())
            .filter(move |(s, _)| pred(&s.name))
    }

    fn self_ns(&self, name: &str) -> u64 {
        self.matching(|n| n == name).map(|(_, t)| t).sum()
    }

    fn self_ns_prefix(&self, prefix: &str) -> u64 {
        self.matching(|n| n.starts_with(prefix)).map(|(_, t)| t).sum()
    }

    fn count(&self, name: &str) -> u64 {
        self.matching(|n| n == name).count() as u64
    }

    fn counter(&self, name: &str, counter: &str) -> u64 {
        self.matching(|n| n == name).map(|(s, _)| s.counter(counter)).sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in catalogue order. `traced_s` and
/// `untraced_s` are the median round walls with tracing on and off (both
/// with one worker thread); their ratio is the tracing overhead.
pub fn layer_metrics(
    spans: &[SpanRec],
    cache_hits: u64,
    cache_misses: u64,
    traced_s: f64,
    untraced_s: f64,
) -> Vec<(String, f64)> {
    let v = View { spans, selfs: self_times(spans) };
    let wall_ns: u64 =
        spans.iter().filter(|s| s.parent.is_none()).map(SpanRec::dur_ns).sum();
    let unattributed_ns: u64 =
        v.matching(|_| true).filter(|(s, _)| s.parent.is_none()).map(|(_, t)| t).sum();
    let share = |ns: u64| ratio(ns as f64, wall_ns as f64);
    let per_s = |n: u64, ns: u64| ratio(n as f64, ns as f64 / 1e9);

    let compile_ms: Vec<f64> =
        v.matching(|n| n == "core.compile").map(|(s, _)| s.dur_ns() as f64 / 1e6).collect();
    let compile_total_ms: f64 = compile_ms.iter().sum();

    let engine_ns = v.self_ns("sim.engine");
    let classify_ns = v.self_ns("sim.snapshot.classify");
    let static_ns = v.self_ns("analysis.vulnerability.static");
    let replay_ns = v.self_ns("sim.snapshot.replay");
    let simulated = v.counter("sim.snapshot.classify", "simulated");
    let forks = v.counter("sim.snapshot.replay", "forks");
    let static_sites = v.counter("analysis.vulnerability.static", "sites");

    let mut out: Vec<(String, f64)> = vec![
        ("ir.parse_ms".into(), v.self_ns("ir.parse") as f64 / 1e6),
        ("core.compile_ms".into(), compile_total_ms),
        ("core.compile_p99_ms".into(), percentile(&compile_ms, 99.0)),
    ];
    for pass in PASSES {
        let ms = v.self_ns(&format!("core.pass.{pass}")) as f64 / 1e6;
        out.push((format!("core.{pass}_share"), ratio(ms, compile_total_ms)));
    }
    out.extend([
        ("cache.compile_hits".into(), cache_hits as f64),
        ("cache.compile_misses".into(), cache_misses as f64),
        ("sim.engine_share".into(), share(engine_ns)),
        ("sim.engine.runs".into(), v.count("sim.engine") as f64),
        (
            "sim.engine.warp_insts_per_s".into(),
            per_s(v.counter("sim.engine", "warp_instructions"), engine_ns),
        ),
        (
            "sim.engine.skipped_cycles_per_cycle".into(),
            ratio(
                v.counter("sim.engine", "skipped_cycles") as f64,
                v.counter("sim.engine", "cycles") as f64,
            ),
        ),
        ("bench.figures_share".into(), share(v.self_ns_prefix("bench.figures."))),
        ("bench.campaign_share".into(), share(v.self_ns_prefix("bench.campaign"))),
        (
            "bench.campaign.runs".into(),
            v.matching(|n| n.starts_with("bench.campaign"))
                .map(|(s, _)| s.counter("runs"))
                .sum::<u64>() as f64,
        ),
        ("sim.snapshot.record_share".into(), share(v.self_ns("sim.snapshot.record"))),
        ("sim.snapshot.records".into(), v.count("sim.snapshot.record") as f64),
        ("sim.persist.write_share".into(), share(v.self_ns("sim.persist.write"))),
        ("sim.persist.read_share".into(), share(v.self_ns("sim.persist.read"))),
        (
            "sim.persist.bytes".into(),
            (v.counter("sim.persist.write", "bytes")
                + v.counter("sim.persist.read", "bytes")) as f64,
        ),
        ("sim.snapshot.classify_share".into(), share(classify_ns)),
        (
            "sim.snapshot.classify_sites_per_s".into(),
            per_s(v.counter("sim.snapshot.classify", "sites"), classify_ns),
        ),
        ("bench.conformance.sites_per_fork".into(), ratio(simulated as f64, forks as f64)),
        ("analysis.vulnerability.static_share".into(), share(static_ns)),
        (
            "analysis.vulnerability.static_sites_per_s".into(),
            per_s(static_sites, static_ns),
        ),
        (
            "analysis.vulnerability.answered_share".into(),
            ratio(
                v.counter("analysis.vulnerability.static", "pruned") as f64,
                static_sites as f64,
            ),
        ),
        ("sim.snapshot.replay_share".into(), share(replay_ns)),
        ("sim.snapshot.forks".into(), forks as f64),
        ("sim.snapshot.forks_per_s".into(), per_s(forks, replay_ns)),
        (
            "sim.snapshot.replayed_insts".into(),
            v.counter("sim.snapshot.replay", "replayed_insts") as f64,
        ),
        (
            "sim.snapshot.spliced_share".into(),
            ratio(v.counter("sim.snapshot.replay", "spliced") as f64, simulated as f64),
        ),
        (
            "sim.snapshot.pages_copied".into(),
            v.counter("sim.snapshot.replay", "pages_copied") as f64,
        ),
        (
            "bench.conformance.verify_share".into(),
            share(v.self_ns("bench.conformance.verify")),
        ),
        (
            "bench.conformance.merge_share".into(),
            share(v.self_ns("bench.conformance.merge")),
        ),
        ("bench.json.render_share".into(), share(v.self_ns("bench.json.render"))),
        ("bench.json.parse_share".into(), share(v.self_ns("bench.json.parse"))),
        ("traced_wall_ms".into(), wall_ns as f64 / 1e6),
        ("unattributed_ms".into(), unattributed_ns as f64 / 1e6),
        ("trace_overhead".into(), ratio(traced_s, untraced_s)),
    ]);
    debug_assert!(out.iter().map(|m| m.0.as_str()).eq(PER_LAYER.iter().map(|m| m.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &str,
        start: u64,
        end: u64,
        c: &[(&str, u64)],
    ) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            counters: c.iter().map(|&(n, v)| (n.into(), v)).collect(),
        }
    }

    #[test]
    fn layers_split_the_wall_and_the_roots_keep_the_remainder() {
        let spans = vec![
            span(0, None, "round", 0, 1_000_000, &[]),
            span(
                1,
                Some(0),
                "sim.snapshot.classify",
                0,
                200_000,
                &[("sites", 100), ("simulated", 40)],
            ),
            span(
                2,
                Some(0),
                "sim.snapshot.replay",
                200_000,
                900_000,
                &[("forks", 4), ("spliced", 40)],
            ),
            span(3, Some(2), "bench.conformance.verify", 800_000, 900_000, &[]),
        ];
        let m: std::collections::BTreeMap<String, f64> =
            layer_metrics(&spans, 3, 1, 2.0, 1.6).into_iter().collect();
        assert_eq!(m["traced_wall_ms"], 1.0);
        assert!((m["unattributed_ms"] - 0.1).abs() < 1e-12);
        assert!((m["sim.snapshot.classify_share"] - 0.2).abs() < 1e-12);
        assert!((m["sim.snapshot.replay_share"] - 0.6).abs() < 1e-12);
        assert!((m["bench.conformance.verify_share"] - 0.1).abs() < 1e-12);
        assert_eq!(m["sim.snapshot.forks"], 4.0);
        assert_eq!(m["bench.conformance.sites_per_fork"], 10.0);
        assert_eq!(m["sim.snapshot.spliced_share"], 1.0);
        assert!((m["sim.snapshot.forks_per_s"] - 4.0 / 600e-6).abs() < 1e-6);
        assert_eq!(m["cache.compile_hits"], 3.0);
        assert_eq!(m["trace_overhead"], 1.25);
        assert_eq!(m["sim.engine_share"], 0.0);
    }
}
