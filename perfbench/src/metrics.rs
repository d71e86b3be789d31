//! The metric catalogue. `BENCHMARK.json` at the repository root lists
//! the same names, units, directions and bounds; a unit test keeps the
//! two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, measured with
/// tracing off, with the share of the parent's median by which it may
/// worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Every end-to-end metric; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "round_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "items_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.2 },
];

/// Compiler passes whose self-time shares the traced run reports, in
/// pipeline order (`penny_core::compile_observed` span labels).
pub const PASSES: [&str; 10] = [
    "region-formation",
    "igpu-renaming",
    "checkpoint-placement",
    "overwrite-prevention",
    "validation",
    "pruning",
    "restore-metadata",
    "storage-assignment",
    "codegen",
    "vulnerability",
];

/// Every per-layer metric `(name, unit, better)`; the traced run of every
/// workload reports all of them. Layer times that can be zero on some
/// workload are given as shares of the traced wall time rather than as
/// milliseconds.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("ir.parse_ms", "ms", Better::Lower),
    ("core.compile_ms", "ms", Better::Lower),
    ("core.compile_p99_ms", "ms", Better::Lower),
    ("core.region-formation_share", "ratio", Better::Lower),
    ("core.igpu-renaming_share", "ratio", Better::Lower),
    ("core.checkpoint-placement_share", "ratio", Better::Lower),
    ("core.overwrite-prevention_share", "ratio", Better::Lower),
    ("core.validation_share", "ratio", Better::Lower),
    ("core.pruning_share", "ratio", Better::Lower),
    ("core.restore-metadata_share", "ratio", Better::Lower),
    ("core.storage-assignment_share", "ratio", Better::Lower),
    ("core.codegen_share", "ratio", Better::Lower),
    ("core.vulnerability_share", "ratio", Better::Lower),
    ("cache.compile_hits", "count", Better::Higher),
    ("cache.compile_misses", "count", Better::Lower),
    ("sim.engine_share", "ratio", Better::Lower),
    ("sim.engine.runs", "count", Better::Lower),
    ("sim.engine.warp_insts_per_s", "1/s", Better::Higher),
    ("sim.engine.skipped_cycles_per_cycle", "ratio", Better::Higher),
    ("bench.figures_share", "ratio", Better::Lower),
    ("bench.campaign_share", "ratio", Better::Lower),
    ("bench.campaign.runs", "count", Better::Lower),
    ("sim.snapshot.record_share", "ratio", Better::Lower),
    ("sim.snapshot.records", "count", Better::Lower),
    ("sim.persist.write_share", "ratio", Better::Lower),
    ("sim.persist.read_share", "ratio", Better::Lower),
    ("sim.persist.bytes", "count", Better::Lower),
    ("sim.snapshot.classify_share", "ratio", Better::Lower),
    ("sim.snapshot.classify_sites_per_s", "1/s", Better::Higher),
    ("bench.conformance.sites_per_fork", "ratio", Better::Higher),
    ("analysis.vulnerability.static_share", "ratio", Better::Lower),
    ("analysis.vulnerability.static_sites_per_s", "1/s", Better::Higher),
    ("analysis.vulnerability.answered_share", "ratio", Better::Higher),
    ("sim.snapshot.replay_share", "ratio", Better::Lower),
    ("sim.snapshot.forks", "count", Better::Lower),
    ("sim.snapshot.forks_per_s", "1/s", Better::Higher),
    ("sim.snapshot.replayed_insts", "count", Better::Lower),
    ("sim.snapshot.spliced_share", "ratio", Better::Higher),
    ("sim.snapshot.pages_copied", "count", Better::Lower),
    ("bench.conformance.verify_share", "ratio", Better::Lower),
    ("bench.conformance.merge_share", "ratio", Better::Lower),
    ("bench.json.render_share", "ratio", Better::Lower),
    ("bench.json.parse_share", "ratio", Better::Lower),
    ("traced_wall_ms", "ms", Better::Lower),
    ("unattributed_ms", "ms", Better::Lower),
    ("trace_overhead", "ratio", Better::Lower),
];

/// The unit of a per-layer metric.
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("count", |m| m.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
            && s.as_bytes()[0].is_ascii_alphanumeric()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let b = benchmark_json();
        let e2e = b.get("end_to_end").and_then(Value::arr).expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Value::str), Some(want.name));
            assert_eq!(m.get("unit").and_then(Value::str), Some(want.unit));
            assert_eq!(m.get("better").and_then(Value::str), Some(want.better.as_str()));
            assert_eq!(m.get("bound").and_then(Value::num), Some(want.bound));
            assert!(want.bound > 0.0 && want.bound <= 0.25);
        }
        let layers = b.get("per_layer").and_then(Value::arr).expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").and_then(Value::str), Some(want.0));
            assert_eq!(m.get("unit").and_then(Value::str), Some(want.1));
            assert_eq!(m.get("better").and_then(Value::str), Some(want.2.as_str()));
        }
        let workloads = b.get("workloads").and_then(Value::arr).expect("workloads");
        let names: Vec<&str> =
            workloads.iter().filter_map(|w| w.get("name").and_then(Value::str)).collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let b = benchmark_json();
        let mut seen = std::collections::BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for m in b.get(key).and_then(Value::arr).expect(key) {
                let name = m.get("name").and_then(Value::str).expect("name");
                assert!(is_name(name), "bad name {name:?}");
                assert!(seen.insert(name.to_string()), "duplicate name {name:?}");
            }
        }
    }

    #[test]
    fn every_listed_metric_is_emitted() {
        let b = benchmark_json();
        let untraced =
            crate::report::end_to_end_values(&crate::report::RunSamples::default());
        for m in b.get("end_to_end").and_then(Value::arr).expect("end_to_end") {
            let name = m.get("name").and_then(Value::str).expect("name");
            assert!(untraced.iter().any(|(n, _)| n == name), "{name} is not emitted");
        }
        let traced = crate::layers::layer_metrics(&[], 0, 0, 1.0, 1.0);
        for m in b.get("per_layer").and_then(Value::arr).expect("per_layer") {
            let name = m.get("name").and_then(Value::str).expect("name");
            assert!(traced.iter().any(|(n, _)| n == name), "{name} is not emitted");
        }
    }
}
