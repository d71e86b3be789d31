#![warn(missing_docs)]
//! Zero-cost-when-off observability for the Penny pipeline and
//! simulator.
//!
//! Collection hangs off the [`Recorder`] trait. The default sink,
//! [`NullRecorder`], reports `enabled() == false`, and every
//! instrumentation site is written so that a disabled recorder costs a
//! predicted-false branch: no clock is read ([`SpanTimer::start`]
//! returns a dead timer), no counter vector is built, and no [`Span`]
//! is allocated. The figure suite, the baseline runs and the
//! conformance verdicts are therefore byte-identical with observability
//! on or off — a property `crates/bench/tests/obs_neutrality.rs` pins.
//!
//! Six span kinds cover the system:
//!
//! * [`SpanKind::Pass`] — one compiler pass of
//!   `penny_core::pipeline::compile_observed` (wall time + per-pass
//!   counters such as regions cut, checkpoints placed/pruned, max-flow
//!   augmenting paths, shared/global slots);
//! * [`SpanKind::Sim`] — one simulator launch
//!   (`penny_sim::engine::run_observed`: cycles, idle cycles skipped,
//!   clean/decoded RF reads, recoveries, re-executed instructions);
//! * [`SpanKind::Site`] — one fault-injection site of a campaign or
//!   conformance run;
//! * [`SpanKind::Cache`] — one compile-cache stats snapshot
//!   (`penny_cache::ContentCache` hit/miss/evict/inflight-wait
//!   counters, reported by `penny-prof`), or one timed load or record
//!   of the harness's recording store;
//! * [`SpanKind::Campaign`] — one whole conformance sweep or fault
//!   campaign (snapshot/fork/replay aggregates: snapshots taken, forks,
//!   pages copied, replayed vs. skipped instructions, wall time);
//! * [`SpanKind::Shard`] — one shard-process lifecycle event from the
//!   `penny-herd` orchestrator (spawn/exit/retry/timeout, with attempt
//!   and exit-status counters).
//!
//! Every instrumentation site emits through one constructor,
//! [`record`]. Spans serialize to JSONL via [`Span::to_jsonl`]; the
//! versioned schema lives in [`schema`] together with its validator
//! (`penny-prof --check` runs every emitted line through it). [`json`]
//! is the workspace's one JSON codec: the span writer, the validator
//! and the shard-report interchange all go through it.

pub mod json;
pub mod schema;

use std::sync::Mutex;
use std::time::Instant;

/// A static counter attached to a span at an instrumentation site.
pub type Counter = (&'static str, u64);

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One compiler pass of one kernel compilation.
    Pass,
    /// One simulator launch.
    Sim,
    /// One fault-injection site (campaign/conformance).
    Site,
    /// One cache statistics snapshot, or one timed recording-store
    /// load or record.
    Cache,
    /// One whole fault-injection campaign or conformance sweep
    /// (aggregate snapshot/fork/replay counters plus wall time).
    Campaign,
    /// One shard-process lifecycle event of an orchestrated campaign
    /// (`penny-herd`): spawn, exit, retry, or timeout.
    Shard,
}

impl SpanKind {
    /// Stable serialized name (`"pass"`, `"sim"`, `"site"`, `"cache"`,
    /// `"campaign"`, `"shard"`).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Pass => "pass",
            SpanKind::Sim => "sim",
            SpanKind::Site => "site",
            SpanKind::Cache => "cache",
            SpanKind::Campaign => "campaign",
            SpanKind::Shard => "shard",
        }
    }

    /// Parses a serialized name back into a kind.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        match name {
            "pass" => Some(SpanKind::Pass),
            "sim" => Some(SpanKind::Sim),
            "site" => Some(SpanKind::Site),
            "cache" => Some(SpanKind::Cache),
            "campaign" => Some(SpanKind::Campaign),
            "shard" => Some(SpanKind::Shard),
            _ => None,
        }
    }
}

/// One completed measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span kind.
    pub kind: SpanKind,
    /// What was measured (kernel or workload name).
    pub subject: String,
    /// Pass name, run label, or site label.
    pub label: String,
    /// Wall-clock nanoseconds (0 for counter-only site spans).
    pub wall_ns: u64,
    /// Named counters, in emission order.
    pub counters: Vec<(String, u64)>,
}

impl Span {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Serializes the span as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_with(&[])
    }

    /// Serializes the span with extra string context fields (e.g.
    /// `workload`, `scheme`) appended after the core schema fields.
    pub fn to_jsonl_with(&self, extra: &[(&str, &str)]) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"v\":1,\"kind\":\"");
        out.push_str(self.kind.name());
        out.push_str("\",\"subject\":\"");
        out.push_str(&json::escape(&self.subject));
        out.push_str("\",\"label\":\"");
        out.push_str(&json::escape(&self.label));
        out.push_str("\",\"wall_ns\":");
        out.push_str(&self.wall_ns.to_string());
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json::escape(name));
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        for (key, value) in extra {
            out.push_str(",\"");
            out.push_str(&json::escape(key));
            out.push_str("\":\"");
            out.push_str(&json::escape(value));
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// A span sink. Implementations must be cheap to query: `enabled()` is
/// called on hot paths to decide whether any measurement happens at
/// all.
pub trait Recorder: Sync {
    /// Whether spans should be collected. Instrumentation sites skip
    /// clock reads and counter construction entirely when this is
    /// `false`.
    fn enabled(&self) -> bool;

    /// Accepts one completed span. Only called when [`Recorder::enabled`]
    /// returned `true` at the site.
    fn record(&self, span: Span);
}

/// The no-op sink: `enabled()` is `false`, nothing is ever recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _span: Span) {}
}

/// A shared [`NullRecorder`] for call sites that need a `&dyn Recorder`.
pub static NULL: NullRecorder = NullRecorder;

/// An in-memory sink collecting every span (thread-safe).
#[derive(Debug, Default)]
pub struct MemRecorder {
    spans: Mutex<Vec<Span>>,
}

impl MemRecorder {
    /// Creates an empty recorder.
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// A copy of every span recorded so far, in arrival order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Drains and returns every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.lock().unwrap())
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, span: Span) {
        self.spans.lock().unwrap().push(span);
    }
}

/// A wall-clock timer that only reads the clock when the recorder is
/// enabled; dead timers report 0 ns.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// Starts a timer — live when `rec.enabled()`, dead (no clock read)
    /// otherwise.
    pub fn start(rec: &dyn Recorder) -> SpanTimer {
        SpanTimer(if rec.enabled() { Some(Instant::now()) } else { None })
    }

    /// Elapsed nanoseconds (0 for a dead timer).
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
    }

    /// Whether the timer is live (the recorder was enabled at start).
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

/// Records one span (no-op when `rec` is disabled). Timed callers pass
/// `timer.elapsed_ns()` — 0 for a dead timer, with no clock read —
/// and counter-only spans (sites, cache stats) pass 0.
pub fn record(
    rec: &dyn Recorder,
    kind: SpanKind,
    subject: &str,
    label: &str,
    wall_ns: u64,
    counters: &[Counter],
) {
    if !rec.enabled() {
        return;
    }
    rec.record(Span {
        kind,
        subject: subject.to_string(),
        label: label.to_string(),
        wall_ns,
        counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NULL.enabled());
        let timer = SpanTimer::start(&NULL);
        assert!(!timer.is_live());
        assert_eq!(timer.elapsed_ns(), 0);
        // `record` must not panic and must not record.
        record(&NULL, SpanKind::Pass, "k", "region-formation", 0, &[("regions", 3)]);
    }

    #[test]
    fn mem_recorder_collects_spans() {
        let rec = MemRecorder::new();
        assert!(rec.enabled() && rec.is_empty());
        let timer = SpanTimer::start(&rec);
        assert!(timer.is_live());
        let pairs = [("committed", 2), ("total", 5)];
        record(&rec, SpanKind::Pass, "k", "pruning", timer.elapsed_ns(), &pairs);
        record(&rec, SpanKind::Sim, "k", "run", timer.elapsed_ns(), &[("cycles", 100)]);
        record(&rec, SpanKind::Site, "MT", "b0w0l0r1b2t3", 0, &[("recoveries", 1)]);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Pass);
        assert_eq!(spans[0].counter("committed"), Some(2));
        assert_eq!(spans[1].kind, SpanKind::Sim);
        assert_eq!(spans[2].kind, SpanKind::Site);
        assert_eq!(spans[2].wall_ns, 0);
        assert_eq!(rec.take().len(), 3);
        assert!(rec.is_empty());
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            SpanKind::Pass,
            SpanKind::Sim,
            SpanKind::Site,
            SpanKind::Cache,
            SpanKind::Campaign,
            SpanKind::Shard,
        ] {
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_name("bogus"), None);
    }

    #[test]
    fn cache_spans_are_counter_only() {
        let rec = MemRecorder::new();
        let pairs = [("hits", 3), ("misses", 1)];
        record(&rec, SpanKind::Cache, "compile-cache", "stats", 0, &pairs);
        record(&NULL, SpanKind::Cache, "compile-cache", "stats", 0, &[("hits", 3)]);
        let spans = rec.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, SpanKind::Cache);
        assert_eq!(spans[0].wall_ns, 0);
        assert_eq!(spans[0].counter("hits"), Some(3));
    }

    #[test]
    fn jsonl_serialization_and_escaping() {
        let span = Span {
            kind: SpanKind::Pass,
            subject: "k\"1".into(),
            label: "a\\b\n".into(),
            wall_ns: 42,
            counters: vec![("regions".into(), 7)],
        };
        let line = span.to_jsonl();
        assert!(line.starts_with("{\"v\":1,\"kind\":\"pass\""));
        assert!(line.contains("\"subject\":\"k\\\"1\""));
        assert!(line.contains("\"label\":\"a\\\\b\\n\""));
        assert!(line.contains("\"wall_ns\":42"));
        assert!(line.contains("\"counters\":{\"regions\":7}"));
        let with_extra = span.to_jsonl_with(&[("workload", "MT"), ("scheme", "Penny")]);
        assert!(with_extra.ends_with(",\"workload\":\"MT\",\"scheme\":\"Penny\"}"));
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let span = Span {
            kind: SpanKind::Site,
            subject: "k\"1\\".into(),
            label: "b0\tw1\nl2\u{1}".into(),
            wall_ns: 42,
            counters: vec![("regions".into(), 7), ("q\"n".into(), 0)],
        };
        let line = span.to_jsonl_with(&[("workload", "MT\r"), ("sim\\error", "x\u{1f}y")]);
        assert_eq!(
            line,
            concat!(
                r#"{"v":1,"kind":"site","subject":"k\"1\\","label":"b0\tw1\nl2\u0001","#,
                r#""wall_ns":42,"counters":{"regions":7,"q\"n":0},"#,
                r#""workload":"MT\r","sim\\error":"x\u001fy"}"#,
            )
        );
        schema::validate_line(&line).expect("pinned line is a valid span");
    }
}
