//! In-memory span tree for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions; the program itself gains no tracing.
//! Each span has an id, a parent, a start and an end (nanoseconds since
//! the tracer was created) and named counters. A span's self time is its
//! duration minus the part of it covered by the union of its children.
//!
//! The program's own `penny_obs` spans (compiler passes, simulator
//! launches, fault campaigns) carry a duration but no start time. They
//! are collected with a `MemRecorder` during one call and attached to
//! that call's span laid out back to back from its start; the traced run
//! uses one worker thread, so they cannot overlap.

use std::fmt::Write as _;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sim.snapshot.replay`.
    pub name: String,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Named counters, summed when the same name is added twice.
    pub counters: Vec<(String, u64)>,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    }
}

/// Collects spans when on; every method is a no-op when off, so the
/// untraced run reads no clocks on behalf of tracing.
pub struct Tracer {
    epoch: Option<Instant>,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { epoch: None, spans: Vec::new(), stack: Vec::new() }
    }

    /// A recording tracer whose epoch is now.
    pub fn on() -> Tracer {
        Tracer { epoch: Some(Instant::now()), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.map_or(0, |e| e.elapsed().as_nanos() as u64)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.is_on() {
            return;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(SpanRec {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            counters: Vec::new(),
        });
        self.stack.push(id);
    }

    /// Adds to a counter of the innermost open span.
    fn count(&mut self, name: &str, value: u64) {
        let Some(&top) = self.stack.last() else { return };
        let counters = &mut self.spans[top].counters;
        match counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => counters.push((name.to_string(), value)),
        }
    }

    /// Closes the innermost open span, adding `counters` to it.
    pub fn exit(&mut self, counters: &[(&str, u64)]) {
        for &(n, v) in counters {
            self.count(n, v);
        }
        let now = self.now_ns();
        if let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
        }
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit(&[]);
        r
    }

    /// Attaches spans the program recorded during the call the innermost
    /// open span covers, as its children, laid out back to back from its
    /// start. `name_of` maps each to a span name; `None` drops it.
    pub fn attach(
        &mut self,
        recorded: Vec<penny_obs::Span>,
        name_of: impl Fn(&penny_obs::Span) -> Option<String>,
    ) {
        let Some(&parent) = self.stack.last() else { return };
        let now = self.now_ns();
        let mut at = self.spans[parent].start_ns;
        for s in recorded {
            let Some(name) = name_of(&s) else { continue };
            let end = (at + s.wall_ns).min(now);
            let id = self.spans.len();
            self.spans.push(SpanRec {
                id,
                parent: Some(parent),
                name,
                start_ns: at,
                end_ns: end,
                counters: s.counters,
            });
            at = end;
        }
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Renders spans as JSON lines:
/// `{"id":..,"parent":..,"name":..,"start_ns":..,"end_ns":..,"counters":{..}}`.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"counters\":{{",
            s.id, s.name, s.start_ns, s.end_ns
        );
        for (i, (n, v)) in s.counters.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\"{n}\":{v}");
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            counters: vec![],
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Overlapping children: [10, 40) and [30, 60) cover 50 ns, not 60.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            // A child running past its parent only counts inside it.
            span(3, Some(0), 90, 120),
            // A grandchild is not subtracted from the root.
            span(4, Some(1), 15, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 50 - 10);
        assert_eq!(t[1], 30 - 5);
        assert_eq!(t[2], 30);
        assert_eq!(t[3], 30);
        assert_eq!(t[4], 5);
    }

    #[test]
    fn nested_child_inside_another_child_is_not_double_counted() {
        let spans =
            vec![span(0, None, 0, 100), span(1, Some(0), 10, 80), span(2, Some(0), 20, 30)];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn tracer_nests_counts_and_attaches_recorded_spans() {
        let mut t = Tracer::on();
        t.enter("outer");
        t.count("sites", 2);
        t.count("sites", 3);
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let rec = penny_obs::Span {
            kind: penny_obs::SpanKind::Sim,
            subject: "k".into(),
            label: "run".into(),
            wall_ns: 1_000,
            counters: vec![("cycles".into(), 7)],
        };
        t.attach(vec![rec.clone(), rec], |s| Some(format!("sim.{}", s.label)));
        t.exit(&[]);
        t.exit(&[("forks", 1)]);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[3].parent), (Some(1), Some(1)));
        assert_eq!(s[3].start_ns, s[2].end_ns);
        assert_eq!(s[2].counter("cycles"), 7);
        assert_eq!((s[0].counter("sites"), s[0].counter("forks")), (5, 1));
        assert!(to_jsonl(s).lines().all(|l| l.starts_with("{\"id\":")));

        let mut off = Tracer::off();
        off.enter("x");
        off.exit(&[("n", 1)]);
        assert!(off.spans().is_empty());
    }
}
