//! Span JSONL schema (version 1) and its validator.
//!
//! Every line `penny-prof` (and the bench sink) emits is one JSON
//! object with this shape:
//!
//! ```json
//! {"v":1,"kind":"pass","subject":"mt_kernel","label":"pruning",
//!  "wall_ns":1234,"counters":{"total":5,"committed":2},
//!  "workload":"MT","scheme":"Penny"}
//! ```
//!
//! Required fields, in any order (emission order is fixed but the
//! validator does not require it):
//!
//! | field      | type                     | constraint                                |
//! |------------|--------------------------|-------------------------------------------|
//! | `v`        | integer                  | must be `1`                               |
//! | `kind`     | string                   | `"pass"`, `"sim"`, `"site"`, `"cache"`, `"campaign"`, or `"shard"` |
//! | `subject`  | string                   | non-empty                                 |
//! | `label`    | string                   | non-empty                                 |
//! | `wall_ns`  | unsigned integer         |                                           |
//! | `counters` | object of name → integer | names non-empty                           |
//!
//! Any additional top-level key (e.g. `workload`, `scheme`,
//! `sim_error`) must be a string. Lines are parsed by
//! [`crate::json::parse`], so malformed JSON, duplicate keys and
//! trailing bytes are rejected before the schema is checked.

use crate::json;

/// Validates one emitted JSONL line against span schema v1.
pub fn validate_line(line: &str) -> Result<(), String> {
    let doc = json::parse(line)?;
    let fields = doc.obj("span")?;
    if json::num_field(fields, "v")? != 1 {
        return Err("field 'v' must be the integer 1".into());
    }
    let kind = json::str_field(fields, "kind")?;
    if crate::SpanKind::from_name(kind).is_none() {
        return Err(format!("unknown kind {kind:?}"));
    }
    for key in ["subject", "label"] {
        if json::str_field(fields, key)?.is_empty() {
            return Err(format!("field '{key}' must be non-empty"));
        }
    }
    json::num_field(fields, "wall_ns")?;
    for (name, value) in json::field(fields, "counters")?.obj("counters")? {
        if name.is_empty() {
            return Err("counter names must be non-empty".into());
        }
        value.num(name)?;
    }
    const CORE: [&str; 6] = ["v", "kind", "subject", "label", "wall_ns", "counters"];
    for (key, value) in fields {
        if !CORE.contains(&key.as_str()) {
            value.str(key)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Span, SpanKind};

    #[test]
    fn emitted_spans_validate() {
        let span = Span {
            kind: SpanKind::Sim,
            subject: "mt_kernel".into(),
            label: "run".into(),
            wall_ns: 98765,
            counters: vec![("cycles".into(), 100), ("recoveries".into(), 0)],
        };
        validate_line(&span.to_jsonl()).unwrap();
        validate_line(&span.to_jsonl_with(&[("workload", "MT"), ("scheme", "Penny")]))
            .unwrap();
    }

    #[test]
    fn cache_spans_validate() {
        let span = Span {
            kind: SpanKind::Cache,
            subject: "compile-cache".into(),
            label: "stats".into(),
            wall_ns: 0,
            counters: vec![
                ("hits".into(), 25),
                ("misses".into(), 25),
                ("evictions".into(), 0),
                ("inflight_waits".into(), 3),
            ],
        };
        validate_line(&span.to_jsonl()).unwrap();
    }

    #[test]
    fn campaign_spans_validate() {
        let span = Span {
            kind: SpanKind::Campaign,
            subject: "MT".into(),
            label: "Penny".into(),
            wall_ns: 120_000,
            counters: vec![
                ("sites".into(), 2000),
                ("snapshots".into(), 12),
                ("forks".into(), 640),
                ("pages_copied".into(), 64),
                ("replayed_insts".into(), 9000),
                ("skipped_insts".into(), 100_000),
            ],
        };
        validate_line(&span.to_jsonl()).unwrap();
    }

    #[test]
    fn shard_spans_validate() {
        let span = Span {
            kind: SpanKind::Shard,
            subject: "MT".into(),
            label: "exit".into(),
            wall_ns: 1_500_000,
            counters: vec![
                ("shard".into(), 3),
                ("count".into(), 4),
                ("attempt".into(), 1),
                ("exit_code".into(), 0),
            ],
        };
        validate_line(&span.to_jsonl()).unwrap();
        validate_line(&span.to_jsonl_with(&[("workload", "MT"), ("scheme", "Penny")]))
            .unwrap();
    }

    #[test]
    fn span_subject_round_trips_through_the_parser() {
        let span = Span {
            kind: SpanKind::Pass,
            subject: "k\"\\\n\u{1}".into(),
            label: "codegen".into(),
            wall_ns: 0,
            counters: vec![],
        };
        let doc = json::parse(&span.to_jsonl()).unwrap();
        let fields = doc.obj("span").unwrap();
        assert_eq!(json::str_field(fields, "subject").unwrap(), "k\"\\\n\u{1}");
    }

    #[test]
    fn rejects_schema_violations() {
        // Wrong version.
        let bad_v =
            r#"{"v":2,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{}}"#;
        assert!(validate_line(bad_v).is_err());
        // Unknown kind.
        let bad_kind =
            r#"{"v":1,"kind":"zap","subject":"k","label":"p","wall_ns":0,"counters":{}}"#;
        assert!(validate_line(bad_kind).is_err());
        // Missing counters.
        let no_counters = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0}"#;
        assert!(validate_line(no_counters).is_err());
        // Empty subject.
        let empty_subject =
            r#"{"v":1,"kind":"pass","subject":"","label":"p","wall_ns":0,"counters":{}}"#;
        assert!(validate_line(empty_subject).is_err());
        // Non-string extra field.
        let bad_extra = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{},"workload":7}"#;
        assert!(validate_line(bad_extra).is_err());
        // Trailing garbage and malformed JSON.
        assert!(validate_line("{} trailing").is_err());
        assert!(validate_line("not json").is_err());
        assert!(validate_line("[]").is_err());
        // Counters must be integers.
        let bad_counter = r#"{"v":1,"kind":"pass","subject":"k","label":"p","wall_ns":0,"counters":{"n":"7"}}"#;
        assert!(validate_line(bad_counter).is_err());
    }
}
