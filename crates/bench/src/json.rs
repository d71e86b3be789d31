//! JSON interchange for shard reports.
//!
//! `penny-herd` shards are separate processes: each writes its
//! [`ConformanceReport`]s as JSON ([`reports_to_json`]) and the
//! orchestrator reads them back ([`reports_from_json`]) before
//! merging. The encoding goes through the workspace's one codec,
//! [`penny_obs::json`]; this module only maps reports to and from it.
//!
//! Serialization is deterministic (fixed field order, no floats), and
//! `from_json(to_json(r))` reproduces every verdict field
//! bit-identically, so a merged sharded campaign renders byte-identical
//! to the unsharded run even after a process boundary. The round-trip
//! is pinned by the tests below and `tests/herd.rs`.

use std::fmt::Write as _;

use penny_obs::json::{self, escape, field, num_field, str_field, Json};
use penny_sim::Injection;

use crate::conformance::{
    ConformanceFailure, ConformanceReport, FaultSpace, ReplayWork, SiteClassCounts,
    StaticPruneCounts,
};
use crate::runner::SchemeId;

/// Version tag written at the top of every report file; bumped on any
/// incompatible field change so a herd never merges reports written by
/// a different binary generation.
pub const REPORT_FORMAT_VERSION: u64 = 1;

/// Serializes one report as a deterministic JSON object.
pub fn report_to_json(r: &ConformanceReport) -> String {
    let mut o = String::with_capacity(1024);
    let _ = write!(
        o,
        "{{\"workload\":\"{}\",\"variant\":\"{}\"",
        escape(r.workload),
        escape(r.variant)
    );
    let s = &r.space;
    let _ = write!(
        o,
        ",\"space\":{{\"blocks\":{},\"warps\":{},\"lanes\":{},\"triggers\":{},\
         \"regs\":{},\"bits\":{}}}",
        s.blocks, s.warps, s.lanes, s.triggers, s.regs, s.bits
    );
    let _ = write!(
        o,
        ",\"total\":{},\"covered\":{},\"skipped\":{},\"pruned_static\":{}",
        r.total, r.covered, r.skipped, r.pruned_static
    );
    let _ = write!(
        o,
        ",\"static_prune\":{{\"dead\":{},\"overwritten\":{},\"covered\":{}}}",
        r.static_prune.dead, r.static_prune.overwritten, r.static_prune.covered
    );
    let _ = write!(
        o,
        ",\"static_checked\":{},\"static_disagreements\":{}",
        r.static_checked, r.static_disagreements
    );
    o.push_str(",\"disagreements\":[");
    for (i, (pos, reason)) in r.disagreements.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "{{\"pos\":{pos},\"reason\":\"{}\"}}", escape(reason));
    }
    let _ = write!(o, "],\"recovered\":{}", r.recovered);
    let c = &r.classes;
    let _ = write!(
        o,
        ",\"classes\":{{\"never_fires\":{},\"invisible\":{},\"corrected_inline\":{},\
         \"simulated\":{},\"spliced\":{}}}",
        c.never_fires, c.invisible, c.corrected_inline, c.simulated, c.spliced
    );
    let w = &r.work;
    let _ = write!(
        o,
        ",\"work\":{{\"snapshots\":{},\"forks\":{},\"replayed_insts\":{},\
         \"cold_insts\":{},\"pages_copied\":{}}}",
        w.snapshots, w.forks, w.replayed_insts, w.cold_insts, w.pages_copied
    );
    let _ = write!(o, ",\"shard\":[{},{}]", r.shard.0, r.shard.1);
    o.push_str(",\"failures\":[");
    for (i, f) in r.failures.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        let inj = &f.injection;
        let _ = write!(
            o,
            "{{\"sample\":{},\"injection\":{{\"block\":{},\"warp\":{},\"lane\":{},\
             \"reg\":{},\"bit\":{},\"after_warp_insts\":{}}},\"reason\":\"{}\",\
             \"reproducer\":\"{}\"}}",
            f.sample,
            inj.block,
            inj.warp,
            inj.lane,
            inj.reg,
            inj.bit,
            inj.after_warp_insts,
            escape(&f.reason),
            escape(&f.reproducer)
        );
    }
    o.push_str("]}");
    o
}

/// Serializes a batch of reports (one shard's output file) with the
/// format version tag.
pub fn reports_to_json(reports: &[ConformanceReport]) -> String {
    let mut o = String::new();
    let _ = writeln!(o, "{{\"v\":{REPORT_FORMAT_VERSION},\"reports\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            o.push_str(",\n");
        }
        o.push_str(&report_to_json(r));
    }
    o.push_str("\n]}\n");
    o
}

/// Restores the `&'static str` workload abbreviation: registry
/// workloads intern to their registry entry; unknown names (e.g.
/// leaked fuzz workloads) are leaked once per distinct name.
fn intern_workload(name: &str) -> &'static str {
    match penny_workloads::by_abbr(name) {
        Some(w) => w.abbr,
        None => Box::leak(name.to_owned().into_boxed_str()),
    }
}

/// Restores the `&'static str` scheme display name.
fn intern_variant(name: &str) -> &'static str {
    SchemeId::ALL
        .iter()
        .map(|s| s.name())
        .find(|n| *n == name)
        .unwrap_or_else(|| Box::leak(name.to_owned().into_boxed_str()))
}

/// Rebuilds one report from its parsed JSON object.
fn report_from_value(v: &Json) -> Result<ConformanceReport, String> {
    let f = v.obj("report")?;
    let space = {
        let s = field(f, "space")?.obj("space")?;
        FaultSpace {
            blocks: num_field(s, "blocks")? as u32,
            warps: num_field(s, "warps")? as u32,
            lanes: num_field(s, "lanes")? as u32,
            triggers: num_field(s, "triggers")?,
            regs: num_field(s, "regs")? as u32,
            bits: num_field(s, "bits")? as u32,
        }
    };
    let static_prune = {
        let s = field(f, "static_prune")?.obj("static_prune")?;
        StaticPruneCounts {
            dead: num_field(s, "dead")?,
            overwritten: num_field(s, "overwritten")?,
            covered: num_field(s, "covered")?,
        }
    };
    let classes = {
        let s = field(f, "classes")?.obj("classes")?;
        SiteClassCounts {
            never_fires: num_field(s, "never_fires")?,
            invisible: num_field(s, "invisible")?,
            corrected_inline: num_field(s, "corrected_inline")?,
            simulated: num_field(s, "simulated")?,
            spliced: num_field(s, "spliced")?,
        }
    };
    let work = {
        let s = field(f, "work")?.obj("work")?;
        ReplayWork {
            snapshots: num_field(s, "snapshots")?,
            forks: num_field(s, "forks")?,
            replayed_insts: num_field(s, "replayed_insts")?,
            cold_insts: num_field(s, "cold_insts")?,
            pages_copied: num_field(s, "pages_copied")?,
        }
    };
    let shard = {
        let s = field(f, "shard")?.arr("shard")?;
        if s.len() != 2 {
            return Err("shard: expected [index, count]".into());
        }
        (s[0].num("shard index")? as u32, s[1].num("shard count")? as u32)
    };
    let mut disagreements = Vec::new();
    for d in field(f, "disagreements")?.arr("disagreements")? {
        let d = d.obj("disagreement")?;
        disagreements.push((num_field(d, "pos")?, str_field(d, "reason")?.to_string()));
    }
    let mut failures = Vec::new();
    for x in field(f, "failures")?.arr("failures")? {
        let x = x.obj("failure")?;
        let i = field(x, "injection")?.obj("injection")?;
        failures.push(ConformanceFailure {
            sample: num_field(x, "sample")?,
            injection: Injection {
                block: num_field(i, "block")? as u32,
                warp: num_field(i, "warp")? as u32,
                lane: num_field(i, "lane")? as u32,
                reg: num_field(i, "reg")? as u32,
                bit: num_field(i, "bit")? as u32,
                after_warp_insts: num_field(i, "after_warp_insts")?,
            },
            reason: str_field(x, "reason")?.to_string(),
            reproducer: str_field(x, "reproducer")?.to_string(),
        });
    }
    Ok(ConformanceReport {
        workload: intern_workload(str_field(f, "workload")?),
        variant: intern_variant(str_field(f, "variant")?),
        space,
        total: num_field(f, "total")?,
        covered: num_field(f, "covered")?,
        skipped: num_field(f, "skipped")?,
        pruned_static: num_field(f, "pruned_static")?,
        static_prune,
        static_checked: num_field(f, "static_checked")?,
        static_disagreements: num_field(f, "static_disagreements")?,
        disagreements,
        recovered: num_field(f, "recovered")?,
        classes,
        work,
        shard,
        failures,
    })
}

/// Parses a shard report file written by [`reports_to_json`].
///
/// # Errors
///
/// Rejects syntax errors, a missing/mismatched version tag, and any
/// structurally wrong report — the herd treats all of these as a failed
/// shard attempt (retryable), never as mergeable data.
pub fn reports_from_json(s: &str) -> Result<Vec<ConformanceReport>, String> {
    let v = json::parse(s)?;
    let f = v.obj("report file")?;
    let version = num_field(f, "v")?;
    if version != REPORT_FORMAT_VERSION {
        return Err(format!(
            "report format v{version}, this binary reads v{REPORT_FORMAT_VERSION}"
        ));
    }
    field(f, "reports")?.arr("reports")?.iter().map(report_from_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{render_report, run_conformance, MAX_REPORTED_FAILURES};

    #[test]
    fn clean_report_round_trips_bit_identically() {
        let r = run_conformance("MT", SchemeId::Penny, 48);
        let json = reports_to_json(std::slice::from_ref(&r));
        let back = reports_from_json(&json).expect("parse");
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.workload, r.workload);
        assert_eq!(b.variant, r.variant);
        assert_eq!(b.space, r.space);
        assert_eq!(b.total, r.total);
        assert_eq!(b.covered, r.covered);
        assert_eq!(b.skipped, r.skipped);
        assert_eq!(b.classes, r.classes);
        assert_eq!(b.work, r.work);
        assert_eq!(b.shard, r.shard);
        assert_eq!(render_report(b), render_report(&r));
        // Serialization is a fixed point after a round trip.
        assert_eq!(report_to_json(b), report_to_json(&r));
    }

    #[test]
    fn failing_report_round_trips_reproducers() {
        // Baseline MT produces real failures with multi-line reproducer
        // strings — the stress case for string escaping.
        let r = run_conformance("MT", SchemeId::Baseline, 120);
        assert!(!r.failures.is_empty(), "baseline must fail");
        assert!(r.failures.len() <= MAX_REPORTED_FAILURES);
        let back = &reports_from_json(&reports_to_json(std::slice::from_ref(&r)))
            .expect("parse")[0];
        assert_eq!(back.failures.len(), r.failures.len());
        for (a, b) in back.failures.iter().zip(&r.failures) {
            assert_eq!(a.sample, b.sample);
            assert_eq!(a.injection, b.injection);
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.reproducer, b.reproducer);
        }
        assert_eq!(render_report(back), render_report(&r));
    }

    /// A hand-built report: one failure whose strings need every escape
    /// class the writer has (`"`, `\\`, newline, tab, U+0001) and one
    /// static disagreement.
    fn pinned_report() -> ConformanceReport {
        ConformanceReport {
            workload: "MT",
            variant: "Penny",
            space: FaultSpace {
                blocks: 2,
                warps: 3,
                lanes: 32,
                triggers: 41,
                regs: 9,
                bits: 32,
            },
            total: 217_728,
            covered: 64,
            skipped: 217_632,
            pruned_static: 32,
            static_prune: StaticPruneCounts { dead: 20, overwritten: 8, covered: 4 },
            static_checked: 12,
            static_disagreements: 1,
            disagreements: vec![(17, "static dead, dynamic simulated".into())],
            recovered: 63,
            classes: SiteClassCounts {
                never_fires: 5,
                invisible: 30,
                corrected_inline: 0,
                simulated: 29,
                spliced: 27,
            },
            work: ReplayWork {
                snapshots: 6,
                forks: 11,
                replayed_insts: 4_096,
                cold_insts: 65_536,
                pages_copied: 3,
            },
            shard: (1, 4),
            failures: vec![ConformanceFailure {
                sample: 42,
                injection: Injection {
                    block: 1,
                    warp: 2,
                    lane: 31,
                    reg: 8,
                    bit: 30,
                    after_warp_insts: 40,
                },
                reason: "mismatch at \"0x20000\": got \\x\nwant\ty\u{1}".into(),
                reproducer: "fn repro() {\n\tcheck(\"MT\", \"C:\\\\k\");\u{1}\n}".into(),
            }],
        }
    }

    #[test]
    fn report_bytes_are_pinned() {
        let r = pinned_report();
        let json = reports_to_json(std::slice::from_ref(&r));
        assert_eq!(
            json,
            concat!(
                "{\"v\":1,\"reports\":[\n",
                r#"{"workload":"MT","variant":"Penny","#,
                r#""space":{"blocks":2,"warps":3,"lanes":32,"triggers":41,"regs":9,"#,
                r#""bits":32},"total":217728,"covered":64,"skipped":217632,"#,
                r#""pruned_static":32,"static_prune":{"dead":20,"overwritten":8,"#,
                r#""covered":4},"static_checked":12,"static_disagreements":1,"#,
                r#""disagreements":[{"pos":17,"reason":"static dead, dynamic simulated"}],"#,
                r#""recovered":63,"classes":{"never_fires":5,"invisible":30,"#,
                r#""corrected_inline":0,"simulated":29,"spliced":27},"#,
                r#""work":{"snapshots":6,"forks":11,"replayed_insts":4096,"#,
                r#""cold_insts":65536,"pages_copied":3},"shard":[1,4],"#,
                r#""failures":[{"sample":42,"injection":{"block":1,"warp":2,"#,
                r#""lane":31,"reg":8,"bit":30,"after_warp_insts":40},"#,
                r#""reason":"mismatch at \"0x20000\": got \\x\nwant\ty\u0001","#,
                r#""reproducer":"fn repro() {\n\tcheck(\"MT\", \"C:\\\\k\");\u0001\n}"}]}"#,
                "\n]}\n",
            )
        );
        let back = reports_from_json(&json).expect("parse");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].failures[0].reason, r.failures[0].reason);
        assert_eq!(back[0].failures[0].reproducer, r.failures[0].reproducer);
        assert_eq!(back[0].disagreements, r.disagreements);
        assert_eq!(reports_to_json(&back), json);
    }

    #[test]
    fn version_and_structure_errors_are_rejected() {
        assert!(reports_from_json("{\"v\":99,\"reports\":[]}").is_err());
        assert!(reports_from_json("{\"reports\":[]}").is_err());
        assert!(reports_from_json("{\"v\":1,\"reports\":[{\"workload\":\"MT\"}]}").is_err());
        assert!(reports_from_json("not json").is_err());
        // A damaged file nested past the codec's depth cap is an error,
        // not a stack overflow.
        assert!(reports_from_json(&"[".repeat(100_000)).is_err());
        assert_eq!(reports_from_json("{\"v\":1,\"reports\":[]}").unwrap().len(), 0);
    }
}
