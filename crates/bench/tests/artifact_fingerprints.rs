//! Compile-determinism suite: golden artifact fingerprints and
//! serial-vs-batch / hit-vs-miss identity.
//!
//! The overwrite-prevention rework and the content-addressed compile
//! cache must not change a single artifact byte. This suite pins that
//! three ways:
//!
//! 1. **Goldens** — `penny_cache::fingerprint_protected` digests of all
//!    25 workloads under Penny, Bolt/Global, Bolt/Auto, and iGPU,
//!    checked against `tests/golden/artifact_fingerprints.txt`. The
//!    file was generated *before* the overwrite rework, so any drift in
//!    compiled output fails here first. Regenerate (only for an
//!    intentional codegen change) with
//!    `PENNY_REGEN_GOLDEN=1 cargo test -p penny-bench --test artifact_fingerprints`.
//! 2. **Serial vs batch** — `compile_batch` under `--jobs N` returns
//!    artifacts identical to one-at-a-time compilation.
//! 3. **Hit vs miss** — a cache hit hands back exactly the artifact a
//!    fresh compile produces.

use penny_bench::SchemeId;
use penny_cache::fingerprint_protected;
use penny_sim::GpuConfig;

const SCHEMES: [SchemeId; 4] =
    [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu];

/// Compiles one (workload, scheme) pair exactly like the run harness
/// does (launch dims + Fermi machine), bypassing every cache.
fn compile_direct(
    w: &penny_workloads::Workload,
    scheme: SchemeId,
) -> penny_core::Protected {
    let kernel = w.kernel().expect("parse");
    let cfg = scheme.config().with_launch(w.dims).with_machine(GpuConfig::fermi().machine);
    penny_core::compile(&kernel, &cfg)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.abbr, scheme.name()))
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/artifact_fingerprints.txt")
}

fn current_fingerprints() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for w in penny_workloads::all() {
        for scheme in SCHEMES {
            let fp = fingerprint_protected(&compile_direct(&w, scheme));
            out.push((format!("{} {}", w.abbr, scheme.token()), fp));
        }
    }
    out
}

#[test]
fn artifacts_match_pre_rework_goldens() {
    let current = current_fingerprints();
    let path = golden_path();
    if std::env::var_os("PENNY_REGEN_GOLDEN").is_some() {
        let mut text = String::from(
            "# Golden artifact fingerprints: penny_cache::fingerprint_protected of\n\
             # every workload x scheme, pinned before the overwrite-prevention\n\
             # rework. Regenerate only for an intentional codegen change:\n\
             #   PENNY_REGEN_GOLDEN=1 cargo test -p penny-bench --test artifact_fingerprints\n",
        );
        for (key, fp) in &current {
            text.push_str(&format!("{key} {fp:016x}\n"));
        }
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, text).expect("write goldens");
        eprintln!("regenerated {} ({} entries)", path.display(), current.len());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing goldens at {} ({e}); regenerate with PENNY_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let mut golden = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let abbr = parts.next().expect("abbr");
        let scheme = parts.next().expect("scheme");
        let fp = u64::from_str_radix(parts.next().expect("fp"), 16).expect("hex fp");
        golden.insert(format!("{abbr} {scheme}"), fp);
    }
    assert_eq!(golden.len(), current.len(), "golden entry count drifted");
    let mut mismatches = Vec::new();
    for (key, fp) in &current {
        match golden.get(key) {
            Some(g) if g == fp => {}
            Some(g) => {
                mismatches.push(format!("{key}: golden {g:016x} != current {fp:016x}"))
            }
            None => mismatches.push(format!("{key}: missing from goldens")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "compiled artifacts drifted from the pre-rework goldens:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn compile_is_deterministic_across_repeats() {
    // Two independent compiles of the same input are byte-identical
    // (the pipeline has no hidden global state).
    let w = penny_workloads::by_abbr("BFS").expect("BFS");
    for scheme in SCHEMES {
        let a = compile_direct(&w, scheme);
        let b = compile_direct(&w, scheme);
        assert_eq!(a, b, "{}: repeat compile differs", scheme.name());
        assert_eq!(fingerprint_protected(&a), fingerprint_protected(&b));
    }
}

#[test]
fn cache_hit_equals_fresh_compile() {
    let w = penny_workloads::by_abbr("SGEMM").expect("SGEMM");
    let cfg = SchemeId::Penny
        .config()
        .with_launch(w.dims)
        .with_machine(GpuConfig::fermi().machine);
    // Miss (or hit, if another test got there first), then guaranteed hit.
    let first = penny_bench::cache::compiled(&w, &cfg);
    let hit = penny_bench::cache::compiled(&w, &cfg);
    assert!(std::sync::Arc::ptr_eq(&first, &hit), "second lookup must hit");
    let fresh = compile_direct(&w, SchemeId::Penny);
    assert_eq!(*hit, fresh, "cache hit differs from a fresh compile");
    assert_eq!(fingerprint_protected(&hit), fingerprint_protected(&fresh));
}

#[test]
fn batch_equals_serial_for_every_job_count() {
    let pairs: Vec<(penny_workloads::Workload, penny_core::PennyConfig)> =
        ["MT", "BFS", "NW", "SGEMM", "HS"]
            .iter()
            .flat_map(|abbr| {
                let machine = GpuConfig::fermi().machine;
                [SchemeId::Penny, SchemeId::BoltAuto].into_iter().map(move |scheme| {
                    let w = penny_workloads::by_abbr(abbr).expect("workload");
                    let cfg = scheme.config().with_launch(w.dims).with_machine(machine);
                    (w, cfg)
                })
            })
            .collect();
    let serial: Vec<u64> = pairs
        .iter()
        .map(|(w, cfg)| fingerprint_protected(&penny_bench::cache::compiled(w, cfg)))
        .collect();
    for jobs in [1, 4, 8] {
        penny_bench::set_jobs(jobs);
        let batch = penny_bench::cache::compile_batch(&pairs);
        let fps: Vec<u64> = batch.iter().map(|p| fingerprint_protected(p)).collect();
        assert_eq!(serial, fps, "compile_batch with {jobs} jobs drifted");
    }
    penny_bench::set_jobs(1);
}
