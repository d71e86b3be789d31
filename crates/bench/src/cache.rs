//! Compile-once, run-many caching for the evaluation harness, backed by
//! the [`penny_cache`] service layer.
//!
//! Every figure re-runs the same 25 workloads under a handful of
//! compiler configurations; before this cache each `run_workload` call
//! re-parsed and re-compiled the kernel from scratch, and each
//! `overhead_series` re-simulated the Baseline scheme — Fig. 9 paid for
//! 100 baseline simulations instead of 25.
//!
//! Entries are **content-addressed**: the key is a
//! [`penny_cache::compile_key`] digest of the kernel source text plus a
//! canonical field-wise configuration fingerprint (not a `Debug`
//! string), so identical content collapses to one entry no matter which
//! code path — figures, benches, conformance, `penny-prof` — asked
//! first. Racing misses on one key are deduplicated: the first worker
//! compiles, the rest block and share the winner's `Arc`, so a key's
//! pass spans are emitted exactly once regardless of `--jobs` or
//! scheduling (see `tests/cache_service.rs`).
//!
//! Both caches memoize deterministic functions of their key, so results
//! are bit-identical whether they are computed or recalled, and
//! regardless of which worker thread got there first.

use std::sync::{Arc, OnceLock};

use penny_cache::{compile_key, CacheStats, ContentCache, Fingerprint, Fnv64};
use penny_core::{compile_observed, PennyConfig, Protected};
use penny_obs::Recorder;
use penny_sim::GpuConfig;
use penny_workloads::Workload;

use crate::runner::{run_workload, Measured, SchemeId};

fn compiled_cache() -> &'static ContentCache<Protected> {
    static CACHE: OnceLock<ContentCache<Protected>> = OnceLock::new();
    CACHE.get_or_init(ContentCache::with_default_capacity)
}

fn baseline_cache() -> &'static ContentCache<Measured> {
    static CACHE: OnceLock<ContentCache<Measured>> = OnceLock::new();
    CACHE.get_or_init(ContentCache::with_default_capacity)
}

/// The compiled form of `w` under `cfg` (which must already carry the
/// launch dims and machine parameters). Compiles on first use; later
/// calls — from any thread — share the same `Arc<Protected>`. Pass
/// spans go to the process-global recorder ([`crate::obs::recorder`])
/// and only cover the one cache-miss compilation of each key.
///
/// # Panics
///
/// Panics on parse or compile failure, like [`run_workload`].
pub fn compiled(w: &Workload, cfg: &PennyConfig) -> Arc<Protected> {
    compiled_with(w, cfg, crate::obs::recorder().as_ref())
}

/// [`compiled`] with an explicit span recorder: on a cache miss the
/// pipeline's pass spans land in `rec` (`penny-prof` passes its
/// per-workload recorder so a profile observes the full pipeline); on a
/// hit no spans are emitted and the shared artifact is returned as-is.
pub fn compiled_with(
    w: &Workload,
    cfg: &PennyConfig,
    rec: &dyn Recorder,
) -> Arc<Protected> {
    let source = w.source_text();
    let key = compile_key(&source, cfg);
    compiled_cache().get_or_compute(key, || {
        let kernel = w.kernel().unwrap_or_else(|e| panic!("{}: parse: {e}", w.abbr));
        compile_observed(&kernel, cfg, rec)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", w.abbr))
    })
}

/// Compiles every (workload, config) pair, fanning out across the
/// [`crate::parallel`] harness (`--jobs` workers) and returning the
/// artifacts in input order. Results are bit-identical for any job
/// count: each pair's artifact is the cache entry for its content key,
/// and the in-flight dedup guarantees each key compiles at most once
/// regardless of scheduling.
pub fn compile_batch(pairs: &[(Workload, PennyConfig)]) -> Vec<Arc<Protected>> {
    crate::parallel::parallel_map(pairs, |(w, cfg)| compiled(w, cfg))
}

/// The Baseline-scheme measurement of `w` on `base` (any RF protection
/// on `base` is replaced by the Baseline scheme's). Simulated once per
/// (workload, machine); every series of every figure shares the result.
pub fn baseline(w: &Workload, base: &GpuConfig) -> Measured {
    let gpu = base.clone().with_rf(SchemeId::Baseline.rf());
    let mut h = Fnv64::new();
    h.write_str(&w.source_text());
    gpu.fingerprint(&mut h);
    let m = baseline_cache()
        .get_or_compute(h.finish(), || run_workload(w, &SchemeId::Baseline.config(), &gpu));
    (*m).clone()
}

/// Counter snapshot of the compile cache.
pub fn compile_cache_stats() -> CacheStats {
    compiled_cache().stats()
}

/// Emits one `cache`-kind span per harness cache (subjects
/// `compile-cache` and `baseline-cache`) carrying the hit/miss/
/// eviction/in-flight-wait counters. `penny-prof` appends these to its
/// JSONL stream so cache effectiveness shows up next to pass timings.
pub fn record_cache_spans(rec: &dyn Recorder) {
    penny_cache::record_cache_span(
        rec,
        "compile-cache",
        compiled_cache().stats(),
        compiled_cache().len(),
    );
    penny_cache::record_cache_span(
        rec,
        "baseline-cache",
        baseline_cache().stats(),
        baseline_cache().len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_is_shared() {
        let w = penny_workloads::by_abbr("MT").expect("MT");
        let cfg = PennyConfig::penny()
            .with_launch(w.dims)
            .with_machine(GpuConfig::fermi().machine);
        let a = compiled(&w, &cfg);
        let b = compiled(&w, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn baseline_is_memoized_and_rf_normalized() {
        let w = penny_workloads::by_abbr("MT").expect("MT");
        let base = GpuConfig::fermi();
        let a = baseline(&w, &base);
        // Same machine with a different RF setting must hit the same
        // entry: the Baseline scheme overrides protection anyway.
        let b = baseline(&w, &base.clone().with_rf(penny_sim::RfProtection::None));
        assert_eq!(a.run, b.run);
        assert!(a.run.cycles > 0);
    }

    #[test]
    fn cache_stats_move_on_use() {
        let w = penny_workloads::by_abbr("BS").expect("BS");
        let cfg = PennyConfig::igpu()
            .with_launch(w.dims)
            .with_machine(GpuConfig::fermi().machine);
        let before = compile_cache_stats();
        let _ = compiled(&w, &cfg);
        let _ = compiled(&w, &cfg);
        let after = compile_cache_stats();
        // Other tests share the process-global cache, so assert deltas
        // only: at least one more hit, and the key misses at most once.
        assert!(after.hits > before.hits);
        assert!(
            after.misses + after.inflight_waits > before.misses + before.inflight_waits
                || after.hits >= before.hits + 2
        );
    }
}
