//! Persistent, content-addressed store for fault-free recordings.
//!
//! Recording a fault-free run is the dominant fixed cost of a
//! conformance sweep: every shard of a `penny-herd` campaign would
//! otherwise re-trace the same (workload, scheme) pairs from cycle 0.
//! When a store directory is configured ([`set_recording_store`]),
//! [`load_or_record`] keys each recording by
//! [`penny_cache::recording_key`] — a fingerprint of the kernel source
//! text, the full [`PennyConfig`], and the [`GpuConfig`] — and
//! persists it via [`penny_sim::persist`]'s versioned binary format at
//! `<dir>/<key:016x>.bin`.
//!
//! Invalidation is entirely content-driven: any change to the kernel
//! text or either config produces a different key (a different file),
//! and a format bump or fingerprint mismatch in an existing file is
//! treated as a miss and overwritten. Stale files are never trusted —
//! the deserializer cross-checks the body against the live `Protected`
//! and `GpuConfig` before the recording is used.
//!
//! The store is process-global (like the compile cache in
//! [`crate::cache`]) and its hit/miss counters surface through one
//! `cache`-kind observability span (subject `recording-store`), which
//! `scripts/verify.sh` greps to prove a warm campaign skipped the
//! record phase. Each store-backed load or record is also timed as its
//! own `cache`-kind span (subject: the workload abbreviation; label
//! `load` or `record`; counter `bytes`) on the harness recorder
//! ([`crate::obs::recorder`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use penny_core::{PennyConfig, Protected};
use penny_obs::{Recorder, SpanKind, SpanTimer};
use penny_sim::snapshot::Recording;
use penny_sim::{GlobalMemory, GpuConfig, LaunchConfig, SimError};
use penny_workloads::Workload;

fn store_dir() -> &'static RwLock<Option<PathBuf>> {
    static DIR: OnceLock<RwLock<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| RwLock::new(None))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STALE: AtomicU64 = AtomicU64::new(0);

/// Counter snapshot of the recording store's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecStoreStats {
    /// Recordings deserialized from the store.
    pub hits: u64,
    /// Recordings that had to be recorded (no usable file; includes
    /// the no-store-configured case, where nothing is persisted).
    pub misses: u64,
    /// Files present but rejected (format version, fingerprint, or
    /// config mismatch) — counted in addition to the resulting miss.
    pub stale: u64,
}

/// Current counter values (cumulative for the process).
pub fn stats() -> RecStoreStats {
    RecStoreStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stale: STALE.load(Ordering::Relaxed),
    }
}

/// Enables the persistent store at `dir` (created if absent) for all
/// subsequent conformance preparations in this process.
///
/// # Errors
///
/// Propagates the `create_dir_all` failure; the store stays disabled.
pub fn set_recording_store(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    *store_dir().write().unwrap() = Some(dir.to_path_buf());
    Ok(())
}

/// Disables the persistent store (recordings are traced in-process
/// again). Counters are not reset.
pub fn clear_recording_store() {
    *store_dir().write().unwrap() = None;
}

/// The store path for a fingerprint key.
fn key_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.bin"))
}

/// Traces the fault-free recording for a prepared (workload, scheme)
/// pair, going through the persistent store when one is configured:
/// a valid stored file short-circuits the trace entirely; otherwise
/// the freshly traced recording is persisted (atomically, via a
/// temp-file rename) for the next process. With a store configured,
/// the load (read + deserialize) or the record (fault-free trace +
/// serialize + publish) is timed as one `cache`-kind span.
///
/// # Errors
///
/// Fails like [`Recording::record`]. Store I/O failures are never
/// fatal: an unreadable or stale file falls back to recording, and a
/// failed write leaves the store unchanged.
pub(crate) fn load_or_record(
    workload: &Workload,
    config: &PennyConfig,
    gpu_config: &GpuConfig,
    protected: &Protected,
    launch: &LaunchConfig,
    seed: &GlobalMemory,
) -> Result<Recording, SimError> {
    let dir = store_dir().read().unwrap().clone();
    let Some(dir) = dir else {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return Recording::record(gpu_config, protected, launch, seed);
    };
    let key = penny_cache::recording_key(&workload.source_text(), config, gpu_config);
    let path = key_path(&dir, key);
    let rec = crate::obs::recorder();
    let span = |label: &str, timer: SpanTimer, bytes: usize| {
        penny_obs::record(
            rec.as_ref(),
            SpanKind::Cache,
            workload.abbr,
            label,
            timer.elapsed_ns(),
            &[("bytes", bytes as u64)],
        );
    };
    let timer = SpanTimer::start(rec.as_ref());
    if let Ok(bytes) = std::fs::read(&path) {
        match Recording::deserialize(&bytes, key, gpu_config, protected) {
            Ok(recording) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                span("load", timer, bytes.len());
                return Ok(recording);
            }
            Err(_) => {
                STALE.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let timer = SpanTimer::start(rec.as_ref());
    let recording = Recording::record(gpu_config, protected, launch, seed)?;
    // Atomic publish: a concurrent shard reading `path` sees either
    // nothing or a complete file, never a torn write. Failures are
    // deliberately ignored — the store is an accelerator, not a
    // correctness dependency.
    let tmp = dir.join(format!("{key:016x}.tmp.{}", std::process::id()));
    let bytes = recording.serialize(key);
    if std::fs::write(&tmp, &bytes).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    span("record", timer, bytes.len());
    Ok(recording)
}

/// Emits the store's counters as one `cache`-kind span (subject
/// `recording-store`); no-op when `rec` is disabled.
pub fn record_store_span(rec: &dyn Recorder) {
    let s = stats();
    penny_obs::record(
        rec,
        SpanKind::Cache,
        "recording-store",
        "stats",
        0,
        &[("hits", s.hits), ("misses", s.misses), ("stale", s.stale)],
    );
}
