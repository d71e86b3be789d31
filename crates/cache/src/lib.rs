#![warn(missing_docs)]
//! Content-addressed, concurrency-safe compile caching.
//!
//! The evaluation harness compiles the same 25 kernels under a handful
//! of configurations from figures, benches, the conformance harness,
//! and `penny-prof` — often from several `parallel_map` workers at
//! once. This crate provides the shared service layer:
//!
//! * **content-addressed keys** ([`compile_key`], [`Fingerprint`]):
//!   a stable 64-bit digest of the kernel source text plus a canonical
//!   field-wise [`PennyConfig`](penny_core::PennyConfig) /
//!   [`GpuConfig`](penny_sim::GpuConfig) fingerprint — no
//!   `Debug`-string keys, no per-process hash randomization;
//! * **per-key in-flight dedup** ([`ContentCache`]): two racing misses
//!   on one key compute once; the loser blocks on a condvar and shares
//!   the winner's `Arc`. Duplicate compiles — and the duplicate
//!   pass-span streams they used to emit — cannot happen;
//! * **bounded LRU eviction**: the cache holds at most `capacity`
//!   ready entries, evicting the least-recently-used;
//! * **counters** ([`CacheStats`]): hits, misses, evictions, and
//!   in-flight waits, surfaced as `penny-obs` `cache` spans via
//!   [`record_cache_span`] so `penny-prof` reports cache
//!   effectiveness.
//!
//! [`fingerprint_protected`] digests a compiled artifact; the golden
//! determinism suite uses it as a compact byte-identity witness.

mod fingerprint;
mod fnv;

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

pub use fingerprint::{
    compile_key, digest, fingerprint_protected, recording_key, Fingerprint,
};
pub use fnv::Fnv64;

use penny_obs::Recorder;

/// Default bound on ready entries — far above the harness's working set
/// (25 workloads × a dozen configurations) so eviction only engages for
/// adversarial or generative workloads.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Counter snapshot of one [`ContentCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
    /// Ready entries evicted by the capacity bound.
    pub evictions: u64,
    /// Lookups that blocked on another thread's in-flight compute of
    /// the same key (the dedup path).
    pub inflight_waits: u64,
}

enum Slot<V> {
    Ready { value: Arc<V>, last_used: u64 },
    InFlight,
}

struct Inner<V> {
    map: HashMap<u64, Slot<V>>,
    /// Monotone LRU clock, bumped on every touch.
    tick: u64,
    stats: CacheStats,
}

/// A bounded, content-addressed memo table with per-key in-flight
/// dedup.
///
/// Keys are caller-provided 64-bit content digests (see
/// [`compile_key`]). `get_or_compute` runs the compute closure outside
/// the lock, so unrelated keys never serialize; concurrent lookups of
/// the *same* key block until the first computes and then share its
/// `Arc` — the closure runs at most once per key while the entry lives.
pub struct ContentCache<V> {
    inner: Mutex<Inner<V>>,
    ready: Condvar,
    capacity: usize,
}

/// Removes a panicked compute's in-flight marker so waiters retry
/// instead of deadlocking.
struct InFlightGuard<'a, V> {
    cache: &'a ContentCache<V>,
    key: u64,
    armed: bool,
}

impl<V> Drop for InFlightGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock().unwrap();
            if matches!(inner.map.get(&self.key), Some(Slot::InFlight)) {
                inner.map.remove(&self.key);
            }
            self.cache.ready.notify_all();
        }
    }
}

impl<V> ContentCache<V> {
    /// An empty cache bounded to `capacity` ready entries (min 1).
    pub fn new(capacity: usize) -> ContentCache<V> {
        ContentCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// An empty cache with [`DEFAULT_CAPACITY`].
    pub fn with_default_capacity() -> ContentCache<V> {
        ContentCache::new(DEFAULT_CAPACITY)
    }

    /// The value for `key`, computing it with `compute` on a miss.
    ///
    /// Exactly one thread computes a missing key; racing lookups block
    /// and share the result (counted as `inflight_waits`, not hits).
    /// If the computing thread panics, the panic propagates there and
    /// one waiter takes over the compute.
    pub fn get_or_compute(&self, key: u64, compute: impl FnOnce() -> V) -> Arc<V> {
        enum Lookup<V> {
            Hit(Arc<V>),
            Wait,
            Miss,
        }
        let mut inner = self.inner.lock().unwrap();
        let mut waited = false;
        loop {
            let found = {
                let state = &mut *inner;
                match state.map.get_mut(&key) {
                    Some(Slot::Ready { value, last_used }) => {
                        state.tick += 1;
                        *last_used = state.tick;
                        Lookup::Hit(Arc::clone(value))
                    }
                    Some(Slot::InFlight) => Lookup::Wait,
                    None => Lookup::Miss,
                }
            };
            match found {
                Lookup::Hit(value) => {
                    if !waited {
                        inner.stats.hits += 1;
                    }
                    return value;
                }
                Lookup::Wait => {
                    if !waited {
                        waited = true;
                        inner.stats.inflight_waits += 1;
                    }
                    inner = self.ready.wait(inner).unwrap();
                }
                Lookup::Miss => break,
            }
        }
        inner.stats.misses += 1;
        inner.map.insert(key, Slot::InFlight);
        drop(inner);

        let mut guard = InFlightGuard { cache: self, key, armed: true };
        let value = Arc::new(compute());
        guard.armed = false;

        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let last_used = inner.tick;
        inner.map.insert(key, Slot::Ready { value: Arc::clone(&value), last_used });
        while inner.map.len() > self.capacity {
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((k, *last_used)),
                    Slot::InFlight => None,
                })
                .min_by_key(|&(_, used)| used)
            else {
                break; // nothing evictable: everything else is in flight
            };
            inner.map.remove(&victim);
            inner.stats.evictions += 1;
        }
        drop(inner);
        self.ready.notify_all();
        value
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap().stats
    }

    /// Number of ready entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.map.values().filter(|s| matches!(s, Slot::Ready { .. })).count()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Emits one `cache`-kind span carrying a cache's counters plus its
/// current entry count (no-op when `rec` is disabled).
pub fn record_cache_span(
    rec: &dyn Recorder,
    subject: &str,
    stats: CacheStats,
    entries: usize,
) {
    penny_obs::record(
        rec,
        penny_obs::SpanKind::Cache,
        subject,
        "stats",
        0,
        &[
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("evictions", stats.evictions),
            ("inflight_waits", stats.inflight_waits),
            ("entries", entries as u64),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn hit_miss_and_sharing() {
        let cache: ContentCache<u64> = ContentCache::new(8);
        let a = cache.get_or_compute(1, || 10);
        let b = cache.get_or_compute(1, || panic!("must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, 10);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn racing_misses_compute_once() {
        let cache: ContentCache<u64> = ContentCache::new(8);
        let computes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get_or_compute(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually wait.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42u64
                    })
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "in-flight dedup failed");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.inflight_waits, 7);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: ContentCache<u64> = ContentCache::new(2);
        cache.get_or_compute(1, || 1);
        cache.get_or_compute(2, || 2);
        cache.get_or_compute(1, || panic!("hit")); // 1 is now fresher than 2
        cache.get_or_compute(3, || 3); // evicts 2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        cache.get_or_compute(1, || panic!("1 must have survived"));
        let recomputed = AtomicU64::new(0);
        cache.get_or_compute(2, || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            2
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1, "2 must have been evicted");
    }

    #[test]
    fn panicking_compute_unblocks_waiters() {
        let cache: Arc<ContentCache<u64>> = Arc::new(ContentCache::new(8));
        let panicker = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(5, || -> u64 { panic!("compute failed") })
                }));
            })
        };
        panicker.join().unwrap();
        // The in-flight marker must be gone; a later lookup recomputes.
        let v = cache.get_or_compute(5, || 55);
        assert_eq!(*v, 55);
    }
}
