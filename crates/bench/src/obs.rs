//! Process-global recorder sink for the harness.
//!
//! The figure and conformance machinery sits behind caches and
//! `parallel_map` workers, so a recorder can't be threaded through every
//! call signature without disturbing the public API the binaries, the
//! benchmark and the tests share. Instead the harness consults one
//! process-global sink: [`recorder`] returns the installed recorder, or
//! a shared [`NullRecorder`] when none is installed — so every
//! instrumentation site stays on the zero-cost disabled path by
//! default.
//!
//! Tests that install a recorder must serialize on a lock of their own
//! (see `tests/obs_neutrality.rs`): the sink is process-wide and the
//! test harness runs in parallel.

use std::sync::{Arc, OnceLock, RwLock};

use penny_obs::{NullRecorder, Recorder};

/// The sink's shareable recorder type.
pub type SharedRecorder = Arc<dyn Recorder + Send + Sync>;

fn sink() -> &'static RwLock<Option<SharedRecorder>> {
    static SINK: OnceLock<RwLock<Option<SharedRecorder>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(None))
}

fn null() -> SharedRecorder {
    static NULL: OnceLock<SharedRecorder> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(NullRecorder)))
}

/// Installs `rec` as the process-global span sink.
pub fn set_recorder(rec: SharedRecorder) {
    *sink().write().unwrap() = Some(rec);
}

/// Uninstalls the global sink; the harness reverts to the null recorder.
pub fn clear_recorder() {
    *sink().write().unwrap() = None;
}

/// The current global recorder (the shared [`NullRecorder`] when none
/// is installed).
pub fn recorder() -> SharedRecorder {
    sink().read().unwrap().clone().unwrap_or_else(null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_obs::MemRecorder;
    use std::sync::Mutex;

    /// Serializes every test that touches the process-global sink.
    pub static SINK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn sink_defaults_to_disabled_and_round_trips() {
        let _guard = SINK_LOCK.lock().unwrap();
        clear_recorder();
        assert!(!recorder().enabled());
        let mem = Arc::new(MemRecorder::new());
        set_recorder(mem.clone());
        assert!(recorder().enabled());
        recorder().record(penny_obs::Span {
            kind: penny_obs::SpanKind::Site,
            subject: "t".into(),
            label: "l".into(),
            wall_ns: 0,
            counters: Vec::new(),
        });
        assert_eq!(mem.len(), 1);
        clear_recorder();
        assert!(!recorder().enabled());
    }
}
