//! Observability neutrality: every figure, baseline run, and conformance
//! verdict must be byte-identical whether the recorder is enabled or
//! disabled — the instrumentation may measure the system but never
//! steer it.
//!
//! Tests that install the process-global sink ([`penny_bench::obs`])
//! serialize on [`SINK_LOCK`]; the cargo test harness runs tests of
//! this file in parallel threads of one process, and the sink is
//! process-wide.

use std::sync::{Arc, Mutex};

use penny_bench::{conformance, figures, obs, report, SchemeId};
use penny_obs::{MemRecorder, SpanKind, NULL};
use penny_sim::{engine, GlobalMemory, GpuConfig};

/// Serializes tests that touch the process-global recorder sink.
static SINK_LOCK: Mutex<()> = Mutex::new(());

/// Guard that installs a `MemRecorder` as the global sink and always
/// uninstalls it, even on panic, so one failing test can't poison the
/// neutrality of the others.
struct SinkGuard {
    rec: Arc<MemRecorder>,
}

impl SinkGuard {
    fn install() -> SinkGuard {
        let rec = Arc::new(MemRecorder::new());
        obs::set_recorder(rec.clone());
        SinkGuard { rec }
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        obs::clear_recorder();
    }
}

fn compile_workload(
    abbr: &str,
    scheme: SchemeId,
    rec: &dyn penny_obs::Recorder,
) -> penny_core::Protected {
    let w = penny_workloads::by_abbr(abbr).expect("workload");
    let kernel = w.kernel().expect("parse");
    let cfg = scheme.config().with_launch(w.dims).with_machine(GpuConfig::fermi().machine);
    penny_core::compile_observed(&kernel, &cfg, rec).expect("compile")
}

#[test]
fn compilation_is_identical_with_recorder_on_and_off() {
    for scheme in [SchemeId::Baseline, SchemeId::IGpu, SchemeId::BoltAuto, SchemeId::Penny]
    {
        for abbr in ["MT", "BFS", "SGEMM"] {
            let rec = MemRecorder::new();
            let observed = compile_workload(abbr, scheme, &rec);
            let silent = compile_workload(abbr, scheme, &NULL);
            assert_eq!(
                observed, silent,
                "{abbr} under {scheme:?}: Protected differs with recorder on"
            );
            // The unprotected Baseline path runs no compiler passes and
            // legitimately emits no spans.
            if scheme != SchemeId::Baseline {
                assert!(
                    !rec.is_empty(),
                    "{abbr} under {scheme:?}: enabled recorder saw no pass spans"
                );
            }
        }
    }
}

#[test]
fn simulation_is_identical_with_recorder_on_and_off() {
    for scheme in [SchemeId::Baseline, SchemeId::Penny] {
        for abbr in ["MT", "NW"] {
            let w = penny_workloads::by_abbr(abbr).expect("workload");
            let protected = compile_workload(abbr, scheme, &NULL);
            let gpu_config = GpuConfig::fermi().with_rf(scheme.rf());

            let rec = MemRecorder::new();
            let mut g1 = GlobalMemory::new();
            let l1 = w.prepare(&mut g1);
            let observed =
                engine::run_observed(&gpu_config, &protected, &l1, &mut g1, &rec)
                    .expect("observed run");

            let mut g2 = GlobalMemory::new();
            let l2 = w.prepare(&mut g2);
            let silent = engine::run(&gpu_config, &protected, &l2, &mut g2).expect("run");

            assert_eq!(observed, silent, "{abbr} under {scheme:?}: RunStats differ");
            assert_eq!(
                g1.nonzero_words(),
                g2.nonzero_words(),
                "{abbr} under {scheme:?}: final memory differs with recorder on"
            );
            let sim_spans: Vec<_> =
                rec.take().into_iter().filter(|s| s.kind == SpanKind::Sim).collect();
            assert_eq!(sim_spans.len(), 1, "{abbr}: exactly one sim span per launch");
            assert_eq!(sim_spans[0].counter("cycles"), Some(silent.cycles));
        }
    }
}

#[test]
fn decoded_reference_equivalence_holds_with_spans_on() {
    let w = penny_workloads::by_abbr("MT").expect("MT");
    let protected = compile_workload("MT", SchemeId::Penny, &NULL);
    let gpu_config = GpuConfig::fermi().with_rf(SchemeId::Penny.rf());

    let rec = MemRecorder::new();
    let mut g1 = GlobalMemory::new();
    let l1 = w.prepare(&mut g1);
    let decoded = engine::run_observed(&gpu_config, &protected, &l1, &mut g1, &rec)
        .expect("decoded run");
    assert!(!rec.is_empty());

    let mut g2 = GlobalMemory::new();
    let l2 = w.prepare(&mut g2);
    let reference = engine::run_decode_reference(&gpu_config, &protected, &l2, &mut g2)
        .expect("reference run");

    assert_eq!(decoded, reference, "decoded vs reference RunStats diverge");
    assert_eq!(g1.nonzero_words(), g2.nonzero_words(), "final memory diverges");
}

#[test]
fn fig9_and_baselines_are_identical_with_global_sink_on_and_off() {
    let _guard = SINK_LOCK.lock().unwrap();
    obs::clear_recorder();
    let silent = report::render_figure(&figures::fig9());
    let base_off = penny_bench::cache::baseline(
        &penny_workloads::by_abbr("MT").expect("MT"),
        &GpuConfig::fermi(),
    );

    let sink = SinkGuard::install();
    let observed = report::render_figure(&figures::fig9());
    let base_on = penny_bench::cache::baseline(
        &penny_workloads::by_abbr("MT").expect("MT"),
        &GpuConfig::fermi(),
    );
    drop(sink);

    assert_eq!(silent, observed, "fig9 rendering differs with the sink installed");
    assert_eq!(base_off.run, base_on.run, "MT baseline run differs");
}

#[test]
fn conformance_verdicts_are_identical_with_global_sink_on_and_off() {
    let _guard = SINK_LOCK.lock().unwrap();
    obs::clear_recorder();
    let silent = conformance::run_conformance("MT", SchemeId::Penny, 48);

    let sink = SinkGuard::install();
    let observed = conformance::run_conformance("MT", SchemeId::Penny, 48);
    let site_spans = sink.rec.take();
    drop(sink);

    assert_eq!(silent.total, observed.total);
    assert_eq!(silent.covered, observed.covered);
    assert_eq!(silent.recovered, observed.recovered);
    assert_eq!(silent.failures.len(), observed.failures.len());
    assert_eq!(
        conformance::render_report(&silent),
        conformance::render_report(&observed),
        "conformance report differs with the sink installed"
    );
    // One site span per forked replay group (analytic sites are answered
    // from the recording without spans), plus one campaign summary span.
    let sites = site_spans.iter().filter(|s| s.kind == SpanKind::Site).count() as u64;
    assert_eq!(
        sites, observed.work.forks,
        "expected one site span per forked replay group"
    );
    let campaigns =
        site_spans.iter().filter(|s| s.kind == SpanKind::Campaign).collect::<Vec<_>>();
    assert_eq!(campaigns.len(), 1, "expected exactly one campaign span");
    assert_eq!(campaigns[0].counter("sites"), Some(observed.covered));
    assert_eq!(campaigns[0].counter("forks"), Some(observed.work.forks));
}
