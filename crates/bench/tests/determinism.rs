//! Determinism proofs for the fast paths added to the harness:
//!
//! 1. the parallel figure harness assembles results bit-identically for
//!    any `--jobs` value (the simulator is deterministic, `parallel_map`
//!    reorders nothing, and the batch runner shares a launch only
//!    between jobs with equal launch keys);
//! 2. the event-driven engine (idle-cycle skipping) reports exactly the
//!    same cycle counts as the dense cycle-by-cycle reference loop,
//!    while actually skipping work on memory-bound workloads;
//! 3. the pre-decoded micro-op interpreter with the fault-aware
//!    register-file fast path produces bit-identical stats (including
//!    every `RfStats` counter) and memory traffic as the IR-walking
//!    `decode_reference` interpreter that decodes every read.

use penny_core::PennyConfig;
use penny_sim::{engine, FaultPlan, GlobalMemory, GpuConfig, RfProtection, RunStats};

fn stats_pair(abbr: &str, config: &PennyConfig, gpu: &GpuConfig) -> (RunStats, RunStats) {
    let w = penny_workloads::by_abbr(abbr).expect("workload");
    let cfg = config.clone().with_launch(w.dims).with_machine(gpu.machine);
    let protected = penny_bench::cache::compiled(&w, &cfg);
    let run = |dense: bool| {
        let mut global = GlobalMemory::new();
        let launch = w.prepare(&mut global);
        if dense {
            engine::run_reference(gpu, &protected, &launch, &mut global).expect("dense")
        } else {
            engine::run(gpu, &protected, &launch, &mut global).expect("event")
        }
    };
    (run(false), run(true))
}

/// The overhead figures and the ablation must come out bit-identical no
/// matter how many worker threads computed them. (Scheme runs are
/// re-simulated on every call, each distinct launch once per call; only
/// compilations, their launch digests and baselines are cached, and
/// those memoize deterministic values.)
#[test]
fn overhead_figures_are_bit_identical_across_jobs() {
    use penny_bench::figures::{fig10, fig11, fig13, fig15, fig9};
    for (name, figure) in [
        ("fig9", fig9 as fn() -> penny_bench::Figure),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig13", fig13),
        ("fig15", fig15),
    ] {
        penny_bench::set_jobs(1);
        let seq = figure();
        penny_bench::set_jobs(8);
        let par = figure();
        penny_bench::set_jobs(1);

        assert_eq!(seq.workloads, par.workloads, "{name}");
        assert_eq!(seq.series.len(), par.series.len(), "{name}");
        for (a, b) in seq.series.iter().zip(&par.series) {
            assert_eq!(a.name, b.name);
            // Exact f64 equality is the point: same cycles, same ratios,
            // same order of gmean accumulation.
            assert_eq!(
                a.values, b.values,
                "{name}: series {} differs across --jobs",
                a.name
            );
            assert_eq!(a.gmean.to_bits(), b.gmean.to_bits(), "{name}: {}", a.name);
        }
    }
    penny_bench::set_jobs(1);
    let seq = penny_bench::ablation();
    penny_bench::set_jobs(8);
    let par = penny_bench::ablation();
    penny_bench::set_jobs(1);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.label, b.label);
        let bits = |r: &penny_bench::AblationRow| {
            [
                r.gmean_overhead.to_bits(),
                r.mean_regions.to_bits(),
                r.mean_committed.to_bits(),
            ]
        };
        assert_eq!(bits(a), bits(b), "ablation: {} differs across --jobs", a.label);
    }
}

/// The event-driven fast path must change no measured cycle count
/// relative to the dense reference, across compute-bound, memory-bound
/// and instrumented (Penny) configurations.
#[test]
fn event_engine_matches_dense_reference() {
    let fermi = GpuConfig::fermi().with_rf(RfProtection::None);
    for abbr in ["MT", "SPMV", "SGEMM", "BFS"] {
        let (event, dense) = stats_pair(abbr, &PennyConfig::unprotected(), &fermi);
        assert_eq!(event.cycles, dense.cycles, "{abbr}: cycle counts diverge");
        assert_eq!(dense.skipped_cycles, 0, "{abbr}: dense loop must not skip");
        // Every other counter must agree too — same instructions, same
        // memory traffic, same RF activity.
        let normalized = RunStats { skipped_cycles: 0, ..event };
        assert_eq!(normalized, dense, "{abbr}: stats diverge");
    }
    // And under the full Penny instrumentation with parity EDC.
    let parity = GpuConfig::fermi();
    let (event, dense) = stats_pair("MT", &PennyConfig::penny(), &parity);
    assert_eq!(event.cycles, dense.cycles, "penny/MT: cycle counts diverge");
}

/// Runs a workload through the decoded fast path and the
/// `decode_reference` interpreter under the same (possibly faulty)
/// launch, returning both stat records and both final memories.
fn decoded_pair(
    abbr: &str,
    config: &PennyConfig,
    gpu: &GpuConfig,
    faults: Option<FaultPlan>,
) -> ((RunStats, GlobalMemory), (RunStats, GlobalMemory)) {
    let w = penny_workloads::by_abbr(abbr).expect("workload");
    let cfg = config.clone().with_launch(w.dims).with_machine(gpu.machine);
    let protected = penny_bench::cache::compiled(&w, &cfg);
    let run = |reference: bool| {
        let mut global = GlobalMemory::new();
        let mut launch = w.prepare(&mut global);
        if let Some(plan) = &faults {
            launch = launch.with_faults(plan.clone());
        }
        let stats = if reference {
            engine::run_decode_reference(gpu, &protected, &launch, &mut global)
                .expect("decode_reference")
        } else {
            engine::run(gpu, &protected, &launch, &mut global).expect("decoded")
        };
        (stats, global)
    };
    (run(false), run(true))
}

/// The pre-decoded interpreter and RF fast path must be bit-identical
/// to the always-decode IR interpreter: same cycles, same instruction
/// counts, same `RfStats` (reads, detections, corrections), and the
/// same memory contents and access counts.
#[test]
fn decoded_engine_matches_decode_reference() {
    let fermi = GpuConfig::fermi().with_rf(RfProtection::None);
    for abbr in ["MT", "SPMV", "SGEMM", "BFS"] {
        let ((fast, fast_mem), (reference, ref_mem)) =
            decoded_pair(abbr, &PennyConfig::unprotected(), &fermi, None);
        assert_eq!(fast, reference, "{abbr}: stats diverge");
        assert_eq!(fast_mem, ref_mem, "{abbr}: memory traffic diverges");
    }
    // Under full Penny instrumentation with parity EDC (codec active on
    // every write, clean reads eligible for the fast path).
    for abbr in ["MT", "SPMV", "SGEMM", "BFS"] {
        let ((fast, fast_mem), (reference, ref_mem)) =
            decoded_pair(abbr, &PennyConfig::penny(), &GpuConfig::fermi(), None);
        assert_eq!(fast, reference, "penny/{abbr}: stats diverge");
        assert_eq!(fast_mem, ref_mem, "penny/{abbr}: memory traffic diverges");
    }
}

/// Same pin under a fault-injection campaign: injected flips mark
/// registers dirty, detections must fire at exactly the same read on
/// both paths, and recovery must leave identical state behind.
#[test]
fn decoded_engine_matches_decode_reference_under_faults() {
    let w = penny_workloads::by_abbr("MT").expect("workload");
    let warps = w.dims.threads_per_block().div_ceil(32);
    let cfg = PennyConfig::penny().with_launch(w.dims);
    let protected = penny_bench::cache::compiled(&w, &cfg);
    let regs = protected.kernel.vreg_limit();
    let mut total_detected = 0u64;
    let mut total_recoveries = 0u64;
    for seed in 0..6u64 {
        let plan = FaultPlan::random(seed, 3, w.dims.blocks(), warps, 32, regs, 33, 60);
        let ((fast, fast_mem), (reference, ref_mem)) =
            decoded_pair("MT", &PennyConfig::penny(), &GpuConfig::fermi(), Some(plan));
        assert_eq!(fast, reference, "seed {seed}: stats diverge under faults");
        assert_eq!(fast_mem, ref_mem, "seed {seed}: memory diverges under faults");
        total_detected += fast.rf.detected;
        total_recoveries += fast.recoveries;
    }
    // The campaign must actually exercise detection + recovery, or the
    // equivalence proves nothing about the fault path.
    assert!(total_detected > 0, "campaign never hit a live register");
    assert!(total_recoveries > 0, "campaign never triggered recovery");
}

/// On a memory-bound workload the fast path must actually skip idle
/// cycles (that is the optimization) without altering the total.
#[test]
fn memory_bound_workload_skips_idle_cycles() {
    let fermi = GpuConfig::fermi().with_rf(RfProtection::None);
    let (event, dense) = stats_pair("SPMV", &PennyConfig::unprotected(), &fermi);
    assert!(
        event.skipped_cycles > 0,
        "SPMV is memory-bound; the event engine should skip idle cycles"
    );
    assert_eq!(event.cycles, dense.cycles);
}
