//! The figure batch runner (`penny_bench::runner::run_batch`) simulates
//! each distinct launch of a figure once. This suite checks, for every
//! job of every overhead figure and the ablation, that the shared run is
//! exactly the job's own run and that each job keeps its own compile
//! statistics.

use std::collections::HashMap;
use std::sync::Arc;

use penny_bench::figures::{
    fig10_plan, fig11_plan, fig13_plan, fig15_plan, fig9_plan, Plan,
};
use penny_bench::runner::run_batch;
use penny_coding::Scheme;
use penny_core::{PennyConfig, PruningMode};
use penny_obs::{MemRecorder, SpanKind};
use penny_sim::{engine, GlobalMemory, GpuConfig, RfProtection};

/// Two configurations that lower SGEMM to the same artifact but report
/// different pruning statistics: no pruning, and basic pruning with one
/// trial (which prunes nothing here but counts what it considered).
fn shared_launch_plan() -> Plan {
    let gpu = GpuConfig::fermi().with_rf(RfProtection::Edc(Scheme::Parity));
    let penny = PennyConfig::penny();
    let series = vec![
        ("No_pruning", PennyConfig { pruning: PruningMode::None, ..penny.clone() }),
        (
            "Basic_pruning, one trial",
            PennyConfig {
                pruning: PruningMode::Basic { seed: 0xB017, trials: 1 },
                ..penny
            },
        ),
    ];
    Plan {
        title: "one SGEMM launch, two compile statistics",
        workloads: vec![penny_workloads::by_abbr("SGEMM").expect("SGEMM")],
        series: series.into_iter().map(|(name, cfg)| (name, cfg, gpu.clone())).collect(),
        gpu,
    }
}

/// For each plan: the batch's `RunStats` of every job equals a fresh
/// `engine::run` of that job's own artifact, its `CompileStats` are the
/// artifact's own, and the batch launches the engine once per distinct
/// (workload, launch key).
#[test]
fn batched_runs_equal_each_jobs_own_run() {
    let plans = [
        (fig9_plan(), 72),
        (fig10_plan(), 57),
        (fig11_plan(), 44),
        (fig13_plan(), 45),
        (fig15_plan(), 55),
        (penny_bench::ablation::ablation_plan(), 49),
        (shared_launch_plan(), 1),
    ];
    let mut shared_with_other_stats = 0;
    for (plan, distinct) in &plans {
        let jobs = plan.jobs();
        let rec = Arc::new(MemRecorder::new());
        penny_bench::obs::set_recorder(rec.clone());
        let batch = run_batch(&jobs);
        penny_bench::obs::clear_recorder();
        let launches = rec.take().iter().filter(|s| s.kind == SpanKind::Sim).count();
        assert_eq!(batch.len(), jobs.len());

        let mut first_stats = HashMap::new();
        for (job, m) in jobs.iter().zip(&batch) {
            let w = job.workload;
            let own = penny_bench::cache::compiled(w, &job.compile_config());
            let mut global = GlobalMemory::new();
            let launch = w.prepare(&mut global);
            let run = engine::run(job.gpu, &own, &launch, &mut global).expect("run");
            let what = format!("{}: {} under {:?}", plan.title, w.abbr, job.config);
            assert_eq!(m.run, run, "{what}: batched run differs from its own run");
            assert_eq!(m.compile, own.stats, "{what}: compile stats are not its own");

            let key = penny_cache::launch_key(penny_cache::launch_digest(&own), job.gpu);
            let first = *first_stats.entry((w.abbr, key)).or_insert(own.stats);
            shared_with_other_stats += usize::from(first != own.stats);
        }
        assert_eq!(
            launches,
            first_stats.len(),
            "{}: one launch per distinct key",
            plan.title
        );
        assert_eq!(launches, *distinct, "{}: distinct launches", plan.title);
    }
    // Jobs that share a launch but not compile statistics exist (the
    // figures have none; the last plan has one), so a runner that handed
    // one job's statistics to its whole group fails.
    assert!(shared_with_other_stats > 0);
}
