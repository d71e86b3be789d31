//! Resume determinism on *generated* kernels: a [`Recording`] must
//! answer any same-cell flip plan bit-identically to a from-scratch
//! run, for arbitrary members of the generator families — not just the
//! hand-written rigs in `snapshot_replay.rs`.

use proptest::prelude::*;
use proptest::test_runner::Reject;

use penny_coding::Scheme;
use penny_core::{PennyConfig, Protected};
use penny_sim::gen::{splitmix64, try_compile, KernelSpec};
use penny_sim::{
    FaultPlan, GlobalMemory, Gpu, GpuConfig, Injection, LaunchConfig, Recording,
    RfProtection, RunStats, SimError,
};

fn gpu_config() -> GpuConfig {
    GpuConfig::fermi().with_rf(RfProtection::Edc(Scheme::Parity))
}

/// From-scratch run of `plan` on a fresh GPU seeded with the spec's
/// input image.
fn cold(
    protected: &Protected,
    spec: &KernelSpec,
    plan: FaultPlan,
) -> Result<(RunStats, GlobalMemory), SimError> {
    let image = spec.image();
    let mut gpu = Gpu::new(gpu_config());
    image.apply(gpu.global_mut());
    let launch = LaunchConfig::new(spec.dims(), image.params.clone()).with_faults(plan);
    let stats = gpu.run(protected, &launch)?;
    Ok((stats, gpu.global().fork()))
}

/// A small deterministic sample of one- to three-bit same-cell flip
/// plans spread over the fault space.
fn plans(seed: u64, regs: u32, count: usize) -> Vec<FaultPlan> {
    let mut s = seed;
    let mut draw = || {
        s = splitmix64(s);
        s
    };
    (0..count)
        .map(|_| {
            let site = Injection {
                block: (draw() % 3) as u32,
                warp: (draw() % 2) as u32,
                lane: (draw() % 32) as u32,
                reg: (draw() % u64::from(regs.max(1))) as u32,
                bit: (draw() % 33) as u32,
                after_warp_insts: 1 + draw() % 120,
            };
            let flips = 1 + (draw() % 3) as u32;
            FaultPlan {
                injections: (0..flips)
                    .map(|k| Injection { bit: (site.bit + 11 * k) % 33, ..site })
                    .collect(),
            }
        })
        .collect()
}

fn compile_penny(spec: &KernelSpec) -> Option<Protected> {
    let k = spec.build();
    try_compile(&k, PennyConfig::penny().with_launch(spec.dims()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every recorded plan answer — stats, memory, counters, errors —
    /// is bit-identical to a from-scratch run of the same plan.
    #[test]
    fn recorded_sites_match_cold_runs_on_generated_kernels(
        ops in proptest::collection::vec(0u8..8, 1..9),
        topo_seed: u64,
        nnz in 1u8..7,
        site_seed: u64,
    ) {
        let spec = KernelSpec::sparse(ops, topo_seed, nnz);
        let protected = match compile_penny(&spec) {
            Some(p) => p,
            None => return Err(Reject), // honest scheme skip
        };
        let image = spec.image();
        let mut seeded = GlobalMemory::new();
        image.apply(&mut seeded);
        let launch = LaunchConfig::new(spec.dims(), image.params.clone());
        let cfg = gpu_config();
        let rec = Recording::record(&cfg, &protected, &launch, &seeded).expect("record");

        // The recording itself is a faithful fault-free run.
        let (plain_stats, plain_global) =
            cold(&protected, &spec, FaultPlan::none()).expect("plain");
        prop_assert_eq!(rec.stats(), &plain_stats);
        prop_assert_eq!(rec.global(), &plain_global);

        let regs = protected.kernel.vreg_limit();
        for plan in plans(site_seed, regs, 6) {
            let forked = rec.run_plan(&cfg, &protected, &plan);
            let scratch = cold(&protected, &spec, plan.clone());
            match (forked, scratch) {
                (Ok(site), Ok((cs, cg))) => {
                    prop_assert_eq!(&site.stats, &cs, "stats diverge at {:?}", plan);
                    prop_assert_eq!(&site.global, &cg, "memory diverges at {:?}", plan);
                }
                (Err(fe), Err(ce)) => prop_assert_eq!(fe, ce, "errors diverge at {:?}", plan),
                (f, c) => panic!(
                    "outcome shape diverges at {plan:?}: forked={f:?} cold_ok={}",
                    c.is_ok()
                ),
            }
        }
    }
}
