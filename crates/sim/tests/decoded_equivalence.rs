//! Property-based equivalence proof for the pre-decoded execution path.
//!
//! `engine::run` interprets the flat `DecodedInst` micro-op table with
//! the fault-aware register-file fast path (clean reads skip the codec
//! decode). `engine::run_decode_reference` re-interprets the original
//! `penny_ir` stream and decodes every read. For every generated kernel
//! — divergent diamonds, loops, guarded instructions, shared memory,
//! barriers, and the sparse CSR family's data-dependent loops and
//! indirect stores — and every generated fault plan, both paths must
//! agree on the full [`RunStats`] record (cycles, instruction counts,
//! every `RfStats` counter, recoveries) and on final memory contents.
//!
//! The generator itself lives in [`penny_sim::gen`], shared with the
//! `penny-fuzz` pipeline.

use proptest::prelude::*;

use penny_coding::Scheme;
use penny_core::{compile, LaunchDims, PennyConfig};
use penny_sim::gen::{
    build_kernel, run_pair, splitmix64, try_compile, try_run_pair, KernelSpec, MemImage,
};
use penny_sim::{FaultPlan, GpuConfig, Injection, RegFile, RfProtection};

/// The dense family's fixed input image (see [`KernelSpec::image`]).
fn dense_image() -> MemImage {
    KernelSpec::dense(vec![0], false).image()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free equivalence over generated structured kernels, both
    /// unprotected (no codec) and under full Penny instrumentation with
    /// parity EDC.
    #[test]
    fn decoded_path_matches_reference(
        ops in proptest::collection::vec(0u8..8, 1..14),
        barrier: bool,
    ) {
        let k = build_kernel(&ops, barrier);
        let dims = LaunchDims::linear(2, 64);
        let image = dense_image();
        // The unprotected pipeline skips checkpoint instrumentation and
        // accepts every generated kernel — this leg never skips.
        let baseline = compile(&k, &PennyConfig::unprotected().with_launch(dims))
            .expect("unprotected compile");
        let no_rf = GpuConfig::fermi().with_rf(penny_sim::RfProtection::None);
        let ((fast, fast_mem), (reference, ref_mem)) =
            run_pair(&baseline, dims, &no_rf, &FaultPlan::none(), &image);
        prop_assert_eq!(fast, reference, "stats diverge (unprotected)");
        prop_assert_eq!(fast_mem, ref_mem, "memory diverges (unprotected)");

        // The Penny pipeline may reject generator-shaped kernels.
        if let Some(protected) = try_compile(&k, PennyConfig::penny().with_launch(dims)) {
            let ((fast, fast_mem), (reference, ref_mem)) =
                run_pair(&protected, dims, &GpuConfig::fermi(), &FaultPlan::none(), &image);
            prop_assert_eq!(fast, reference, "stats diverge (penny)");
            prop_assert_eq!(fast_mem, ref_mem, "memory diverges (penny)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Equivalence under fault injection: flips dirty the victim
    /// registers, and detections/recoveries must fire identically on
    /// both interpreters.
    #[test]
    fn decoded_path_matches_reference_under_faults(
        ops in proptest::collection::vec(0u8..8, 1..10),
        fault_seed: u64,
    ) {
        let k = build_kernel(&ops, false);
        let dims = LaunchDims::linear(1, 64);
        let cfg = PennyConfig::penny().with_launch(dims);
        prop_assume!(try_compile(&k, cfg.clone()).is_some());
        let protected = try_compile(&k, cfg).expect("compile");
        let regs = protected.kernel.vreg_limit();
        let plan = FaultPlan::random(fault_seed, 3, 1, 2, 32, regs, 33, 60);
        let ((fast, fast_mem), (reference, ref_mem)) =
            run_pair(&protected, dims, &GpuConfig::fermi(), &plan, &dense_image());
        prop_assert_eq!(fast, reference, "stats diverge under faults");
        prop_assert_eq!(fast_mem, ref_mem, "memory diverges under faults");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sparse CSR family — data-dependent trip counts, indirect
    /// loads, atomic scatters — satisfies the same decoded-vs-reference
    /// contract, fault-free and under injection.
    #[test]
    fn sparse_decoded_path_matches_reference(
        ops in proptest::collection::vec(0u8..8, 1..10),
        topo_seed: u64,
        nnz in 1u8..8,
        fault_seed: u64,
    ) {
        let spec = KernelSpec::sparse(ops, topo_seed, nnz);
        let k = spec.build();
        let dims = spec.dims();
        let image = spec.image();
        let baseline = compile(&k, &PennyConfig::unprotected().with_launch(dims))
            .expect("unprotected compile");
        let no_rf = GpuConfig::fermi().with_rf(penny_sim::RfProtection::None);
        let ((fast, fast_mem), (reference, ref_mem)) =
            run_pair(&baseline, dims, &no_rf, &FaultPlan::none(), &image);
        prop_assert_eq!(fast, reference, "stats diverge (unprotected sparse)");
        prop_assert_eq!(fast_mem, ref_mem, "memory diverges (unprotected sparse)");

        if let Some(protected) = try_compile(&k, PennyConfig::penny().with_launch(dims)) {
            let regs = protected.kernel.vreg_limit();
            let plan = penny_sim::gen::fault_plan(fault_seed, dims, regs, 3);
            let ((fast, fast_mem), (reference, ref_mem)) =
                run_pair(&protected, dims, &GpuConfig::fermi(), &plan, &image);
            prop_assert_eq!(fast, reference, "stats diverge (penny sparse)");
            prop_assert_eq!(fast_mem, ref_mem, "memory diverges (penny sparse)");
        }
    }
}

/// The fault property on the other two register files: iGPU on SECDED
/// ECC, where a read corrects inline and scrubs, and an unprotected RF,
/// where a flip corrupts silently and may derail the run into an error
/// both legs must share. A plain loop rather than `proptest!`, so the
/// ECC leg can be required to correct over the cases as a whole.
#[test]
fn decoded_path_matches_reference_under_faults_on_ecc_and_unprotected_rfs() {
    let dims = LaunchDims::linear(1, 64);
    let image = dense_image();
    let ecc = GpuConfig::fermi().with_rf(RfProtection::Ecc(Scheme::Secded));
    let none = GpuConfig::fermi().with_rf(RfProtection::None).with_cycle_limit(1_000_000);
    let (mut corrected, mut legs) = (0, 0);
    let mut seed = 0x5EED_0EC0u64;
    for case in 0..16 {
        seed = splitmix64(seed);
        let ops: Vec<u8> =
            (0..1 + seed % 9).map(|i| (splitmix64(seed ^ i) % 8) as u8).collect();
        let k = build_kernel(&ops, false);
        for (cfg, gpu) in [(PennyConfig::igpu(), &ecc), (PennyConfig::unprotected(), &none)]
        {
            let Some(protected) = try_compile(&k, cfg.with_launch(dims)) else {
                continue;
            };
            let regs = protected.kernel.vreg_limit();
            let bits = RegFile::new(1, gpu.rf).codeword_bits();
            let plan = FaultPlan::random(seed, 3, 1, 2, 32, regs, bits, 60);
            let ((fast, fast_mem), (reference, ref_mem)) =
                try_run_pair(&protected, dims, gpu, &plan, &image);
            assert_eq!(
                fast, reference,
                "case {case} {ops:?} on {:?}: runs diverge",
                gpu.rf
            );
            assert_eq!(
                fast_mem, ref_mem,
                "case {case} {ops:?} on {:?}: memory diverges",
                gpu.rf
            );
            if let (Ok(stats), RfProtection::Ecc(_)) = (fast, gpu.rf) {
                corrected += stats.rf.corrected;
            }
            legs += 1;
        }
    }
    assert_eq!(
        legs, 32,
        "iGPU and the unprotected pipeline compile every generated kernel"
    );
    assert!(corrected > 0, "the ECC leg must correct flips inline");
}

/// Partial warps: 48 threads per block leave each block's second warp
/// 16 lanes wide in a 32-lane register file. No registered workload
/// launches one, so the padding is pinned here: fault-free, and under
/// flips in the tail warp's last live lane (15) and in its first padded
/// lane (16, which never fires), the decoded path equals the reference
/// on every `RunStats` counter and on memory.
#[test]
fn partial_warps_match_reference() {
    let dims = LaunchDims::linear(2, 48);
    let image = dense_image();
    let (mut compiled, mut detected) = (0, 0);
    for ops in [[0u8, 4, 5, 1], [5, 6, 3, 2], [4, 7, 0, 6], [1, 5, 4, 3]] {
        let k = build_kernel(&ops, true);
        let baseline = compile(&k, &PennyConfig::unprotected().with_launch(dims))
            .expect("unprotected compile");
        let no_rf = GpuConfig::fermi().with_rf(RfProtection::None);
        let (fast, reference) =
            run_pair(&baseline, dims, &no_rf, &FaultPlan::none(), &image);
        assert_eq!(fast, reference, "{ops:?}: unprotected partial warps diverge");

        let Some(protected) = try_compile(&k, PennyConfig::penny().with_launch(dims))
        else {
            continue;
        };
        compiled += 1;
        let gpu = GpuConfig::fermi();
        let (fast, reference) =
            run_pair(&protected, dims, &gpu, &FaultPlan::none(), &image);
        assert_eq!(fast, reference, "{ops:?}: fault-free partial warps diverge");

        let regs = protected.kernel.vreg_limit();
        let injections = (0..regs)
            .flat_map(|reg| {
                [(0, 15), (1, 15), (1, 16)].map(|(block, lane)| Injection {
                    block,
                    warp: 1,
                    lane,
                    reg,
                    bit: reg % 33,
                    after_warp_insts: 2 + u64::from(reg) * 5 % 50,
                })
            })
            .collect();
        let plan = FaultPlan { injections };
        let ((fast, fast_mem), (reference, ref_mem)) =
            try_run_pair(&protected, dims, &gpu, &plan, &image);
        assert_eq!(fast, reference, "{ops:?}: partial warps diverge under faults");
        assert_eq!(fast_mem, ref_mem, "{ops:?}: memory diverges under faults");
        detected += fast.map_or(0, |s| s.rf.detected);
    }
    assert!(compiled > 0, "Penny must compile some partial-warp kernel");
    assert!(detected > 0, "flips in the tail warp's last live lane must be read");
}

/// A kernel whose guards and branch predicate are each read right after
/// they are set, so flips land in the short windows where an operand
/// row holds a corrupted live lane (the generated kernels rarely hit
/// them): two guarded updates, a data-dependent divergent branch, and a
/// 48-thread block with a 16-lane tail warp.
const GUARDED: &str = r#"
    .kernel guarded .params A
    entry:
        mov.u32 %r0, %tid.x
        ld.param.u32 %r1, [A]
        shl.u32 %r2, %r0, 2
        add.u32 %r3, %r1, %r2
        ld.global.u32 %r4, [%r3]
        and.u32 %r5, %r0, 1
        setp.eq.u32 %p0, %r5, 1
        @%p0 add.u32 %r4, %r4, 7
        @!%p0 mul.u32 %r4, %r4, 3
        setp.lt.u32 %p1, %r4, 100
        bra %p1, small, big
    small:
        add.u32 %r4, %r4, 1
        jmp done
    big:
        sub.u32 %r4, %r4, 1
        jmp done
    done:
        st.global.u32 [%r3], %r4
        ret
"#;

/// Every single-bit site of [`GUARDED`] — each register, trigger and
/// warp, in lanes that take either side of the guards and the branch —
/// runs identically on both interpreters under parity EDC (Penny), SECDED
/// ECC (iGPU) and an unprotected RF, and every protected leg does see
/// flips detected or corrected.
#[test]
fn every_site_of_a_guarded_kernel_matches_reference() {
    let kernel = penny_ir::parse_kernel(GUARDED).expect("parse");
    let dims = LaunchDims::linear(1, 48);
    let image = MemImage {
        writes: vec![(0x1000, (0..48).map(|i| i * 5).collect())],
        params: vec![0x1000],
    };
    let legs = [
        (PennyConfig::penny(), GpuConfig::fermi()),
        (
            PennyConfig::igpu(),
            GpuConfig::fermi().with_rf(RfProtection::Ecc(Scheme::Secded)),
        ),
        (PennyConfig::unprotected(), GpuConfig::fermi().with_rf(RfProtection::None)),
    ];
    for (cfg, gpu) in legs {
        let protected = compile(&kernel, &cfg.with_launch(dims)).expect("compile");
        let (fault_free, _) = run_pair(&protected, dims, &gpu, &FaultPlan::none(), &image);
        let regs = protected.kernel.vreg_limit();
        let mut caught = 0;
        for warp in 0..2 {
            for after in 1..=fault_free.0.warp_instructions / 2 {
                for reg in 0..regs {
                    for lane in [0, 3, 15] {
                        let site = Injection {
                            block: 0,
                            warp,
                            lane,
                            reg,
                            bit: 0,
                            after_warp_insts: after,
                        };
                        let plan = FaultPlan::single(site);
                        let ((fast, fast_mem), (reference, ref_mem)) =
                            try_run_pair(&protected, dims, &gpu, &plan, &image);
                        assert_eq!(fast, reference, "{:?} {site:?}: runs diverge", gpu.rf);
                        assert_eq!(
                            fast_mem, ref_mem,
                            "{:?} {site:?}: memory diverges",
                            gpu.rf
                        );
                        caught += fast.map_or(0, |s| s.rf.detected + s.rf.corrected);
                    }
                }
            }
        }
        assert!(
            caught > 0 || gpu.rf == RfProtection::None,
            "{:?}: flips must be caught",
            gpu.rf
        );
    }
}
