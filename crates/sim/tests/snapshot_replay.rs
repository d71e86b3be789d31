//! Snapshot/replay determinism: every same-cell flip plan answered from
//! a [`Recording`] must be bit-identical to a from-scratch run of the
//! same plan — stats, memory contents, access counters, and errors —
//! across all four site classes (never-fires, invisible,
//! corrected-inline, simulated), for single-bit and multi-bit plans.

use std::collections::HashMap;

use penny_coding::Scheme;
use penny_core::{compile, LaunchDims, PennyConfig, Protection};
use penny_sim::{
    FaultPlan, GlobalMemory, Gpu, GpuConfig, Injection, LaunchConfig, Recording,
    RfProtection, SimError, SiteClass,
};

const KERNEL: &str = r#"
    .kernel work .params A B N
    entry:
        mov.u32 %r0, %tid.x
        mov.u32 %r1, %ctaid.x
        mov.u32 %r2, %ntid.x
        mad.u32 %r3, %r1, %r2, %r0
        ld.param.u32 %r4, [A]
        ld.param.u32 %r5, [B]
        ld.param.u32 %r6, [N]
        setp.lt.u32 %p0, %r3, %r6
        bra %p0, body, exit
    body:
        shl.u32 %r7, %r3, 2
        add.u32 %r8, %r4, %r7
        add.u32 %r9, %r5, %r7
        ld.global.u32 %r10, [%r8]
        mul.u32 %r11, %r10, 3
        add.u32 %r12, %r11, %r3
        st.global.u32 [%r9], %r12
        ld.global.u32 %r13, [%r9]
        add.u32 %r14, %r13, 1
        st.global.u32 [%r9], %r14
        jmp exit
    exit:
        ret
"#;

const A: u32 = 0x1_0000;
const B: u32 = 0x2_0000;
const N: u32 = 128;

struct Rig {
    protected: penny_core::Protected,
    gpu_config: GpuConfig,
    launch: LaunchConfig,
    seeded: GlobalMemory,
}

fn rig(protection: Protection) -> Rig {
    let kernel = penny_ir::parse_kernel(KERNEL).expect("parse");
    let dims = LaunchDims::linear(2, 64);
    let (cfg, rf) = match protection {
        Protection::Penny => (PennyConfig::penny(), RfProtection::Edc(Scheme::Parity)),
        Protection::IGpu => (PennyConfig::igpu(), RfProtection::Ecc(Scheme::Secded)),
        _ => (PennyConfig::unprotected(), RfProtection::None),
    };
    let protected = compile(&kernel, &cfg.with_launch(dims)).expect("compile");
    let mut seeded = GlobalMemory::new();
    seeded.write_slice(A, &(0..N).map(|i| i.wrapping_mul(7)).collect::<Vec<u32>>());
    Rig {
        protected,
        gpu_config: GpuConfig::fermi().with_rf(rf),
        launch: LaunchConfig::new(dims, vec![A, B, N]),
        seeded,
    }
}

/// From-scratch faulty run on a fresh GPU seeded identically.
fn cold(r: &Rig, plan: FaultPlan) -> Result<(penny_sim::RunStats, GlobalMemory), SimError> {
    let mut gpu = Gpu::new(r.gpu_config.clone());
    *gpu.global_mut() = r.seeded.fork();
    let stats = gpu.run(&r.protected, &r.launch.clone().with_faults(plan))?;
    Ok((stats, gpu.global().fork()))
}

/// A small but class-diverse site grid for the 2-block x 2-warp rig.
fn site_grid() -> Vec<Injection> {
    let mut sites = Vec::new();
    for block in 0..4u32 {
        for warp in 0..2 {
            for &lane in &[0u32, 5, 31] {
                for &reg in &[3u32, 9, 10, 13, 40] {
                    for &bit in &[0u32, 12, 31, 32] {
                        for &after in &[1u64, 8, 15, 22, 60, 500] {
                            sites.push(Injection {
                                block,
                                warp,
                                lane,
                                reg,
                                bit,
                                after_warp_insts: after,
                            });
                        }
                    }
                }
            }
        }
    }
    sites
}

/// `flips` adjacent bits of `inj`'s cell, all flipped at its trigger.
fn adjacent_flips(inj: Injection, flips: u32) -> FaultPlan {
    FaultPlan {
        injections: (0..flips).map(|k| Injection { bit: inj.bit + k, ..inj }).collect(),
    }
}

/// Runs a `flips`-bit plan at every grid site through the recording
/// and from scratch, asserting identical outcomes. Returns the forked
/// answers per class (never-fires, invisible, corrected-inline,
/// simulated) and the number of sites whose run ended in an error.
fn assert_plan_equivalence(protection: Protection, flips: u32) -> ([usize; 4], usize) {
    let r = rig(protection);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");

    // The recording itself must be bit-identical to a plain run.
    let (plain_stats, plain_global) = cold(&r, FaultPlan::none()).expect("plain run");
    assert_eq!(*rec.stats(), plain_stats, "recording perturbs the fault-free run");
    assert_eq!(*rec.global(), plain_global, "recording global diverges");

    let mut class_counts = [0usize; 4];
    let mut errors = 0;
    for inj in site_grid() {
        let plan = adjacent_flips(inj, flips);
        let forked = rec.run_plan(&r.gpu_config, &r.protected, &plan);
        let from_scratch = cold(&r, plan);
        match (forked, from_scratch) {
            (Ok(site), Ok((cs, cg))) => {
                assert_eq!(site.stats, cs, "stats diverge at {inj:?} ({:?})", site.class);
                assert_eq!(
                    site.global, cg,
                    "memory/counters diverge at {inj:?} ({:?})",
                    site.class
                );
                assert_eq!(
                    site.global.nonzero_words(),
                    cg.nonzero_words(),
                    "contents diverge at {inj:?}"
                );
                class_counts[match site.class {
                    SiteClass::NeverFires => 0,
                    SiteClass::Invisible => 1,
                    SiteClass::CorrectedInline => 2,
                    SiteClass::Simulated => 3,
                }] += 1;
            }
            (Err(fe), Err(ce)) => {
                assert_eq!(fe, ce, "errors diverge at {inj:?}");
                errors += 1;
            }
            (f, c) => panic!(
                "outcome shape diverges at {inj:?}: forked={:?} cold={:?}",
                f.map(|s| s.class),
                c.map(|(s, _)| s.cycles)
            ),
        }
    }
    (class_counts, errors)
}

#[test]
fn forked_sites_match_cold_runs_under_edc() {
    for flips in 1..=3 {
        let (counts, _) = assert_plan_equivalence(Protection::Penny, flips);
        assert!(counts[0] > 0, "grid exercises never-fires sites");
        assert!(counts[1] > 0, "grid exercises invisible sites");
        assert_eq!(counts[2], 0, "EDC has no inline correction");
        assert!(counts[3] > 0, "grid exercises simulated {flips}-bit plans");
    }
}

#[test]
fn forked_sites_match_cold_runs_under_ecc() {
    let (counts, _) = assert_plan_equivalence(Protection::IGpu, 1);
    assert!(counts[2] > 0, "grid exercises corrected-inline sites");
    assert_eq!(counts[3], 0, "single-bit faults never simulate under SECDED");
}

#[test]
fn forked_sites_match_cold_runs_unprotected() {
    for flips in 1..=3 {
        let (counts, _) = assert_plan_equivalence(Protection::None, flips);
        assert!(counts[3] > 0, "grid exercises silent {flips}-bit corruption");
    }
}

#[test]
fn multi_bit_plans_match_cold_runs_under_ecc() {
    for flips in [2, 3] {
        // SECDED cannot correct more than one flip: every observed
        // multi-bit plan is replayed, never answered inline.
        let (counts, errors) = assert_plan_equivalence(Protection::IGpu, flips);
        assert_eq!(counts[2], 0, "{flips}-bit plans answered as corrected inline");
        assert!(errors > 0, "grid exercises uncorrectable {flips}-bit plans");
    }
}

#[test]
fn run_plan_rejects_empty_and_multi_cell_plans() {
    let r = rig(Protection::Penny);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    let inj = Injection { block: 0, warp: 0, lane: 3, reg: 9, bit: 7, after_warp_insts: 8 };
    let run = |plan: FaultPlan| rec.run_plan(&r.gpu_config, &r.protected, &plan);
    assert!(matches!(run(FaultPlan::none()), Err(SimError::BadLaunch(_))));
    for other in [
        Injection { block: 1, ..inj },
        Injection { warp: 1, ..inj },
        Injection { lane: 4, ..inj },
        Injection { reg: 10, ..inj },
        Injection { after_warp_insts: 9, ..inj },
    ] {
        let plan = FaultPlan { injections: vec![inj, Injection { bit: 8, ..other }] };
        assert!(matches!(run(plan), Err(SimError::BadLaunch(_))), "{other:?}");
    }
    assert!(run(adjacent_flips(inj, 3)).is_ok(), "a same-cell plan is accepted");
}

#[test]
fn simulated_sites_include_spliced_and_memoizable_runs() {
    let r = rig(Protection::Penny);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    let mut spliced = 0u32;
    let mut replay_savings = false;
    let mut first_of_key = HashMap::new();
    let mut cross_cell = 0u32;
    for inj in site_grid() {
        if rec.site_class(&inj) != SiteClass::Simulated {
            continue;
        }
        let site = rec.run_site(&r.gpu_config, &r.protected, inj).expect("site");
        spliced += site.spliced as u32;
        // The replay must be cheaper than the full recorded run for at
        // least some sites, or the fork buys nothing.
        if site.replayed_insts < rec.counters().total_warp_insts {
            replay_savings = true;
        }
        // Memo contract: equal keys imply bit-identical outcomes.
        let key = rec.memo_key(&inj).expect("simulated sites have memo keys");
        let twin = Injection { bit: if inj.bit == 0 { 31 } else { 0 }, ..inj };
        if rec.memo_key(&twin) == Some(key) {
            let t = rec.run_site(&r.gpu_config, &r.protected, twin).expect("twin");
            assert_eq!(t.stats, site.stats, "memo twins diverge at {inj:?}");
            assert_eq!(t.global, site.global, "memo twin memory diverges at {inj:?}");
        }
        // Across cells: a recovery-point key is shared by flips in
        // different cells of one warp that one read detects, so a grid
        // site in another cell with the same key is a twin too.
        match first_of_key.get(&key) {
            None => {
                first_of_key.insert(key, (inj, site));
            }
            Some((first, run)) if (first.lane, first.reg) != (inj.lane, inj.reg) => {
                assert_eq!((first.block, first.warp), (inj.block, inj.warp));
                assert_eq!(run.stats, site.stats, "cross-cell twins {first:?} {inj:?}");
                assert_eq!(run.global, site.global, "cross-cell twins {first:?} {inj:?}");
                cross_cell += 1;
            }
            Some(_) => {}
        }
    }
    assert!(cross_cell > 0, "the grid draws cross-cell memo twins");
    assert!(spliced > 0, "EDC recovery restores memory, so splices must occur");
    assert!(replay_savings, "forked replays never beat the cold cost");
    assert!(rec.counters().snapshots > 0, "regions must produce snapshots");
}

#[test]
fn recordings_reject_fault_plans() {
    let r = rig(Protection::Penny);
    let inj = Injection { block: 0, warp: 0, lane: 0, reg: 9, bit: 3, after_warp_insts: 5 };
    let faulty = r.launch.clone().with_faults(FaultPlan::single(inj));
    assert!(matches!(
        Recording::record(&r.gpu_config, &r.protected, &faulty, &r.seeded),
        Err(SimError::BadLaunch(_))
    ));
}

/// The bit-independence contract a conformance sweep relies on to answer
/// a cell once for all its bits: which bit of the victim register flips
/// changes neither the static attribution point, nor the site class,
/// nor the memo key — except that an unprotected RF keeps the bit in
/// a cell key, since there the corrupted value is observed. A
/// recovery-point key (`u32::MAX` in the lane and register slots) names
/// no cell and no bit, and only parity EDC with regions (Penny) has
/// them: a SECDED or unprotected RF never recovers by rollback.
#[test]
fn static_point_class_and_memo_key_ignore_the_bit() {
    for protection in [Protection::Penny, Protection::IGpu, Protection::None] {
        let r = rig(protection);
        let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
            .expect("record");
        let bits = penny_sim::RegFile::new(1, r.gpu_config.rf).codeword_bits();
        let (mut keyed, mut recovery_points) = (0usize, 0usize);
        for inj in site_grid() {
            let zero = Injection { bit: 0, ..inj };
            let (point, class, key) =
                (rec.static_point(&zero), rec.site_class(&zero), rec.memo_key(&zero));
            keyed += key.is_some() as usize;
            let point_key = key.is_some_and(|(_, _, l, reg, _, _)| {
                assert_eq!(l == u32::MAX, reg == u32::MAX, "{protection:?} {zero:?}");
                l == u32::MAX
            });
            recovery_points += point_key as usize;
            for bit in 0..bits {
                let flip = Injection { bit, ..inj };
                assert_eq!(rec.static_point(&flip), point, "{protection:?} {flip:?}");
                assert_eq!(rec.site_class(&flip), class, "{protection:?} {flip:?}");
                let expected = key.map(|(b, w, l, reg, _, read)| {
                    let cell_bit = protection == Protection::None && !point_key;
                    (b, w, l, reg, if cell_bit { bit } else { 0 }, read)
                });
                assert_eq!(rec.memo_key(&flip), expected, "{protection:?} {flip:?}");
            }
        }
        if protection != Protection::IGpu {
            assert!(keyed > 0, "{protection:?}: grid exercises memo keys");
        }
        match protection {
            Protection::Penny => assert!(recovery_points > 0, "grid draws recovery points"),
            _ => assert_eq!(recovery_points, 0, "{protection:?} has no recovery points"),
        }
    }
}
