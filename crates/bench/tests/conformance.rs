//! Fault-space conformance: every covered fault site must recover to
//! the fault-free final memory under each protected scheme.
//!
//! Run with `cargo test -q -p penny-bench conformance`. Budgets are
//! deliberately small so the suite stays fast; the full-coverage runs
//! recorded in `EXPERIMENTS.md` use larger budgets in release mode.

use penny_bench::conformance::{
    merge_reports, render_report, run_conformance, run_conformance_sharded,
    run_conformance_static, run_conformance_static_sharded, MergeError, Shard, StaticMode,
};
use penny_bench::json::report_to_json;
use penny_bench::SchemeId;

/// Asserts a clean report and returns it (printing coverage counts so
/// `--nocapture` shows the per-workload totals the harness contract
/// requires).
fn assert_clean(abbr: &str, scheme: SchemeId, budget: u64) {
    let r = run_conformance(abbr, scheme, budget);
    print!("{}", render_report(&r));
    assert!(r.total > 0, "{abbr}/{}: empty fault space", r.variant);
    assert_eq!(r.covered + r.skipped, r.total, "coverage accounting");
    assert!(r.covered > 0 && r.covered <= budget.max(r.total));
    assert!(
        r.failures.is_empty(),
        "{abbr}/{}: {} fault sites failed to recover; first reproducer:\n{}",
        r.variant,
        r.failures.len(),
        r.failures[0].reproducer
    );
    assert_eq!(r.recovered, r.covered);
}

#[test]
fn conformance_mt_recovers_under_all_protected_schemes() {
    let schemes =
        [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu];
    // Batch-compile all four variants up front (fans out across the
    // parallel harness); the per-scheme runs below start from cache hits.
    penny_bench::conformance::prewarm(&schemes.map(|s| ("MT", s)), StaticMode::Off);
    for scheme in schemes {
        assert_clean("MT", scheme, 300);
    }
}

#[test]
fn conformance_spmv_penny_and_bolt() {
    for scheme in [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto] {
        assert_clean("SPMV", scheme, 150);
    }
}

#[test]
fn conformance_sgemm_penny() {
    assert_clean("SGEMM", SchemeId::Penny, 100);
}

#[test]
fn conformance_bfs_penny_and_bolt() {
    for scheme in [SchemeId::Penny, SchemeId::BoltGlobal] {
        assert_clean("BFS", scheme, 150);
    }
}

#[test]
fn conformance_detects_corruption_on_unprotected_baseline() {
    // Negative control: with an unprotected RF the same fault space must
    // produce silent corruptions, and each failure must carry a shrunk,
    // pasteable reproducer — proving the harness can actually fail.
    let r = run_conformance("MT", SchemeId::Baseline, 300);
    assert!(
        !r.failures.is_empty(),
        "300 unprotected fault sites produced no corruption — harness is blind"
    );
    // Every failing site counts against recovery; reproducers are a
    // capped sample of the lowest failing sample positions.
    let failed = r.covered - r.recovered;
    assert!(failed >= r.failures.len() as u64);
    assert!(
        r.failures.len() <= penny_bench::conformance::MAX_REPORTED_FAILURES,
        "reproducer cap exceeded"
    );
    assert!(r.classes.simulated > 0, "silent corruption requires simulated sites");
    for f in &r.failures {
        assert!(f.reproducer.contains("#[test]"), "{}", f.reproducer);
        assert!(f.reproducer.contains("SchemeId::Baseline"), "{}", f.reproducer);
        // The shrunk injection still fails when re-run through the
        // public entry point the reproducer uses.
        penny_bench::conformance::check_site("MT", SchemeId::Baseline, &f.injection)
            .expect_err("shrunk reproducer must still fail");
    }
}

/// Sharded runs must merge into the unsharded report bit-identically:
/// same rendered text and same verdict fields, for clean and failing
/// pairs alike, under different job counts. Replay-work counters are
/// legitimately shard-dependent and excluded (see
/// `conformance::ReplayWork`).
#[test]
fn sharded_reports_merge_byte_identically() {
    for (scheme, budget) in [(SchemeId::Penny, 160), (SchemeId::Baseline, 160)] {
        let full = run_conformance("MT", scheme, budget);
        for (count, jobs) in [(2u32, 1usize), (3, 4)] {
            penny_bench::set_jobs(jobs);
            let shards: Vec<_> = (0..count)
                .map(|index| {
                    run_conformance_sharded("MT", scheme, budget, Shard { index, count })
                })
                .collect();
            for s in &shards {
                assert_eq!(s.shard, (s.shard.0, count));
                assert!(s.covered > 0, "shard {}/{count} covered nothing", s.shard.0);
            }
            let merged = merge_reports(&shards).expect("merge");
            assert_eq!(render_report(&merged), render_report(&full));
            assert_eq!(merged.total, full.total);
            assert_eq!(merged.covered, full.covered);
            assert_eq!(merged.skipped, full.skipped);
            assert_eq!(merged.recovered, full.recovered);
            assert_eq!(merged.classes, full.classes);
            assert_eq!(merged.failures.len(), full.failures.len());
            for (m, f) in merged.failures.iter().zip(&full.failures) {
                assert_eq!(m.sample, f.sample);
                assert_eq!(m.injection, f.injection);
                assert_eq!(m.reason, f.reason);
                assert_eq!(m.reproducer, f.reproducer);
            }
            assert_eq!(merged.work.snapshots, full.work.snapshots);
        }
        penny_bench::set_jobs(1);
    }

    // Malformed partitions are rejected, each with a typed error that
    // names the offending shard.
    let a =
        run_conformance_sharded("MT", SchemeId::Penny, 40, Shard { index: 0, count: 2 });
    assert!(matches!(
        merge_reports(std::slice::from_ref(&a)),
        Err(MergeError::MissingShards { expected: 2, got: 1 })
    ));
    assert!(matches!(
        merge_reports(&[a.clone(), a]),
        Err(MergeError::DuplicateShard { index: 0, count: 2 })
    ));
    assert!(matches!(merge_reports(&[]), Err(MergeError::Empty)));
}

/// Empty partitions are a report, not a panic: a zero budget (or a
/// shard that owns no sample positions) yields an empty-but-valid
/// `ConformanceReport`, and over-sharded partitions still merge
/// byte-identically to the unsharded run.
#[test]
fn zero_budget_and_empty_shards_report_empty_but_valid() {
    // budget 0 used to divide by zero deriving the sample stride.
    let r = run_conformance("MT", SchemeId::Penny, 0);
    assert!(r.total > 0);
    assert_eq!(r.covered, 0);
    assert_eq!(r.skipped, r.total);
    assert_eq!(r.recovered, 0);
    assert!(r.failures.is_empty());

    // With a 4-site budget and 8 shards, shards 4..8 own nothing.
    let empty =
        run_conformance_sharded("MT", SchemeId::Penny, 4, Shard { index: 7, count: 8 });
    assert_eq!(empty.covered, 0);
    assert_eq!(empty.recovered, 0);
    assert!(empty.failures.is_empty());
    assert_eq!(empty.shard, (7, 8));

    // The over-sharded partition still merges to the unsharded report.
    let full = run_conformance("MT", SchemeId::Penny, 4);
    let shards: Vec<_> = (0..8)
        .map(|index| {
            run_conformance_sharded("MT", SchemeId::Penny, 4, Shard { index, count: 8 })
        })
        .collect();
    let merged = merge_reports(&shards).expect("merge");
    assert_eq!(render_report(&merged), render_report(&full));
    assert_eq!(merged.covered, full.covered);
    assert_eq!(merged.classes, full.classes);
}

#[test]
fn conformance_reports_skip_count_when_budgeted() {
    let r = run_conformance("MT", SchemeId::Penny, 4);
    assert_eq!(r.covered, 4);
    assert_eq!(r.skipped, r.total - 4);
}

/// Static pruning answers classified sites without replaying them: the
/// `pruned-static` bucket is separate from `skipped`, partitions the
/// sample with `covered`, and never costs a recovery failure. The same
/// sample under `StaticMode::Off` replays every pruned site, so the two
/// reports must tile the sample identically.
#[test]
fn static_prune_accounting_partitions_the_sample() {
    let budget = 400;
    let off = run_conformance("MT", SchemeId::Penny, budget);
    let pruned = run_conformance_static("MT", SchemeId::Penny, budget, StaticMode::Prune);
    print!("{}", render_report(&pruned));
    assert_eq!(pruned.total, off.total);
    assert_eq!(pruned.skipped, off.skipped, "pruning must not change the sample");
    assert_eq!(
        pruned.covered + pruned.pruned_static,
        off.covered,
        "pruned + replayed must tile the Off-mode sample"
    );
    assert!(pruned.pruned_static > 0, "MT/Penny must prune some sites");
    assert_eq!(pruned.pruned_static, pruned.static_prune.total());
    assert!(pruned.failures.is_empty());
    assert_eq!(pruned.recovered, pruned.covered);
    // Prune mode makes no claims to check; validation counters stay 0.
    assert_eq!(pruned.static_checked, 0);
    assert_eq!(pruned.static_disagreements, 0);
}

/// Validate mode replays every site *and* cross-examines each static
/// claim against the dynamic verdict — zero disagreements on the stock
/// workloads, under every protected scheme.
#[test]
fn static_validation_agrees_with_replay_on_mt() {
    for scheme in
        [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu]
    {
        let r = run_conformance_static("MT", scheme, 300, StaticMode::Validate);
        assert_eq!(r.pruned_static, 0, "validate mode must replay everything");
        assert!(r.static_checked > 0, "{}: no static claims checked", r.variant);
        assert_eq!(
            r.static_disagreements, 0,
            "{}: static claims contradicted: {:?}",
            r.variant, r.disagreements
        );
        assert!(r.failures.is_empty());
        assert_eq!(r.recovered, r.covered);
    }
}

/// An unprotected RF admits no protection model: the analysis claims
/// nothing, so validation has nothing to check (and pruning nothing to
/// prune beyond dead/overwritten intervals, which hold regardless of
/// protection).
#[test]
fn static_validation_is_vacuous_only_for_covered_claims_on_baseline() {
    let r = run_conformance_static("MT", SchemeId::Baseline, 200, StaticMode::Validate);
    // Dead/overwritten facts are protection-independent and still
    // checked; covered claims require a protection model and cannot
    // appear. Disagreements must stay zero either way.
    assert_eq!(r.static_disagreements, 0, "{:?}", r.disagreements);
}

/// Exhaustive static-prune sweeps split 2, 4 and 7 ways merge into the
/// unsharded report byte for byte. Shard ownership interleaves sample
/// positions, so every split cuts every cell across shards.
#[test]
fn sharded_exhaustive_static_prune_sweeps_merge_byte_identically() {
    let full = run_conformance_static("MT", SchemeId::Penny, u64::MAX, StaticMode::Prune);
    assert_eq!(full.skipped, 0);
    for count in [2u32, 4, 7] {
        let shards: Vec<_> = (0..count)
            .map(|index| {
                run_conformance_static_sharded(
                    "MT",
                    SchemeId::Penny,
                    u64::MAX,
                    StaticMode::Prune,
                    Shard { index, count },
                )
            })
            .collect();
        let merged = merge_reports(&shards).expect("merge");
        assert_eq!(report_to_json(&merged), report_to_json(&full), "{count} shards");
    }
}

/// Sharded static-prune runs must merge bit-identically into the
/// unsharded report, pruning buckets included.
#[test]
fn sharded_static_prune_reports_merge_byte_identically() {
    let budget = 200;
    let full = run_conformance_static("MT", SchemeId::Penny, budget, StaticMode::Prune);
    for count in [2u32, 3] {
        let shards: Vec<_> = (0..count)
            .map(|index| {
                run_conformance_static_sharded(
                    "MT",
                    SchemeId::Penny,
                    budget,
                    StaticMode::Prune,
                    Shard { index, count },
                )
            })
            .collect();
        let merged = merge_reports(&shards).expect("merge");
        assert_eq!(render_report(&merged), render_report(&full));
        assert_eq!(merged.pruned_static, full.pruned_static);
        assert_eq!(merged.static_prune, full.static_prune);
        assert_eq!(merged.covered, full.covered);
        assert_eq!(merged.skipped, full.skipped);
        assert_eq!(merged.classes, full.classes);
    }
}

/// The static-pruning acceptance run recorded in `EXPERIMENTS.md`: the
/// full SGEMM/BoltGlobal fault space (576,761,856 sites) swept
/// exhaustively with static pruning on — every site either statically
/// answered or replayed to recovery. Each cell is answered once for all
/// its bits, which makes the sweep cheap enough to run with the suite.
#[test]
fn exhaustive_sgemm_bolt_global_with_static_prune() {
    let r =
        run_conformance_static("SGEMM", SchemeId::BoltGlobal, u64::MAX, StaticMode::Prune);
    print!("{}", render_report(&r));
    assert_eq!(r.skipped, 0, "exhaustive sweep must answer every site");
    assert_eq!(r.covered + r.pruned_static, r.total);
    assert!(r.pruned_static > r.total / 2, "SGEMM must prune most of the space");
    assert!(r.failures.is_empty(), "{} residual sites failed to recover", r.failures.len());
    assert_eq!(r.recovered, r.covered, "all residual sites must recover");
}

/// The deep sweep recorded in `EXPERIMENTS.md`: all four stock workloads
/// under every protected scheme at a 2000-site budget. Run it with
///
/// ```text
/// cargo test --release -p penny-bench --test conformance -- --ignored --nocapture
/// ```
#[test]
#[ignore = "deep sweep; run explicitly in release mode"]
fn conformance_deep_sweep() {
    for abbr in ["MT", "SPMV", "SGEMM", "BFS"] {
        for scheme in
            [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu]
        {
            assert_clean(abbr, scheme, 2000);
        }
    }
}

/// The exhaustive MT/Penny static-prune sweep, pinned as JSON: every
/// count, bucket and work counter of the report, byte for byte. The
/// static layer answers most of the space, nothing is replayed.
#[test]
fn exhaustive_mt_static_prune_report_bytes_are_pinned() {
    let r = run_conformance_static("MT", SchemeId::Penny, u64::MAX, StaticMode::Prune);
    assert_eq!(
        report_to_json(&r),
        concat!(
            r#"{"workload":"MT","variant":"Penny","space":{"blocks":4,"warps":2,"#,
            r#""lanes":32,"triggers":27,"regs":23,"bits":33},"total":5246208,"#,
            r#""covered":194304,"skipped":0,"pruned_static":5051904,"#,
            r#""static_prune":{"dead":1664256,"overwritten":2272512,"covered":1115136},"#,
            r#""static_checked":0,"static_disagreements":0,"disagreements":[],"#,
            r#""recovered":194304,"classes":{"never_fires":194304,"invisible":0,"#,
            r#""corrected_inline":0,"simulated":0,"spliced":0},"work":{"snapshots":12,"#,
            r#""forks":0,"replayed_insts":0,"cold_insts":41969664,"pages_copied":0},"#,
            r#""shard":[0,1],"failures":[]}"#,
        )
    );
}

/// The exhaustive MT/Penny sweep with the static layer off, pinned as
/// JSON. Every simulated site is replayed or shares a replay, so a
/// change to how sites are grouped — the recovery-point key in
/// particular — shows here in `forks`, `replayed_insts` and
/// `pages_copied`.
#[test]
fn exhaustive_mt_report_bytes_are_pinned() {
    let r = run_conformance_static("MT", SchemeId::Penny, u64::MAX, StaticMode::Off);
    assert_eq!(
        report_to_json(&r),
        concat!(
            r#"{"workload":"MT","variant":"Penny","space":{"blocks":4,"warps":2,"#,
            r#""lanes":32,"triggers":27,"regs":23,"bits":33},"total":5246208,"#,
            r#""covered":5246208,"skipped":0,"pruned_static":0,"#,
            r#""static_prune":{"dead":0,"overwritten":0,"covered":0},"#,
            r#""static_checked":0,"static_disagreements":0,"disagreements":[],"#,
            r#""recovered":5246208,"classes":{"never_fires":194304,"invisible":3936768,"#,
            r#""corrected_inline":0,"simulated":1115136,"spliced":1115136},"#,
            r#""work":{"snapshots":12,"forks":144,"replayed_insts":6260,"#,
            r#""cold_insts":1133180928,"pages_copied":108},"shard":[0,1],"failures":[]}"#,
        )
    );
}

/// A shard of an exhaustive sweep answers exactly the sample positions
/// it owns — the check every `penny-eval conformance` run makes; the
/// other shards' positions count as skipped — and the shards merge into
/// the unsharded report.
#[test]
fn exhaustive_shards_answer_the_positions_they_own() {
    let full = run_conformance_static("MT", SchemeId::Penny, u64::MAX, StaticMode::Off);
    let shards: Vec<_> = (0..3)
        .map(|index| {
            let shard = Shard { index, count: 3 };
            let r = run_conformance_static_sharded(
                "MT",
                SchemeId::Penny,
                u64::MAX,
                StaticMode::Off,
                shard,
            );
            assert_eq!(
                r.covered + r.pruned_static,
                shard.owned_count(r.total),
                "{shard:?}"
            );
            assert!(r.skipped > 0, "{shard:?}: other shards' positions are skipped");
            r
        })
        .collect();
    let merged = merge_reports(&shards).expect("merge");
    assert_eq!(render_report(&merged), render_report(&full));
}

/// The snapshot engine's work gate: at the deep-sweep budget, a forked
/// sweep of MT and SGEMM under Penny re-simulates at least 20x fewer
/// warp instructions than a cold harness would run for the same covered
/// sites, counting the fault-free recording (one run of the kernel,
/// `cold_insts / covered`) against the forked sweep. Work counts are
/// deterministic, so this tracks the wall-clock speedup without
/// depending on the host or on `--jobs`.
#[test]
fn forked_sweeps_do_at_most_a_twentieth_of_the_cold_work() {
    for abbr in ["MT", "SGEMM"] {
        let r = run_conformance(abbr, SchemeId::Penny, 2000);
        assert_eq!(r.covered, 2000);
        let w = r.work;
        let recording = w.cold_insts / r.covered;
        let ratio = w.cold_insts as f64 / (w.replayed_insts + recording) as f64;
        println!("{abbr}/Penny: cold/forked work {ratio:.1}x");
        assert!(
            w.cold_insts >= 20 * (w.replayed_insts + recording),
            "{abbr}/Penny: cold/forked work {ratio:.1}x is below 20x ({w:?})"
        );
    }
}
