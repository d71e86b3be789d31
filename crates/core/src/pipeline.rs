//! The Penny pass pipeline (paper §5): region formation → checkpoint
//! placement → overwrite prevention → pruning → storage assignment →
//! low-level optimization and code generation → recovery metadata.

use std::collections::{HashMap, HashSet};

use penny_analysis::{AliasAnalysis, ControlDeps, Liveness, LoopInfo, ReachingDefs};
use penny_ir::{Color, InstId, Kernel, RegionId, VReg};
use penny_obs::{record, Recorder, SpanKind, SpanTimer};

use crate::baselines::apply_igpu_renaming;
use crate::checkpoint::{
    bimodal_placement_counted, eager_placement, insert_checkpoints, lup_edges,
    region_live_ins, BcpStats,
};
use crate::codegen::lower_checkpoints;
use crate::config::{OverwritePolicy, PennyConfig, Protection};
use crate::error::CompileError;
use crate::meta::{CompileStats, Protected, RegionInfo, Restore, SlotRef};
use crate::overwrite::{apply_alternation, apply_renaming, restore_colors};
use crate::pruning::slice_builder::{
    reaching_checkpoints, Assume, BuildResult, SliceBuilder,
};
use crate::pruning::{prune, PruneOutcome};
use crate::regalloc::register_pressure;
use crate::regionmap::RegionMap;
use crate::regions::form_regions;
use crate::storage::assign_storage;

/// Compiles a kernel under the given configuration.
///
/// # Errors
///
/// Returns [`CompileError`] when the input kernel fails validation, when
/// the sanitizer is enabled ([`PennyConfig::lint`]) and reports a
/// diagnostic, when the instrumented kernel fails re-validation (an
/// internal invariant), or when recovery metadata cannot be constructed.
pub fn compile(kernel: &Kernel, config: &PennyConfig) -> Result<Protected, CompileError> {
    compile_observed(kernel, config, &penny_obs::NULL)
}

/// [`compile`] with an observability sink: each pass of the pipeline
/// records a [`penny_obs::SpanKind::Pass`] span (wall time + counters)
/// into `rec`. With a disabled recorder (e.g. [`penny_obs::NULL`]) this
/// is exactly `compile`: no clock reads, no span allocation, identical
/// output.
///
/// Under [`OverwritePolicy::Auto`] both overwrite variants compile and
/// both record spans — the duplicated passes represent real compile
/// work; aggregate by pass label when reporting.
///
/// # Errors
///
/// Same failure modes as [`compile`].
pub fn compile_observed(
    kernel: &Kernel,
    config: &PennyConfig,
    rec: &dyn Recorder,
) -> Result<Protected, CompileError> {
    penny_ir::validate(kernel).map_err(CompileError::Validate)?;
    if config.lint {
        crate::check::check_lint(kernel, config)?;
    }
    let mut protected = match config.protection {
        Protection::None => Ok(Protected::passthrough(kernel.clone())),
        Protection::IGpu => compile_igpu(kernel, config, rec),
        Protection::Bolt | Protection::Penny => match config.overwrite {
            OverwritePolicy::Auto => {
                // Paper §6.3: compile both ways, keep the cheaper. A
                // variant that cannot protect every register (e.g.
                // renaming on loop-carried registers) simply loses. An
                // internal error is not a limit of one variant, so the
                // other must not hide it: it fails the compile, and as
                // soon as renaming reports it, alternation is skipped.
                let renamed =
                    compile_checkpointed(kernel, config, OverwritePolicy::Renaming, rec);
                if let Err(e @ CompileError::Internal(_)) = renamed {
                    return Err(e);
                }
                let colored =
                    compile_checkpointed(kernel, config, OverwritePolicy::Alternation, rec);
                match (renamed, colored) {
                    (_, Err(e @ CompileError::Internal(_))) => Err(e),
                    (Ok(r), Ok(c)) => {
                        Ok(if score(&r.stats) <= score(&c.stats) { r } else { c })
                    }
                    (Ok(r), Err(_)) => Ok(r),
                    (Err(_), Ok(c)) => Ok(c),
                    (Err(e), Err(_)) => Err(e),
                }
            }
            policy => compile_checkpointed(kernel, config, policy, rec),
        },
    }?;
    if config.vulnerability {
        // Static fault-site classification of the final artifact — the
        // exact kernel the simulator will decode, so the map's program
        // points line up with the decoded stream one-for-one. Under
        // `OverwritePolicy::Auto` only the winning variant is analyzed.
        let timer = SpanTimer::start(rec);
        let map = penny_analysis::VulnerabilityMap::compute(&protected.kernel);
        let c = map.counts();
        record(
            rec,
            SpanKind::Pass,
            &kernel.name,
            "vulnerability",
            timer.elapsed_ns(),
            &[
                ("cells", c.cells),
                ("dead", c.dead),
                ("overwritten", c.overwritten),
                ("read_first", c.read_first),
                ("protected_points", c.protected_points),
                ("atomics_fenced", map.atomics_fenced() as u64),
                ("has_regions", map.has_regions() as u64),
            ],
        );
        protected.vulnerability = Some(map);
    }
    Ok(protected)
}

/// Compiles every kernel of a module under one configuration.
///
/// # Errors
///
/// Fails on the first kernel that does not compile, naming it.
pub fn compile_module(
    module: &penny_ir::Module,
    config: &PennyConfig,
) -> Result<Vec<Protected>, CompileError> {
    module
        .kernels
        .iter()
        .map(|k| {
            compile(k, config).map_err(|e| match e {
                CompileError::Unsupported(m) => {
                    CompileError::Unsupported(format!("kernel `{}`: {m}", k.name))
                }
                other => other,
            })
        })
        .collect()
}

/// Cost estimate for auto-selection: committed checkpoint count scaled
/// by the occupancy loss (lower is better).
fn score(stats: &CompileStats) -> f64 {
    let occ = stats.occupancy.max(1e-6);
    (1.0 + stats.committed as f64) / occ
}

fn compile_igpu(
    kernel: &Kernel,
    config: &PennyConfig,
    rec: &dyn Recorder,
) -> Result<Protected, CompileError> {
    let mut k = kernel.clone();
    let timer = SpanTimer::start(rec);
    form_regions(&mut k, config.alias);
    let rm = RegionMap::compute(&k);
    record(
        rec,
        SpanKind::Pass,
        &kernel.name,
        "region-formation",
        timer.elapsed_ns(),
        &[("regions", rm.len() as u64)],
    );
    let timer = SpanTimer::start(rec);
    let igpu = apply_igpu_renaming(&mut k, &rm);
    record(
        rec,
        SpanKind::Pass,
        &kernel.name,
        "igpu-renaming",
        timer.elapsed_ns(),
        &[("renamed_defs", igpu.renamed_defs as u64), ("skipped", igpu.skipped as u64)],
    );
    penny_ir::validate(&k).map_err(CompileError::Validate)?;
    // Skipped loop-carried anti-dependences are a documented gap of the
    // renaming transformation, so idempotence only holds when none were
    // skipped.
    if config.validate && igpu.skipped == 0 {
        crate::check::check_idempotence(&k, config.alias)
            .map_err(CompileError::Invariant)?;
    }
    let regions = rm
        .markers()
        .iter()
        .map(|&(id, _, marker)| RegionInfo { id, marker, restores: Vec::new() })
        .collect();
    // Renamed defs extend live ranges (the paper's mechanism); skipped
    // loop-carried anti-dependences would need copies/spills in a real
    // iGPU build, so they count against pressure as well.
    let pressure = register_pressure(&k) + igpu.renamed_defs + igpu.skipped;
    let stats = CompileStats {
        regions: rm.len() as u32,
        regs_per_thread: pressure,
        occupancy: config.machine.occupancy(
            config.launch.threads_per_block(),
            pressure,
            k.shared_bytes,
        ),
        ..CompileStats::default()
    };
    Ok(Protected {
        kernel: k,
        regions,
        slots: HashMap::new(),
        setup: Vec::new(),
        shared_ckpt_base: 0,
        shared_ckpt_bytes: 0,
        global_slot_count: 0,
        stats,
        vulnerability: None,
    })
}

fn compile_checkpointed(
    kernel: &Kernel,
    config: &PennyConfig,
    overwrite: OverwritePolicy,
    rec: &dyn Recorder,
) -> Result<Protected, CompileError> {
    let mut k = kernel.clone();
    let subject = kernel.name.as_str();

    // ---- Region formation. ----
    let timer = SpanTimer::start(rec);
    form_regions(&mut k, config.alias);
    let rm = RegionMap::compute(&k);
    record(
        rec,
        SpanKind::Pass,
        subject,
        "region-formation",
        timer.elapsed_ns(),
        &[("regions", rm.len() as u64)],
    );

    // ---- Checkpoint placement. ----
    {
        let timer = SpanTimer::start(rec);
        let lv = Liveness::compute(&k);
        let rd = ReachingDefs::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        let edges = lup_edges(&k, &rm, &live, &rd);
        let (placements, bcp) = if config.bcp {
            let loops = LoopInfo::compute(&k);
            bimodal_placement_counted(&k, &rm, &loops, &edges)
        } else {
            (eager_placement(&edges), BcpStats::default())
        };
        insert_checkpoints(&mut k, &placements);
        let hoisted = crate::checkpoint::hoist_ckpts_above_atomics(&mut k);
        record(
            rec,
            SpanKind::Pass,
            subject,
            "checkpoint-placement",
            timer.elapsed_ns(),
            &[
                ("lup_edges", edges.len() as u64),
                ("placements", placements.len() as u64),
                ("bcp_augmenting_paths", bcp.augmenting_paths),
                ("bcp_cover_cost", bcp.cover_cost),
                ("hoisted_above_atomics", hoisted as u64),
            ],
        );
    }

    // ---- Overwrite prevention. ----
    let timer = SpanTimer::start(rec);
    let mut renamed_defs = 0u32;
    let mut adjustment_blocks = 0u32;
    let prone_count;
    match overwrite {
        OverwritePolicy::Renaming => {
            let out = apply_renaming(&mut k, &rm);
            renamed_defs = out.renamed_defs;
            prone_count = out.prone.len() as u32;
            if !out.failed.is_empty() {
                // Fall back to alternation for the stragglers. Renaming
                // may have changed the CFG view: recompute the map.
                let rm2 = RegionMap::compute(&k);
                let alt = apply_alternation(&mut k, &rm2);
                adjustment_blocks = alt.adjustment_blocks;
                if !alt.failed.is_empty() {
                    return Err(CompileError::Unsupported(format!(
                        "overwrite prevention failed for {:?}",
                        alt.failed
                    )));
                }
            }
        }
        OverwritePolicy::Alternation => {
            let out = apply_alternation(&mut k, &rm);
            adjustment_blocks = out.adjustment_blocks;
            prone_count = out.prone.len() as u32;
            if !out.failed.is_empty() {
                // Adjustment blocks changed the CFG: recompute the map
                // before the renaming fallback.
                let rm2 = RegionMap::compute(&k);
                let ren = apply_renaming(&mut k, &rm2);
                renamed_defs = ren.renamed_defs;
                if !ren.failed.is_empty() {
                    return Err(CompileError::Unsupported(format!(
                        "overwrite prevention failed for {:?}",
                        ren.failed
                    )));
                }
            }
        }
        OverwritePolicy::None => {
            let lv = Liveness::compute(&k);
            let live = region_live_ins(&k, &rm, &lv);
            prone_count =
                crate::overwrite::overwrite_prone_regs(&k, &rm, &live).len() as u32;
        }
        OverwritePolicy::Auto => unreachable!("resolved by compile()"),
    }
    // Adjustment blocks change the CFG: recompute the region map view.
    let rm = RegionMap::compute(&k);
    record(
        rec,
        SpanKind::Pass,
        subject,
        "overwrite-prevention",
        timer.elapsed_ns(),
        &[
            ("renamed_defs", renamed_defs as u64),
            ("adjustment_blocks", adjustment_blocks as u64),
            ("prone_regs", prone_count as u64),
        ],
    );

    // ---- Static invariant validation (instrumented kernel). ----
    // All checkpoints are still present here, so region idempotence,
    // checkpoint coverage, and slot consistency must hold
    // unconditionally.
    if config.validate {
        let timer = SpanTimer::start(rec);
        crate::check::check_instrumented(&k, &rm, config.alias)
            .map_err(CompileError::Invariant)?;
        record(
            rec,
            SpanKind::Pass,
            subject,
            "validation",
            timer.elapsed_ns(),
            &[("checkpoints", k.checkpoints().len() as u64)],
        );
    }

    // ---- Pruning. ----
    // Provisional slot indices are a function of the checkpoint set, so
    // capture them *before* pruned checkpoints are removed — the same
    // view `prune` and `build_restores` use internally.
    let timer = SpanTimer::start(rec);
    let provisional = crate::pruning::provisional_slots(&k);
    let prune_out: PruneOutcome = prune(&k, &rm, config.pruning);
    let mut committed_set: HashSet<InstId> =
        prune_out.decisions.committed.iter().copied().collect();
    record(
        rec,
        SpanKind::Pass,
        subject,
        "pruning",
        timer.elapsed_ns(),
        &[
            ("total", prune_out.total as u64),
            ("pruned_basic", prune_out.basic_pruned_count as u64),
            ("pruned_optimal", prune_out.optimal_pruned_count as u64),
            ("committed", committed_set.len() as u64),
        ],
    );

    // ---- Recovery metadata (may force checkpoints back in). ----
    let timer = SpanTimer::start(rec);
    let (regions, forced) = build_restores(&k, &rm, &committed_set)?;
    let forced_commits = forced.len() as u64;
    for id in forced {
        committed_set.insert(id);
    }
    if rec.enabled() {
        let slot_restores = regions
            .iter()
            .flat_map(|r| &r.restores)
            .filter(|(_, r)| matches!(r, Restore::Slot(_)))
            .count() as u64;
        let slice_restores = regions
            .iter()
            .flat_map(|r| &r.restores)
            .filter(|(_, r)| matches!(r, Restore::Slice(_)))
            .count() as u64;
        record(
            rec,
            SpanKind::Pass,
            subject,
            "restore-metadata",
            timer.elapsed_ns(),
            &[
                ("forced_commits", forced_commits),
                ("slot_restores", slot_restores),
                ("slice_restores", slice_restores),
            ],
        );
    }
    // ---- Static invariant validation (final pruning decisions). ----
    // Checked after restore construction so the forced-commit safety net
    // is part of what gets validated.
    if config.validate {
        crate::check::check_pruning(&k, &rm, &committed_set)
            .map_err(CompileError::Invariant)?;
    }
    // Remove pruned checkpoints from the code.
    for (loc, id, _) in k.checkpoints().into_iter().rev() {
        if !committed_set.contains(&id) {
            k.block_mut(loc.block).insts.remove(loc.idx);
        }
    }

    // ---- Storage assignment. ----
    let timer = SpanTimer::start(rec);
    let pressure_estimate = register_pressure(&k) + renamed_defs;
    let storage = assign_storage(
        &k,
        config.storage,
        &config.machine,
        &config.launch,
        pressure_estimate,
    );
    record(
        rec,
        SpanKind::Pass,
        subject,
        "storage-assignment",
        timer.elapsed_ns(),
        &[
            ("shared_slots", (storage.slots.len() as u64) - storage.global_slots as u64),
            ("global_slots", storage.global_slots as u64),
            ("shared_bytes", storage.shared_bytes as u64),
        ],
    );

    // ---- Rewrite slot references in slices to the final assignment. ----
    let remap: HashMap<SlotRef, SlotRef> = provisional
        .iter()
        .filter_map(|(key, prov)| storage.slots.get(key).map(|fin| (*prov, *fin)))
        .collect();
    let regions = remap_regions(regions, &remap)?;

    // ---- Code generation. ----
    let timer = SpanTimer::start(rec);
    let shared_ckpt_base = k.shared_bytes;
    let lowered = lower_checkpoints(
        &mut k,
        &storage.slots,
        shared_ckpt_base,
        &config.launch,
        config.low_opts,
    );
    penny_ir::validate(&k).map_err(CompileError::Validate)?;
    // Soundness precondition of the recovery runtime, checked on the
    // final lowered code unconditionally: a register read between an
    // atomic and its region boundary would let a detection replay the
    // atomic's non-idempotent memory update. Checkpoint hoisting clears
    // the window for every value defined before the atomic; only a
    // kernel that needs the atomic's *own result* checkpointed (its
    // value lives past the boundary) still trips this.
    crate::check::check_atomic_windows(&k).map_err(CompileError::Unsupported)?;

    let pressure = register_pressure(&k) + renamed_defs;
    let stats = CompileStats {
        total_checkpoints: prune_out.total,
        pruned_basic: prune_out.basic_pruned_count,
        pruned_additional: prune_out
            .optimal_pruned_count
            .saturating_sub(prune_out.basic_pruned_count),
        committed: committed_set.len() as u32,
        regions: rm.len() as u32,
        overwrite_prone_regs: prone_count,
        adjustment_blocks,
        regs_per_thread: pressure,
        ckpt_shared_bytes: storage.shared_bytes,
        ckpt_global_slots: storage.global_slots,
        occupancy: config.machine.occupancy(
            config.launch.threads_per_block(),
            pressure,
            k.shared_bytes + storage.shared_bytes,
        ),
    };
    record(
        rec,
        SpanKind::Pass,
        subject,
        "codegen",
        timer.elapsed_ns(),
        &[
            ("setup_regs", lowered.setup.len() as u64),
            ("regs_per_thread", pressure as u64),
            ("occupancy_ppm", (stats.occupancy * 1e6) as u64),
        ],
    );
    Ok(Protected {
        kernel: k,
        regions,
        slots: storage.slots,
        setup: lowered.setup,
        shared_ckpt_base,
        shared_ckpt_bytes: storage.shared_bytes,
        global_slot_count: storage.global_slots,
        stats,
        vulnerability: None,
    })
}

/// Builds per-region restore plans. Returns the region table plus any
/// checkpoints that had to be forced back to committed because a valid
/// slice could not be constructed for a pruned reaching checkpoint.
fn build_restores(
    kernel: &Kernel,
    rm: &RegionMap,
    committed: &HashSet<InstId>,
) -> Result<(Vec<RegionInfo>, Vec<InstId>), CompileError> {
    let lv = Liveness::compute(kernel);
    let live_ins = region_live_ins(kernel, rm, &lv);
    let reach_cp = reaching_checkpoints(kernel, rm);
    let rd = ReachingDefs::compute(kernel);
    let aa = AliasAnalysis::compute(kernel, penny_analysis::AliasOptions::default());
    let cd = ControlDeps::compute(kernel);
    let region_of = rm.by_inst(kernel);
    let provisional = crate::pruning::provisional_slots(kernel);
    let slot_fn = |reg: VReg, color: Color| -> SlotRef {
        provisional
            .get(&(reg, color.index()))
            .copied()
            .unwrap_or(SlotRef { space: penny_ir::MemSpace::Global, index: u32::MAX })
    };
    let assume_fn = |id: InstId| {
        if committed.contains(&id) {
            Assume::Committed
        } else {
            Assume::Pruned
        }
    };
    let builder = SliceBuilder::new(
        kernel, &rd, &aa, &cd, &slot_fn, &assume_fn, &reach_cp, &region_of,
    );
    let rc = restore_colors(kernel, rm, &live_ins);
    // The slot color a live-in is restored from. A marker block the
    // entry never reaches has no colors and keeps slot color K0; a
    // reachable live-in without one consistent color cannot be restored
    // from a slot.
    let slot_color = |region: RegionId, reg: VReg| match rc.get(&(region, reg)) {
        Some(Some(color)) => Ok(*color),
        Some(None) => Err(CompileError::Internal(format!(
            "live-in {reg} of {region} has no consistent checkpoint slot"
        ))),
        None => Ok(Color::K0),
    };

    let mut forced: Vec<InstId> = Vec::new();
    let mut regions = Vec::new();
    for &(region, marker_loc, marker_id) in rm.markers() {
        let mut restores = Vec::new();
        let mut live: Vec<VReg> = live_ins[region.index()].clone();
        live.sort();
        for reg in live {
            let reaching = reach_cp.get(&(region, reg)).cloned().unwrap_or_default();
            let all_committed =
                !reaching.is_empty() && reaching.iter().all(|id| committed.contains(id));
            if all_committed {
                let color = slot_color(region, reg)?;
                restores.push((reg, Restore::Slot(slot_fn(reg, color))));
                continue;
            }
            // Some reaching checkpoint was pruned (or none exists):
            // restore via slice.
            match builder.build(reg, marker_loc, &[region], &HashSet::new()) {
                BuildResult::Built(slice) => restores.push((reg, Restore::Slice(slice))),
                _ => {
                    // Force the pruned reaching checkpoints back in.
                    if reaching.is_empty() {
                        return Err(CompileError::Internal(format!(
                            "live-in {reg} of {region} has no checkpoint and no slice"
                        )));
                    }
                    forced.extend(reaching.iter().copied());
                    let color = slot_color(region, reg)?;
                    restores.push((reg, Restore::Slot(slot_fn(reg, color))));
                }
            }
        }
        regions.push(RegionInfo { id: region, marker: marker_id, restores });
    }
    Ok((regions, forced))
}

/// Rewrites provisional slot references to the final storage assignment.
fn remap_regions(
    regions: Vec<RegionInfo>,
    remap: &HashMap<SlotRef, SlotRef>,
) -> Result<Vec<RegionInfo>, CompileError> {
    let map_slot = |s: SlotRef| -> Result<SlotRef, CompileError> {
        remap.get(&s).copied().ok_or_else(|| {
            CompileError::Internal(format!("slot {s:?} missing from final assignment"))
        })
    };
    regions
        .into_iter()
        .map(|r| {
            let restores = r
                .restores
                .into_iter()
                .map(|(reg, restore)| {
                    let restore = match restore {
                        Restore::Slot(s) => Restore::Slot(map_slot(s)?),
                        Restore::Slice(mut slice) => {
                            for inst in &mut slice.insts {
                                if let crate::meta::SliceInst::LoadSlot(s) = inst {
                                    *s = map_slot(*s)?;
                                }
                            }
                            Restore::Slice(slice)
                        }
                    };
                    Ok((reg, restore))
                })
                .collect::<Result<Vec<_>, CompileError>>()?;
            Ok(RegionInfo { restores, ..r })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    const KERNEL: &str = r#"
        .kernel t .params A N
        entry:
            mov.u32 %r0, %tid.x
            ld.param.u32 %r1, [A]
            ld.param.u32 %r2, [N]
            shl.u32 %r3, %r0, 2
            add.u32 %r4, %r1, %r3
            ld.global.u32 %r5, [%r4]
            add.u32 %r6, %r5, %r2
            st.global.u32 [%r4], %r6
            st.global.u32 [%r4], %r0
            ret
    "#;

    #[test]
    fn penny_pipeline_produces_valid_kernel() {
        let k = parse_kernel(KERNEL).expect("parse");
        let p = compile(&k, &PennyConfig::penny()).expect("compile");
        penny_ir::validate(&p.kernel).expect("output valid");
        assert!(p.stats.regions >= 2);
        assert!(!p.regions.is_empty());
        // No checkpoint pseudo-ops survive lowering.
        assert!(p.kernel.checkpoints().is_empty());
    }

    #[test]
    fn every_live_in_has_a_restore() {
        let k = parse_kernel(KERNEL).expect("parse");
        let p = compile(&k, &PennyConfig::penny()).expect("compile");
        for region in &p.regions {
            for (reg, restore) in &region.restores {
                match restore {
                    Restore::Slot(s) => {
                        assert!(s.index != u32::MAX, "unassigned slot for {reg}")
                    }
                    Restore::Slice(slice) => assert!(!slice.is_empty()),
                }
            }
        }
    }

    #[test]
    fn bolt_commits_more_than_penny() {
        let k = parse_kernel(KERNEL).expect("parse");
        let penny = compile(&k, &PennyConfig::penny()).expect("penny");
        let bolt = compile(&k, &PennyConfig::bolt_global()).expect("bolt");
        assert!(
            bolt.stats.committed >= penny.stats.committed,
            "bolt {} vs penny {}",
            bolt.stats.committed,
            penny.stats.committed
        );
    }

    #[test]
    fn unprotected_is_passthrough() {
        let k = parse_kernel(KERNEL).expect("parse");
        let p = compile(&k, &PennyConfig::unprotected()).expect("compile");
        assert_eq!(p.kernel.num_insts(), k.num_insts());
        assert_eq!(p.stats.total_checkpoints, 0);
    }

    #[test]
    fn igpu_adds_no_stores() {
        let k = parse_kernel(KERNEL).expect("parse");
        let p = compile(&k, &PennyConfig::igpu()).expect("compile");
        let base_stores = k.locs().filter(|(_, i)| i.op.writes_memory()).count();
        let igpu_stores = p.kernel.locs().filter(|(_, i)| i.op.writes_memory()).count();
        assert_eq!(base_stores, igpu_stores, "iGPU must not add stores");
    }

    #[test]
    fn stats_track_pruning_effect() {
        let k = parse_kernel(KERNEL).expect("parse");
        let penny = compile(&k, &PennyConfig::penny()).expect("penny");
        assert!(penny.stats.total_checkpoints > 0);
        assert!(
            penny.stats.committed <= penny.stats.total_checkpoints,
            "{:?}",
            penny.stats
        );
        let noopt = compile(&k, &PennyConfig::penny_no_opt()).expect("no-opt");
        assert!(noopt.stats.committed >= penny.stats.committed);
    }

    #[test]
    fn occupancy_is_populated() {
        let k = parse_kernel(KERNEL).expect("parse");
        let p = compile(&k, &PennyConfig::penny()).expect("compile");
        assert!(p.stats.occupancy > 0.0 && p.stats.occupancy <= 1.0);
    }
}
