//! Checkpoint pruning (paper §6.4): remove checkpoints whose values can
//! be reconstructed by a *recovery slice* at recovery time.
//!
//! * [`slice_builder`] — unified validation + slice construction.
//! * [`optimal`] — Penny's two-phase optimal pruning.
//! * [`basic`] — Bolt's random-search pruning (the baseline figure 12
//!   compares against).
//!
//! The top-level [`prune`] entry point runs either mode over a kernel
//! snapshot and returns decisions plus the statistics used by the
//! evaluation harness.

pub mod basic;
pub mod optimal;
pub mod slice_builder;

use std::collections::HashMap;

use penny_analysis::{AliasAnalysis, ControlDeps, Liveness, LoopInfo, ReachingDefs};
use penny_ir::{Color, InstId, Kernel, RegionId, VReg};

pub use optimal::{AssumeTable, Optimizer, PruneDecisions};
pub use slice_builder::{Assume, BuildResult, Constraint, SliceBuilder};

use crate::config::PruningMode;
use crate::cost::{checkpoint_cost, PRUNE_COST_BASE};
use crate::meta::SlotRef;
use crate::regionmap::RegionMap;

/// Pruning outcome with comparative statistics.
#[derive(Debug, Clone, Default)]
pub struct PruneOutcome {
    /// Final decisions actually applied.
    pub decisions: PruneDecisions,
    /// How many checkpoints Bolt's basic pruning removes on the same
    /// input (for figure 12; computed regardless of mode).
    pub basic_pruned_count: u32,
    /// How many checkpoints optimal pruning removes.
    pub optimal_pruned_count: u32,
    /// Total checkpoints considered.
    pub total: u32,
}

/// Provisional slot assignment used during pruning: slot indices are
/// synthesized per (register, color); storage assignment later maps them
/// to real locations. Slices store `SlotRef`s, so the pipeline keeps
/// this mapping consistent.
pub fn provisional_slots(kernel: &Kernel) -> HashMap<(VReg, usize), SlotRef> {
    let mut map = HashMap::new();
    let mut next = 0u32;
    let mut cps: Vec<(VReg, Color)> = kernel
        .locs()
        .filter(|(_, i)| i.is_ckpt())
        .map(|(_, i)| (i.ckpt_reg(), i.ckpt_color().expect("color")))
        .collect();
    cps.sort_by_key(|&(r, c)| (r, c.index()));
    cps.dedup();
    for (reg, color) in cps {
        map.entry((reg, color.index())).or_insert_with(|| {
            let s = SlotRef { space: penny_ir::MemSpace::Global, index: next };
            next += 1;
            s
        });
    }
    map
}

/// Runs pruning in the configured mode.
///
/// Returns the outcome; the caller removes the pruned instructions.
pub fn prune(kernel: &Kernel, rm: &RegionMap, mode: PruningMode) -> PruneOutcome {
    let checkpoints: Vec<InstId> =
        kernel.checkpoints().iter().map(|&(_, id, _)| id).collect();
    let total = checkpoints.len() as u32;
    if checkpoints.is_empty() {
        return PruneOutcome::default();
    }
    let rd = ReachingDefs::compute(kernel);
    let aa = AliasAnalysis::compute(kernel, penny_analysis::AliasOptions::default());
    let cd = ControlDeps::compute(kernel);
    let lv = Liveness::compute(kernel);
    let loops = LoopInfo::compute(kernel);
    let live_ins = crate::checkpoint::region_live_ins(kernel, rm, &lv);
    let reach_cp = slice_builder::reaching_checkpoints(kernel, rm);
    let region_of = rm.by_inst(kernel);
    let slots = provisional_slots(kernel);
    let slot_fn = move |reg: VReg, color: Color| -> SlotRef {
        slots
            .get(&(reg, color.index()))
            .copied()
            .unwrap_or(SlotRef { space: penny_ir::MemSpace::Global, index: u32::MAX })
    };

    // Consumers: regions whose entry-reaching checkpoint set for the
    // register contains this checkpoint and whose live-ins include it.
    let mut consumers: HashMap<InstId, Vec<RegionId>> = HashMap::new();
    let mut regs: HashMap<InstId, VReg> = HashMap::new();
    let mut costs: HashMap<InstId, u64> = HashMap::new();
    for &(loc, id, reg) in &kernel.checkpoints() {
        regs.insert(id, reg);
        costs.insert(id, checkpoint_cost(&loops, loc, PRUNE_COST_BASE));
        let mut cs = Vec::new();
        for &(region, _, _) in rm.markers() {
            if !live_ins[region.index()].contains(&reg) {
                continue;
            }
            if reach_cp.get(&(region, reg)).map(|set| set.contains(&id)).unwrap_or(false) {
                cs.push(region);
            }
        }
        consumers.insert(id, cs);
    }

    let run_with =
        |assume: &AssumeTable,
         f: &dyn Fn(&Optimizer<'_>, &AssumeTable) -> PruneDecisions| {
            let assume_fn = |id: InstId| assume.get(id);
            let builder = SliceBuilder::new(
                kernel, &rd, &aa, &cd, &slot_fn, &assume_fn, &reach_cp, &region_of,
            );
            let opt = Optimizer {
                builder: &builder,
                checkpoints: checkpoints.clone(),
                consumers: consumers.clone(),
                regs: regs.clone(),
                costs: costs.clone(),
            };
            f(&opt, assume)
        };

    // Always compute both for the statistics.
    let basic_seed = match mode {
        PruningMode::Basic { seed, .. } => seed,
        _ => 0xB017,
    };
    let basic_trials = match mode {
        PruningMode::Basic { trials, .. } => trials,
        _ => 64,
    };
    let basic_assume = AssumeTable::default();
    let basic_dec = run_with(&basic_assume, &|opt, assume| {
        basic::basic_prune(opt, kernel, assume, basic_seed, basic_trials)
    });
    let optimal_assume = AssumeTable::default();
    let optimal_dec =
        run_with(&optimal_assume, &|opt, assume| optimal::run(opt, kernel, assume));

    let basic_pruned_count = basic_dec.pruned.len() as u32;
    let optimal_pruned_count = optimal_dec.pruned.len() as u32;
    let decisions = match mode {
        PruningMode::None => {
            PruneDecisions { pruned: Vec::new(), committed: checkpoints.clone() }
        }
        PruningMode::Basic { .. } => basic_dec,
        PruningMode::Optimal => optimal_dec,
    };
    PruneOutcome { decisions, basic_pruned_count, optimal_pruned_count, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        eager_placement, insert_checkpoints, lup_edges, region_live_ins,
    };
    use crate::regions::form_regions;
    use penny_analysis::AliasOptions;
    use penny_ir::parse_kernel;

    /// Builds a kernel with regions + eager checkpoints from source.
    fn prepared(src: &str) -> (Kernel, RegionMap) {
        let mut k = parse_kernel(src).expect("parse");
        form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        let lv = Liveness::compute(&k);
        let rd = ReachingDefs::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        let edges = lup_edges(&k, &rm, &live, &rd);
        let ps = eager_placement(&edges);
        insert_checkpoints(&mut k, &ps);
        let rm = RegionMap::compute(&k);
        (k, rm)
    }

    /// Constant-derived live-ins are trivially prunable.
    #[test]
    fn optimal_prunes_constant_values() {
        let (k, rm) = prepared(
            r#"
            .kernel c .params A
            entry:
                mov.u32 %r0, 16
                mov.u32 %r1, %tid.x
                shl.u32 %r2, %r1, 2
                ld.param.u32 %r3, [A]
                add.u32 %r4, %r3, %r2
                ld.global.u32 %r5, [%r4]
                add.u32 %r6, %r5, %r0
                st.global.u32 [%r4], %r6
                ret
        "#,
        );
        let out = prune(&k, &rm, PruningMode::Optimal);
        // %r0 (const 16), %r1 (tid), %r2, %r3 (param), %r4 are all
        // recomputable; the loaded %r5 / %r6 depend on overwritten
        // memory so stay committed only if their checkpoints exist.
        assert!(out.total > 0);
        assert!(
            out.optimal_pruned_count >= out.total - 2,
            "expected most of {} pruned, got {}",
            out.total,
            out.optimal_pruned_count
        );
    }

    /// A value loaded from memory that is later overwritten cannot be
    /// reconstructed by re-loading: its checkpoint must stay.
    #[test]
    fn overwritten_memory_commits_the_checkpoint() {
        let (k, rm) = prepared(
            r#"
            .kernel m
            entry:
                mov.u32 %r0, 64
                ld.global.u32 %r1, [%r0]
                add.u32 %r2, %r1, 1
                st.global.u32 [%r0], %r2
                st.global.u32 [%r0+4], %r1
                ret
        "#,
        );
        let out = prune(&k, &rm, PruningMode::Optimal);
        // %r1's checkpoint (live into the store region) must be
        // committed: [%r0] is clobbered, so a re-load is wrong.
        let committed_regs: Vec<VReg> = out
            .decisions
            .committed
            .iter()
            .map(|&id| {
                let loc = k.find_inst(id).expect("cp");
                k.inst_at(loc).ckpt_reg()
            })
            .collect();
        assert!(committed_regs.contains(&VReg(1)), "{committed_regs:?}");
    }

    /// Loop-carried values (cyclic dependences) cannot be recomputed.
    #[test]
    fn loop_carried_value_commits() {
        let (k, rm) = prepared(
            r#"
            .kernel l .params A N
            entry:
                mov.u32 %r0, 0
                mov.u32 %r1, 1
                ld.param.u32 %r2, [A]
                ld.param.u32 %r3, [N]
                ld.global.u32 %r7, [%r2]
                jmp head
            head:
                mul.u32 %r1, %r1, %r7
                st.global.u32 [%r2], %r1
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, %r3
                bra %p0, head, exit
            exit:
                ret
        "#,
        );
        let out = prune(&k, &rm, PruningMode::Optimal);
        // %r1 (accumulator) and %r0 (counter) are loop-carried: their
        // in-loop checkpoints cannot all be pruned.
        let committed_regs: Vec<VReg> = out
            .decisions
            .committed
            .iter()
            .map(|&id| k.inst_at(k.find_inst(id).expect("cp")).ckpt_reg())
            .collect();
        assert!(
            committed_regs.contains(&VReg(1)) || committed_regs.contains(&VReg(0)),
            "loop-carried registers must keep checkpoints: {committed_regs:?}"
        );
    }

    #[test]
    fn optimal_beats_or_ties_basic() {
        let (k, rm) = prepared(
            r#"
            .kernel cmp .params A B N
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                ld.param.u32 %r2, [B]
                ld.param.u32 %r3, [N]
                shl.u32 %r4, %r0, 2
                add.u32 %r5, %r1, %r4
                add.u32 %r6, %r2, %r4
                ld.global.u32 %r7, [%r5]
                mul.u32 %r8, %r7, 3
                st.global.u32 [%r6], %r8
                add.u32 %r9, %r8, %r3
                st.global.u32 [%r6+4], %r9
                st.global.u32 [%r5], %r9
                ret
        "#,
        );
        let out = prune(&k, &rm, PruningMode::Optimal);
        assert!(
            out.optimal_pruned_count >= out.basic_pruned_count,
            "optimal {} < basic {}",
            out.optimal_pruned_count,
            out.basic_pruned_count
        );
        assert!(out.optimal_pruned_count > 0, "something must be prunable");
    }

    #[test]
    fn mode_none_keeps_everything() {
        let (k, rm) = prepared(
            r#"
            .kernel n
            entry:
                mov.u32 %r0, 64
                ld.global.u32 %r1, [%r0]
                st.global.u32 [%r0], %r1
                ret
        "#,
        );
        let out = prune(&k, &rm, PruningMode::None);
        assert!(out.decisions.pruned.is_empty());
        assert_eq!(out.decisions.committed.len() as u32, out.total);
    }

    /// Predicate-dependent values are reconstructed with a Select
    /// (paper figure 6's predicate dependence).
    #[test]
    fn branch_merged_value_is_prunable_via_select() {
        let (k, rm) = prepared(
            r#"
            .kernel s .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                setp.lt.u32 %p0, %r0, 16
                bra %p0, a, b
            a:
                mov.u32 %r2, 100
                jmp join
            b:
                mov.u32 %r2, 200
                jmp join
            join:
                shl.u32 %r3, %r0, 2
                add.u32 %r4, %r1, %r3
                ld.global.u32 %r5, [%r4]
                st.global.u32 [%r4], %r5
                add.u32 %r6, %r5, %r2
                st.global.u32 [%r4+4], %r6
                ret
        "#,
        );
        let out = prune(&k, &rm, PruningMode::Optimal);
        // %r2 (VReg 3; %p0 takes VReg 2) is 100 or 200 depending on
        // %p0: reconstructible, so its checkpoints prune.
        let pruned_regs: Vec<VReg> = out
            .decisions
            .pruned
            .iter()
            .map(|&id| k.inst_at(k.find_inst(id).expect("cp")).ckpt_reg())
            .collect();
        assert!(pruned_regs.contains(&VReg(3)), "{pruned_regs:?}");
    }
}
