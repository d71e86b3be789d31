//! Static protection-invariant validator.
//!
//! Penny's recovery guarantee (paper Appendix A) rests on four compiler
//! invariants. Nothing about a corrupted-output assert ten thousand
//! cycles into a simulation names the pass that broke it; this module
//! machine-checks each invariant right where it must hold and fails
//! compilation with a *named* diagnostic instead:
//!
//! 1. **Region idempotence** — no memory anti-dependence (load followed
//!    by a may-aliasing store) inside any region, so re-executing the
//!    region from its entry recomputes exactly the same state.
//! 2. **Checkpoint coverage** — on *every* path into a region, each of
//!    its live-in registers was checkpointed after its last definition,
//!    so the slot recovery reads holds the region-entry value.
//! 3. **Slot consistency** — every live-in sits in one well-defined
//!    checkpoint slot (all paths agree on the color), and no checkpoint
//!    executed inside a consuming region writes that same slot before
//!    recovery could read it (the figure-4/figure-5 overwrite hazard,
//!    adjustment blocks included).
//! 4. **Pruning soundness** — every checkpoint removed by pruning is
//!    redundant per the PDDG ϕV/ϕI/ϕU rules: a recovery slice can be
//!    built for each consumer region under the final commit/prune
//!    decisions.
//!
//! Invariants 1–3 are checked on the instrumented kernel (all
//! checkpoints still present, before pruning); invariant 4 on the final
//! pruning decisions. [`crate::compile`] runs both behind
//! [`crate::PennyConfig::validate`].

use std::collections::{HashMap, HashSet};

use penny_analysis::{AliasAnalysis, AliasOptions, ControlDeps, Liveness, ReachingDefs};
use penny_ir::{Color, InstId, Kernel, Lattice, Loc, RegionId, VReg};

use crate::checkpoint::region_live_ins;
use crate::meta::SlotRef;
use crate::pruning::slice_builder::{
    reaching_checkpoints, Assume, BuildResult, SliceBuilder,
};
use crate::regionmap::RegionMap;
use crate::regions::ActiveLoads;

/// The protection invariant a violation names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// No memory anti-dependence inside any region.
    RegionIdempotence,
    /// Every region live-in checkpointed after its last definition on
    /// every path into the region.
    CheckpointCoverage,
    /// Live-in checkpoint slots are unambiguous and never clobbered
    /// inside a consuming region.
    SlotConsistency,
    /// Every pruned checkpoint is redundant (a recovery slice exists).
    PruningSoundness,
    /// Every checkpointed register fits the fixed 32-bit checkpoint slot
    /// storage assignment sizes (`CKPT_SLOT_BYTES` per thread).
    SlotWidth,
}

impl Invariant {
    /// Stable diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::RegionIdempotence => "region-idempotence",
            Invariant::CheckpointCoverage => "checkpoint-coverage",
            Invariant::SlotConsistency => "slot-consistency",
            Invariant::PruningSoundness => "pruning-soundness",
            Invariant::SlotWidth => "slot-width",
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One named invariant violation with a precise diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant broke.
    pub invariant: Invariant,
    /// What broke, where.
    pub detail: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(invariant: Invariant, detail: String) -> InvariantViolation {
    InvariantViolation { invariant, detail }
}

/// Runs the kernel sanitizer ([`penny_analysis::lint_kernel`]) over the
/// *input* kernel, before any transformation. Launch-geometry hints come
/// from the configuration, so the race prover can enumerate lanes.
///
/// # Errors
///
/// Returns [`crate::CompileError::Lint`] listing every diagnostic (one
/// per line) when the sanitizer finds anything.
pub fn check_lint(
    kernel: &Kernel,
    config: &crate::PennyConfig,
) -> Result<(), crate::CompileError> {
    let opts =
        penny_analysis::LintOptions::for_launch(config.launch.block, config.launch.grid);
    let diags = penny_analysis::lint_kernel(kernel, &opts);
    if diags.is_empty() {
        return Ok(());
    }
    let joined = diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n");
    Err(crate::CompileError::Lint(joined))
}

/// Checks that no instruction reads a register between an atomic and
/// the region marker that follows it (the atomic-replay window).
///
/// Recovery rolls a warp back to its *current* region snapshot. Region
/// formation places a boundary right after every atomic so a rollback
/// never replays its read-modify-write — but only if no parity-checked
/// register read can fire inside the atomic-to-marker window. Checkpoint
/// hoisting ([`crate::checkpoint::hoist_ckpts_above_atomics`]) clears
/// the window of everything except a checkpoint of the atomic's own
/// result, which cannot be saved before the value exists: such kernels
/// are rejected here, because a detection at that store would replay a
/// non-idempotent memory update.
///
/// Run on the final lowered kernel, unconditionally (this is a
/// soundness precondition of the recovery runtime, not a debug check).
///
/// # Errors
///
/// Returns a message naming the atomic and the offending read.
pub fn check_atomic_windows(kernel: &Kernel) -> Result<(), String> {
    for b in kernel.block_ids() {
        let insts = &kernel.block(b).insts;
        for (i, inst) in insts.iter().enumerate() {
            if !matches!(inst.op, penny_ir::Op::Atom(..)) {
                continue;
            }
            for later in &insts[i + 1..] {
                if later.region_entry().is_some() {
                    break;
                }
                let reads_reg = later.guard.is_some()
                    || later.srcs.iter().any(|s| matches!(s, penny_ir::Operand::Reg(_)));
                if reads_reg {
                    return Err(format!(
                        "register read ({}) between atomic {} and its region \
                         boundary: a detection there would replay the atomic",
                        later.op.mnemonic(),
                        inst.op.mnemonic()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Checks invariants 1–3 on an instrumented kernel: region markers and
/// checkpoint pseudo-ops present, pruning not yet applied.
///
/// # Errors
///
/// Returns the first violation found, named after its invariant.
pub fn check_instrumented(
    kernel: &Kernel,
    rm: &RegionMap,
    alias: AliasOptions,
) -> Result<(), InvariantViolation> {
    check_idempotence(kernel, alias)?;
    let lv = Liveness::compute(kernel);
    let live_ins = region_live_ins(kernel, rm, &lv);
    check_coverage(kernel, rm, &live_ins)?;
    check_slot_consistency(kernel, rm, &live_ins)?;
    check_slot_width(kernel)?;
    Ok(())
}

/// Slot-width invariant: storage assignment allocates a fixed
/// [`crate::storage::CKPT_SLOT_BYTES`]-byte slot per thread per
/// checkpoint, so every checkpointed register must fit that width. The
/// 32-bit IR cannot currently express a wider register, but the check
/// keeps the sizing assumption explicit (and future-proof) rather than
/// silently truncating if wider types ever land.
///
/// # Errors
///
/// Names the checkpoint whose register type is wider than a slot.
pub fn check_slot_width(kernel: &Kernel) -> Result<(), InvariantViolation> {
    let slot_bits = 8 * crate::storage::CKPT_SLOT_BYTES;
    for (loc, _, reg) in kernel.checkpoints() {
        let ty = kernel.inst_at(loc).ty;
        if ty.width_bits() > slot_bits {
            return Err(violation(
                Invariant::SlotWidth,
                format!(
                    "checkpoint of {reg} at {loc:?} stores a {} value ({} bits) in a \
                     {slot_bits}-bit slot; storage assignment would truncate it",
                    ty,
                    ty.width_bits(),
                ),
            ));
        }
    }
    Ok(())
}

/// Invariant 1: no load→store memory anti-dependence without an
/// intervening region boundary.
///
/// # Errors
///
/// Names the endangered store and the load it would clobber.
pub fn check_idempotence(
    kernel: &Kernel,
    alias: AliasOptions,
) -> Result<(), InvariantViolation> {
    let aa = AliasAnalysis::compute(kernel, alias);
    let al = ActiveLoads::compute(kernel);
    // Walk each block and test every store against the active loads.
    for b in kernel.block_ids() {
        let mut active = al.entry[b.index()].clone();
        for (idx, inst) in kernel.block(b).insts.iter().enumerate() {
            if let Some(write) = aa.access(inst.id).filter(|_| inst.op.writes_memory()) {
                for load in active.iter().map(|li| al.loads[li]) {
                    let Some(read) = aa.access(load) else { continue };
                    if aa.may_antidep(read, write) {
                        let load_loc = kernel
                            .find_inst(load)
                            .map(|l| format!("{l:?}"))
                            .unwrap_or_else(|| "<gone>".into());
                        return Err(violation(
                            Invariant::RegionIdempotence,
                            format!(
                                "store `{}` at {:?} may overwrite memory read by load at \
                                 {} in the same region; re-execution would not be \
                                 idempotent",
                                inst.op.mnemonic(),
                                Loc { block: b, idx },
                                load_loc,
                            ),
                        ));
                    }
                }
            }
            al.step(inst, &mut active);
        }
    }
    Ok(())
}

/// Per-register checkpoint-freshness state for invariant 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fresh {
    /// Neither defined nor checkpointed yet on this path.
    Undef,
    /// Last definition on this path is followed by a checkpoint.
    Ckpted,
    /// Defined after the last checkpoint: the slot is stale.
    Stale,
}

/// Invariant 2: on every path into a region, each live-in was
/// checkpointed *after its last definition* — the slot recovery would
/// read holds the region-entry value.
///
/// # Errors
///
/// Names the region and register whose slot can be stale.
pub fn check_coverage(
    kernel: &Kernel,
    rm: &RegionMap,
    live_ins: &[Vec<VReg>],
) -> Result<(), InvariantViolation> {
    // Forward must-dataflow; merge = elementwise max, so one stale path
    // poisons the join (`Stale` is the top of the per-register lattice).
    let undef = vec![Fresh::Undef; kernel.vreg_limit() as usize];
    let states =
        rm.states_at_markers(kernel, undef.clone(), undef, |inst, st: &mut Vec<Fresh>| {
            if inst.is_ckpt() {
                st[inst.ckpt_reg().index()] = Fresh::Ckpted;
            } else if let Some(d) = inst.def() {
                // A guarded definition still overwrites on its taken
                // lanes, so it staledates the slot like any other.
                st[d.index()] = Fresh::Stale;
            }
        });
    for (region, loc, st) in states {
        for &reg in &live_ins[region.index()] {
            if st[reg.index()] == Fresh::Stale {
                return Err(violation(
                    Invariant::CheckpointCoverage,
                    format!(
                        "live-in {reg} of {region} reaches the region entry at {loc:?} \
                         with no checkpoint after its last definition on some path; \
                         recovery would restore a stale value"
                    ),
                ));
            }
        }
    }
    Ok(())
}

impl Lattice for Fresh {
    fn join(&mut self, other: &Fresh) -> bool {
        let changed = *other > *self;
        *self = (*self).max(*other);
        changed
    }
}

/// Per-register slot state for invariant 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// No checkpoint executed yet on this path.
    None,
    /// Latest checkpoint wrote this slot.
    One(Color),
    /// Paths disagree.
    Conflict,
}

impl Lattice for Slot {
    fn join(&mut self, other: &Slot) -> bool {
        let merged = match (*self, *other) {
            (a, b) if a == b => a,
            (Slot::None, x) | (x, Slot::None) => x,
            _ => Slot::Conflict,
        };
        let changed = merged != *self;
        *self = merged;
        changed
    }
}

/// Invariant 3: every live-in has one well-defined checkpoint slot at
/// its region entry, and no checkpoint inside a consuming region writes
/// that slot before recovery could read it.
///
/// # Errors
///
/// Names the ambiguous live-in or the clobbering checkpoint.
pub fn check_slot_consistency(
    kernel: &Kernel,
    rm: &RegionMap,
    live_ins: &[Vec<VReg>],
) -> Result<(), InvariantViolation> {
    let entry = Some(vec![Slot::None; kernel.vreg_limit() as usize]);
    let states =
        rm.states_at_markers(kernel, None, entry, |inst, st: &mut Option<Vec<Slot>>| {
            if let (Some(st), Some(c)) = (st, inst.ckpt_color()) {
                st[inst.ckpt_reg().index()] = Slot::One(c);
            }
        });
    // Slot of each live-in at its region entry.
    let mut restore_slot: HashMap<(RegionId, VReg), Color> = HashMap::new();
    for (region, loc, st) in states {
        let Some(st) = st else { continue };
        for &reg in &live_ins[region.index()] {
            match st[reg.index()] {
                Slot::Conflict => {
                    return Err(violation(
                        Invariant::SlotConsistency,
                        format!(
                            "live-in {reg} of {region} has no consistent checkpoint \
                             slot at {loc:?}: paths reach the region entry with its \
                             value in different slots"
                        ),
                    ));
                }
                Slot::One(c) => {
                    restore_slot.insert((region, reg), c);
                }
                // No checkpoint reaches the marker: either the register
                // is never defined on that path (benign) or invariant 2
                // already reported staleness.
                Slot::None => {}
            }
        }
    }
    // No checkpoint inside a consuming region may write the slot that
    // still holds the region's live-in (figure 4/5; this is exactly the
    // constraint overwrite prevention must discharge — adjustment-block
    // dummy checkpoints are instructions like any other here).
    let table = rm.by_inst(kernel);
    for (loc, id, reg) in kernel.checkpoints() {
        let Some(color) = kernel.inst_at(loc).ckpt_color() else { continue };
        for region in table.get(&id).into_iter().flatten() {
            if !live_ins[region.index()].contains(&reg) {
                continue;
            }
            if restore_slot.get(&(*region, reg)) == Some(&color) {
                return Err(violation(
                    Invariant::SlotConsistency,
                    format!(
                        "checkpoint of {reg} at {loc:?} writes slot {color:?} while \
                         executing inside {region}, whose live-in {reg} must remain \
                         readable from {color:?} until recovery; the checkpoint \
                         clobbers its own restore source"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Invariant 4: every checkpoint absent from `committed` is redundant —
/// for each region that would have consumed it, a recovery slice can be
/// built under the final decisions (the PDDG ϕV verdict; ϕI or a
/// dangling ϕU here means the pruner removed a load-bearing checkpoint).
///
/// # Errors
///
/// Names the pruned checkpoint and the consumer region left without a
/// restore path.
pub fn check_pruning(
    kernel: &Kernel,
    rm: &RegionMap,
    committed: &HashSet<InstId>,
) -> Result<(), InvariantViolation> {
    let rd = ReachingDefs::compute(kernel);
    let aa = AliasAnalysis::compute(kernel, AliasOptions::default());
    let cd = ControlDeps::compute(kernel);
    let lv = Liveness::compute(kernel);
    let live_ins = region_live_ins(kernel, rm, &lv);
    let reach_cp = reaching_checkpoints(kernel, rm);
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
    for (_, id, reg) in kernel.checkpoints() {
        if committed.contains(&id) {
            continue;
        }
        // Consumer regions: live-in of the register, reached by this
        // checkpoint's value.
        for &(region, marker_loc, _) in rm.markers() {
            if !live_ins[region.index()].contains(&reg) {
                continue;
            }
            let reaches =
                reach_cp.get(&(region, reg)).map(|set| set.contains(&id)).unwrap_or(false);
            if !reaches {
                continue;
            }
            // If every other reaching checkpoint is committed the slot
            // itself still serves the restore only when *all* reaching
            // checkpoints are committed — one pruned member forces a
            // slice (mirrors `build_restores`).
            let all_committed = reach_cp
                .get(&(region, reg))
                .map(|set| set.iter().all(|i| committed.contains(i)))
                .unwrap_or(false);
            if all_committed {
                continue;
            }
            match builder.build(reg, marker_loc, &[region], &HashSet::new()) {
                BuildResult::Built(_) => {}
                other => {
                    let kind = match other {
                        BuildResult::Invalid => "not reconstructible (ϕI)",
                        BuildResult::Undecided(_) => {
                            "left with unresolved decision dependences (ϕU)"
                        }
                        BuildResult::Built(_) => unreachable!(),
                    };
                    return Err(violation(
                        Invariant::PruningSoundness,
                        format!(
                            "checkpoint {id:?} of {reg} was pruned, but live-in {reg} \
                             of consumer {region} is {kind}: no recovery slice exists \
                             under the final commit/prune decisions"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}
