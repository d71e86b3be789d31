//! Recovery-slice construction — the executable core of checkpoint
//! validation (paper §6.4).
//!
//! A checkpoint can be pruned when its value is *reconstructible* at
//! recovery time from things that survive an error: literals, special
//! registers, read-only or provably-unmodified memory, and **other
//! committed checkpoints**. Building the reconstruction program (the
//! *recovery slice*) and validating the checkpoint are the same
//! computation, so this module does both at once:
//!
//! * [`SliceBuilder::build`] returns `Built(slice)` (the paper's ϕV),
//!   `Invalid` (ϕI), or `Undecided(constraints)` (ϕU) listing the
//!   commit/prune decisions on other checkpoints that the result hinges
//!   on — exactly the *decision dependences* phase 2 orders.

use std::collections::{HashMap, HashSet};

use penny_analysis::{AliasAnalysis, ControlDeps, ReachingDefs};
use penny_ir::{InstId, Kernel, Lattice, Loc, MemSpace, Op, Operand, RegionId, VReg};

use crate::meta::{Slice, SliceInst, SlotRef};
use crate::regionmap::RegionMap;

/// A decision another checkpoint's pruning verdict depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Constraint {
    /// The referenced checkpoint must be committed (its slot is read).
    Commit(InstId),
    /// The referenced checkpoint must be pruned (it would clobber a slot
    /// the slice reads).
    Prune(InstId),
}

impl Constraint {
    /// The checkpoint the constraint talks about.
    pub fn inst(self) -> InstId {
        match self {
            Constraint::Commit(i) | Constraint::Prune(i) => i,
        }
    }
}

/// Assumed pruning decision for a checkpoint during validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assume {
    /// Decision not yet made.
    Undecided,
    /// Checkpoint stays in the code.
    Committed,
    /// Checkpoint is removed.
    Pruned,
}

/// Result of building a slice.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildResult {
    /// Reconstructible unconditionally; here is the slice.
    Built(Slice),
    /// Reconstructible iff these constraints hold.
    Undecided(Vec<Constraint>),
    /// Not reconstructible.
    Invalid,
}

/// Context shared by all slice constructions over one kernel snapshot.
pub struct SliceBuilder<'a> {
    kernel: &'a Kernel,
    rd: &'a ReachingDefs,
    aa: &'a AliasAnalysis,
    cd: &'a ControlDeps,
    /// Checkpoint slot assignment (register, color) — filled with
    /// provisional indices before storage assignment runs.
    slots: &'a dyn Fn(VReg, penny_ir::Color) -> SlotRef,
    /// Assumed decisions.
    assume: &'a dyn Fn(InstId) -> Assume,
    /// Reaching checkpoints per (region marker, register), precomputed.
    reach_cp: &'a HashMap<(RegionId, VReg), Vec<InstId>>,
    /// Instruction-id → possible regions table.
    region_of: &'a HashMap<InstId, Vec<RegionId>>,
}

impl<'a> SliceBuilder<'a> {
    /// Creates a builder over one kernel snapshot.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kernel: &'a Kernel,
        rd: &'a ReachingDefs,
        aa: &'a AliasAnalysis,
        cd: &'a ControlDeps,
        slots: &'a dyn Fn(VReg, penny_ir::Color) -> SlotRef,
        assume: &'a dyn Fn(InstId) -> Assume,
        reach_cp: &'a HashMap<(RegionId, VReg), Vec<InstId>>,
        region_of: &'a HashMap<InstId, Vec<RegionId>>,
    ) -> SliceBuilder<'a> {
        SliceBuilder { kernel, rd, aa, cd, slots, assume, reach_cp, region_of }
    }

    /// Builds a slice recomputing the value of register `reg` as seen at
    /// program point `at`, for recovery inside any of `consumers`.
    ///
    /// `forbidden` checkpoints may not be used as slot sources (a
    /// checkpoint may not justify itself).
    pub fn build(
        &self,
        reg: VReg,
        at: Loc,
        consumers: &[RegionId],
        forbidden: &HashSet<InstId>,
    ) -> BuildResult {
        let mut slice = Slice::default();
        let mut constraints: Vec<Constraint> = Vec::new();
        let mut visiting = HashSet::new();
        let mut memo: HashMap<(VReg, InstId), usize> = HashMap::new();
        match self.value_of(
            reg,
            at,
            consumers,
            forbidden,
            &mut slice,
            &mut constraints,
            &mut visiting,
            &mut memo,
        ) {
            Ok(_) if constraints.is_empty() => BuildResult::Built(slice),
            Ok(_) => {
                constraints.sort_by_key(|c| (c.inst(), matches!(c, Constraint::Prune(_))));
                constraints.dedup();
                BuildResult::Undecided(constraints)
            }
            Err(()) => BuildResult::Invalid,
        }
    }

    /// Emits slice code computing `reg`'s value at `at`; returns the
    /// slice index of the result.
    #[allow(clippy::too_many_arguments)]
    fn value_of(
        &self,
        reg: VReg,
        at: Loc,
        consumers: &[RegionId],
        forbidden: &HashSet<InstId>,
        slice: &mut Slice,
        constraints: &mut Vec<Constraint>,
        visiting: &mut HashSet<InstId>,
        memo: &mut HashMap<(VReg, InstId), usize>,
    ) -> Result<usize, ()> {
        let defs = self.rd.reaching_defs_of(self.kernel, at, reg);
        match defs.len() {
            0 => Err(()),
            1 => self.def_value(
                defs[0].inst,
                consumers,
                forbidden,
                slice,
                constraints,
                visiting,
                memo,
            ),
            2 => {
                // Predicate dependence: the two definitions are selected
                // by a branch (paper figure 6); emit a Select.
                let d0 = defs[0];
                let d1 = defs[1];
                let Some((branch, d0_then)) =
                    self.cd.deciding_branch(d0.loc.block, d1.loc.block)
                else {
                    return Err(());
                };
                let pred = match self.kernel.block(branch).term {
                    penny_ir::Terminator::Branch { pred, negated, .. } => (pred, negated),
                    _ => return Err(()),
                };
                // The predicate value at the branch point must itself be
                // recomputable *and* still be the value that made the
                // decision: require its reaching defs at `at` to match
                // those at the branch.
                let branch_point =
                    Loc { block: branch, idx: self.kernel.block(branch).insts.len() };
                let at_branch = self.rd.reaching_defs_of(self.kernel, branch_point, pred.0);
                let at_use = self.rd.reaching_defs_of(self.kernel, at, pred.0);
                if at_branch.len() != 1 || at_branch != at_use {
                    return Err(());
                }
                let p = self.value_of(
                    pred.0,
                    branch_point,
                    consumers,
                    forbidden,
                    slice,
                    constraints,
                    visiting,
                    memo,
                )?;
                let v0 = self.def_value(
                    d0.inst,
                    consumers,
                    forbidden,
                    slice,
                    constraints,
                    visiting,
                    memo,
                )?;
                let v1 = self.def_value(
                    d1.inst,
                    consumers,
                    forbidden,
                    slice,
                    constraints,
                    visiting,
                    memo,
                )?;
                // `pred==true` selects the `then_` side; `negated` swaps.
                let (tv, fv) = if d0_then != pred.1 { (v0, v1) } else { (v1, v0) };
                slice.insts.push(SliceInst::Select { pred: p, a: tv, b: fv });
                Ok(slice.insts.len() - 1)
            }
            _ => Err(()),
        }
    }

    /// Emits slice code for the value produced by definition `def_id`.
    #[allow(clippy::too_many_arguments)]
    fn def_value(
        &self,
        def_id: InstId,
        consumers: &[RegionId],
        forbidden: &HashSet<InstId>,
        slice: &mut Slice,
        constraints: &mut Vec<Constraint>,
        visiting: &mut HashSet<InstId>,
        memo: &mut HashMap<(VReg, InstId), usize>,
    ) -> Result<usize, ()> {
        let loc = self.kernel.find_inst(def_id).ok_or(())?;
        let inst = self.kernel.inst_at(loc);
        let reg = inst.def().ok_or(())?;
        if let Some(&idx) = memo.get(&(reg, def_id)) {
            return Ok(idx);
        }
        // Option A: a checkpoint of this very value whose slot survives.
        if let Some(idx) =
            self.slot_value(def_id, reg, consumers, forbidden, slice, constraints)?
        {
            memo.insert((reg, def_id), idx);
            return Ok(idx);
        }
        // Option B: recompute from operands.
        if inst.guard.is_some() {
            return Err(()); // conditional definition: not recomputable
        }
        if visiting.contains(&def_id) {
            return Err(()); // cyclic (loop-carried) dependence
        }
        visiting.insert(def_id);
        let result = self.recompute(
            loc,
            inst,
            consumers,
            forbidden,
            slice,
            constraints,
            visiting,
            memo,
        );
        visiting.remove(&def_id);
        let idx = result?;
        memo.insert((reg, def_id), idx);
        Ok(idx)
    }

    /// Tries to source the value from a checkpoint slot. `Ok(Some(idx))`
    /// on success (possibly adding constraints), `Ok(None)` when no
    /// usable checkpoint exists, `Err` never.
    fn slot_value(
        &self,
        def_id: InstId,
        reg: VReg,
        consumers: &[RegionId],
        forbidden: &HashSet<InstId>,
        slice: &mut Slice,
        constraints: &mut Vec<Constraint>,
    ) -> Result<Option<usize>, ()> {
        'cand: for (cp_loc, cp_id, cp_reg) in self.kernel.checkpoints() {
            if cp_reg != reg || forbidden.contains(&cp_id) {
                continue;
            }
            if (self.assume)(cp_id) == Assume::Pruned {
                continue;
            }
            // The checkpoint must save exactly this definition's value.
            let feeding = self.rd.reaching_defs_of(self.kernel, cp_loc, reg);
            if feeding.len() != 1 || feeding[0].inst != def_id {
                continue;
            }
            let color = self
                .kernel
                .inst_at(self.kernel.find_inst(cp_id).ok_or(())?)
                .ckpt_color()
                .ok_or(())?;
            // For every consumer region, this checkpoint must be the one
            // reaching the region entry for (reg): its slot then holds
            // the right value at recovery time.
            let mut local_constraints = Vec::new();
            for &r in consumers {
                match self.reach_cp.get(&(r, reg)) {
                    Some(set) if set.len() == 1 && set[0] == cp_id => {}
                    _ => continue 'cand,
                }
                // No same-slot writer may fire inside the consumer
                // region before recovery — require such writers pruned.
                for (_, other_id, other_reg) in self.kernel.checkpoints() {
                    if other_id == cp_id || other_reg != reg {
                        continue;
                    }
                    let other_loc = self.kernel.find_inst(other_id).ok_or(())?;
                    let other_color =
                        self.kernel.inst_at(other_loc).ckpt_color().ok_or(())?;
                    if other_color != color {
                        continue;
                    }
                    let regions =
                        self.region_of.get(&other_id).cloned().unwrap_or_default();
                    if regions.contains(&r) {
                        match (self.assume)(other_id) {
                            Assume::Pruned => {}
                            Assume::Committed => continue 'cand,
                            Assume::Undecided => {
                                local_constraints.push(Constraint::Prune(other_id))
                            }
                        }
                    }
                }
            }
            // Usable. Commit constraint unless already decided.
            match (self.assume)(cp_id) {
                Assume::Committed => {}
                Assume::Undecided => local_constraints.push(Constraint::Commit(cp_id)),
                Assume::Pruned => unreachable!("filtered above"),
            }
            constraints.extend(local_constraints);
            slice.insts.push(SliceInst::LoadSlot((self.slots)(reg, color)));
            return Ok(Some(slice.insts.len() - 1));
        }
        Ok(None)
    }

    /// Recomputes a definition from its operands.
    #[allow(clippy::too_many_arguments)]
    fn recompute(
        &self,
        loc: Loc,
        inst: &penny_ir::Inst,
        consumers: &[RegionId],
        forbidden: &HashSet<InstId>,
        slice: &mut Slice,
        constraints: &mut Vec<Constraint>,
        visiting: &mut HashSet<InstId>,
        memo: &mut HashMap<(VReg, InstId), usize>,
    ) -> Result<usize, ()> {
        let operand = |o: Operand,
                       slice: &mut Slice,
                       constraints: &mut Vec<Constraint>,
                       visiting: &mut HashSet<InstId>,
                       memo: &mut HashMap<(VReg, InstId), usize>|
         -> Result<usize, ()> {
            match o {
                Operand::Imm(v) => {
                    slice.insts.push(SliceInst::Const(v));
                    Ok(slice.insts.len() - 1)
                }
                Operand::Special(s) => {
                    slice.insts.push(SliceInst::Special(s));
                    Ok(slice.insts.len() - 1)
                }
                Operand::Reg(r) => self.value_of(
                    r,
                    loc,
                    consumers,
                    forbidden,
                    slice,
                    constraints,
                    visiting,
                    memo,
                ),
            }
        };
        match inst.op {
            Op::Mov => operand(inst.srcs[0], slice, constraints, visiting, memo),
            Op::Ld(space) => {
                if !self.memory_stable(inst.id, space) {
                    return Err(());
                }
                let base = operand(inst.srcs[0], slice, constraints, visiting, memo)?;
                slice.insts.push(SliceInst::LoadMem { space, base, offset: inst.offset });
                Ok(slice.insts.len() - 1)
            }
            Op::Setp(cmp) => {
                let a = operand(inst.srcs[0], slice, constraints, visiting, memo)?;
                let b = operand(inst.srcs[1], slice, constraints, visiting, memo)?;
                slice.insts.push(SliceInst::Setp { cmp, ty: inst.ty, a, b });
                Ok(slice.insts.len() - 1)
            }
            Op::Selp => {
                let a = operand(inst.srcs[0], slice, constraints, visiting, memo)?;
                let b = operand(inst.srcs[1], slice, constraints, visiting, memo)?;
                let p = operand(inst.srcs[2], slice, constraints, visiting, memo)?;
                slice.insts.push(SliceInst::Select { pred: p, a, b });
                Ok(slice.insts.len() - 1)
            }
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::MulHi
            | Op::Mad
            | Op::Div
            | Op::Rem
            | Op::Min
            | Op::Max
            | Op::Neg
            | Op::Abs
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not
            | Op::Shl
            | Op::Shr
            | Op::Sra
            | Op::Cvt
            | Op::Sqrt
            | Op::Rsqrt
            | Op::Rcp
            | Op::Ex2
            | Op::Lg2
            | Op::Sin
            | Op::Cos => {
                let mut args = Vec::with_capacity(inst.srcs.len());
                for &s in &inst.srcs {
                    args.push(operand(s, slice, constraints, visiting, memo)?);
                }
                slice.insts.push(SliceInst::Alu {
                    op: inst.op,
                    ty: inst.ty,
                    ty2: inst.ty2,
                    args,
                });
                Ok(slice.insts.len() - 1)
            }
            // Atomics, stores, barriers, pseudo ops: not value-producing
            // in a recomputable way.
            _ => Err(()),
        }
    }

    /// A loaded memory word is stable if its space is read-only or no
    /// may-aliasing store is *reachable from the load* (a store that
    /// already executed produced the value the load saw; only stores
    /// that can still run before recovery — i.e. forward-reachable ones —
    /// can clobber it). This is a sound approximation of the paper's
    /// "until the endpoints of the regions where cv is used" check.
    fn memory_stable(&self, load_id: InstId, space: MemSpace) -> bool {
        if space.is_read_only() {
            return true;
        }
        let Some(read) = self.aa.access(load_id) else { return false };
        let Some(load_loc) = self.kernel.find_inst(load_id) else { return false };
        !self.aa.accesses().iter().any(|w| {
            w.is_write
                && self.aa.may_antidep(read, w)
                && self.reachable_from(load_loc, w.loc)
        })
    }

    /// Forward reachability between program points (same-block later
    /// position, or any position in a CFG-successor-reachable block —
    /// which covers loop re-entry into the load's own block).
    fn reachable_from(&self, from: Loc, to: Loc) -> bool {
        if from.block == to.block && to.idx > from.idx {
            return true;
        }
        let mut seen = vec![false; self.kernel.num_blocks()];
        let mut stack: Vec<penny_ir::BlockId> =
            self.kernel.block(from.block).term.successors();
        while let Some(b) = stack.pop() {
            if seen[b.index()] {
                continue;
            }
            seen[b.index()] = true;
            if b == to.block {
                return true;
            }
            stack.extend(self.kernel.block(b).term.successors());
        }
        false
    }
}

/// Computes, for each (region, register), the set of checkpoints whose
/// value reaches the region's entry marker (the "latest checkpoint"
/// dataflow; all checkpoints assumed present).
pub fn reaching_checkpoints(
    kernel: &Kernel,
    rm: &RegionMap,
) -> HashMap<(RegionId, VReg), Vec<InstId>> {
    let none = vec![Reaching::default(); kernel.vreg_limit() as usize];
    let states =
        rm.states_at_markers(kernel, none.clone(), none, |inst, st: &mut Vec<Reaching>| {
            if inst.is_ckpt() {
                st[inst.ckpt_reg().index()] = Reaching(vec![inst.id]);
            }
        });
    let mut out = HashMap::new();
    for (region, _, st) in states {
        for (i, set) in st.into_iter().enumerate() {
            if !set.0.is_empty() {
                out.insert((region, VReg(i as u32)), set.0);
            }
        }
    }
    out
}

/// The checkpoints of one register that may reach a point, sorted; the
/// join is union.
#[derive(Debug, Clone, Default, PartialEq)]
struct Reaching(Vec<InstId>);

impl Lattice for Reaching {
    fn join(&mut self, other: &Reaching) -> bool {
        let before = self.0.len();
        for &id in &other.0 {
            if !self.0.contains(&id) {
                self.0.push(id);
            }
        }
        if self.0.len() == before {
            return false;
        }
        self.0.sort();
        true
    }
}
