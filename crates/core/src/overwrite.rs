//! Checkpoint-overwrite prevention (paper §6.3).
//!
//! GPUs have no store buffer, so a checkpoint of `r` taken inside a
//! region that *also consumes* an earlier checkpoint of `r` would clobber
//! the value recovery still needs (paper figure 4). Two software schemes
//! fix this:
//!
//! * **register renaming** — split the live range: the overwriting
//!   definition gets a fresh register (and therefore a fresh checkpoint
//!   slot). Mirrors the paper's live-range extension; costs register
//!   pressure, which we surface as a pressure penalty.
//! * **2-coloring storage alternation** — each overwrite-prone register
//!   gets two slots (`K0`/`K1`); checkpoints in consecutive
//!   checkpointing regions alternate. Color conflicts at control-flow
//!   merges are repaired with adjustment blocks carrying dummy
//!   checkpoints (paper figure 5).

use std::collections::{HashMap, HashSet};

use penny_analysis::{AnalysisCtx, Liveness, ReachingDefs};
use penny_ir::{
    BlockId, Color, IdWatermark, InstId, Kernel, Loc, Op, Operand, RegionId, VReg,
};

use crate::regionmap::RegionMap;

/// Registers whose checkpoints may overwrite a still-needed checkpoint:
/// `r` such that some region both has `r` live-in and contains a
/// checkpoint of `r` (paper figure 4's condition).
pub fn overwrite_prone_regs(
    kernel: &Kernel,
    rm: &RegionMap,
    live_ins: &[Vec<VReg>],
) -> Vec<VReg> {
    overwrite_prone_regs_with(kernel, &rm.by_inst(kernel), live_ins)
}

/// [`overwrite_prone_regs`] against a prebuilt instruction→region table
/// (the renaming loop reuses one table across iterations; renaming
/// never adds, removes, or moves instructions, so the table stays
/// valid).
fn overwrite_prone_regs_with(
    kernel: &Kernel,
    table: &HashMap<InstId, Vec<RegionId>>,
    live_ins: &[Vec<VReg>],
) -> Vec<VReg> {
    let mut prone = HashSet::new();
    for (_, inst) in kernel.locs() {
        if !inst.is_ckpt() {
            continue;
        }
        let reg = inst.ckpt_reg();
        for region in table.get(&inst.id).into_iter().flatten() {
            if live_ins[region.index()].contains(&reg) {
                prone.insert(reg);
            }
        }
    }
    let mut v: Vec<VReg> = prone.into_iter().collect();
    v.sort();
    v
}

/// Memoized analyses for one overwrite-prevention invocation.
///
/// The pass interleaves queries and edits; recomputing every analysis
/// per loop iteration used to dominate compile time. Caching obeys a
/// two-tier invalidation contract:
///
/// * [`PassCtx::invalidate_values`] — a def-use web was renamed.
///   Liveness, reaching defs, region live-ins, and the prone set are
///   stale; the instruction→region table is **not** (renaming rewrites
///   operands in place, so no instruction is added, removed, or moved
///   and no region marker changes).
/// * No invalidation at all for failed attempts: a [`RenameResult::Failed`]
///   probe returns before any mutation, so every cached result stays
///   valid — exactly the iterations the old code paid full recomputation
///   for.
struct PassCtx<'rm> {
    rm: &'rm RegionMap,
    actx: AnalysisCtx,
    live_ins: Option<Vec<Vec<VReg>>>,
    prone: Option<Vec<VReg>>,
    by_inst: Option<HashMap<InstId, Vec<RegionId>>>,
}

impl<'rm> PassCtx<'rm> {
    fn new(rm: &'rm RegionMap) -> PassCtx<'rm> {
        PassCtx { rm, actx: AnalysisCtx::new(), live_ins: None, prone: None, by_inst: None }
    }

    /// Ensures live-ins and the prone set are current.
    fn refresh(&mut self, kernel: &Kernel) {
        if self.prone.is_some() {
            return;
        }
        self.ensure_by_inst(kernel);
        let lv = self.actx.liveness(kernel);
        let live_ins = crate::checkpoint::region_live_ins(kernel, self.rm, lv);
        let prone = overwrite_prone_regs_with(
            kernel,
            self.by_inst.as_ref().expect("ensured"),
            &live_ins,
        );
        self.live_ins = Some(live_ins);
        self.prone = Some(prone);
    }

    fn ensure_by_inst(&mut self, kernel: &Kernel) {
        if self.by_inst.is_none() {
            self.by_inst = Some(self.rm.by_inst(kernel));
        }
    }

    /// The kernel's def-use sets changed (a rename landed): drop every
    /// value-dependent result, keep the instruction→region table.
    fn invalidate_values(&mut self) {
        self.actx.invalidate();
        self.live_ins = None;
        self.prone = None;
    }
}

/// Outcome of an overwrite-prevention pass.
#[derive(Debug, Clone, Default)]
pub struct OverwriteOutcome {
    /// Registers that needed protection.
    pub prone: Vec<VReg>,
    /// Renamed definitions (renaming scheme): count used as a register-
    /// pressure penalty, mirroring the paper's live-range extension.
    pub renamed_defs: u32,
    /// Adjustment blocks inserted (alternation scheme).
    pub adjustment_blocks: u32,
    /// Registers the scheme could not handle (caller must fall back).
    pub failed: Vec<VReg>,
}

/// Applies register renaming to every overwrite-prone register.
///
/// For each checkpoint of a prone register `r` inside a region that has
/// `r` live-in, the *defining* instruction of that checkpointed value is
/// renamed to a fresh register (uses rewired), giving the new value its
/// own checkpoint slot. Definitions whose def-use web cannot be renamed
/// in isolation (merged uses, guarded defs) are reported in `failed`.
pub fn apply_renaming(kernel: &mut Kernel, rm: &RegionMap) -> OverwriteOutcome {
    let mut outcome = OverwriteOutcome::default();
    // Registers created by renaming: if one becomes prone again the
    // register is genuinely loop-carried and renaming cannot converge —
    // hand it to the alternation fallback instead of chasing it.
    let mut created: HashSet<VReg> = HashSet::new();
    // Iterate: each successful rename can change liveness; failed
    // attempts mutate nothing, so the cached analyses carry over.
    let mut ctx = PassCtx::new(rm);
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts < 4096, "renaming did not converge");
        ctx.refresh(kernel);
        let prone = ctx.prone.clone().expect("refreshed");
        if outcome.prone.is_empty() {
            outcome.prone = prone.clone();
        }
        let candidate = prone
            .iter()
            .copied()
            .find(|r| !outcome.failed.contains(r) && !created.contains(r));
        let Some(reg) = candidate else {
            // Renamed registers that came back prone need the fallback.
            for r in prone {
                if created.contains(&r) && !outcome.failed.contains(&r) {
                    outcome.failed.push(r);
                }
            }
            break;
        };
        match rename_one(kernel, &mut ctx, reg, &mut created) {
            RenameResult::Renamed => {
                outcome.renamed_defs += 1;
                ctx.invalidate_values();
            }
            RenameResult::Failed => outcome.failed.push(reg),
        }
    }
    outcome
}

enum RenameResult {
    Renamed,
    Failed,
}

/// Renames one offending definition of `reg`.
fn rename_one(
    kernel: &mut Kernel,
    ctx: &mut PassCtx<'_>,
    reg: VReg,
    created: &mut HashSet<VReg>,
) -> RenameResult {
    ctx.ensure_by_inst(kernel);
    let rd = ctx.actx.reachdefs(kernel);
    let table = ctx.by_inst.as_ref().expect("ensured");
    let live_ins = ctx.live_ins.as_ref().expect("refreshed");
    // Find a checkpoint of `reg` inside a region with `reg` live-in.
    let mut target_def: Option<InstId> = None;
    'outer: for (loc, inst) in kernel.locs() {
        if !inst.is_ckpt() || inst.ckpt_reg() != reg {
            continue;
        }
        let in_bad_region = table
            .get(&inst.id)
            .into_iter()
            .flatten()
            .any(|r| live_ins[r.index()].contains(&reg));
        if !in_bad_region {
            continue;
        }
        // The value being checkpointed: its reaching def(s) here.
        let defs = rd.reaching_defs_of(kernel, loc, reg);
        if defs.len() != 1 {
            return RenameResult::Failed;
        }
        target_def = Some(defs[0].inst);
        break 'outer;
    }
    let Some(def_id) = target_def else { return RenameResult::Failed };
    let result = rename_def_web(kernel, rd, def_id, reg);
    if matches!(result, RenameResult::Renamed) {
        // The freshest register is the one just allocated.
        created.insert(VReg(kernel.vreg_limit() - 1));
    }
    result
}

/// Renames definition `def_id` of `reg` and all uses it exclusively
/// reaches.
fn rename_def_web(
    kernel: &mut Kernel,
    rd: &ReachingDefs,
    def_id: InstId,
    reg: VReg,
) -> RenameResult {
    let def_loc = kernel.find_inst(def_id).expect("def present");
    if kernel.inst_at(def_loc).guard.is_some() {
        return RenameResult::Failed;
    }
    // Collect uses of `reg` reached by this def; every such use must be
    // reached *only* by this def.
    let mut use_sites: Vec<(Loc, UseKind)> = Vec::new();
    for b in kernel.block_ids().collect::<Vec<_>>() {
        let n = kernel.block(b).insts.len();
        for idx in 0..n {
            let loc = Loc { block: b, idx };
            let inst = kernel.inst_at(loc);
            let uses_reg = inst.srcs.iter().any(|o| o.as_reg() == Some(reg))
                || inst.guard.map(|g| g.pred == reg).unwrap_or(false);
            if !uses_reg {
                continue;
            }
            let reaching = rd.reaching_defs_of(kernel, loc, reg);
            let hits_def = reaching.iter().any(|d| d.inst == def_id);
            if !hits_def {
                continue;
            }
            if reaching.len() != 1 {
                return RenameResult::Failed;
            }
            use_sites.push((loc, UseKind::Inst));
        }
        // Terminator predicate use.
        if kernel.block(b).term.pred() == Some(reg) {
            let loc = Loc { block: b, idx: n };
            let reaching = rd.reaching_defs_of(kernel, loc, reg);
            if reaching.iter().any(|d| d.inst == def_id) {
                if reaching.len() != 1 {
                    return RenameResult::Failed;
                }
                use_sites.push((loc, UseKind::Terminator));
            }
        }
    }
    // Apply.
    let fresh = if kernel.is_pred(reg) { kernel.fresh_pred() } else { kernel.fresh_vreg() };
    let def_loc = kernel.find_inst(def_id).expect("def present");
    kernel.block_mut(def_loc.block).insts[def_loc.idx].dst = Some(fresh);
    for (loc, kind) in use_sites {
        match kind {
            UseKind::Inst => {
                let inst = &mut kernel.block_mut(loc.block).insts[loc.idx];
                for o in &mut inst.srcs {
                    if o.as_reg() == Some(reg) {
                        *o = Operand::Reg(fresh);
                    }
                }
                if let Some(g) = &mut inst.guard {
                    if g.pred == reg {
                        g.pred = fresh;
                    }
                }
            }
            UseKind::Terminator => {
                if let penny_ir::Terminator::Branch { pred, .. } =
                    &mut kernel.block_mut(loc.block).term
                {
                    *pred = fresh;
                }
            }
        }
    }
    RenameResult::Renamed
}

enum UseKind {
    Inst,
    Terminator,
}

/// Renames one definition's def-use web for the iGPU baseline; returns
/// `true` on success.
pub fn rename_def_for_igpu(
    kernel: &mut Kernel,
    rd: &ReachingDefs,
    def_id: InstId,
    reg: VReg,
) -> bool {
    matches!(rename_def_web(kernel, rd, def_id, reg), RenameResult::Renamed)
}

/// The `needed` component of the coloring state: which slot holds the
/// current region's live-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Needed {
    /// No checkpoint has executed yet.
    Empty,
    /// The live-in sits in this slot.
    Slot(Color),
    /// Paths disagree; any checkpoint before the next region marker
    /// (which resets `needed` from `holds`) is unresolvable.
    Poison,
}

/// Per-register coloring state for the alternation dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColorState {
    /// Color of the most recent checkpoint of the register.
    holds: Option<Color>,
    /// `holds` sampled at the last region boundary — the slot containing
    /// the current region's live-in, which must not be overwritten.
    needed: Needed,
}

impl ColorState {
    fn bottom() -> ColorState {
        ColorState { holds: None, needed: Needed::Empty }
    }

    /// Merge at a control-flow join: `holds` disagreement is a repairable
    /// conflict (handled by the caller); `needed` merges as a constraint
    /// union — `Empty` (no checkpoint yet, unconstrained) absorbs into
    /// the constrained side, and two different slots poison.
    fn merge(self, other: ColorState) -> ColorState {
        let needed = match (self.needed, other.needed) {
            (a, b) if a == b => a,
            (Needed::Empty, x) | (x, Needed::Empty) => x,
            _ => Needed::Poison,
        };
        ColorState { holds: self.holds.or(other.holds), needed }
    }

    /// `holds` values are compatible when equal or when one side has no
    /// checkpoint yet (adopting the other side's constraint is sound).
    fn holds_compatible(self, other: ColorState) -> bool {
        self.holds == other.holds || self.holds.is_none() || other.holds.is_none()
    }
}

/// Undo journal for the speculative CFG edits of one [`color_register`]
/// call.
///
/// Coloring mutates the CFG (edge splits carrying dummy checkpoints);
/// failed attempts used to be discarded by restoring a whole-kernel
/// clone taken up front. The journal records just enough to undo the
/// edits exactly — which edge each adjustment block was spliced into,
/// plus an [`IdWatermark`] so the id allocators (and the instruction and
/// register numbering of everything compiled afterwards) rewind too.
struct Journal {
    ids: IdWatermark,
    /// `(from, to, mid)` per [`Kernel::split_edge`], in application
    /// order. `mid` is always the block appended last at that point, and
    /// nothing else ever targets it, so undo is pop + un-rewire.
    splits: Vec<(BlockId, BlockId, BlockId)>,
}

impl Journal {
    fn mark(kernel: &Kernel) -> Journal {
        Journal { ids: kernel.id_watermark(), splits: Vec::new() }
    }

    /// [`Kernel::split_edge`], recorded for undo.
    fn split_edge(&mut self, kernel: &mut Kernel, from: BlockId, to: BlockId) -> BlockId {
        let mid = kernel.split_edge(from, to);
        self.splits.push((from, to, mid));
        mid
    }

    fn has_edits(&self) -> bool {
        !self.splits.is_empty()
    }

    /// Undoes every recorded edit (newest first) and rewinds the id
    /// allocators, restoring the kernel byte-for-byte to its state at
    /// [`Journal::mark`].
    fn rollback(self, kernel: &mut Kernel) {
        for (from, to, mid) in self.splits.into_iter().rev() {
            debug_assert_eq!(
                mid.index() + 1,
                kernel.num_blocks(),
                "journal undo out of order"
            );
            kernel.block_mut(from).term.map_targets(|t| if t == mid { to } else { t });
            kernel.blocks.pop();
        }
        kernel.rollback_ids(self.ids);
    }
}

/// Incrementally maintained instruction→region table shared across
/// coloring attempts.
///
/// [`color_register`] needs the table once per round, and every conflict
/// round used to trigger a full `RegionMap::compute` + `by_inst` rebuild
/// over a CFG that grows with each repair — the single hottest loop of
/// the whole pipeline. Both edit kinds the coloring performs have exact
/// O(1) incremental updates:
///
/// * **edge split** ([`CfgCache::note_split`]) — the adjustment block
///   carries no region marker, so it is a pass-through node: every
///   existing block's least-fixpoint solution is unchanged, and the new
///   block's entry state is exactly the split edge's source-exit state.
///   Its dummy checkpoint lives in precisely those regions.
/// * **dummy insert** ([`CfgCache::note_insert`]) — inserting an
///   instruction changes no block's entry state; the new checkpoint's
///   regions are the point query at its location.
///
/// Rewriting a checkpoint's color never touches the table (same
/// instructions, same regions). Only a journal rollback — which removes
/// blocks — invalidates it, and that costs one rebuild on next use.
#[derive(Default)]
struct CfgCache {
    state: Option<CfgState>,
    /// Reusable buffers for [`color_round`]; pure scratch space, always
    /// valid (never invalidated with the table).
    scratch: ColorScratch,
}

/// Scratch buffers for the coloring fixpoint. A failing attempt runs up
/// to 64 rounds, each of which needs the post-order, the predecessor
/// lists, and two per-block state vectors; reusing the allocations
/// across rounds (and across attempts) removes the dominant per-round
/// constant factor.
#[derive(Default)]
struct ColorScratch {
    order: Vec<BlockId>,
    preds: Vec<Vec<BlockId>>,
    visited: Vec<bool>,
    stack: Vec<(BlockId, usize)>,
    in_states: Vec<Option<ColorState>>,
    outs: Vec<Option<(ColorState, Option<ColorState>)>>,
}

struct CfgState {
    /// Possible current regions at each block entry (mirrors
    /// `RegionMap::block_in` for the current kernel).
    block_in: Vec<penny_analysis::BitSet>,
    /// Instruction id → possible regions (mirrors `RegionMap::by_inst`).
    table: HashMap<InstId, Vec<RegionId>>,
}

impl CfgCache {
    fn table(&mut self, kernel: &Kernel) -> &HashMap<InstId, Vec<RegionId>> {
        let state = self.state.get_or_insert_with(|| {
            let rm = crate::regionmap::RegionMap::compute(kernel);
            CfgState { block_in: rm.block_in_sets().to_vec(), table: rm.by_inst(kernel) }
        });
        &state.table
    }

    /// Registers the edge split `from -> mid` (with `mid`'s dummy
    /// checkpoint `cp`) in the cached solution.
    fn note_split(&mut self, kernel: &Kernel, from: BlockId, mid: BlockId, cp: InstId) {
        let Some(state) = self.state.as_mut() else { return };
        let ext = crate::regionmap::RegionMap::exit_state(
            kernel,
            from,
            &state.block_in[from.index()],
        );
        debug_assert_eq!(mid.index(), state.block_in.len(), "mid must be the newest block");
        state.table.insert(cp, ext.iter().map(|i| RegionId(i as u32)).collect());
        state.block_in.push(ext);
    }

    /// Registers a dummy checkpoint `cp` inserted at `loc` (no CFG
    /// change) in the cached solution.
    fn note_insert(&mut self, kernel: &Kernel, loc: Loc, cp: InstId) {
        let Some(state) = self.state.as_mut() else { return };
        let mut s = state.block_in[loc.block.index()].clone();
        for inst in &kernel.block(loc.block).insts[..loc.idx] {
            if let Some(r) = inst.region_entry() {
                s.clear();
                s.insert(r.index());
            }
        }
        state.table.insert(cp, s.iter().map(|i| RegionId(i as u32)).collect());
    }

    fn invalidate(&mut self) {
        self.state = None;
    }
}

/// Applies 2-coloring storage alternation to all overwrite-prone
/// registers, inserting adjustment blocks at conflicts.
///
/// Returns the outcome; `failed` lists registers whose conflicts could
/// not be repaired with dummy checkpoints alone (the caller falls back
/// to renaming for those).
pub fn apply_alternation(kernel: &mut Kernel, rm: &RegionMap) -> OverwriteOutcome {
    let lv = Liveness::compute(kernel);
    let live_ins = crate::checkpoint::region_live_ins(kernel, rm, &lv);
    let prone = overwrite_prone_regs(kernel, rm, &live_ins);
    let mut outcome =
        OverwriteOutcome { prone: prone.clone(), ..OverwriteOutcome::default() };
    // One instruction→region table serves every attempt; color_register
    // journals its own edits and rolls them back on failure, so failed
    // attempts no longer cost a whole-kernel clone + restore.
    let mut cfg = CfgCache::default();
    for reg in prone {
        match color_register(kernel, reg, &live_ins, &mut cfg) {
            Some(adjustments) => outcome.adjustment_blocks += adjustments,
            None => match escalate_with_dummies(kernel, rm, reg, &live_ins, &mut cfg) {
                Some(adjustments) => outcome.adjustment_blocks += adjustments,
                None => outcome.failed.push(reg),
            },
        }
    }
    outcome
}

/// Escalation for registers a plain 2-coloring cannot handle: a region
/// that checkpoints `reg` follows itself around a loop, so the number of
/// checkpointing regions along the cycle is odd and no static coloring
/// alternates correctly. Adding a dummy checkpoint right after the entry
/// marker of a *non-checkpointing* region flips the cycle parity — it
/// saves exactly that region's live-in value, so it is always safe.
/// Dummies are added one marker at a time (each changes parity) until
/// the coloring succeeds.
fn escalate_with_dummies(
    kernel: &mut Kernel,
    rm: &RegionMap,
    reg: VReg,
    live_ins: &[Vec<VReg>],
    cfg: &mut CfgCache,
) -> Option<u32> {
    let candidates: Vec<penny_ir::InstId> = rm
        .markers()
        .iter()
        .filter(|&&(region, _, _)| live_ins[region.index()].contains(&reg))
        .map(|&(_, _, id)| id)
        .collect();
    let mut inserted = 0u32;
    for marker_id in candidates {
        // Skip markers whose region already starts with a checkpoint of
        // this register.
        let loc = kernel.find_inst(marker_id).expect("marker present");
        if kernel
            .block(loc.block)
            .insts
            .get(loc.idx + 1)
            .map(|i| i.is_ckpt() && i.ckpt_reg() == reg)
            .unwrap_or(false)
        {
            continue;
        }
        let cp = kernel.make_inst(
            Op::Ckpt(Color::K0),
            penny_ir::Type::U32,
            None,
            vec![Operand::Reg(reg)],
        );
        let cp_id = cp.id;
        let cp_loc = Loc { block: loc.block, idx: loc.idx + 1 };
        kernel.insert_at(cp_loc, cp);
        inserted += 1;
        cfg.note_insert(kernel, cp_loc, cp_id);
        // On failure the coloring edits roll back but the dummy stays
        // (it is safe on its own and the next attempt builds on it).
        if let Some(adjustments) = color_register(kernel, reg, live_ins, cfg) {
            return Some(adjustments + inserted);
        }
    }
    None
}

/// Colors all checkpoints of one register; returns the number of
/// adjustment blocks inserted, or `None` on unresolvable conflict.
///
/// Self-cleaning: on failure every CFG edit this call made is undone
/// (journal rollback), leaving the kernel — id allocators included —
/// exactly as it was on entry.
fn color_register(
    kernel: &mut Kernel,
    reg: VReg,
    live_ins: &[Vec<VReg>],
    cfg: &mut CfgCache,
) -> Option<u32> {
    let mut journal = Journal::mark(kernel);
    let mut adjustments = 0u32;
    // Transfer memo from any previous call is stale (different register,
    // possibly different kernel): drop it for this call.
    cfg.scratch.outs.clear();
    // Constrained checkpoints: those in a region whose live-ins include
    // the register (they must avoid the live-in slot and therefore
    // flip). Existing checkpoints never change regions during the loop
    // below (splits only add marker-free blocks), so the set is built
    // once; each conflict repair adds its own dummy if constrained.
    let in_live_region = |table: &HashMap<InstId, Vec<RegionId>>, id: InstId| {
        table.get(&id).into_iter().flatten().any(|region| {
            live_ins.get(region.index()).map(|l| l.contains(&reg)).unwrap_or(false)
        })
    };
    let mut constrained: HashSet<InstId> = {
        let table = cfg.table(kernel);
        kernel
            .checkpoints()
            .iter()
            .filter(|&&(_, id, r)| r == reg && in_live_region(table, id))
            .map(|&(_, id, _)| id)
            .collect()
    };
    let mut rounds = 0;
    loop {
        rounds += 1;
        if rounds > 64 {
            break;
        }
        match color_round(kernel, reg, &constrained, &mut cfg.scratch) {
            ColorRound::Done(colors) => {
                // Commit colors to the checkpoint instructions in one
                // walk (color rewrites keep the cached table valid).
                for blk in &mut kernel.blocks {
                    for inst in &mut blk.insts {
                        if let Some(&c) = colors.get(&inst.id) {
                            inst.op = Op::Ckpt(c);
                        }
                    }
                }
                return Some(adjustments);
            }
            ColorRound::Conflict { edge: (from, to), want } => {
                // Insert an adjustment block with a dummy checkpoint so
                // the incoming state matches `want` (paper figure 5).
                let adj = journal.split_edge(kernel, from, to);
                let cp = kernel.make_inst(
                    Op::Ckpt(want),
                    penny_ir::Type::U32,
                    None,
                    vec![Operand::Reg(reg)],
                );
                let cp_id = cp.id;
                kernel.block_mut(adj).insts.push(cp);
                adjustments += 1;
                cfg.note_split(kernel, from, adj, cp_id);
                if in_live_region(cfg.table(kernel), cp_id) {
                    constrained.insert(cp_id);
                }
            }
            ColorRound::Unresolvable => break,
        }
    }
    // Failed: drop this call's edits. The cached table may have been
    // rebuilt against them, so it goes too.
    if journal.has_edits() {
        cfg.invalidate();
    }
    journal.rollback(kernel);
    None
}

enum ColorRound {
    Done(HashMap<InstId, Color>),
    Conflict { edge: (BlockId, BlockId), want: Color },
    Unresolvable,
}

/// Memoized block transfer: the coloring out-state of `p` given the
/// current in-states. Transfer outputs depend only on the block's
/// in-state, so each block is re-transferred only when its in-state
/// changed since the cached entry — the fixpoint loop below queries
/// every predecessor of every block per sweep, which used to pay a full
/// transfer (plus a throwaway color sink) per query.
fn memo_out(
    kernel: &Kernel,
    reg: VReg,
    constrained: &HashSet<InstId>,
    cache: &mut [Option<(ColorState, Option<ColorState>)>],
    in_states: &[Option<ColorState>],
    p: BlockId,
) -> Option<Option<ColorState>> {
    let pin = in_states[p.index()]?;
    if let Some((cached_in, out)) = cache[p.index()] {
        if cached_in == pin {
            return Some(out);
        }
    }
    let out = transfer_colors(kernel, p, reg, pin, constrained, None);
    cache[p.index()] = Some((pin, out));
    Some(out)
}

/// One monotone pass of the coloring dataflow for `reg`.
fn color_round(
    kernel: &Kernel,
    reg: VReg,
    constrained: &HashSet<InstId>,
    scratch: &mut ColorScratch,
) -> ColorRound {
    let n = kernel.num_blocks();
    kernel.reverse_post_order_into(
        &mut scratch.visited,
        &mut scratch.stack,
        &mut scratch.order,
    );
    kernel.predecessors_into(&mut scratch.preds);
    scratch.in_states.clear();
    scratch.in_states.resize(n, None);
    // `outs` deliberately survives across rounds: within one
    // `color_register` call a repair only appends a fresh block (slot
    // pushed as `None` here) and existing blocks' instructions and the
    // constrained status of their checkpoints never change, so cached
    // transfers keyed by in-state stay exact. The caller clears it once
    // per call (the kernel and register differ between calls).
    scratch.outs.resize(n, None);
    let order = &scratch.order;
    let preds = &scratch.preds;
    let in_states = &mut scratch.in_states;
    let outs = &mut scratch.outs;
    in_states[kernel.entry.index()] = Some(ColorState::bottom());
    // Iterate to fixpoint; conflicts surface as differing pred states.
    for _ in 0..2 * n + 4 {
        let mut changed = false;
        for &b in order {
            let mut state: Option<ColorState> =
                if b == kernel.entry { Some(ColorState::bottom()) } else { None };
            let mut conflict: Option<(BlockId, ColorState)> = None;
            for &p in &preds[b.index()] {
                let Some(pout) = memo_out(kernel, reg, constrained, outs, in_states, p)
                else {
                    continue;
                };
                let Some(pout) = pout else { return ColorRound::Unresolvable };
                state = match state {
                    None => Some(pout),
                    Some(s) if s.holds_compatible(pout) => Some(s.merge(pout)),
                    Some(s) => {
                        conflict = Some((p, s));
                        Some(s)
                    }
                };
            }
            if let Some((bad_pred, want_state)) = conflict {
                // A dummy checkpoint on an edge may write color `c` iff
                // the live-in slot on that path is not `c` (an `Empty`
                // needed is unconstrained). Try to equalize `holds` by
                // putting a dummy on either side of the conflict.
                let legal = |needed: Needed, c: Color| match needed {
                    Needed::Slot(x) => x != c,
                    Needed::Empty => true,
                    Needed::Poison => false,
                };
                let pout = memo_out(kernel, reg, constrained, outs, in_states, bad_pred)
                    .expect("processed")
                    .expect("no poison past cp on processed path");
                if let Some(w) = want_state.holds {
                    if legal(pout.needed, w) {
                        return ColorRound::Conflict { edge: (bad_pred, b), want: w };
                    }
                }
                if let Some(&first) = preds[b.index()]
                    .iter()
                    .find(|&&p| p != bad_pred && in_states[p.index()].is_some())
                {
                    let fout = memo_out(kernel, reg, constrained, outs, in_states, first)
                        .expect("processed")
                        .expect("no poison past cp on processed path");
                    if let Some(w) = pout.holds {
                        if legal(fout.needed, w) {
                            return ColorRound::Conflict { edge: (first, b), want: w };
                        }
                    }
                }
                return ColorRound::Unresolvable;
            }
            if state != in_states[b.index()] {
                in_states[b.index()] = state;
                changed = true;
            }
        }
        if !changed {
            // Stable and conflict-free: collect colors from every
            // reachable block (the entry included — it has no preds and
            // is never transferred above).
            let mut colors: HashMap<InstId, Color> = HashMap::new();
            for &b in order {
                if let Some(pin) = in_states[b.index()] {
                    if transfer_colors(kernel, b, reg, pin, constrained, Some(&mut colors))
                        .is_none()
                    {
                        return ColorRound::Unresolvable;
                    }
                }
            }
            return ColorRound::Done(colors);
        }
    }
    // Fixpoint not reached within bound: treat as unresolvable.
    ColorRound::Unresolvable
}

fn flip_or_k0(needed: Needed) -> Option<Color> {
    match needed {
        Needed::Slot(c) => Some(c.flipped()),
        Needed::Empty => Some(Color::K0),
        Needed::Poison => None,
    }
}

/// Transfers the coloring state across a block; records chosen colors
/// into `colors` when given one (the fixpoint loop passes `None` — it
/// only needs out-states). Returns `None` if a constrained checkpoint is
/// reached with poisoned `needed`.
///
/// Constrained checkpoints (their region has the register live-in) must
/// avoid the live-in slot, i.e. write `flip(needed)`. Unconstrained ones
/// (the value is freshly defined in a region that did not need the old
/// one) keep the current color — flipping there would flip the loop
/// parity for no benefit.
fn transfer_colors(
    kernel: &Kernel,
    b: BlockId,
    reg: VReg,
    mut state: ColorState,
    constrained: &HashSet<InstId>,
    mut colors: Option<&mut HashMap<InstId, Color>>,
) -> Option<ColorState> {
    for inst in &kernel.block(b).insts {
        if inst.region_entry().is_some() {
            state.needed = match state.holds {
                Some(c) => Needed::Slot(c),
                None => Needed::Empty,
            };
        } else if inst.is_ckpt() && inst.ckpt_reg() == reg {
            let c = if constrained.contains(&inst.id) {
                flip_or_k0(state.needed)?
            } else {
                state.holds.unwrap_or(Color::K0)
            };
            if let Some(map) = colors.as_deref_mut() {
                map.insert(inst.id, c);
            }
            state.holds = Some(c);
        }
    }
    Some(state)
}

/// Computes, for every region and live-in register, the color of the
/// checkpoint slot holding its value at region entry (used by both the
/// recovery metadata and codegen).
///
/// A live-in maps to `None` when no one slot holds it on every path:
/// paths leave it in different slots, or some path reaches the region
/// without checkpointing it. That is an error only where a slot restore
/// needs the color, so the caller decides. A region whose marker block
/// the entry never reaches has no entries at all.
pub fn restore_colors(
    kernel: &Kernel,
    rm: &RegionMap,
    live_ins: &[Vec<VReg>],
) -> HashMap<(RegionId, VReg), Option<Color>> {
    // Forward dataflow: color of the latest checkpoint per register.
    let n = kernel.num_blocks();
    let nregs = kernel.vreg_limit() as usize;
    #[derive(Clone, PartialEq)]
    struct St(Vec<Option<Color>>);
    let transfer = |b: BlockId, st: &mut St| {
        for inst in &kernel.block(b).insts {
            if inst.is_ckpt() {
                st.0[inst.ckpt_reg().index()] = inst.ckpt_color();
            }
        }
    };
    let mut in_states: Vec<Option<St>> = vec![None; n];
    in_states[kernel.entry.index()] = Some(St(vec![None; nregs]));
    let order = kernel.reverse_post_order();
    let preds = kernel.predecessors();
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &order {
            let mut state: Option<St> =
                if b == kernel.entry { Some(St(vec![None; nregs])) } else { None };
            for &p in &preds[b.index()] {
                let Some(pin) = in_states[p.index()].clone() else { continue };
                let mut pout = pin;
                transfer(p, &mut pout);
                state = Some(match state {
                    None => pout,
                    Some(mut s) => {
                        // Merge: disagreement -> poison with None.
                        for i in 0..nregs {
                            if s.0[i] != pout.0[i] {
                                s.0[i] = None;
                            }
                        }
                        s
                    }
                });
            }
            if state != in_states[b.index()] {
                in_states[b.index()] = state;
                changed = true;
            }
        }
    }
    // Read off the state at each marker.
    let mut out = HashMap::new();
    for &(region, loc, _) in rm.markers() {
        let Some(mut st) = in_states[loc.block.index()].clone() else { continue };
        for inst in &kernel.block(loc.block).insts[..loc.idx] {
            if inst.is_ckpt() {
                st.0[inst.ckpt_reg().index()] = inst.ckpt_color();
            }
        }
        for &reg in &live_ins[region.index()] {
            out.insert((region, reg), st.0[reg.index()]);
        }
    }
    out
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

    /// Paper figure 4: r1 checkpointed, live into R2, then redefined and
    /// re-checkpointed within R2.
    fn figure4_kernel() -> Kernel {
        let mut k = parse_kernel(
            r#"
            .kernel f4
            entry:
                mov.u32 %r1, 5
                mov.u32 %r2, 49152
                ld.global.u32 %r3, [%r2]
                mov.u32 %r4, 7
                st.global.u32 [%r2], %r1
                add.u32 %r1, %r1, %r4
                ld.global.u32 %r4, [%r2+4]
                st.global.u32 [%r2+4], %r1
                st.global.u32 [%r2+8], %r4
                ret
        "#,
        )
        .expect("parse");
        form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        let lv = Liveness::compute(&k);
        let rd = ReachingDefs::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        let edges = lup_edges(&k, &rm, &live, &rd);
        let ps = eager_placement(&edges);
        insert_checkpoints(&mut k, &ps);
        k
    }

    #[test]
    fn figure4_register_is_overwrite_prone() {
        let k = figure4_kernel();
        let rm = RegionMap::compute(&k);
        let lv = Liveness::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        let prone = overwrite_prone_regs(&k, &rm, &live);
        assert!(prone.contains(&VReg(0)), "r1 (=%r1=VReg 0) must be prone: {prone:?}");
    }

    #[test]
    fn alternation_colors_flip_across_regions() {
        let mut k = figure4_kernel();
        let rm = RegionMap::compute(&k);
        let outcome = apply_alternation(&mut k, &rm);
        assert!(outcome.failed.is_empty(), "failed: {:?}", outcome.failed);
        penny_ir::validate(&k).expect("valid");
        // The checkpoints of the prone register must not all share one
        // color.
        let prone = outcome.prone[0];
        let colors: HashSet<Color> = k
            .locs()
            .filter(|(_, i)| i.is_ckpt() && i.ckpt_reg() == prone)
            .map(|(_, i)| i.ckpt_color().expect("color"))
            .collect();
        assert_eq!(colors.len(), 2, "expected both colors in use: {colors:?}");
    }

    #[test]
    fn alternation_gives_consistent_restore_colors() {
        let mut k = figure4_kernel();
        let rm = RegionMap::compute(&k);
        let outcome = apply_alternation(&mut k, &rm);
        assert!(outcome.failed.is_empty());
        let lv = Liveness::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        // Every live-in has a consistent slot.
        let rc = restore_colors(&k, &rm, &live);
        assert!(!rc.is_empty());
        for (r, regs) in live.iter().enumerate() {
            for &reg in regs {
                let region = RegionId(r as u32);
                assert!(
                    matches!(rc.get(&(region, reg)), Some(Some(_))),
                    "live-in {reg} of {region} has no color: {rc:?}"
                );
            }
        }
    }

    #[test]
    fn renaming_splits_the_offending_definition() {
        let mut k = figure4_kernel();
        let before_regs = k.vreg_limit();
        let rm = RegionMap::compute(&k);
        let outcome = apply_renaming(&mut k, &rm);
        assert!(outcome.failed.is_empty(), "failed: {:?}", outcome.failed);
        assert!(outcome.renamed_defs >= 1);
        assert!(k.vreg_limit() > before_regs, "fresh register expected");
        penny_ir::validate(&k).expect("valid after renaming");
        // After renaming, no register is overwrite-prone any more.
        let lv = Liveness::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        let prone = overwrite_prone_regs(&k, &rm, &live);
        assert!(prone.is_empty(), "still prone: {prone:?}");
    }

    #[test]
    fn nothing_to_do_when_no_checkpoints() {
        let mut k = parse_kernel(
            ".kernel n\nentry:\n mov.u32 %r0, 1\n st.global.u32 [%r0], %r0\n ret\n",
        )
        .expect("parse");
        form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        let out = apply_alternation(&mut k, &rm);
        assert!(out.prone.is_empty());
        assert_eq!(out.adjustment_blocks, 0);
    }

    #[test]
    fn failed_coloring_rolls_the_kernel_back_exactly() {
        // A coloring attempt that fails must leave no trace: same
        // printed kernel, same id allocators (checked via the ids the
        // next allocations hand out).
        let mut k = figure4_kernel();
        let rm = RegionMap::compute(&k);
        let lv = Liveness::compute(&k);
        let live = region_live_ins(&k, &rm, &lv);
        let before_text = k.to_string();
        let before_w = k.id_watermark();
        // An unknown register has no checkpoints: coloring trivially
        // succeeds with zero adjustments and must not touch the kernel.
        let mut cfg = CfgCache::default();
        let r = color_register(&mut k, VReg(999), &live, &mut cfg);
        assert_eq!(r, Some(0));
        assert_eq!(k.to_string(), before_text);
        assert_eq!(k.id_watermark(), before_w);
    }

    #[test]
    fn journal_rollback_restores_split_edges() {
        let mut k = parse_kernel(
            r#"
            .kernel j
            entry:
                mov.u32 %r0, 1
                setp.lt.u32 %p0, %r0, 2
                bra %p0, a, b
            a:
                jmp c
            b:
                jmp c
            c:
                ret
        "#,
        )
        .expect("parse");
        let before_text = k.to_string();
        let before_blocks = k.num_blocks();
        let mut j = Journal::mark(&k);
        let mid1 = j.split_edge(&mut k, BlockId(1), BlockId(3));
        // Split an edge out of the first adjustment block too, to cover
        // stacked undo.
        let _mid2 = j.split_edge(&mut k, mid1, BlockId(3));
        assert_eq!(k.num_blocks(), before_blocks + 2);
        j.rollback(&mut k);
        assert_eq!(k.num_blocks(), before_blocks);
        assert_eq!(k.to_string(), before_text);
        penny_ir::validate(&k).expect("valid after rollback");
    }
}
