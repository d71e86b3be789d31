//! Kernels and modules.

use std::collections::HashSet;

use crate::block::{BasicBlock, Terminator};
use crate::inst::{Inst, Op, Operand};
use crate::types::{BlockId, InstId, Loc, Type, VReg};

/// A kernel parameter.
///
/// Parameters live in the read-only `.param` space at consecutive 4-byte
/// offsets and are loaded with `ld.param`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Source-level name.
    pub name: String,
    /// Byte offset within the param space.
    pub offset: u32,
}

/// A GPU kernel: parameters, basic blocks, and register bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Basic blocks; `BlockId(i)` indexes this vector.
    pub blocks: Vec<BasicBlock>,
    /// Entry block.
    pub entry: BlockId,
    /// Bytes of statically declared shared memory used by the program
    /// itself (before any checkpoint storage is added).
    pub shared_bytes: u32,
    next_vreg: u32,
    next_inst: u32,
    pred_regs: HashSet<VReg>,
}

impl Kernel {
    /// Creates an empty kernel with the given parameter names.
    pub fn new(name: impl Into<String>, params: &[&str]) -> Kernel {
        Kernel {
            name: name.into(),
            params: params
                .iter()
                .enumerate()
                .map(|(i, p)| Param { name: (*p).into(), offset: (i as u32) * 4 })
                .collect(),
            blocks: Vec::new(),
            entry: BlockId(0),
            shared_bytes: 0,
            next_vreg: 0,
            next_inst: 0,
            pred_regs: HashSet::new(),
        }
    }

    /// Appends an empty block and returns its id.
    pub fn add_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock::new(label));
        id
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Allocates a fresh general-purpose virtual register.
    pub fn fresh_vreg(&mut self) -> VReg {
        let r = VReg(self.next_vreg);
        self.next_vreg += 1;
        r
    }

    /// Allocates a fresh predicate register.
    pub fn fresh_pred(&mut self) -> VReg {
        let r = self.fresh_vreg();
        self.pred_regs.insert(r);
        r
    }

    /// Marks an existing register as a predicate register.
    pub fn mark_pred(&mut self, r: VReg) {
        self.pred_regs.insert(r);
        if r.0 >= self.next_vreg {
            self.next_vreg = r.0 + 1;
        }
    }

    /// Registers a register id allocated externally (e.g. by the parser).
    pub fn note_vreg(&mut self, r: VReg) {
        if r.0 >= self.next_vreg {
            self.next_vreg = r.0 + 1;
        }
    }

    /// Returns `true` if the register is a predicate register.
    pub fn is_pred(&self, r: VReg) -> bool {
        self.pred_regs.contains(&r)
    }

    /// Upper bound (exclusive) on allocated virtual register ids.
    pub fn vreg_limit(&self) -> u32 {
        self.next_vreg
    }

    /// Allocates a fresh instruction id.
    pub fn fresh_inst_id(&mut self) -> InstId {
        let id = InstId(self.next_inst);
        self.next_inst += 1;
        id
    }

    /// Builds a new instruction with a fresh id.
    pub fn make_inst(
        &mut self,
        op: Op,
        ty: Type,
        dst: Option<VReg>,
        srcs: Vec<Operand>,
    ) -> Inst {
        let id = self.fresh_inst_id();
        if matches!(op, Op::Setp(_)) {
            if let Some(d) = dst {
                self.pred_regs.insert(d);
            }
        }
        Inst::new(id, op, ty, dst, srcs)
    }

    /// Byte offset of a parameter by name.
    pub fn param_offset(&self, name: &str) -> Option<u32> {
        self.params.iter().find(|p| p.name == name).map(|p| p.offset)
    }

    /// Iterates all instructions with their locations, in block order.
    pub fn locs(&self) -> impl Iterator<Item = (Loc, &Inst)> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, blk)| {
            blk.insts
                .iter()
                .enumerate()
                .map(move |(i, inst)| (Loc { block: BlockId(b as u32), idx: i }, inst))
        })
    }

    /// The instruction at a location.
    pub fn inst_at(&self, loc: Loc) -> &Inst {
        &self.block(loc.block).insts[loc.idx]
    }

    /// Finds the current location of an instruction by stable id.
    ///
    /// Linear in program size; cache the result when scanning repeatedly.
    pub fn find_inst(&self, id: InstId) -> Option<Loc> {
        self.locs().find(|(_, i)| i.id == id).map(|(l, _)| l)
    }

    /// Inserts an instruction at a location, shifting later instructions.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of bounds.
    pub fn insert_at(&mut self, loc: Loc, inst: Inst) {
        let blk = self.block_mut(loc.block);
        assert!(loc.idx <= blk.insts.len(), "insert past end of {}", loc.block);
        blk.insts.insert(loc.idx, inst);
    }

    /// Total instruction count (terminators excluded).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// All checkpoint pseudo-instructions currently present.
    pub fn checkpoints(&self) -> Vec<(Loc, InstId, VReg)> {
        self.locs()
            .filter(|(_, i)| i.is_ckpt())
            .map(|(l, i)| (l, i.id, i.ckpt_reg()))
            .collect()
    }

    /// Reverse post-order over the CFG from the entry block.
    ///
    /// Unreachable blocks are appended afterwards in index order so the
    /// result always covers every block.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = Vec::new();
        let mut stack = Vec::new();
        let mut post = Vec::new();
        self.reverse_post_order_into(&mut visited, &mut stack, &mut post);
        post
    }

    /// [`Kernel::reverse_post_order`] into caller-owned buffers.
    ///
    /// Passes that recompute the order after every CFG edit (storage
    /// alternation re-colors after each adjustment-block insertion) reuse
    /// the buffers across calls instead of reallocating three vectors
    /// per recomputation. The result in `post` is identical to
    /// [`Kernel::reverse_post_order`].
    pub fn reverse_post_order_into(
        &self,
        visited: &mut Vec<bool>,
        stack: &mut Vec<(BlockId, usize)>,
        post: &mut Vec<BlockId>,
    ) {
        let n = self.num_blocks();
        visited.clear();
        visited.resize(n, false);
        post.clear();
        post.reserve(n);
        // Iterative DFS with explicit phase tracking.
        stack.clear();
        stack.push((self.entry, 0));
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = self.block(b).term.successors();
            if *next < succs.len() {
                let s = succs[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post.extend(
            visited
                .iter()
                .enumerate()
                .filter(|(_, &seen)| !seen)
                .map(|(i, _)| BlockId(i as u32)),
        );
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = Vec::new();
        self.predecessors_into(&mut preds);
        preds
    }

    /// [`Kernel::predecessors`] into a caller-owned buffer; the inner
    /// vectors are reused across calls, so a steady-state caller
    /// allocates nothing. The result is identical to
    /// [`Kernel::predecessors`].
    pub fn predecessors_into(&self, preds: &mut Vec<Vec<BlockId>>) {
        let n = self.num_blocks();
        preds.truncate(n);
        for p in preds.iter_mut() {
            p.clear();
        }
        preds.resize_with(n, Vec::new);
        for b in self.block_ids() {
            for s in self.block(b).term.successors() {
                preds[s.index()].push(b);
            }
        }
    }

    /// Snapshots the id allocators for speculative-edit rollback.
    ///
    /// A pass that tries an edit and may undo it (e.g. storage
    /// alternation's coloring attempts) must also roll the allocators
    /// back, or retried attempts would consume fresh ids and the final
    /// program would depend on how many attempts failed. Pair with
    /// [`Kernel::rollback_ids`].
    pub fn id_watermark(&self) -> IdWatermark {
        IdWatermark { vreg: self.next_vreg, inst: self.next_inst }
    }

    /// Rolls the id allocators back to a watermark taken earlier.
    ///
    /// The caller must already have removed every instruction and
    /// register reference allocated after the watermark; ids above it
    /// will be handed out again.
    ///
    /// # Panics
    ///
    /// Panics if the watermark is ahead of the current allocators
    /// (it was taken from a different kernel or after further edits).
    pub fn rollback_ids(&mut self, w: IdWatermark) {
        assert!(
            w.vreg <= self.next_vreg && w.inst <= self.next_inst,
            "watermark ahead of allocators"
        );
        self.pred_regs.retain(|r| r.0 < w.vreg);
        self.next_vreg = w.vreg;
        self.next_inst = w.inst;
    }

    /// Splits the edge `from -> to`, inserting a fresh empty block on it.
    ///
    /// Returns the new block's id. Used by storage alternation to host
    /// adjustment blocks (paper §6.3, figure 5).
    ///
    /// # Panics
    ///
    /// Panics if `from` has no edge to `to`.
    pub fn split_edge(&mut self, from: BlockId, to: BlockId) -> BlockId {
        let label = format!("adj_{}_{}", self.block(from).label, self.block(to).label);
        let mid = self.add_block(label);
        self.block_mut(mid).term = Terminator::Jump(to);
        let term = &mut self.block_mut(from).term;
        let mut rewired = false;
        term.map_targets(|t| {
            if t == to && !rewired {
                rewired = true;
                mid
            } else {
                t
            }
        });
        assert!(rewired, "no edge {from} -> {to}");
        mid
    }
}

/// Opaque snapshot of a kernel's id allocators (see
/// [`Kernel::id_watermark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdWatermark {
    vreg: u32,
    inst: u32,
}

/// A translation unit holding one or more kernels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Kernels in declaration order.
    pub kernels: Vec<Kernel>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MemSpace;

    fn diamond() -> Kernel {
        // entry -> (left | right) -> exit
        let mut k = Kernel::new("d", &["A"]);
        let entry = k.add_block("entry");
        let left = k.add_block("left");
        let right = k.add_block("right");
        let exit = k.add_block("exit");
        let p = k.fresh_pred();
        k.block_mut(entry).term =
            Terminator::Branch { pred: p, negated: false, then_: left, else_: right };
        k.block_mut(left).term = Terminator::Jump(exit);
        k.block_mut(right).term = Terminator::Jump(exit);
        k
    }

    #[test]
    fn rpo_of_diamond_visits_entry_first_exit_last() {
        let k = diamond();
        let rpo = k.reverse_post_order();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo[3], BlockId(3));
    }

    #[test]
    fn rpo_covers_unreachable_blocks() {
        let mut k = diamond();
        k.add_block("dead");
        let rpo = k.reverse_post_order();
        assert_eq!(rpo.len(), 5);
        assert!(rpo.contains(&BlockId(4)));
    }

    #[test]
    fn predecessors_of_join() {
        let k = diamond();
        let preds = k.predecessors();
        let mut join_preds = preds[3].clone();
        join_preds.sort();
        assert_eq!(join_preds, vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn fresh_ids_are_unique() {
        let mut k = Kernel::new("k", &[]);
        let a = k.fresh_vreg();
        let b = k.fresh_vreg();
        assert_ne!(a, b);
        let i1 = k.fresh_inst_id();
        let i2 = k.fresh_inst_id();
        assert_ne!(i1, i2);
        let p = k.fresh_pred();
        assert!(k.is_pred(p));
        assert!(!k.is_pred(a));
    }

    #[test]
    fn id_watermark_rolls_back_ids_and_pred_flags() {
        let mut k = Kernel::new("k", &[]);
        let _ = k.fresh_vreg();
        let w = k.id_watermark();
        let p = k.fresh_pred();
        let i = k.fresh_inst_id();
        assert!(k.is_pred(p));
        k.rollback_ids(w);
        assert!(!k.is_pred(p), "pred flag must roll back with the allocator");
        assert_eq!(k.fresh_vreg(), p, "rolled-back id is handed out again");
        assert_eq!(k.fresh_inst_id(), i);
    }

    #[test]
    #[should_panic(expected = "watermark ahead")]
    fn foreign_watermark_is_rejected() {
        let mut big = Kernel::new("big", &[]);
        for _ in 0..4 {
            let _ = big.fresh_vreg();
        }
        let w = big.id_watermark();
        let mut small = Kernel::new("small", &[]);
        small.rollback_ids(w);
    }

    #[test]
    fn param_offsets_are_consecutive() {
        let k = Kernel::new("k", &["A", "B", "N"]);
        assert_eq!(k.param_offset("A"), Some(0));
        assert_eq!(k.param_offset("B"), Some(4));
        assert_eq!(k.param_offset("N"), Some(8));
        assert_eq!(k.param_offset("Z"), None);
    }

    #[test]
    fn split_edge_rewires_exactly_one_edge() {
        let mut k = diamond();
        let mid = k.split_edge(BlockId(1), BlockId(3));
        assert_eq!(k.block(BlockId(1)).term, Terminator::Jump(mid));
        assert_eq!(k.block(mid).term, Terminator::Jump(BlockId(3)));
        // The other predecessor is untouched.
        assert_eq!(k.block(BlockId(2)).term, Terminator::Jump(BlockId(3)));
    }

    #[test]
    fn find_inst_after_insertion() {
        let mut k = Kernel::new("k", &[]);
        let b = k.add_block("entry");
        let r = k.fresh_vreg();
        let i = k.make_inst(Op::Mov, Type::U32, Some(r), vec![Operand::Imm(1)]);
        let id = i.id;
        k.block_mut(b).insts.push(i);
        let j = k.make_inst(
            Op::Ld(MemSpace::Global),
            Type::U32,
            Some(r),
            vec![Operand::Reg(r)],
        );
        k.insert_at(Loc { block: b, idx: 0 }, j);
        assert_eq!(k.find_inst(id), Some(Loc { block: b, idx: 1 }));
        assert_eq!(k.num_insts(), 2);
    }

    #[test]
    fn setp_dst_becomes_predicate() {
        let mut k = Kernel::new("k", &[]);
        let d = k.fresh_vreg();
        let _ = k.make_inst(
            Op::Setp(crate::types::Cmp::Lt),
            Type::S32,
            Some(d),
            vec![Operand::Imm(0), Operand::Imm(1)],
        );
        assert!(k.is_pred(d));
    }
}
