//! Backward liveness analysis over virtual registers.
//!
//! Eager checkpointing (paper §3) is driven by liveness: the registers
//! that are **live into** a region boundary are exactly the ones whose
//! values a re-execution must be able to restore.

use penny_ir::{solve, BitSet, BlockId, Direction, Kernel, Loc, Transfer, VReg};

/// Per-block upward-exposed uses and (unguarded) defs, precomputed so
/// the worklist solver's block transfer is a pair of set operations.
struct LiveTransfer {
    use_: Vec<BitSet>,
    def: Vec<BitSet>,
    nregs: usize,
}

impl LiveTransfer {
    fn new(kernel: &Kernel) -> LiveTransfer {
        let nregs = kernel.vreg_limit() as usize;
        let mut use_: Vec<BitSet> = Vec::with_capacity(kernel.num_blocks());
        let mut def: Vec<BitSet> = Vec::with_capacity(kernel.num_blocks());
        for b in kernel.block_ids() {
            let mut u = BitSet::new(nregs);
            let mut d = BitSet::new(nregs);
            for inst in &kernel.block(b).insts {
                for r in inst.uses() {
                    if !d.contains(r.index()) {
                        u.insert(r.index());
                    }
                }
                // A guarded definition is conditional: when the guard is
                // false the old value flows through, so it must not kill.
                if let Some(dst) = inst.def() {
                    if inst.guard.is_none() {
                        d.insert(dst.index());
                    }
                }
            }
            if let Some(p) = kernel.block(b).term.pred() {
                if !d.contains(p.index()) {
                    u.insert(p.index());
                }
            }
            use_.push(u);
            def.push(d);
        }
        LiveTransfer { use_, def, nregs }
    }
}

impl Transfer for LiveTransfer {
    type State = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn init(&self, _kernel: &Kernel) -> BitSet {
        BitSet::new(self.nregs)
    }

    fn apply(&self, _kernel: &Kernel, b: BlockId, state: &mut BitSet) {
        // live-in = use ∪ (live-out − def)
        state.subtract(&self.def[b.index()]);
        state.union_with(&self.use_[b.index()]);
    }
}

/// Per-block live-in/live-out sets, with per-point queries.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<BitSet>,
    live_out: Vec<BitSet>,
    nregs: usize,
}

impl Liveness {
    /// Computes liveness for a kernel.
    pub fn compute(kernel: &Kernel) -> Liveness {
        let t = LiveTransfer::new(kernel);
        let nregs = t.nregs;
        let sol = solve(kernel, &t);
        Liveness { live_in: sol.entry, live_out: sol.exit, nregs }
    }

    /// The pre-framework fixpoint loop, retained for one release as the
    /// oracle of the equivalence tests (results must be bit-identical to
    /// [`Liveness::compute`]). Do not use in new code.
    #[doc(hidden)]
    pub fn compute_reference(kernel: &Kernel) -> Liveness {
        let n = kernel.num_blocks();
        let t = LiveTransfer::new(kernel);
        let (use_, def, nregs) = (t.use_, t.def, t.nregs);
        let mut live_in = vec![BitSet::new(nregs); n];
        let mut live_out = vec![BitSet::new(nregs); n];
        // Iterate to fixpoint, processing blocks in reverse RPO.
        let order: Vec<BlockId> = kernel.reverse_post_order().into_iter().rev().collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut out = BitSet::new(nregs);
                for s in kernel.block(b).term.successors() {
                    out.union_with(&live_in[s.index()]);
                }
                let mut inn = out.clone();
                inn.subtract(&def[b.index()]);
                inn.union_with(&use_[b.index()]);
                if out != live_out[b.index()] {
                    live_out[b.index()] = out;
                    changed = true;
                }
                if inn != live_in[b.index()] {
                    live_in[b.index()] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out, nregs }
    }

    /// Registers live at entry to a block.
    pub fn live_in(&self, b: BlockId) -> Vec<VReg> {
        self.live_in[b.index()].iter().map(|i| VReg(i as u32)).collect()
    }

    /// Registers live at exit from a block.
    pub fn live_out(&self, b: BlockId) -> Vec<VReg> {
        self.live_out[b.index()].iter().map(|i| VReg(i as u32)).collect()
    }

    /// Returns `true` if `r` is live immediately **before** the
    /// instruction at `loc` executes.
    ///
    /// `loc.idx == insts.len()` queries the point just before the
    /// terminator.
    pub fn live_before(&self, kernel: &Kernel, loc: Loc, r: VReg) -> bool {
        self.live_set_before(kernel, loc).contains(r.index())
    }

    /// The full live set immediately before the instruction at `loc`.
    pub fn live_set_before(&self, kernel: &Kernel, loc: Loc) -> BitSet {
        let blk = kernel.block(loc.block);
        assert!(loc.idx <= blk.insts.len(), "location out of range");
        let mut live = self.live_out[loc.block.index()].clone();
        if let Some(p) = blk.term.pred() {
            live.insert(p.index());
        }
        // Walk backwards from the terminator to loc. Guarded defs are
        // conditional and therefore do not kill.
        for inst in blk.insts[loc.idx..].iter().rev() {
            if let Some(d) = inst.def() {
                if inst.guard.is_none() {
                    live.remove(d.index());
                }
            }
            for u in inst.uses() {
                live.insert(u.index());
            }
        }
        live
    }

    /// Number of registers in the universe.
    pub fn num_regs(&self) -> usize {
        self.nregs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    #[test]
    fn straightline_liveness() {
        let k = parse_kernel(
            r#"
            .kernel s .params A
            entry:
                ld.param.u32 %r0, [A]
                ld.global.u32 %r1, [%r0]
                add.u32 %r2, %r1, 1
                st.global.u32 [%r0], %r2
                ret
        "#,
        )
        .expect("parse");
        let lv = Liveness::compute(&k);
        assert!(lv.live_in(BlockId(0)).is_empty());
        assert!(lv.live_out(BlockId(0)).is_empty());
        // Before the store, %r0 and %r2 are live.
        let live = lv.live_set_before(&k, Loc { block: BlockId(0), idx: 3 });
        assert!(live.contains(0));
        assert!(live.contains(2));
        assert!(!live.contains(1));
    }

    #[test]
    fn loop_carried_register_is_live_around_the_loop() {
        let k = parse_kernel(
            r#"
            .kernel l
            entry:
                mov.u32 %r0, 0
                mov.u32 %r1, 0
                jmp head
            head:
                add.u32 %r1, %r1, %r0
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 10
                bra %p0, head, exit
            exit:
                st.global.u32 [%r1], %r0
                ret
        "#,
        )
        .expect("parse");
        let lv = Liveness::compute(&k);
        let head_in = lv.live_in(BlockId(1));
        assert!(head_in.contains(&VReg(0)), "{head_in:?}");
        assert!(head_in.contains(&VReg(1)), "{head_in:?}");
        let head_out = lv.live_out(BlockId(1));
        assert!(head_out.contains(&VReg(0)));
        assert!(head_out.contains(&VReg(1)));
    }

    #[test]
    fn branch_predicate_is_live_before_terminator() {
        let k = parse_kernel(
            r#"
            .kernel b
            entry:
                setp.eq.u32 %p0, 1, 2
                bra %p0, a, c
            a:
                ret
            c:
                ret
        "#,
        )
        .expect("parse");
        let lv = Liveness::compute(&k);
        // The predicate (VReg 0) is live just before the terminator...
        let live = lv.live_set_before(&k, Loc { block: BlockId(0), idx: 1 });
        assert!(live.contains(0));
        // ...but not before the setp that defines it.
        let live0 = lv.live_set_before(&k, Loc { block: BlockId(0), idx: 0 });
        assert!(!live0.contains(0));
    }

    #[test]
    fn guard_register_counts_as_use() {
        let k = parse_kernel(
            r#"
            .kernel g .params A
            entry:
                setp.eq.u32 %p0, 1, 1
                ld.param.u32 %r1, [A]
                @%p0 st.global.u32 [%r1], 5
                ret
        "#,
        )
        .expect("parse");
        let lv = Liveness::compute(&k);
        let live = lv.live_set_before(&k, Loc { block: BlockId(0), idx: 2 });
        assert!(live.contains(0), "guard register must be live");
    }

    #[test]
    fn worklist_matches_reference_fixpoint() {
        for src in [
            r#"
            .kernel l
            entry:
                mov.u32 %r0, 0
                mov.u32 %r1, 0
                jmp head
            head:
                add.u32 %r1, %r1, %r0
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 10
                bra %p0, head, exit
            exit:
                st.global.u32 [%r1], %r0
                ret
        "#,
            r#"
            .kernel d .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                setp.lt.u32 %p0, %r0, 4
                bra %p0, a, b
            a:
                @%p0 mov.u32 %r2, 1
                jmp join
            b:
                mov.u32 %r2, 2
                jmp join
            join:
                st.global.u32 [%r1], %r2
                ret
        "#,
        ] {
            let k = parse_kernel(src).expect("parse");
            let new = Liveness::compute(&k);
            let old = Liveness::compute_reference(&k);
            for b in k.block_ids() {
                assert_eq!(new.live_in(b), old.live_in(b), "live-in of {b}");
                assert_eq!(new.live_out(b), old.live_out(b), "live-out of {b}");
            }
        }
    }

    #[test]
    fn dead_code_not_live() {
        let k = parse_kernel(
            r#"
            .kernel d
            entry:
                mov.u32 %r0, 1
                mov.u32 %r1, 2
                st.global.u32 [%r1], 0
                ret
        "#,
        )
        .expect("parse");
        let lv = Liveness::compute(&k);
        // %r0 is never used: not live anywhere after its def.
        let live = lv.live_set_before(&k, Loc { block: BlockId(0), idx: 1 });
        assert!(!live.contains(0));
    }
}
