//! Reaching definitions over virtual registers.
//!
//! Penny uses reaching definitions to find the **last update points**
//! (LUPs) of each region's live-in registers (paper §3, figure 2): the
//! definitions of `r` that reach a region boundary where `r` is live-in
//! are exactly the LUPs needing checkpoints.

use penny_ir::{solve, BitSet, BlockId, Direction, InstId, Kernel, Loc, Transfer, VReg};

/// One definition site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Where the definition sits.
    pub loc: Loc,
    /// Stable identity of the defining instruction.
    pub inst: InstId,
    /// Register defined.
    pub reg: VReg,
}

/// Reaching-definitions analysis result.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    sites: Vec<DefSite>,
    /// Definition indices reaching each block entry.
    in_sets: Vec<BitSet>,
}

/// Gen/kill sets per block, shared by the worklist solver and the
/// retained reference fixpoint.
struct DefTransfer {
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
    nd: usize,
}

impl DefTransfer {
    fn new(kernel: &Kernel, sites: &[DefSite]) -> DefTransfer {
        let nd = sites.len();
        let n = kernel.num_blocks();
        let mut gen: Vec<BitSet> = vec![BitSet::new(nd); n];
        let mut kill: Vec<BitSet> = vec![BitSet::new(nd); n];
        for b in kernel.block_ids() {
            // Walk forward. An unguarded def replaces the running gen set
            // for its register; a guarded def only *adds* (when its guard
            // is false the previous value survives).
            let mut cur: std::collections::HashMap<VReg, (Vec<usize>, bool)> =
                std::collections::HashMap::new();
            for (di, site) in sites.iter().enumerate() {
                if site.loc.block != b {
                    continue;
                }
                let guarded = kernel.block(b).insts[site.loc.idx].guard.is_some();
                let entry = cur.entry(site.reg).or_insert((Vec::new(), false));
                if guarded {
                    entry.0.push(di);
                } else {
                    *entry = (vec![di], true);
                }
            }
            for (&reg, (defs, has_unguarded)) in &cur {
                for &di in defs {
                    gen[b.index()].insert(di);
                }
                if *has_unguarded {
                    for (dj, site) in sites.iter().enumerate() {
                        if site.reg == reg && !defs.contains(&dj) {
                            kill[b.index()].insert(dj);
                        }
                    }
                }
            }
        }
        DefTransfer { gen, kill, nd }
    }
}

impl Transfer for DefTransfer {
    type State = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, _kernel: &Kernel) -> BitSet {
        BitSet::new(self.nd)
    }

    fn apply(&self, _kernel: &Kernel, b: BlockId, state: &mut BitSet) {
        // out = gen ∪ (in − kill)
        state.subtract(&self.kill[b.index()]);
        state.union_with(&self.gen[b.index()]);
    }
}

fn collect_sites(kernel: &Kernel) -> Vec<DefSite> {
    let mut sites = Vec::new();
    for (loc, inst) in kernel.locs() {
        if let Some(reg) = inst.def() {
            sites.push(DefSite { loc, inst: inst.id, reg });
        }
    }
    sites
}

impl ReachingDefs {
    /// Computes reaching definitions.
    pub fn compute(kernel: &Kernel) -> ReachingDefs {
        let sites = collect_sites(kernel);
        let t = DefTransfer::new(kernel, &sites);
        let sol = solve(kernel, &t);
        ReachingDefs { sites, in_sets: sol.entry }
    }

    /// The pre-framework fixpoint loop, retained for one release as the
    /// oracle of the equivalence tests (results must be bit-identical to
    /// [`ReachingDefs::compute`]). Do not use in new code.
    #[doc(hidden)]
    pub fn compute_reference(kernel: &Kernel) -> ReachingDefs {
        let sites = collect_sites(kernel);
        let t = DefTransfer::new(kernel, &sites);
        let (nd, n) = (t.nd, kernel.num_blocks());
        let mut in_sets = vec![BitSet::new(nd); n];
        let mut out_sets = vec![BitSet::new(nd); n];
        let order = kernel.reverse_post_order();
        let preds = kernel.predecessors();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                let mut inn = BitSet::new(nd);
                for &p in &preds[b.index()] {
                    inn.union_with(&out_sets[p.index()]);
                }
                let mut out = inn.clone();
                out.subtract(&t.kill[b.index()]);
                out.union_with(&t.gen[b.index()]);
                if inn != in_sets[b.index()] {
                    in_sets[b.index()] = inn;
                    changed = true;
                }
                if out != out_sets[b.index()] {
                    out_sets[b.index()] = out;
                    changed = true;
                }
            }
        }
        ReachingDefs { sites, in_sets }
    }

    /// Definition indices reaching each block entry (equivalence-test
    /// accessor).
    #[doc(hidden)]
    pub fn block_in_sets(&self) -> &[BitSet] {
        &self.in_sets
    }

    /// All definition sites in program order.
    pub fn sites(&self) -> &[DefSite] {
        &self.sites
    }

    /// The definitions of `reg` that reach the program point just
    /// **before** `loc` (index `insts.len()` = before the terminator).
    pub fn reaching_defs_of(&self, kernel: &Kernel, loc: Loc, reg: VReg) -> Vec<DefSite> {
        // Scan backwards within the block first; guarded defs are
        // collected but do not stop the scan (their guard may be false).
        let blk = kernel.block(loc.block);
        let mut found = Vec::new();
        for idx in (0..loc.idx.min(blk.insts.len())).rev() {
            let inst = &blk.insts[idx];
            if inst.def() == Some(reg) {
                found.push(DefSite {
                    loc: Loc { block: loc.block, idx },
                    inst: inst.id,
                    reg,
                });
                if inst.guard.is_none() {
                    found.reverse();
                    return found;
                }
            }
        }
        // Defs reaching block entry, plus any guarded in-block defs.
        let mut out: Vec<DefSite> = self.in_sets[loc.block.index()]
            .iter()
            .map(|di| self.sites[di])
            .filter(|s| s.reg == reg)
            .collect();
        found.reverse();
        out.extend(found);
        out
    }

    /// Definition sites of `reg` anywhere in the kernel.
    pub fn defs_of(&self, reg: VReg) -> Vec<DefSite> {
        self.sites.iter().copied().filter(|s| s.reg == reg).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::{parse_kernel, BlockId};

    #[test]
    fn within_block_last_def_wins() {
        let k = parse_kernel(
            r#"
            .kernel s
            entry:
                mov.u32 %r0, 1
                mov.u32 %r0, 2
                st.global.u32 [%r0], 0
                ret
        "#,
        )
        .expect("parse");
        let rd = ReachingDefs::compute(&k);
        let defs = rd.reaching_defs_of(&k, Loc { block: BlockId(0), idx: 2 }, VReg(0));
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].loc.idx, 1);
    }

    #[test]
    fn merge_brings_both_definitions() {
        let k = parse_kernel(
            r#"
            .kernel m
            entry:
                setp.eq.u32 %p0, 1, 1
                bra %p0, a, b
            a:
                mov.u32 %r1, 10
                jmp join
            b:
                mov.u32 %r1, 20
                jmp join
            join:
                st.global.u32 [%r1], 0
                ret
        "#,
        )
        .expect("parse");
        let rd = ReachingDefs::compute(&k);
        let defs = rd.reaching_defs_of(&k, Loc { block: BlockId(3), idx: 0 }, VReg(1));
        assert_eq!(defs.len(), 2, "{defs:?}");
        let blocks: Vec<BlockId> = defs.iter().map(|d| d.loc.block).collect();
        assert!(blocks.contains(&BlockId(1)));
        assert!(blocks.contains(&BlockId(2)));
    }

    #[test]
    fn loop_defs_reach_header() {
        let k = parse_kernel(
            r#"
            .kernel l
            entry:
                mov.u32 %r0, 0
                jmp head
            head:
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 10
                bra %p0, head, exit
            exit:
                ret
        "#,
        )
        .expect("parse");
        let rd = ReachingDefs::compute(&k);
        // At head entry, both the init (entry) and loop (head) defs reach.
        let defs = rd.reaching_defs_of(&k, Loc { block: BlockId(1), idx: 0 }, VReg(0));
        assert_eq!(defs.len(), 2, "{defs:?}");
    }

    #[test]
    fn worklist_matches_reference_fixpoint() {
        let k = parse_kernel(
            r#"
            .kernel l .params A
            entry:
                mov.u32 %r0, 0
                ld.param.u32 %r1, [A]
                jmp head
            head:
                @%p0 mov.u32 %r2, 7
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 10
                bra %p0, head, exit
            exit:
                st.global.u32 [%r1], %r0
                ret
        "#,
        )
        .expect("parse");
        let new = ReachingDefs::compute(&k);
        let old = ReachingDefs::compute_reference(&k);
        assert_eq!(new.sites(), old.sites());
        assert_eq!(new.block_in_sets(), old.block_in_sets());
    }

    #[test]
    fn defs_of_lists_all_sites() {
        let k = parse_kernel(
            r#"
            .kernel d
            entry:
                mov.u32 %r0, 1
                mov.u32 %r1, 2
                mov.u32 %r0, 3
                st.global.u32 [%r1], %r0
                ret
        "#,
        )
        .expect("parse");
        let rd = ReachingDefs::compute(&k);
        assert_eq!(rd.defs_of(VReg(0)).len(), 2);
        assert_eq!(rd.defs_of(VReg(1)).len(), 1);
        assert_eq!(rd.sites().len(), 3);
    }
}
