//! Idempotent region formation (paper §5).
//!
//! A region may not contain a memory anti-dependence: every execution
//! path from a load to a store that may overwrite the loaded location
//! must cross a region boundary. Synchronization instructions (barriers,
//! atomics) are boundaries too, which handles inter-thread
//! anti-dependences for data-race-free programs (paper footnote 4).
//!
//! The cut placement is the greedy "latest point" hitting-set heuristic:
//! a boundary right before an endangered store covers *every* path into
//! that store, mirroring De Kruijf et al.'s approximation.

use std::collections::{HashMap, HashSet};

use penny_analysis::{AliasAnalysis, AliasOptions};
use penny_ir::{solve, BitSet, Inst, InstId, Kernel, Loc, Op, RegionId, Steps, Type};

/// Runs region formation, inserting `region` markers into the kernel.
///
/// Returns the number of regions formed. Region ids are assigned in
/// reverse post-order of the final marker placement, with region 0 at the
/// kernel entry.
pub fn form_regions(kernel: &mut Kernel, alias: AliasOptions) -> usize {
    // 1. Entry marker.
    let entry = kernel.entry;
    let m = kernel.make_inst(Op::RegionEntry(RegionId(0)), Type::U32, None, vec![]);
    kernel.insert_at(Loc { block: entry, idx: 0 }, m);

    // 2. Boundary after every synchronization instruction.
    for b in kernel.block_ids().collect::<Vec<_>>() {
        let mut idx = 0;
        while idx < kernel.block(b).insts.len() {
            if kernel.block(b).insts[idx].op.is_sync() {
                let m =
                    kernel.make_inst(Op::RegionEntry(RegionId(0)), Type::U32, None, vec![]);
                kernel.insert_at(Loc { block: b, idx: idx + 1 }, m);
                idx += 1;
            }
            idx += 1;
        }
    }

    // 3. Anti-dependence cuts, to fixpoint.
    loop {
        let aa = AliasAnalysis::compute(kernel, alias);
        match first_endangered_store(kernel, &aa) {
            Some(loc) => {
                let m =
                    kernel.make_inst(Op::RegionEntry(RegionId(0)), Type::U32, None, vec![]);
                kernel.insert_at(loc, m);
            }
            None => break,
        }
    }

    // 4. Boundary at the header of every loop that already contains a
    //    boundary. Such loops cross regions every iteration; without a
    //    header cut, a region could follow *itself* around the loop —
    //    the pattern 2-coloring storage alternation cannot express
    //    statically (a single static checkpoint cannot alternate slots
    //    per iteration). Loops without internal boundaries stay whole
    //    (a single idempotent region, zero checkpoint pressure — the
    //    common case for read-only accumulation loops).
    let loops = penny_analysis::LoopInfo::compute(kernel);
    let mut headers: Vec<penny_ir::BlockId> = loops
        .loops()
        .iter()
        .filter(|l| {
            l.blocks
                .iter()
                .any(|b| kernel.block(*b).insts.iter().any(|i| i.region_entry().is_some()))
        })
        .map(|l| l.header)
        .collect();
    headers.sort();
    headers.dedup();
    for h in headers {
        if kernel
            .block(h)
            .insts
            .first()
            .map(|i| i.region_entry().is_some())
            .unwrap_or(false)
        {
            continue;
        }
        let m = kernel.make_inst(Op::RegionEntry(RegionId(0)), Type::U32, None, vec![]);
        kernel.insert_at(Loc { block: h, idx: 0 }, m);
    }

    renumber_regions(kernel)
}

/// Loads executed since the last region boundary, per block entry: a
/// forward may-analysis (union over paths, since any path exposes an
/// anti-dependence). Region formation and invariant 1
/// ([`crate::check::check_idempotence`]) scan it each in their own order.
pub(crate) struct ActiveLoads {
    /// The loads, in `Kernel::locs` order; a state holds their indices.
    pub(crate) loads: Vec<InstId>,
    index_of: HashMap<InstId, usize>,
    /// Active loads at each block entry.
    pub(crate) entry: Vec<BitSet>,
}

impl ActiveLoads {
    pub(crate) fn compute(kernel: &Kernel) -> ActiveLoads {
        let loads: Vec<InstId> =
            kernel.locs().filter(|(_, i)| i.op.reads_memory()).map(|(_, i)| i.id).collect();
        let index_of = loads.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut al = ActiveLoads { loads, index_of, entry: Vec::new() };
        let empty = BitSet::new(al.loads.len());
        let steps = Steps {
            init: empty.clone(),
            boundary: empty,
            step: |i: &Inst, s: &mut BitSet| al.step(i, s),
        };
        al.entry = solve(kernel, &steps).entry;
        al
    }

    /// Applies one instruction: a marker clears the set, a load joins it.
    /// A store is checked against the set before its own step (an
    /// atomic both reads and writes).
    pub(crate) fn step(&self, inst: &Inst, active: &mut BitSet) {
        if inst.region_entry().is_some() {
            active.clear();
        }
        if inst.op.reads_memory() {
            active.insert(self.index_of[&inst.id]);
        }
    }
}

/// Finds the first store reached by a may-anti-dependent load with no
/// intervening region boundary, scanning in RPO so cut placement is
/// deterministic.
fn first_endangered_store(kernel: &Kernel, aa: &AliasAnalysis) -> Option<Loc> {
    let al = ActiveLoads::compute(kernel);
    for b in kernel.reverse_post_order() {
        let mut active = al.entry[b.index()].clone();
        for (idx, inst) in kernel.block(b).insts.iter().enumerate() {
            if inst.op.writes_memory() {
                let write = aa.access(inst.id).expect("access summary");
                for li in active.iter() {
                    let read = aa.access(al.loads[li]).expect("load summary");
                    if aa.may_antidep(read, write) {
                        return Some(Loc { block: b, idx });
                    }
                }
            }
            al.step(inst, &mut active);
        }
    }
    None
}

/// Renumbers all region markers in reverse post-order; returns the count.
fn renumber_regions(kernel: &mut Kernel) -> usize {
    let mut next = 0u32;
    for b in kernel.reverse_post_order() {
        for inst in &mut kernel.block_mut(b).insts {
            if let Op::RegionEntry(r) = &mut inst.op {
                *r = RegionId(next);
                next += 1;
            }
        }
    }
    next as usize
}

/// Checks the region-formation postcondition: no load-store may-alias
/// pair without an intervening boundary. Used by tests and debug
/// assertions.
pub fn verify_no_antidep(kernel: &Kernel, alias: AliasOptions) -> bool {
    let aa = AliasAnalysis::compute(kernel, alias);
    first_endangered_store(kernel, &aa).is_none()
}

/// Collects all region markers as `(region, loc, inst id)` in program
/// order.
pub fn markers(kernel: &Kernel) -> Vec<(RegionId, Loc, InstId)> {
    let mut out: Vec<(RegionId, Loc, InstId)> = kernel
        .locs()
        .filter_map(|(loc, i)| i.region_entry().map(|r| (r, loc, i.id)))
        .collect();
    out.sort_by_key(|&(r, _, _)| r);
    out
}

/// The set of region ids present in a kernel.
pub fn region_count(kernel: &Kernel) -> usize {
    kernel.locs().filter(|(_, i)| i.region_entry().is_some()).count()
}

/// Dead simple sanity check that region ids are dense `0..n`.
pub fn regions_are_dense(kernel: &Kernel) -> bool {
    let ids: HashSet<u32> =
        kernel.locs().filter_map(|(_, i)| i.region_entry().map(|r| r.0)).collect();
    (0..ids.len() as u32).all(|i| ids.contains(&i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    fn form(src: &str) -> (Kernel, usize) {
        let mut k = parse_kernel(src).expect("parse");
        let n = form_regions(&mut k, AliasOptions::default());
        penny_ir::validate(&k).expect("still valid");
        assert!(regions_are_dense(&k));
        (k, n)
    }

    #[test]
    fn straightline_no_antidep_is_one_region() {
        let (_, n) = form(
            r#"
            .kernel s .params A B
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                ld.param.u32 %r2, [B]
                shl.u32 %r3, %r0, 2
                add.u32 %r4, %r1, %r3
                add.u32 %r5, %r2, %r3
                ld.global.u32 %r6, [%r4]
                st.global.u32 [%r5], %r6
                ret
        "#,
        );
        assert_eq!(n, 1, "A->B copy has no anti-dependence");
    }

    #[test]
    fn in_place_update_is_cut() {
        let (k, n) = form(
            r#"
            .kernel u .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                shl.u32 %r3, %r0, 2
                add.u32 %r4, %r1, %r3
                ld.global.u32 %r6, [%r4]
                add.u32 %r7, %r6, 1
                st.global.u32 [%r4], %r7
                ret
        "#,
        );
        assert_eq!(n, 2, "load/store of the same word must be split");
        // The cut must sit before the store and after the load.
        assert!(verify_no_antidep(&k, AliasOptions::default()));
    }

    #[test]
    fn figure1_memory_antidependence() {
        // Paper figure 1: ld [0x10] ... st [0x10] -> 2 regions.
        let (_, n) = form(
            r#"
            .kernel f1
            entry:
                mov.u32 %r0, 16
                ld.global.u32 %r1, [%r0]
                add.u32 %r2, %r1, 5
                st.global.u32 [%r0], %r2
                ld.global.u32 %r3, [%r0]
                st.global.u32 [%r3], %r3
                ret
        "#,
        );
        // ld->st on [0x10] forces one cut; the re-load [%r0] then st [%r3]
        // may alias again (unknown %r3) forcing another.
        assert!(n >= 2, "expected at least 2 regions, got {n}");
    }

    #[test]
    fn barrier_is_a_boundary() {
        let (k, n) = form(
            r#"
            .kernel b .params A
            entry:
                mov.u32 %r0, %tid.x
                shl.u32 %r1, %r0, 2
                st.shared.u32 [%r1], %r0
                bar.sync
                ld.shared.u32 %r2, [%r1+4]
                ld.param.u32 %r3, [A]
                add.u32 %r4, %r3, %r1
                st.global.u32 [%r4], %r2
                ret
        "#,
        );
        assert_eq!(n, 2, "barrier splits the kernel");
        // The marker must sit right after the barrier.
        let mk = markers(&k);
        assert_eq!(mk.len(), 2);
    }

    #[test]
    fn loop_carried_antidep_cuts_inside_loop() {
        let (k, n) = form(
            r#"
            .kernel l .params A N
            entry:
                mov.u32 %r0, 0
                ld.param.u32 %r1, [A]
                ld.param.u32 %r9, [N]
                jmp head
            head:
                shl.u32 %r2, %r0, 2
                add.u32 %r3, %r1, %r2
                ld.global.u32 %r4, [%r3]
                add.u32 %r5, %r4, 1
                st.global.u32 [%r3], %r5
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, %r9
                bra %p0, head, exit
            exit:
                ret
        "#,
        );
        assert!(n >= 2, "loop body needs a boundary per iteration, got {n}");
        assert!(verify_no_antidep(&k, AliasOptions::default()));
    }

    #[test]
    fn atomic_is_a_boundary() {
        let (_, n) = form(
            r#"
            .kernel a .params H
            entry:
                ld.param.u32 %r0, [H]
                atom.global.add.u32 %r1, [%r0], 1
                st.global.u32 [%r0+4], %r1
                ret
        "#,
        );
        assert!(n >= 2);
    }

    #[test]
    fn diamond_paths_are_both_protected() {
        let (k, _) = form(
            r#"
            .kernel d .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                shl.u32 %r2, %r0, 2
                add.u32 %r3, %r1, %r2
                ld.global.u32 %r4, [%r3]
                setp.lt.u32 %p0, %r4, 10
                bra %p0, small, big
            small:
                add.u32 %r5, %r4, 1
                jmp store
            big:
                add.u32 %r5, %r4, 2
                jmp store
            store:
                st.global.u32 [%r3], %r5
                ret
        "#,
        );
        assert!(verify_no_antidep(&k, AliasOptions::default()));
    }
}
