//! Mapping program points to the idempotent region(s) they may execute
//! in.
//!
//! Regions are *dynamic* intervals between region-entry markers. A static
//! location after a control-flow merge can belong to different regions on
//! different paths, so the map is a may-set: forward dataflow where a
//! marker replaces the state with its own region.

use std::collections::HashMap;

use penny_ir::{solve, BitSet, Inst, InstId, Kernel, Lattice, Loc, RegionId, Steps};

/// Region membership analysis.
#[derive(Debug, Clone)]
pub struct RegionMap {
    /// Marker (region, loc, inst) triples, indexed by region id.
    markers: Vec<(RegionId, Loc, InstId)>,
    /// Possible current regions at each block entry.
    block_in: Vec<BitSet>,
    nregions: usize,
}

impl RegionMap {
    /// Computes the map. Region markers must already be present and
    /// densely numbered (see [`crate::regions::form_regions`]).
    pub fn compute(kernel: &Kernel) -> RegionMap {
        let markers = crate::regions::markers(kernel);
        let nregions = markers.len();
        let empty = BitSet::new(nregions);
        let steps = Steps { init: empty.clone(), boundary: empty, step: Self::step };
        let block_in = solve(kernel, &steps).entry;
        RegionMap { markers, block_in, nregions }
    }

    /// The dataflow step: a marker replaces the state with its region.
    pub(crate) fn step(inst: &Inst, state: &mut BitSet) {
        if let Some(r) = inst.region_entry() {
            state.clear();
            state.insert(r.index());
        }
    }

    /// Solves a forward per-instruction analysis (see [`Steps`]) and
    /// returns its state just before each region marker, in region
    /// order.
    pub(crate) fn states_at_markers<S: Lattice>(
        &self,
        kernel: &Kernel,
        init: S,
        boundary: S,
        step: impl Fn(&Inst, &mut S),
    ) -> Vec<(RegionId, Loc, S)> {
        let steps = Steps { init, boundary, step };
        let entry = solve(kernel, &steps).entry;
        self.markers
            .iter()
            .map(|&(region, loc, _)| {
                let mut state = entry[loc.block.index()].clone();
                for inst in &kernel.block(loc.block).insts[..loc.idx] {
                    (steps.step)(inst, &mut state);
                }
                (region, loc, state)
            })
            .collect()
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.nregions
    }

    /// Returns `true` if no regions exist.
    pub fn is_empty(&self) -> bool {
        self.nregions == 0
    }

    /// Marker triples in region-id order.
    pub fn markers(&self) -> &[(RegionId, Loc, InstId)] {
        &self.markers
    }

    /// Per-block entry states (possible current regions), indexed by
    /// block. Exposed for overwrite prevention's incremental table
    /// maintenance.
    pub(crate) fn block_in_sets(&self) -> &[BitSet] {
        &self.block_in
    }

    /// The region state at the *exit* of `b`: the entry state pushed
    /// through the block's markers (the dataflow transfer function).
    pub(crate) fn exit_state(
        kernel: &Kernel,
        b: penny_ir::BlockId,
        entry: &BitSet,
    ) -> BitSet {
        let mut s = entry.clone();
        kernel.block(b).insts.iter().for_each(|inst| Self::step(inst, &mut s));
        s
    }

    /// Location of a region's entry marker.
    pub fn marker_loc(&self, r: RegionId) -> Loc {
        self.markers[r.index()].1
    }

    /// The regions the instruction at `loc` may execute in.
    ///
    /// For a marker instruction itself, this is the *enclosing* region
    /// (the marker belongs to the region it terminates, not the one it
    /// starts).
    pub fn regions_at(&self, kernel: &Kernel, loc: Loc) -> Vec<RegionId> {
        let mut state = self.block_in[loc.block.index()].clone();
        kernel.block(loc.block).insts[..loc.idx]
            .iter()
            .for_each(|i| Self::step(i, &mut state));
        state.iter().map(|i| RegionId(i as u32)).collect()
    }

    /// Builds a per-instruction region table for fast repeated queries:
    /// instruction id → possible regions.
    pub fn by_inst(&self, kernel: &Kernel) -> HashMap<InstId, Vec<RegionId>> {
        let mut out = HashMap::new();
        for b in kernel.block_ids() {
            let mut state = self.block_in[b.index()].clone();
            for inst in &kernel.block(b).insts {
                out.insert(
                    inst.id,
                    state.iter().map(|i| RegionId(i as u32)).collect::<Vec<_>>(),
                );
                Self::step(inst, &mut state);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::form_regions;
    use penny_analysis::AliasOptions;
    use penny_ir::parse_kernel;

    #[test]
    fn regions_after_barrier() {
        let mut k = parse_kernel(
            r#"
            .kernel b .params A
            entry:
                mov.u32 %r0, %tid.x
                shl.u32 %r1, %r0, 2
                st.shared.u32 [%r1], %r0
                bar.sync
                ld.shared.u32 %r2, [%r1]
                ld.param.u32 %r3, [A]
                add.u32 %r4, %r3, %r1
                st.global.u32 [%r4], %r2
                ret
        "#,
        )
        .expect("parse");
        form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        assert_eq!(rm.len(), 2);
        // The barrier itself is in region 0; the load after it in region 1.
        let bar_loc = k
            .locs()
            .find(|(_, i)| i.op == penny_ir::Op::Bar)
            .map(|(l, _)| l)
            .expect("barrier");
        assert_eq!(rm.regions_at(&k, bar_loc), vec![RegionId(0)]);
        let after = Loc { block: bar_loc.block, idx: bar_loc.idx + 2 };
        assert_eq!(rm.regions_at(&k, after), vec![RegionId(1)]);
    }

    #[test]
    fn merge_without_marker_keeps_both_regions() {
        let mut k = parse_kernel(
            r#"
            .kernel m .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                setp.lt.u32 %p0, %r0, 16
                bra %p0, a, b
            a:
                bar.sync
                jmp join
            b:
                jmp join
            join:
                st.global.u32 [%r1], %r0
                ret
        "#,
        )
        .expect("parse");
        form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        assert_eq!(rm.len(), 2);
        // The join-block store may run in region 0 (via b) or region 1
        // (via the barrier in a).
        let store_loc =
            k.locs().find(|(_, i)| i.op.writes_memory()).map(|(l, _)| l).expect("store");
        let rs = rm.regions_at(&k, store_loc);
        assert_eq!(rs.len(), 2, "{rs:?}");
    }

    #[test]
    fn by_inst_matches_point_queries() {
        let mut k = parse_kernel(
            r#"
            .kernel q
            entry:
                mov.u32 %r0, 1
                bar.sync
                mov.u32 %r1, 2
                st.global.u32 [%r1], %r0
                ret
        "#,
        )
        .expect("parse");
        form_regions(&mut k, AliasOptions::default());
        let rm = RegionMap::compute(&k);
        let table = rm.by_inst(&k);
        for (loc, inst) in k.locs() {
            assert_eq!(&rm.regions_at(&k, loc), table.get(&inst.id).expect("entry"));
        }
    }
}
