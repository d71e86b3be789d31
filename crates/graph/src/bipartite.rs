//! Minimum-weight vertex cover on bipartite graphs.
//!
//! Penny's bimodal checkpoint placement (paper §6.2) models last-update
//! points (LUPs) and region boundaries as the two sides of a bipartite
//! graph; every edge must have at least one endpoint carrying a checkpoint,
//! and total checkpoint cost must be minimized. By the weighted König
//! theorem, minimum-weight vertex cover in a bipartite graph equals maximum
//! flow in the derived network `source -> left (w) -> right (INF) -> sink
//! (w)`, and a minimum cut identifies the cover.

use crate::maxflow::MaxFlow;

/// Which side of the bipartite graph a vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// "Left" vertices (LUPs in the checkpoint-placement instance).
    Left,
    /// "Right" vertices (region boundaries).
    Right,
}

/// Result of a minimum-weight vertex-cover computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    /// Chosen vertices as `(side, index-within-side)`, lexicographically
    /// sorted (all left vertices first).
    pub chosen: Vec<(Side, usize)>,
    /// Sum of the weights of the chosen vertices.
    pub total_cost: u64,
    /// Augmenting paths pushed by the underlying max-flow solve (0 for
    /// the trivial empty-edge case). Observability counter only; does
    /// not affect the cover.
    pub augmenting_paths: u64,
}

impl Cover {
    /// Returns `true` if the left vertex `i` is part of the cover.
    pub fn has_left(&self, i: usize) -> bool {
        self.chosen.contains(&(Side::Left, i))
    }

    /// Returns `true` if the right vertex `i` is part of the cover.
    pub fn has_right(&self, i: usize) -> bool {
        self.chosen.contains(&(Side::Right, i))
    }
}

/// Builder/solver for weighted bipartite minimum vertex cover.
///
/// # Examples
///
/// ```
/// use penny_graph::bipartite::BipartiteCover;
///
/// // Paper figure 3(b): L1(1) L2(4) L3(2) vs RB1(2) RB2(2) RB3(1);
/// // the optimal cover is {L1, RB1, RB3} with cost 4.
/// let mut g = BipartiteCover::new();
/// let l1 = g.add_left(1);
/// let l2 = g.add_left(4);
/// let l3 = g.add_left(2);
/// let rb1 = g.add_right(2);
/// let rb2 = g.add_right(2);
/// let rb3 = g.add_right(1);
/// g.add_edge(l1, rb1);
/// g.add_edge(l1, rb2);
/// g.add_edge(l2, rb1);
/// g.add_edge(l2, rb3);
/// g.add_edge(l3, rb3);
/// let cover = g.solve();
/// assert_eq!(cover.total_cost, 4);
/// # let _ = (l2, l3, rb1, rb2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BipartiteCover {
    left_weight: Vec<u64>,
    right_weight: Vec<u64>,
    edges: Vec<(usize, usize)>,
}

impl BipartiteCover {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a left-side vertex with the given weight; returns its index.
    pub fn add_left(&mut self, weight: u64) -> usize {
        self.left_weight.push(weight);
        self.left_weight.len() - 1
    }

    /// Adds a right-side vertex with the given weight; returns its index.
    pub fn add_right(&mut self, weight: u64) -> usize {
        self.right_weight.push(weight);
        self.right_weight.len() - 1
    }

    /// Adds an edge between left vertex `l` and right vertex `r`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.left_weight.len(), "left vertex out of range");
        assert!(r < self.right_weight.len(), "right vertex out of range");
        self.edges.push((l, r));
    }

    /// Solves for a minimum-weight vertex cover.
    ///
    /// A left vertex is in the cover iff its source edge is saturated and it
    /// falls on the sink side of the minimum cut; a right vertex is in the
    /// cover iff it is reachable from the source in the residual graph (its
    /// sink edge crosses the cut).
    pub fn solve(&self) -> Cover {
        let nl = self.left_weight.len();
        let nr = self.right_weight.len();
        if self.edges.is_empty() {
            return Cover { chosen: Vec::new(), total_cost: 0, augmenting_paths: 0 };
        }
        let source = nl + nr;
        let sink = nl + nr + 1;
        let mut net = MaxFlow::new(nl + nr + 2);
        for (i, &w) in self.left_weight.iter().enumerate() {
            net.add_edge(source, i, w);
        }
        for (j, &w) in self.right_weight.iter().enumerate() {
            net.add_edge(nl + j, sink, w);
        }
        for &(l, r) in &self.edges {
            net.add_edge(l, nl + r, MaxFlow::INF);
        }
        let total_cost = net.max_flow(source, sink);
        let src_side = net.min_cut_source_side(source);
        let mut chosen = Vec::new();
        // Source edge crosses the cut => left vertex selected.
        chosen.extend((0..nl).filter(|&i| !src_side[i]).map(|i| (Side::Left, i)));
        // Sink edge crosses the cut => right vertex selected.
        chosen.extend((0..nr).filter(|&j| src_side[nl + j]).map(|j| (Side::Right, j)));
        Cover { chosen, total_cost, augmenting_paths: net.augmenting_paths() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_cover(g: &BipartiteCover, cover: &Cover) -> bool {
        g.edges.iter().all(|&(l, r)| cover.has_left(l) || cover.has_right(r))
    }

    #[test]
    fn empty_graph_costs_nothing() {
        let mut g = BipartiteCover::new();
        g.add_left(5);
        g.add_right(5);
        let c = g.solve();
        assert_eq!(c.total_cost, 0);
        assert!(c.chosen.is_empty());
    }

    #[test]
    fn single_edge_picks_cheaper_side() {
        let mut g = BipartiteCover::new();
        let l = g.add_left(10);
        let r = g.add_right(3);
        g.add_edge(l, r);
        let c = g.solve();
        assert_eq!(c.total_cost, 3);
        assert!(c.has_right(r));
        assert!(is_cover(&g, &c));
    }

    #[test]
    fn star_prefers_center() {
        let mut g = BipartiteCover::new();
        let hub = g.add_left(2);
        for _ in 0..5 {
            let r = g.add_right(1);
            g.add_edge(hub, r);
        }
        let c = g.solve();
        assert_eq!(c.total_cost, 2);
        assert!(c.has_left(hub));
    }

    #[test]
    fn paper_figure3_instance() {
        // Paper §6.2: L1(1) L2(4) L3(2); RB1(2) RB2(2) RB3(1); the stated
        // optimum is {L1, RB1, RB3} at cost 4.
        let mut g = BipartiteCover::new();
        let l1 = g.add_left(1);
        let l2 = g.add_left(4);
        let l3 = g.add_left(2);
        let rb1 = g.add_right(2);
        let rb2 = g.add_right(2);
        let rb3 = g.add_right(1);
        g.add_edge(l1, rb1);
        g.add_edge(l1, rb2);
        g.add_edge(l2, rb1);
        g.add_edge(l2, rb3);
        g.add_edge(l3, rb3);
        let c = g.solve();
        assert!(is_cover(&g, &c), "must cover all edges: {c:?}");
        assert_eq!(c.total_cost, 4);
        assert!(c.has_left(l1));
        assert!(c.has_right(rb3));
        let _ = (l2, l3, rb1, rb2);
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Deterministic pseudo-random small instances vs exhaustive search.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let nl = (next() % 4 + 1) as usize;
            let nr = (next() % 4 + 1) as usize;
            let mut g = BipartiteCover::new();
            for _ in 0..nl {
                g.add_left(next() % 8 + 1);
            }
            for _ in 0..nr {
                g.add_right(next() % 8 + 1);
            }
            for l in 0..nl {
                for r in 0..nr {
                    if next() % 2 == 0 {
                        g.add_edge(l, r);
                    }
                }
            }
            let got = g.solve();
            assert!(is_cover(&g, &got));
            // Exhaustive minimum.
            let mut best = u64::MAX;
            for mask in 0u32..(1 << (nl + nr)) {
                let lsel: Vec<bool> = (0..nl).map(|i| mask & (1 << i) != 0).collect();
                let rsel: Vec<bool> =
                    (0..nr).map(|j| mask & (1 << (nl + j)) != 0).collect();
                if g.edges.iter().all(|&(l, r)| lsel[l] || rsel[r]) {
                    let cost: u64 = (0..nl)
                        .filter(|&i| lsel[i])
                        .map(|i| g.left_weight[i])
                        .chain((0..nr).filter(|&j| rsel[j]).map(|j| g.right_weight[j]))
                        .sum();
                    best = best.min(cost);
                }
            }
            assert_eq!(got.total_cost, best, "suboptimal cover on {g:?}");
        }
    }
}
