//! A generic monotone dataflow framework.
//!
//! Every set-style fixpoint of the compiler is an instance of the same
//! recipe: a join-semilattice of facts, a monotone per-block transfer
//! function, and iteration to the least fixpoint over the CFG. In this
//! crate that is the validator's must-defined check; in
//! `penny-analysis` liveness, reaching definitions, value ranges,
//! uniformity, alias propagation, the sanitizer and the vulnerability
//! map; in `penny-core` region membership, the active-loads analysis
//! behind region formation and invariant 1, and the per-register
//! checkpoint states read at region markers. This module factors the
//! recipe out once: implement [`Lattice`] for the fact type and
//! [`Transfer`] for the analysis, then call [`solve`].
//!
//! The solver runs a **priority worklist**: blocks are keyed by their
//! reverse-post-order index (post-order for backward analyses) and the
//! lowest-priority dirty block is processed first, which visits a
//! reducible CFG in close to optimal order. Per-block entry/exit states
//! are cached in the returned [`Solution`], so a block is re-evaluated
//! only when one of its inputs actually changed. A block's states are
//! set on its first visit and its input starts from its first
//! contribution (the boundary or a visited neighbour's state), so
//! [`Transfer::init`], which must be the join's identity, is built only
//! for a block nothing reaches. `Option<T>` lifts any lattice with a
//! `None` for "not reached": analyses whose facts only make sense on
//! reached blocks use it as their state and `None` as their `init`.

use crate::{BlockId, Inst, Kernel, Terminator};

/// Direction a dataflow analysis runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors to successors.
    Forward,
    /// Facts flow from successors to predecessors.
    Backward,
}

/// A join-semilattice of dataflow facts.
///
/// `join` must be monotone, commutative, and idempotent, and the
/// lattice must have finite ascending chains (or `join` must widen),
/// otherwise [`solve`] may not terminate.
pub trait Lattice: Clone {
    /// Joins `other` into `self`; returns `true` if `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A dataflow analysis: a lattice plus a monotone block transfer.
pub trait Transfer {
    /// Per-program-point fact.
    type State: Lattice;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// State at the CFG boundary: the entry block's input for forward
    /// analyses, every exit block's input for backward analyses.
    /// Defaults to [`Transfer::init`].
    fn boundary(&self, kernel: &Kernel) -> Self::State {
        self.init(kernel)
    }

    /// The optimistic initial state (lattice bottom, the identity of
    /// `join`) of every block no contribution has reached yet.
    fn init(&self, kernel: &Kernel) -> Self::State;

    /// Applies block `b`'s effect to `state`: entry→exit for forward
    /// analyses, exit→entry for backward ones.
    fn apply(&self, kernel: &Kernel, b: BlockId, state: &mut Self::State);

    /// Refines the state flowing along CFG edge `from → to`, e.g. with
    /// the branch condition that selects the edge. Called on a copy of
    /// the source state before it is joined into the destination; a
    /// source not yet visited contributes nothing, as `init` refined
    /// must stay `init`.
    fn refine_edge(
        &self,
        _kernel: &Kernel,
        _from: BlockId,
        _to: BlockId,
        _state: &mut Self::State,
    ) {
    }
}

/// A forward analysis given by a per-instruction step, for facts that
/// are read between the instructions of a block as well as at its
/// edges.
#[derive(Debug, Clone)]
pub struct Steps<S, F> {
    /// State of every block no contribution has reached yet.
    pub init: S,
    /// State at the kernel entry.
    pub boundary: S,
    /// Applies one instruction's effect.
    pub step: F,
}

impl<S: Lattice, F: Fn(&Inst, &mut S)> Transfer for Steps<S, F> {
    type State = S;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _kernel: &Kernel) -> S {
        self.boundary.clone()
    }

    fn init(&self, _kernel: &Kernel) -> S {
        self.init.clone()
    }

    fn apply(&self, kernel: &Kernel, b: BlockId, state: &mut S) {
        for inst in &kernel.block(b).insts {
            (self.step)(inst, state);
        }
    }
}

/// The least fixpoint of an analysis: cached per-block states.
///
/// Both vectors are indexed by `BlockId::index()`. `entry[b]` is the
/// state at the top of block `b` and `exit[b]` the state at its bottom,
/// regardless of direction.
#[derive(Debug, Clone)]
pub struct Solution<S> {
    /// State at each block entry.
    pub entry: Vec<S>,
    /// State at each block exit.
    pub exit: Vec<S>,
}

/// Runs `analysis` to its least fixpoint over `kernel`'s CFG.
pub fn solve<T: Transfer>(kernel: &Kernel, analysis: &T) -> Solution<T::State> {
    let n = kernel.num_blocks();
    let dir = analysis.direction();

    // Priority = position in RPO (forward) or post-order (backward).
    // `reverse_post_order` appends unreachable blocks, so every block
    // gets a priority and a seat in the initial worklist.
    let mut order = kernel.reverse_post_order();
    if dir == Direction::Backward {
        order.reverse();
    }
    let mut prio = vec![0; n];
    for (i, b) in order.iter().enumerate() {
        prio[b.index()] = i;
    }

    // Every block is visited at least once, so every state is set by
    // the end; `None` before a block's first visit.
    let mut entry: Vec<Option<T::State>> = (0..n).map(|_| None).collect();
    let mut exit: Vec<Option<T::State>> = (0..n).map(|_| None).collect();
    let preds = kernel.predecessors();

    // The worklist, by priority: the lowest dirty block runs next, and
    // no block below `next` is dirty.
    let mut dirty = vec![true; n];
    let mut next = 0;
    let push = |dirty: &mut Vec<bool>, next: &mut usize, b: BlockId| {
        let p = prio[b.index()];
        dirty[p] = true;
        *next = (*next).min(p);
    };

    while next < n {
        if !std::mem::replace(&mut dirty[next], false) {
            next += 1;
            continue;
        }
        let b = order[next];
        let bi = b.index();
        next += 1;
        match dir {
            Direction::Forward => {
                // entry[b] ⊔= boundary? ⊔ (⊔ refine(exit[p]) for p in preds);
                // a predecessor not yet visited contributes `init`, the
                // identity.
                let mut inn = (b == kernel.entry).then(|| analysis.boundary(kernel));
                for &p in &preds[bi] {
                    let Some(mut s) = exit[p.index()].clone() else { continue };
                    analysis.refine_edge(kernel, p, b, &mut s);
                    join_into(&mut inn, s);
                }
                let mut out = join_entry(&mut entry[bi], inn, || analysis.init(kernel));
                analysis.apply(kernel, b, &mut out);
                // `out` is nondecreasing across visits (entry accumulates,
                // apply is monotone), so the cache can hold it exactly; the
                // join is only used to detect change. Accumulating instead
                // would let a widening join retain overshoot from early
                // iterates in the cached exit state.
                let changed = exit[bi].as_mut().is_none_or(|e| e.join(&out));
                exit[bi] = Some(out);
                if changed {
                    for s in successors(kernel, b) {
                        push(&mut dirty, &mut next, s);
                    }
                }
            }
            Direction::Backward => {
                // exit[b] ⊔= boundary? ⊔ (⊔ refine(entry[s]) for s in succs)
                let exits = matches!(kernel.block(b).term, Terminator::Ret);
                let mut out = exits.then(|| analysis.boundary(kernel));
                for s in successors(kernel, b) {
                    let Some(mut st) = entry[s.index()].clone() else { continue };
                    analysis.refine_edge(kernel, b, s, &mut st);
                    join_into(&mut out, st);
                }
                let mut inn = join_entry(&mut exit[bi], out, || analysis.init(kernel));
                analysis.apply(kernel, b, &mut inn);
                let changed = entry[bi].as_mut().is_none_or(|e| e.join(&inn));
                entry[bi] = Some(inn);
                if changed {
                    for &p in &preds[bi] {
                        push(&mut dirty, &mut next, p);
                    }
                }
            }
        }
    }

    let all = |states: Vec<Option<T::State>>| {
        states.into_iter().map(|s| s.expect("every block is visited")).collect()
    };
    Solution { entry: all(entry), exit: all(exit) }
}

/// Joins a block's combined input into its cached input state (set on
/// the first visit: to the input, or to `init` where nothing reached it)
/// and returns a copy for the transfer.
fn join_entry<S: Lattice>(
    cached: &mut Option<S>,
    input: Option<S>,
    init: impl Fn() -> S,
) -> S {
    match (cached.as_mut(), input) {
        (Some(c), Some(i)) => {
            c.join(&i);
        }
        (Some(_), None) => {}
        (None, i) => *cached = Some(i.unwrap_or_else(init)),
    }
    cached.clone().expect("set above")
}

/// `b`'s successors, in `Terminator::successors` order but without its
/// allocation.
fn successors(kernel: &Kernel, b: BlockId) -> impl Iterator<Item = BlockId> {
    let (first, second) = match kernel.block(b).term {
        Terminator::Jump(t) => (Some(t), None),
        Terminator::Branch { then_, else_, .. } => (Some(then_), Some(else_)),
        Terminator::Ret => (None, None),
    };
    first.into_iter().chain(second)
}

/// Joins one contribution into a block input that starts from its
/// first contribution.
fn join_into<S: Lattice>(acc: &mut Option<S>, s: S) {
    match acc {
        Some(a) => {
            a.join(&s);
        }
        None => *acc = Some(s),
    }
}

impl Lattice for crate::bitset::BitSet {
    fn join(&mut self, other: &Self) -> bool {
        self.union_with(other)
    }
}

/// Pointwise, for per-register (or per-anything) states of one length.
impl<T: Lattice> Lattice for Vec<T> {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.iter_mut().zip(other) {
            changed |= a.join(b);
        }
        changed
    }
}

/// `None` is "not reached", the identity of the join.
impl<T: Lattice> Lattice for Option<T> {
    fn join(&mut self, other: &Self) -> bool {
        match (self.as_mut(), other) {
            (_, None) => false,
            (None, Some(o)) => {
                *self = Some(o.clone());
                true
            }
            (Some(s), Some(o)) => s.join(o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::parse_kernel;

    /// A toy forward analysis: the set of blocks that can reach a block
    /// (including itself), as a BitSet over block indices.
    struct Reach;

    impl Transfer for Reach {
        type State = BitSet;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn init(&self, kernel: &Kernel) -> BitSet {
            BitSet::new(kernel.num_blocks())
        }
        fn apply(&self, _kernel: &Kernel, b: BlockId, state: &mut BitSet) {
            state.insert(b.index());
        }
    }

    const DIAMOND_LOOP: &str = r#"
        .kernel k
        entry:
            mov.u32 %r0, 0
            jmp head
        head:
            add.u32 %r0, %r0, 1
            setp.lt.u32 %p0, %r0, 4
            bra %p0, head, left
        left:
            setp.lt.u32 %p1, %r0, 2
            bra %p1, a, b
        a:
            jmp join
        b:
            jmp join
        join:
            ret
    "#;

    #[test]
    fn forward_reachability_fixpoint() {
        let k = parse_kernel(DIAMOND_LOOP).expect("parse");
        let sol = solve(&k, &Reach);
        // join (block 5... look it up by label) sees every block.
        let join = k.block_ids().find(|&b| k.block(b).label == "join").expect("join block");
        let got: Vec<usize> = sol.entry[join.index()].iter().collect();
        assert_eq!(got.len(), k.num_blocks() - 1, "all non-join blocks reach join");
        // head's entry includes head itself (loop back edge).
        let head = k.block_ids().find(|&b| k.block(b).label == "head").expect("head block");
        assert!(sol.entry[head.index()].contains(head.index()));
    }

    /// Backward analogue: blocks reachable *from* a block.
    struct CoReach;

    impl Transfer for CoReach {
        type State = BitSet;
        fn direction(&self) -> Direction {
            Direction::Backward
        }
        fn init(&self, kernel: &Kernel) -> BitSet {
            BitSet::new(kernel.num_blocks())
        }
        fn apply(&self, _kernel: &Kernel, b: BlockId, state: &mut BitSet) {
            state.insert(b.index());
        }
    }

    #[test]
    fn backward_coreachability_fixpoint() {
        let k = parse_kernel(DIAMOND_LOOP).expect("parse");
        let sol = solve(&k, &CoReach);
        // Every block can reach the exit, so entry of the entry block
        // contains all blocks.
        let got: Vec<usize> = sol.entry[k.entry.index()].iter().collect();
        assert_eq!(got.len(), k.num_blocks());
    }
}
