//! Penny's optimal two-phase checkpoint pruning (paper §6.4).
//!
//! Phase 1 classifies every checkpoint by building its recovery slice
//! under no assumptions: trivially prunable (ϕV/τP), trivially committed
//! (ϕI/τC), or undecided (ϕU/τU) with recorded decision dependences.
//! Phase 2 orders the undecided checkpoints by decision dependence
//! (Tarjan SCCs + topological order) and finalizes each in turn; SCC
//! members are solved together by brute force over their joint
//! assignment (the paper found no SCCs in its evaluation; neither do our
//! workloads, but the path is exercised by unit tests).

use std::collections::{HashMap, HashSet};

use penny_graph::StronglyConnectedComponents;
use penny_ir::{InstId, Kernel, RegionId, VReg};

use super::slice_builder::{Assume, BuildResult, Constraint, SliceBuilder};

/// Final pruning decisions.
#[derive(Debug, Clone, Default)]
pub struct PruneDecisions {
    /// Checkpoints to remove.
    pub pruned: Vec<InstId>,
    /// Checkpoints to keep.
    pub committed: Vec<InstId>,
}

/// Largest SCC the brute-force solver will attempt (2^12 assignments).
const MAX_SCC: usize = 12;

/// Pruning driver state.
pub struct Optimizer<'a> {
    /// Slice builder context (assume-agnostic pieces).
    pub builder: &'a SliceBuilder<'a>,
    /// All checkpoints in program order.
    pub checkpoints: Vec<InstId>,
    /// Consumer regions per checkpoint.
    pub consumers: HashMap<InstId, Vec<RegionId>>,
    /// Register saved by each checkpoint.
    pub regs: HashMap<InstId, VReg>,
    /// Cost of keeping each checkpoint.
    pub costs: HashMap<InstId, u64>,
}

/// Interior-mutable assumption table shared with the builder closure.
#[derive(Debug, Clone, Default)]
pub struct AssumeTable {
    inner: std::cell::RefCell<HashMap<InstId, Assume>>,
}

impl AssumeTable {
    /// Current assumption for a checkpoint.
    pub fn get(&self, id: InstId) -> Assume {
        self.inner.borrow().get(&id).copied().unwrap_or(Assume::Undecided)
    }

    /// Sets an assumption.
    pub fn set(&self, id: InstId, a: Assume) {
        self.inner.borrow_mut().insert(id, a);
    }

    /// Clears an assumption back to undecided.
    pub fn clear(&self, id: InstId) {
        self.inner.borrow_mut().remove(&id);
    }
}

/// Validates one checkpoint under current assumptions.
fn validate(opt: &Optimizer<'_>, kernel: &Kernel, cp: InstId) -> BuildResult {
    let loc = kernel.find_inst(cp).expect("checkpoint present");
    let reg = opt.regs[&cp];
    let consumers = opt.consumers.get(&cp).cloned().unwrap_or_default();
    let forbidden: HashSet<InstId> = [cp].into_iter().collect();
    opt.builder.build(reg, loc, &consumers, &forbidden)
}

/// Phase-1 classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Class {
    /// Trivially prunable.
    Pruned,
    /// Trivially committed.
    Committed,
    /// Undecided, with decision dependences.
    Undecided(Vec<Constraint>),
}

/// Runs both phases; returns the final decisions.
pub fn run(opt: &Optimizer<'_>, kernel: &Kernel, assume: &AssumeTable) -> PruneDecisions {
    // ---- Phase 1: trivial classification. ----
    let mut class: HashMap<InstId, Class> = HashMap::new();
    for &cp in &opt.checkpoints {
        // Dead checkpoints (no consumers) prune immediately.
        if opt.consumers.get(&cp).map(|c| c.is_empty()).unwrap_or(true) {
            class.insert(cp, Class::Pruned);
            assume.set(cp, Assume::Pruned);
            continue;
        }
        let c = match validate(opt, kernel, cp) {
            BuildResult::Built(_) => Class::Pruned,
            BuildResult::Invalid => Class::Committed,
            BuildResult::Undecided(deps) => Class::Undecided(deps),
        };
        match &c {
            Class::Pruned => assume.set(cp, Assume::Pruned),
            Class::Committed => assume.set(cp, Assume::Committed),
            Class::Undecided(_) => {}
        }
        class.insert(cp, c);
    }

    // ---- Phase 2: order undecided checkpoints by decision deps. ----
    let undecided: Vec<InstId> = opt
        .checkpoints
        .iter()
        .copied()
        .filter(|c| matches!(class.get(c), Some(Class::Undecided(_))))
        .collect();
    if !undecided.is_empty() {
        let index: HashMap<InstId, usize> =
            undecided.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let succs = |v: usize| -> Vec<usize> {
            let cp = undecided[v];
            match class.get(&cp) {
                Some(Class::Undecided(deps)) => deps
                    .iter()
                    .filter_map(|d| index.get(&d.inst()).copied())
                    .filter(|&u| u != v)
                    .collect(),
                _ => Vec::new(),
            }
        };
        let scc = StronglyConnectedComponents::compute(undecided.len(), succs);
        // Tarjan emits components in reverse topological order: a
        // component's dependences live in earlier-emitted components, so
        // processing in emission order decides prerequisites first.
        for comp in 0..scc.count() {
            let members: Vec<InstId> =
                scc.members(comp).iter().map(|&v| undecided[v]).collect();
            if members.len() == 1 && !scc.in_cycle(index[&members[0]], succs) {
                let cp = members[0];
                let verdict = match validate(opt, kernel, cp) {
                    BuildResult::Built(_) => Assume::Pruned,
                    // Still-undecided constraints or invalidity: keep it.
                    _ => Assume::Committed,
                };
                assume.set(cp, verdict);
            } else {
                solve_scc(opt, kernel, assume, &members);
            }
        }
    }

    // ---- Collect. ----
    let mut out = PruneDecisions::default();
    for &cp in &opt.checkpoints {
        match assume.get(cp) {
            Assume::Pruned => out.pruned.push(cp),
            _ => out.committed.push(cp),
        }
    }
    out
}

/// Brute-forces the joint assignment of an SCC's members, minimizing the
/// total committed cost (paper §6.4.2).
fn solve_scc(
    opt: &Optimizer<'_>,
    kernel: &Kernel,
    assume: &AssumeTable,
    members: &[InstId],
) {
    if members.len() > MAX_SCC {
        for &m in members {
            assume.set(m, Assume::Committed);
        }
        return;
    }
    let mut best: Option<(u64, u32)> = None;
    for mask in 0u32..(1 << members.len()) {
        for (i, &m) in members.iter().enumerate() {
            let a = if mask & (1 << i) != 0 { Assume::Pruned } else { Assume::Committed };
            assume.set(m, a);
        }
        let valid = members.iter().enumerate().all(|(i, &m)| {
            mask & (1 << i) == 0
                || matches!(validate(opt, kernel, m), BuildResult::Built(_))
        });
        if valid {
            let cost: u64 = members
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) == 0)
                .map(|(_, m)| opt.costs.get(m).copied().unwrap_or(1))
                .sum();
            if best.map(|(c, _)| cost < c).unwrap_or(true) {
                best = Some((cost, mask));
            }
        }
    }
    let mask = best.map(|(_, m)| m).unwrap_or(0);
    for (i, &m) in members.iter().enumerate() {
        let a = if mask & (1 << i) != 0 { Assume::Pruned } else { Assume::Committed };
        assume.set(m, a);
    }
}
