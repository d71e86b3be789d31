//! Must-defined registers: the forward "defined on every path" analysis
//! behind the verifier's use-before-definition check and the kernel
//! sanitizer's `uninit-read` diagnostic.
//!
//! A guarded definition counts as defining, so the predicated
//! set-then-use idiom passes; the check targets reads that no
//! definition reaches at all. The two consumers differ only on blocks
//! no path from the entry reaches, which [`Orphans`] selects.

use crate::bitset::BitSet;
use crate::dataflow::{solve, Direction, Lattice, Transfer};
use crate::{BlockId, Kernel, VReg};

/// How a non-entry block with no predecessors is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orphans {
    /// It starts from the empty set, like the entry: a read there has
    /// no definition behind it (the verifier's rule).
    DefineNothing,
    /// It is unreached, like every block no path from the entry
    /// reaches, and its reads are not checked (the sanitizer's rule).
    Unreached,
}

/// A register read that some path reaches with no definition of the
/// register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndefinedRead {
    /// Block of the read.
    pub block: BlockId,
    /// Index of the reading instruction, or `None` for the block's
    /// branch predicate.
    pub idx: Option<usize>,
    /// The register read.
    pub reg: VReg,
}

/// Registers defined on every path so far: join is intersection.
#[derive(Debug, Clone)]
struct Defined(BitSet);

impl Lattice for Defined {
    fn join(&mut self, other: &Self) -> bool {
        self.0.intersect_with(&other.0)
    }
}

/// The analysis; `None` is a block no path has reached yet.
struct MustDefined {
    nregs: usize,
    /// Blocks that start from the empty set besides the entry.
    orphans: Vec<bool>,
}

impl Transfer for MustDefined {
    type State = Option<Defined>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _kernel: &Kernel) -> Option<Defined> {
        Some(Defined(BitSet::new(self.nregs)))
    }

    fn init(&self, _kernel: &Kernel) -> Option<Defined> {
        None
    }

    fn apply(&self, kernel: &Kernel, b: BlockId, state: &mut Option<Defined>) {
        if state.is_none() && self.orphans[b.index()] {
            *state = self.boundary(kernel);
        }
        if let Some(Defined(set)) = state {
            for d in kernel.block(b).insts.iter().filter_map(|i| i.def()) {
                set.insert(d.index());
            }
        }
    }
}

/// Every read of a register that some path from the entry reaches with
/// no definition of it, in block and instruction order (a block's
/// branch predicate after its instructions). Blocks that no path
/// reaches are skipped, except that [`Orphans::DefineNothing`] starts
/// each non-entry block without predecessors from the empty set.
pub fn undefined_reads(kernel: &Kernel, orphans: Orphans) -> Vec<UndefinedRead> {
    // Registers outside `vreg_limit` can only come from a kernel built
    // by hand; size the universe to cover every definition anyway.
    let nregs = kernel
        .locs()
        .filter_map(|(_, i)| i.def())
        .map(|d| d.index() + 1)
        .fold(kernel.vreg_limit() as usize, usize::max);
    let orphaned = orphans == Orphans::DefineNothing;
    let analysis = MustDefined {
        nregs,
        orphans: kernel.predecessors().iter().map(|p| orphaned && p.is_empty()).collect(),
    };
    let sol = solve(kernel, &analysis);
    let mut out = Vec::new();
    for b in kernel.block_ids() {
        let mut set = match &sol.entry[b.index()] {
            Some(Defined(set)) => set.clone(),
            None if analysis.orphans[b.index()] => BitSet::new(nregs),
            None => continue,
        };
        let block = kernel.block(b);
        for (idx, inst) in block.insts.iter().enumerate() {
            for reg in inst.uses() {
                if !set.contains(reg.index()) {
                    out.push(UndefinedRead { block: b, idx: Some(idx), reg });
                }
            }
            if let Some(d) = inst.def() {
                set.insert(d.index());
            }
        }
        if let Some(reg) = block.term.pred() {
            if !set.contains(reg.index()) {
                out.push(UndefinedRead { block: b, idx: None, reg });
            }
        }
    }
    out
}
