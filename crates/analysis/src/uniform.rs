//! Uniformity (divergence) analysis.
//!
//! Classifies every register value as provably **uniform** across the
//! lanes of a CTA, provably **thread-varying** (data-dependent on
//! `%tid`/`%laneid`), or unknown. Two consumers in the lint pipeline:
//!
//! * the **divergent-barrier** check warns when a `bar.sync` executes
//!   under control dependent on a thread-varying predicate (lanes could
//!   arrive at different barriers — undefined behaviour on real GPUs,
//!   even though the lock-step simulator tolerates it);
//! * the **shared-memory race** detector only trusts accesses whose
//!   execution is provably lane-uniform, so it needs the complement:
//!   blocks that might execute on a strict subset of lanes.
//!
//! The register lattice is the chain `Undef < Uniform < Unknown <
//! Varying` (join = max). `Varying` is deliberately the top: once
//! tid-dependent data flows into a value we report it as varying even
//! if a merge could theoretically re-unify the lanes — the
//! divergent-barrier check is a warning, and the race detector only
//! acts on exactly `Uniform`.
//!
//! Control-induced divergence is handled by an outer fixpoint: any
//! definition inside a block control-dependent (per [`ControlDeps`]) on
//! a branch whose predicate is not provably uniform is itself forced to
//! `Varying`, and the dataflow re-runs until the forced set stabilises.

use penny_ir::{
    solve, BlockId, Direction, Inst, Kernel, Lattice, Loc, MemSpace, Op, Operand, Special,
    Terminator, Transfer, VReg,
};

use crate::cd::ControlDeps;

/// Lane-uniformity of a value (a chain lattice, join = max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Uni {
    /// Not defined on any path yet (bottom).
    Undef,
    /// Provably the same value in every lane of the CTA.
    Uniform,
    /// No proof either way (e.g. loaded from mutable memory).
    Unknown,
    /// Thread-varying: `%tid`/`%laneid` data flowed in.
    Varying,
}

impl Uni {
    fn join(self, o: Uni) -> Uni {
        self.max(o)
    }

    /// Provably identical across lanes?
    pub fn is_uniform(self) -> bool {
        self == Uni::Uniform
    }

    /// Did thread-varying data flow into this value?
    pub fn is_varying(self) -> bool {
        self == Uni::Varying
    }
}

fn special_uni(s: Special) -> Uni {
    match s {
        Special::TidX | Special::TidY | Special::LaneId => Uni::Varying,
        // Block/grid geometry and the CTA's own id are identical in
        // every lane of the CTA.
        _ => Uni::Uniform,
    }
}

/// Per-register uniformity environment (the dataflow state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniEnv {
    vals: Vec<Uni>,
}

impl UniEnv {
    fn new(nregs: usize) -> UniEnv {
        UniEnv { vals: vec![Uni::Undef; nregs] }
    }

    /// The uniformity of a register.
    pub fn get(&self, r: VReg) -> Uni {
        self.vals.get(r.index()).copied().unwrap_or(Uni::Unknown)
    }

    fn set(&mut self, r: VReg, v: Uni) {
        if r.index() < self.vals.len() {
            self.vals[r.index()] = v;
        }
    }
}

impl Lattice for UniEnv {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

struct UniTransfer<'a> {
    /// Blocks whose execution is possibly lane-divergent: every def
    /// inside is forced to `Varying`.
    forced: &'a [bool],
}

impl UniTransfer<'_> {
    fn eval(op: Operand, env: &UniEnv) -> Uni {
        match op {
            Operand::Reg(r) => env.get(r),
            Operand::Imm(_) => Uni::Uniform,
            Operand::Special(s) => special_uni(s),
        }
    }

    fn step(&self, inst: &Inst, block: BlockId, env: &mut UniEnv) {
        let Some(dst) = inst.def() else { return };
        let mut val = match inst.op {
            // Kernel parameters are launch constants; constant memory is
            // immutable, so a uniform address yields a uniform value.
            Op::Ld(MemSpace::Param) => Uni::Uniform,
            Op::Ld(MemSpace::Const) => {
                if Self::eval(inst.srcs[0], env).is_uniform() {
                    Uni::Uniform
                } else {
                    Uni::Unknown
                }
            }
            // Mutable memory: contents are beyond the abstraction.
            Op::Ld(_) | Op::Atom(..) => Uni::Unknown,
            // Pure ops: the join of the operands (all-immediate ⇒ Uniform).
            _ => inst.srcs.iter().fold(Uni::Uniform, |u, &o| u.join(Self::eval(o, env))),
        };
        if self.forced[block.index()] {
            val = val.join(Uni::Varying);
        }
        if let Some(g) = inst.guard {
            // Conditional def: the old value may survive, and a varying
            // guard makes the outcome lane-dependent.
            val = val.join(env.get(dst)).join(env.get(g.pred));
        }
        env.set(dst, val);
    }
}

impl Transfer for UniTransfer<'_> {
    type State = UniEnv;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, kernel: &Kernel) -> UniEnv {
        UniEnv::new(kernel.vreg_limit() as usize)
    }

    fn apply(&self, kernel: &Kernel, b: BlockId, state: &mut UniEnv) {
        for inst in &kernel.block(b).insts {
            self.step(inst, b, state);
        }
    }
}

/// The computed uniformity facts.
#[derive(Debug, Clone)]
pub struct Uniformity {
    entry: Vec<UniEnv>,
    exit: Vec<UniEnv>,
    /// Control-dependent on a branch whose predicate is not provably
    /// uniform (execution may cover a strict subset of lanes).
    divergent_exec: Vec<bool>,
    /// Control-dependent on a branch whose predicate is provably
    /// thread-varying (execution diverges for some launches).
    varying_exec: Vec<bool>,
}

impl Uniformity {
    /// Runs the analysis, including the control-induced-divergence
    /// outer fixpoint.
    pub fn compute(kernel: &Kernel) -> Uniformity {
        let n = kernel.num_blocks();
        let cds = ControlDeps::compute(kernel);
        let mut forced = vec![false; n];
        loop {
            let sol = solve(kernel, &UniTransfer { forced: &forced });
            let mut changed = false;
            let mut varying_exec = vec![false; n];
            for b in kernel.block_ids() {
                for dep in cds.deps_of(b) {
                    let Terminator::Branch { pred, .. } = kernel.block(dep.branch).term
                    else {
                        continue;
                    };
                    let u = sol.exit[dep.branch.index()].get(pred);
                    if u.is_varying() {
                        varying_exec[b.index()] = true;
                    }
                    if !u.is_uniform() && !forced[b.index()] {
                        forced[b.index()] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                return Uniformity {
                    entry: sol.entry,
                    exit: sol.exit,
                    divergent_exec: forced,
                    varying_exec,
                };
            }
        }
    }

    /// The environment at a block's entry (cloned for replay).
    pub fn block_env(&self, b: BlockId) -> UniEnv {
        self.entry[b.index()].clone()
    }

    /// Advances `env` across one instruction of block `b`.
    pub fn step(&self, inst: &Inst, b: BlockId, env: &mut UniEnv) {
        UniTransfer { forced: &self.divergent_exec }.step(inst, b, env);
    }

    /// The uniformity of `reg` just before the instruction at `loc`.
    pub fn value_before(&self, kernel: &Kernel, loc: Loc, reg: VReg) -> Uni {
        let mut env = self.block_env(loc.block);
        for inst in &kernel.block(loc.block).insts[..loc.idx] {
            self.step(inst, loc.block, &mut env);
        }
        env.get(reg)
    }

    /// May block `b` execute on a strict subset of the CTA's lanes?
    /// (Control-dependent on a not-provably-uniform branch.)
    pub fn divergent_exec(&self, b: BlockId) -> bool {
        self.divergent_exec[b.index()]
    }

    /// Is block `b` control-dependent on a provably thread-varying
    /// branch predicate?
    pub fn varying_exec(&self, b: BlockId) -> bool {
        self.varying_exec[b.index()]
    }

    /// The uniformity of block `b`'s branch predicate at its terminator,
    /// if `b` ends in a conditional branch.
    pub fn branch_pred_uni(&self, kernel: &Kernel, b: BlockId) -> Option<Uni> {
        match kernel.block(b).term {
            Terminator::Branch { pred, .. } => Some(self.exit[b.index()].get(pred)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    #[test]
    fn tid_taints_dataflow() {
        let k = parse_kernel(
            r#"
            .kernel k .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                shl.u32 %r2, %r0, 2
                add.u32 %r3, %r1, %r2
                mov.u32 %r4, %ntid.x
                ret
        "#,
        )
        .expect("parse");
        let u = Uniformity::compute(&k);
        let at = |idx, r| u.value_before(&k, Loc { block: BlockId(0), idx }, VReg(r));
        assert_eq!(at(5, 0), Uni::Varying);
        assert_eq!(at(5, 1), Uni::Uniform, "param load is uniform");
        assert_eq!(at(5, 2), Uni::Varying);
        assert_eq!(at(5, 3), Uni::Varying, "uniform + varying = varying");
        assert_eq!(at(5, 4), Uni::Uniform, "%ntid is uniform");
    }

    #[test]
    fn global_load_is_unknown() {
        let k = parse_kernel(
            r#"
            .kernel k .params A
            entry:
                ld.param.u32 %r0, [A]
                ld.global.u32 %r1, [%r0]
                ret
        "#,
        )
        .expect("parse");
        let u = Uniformity::compute(&k);
        assert_eq!(
            u.value_before(&k, Loc { block: BlockId(0), idx: 2 }, VReg(1)),
            Uni::Unknown
        );
    }

    #[test]
    fn control_dependence_on_varying_branch_forces_varying() {
        let k = parse_kernel(
            r#"
            .kernel k .params A
            entry:
                setp.lt.u32 %p0, %tid.x, 16
                bra %p0, hot, join
            hot:
                mov.u32 %r0, 1
                jmp join
            join:
                ret
        "#,
        )
        .expect("parse");
        let u = Uniformity::compute(&k);
        let hot = k.block_ids().find(|&b| k.block(b).label == "hot").unwrap();
        let join = k.block_ids().find(|&b| k.block(b).label == "join").unwrap();
        assert!(u.divergent_exec(hot));
        assert!(u.varying_exec(hot));
        assert!(!u.divergent_exec(join), "join reconverges");
        // %r0 = 1 is an immediate, but the def only happens on some
        // lanes: forced to Varying.
        assert_eq!(u.value_before(&k, Loc { block: join, idx: 0 }, VReg(0)), Uni::Varying);
    }

    #[test]
    fn uniform_loop_is_not_divergent() {
        let k = parse_kernel(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, 0
                jmp head
            head:
                bar.sync
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 8
                bra %p0, head, exit
            exit:
                ret
        "#,
        )
        .expect("parse");
        let u = Uniformity::compute(&k);
        let head = k.block_ids().find(|&b| k.block(b).label == "head").unwrap();
        assert!(!u.divergent_exec(head), "uniform trip count: no divergence");
        assert_eq!(u.branch_pred_uni(&k, head), Some(Uni::Uniform));
    }

    #[test]
    fn varying_guard_taints_def() {
        let k = parse_kernel(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, 5
                setp.lt.u32 %p0, %tid.x, 2
                @%p0 mov.u32 %r0, 9
                ret
        "#,
        )
        .expect("parse");
        let u = Uniformity::compute(&k);
        assert_eq!(
            u.value_before(&k, Loc { block: BlockId(0), idx: 3 }, VReg(0)),
            Uni::Varying
        );
    }
}
