//! Symbolic address/alias analysis for memory anti-dependence detection.
//!
//! Region formation (paper §5) must break every **memory anti-dependence**
//! (a load followed by a store that may write the loaded location). We
//! approximate addresses with symbolic affine expressions over a small
//! basis — constants, `%tid.x/y`, `%ctaid.x/y`, `%ntid.x`, and the common
//! `%ctaid.x * %ntid.x` global-index product — rooted either at nothing
//! (shared-memory style raw addresses) or at a pointer-valued kernel
//! parameter.
//!
//! Two same-thread accesses provably touch different words when their
//! expressions share a base, agree on every varying coefficient, and
//! differ by at least the access width in the constant term. Everything
//! else *may alias* — conservative, exactly like the paper's use of a
//! standard alias analysis.
//!
//! Two refinements sharpen that baseline (both can be disabled with
//! [`AliasOptions::conservative`], which reproduces the original
//! behaviour exactly):
//!
//! * **Base tracking through unknown indices.** An address built from a
//!   pointer parameter plus a non-affine index (a loop-variant counter,
//!   a value loaded from memory) used to collapse to [`Sym::Unknown`].
//!   [`Sym::PtrAny`] keeps the *base parameter* even when the offset is
//!   lost, so under the distinct-parameter assumption a loop that reads
//!   `A[i]` and writes `B[i]` no longer forms an anti-dependence.
//! * **Value-range disjointness.** Each access also carries the
//!   [`Range`] of its address computed by [`RangeAnalysis`] under
//!   launch-independent [`RangeHints::default`] (so the verdict never
//!   depends on a particular launch geometry). Accesses whose address
//!   ranges are provably at least an access width apart — by bounds or
//!   by stride residue — cannot alias, and an address whose range sits
//!   entirely at or above [`GLOBAL_CKPT_BASE`] is classified as a
//!   checkpoint-arena access even when its affine form is unknown.

use std::collections::HashMap;

use crate::range::{Range, RangeAnalysis, RangeHints};
use penny_ir::{
    solve, BlockId, Direction, InstId, Kernel, Lattice, Loc, MemSpace, Op, Operand,
    Special, Transfer, VReg, GLOBAL_CKPT_BASE,
};

/// Options controlling conservatism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasOptions {
    /// Treat distinct pointer parameters as non-aliasing (the standard
    /// `restrict`-style assumption GPGPU kernels satisfy; documented in
    /// DESIGN.md).
    pub distinct_params: bool,
    /// Enable the range/base refinements: [`Sym::PtrAny`] base tracking
    /// and [`RangeAnalysis`]-backed address-range disjointness. Off, the
    /// analysis reproduces the original purely-affine behaviour.
    pub range_refine: bool,
}

impl Default for AliasOptions {
    fn default() -> Self {
        AliasOptions { distinct_params: true, range_refine: true }
    }
}

impl AliasOptions {
    /// The pre-refinement configuration: affine reasoning only, no base
    /// tracking through unknown indices, no value-range disjointness.
    /// Used by the benchmark harness to measure the refinement's effect.
    pub fn conservative() -> AliasOptions {
        AliasOptions { range_refine: false, ..AliasOptions::default() }
    }
}

/// Basis terms for affine address expressions.
pub(crate) const T_CONST: usize = 0;
pub(crate) const T_TIDX: usize = 1;
pub(crate) const T_TIDY: usize = 2;
pub(crate) const T_CTAX: usize = 3;
pub(crate) const T_CTAY: usize = 4;
pub(crate) const T_NTIDX: usize = 5;
pub(crate) const T_GIDX: usize = 6; // ctaid.x * ntid.x
pub(crate) const NTERMS: usize = 7;

/// An affine combination of the basis terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Affine {
    coeffs: [i64; NTERMS],
}

impl Affine {
    fn zero() -> Affine {
        Affine { coeffs: [0; NTERMS] }
    }

    fn konst(c: i64) -> Affine {
        let mut a = Affine::zero();
        a.coeffs[T_CONST] = c;
        a
    }

    fn term(t: usize) -> Affine {
        let mut a = Affine::zero();
        a.coeffs[t] = 1;
        a
    }

    fn add(self, o: Affine) -> Affine {
        let mut out = Affine::zero();
        for i in 0..NTERMS {
            out.coeffs[i] = self.coeffs[i].wrapping_add(o.coeffs[i]);
        }
        out
    }

    fn sub(self, o: Affine) -> Affine {
        let mut out = Affine::zero();
        for i in 0..NTERMS {
            out.coeffs[i] = self.coeffs[i].wrapping_sub(o.coeffs[i]);
        }
        out
    }

    fn scale(self, c: i64) -> Affine {
        let mut out = Affine::zero();
        for i in 0..NTERMS {
            out.coeffs[i] = self.coeffs[i].wrapping_mul(c);
        }
        out
    }

    fn as_const(self) -> Option<i64> {
        if self.coeffs[1..].iter().all(|&c| c == 0) {
            Some(self.coeffs[T_CONST])
        } else {
            None
        }
    }

    /// The constant term, when all varying coefficients are small and
    /// non-negative (thread-indexed offsets only ever add): suitable for
    /// address-range classification.
    fn as_base_and_const(self) -> Option<i64> {
        if self.coeffs[1..].iter().all(|&c| (0..=4096).contains(&c)) {
            Some(self.coeffs[T_CONST])
        } else {
            None
        }
    }

    /// The raw coefficient vector (shared-crate consumers: the race
    /// detector decomposes addresses into per-lane and CTA-uniform
    /// parts).
    pub(crate) fn raw(self) -> [i64; NTERMS] {
        self.coeffs
    }

    /// Is this exactly one basis term with coefficient 1?
    fn single_term(self) -> Option<usize> {
        let mut found = None;
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if c != 1 || found.is_some() {
                return None;
            }
            found = Some(i);
        }
        found
    }

    /// Same-thread distance check: provably at least `width` bytes apart?
    fn disjoint_from(self, o: Affine, width: i64) -> bool {
        let d = self.sub(o);
        match d.as_const() {
            Some(c) => c.abs() >= width,
            None => false,
        }
    }
}

/// Symbolic value of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// Not yet defined on any path (lattice top).
    Undef,
    /// A pure affine value.
    Aff(Affine),
    /// The value of the pointer parameter at byte offset `param`, plus an
    /// affine displacement.
    Ptr {
        /// Param-space byte offset identifying the parameter.
        param: u32,
        /// Displacement from the parameter value.
        off: Affine,
    },
    /// Somewhere inside the allocation of the pointer parameter at byte
    /// offset `param`, at an offset the analysis cannot express. Under
    /// the distinct-parameter (restrict) assumption this still cannot
    /// alias an access rooted at a different parameter.
    PtrAny {
        /// Param-space byte offset identifying the parameter.
        param: u32,
    },
    /// Anything (lattice bottom).
    Unknown,
}

impl Sym {
    /// The base parameter this value is derived from, if any.
    fn base_param(self) -> Option<u32> {
        match self {
            Sym::Ptr { param, .. } | Sym::PtrAny { param } => Some(param),
            _ => None,
        }
    }

    fn meet(self, o: Sym) -> Sym {
        match (self, o) {
            (Sym::Undef, x) | (x, Sym::Undef) => x,
            (a, b) if a == b => a,
            // Different offsets into the same parameter: the offset is
            // lost but the base survives.
            (a, b) if a.base_param().is_some() && a.base_param() == b.base_param() => {
                Sym::PtrAny { param: a.base_param().expect("checked") }
            }
            _ => Sym::Unknown,
        }
    }

    fn add(self, o: Sym) -> Sym {
        match (self, o) {
            (Sym::Aff(a), Sym::Aff(b)) => Sym::Aff(a.add(b)),
            (Sym::Ptr { param, off }, Sym::Aff(b))
            | (Sym::Aff(b), Sym::Ptr { param, off }) => Sym::Ptr { param, off: off.add(b) },
            (Sym::Undef, _) | (_, Sym::Undef) => Sym::Unknown,
            // Pointer plus an untracked index: still inside the same
            // parameter's allocation (restrict-style assumption).
            (
                Sym::Ptr { param, .. } | Sym::PtrAny { param },
                Sym::Aff(_) | Sym::Unknown,
            )
            | (
                Sym::Aff(_) | Sym::Unknown,
                Sym::Ptr { param, .. } | Sym::PtrAny { param },
            ) => Sym::PtrAny { param },
            _ => Sym::Unknown,
        }
    }

    fn sub(self, o: Sym) -> Sym {
        match (self, o) {
            (Sym::Aff(a), Sym::Aff(b)) => Sym::Aff(a.sub(b)),
            (Sym::Ptr { param, off }, Sym::Aff(b)) => Sym::Ptr { param, off: off.sub(b) },
            (
                Sym::Ptr { param, .. } | Sym::PtrAny { param },
                Sym::Aff(_) | Sym::Unknown,
            ) => Sym::PtrAny { param },
            _ => Sym::Unknown,
        }
    }

    fn mul(self, o: Sym) -> Sym {
        match (self, o) {
            (Sym::Aff(a), Sym::Aff(b)) => {
                if let Some(c) = b.as_const() {
                    Sym::Aff(a.scale(c))
                } else if let Some(c) = a.as_const() {
                    Sym::Aff(b.scale(c))
                } else if a.single_term() == Some(T_CTAX)
                    && b.single_term() == Some(T_NTIDX)
                    || a.single_term() == Some(T_NTIDX) && b.single_term() == Some(T_CTAX)
                {
                    Sym::Aff(Affine::term(T_GIDX))
                } else {
                    Sym::Unknown
                }
            }
            _ => Sym::Unknown,
        }
    }

    fn shl(self, o: Sym) -> Sym {
        match o {
            Sym::Aff(b) => match b.as_const() {
                Some(c) if (0..31).contains(&c) => {
                    self.mul(Sym::Aff(Affine::konst(1 << c)))
                }
                _ => Sym::Unknown,
            },
            _ => Sym::Unknown,
        }
    }
}

/// A summarized memory access.
#[derive(Debug, Clone, Copy)]
pub struct MemAccess {
    /// Location of the instruction.
    pub loc: Loc,
    /// Stable instruction id.
    pub inst: InstId,
    /// Memory space accessed.
    pub space: MemSpace,
    /// Whether the access reads (loads, atomics).
    pub is_read: bool,
    /// Whether the access writes (stores, atomics).
    pub is_write: bool,
    /// Symbolic address (base register value plus the instruction's
    /// constant offset).
    pub addr: Sym,
    /// Value range of the address, computed under launch-independent
    /// [`RangeHints::default`]. `None` when range refinement is disabled
    /// or the access has no numeric address (param/const spaces).
    pub range: Option<Range>,
}

/// Result of the alias analysis over one kernel snapshot.
#[derive(Debug, Clone)]
pub struct AliasAnalysis {
    accesses: Vec<MemAccess>,
    by_inst: HashMap<InstId, usize>,
    options: AliasOptions,
}

impl AliasAnalysis {
    /// Runs the analysis.
    pub fn compute(kernel: &Kernel, options: AliasOptions) -> AliasAnalysis {
        let values = solve(kernel, &Propagate).entry;
        // Hints are deliberately the launch-independent defaults: the
        // same kernel must get the same alias verdicts no matter what
        // geometry it is later launched with.
        let ranges = options
            .range_refine
            .then(|| RangeAnalysis::compute(kernel, RangeHints::default()));
        let mut accesses = Vec::new();
        let mut by_inst = HashMap::new();
        for b in kernel.block_ids() {
            let mut env = values[b.index()].clone();
            let mut renv = ranges.as_ref().map(|ra| ra.block_env(b));
            for (idx, inst) in kernel.block(b).insts.iter().enumerate() {
                let loc = Loc { block: b, idx };
                if let Some(space) = inst.mem_space() {
                    let base = match inst.srcs[0] {
                        Operand::Reg(r) => env.get(r),
                        other => eval_operand(other, &env),
                    };
                    let addr = base.add(Sym::Aff(Affine::konst(inst.offset as i64)));
                    let range = match (&ranges, &renv) {
                        (Some(ra), Some(re)) => ra.access_range(inst, re),
                        _ => None,
                    };
                    by_inst.insert(inst.id, accesses.len());
                    accesses.push(MemAccess {
                        loc,
                        inst: inst.id,
                        space,
                        is_read: inst.op.reads_memory(),
                        is_write: inst.op.writes_memory(),
                        addr,
                        range,
                    });
                }
                transfer(inst, &mut env);
                if let (Some(ra), Some(re)) = (&ranges, &mut renv) {
                    ra.step(inst, re);
                }
            }
        }
        AliasAnalysis { accesses, by_inst, options }
    }

    /// All memory accesses in program order.
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Looks up the summary for an instruction.
    pub fn access(&self, inst: InstId) -> Option<&MemAccess> {
        self.by_inst.get(&inst).map(|&i| &self.accesses[i])
    }

    /// Returns `true` if the address provably sits in the reserved
    /// (checkpoint-arena) range.
    fn in_reserved(&self, a: Sym) -> bool {
        match a {
            Sym::Aff(aff) => match aff.as_base_and_const() {
                Some(c) => (c as u32) >= GLOBAL_CKPT_BASE,
                None => false,
            },
            _ => false,
        }
    }

    /// Arena classification of a whole access: affine constant term, or
    /// (with range refinement) an address range entirely above the base.
    fn access_in_reserved(&self, a: &MemAccess) -> bool {
        self.in_reserved(a.addr)
            || matches!(a.range, Some(r) if r.lo >= GLOBAL_CKPT_BASE as i64)
    }

    /// With refinement off, [`Sym::PtrAny`] degrades to [`Sym::Unknown`]
    /// so verdicts match the original analysis exactly.
    fn norm(&self, a: Sym) -> Sym {
        match a {
            Sym::PtrAny { .. } if !self.options.range_refine => Sym::Unknown,
            other => other,
        }
    }

    /// May the given write overwrite the location read by the given read
    /// (i.e. can the pair form a same-thread memory anti-dependence)?
    ///
    /// Conservative: `true` unless provably disjoint.
    pub fn may_antidep(&self, read: &MemAccess, write: &MemAccess) -> bool {
        debug_assert!(read.is_read && write.is_write);
        if read.space != write.space {
            return false;
        }
        if write.space.is_read_only() {
            return false;
        }
        // Reserved-arena accesses never alias program data: the runtime
        // keeps all program allocations below the arena.
        if read.space == MemSpace::Global
            && self.access_in_reserved(read) != self.access_in_reserved(write)
        {
            return false;
        }
        // Address ranges provably an access width apart (by bounds or by
        // stride residue) cannot overlap, whatever their symbolic form.
        if let (Some(ra), Some(rb)) = (read.range, write.range) {
            if ra.disjoint_from(rb, 4) {
                return false;
            }
        }
        match (self.norm(read.addr), self.norm(write.addr)) {
            (Sym::Ptr { param: pa, off: oa }, Sym::Ptr { param: pb, off: ob }) => {
                if pa != pb {
                    return !self.options.distinct_params;
                }
                !oa.disjoint_from(ob, 4)
            }
            // One side lost its offset: disjointness is only provable
            // across distinct parameters.
            (Sym::PtrAny { param: pa }, Sym::Ptr { param: pb, .. })
            | (Sym::Ptr { param: pa, .. }, Sym::PtrAny { param: pb })
            | (Sym::PtrAny { param: pa }, Sym::PtrAny { param: pb }) => {
                pa == pb || !self.options.distinct_params
            }
            (Sym::Aff(a), Sym::Aff(b)) => !a.disjoint_from(b, 4),
            // Parameter pointers live below the arena; an arena-resident
            // affine address therefore cannot alias them.
            (Sym::Ptr { .. } | Sym::PtrAny { .. }, Sym::Aff(_))
                if self.access_in_reserved(write) =>
            {
                false
            }
            (Sym::Aff(_), Sym::Ptr { .. } | Sym::PtrAny { .. })
                if self.access_in_reserved(read) =>
            {
                false
            }
            // Mixed pointer/raw or Unknown: may alias.
            _ => true,
        }
    }
}

/// A per-register symbolic environment.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Env {
    vals: Vec<Sym>,
}

impl Env {
    fn new(nregs: usize) -> Env {
        Env { vals: vec![Sym::Undef; nregs] }
    }

    fn get(&self, r: VReg) -> Sym {
        self.vals.get(r.index()).copied().unwrap_or(Sym::Unknown)
    }

    fn set(&mut self, r: VReg, v: Sym) {
        if r.index() < self.vals.len() {
            self.vals[r.index()] = v;
        }
    }
}

/// The solver's join is [`Sym::meet`], pointwise: `Undef` is its
/// identity.
impl Lattice for Env {
    fn join(&mut self, o: &Env) -> bool {
        let mut changed = false;
        for (a, &b) in self.vals.iter_mut().zip(&o.vals) {
            let m = a.meet(b);
            if m != *a {
                *a = m;
                changed = true;
            }
        }
        changed
    }
}

fn eval_operand(o: Operand, env: &Env) -> Sym {
    match o {
        Operand::Reg(r) => env.get(r),
        Operand::Imm(v) => Sym::Aff(Affine::konst(v as i32 as i64)),
        Operand::Special(s) => match s {
            Special::TidX => Sym::Aff(Affine::term(T_TIDX)),
            Special::TidY => Sym::Aff(Affine::term(T_TIDY)),
            Special::CtaIdX => Sym::Aff(Affine::term(T_CTAX)),
            Special::CtaIdY => Sym::Aff(Affine::term(T_CTAY)),
            Special::NTidX => Sym::Aff(Affine::term(T_NTIDX)),
            _ => Sym::Unknown,
        },
    }
}

fn transfer(inst: &penny_ir::Inst, env: &mut Env) {
    let Some(dst) = inst.def() else { return };
    // A guarded definition may or may not execute: merge with the old
    // value.
    let old = env.get(dst);
    let ev = |i: usize, env: &Env| eval_operand(inst.srcs[i], env);
    let mut val = match inst.op {
        Op::Mov => ev(0, env),
        Op::Add => ev(0, env).add(ev(1, env)),
        Op::Sub => ev(0, env).sub(ev(1, env)),
        Op::Mul => ev(0, env).mul(ev(1, env)),
        Op::Mad => ev(0, env).mul(ev(1, env)).add(ev(2, env)),
        Op::Shl => ev(0, env).shl(ev(1, env)),
        Op::Ld(MemSpace::Param) => {
            // The loaded *value* of the parameter at this offset.
            match inst.srcs[0] {
                Operand::Imm(base) => Sym::Ptr {
                    param: base.wrapping_add(inst.offset as u32),
                    off: Affine::zero(),
                },
                _ => Sym::Unknown,
            }
        }
        _ => Sym::Unknown,
    };
    if inst.guard.is_some() {
        val = val.meet(old);
    }
    env.set(dst, val);
}

/// Forward propagation of symbolic values. Not monotone: `Sym::add`
/// maps an `Undef` operand to `Unknown`, while `Undef` is the join's
/// identity. Only a read that no definition reaches sees `Undef`, which
/// the verifier rejects.
struct Propagate;

impl Transfer for Propagate {
    type State = Env;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, kernel: &Kernel) -> Env {
        Env::new(kernel.vreg_limit() as usize)
    }

    fn apply(&self, kernel: &Kernel, b: BlockId, env: &mut Env) {
        for inst in &kernel.block(b).insts {
            transfer(inst, env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    fn analyze(src: &str) -> AliasAnalysis {
        let k = parse_kernel(src).expect("parse");
        AliasAnalysis::compute(&k, AliasOptions::default())
    }

    #[test]
    fn distinct_params_do_not_alias() {
        let aa = analyze(
            r#"
            .kernel k .params A B
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
        let accesses = aa.accesses();
        // [param A load, param B load, global load, global store]
        let reads: Vec<_> =
            accesses.iter().filter(|a| a.is_read && a.space == MemSpace::Global).collect();
        let writes: Vec<_> = accesses.iter().filter(|a| a.is_write).collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(writes.len(), 1);
        assert!(!aa.may_antidep(reads[0], writes[0]));
    }

    #[test]
    fn same_param_same_index_aliases() {
        let aa = analyze(
            r#"
            .kernel k .params A
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
        let read = aa.accesses().iter().find(|a| a.is_read && a.space == MemSpace::Global);
        let write = aa.accesses().iter().find(|a| a.is_write);
        assert!(aa.may_antidep(read.expect("read"), write.expect("write")));
    }

    #[test]
    fn constant_offset_disjointness() {
        let aa = analyze(
            r#"
            .kernel k .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                shl.u32 %r3, %r0, 2
                add.u32 %r4, %r1, %r3
                ld.global.u32 %r6, [%r4]
                st.global.u32 [%r4+4], %r6
                st.global.u32 [%r4+2], %r6
                ret
        "#,
        );
        let read = aa
            .accesses()
            .iter()
            .find(|a| a.is_read && a.space == MemSpace::Global)
            .copied()
            .expect("read");
        let writes: Vec<MemAccess> =
            aa.accesses().iter().filter(|a| a.is_write).copied().collect();
        // +4 bytes: provably disjoint for a 4-byte access.
        assert!(!aa.may_antidep(&read, &writes[0]));
        // +2 bytes: overlapping.
        assert!(aa.may_antidep(&read, &writes[1]));
    }

    #[test]
    fn different_spaces_never_alias() {
        let aa = analyze(
            r#"
            .kernel k .params A
            entry:
                mov.u32 %r0, %tid.x
                ld.param.u32 %r1, [A]
                ld.global.u32 %r2, [%r1]
                shl.u32 %r3, %r0, 2
                st.shared.u32 [%r3], %r2
                ret
        "#,
        );
        let read = aa
            .accesses()
            .iter()
            .find(|a| a.is_read && a.space == MemSpace::Global)
            .copied()
            .expect("read");
        let write = aa.accesses().iter().find(|a| a.is_write).copied().expect("write");
        assert!(!aa.may_antidep(&read, &write));
    }

    #[test]
    fn loop_variant_index_is_conservative() {
        let aa = analyze(
            r#"
            .kernel k .params A
            entry:
                mov.u32 %r0, 0
                ld.param.u32 %r1, [A]
                jmp head
            head:
                shl.u32 %r2, %r0, 2
                add.u32 %r3, %r1, %r2
                ld.global.u32 %r4, [%r3]
                st.global.u32 [%r3+4], %r4
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 8
                bra %p0, head, exit
            exit:
                ret
        "#,
        );
        let read = aa
            .accesses()
            .iter()
            .find(|a| a.is_read && a.space == MemSpace::Global)
            .copied()
            .expect("read");
        let write = aa.accesses().iter().find(|a| a.is_write).copied().expect("write");
        // %r0 is loop-variant so the offset is lost, but both accesses
        // stay rooted at A => may alias (the store at i+1 really does
        // clobber the next iteration's load).
        assert!(aa.may_antidep(&read, &write));
    }

    #[test]
    fn loop_variant_distinct_params_are_disjoint_via_base_tracking() {
        const SRC: &str = r#"
            .kernel k .params A B
            entry:
                mov.u32 %r0, 0
                ld.param.u32 %r1, [A]
                ld.param.u32 %r2, [B]
                jmp head
            head:
                shl.u32 %r3, %r0, 2
                add.u32 %r4, %r1, %r3
                add.u32 %r5, %r2, %r3
                ld.global.u32 %r6, [%r4]
                st.global.u32 [%r5], %r6
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 8
                bra %p0, head, exit
            exit:
                ret
        "#;
        let k = parse_kernel(SRC).expect("parse");
        let find = |aa: &AliasAnalysis| {
            let read = aa
                .accesses()
                .iter()
                .find(|a| a.is_read && a.space == MemSpace::Global)
                .copied()
                .expect("read");
            let write = aa.accesses().iter().find(|a| a.is_write).copied().expect("write");
            (read, write)
        };
        // Refined: the loop-variant index degrades both addresses to
        // PtrAny, but distinct bases still prove disjointness.
        let aa = AliasAnalysis::compute(&k, AliasOptions::default());
        let (read, write) = find(&aa);
        assert!(matches!(read.addr, Sym::PtrAny { .. }), "{:?}", read.addr);
        assert!(!aa.may_antidep(&read, &write));
        // Conservative: both collapse to Unknown => may alias, exactly
        // the original behaviour.
        let aa = AliasAnalysis::compute(&k, AliasOptions::conservative());
        let (read, write) = find(&aa);
        assert!(aa.may_antidep(&read, &write));
    }

    #[test]
    fn shared_tiles_are_disjoint_by_address_range() {
        // Two shared-memory tiles indexed by an opaque value reduced
        // modulo the tile size: the affine form is Unknown, but the
        // ranges [0,252] and [256,508] cannot overlap.
        const SRC: &str = r#"
            .kernel k .params A
            entry:
                ld.param.u32 %r1, [A]
                ld.global.u32 %r2, [%r1]
                rem.u32 %r3, %r2, 64
                shl.u32 %r4, %r3, 2
                add.u32 %r5, %r4, 256
                ld.shared.u32 %r6, [%r4]
                st.shared.u32 [%r5], %r6
                ret
        "#;
        let k = parse_kernel(SRC).expect("parse");
        let find = |aa: &AliasAnalysis| {
            let read = aa
                .accesses()
                .iter()
                .find(|a| a.is_read && a.space == MemSpace::Shared)
                .copied()
                .expect("read");
            let write = aa
                .accesses()
                .iter()
                .find(|a| a.is_write && a.space == MemSpace::Shared)
                .copied()
                .expect("write");
            (read, write)
        };
        let aa = AliasAnalysis::compute(&k, AliasOptions::default());
        let (read, write) = find(&aa);
        assert_eq!(read.range.map(|r| (r.lo, r.hi)), Some((0, 252)));
        assert_eq!(write.range.map(|r| (r.lo, r.hi)), Some((256, 508)));
        assert!(!aa.may_antidep(&read, &write));
        let aa = AliasAnalysis::compute(&k, AliasOptions::conservative());
        let (read, write) = find(&aa);
        assert!(aa.may_antidep(&read, &write));
    }

    #[test]
    fn reserved_arena_classification_uses_ranges() {
        // A store whose address is opaque to the affine analysis (modulo
        // of a loaded value) but whose range sits entirely inside the
        // checkpoint arena cannot clobber parameter-derived data.
        const SRC: &str = r#"
            .kernel k .params A
            entry:
                ld.param.u32 %r1, [A]
                ld.global.u32 %r2, [%r1]
                rem.u32 %r3, %r2, 256
                shl.u32 %r4, %r3, 2
                add.u32 %r5, %r4, 3221225472
                st.global.u32 [%r5], %r2
                ret
        "#;
        let k = parse_kernel(SRC).expect("parse");
        let find = |aa: &AliasAnalysis| {
            let read = aa
                .accesses()
                .iter()
                .find(|a| a.is_read && a.space == MemSpace::Global)
                .copied()
                .expect("read");
            let write = aa.accesses().iter().find(|a| a.is_write).copied().expect("write");
            (read, write)
        };
        let aa = AliasAnalysis::compute(&k, AliasOptions::default());
        let (read, write) = find(&aa);
        assert!(!aa.may_antidep(&read, &write));
        let aa = AliasAnalysis::compute(&k, AliasOptions::conservative());
        let (read, write) = find(&aa);
        assert!(aa.may_antidep(&read, &write));
    }

    #[test]
    fn strided_ranges_are_disjoint_by_residue() {
        // Interleaved layout: one access touches words at 8k, the other
        // at 8k+4. Bounds overlap but the stride residues never meet.
        const SRC: &str = r#"
            .kernel k .params A
            entry:
                ld.param.u32 %r1, [A]
                ld.global.u32 %r2, [%r1]
                rem.u32 %r3, %r2, 64
                shl.u32 %r4, %r3, 3
                add.u32 %r5, %r4, 4
                ld.shared.u32 %r6, [%r4]
                st.shared.u32 [%r5], %r6
                ret
        "#;
        let k = parse_kernel(SRC).expect("parse");
        let aa = AliasAnalysis::compute(&k, AliasOptions::default());
        let read = aa
            .accesses()
            .iter()
            .find(|a| a.is_read && a.space == MemSpace::Shared)
            .copied()
            .expect("read");
        let write = aa.accesses().iter().find(|a| a.is_write).copied().expect("write");
        assert!(!aa.may_antidep(&read, &write));
    }

    #[test]
    fn global_index_product_is_tracked() {
        let aa = analyze(
            r#"
            .kernel k .params A B
            entry:
                mov.u32 %r0, %tid.x
                mov.u32 %r1, %ctaid.x
                mov.u32 %r2, %ntid.x
                mul.u32 %r3, %r1, %r2
                add.u32 %r4, %r3, %r0
                ld.param.u32 %r5, [A]
                ld.param.u32 %r6, [B]
                shl.u32 %r7, %r4, 2
                add.u32 %r8, %r5, %r7
                add.u32 %r9, %r6, %r7
                ld.global.f32 %r10, [%r8]
                st.global.f32 [%r9], %r10
                st.global.f32 [%r8], %r10
                ret
        "#,
        );
        let read = aa
            .accesses()
            .iter()
            .find(|a| a.is_read && a.space == MemSpace::Global)
            .copied()
            .expect("read");
        let writes: Vec<MemAccess> =
            aa.accesses().iter().filter(|a| a.is_write).copied().collect();
        // Write to B: distinct param, no anti-dep.
        assert!(!aa.may_antidep(&read, &writes[0]));
        // Write back to A at the same gid: anti-dep.
        assert!(aa.may_antidep(&read, &writes[1]));
    }
}
