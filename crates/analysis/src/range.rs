//! SCEV-lite value-range/stride analysis.
//!
//! Computes, for every register at every block entry, a conservative
//! `[lo, hi]` interval plus a stride: the register's value is known to
//! lie in `{lo, lo+stride, lo+2·stride, …} ∩ [lo, hi]`. Address
//! operands in GPU kernels are overwhelmingly `base + affine(tid,
//! loop-iv)` expressions (PRESAGE's "structured addresses"), so an
//! interval-with-stride domain recovers most of what full scalar
//! evolution would: loop-trip bounds via branch-condition edge
//! refinement, power-of-two strides via `shl`, and launch-geometry
//! bounds for the special registers.
//!
//! The analysis is a forward instance of the [`penny_ir::dataflow`]
//! framework. Joins widen `hi` up (and `lo` down) a power-of-two
//! ladder, so ascending chains are short and the solver terminates
//! quickly even for unbounded loop counters; branch refinement on the
//! back edge then claws the loop bound back.
//!
//! All values are modeled as **unsigned 32-bit** integers; any
//! operation whose mathematical result could leave `[0, 2^32)` returns
//! the full range (wraparound is never tracked). This keeps every
//! claimed range sound for the u32 machine arithmetic the simulator
//! performs.

use penny_ir::{
    solve, BlockId, Cmp, Direction, Inst, Kernel, Lattice, Loc, MemSpace, Op, Operand,
    Special, Transfer, Type, VReg,
};

const U32_MAX: i64 = u32::MAX as i64;

/// A non-empty set of u32 values: `{lo + k·stride} ∩ [lo, hi]`.
///
/// `stride == 0` means the singleton `{lo}` (and `lo == hi`);
/// `stride == 1` carries no congruence information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
    /// All values are congruent to `lo` modulo `stride`.
    pub stride: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Round `v` up to the widening ladder `{2^k − 1} ∪ {2^32 − 1}`.
fn ladder_up(v: i64) -> i64 {
    for k in 0..32 {
        let rung = (1i64 << k) - 1;
        if rung >= v {
            return rung;
        }
    }
    U32_MAX
}

/// Round `v` down to the widening ladder `{0} ∪ {2^k}`.
fn ladder_down(v: i64) -> i64 {
    if v <= 0 {
        return 0;
    }
    let mut rung = 1i64;
    while rung * 2 <= v {
        rung *= 2;
    }
    rung
}

impl Range {
    /// The full u32 range (no information).
    pub fn top() -> Range {
        Range { lo: 0, hi: U32_MAX, stride: 1 }
    }

    /// A singleton value.
    pub fn exact(v: u32) -> Range {
        Range { lo: v as i64, hi: v as i64, stride: 0 }
    }

    /// `[lo, hi]` with no congruence information.
    pub fn span(lo: u32, hi: u32) -> Range {
        let (lo, hi) = (lo as i64, hi as i64);
        Range { lo, hi, stride: if lo == hi { 0 } else { 1 } }
    }

    /// The single value, if the range is a singleton.
    pub fn as_const(self) -> Option<i64> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    fn canon(lo: i64, hi: i64, stride: u64) -> Range {
        if lo > hi {
            return Range::top();
        }
        if lo < 0 || hi > U32_MAX {
            // The machine value wraps modulo 2^32. A power-of-two stride
            // divides 2^32, so the congruence class survives the wrap
            // even though the bounds do not.
            if stride.is_power_of_two() && stride > 1 && stride <= (1 << 31) {
                let s = stride as i64;
                let base = lo.rem_euclid(s);
                let hi = base + ((U32_MAX - base) / s) * s;
                return Range { lo: base, hi, stride };
            }
            return Range::top();
        }
        if lo == hi {
            return Range { lo, hi, stride: 0 };
        }
        // Snap hi onto the progression from lo.
        let s = stride.max(1) as i64;
        let hi = lo + ((hi - lo) / s) * s;
        Range { lo, hi, stride: if lo == hi { 0 } else { s as u64 } }
    }

    /// Exact (non-widening) bound intersection, preserving the stride;
    /// `None` when the intersection is empty.
    fn meet_bounds(self, lo: i64, hi: i64) -> Option<Range> {
        let s = self.stride.max(1) as i64;
        let mut nlo = self.lo;
        if lo > nlo {
            nlo += (lo - self.lo + s - 1) / s * s;
        }
        let mut nhi = self.hi;
        if hi < nhi {
            nhi = self.lo + ((hi - self.lo) / s) * s;
        }
        if nlo > nhi {
            return None;
        }
        Some(Range::canon(nlo, nhi, self.stride))
    }

    /// Widening join: bounds that grow are rounded outward along a
    /// power-of-two ladder so chains stay short.
    fn join(self, o: Range) -> Range {
        let mut lo = self.lo.min(o.lo);
        let mut hi = self.hi.max(o.hi);
        if o.lo < self.lo {
            lo = ladder_down(lo);
        }
        if o.hi > self.hi {
            hi = ladder_up(hi);
        }
        let mut g = gcd(self.stride, o.stride);
        g = gcd(g, (self.lo - o.lo).unsigned_abs());
        g = gcd(g, (self.lo.min(o.lo) - lo).unsigned_abs());
        Range::canon(lo, hi, g)
    }

    fn add(self, o: Range) -> Range {
        Range::canon(self.lo + o.lo, self.hi + o.hi, gcd(self.stride, o.stride))
    }

    fn sub(self, o: Range) -> Range {
        Range::canon(self.lo - o.hi, self.hi - o.lo, gcd(self.stride, o.stride))
    }

    fn mul(self, o: Range) -> Range {
        if let Some(c) = o.as_const() {
            return self.scale(c);
        }
        if let Some(c) = self.as_const() {
            return o.scale(c);
        }
        match (self.hi.checked_mul(o.hi), self.lo.checked_mul(o.lo)) {
            (Some(hi), Some(lo)) => Range::canon(lo, hi, 1),
            _ => Range::top(),
        }
    }

    fn scale(self, c: i64) -> Range {
        if c < 0 {
            return Range::top();
        }
        match (self.lo.checked_mul(c), self.hi.checked_mul(c)) {
            (Some(lo), Some(hi)) => {
                Range::canon(lo, hi, self.stride.max(1).saturating_mul(c as u64))
            }
            _ => Range::top(),
        }
    }

    fn shl(self, o: Range) -> Range {
        match o.as_const() {
            Some(c) if (0..32).contains(&c) => self.scale(1i64 << c),
            _ => Range::top(),
        }
    }

    fn shr(self, o: Range) -> Range {
        match o.as_const() {
            Some(c) if (0..32).contains(&c) => Range::canon(self.lo >> c, self.hi >> c, 1),
            _ => Range::top(),
        }
    }

    fn div(self, o: Range) -> Range {
        match o.as_const() {
            Some(c) if c > 0 => Range::canon(self.lo / c, self.hi / c, 1),
            _ => Range::top(),
        }
    }

    fn rem(self, o: Range) -> Range {
        match o.as_const() {
            Some(c) if c > 0 => {
                if self.hi < c {
                    self
                } else {
                    Range::canon(0, c - 1, 1)
                }
            }
            _ => Range::top(),
        }
    }

    fn min(self, o: Range) -> Range {
        let lo = self.lo.min(o.lo);
        let hi = self.hi.min(o.hi);
        Range::canon(
            lo,
            hi,
            gcd(gcd(self.stride, o.stride), (self.lo - o.lo).unsigned_abs()),
        )
    }

    fn max(self, o: Range) -> Range {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.max(o.hi);
        Range::canon(
            lo,
            hi,
            gcd(gcd(self.stride, o.stride), (self.lo - o.lo).unsigned_abs()),
        )
    }

    /// Minimum distance between any element of `self` and any element of
    /// `o`: `true` when the two sets are provably at least `width` bytes
    /// apart (treating elements as byte addresses of `width`-byte
    /// accesses, i.e. the accessed intervals never overlap).
    pub fn disjoint_from(self, o: Range, width: i64) -> bool {
        if self.lo > o.hi {
            return self.lo - o.hi >= width;
        }
        if o.lo > self.hi {
            return o.lo - self.hi >= width;
        }
        // Overlapping bounds: the congruence classes may still keep the
        // progressions apart.
        let g = gcd(self.stride.max(1), o.stride.max(1)) as i64;
        if g >= 2 * width {
            let r = (self.lo - o.lo).rem_euclid(g);
            return r >= width && g - r >= width;
        }
        false
    }
}

/// Launch-geometry bounds for the special registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeHints {
    /// Block dimensions (x, y).
    pub ntid: (u32, u32),
    /// Grid dimensions (x, y).
    pub nctaid: (u32, u32),
    /// When `true` the dimensions are the exact launch geometry; when
    /// `false` they are upper bounds only.
    pub exact: bool,
}

impl Default for RangeHints {
    /// Sound for any launch the simulator supports: dimensions are
    /// treated as upper bounds, not exact values.
    fn default() -> RangeHints {
        RangeHints { ntid: (1024, 1024), nctaid: (65535, 65535), exact: false }
    }
}

impl RangeHints {
    /// Hints for a known launch geometry (dimensions are exact).
    pub fn launch(ntid: (u32, u32), nctaid: (u32, u32)) -> RangeHints {
        RangeHints { ntid, nctaid, exact: true }
    }

    fn special(&self, s: Special) -> Range {
        let dim = |d: u32, exact: bool| {
            if exact {
                Range::exact(d)
            } else {
                Range::span(1, d.max(1))
            }
        };
        let idx = |d: u32| Range::span(0, d.saturating_sub(1));
        match s {
            Special::TidX => idx(self.ntid.0),
            Special::TidY => idx(self.ntid.1),
            Special::NTidX => dim(self.ntid.0, self.exact),
            Special::NTidY => dim(self.ntid.1, self.exact),
            Special::CtaIdX => idx(self.nctaid.0),
            Special::CtaIdY => idx(self.nctaid.1),
            Special::NCtaIdX => dim(self.nctaid.0, self.exact),
            Special::NCtaIdY => dim(self.nctaid.1, self.exact),
            Special::LaneId => Range::span(0, 31),
        }
    }
}

/// Per-register range environment (the dataflow state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeEnv {
    /// `None` = not yet defined on any path (lattice bottom).
    vals: Vec<Option<Range>>,
}

impl RangeEnv {
    fn new(nregs: usize) -> RangeEnv {
        RangeEnv { vals: vec![None; nregs] }
    }

    /// The range of a register (`Range::top()` when nothing is known).
    pub fn get(&self, r: VReg) -> Range {
        self.vals.get(r.index()).copied().flatten().unwrap_or_else(Range::top)
    }

    /// The range of a register, `None` while still lattice-bottom.
    fn defined(&self, r: VReg) -> Option<Range> {
        self.vals.get(r.index()).copied().flatten()
    }

    fn set(&mut self, r: VReg, v: Range) {
        if r.index() < self.vals.len() {
            self.vals[r.index()] = Some(v);
        }
    }
}

impl Lattice for RangeEnv {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            let j = match (*a, *b) {
                (x, None) => x,
                (None, Some(y)) => Some(y),
                (Some(x), Some(y)) => Some(x.join(y)),
            };
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

struct RangeTransfer {
    hints: RangeHints,
}

impl RangeTransfer {
    fn eval(&self, op: Operand, env: &RangeEnv) -> Range {
        match op {
            Operand::Reg(r) => env.get(r),
            Operand::Imm(v) => Range::exact(v),
            Operand::Special(s) => self.hints.special(s),
        }
    }

    fn step(&self, inst: &Inst, env: &mut RangeEnv) {
        let Some(dst) = inst.def() else { return };
        let ev = |i: usize, env: &RangeEnv| self.eval(inst.srcs[i], env);
        let mut val = match inst.op {
            Op::Mov => ev(0, env),
            Op::Add => ev(0, env).add(ev(1, env)),
            Op::Sub => ev(0, env).sub(ev(1, env)),
            Op::Mul => ev(0, env).mul(ev(1, env)),
            Op::Mad => ev(0, env).mul(ev(1, env)).add(ev(2, env)),
            Op::Shl => ev(0, env).shl(ev(1, env)),
            Op::Shr => ev(0, env).shr(ev(1, env)),
            Op::Div if inst.ty == Type::U32 => ev(0, env).div(ev(1, env)),
            Op::Rem if inst.ty == Type::U32 => ev(0, env).rem(ev(1, env)),
            Op::Min if inst.ty == Type::U32 => ev(0, env).min(ev(1, env)),
            Op::Max if inst.ty == Type::U32 => ev(0, env).max(ev(1, env)),
            Op::Setp(_) => Range::span(0, 1),
            _ => Range::top(),
        };
        if inst.guard.is_some() {
            val = val.join(env.get(dst));
        }
        env.set(dst, val);
    }

    /// Refines `env` with the branch condition selecting edge
    /// `from → to`, when the deciding predicate comes from an unguarded
    /// unsigned `setp` in `from`.
    fn refine(&self, kernel: &Kernel, from: BlockId, to: BlockId, env: &mut RangeEnv) {
        let blk = kernel.block(from);
        let penny_ir::Terminator::Branch { pred, negated, then_, else_ } = blk.term else {
            return;
        };
        if then_ == else_ {
            return;
        }
        // The predicate holds on the then-edge iff !negated.
        let pred_true = if to == then_ { !negated } else { negated };
        let Some(setp) = blk
            .insts
            .iter()
            .rev()
            .find(|i| i.def() == Some(pred))
            .filter(|i| i.guard.is_none())
        else {
            return;
        };
        let Op::Setp(cmp) = setp.op else { return };
        if setp.ty != Type::U32 {
            return;
        }
        let cmp = if pred_true { cmp } else { negate(cmp) };
        let (a, b) = (setp.srcs[0], setp.srcs[1]);
        let (ra, rb) = (self.eval(a, env), self.eval(b, env));
        // Only narrow facts that already exist: a register still at
        // lattice bottom means this edge has not been reached yet, and
        // materializing a value for it would poison later joins.
        for (opnd, c, other) in [(a, cmp, rb), (b, flip(cmp), ra)] {
            let Operand::Reg(r) = opnd else { continue };
            let Some(cur) = env.defined(r) else { continue };
            match constrain(cur, c, other) {
                Constrained::To(x) => env.set(r, x),
                Constrained::NoInfo => {}
                Constrained::Infeasible => {
                    // The branch condition contradicts the current facts:
                    // this edge is not (yet) executable. Contribute lattice
                    // bottom so the join ignores it.
                    *env = RangeEnv::new(env.vals.len());
                    return;
                }
            }
        }
    }
}

fn negate(c: Cmp) -> Cmp {
    match c {
        Cmp::Eq => Cmp::Ne,
        Cmp::Ne => Cmp::Eq,
        Cmp::Lt => Cmp::Ge,
        Cmp::Ge => Cmp::Lt,
        Cmp::Le => Cmp::Gt,
        Cmp::Gt => Cmp::Le,
    }
}

fn flip(c: Cmp) -> Cmp {
    match c {
        Cmp::Lt => Cmp::Gt,
        Cmp::Gt => Cmp::Lt,
        Cmp::Le => Cmp::Ge,
        Cmp::Ge => Cmp::Le,
        other => other,
    }
}

/// Outcome of refining a range with a branch condition.
enum Constrained {
    /// The condition narrows the range.
    To(Range),
    /// The condition says nothing useful.
    NoInfo,
    /// The condition contradicts the range: the edge is infeasible.
    Infeasible,
}

/// Refine `r` knowing `r CMP rhs` holds.
fn constrain(r: Range, cmp: Cmp, rhs: Range) -> Constrained {
    let bounds = match cmp {
        Cmp::Lt => r.meet_bounds(0, rhs.hi - 1),
        Cmp::Le => r.meet_bounds(0, rhs.hi),
        Cmp::Gt => r.meet_bounds(rhs.lo + 1, U32_MAX),
        Cmp::Ge => r.meet_bounds(rhs.lo, U32_MAX),
        Cmp::Eq => r.meet_bounds(rhs.lo, rhs.hi),
        Cmp::Ne => return Constrained::NoInfo,
    };
    match bounds {
        Some(x) => Constrained::To(x),
        None => Constrained::Infeasible,
    }
}

impl Transfer for RangeTransfer {
    type State = RangeEnv;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, kernel: &Kernel) -> RangeEnv {
        RangeEnv::new(kernel.vreg_limit() as usize)
    }

    fn apply(&self, kernel: &Kernel, b: BlockId, state: &mut RangeEnv) {
        for inst in &kernel.block(b).insts {
            self.step(inst, state);
        }
    }

    fn refine_edge(&self, kernel: &Kernel, from: BlockId, to: BlockId, env: &mut RangeEnv) {
        self.refine(kernel, from, to, env);
    }
}

/// The computed value ranges: per-block entry environments plus
/// replay-based per-point queries.
#[derive(Debug, Clone)]
pub struct RangeAnalysis {
    entry: Vec<RangeEnv>,
    hints: RangeHints,
}

impl RangeAnalysis {
    /// Runs the analysis under the given launch-geometry hints.
    pub fn compute(kernel: &Kernel, hints: RangeHints) -> RangeAnalysis {
        let t = RangeTransfer { hints };
        let sol = solve(kernel, &t);
        RangeAnalysis { entry: sol.entry, hints }
    }

    /// The hints the analysis ran under.
    pub fn hints(&self) -> RangeHints {
        self.hints
    }

    /// The environment at a block's entry (cloned for replay).
    pub fn block_env(&self, b: BlockId) -> RangeEnv {
        self.entry[b.index()].clone()
    }

    /// Advances `env` across one instruction (replay helper).
    pub fn step(&self, inst: &Inst, env: &mut RangeEnv) {
        RangeTransfer { hints: self.hints }.step(inst, env);
    }

    /// The range of an operand under `env`.
    pub fn operand_range(&self, op: Operand, env: &RangeEnv) -> Range {
        RangeTransfer { hints: self.hints }.eval(op, env)
    }

    /// The range of `reg` just before the instruction at `loc`.
    pub fn range_before(&self, kernel: &Kernel, loc: Loc, reg: VReg) -> Range {
        let mut env = self.block_env(loc.block);
        for inst in &kernel.block(loc.block).insts[..loc.idx] {
            self.step(inst, &mut env);
        }
        env.get(reg)
    }

    /// The byte range a memory access may touch (address of the first
    /// byte), or `None` for non-memory instructions.
    pub fn access_range(&self, inst: &Inst, env: &RangeEnv) -> Option<Range> {
        let (base, off) = inst.mem_addr()?;
        if matches!(inst.mem_space(), Some(MemSpace::Param | MemSpace::Const)) {
            return None;
        }
        let b = self.operand_range(base, env);
        let (lo, hi) = (b.lo + off as i64, b.hi + off as i64);
        if lo < 0 || hi > U32_MAX {
            return Some(Range::top());
        }
        Some(Range::canon(lo, hi, b.stride))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    #[test]
    fn tid_scaled_address_has_stride() {
        let k = parse_kernel(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, %tid.x
                shl.u32 %r1, %r0, 2
                add.u32 %r2, %r1, 256
                st.shared.u32 [%r2], %r0
                ret
        "#,
        )
        .expect("parse");
        let ra = RangeAnalysis::compute(&k, RangeHints::launch((8, 1), (1, 1)));
        let r = ra.range_before(&k, Loc { block: BlockId(0), idx: 3 }, VReg(2));
        assert_eq!(r, Range { lo: 256, hi: 284, stride: 4 });
    }

    #[test]
    fn loop_counter_is_bounded_by_branch_refinement() {
        let k = parse_kernel(
            r#"
            .kernel k .params A
            entry:
                mov.u32 %r0, 0
                jmp head
            head:
                add.u32 %r0, %r0, 1
                setp.lt.u32 %p0, %r0, 8
                bra %p0, head, exit
            exit:
                ret
        "#,
        )
        .expect("parse");
        let ra = RangeAnalysis::compute(&k, RangeHints::default());
        // At head entry: 0 from the preheader, [1, 7] from the back edge.
        let r = ra.range_before(&k, Loc { block: BlockId(1), idx: 0 }, VReg(0));
        assert_eq!(r.lo, 0);
        assert_eq!(r.hi, 7);
        // After the exit edge the counter is exactly 8.
        let r = ra.range_before(&k, Loc { block: BlockId(2), idx: 0 }, VReg(0));
        assert!(r.lo >= 0 && r.hi <= 8, "{r:?}");
    }

    #[test]
    fn unbounded_loop_widens_to_top_and_terminates() {
        let k = parse_kernel(
            r#"
            .kernel k .params A
            entry:
                mov.u32 %r0, 0
                ld.param.u32 %r1, [A]
                jmp head
            head:
                add.u32 %r0, %r0, 4
                ld.global.u32 %r2, [%r1]
                setp.lt.u32 %p0, %r0, %r2
                bra %p0, head, exit
            exit:
                ret
        "#,
        )
        .expect("parse");
        let ra = RangeAnalysis::compute(&k, RangeHints::default());
        let r = ra.range_before(&k, Loc { block: BlockId(1), idx: 0 }, VReg(0));
        // The bound is data-dependent: the range widens but keeps the
        // stride-4 congruence.
        assert_eq!(r.lo, 0);
        assert_eq!(r.stride % 4, 0, "{r:?}");
    }

    #[test]
    fn strided_progressions_are_disjoint() {
        // {0, 8, 16, ...} vs {4, 12, 20, ...}: never within 4 bytes.
        let a = Range { lo: 0, hi: 1024, stride: 8 };
        let b = Range { lo: 4, hi: 1028, stride: 8 };
        assert!(a.disjoint_from(b, 4));
        assert!(b.disjoint_from(a, 4));
        // Same progression: overlaps.
        assert!(!a.disjoint_from(a, 4));
        // Separated spans.
        let c = Range { lo: 0, hi: 252, stride: 4 };
        let d = Range { lo: 256, hi: 508, stride: 4 };
        assert!(c.disjoint_from(d, 4));
        assert!(!c.disjoint_from(d, 8));
    }

    #[test]
    fn guarded_def_joins_old_value() {
        let k = parse_kernel(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, 4
                setp.lt.u32 %p0, %tid.x, 2
                @%p0 mov.u32 %r0, 12
                st.shared.u32 [%r0], %r0
                ret
        "#,
        )
        .expect("parse");
        let ra = RangeAnalysis::compute(&k, RangeHints::default());
        let r = ra.range_before(&k, Loc { block: BlockId(0), idx: 3 }, VReg(0));
        assert_eq!((r.lo, r.hi), (4, 12));
        assert_eq!(r.stride, 8);
    }

    #[test]
    fn division_by_constant_bounds_trip_count() {
        let k = parse_kernel(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, 64
                div.u32 %r1, %r0, 8
                ret
        "#,
        )
        .expect("parse");
        let ra = RangeAnalysis::compute(&k, RangeHints::default());
        let r = ra.range_before(&k, Loc { block: BlockId(0), idx: 2 }, VReg(1));
        assert_eq!(r.as_const(), Some(8));
    }
}
