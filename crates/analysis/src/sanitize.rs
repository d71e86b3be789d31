//! The kernel sanitizer behind `penny-lint`.
//!
//! Four checks, all built from the analyses in this crate:
//!
//! * [`DIVERGENT_BARRIER`] (warning) — a `bar.sync` executes under
//!   control dependent on a provably thread-varying predicate, or under
//!   a thread-varying guard. Lanes could arrive at different barriers:
//!   undefined behaviour on real hardware even though the lock-step
//!   simulator tolerates it.
//! * [`SHARED_RACE`] (error) — two shared-memory accesses in the same
//!   barrier interval, at least one a write, provably touch overlapping
//!   words from two different lanes. Only **proven** conflicts are
//!   reported: both accesses must be unguarded and lane-uniformly
//!   executed, both addresses must be affine in `%tid` with matching
//!   CTA-uniform terms, and a concrete witness lane pair must exist
//!   within the hinted block geometry. Unknown addresses are never
//!   flagged.
//! * [`UNINIT_READ`] (error) — a register is read on some path before
//!   any definition reaches it (must-be-initialized forward analysis;
//!   guarded definitions count, so predicated idioms do not trip it).
//! * [`RESERVED_ARENA_WRITE`] (error) — a global store provably targets
//!   the runtime-reserved checkpoint arena, which would corrupt the
//!   recovery state Penny's instrumentation maintains.
//! * [`DEAD_CHECKPOINT`] (warning) — a `cp` saves a register that is
//!   dead at every forward-reachable region boundary (or no boundary is
//!   reachable at all): recovery can never restore the saved value, so
//!   the checkpoint is pure overhead.
//!
//! Diagnostics carry machine-readable provenance (kernel, block label,
//! instruction index and id) and a stable `name` so tests and the
//! `--allow` flag can match them.

use std::collections::HashSet;
use std::fmt;

use penny_ir::{
    solve, undefined_reads, BitSet, Direction, InstId, Kernel, Loc, MemSpace, Op, Orphans,
    Transfer, UndefinedRead, VReg, GLOBAL_CKPT_BASE,
};

use crate::alias::{
    AliasAnalysis, AliasOptions, Sym, NTERMS, T_CTAX, T_CTAY, T_GIDX, T_NTIDX, T_TIDX,
    T_TIDY,
};
use crate::range::{RangeAnalysis, RangeHints};
use crate::uniform::Uniformity;

/// Diagnostic name: barrier under thread-varying control.
pub const DIVERGENT_BARRIER: &str = "divergent-barrier";
/// Diagnostic name: cross-lane shared-memory race.
pub const SHARED_RACE: &str = "shared-race";
/// Diagnostic name: register read before initialization.
pub const UNINIT_READ: &str = "uninit-read";
/// Diagnostic name: store into the reserved checkpoint arena.
pub const RESERVED_ARENA_WRITE: &str = "reserved-arena-write";
/// Diagnostic name: checkpoint of a register dead at every reachable
/// region boundary.
pub const DEAD_CHECKPOINT: &str = "dead-checkpoint";

/// Largest number of lane pairs the race prover will enumerate.
const MAX_LANE_PAIRS: u64 = 1 << 20;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably incorrect.
    Warning,
    /// Provably incorrect under the stated machine model.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One sanitizer finding, with stable name and provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable check name (one of the `pub const` names in this module).
    pub name: &'static str,
    /// Severity class of the check.
    pub severity: Severity,
    /// Kernel the finding is in.
    pub kernel: String,
    /// Label of the enclosing block.
    pub block: String,
    /// Location of the offending instruction.
    pub loc: Loc,
    /// Stable id of the offending instruction.
    pub inst: InstId,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}@{}:{} ({}): {}",
            self.severity,
            self.name,
            self.kernel,
            self.block,
            self.loc.idx,
            self.inst,
            self.message
        )
    }
}

/// Sanitizer configuration.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Launch-geometry hints; exact dimensions enable the race prover's
    /// lane enumeration.
    pub hints: RangeHints,
    /// Diagnostic names to suppress.
    pub allow: Vec<String>,
}

impl LintOptions {
    /// Options for a known launch geometry.
    pub fn for_launch(ntid: (u32, u32), nctaid: (u32, u32)) -> LintOptions {
        LintOptions { hints: RangeHints::launch(ntid, nctaid), ..LintOptions::default() }
    }

    /// Suppresses a diagnostic by name (builder-style).
    pub fn allow(mut self, name: &str) -> LintOptions {
        self.allow.push(name.to_string());
        self
    }
}

/// Runs all sanitizer checks over one kernel.
pub fn lint_kernel(kernel: &Kernel, opts: &LintOptions) -> Vec<Diagnostic> {
    let uni = Uniformity::compute(kernel);
    let ranges = RangeAnalysis::compute(kernel, opts.hints);
    let mut diags = Vec::new();
    check_divergent_barriers(kernel, &uni, &mut diags);
    check_shared_races(kernel, &uni, opts, &mut diags);
    check_uninit_reads(kernel, &mut diags);
    check_reserved_writes(kernel, &ranges, &mut diags);
    check_dead_checkpoints(kernel, &mut diags);
    diags.retain(|d| !opts.allow.iter().any(|a| a == d.name));
    diags.sort_by_key(|d| (d.loc.block.index(), d.loc.idx, d.name));
    diags
}

fn diag(
    kernel: &Kernel,
    name: &'static str,
    severity: Severity,
    loc: Loc,
    message: String,
) -> Diagnostic {
    let blk = kernel.block(loc.block);
    Diagnostic {
        name,
        severity,
        kernel: kernel.name.clone(),
        block: blk.label.clone(),
        loc,
        inst: blk.insts[loc.idx].id,
        message,
    }
}

// ---------------------------------------------------------------------------
// divergent-barrier
// ---------------------------------------------------------------------------

fn check_divergent_barriers(kernel: &Kernel, uni: &Uniformity, out: &mut Vec<Diagnostic>) {
    for b in kernel.block_ids() {
        for (idx, inst) in kernel.block(b).insts.iter().enumerate() {
            if inst.op != Op::Bar {
                continue;
            }
            let loc = Loc { block: b, idx };
            if uni.varying_exec(b) {
                out.push(diag(
                    kernel,
                    DIVERGENT_BARRIER,
                    Severity::Warning,
                    loc,
                    "bar.sync is control-dependent on a thread-varying branch; \
                     lanes may not all reach it"
                        .to_string(),
                ));
            } else if let Some(g) = inst.guard {
                if uni.value_before(kernel, loc, g.pred).is_varying() {
                    out.push(diag(
                        kernel,
                        DIVERGENT_BARRIER,
                        Severity::Warning,
                        loc,
                        format!(
                            "bar.sync is guarded by thread-varying predicate {}",
                            g.pred
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// shared-race
// ---------------------------------------------------------------------------

/// A shared-memory access participating in race detection.
struct SharedAcc {
    loc: Loc,
    is_write: bool,
    /// Affine address decomposition, when available.
    aff: Option<[i64; NTERMS]>,
    /// Unguarded and not under possibly-divergent control: provably
    /// executed by every lane of the CTA.
    lane_uniform: bool,
}

/// Barrier-interval dataflow: the set of shared accesses that may have
/// executed since the last `bar.sync` (state = access-index BitSet,
/// join = union, an unguarded barrier clears).
struct IntervalTransfer<'a> {
    kernel: &'a Kernel,
    acc_index: std::collections::HashMap<InstId, usize>,
    n: usize,
}

fn is_shared_data_access(inst: &penny_ir::Inst) -> bool {
    // Atomics are excluded: they are single-word atomic by definition
    // and cannot data-race with each other.
    matches!(inst.op, Op::Ld(MemSpace::Shared) | Op::St(MemSpace::Shared))
}

impl Transfer for IntervalTransfer<'_> {
    type State = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn init(&self, _kernel: &Kernel) -> BitSet {
        BitSet::new(self.n)
    }

    fn apply(&self, _kernel: &Kernel, b: penny_ir::BlockId, state: &mut BitSet) {
        for inst in &self.kernel.block(b).insts {
            if inst.op == Op::Bar && inst.guard.is_none() {
                state.clear();
            } else if let Some(&i) = self.acc_index.get(&inst.id) {
                state.insert(i);
            }
        }
    }
}

fn check_shared_races(
    kernel: &Kernel,
    uni: &Uniformity,
    opts: &LintOptions,
    out: &mut Vec<Diagnostic>,
) {
    // Address forms come from the alias analysis; hint-independent, so
    // reuse the default options (the reserved base is irrelevant to
    // shared memory).
    let aa = AliasAnalysis::compute(kernel, AliasOptions::default());
    let mut accs: Vec<SharedAcc> = Vec::new();
    let mut acc_index = std::collections::HashMap::new();
    for b in kernel.block_ids() {
        for (idx, inst) in kernel.block(b).insts.iter().enumerate() {
            if !is_shared_data_access(inst) {
                continue;
            }
            let aff = match aa.access(inst.id).map(|a| a.addr) {
                Some(Sym::Aff(a)) => Some(a.raw()),
                _ => None,
            };
            acc_index.insert(inst.id, accs.len());
            accs.push(SharedAcc {
                loc: Loc { block: b, idx },
                is_write: inst.op.writes_memory(),
                aff,
                lane_uniform: inst.guard.is_none() && !uni.divergent_exec(b),
            });
        }
    }
    if accs.is_empty() {
        return;
    }

    let t = IntervalTransfer { kernel, acc_index: acc_index.clone(), n: accs.len() };
    let sol = solve(kernel, &t);

    let mut tried: HashSet<(usize, usize)> = HashSet::new();
    for b in kernel.block_ids() {
        let mut pending = sol.entry[b.index()].clone();
        for inst in &kernel.block(b).insts {
            if inst.op == Op::Bar && inst.guard.is_none() {
                pending.clear();
                continue;
            }
            let Some(&j) = acc_index.get(&inst.id) else { continue };
            for i in pending.iter() {
                let key = (i.min(j), i.max(j));
                if tried.insert(key) {
                    report_race(kernel, &accs, i, j, opts, out);
                }
            }
            if accs[j].is_write && tried.insert((j, j)) {
                report_race(kernel, &accs, j, j, opts, out);
            }
            pending.insert(j);
        }
    }
}

fn report_race(
    kernel: &Kernel,
    accs: &[SharedAcc],
    i: usize,
    j: usize,
    opts: &LintOptions,
    out: &mut Vec<Diagnostic>,
) {
    let (a, b) = (&accs[i], &accs[j]);
    if !a.is_write && !b.is_write {
        return;
    }
    if let Some((t1, t2)) = prove_lane_conflict(a, b, opts.hints) {
        let what = if i == j {
            format!("lanes {t1:?} and {t2:?} write overlapping shared words")
        } else {
            format!(
                "conflicts with the shared access at {} in the same barrier \
                 interval: lanes {t1:?} and {t2:?} touch overlapping words",
                a.loc
            )
        };
        out.push(diag(kernel, SHARED_RACE, Severity::Error, b.loc, what));
    }
}

/// Tries to exhibit two distinct lanes whose accesses overlap. Returns
/// a witness `((tx1, ty1), (tx2, ty2))` or `None` when no conflict can
/// be proven.
fn prove_lane_conflict(
    a: &SharedAcc,
    b: &SharedAcc,
    hints: RangeHints,
) -> Option<((i64, i64), (i64, i64))> {
    // Only provable claims: exact launch geometry, all-lane execution,
    // affine addresses whose CTA-uniform parts cancel.
    if !hints.exact || !a.lane_uniform || !b.lane_uniform {
        return None;
    }
    let (ca, cb) = (a.aff?, b.aff?);
    for t in [T_CTAX, T_CTAY, T_NTIDX, T_GIDX] {
        if ca[t] != cb[t] {
            return None;
        }
    }
    let (bx, by) = (hints.ntid.0 as i64, hints.ntid.1 as i64);
    let threads = (bx * by) as u64;
    if threads * threads > MAX_LANE_PAIRS {
        return None;
    }
    let base = ca[0] - cb[0]; // T_CONST difference
    const WIDTH: i64 = 4;
    for ty1 in 0..by {
        for tx1 in 0..bx {
            let va = base + ca[T_TIDX] * tx1 + ca[T_TIDY] * ty1;
            for ty2 in 0..by {
                for tx2 in 0..bx {
                    if tx1 == tx2 && ty1 == ty2 {
                        continue;
                    }
                    let d = va - cb[T_TIDX] * tx2 - cb[T_TIDY] * ty2;
                    if d.abs() < WIDTH {
                        return Some(((tx1, ty1), (tx2, ty2)));
                    }
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// uninit-read
// ---------------------------------------------------------------------------

fn check_uninit_reads(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    let mut flagged: HashSet<VReg> = HashSet::new();
    for UndefinedRead { block, idx, reg } in undefined_reads(kernel, Orphans::Unreached) {
        if !flagged.insert(reg) {
            continue;
        }
        let (idx, message) = match idx {
            Some(idx) => {
                (idx, format!("{reg} is read here but not initialized on every path"))
            }
            None => (
                kernel.block(block).insts.len().saturating_sub(1),
                format!("branch predicate {reg} is not initialized on every path"),
            ),
        };
        out.push(diag(kernel, UNINIT_READ, Severity::Error, Loc { block, idx }, message));
    }
}

// ---------------------------------------------------------------------------
// reserved-arena-write
// ---------------------------------------------------------------------------

fn check_reserved_writes(
    kernel: &Kernel,
    ranges: &RangeAnalysis,
    out: &mut Vec<Diagnostic>,
) {
    for b in kernel.block_ids() {
        let mut env = ranges.block_env(b);
        for (idx, inst) in kernel.block(b).insts.iter().enumerate() {
            if inst.op.writes_memory() && inst.mem_space() == Some(MemSpace::Global) {
                if let Some(r) = ranges.access_range(inst, &env) {
                    if r.lo >= GLOBAL_CKPT_BASE as i64 {
                        out.push(diag(
                            kernel,
                            RESERVED_ARENA_WRITE,
                            Severity::Error,
                            Loc { block: b, idx },
                            format!(
                                "global write to [{:#x}, {:#x}] lands in the reserved \
                                 checkpoint arena (base {:#x})",
                                r.lo, r.hi, GLOBAL_CKPT_BASE
                            ),
                        ));
                    }
                }
            }
            ranges.step(inst, &mut env);
        }
    }
}

// ---------------------------------------------------------------------------
// dead-checkpoint
// ---------------------------------------------------------------------------

fn check_dead_checkpoints(kernel: &Kernel, out: &mut Vec<Diagnostic>) {
    let ckpts: Vec<Loc> = kernel
        .block_ids()
        .flat_map(|b| {
            kernel.block(b).insts.iter().enumerate().filter_map(move |(idx, inst)| {
                inst.is_ckpt().then_some(Loc { block: b, idx })
            })
        })
        .collect();
    if ckpts.is_empty() {
        return;
    }
    let live = crate::liveness::Liveness::compute(kernel);
    // Region boundaries are where recovery restores live-in registers:
    // a checkpoint is useful only if its register is live at a marker
    // reachable forward of the `cp`.
    let markers: Vec<(Loc, BitSet)> = kernel
        .block_ids()
        .flat_map(|b| {
            let live = &live;
            kernel.block(b).insts.iter().enumerate().filter_map(move |(idx, inst)| {
                inst.region_entry().map(|_| {
                    let loc = Loc { block: b, idx };
                    (loc, live.live_set_before(kernel, loc))
                })
            })
        })
        .collect();
    for loc in ckpts {
        let reg = kernel.block(loc.block).insts[loc.idx].ckpt_reg();
        // Blocks reachable from the `cp`'s successors (cycles included).
        let mut reach = BitSet::new(kernel.num_blocks());
        let mut work: Vec<_> = kernel.block(loc.block).term.successors();
        while let Some(b) = work.pop() {
            if reach.insert(b.index()) {
                work.extend(kernel.block(b).term.successors());
            }
        }
        let restorable = markers.iter().any(|(m, live_at)| {
            let forward_reachable = (m.block == loc.block && m.idx > loc.idx)
                || reach.contains(m.block.index());
            forward_reachable && live_at.contains(reg.index())
        });
        if !restorable {
            out.push(diag(
                kernel,
                DEAD_CHECKPOINT,
                Severity::Warning,
                loc,
                format!(
                    "checkpoint of {reg} can never be restored: the register is dead \
                     at every forward-reachable region boundary"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penny_ir::parse_kernel;

    fn lint(src: &str, opts: &LintOptions) -> Vec<Diagnostic> {
        let k = parse_kernel(src).expect("parse");
        lint_kernel(&k, opts)
    }

    fn names(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.name).collect()
    }

    #[test]
    fn all_lanes_same_address_store_races() {
        let d = lint(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, %tid.x
                st.shared.u32 [0], %r0
                ret
        "#,
            &LintOptions::for_launch((8, 1), (1, 1)),
        );
        assert_eq!(names(&d), vec![SHARED_RACE], "{d:?}");
    }

    #[test]
    fn tid_indexed_store_is_clean() {
        let d = lint(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, %tid.x
                shl.u32 %r1, %r0, 2
                st.shared.u32 [%r1], %r0
                bar.sync
                ld.shared.u32 %r2, [%r1]
                ret
        "#,
            &LintOptions::for_launch((32, 1), (1, 1)),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn write_read_in_same_interval_races() {
        let d = lint(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, %tid.x
                shl.u32 %r1, %r0, 2
                st.shared.u32 [%r1], %r0
                ld.shared.u32 %r2, [%r1+4]
                ret
        "#,
            &LintOptions::for_launch((8, 1), (1, 1)),
        );
        // Lane t reads the word lane t+1 wrote, with no barrier between.
        assert_eq!(names(&d), vec![SHARED_RACE], "{d:?}");
    }

    #[test]
    fn divergent_barrier_is_flagged() {
        let d = lint(
            r#"
            .kernel k
            entry:
                setp.lt.u32 %p0, %tid.x, 16
                bra %p0, hot, join
            hot:
                bar.sync
                jmp join
            join:
                ret
        "#,
            &LintOptions::for_launch((32, 1), (1, 1)),
        );
        assert_eq!(names(&d), vec![DIVERGENT_BARRIER], "{d:?}");
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn uniform_loop_barrier_is_clean() {
        let d = lint(
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
            &LintOptions::for_launch((32, 1), (1, 1)),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn uninit_read_on_one_path_is_flagged() {
        let d = lint(
            r#"
            .kernel k .params A
            entry:
                ld.param.u32 %r9, [A]
                setp.lt.u32 %p0, %tid.x, 2
                bra %p0, a, join
            a:
                mov.u32 %r0, 7
                jmp join
            join:
                st.global.u32 [%r9], %r0
                ret
        "#,
            &LintOptions::default(),
        );
        assert_eq!(names(&d), vec![UNINIT_READ], "{d:?}");
    }

    /// One must-defined analysis, two rules for a block no path from
    /// the entry reaches: the verifier starts a block without
    /// predecessors from the empty set and rejects its read, while
    /// `uninit-read` skips it. (The parser renumbers registers densely,
    /// so the location is asserted, not the register name.)
    #[test]
    fn unreached_block_fails_validation_but_not_uninit_read() {
        let k = parse_kernel(
            ".kernel k\nentry:\n mov.u32 %r1, 1\n ret\ndead:\n add.u32 %r2, %r0, 1\n ret\n",
        )
        .expect("parse");
        let dead = k.block_ids().find(|&b| k.block(b).label == "dead").expect("dead block");
        let e = penny_ir::validate(&k).expect_err("a read with no definition at all");
        assert_eq!(e.loc, Some(Loc { block: dead, idx: 0 }), "{e}");
        let diags = lint_kernel(&k, &LintOptions::default());
        assert!(!names(&diags).contains(&UNINIT_READ), "{diags:?}");
    }

    #[test]
    fn guarded_init_counts() {
        let d = lint(
            r#"
            .kernel k .params A
            entry:
                ld.param.u32 %r9, [A]
                setp.lt.u32 %p0, %tid.x, 2
                @%p0 mov.u32 %r0, 7
                @!%p0 mov.u32 %r0, 9
                st.global.u32 [%r9], %r0
                ret
        "#,
            &LintOptions::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn reserved_arena_store_is_flagged_and_allow_suppresses() {
        let src = r#"
            .kernel k
            entry:
                mov.u32 %r0, 3221225472
                st.global.u32 [%r0], 0
                ret
        "#;
        let d = lint(src, &LintOptions::default());
        assert_eq!(names(&d), vec![RESERVED_ARENA_WRITE], "{d:?}");
        assert_eq!(d[0].severity, Severity::Error);
        let none = lint(src, &LintOptions::default().allow(RESERVED_ARENA_WRITE));
        assert!(none.is_empty());
    }

    #[test]
    fn barrier_separates_intervals() {
        let d = lint(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, %tid.x
                shl.u32 %r1, %r0, 2
                st.shared.u32 [%r1], %r0
                bar.sync
                ld.shared.u32 %r2, [%r1+4]
                ret
        "#,
            &LintOptions::for_launch((8, 1), (1, 1)),
        );
        assert!(d.is_empty(), "barrier should split the interval: {d:?}");
    }

    #[test]
    fn guarded_access_is_not_flagged() {
        let d = lint(
            r#"
            .kernel k
            entry:
                mov.u32 %r0, %tid.x
                setp.lt.u32 %p0, %r0, 4
                @%p0 st.shared.u32 [0], %r0
                ret
        "#,
            &LintOptions::for_launch((8, 1), (1, 1)),
        );
        assert!(d.is_empty(), "guarded access cannot be proven to race: {d:?}");
    }

    #[test]
    fn dead_checkpoint_rejected_by_name() {
        // Seeded-broken kernel: %r1 is checkpointed but dead at the only
        // region boundary (it is redefined before every later use).
        let d = lint(
            r#"
            .kernel broken .params A
            entry:
                ld.param.u32 %r0, [A]
                mov.u32 %r1, 7
                cp.K0 %r1
                region
                mov.u32 %r1, 9
                st.global.u32 [%r0], %r1
                ret
        "#,
            &LintOptions::default(),
        );
        assert_eq!(names(&d), vec![DEAD_CHECKPOINT], "{d:?}");
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(d[0].message.contains("%r1"), "{}", d[0].message);
    }

    #[test]
    fn live_checkpoint_not_flagged() {
        // %r1 is live at the region boundary (used after it): useful cp.
        let d = lint(
            r#"
            .kernel ok .params A
            entry:
                ld.param.u32 %r0, [A]
                mov.u32 %r1, 7
                cp.K0 %r1
                region
                st.global.u32 [%r0], %r1
                ret
        "#,
            &LintOptions::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn checkpoint_with_no_reachable_region_is_dead() {
        let d = lint(
            r#"
            .kernel norgn .params A
            entry:
                ld.param.u32 %r0, [A]
                mov.u32 %r1, 7
                cp.K0 %r1
                st.global.u32 [%r0], %r1
                ret
        "#,
            &LintOptions::default(),
        );
        assert_eq!(names(&d), vec![DEAD_CHECKPOINT], "{d:?}");
    }

    #[test]
    fn loop_back_edge_region_counts_as_reachable() {
        // The marker sits earlier in the block but is reachable around
        // the loop, and %r0 (the counter) is live there.
        let d = lint(
            r#"
            .kernel loopcp .params A
            entry:
                ld.param.u32 %r1, [A]
                mov.u32 %r0, 0
                jmp head
            head:
                region
                add.u32 %r0, %r0, 1
                cp.K0 %r0
                setp.lt.u32 %p0, %r0, 10
                bra %p0, head, exit
            exit:
                st.global.u32 [%r1], %r0
                ret
        "#,
            &LintOptions::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn diagnostic_display_has_provenance() {
        let k = parse_kernel(
            r#"
            .kernel demo
            entry:
                mov.u32 %r0, 3221225472
                st.global.u32 [%r0], 0
                ret
        "#,
        )
        .expect("parse");
        let d = lint_kernel(&k, &LintOptions::default());
        let shown = format!("{}", d[0]);
        assert!(shown.contains("error[reserved-arena-write]"), "{shown}");
        assert!(shown.contains("demo@entry:1"), "{shown}");
    }
}
