#![warn(missing_docs)]
//! Program analyses over the `penny-ir` representation.
//!
//! Everything the Penny compiler passes consume:
//!
//! * [`Dominators`] / post-dominators — loop detection and SIMT
//!   reconvergence points;
//! * [`LoopInfo`] — natural loops and nesting depth (the `C^d`
//!   checkpoint cost model of paper §6.1);
//! * [`Liveness`] — live-in registers at region boundaries (paper §3);
//! * [`ReachingDefs`] — last update points (LUPs) of live-in registers;
//! * [`AliasAnalysis`] — symbolic address analysis powering memory
//!   anti-dependence detection for region formation (paper §5);
//! * [`RangeAnalysis`] — SCEV-lite value-range/stride analysis of
//!   address operands, used to refine [`AliasAnalysis`];
//! * [`Uniformity`] — which values are provably uniform or provably
//!   thread-varying across the lanes of a CTA;
//! * [`lint_kernel`] — the kernel sanitizer behind `penny-lint`
//!   (divergent barriers, shared-memory races, uninitialized reads,
//!   reserved-arena writes, dead checkpoints);
//! * [`VulnerabilityMap`] — static fault-site classification of the
//!   lowered artifact (dead intervals, write-before-read windows,
//!   checkpoint-covered protection windows), translation-validated
//!   against the replay engine by the conformance harness.
//!
//! The fixpoint analyses are instances of the monotone worklist solver
//! in [`penny_ir::dataflow`], most over [`penny_ir::BitSet`] states;
//! both live in `penny-ir` so the IR verifier shares them.
//!
//! # Examples
//!
//! ```
//! use penny_analysis::{Liveness, LoopInfo};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let kernel = penny_ir::parse_kernel(r#"
//!     .kernel k
//!     entry:
//!         mov.u32 %r0, 0
//!         jmp head
//!     head:
//!         add.u32 %r0, %r0, 1
//!         setp.lt.u32 %p0, %r0, 10
//!         bra %p0, head, exit
//!     exit:
//!         ret
//! "#)?;
//! let loops = LoopInfo::compute(&kernel);
//! assert_eq!(loops.loops().len(), 1);
//! let live = Liveness::compute(&kernel);
//! assert!(!live.live_in(penny_ir::BlockId(1)).is_empty());
//! # Ok(())
//! # }
//! ```

pub mod alias;
pub mod cd;
pub mod ctx;
pub mod dom;
pub mod liveness;
pub mod loops;
pub mod range;
pub mod reachdefs;
pub mod sanitize;
pub mod uniform;
pub mod vulnerability;

pub use alias::{AliasAnalysis, AliasOptions, MemAccess, Sym};
pub use cd::{ControlDep, ControlDeps};
pub use ctx::AnalysisCtx;
pub use dom::Dominators;
pub use liveness::Liveness;
pub use loops::{Loop, LoopInfo};
pub use range::{Range, RangeAnalysis, RangeHints};
pub use reachdefs::{DefSite, ReachingDefs};
pub use sanitize::{
    lint_kernel, Diagnostic, LintOptions, Severity, DEAD_CHECKPOINT, DIVERGENT_BARRIER,
    RESERVED_ARENA_WRITE, SHARED_RACE, UNINIT_READ,
};
pub use uniform::{Uni, Uniformity};
pub use vulnerability::{
    PointFact, RfModel, StaticSiteClass, VulnerabilityCounts, VulnerabilityMap,
};
