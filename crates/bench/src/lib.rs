#![warn(missing_docs)]
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section (see `DESIGN.md` for the experiment
//! index), and runs the fault-injection sweeps and campaigns the
//! `perfbench/` benchmark times.
//!
//! Quick use from code:
//!
//! ```no_run
//! let fig = penny_bench::figures::fig9();
//! println!("{}", penny_bench::report::render_figure(&fig));
//! ```
//!
//! Or run the `penny-eval` binary:
//!
//! ```text
//! cargo run --release -p penny-bench --bin penny-eval -- all
//! ```

pub mod ablation;
pub mod cache;
pub mod campaign;
pub mod conformance;
pub mod figures;
pub mod herd;
pub mod json;
pub mod obs;
pub mod parallel;
pub mod recstore;
pub mod refinement;
pub mod report;
pub mod runner;
pub mod vulnerability;

pub use ablation::{ablation, cost_base_sensitivity, render_ablation, AblationRow};
pub use campaign::{edc_campaign, multibit_sweep, CampaignResult};
pub use conformance::{
    run_conformance, run_conformance_static, ConformanceFailure, ConformanceReport,
    FaultSpace, MergeError, Shard, ShardError, StaticMode, StaticPruneCounts,
};
pub use figures::{Figure, PruneBreakdown, Series};
pub use parallel::{jobs, parallel_map, set_jobs};
pub use refinement::{refinement_comparison, render_refinement, RefinementRow};
pub use runner::{gmean, run_scheme, run_workload, Measured, SchemeId};
pub use vulnerability::{render_profile, static_profile, RegProfile, StaticProfile};
