//! Fault-space conformance harness: enumerate the (dynamic instruction ×
//! destination register × bit) fault space of a workload, answer every
//! covered site from a snapshot/replay [`Recording`] under each
//! protected scheme, and assert the final memory equals the fault-free
//! reference.
//!
//! The space is enumerated **exhaustively** when it fits the budget;
//! above the budget a deterministic stratified walk (a multiplicative
//! congruential stride coprime with the space size) covers `budget`
//! sites spread across every stratum, and the skipped count is reported.
//! Any failing site is shrunk to a minimal single-[`Injection`]
//! [`FaultPlan`] reproducer rendered as a ready-to-paste `#[test]` —
//! shrinking and reproducers always re-run **cold** (from cycle 0), so
//! the regression oracle is independent of the snapshot engine.
//!
//! # Snapshot/replay site pipeline
//!
//! One fault-free [`Recording`] per (workload, scheme) pair captures
//! region-boundary snapshots and each warp's instruction stream, over
//! which it indexes every register access (`penny_sim::snapshot`). Each site is then answered from the
//! cheapest sufficient evidence — recorded outcome for never-firing and
//! overwritten (invisible) flips, recorded outcome plus correction
//! counters under SECDED, a forked replay of just the victim's wave
//! otherwise — and sites whose replays are provably bit-identical are
//! grouped so one replay answers the whole group
//! ([`Recording::memo_key`]): under Penny's parity EDC, every flip one
//! dynamic read detects and the recovery mends shares one replay of its
//! recovery point (block, warp, detecting read); any other simulated
//! site shares a replay with the flips of its own cell that the same
//! read observes. A recovery-point replay checks its premise as it runs
//! ([`Recording::run_group`]); a group it fails is split back into
//! cells. The sites of one cell and trigger that differ only in the
//! flipped bit are classified together, once (see `classify_range`).
//! The determinism contract (forked == from-scratch, bit for bit) is
//! pinned by `crates/sim/tests/snapshot_replay.rs` and the bench-level
//! equivalence suite.
//!
//! # Sharding
//!
//! [`run_conformance_sharded`] partitions **sample positions** (not raw
//! site indices) round-robin across `n` shards, so shards are
//! balanced under any stride, and [`merge_reports`] reassembles a
//! report whose verdict fields (coverage, class counts, failures) are
//! bit-identical to the unsharded run. Replay-work counters
//! ([`ReplayWork`]) are summed honestly and legitimately exceed the
//! unsharded run's (a replay group split across shards is replayed once
//! per shard).
//!
//! Every kernel the harness compiles runs with
//! [`PennyConfig::validate`](penny_core::PennyConfig::validate) enabled,
//! so a compiler-invariant bug fails fast with a named invariant instead
//! of a corrupted-memory assert thousands of cycles later.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use penny_analysis::{RfModel, StaticSiteClass, VulnerabilityMap};
use penny_core::Protected;
use penny_sim::{
    FaultPlan, GlobalMemory, Gpu, GpuConfig, Injection, Recording, RegFile, RfProtection,
    SiteClass, SiteRun,
};
use penny_workloads::{user_words, Workload};

use crate::parallel::parallel_map;
use crate::runner::SchemeId;

/// The mixed-radix fault-space geometry of one (workload, scheme) pair.
///
/// Site index digits, innermost first: bit, register, trigger, lane,
/// warp, block — so a coarse stride varies every digit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpace {
    /// Blocks in the launch.
    pub blocks: u32,
    /// Warps per block.
    pub warps: u32,
    /// Lanes per warp.
    pub lanes: u32,
    /// Trigger points (dynamic per-warp instruction indices `1..=triggers`).
    pub triggers: u64,
    /// Destination registers.
    pub regs: u32,
    /// Codeword bits per register.
    pub bits: u32,
}

impl FaultSpace {
    /// Total number of fault sites.
    pub fn total(&self) -> u64 {
        self.blocks as u64
            * self.warps as u64
            * self.lanes as u64
            * self.triggers
            * self.regs as u64
            * self.bits as u64
    }

    /// Decodes a site index into its injection.
    pub fn site(&self, mut index: u64) -> Injection {
        debug_assert!(index < self.total());
        let bit = (index % self.bits as u64) as u32;
        index /= self.bits as u64;
        let reg = (index % self.regs as u64) as u32;
        index /= self.regs as u64;
        let after_warp_insts = 1 + index % self.triggers;
        index /= self.triggers;
        let lane = (index % self.lanes as u64) as u32;
        index /= self.lanes as u64;
        let warp = (index % self.warps as u64) as u32;
        index /= self.warps as u64;
        let block = index as u32;
        Injection { block, warp, lane, reg, bit, after_warp_insts }
    }

    /// The deterministic covered subset: all sites when `budget` covers
    /// the space, otherwise `budget` sites visited by a multiplicative
    /// stride coprime with the total (distinct sites, every stratum
    /// touched).
    pub fn sample(&self, budget: u64) -> Vec<u64> {
        match self.sequence(budget) {
            SiteSeq::Exhaustive(total) => (0..total).collect(),
            SiteSeq::Sampled(sites) => sites,
        }
    }

    /// Like [`FaultSpace::sample`], but exhaustive coverage is
    /// represented as a range instead of a materialized vector — full
    /// sweeps of multi-million-site spaces never allocate per site.
    pub fn sequence(&self, budget: u64) -> SiteSeq {
        let total = self.total();
        if total <= budget {
            return SiteSeq::Exhaustive(total);
        }
        if budget == 0 {
            // A zero budget covers nothing. Without this guard the
            // stride derivation below divides by zero (a zero-budget
            // sweep or an over-sharded partition must yield an
            // empty-but-valid report, not a panic).
            return SiteSeq::Sampled(Vec::new());
        }
        let mut stride = (total / budget) | 1; // odd ⇒ coprime with powers of 2
        while gcd(stride, total) != 1 {
            stride += 2;
        }
        SiteSeq::Sampled(
            (0..budget)
                .map(|j| (j as u128 * stride as u128 % total as u128) as u64)
                .collect(),
        )
    }
}

/// The covered subset of a fault space, indexed by **sample position**
/// (the deterministic visit order the shard partition and failure
/// ordering are defined over).
#[derive(Debug, Clone)]
pub enum SiteSeq {
    /// Every site, visited in index order (position == site index).
    Exhaustive(u64),
    /// A strided sample; `positions[j]` is the j-th visited site index.
    Sampled(Vec<u64>),
}

impl SiteSeq {
    /// Number of covered sites.
    pub fn len(&self) -> u64 {
        match self {
            SiteSeq::Exhaustive(total) => *total,
            SiteSeq::Sampled(v) => v.len() as u64,
        }
    }

    /// Whether no sites are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The site index visited at sample position `pos`.
    pub fn index_at(&self, pos: u64) -> u64 {
        match self {
            SiteSeq::Exhaustive(_) => pos,
            SiteSeq::Sampled(v) => v[pos as usize],
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// One shard of a campaign: this process covers sample positions
/// `pos % count == index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index (`0..count`).
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

/// Why a shard specification was rejected by [`Shard::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Not of the form `i/n`.
    Malformed(String),
    /// The index before the slash is not a `u32`.
    BadIndex(String),
    /// The count after the slash is not a `u32`.
    BadCount(String),
    /// `n == 0`: a partition needs at least one shard.
    ZeroCount,
    /// `i >= n`: the index names a shard outside the partition.
    OutOfRange {
        /// The rejected shard index.
        index: u32,
        /// The partition size it falls outside of.
        count: u32,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Malformed(s) => {
                write!(f, "shard must be i/n (e.g. 0/4), got {s:?}")
            }
            ShardError::BadIndex(i) => write!(f, "bad shard index {i:?}"),
            ShardError::BadCount(n) => write!(f, "bad shard count {n:?}"),
            ShardError::ZeroCount => write!(f, "shard count must be >= 1"),
            ShardError::OutOfRange { index, count } => {
                write!(f, "shard index {index} out of range 0..{count}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl Shard {
    /// The trivial single-shard partition (covers everything).
    pub fn full() -> Shard {
        Shard { index: 0, count: 1 }
    }

    /// Parses `"i/n"` (e.g. `--shard 2/4`).
    ///
    /// # Errors
    ///
    /// Rejects malformed syntax, `n == 0`, and `i >= n` — each with its
    /// own [`ShardError`] variant, so callers (the `penny-herd`
    /// orchestrator in particular) can tell a typo from an impossible
    /// partition.
    pub fn parse(s: &str) -> Result<Shard, ShardError> {
        let (i, n) =
            s.split_once('/').ok_or_else(|| ShardError::Malformed(s.to_string()))?;
        let index: u32 =
            i.trim().parse().map_err(|_| ShardError::BadIndex(i.to_string()))?;
        let count: u32 =
            n.trim().parse().map_err(|_| ShardError::BadCount(n.to_string()))?;
        if count == 0 {
            return Err(ShardError::ZeroCount);
        }
        if index >= count {
            return Err(ShardError::OutOfRange { index, count });
        }
        Ok(Shard { index, count })
    }

    #[cfg(test)]
    fn owns(&self, pos: u64) -> bool {
        pos % self.count as u64 == self.index as u64
    }

    /// How many of the sample positions `0..positions` this shard owns:
    /// what an exhaustive sweep of a `positions`-site space must answer.
    pub fn owned_count(&self, positions: u64) -> u64 {
        self.owned_in(&(0..positions))
    }

    /// How many positions of `range` this shard owns, in closed form.
    fn owned_in(&self, range: &Range<u64>) -> u64 {
        let (n, i) = (self.count as u64, self.index as u64);
        // Owned positions below `x`: the `p < x` with `p % n == i`.
        let below = |x: u64| (x + n - 1 - i) / n;
        below(range.end) - below(range.start)
    }

    /// The owned positions of `range`, ascending.
    fn owned(&self, range: Range<u64>) -> impl Iterator<Item = u64> {
        let n = self.count as u64;
        let first = range.start + (self.index as u64 + n - range.start % n) % n;
        (first..range.end).step_by(n as usize)
    }
}

/// One failing fault site.
#[derive(Debug, Clone)]
pub struct ConformanceFailure {
    /// Sample position of the failing site (orders failures
    /// deterministically across shards).
    pub sample: u64,
    /// The shrunk (minimal) injection that still fails.
    pub injection: Injection,
    /// What went wrong (mismatch / simulator error).
    pub reason: String,
    /// Ready-to-paste regression test reproducing the failure.
    pub reproducer: String,
}

/// Deterministic per-site class counts (identical for any shard
/// partition and job count; summing shard reports reproduces the
/// unsharded counts exactly).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteClassCounts {
    /// Sites whose injection never fires (trigger past the warp's
    /// dynamic length, dead lane, or out-of-range register).
    pub never_fires: u64,
    /// Fired flips overwritten before any read observes them.
    pub invisible: u64,
    /// Flips corrected inline (and scrubbed) by SECDED at first read.
    pub corrected_inline: u64,
    /// Sites that required a forked replay (detected under EDC, or
    /// silently observed on an unprotected RF) — includes sites
    /// answered by an equivalent group member's replay.
    pub simulated: u64,
    /// Simulated sites whose replay converged back onto the recorded
    /// memory image, so the recorded run suffix was spliced on.
    pub spliced: u64,
}

impl SiteClassCounts {
    fn add(&mut self, o: &SiteClassCounts) {
        self.never_fires += o.never_fires;
        self.invisible += o.invisible;
        self.corrected_inline += o.corrected_inline;
        self.simulated += o.simulated;
        self.spliced += o.spliced;
    }
}

/// How the harness uses the compile-time [`VulnerabilityMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaticMode {
    /// Ignore the static analysis entirely (the pre-existing behavior).
    #[default]
    Off,
    /// Skip statically-classified sites: they are answered by the
    /// static proof and reported in the `pruned_static` bucket instead
    /// of being replayed. Residual (`Unknown`) sites run as usual.
    Prune,
    /// Translation validation: run statically-classified sites anyway
    /// and count every static/dynamic disagreement — the dynamic replay
    /// classifier is the oracle, the static claim is on trial.
    Validate,
}

/// Per-class counts of statically-pruned sites (deterministic across
/// shards, like [`SiteClassCounts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticPruneCounts {
    /// Sites pruned as [`StaticSiteClass::StaticDead`].
    pub dead: u64,
    /// Sites pruned as [`StaticSiteClass::StaticOverwritten`].
    pub overwritten: u64,
    /// Sites pruned as [`StaticSiteClass::StaticCovered`].
    pub covered: u64,
}

impl StaticPruneCounts {
    fn add(&mut self, o: &StaticPruneCounts) {
        self.dead += o.dead;
        self.overwritten += o.overwritten;
        self.covered += o.covered;
    }

    /// Total pruned sites.
    pub fn total(&self) -> u64 {
        self.dead + self.overwritten + self.covered
    }
}

/// The static analysis's view of a scheme's register file.
pub(crate) fn rf_model(rf: RfProtection) -> RfModel {
    match rf {
        RfProtection::None => RfModel::None,
        RfProtection::Ecc(_) => RfModel::SecdedEcc,
        RfProtection::Edc(_) => RfModel::ParityEdc,
    }
}

/// The translation-validation contract: which dynamic classes each
/// static claim admits. `Unknown` claims nothing and admits anything.
///
/// * `StaticDead` / `StaticOverwritten` promise the flip is never
///   observed: the dynamic class must be `NeverFires` or `Invisible`.
/// * `StaticCovered` under SECDED promises inline correction at the
///   first read; under parity EDC it promises detection inside a
///   committed protection window, i.e. a `Simulated` site whose replay
///   recovers (replay verdicts are enforced by the normal failure
///   path, so a non-recovering covered site still fails the report).
fn static_claim_holds(s: StaticSiteClass, d: SiteClass, model: RfModel) -> bool {
    match s {
        StaticSiteClass::Unknown => true,
        StaticSiteClass::StaticDead | StaticSiteClass::StaticOverwritten => {
            matches!(d, SiteClass::NeverFires | SiteClass::Invisible)
        }
        StaticSiteClass::StaticCovered => match model {
            RfModel::SecdedEcc => matches!(
                d,
                SiteClass::NeverFires | SiteClass::Invisible | SiteClass::CorrectedInline
            ),
            RfModel::ParityEdc => matches!(
                d,
                SiteClass::NeverFires | SiteClass::Invisible | SiteClass::Simulated
            ),
            // The analysis never claims coverage on an unprotected RF.
            RfModel::None => false,
        },
    }
}

/// Snapshot/fork/replay work actually performed. Unlike
/// [`SiteClassCounts`] these depend on the shard partition (a replay
/// group split across shards replays once per shard), so merging sums
/// them honestly rather than reproducing the unsharded values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayWork {
    /// Region-boundary snapshots retained by the recording.
    pub snapshots: u64,
    /// Forked replays actually executed (one per equivalence group).
    pub forks: u64,
    /// Warp instructions re-simulated across all replays.
    pub replayed_insts: u64,
    /// Warp instructions a cold (from-cycle-0) harness would have
    /// executed for the same covered sites: covered × the recording's
    /// dynamic instruction count. `skipped = cold_insts -
    /// replayed_insts` is the work the snapshot engine avoided.
    pub cold_insts: u64,
    /// Copy-on-write pages copied across all replays.
    pub pages_copied: u64,
}

impl ReplayWork {
    fn add(&mut self, o: &ReplayWork) {
        self.snapshots += o.snapshots;
        self.forks += o.forks;
        self.replayed_insts += o.replayed_insts;
        self.cold_insts += o.cold_insts;
        self.pages_copied += o.pages_copied;
    }
}

/// Conformance result for one (workload, scheme) pair.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Workload abbreviation.
    pub workload: &'static str,
    /// Scheme display name.
    pub variant: &'static str,
    /// The enumerated geometry.
    pub space: FaultSpace,
    /// Total fault sites in the space.
    pub total: u64,
    /// Sites covered (classified and answered) by this report.
    pub covered: u64,
    /// Sites skipped by the budget (logged, per the harness contract).
    /// Statically-pruned sites are **not** folded in here — they are
    /// answered (by the static proof), not skipped.
    pub skipped: u64,
    /// Sites answered by the static proof under [`StaticMode::Prune`]
    /// (zero in the other modes).
    pub pruned_static: u64,
    /// Per-class breakdown of `pruned_static`.
    pub static_prune: StaticPruneCounts,
    /// Sites whose static claim was checked against the dynamic
    /// classifier under [`StaticMode::Validate`].
    pub static_checked: u64,
    /// Static claims the dynamic classifier contradicted (translation
    /// validation failures; must be zero for a sound analysis).
    pub static_disagreements: u64,
    /// Disagreeing sites `(sample position, description)`, capped at
    /// [`MAX_REPORTED_FAILURES`] lowest positions.
    pub disagreements: Vec<(u64, String)>,
    /// Covered sites whose final memory matched the fault-free
    /// reference (benign or detected-and-recovered).
    pub recovered: u64,
    /// Per-site classification counts (deterministic across shards).
    pub classes: SiteClassCounts,
    /// Snapshot/fork/replay work performed (shard-dependent).
    pub work: ReplayWork,
    /// The shard this report covers (`(0, 1)` for a full run or merge).
    pub shard: (u32, u32),
    /// Failing sites, shrunk to minimal reproducers (capped at
    /// [`MAX_REPORTED_FAILURES`], lowest sample positions first).
    pub failures: Vec<ConformanceFailure>,
}

/// Cap on fully-shrunk failure reproducers per report. The lowest
/// sample positions are kept, which makes sharded merges reproduce the
/// unsharded selection exactly.
pub const MAX_REPORTED_FAILURES: usize = 8;

/// Sample positions processed per parallel work item.
const CHUNK: u64 = 16_384;

/// Everything needed to run fault sites for one (workload, scheme) pair.
pub(crate) struct Prepared {
    pub(crate) workload: Workload,
    pub(crate) protected: Arc<Protected>,
    pub(crate) gpu_config: GpuConfig,
    /// Fault-free user-space memory (below the checkpoint arena).
    pub(crate) reference: Vec<(u32, u32)>,
    pub(crate) space: FaultSpace,
    /// The fault-free recording forked sites replay from.
    pub(crate) recording: Recording,
}

/// The exact compiler configuration the conformance harness uses for a
/// (workload, scheme) pair — shared by [`prepare`] and [`prewarm`] so
/// both resolve to the same content-cache key.
fn conformance_config(
    w: &Workload,
    scheme: SchemeId,
    vulnerability: bool,
) -> penny_core::PennyConfig {
    scheme
        .config()
        .with_launch(w.dims)
        .with_validation(true)
        .with_vulnerability(vulnerability)
}

/// Compiles every (workload, scheme) pair the caller is about to check
/// in `mode`, fanned out across [`crate::parallel::jobs`] workers via
/// [`crate::cache::compile_batch`]. Purely a warm-up: the artifacts land
/// in the shared content cache, so the subsequent [`run_conformance`]
/// calls (and any reproducer re-checks) start from hits. Verdicts are
/// identical with or without prewarming.
pub fn prewarm(pairs: &[(&str, SchemeId)], mode: StaticMode) {
    let batch: Vec<(Workload, penny_core::PennyConfig)> = pairs
        .iter()
        .map(|&(abbr, scheme)| {
            let w = penny_workloads::by_abbr(abbr)
                .unwrap_or_else(|| panic!("unknown workload {abbr}"));
            let cfg = conformance_config(&w, scheme, mode != StaticMode::Off);
            (w, cfg)
        })
        .collect();
    let _ = crate::cache::compile_batch(&batch);
}

pub(crate) fn prepare(abbr: &str, scheme: SchemeId, vulnerability: bool) -> Prepared {
    let workload =
        penny_workloads::by_abbr(abbr).unwrap_or_else(|| panic!("unknown workload {abbr}"));
    prepare_workload(workload, scheme, vulnerability)
}

/// [`prepare`] for a workload value that need not be in the registry —
/// the entry point `penny-fuzz` uses for freshly generated kernels.
fn prepare_workload(workload: Workload, scheme: SchemeId, vulnerability: bool) -> Prepared {
    let abbr = workload.abbr;
    // Validator on: every kernel the harness touches is invariant-checked.
    // The compile goes through the content-addressed service cache, so
    // repeated prepares of one (workload, scheme) — `run_conformance`
    // plus every `check_site` reproducer — share a single compilation.
    let config = conformance_config(&workload, scheme, vulnerability);
    let protected = crate::cache::compiled(&workload, &config);
    let gpu_config = GpuConfig::fermi().with_rf(scheme.rf());

    // Fault-free recording: the reference run, the region-boundary
    // snapshots, and the access trace, in one traced execution. Also
    // sizes the trigger dimension.
    let mut seed_mem = GlobalMemory::new();
    let launch = workload.prepare(&mut seed_mem);
    let recording = crate::recstore::load_or_record(
        &workload,
        &config,
        &gpu_config,
        &protected,
        &launch,
        &seed_mem,
    )
    .unwrap_or_else(|e| panic!("{abbr} fault-free run: {e}"));
    assert!(workload.check(recording.global()), "{abbr}: fault-free output wrong");
    let reference = user_words(recording.global());
    let stats = recording.stats();

    let warps = workload.dims.threads_per_block().div_ceil(32).max(1);
    let total_warps = (warps * workload.dims.blocks()).max(1) as u64;
    // Average dynamic per-warp instruction count. Triggers beyond a
    // shorter warp's execution simply never fire (benign sites).
    let triggers = stats.warp_instructions.div_ceil(total_warps).max(1);
    let bits = RegFile::new(1, gpu_config.rf).codeword_bits();
    let space = FaultSpace {
        blocks: workload.dims.blocks(),
        warps,
        lanes: 32,
        triggers,
        regs: protected.kernel.vreg_limit().max(1),
        bits,
    };
    Prepared { workload, protected, gpu_config, reference, space, recording }
}

/// A compact site label for span output: one field per injection digit.
fn site_label(inj: &Injection) -> String {
    format!(
        "b{}w{}l{}r{}bit{}t{}",
        inj.block, inj.warp, inj.lane, inj.reg, inj.bit, inj.after_warp_insts
    )
}

/// Runs one site **cold** — a full from-cycle-0 simulation, no
/// snapshot engine involved. This is the independent oracle behind
/// [`check_site`], reproducers, and failure shrinking. `Ok` when the
/// final memory matches the fault-free reference (and the workload's
/// own checker passes).
fn run_site(p: &Prepared, inj: &Injection) -> Result<(), String> {
    let mut gpu = Gpu::new(p.gpu_config.clone());
    let launch = p.workload.prepare(gpu.global_mut()).with_faults(FaultPlan::single(*inj));
    match gpu.run(&p.protected, &launch) {
        Ok(_) => {
            if !p.workload.check(gpu.global()) {
                return Err("workload checker rejected the output".into());
            }
            if user_words(gpu.global()) != p.reference {
                return Err("final memory differs from fault-free reference".into());
            }
            Ok(())
        }
        Err(e) => Err(format!("simulator error: {e}")),
    }
}

/// The verdict and work counters of one forked replay.
struct ForkedOutcome {
    verdict: Result<(), String>,
    spliced: bool,
    replayed_insts: u64,
    pages_copied: u64,
    /// Whether the replay bore out its group's premise (see
    /// [`Recording::run_group`]).
    retraced: bool,
}

/// The verdict on a forked replay: a spliced replay converged onto the
/// recorded (verified) memory; any other is checked against the
/// reference.
fn forked_verdict(p: &Prepared, site: &SiteRun) -> Result<(), String> {
    if site.spliced {
        Ok(())
    } else if !p.workload.check(&site.global) {
        Err("workload checker rejected the output".to_string())
    } else if user_words(&site.global) != p.reference {
        Err("final memory differs from fault-free reference".to_string())
    } else {
        Ok(())
    }
}

/// Answers the representative `inj` of replay group `key` by forking
/// the recording, and verifies the verdict ([`forked_verdict`]). When
/// the global recorder is enabled a `site` span is emitted with the
/// replay counters.
fn run_site_forked(
    p: &Prepared,
    key: &GroupKey,
    inj: &Injection,
    members: u64,
) -> ForkedOutcome {
    let rec = crate::obs::recorder();
    let (outcome, retraced) = match is_recovery_point(key) {
        true => p.recording.run_group(&p.gpu_config, &p.protected, *inj),
        false => (p.recording.run_site(&p.gpu_config, &p.protected, *inj), true),
    };
    let (verdict, spliced, replayed_insts, pages_copied) = match outcome {
        Ok(site) => {
            (forked_verdict(p, &site), site.spliced, site.replayed_insts, site.pages_copied)
        }
        Err(e) => (Err(format!("simulator error: {e}")), false, 0, 0),
    };
    if rec.enabled() {
        penny_obs::record(
            rec.as_ref(),
            penny_obs::SpanKind::Site,
            p.workload.abbr,
            &site_label(inj),
            0,
            &[
                ("members", members),
                ("spliced", spliced as u64),
                ("replayed_insts", replayed_insts),
                ("pages_copied", pages_copied),
                ("sim_error", verdict.is_err() as u64),
            ],
        );
    }
    ForkedOutcome { verdict, spliced, replayed_insts, pages_copied, retraced }
}

/// Shrink field order (most impactful first) and per-field minimums:
/// trigger, bit, reg, lane, warp, block.
const SHRINK_FIELDS: usize = 6;
const SHRINK_MIN: [u64; SHRINK_FIELDS] = [1, 0, 0, 0, 0, 0];

fn shrink_get(i: &Injection, field: usize) -> u64 {
    match field {
        0 => i.after_warp_insts,
        1 => i.bit as u64,
        2 => i.reg as u64,
        3 => i.lane as u64,
        4 => i.warp as u64,
        _ => i.block as u64,
    }
}

fn shrink_set(i: &mut Injection, field: usize, v: u64) {
    match field {
        0 => i.after_warp_insts = v,
        1 => i.bit = v as u32,
        2 => i.reg = v as u32,
        3 => i.lane = v as u32,
        4 => i.warp = v as u32,
        _ => i.block = v as u32,
    }
}

/// Greedy per-field shrink: repeatedly lower each field of the injection
/// (trigger first, then bit, reg, lane, warp, block) toward its minimum
/// while the predicate keeps failing.
pub fn shrink_injection(
    mut inj: Injection,
    fails: &dyn Fn(&Injection) -> bool,
) -> Injection {
    let mut trials = 0u32;
    loop {
        let mut improved = false;
        for (field, &min) in SHRINK_MIN.iter().enumerate() {
            let cur = shrink_get(&inj, field);
            for cand in [min, cur / 2, cur.saturating_sub(1)] {
                if cand >= cur || cand < min || trials >= 64 {
                    continue;
                }
                trials += 1;
                let mut t = inj;
                shrink_set(&mut t, field, cand);
                if fails(&t) {
                    inj = t;
                    improved = true;
                    break;
                }
            }
        }
        if !improved || trials >= 64 {
            return inj;
        }
    }
}

/// Renders a failing site as a ready-to-paste regression test.
pub fn render_reproducer(abbr: &str, scheme: SchemeId, inj: &Injection) -> String {
    let token = scheme.token();
    format!(
        "#[test]\n\
         fn conformance_regression_{name}_{scheme_lc}() {{\n    \
             // Minimal reproducer generated by the conformance harness.\n    \
             let inj = penny_sim::Injection {{\n        \
                 block: {block},\n        \
                 warp: {warp},\n        \
                 lane: {lane},\n        \
                 reg: {reg},\n        \
                 bit: {bit},\n        \
                 after_warp_insts: {trig},\n    \
             }};\n    \
             penny_bench::conformance::check_site(\"{abbr}\", \
             penny_bench::SchemeId::{token}, &inj)\n        \
             .expect(\"fault site must recover to fault-free memory\");\n\
         }}\n",
        name = abbr.to_lowercase(),
        scheme_lc = token.to_lowercase(),
        block = inj.block,
        warp = inj.warp,
        lane = inj.lane,
        reg = inj.reg,
        bit = inj.bit,
        trig = inj.after_warp_insts,
    )
}

/// Re-runs one fault site **cold** (the entry point generated
/// reproducers call) — deliberately bypassing the snapshot engine so
/// reproducers remain an independent oracle for it.
///
/// # Errors
///
/// Returns the mismatch/simulator-error description when the site does
/// not recover to the fault-free final memory.
pub fn check_site(abbr: &str, scheme: SchemeId, inj: &Injection) -> Result<(), String> {
    let p = prepare(abbr, scheme, false);
    run_site(&p, inj)
}

/// A replay-equivalence group key: sites with equal key provably share
/// one replay outcome (the memo contract of [`Recording::memo_key`] —
/// block, warp, lane, reg, bit-under-`None`, first-read index; a
/// recovery point has `u32::MAX` for lane and reg).
type GroupKey = (u32, u32, u32, u32, u32, u64);

/// Whether `key` names a recovery point rather than one cell.
fn is_recovery_point(key: &GroupKey) -> bool {
    key.2 == u32::MAX
}

/// A replay-equivalence group key plus its bookkeeping: sites that
/// provably share one replay outcome.
struct Group {
    rep: Injection,
    members: u64,
    /// First (lowest) member sample positions, capped at
    /// [`MAX_REPORTED_FAILURES`] — enough to attribute failures.
    positions: Vec<u64>,
}

/// Per-chunk classification output.
#[derive(Default)]
struct ChunkClass {
    covered: u64,
    classes: SiteClassCounts,
    /// Unique replay groups first seen in this chunk, in first-seen
    /// (ascending position) order.
    groups: Vec<(GroupKey, Group)>,
    /// Sites answered statically under [`StaticMode::Prune`].
    pruned: StaticPruneCounts,
    /// Static claims checked under [`StaticMode::Validate`].
    static_checked: u64,
    /// Total translation-validation failures in this chunk.
    disagreement_count: u64,
    /// Lowest-position disagreements (capped).
    disagreements: Vec<(u64, String)>,
}

impl ChunkClass {
    /// Adds `members` sites, the first of them `rep` at the ascending
    /// `positions`, to the replay group `key`.
    fn join(
        &mut self,
        index_of: &mut HashMap<GroupKey, usize>,
        key: GroupKey,
        rep: Injection,
        members: u64,
        positions: impl Iterator<Item = u64>,
    ) {
        let gi = *index_of.entry(key).or_insert_with(|| {
            self.groups.push((key, Group { rep, members: 0, positions: Vec::new() }));
            self.groups.len() - 1
        });
        let g = &mut self.groups[gi].1;
        g.members += members;
        let room = MAX_REPORTED_FAILURES - g.positions.len();
        g.positions.extend(positions.take(room));
    }
}

/// The vulnerability map a static mode consults (`None` when off).
fn static_map(p: &Prepared, mode: StaticMode) -> Option<&VulnerabilityMap> {
    match mode {
        StaticMode::Off => None,
        _ => Some(p.protected.vulnerability.as_ref().expect(
            "static conformance modes compile with the vulnerability analysis enabled",
        )),
    }
}

/// Phase 1 of a sweep over the sample positions in `range`: classify
/// every owned site. Analytic classes are answered on the spot,
/// simulated sites collapse into replay-equivalence groups.
///
/// A protected RF checks a register when it is read, so a flip is
/// detected (parity) or corrected (SECDED) before its value is used:
/// neither the static claim, nor the site class, nor the memo key
/// depends on which bit flipped, and the bit is a site index's
/// innermost digit. An exhaustive sequence is therefore walked in runs
/// of consecutive positions that share one (block, warp, lane, trigger,
/// reg) cell — at most `space.bits` long, cut at the range ends — and
/// each run is answered once, its owned-position count added to every
/// counter. Only the positions a report keeps are materialised, each
/// with its own bit. An unprotected RF observes the flipped value, so
/// there every bit keys its own replay group. A sampled sequence is
/// walked in runs of one. A site whose recovery-point key is in `split`
/// joins its cell's group instead.
fn classify_range(
    p: &Prepared,
    seq: &SiteSeq,
    shard: Shard,
    mode: StaticMode,
    model: RfModel,
    split: &HashSet<GroupKey>,
    range: Range<u64>,
) -> ChunkClass {
    let vmap = static_map(p, mode);
    let run_len = match seq {
        SiteSeq::Exhaustive(_) => p.space.bits.max(1) as u64,
        SiteSeq::Sampled(_) => 1,
    };
    let per_bit_groups = p.gpu_config.rf == RfProtection::None;
    let site_at = |pos: u64| p.space.site(seq.index_at(pos));
    let mut out = ChunkClass::default();
    let mut index_of: HashMap<GroupKey, usize> = HashMap::new();
    let mut start = range.start;
    while start < range.end {
        let run = start..((start / run_len + 1) * run_len).min(range.end);
        start = run.end;
        let owned = shard.owned_in(&run);
        if owned == 0 {
            continue;
        }
        let owned_positions = || shard.owned(run.clone());
        let inj = site_at(owned_positions().next().expect("an owned position"));
        // Static classification first: a claimed run is either
        // answered on the spot (Prune) or cross-examined against the
        // dynamic classifier (Validate).
        let claim = match vmap {
            None => StaticSiteClass::Unknown,
            Some(m) => match p.recording.static_point(&inj) {
                Some(pc) => m.classify(pc, inj.reg, model),
                None => StaticSiteClass::Unknown,
            },
        };
        if mode == StaticMode::Prune && claim != StaticSiteClass::Unknown {
            match claim {
                StaticSiteClass::StaticDead => out.pruned.dead += owned,
                StaticSiteClass::StaticOverwritten => out.pruned.overwritten += owned,
                StaticSiteClass::StaticCovered => out.pruned.covered += owned,
                StaticSiteClass::Unknown => unreachable!(),
            }
            continue;
        }
        out.covered += owned;
        let dynamic = p.recording.site_class(&inj);
        if mode == StaticMode::Validate && claim != StaticSiteClass::Unknown {
            out.static_checked += owned;
            if !static_claim_holds(claim, dynamic, model) {
                out.disagreement_count += owned;
                let room = MAX_REPORTED_FAILURES - out.disagreements.len();
                for pos in owned_positions().take(room) {
                    let site = site_at(pos);
                    out.disagreements.push((
                        pos,
                        format!(
                            "static {claim} contradicted by dynamic {dynamic:?} at \
                             {site:?}"
                        ),
                    ));
                }
            }
        }
        match dynamic {
            SiteClass::NeverFires => out.classes.never_fires += owned,
            SiteClass::Invisible => out.classes.invisible += owned,
            SiteClass::CorrectedInline => out.classes.corrected_inline += owned,
            SiteClass::Simulated if per_bit_groups => {
                out.classes.simulated += owned;
                for pos in owned_positions() {
                    let site = site_at(pos);
                    let key = p
                        .recording
                        .memo_key(&site)
                        .expect("simulated sites have memo keys");
                    out.join(&mut index_of, key, site, 1, std::iter::once(pos));
                }
            }
            SiteClass::Simulated => {
                out.classes.simulated += owned;
                let mut key =
                    p.recording.memo_key(&inj).expect("simulated sites have memo keys");
                if !split.is_empty() && split.contains(&key) {
                    (key.2, key.3) = (inj.lane, inj.reg);
                }
                out.join(&mut index_of, key, inj, owned, owned_positions());
            }
        }
    }
    out
}

/// Phase 1 of a sweep: [`classify_range`] over every chunk of sample
/// positions (in parallel), merged in position order, so a group's
/// representative is its globally-first member and positions stay
/// ascending.
fn classify_sweep(
    p: &Prepared,
    seq: &SiteSeq,
    shard: Shard,
    mode: StaticMode,
    model: RfModel,
    split: &HashSet<GroupKey>,
) -> ChunkClass {
    let positions = seq.len();
    let chunk_bounds: Vec<(u64, u64)> = (0..positions)
        .step_by(CHUNK as usize)
        .map(|s| (s, (s + CHUNK).min(positions)))
        .collect();
    let chunked = parallel_map(&chunk_bounds, |&(start, end)| {
        classify_range(p, seq, shard, mode, model, split, start..end)
    });
    let mut all = ChunkClass::default();
    let mut index_of: HashMap<GroupKey, usize> = HashMap::new();
    for chunk in chunked {
        all.covered += chunk.covered;
        all.classes.add(&chunk.classes);
        all.pruned.add(&chunk.pruned);
        all.static_checked += chunk.static_checked;
        all.disagreement_count += chunk.disagreement_count;
        all.disagreements.extend(chunk.disagreements);
        for (key, g) in chunk.groups {
            all.join(&mut index_of, key, g.rep, g.members, g.positions.into_iter());
        }
    }
    all
}

/// Runs the conformance harness for one (workload, scheme) pair with a
/// site budget. Sites run in parallel under [`crate::parallel::jobs`];
/// results are deterministic for any job count.
pub fn run_conformance(abbr: &str, scheme: SchemeId, budget: u64) -> ConformanceReport {
    run_conformance_sharded(abbr, scheme, budget, Shard::full())
}

/// [`run_conformance_static`] for a workload value that need not be in
/// the registry — the entry point `penny-fuzz`'s static-agreement stage
/// uses. The workload's `abbr` must be `'static` (fuzz-generated
/// workloads leak their names, which is bounded by the iteration
/// count).
pub fn run_conformance_static_for(
    workload: &Workload,
    scheme: SchemeId,
    budget: u64,
    mode: StaticMode,
) -> ConformanceReport {
    let statik = mode != StaticMode::Off;
    run_prepared(
        prepare_workload(workload.clone(), scheme, statik),
        scheme,
        budget,
        Shard::full(),
        mode,
    )
}

/// Runs one shard of the conformance harness: only sample positions
/// `pos % shard.count == shard.index` are covered. Reports from all
/// shards [`merge_reports`] into the unsharded report bit-identically
/// (verdict fields; see [`ReplayWork`] for the caveat).
pub fn run_conformance_sharded(
    abbr: &str,
    scheme: SchemeId,
    budget: u64,
    shard: Shard,
) -> ConformanceReport {
    run_prepared(prepare(abbr, scheme, false), scheme, budget, shard, StaticMode::Off)
}

/// [`run_conformance`] with the compile-time [`VulnerabilityMap`] in
/// play: [`StaticMode::Prune`] answers statically-classified sites by
/// the static proof (making exhaustive sweeps of large spaces
/// feasible), [`StaticMode::Validate`] runs them anyway and counts
/// disagreements (translation validation).
pub fn run_conformance_static(
    abbr: &str,
    scheme: SchemeId,
    budget: u64,
    mode: StaticMode,
) -> ConformanceReport {
    run_conformance_static_sharded(abbr, scheme, budget, mode, Shard::full())
}

/// Sharded [`run_conformance_static`]; shard reports merge
/// bit-identically including the pruned-site accounting.
pub fn run_conformance_static_sharded(
    abbr: &str,
    scheme: SchemeId,
    budget: u64,
    mode: StaticMode,
    shard: Shard,
) -> ConformanceReport {
    let statik = mode != StaticMode::Off;
    run_prepared(prepare(abbr, scheme, statik), scheme, budget, shard, mode)
}

/// The shared conformance body: classification, forked replays, and
/// verdicts for an already-[`prepare`]d (workload, scheme) pair.
fn run_prepared(
    p: Prepared,
    scheme: SchemeId,
    budget: u64,
    shard: Shard,
    mode: StaticMode,
) -> ConformanceReport {
    let rec = crate::obs::recorder();
    let timer = penny_obs::SpanTimer::start(rec.as_ref());
    let workload = p.workload.abbr;
    let total = p.space.total();
    let seq = p.space.sequence(budget);
    let model = rf_model(scheme.rf());

    // Phase 1 classifies every owned site into replay groups, phase 2
    // runs one forked replay per group (both parallel). A recovery-point
    // group whose replay does not bear out its premise is split back
    // into cells and the sweep redone; no registered workload does that.
    let mut split: HashSet<GroupKey> = HashSet::new();
    let (mut sweep, outcomes) = loop {
        let sweep = classify_sweep(&p, &seq, shard, mode, model, &split);
        let outcomes = parallel_map(&sweep.groups, |(key, g)| {
            run_site_forked(&p, key, &g.rep, g.members)
        });
        let broken = sweep.groups.iter().zip(&outcomes).filter(|(_, o)| !o.retraced);
        let broken: Vec<GroupKey> = broken.map(|((key, _), _)| *key).collect();
        if broken.is_empty() {
            break (sweep, outcomes);
        }
        split.extend(broken);
    };
    let covered = sweep.covered;

    // Phase 3 — verdicts, failure attribution, counters.
    let mut work = ReplayWork {
        snapshots: p.recording.counters().snapshots,
        forks: sweep.groups.len() as u64,
        replayed_insts: 0,
        cold_insts: covered.saturating_mul(p.recording.counters().total_warp_insts),
        pages_copied: 0,
    };
    let mut failed_sites = 0u64;
    let mut failing: Vec<(u64, String)> = Vec::new();
    for ((_, g), o) in sweep.groups.iter().zip(&outcomes) {
        work.replayed_insts += o.replayed_insts;
        work.pages_copied += o.pages_copied;
        if o.spliced {
            sweep.classes.spliced += g.members;
        }
        if let Err(reason) = &o.verdict {
            failed_sites += g.members;
            for &pos in &g.positions {
                failing.push((pos, reason.clone()));
            }
        }
    }
    failing.sort_by_key(|a| a.0);
    failing.truncate(MAX_REPORTED_FAILURES);

    let mut failures = Vec::new();
    for (pos, reason) in failing {
        let inj = p.space.site(seq.index_at(pos));
        // Shrink against the cold oracle, so the reproducer stands on
        // its own even if the snapshot engine itself is the bug.
        let shrunk = shrink_injection(inj, &|cand| run_site(&p, cand).is_err());
        let reproducer = render_reproducer(workload, scheme, &shrunk);
        failures.push(ConformanceFailure {
            sample: pos,
            injection: shrunk,
            reason,
            reproducer,
        });
    }

    if rec.enabled() {
        penny_obs::record(
            rec.as_ref(),
            penny_obs::SpanKind::Campaign,
            workload,
            scheme.name(),
            timer.elapsed_ns(),
            &[
                ("sites", covered),
                ("snapshots", work.snapshots),
                ("forks", work.forks),
                ("pages_copied", work.pages_copied),
                ("replayed_insts", work.replayed_insts),
                ("skipped_insts", work.cold_insts.saturating_sub(work.replayed_insts)),
                ("spliced", sweep.classes.spliced),
                ("failures", failed_sites),
                ("pruned_static", sweep.pruned.total()),
                ("static_checked", sweep.static_checked),
                ("static_disagreements", sweep.disagreement_count),
            ],
        );
    }

    sweep.disagreements.sort_by_key(|a| a.0);
    sweep.disagreements.truncate(MAX_REPORTED_FAILURES);

    ConformanceReport {
        workload,
        variant: scheme.name(),
        space: p.space,
        total,
        covered,
        skipped: total - covered - sweep.pruned.total(),
        pruned_static: sweep.pruned.total(),
        static_prune: sweep.pruned,
        static_checked: sweep.static_checked,
        static_disagreements: sweep.disagreement_count,
        disagreements: sweep.disagreements,
        recovered: covered - failed_sites,
        classes: sweep.classes,
        work,
        shard: (shard.index, shard.count),
        failures,
    }
}

/// Why a set of shard results refused to merge. Every variant that
/// involves a specific shard surfaces its index, so the `penny-herd`
/// orchestrator (and a human reading its log) can name the offender
/// instead of guessing from a free-form string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No results were supplied at all.
    Empty,
    /// The partition is incomplete (or over-full): the first result
    /// declares `expected` shards but `got` results arrived.
    MissingShards {
        /// Shard count declared by the first result.
        expected: u32,
        /// Number of results actually supplied.
        got: u32,
    },
    /// A result's identity — (workload, variant, space) — disagrees
    /// with the first result's.
    ShapeMismatch {
        /// The offending result's shard index.
        index: u32,
        /// The offending result's shard count.
        count: u32,
        /// Workload of the offending result.
        workload: String,
        /// Scheme/variant of the offending result.
        variant: String,
    },
    /// Two results claim the same shard index.
    DuplicateShard {
        /// The index claimed twice.
        index: u32,
        /// The partition size.
        count: u32,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no reports to merge"),
            MergeError::MissingShards { expected, got } => {
                write!(f, "expected {expected} shards, got {got}")
            }
            MergeError::ShapeMismatch { index, count, workload, variant } => {
                write!(
                    f,
                    "mismatched shard report {index}/{count} for {workload} {variant}"
                )
            }
            MergeError::DuplicateShard { index, count } => {
                write!(f, "duplicate shard {index}/{count}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges per-shard reports into the unsharded report: verdict fields
/// (coverage, recovery, class counts, failures) are bit-identical to a
/// `Shard::full()` run; [`ReplayWork`] counters are summed honestly.
///
/// # Errors
///
/// Rejects an empty input, mismatched (workload, scheme, space) pairs,
/// and partitions that are not exactly `0/n .. (n-1)/n` — each as a
/// distinct [`MergeError`] variant naming the offending shard.
pub fn merge_reports(
    reports: &[ConformanceReport],
) -> Result<ConformanceReport, MergeError> {
    let (merged, missing) = merge_reports_allow_missing(reports)?;
    if !missing.is_empty() {
        return Err(MergeError::MissingShards {
            expected: reports[0].shard.1,
            got: reports.len() as u32,
        });
    }
    Ok(merged)
}

/// [`merge_reports`], but tolerating absent shards — the degraded-mode
/// merge `penny-herd` falls back to when a shard exhausts its retries.
/// Returns the merged report plus the sorted missing shard indices.
/// Sites owned by a missing shard are not invented: they land in
/// `skipped` (which is `total - covered - pruned` by construction), so
/// a partial report stays internally consistent — it just covers less.
///
/// Malformed input is still rejected: an empty slice, a shape mismatch,
/// and a duplicate shard are errors here exactly as in
/// [`merge_reports`]; only *missing* shards are forgiven.
///
/// # Errors
///
/// [`MergeError::Empty`], [`MergeError::ShapeMismatch`], or
/// [`MergeError::DuplicateShard`].
pub fn merge_reports_allow_missing(
    reports: &[ConformanceReport],
) -> Result<(ConformanceReport, Vec<u32>), MergeError> {
    let first = reports.first().ok_or(MergeError::Empty)?;
    let count = first.shard.1;
    let mut seen = vec![false; count as usize];
    let mut merged = ConformanceReport {
        workload: first.workload,
        variant: first.variant,
        space: first.space,
        total: first.total,
        covered: 0,
        skipped: 0,
        pruned_static: 0,
        static_prune: StaticPruneCounts::default(),
        static_checked: 0,
        static_disagreements: 0,
        disagreements: Vec::new(),
        recovered: 0,
        classes: SiteClassCounts::default(),
        work: ReplayWork::default(),
        shard: (0, 1),
        failures: Vec::new(),
    };
    for r in reports {
        if (r.workload, r.variant) != (first.workload, first.variant)
            || r.space != first.space
            || r.shard.1 != count
        {
            return Err(MergeError::ShapeMismatch {
                index: r.shard.0,
                count: r.shard.1,
                workload: r.workload.to_string(),
                variant: r.variant.to_string(),
            });
        }
        let idx = r.shard.0 as usize;
        if idx >= seen.len() {
            // An index past the count can only come from a hand-built
            // (or corrupted) report; Shard::parse rejects it upstream.
            return Err(MergeError::ShapeMismatch {
                index: r.shard.0,
                count: r.shard.1,
                workload: r.workload.to_string(),
                variant: r.variant.to_string(),
            });
        }
        if seen[idx] {
            return Err(MergeError::DuplicateShard { index: idx as u32, count });
        }
        seen[idx] = true;
        merged.covered += r.covered;
        merged.recovered += r.recovered;
        merged.classes.add(&r.classes);
        merged.static_prune.add(&r.static_prune);
        merged.static_checked += r.static_checked;
        merged.static_disagreements += r.static_disagreements;
        merged.disagreements.extend(r.disagreements.iter().cloned());
        merged.work.add(&r.work);
        merged.failures.extend(r.failures.iter().cloned());
    }
    // Snapshots are a property of the (shared, deterministic) recording,
    // not of the shard's site subset: report them once, not n times.
    merged.work.snapshots = first.work.snapshots;
    merged.pruned_static = merged.static_prune.total();
    merged.skipped = merged.total - merged.covered - merged.pruned_static;
    merged.failures.sort_by_key(|a| a.sample);
    merged.failures.truncate(MAX_REPORTED_FAILURES);
    merged.disagreements.sort_by_key(|a| a.0);
    merged.disagreements.truncate(MAX_REPORTED_FAILURES);
    let missing = seen
        .iter()
        .enumerate()
        .filter(|&(_, &present)| !present)
        .map(|(i, _)| i as u32)
        .collect();
    Ok((merged, missing))
}

/// Renders a report block: coverage counts, site classes, plus any
/// reproducers. Deterministic across shard partitions (replay-work
/// counters are deliberately excluded).
pub fn render_report(r: &ConformanceReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<18} total {:>12}  covered {:>6}  skipped {:>12}  recovered {:>6}  \
         failures {:>3}",
        r.workload,
        r.variant,
        r.total,
        r.covered,
        r.skipped,
        r.recovered,
        r.failures.len()
    );
    let _ = writeln!(
        out,
        "       classes: never-fires {}  invisible {}  corrected {}  simulated {} \
         (spliced {})",
        r.classes.never_fires,
        r.classes.invisible,
        r.classes.corrected_inline,
        r.classes.simulated,
        r.classes.spliced
    );
    if r.pruned_static > 0 {
        let _ = writeln!(
            out,
            "       pruned-static {} (dead {}  overwritten {}  covered {})",
            r.pruned_static,
            r.static_prune.dead,
            r.static_prune.overwritten,
            r.static_prune.covered
        );
    }
    if r.static_checked > 0 || r.static_disagreements > 0 {
        let _ = writeln!(
            out,
            "       static-validation: checked {}  disagreements {}",
            r.static_checked, r.static_disagreements
        );
    }
    for (pos, reason) in &r.disagreements {
        let _ = writeln!(out, "  STATIC-DISAGREEMENT @{pos}: {reason}");
    }
    for f in &r.failures {
        let _ = writeln!(out, "  FAIL @{} {:?}: {}", f.sample, f.injection, f.reason);
        let _ = writeln!(out, "{}", f.reproducer);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPACE: FaultSpace =
        FaultSpace { blocks: 2, warps: 3, lanes: 4, triggers: 5, regs: 6, bits: 7 };

    #[test]
    fn site_decoding_is_a_bijection() {
        let total = SPACE.total();
        assert_eq!(total, 2 * 3 * 4 * 5 * 6 * 7);
        let mut seen = std::collections::HashSet::new();
        for i in 0..total {
            let inj = SPACE.site(i);
            assert!(inj.block < 2 && inj.warp < 3 && inj.lane < 4);
            assert!((1..=5).contains(&inj.after_warp_insts));
            assert!(inj.reg < 6 && inj.bit < 7);
            assert!(seen.insert((
                inj.block,
                inj.warp,
                inj.lane,
                inj.after_warp_insts,
                inj.reg,
                inj.bit
            )));
        }
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn sample_is_exhaustive_within_budget() {
        let total = SPACE.total();
        let sites = SPACE.sample(total + 10);
        assert_eq!(sites.len() as u64, total);
        assert_eq!(sites, (0..total).collect::<Vec<_>>());
        assert!(matches!(SPACE.sequence(total), SiteSeq::Exhaustive(t) if t == total));
    }

    #[test]
    fn sample_above_budget_is_distinct_and_stratified() {
        let budget = 100;
        let sites = SPACE.sample(budget);
        assert_eq!(sites.len() as u64, budget);
        let mut uniq = sites.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len() as u64, budget, "stride must not repeat sites");
        // Every stratum of the coarse digits is touched.
        let injs: Vec<Injection> = sites.iter().map(|&i| SPACE.site(i)).collect();
        for b in 0..2 {
            assert!(injs.iter().any(|i| i.block == b), "block {b} missed");
        }
        for w in 0..3 {
            assert!(injs.iter().any(|i| i.warp == w), "warp {w} missed");
        }
        for bit in 0..7 {
            assert!(injs.iter().any(|i| i.bit == bit), "bit {bit} missed");
        }
    }

    #[test]
    fn sample_is_distinct_for_adversarial_totals() {
        // Totals whose naive `(total / budget) | 1` stride shares a
        // factor with the total: odd composites (3·5·7·9·11, powers of
        // 3), a prime square, and a highly-composite even total. The
        // gcd search must still yield `budget` distinct sites.
        let cases: [(FaultSpace, u64); 4] = [
            // total = 10395 = 3^3·5·7·11; budget 99 → stride 105 | 1 = 105 = 3·5·7.
            (
                FaultSpace {
                    blocks: 3,
                    warps: 5,
                    lanes: 7,
                    triggers: 9,
                    regs: 11,
                    bits: 1,
                },
                99,
            ),
            // total = 3^8 = 6561; budget 243 → stride 27 | 1 = 27 = 3^3.
            (
                FaultSpace { blocks: 9, warps: 9, lanes: 9, triggers: 9, regs: 1, bits: 1 },
                243,
            ),
            // total = 169^2 = 28561; budget 169 → stride 169 | 1 = 169 = 13^2.
            (
                FaultSpace {
                    blocks: 169,
                    warps: 169,
                    lanes: 1,
                    triggers: 1,
                    regs: 1,
                    bits: 1,
                },
                169,
            ),
            // total = 2^6·3^4·5^2 = 129600; budget 100 → stride 1297 (prime, but
            // exercise the even-total path too).
            (
                FaultSpace {
                    blocks: 64,
                    warps: 81,
                    lanes: 25,
                    triggers: 1,
                    regs: 1,
                    bits: 1,
                },
                100,
            ),
        ];
        for (space, budget) in cases {
            let total = space.total();
            let sites = space.sample(budget);
            assert_eq!(sites.len() as u64, budget, "total {total}");
            let mut uniq = sites.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len() as u64, budget, "total {total}: stride revisited sites");
            assert!(sites.iter().all(|&s| s < total), "total {total}: out of range");
        }
    }

    #[test]
    fn site_seq_positions_match_sample() {
        let budget = 50;
        let sample = SPACE.sample(budget);
        let seq = SPACE.sequence(budget);
        assert_eq!(seq.len(), budget);
        for (j, &s) in sample.iter().enumerate() {
            assert_eq!(seq.index_at(j as u64), s);
        }
    }

    #[test]
    fn shard_parse_accepts_and_rejects() {
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::full());
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { index: 2, count: 4 });
        assert!(Shard::parse("4/4").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::parse("0/0").is_err());
    }

    #[test]
    fn shard_parse_boundaries_are_named_errors() {
        // The last valid index of each partition parses...
        assert_eq!(Shard::parse("7/8").unwrap(), Shard { index: 7, count: 8 });
        assert_eq!(Shard::parse(" 3 / 4 ").unwrap(), Shard { index: 3, count: 4 });
        // ...and each rejection carries its own variant, not a bare string.
        assert_eq!(Shard::parse("0/0"), Err(ShardError::ZeroCount));
        assert_eq!(Shard::parse("1/0"), Err(ShardError::ZeroCount));
        assert_eq!(Shard::parse("4/4"), Err(ShardError::OutOfRange { index: 4, count: 4 }));
        assert_eq!(Shard::parse("8/8"), Err(ShardError::OutOfRange { index: 8, count: 8 }));
        assert!(matches!(Shard::parse("3"), Err(ShardError::Malformed(_))));
        assert!(matches!(Shard::parse("x/4"), Err(ShardError::BadIndex(_))));
        assert!(matches!(Shard::parse("0/y"), Err(ShardError::BadCount(_))));
        assert!(matches!(Shard::parse("-1/4"), Err(ShardError::BadIndex(_))));
        // Display keeps the messages the CLI has always printed.
        assert_eq!(ShardError::ZeroCount.to_string(), "shard count must be >= 1");
        assert_eq!(
            ShardError::OutOfRange { index: 4, count: 4 }.to_string(),
            "shard index 4 out of range 0..4"
        );
    }

    #[test]
    fn zero_budget_sample_is_empty_not_a_panic() {
        // `(total / budget) | 1` used to divide by zero here.
        assert!(SPACE.total() > 0);
        assert!(matches!(SPACE.sequence(0), SiteSeq::Sampled(ref v) if v.is_empty()));
        assert!(SPACE.sample(0).is_empty());
        assert_eq!(SPACE.sequence(0).len(), 0);
        assert!(SPACE.sequence(0).is_empty());
    }

    #[test]
    fn shard_partition_is_exact() {
        let shards: Vec<Shard> = (0..3).map(|i| Shard { index: i, count: 3 }).collect();
        for pos in 0..100u64 {
            let owners = shards.iter().filter(|s| s.owns(pos)).count();
            assert_eq!(owners, 1, "position {pos} owned by {owners} shards");
        }
    }

    #[test]
    fn forked_and_cold_verdicts_agree_on_real_workloads() {
        // The bench-level face of the determinism contract: for real
        // workloads, every covered site's verdict through the snapshot
        // engine equals the cold from-cycle-0 verdict — including the
        // failing (silent-corruption) sites of an unprotected RF.
        for (abbr, scheme) in [
            ("MT", SchemeId::Penny),
            ("MT", SchemeId::Baseline),
            ("SGEMM", SchemeId::Penny),
        ] {
            let p = prepare(abbr, scheme, false);
            let seq = p.space.sequence(144);
            let mut simulated = 0u32;
            for pos in 0..seq.len() {
                let inj = p.space.site(seq.index_at(pos));
                let cold = run_site(&p, &inj);
                let forked = match p.recording.site_class(&inj) {
                    SiteClass::Simulated => {
                        simulated += 1;
                        let key = p.recording.memo_key(&inj).expect("memo key");
                        run_site_forked(&p, &key, &inj, 1).verdict
                    }
                    // Analytic classes are bit-identical to the recorded
                    // (verified) run; the cold verdict must agree.
                    _ => Ok(()),
                };
                assert_eq!(cold, forked, "{abbr}/{scheme:?}: verdicts diverge at {inj:?}");
            }
            assert!(simulated > 0, "{abbr}/{scheme:?}: sample never simulated");
        }
    }

    /// The per-site reference for [`classify_range`]: one static claim,
    /// one class and one memo key per owned position.
    fn classify_range_per_site(
        p: &Prepared,
        seq: &SiteSeq,
        shard: Shard,
        mode: StaticMode,
        model: RfModel,
        range: Range<u64>,
    ) -> ChunkClass {
        let vmap = static_map(p, mode);
        let mut out = ChunkClass::default();
        let mut index_of: HashMap<GroupKey, usize> = HashMap::new();
        for pos in range {
            if !shard.owns(pos) {
                continue;
            }
            let inj = p.space.site(seq.index_at(pos));
            let claim = match vmap {
                None => StaticSiteClass::Unknown,
                Some(m) => match p.recording.static_point(&inj) {
                    Some(pc) => m.classify(pc, inj.reg, model),
                    None => StaticSiteClass::Unknown,
                },
            };
            if mode == StaticMode::Prune && claim != StaticSiteClass::Unknown {
                match claim {
                    StaticSiteClass::StaticDead => out.pruned.dead += 1,
                    StaticSiteClass::StaticOverwritten => out.pruned.overwritten += 1,
                    StaticSiteClass::StaticCovered => out.pruned.covered += 1,
                    StaticSiteClass::Unknown => unreachable!(),
                }
                continue;
            }
            out.covered += 1;
            let dynamic = p.recording.site_class(&inj);
            if mode == StaticMode::Validate && claim != StaticSiteClass::Unknown {
                out.static_checked += 1;
                if !static_claim_holds(claim, dynamic, model) {
                    out.disagreement_count += 1;
                    if out.disagreements.len() < MAX_REPORTED_FAILURES {
                        out.disagreements.push((
                            pos,
                            format!(
                                "static {claim} contradicted by dynamic {dynamic:?} at \
                                 {inj:?}"
                            ),
                        ));
                    }
                }
            }
            match dynamic {
                SiteClass::NeverFires => out.classes.never_fires += 1,
                SiteClass::Invisible => out.classes.invisible += 1,
                SiteClass::CorrectedInline => out.classes.corrected_inline += 1,
                SiteClass::Simulated => {
                    out.classes.simulated += 1;
                    let key =
                        p.recording.memo_key(&inj).expect("simulated sites have memo keys");
                    out.join(&mut index_of, key, inj, 1, std::iter::once(pos));
                }
            }
        }
        out
    }

    /// Field-by-field equality of two phase-1 outputs.
    fn assert_same_classification(cell: &ChunkClass, site: &ChunkClass, ctx: &str) {
        assert_eq!(cell.covered, site.covered, "{ctx}: covered");
        assert_eq!(cell.classes, site.classes, "{ctx}: classes");
        assert_eq!(cell.pruned, site.pruned, "{ctx}: pruned");
        assert_eq!(cell.static_checked, site.static_checked, "{ctx}: static_checked");
        assert_eq!(
            cell.disagreement_count, site.disagreement_count,
            "{ctx}: disagreements"
        );
        assert_eq!(cell.disagreements, site.disagreements, "{ctx}: disagreement list");
        assert_eq!(cell.groups.len(), site.groups.len(), "{ctx}: group count");
        for ((ck, cg), (sk, sg)) in cell.groups.iter().zip(&site.groups) {
            assert_eq!(ck, sk, "{ctx}: group key");
            assert_eq!(cg.rep, sg.rep, "{ctx}: representative of {sk:?}");
            assert_eq!(cg.members, sg.members, "{ctx}: members of {sk:?}");
            assert_eq!(cg.positions, sg.positions, "{ctx}: positions of {sk:?}");
        }
    }

    #[test]
    fn owned_count_is_the_brute_force_count() {
        for count in 1..=7u32 {
            for index in 0..count {
                let shard = Shard { index, count };
                for start in 0..24u64 {
                    for end in start..48 {
                        let brute: Vec<u64> =
                            (start..end).filter(|&p| shard.owns(p)).collect();
                        assert_eq!(shard.owned_in(&(start..end)), brute.len() as u64);
                        assert_eq!(shard.owned(start..end).collect::<Vec<_>>(), brute);
                    }
                }
            }
        }
    }

    #[test]
    fn cell_walk_equals_the_per_site_walk() {
        let shards =
            [Shard::full(), Shard { index: 1, count: 3 }, Shard { index: 4, count: 7 }];
        let (mut groups, mut pruned, mut checked) = (0usize, 0u64, 0u64);
        for scheme in [SchemeId::Penny, SchemeId::Baseline, SchemeId::IGpu] {
            let p = prepare("MT", scheme, true);
            let model = rf_model(scheme.rf());
            let total = p.space.total();
            let bits = p.space.bits as u64;
            let exhaustive = p.space.sequence(u64::MAX);
            let sampled = p.space.sequence(5_000);
            assert!(matches!(exhaustive, SiteSeq::Exhaustive(_)));
            assert!(matches!(sampled, SiteSeq::Sampled(_)));
            // Every range but the sampled one starts and ends mid-cell.
            let cases = [
                (&exhaustive, 17..20 * bits + 5),
                (&exhaustive, total / 2 + 3..total / 2 + 700 * bits - 1),
                (&exhaustive, total - 900 * bits + 1..total - 2),
                (&sampled, 0..sampled.len()),
            ];
            for mode in [StaticMode::Off, StaticMode::Prune, StaticMode::Validate] {
                for shard in shards {
                    for (seq, range) in &cases {
                        let ctx = format!("{scheme:?} {mode:?} {shard:?} {range:?}");
                        let cell = classify_range(
                            &p,
                            seq,
                            shard,
                            mode,
                            model,
                            &HashSet::new(),
                            range.clone(),
                        );
                        let site = classify_range_per_site(
                            &p,
                            seq,
                            shard,
                            mode,
                            model,
                            range.clone(),
                        );
                        assert_same_classification(&cell, &site, &ctx);
                        groups += cell.groups.len();
                        pruned += cell.pruned.total();
                        checked += cell.static_checked;
                    }
                }
            }
        }
        assert!(groups > 0 && pruned > 0 && checked > 0, "{groups} {pruned} {checked}");

        // SECDED claims on the parity recording: read-first sites are
        // claimed corrected inline but replayed, so every claimed read
        // disagrees and the disagreement list fills up.
        let p = prepare("MT", SchemeId::Penny, true);
        let seq = p.space.sequence(u64::MAX);
        for shard in shards {
            let range = 5..seq.len() / 4 + 11;
            let (mode, model) = (StaticMode::Validate, RfModel::SecdedEcc);
            let split = HashSet::new();
            let cell = classify_range(&p, &seq, shard, mode, model, &split, range.clone());
            let site = classify_range_per_site(&p, &seq, shard, mode, model, range);
            assert_same_classification(&cell, &site, &format!("SECDED claims {shard:?}"));
            assert_eq!(cell.disagreements.len(), MAX_REPORTED_FAILURES);
            assert!(cell.disagreement_count > MAX_REPORTED_FAILURES as u64);
        }
    }

    #[test]
    fn shrink_reaches_the_minimal_failing_site() {
        // Synthetic predicate: fails whenever reg >= 3 and trigger >= 4.
        let fails = |i: &Injection| i.reg >= 3 && i.after_warp_insts >= 4;
        let start = Injection {
            block: 1,
            warp: 2,
            lane: 17,
            reg: 9,
            bit: 30,
            after_warp_insts: 40,
        };
        assert!(fails(&start));
        let s = shrink_injection(start, &fails);
        assert!(fails(&s));
        assert_eq!(s.reg, 3);
        assert_eq!(s.after_warp_insts, 4);
        assert_eq!(s.block, 0);
        assert_eq!(s.warp, 0);
        assert_eq!(s.lane, 0);
        assert_eq!(s.bit, 0);
    }

    /// The region entries a recording derives from its PC streams are
    /// the engine's own region snapshots at every crossing, for a
    /// recorded and a reloaded recording alike: on straight-line (MT,
    /// BS), divergent (BFS) and ragged-warp (NW) kernels.
    #[test]
    fn region_entries_are_the_engines_region_snapshots() {
        for abbr in ["MT", "BS", "BFS", "NW"] {
            let p = prepare(abbr, SchemeId::Penny, false);
            let mut seed = GlobalMemory::new();
            let launch = p.workload.prepare(&mut seed);
            let observed = penny_sim::snapshot::observed_region_entries(
                &p.gpu_config,
                &p.protected,
                &launch,
                &seed,
            )
            .expect("fault-free run");
            let bytes = p.recording.serialize(1);
            let loaded = Recording::deserialize(&bytes, 1, &p.gpu_config, &p.protected)
                .expect("reload");
            for rec in [&p.recording, &loaded] {
                let streams: Vec<_> = rec.warp_streams().collect();
                assert_eq!(streams.len(), observed.len(), "{abbr}: warps");
                for (s, o) in streams.iter().zip(&observed) {
                    assert_eq!(
                        s.entries,
                        &o[..],
                        "{abbr}: block {} warp {}",
                        s.block,
                        s.warp
                    );
                }
            }
            assert!(observed.iter().all(|o| !o.is_empty()), "{abbr}: a warp never enters");
        }
    }

    /// Splitting a recovery-point group regroups its members by cell:
    /// with every recovery point split, the exhaustive MT sweep falls
    /// back to one group per (cell, detecting read) — the 8,192 replay
    /// groups of a per-cell key — and classifies every site as before.
    #[test]
    fn split_recovery_points_regroup_by_cell() {
        let p = prepare("MT", SchemeId::Penny, false);
        let seq = p.space.sequence(u64::MAX);
        let (mode, model) = (StaticMode::Off, rf_model(p.gpu_config.rf));
        let joint = classify_sweep(&p, &seq, Shard::full(), mode, model, &HashSet::new());
        let split: HashSet<GroupKey> = joint.groups.iter().map(|(key, _)| *key).collect();
        assert!(split.iter().all(is_recovery_point), "every MT group is a recovery point");
        let cells = classify_sweep(&p, &seq, Shard::full(), mode, model, &split);
        assert_eq!((joint.groups.len(), cells.groups.len()), (144, 8192));
        assert!(cells.groups.iter().all(|(key, _)| !is_recovery_point(key)));
        assert_eq!((cells.covered, cells.classes), (joint.covered, joint.classes));
        let members = |c: &ChunkClass| c.groups.iter().map(|(_, g)| g.members).sum::<u64>();
        assert_eq!(members(&cells), members(&joint));
    }

    /// Every member of a recovery-point group ends like its
    /// representative. For a spread of groups on MT, BS, BFS (divergent)
    /// and NW (ragged warps) under Penny, each member (cell, trigger) is
    /// replayed on its own and must match the representative's stats and
    /// memory, and one member in another cell runs cold — from cycle 0,
    /// no snapshot engine — and must reach the representative's verdict.
    #[test]
    fn recovery_point_members_end_like_their_representative() {
        const GROUPS: usize = 8;
        for abbr in ["MT", "BS", "BFS", "NW"] {
            let p = prepare(abbr, SchemeId::Penny, false);
            let rec = &p.recording;
            // Parity never keys the bit, so bit 0 stands for every bit of
            // a (cell, trigger).
            let mut index_of: HashMap<GroupKey, usize> = HashMap::new();
            let mut groups: Vec<Vec<Injection>> = Vec::new();
            for index in (0..p.space.total()).step_by(p.space.bits as usize) {
                let inj = p.space.site(index);
                let Some(key) = rec.memo_key(&inj).filter(is_recovery_point) else {
                    continue;
                };
                let g = *index_of.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(inj);
            }
            assert!(groups.len() >= GROUPS, "{abbr}: {} groups", groups.len());
            let (mut members, mut cold, mut mismatches) = (0usize, 0usize, Vec::new());
            for group in groups.iter().step_by(groups.len() / GROUPS) {
                let rep = group[0];
                let (want, retraced) = rec.run_group(&p.gpu_config, &p.protected, rep);
                let want = want.expect("representative replay");
                assert!(retraced, "{abbr}: the premise fails at {rep:?}");
                for &m in &group[1..] {
                    let got = rec.run_site(&p.gpu_config, &p.protected, m).expect("member");
                    members += 1;
                    if got.stats != want.stats
                        || got.global != want.global
                        || got.global.nonzero_words() != want.global.nonzero_words()
                    {
                        mismatches.push(m);
                    }
                }
                if let Some(m) =
                    group.iter().find(|m| (m.lane, m.reg) != (rep.lane, rep.reg))
                {
                    assert_eq!(run_site(&p, m), forked_verdict(&p, &want), "{abbr}: {m:?}");
                    cold += 1;
                }
            }
            assert!(members > 0 && cold > 0, "{abbr}: {members} members, {cold} cold");
            assert!(
                mismatches.is_empty(),
                "{abbr}: {} of {members} members differ from their representative: {:?}",
                mismatches.len(),
                &mismatches[..mismatches.len().min(4)]
            );
        }
    }

    /// The sweeps check the artifact the figures run: both compile for
    /// the machine `GpuConfig::fermi()` simulates. The validator never
    /// changes an artifact, so only the vulnerability map is turned off
    /// to compare them.
    #[test]
    fn the_sweep_checks_the_artifact_the_figures_run() {
        for w in penny_workloads::all() {
            for scheme in
                [SchemeId::Penny, SchemeId::BoltGlobal, SchemeId::BoltAuto, SchemeId::IGpu]
            {
                let swept =
                    crate::cache::compiled(&w, &conformance_config(&w, scheme, false));
                let gpu = GpuConfig::fermi().with_rf(scheme.rf());
                let config = scheme.config();
                let job = crate::runner::Job { workload: &w, config: &config, gpu: &gpu };
                let figured = crate::cache::compiled(&w, &job.compile_config());
                assert_eq!(
                    penny_cache::fingerprint_protected(&swept),
                    penny_cache::fingerprint_protected(&figured),
                    "{} under {}",
                    w.abbr,
                    scheme.name()
                );
            }
        }
    }

    #[test]
    fn reproducer_is_a_pasteable_test() {
        let inj =
            Injection { block: 0, warp: 1, lane: 2, reg: 3, bit: 4, after_warp_insts: 5 };
        let s = render_reproducer("MT", SchemeId::Penny, &inj);
        assert!(s.contains("#[test]"));
        assert!(s.contains("fn conformance_regression_mt_penny()"));
        assert!(s.contains("after_warp_insts: 5"));
        assert!(s.contains("SchemeId::Penny"));
        assert!(s.contains("check_site(\"MT\""));
    }
}
