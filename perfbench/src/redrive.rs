//! The conformance pipeline of one (workload, scheme, shard) pair,
//! re-driven from public calls so each layer gets its own span: compile
//! lookup, record (or load from a recording store and persist), fault
//! space walk with static claims and dynamic classification, one forked
//! replay per equivalence group, and the memory compare.
//!
//! The walk is timed in chunks of [`CHUNK`] sample positions and the
//! replays in batches of [`REPLAY_BATCH`] groups — never per site, since
//! a clock read per site would cost as much as the site. The result is
//! assembled into the program's own report type, so the traced run can
//! require it to be byte-identical (as JSON) to the report the program
//! produced for the same pair.

use std::collections::HashMap;
use std::path::Path;

use penny_analysis::{RfModel, StaticSiteClass};
use penny_bench::conformance::{
    ConformanceReport, FaultSpace, ReplayWork, Shard, SiteClassCounts, StaticMode,
    StaticPruneCounts,
};
use penny_bench::SchemeId;
use penny_core::{PennyConfig, Protected};
use penny_sim::{
    GlobalMemory, GpuConfig, Injection, Recording, RegFile, RfProtection, SiteClass,
};
use penny_workloads::Workload;

use crate::harness::user_memory;
use crate::trace::Tracer;

/// Sample positions per walk span (the program's classification chunk).
const CHUNK: u64 = 16_384;

/// Replay groups per replay span.
const REPLAY_BATCH: usize = 256;

/// One conformance sweep to re-drive.
pub struct Pair<'a> {
    /// The workload swept.
    pub workload: &'a Workload,
    /// The protection scheme.
    pub scheme: SchemeId,
    /// Site budget (`u64::MAX` for the whole space).
    pub budget: u64,
    /// Static mode: `Off` or `Prune`.
    pub mode: StaticMode,
    /// The shard of sample positions covered.
    pub shard: Shard,
}

fn rf_model(rf: RfProtection) -> RfModel {
    match rf {
        RfProtection::None => RfModel::None,
        RfProtection::Ecc(_) => RfModel::SecdedEcc,
        RfProtection::Edc(_) => RfModel::ParityEdc,
    }
}

/// Loads the pair's recording from `store` when a valid file is there;
/// otherwise records it, and persists it when a store is given.
fn load_or_record(
    t: &mut Tracer,
    w: &Workload,
    config: &PennyConfig,
    gpu: &GpuConfig,
    protected: &Protected,
    store: Option<&Path>,
) -> Result<Recording, String> {
    let key = penny_cache::recording_key(&w.source_text(), config, gpu);
    let path = store.map(|dir| dir.join(format!("{key:016x}.bin")));
    if let Some(path) = path.as_ref().filter(|p| p.exists()) {
        t.enter("sim.persist.read");
        let bytes = std::fs::read(path).unwrap_or_default();
        let loaded = Recording::deserialize(&bytes, key, gpu, protected);
        t.exit(&[("bytes", bytes.len() as u64)]);
        if let Ok(recording) = loaded {
            return Ok(recording);
        }
    }
    let recording = t
        .time("sim.snapshot.record", || {
            let mut seed = GlobalMemory::new();
            let launch = w.prepare(&mut seed);
            Recording::record(gpu, protected, &launch, &seed)
        })
        .map_err(|e| format!("{}: fault-free run: {e}", w.abbr))?;
    if let Some(path) = path {
        t.enter("sim.persist.write");
        let bytes = recording.serialize(key);
        let tmp = path.with_extension("tmp");
        let written =
            std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
        t.exit(&[("bytes", bytes.len() as u64)]);
        written
            .map_err(|e| format!("{}: persisting the recording: {e}", path.display()))?;
    }
    Ok(recording)
}

/// Re-drives one pair and assembles its report.
///
/// # Errors
///
/// A recording that cannot be made or persisted, a fault-free output the
/// workload rejects, or a static mode this re-drive does not cover.
pub fn redrive(
    t: &mut Tracer,
    p: &Pair,
    store: Option<&Path>,
) -> Result<ConformanceReport, String> {
    let w = p.workload;
    if p.mode == StaticMode::Validate {
        return Err("the re-drive covers static modes Off and Prune".into());
    }
    let statik = p.mode == StaticMode::Prune;
    let config = p
        .scheme
        .config()
        .with_launch(w.dims)
        .with_validation(true)
        .with_vulnerability(statik);
    let protected = t.time("cache.compiled", || penny_bench::cache::compiled(w, &config));
    let gpu = GpuConfig::fermi().with_rf(p.scheme.rf());
    let recording = load_or_record(t, w, &config, &gpu, &protected, store)?;
    let reference = t.time("bench.conformance.verify", || {
        w.check(recording.global()).then(|| user_memory(recording.global()))
    });
    let reference =
        reference.ok_or_else(|| format!("{}: fault-free output wrong", w.abbr))?;

    let stats = recording.stats();
    let warps = w.dims.threads_per_block().div_ceil(32).max(1);
    let total_warps = (warps * w.dims.blocks()).max(1) as u64;
    let space = FaultSpace {
        blocks: w.dims.blocks(),
        warps,
        lanes: 32,
        triggers: stats.warp_instructions.div_ceil(total_warps).max(1),
        regs: protected.kernel.vreg_limit().max(1),
        bits: RegFile::new(1, gpu.rf).codeword_bits(),
    };
    let seq = space.sequence(p.budget);
    let vmap = match statik {
        false => None,
        true => Some(
            protected
                .vulnerability
                .as_ref()
                .ok_or("compiled without a vulnerability map")?,
        ),
    };
    let model = rf_model(p.scheme.rf());
    let owns = |pos: u64| pos % u64::from(p.shard.count) == u64::from(p.shard.index);

    let mut covered = 0u64;
    let mut classes = SiteClassCounts::default();
    let mut pruned = StaticPruneCounts::default();
    let mut groups: Vec<(Injection, u64)> = Vec::new();
    let mut group_of: HashMap<(u32, u32, u32, u32, u32, u64), usize> = HashMap::new();
    let mut claimed: Vec<bool> = Vec::with_capacity(CHUNK as usize);
    let positions = seq.len();
    for start in (0..positions).step_by(CHUNK as usize) {
        let end = (start + CHUNK).min(positions);
        claimed.clear();
        if let Some(map) = vmap {
            t.enter("analysis.vulnerability.static");
            let (mut sites, before) = (0u64, pruned.total());
            for pos in start..end {
                let mut claim = StaticSiteClass::Unknown;
                if owns(pos) {
                    sites += 1;
                    let inj = space.site(seq.index_at(pos));
                    if let Some(pc) = recording.static_point(&inj) {
                        claim = map.classify(pc, inj.reg, model);
                    }
                    match claim {
                        StaticSiteClass::StaticDead => pruned.dead += 1,
                        StaticSiteClass::StaticOverwritten => pruned.overwritten += 1,
                        StaticSiteClass::StaticCovered => pruned.covered += 1,
                        StaticSiteClass::Unknown => {}
                    }
                }
                claimed.push(claim != StaticSiteClass::Unknown);
            }
            t.exit(&[("sites", sites), ("pruned", pruned.total() - before)]);
        }
        t.enter("sim.snapshot.classify");
        let (mut sites, mut simulated) = (0u64, 0u64);
        for pos in start..end {
            if !owns(pos) || claimed.get((pos - start) as usize) == Some(&true) {
                continue;
            }
            sites += 1;
            let inj = space.site(seq.index_at(pos));
            match recording.site_class(&inj) {
                SiteClass::NeverFires => classes.never_fires += 1,
                SiteClass::Invisible => classes.invisible += 1,
                SiteClass::CorrectedInline => classes.corrected_inline += 1,
                SiteClass::Simulated => {
                    simulated += 1;
                    let key = recording
                        .memo_key(&inj)
                        .ok_or("simulated site without a memo key")?;
                    let g = *group_of.entry(key).or_insert_with(|| {
                        groups.push((inj, 0));
                        groups.len() - 1
                    });
                    groups[g].1 += 1;
                }
            }
        }
        covered += sites;
        classes.simulated += simulated;
        t.exit(&[("sites", sites), ("simulated", simulated)]);
    }

    let mut work = ReplayWork {
        snapshots: recording.counters().snapshots,
        forks: groups.len() as u64,
        replayed_insts: 0,
        cold_insts: covered.saturating_mul(recording.counters().total_warp_insts),
        pages_copied: 0,
    };
    let mut failed = 0u64;
    for batch in groups.chunks(REPLAY_BATCH) {
        t.enter("sim.snapshot.replay");
        let (mut replayed, mut pages, mut spliced) = (0u64, 0u64, 0u64);
        for &(rep, members) in batch {
            match recording.run_site(&gpu, &protected, rep) {
                Ok(site) => {
                    replayed += site.replayed_insts;
                    pages += site.pages_copied;
                    if site.spliced {
                        spliced += members;
                    } else if !t.time("bench.conformance.verify", || {
                        w.check(&site.global) && user_memory(&site.global) == reference
                    }) {
                        failed += members;
                    }
                }
                Err(_) => failed += members,
            }
        }
        work.replayed_insts += replayed;
        work.pages_copied += pages;
        classes.spliced += spliced;
        t.exit(&[
            ("forks", batch.len() as u64),
            ("replayed_insts", replayed),
            ("pages_copied", pages),
            ("spliced", spliced),
        ]);
    }

    let total = space.total();
    Ok(ConformanceReport {
        workload: w.abbr,
        variant: p.scheme.name(),
        space,
        total,
        covered,
        skipped: total - covered - pruned.total(),
        pruned_static: pruned.total(),
        static_prune: pruned,
        static_checked: 0,
        static_disagreements: 0,
        disagreements: Vec::new(),
        recovered: covered - failed,
        classes,
        work,
        shard: (p.shard.index, p.shard.count),
        failures: Vec::new(),
    })
}
