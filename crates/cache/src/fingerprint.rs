//! Canonical configuration and artifact fingerprints.
//!
//! A fingerprint is a stable 64-bit digest of *semantic content*: two
//! values fingerprint equal iff a compile keyed on them may share a
//! result. The previous bench cache keyed on `format!("{cfg:?}")`; that
//! works only while no keyed type contains a `HashMap`/`HashSet`
//! (whose `Debug` order is randomized per process) and couples the key
//! to `Debug` formatting details. Fingerprints walk fields explicitly,
//! in declaration order, with container contents canonically ordered —
//! so they are stable across processes, which the golden
//! artifact-fingerprint suite (`crates/bench/tests/artifact_fingerprints.rs`)
//! relies on.

use penny_analysis::AliasOptions;
use penny_coding::Scheme;
use penny_core::{
    CompileStats, LaunchDims, MachineParams, OverwritePolicy, PennyConfig, Protected,
    Protection, PruningMode, StoragePolicy,
};
use penny_sim::{GpuConfig, RfProtection};

use crate::fnv::Fnv64;

/// Types that can feed a canonical digest.
pub trait Fingerprint {
    /// Absorbs `self` into the hasher, canonically.
    fn fingerprint(&self, h: &mut Fnv64);
}

/// Digest of one fingerprintable value.
pub fn digest<T: Fingerprint + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.fingerprint(&mut h);
    h.finish()
}

// Fieldless (or plain-copy-field) leaf enums have a deterministic,
// canonical `Debug` rendering; structs with named fields are walked
// explicitly so the digest cannot drift with formatting.
macro_rules! fingerprint_via_debug {
    ($($ty:ty),* $(,)?) => {
        $(impl Fingerprint for $ty {
            fn fingerprint(&self, h: &mut Fnv64) {
                h.write_str(&format!("{self:?}"));
            }
        })*
    };
}

fingerprint_via_debug!(
    Protection,
    StoragePolicy,
    OverwritePolicy,
    PruningMode,
    Scheme,
    RfProtection
);

impl Fingerprint for AliasOptions {
    fn fingerprint(&self, h: &mut Fnv64) {
        let AliasOptions { distinct_params, reserved_base, range_refine } = *self;
        h.write_bool(distinct_params);
        h.write_u32(reserved_base);
        h.write_bool(range_refine);
    }
}

impl Fingerprint for MachineParams {
    fn fingerprint(&self, h: &mut Fnv64) {
        let MachineParams {
            regs_per_sm,
            shared_per_sm,
            max_warps_per_sm,
            max_blocks_per_sm,
            warp_size,
        } = *self;
        h.write_u32(regs_per_sm);
        h.write_u32(shared_per_sm);
        h.write_u32(max_warps_per_sm);
        h.write_u32(max_blocks_per_sm);
        h.write_u32(warp_size);
    }
}

impl Fingerprint for LaunchDims {
    fn fingerprint(&self, h: &mut Fnv64) {
        let LaunchDims { block, grid } = *self;
        h.write_u32(block.0);
        h.write_u32(block.1);
        h.write_u32(grid.0);
        h.write_u32(grid.1);
    }
}

impl Fingerprint for PennyConfig {
    fn fingerprint(&self, h: &mut Fnv64) {
        // Exhaustive destructuring: adding a config field without
        // extending the fingerprint is a compile error, not a silent
        // cache-key collision.
        let PennyConfig {
            protection,
            storage,
            overwrite,
            bcp,
            pruning,
            low_opts,
            alias,
            machine,
            launch,
            validate,
            lint,
            vulnerability,
        } = self;
        protection.fingerprint(h);
        storage.fingerprint(h);
        overwrite.fingerprint(h);
        h.write_bool(*bcp);
        pruning.fingerprint(h);
        h.write_bool(*low_opts);
        alias.fingerprint(h);
        machine.fingerprint(h);
        launch.fingerprint(h);
        h.write_bool(*validate);
        h.write_bool(*lint);
        h.write_bool(*vulnerability);
    }
}

impl Fingerprint for GpuConfig {
    fn fingerprint(&self, h: &mut Fnv64) {
        let GpuConfig {
            num_sms,
            issue_width,
            machine,
            lat_alu,
            lat_mul,
            lat_sfu,
            lat_global,
            lat_shared,
            seg_cycles,
            lat_store_issue,
            rf,
            recovery_cycles_per_restore,
            cycle_limit,
        } = self;
        h.write_u32(*num_sms);
        h.write_u32(*issue_width);
        machine.fingerprint(h);
        h.write_u32(*lat_alu);
        h.write_u32(*lat_mul);
        h.write_u32(*lat_sfu);
        h.write_u32(*lat_global);
        h.write_u32(*lat_shared);
        h.write_u32(*seg_cycles);
        h.write_u32(*lat_store_issue);
        rf.fingerprint(h);
        h.write_u32(*recovery_cycles_per_restore);
        h.write_u64(*cycle_limit);
    }
}

/// Content-addressed compile-cache key: kernel source text plus the full
/// compiler configuration.
pub fn compile_key(kernel_text: &str, cfg: &PennyConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(kernel_text);
    cfg.fingerprint(&mut h);
    h.finish()
}

/// Content-addressed recording-store key: kernel source text, the full
/// compiler configuration, *and* the GPU configuration.
///
/// A persisted `penny_sim::snapshot::Recording` is valid only for the
/// exact (kernel, compile config, machine model) triple it was traced
/// on — any change to timing parameters or RF protection changes the
/// trace — so all three feed the key.
pub fn recording_key(kernel_text: &str, cfg: &PennyConfig, gpu: &GpuConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(kernel_text);
    cfg.fingerprint(&mut h);
    gpu.fingerprint(&mut h);
    h.finish()
}

/// Canonical digest of a compiled artifact, covering the instrumented
/// kernel and all recovery metadata.
///
/// `Protected` holds a `HashMap` (`slots`) and the kernel a `HashSet`
/// (predicate registers), so `Debug` output is not process-stable; this
/// walks both in sorted order instead. Equal `Protected` values always
/// digest equal, and the artifact-determinism suite uses the digest as
/// a compact byte-identity witness (goldens in
/// `crates/bench/tests/golden/artifact_fingerprints.txt`).
pub fn fingerprint_protected(p: &Protected) -> u64 {
    let mut h = Fnv64::new();
    write_program(&mut h, p);
    h.write_str(&format!("{:?}", p.stats));
    // The vulnerability artifact is hashed only when present so digests
    // of artifacts compiled without the analysis (including every
    // golden in `artifact_fingerprints.txt`) are unchanged.
    if let Some(v) = &p.vulnerability {
        h.write_str("vulnerability");
        h.write_u64(v.num_points() as u64);
        h.write_u64(v.num_regs() as u64);
        h.write_bool(v.atomics_fenced());
        h.write_bool(v.has_regions());
        for pc in 0..v.num_points() {
            h.write_bool(v.protected_point(pc));
            for reg in 0..v.num_regs() as u32 {
                h.write_u32(match v.fact(pc, reg) {
                    Some(penny_analysis::PointFact::Dead) => 0,
                    Some(penny_analysis::PointFact::Overwritten) => 1,
                    Some(penny_analysis::PointFact::ReadFirst) => 2,
                    None => 3,
                });
            }
        }
    }
    h.finish()
}

/// Digest of every part of a compiled artifact the engine reads: the
/// instrumented kernel, the recovery metadata, the checkpoint storage
/// layout and the register estimate that sets occupancy. Two artifacts
/// with equal launch digests simulate identically on one machine and
/// launch, whatever their other compile statistics or vulnerability
/// maps say; [`launch_key`] adds the machine.
pub fn launch_digest(p: &Protected) -> u64 {
    // Exhaustive destructuring: a new field of either struct does not
    // compile until it is classified. `write_program` walks the program
    // fields; of the rest, the engine reads only the register estimate.
    let Protected {
        kernel: _,
        regions: _,
        slots: _,
        setup: _,
        shared_ckpt_base: _,
        shared_ckpt_bytes: _,
        global_slot_count: _,
        stats,
        vulnerability: _,
    } = p;
    let CompileStats {
        total_checkpoints: _,
        pruned_basic: _,
        pruned_additional: _,
        committed: _,
        regions: _,
        overwrite_prone_regs: _,
        adjustment_blocks: _,
        regs_per_thread,
        ckpt_shared_bytes: _,
        ckpt_global_slots: _,
        occupancy: _,
    } = stats;
    let mut h = Fnv64::new();
    write_program(&mut h, p);
    h.write_u32(*regs_per_thread);
    h.finish()
}

/// Key of one simulated launch: an artifact's [`launch_digest`] plus the
/// GPU configuration it runs on. Runs of one workload with equal keys
/// return equal statistics and final memory.
pub fn launch_key(launch_digest: u64, gpu: &GpuConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(launch_digest);
    gpu.fingerprint(&mut h);
    h.finish()
}

/// Absorbs the program half of an artifact, shared by
/// [`fingerprint_protected`] and [`launch_digest`]: the kernel, regions,
/// slots, setup registers and checkpoint storage layout.
fn write_program(h: &mut Fnv64, p: &Protected) {
    let k = &p.kernel;
    h.write_str(&k.name);
    h.write_u64(k.params.len() as u64);
    for param in &k.params {
        h.write_str(&param.name);
        h.write_u32(param.offset);
    }
    h.write_u32(k.entry.0);
    h.write_u32(k.shared_bytes);
    h.write_u64(k.num_blocks() as u64);
    for b in k.block_ids() {
        let blk = k.block(b);
        h.write_str(&blk.label);
        h.write_u64(blk.insts.len() as u64);
        for inst in &blk.insts {
            h.write_str(&format!("{inst:?}"));
        }
        h.write_str(&format!("{:?}", blk.term));
    }
    // Register id space and predicate flags (the flag set is a HashSet;
    // walk ids in order instead of formatting it).
    h.write_u32(k.vreg_limit());
    for r in 0..k.vreg_limit() {
        h.write_bool(k.is_pred(penny_ir::VReg(r)));
    }

    h.write_u64(p.regions.len() as u64);
    for region in &p.regions {
        h.write_str(&format!("{region:?}"));
    }
    let mut slots: Vec<_> = p.slots.iter().collect();
    slots.sort_by_key(|&(&key, _)| key);
    h.write_u64(slots.len() as u64);
    for (key, slot) in slots {
        h.write_str(&format!("{key:?}{slot:?}"));
    }
    h.write_u64(p.setup.len() as u64);
    for entry in &p.setup {
        h.write_str(&format!("{entry:?}"));
    }
    h.write_u32(p.shared_ckpt_base);
    h.write_u32(p.shared_ckpt_bytes);
    h.write_u32(p.global_slot_count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprints_separate_presets() {
        let presets = [
            PennyConfig::penny(),
            PennyConfig::bolt_global(),
            PennyConfig::bolt_auto(),
            PennyConfig::igpu(),
            PennyConfig::unprotected(),
            PennyConfig::penny_no_opt(),
        ];
        let digests: Vec<u64> = presets.iter().map(digest).collect();
        let unique: std::collections::HashSet<u64> = digests.iter().copied().collect();
        assert_eq!(unique.len(), presets.len(), "preset digest collision: {digests:?}");
        // Same value digests the same.
        assert_eq!(digest(&PennyConfig::penny()), digest(&PennyConfig::penny()));
    }

    #[test]
    fn launch_and_validation_feed_the_key() {
        let base = PennyConfig::penny();
        let relaunched = base.clone().with_launch(LaunchDims::linear(8, 64));
        assert_ne!(digest(&base), digest(&relaunched));
        assert_ne!(digest(&base), digest(&base.clone().with_validation(true)));
        assert_ne!(
            compile_key("k1", &base),
            compile_key("k2", &base),
            "kernel text must feed the compile key"
        );
    }

    #[test]
    fn gpu_config_fingerprints_separate_rf_modes() {
        let fermi = GpuConfig::fermi();
        assert_eq!(digest(&fermi), digest(&GpuConfig::fermi()));
        assert_ne!(digest(&fermi), digest(&GpuConfig::volta()));
        assert_ne!(
            digest(&fermi.clone().with_rf(RfProtection::None)),
            digest(&fermi.clone().with_rf(RfProtection::Ecc(Scheme::Secded)))
        );
    }

    #[test]
    fn recording_key_tracks_all_three_inputs() {
        let cfg = PennyConfig::penny();
        let gpu = GpuConfig::fermi();
        let base = recording_key("k1", &cfg, &gpu);
        assert_eq!(base, recording_key("k1", &cfg, &gpu));
        assert_ne!(base, recording_key("k2", &cfg, &gpu));
        assert_ne!(base, recording_key("k1", &PennyConfig::igpu(), &gpu));
        assert_ne!(base, recording_key("k1", &cfg, &GpuConfig::volta()));
        assert_ne!(
            base,
            recording_key("k1", &cfg, &gpu.clone().with_rf(RfProtection::None))
        );
    }

    #[test]
    fn protected_fingerprint_tracks_content() {
        let kernel = penny_ir::parse_kernel(
            ".kernel f\nentry:\n mov.u32 %r0, 1\n st.global.u32 [%r0], %r0\n ret\n",
        )
        .expect("parse");
        let mut a = Protected::passthrough(kernel.clone());
        let b = Protected::passthrough(kernel);
        assert_eq!(fingerprint_protected(&a), fingerprint_protected(&b));
        a.shared_ckpt_bytes = 4;
        assert_ne!(fingerprint_protected(&a), fingerprint_protected(&b));
    }

    /// A Penny artifact with regions, slot restores and a vulnerability
    /// map: the figure-4 kernel of the paper (a checkpointed register
    /// live into the next region).
    fn penny_artifact() -> Protected {
        let kernel = penny_ir::parse_kernel(
            ".kernel f4\nentry:\n mov.u32 %r1, 5\n mov.u32 %r2, 49152\n \
             ld.global.u32 %r3, [%r2]\n mov.u32 %r4, 7\n st.global.u32 [%r2], %r1\n \
             add.u32 %r1, %r1, %r4\n ld.global.u32 %r4, [%r2+4]\n \
             st.global.u32 [%r2+4], %r1\n st.global.u32 [%r2+8], %r4\n ret\n",
        )
        .expect("parse");
        let cfg = PennyConfig::penny().with_vulnerability(true);
        let p = penny_core::compile(&kernel, &cfg).expect("compile");
        assert!(p.vulnerability.is_some());
        assert!(p.regions.iter().any(|r| !r.restores.is_empty()), "no restores");
        assert!(!p.slots.is_empty(), "no slots");
        p
    }

    #[test]
    fn launch_key_ignores_what_the_engine_does_not_read() {
        let p = penny_artifact();
        let gpu = GpuConfig::fermi();
        let key = |q: &Protected| launch_key(launch_digest(q), &gpu);
        let base = key(&p);
        assert_eq!(base, key(&p.clone()));
        assert_eq!(base, key(&Protected { vulnerability: None, ..p.clone() }));
        let stats = p.stats;
        let variants = [
            CompileStats { total_checkpoints: stats.total_checkpoints + 1, ..stats },
            CompileStats { pruned_basic: stats.pruned_basic + 1, ..stats },
            CompileStats { pruned_additional: stats.pruned_additional + 1, ..stats },
            CompileStats { committed: stats.committed + 1, ..stats },
            CompileStats { regions: stats.regions + 1, ..stats },
            CompileStats { overwrite_prone_regs: stats.overwrite_prone_regs + 1, ..stats },
            CompileStats { adjustment_blocks: stats.adjustment_blocks + 1, ..stats },
            CompileStats { ckpt_shared_bytes: stats.ckpt_shared_bytes + 4, ..stats },
            CompileStats { ckpt_global_slots: stats.ckpt_global_slots + 1, ..stats },
            CompileStats { occupancy: stats.occupancy / 2.0, ..stats },
        ];
        for stats in variants {
            let q = Protected { stats, ..p.clone() };
            assert_ne!(fingerprint_protected(&q), fingerprint_protected(&p));
            assert_eq!(key(&q), base, "{stats:?} changed the launch key");
        }
    }

    #[test]
    fn launch_key_tracks_what_the_engine_reads() {
        let p = penny_artifact();
        let gpu = GpuConfig::fermi();
        let base = launch_key(launch_digest(&p), &gpu);
        let mut variants = Vec::new();
        let mut q = p.clone();
        q.stats.regs_per_thread += 1;
        variants.push(("regs_per_thread", q));
        let mut q = p.clone();
        q.shared_ckpt_bytes += 4;
        variants.push(("shared_ckpt_bytes", q));
        let mut q = p.clone();
        q.global_slot_count += 1;
        variants.push(("global_slot_count", q));
        let mut q = p.clone();
        let entry = q.kernel.entry;
        q.kernel.block_mut(entry).insts[0].offset += 4;
        variants.push(("one instruction", q));
        let mut q = p.clone();
        let region = q.regions.iter_mut().find(|r| !r.restores.is_empty()).expect("region");
        region.restores.pop();
        variants.push(("one region's restores", q));
        let mut q = p.clone();
        q.slots.values_mut().next().expect("slot").index += 1;
        variants.push(("one slot", q));
        for (what, q) in variants {
            assert_ne!(launch_key(launch_digest(&q), &gpu), base, "{what}");
        }
        let unprotected = gpu.clone().with_rf(RfProtection::None);
        assert_ne!(launch_key(launch_digest(&p), &unprotected), base, "RF protection");
    }
}
