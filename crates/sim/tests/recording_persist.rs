//! Recording persistence round-trip: a serialized and reloaded
//! [`Recording`] must answer every injection site bit-identically to
//! the fresh recording it came from — stats, memory, classes, errors —
//! and the loader must reject stale fingerprints and damaged bodies.

use penny_coding::Scheme;
use penny_core::{compile, LaunchDims, PennyConfig, Protection};
use penny_sim::gen::{build_kernel, try_compile, KernelSpec};
use penny_sim::persist::LoadError;
use penny_sim::{
    GlobalMemory, GpuConfig, Injection, LaunchConfig, Recording, RfProtection,
};

const KERNEL: &str = r#"
    .kernel work .params A B N
    entry:
        mov.u32 %r0, %tid.x
        mov.u32 %r1, %ctaid.x
        mov.u32 %r2, %ntid.x
        mad.u32 %r3, %r1, %r2, %r0
        ld.param.u32 %r4, [A]
        ld.param.u32 %r5, [B]
        ld.param.u32 %r6, [N]
        setp.lt.u32 %p0, %r3, %r6
        bra %p0, body, exit
    body:
        shl.u32 %r7, %r3, 2
        add.u32 %r8, %r4, %r7
        add.u32 %r9, %r5, %r7
        ld.global.u32 %r10, [%r8]
        mul.u32 %r11, %r10, 3
        add.u32 %r12, %r11, %r3
        st.global.u32 [%r9], %r12
        ld.global.u32 %r13, [%r9]
        add.u32 %r14, %r13, 1
        st.global.u32 [%r9], %r14
        jmp exit
    exit:
        ret
"#;

const A: u32 = 0x1_0000;
const B: u32 = 0x2_0000;
const N: u32 = 128;
const FINGERPRINT: u64 = 0x5EED_F00D_CAFE_0001;

struct Rig {
    protected: penny_core::Protected,
    gpu_config: GpuConfig,
    launch: LaunchConfig,
    seeded: GlobalMemory,
}

fn rig(protection: Protection) -> Rig {
    let kernel = penny_ir::parse_kernel(KERNEL).expect("parse");
    let dims = LaunchDims::linear(2, 64);
    let (cfg, rf) = match protection {
        Protection::Penny => (PennyConfig::penny(), RfProtection::Edc(Scheme::Parity)),
        Protection::IGpu => (PennyConfig::igpu(), RfProtection::Ecc(Scheme::Secded)),
        _ => (PennyConfig::unprotected(), RfProtection::None),
    };
    let protected = compile(&kernel, &cfg.with_launch(dims)).expect("compile");
    let mut seeded = GlobalMemory::new();
    seeded.write_slice(A, &(0..N).map(|i| i.wrapping_mul(7)).collect::<Vec<u32>>());
    Rig {
        protected,
        gpu_config: GpuConfig::fermi().with_rf(rf),
        launch: LaunchConfig::new(dims, vec![A, B, N]),
        seeded,
    }
}

fn site_grid() -> Vec<Injection> {
    let mut sites = Vec::new();
    for block in 0..4u32 {
        for warp in 0..2 {
            for &lane in &[0u32, 5, 31] {
                for &reg in &[3u32, 9, 10, 13, 40] {
                    for &bit in &[0u32, 12, 32] {
                        for &after in &[1u64, 8, 22, 60, 500] {
                            sites.push(Injection {
                                block,
                                warp,
                                lane,
                                reg,
                                bit,
                                after_warp_insts: after,
                            });
                        }
                    }
                }
            }
        }
    }
    sites
}

fn assert_reloaded_matches_fresh(protection: Protection) {
    let r = rig(protection);
    let fresh = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    let bytes = fresh.serialize(FINGERPRINT);
    let reloaded = Recording::deserialize(&bytes, FINGERPRINT, &r.gpu_config, &r.protected)
        .expect("reload");

    assert_eq!(*reloaded.stats(), *fresh.stats(), "final stats diverge");
    assert_eq!(*reloaded.global(), *fresh.global(), "final memory diverges");
    assert_eq!(reloaded.counters().snapshots, fresh.counters().snapshots);
    assert_eq!(reloaded.counters().total_warp_insts, fresh.counters().total_warp_insts);
    assert_eq!(reloaded.launch().params, fresh.launch().params);

    let mut simulated = 0usize;
    for inj in site_grid() {
        assert_eq!(
            reloaded.site_class(&inj),
            fresh.site_class(&inj),
            "class diverges at {inj:?}"
        );
        assert_eq!(
            reloaded.memo_key(&inj),
            fresh.memo_key(&inj),
            "memo key diverges at {inj:?}"
        );
        let a = reloaded.run_site(&r.gpu_config, &r.protected, inj);
        let b = fresh.run_site(&r.gpu_config, &r.protected, inj);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                assert_eq!(ra.stats, rb.stats, "stats diverge at {inj:?}");
                assert_eq!(ra.global, rb.global, "memory diverges at {inj:?}");
                assert_eq!(ra.class, rb.class, "class diverges at {inj:?}");
                assert_eq!(ra.spliced, rb.spliced, "splice diverges at {inj:?}");
                assert_eq!(
                    ra.replayed_insts, rb.replayed_insts,
                    "replay work diverges at {inj:?}"
                );
                simulated += matches!(ra.class, penny_sim::SiteClass::Simulated) as usize;
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors diverge at {inj:?}"),
            _ => panic!("outcome shape diverges at {inj:?}"),
        }
    }
    if !matches!(protection, Protection::IGpu) {
        assert!(simulated > 0, "grid must exercise honest replays");
    }
}

#[test]
fn reloaded_recording_is_bit_identical_under_edc() {
    assert_reloaded_matches_fresh(Protection::Penny);
}

#[test]
fn reloaded_recording_is_bit_identical_under_ecc() {
    assert_reloaded_matches_fresh(Protection::IGpu);
}

#[test]
fn reloaded_recording_is_bit_identical_unprotected() {
    assert_reloaded_matches_fresh(Protection::None);
}

#[test]
fn stale_fingerprint_is_rejected_before_the_body() {
    let r = rig(Protection::Penny);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    let bytes = rec.serialize(FINGERPRINT);
    let err = Recording::deserialize(&bytes, FINGERPRINT ^ 1, &r.gpu_config, &r.protected)
        .err()
        .expect("stale fingerprint must be rejected");
    assert_eq!(
        err,
        LoadError::FingerprintMismatch { expected: FINGERPRINT ^ 1, found: FINGERPRINT }
    );
}

#[test]
fn damaged_bodies_are_rejected_not_misread() {
    let r = rig(Protection::Penny);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    let bytes = rec.serialize(FINGERPRINT);

    // Truncation anywhere in the body fails typed, never panics.
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
        let err =
            Recording::deserialize(&bytes[..cut], FINGERPRINT, &r.gpu_config, &r.protected)
                .err()
                .expect("truncated body must be rejected");
        assert!(
            matches!(
                err,
                LoadError::Corrupt | LoadError::Truncated | LoadError::Malformed(_)
            ),
            "unexpected error for cut at {cut}: {err:?}"
        );
    }

    // Trailing garbage is rejected too.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 3]);
    let err = Recording::deserialize(&padded, FINGERPRINT, &r.gpu_config, &r.protected)
        .err()
        .expect("trailing bytes must be rejected");
    assert!(matches!(
        err,
        LoadError::Corrupt | LoadError::Truncated | LoadError::Malformed(_)
    ));
}

/// Every single-bit flip and every truncation of a stored recording is
/// a typed error; none panics and none loads. A flip in the header
/// fails its own field's check, and the body digest catches every flip
/// after the header and every cut past it.
#[test]
fn every_bit_flip_and_truncation_is_a_typed_error() {
    let r = rig(Protection::Penny);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    let bytes = rec.serialize(FINGERPRINT);
    let load = |b: &[u8]| {
        Recording::deserialize(b, FINGERPRINT, &r.gpu_config, &r.protected).err()
    };
    let mut bad = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        bad[bit / 8] ^= 1 << (bit % 8);
        let err = load(&bad).unwrap_or_else(|| panic!("a flip of bit {bit} loaded"));
        let expected = match bit / 8 {
            0..4 => matches!(err, LoadError::BadMagic),
            4..8 => matches!(err, LoadError::UnsupportedVersion(_)),
            8..16 => matches!(err, LoadError::FingerprintMismatch { .. }),
            _ => err == LoadError::Corrupt,
        };
        assert!(expected, "a flip of bit {bit}: {err:?}");
        bad[bit / 8] ^= 1 << (bit % 8);
    }
    for cut in 0..bytes.len() {
        let err = load(&bytes[..cut]).unwrap_or_else(|| panic!("a cut at {cut} loaded"));
        let expected = if cut < 24 { LoadError::Truncated } else { LoadError::Corrupt };
        assert_eq!(err, expected, "a cut at {cut}");
    }
}

#[test]
fn serialization_is_deterministic() {
    let r = rig(Protection::Penny);
    let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
        .expect("record");
    assert_eq!(
        rec.serialize(FINGERPRINT),
        rec.serialize(FINGERPRINT),
        "same recording must serialize byte-identically"
    );
    let bytes = rec.serialize(FINGERPRINT);
    let reloaded = Recording::deserialize(&bytes, FINGERPRINT, &r.gpu_config, &r.protected)
        .expect("reload");
    assert_eq!(
        reloaded.serialize(FINGERPRINT),
        bytes,
        "reload then re-serialize must be a fixed point"
    );
}

/// FNV-1a 64 of a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The `PREC` v2 bytes are pinned across builds: a change to how a
/// recording is held in memory must not change a byte it writes, or
/// every persisted recording store goes stale.
#[test]
fn serialized_bytes_are_pinned() {
    for (protection, digest) in [
        (Protection::Penny, 0x9720_ec29_8d4f_5857u64),
        (Protection::IGpu, 0xfa84_34c6_a032_4e19),
        (Protection::None, 0x25b8_fd26_9fca_c77d),
    ] {
        let r = rig(protection);
        let rec = Recording::record(&r.gpu_config, &r.protected, &r.launch, &r.seeded)
            .expect("record");
        let bytes = rec.serialize(FINGERPRINT);
        assert_eq!(fnv64(&bytes), digest, "{protection:?}: PREC bytes changed");
        let reloaded =
            Recording::deserialize(&bytes, FINGERPRINT, &r.gpu_config, &r.protected)
                .expect("reload");
        assert_eq!(
            fnv64(&reloaded.serialize(FINGERPRINT)),
            digest,
            "{protection:?}: a reloaded recording writes different bytes"
        );
    }
}

/// A partial warp's padded lanes belong to no thread. A recording of a
/// generated kernel launched with 48 threads per block (each block's
/// second warp is 16 lanes wide in a 32-lane file) reloads to a
/// byte-identical fixed point that answers tail-lane sites like the
/// fresh one.
#[test]
fn partial_warp_recordings_round_trip_without_padded_lanes() {
    let dims = LaunchDims::linear(2, 48);
    let kernel = build_kernel(&[0, 5, 6, 3], true);
    let protected =
        try_compile(&kernel, PennyConfig::penny().with_launch(dims)).expect("compile");
    let image = KernelSpec::dense(vec![0], false).image();
    let mut seeded = GlobalMemory::new();
    image.apply(&mut seeded);
    let config = GpuConfig::fermi();
    let launch = LaunchConfig::new(dims, image.params.clone());
    let fresh = Recording::record(&config, &protected, &launch, &seeded).expect("record");
    let bytes = fresh.serialize(FINGERPRINT);
    let reloaded =
        Recording::deserialize(&bytes, FINGERPRINT, &config, &protected).expect("reload");
    assert_eq!(reloaded.serialize(FINGERPRINT), bytes, "a reload must be a fixed point");

    let regs = protected.kernel.vreg_limit();
    let mut simulated = 0;
    for block in 0..2 {
        for (reg, after) in (0..regs).map(|r| (r, 1 + u64::from(r) * 3 % 40)) {
            let inj = Injection {
                block,
                warp: 1,
                lane: 15,
                reg,
                bit: 0,
                after_warp_insts: after,
            };
            let (a, b) = (
                reloaded.run_site(&config, &protected, inj),
                fresh.run_site(&config, &protected, inj),
            );
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(ra.stats, rb.stats, "stats diverge at {inj:?}");
                    assert_eq!(ra.global, rb.global, "memory diverges at {inj:?}");
                    assert_eq!(ra.class, rb.class, "class diverges at {inj:?}");
                    simulated +=
                        matches!(ra.class, penny_sim::SiteClass::Simulated) as usize;
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "errors diverge at {inj:?}"),
                _ => panic!("outcome shape diverges at {inj:?}"),
            }
        }
    }
    assert!(simulated > 0, "tail-lane sites must exercise honest replays");
}
