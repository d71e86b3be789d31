//! The protected compilers on generated kernels: every rejection is a
//! typed `CompileError`, never a panic, and the set of generated kernels
//! that compile is pinned.

use penny_core::PennyConfig;
use penny_sim::gen::KernelSpec;

/// Over `KernelSpec::from_seed(0..600)`, with validation and lint on
/// (as the fuzz gauntlet compiles), Penny, Bolt/Global and Bolt/Auto
/// each compile the same 207 kernels and reject the rest with a typed
/// error, never a panic. 316 of the rejected kernels have a region
/// live-in with no checkpoint and no recovery slice, for which
/// `restore_colors` finds no slot color.
#[test]
fn generated_kernels_compile_or_fail_without_panicking() {
    let schemes = [
        ("Penny", PennyConfig::penny()),
        ("Bolt/Global", PennyConfig::bolt_global()),
        ("Bolt/Auto", PennyConfig::bolt_auto()),
    ];
    let mut compiled = vec![Vec::new(); schemes.len()];
    for seed in 0..600u64 {
        let spec = KernelSpec::from_seed(seed);
        let kernel = spec.build();
        for ((name, base), ok) in schemes.iter().zip(&mut compiled) {
            let cfg =
                base.clone().with_launch(spec.dims()).with_validation(true).with_lint(true);
            let result = std::panic::catch_unwind(|| penny_core::compile(&kernel, &cfg))
                .unwrap_or_else(|_| panic!("seed {seed}: {name} compile panicked"));
            if result.is_ok() {
                ok.push(seed);
            }
        }
    }
    // FNV-1a 64 over the compiling seeds (little-endian `u64`s).
    let digest = |seeds: &[u64]| {
        let bytes = seeds.iter().flat_map(|s| s.to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    for ((name, _), ok) in schemes.iter().zip(&compiled) {
        assert_eq!(ok.len(), 207, "{name}: compiling kernels");
        assert_eq!(digest(ok), 0x550f_9bff_5e69_19de, "{name}: compiling seeds");
    }
}
