//! A banked corpus file is an artifact read back from disk, so damage
//! to it must surface as a typed error, never a panic or a different
//! workload: every truncation and every single-bit flip of one committed
//! `.pir` file is either a `CorpusError` from `CorpusEntry::parse` or
//! parses to the original entry, and every truncation and bit flip of
//! its kernel text goes through `penny_ir::parse_kernel`,
//! `penny_ir::validate` and `penny_analysis::lint_kernel` with no panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use penny_analysis::{lint_kernel, LintOptions};
use penny_workloads::corpus::{default_dir, CorpusEntry};

/// Feeds every truncation and single-bit flip of `bytes` to `check`,
/// naming the mutation in any panic.
fn for_each_mutant(bytes: &[u8], mut check: impl FnMut(&[u8])) {
    let mut run = |what: String, mutant: &[u8]| {
        let outcome = catch_unwind(AssertUnwindSafe(|| check(mutant)));
        assert!(outcome.is_ok(), "{what}: {:?}", outcome.err().and_then(panic_text));
    };
    for len in 0..bytes.len() {
        run(format!("truncated to {len} bytes"), &bytes[..len]);
    }
    let mut mutant = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        mutant[bit / 8] ^= 1 << (bit % 8);
        run(format!("with bit {bit} flipped"), &mutant);
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> Option<String> {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
}

#[test]
fn every_truncation_and_bit_flip_of_a_corpus_file_is_typed() {
    let path = default_dir().join("fzs-d17d87a7cf.pir");
    let bytes = std::fs::read(&path).expect("banked corpus file");
    let text = std::str::from_utf8(&bytes).expect("utf-8");
    let original = CorpusEntry::parse(text).expect("corpus entry");
    // The committed file is exactly what the renderer writes.
    assert_eq!(original.render(), text, "{} is not in rendered form", path.display());

    // The loader: a damaged file fails its digest, it never loads as a
    // different entry.
    for_each_mutant(&bytes, |mutant| {
        if let Ok(entry) = CorpusEntry::parse(&String::from_utf8_lossy(mutant)) {
            assert!(entry == original, "a damaged file parsed as a different entry");
        }
    });

    // The kernel stages, on damaged kernel text.
    for_each_mutant(original.asm.as_bytes(), |mutant| {
        if let Ok(kernel) = penny_ir::parse_kernel(&String::from_utf8_lossy(mutant)) {
            let _ = penny_ir::validate(&kernel);
            let _ = lint_kernel(&kernel, &LintOptions::default());
        }
    });

    let kernel = penny_ir::parse_kernel(&original.asm).expect("kernel");
    penny_ir::validate(&kernel).expect("valid kernel");
}
