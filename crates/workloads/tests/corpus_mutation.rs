//! A banked corpus file is an artifact read back from disk, so damage
//! to it must surface as a typed error, never a panic: every truncation
//! and every single-bit flip of one committed `.pir` file goes through
//! `CorpusEntry::parse`, `penny_ir::parse_kernel`, `penny_ir::validate`
//! and `penny_analysis::lint_kernel`.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use penny_analysis::{lint_kernel, LintOptions};
use penny_workloads::corpus::{default_dir, CorpusEntry};

/// Runs one mutant through the loader, parser, verifier and sanitizer.
/// The kernel stages run once per distinct kernel text: most flips land
/// in the metadata lines and leave the kernel text as it was.
fn check(bytes: &[u8], seen: &mut HashSet<String>) {
    let Ok(entry) = CorpusEntry::parse(&String::from_utf8_lossy(bytes)) else { return };
    if !seen.insert(entry.asm.clone()) {
        return;
    }
    if let Ok(kernel) = penny_ir::parse_kernel(&entry.asm) {
        let _ = penny_ir::validate(&kernel);
        let _ = lint_kernel(&kernel, &LintOptions::default());
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_corpus_file_is_typed() {
    let path = default_dir().join("fzs-d17d87a7cf.pir");
    let bytes = std::fs::read(&path).expect("banked corpus file");
    let mut seen = HashSet::new();
    let mut run = |what: String, mutant: &[u8]| {
        let outcome = catch_unwind(AssertUnwindSafe(|| check(mutant, &mut seen)));
        assert!(outcome.is_ok(), "{} {what} panicked", path.display());
    };
    for len in 0..bytes.len() {
        run(format!("truncated to {len} bytes"), &bytes[..len]);
    }
    let mut mutant = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        mutant[bit / 8] ^= 1 << (bit % 8);
        run(format!("with bit {bit} flipped"), &mutant);
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
    // The unmutated file still loads: the mutations were of a real entry.
    let entry = CorpusEntry::parse(std::str::from_utf8(&bytes).expect("utf-8"));
    let kernel = penny_ir::parse_kernel(&entry.expect("corpus entry").asm).expect("kernel");
    penny_ir::validate(&kernel).expect("valid kernel");
}
