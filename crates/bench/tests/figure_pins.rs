//! Pins the rendered text of every `penny-eval all` target — tables 1–3,
//! figures 9–15, the multi-bit campaign, the ablation (with the cost-base
//! sensitivity table) and the error-rate sweep — by an FNV-1a 64 digest
//! of the exact bytes `penny-eval <target>` prints
//! (`tests/golden/figures.txt`). A change to the compiler, the engine or
//! the harness that moves any figure fails here.

use penny_bench::report::{render_target, ALL_TARGETS};
use penny_cache::Fnv64;

const GOLDEN: &str = include_str!("golden/figures.txt");

#[test]
fn every_target_renders_its_pinned_text() {
    let golden: Vec<(&str, u64)> = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (target, hex) = l.split_once(' ').expect("`target digest` line");
            (target, u64::from_str_radix(hex, 16).expect("hex digest"))
        })
        .collect();
    let targets: Vec<&str> = golden.iter().map(|&(t, _)| t).collect();
    assert_eq!(targets, ALL_TARGETS, "the golden file lists every `all` target in order");
    let drifted: Vec<String> = golden
        .iter()
        .filter_map(|&(target, want)| {
            let text = render_target(target).expect("known target");
            let mut h = Fnv64::new();
            h.write_bytes(text.as_bytes());
            let got = h.finish();
            (got != want).then(|| format!("{target}: {got:016x}, pinned {want:016x}"))
        })
        .collect();
    assert!(drifted.is_empty(), "figure output drifted:\n{}", drifted.join("\n"));
}
