#!/usr/bin/env bash
# Tier-1 verification gate for the Penny reproduction.
#
# Runs the same checks CI and reviewers rely on, in order of cost:
#
#   1. formatting and clippy lints (warnings are errors);
#   2. the kernel sanitizer (penny-lint) over all 25 workloads,
#      warnings denied — the evaluation suite must stay lint-clean;
#   3. release build of the whole workspace;
#   4. the root-package test suite (the tier-1 gate), the `penny` CLI
#      included: usage errors exit 2 before any output, both flag
#      forms, a closed stdout stops it quietly, and `--inject` names
#      the register number `penny compile --emit` prints;
#   4b. the analysis suites: the penny-ir, penny-analysis, penny-core
#      and penny-workloads tests (the dataflow solver, the verifier and
#      sanitizer sharing one must-defined analysis, the protection
#      invariants of check_invariants, every workload validated and
#      lint-clean, every truncation and bit flip of a corpus file a
#      typed error), and the refinement suite (liveness and reaching
#      definitions on the solver equal their reference fixpoints on
#      every workload);
#   5. the determinism/equivalence suites that pin every engine fast
#      path — event-driven vs dense scheduling, --jobs fan-out of every
#      overhead figure and the ablation, and the pre-decoded micro-op +
#      warp register-file row path vs the always-decode reference
#      interpreter — bit-identical; the figure batch runner (each job's
#      shared launch equals its own run, each job keeps its own compile
#      statistics, one launch per distinct launch key); the rendered
#      text of every `penny-eval all` target pinned by digest
#      (tests/golden/figures.txt); the golden artifact fingerprints of
#      the 25 workloads under four schemes; the whole penny-sim suite
#      (register-file units, engine behavior, recovery, the
#      snapshot-equivalence suite — forked sites bit-identical to
#      from-scratch runs, memo twins within and across cells —
#      generated-kernel resume determinism, the generated kernels the
#      protected compilers accept or reject without a panic, the access
#      index derived from each warp's instruction stream against the
#      engine's own accesses, the pinned `PREC` recording bytes, their
#      round trips and every bit flip and truncation of a stored
#      recording, partial warps); plus the compile-cache service suite
#      (racing misses compile once, batch / serial / hit / fresh
#      artifacts fingerprint-identical);
#   6. the fault-space conformance harness (small default budget):
#      every covered (instruction × register × bit) site must recover
#      to the fault-free final memory under each protected scheme,
#      answered through the snapshot/replay engine; plus the
#      harness unit tests (every member of sampled recovery-point
#      groups against its representative), the whole integration
#      suite in release (shard-merge byte identity, the pinned
#      exhaustive MT reports, and the work gate: a forked MT or SGEMM
#      sweep under Penny re-simulates at least 20x fewer warp
#      instructions than a cold harness, recording included), the
#      command-line suite of penny-eval, penny-herd, penny-lint and
#      penny-prof (unknown targets and flags and every other usage
#      error exit 2 with the tool's prefix before any output, among
#      them `penny-herd --budget 0` before any shard spawns; both flag
#      forms read the same value; a closed stdout stops each tool
#      quietly with status 0; a sharded `--budget all` sweep answers
#      its own positions, and `penny-herd --budget all` merges to a
#      report that skips nothing), and a sharded exhaustive sweep of
#      MT, STC, FW and BS (each shard answers exactly the positions it
#      owns);
#   6b. the penny-herd orchestration gate: the supervised-shard test
#      suite (crash-injected retry, partial degradation, timeout
#      kill, failed sites merged as a verdict rather than retried) and the recording-store suite (a damaged stored recording
#      is counted stale, recorded again and overwritten, with an
#      unchanged report), then a 4-shard local MT campaign that must merge
#      byte-identical to the unsharded run, then a warm re-run over
#      the same recording store that must skip the record phase
#      (recording-store span hits > 0 in every shard's obs stream);
#   6c. the static-vulnerability gates: the translation-validation
#      agreement sweeps (penny-eval conformance --static-validate:
#      deep-budget MT/SGEMM under every protected scheme, then the
#      exhaustive MT fault space under Penny — zero static/dynamic
#      disagreements), the analytic-profile suite (the profile behind
#      `penny-eval vulnerability` must equal the exhaustive prune sweep
#      field for field, and classify at least 50% of the MT fault space
#      under Penny), and a smoke run of `penny-eval vulnerability`;
#   6d. the multi-bit campaign suite (penny_bench::campaign): the
#      `penny-eval multibit` and `errorrate` tables byte-pinned, every
#      run booked in exactly one of benign / recovered / DUE / SDC, and
#      no SDC or DUE where the detector covers the flip weight;
#   6e. the benchmark: first a `--locked` build of perfbench/, so a
#      dependency change in any crate the benchmark builds fails here
#      instead of silently rewriting the frozen perfbench/Cargo.lock;
#      then the traced runs (perfbench/run.sh --trace 1, one second
#      each): `sweep-static` and `sweep-exhaustive` re-drive every pair
#      site by site through the public per-site calls and exit non-zero
#      unless the re-driven report is byte-identical JSON to the
#      program's cell-at-a-time report, and `campaign` does the same for
#      25 workloads × 4 shards plus the generated kernels, work counters
#      included — the widest check that the program groups sites
#      exactly by `Recording::memo_key`;
#   7. the observability layer: the unit tests of the JSON codec
#      (penny_obs::json), the span-schema validator and the
#      shard-report round trip (penny_bench::json); penny-prof over all
#      25 workloads with every emitted JSONL span schema-validated; and
#      the neutrality suite (figures and conformance byte-identical
#      with the recorder on vs off);
#   8. the compile-time perf gate: overwrite prevention must stay at
#      or under 35% of total pass time (best of three runs — wall
#      times are noisy) via penny-prof --assert-share;
#   9. the fuzz gate: the penny-fuzz unit/integration suites (shrinker
#      properties, corpus replay as a test, a compiler panic caught as
#      a divergence, the command line), a fixed-seed smoke run
#      that must find zero
#      divergences and produce byte-identical reports across two runs,
#      and the banked-corpus replay gate (every committed kernel
#      re-verified against its golden output).
#
# Usage: scripts/verify.sh [--full]
#   --full additionally runs every workspace test (fault-injection
#   campaigns included; slower).

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> penny-lint: sanitize all workloads (deny warnings)"
cargo run -q -p penny-bench --bin penny-lint -- --all-workloads --deny-warnings

echo "==> cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (root package)"
cargo test -q

echo "==> analyses: solver, verifier, sanitizer, invariants, corpus mutation"
cargo test -q -p penny-ir -p penny-analysis -p penny-core -p penny-workloads

echo "==> analyses: solver ports equal their reference fixpoints"
cargo test --release -p penny-bench --test refinement

echo "==> determinism: harness + engine fast paths"
cargo test --release -p penny-bench --test determinism
cargo test --release -p penny-bench --test batch_runner
cargo test --release -p penny-bench --test figure_pins
cargo test --release -p penny-bench --test artifact_fingerprints
cargo test --release -p penny-sim

echo "==> determinism: compile-cache service (fingerprint identity)"
cargo test --release -p penny-bench --test cache_service

echo "==> conformance: fault-space recovery harness"
cargo test -q -p penny-bench conformance

echo "==> conformance: integration suite (shard merges, pinned reports, work gate)"
cargo test --release -p penny-bench --test conformance

echo "==> command lines: penny-eval, penny-herd, penny-lint, penny-prof"
cargo test --release -p penny-bench --test eval_cli

echo "==> conformance: a sharded exhaustive sweep answers its own positions"
cargo run -q --release -p penny-bench --bin penny-eval -- \
    conformance --workloads MT,STC,FW,BS --schemes Penny --budget all \
    --shard 1/2 > /dev/null

echo "==> herd: supervised-shard suite (retry, partial, timeout, verdict)"
cargo test --release -p penny-bench --test herd

echo "==> herd: a damaged stored recording is stale and recorded again"
cargo test --release -p penny-bench --test recording_store

echo "==> herd: 4-shard campaign == unsharded, warm store reuse"
herd_dir="$(mktemp -d)"
cargo run -q --release -p penny-bench --bin penny-eval -- \
    conformance --workloads MT --schemes Penny --budget 400 \
    --report-json "$herd_dir/unsharded.json" > /dev/null
# Cold campaign: fills the recording store and must render
# byte-identical to the unsharded report (penny-herd exits 1 on a
# --check-against mismatch).
cargo run -q --release -p penny-bench --bin penny-herd -- \
    --workloads MT --schemes Penny --budget 400 --shards 4 \
    --out "$herd_dir/cold" --recording-store "$herd_dir/rec" \
    --check-against "$herd_dir/unsharded.json" > /dev/null 2>&1
# Warm campaign: same store; every shard must load its recording
# instead of re-tracing it.
cargo run -q --release -p penny-bench --bin penny-herd -- \
    --workloads MT --schemes Penny --budget 400 --shards 4 \
    --out "$herd_dir/warm" --recording-store "$herd_dir/rec" \
    --check-against "$herd_dir/unsharded.json" > /dev/null 2>&1
for obs in "$herd_dir"/warm/shard_*.obs.jsonl; do
    if ! grep '"subject":"recording-store"' "$obs" \
        | grep -q '"hits":[1-9]'; then
        echo "verify: warm herd shard $obs did not hit the recording store" >&2
        exit 1
    fi
done
rm -rf "$herd_dir"

echo "==> static vulnerability: translation-validation agreement sweeps"
# Deep-budget validate-mode sweeps of MT and SGEMM under every
# protected scheme, then the exhaustive full MT fault space: every
# static site-class claim is also replayed and cross-examined against
# the snapshot/replay engine. One disagreement fails the gate.
cargo run -q --release -p penny-bench --bin penny-eval -- \
    conformance --workloads MT,SGEMM --static-validate --budget 2000
cargo run -q --release -p penny-bench --bin penny-eval -- \
    conformance --workloads MT --schemes Penny --static-validate --budget all

echo "==> static vulnerability: analytic profile == exhaustive prune sweep, MT floor"
cargo test -q -p penny-bench --lib vulnerability

echo "==> static vulnerability: the profile report runs"
cargo run -q --release -p penny-bench --bin penny-eval -- vulnerability > /dev/null

echo "==> campaign: multi-bit tables byte-pinned, DUE kept apart from SDC"
cargo test -q -p penny-bench --lib campaign

echo "==> benchmark: build against the frozen perfbench/Cargo.lock"
# perfbench/run.sh builds without --locked; this build turns a lock-file
# drift into a failure. Same target directory default as run.sh.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> benchmark: traced runs re-drive site by site to the same reports"
bench_dir="$(mktemp -d)"
perfbench/run.sh --workload sweep-static --seed 1 --seconds 1 --trace 1 \
    --out "$bench_dir" > /dev/null
perfbench/run.sh --workload sweep-exhaustive --seed 1 --seconds 1 --trace 1 \
    --out "$bench_dir" > /dev/null
perfbench/run.sh --workload campaign --seed 1 --seconds 1 --trace 1 \
    --out "$bench_dir" > /dev/null
rm -rf "$bench_dir"

echo "==> observability: JSON codec, span schema, report round trip"
cargo test -q -p penny-obs
cargo test -q -p penny-bench --lib json

echo "==> observability: span schema + neutrality"
cargo run -q --release -p penny-bench --bin penny-prof -- --all-workloads --json --check > /dev/null
cargo test --release -p penny-bench --test obs_neutrality

echo "==> perf gate: overwrite prevention <= 35% of compile time"
# Wall times are noisy; accept the best of three runs before failing.
share_ok=0
for _ in 1 2 3; do
    if cargo run -q --release -p penny-bench --bin penny-prof -- \
        --all-workloads --assert-share overwrite-prevention:35 > /dev/null; then
        share_ok=1
        break
    fi
done
if [[ "$share_ok" != 1 ]]; then
    echo "verify: overwrite-prevention share exceeded 35% in 3 runs" >&2
    exit 1
fi

echo "==> fuzz: unit + property + corpus-replay test suites"
cargo test -q -p penny-fuzz

echo "==> fuzz: fixed-seed smoke (seed 1, 200 iters, deterministic)"
smoke_a="$(cargo run -q --release -p penny-fuzz -- --seed 1 --iters 200)"
smoke_b="$(cargo run -q --release -p penny-fuzz -- --seed 1 --iters 200)"
if [[ "$smoke_a" != "$smoke_b" ]]; then
    echo "verify: fuzz smoke is not deterministic across runs" >&2
    exit 1
fi
if ! grep -q "^divergences 0$" <<< "$smoke_a"; then
    echo "verify: fuzz smoke found divergences:" >&2
    echo "$smoke_a" >&2
    exit 1
fi

echo "==> fuzz: banked-corpus replay gate"
cargo run -q --release -p penny-fuzz -- --replay corpus

if [[ "${1:-}" == "--full" ]]; then
    echo "==> full workspace test suite"
    cargo test --release --workspace -q
fi

echo "verify: OK"
