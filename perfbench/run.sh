#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   perfbench/run.sh [--seed N] [--seconds S] [--trace 0|1]   # every workload
#   perfbench/run.sh compare DIR_A DIR_B
#
# CARGO_TARGET_DIR defaults to the repository's target/ directory, so the
# repository's crates are built once for the workspace and the benchmark.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/penny-benchmark"

case " $* " in
  " compare "*) exec "$bin" "$@" ;;
  *" --workload "*) exec "$bin" --out "$here/out" "$@" ;;
esac
status=0
for workload in figures compile sweep-exhaustive sweep-static campaign; do
  "$bin" --out "$here/out" --workload "$workload" "$@" || status=1
done
exit "$status"
