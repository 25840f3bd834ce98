#!/usr/bin/env bash
# One command for the whole benchmark:
#
#   benchmark/run.sh [--seed N] [--workload W] [--trace] [--repeat K] [--set NAME] [--smoke] [--seconds S]
#   benchmark/run.sh compare A B          # two sets written with --set
#
# Builds the standalone benchmark package (offline, release) and runs every
# workload in a fresh child process. Prints a host header and then
# `workload metric value unit n note` rows; writes benchmark/out/<workload>.json
# and, with --trace, benchmark/out/layers-<workload>.json and
# benchmark/out/trace-<workload>.jsonl. Exits non-zero on any correctness
# failure, failed operation or void open-loop phase.
set -euo pipefail
cd "$(dirname "$0")/.."
# Share the repository's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
exec "$bin" all "$@"
