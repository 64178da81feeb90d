#!/usr/bin/env bash
# The repository's one benchmark command. Builds the benchmark package from
# source (release profile) and runs it from the repository root.
#
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S] [--out FILE]   whole suite
#   benchmark/run.sh compare A.json B.json                            hold B against A
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one pass of one workload
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mar-benchmark" "$@"
