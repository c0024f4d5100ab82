#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it. Arguments go to the
# binary unchanged; see README.md or `src/main.rs` for them. Run from the
# root of the checkout.
#
#   benchmark/run.sh --workload all                 # all four, both metric sets
#   benchmark/run.sh --workload tg_batch --seed 7   # one workload
#   benchmark/run.sh --workload all --smoke         # every size / 10
#   benchmark/run.sh compare A.json B.json          # regression table
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   # driver protocol
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../.bench_build}"
# Build output goes to stderr so the last line of stdout stays the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/psgraph-benchmark" "$@"
