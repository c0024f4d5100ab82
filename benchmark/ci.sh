#!/usr/bin/env bash
# Gate for the benchmark package itself: hermetic lock file, offline build
# with warnings denied, unit tests, BENCHMARK.json in step with the code,
# and a smoke run whose emitted workload and metric names are exactly the
# declared ones. Run from anywhere; touches nothing outside the build
# directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
manifest="$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/psgraph-benchmark"

echo "== hermetic lock file"
if grep -q '^source = ' "$here/Cargo.lock"; then
  echo "benchmark/Cargo.lock names a dependency that is not a path dependency" >&2
  exit 1
fi

echo "== offline build, warnings denied (benchmark crate only; the program's crates keep their own gate)"
cargo rustc --release --offline --quiet --manifest-path "$manifest" -- -D warnings

echo "== unit tests"
cargo test --release --offline --quiet --manifest-path "$manifest"

echo "== BENCHMARK.json matches the tables in src/metrics.rs"
cargo build --release --offline --quiet --manifest-path "$manifest"
"$bin" check-contract "$root/BENCHMARK.json"

echo "== smoke run: every size / 10, one host pass"
smoke="$CARGO_TARGET_DIR/smoke"
start=$(date +%s)
(cd "$root" && "$bin" --workload all --smoke --seconds 1 --out "$smoke") > "$smoke.log" 2>&1 || {
  tail -40 "$smoke.log" >&2
  exit 1
}
elapsed=$(( $(date +%s) - start ))
echo "smoke took ${elapsed}s (budget 25s)"
if [ "$elapsed" -gt 25 ]; then
  echo "smoke run over budget" >&2
  exit 1
fi

echo "== emitted names are the declared names"
"$bin" check-contract "$root/BENCHMARK.json" "$smoke/run.json"
echo "benchmark ci: ok"
