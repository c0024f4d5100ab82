#!/usr/bin/env bash
# Hermetic CI: the workspace must build and test fully offline with an
# empty registry cache (path dependencies only — see DESIGN.md "Hermetic
# build policy"). Fails on any warning in the workspace.
set -euo pipefail
cd "$(dirname "$0")/.."
results_before="$(git status --porcelain -- results/)"

# Hermetic guard: the lockfile must contain path dependencies only — a
# `source = ...` line means something resolved from a registry or git.
if grep -q '^source = ' Cargo.lock; then
    echo "ci: non-path dependency resolved in Cargo.lock" >&2
    exit 1
fi

# One reader: outside `sim::bytes` (and the hasher's word loads) no
# non-test code decodes little-endian bytes by hand or names the deleted
# `Buf` trait — every format reads through `sim::bytes::Reader`.
hand_decoded="$(find crates/*/src -name '*.rs' \
    ! -path crates/sim/src/bytes.rs ! -path crates/sim/src/hash.rs | sort |
    xargs awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile }
        /from_le_bytes|(^|[^A-Za-z0-9_])Buf([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$hand_decoded" ]; then
    echo "ci: bytes decoded outside sim::bytes::Reader:" >&2
    echo "$hand_decoded" >&2
    exit 1
fi

# Panic ratchet: the non-test `.unwrap(` / `.expect(` sites of each crate
# (every `src/` file cut at its first `#[cfg(test)]`, as `scripts/loc.sh`
# cuts it) may fall but never rise above the ceilings below. A change that
# removes sites lowers its crate's ceiling with it.
panic_ceilings="bench 35
core 0
dataflow 0
dfs 0
euler 6
graph 0
graphx 0
harness 1
net 0
ps 0
query 2
serve 10
sim 3
stream 0
tensor 3"
panic_sites="$(for dir in crates/*/; do
    find "${dir}src" -name '*.rs' | sort | xargs awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n += gsub(/\.(unwrap|expect)\(/, "") }
        END { print crate, n + 0 }'
done)"
panics_over="$(join -a2 -e 0 -o 0,1.2,2.2 <(sort <<<"$panic_ceilings") <(sort <<<"$panic_sites") |
    awk '$3 > $2 { print $1 ": " $3 " sites, ceiling " $2 }')"
if [ -n "$panics_over" ]; then
    echo "ci: non-test .unwrap( / .expect( sites rose:" >&2
    echo "$panics_over" >&2
    exit 1
fi

# Warnings are errors in every crate and every target: libraries, the
# `repro` binary, examples, unit and integration tests.
RUSTFLAGS="-D warnings" cargo build --offline --workspace --all-targets
# The docs build clean too: no broken, ambiguous or private intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --keep-going

# The pool is the one place with `unsafe`: run the harness suite once in
# debug too, for the overflow checks and `debug_assert!`s the release
# run below compiles out.
cargo test -q --offline -p psgraph-harness
# The server-to-server exchange's timeline adds and compares `SimTime`s
# per round and message (`u64` nanoseconds).
cargo test -q --offline -p psgraph-net
# So does the shuffle fetch's, per source executor and leg; and the
# property that every RDD op rebuilds a partition with its build's recipe
# (`shuffle::tests::a_rebuilt_partition_costs_and_reserves_what_its_build_did`:
# the same sim time, an OOM one byte under the same working set, `u64`
# meter sums).
cargo test -q --offline -p psgraph-dataflow
# The plan kernels index by id arithmetic (`v >> 6`, mark-word growth)
# that release builds would wrap silently; so does the intersection
# kernel (`x >> 6` words) and its declared charges: a pair's (`u64`
# products of the list lengths) and a run's, `anchored_run_ops` (`u64`
# sums over a key's partners).
cargo test -q --offline -p psgraph-query -p psgraph-graph
# So do the CSR splice every shard goes through at load and swap time
# (`o - plo + olo`, `o - ohi + shift` on u64) and the ingestor's lane and
# sequence bookkeeping.
cargo test -q --offline -p psgraph-serve -p psgraph-stream
# And the snapshot file's region codec: the lengths and counts it reads
# and the per-partition ranges the writer pulls.
cargo test -q --offline -p psgraph-ps --lib -- snapshot
# And the neighbor table's build, which Common Neighbor, Triangle Count,
# K-Core, CC, LPA and PageRank make their adjacency with: the runs the client cuts
# from its sorted edges, the request bytes and items it charges per run
# (`u64` sums), the seal's per-server item sums, and the whole-partition
# read's per-list response bytes.
cargo test -q --offline -p psgraph-ps --lib -- neighbor
# And the jobs on that table: the co-partitioned read back onto the
# executors (one request per partition), the neighbourhood program's
# per-step `[v, N(v)…]` cursor arithmetic over the rows it returns,
# `table_on_ps`' directed form (PageRank's out-table, self-loops kept) and
# its id bound, and PageRank's `FoldPlan`: the counting sort's `usize` offsets
# (`offsets[dst + 1] += 1`, the prefix sum, `next[dst]`) it gathers by.
# `out_of_range_ids_are_an_error_not_a_panic` builds its bad edge past
# `EdgeList::new`'s debug-asserted bound on purpose, so it runs in the
# release suite below only.
cargo test -q --offline -p psgraph-core --lib -- superstep kcore connected_components \
    label_propagation pagerank runner --skip pagerank::tests::out_of_range_ids_are_an_error_not_a_panic
# And Common Neighbor / Triangle Count's round grouping: `2 * slot`
# indexing and the counts written back by slot; and their pair stream's
# last-use bookkeeping, `usize` round arithmetic (`i / batch`, the last
# round per id, the kept lists released and evicted by it).
cargo test -q --offline -p psgraph-core --lib -- common_neighbor triangle
# GraphX's two jobs run the kernel's one-pair form, the only caller that
# loads the shorter list and counts the longer one against it.
cargo test -q --offline -p psgraph-graphx --lib -- common_neighbor triangle
# And the jobs whose recoveries replay the `union` and `join_copartitioned`
# recipes, with their `u64` reservation sums: GraphX's Pregel and both
# Fast Unfoldings.
cargo test -q --offline -p psgraph-graphx --lib -- pregel fast_unfolding
cargo test -q --offline -p psgraph-core --lib -- fast_unfolding
# And the residual-push sweep: the `(x - start) as usize` index into each
# partition, and the mark words that straddle two partitions' ranges.
cargo test -q --offline -p psgraph-ps --lib -- residual_push
# And the one matrix partition: the `(row - start) * width` index every
# row access goes through, and the column-range arithmetic of the column
# split's slices and of the checkpoint decoder; and `dot_pairs`' block of
# pairs, lane `l` of block `k` scoring pair `8k + l`, checked bit for bit
# against one chain per pair.
cargo test -q --offline -p psgraph-ps --lib -- matrix
# And recovery's check that a checkpointed partition fits its slot: the
# column ranges, dense row starts and keys it compares with the layout.
cargo test -q --offline -p psgraph-ps --lib -- object
# And the hash layout's placement: SplitMix64's finalizer multiplies and
# shifts every key (`mix64`, also every draw of the sim RNG), and the
# balance property sums RMAT degree mass per server (`u64`).
cargo test -q --offline -p psgraph-ps --lib -- partition
cargo test -q --offline -p psgraph-sim --lib -- hash rng
cargo test -q --offline -p psgraph-core --test prop_incremental

cargo build --release --offline --workspace
# Release mode: the fig6/table emergence tests simulate whole cluster
# runs and are debug-prohibitive (>10 min); in release the full suite
# finishes in a few minutes.
#
# The full suite runs twice — genuinely serial (POOL_THREADS=1) and on
# every host core — and the normalized outputs must be identical: the
# deterministic-reduction rule says no result may depend on the pool
# size. Timing lines are stripped before the diff.
normalize() {
    sed -E -e 's/finished in [0-9.]+s//g' -e 's/^(test .*) \.\.\. .*/\1/' "$1"
}
POOL_THREADS=1 cargo test -q --offline --workspace --release >/tmp/ci-tests-t1.log 2>&1 \
    || { cat /tmp/ci-tests-t1.log; exit 1; }
POOL_THREADS="$(nproc)" cargo test -q --offline --workspace --release >/tmp/ci-tests-tmax.log 2>&1 \
    || { cat /tmp/ci-tests-tmax.log; exit 1; }
if ! diff <(normalize /tmp/ci-tests-t1.log) <(normalize /tmp/ci-tests-tmax.log) >/tmp/ci-tests.diff; then
    echo "ci: test outputs diverge between POOL_THREADS=1 and POOL_THREADS=$(nproc)" >&2
    cat /tmp/ci-tests.diff >&2
    exit 1
fi

# Serve-tier self-healing smoke: a small `repro -- serve` run with the
# mid-run replica kill (monitor-restarted) and delta hot-swap. The binary
# asserts zero wrong/stale answers, a completed rejoin, and a recovered
# p99 — a non-zero exit fails CI.
cargo run --release --offline -p psgraph-bench --bin repro -- serve --scale 0.02 --queries 5000

# Query-plan smoke: a mixed workload of all legacy shapes plus compound
# filter → expand → score → top-k plans, every answer checked against the
# single-node interpreter (the binary asserts 0 wrong), plus the pushdown
# ablation (cost-based pushdown must move strictly fewer shard→frontend
# bytes than frontend-only execution). Runs serial and on every host
# core; the deterministic-reduction rule says the normalized outputs must
# be identical.
POOL_THREADS=1 cargo run --release --offline -p psgraph-bench --bin repro -- \
    query --scale 0.02 --queries 4000 >/tmp/ci-query-t1.log \
    || { cat /tmp/ci-query-t1.log; exit 1; }
POOL_THREADS="$(nproc)" cargo run --release --offline -p psgraph-bench --bin repro -- \
    query --scale 0.02 --queries 4000 >/tmp/ci-query-tmax.log \
    || { cat /tmp/ci-query-tmax.log; exit 1; }
if ! diff <(sed '/wall clock/d' /tmp/ci-query-t1.log) <(sed '/wall clock/d' /tmp/ci-query-tmax.log) >/tmp/ci-query.diff; then
    echo "ci: query outputs diverge between POOL_THREADS=1 and POOL_THREADS=$(nproc)" >&2
    cat /tmp/ci-query.diff >&2
    exit 1
fi

# Streaming smoke: drift-RMAT edge events through micro-batch ingestion,
# incremental PageRank/CC maintenance, and delta hot-swaps into the live
# tier, at one owner-keyed ingestor shard and at four. The binary
# asserts zero wrong answers, L∞ ≤ 1e-6 vs a full recompute,
# reference-equal components, and bounded freshness lag. The two outputs
# must agree line-for-line — the final PS state digest (this diff is
# the 1-vs-4 bit-identity check; the binary runs no second reference
# pass), freshness, swap/batch counts included — once wall-clock rows
# are stripped
# (events/s and swap cost legitimately differ across shard counts; the
# shard-count row is stripped too since it names the sweep point).
cargo run --release --offline -p psgraph-bench --bin repro -- \
    stream --scale 0.02 --events 6000 --shards 1 >/tmp/ci-stream-s1.log \
    || { cat /tmp/ci-stream-s1.log; exit 1; }
cargo run --release --offline -p psgraph-bench --bin repro -- \
    stream --scale 0.02 --events 6000 --shards 4 >/tmp/ci-stream-s4.log \
    || { cat /tmp/ci-stream-s4.log; exit 1; }
strip_wall() {
    sed -E -e '/wall clock/d' -e '/events\/s/d' -e '/swap cost/d' -e '/ingestor shards/d' "$1"
}
if ! diff <(strip_wall /tmp/ci-stream-s1.log) <(strip_wall /tmp/ci-stream-s4.log) >/tmp/ci-stream.diff; then
    echo "ci: stream outputs diverge between --shards 1 and --shards 4" >&2
    cat /tmp/ci-stream.diff >&2
    exit 1
fi
cat /tmp/ci-stream-s4.log

# Chaos smoke: the fault-injection soak at 3 pinned schedule seeds
# (0xC0FFEE..+2) — message loss/duplication/delay on every RPC, PS
# crash-recovery at arbitrary points, replica kills, DFS block
# corruption. The binary asserts zero wrong answers, bounded freshness,
# and a final PS state bit-identical to the fault-free reference; on any
# failure it prints the failing seed and the exact single-seed replay
# command (`repro -- chaos --seed S ...`).
cargo run --release --offline -p psgraph-bench --bin repro -- chaos --scale 0.02 --seeds 3 --events 3000

# Ablation smoke: the design choices DESIGN.md §4 calls out (delta
# PageRank, hash partitioning under a hot range, co-partitioned join,
# ASP under a straggler), each against its baseline on the simulated
# clock. The binary asserts every direction.
cargo run --release --offline -p psgraph-bench --bin repro -- ablations --scale 0.01

# Schedule-perturbation sweep: rerun both smokes under ten seeded
# claim-schedule perturbations (injected yields, a seeded starting point
# among open jobs, a head start for helpers). The binaries' internal
# correctness asserts — zero wrong answers, reference-equal results —
# must hold on every schedule, and the sharded stream's state digest
# must be the same on all ten: the sharded drain's one table write runs
# its per-partition writes, which build the report the batch's effect is
# read from, on the pool, so this is the path a claim-order bug would
# corrupt. Same for
# the batch path: a small `repro -- fig6` prints the digests of the
# PSGraph PageRank / Common Neighbor / K-Core / Triangle Count outputs,
# whose executor tasks read and write the PS concurrently — the line
# must not vary either — and a digest of the sim times of the jobs whose
# stages never read what they write (PageRank, Common Neighbor, Triangle
# Count): a stage's PS requests are charged in sim order, so their clock
# must not vary with the schedule. Nor may the GraphX column (every row's
# sim time or OOM): those jobs never touch a PS.
: >/tmp/ci-perturb-digests.log
: >/tmp/ci-perturb-fig6.log
: >/tmp/ci-perturb-fig6-sim.log
: >/tmp/ci-perturb-fig6-gx.log
for seed in 1 2 3 4 5 6 7 8 9 10; do
    echo "ci: perturbation seed $seed"
    PSGRAPH_POOL_PERTURB=$seed cargo run --release --offline -p psgraph-bench --bin repro -- \
        serve --scale 0.01 --queries 1500 >/dev/null
    PSGRAPH_POOL_PERTURB=$seed cargo run --release --offline -p psgraph-bench --bin repro -- \
        stream --scale 0.01 --events 2000 --shards 2 | grep 'final state digest' \
        >>/tmp/ci-perturb-digests.log
    PSGRAPH_POOL_PERTURB=$seed cargo run --release --offline -p psgraph-bench --bin repro -- \
        fig6 --scale 0.02 >/tmp/ci-perturb-fig6-run.log
    grep 'PSGraph output digests' /tmp/ci-perturb-fig6-run.log >>/tmp/ci-perturb-fig6.log
    grep 'PSGraph sim digest' /tmp/ci-perturb-fig6-run.log >>/tmp/ci-perturb-fig6-sim.log
    grep 'GraphX sim digest' /tmp/ci-perturb-fig6-run.log >>/tmp/ci-perturb-fig6-gx.log
done
if [ "$(sort -u /tmp/ci-perturb-digests.log | wc -l)" -ne 1 ]; then
    echo "ci: sharded stream digest varies across claim schedules" >&2
    sort /tmp/ci-perturb-digests.log | uniq -c >&2
    exit 1
fi
if [ "$(sort -u /tmp/ci-perturb-fig6.log | wc -l)" -ne 1 ]; then
    echo "ci: fig6 output digests vary across claim schedules" >&2
    sort /tmp/ci-perturb-fig6.log | uniq -c >&2
    exit 1
fi
if [ "$(sort -u /tmp/ci-perturb-fig6-sim.log | wc -l)" -ne 1 ]; then
    echo "ci: fig6 sim times vary across claim schedules" >&2
    sort /tmp/ci-perturb-fig6-sim.log | uniq -c >&2
    exit 1
fi
if [ "$(sort -u /tmp/ci-perturb-fig6-gx.log | wc -l)" -ne 1 ]; then
    echo "ci: fig6 GraphX sim times vary across claim schedules" >&2
    sort /tmp/ci-perturb-fig6-gx.log | uniq -c >&2
    exit 1
fi
head -1 /tmp/ci-perturb-fig6.log
head -1 /tmp/ci-perturb-fig6-sim.log
head -1 /tmp/ci-perturb-fig6-gx.log

# A run worth keeping is recorded under results/ deliberately, as text;
# running CI must not rewrite a tracked artifact. Compared with the
# state the script started from, so the check also works on a tree with
# a ledger not yet committed; on a clean checkout it is "must be empty".
if [ "$(git status --porcelain -- results/)" != "$results_before" ]; then
    echo "ci: the smokes changed files under results/" >&2
    git status --porcelain -- results/ >&2
    exit 1
fi

# The benchmark is its own workspace, so nothing above compiles it: a
# `core`/`ps` signature change could break `benchmark/src/sut.rs` and
# only the perf gate would notice. Its own gate builds it offline with
# warnings denied, checks BENCHMARK.json against the metric tables and
# smoke-runs all four workloads (every correctness check, < 25 s).
bash benchmark/ci.sh

# Per-crate non-test / test line counts (ROADMAP's simplicity gate asks
# every PR to report them; `scripts/loc.sh <rev>` adds the delta).
# Informational: never fails the build.
scripts/loc.sh || true

echo "ci: OK"
