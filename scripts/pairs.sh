#!/usr/bin/env bash
# The alternating-pairs protocol (choosing-metrics §8) for one workload at
# one seed: build the benchmark from <parent-rev> and from the working tree,
# each into its own checkout and target directory outside the repo, then run
# the two binaries in pairs, alternating which side runs first (odd pairs the
# change, even pairs the parent), each from the root of its own checkout.
# Prints, for every metric of the set, the parent's median and interquartile
# range, the change's median, change / parent, and the pairs in which the
# change read better (lower or higher as BENCHMARK.json says).
#
#   scripts/pairs.sh ec24157 gnn_epoch 1            # 10 pairs, end-to-end set
#   scripts/pairs.sh ec24157 gnn_epoch 7 4          # 4 pairs
#   TRACE=1 scripts/pairs.sh ec24157 gnn_epoch 1 3  # the per-layer set instead
#
# Environment:
#   PAIRS_DIR  where the checkouts, target directories and runs go (default:
#              a new `mktemp -d` directory); printed first. With the same
#              directory and unchanged files a second call rebuilds nothing.
#   TRACE      0 (default): `--trace 0`, the end-to-end metrics;
#              1: `--trace 1`, the per-layer ones
#
# Each run lasts `--seconds` = run_seconds in BENCHMARK.json, as the
# benchmark's own protocol runs it.
#
# Every run's stdout and stderr are kept as runs/<pair>-<side>.{out,err}; a
# run that is not `correct: true` with 0 failed is named at the end and the
# script exits 1. Nothing is written inside the repo.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-rev> <workload> <seed> [pairs]" >&2
    exit 2
fi
rev="$1" workload="$2" seed="$3" pairs="${4:-10}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
contract="$repo/BENCHMARK.json"
seconds="$(jq -r .run_seconds "$contract")"
trace="${TRACE:-0}"
case "$trace" in
    0) set_name=end_to_end ;;
    1) set_name=per_layer ;;
    *) echo "TRACE must be 0 or 1, got $trace" >&2; exit 2 ;;
esac
parent_sha="$(git -C "$repo" rev-parse --verify "$rev^{commit}")"
dir="${PAIRS_DIR:-$(mktemp -d -t psgraph-pairs.XXXXXX)}"
case "$dir/" in
    "$repo"/*) echo "PAIRS_DIR must be outside the repo: $dir" >&2; exit 2 ;;
esac
echo "pairs directory: $dir"
mkdir -p "$dir/runs"

# The two checkouts: the parent's committed tree, and the working tree as it
# stands (tracked and untracked files, nothing the .gitignore names).
rm -rf "$dir/parent" "$dir/change"
mkdir -p "$dir/parent" "$dir/change"
git -C "$repo" archive "$parent_sha" | tar -x -C "$dir/parent"
git -C "$repo" ls-files -z --cached --others --exclude-standard |
    (cd "$repo" && xargs -0 -r sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh) |
    tar -c -C "$repo" --null -T - | tar -x -C "$dir/change"

for side in parent change; do
    echo "building $side ..." >&2
    cargo build --release --offline --quiet \
        --manifest-path "$dir/$side/benchmark/Cargo.toml" --target-dir "$dir/$side-target"
done

# run <pair> <side>: one run of <side>'s binary from the root of its checkout.
run() {
    local out="$dir/runs/$(printf %02d "$1")-$2"
    (cd "$dir/$2" && "$dir/$2-target/release/psgraph-benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace") >"$out.out" 2>"$out.err" || true
}
for ((k = 1; k <= pairs; k++)); do
    if ((k % 2)); then order="change parent"; else order="parent change"; fi
    for side in $order; do
        echo "pair $k/$pairs: $side" >&2
        run "$k" "$side"
    done
done

# One "metric side pair value" line per run and metric, then the table.
bad=()
for ((k = 1; k <= pairs; k++)); do
    for side in parent change; do
        out="$dir/runs/$(printf %02d "$k")-$side.out"
        line="$(tail -n 1 "$out")"
        if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null 2>&1; then
            bad+=("$out")
            continue
        fi
        jq -r --arg side "$side" --argjson k "$k" \
            '.metrics | to_entries[] | "\(.key) \($side) \($k) \(.value.value)"' <<<"$line"
    done
done >"$dir/values.txt"
jq -r ".${set_name}[] | \"\(.name) \(.better)\"" "$contract" >"$dir/better.txt"

echo "$workload, seed $seed: $pairs pairs, parent $(git -C "$repo" rev-parse --short "$parent_sha"), change = working tree; --seconds $seconds --trace $trace"
awk '
    # Quartile k of the n sorted values in s[1..n]: position k(n+1)/4,
    # clamped to the sample (the benchmark'"'"'s Summary::of).
    function quart(s, n, k,    pos, j, d, q) {
        if (n == 0) return 0
        if (n == 1) return s[1]
        pos = k * (n + 1); j = int(pos / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = pos / 4 - j
        q = s[j] + (s[j + 1] - s[j]) * d
        if (q < s[1]) q = s[1]
        if (q > s[n]) q = s[n]
        return q
    }
    function sorted(side, m,    n, i, j, t) {
        n = 0
        for (i = 1; i <= npairs; i++)
            if ((m, side, i) in v) s[++n] = v[m, side, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        return n
    }
    FNR == NR { better[$1] = $2; order[++nm] = $1; next }
    { v[$1, $2, $3] = $4 + 0; if ($3 > npairs) npairs = $3 }
    END {
        printf "%-44s %15s %15s %15s %8s %8s\n", "metric", "parent med", "parent IQR", "change med", "ratio", "chg won"
        for (i = 1; i <= nm; i++) {
            m = order[i]
            n = sorted("parent", m); pm = quart(s, n, 2); iqr = quart(s, n, 3) - quart(s, n, 1)
            n = sorted("change", m); cm = quart(s, n, 2)
            won = 0; both = 0
            for (k = 1; k <= npairs; k++) {
                if (!(((m, "parent", k) in v) && ((m, "change", k) in v))) continue
                both++
                p = v[m, "parent", k]; c = v[m, "change", k]
                if ((better[m] == "lower" && c < p) || (better[m] == "higher" && c > p)) won++
            }
            printf "%-44s %15.6f %15.6f %15.6f %8.3f %5d/%d\n", m, pm, iqr, cm, (pm != 0 ? cm / pm : 0), won, both
        }
    }' "$dir/better.txt" "$dir/values.txt"

if [ ${#bad[@]} -gt 0 ]; then
    echo "runs that did not report correct with 0 failed (left out above):"
    printf '  %s\n' "${bad[@]}"
    exit 1
fi
