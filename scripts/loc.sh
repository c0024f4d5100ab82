#!/usr/bin/env bash
# Per-crate line counts, split the way ROADMAP's simplicity gate wants
# them reported: non-test source (every `src/` file up to its first
# `#[cfg(test)]`) versus test code (the rest of those files, plus
# `tests/` and `benches/`). With a git revision, also the delta against
# that revision's tree.
#
#   scripts/loc.sh            # counts for the working tree
#   scripts/loc.sh fcbb214    # counts, and change since fcbb214
set -euo pipefail
cd "$(dirname "$0")/.."

# count <tree-root>: one "crate non-test test" line per crate under
# <tree-root>/crates, named as cargo names them.
count() {
    local root="$1" dir sub dirs
    for dir in "$root"/crates/*/; do
        dirs=()
        for sub in src tests benches; do
            [ -d "$dir$sub" ] && dirs+=("$dir$sub")
        done
        find "${dirs[@]}" -name '*.rs' | sort |
            xargs -r awk -v crate="psgraph-$(basename "$dir")" '
                FNR == 1 { in_test = (FILENAME !~ /\/src\//) }
                /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
                { if (in_test) test++; else src++ }
                END { print crate, src + 0, test + 0 }'
    done
}

if [ $# -eq 0 ]; then
    count . | awk '
        BEGIN { printf "%-18s %9s %9s\n", "crate", "non-test", "test" }
        { printf "%-18s %9d %9d\n", $1, $2, $3; s += $2; t += $3 }
        END { printf "%-18s %9d %9d\n", "total", s, t }'
    exit 0
fi

rev="$1"
base="$(mktemp -d)"
trap 'rm -rf "$base"' EXIT
git archive "$rev" crates | tar -x -C "$base"
join -a1 -a2 -e 0 -o 0,1.2,1.3,2.2,2.3 <(count . | sort) <(count "$base" | sort) | awk -v rev="$rev" '
    BEGIN {
        printf "%-18s %9s %9s %9s %9s   (delta vs %s)\n",
            "crate", "non-test", "delta", "test", "delta", rev
    }
    {
        printf "%-18s %9d %+9d %9d %+9d\n", $1, $2, $2 - $4, $3, $3 - $5
        s += $2; ds += $2 - $4; t += $3; dt += $3 - $5
    }
    END { printf "%-18s %9d %+9d %9d %+9d\n", "total", s, ds, t, dt }'
