#!/usr/bin/env bash
# Counts the non-test lines of the workspace's Rust sources: every `.rs`
# file under `crates/*/src` and `src/`, each up to (not including) its first
# `#[cfg(test)]` line. Prints one count per crate, the total of the five
# crates whose size the ROADMAP tracks (core, coalition, submodular, serve,
# gateway) and the overall total.
#
# Usage: scripts/nontest-lines.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { n++ }
        END { print n + 0 }'
}

tracked=0
total=0
for dir in crates/*/src src; do
    if [ "$dir" = src ]; then name=ccs; else name=$(basename "$(dirname "$dir")"); fi
    n=$(count "$dir")
    printf '%-12s %6d\n' "$name" "$n"
    total=$((total + n))
    case "$name" in
        core | coalition | submodular | serve | gateway) tracked=$((tracked + n)) ;;
    esac
done
printf '%-12s %6d\n' "five crates" "$tracked"
printf '%-12s %6d\n' "total" "$total"
