#!/usr/bin/env bash
# Non-test source lines under crates/, the figure ROADMAP item 4 tracks:
# every *.rs outside tests/ and benches/, each file cut at its first
# `#[cfg(test)]`. Blank lines and comments count. Prints per crate and total.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
  n=$(find "$crate" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
    -exec awk '/#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} +)
  printf '%-12s %6d\n' "$(basename "$crate")" "$n"
  total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
