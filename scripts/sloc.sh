#!/usr/bin/env bash
# Non-test source lines per crate, the vendored shims included: the lines
# of crates/*/src/**/*.rs and vendor/*/src/**/*.rs that come before each
# file's first `#[cfg(test)]`, skipping `tests.rs` files. Blank lines and
# comments count; they are part of what a reader reads.
#
# Usage:
#   scripts/sloc.sh        # one line per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/ vendor/*/; do
    name="${crate%/}"
    name="${name#crates/}"
    lines=0
    while IFS= read -r -d '' file; do
        n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
        lines=$((lines + n))
    done < <(find "$crate/src" -name '*.rs' ! -name tests.rs -print0)
    printf '%-20s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-20s %6d\n' total "$total"
