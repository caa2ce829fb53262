#!/usr/bin/env bash
# Mutation adequacy of the model checker: seed each hand-written protocol
# bug (ten finish-protocol mutations + two cofence mutations + two
# lossy-link mutations) and confirm the checker's oracles catch every one
# — then run the unmutated protocol through the same suite and confirm it
# comes back clean. A mutation that escapes, or a clean-protocol
# counterexample, fails the script.
#
# Usage:
#   scripts/mutate_check.sh              # all mutations + clean smoke suite
#   scripts/mutate_check.sh --full       # clean suite at the soak bound
#                                        # (p=5, depth=4; minutes of CPU)
#   scripts/mutate_check.sh NAME...      # only the named mutations
set -euo pipefail
cd "$(dirname "$0")/.."

full=0
names=()
for a in "$@"; do
    case "$a" in
        --full) full=1 ;;
        *) names+=("$a") ;;
    esac
done

echo "== build (release) =="
cargo build --release -p caf-check --quiet

echo "== seeded mutations must be caught =="
./target/release/caf-check mutate "${names[@]+"${names[@]}"}"

if ((${#names[@]} == 0)); then
    if ((full)); then
        echo "== unmutated protocol, full bound (p=5, depth=4) =="
        ./target/release/caf-check suite --images 5 --depth 4 --crash-scenarios --quiet
    else
        echo "== unmutated protocol, smoke bound (p=3, depth=2) =="
        ./target/release/caf-check suite --images 3 --depth 2 --crash-scenarios --quiet
    fi
fi

echo "Mutation check passed."
