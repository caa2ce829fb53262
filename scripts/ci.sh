#!/usr/bin/env bash
# The full CI gate: build, tests, clippy (warnings are errors), rustfmt.
#
# Usage:
#   scripts/ci.sh            # the standard gate
#   scripts/ci.sh --stress   # also run the chaos-stress soak (minutes)
#   CI_SOAK=1 scripts/ci.sh  # same soak, opted in via the environment
#                            # (for CI matrices that can't pass flags)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
# --locked: a dependency edit that would rewrite Cargo.lock fails here
# instead of silently changing the lockfile.
cargo build --locked --workspace --all-targets

echo "== test =="
cargo test --workspace --quiet

echo "== UTS T1 determinism pin (1,100,557 nodes; under a second in release) =="
cargo test -p uts --release --quiet -- --ignored t1_distribution_and_determinism

echo "== model-checker smoke (p=3, depth=2) =="
# Time-boxed: the state cap truncates the two families that blow past it
# at this bound (honest truncation, not a pass), keeping the smoke tier
# seconds-fast; scripts/soak.sh runs the uncapped p=5 depth=4 sweep.
cargo build --release -p caf-check --quiet
./target/release/caf-check suite --images 3 --depth 2 --crash-scenarios \
    --max-states 300000 --quiet

echo "== seeded protocol mutations (every one must be caught) =="
./target/release/caf-check mutate

echo "== caf-lint corpus (fixtures caught, goldens exact, examples clean) =="
cargo build --release -p caf-lint --quiet
lint_golden_tier() {
    local dir="$1"
    local plan golden got want_exit got_exit
    for plan in "$dir"/*.plan; do
        golden="${plan%.plan}.golden"
        [[ -f "$golden" ]] || { echo "missing golden for $plan"; exit 1; }
        # Fixtures whose goldens carry errors must exit 1; clean/warning
        # plans must exit 0.
        if grep -q '^error\[' "$golden"; then want_exit=1; else want_exit=0; fi
        got_exit=0
        got="$(./target/release/caf-lint check "$plan")" || got_exit=$?
        if [[ "$got_exit" -ne "$want_exit" ]]; then
            echo "$plan: exit $got_exit, expected $want_exit"; exit 1
        fi
        if ! diff <(printf '%s\n' "$got") "$golden" >/dev/null; then
            echo "$plan: output drifted from $golden:"
            diff <(printf '%s\n' "$got") "$golden" || true
            exit 1
        fi
    done
}
lint_golden_tier tests/fixtures/lints
lint_golden_tier examples/plans

echo "== figure goldens (seeded figure binaries reproduce exactly) =="
# fig14_bunch_size and fig18_allreduce_rounds are DES-only (about 45 s and
# 10 s); fig13_randomaccess stays out because its second table times the
# threaded runtime.
cargo build --release -p bench --quiet --bin fig05_barrier_failure --bin ablation_detectors \
    --bin ablation_failure_detection --bin fig14_bunch_size --bin fig18_allreduce_rounds
for golden in tests/fixtures/figures/*.golden; do
    bin="$(basename "$golden" .golden)"
    if ! diff <("./target/release/$bin") "$golden" >/dev/null; then
        echo "$bin: output drifted from $golden:"
        diff <("./target/release/$bin") "$golden" || true
        exit 1
    fi
done

echo "== caf-lint ⇄ caf-check differential (every diagnostic realizable) =="
./target/release/caf-check plan-diff tests/fixtures/lints/*.plan examples/plans/*.plan

echo "== perfbench build + self-tests (against the workspace crates) =="
# perfbench is its own cargo workspace with path deps on caf-runtime and
# the kernels: a runtime API change that breaks the benchmark fails here.
# --locked: a workspace dependency edit that would rewrite
# perfbench/Cargo.lock fails here instead of editing the benchmark.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --all --check

if [[ "${1:-}" == "--stress" || "${CI_SOAK:-0}" == "1" ]]; then
    echo "== chaos-stress soak =="
    cargo test --quiet -p caf-runtime --features chaos-stress --test chaos
    echo "== model-checker soak (p=5, depth=4) =="
    ./target/release/caf-check suite --images 5 --depth 4 --crash-scenarios --quiet
fi

echo "CI gate passed."
