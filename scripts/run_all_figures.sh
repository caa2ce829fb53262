#!/usr/bin/env bash
# Regenerates every paper figure and ablation, teeing outputs to results/.
# Full run takes ~10-15 minutes on one core (the UTS simulations dominate);
# set UTS_DEPTH=11 for a ~1-minute smoke pass.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
for src in crates/bench/src/bin/*.rs; do
  bin="$(basename "$src" .rs)"
  echo "=== $bin ==="
  cargo run --release -p bench --bin "$bin" | tee "results/$bin.txt"
done
echo "All figure outputs in results/"
