#!/usr/bin/env bash
# Parent/change A/B of the benchmark on one machine: the committed tree
# of <parent-rev> against this working tree, in interleaved pairs.
#
# Usage:
#   scripts/perf_ab.sh <parent-rev> [workloads] [pairs] [seconds]
#
#   workloads  comma-separated (default: every workload in BENCHMARK.json)
#   pairs      pairs of runs per workload (default 6)
#   seconds    length of each run (default: BENCHMARK.json's run_seconds)
#
# The parent is exported with `git archive` into
# ${TMPDIR:-/tmp}/perf_ab-<rev> (no worktree, so .git is untouched) and
# its perfbench is built there; this tree's perfbench is built into
# .bench_build, as perfbench/run.py does. Pair i runs both binaries with
# seed i, untraced, and alternates which side runs first, so drift of the
# host over minutes hits both sides alike. For each workload it prints
# every pair's change/parent ratio of the end-to-end metrics, then the
# median of each side and of the ratios, each side's quartiles (so a
# claimed gain can be set against the parent's interquartile spread),
# and `failed` per side. A metric whose median change/parent ratio is
# worse than its `bound` in BENCHMARK.json (by its `better` direction) is
# marked WORSE. It exits 1 if any run fails, reports a failed operation,
# or is marked WORSE.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/perf_ab.sh <parent-rev> [workloads] [pairs] [seconds]"
parent="${1:?$usage}"
workloads="${2:-}"
pairs="${3:-6}"
seconds="${4:-}"

rev="$(git rev-parse --short=12 "$parent^{commit}")"
work="${TMPDIR:-/tmp}/perf_ab-$rev"
if [[ ! -f "$work/src/perfbench/Cargo.toml" ]]; then
    rm -rf "$work/src"
    mkdir -p "$work/src"
    git archive "$rev" | tar -x -C "$work/src"
fi

build() {
    echo "perf_ab: building $1/perfbench" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
build "$work/src" "$work/target"
build "$PWD" "$PWD/.bench_build"

python3 - "$work/target/release/perfbench" ".bench_build/release/perfbench" \
    "$rev" "$workloads" "$pairs" "$seconds" <<'EOF'
import json
import statistics
import subprocess
import sys

parent_bin, change_bin, rev, workloads, pairs, seconds = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
metrics = [m["name"] for m in spec["end_to_end"]]
limits = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
workloads = workloads.split(",") if workloads else [w["name"] for w in spec["workloads"]]
pairs = int(pairs)
seconds = seconds or str(spec["run_seconds"])
bins = {"parent": parent_bin, "change": change_bin}
ok = True


def quartiles(values):
    """First, second and third quartile (one run: that run three times)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def run(side, workload, seed):
    """One untraced run; its result JSON, or None if it failed."""
    global ok
    cmd = [bins[side], "--workload", workload, "--seed", str(seed),
           "--seconds", seconds, "--trace", "0"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        print(f"{workload} seed {seed} {side}: timed out")
        ok = False
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{workload} seed {seed} {side}: exit {done.returncode}")
        ok = False
        return None
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"] != 0:
        ok = False
    return res


print(f"# perf A/B: parent {rev} vs working tree, {pairs} pairs x {seconds} s, "
      "ratios are change/parent")
for w in workloads:
    got = {"parent": [], "change": []}
    for i in range(1, pairs + 1):
        order = ["change", "parent"] if i % 2 else ["parent", "change"]
        res = {side: run(side, w, i) for side in order}
        if None in res.values():
            continue
        for side in order:
            got[side].append(res[side])
        ratios = [res["change"]["metrics"][m]["value"] / res["parent"]["metrics"][m]["value"]
                  for m in metrics]
        print(f"{w:15} pair {i} ({order[0]} first): " + ", ".join(
            f"{m} {r:.3f}" for m, r in zip(metrics, ratios))
            + f", failed {res['parent']['failed']}/{res['change']['failed']}", flush=True)
    if not got["parent"]:
        continue
    for m in metrics:
        p = [r["metrics"][m]["value"] for r in got["parent"]]
        c = [r["metrics"][m]["value"] for r in got["change"]]
        ratio = statistics.median(x / y for x, y in zip(c, p))
        better, bound = limits[m]
        worse = ratio < 1 - bound if better == "higher" else ratio > 1 + bound
        ok = ok and not worse
        (pq1, _, pq3), (cq1, _, cq3) = quartiles(p), quartiles(c)
        print(f"{w:15} {m:12} {'WORSE ' if worse else ''}parent {statistics.median(p):12.6g} "
              f"change {statistics.median(c):12.6g} ratio median {ratio:.3f} "
              f"range {min(x / y for x, y in zip(c, p)):.3f}-{max(x / y for x, y in zip(c, p)):.3f} "
              f"quartiles parent {pq1:.6g}-{pq3:.6g} change {cq1:.6g}-{cq3:.6g}")
    failed = {side: sum(r["failed"] for r in got[side]) for side in got}
    print(f"{w:15} failed       parent {failed['parent']} change {failed['change']}")
sys.exit(0 if ok else 1)
EOF
