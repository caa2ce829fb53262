#!/usr/bin/env python3
"""Build and run the runtime benchmark.

One run (the benchmark contract; the last stdout line is the JSON result):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steadiness mode (repeats workloads over consecutive seeds, prints each
end-to-end metric's median and quartiles and checks the quartile spread
against the bounds in BENCHMARK.json; exits 1 if any check fails):

    python3 perfbench/run.py --steadiness [--runs 10] [--first-seed 1]
        [--sets 2] [--workloads ra_fs,pc_event] [--seconds S]
        [--save out.json]

With --sets 2 it runs two sets of --runs seeds each (the second set's
seeds follow the first's), alternating between the sets run by run so
that drift of the machine over minutes hits both alike, and also checks
that the two medians of every metric agree within its bound, whichever
set is taken as the baseline.

The binary is built from source with cargo into $CARGO_TARGET_DIR
(default .bench_build, relative to the working directory). Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build():
    """Builds the benchmark; returns the binary path or exits non-zero."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        # Cargo's own output goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")
    return Path(target) / "release" / "perfbench"


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def context():
    """Machine context stamped into every result, so trajectories compare
    like with like."""
    return {
        "nproc": os.cpu_count(),
        "rustc": first_line(["rustc", "--version"]),
        "git_rev": first_line(["git", "rev-parse", "--short=12", "HEAD"]),
    }


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs the binary once. With `capture`, returns (exit code, stdout);
    otherwise streams stdout through and returns (exit code, None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_verdict(values, bound):
    """(line, ok) for one set of values of a metric with `bound`."""
    q1, med, q3 = quartiles(values)
    spread = (q3 - q1) / med
    if spread <= bound / 3:
        verdict = "steady (< bound/3)"
    elif spread <= bound:
        verdict = "within bound"
    else:
        verdict = "UNSTEADY"
    line = (f"median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
            f"spread {spread:7.4f} bound {bound:5.3f}  {verdict}")
    return line, spread <= bound


def shift(m0, m1, better):
    """How much worse the worse of two medians is than the other, as a
    share of the better one: the regression either set would show if the
    other were the baseline."""
    lo, hi = min(m0, m1), max(m0, m1)
    return (hi - lo) / lo if better == "lower" else (hi - lo) / hi


def steadiness(binary, args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    ok = True
    print(f"# steadiness: {args.sets} set(s) x {args.runs} runs x {len(workloads)} "
          f"workloads, {seconds} s each; context {json.dumps(context())}")
    for w in workloads:
        sets = [{name: [] for name in metrics} for _ in range(args.sets)]
        for i in range(args.runs):
            for k, values in enumerate(sets):
                seed = args.first_seed + k * args.runs + i
                code, out = run_once(binary, w, seed, seconds, 0, capture=True)
                if code != 0 or not out:
                    print(f"{w} seed {seed}: exit {code}")
                    ok = False
                    continue
                lines = out.strip().splitlines()
                res = json.loads(lines[-1])
                steal = [ln.split("=")[1].strip() for ln in lines
                         if ln.startswith("# phase steal_share")]
                print(f"{w} set {'AB'[k]} seed {seed}: " + ", ".join(
                    f"{name} {res['metrics'][name]['value']:.6g}" for name in metrics)
                    + f", steal share {', '.join(steal)}", flush=True)
                if not res["correct"] or res["failed"] != 0:
                    print(f"{w} seed {seed}: failed {res['failed']}/{res['attempted']}")
                    ok = False
                for name in metrics:
                    values[name].append(res["metrics"][name]["value"])
        results[w] = sets
        for name, m in metrics.items():
            for k, values in enumerate(sets):
                if values[name]:
                    line, good = spread_verdict(values[name], m["bound"])
                    ok &= good
                    print(f"{w:15} {name:12} set {'AB'[k]} {line}")
            if len(sets) >= 2 and sets[0][name] and sets[1][name]:
                m0 = statistics.median(sets[0][name])
                m1 = statistics.median(sets[1][name])
                d = shift(m0, m1, m["better"])
                good = d <= m["bound"]
                ok &= good
                print(f"{w:15} {name:12} A vs B {m0:14.6g} vs {m1:14.6g} differ by "
                      f"{d:.4f} (bound {m['bound']})  {'agree' if good else 'DISAGREE'}")
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--save")
    args = ap.parse_args()
    if not args.steadiness and (args.workload is None or args.seed is None
                                or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    binary = build()
    if args.steadiness:
        return steadiness(binary, args)
    print(f"# context {json.dumps(context())}", flush=True)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                       capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
