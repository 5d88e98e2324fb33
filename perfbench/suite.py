"""Run all four workloads for one seed and print every metric by name and unit.

    python3 perfbench/suite.py [--seed N] [--seconds N] [--trace] [--negative-control]

Each workload is one run of run.py (a fresh process per workload).  rational
runs too, though BENCHMARK.json does not gate it (see README.md).  The table
shows the end-to-end metrics and failed_ratio = failed / attempted jobs.
--trace adds a traced run per workload and prints the per-layer table, with
the check that the layers' self times plus the workload's own remainder add
up to the traced wall time.  --negative-control runs each workload's job list
once with one output damaged on purpose and shows that the damage is counted
as a failure.  Exits 1 if any output check failed or a damaged output went
unnoticed.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, *flags):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *flags]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def failed_ratio(result):
    return result["failed"] / result["attempted"]


def table(title, names, units, results):
    width = max(len(n) for n in names) + 2
    print(f"\n{title}")
    print(f"{'metric':{width}s}{'unit':10s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        cells = []
        for result in results.values():
            value = result["metrics"][name]["value"] if name in result["metrics"] else result[name]
            cells.append(f"{value:14.6g}")
        print(f"{name:{width}s}{units[name]:10s}" + "".join(cells))


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description="Run every distsym benchmark workload.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args(argv)

    ok = True
    results = {}
    for w in WORKLOADS:
        results[w] = run(w, args.seed, args.seconds, "--trace", "0")
        results[w]["failed_ratio"] = failed_ratio(results[w])
        ok = ok and results[w]["correct"]
    names = [m["name"] for m in spec["end_to_end"]] + ["failed_ratio", "attempted", "failed"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(failed_ratio="fraction", attempted="jobs", failed="jobs")
    table(f"end to end, seed {args.seed}, {args.seconds} s per run", names, units, results)
    print("not gated by BENCHMARK.json: " + (", ".join(w for w in WORKLOADS if w not in gated) or "none"))

    if args.trace:
        traced = {}
        for w in WORKLOADS:
            traced[w] = run(w, args.seed, args.seconds, "--trace", "1")
            ok = ok and traced[w]["correct"]
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        table(f"per layer, traced run, seed {args.seed}", names, units, traced)
        self_names = [n for n in names if n.endswith(".self_s")]
        for w, result in traced.items():
            metrics = result["metrics"]
            total = sum(metrics[n]["value"] for n in self_names)
            wall = metrics["trace.wall_s"]["value"]
            print(f"{w}: layer self times + workload remainder = {total:.6f} s, "
                  f"traced wall_s = {wall:.6f} s")
            ok = ok and math.isclose(total, wall, rel_tol=1e-9)

    if args.negative_control:
        print("\nnegative control: one output damaged on purpose per workload")
        for w in WORKLOADS:
            result = run(w, args.seed, 1, "--trace", "0", "--negative-control")
            caught = result["failed"] >= 1 and not result["correct"]
            print(f"{w}: failed {result['failed']} of {result['attempted']}, "
                  f"failed_ratio {failed_ratio(result):.4g}, "
                  f"{'counted as failed' if caught else 'NOT NOTICED'}")
            ok = ok and caught
    if not ok:
        print("\nFAILED: see the rows above", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
