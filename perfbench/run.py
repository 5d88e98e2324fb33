"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload {chain,planar,rational,sweep} --seed N \\
        --seconds N --trace {0,1}

Run it from anywhere inside a checkout of the repository: distsym is imported
from the checkout's own src/ directory, and nothing is installed.  Every
workload runs in fresh worker processes on one thread each:

  --trace 0  one measuring process that repeats the job list untraced for
             --seconds seconds, on fresh inputs each time, and starts two
             set-up-only processes after each pass.  Reports the job list's
             wall time as the sum over its jobs of each job's fastest run,
             the median set-up time of all these processes and the measuring
             process's peak RSS.

  --trace 1  one process that alternates untraced and traced job lists and
             reports the per-layer metrics (see tracer.py).

The host this benchmark was tuned on runs in speed states up to 40% apart
that last from seconds to minutes, set by other tenants.  The median job list
of a 20 s run moved by 42% between runs of identical work; each job's fastest
run, which catches the quiet moments within the run, moved by 18%.

The metric names and units are those of BENCHMARK.json at the checkout root.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Scratch files go under .perfbench_work/ in the
checkout; trace spans are kept in .perfbench_work/traces/.

--negative-control damages one output of the first job list on purpose; the
run must then report it as failed.  --record-digests rewrites the output
digests of the default seed in expected.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain", "planar", "rational", "sweep")
DEADLINE_S = 170


class BenchError(Exception):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("DISTSYM_OUT_DIR", None)
    # numpy asks for transparent huge pages on large arrays; whether the kernel
    # grants them, and how long compaction stalls a page fault, varies from run
    # to run, which moved wall_s and peak RSS by up to 20% between identical runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    return env


def run_worker(mode, args, src, work_dir, deadline, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--src", str(src),
           "--work-dir", str(work_dir), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(src), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric_units(key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def measure(args, src, work_dir, deadline):
    extra = []
    if args.negative_control:
        extra.append("--negative-control")
    if args.trace:
        trace_out = ROOT / ".perfbench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
        result = run_worker("trace", args, src, work_dir, deadline, "--trace-out", str(trace_out), *extra)
        return result, result["metrics"], metric_units("per_layer")
    if args.record_digests:
        extra.append("--record-digests")
    result = run_worker("run", args, src, work_dir, deadline, *extra)
    values = {
        "wall_s": sum(min(times) for times in result["job_s"].values()),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    return result, values, metric_units("end_to_end")


def record_digests(workload, digests) -> None:
    if digests is None:
        raise BenchError("no digests recorded: the run had failures")
    path = HERE / "expected.json"
    recorded = json.loads(path.read_text()) if path.is_file() else {}
    recorded[workload] = digests
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one distsym benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    src = ROOT / "src"
    if not (src / "distsym" / "__init__.py").is_file():
        print(f"error: no distsym package under {src}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result, values, units = measure(args, src, work_dir, deadline)
        if args.record_digests:
            record_digests(args.workload, result["digests"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1
    for job, reasons in result["failures"].items():
        print(f"FAILED {args.workload}/{job}: {reasons[0]}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
