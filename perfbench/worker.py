"""One workload in one fresh process: set up, run the job list, check it.

run.py starts this script; it is not meant to be run by hand.  Modes:

  setup  import distsym and make the inputs, report the time taken
  run    set up, then repeat the untraced job list for --seconds seconds;
         after each pass, time the set-up of SETUP_PER_PASS fresh processes
  trace  set up, then alternate untraced and traced job lists for --seconds

The last line of standard output is one JSON object with the measurements.
Each pass gets fresh input objects, made from the seed before its clock
starts: distsym caches derived data on its set objects, and a user's single
invocation never finds those caches warm.  Each pass's outputs are checked
after its clock stops and dropped before the next pass starts, so checks
neither count in the wall time nor hold memory across passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SEED = 1  # outputs at this seed must match the digests in expected.json
EXPECTED = Path(__file__).with_name("expected.json")
# The host's speed states last from seconds to minutes, so set-up samples
# taken between the passes cover the whole run rather than one moment of it.
SETUP_PER_PASS = 2


def run_pass(workload, inputs, tracer=None):
    """Run every job once; returns (wall_s, cpu_s, job wall times, outputs, errors)."""
    outputs, errors, job_s = {}, {}, {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = job.name
        started = time.perf_counter()
        try:
            outputs[job.name] = job.run(inputs, outputs)
        except Exception as exc:  # a job that raises is counted as failed
            errors[job.name] = f"raised {type(exc).__name__}: {exc}"
        job_s[job.name] = time.perf_counter() - started
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return wall, cpu, job_s, outputs, errors


def check_pass(workload, inputs, outputs, errors, expected):
    """Failed jobs of one pass, job name -> reason."""
    from workloads import sha256

    failures = dict(errors)
    for job in workload.jobs:
        if job.name in failures:
            continue
        output = outputs[job.name]
        try:
            problems = job.check(inputs, outputs, output)
            if expected is not None and sha256(job.digest(output)) != expected.get(job.name):
                problems.append("output digest differs from the one recorded for the default seed")
        except Exception as exc:  # a malformed output can break its check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[job.name] = "; ".join(problems)
    return failures


def digests(workload, inputs, outputs):
    from workloads import sha256

    return {job.name: sha256(job.digest(outputs[job.name])) for job in workload.jobs}


class Runner:
    """Passes of one workload, their checks and the failure count."""

    def __init__(self, workload, make_inputs, expected, negative_control):
        self.workload = workload
        self.make_inputs = make_inputs  # () -> fresh inputs for one pass
        self.expected = expected
        self.negative_control = negative_control
        self.attempted = 0
        self.failures = {}
        self.digests = None
        self.job_s = {job.name: [] for job in workload.jobs}

    def one_pass(self, tracer=None, record=False):
        """Run the job list once, then check its outputs; returns (wall_s, cpu_s).
        A tracer given here is installed for the jobs only, not for the checks."""
        inputs = self.make_inputs()
        if tracer is not None:
            tracer.install()
        try:
            wall, cpu, job_s, outputs, errors = run_pass(self.workload, inputs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.negative_control and self.attempted == 0:
            self.workload.corrupt(outputs)
        failures = check_pass(self.workload, inputs, outputs, errors, self.expected)
        if record and not failures:
            self.digests = digests(self.workload, inputs, outputs)
        del outputs, inputs
        if tracer is None:
            for name, seconds in job_s.items():
                self.job_s[name].append(seconds)
        self.attempted += len(self.workload.jobs)
        for job, reason in failures.items():
            self.failures.setdefault(job, []).append(reason)
        return wall, cpu

    @property
    def failed(self):
        return sum(len(v) for v in self.failures.values())


def sample_setup(args):
    """Set-up time of one fresh process in setup mode; waits for it to end."""
    cmd = [sys.executable, __file__, "--mode", "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--src", args.src, "--work-dir", args.work_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _median_fits(costs, started, seconds):
    return time.perf_counter() - started + statistics.median(costs) <= seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--src", required=True, help="directory that must hold the imported distsym")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    import distsym
    import workloads

    if not Path(distsym.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"error: distsym imported from {distsym.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    Path(args.work_dir).mkdir(parents=True, exist_ok=True)
    workload.make_inputs(args.seed, args.work_dir)
    setup_s = time.perf_counter() - started
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    expected = None
    if args.seed == DEFAULT_SEED and EXPECTED.is_file() and not args.record_digests:
        expected = json.loads(EXPECTED.read_text()).get(workload.name)
    runner = Runner(workload, lambda: workload.make_inputs(args.seed, args.work_dir),
                    expected, args.negative_control)
    result = {"setup_s": setup_s}
    loop_started = time.perf_counter()
    if args.mode == "run":
        walls, cpus, costs, setup_samples = [], [], [], [setup_s]
        while True:
            t = time.perf_counter()
            wall, cpu = runner.one_pass(record=args.record_digests and not walls)
            walls.append(wall)
            cpus.append(cpu)
            setup_samples += [sample_setup(args) for _ in range(SETUP_PER_PASS)]
            costs.append(time.perf_counter() - t)
            if not _median_fits(costs, loop_started, args.seconds):
                break
        result.update(walls=walls, cpus=cpus, job_s=runner.job_s, setup_samples=setup_samples,
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        from tracer import LAYERS, Tracer, layer_metrics

        # the traced run's own input generation, for the families layer's share of set-up
        setup_tracer = Tracer()
        setup_tracer.job = "setup"
        setup_tracer.install()
        try:
            workload.make_inputs(args.seed, args.work_dir)
        finally:
            setup_tracer.uninstall()
        setup_layers = layer_metrics(setup_tracer.spans, 0.0)

        walls, cpus, traced_walls, per_pass, costs, spans = [], [], [], [], [], []
        while True:
            t = time.perf_counter()
            wall, cpu = runner.one_pass()
            walls.append(wall)
            cpus.append(cpu)
            tracer = Tracer()
            traced_wall, _ = runner.one_pass(tracer)
            traced_walls.append(traced_wall)
            per_pass.append(layer_metrics(tracer.spans, traced_wall))
            spans.append(tracer.records())
            costs.append(time.perf_counter() - t)
            if not _median_fits(costs, loop_started, args.seconds):
                break
        # one whole traced pass, the median one, so its layer self times and
        # remainder still add up to its wall time
        traced_wall = statistics.median_low(traced_walls)
        metrics = dict(per_pass[traced_walls.index(traced_wall)])
        wall_s, cpu_s = statistics.median(walls), statistics.median(cpus)
        metrics["families.setup_s"] = setup_layers["families.self_s"]
        metrics["process.cpu_s"] = cpu_s
        metrics["process.cpu_util"] = cpu_s / wall_s
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.overhead_ratio"] = traced_wall / wall_s - 1
        result["metrics"] = metrics
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.trace_out).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "layers": list(LAYERS),
                 "setup_spans": setup_tracer.records(), "passes": spans}))
    result.update(attempted=runner.attempted, failed=runner.failed,
                  failures={job: reasons[:3] for job, reasons in runner.failures.items()},
                  digests=runner.digests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
