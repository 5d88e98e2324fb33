"""perfbench checks every output it measures, and at seed 1 compares each
job's output digest with perfbench/expected.json.  A refactor that moves one
of those outputs fails here, not first in a benchmark run.  workloads.py and
worker.py are imported from perfbench/ and used as they are."""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as mp:
        # worker.check_pass imports workloads by name at call time
        mp.syspath_prepend(str(PERFBENCH))
        for name in ("workloads", "worker"):
            mp.delitem(sys.modules, name, raising=False)
        yield importlib.import_module("workloads"), importlib.import_module("worker")


@pytest.mark.parametrize("name", ["chain", "planar", "sweep", "rational"])
def test_seed_one_outputs_pass_the_benchmark_checks(perfbench, tmp_path, name):
    workloads, worker = perfbench
    workload = workloads.WORKLOADS[name]
    expected = json.loads(worker.EXPECTED.read_text())[name]
    inputs = workload.make_inputs(worker.DEFAULT_SEED, str(tmp_path))
    _, _, _, outputs, errors = worker.run_pass(workload, inputs)
    assert worker.check_pass(workload, inputs, outputs, errors, expected) == {}
    # negative control: the checks must catch a damaged output
    workload.corrupt(outputs)
    assert worker.check_pass(workload, inputs, outputs, errors, expected)
