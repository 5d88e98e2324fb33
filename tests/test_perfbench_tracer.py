"""perfbench's trace mode rebinds distsym's entry points by name; a refactor
that renames or rewires one breaks `run.py --trace 1` without failing any
other test.  tracer.py is imported by path and used as it is."""

import importlib
import importlib.util
import sys
from pathlib import Path

import distsym.cli  # noqa: F401  (the tracer rebinds names in every loaded module)
from distsym.families import FamilySpec, generate_family
from distsym.scalar_sets import ScalarSet

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def distsym_bindings():
    return {(name, attr): value for name, m in list(sys.modules.items())
            if m is not None and (name == "distsym" or name.startswith("distsym."))
            for attr, value in vars(m).items()}


def test_every_entry_point_is_a_callable_of_its_layer():
    for layer, entries in load_tracer().ENTRY_POINTS.items():
        module = importlib.import_module(f"distsym.{layer}")
        for name in entries:
            assert callable(getattr(module, name, None)), f"distsym.{layer}.{name}"


def test_trace_records_the_kernels_and_uninstall_restores_every_binding():
    tracer = load_tracer()
    before = distsym_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        # called through the rebound module globals, as the workloads do
        incidence, bisectors, bounds = (sys.modules[f"distsym.{m}"]
                                        for m in ("incidence", "bisectors", "bounds"))
        p = generate_family(FamilySpec("grid", n=3))
        incidence.st_bound_report(p, bisectors.bisector_weight_map(p))
        bounds.hanson_inclusion_check(ScalarSet([0, 1, 3]))
    finally:
        t.uninstall()
    funcs = {r["func"] for r in t.records()}
    assert {"bisector_weight_map", "weighted_incidences", "squared_distance_set",
            "pairwise_combine"} <= funcs
    after = distsym_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
