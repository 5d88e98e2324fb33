"""Outside-in layer tracer for distsym.

The tracer wraps the public entry points of each distsym module and rebinds
the wrapper everywhere the original function object is bound: in its home
module, in every sibling module that imported it by name (``bounds`` calls
``difference_set`` through its own binding) and in the package root.  Calls
made through module globals (``iterated_combination`` calling
``pairwise_combine``) therefore nest as child spans.  Nothing under ``src/``
is modified; ``uninstall`` restores every binding.

Each span records layer, entry point, job, start, end, parent span and the
counts taken from the call's arguments and result.  Counts are computed after
the span's clock stops, so their cost is tracing overhead, not layer time.
"""

from __future__ import annotations

import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pairs(n):
    return n * (n - 1) // 2


def _combine(t, a, k, r):
    return {"pairs_in": len(_arg(a, k, 0, "a")) * len(_arg(a, k, 1, "b")), "elems_out": len(r)}


def _difference(t, a, k, r):
    return {"pairs_in": len(_arg(a, k, 0, "a")) ** 2, "elems_out": len(r)}


def _elementwise(index, name):
    def count(t, a, k, r):
        return {"pairs_in": len(_arg(a, k, index, name)), "elems_out": len(r)}
    return count


def _distances(t, a, k, r):
    p = _arg(a, k, 0, "p")
    key = (len(p), hash(p))
    repeat = key in t.seen_point_sets
    t.seen_point_sets.add(key)
    return {"pairs_in": _pairs(len(p)), "elems_out": len(r), "repeats": int(repeat)}


def _radius_map(t, a, k, r):
    return {"pairs_in": len(_arg(a, k, 0, "p")) ** 2,
            "elems_out": sum(len(m) for m in r.by_center.values())}


def _cartesian(t, a, k, r):
    return {"pairs_in": len(_arg(a, k, 0, "a")) ** 2, "elems_out": len(r)}


def _weight_map(t, a, k, r):
    return {"pairs_in": _pairs(len(_arg(a, k, 0, "p"))), "lines_out": r.distinct_lines}


def _scan(t, a, k, r):
    return {"scan_tests": _arg(a, k, 1, "wmap").distinct_lines * len(_arg(a, k, 0, "p"))}


# layer (module of distsym) -> public entry point -> count function or None.
# Composite entry points (iterated_combination, ab_plus_c_set,
# verify_product_identity) count nothing themselves: their children do.
ENTRY_POINTS = {
    "scalar_sets": {
        "pairwise_combine": _combine,
        "difference_set": _difference,
        "iterated_combination": None,
        "dilate": _elementwise(1, "a"),
        "elementwise_square": _elementwise(0, "a"),
        "ab_plus_c_set": None,
    },
    "planar": {
        "squared_distance_set": _distances,
        "verify_product_identity": None,
        "radius_multiplicity_map": _radius_map,
        "cartesian_square": _cartesian,
    },
    "bisectors": {
        "bisector_weight_map": _weight_map,
        "extract_symmetric_subset": None,
        "heaviest_bisector": None,
    },
    "incidence": {
        "isosceles_count": None,
        "isosceles_count_brute": None,
        "weighted_incidences": _scan,
        "st_bound_report": None,
    },
    "bounds": {
        name: None
        for name in ("hanson_inclusion_check", "plunnecke_check", "abc_lower_report",
                     "thm1_report", "guth_katz_ratio", "thm2_report", "product_identity_report")
    },
    "brackets": {
        name: None
        for name in ("nth_root_bracket", "ln_bracket", "sqrt_bracket", "ratio_bracket", "int_nth_root")
    },
    "cli": {"main": None},
    "reports": {
        name: None
        for name in ("bound_csv_row", "incidence_csv_row", "bound_json_dict", "incidence_json_dict",
                     "symmetric_subset_json_dict", "write_csv", "dump_json")
    },
    "parsing": {
        name: None
        for name in ("parse_scalar_token", "parse_scalar_set", "parse_point_set", "format_scalar",
                     "format_point", "scalar_set_to_text", "point_set_to_text")
    },
    "corpus": {"verify_corpus": None},
    "families": {
        name: None
        for name in ("generate_family", "random_scalar_set", "random_rational_scalar_set",
                     "random_point_set", "random_rational_point_set")
    },
}

LAYERS = tuple(ENTRY_POINTS)

# span fields
LAYER, FUNC, JOB, START, END, PARENT, COUNTS = range(7)


class Tracer:
    """Records nested spans while installed; one instance per traced phase."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.seen_point_sets = set()
        self._stack = []
        self._saved = []

    def install(self) -> None:
        import distsym.cli  # noqa: F401  (the CLI modules are not imported by the package root)

        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "distsym" or name.startswith("distsym."))]
        for layer, entries in ENTRY_POINTS.items():
            home = sys.modules[f"distsym.{layer}"]
            for fname, count in entries.items():
                original = getattr(home, fname)
                wrapped = self._wrap(layer, fname, original, count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, layer, fname, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, fname, self.job, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def records(self):
        """Spans as JSON-ready dicts, with self time filled in."""
        selfs = self_times(self.spans)
        return [
            {"id": i, "layer": s[LAYER], "func": s[FUNC], "job": s[JOB], "start": s[START],
             "end": s[END], "parent": s[PARENT], "self_s": selfs[i], "counts": s[COUNTS] or {}}
            for i, s in enumerate(self.spans)
        ]


def self_times(spans):
    """Span duration minus the part of it that direct children cover.  Spans
    nest on one thread, so children never overlap each other."""
    selfs = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            selfs[s[PARENT]] -= s[END] - s[START]
    return selfs


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time was wall_s."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    totals = {}
    for s, self_s in zip(spans, selfs):
        out[f"{s[LAYER]}.self_s"] += self_s
        out[f"{s[LAYER]}.calls"] += 1
        for key, value in (s[COUNTS] or {}).items():
            name = f"{s[LAYER]}.{key}"
            totals[name] = totals.get(name, 0) + value

    def total(name):
        return totals.get(name, 0)

    def share(num, den):
        return num / den if den else 0.0

    out["scalar_sets.pairs_in"] = total("scalar_sets.pairs_in")
    out["scalar_sets.elems_out"] = total("scalar_sets.elems_out")
    out["scalar_sets.dedup_yield"] = share(total("scalar_sets.elems_out"), total("scalar_sets.pairs_in"))
    out["planar.pairs_in"] = total("planar.pairs_in")
    out["planar.elems_out"] = total("planar.elems_out")
    distance_calls = sum(1 for s in spans if s[FUNC] == "squared_distance_set")
    out["planar.repeat_share"] = share(total("planar.repeats"), distance_calls)
    out["bisectors.pairs_in"] = total("bisectors.pairs_in")
    out["bisectors.lines_out"] = total("bisectors.lines_out")
    out["bisectors.lines_per_pair"] = share(total("bisectors.lines_out"), total("bisectors.pairs_in"))
    out["incidence.scan_tests"] = total("incidence.scan_tests")
    st_calls = [i for i, s in enumerate(spans) if s[FUNC] == "st_bound_report"]
    scanned = set()
    for s in spans:
        if s[FUNC] == "weighted_incidences":
            parent = s[PARENT]
            while parent >= 0 and spans[parent][FUNC] != "st_bound_report":
                parent = spans[parent][PARENT]
            if parent >= 0:
                scanned.add(parent)
    out["incidence.scan_share"] = share(len(scanned), len(st_calls))
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    out["workload.self_s"] = wall_s - covered
    return out
