"""The four seeded workloads: inputs made from the seed, a fixed job list run
one job after another, and the checks applied to every job's output.

Each job calls distsym through module attributes looked up at call time, so
the tracer's rebound entry points see every call.  A check returns a list of
problems; an empty list means the output is correct.  Checks use routes of
their own (set arithmetic in Python, a sort-based count in numpy) wherever the
output has an independent characterisation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import distsym
import distsym.cli
import distsym.families
import distsym.reports


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    run: object  # (inputs, outputs so far) -> output
    check: object  # (inputs, outputs, output) -> list of problems
    digest: object  # output -> canonical text of the output


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object  # (seed, work_dir) -> inputs
    jobs: tuple
    corrupt: object  # outputs -> None; damages one output for the negative control


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _bound_text(report) -> str:
    return _canonical(distsym.reports.bound_json_dict(report))


def _incidence_text(report) -> str:
    return _canonical(distsym.reports.incidence_json_dict(report))


# ---------------------------------------------------------------------------
# shared checks


def _check_thm1(report, n):
    w = report.witness
    problems = []
    if report.verdict != distsym.VERDICT_HOLDS_WITH_CONSTANT:
        problems.append(f"thm1 verdict {report.verdict}")
    if w["chain_inclusion"] is not True:
        problems.append("thm1 chain inclusion failed")
    if not w["five_fold_size"] <= w["five_fold_bound"]:
        problems.append("thm1 five-fold size above its bound")
    # an n-term progression has 2n - 1 differences and n distinct squares of them
    if (w["diff_size"], w["square_size"]) != (2 * n - 1, n):
        problems.append(f"thm1 sizes {w['diff_size']}, {w['square_size']} for ap({n})")
    return problems


def _check_hanson(report, a):
    elems = a.elements
    d = {x - y for x in elems for y in elems}
    two_dd = {2 * u * v for u in d for v in d}
    problems = []
    if report.verdict != distsym.VERDICT_HOLDS:
        problems.append(f"hanson verdict {report.verdict}")
    if report.lhs != len(two_dd):
        problems.append(f"hanson lhs {report.lhs} != |2DD| {len(two_dd)}")
    witnesses = report.witness["witnesses"]
    if report.witness["certified_elements"] != report.lhs or len(witnesses) != report.lhs:
        problems.append("hanson certificates do not cover every element")
    if {t for t, _, _ in witnesses} != two_dd:
        problems.append("hanson certificates name the wrong elements")
    for t, _, (w, x, y, z) in witnesses:
        if not {w, x, y, z} <= d or t != w * w + x * x - y * y - z * z:
            problems.append(f"hanson certificate for {t} does not verify")
            break
    return problems


def _scaled(p):
    """Integer coordinates times their common denominator, as int64 arrays."""
    lcm = 1
    for x, y in p.points:
        lcm = np.lcm(lcm, np.lcm(Fraction(x).denominator, Fraction(y).denominator))
    lcm = int(lcm)
    xs = np.array([int(Fraction(x) * lcm) for x, _ in p.points], dtype=np.int64)
    ys = np.array([int(Fraction(y) * lcm) for _, y in p.points], dtype=np.int64)
    return xs, ys


def _distance_rows(p, block=256):
    """Sorted rows of squared distances from each centre, a block of centres
    at a time (sort and compare neighbours, independent of the package)."""
    xs, ys = _scaled(p)
    for i in range(0, len(xs), block):
        d2 = (xs[i:i + block, None] - xs[None, :]) ** 2 + (ys[i:i + block, None] - ys[None, :]) ** 2
        d2.sort(axis=1)
        yield d2


def _triples_and_distances(p, with_distinct=True):
    """(T, number of distinct nonzero squared distances or None) by sorting."""
    triples = 0
    row_values = []
    for d2 in _distance_rows(p):
        new = np.ones(d2.shape, dtype=bool)
        new[:, 1:] = d2[:, 1:] != d2[:, :-1]
        lens = np.diff(np.append(np.flatnonzero(new.ravel()), new.size))
        triples += int((lens * (lens - 1)).sum())
        if with_distinct:
            row_values.append(d2[new])
    if not with_distinct:
        return triples, None
    values = np.sort(np.concatenate(row_values))
    distinct = np.count_nonzero(values[1:] != values[:-1]) + 1
    return triples, distinct - 1  # every row holds the zero distance


# Every pass gets fresh input objects, equal to the last pass's, so the facts
# are cached by the point set's value and computed once per run.
_FACTS = {}


def _facts(p, with_distinct=True):
    """T and |d(P)| (or None) of one input point set."""
    key = (p, with_distinct)
    if key not in _FACTS:
        _FACTS[key] = _triples_and_distances(p, with_distinct)
    return _FACTS[key]


def _wmap_rows(wmap):
    arrays = wmap.line_arrays()
    if arrays is not None:
        return arrays
    items = list(wmap.items())
    return (np.array([line for line, _ in items], dtype=np.int64),
            np.array([w for _, w in items], dtype=np.int64))


def _wmap_text(wmap) -> str:
    """Order-independent digest of every (line, weight) row, so it does not
    depend on which store or row order the map uses."""
    lines, weights = _wmap_rows(wmap)
    k = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5],
                 dtype=np.uint64)
    acc1 = acc2 = 0
    step = 1 << 18
    with np.errstate(over="ignore"):
        for i in range(0, len(weights), step):
            rows = lines[i:i + step].view(np.uint64)
            h = rows[:, 0] * k[0] + rows[:, 1] * k[1] + rows[:, 2] * k[2]
            h += weights[i:i + step].view(np.uint64) * k[3]
            h ^= h >> np.uint64(31)
            h *= k[1]
            h ^= h >> np.uint64(29)
            acc1 = (acc1 + int(h.sum(dtype=np.uint64))) % (1 << 64)
            acc2 ^= int(np.bitwise_xor.reduce(h * k[2]))
    return _canonical([wmap.n_points, wmap.distinct_lines, wmap.total_weight, wmap.max_weight,
                       acc1, acc2])


def _check_wmap(inputs, outputs, wmap, points_key):
    p = inputs[points_key]
    n = len(p)
    _, weights = _wmap_rows(wmap)
    problems = []
    if int(weights.sum()) != n * n - n or wmap.total_weight != n * n - n:
        problems.append("bisector weights do not total N^2 - N")
    if (weights <= 0).any() or (weights % 2).any():
        problems.append("a bisector weight is not a positive even number")
    if wmap.max_weight != int(weights.max()):
        problems.append("max weight disagrees with the rows")
    return problems


def _reflect(line, pt):
    a, b, c = line
    x, y = Fraction(pt[0]), Fraction(pt[1])
    t = Fraction(a * x + b * y + c, a * a + b * b)
    return distsym.as_scalar(x - 2 * a * t), distsym.as_scalar(y - 2 * b * t)


def _check_thm2(inputs, outputs, result, points_key, wmap_job):
    report, subset = result
    p = inputs[points_key]
    wmap = outputs[wmap_job]
    _, distinct = _facts(p)
    problems = []
    if report.verdict != distsym.VERDICT_HOLDS_WITH_CONSTANT:
        problems.append(f"thm2 verdict {report.verdict}")
    if report.lhs != wmap.max_weight or subset.weight != wmap.max_weight:
        problems.append("thm2 weight is not the heaviest bisector weight")
    if report.witness["distance_count"] != distinct + 1:
        problems.append(f"|d(P)| {report.witness['distance_count']} != {distinct + 1}")
    if len(subset.subset) != subset.weight:
        problems.append("mirror subset size differs from the axis weight")
    members = set(p.points)
    for pt in subset.subset:
        if _reflect(subset.axis, pt) not in members:
            problems.append(f"{pt} does not reflect into the point set")
            break
    return problems


def _check_st(inputs, outputs, report, points_key, wmap_job):
    p = inputs[points_key]
    n = len(p)
    wmap = outputs[wmap_job]
    triples, _ = _facts(p)
    problems = []
    if report.n != n:
        problems.append("st N differs from the input size")
    if report.triples != triples:
        problems.append(f"st T {report.triples} != {triples} by sorting")
    if report.weighted != report.triples:
        problems.append("st I_w != T")
    if report.total_weight != n * n - n or report.max_weight != wmap.max_weight:
        problems.append("st weights disagree with the bisector map")
    if not report.rhs_floor <= report.rhs_ceil:
        problems.append("st right-hand bracket is inverted")
    return problems


def _thm2_text(result) -> str:
    report, subset = result
    return _canonical([distsym.reports.bound_json_dict(report),
                       distsym.reports.symmetric_subset_json_dict(subset)])


def _damage_st(outputs, job):
    outputs[job] = dataclasses.replace(outputs[job], weighted=outputs[job].weighted + 1)


def _planar_jobs(points):
    wmap_job = "weight_map"
    return (
        Job(wmap_job,
            lambda i, o: distsym.bisector_weight_map(i[points]),
            lambda i, o, r: _check_wmap(i, o, r, points),
            _wmap_text),
        Job("thm2",
            lambda i, o: distsym.thm2_report(i[points], weight_map=o[wmap_job]),
            lambda i, o, r: _check_thm2(i, o, r, points, wmap_job),
            _thm2_text),
        Job("st",
            lambda i, o: distsym.st_bound_report(i[points], o[wmap_job]),
            lambda i, o, r: _check_st(i, o, r, points, wmap_job),
            _incidence_text),
    )


# ---------------------------------------------------------------------------
# chain: integer scalar sets.  scalar_sets does nearly all the work and the
# planar layers none; results are dense (a small span, many repeats), the
# dense side of any dense-mask/sort choice in deduplication.
#
# The Hanson inputs are random complete rulers: random sets in [0, span],
# completed with each difference they miss, so that their difference set is
# the whole interval [-span, span].  Every check after the difference set
# depends on D alone, so the work is the same for every seed while the sets
# and their certificates differ.  Plain random sets of this size vary by
# 10-20% in work from seed to seed, which widens the spread between runs.


def _complete_ruler(rng, span, size):
    a = {0, span, *rng.sample(range(1, span), size - 2)}
    covered = {abs(x - y) for x in a for y in a}
    a.update(d for d in range(1, span) if d not in covered)  # d - 0 covers d
    return distsym.ScalarSet(a)


def _chain_inputs(seed, work_dir):
    rng = random.Random(seed)
    return {
        "ap120": distsym.generate_family(distsym.FamilySpec(kind="ap", n=120)),
        "ruler120": _complete_ruler(rng, 120, 36),
        "ruler80": _complete_ruler(rng, 80, 28),
    }


def _damage_chain(outputs):
    report = outputs["hanson_ruler80"]
    outputs["hanson_ruler80"] = dataclasses.replace(report, lhs=report.lhs + 1)


CHAIN = Workload(
    name="chain",
    make_inputs=_chain_inputs,
    jobs=(
        Job("thm1_ap120", lambda i, o: distsym.thm1_report(i["ap120"]),
            lambda i, o, r: _check_thm1(r, 120), _bound_text),
        Job("hanson_ruler120", lambda i, o: distsym.hanson_inclusion_check(i["ruler120"]),
            lambda i, o, r: _check_hanson(r, i["ruler120"]), _bound_text),
        Job("hanson_ruler80", lambda i, o: distsym.hanson_inclusion_check(i["ruler80"]),
            lambda i, o, r: _check_hanson(r, i["ruler80"]), _bound_text),
    ),
    corrupt=_damage_chain,
)


# ---------------------------------------------------------------------------
# planar: random integer points with coordinate range 10^6, the family of the
# c8 acceptance test, at N=1000 and N=4000.  Distances and bisectors are nearly
# all distinct in a huge span, the sort side of the dense/sort choice;
# scalar_sets does nothing.
# The incidence scan is skipped (lines x N > 10^8) and d(P) is computed twice
# for one point set (by thm2 and by st).


def _planar_inputs(seed, work_dir):
    rng = random.Random(seed)

    def points(n):
        return distsym.generate_family(distsym.FamilySpec(
            kind="random_int", n=n, coord_range=10 ** 6, seed=rng.randrange(1 << 31), dim=2))

    return {"p1000": points(1000), "p4000": points(4000)}


def _check_isosceles(inputs, outputs, t):
    triples, _ = _facts(inputs["p4000"], with_distinct=False)
    return [] if t == triples else [f"T {t!r} != {triples} by sorting"]


PLANAR = Workload(
    name="planar",
    make_inputs=_planar_inputs,
    jobs=_planar_jobs("p1000") + (
        Job("isosceles_4000", lambda i, o: distsym.isosceles_count(i["p4000"]),
            _check_isosceles, str),
    ),
    corrupt=lambda outputs: _damage_st(outputs, "st"),
)


# ---------------------------------------------------------------------------
# rational: Fraction inputs.  The same layers run on their exact object paths
# (object set operations, the exact weight map, the Python incidence scan),
# so a change that unifies the integer representation shows here as well as
# on integers.


def _rational_inputs(seed, work_dir):
    rng = random.Random(seed)
    return {
        "ap24": distsym.generate_family(distsym.FamilySpec(kind="ap", n=24, step=Fraction(1, 3))),
        "q200": distsym.families.random_rational_point_set(rng, 200),
    }


RATIONAL = Workload(
    name="rational",
    make_inputs=_rational_inputs,
    jobs=(
        Job("thm1_ap24_third", lambda i, o: distsym.thm1_report(i["ap24"]),
            lambda i, o, r: _check_thm1(r, 24), _bound_text),
    ) + _planar_jobs("q200"),
    corrupt=lambda outputs: _damage_st(outputs, "st"),
)


# ---------------------------------------------------------------------------
# sweep: many small-to-medium calls through the command line, in process,
# writing files.  The only workload where cli, reports, parsing, corpus and
# brackets run, and where a fixed cost per call (a mask to allocate, a table to
# build) shows even when it helps the large-input workloads.
#
# The seed only translates the progressions of the thm1 sweep, which leaves
# every difference set, and so the work, unchanged.  verify and the
# random-int sweep keep their default seeds: their corpora draw set sizes from
# the seed, and their work varied by a factor of two between seeds.


def _sweep_inputs(seed, work_dir):
    out = Path(work_dir)
    start = str(random.Random(seed).randrange(-1000, 1001))

    def sweep(check, family, sizes, name, *extra):
        return ["sweep", "--check", check, "--family", family, "--sizes", sizes, *extra,
                "--out", str(out / name)]

    return {
        "verify": ["verify"],
        "sweep_thm1": sweep("thm1", "ap", "3:40", "thm1.json", f"--start={start}", "--format", "json"),
        "sweep_st": sweep("st", "grid", "2:16", "st.csv"),
        "sweep_hanson": sweep("hanson", "random-int", "3:10", "hanson.csv"),
        "sweep_thm2": sweep("thm2", "cartesian-of", "2:20", "thm2.csv", "--of", "geometric"),
        "sweep_guth_katz": sweep("guth-katz", "gap2", "2:24", "guth_katz.csv", "--d2", "7/2"),
    }


def _cli(job):
    def run(inputs, outputs):
        argv = inputs[job]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = distsym.cli.main(argv)
        out_file = argv[argv.index("--out") + 1] if "--out" in argv else None
        return {"code": code, "stdout": stdout.getvalue(), "out": out_file}
    return run


def _cli_text(result) -> str:
    if result["out"] is None:
        return _canonical([result["code"], result["stdout"]])
    return _canonical([result["code"], result["stdout"], Path(result["out"]).read_text()])


def _csv_rows(result):
    lines = Path(result["out"]).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _check_cli(expect_rows, row_check):
    def check(inputs, outputs, result):
        if result["code"] != 0:
            return [f"exit code {result['code']}"]
        if result["out"].endswith(".json"):
            rows = [dict(r["report"], input=r["input"]) for r in json.loads(Path(result["out"]).read_text())]
        else:
            rows = _csv_rows(result)
        problems = [] if len(rows) == expect_rows else [f"{len(rows)} rows, expected {expect_rows}"]
        for row in rows:
            problem = row_check(row)
            if problem:
                problems.append(f"{row['input']}: {problem}")
        return problems
    return check


def _check_verify(inputs, outputs, result):
    lines = result["stdout"].splitlines()
    if result["code"] != 0:
        return [f"exit code {result['code']}"]
    if not lines or not lines[-1].startswith("verification PASSED") or any(
            line.startswith("FAIL") for line in lines):
        return ["verify did not pass"]
    return []


def _verdict(expected):
    return lambda row: None if row["verdict"] == expected else f"verdict {row['verdict']}"


def _st_row(row):
    n = int(row["input"][len("grid("):-1]) ** 2
    if row["status"] != "ok":
        return f"status {row['status']}"
    if row["N"] != str(n) or row["W_total"] != str(n * n - n):
        return "N or W_total wrong"
    if row["T"] != row["I_w"]:
        return "T != I_w"
    return None


def _damage_sweep(outputs):
    path = Path(outputs["sweep_st"]["out"])
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    last = lines[-1].split(",")
    col = header.index("I_w")
    last[col] = str(int(last[col]) + 1)
    path.write_text("\n".join(lines[:-1] + [",".join(last)]) + "\n")


SWEEP = Workload(
    name="sweep",
    make_inputs=_sweep_inputs,
    jobs=(
        Job("verify", _cli("verify"), _check_verify, _cli_text),
        Job("sweep_thm1", _cli("sweep_thm1"), _check_cli(38, _verdict(distsym.VERDICT_HOLDS_WITH_CONSTANT)), _cli_text),
        Job("sweep_st", _cli("sweep_st"), _check_cli(15, _st_row), _cli_text),
        Job("sweep_hanson", _cli("sweep_hanson"), _check_cli(8, _verdict(distsym.VERDICT_HOLDS)), _cli_text),
        Job("sweep_thm2", _cli("sweep_thm2"), _check_cli(19, _verdict(distsym.VERDICT_HOLDS_WITH_CONSTANT)), _cli_text),
        Job("sweep_guth_katz", _cli("sweep_guth_katz"), _check_cli(23, _verdict(distsym.VERDICT_HOLDS_WITH_CONSTANT)), _cli_text),
    ),
    corrupt=_damage_sweep,
)

WORKLOADS = {w.name: w for w in (CHAIN, PLANAR, RATIONAL, SWEEP)}
