import importlib
import math
import pkgutil
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_pair_weights, rows_dtype
import distsym
from distsym import incidence, planar, scalar_sets
from distsym.bisectors import WeightedBisectorMap, bisector_weight_map
from distsym.errors import CapExceededError, EmptyInputError, MismatchedInputsError
from distsym.families import (
    FamilySpec,
    generate_family,
    random_point_set,
    random_rational_point_set,
)
from distsym.incidence import (
    BRUTE_CAP_DEFAULT,
    isosceles_count,
    isosceles_count_brute,
    st_bound_report,
    weighted_incidences,
)
from distsym.planar import (
    PlanarPointSet,
    cartesian_square,
    radius_multiplicity_map,
    squared_distance_set,
)
from distsym.scalar_sets import _I64_LIMIT

TRIANGLE = PlanarPointSet([(0, 0), (1, 0), (0, 1)])

coords = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-20, max_value=20, max_denominator=5),
)
small_point_sets = st.lists(
    st.tuples(coords, coords), min_size=2, max_size=14, unique=True
).map(PlanarPointSet)


def test_fixture_counts():
    assert isosceles_count(TRIANGLE) == 2
    assert isosceles_count_brute(TRIANGLE) == 2
    collinear = PlanarPointSet([(0, 0), (1, 0), (2, 0)])
    assert isosceles_count(collinear) == 2
    grid3 = generate_family(FamilySpec(kind="grid", n=3))
    assert isosceles_count(grid3) == 88
    assert isosceles_count_brute(grid3) == 88


# Radius classes are runs read across the rows of a block; a lone point's
# row is just its 0 and two points' rows are (0, d), so a run that joined one
# row to the next would show up as a triple here.
def test_one_point_has_no_triples():
    assert isosceles_count(PlanarPointSet([(3, 4)])) == 0
    assert isosceles_count(PlanarPointSet([(Fraction(1, 3), 0)])) == 0
    # no point at all is refused before the map is checked
    for count in (isosceles_count, isosceles_count_brute,
                  lambda p: weighted_incidences(p, bisector_weight_map(TRIANGLE))):
        with pytest.raises(EmptyInputError):
            count(PlanarPointSet([]))


def test_two_points_have_no_triples():
    assert isosceles_count(PlanarPointSet([(0, 0), (5, 1)])) == 0
    assert isosceles_count(PlanarPointSet([(0, 0), (0, Fraction(1, 7))])) == 0


def test_brute_cap():
    p = PlanarPointSet([(i, i * i) for i in range(12)])
    with pytest.raises(CapExceededError):
        isosceles_count_brute(p, cap=10)
    # explicit cap raise lets the same input through
    assert isosceles_count_brute(p, cap=12) == isosceles_count(p)


@settings(max_examples=40, deadline=None)
@given(small_point_sets)
def test_routes_agree(p):
    t = isosceles_count(p)
    assert t == isosceles_count_brute(p)
    assert t == weighted_incidences(p, bisector_weight_map(p))
    assert t % 2 == 0  # (p,q,s) and (q,p,s) pair up


def test_weighted_incidences_rejects_foreign_map():
    other = PlanarPointSet([(0, 0), (3, 1), (2, 2)])
    with pytest.raises(MismatchedInputsError):
        weighted_incidences(TRIANGLE, bisector_weight_map(other))
    with pytest.raises(MismatchedInputsError):
        st_bound_report(TRIANGLE, bisector_weight_map(other))


def test_incidence_scan_handles_rational_points():
    rng = random.Random(23)
    for _ in range(10):
        p = random_rational_point_set(rng, rng.randint(2, 12))
        wm = bisector_weight_map(p)
        assert weighted_incidences(p, wm) == isosceles_count(p)


def test_triangle_st_report():
    rep = st_bound_report(TRIANGLE, bisector_weight_map(TRIANGLE))
    assert rep.n == 3
    assert rep.triples == rep.weighted == 2
    assert rep.total_weight == 6
    assert rep.max_weight == 2
    # rhs = cbrt(2 * (3*6)^2) + 6 + 2*3 sits strictly between 20 and 21
    assert (rep.rhs_floor, rep.rhs_ceil) == (20, 21)
    assert rep.low_multiplicity_classes == 8
    assert rep.ratio.lo == Fraction(2, 21)
    assert rep.ratio.hi == Fraction(2, 20)


def test_grid3_st_report():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    rep = st_bound_report(g3, bisector_weight_map(g3))
    assert rep.triples == rep.weighted == 88
    assert rep.total_weight == 72
    assert rep.max_weight == 6
    assert (rep.rhs_floor, rep.rhs_ceil) == (262, 263)
    assert rep.low_multiplicity_classes == 28


def low_multiplicity_oracle(p):
    """(centre, radius) classes over radius in d(P) hitting at most one point,
    from a Fraction distance comprehension and radius_multiplicity_map."""
    pts = p.points
    d = {(u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 for u in pts for v in pts}
    rmap = radius_multiplicity_map(p)
    return sum(len(d) - sum(m >= 2 for m in counts.values()) for counts in rmap.by_center.values())


@settings(max_examples=40, deadline=None)
@given(small_point_sets)
def test_low_multiplicity_classes_match_the_radius_map(p):
    rep = st_bound_report(p, bisector_weight_map(p))
    assert rep.low_multiplicity_classes == low_multiplicity_oracle(p)


@pytest.mark.parametrize("p", [
    generate_family(FamilySpec(kind="grid", n=3)),
    random_rational_point_set(random.Random(31), 12),
], ids=["grid3", "rational12"])
def test_st_report_skips_the_scan_past_the_work_limit(monkeypatch, p):
    wm = bisector_weight_map(p)
    scanned = st_bound_report(p, wm)

    def no_scan(*args):
        raise AssertionError("the incidence scan ran past the work limit")

    monkeypatch.setattr(incidence, "_SCAN_WORK_LIMIT", 0)
    monkeypatch.setattr(incidence, "weighted_incidences", no_scan)
    skipped = st_bound_report(p, wm)
    assert skipped.weighted == skipped.triples
    assert skipped == scanned


def spy_on(monkeypatch, name):
    """Replace incidence.<name> by a wrapper that records each call's
    arguments and result in the returned list."""
    calls = []
    real = getattr(incidence, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(incidence, name, spy)
    return calls


def test_st_report_joins_a_grid_by_direction(monkeypatch):
    p = generate_family(FamilySpec(kind="grid", n=20))
    wm = bisector_weight_map(p)
    joins = spy_on(monkeypatch, "_join_by_direction")
    scans = spy_on(monkeypatch, "_scan_lines")
    rep = st_bound_report(p, wm)
    # 14,530 of the 36,332 lines can hold a point: 228 directions join
    # 14,470 of them and the 60 lines of the other 12 directions are scanned
    assert [(len(args[3]), len(args[5])) for args, _ in joins] == [(228, 14470)]
    assert [len(args[4]) for args, _ in scans] == [60]
    assert rep.weighted == rep.triples == isosceles_count(p)


# Coordinates past the planar guard hold their lines in Python ints; the
# join's key cannot overflow there, so the object kernels join too.  All
# 2,300 lines of grid(10) x 10^25 hold a point, and 92 directions of 8 or
# more lines take 2,212 of them.
def test_st_report_joins_an_object_grid_by_direction(monkeypatch):
    p = PlanarPointSet([(x * 10**25, y * 10**25)
                        for x, y in generate_family(FamilySpec(kind="grid", n=10)).points])
    wm = bisector_weight_map(p)
    joins = spy_on(monkeypatch, "_join_by_direction")
    scans = spy_on(monkeypatch, "_scan_lines")
    rep = st_bound_report(p, wm)
    assert [(args[3].dtype, len(args[3]), len(args[5])) for args, _ in joins] == [(object, 92, 2212)]
    assert [(args[2].dtype, len(args[4])) for args, _ in scans] == [(object, 88)]
    assert rep.weighted == rep.triples == isosceles_count(p) == 24968


ROUTE_SETS = {
    "grid2": generate_family(FamilySpec(kind="grid", n=2)),
    "grid5": generate_family(FamilySpec(kind="grid", n=5)),
    "grid9": generate_family(FamilySpec(kind="grid", n=9)),
    "thirds": generate_family(FamilySpec(kind="cartesian_of", base=FamilySpec(
        kind="ap", n=6, start=Fraction(1, 3), step=Fraction(1, 3)))),
    "1e25": PlanarPointSet([(x * 10**25, y * 10**25 + 1) for x in range(4) for y in range(3)]),
    "geometric": generate_family(FamilySpec(kind="cartesian_of", base=FamilySpec(kind="geometric", n=5))),
    "n2": PlanarPointSet([(0, 0), (3, 1)]),
    "grid13": PlanarPointSet(random.Random(17).sample([(x, y + 1) for x in range(5) for y in range(5)], 13)),
}


# At one line every direction that can hold a point is joined and nothing
# is scanned; at 10^9 the join takes nothing and the scan takes every line
# that can hold a point.  At 10^25 both kernels run on Python ints.
@pytest.mark.parametrize("min_lines", [1, 10**9])
@pytest.mark.parametrize("name", ROUTE_SETS)
def test_join_and_scan_each_count_the_triples(monkeypatch, name, min_lines):
    p = ROUTE_SETS[name]
    monkeypatch.setattr(incidence, "_JOIN_MIN_LINES", min_lines)
    scans = spy_on(monkeypatch, "_scan_lines")
    wm = bisector_weight_map(p)
    t = isosceles_count_brute(p) if len(p) <= BRUTE_CAP_DEFAULT else isosceles_count(p)
    assert weighted_incidences(p, wm) == t
    scanned = 0 if min_lines == 1 else sum(direction_classes(p, wm))
    dtype = object if name == "1e25" else np.int64
    assert [(args[2].dtype, len(args[4])) for args, _ in scans] == [(dtype, scanned)]


# Two directions with offsets up to |c| make the join's key reach
# 2 (2 |c| + 1): 2^62 - 2 at the last |c| it takes and 2^62 + 2 past it, where
# every line is scanned.  The kernels' reach, |c|, stays in int64.  At
# |c| = 2^61 the key passes 2^63, where an int64 product would wrap.
@pytest.mark.parametrize("c, joined, over", [(1 - (1 << 60), True, -2), (-(1 << 60), False, 2),
                                             (-(1 << 61), False, (1 << 62) + 2)], ids=["edge", "edge+1", "wrap"])
def test_join_at_its_key_guard(monkeypatch, c, joined, over):
    monkeypatch.setattr(incidence, "_JOIN_MIN_LINES", 1)
    scans = spy_on(monkeypatch, "_scan_lines")
    p = PlanarPointSet([(0, 0), (1, 0), (1, 1), (-1, 1), (1, -1)])
    lines = np.array([(1, 0, -1), (1, 1, 0), (1, 1, c)], dtype=np.int64)
    wm = WeightedBisectorMap(p.points, lines, np.array([2, 4, 6]))
    assert 2 * (2 * -c + 1) - _I64_LIMIT == over
    assert weighted_incidences(p, wm) == 2 * 3 + 4 * 3
    assert [(args[2].dtype, len(args[4])) for args, _ in scans] == [(np.int64, 0 if joined else 3)]


# The guard's product of the joined directions' count, a numpy integer, and
# the key span is taken in Python ints.  In int64 it wrapped past 2^63 and
# let the join run on overflowing keys; on these 50 rational points the
# join counted I_w = 4 against T = 16.
def test_join_key_guard_on_rational_points(monkeypatch):
    scans = spy_on(monkeypatch, "_scan_lines")
    p = random_rational_point_set(random.Random(1), 50, max_numerator=6, max_denominator=30)
    assert weighted_incidences(p, bisector_weight_map(p)) == isosceles_count_brute(p) == 16
    assert [(args[2].dtype, len(args[4])) for args, _ in scans] == [(np.int64, 1174)]


# Both offsets are 0, but (0, 1) projects to 1 on the direction (0, 1): a key
# span sized by the offsets alone would carry that projection into the key
# of the next direction, (1, 0), and count x = 0 once more.
def test_join_keys_span_the_projections(monkeypatch):
    monkeypatch.setattr(incidence, "_JOIN_MIN_LINES", 1)
    joins = spy_on(monkeypatch, "_join_by_direction")
    p = PlanarPointSet([(0, 0), (0, 1)])
    rows = [(0, 1, 0), (1, 0, 0)]
    wm = WeightedBisectorMap(p.points, np.array(rows, dtype=np.int64), np.array([2, 4]))
    want = sum(w * sum(1 for x, y in p.points if a * x + b * y + c == 0)
               for (a, b, c), w in zip(rows, (2, 4)))
    assert weighted_incidences(p, wm) == want == 2 * 1 + 4 * 2
    assert [len(args[5]) for args, _ in joins] == [2]  # both lines were joined


@settings(max_examples=25, deadline=None)
@given(small_point_sets)
def test_st_report_internal_consistency(p):
    rep = st_bound_report(p, bisector_weight_map(p))
    assert rep.rhs_ceil - rep.rhs_floor in (0, 1)
    assert rep.weighted == rep.triples
    n = rep.n
    assert rep.total_weight == n * n - n
    assert 0 <= rep.low_multiplicity_classes
    # floor and ceil really bracket cbrt(w_max (N W)^2) + W + w_max N
    base = rep.total_weight + rep.max_weight * n
    cube = rep.max_weight * (n * rep.total_weight) ** 2
    root = rep.rhs_floor - base
    assert root**3 <= cube < (root + 1) ** 3
    assert rep.rhs_ceil == base + (root if root**3 == cube else root + 1)


# The planar guard picks the coordinate dtype (int64 while the box width 2M
# that _reduced_lattice translates, for scaled magnitude M, stays below
# _I64_LIMIT), the canonical rows pick the lines' dtype, and the incidence
# reach picks the dtype of the join and the scan.  Each route is checked
# against the independent oracles on both sides of each edge.


def check_against_oracles(p):
    pts = p.points
    want_d = sorted({(u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 for u in pts for v in pts})
    assert list(squared_distance_set(p).squared.elements) == want_d
    rmap = radius_multiplicity_map(p)
    t = sum(m * (m - 1) for counts in rmap.by_center.values() for m in counts.values())
    assert isosceles_count(p) == isosceles_count_brute(p) == t
    wm = bisector_weight_map(p)
    assert dict(wm.items()) == per_pair_weights(p)
    assert weighted_incidences(p, wm) == t
    return wm


# the last int64 coordinates: 2M < 2^62 at L = 1.  Over points k / L the
# coordinates stay int64 at any L, and the lines cross instead: the row
# (4L, 2L, -5) of (0, 0) and (2, 1) / L reaches 2^62 at L = 2^60
COORD_EDGE = (_I64_LIMIT - 1) // 2
DEN_EDGE = (1 << 60) - 1
EDGE_IDS = ("edge-1", "edge", "edge+1")


@pytest.mark.parametrize("edge", (COORD_EDGE - 1, COORD_EDGE, COORD_EDGE + 1), ids=EDGE_IDS)
def test_coordinates_at_the_planar_guard(edge):
    p = PlanarPointSet([(0, 0), (edge, 0), (0, 1), (1, 1), (edge, edge), (-edge, 1)])
    dtype = np.int64 if edge <= COORD_EDGE else object
    xs, ys, den = p.scaled_int_coords()
    assert den == 1 and xs.dtype == ys.dtype == dtype
    wm = check_against_oracles(p)
    assert wm.line_arrays()[0].dtype == rows_dtype(per_pair_weights(p))


@pytest.mark.parametrize("den", (DEN_EDGE - 1, DEN_EDGE, DEN_EDGE + 1), ids=EDGE_IDS)
def test_common_denominator_at_the_planar_guard(den):
    # coordinates k / den keep the scaled magnitudes tiny, so only L crosses
    p = PlanarPointSet([(Fraction(x, den), Fraction(y, den))
                        for x, y in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 3), (-1, 2))])
    xs, ys, lcm = p.scaled_int_coords()
    assert lcm == den and xs.dtype == np.int64
    wm = check_against_oracles(p)
    dtype = np.int64 if den <= DEN_EDGE else object
    assert wm.line_arrays()[0].dtype == dtype == rows_dtype(per_pair_weights(p))


def kernel_dtypes(monkeypatch):
    """The dtype of the (u, v, t) columns that each call of the join, then
    of the scan, reads."""
    calls = {name: spy_on(monkeypatch, name) for name in ("_join_by_direction", "_scan_lines")}
    return lambda: [args[5 if name == "_join_by_direction" else 4].dtype
                    for name, seen in calls.items() for args, _ in seen]


def test_object_reduction_feeds_int64_kernels(monkeypatch):
    # L = 797 * 809 * 811 keeps the coordinates and the lines int64 (every
    # entry below 2^56), while |c| L passes 2^62, so the lines are reduced in Python ints; the reduced
    # offsets -cL / gcd(a, b) fall back inside the reach of int64 kernels
    dtypes = kernel_dtypes(monkeypatch)
    rng = random.Random(5)
    p = PlanarPointSet({(Fraction(rng.randint(-40, 40), rng.choice((797, 809, 811))),
                         Fraction(rng.randint(-40, 40), rng.choice((797, 809, 811))))
                        for _ in range(14)})
    xs, ys, den = p.scaled_int_coords()
    lines, _ = bisector_weight_map(p).line_arrays()
    assert xs.dtype == lines.dtype == np.int64
    assert int(np.abs(lines[:, 2]).max()) * den >= _I64_LIMIT
    check_against_oracles(p)
    assert dtypes() == [np.int64, np.int64]


@pytest.mark.parametrize("reach", (_I64_LIMIT - 1, _I64_LIMIT, _I64_LIMIT + 1))
def test_scan_at_its_reach_guard(monkeypatch, reach):
    # |coordinates| <= 1 and L = 1, so the reach max(|t|, (|u| + |v|) M) is
    # the offset of the third line, -c = reach; past the edge the lines are
    # reduced in Python ints as well
    dtypes = kernel_dtypes(monkeypatch)
    p = PlanarPointSet([(0, 0), (1, 0), (1, 1), (-1, 1), (1, -1)])
    rows = [(1, 0, -1), (1, 1, 0), (1, 1, -reach)]
    wm = WeightedBisectorMap(p.points, np.array(rows, dtype=np.int64), np.array([2, 4, 6]))
    want = sum(w * sum(1 for x, y in p.points if a * x + b * y + c == 0)
               for (a, b, c), w in zip(rows, (2, 4, 6)))
    assert weighted_incidences(p, wm) == want == 2 * 3 + 4 * 3
    assert dtypes() == [np.int64 if reach < _I64_LIMIT else object] * 2


def spy_cache_blocks(monkeypatch):
    """Row counts of the blocks of every row_blocks call that any pair kernel
    makes: every module of distsym that binds row_blocks gets the spy.  Keyed
    by (caller, n_rows, width)."""
    seen = {}
    real = scalar_sets.row_blocks

    def spy(n_rows, width):
        slices = list(real(n_rows, width))
        caller = sys._getframe(1).f_code.co_name
        seen[caller, n_rows, width] = [s.stop - s.start for s in slices]
        return iter(slices)

    for info in pkgutil.iter_modules(distsym.__path__):
        module = importlib.import_module(f"distsym.{info.name}")
        if hasattr(module, "row_blocks"):
            monkeypatch.setattr(module, "row_blocks", spy)
    return seen


def direction_classes(p, wm):
    """Sizes of the direction classes (a, b)/gcd(a, b) of the lines that can
    hold a cleared point, those whose gcd(a, b) divides cL, in Python ints."""
    den = p.scaled_int_coords()[2]
    sizes = Counter()
    for (a, b, c), _ in wm.items():
        g = math.gcd(a, b)
        if c * den % g == 0:
            sizes[a // g, b // g] += 1
    return list(sizes.values())


# With _CHUNK and _CACHE_BLOCK at 40, 13 centres, directions or lines of 13
# points go in blocks of 3 rows, and so do the rows of the distance set and
# the weight map, which cut their blocks to the pairs i < j.  Of this set's
# 61 lines, 28 can hold a point, in direction classes of sizes 1, 1, 2, 2,
# 2, 3, 3, 4, 5, 5: joining the classes of 3 or more lines leaves 5
# directions to the join and 8 lines to the scan, so each kernel crosses
# block edges and ends on a partial block.
# At 10^25 the kernels run on Python ints, and the lattice Z^2 is finer than
# the set's, so all 61 lines can hold a point: the join takes 10 directions
# and the scan 16 lines.
@pytest.mark.parametrize("scale", (1, Fraction(1, 3), 10**25))
def test_pair_kernels_across_several_blocks(monkeypatch, scale):
    monkeypatch.setattr(scalar_sets, "_CHUNK", 40)
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", 40)
    monkeypatch.setattr(incidence, "_JOIN_MIN_LINES", 3)
    assert [s.stop - s.start for s in scalar_sets.row_blocks(13, 13)] == [3, 3, 3, 3, 1]
    seen = spy_cache_blocks(monkeypatch)
    rng = random.Random(17)
    grid = rng.sample([(x, y) for x in range(5) for y in range(5)], 13)
    p = PlanarPointSet([(x * scale, y * scale + 1) for x, y in grid])
    wm = check_against_oracles(p)
    assert len(wm) == 61
    rep = st_bound_report(p, wm)
    assert rep.low_multiplicity_classes == low_multiplicity_oracle(p)
    want = {(caller, 13, 13): [3, 3, 3, 3, 1]
            for caller in ("_distinct_upper_distances", "_sq_dist_rows", "bisector_weight_map")}
    sizes = sorted(direction_classes(p, wm))
    if scale == 10**25:
        assert sizes == [1] * 4 + [2] * 6 + [3] * 4 + [4, 5, 5, 6, 6, 7]
        want["_join_by_direction", 10, 13] = [3, 3, 3, 1]
        want["_scan_lines", 16, 13] = [3] * 5 + [1]
    else:
        assert sizes == [1, 1, 2, 2, 2, 3, 3, 4, 5, 5]
        want["_join_by_direction", 5, 13] = [3, 2]
        want["_scan_lines", 8, 13] = [3, 3, 2]
    assert seen == want


# _sq_dist_rows writes every block into the leading rows of two buffers made
# once, as one array.  Blocks of 40 and 65 values give 13 points blocks of 3
# and 5 rows with a short last one: the radius-class pass must read only that
# block's rows.  The distance set, with _CHUNK at the same size, writes its
# rectangles into one buffer that it deduplicates and grows on the way.
@pytest.mark.parametrize("scale", (1, Fraction(1, 3), 10**25))
@pytest.mark.parametrize("block, heights", [(40, [3, 3, 3, 3, 1]), (65, [5, 5, 3])])
def test_distance_blocks_reuse_two_buffers(monkeypatch, scale, block, heights):
    monkeypatch.setattr(scalar_sets, "_CHUNK", block)
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", block)
    grid = random.Random(19).sample([(x, y) for x in range(5) for y in range(5)], 13)
    p = PlanarPointSet([(x * scale, y * scale + 1) for x, y in grid])
    xs, ys, _ = p.scaled_int_coords()
    views = list(planar._sq_dist_rows(xs, ys))
    assert [len(v) for v in views] == heights
    assert all(np.shares_memory(v, views[0]) for v in views)
    rmap = radius_multiplicity_map(p)
    want = sorted({r for counts in rmap.by_center.values() for r in counts})
    assert list(squared_distance_set(p).squared.elements) == want
    t = sum(m * (m - 1) for counts in rmap.by_center.values() for m in counts.values())
    assert isosceles_count(p) == isosceles_count_brute(p) == t


# Rich classes are read from stretches of repeated values in a block of
# sorted rows.  With _CHUNK and _CACHE_BLOCK at 40 a block holds several rows
# of these sets:
# grid(4) has back-to-back rich classes in a row (0, 1, 1, 2, 4, 4, 5, 5, ...),
# the concentric squares' centre row ends with its rich class of four 8s
# right before the next row in its block, and N = 1, 2 have no rich class.
CONCENTRIC_SQUARES = PlanarPointSet(
    [(0, 0)] + [(s * x, s * y) for s in (1, 2) for x in (-1, 1) for y in (-1, 1)])


@pytest.mark.parametrize("p", [
    generate_family(FamilySpec(kind="grid", n=4)),
    generate_family(FamilySpec(kind="grid", n=5)),
    CONCENTRIC_SQUARES,
    PlanarPointSet([(x, y + Fraction(1, 3)) for x, y in CONCENTRIC_SQUARES]),
    PlanarPointSet([(3, 4)]),
    PlanarPointSet([(0, 0), (5, 1)]),
], ids=["grid4", "grid5", "squares", "rational_squares", "n1", "n2"])
def test_rich_classes_match_the_radius_map(monkeypatch, p):
    monkeypatch.setattr(scalar_sets, "_CHUNK", 40)
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", 40)
    mults = [m for counts in radius_multiplicity_map(p).by_center.values() for m in counts.values()]
    rich = sorted(m for m in mults if m >= 2)
    blocks = []

    def spy(values):
        blocks.append(scalar_sets.repeat_runs(values))
        return blocks[-1]
    monkeypatch.setattr(incidence, "repeat_runs", spy)
    t = sum(m * (m - 1) for m in mults)
    assert incidence._radius_class_counts(p) == (t, len(rich))
    assert len(blocks) == -(-len(p) // max(1, 40 // len(p)))  # one per block of rows
    assert sorted(np.concatenate(blocks).tolist()) == rich
    assert isosceles_count(p) == t
    if len(p) >= 2:
        rep = st_bound_report(p, bisector_weight_map(p))
        assert rep.triples == t
        assert rep.low_multiplicity_classes == low_multiplicity_oracle(p)


def counted_rows(monkeypatch):
    """(dtype, rows) of each block of sorted distance rows that the
    radius-class pass reads its classes from (one repeat_runs call each)."""
    seen = []

    def spy(values):
        seen.append(values)
        return scalar_sets.repeat_runs(values)
    monkeypatch.setattr(incidence, "repeat_runs", spy)
    return lambda n: [(v.dtype, len(v) // n) for v in seen]


def radius_oracles(p):
    """(T, rich) from radius_multiplicity_map, with T checked against the
    cubic count."""
    mults = [m for counts in radius_multiplicity_map(p).by_center.values() for m in counts.values()]
    t = sum(m * (m - 1) for m in mults)
    assert isosceles_count_brute(p, cap=None) == t
    return t, sum(m >= 2 for m in mults)


# (2^28 + 4)^2 - (2^28 - 4)^2 = 4 * 2^28 * 4 = 2^32, so the origin sees its
# two far points at one residue mod 2^32: its row is recomputed in int64,
# where they fall into classes of their own.  (2^28, 5) sees both at 41, the
# one rich class, and the other two rows repeat no residue.
def test_distances_2_to_the_32_apart_are_counted_apart(monkeypatch):
    h = 1 << 28
    p = PlanarPointSet([(0, 0), (h - 4, 0), (h + 4, 0), (h, 5)])
    assert (h + 4) ** 2 - (h - 4) ** 2 == 1 << 32
    rows = counted_rows(monkeypatch)
    assert incidence._radius_class_counts(p) == radius_oracles(p) == (2, 1)
    assert rows(len(p)) == [(np.int64, 2)]


# The route follows reach = W^2 + H^2 of the reduced box.  Below 2^32 the
# residue rows are the distance rows: 2^32 - 3 = 63982^2 + 14187^2.  At 2^32
# the ends of the segment see each other at 2^32, the residue of their own 0,
# so only their two rows are recomputed, and no class is found.  Below 2^62
# the same holds for (2^31 - 1)^2, the residue of 1; at 2^62 the rows are
# Python ints.
@pytest.mark.parametrize("points, reach, route", [
    ([(0, 0), (1, 0), (63982, 0), (0, 14187), (63982, 14187)], (1 << 32) - 3, [(np.uint32, 5)]),
    ([(0, 0), (1, 0), ((1 << 16) - 1, 0), (1 << 16, 0)], 1 << 32, [(np.int64, 2)]),
    ([(0, 0), (1, 0), ((1 << 31) - 2, 0), ((1 << 31) - 1, 0)], ((1 << 31) - 1) ** 2, [(np.int64, 2)]),
    ([(0, 0), (1, 0), ((1 << 31) - 1, 0), (1 << 31, 0)], 1 << 62, [(object, 4)]),
], ids=["2^32-3", "2^32", "2^62-2^32+1", "2^62"])
def test_radius_route_at_its_edges(monkeypatch, points, reach, route):
    p = PlanarPointSet(points)
    assert planar._reduced_lattice(p)[2] == reach
    rows = counted_rows(monkeypatch)
    assert incidence._radius_class_counts(p) == radius_oracles(p)
    assert rows(len(p)) == route


def rich_centres(p):
    """The number of centres with a rich class, by radius_multiplicity_map."""
    return sum(max(counts.values()) >= 2 for counts in radius_multiplicity_map(p).by_center.values())


def random_1e25(n):
    rng = random.Random(1)
    return PlanarPointSet([(rng.randint(0, 10**25), rng.randint(0, 10**25)) for _ in range(n)])


def rational_30(seed):
    return random_rational_point_set(random.Random(seed), 40, max_numerator=6, max_denominator=30)


# Lattices past the int64 guard take the 32-bit residue pass too, and only
# the rows that repeat a residue are recomputed, in Python ints: those of
# the centres with a rich class.  40 random points in [0, 10^25]^2 repeat no
# residue, so nothing is recomputed.  The rational sets (reach 2^73 to 2^90)
# recompute a few rows; with blocks of 8 rows (_CACHE_BLOCK = 320), seed 5's
# six rich centres fall in three of the five blocks, and the other two are
# skipped.  grid(6) times 10^25, sheared apart by y -> 3y and joined by the
# point (1, 2), reduces to no smaller lattice, and every row repeats a
# residue: the grid's 36 rows hold classes, and the lone point's row holds
# none but repeats residues, since 10^25 is a multiple of 2^25.  So it pays
# the 32-bit pass on top of its exact rows, and the recompute finds no class
# in the row that only collides mod 2^32.
@pytest.mark.parametrize("p, block, counts, route", [
    (random_1e25(40), None, (0, 0), []),
    (rational_30(0), None, (0, 0), []),
    (rational_30(1), None, (6, 3), [(object, 1)]),
    (rational_30(2), None, (4, 2), [(object, 2)]),
    (rational_30(5), None, (12, 6), [(object, 6)]),
    (rational_30(5), 320, (12, 6), [(object, 2), (object, 3), (object, 1)]),
    (rational_30(7), None, (6, 3), [(object, 3)]),
    (PlanarPointSet([(x * 10**25 + 7, 3 * y * 10**25 + 1)
                     for x, y in generate_family(FamilySpec(kind="grid", n=6)).points] + [(1, 2)]),
     None, (1168, 340), [(object, 37)]),
], ids=["random1e25", "rational0", "rational1", "rational2", "rational5", "rational5-blocks8",
        "rational7", "sheared-grid6e25"])
def test_python_int_lattices_recompute_only_repeating_rows(monkeypatch, p, block, counts, route):
    assert planar._reduced_lattice(p)[0].dtype == object
    if block is not None:
        monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", block)
    passes = []

    def spy(xs, ys):
        passes.append(xs.dtype)
        return planar._sq_dist_rows(xs, ys)
    monkeypatch.setattr(incidence, "_sq_dist_rows", spy)
    rows = counted_rows(monkeypatch)
    assert incidence._radius_class_counts(p) == radius_oracles(p) == counts
    assert passes == [np.uint32] and rows(len(p)) == route
    assert sum(k for _, k in route) >= rich_centres(p)  # every rich row is recomputed


# T and the rich count depend on the set only up to similarity, and the
# pass reduces every copy of grid(6) to grid(6) itself: 10^25 leaves the
# object path and counts on 32-bit rows.
GRID6_COUNTS = (2416, 412)


@pytest.mark.parametrize("scale, shift", [
    (1, (0, 0)), (10**4, (7, -3)), (Fraction(1, 3), (0, 0)), (10**25, (0, 0)),
], ids=["grid6", "1e4+shift", "thirds", "1e25"])
def test_similar_grids_count_alike(monkeypatch, scale, shift):
    p = PlanarPointSet([(x * scale + shift[0], y * scale + shift[1])
                        for x, y in generate_family(FamilySpec(kind="grid", n=6)).points])
    assert p.scaled_int_coords()[0].dtype == (object if scale == 10**25 else np.int64)
    xs, ys, reach, g, x0, y0 = planar._reduced_lattice(p)
    assert xs.dtype == ys.dtype == np.int64 and reach == 50
    den = p.scaled_int_coords()[2]
    assert g == den * scale and (x0, y0) == (shift[0] * den, shift[1] * den)
    rows = counted_rows(monkeypatch)
    assert incidence._radius_class_counts(p) == radius_oracles(p) == GRID6_COUNTS
    assert rows(len(p)) == [(np.uint32, 36)]


# Every row of a cartesian square repeats a distance: (a, a) and (b, b) are
# both |a - b| from (a, b), and (a, a) sees (x, y) and (y, x) alike.  With
# ratio 2 the reduced box stays below 2^32 and the residue rows are counted;
# with ratio 16 it is about 2^49 (the translated coordinates 16^k - 1 share
# the gcd 15), so every row is flagged and recomputed in int64.
@pytest.mark.parametrize("ratio, dtype", [(2, np.uint32), (16, np.int64)])
def test_geometric_square_counts_every_row(monkeypatch, ratio, dtype):
    p = cartesian_square(generate_family(FamilySpec(kind="geometric", n=8, ratio=ratio)))
    rows = counted_rows(monkeypatch)
    assert incidence._radius_class_counts(p) == radius_oracles(p)
    assert rows(len(p)) == [(dtype, 64)]


@pytest.mark.parametrize("point", [(3, 4), (Fraction(1, 3), -7), (10**25, 1)])
def test_one_point_reduces_to_the_origin(monkeypatch, point):
    p = PlanarPointSet([point])
    xs, ys, reach, g, x0, y0 = planar._reduced_lattice(p)
    assert (xs.tolist(), ys.tolist(), reach, g) == ([0], [0], 0, 1)
    assert (x0, y0) == tuple(p.scaled_int_coords()[i][0] for i in range(2))
    rows = counted_rows(monkeypatch)
    assert incidence._radius_class_counts(p) == radius_oracles(p) == (0, 0)
    assert rows(1) == [(np.uint32, 1)]


# The radius-class pass, the join and the scan reduce each cache-sized block
# on the spot: the triple count peaks at 0.65 MiB on its input with 32-bit
# rows (1.1 MiB with int64 rows), against 8.7 MiB with _CHUNK blocks.  The
# incidence route's peak is mostly its arrays of one int64 per line that can
# hold a point: 0.39 MiB on grid(12) and 2.4 MiB on grid(20), where 14,470
# lines take the join and 60 the scan.
def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_isosceles_count_peak_stays_within_four_mib():
    p = random_point_set(random.Random(1), 1000, bound=10**6)
    p.scaled_int_coords()
    assert traced_peak(isosceles_count, p) <= 4 << 20


def test_incidence_scan_peak_stays_within_four_mib():
    for n, lines in ((12, 4748), (20, 36332)):
        p = generate_family(FamilySpec(kind="grid", n=n))
        wm = bisector_weight_map(p)
        assert wm.distinct_lines == lines
        assert traced_peak(weighted_incidences, p, wm) <= 4 << 20
