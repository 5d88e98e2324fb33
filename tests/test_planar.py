import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_pair_weights, sorted_dtypes
from distsym import planar, scalar_sets
from distsym.bisectors import bisector_weight_map
from distsym.errors import EmptyInputError
from distsym.families import FamilySpec, generate_family, random_point_set, random_rational_point_set
from distsym.incidence import isosceles_count
from distsym.planar import (
    PlanarPointSet,
    cartesian_square,
    radius_multiplicity_map,
    squared_distance_set,
    verify_product_identity,
)
from distsym.scalar_sets import ScalarSet, as_scalar

coords = st.one_of(
    st.integers(min_value=-200, max_value=200),
    st.fractions(min_value=-50, max_value=50, max_denominator=8),
)
point_sets = st.lists(st.tuples(coords, coords), min_size=1, max_size=20).map(PlanarPointSet)


def test_construction_dedups_and_orders():
    p = PlanarPointSet([(1, 0), (0, 0), (1, 0), (Fraction(2, 2), 0)])
    assert p.points == ((0, 0), (1, 0))


def test_rejects_float_coordinates():
    with pytest.raises(TypeError):
        PlanarPointSet([(0.5, 1)])


def test_scaled_int_coords_clears_denominators():
    p = PlanarPointSet([(Fraction(1, 2), 0), (0, Fraction(1, 3))])
    scaled = p.scaled_int_coords()
    assert scaled is not None
    xs, ys, lcm = scaled
    assert lcm == 6
    assert list(xs) == [0, 3] and list(ys) == [2, 0]


def test_grid3_distance_set():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    ds = squared_distance_set(g3)
    assert ds.squared.elements == (0, 1, 2, 4, 5, 8)
    assert ds.includes_zero and len(ds) == 6
    ds = squared_distance_set(g3, include_zero=False)
    assert ds.squared.elements == (1, 2, 4, 5, 8)
    assert not ds.includes_zero


def test_single_point_distance_set():
    p = PlanarPointSet([(3, 4)])
    assert squared_distance_set(p).squared.elements == (0,)
    assert len(squared_distance_set(p, include_zero=False)) == 0


def test_cartesian_square_shape():
    sq = cartesian_square(ScalarSet([0, 1, 3]))
    assert len(sq) == 9
    assert (3, 0) in sq and (Fraction(1, 2), 0) not in sq


def test_product_identity_worked_example():
    agree, lhs, rhs = verify_product_identity(ScalarSet([0, 1, 3]))
    assert agree
    assert lhs == rhs
    assert 0 in lhs


@given(st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=12).map(ScalarSet))
def test_product_identity_random(a):
    agree, _, _ = verify_product_identity(a)
    assert agree


def test_radius_map_totals():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    rm = radius_multiplicity_map(g3)
    assert rm.total() == len(g3) ** 2
    # the zero radius carries exactly one point per centre
    for s in g3.points:
        assert rm.by_center[s][0] == 1


@given(point_sets)
def test_radius_map_row_sums(p):
    rm = radius_multiplicity_map(p)
    assert rm.total() == len(p) ** 2


def _transform(p, f):
    return PlanarPointSet([f(x, y) for x, y in p.points])


@settings(max_examples=30)
@given(point_sets)
def test_distance_set_rigid_motion_invariance(p):
    moved = _transform(p, lambda x, y: (x + 7, y - Fraction(3, 2)))
    # 3-4-5 rotation keeps coordinates rational
    rotated = _transform(
        p, lambda x, y: (Fraction(3, 5) * x - Fraction(4, 5) * y, Fraction(4, 5) * x + Fraction(3, 5) * y)
    )
    base = squared_distance_set(p).squared
    assert squared_distance_set(moved).squared == base
    assert squared_distance_set(rotated).squared == base


def test_distance_set_matches_brute_on_rational_inputs():
    rng = random.Random(11)
    for _ in range(20):
        p = random_rational_point_set(rng, rng.randint(1, 15))
        ds = squared_distance_set(p)
        pts = p.points
        want = {0} | {
            (a - c) ** 2 + (b - d) ** 2 for i, (a, b) in enumerate(pts) for (c, d) in pts[i + 1 :]
        }
        assert set(ds.squared.elements) == want


def test_empty_point_set_raises():
    with pytest.raises(EmptyInputError):
        squared_distance_set(PlanarPointSet([]))


@pytest.mark.parametrize("p", [
    generate_family(FamilySpec(kind="grid", n=5)),
    random_rational_point_set(random.Random(5), 20),
    PlanarPointSet([(10**25, 3), (-(10**25), 1), (0, 0)]),
], ids=["grid", "rational", "object"])
def test_reduced_lattice_is_cached_and_read_only(p):
    # the weight map, d(P) and the radius-class pass all read this one copy
    lattice = planar._reduced_lattice(p)
    assert planar._reduced_lattice(p) is lattice
    for coords in lattice[:2]:
        with pytest.raises(ValueError):
            coords[0] = 1
    bisector_weight_map(p)
    squared_distance_set(p)
    isosceles_count(p)
    assert all(a is b for a, b in zip(planar._reduced_lattice(p), lattice))


def test_membership_looks_up_the_cleared_rows():
    # L = 6; every query is also asked of the plain set of points
    p = PlanarPointSet([(0, 0), (1, Fraction(1, 2)), (Fraction(-2, 3), 4), (10**25, -(10**25)),
                        (2**70, 3)])
    assert p.scaled_int_coords()[2] == 6
    members = set(p.points)
    queries = [
        (0, 0), (1, Fraction(1, 2)), (Fraction(-2, 3), 4), (10**25, -(10**25)),
        (Fraction(2, 2), Fraction(3, 6)), (np.int64(0), np.int64(0)), (0.0, 0.0), (1.0, 0.5),
        (float(2**70), 3.0),
        (1e25, -1e25),  # the float nearest 10^25 is another integer
        (0, 1), (4, Fraction(-2, 3)), (10**25, 10**25), (10**25 + 1, -(10**25)),
        (Fraction(1, 4), 0),  # 4 does not divide L
        (Fraction(1, 3), 0),  # 1/3 * L = 2 is an integer, but no row has it
        (0.1, 0), (float("nan"), 0), (float("inf"), 0),
        (0,), (0, 0, 0),
    ]
    for q in queries:
        assert (q in p) == (q in members), q
    assert all(q in p for q in queries[:9])
    assert not any(q in p for q in queries[9:])
    assert (0, 0) not in PlanarPointSet([])


# The distance set runs on the reduced lattice: a scaled and translated copy
# of 144 random points in +-10^6 sorts the int64 distances of those points
# themselves, in one sort since 144^2 values fit one block, and only the
# distinct values are scaled back.  Their span, near 8 * 10^12, keeps them
# on the sort route.
def scaled_copy(points, scale, shift):
    return PlanarPointSet([(x * scale + shift, y * scale - shift) for x, y in points])


@pytest.mark.parametrize("scale, shift", [(10**25, 0), (Fraction(1, 7), Fraction(2, 3))],
                         ids=["1e25", "sevenths"])
def test_scaled_grids_sort_the_grids_own_distances(monkeypatch, scale, shift):
    base = random_point_set(random.Random(12), 144, bound=10**6)
    p = scaled_copy(base.points, scale, shift)
    assert p.scaled_int_coords()[0].dtype == (object if scale == 10**25 else np.int64)
    want = {z: squared_distance_set(base, z).squared.elements for z in (True, False)}
    seen = sorted_dtypes(monkeypatch)
    for include_zero in (True, False):
        got = squared_distance_set(p, include_zero).squared.elements
        assert got == tuple(as_scalar(v * scale * scale) for v in want[include_zero])
    assert [dtype for dtype, _ in seen] == [np.int64] * 2


# grid(12)'s distances span 242 over the 144^2 values of its one block, so
# its scaled copies take the mask route on the grid's own int64 distances:
# nothing is sorted, and the mask spans the grid's reach alone.
@pytest.mark.parametrize("scale, shift", [(10**25, 0), (Fraction(1, 7), Fraction(2, 3))],
                         ids=["1e25", "sevenths"])
def test_scaled_grids_scatter_the_grids_own_distances(monkeypatch, scale, shift):
    grid = generate_family(FamilySpec(kind="grid", n=12))
    p = scaled_copy(grid.points, scale, shift)
    want = {z: squared_distance_set(grid, z).squared.elements for z in (True, False)}
    seen = sorted_dtypes(monkeypatch)
    spans = []
    real = scalar_sets._mask_values

    def spy(sizes, dtype, write, lo, hi):
        spans.append((np.dtype(dtype), sum(sizes), lo, hi))
        return real(sizes, dtype, write, lo, hi)
    monkeypatch.setattr(scalar_sets, "_mask_values", spy)
    for include_zero in (True, False):
        got = squared_distance_set(p, include_zero).squared.elements
        assert got == tuple(as_scalar(v * scale * scale) for v in want[include_zero])
    assert spans == [(np.dtype(np.int64), 144**2, 0, 242)] * 2
    assert seen == []


# d(P) and the weight map cut each row_blocks block of rows [r0, r1) to the
# columns [r0, n): each pair i < j falls in exactly one such rectangle, the
# blocks are clipped to range(n), and a block of more than one row holds at
# most _CACHE_BLOCK pair values of full rows.  Both kernels agree with their
# per-pair oracles at each block size, on points with repeated distances
# and lines.
@pytest.mark.parametrize("n, block", [(1, 40), (12, 144), (30, 40), (30, 7), (100, 1 << 16)])
def test_upper_blocks_cover_each_pair_once(monkeypatch, n, block):
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", block)
    blocks = list(scalar_sets.row_blocks(n, n))
    cover = Counter((i, j) for rows in blocks for i in range(rows.start, rows.stop)
                    for j in range(rows.start, n) if i < j)
    assert cover == Counter((i, j) for i in range(n) for j in range(i + 1, n))
    assert [rows.start for rows in blocks] == [0] + [rows.stop for rows in blocks[:-1]]
    assert blocks[-1].stop == n
    assert all((rows.stop - rows.start) * n <= block or rows.stop - rows.start == 1 for rows in blocks)
    assert len(blocks) == 1 or n * n > block
    rng = random.Random(n)
    p = PlanarPointSet(rng.sample([(x, y) for x in range(12) for y in range(12)], n))
    pts = p.points
    want = sorted({(a - c) ** 2 + (b - d) ** 2 for a, b in pts for c, d in pts})
    assert list(squared_distance_set(p).squared.elements) == want
    if n >= 2:
        assert dict(bisector_weight_map(p).items()) == per_pair_weights(p)


# With blocks of 40 values and _CHUNK at 100, 30 points take 30 one-row
# rectangles of 30 down to 1 values.
# Points of a 6 x 6 grid, stretched by 10 along x so that their 465 written
# pairs span 2525 and take the sort route, repeat their few distances, so
# the buffer is deduplicated on the way and never grows; random points in
# [0, 10^7] x [0, 10^6] have distinct distances, which fill the buffer, so it
# grows.
def random_points(span, count, stretch=1):
    rng = random.Random(span)
    pts = set()
    while len(pts) < count:
        pts.add((rng.randint(0, span) * stretch, rng.randint(0, span)))
    return PlanarPointSet(pts)


@pytest.mark.parametrize("span, grows", [(5, False), (10**6, True)])
def test_distance_buffer_dedups_and_grows(monkeypatch, span, grows):
    p = random_points(span, 30, stretch=10)
    monkeypatch.setattr(scalar_sets, "_CHUNK", 100)
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", 40)
    seen = sorted_dtypes(monkeypatch)
    got = squared_distance_set(p).squared.elements
    pts = p.points
    assert got == tuple(sorted({(a - c) ** 2 + (b - d) ** 2 for a, b in pts for c, d in pts}))
    assert len(seen) > 2
    assert (max(size for _, size in seen) > 100) == grows


# The unstretched grid's distances span 50 over the same 465 pairs: they
# take the mask route, sort nothing and match the per-pair oracle; 30 random
# points in [0, 10^6]^2 still sort.
@pytest.mark.parametrize("span, route", [(5, "mask"), (10**6, "sort")])
def test_distances_take_the_mask_within_the_crossover(monkeypatch, span, route):
    p = random_points(span, 30)
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", 40)
    seen = sorted_dtypes(monkeypatch)
    got = squared_distance_set(p).squared.elements
    pts = p.points
    assert got == tuple(sorted({(a - c) ** 2 + (b - d) ** 2 for a, b in pts for c, d in pts}))
    assert (seen != []) == (route == "sort")
