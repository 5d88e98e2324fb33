import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_pair_weights
from distsym.bisectors import (
    Line,
    bisector_weight_map,
    canonical_line,
    extract_symmetric_subset,
    heaviest_bisector,
    perpendicular_bisector,
    point_on_line,
    reflect_point,
)
from distsym.errors import DegeneratePairError, MismatchedInputsError
from distsym.families import FamilySpec, generate_family, random_rational_point_set
from distsym.planar import PlanarPointSet

coords = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.fractions(min_value=-30, max_value=30, max_denominator=6),
)
points = st.tuples(coords, coords)

TRIANGLE = PlanarPointSet([(0, 0), (1, 0), (0, 1)])


def test_canonical_bisector_worked_examples():
    assert perpendicular_bisector((0, 0), (1, 0)) == Line(2, 0, -1)
    assert perpendicular_bisector((0, 0), (0, 1)) == Line(0, 2, -1)
    assert perpendicular_bisector((1, 0), (0, 1)) == Line(1, -1, 0)


def test_bisector_order_independent():
    assert perpendicular_bisector((0, 0), (1, 0)) == perpendicular_bisector((1, 0), (0, 0))


def test_degenerate_pair_raises():
    with pytest.raises(DegeneratePairError):
        perpendicular_bisector((2, 3), (2, 3))


def test_canonical_line_normalisation():
    assert canonical_line(Fraction(1, 2), 0, Fraction(-1, 4)) == Line(2, 0, -1)
    assert canonical_line(-2, 0, 1) == Line(2, 0, -1)
    assert canonical_line(0, -6, 3) == Line(0, 2, -1)
    with pytest.raises(ValueError):
        canonical_line(0, 0, 5)


@given(points, points, st.fractions(min_value=-20, max_value=20, max_denominator=9))
def test_canonical_line_rescaling_invariance(p, q, lam):
    if p == q or lam == 0:
        return
    line = perpendicular_bisector(p, q)
    assert canonical_line(lam * line.a, lam * line.b, lam * line.c) == line


@given(points, points)
def test_bisector_swaps_defining_pair(p, q):
    if p == q:
        return
    line = perpendicular_bisector(p, q)
    assert reflect_point(line, p) == q
    assert reflect_point(line, q) == p


@given(points, points, points, points)
def test_reflection_is_an_isometric_involution(p, q, u, v):
    if p == q:
        return
    line = perpendicular_bisector(p, q)
    ru, rv = reflect_point(line, u), reflect_point(line, v)
    assert reflect_point(line, ru) == u
    du = (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2
    dr = (ru[0] - rv[0]) ** 2 + (ru[1] - rv[1]) ** 2
    assert du == dr


def test_fixed_points_lie_on_the_axis():
    line = perpendicular_bisector((0, 0), (2, 0))
    assert point_on_line(line, (1, 5))
    assert reflect_point(line, (1, 5)) == (1, 5)
    assert not point_on_line(line, (0, 0))


def test_triangle_weight_map():
    wm = bisector_weight_map(TRIANGLE)
    assert wm.n_points == 3
    assert wm.distinct_lines == 3
    assert wm.total_weight == 6
    assert wm.max_weight == 2
    assert dict(wm.items()) == {
        Line(2, 0, -1): 2,
        Line(0, 2, -1): 2,
        Line(1, -1, 0): 2,
    }


def test_heaviest_bisector_tie_break_is_lexicographic():
    line, w = heaviest_bisector(bisector_weight_map(TRIANGLE))
    assert (line, w) == (Line(0, 2, -1), 2)


def test_grid3_weight_map():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    wm = bisector_weight_map(g3)
    assert wm.total_weight == 72
    assert wm.max_weight == 6
    heavy = sorted(l for l, w in wm.items() if w == 6)
    # both diagonals, the two centre lines, and the four adjacent row/column swaps
    assert heavy == sorted(
        [
            Line(1, 0, -1),
            Line(0, 1, -1),
            Line(1, -1, 0),
            Line(1, 1, -2),
            Line(2, 0, -1),
            Line(2, 0, -3),
            Line(0, 2, -1),
            Line(0, 2, -3),
        ]
    )


def test_weight_map_total_is_twice_pair_count():
    rng = random.Random(3)
    for _ in range(10):
        p = random_rational_point_set(rng, rng.randint(2, 18))
        wm = bisector_weight_map(p)
        n = len(p)
        assert wm.total_weight == n * (n - 1)


def test_weight_map_matches_per_pair_bisectors():
    rng = random.Random(17)
    pts = set()
    while len(pts) < 120:
        pts.add((rng.randint(-40, 40), rng.randint(-40, 40)))
    integer = PlanarPointSet(pts)
    rational = random_rational_point_set(random.Random(18), 40)
    huge = PlanarPointSet([(10**25, 0), (0, 10**25), (-(10**25), 3), (Fraction(1, 3), 7), (0, 0)])
    for p, dtype in ((integer, np.int64), (rational, np.int64), (huge, object)):
        wm = bisector_weight_map(p)
        assert wm.line_arrays()[0].dtype == dtype
        assert wm.weights() == per_pair_weights(p)


def test_symmetric_subset_on_triangle():
    sub = extract_symmetric_subset(TRIANGLE)
    assert sub.axis == Line(0, 2, -1)
    assert sub.weight == 2
    assert sub.subset.points == ((0, 0), (0, 1))
    assert sub.mirror.points == ((0, 0), (0, 1))


def test_symmetric_subset_fixed_point_convention():
    # (1, 1/2) sits on the heaviest axis, so it only appears when asked for
    p = PlanarPointSet([(0, 0), (0, 1), (1, Fraction(1, 2))])
    bare = extract_symmetric_subset(p)
    assert (1, Fraction(1, 2)) not in bare.subset.points
    padded = extract_symmetric_subset(p, include_fixed_points=True)
    assert (1, Fraction(1, 2)) in padded.subset.points
    assert len(padded.subset) == len(bare.subset) + 1


@settings(max_examples=25, deadline=None)
@given(st.lists(points, min_size=2, max_size=25, unique=True))
def test_symmetric_subset_postconditions(pts):
    p = PlanarPointSet(pts)
    sub = extract_symmetric_subset(p)
    assert len(sub.subset) == sub.weight
    members = set(p.points)
    for s in sub.subset.points:
        assert s in members
        assert reflect_point(sub.axis, s) in members


def test_foreign_weight_map_rejected():
    other = PlanarPointSet([(0, 0), (5, 5), (9, 1)])
    wm = bisector_weight_map(other)
    with pytest.raises(MismatchedInputsError):
        extract_symmetric_subset(TRIANGLE, weight_map=wm)
