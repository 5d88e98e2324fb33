import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import per_pair_weights, rows_dtype
from distsym import bisectors, planar, scalar_sets
from distsym.bisectors import (
    Line,
    _row_key,
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
from distsym.scalar_sets import _I64_LIMIT

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


def fraction_reflection(line, p):
    """Reference reflection in Fraction arithmetic: p - 2 t (a, b) with
    t = (a x + b y + c) / (a^2 + b^2), each coordinate made canonical."""
    x, y = p
    a, b, c = line
    t = Fraction(a * x + b * y + c, a * a + b * b)
    return (scalar_sets.as_scalar(x - 2 * a * t), scalar_sets.as_scalar(y - 2 * b * t))


def assert_reflects_like_the_reference(line, u):
    r = reflect_point(line, u)
    want = fraction_reflection(line, u)
    assert r == want
    # an integral image comes back as an int, any other as a Fraction
    assert [type(v) for v in r] == [int if v.denominator == 1 else Fraction for v in want]
    assert reflect_point(line, r) == u
    return r


def random_fraction(rng, bound, max_den):
    return scalar_sets.as_scalar(Fraction(rng.randint(-bound, bound), rng.randint(1, max_den)))


def test_reflection_of_integer_points_matches_the_fraction_reference():
    rng = random.Random(31)
    for _ in range(300):
        p, q, u = ((rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(3))
        if p == q:
            continue
        line = perpendicular_bisector(p, q)
        assert assert_reflects_like_the_reference(line, p) == q
        assert_reflects_like_the_reference(line, u)


def test_reflection_of_rational_points_matches_the_fraction_reference():
    rng = random.Random(32)
    for _ in range(300):
        p, q, u = ((random_fraction(rng, 200, 30), random_fraction(rng, 200, 30))
                   for _ in range(3))
        if p == q:
            continue
        line = perpendicular_bisector(p, q)
        assert assert_reflects_like_the_reference(line, p) == q
        assert_reflects_like_the_reference(line, u)


@pytest.mark.parametrize("scale", [10**25, 2**63 + 1, -(10**25) - 7])
def test_reflection_of_huge_points_matches_the_fraction_reference(scale):
    rng = random.Random(scale)
    for _ in range(100):
        p, q, u = ((scale + rng.randint(-9, 9), scale * rng.choice([1, -1]) + rng.randint(-9, 9))
                   for _ in range(3))
        u = (u[0], u[1] + random_fraction(rng, 5, 30))
        if p == q:
            continue
        line = perpendicular_bisector(p, q)
        assert assert_reflects_like_the_reference(line, p) == q
        assert_reflects_like_the_reference(line, u)


def test_points_on_the_axis_come_back_unchanged():
    rng = random.Random(33)
    for _ in range(200):
        p, q = ((random_fraction(rng, 50, 12), random_fraction(rng, 50, 12)) for _ in range(2))
        if p == q:
            continue
        line = perpendicular_bisector(p, q)
        # the midpoint of p, q plus a rational step along the axis (-b, a)
        k = random_fraction(rng, 20, 30)
        on = tuple(scalar_sets.as_scalar(Fraction(s + t, 2) + k * d)
                   for s, t, d in zip(p, q, (-line.b, line.a)))
        assert point_on_line(line, on)
        assert assert_reflects_like_the_reference(line, on) == on


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
    # object coordinates, int64 lines: every bisector is horizontal near y = 0
    column = PlanarPointSet([(10**25, y) for y in range(-20, 21)])
    for p, dtype in ((integer, np.int64), (rational, np.int64), (huge, object), (column, np.int64)):
        wm = bisector_weight_map(p)
        weights = per_pair_weights(p)
        assert wm.line_arrays()[0].dtype == dtype == rows_dtype(weights)
        assert dict(wm.items()) == weights
    assert column.scaled_int_coords()[0].dtype == object


def random_int_points(rng, n, span):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(-span, span), rng.randint(-span, span)))
    return PlanarPointSet(pts)


def huge_points(rng, n):
    return PlanarPointSet({(10**25 * rng.randint(-3, 3) + rng.randint(-9, 9), rng.randint(-9, 9))
                           for _ in range(n)})


def scaled_grid_sample(seed, scale, shift):
    """13 points of the 5 x 5 grid, scaled and shifted: a similarity, so many
    lines stay heavier than one pair."""
    grid = random.Random(seed).sample([(x, y) for x in range(5) for y in range(5)], 13)
    return PlanarPointSet([(x * scale + shift, y * scale - shift) for x, y in grid])


def least_heaviest(p):
    """The lex-least line of maximum weight, from the per-pair oracle."""
    weights = per_pair_weights(p)
    top = max(weights.values())
    return min(line for line, w in weights.items() if w == top), top


KEYED_SETS = {
    "integer": scaled_grid_sample(5, 3, 1),
    "rational": scaled_grid_sample(6, Fraction(2, 3), Fraction(1, 7)),
    "huge": scaled_grid_sample(7, 10**25, 1),
}


def split_key(a, b, c, key=_row_key):
    """Rows of even a collide in two runs, keys 0 and 2^63; rows of odd a
    keep distinct keys, which sort between those two runs."""
    k = key(a, b, c)
    return np.where(a % 2 == 0, (k & np.uint64(1)) << np.uint64(63), (k >> np.uint64(2)) | np.uint64(1))


# A constant key puts every row in one key run and a 1-bit key in two, so
# nearly every run collides; lines must still come out whole, also when
# clean runs sit between the collided ones.  The weight map clears the low
# bits of the key to pack the row index into them, so the 1-bit key keeps
# bit 63.  _CACHE_BLOCK = 40 makes the 13 points' rows come from blocks of
# 3, 3, 3, 3 and 1 rows, and a spy on row_blocks sees the map take them.
@pytest.mark.parametrize("name", sorted(KEYED_SETS))
@pytest.mark.parametrize("weak_key", [
    lambda a, b, c: np.zeros(len(a), dtype=np.uint64),
    lambda a, b, c, key=_row_key: key(a, b, c) & np.uint64(1 << 63),
    split_key,
], ids=["constant", "one_bit", "split"])
def test_weight_map_survives_key_collisions(monkeypatch, name, weak_key):
    p = KEYED_SETS[name]
    heaviest = heaviest_bisector(bisector_weight_map(p))
    monkeypatch.setattr(scalar_sets, "_CACHE_BLOCK", 40)
    monkeypatch.setattr(bisectors, "_row_key", weak_key)
    blocks = []
    real = bisectors.row_blocks

    def spy(n_rows, width):
        blocks.extend(real(n_rows, width))
        return iter(blocks)
    monkeypatch.setattr(bisectors, "row_blocks", spy)
    wm = bisector_weight_map(p)
    assert [rows.stop - rows.start for rows in blocks] == [3, 3, 3, 3, 1]
    assert wm.max_weight > 2
    assert dict(wm.items()) == per_pair_weights(p)
    assert heaviest_bisector(wm) == heaviest == least_heaviest(p)


def gathered_rows(monkeypatch):
    """Rows that each weight map call gathers through the sorted key order:
    those _line_starts groups, the rows of repeated keys."""
    seen = []
    real = bisectors._line_starts

    def spy(key, *cols):
        seen.append(len(key))
        return real(key, *cols)
    monkeypatch.setattr(bisectors, "_line_starts", spy)
    return seen


def pair_run_key(a, b, c, key=_row_key):
    """The real key, but the first two rows in pair order share one: two
    different triples in a key run of 2."""
    k = key(a, b, c)
    k[1] = k[0]
    return k


# A constant key leaves no key lone, so every row is gathered and grouped;
# a run of 2 holding two different triples must still give two lines of
# weight 2.  On random points every line weighs 2, so with the real key
# every row is lone and none is gathered.
@pytest.mark.parametrize("weak_key, gathered", [
    (lambda a, b, c: np.zeros(len(a), dtype=np.uint64), 780),
    (pair_run_key, 2),
], ids=["constant", "pair_run"])
def test_lone_keys_under_weak_keys(monkeypatch, weak_key, gathered):
    p = random_int_points(random.Random(8), 40, 10**6)
    weights = per_pair_weights(p)
    assert set(weights.values()) == {2}
    monkeypatch.setattr(bisectors, "_row_key", weak_key)
    seen = gathered_rows(monkeypatch)
    wm = bisector_weight_map(p)
    assert sum(seen) == gathered
    assert dict(wm.items()) == weights


def test_collided_runs_are_sorted_within_their_own_runs():
    # lex-sorting the union of both collided runs would put A A B | D | B C E
    # and split line B across the clean run between them
    a_, b_, c_, d_, e_ = ((v, 0, -v) for v in range(1, 6))
    rows = [a_, e_, a_, d_, b_, c_, b_]
    key = np.array([0, 0, 0, 5, 7, 7, 7], dtype=np.uint64)
    a, b, c = (np.array(col, dtype=np.int64) for col in zip(*rows))
    starts = bisectors._line_starts(key, a, b, c)
    counts = np.diff(np.append(starts, len(a)))
    found = [((int(a[s]), int(b[s]), int(c[s])), int(n)) for s, n in zip(starts, counts)]
    assert sorted(found) == sorted(Counter(rows).items())


@pytest.mark.parametrize("p", [
    random_int_points(random.Random(8), 40, 10**6),
    generate_family(FamilySpec(kind="grid", n=5)),
    generate_family(FamilySpec(kind="grid", n=6)),
    random_rational_point_set(random.Random(9), 30),
    huge_points(random.Random(10), 20),
], ids=["all_weights_2", "grid5", "grid6", "rational", "huge"])
def test_heaviest_bisector_is_the_least_line_of_maximum_weight(p):
    assert heaviest_bisector(bisector_weight_map(p)) == least_heaviest(p)


def test_random_points_tie_every_line():
    p = random_int_points(random.Random(8), 40, 10**6)
    assert set(per_pair_weights(p).values()) == {2}


# The packed sort carries the row index in the low (m - 1).bit_length() bits
# of the key, m = N(N - 1)/2: none at N = 2, 2 at N = 3, 8 at N = 23 and 9 at
# N = 24.
@pytest.mark.parametrize("n", [2, 3, 23, 24])
@pytest.mark.parametrize("scale", [1, 10**25], ids=["int64", "object"])
def test_weight_map_across_packed_index_widths(n, scale):
    base = random_int_points(random.Random(n), n, 6)
    p = PlanarPointSet([(x * scale, y * scale + 1) for x, y in base.points])
    wm = bisector_weight_map(p)
    weights = per_pair_weights(p)
    assert wm.line_arrays()[0].dtype == (np.int64 if scale == 1 else object) == rows_dtype(weights)
    assert dict(wm.items()) == weights


# A key seen once is a line of weight 2, left where the kernel wrote it; only
# the rows of repeated keys are gathered through the key order.  The inputs
# span the lone share: random points (every row lone), the cartesian square
# of geometric(10) (4,005 of 4,950), grid(8) (656 of 2,016), grid(3), and
# grid(12) scaled by 10^25, whose lines are object rows.
@pytest.mark.parametrize("p, lone", [
    (random_int_points(random.Random(8), 40, 10**6), 780),
    (generate_family(FamilySpec(kind="cartesian_of", base=FamilySpec(kind="geometric", n=10))), 4005),
    (generate_family(FamilySpec(kind="grid", n=8)), 656),
    (generate_family(FamilySpec(kind="grid", n=3)), 12),
    (PlanarPointSet([(x * 10**25, y * 10**25)
                     for x, y in generate_family(FamilySpec(kind="grid", n=12)).points]), 3284),
], ids=["random", "geometric10_square", "grid8", "grid3", "grid12_object"])
def test_lone_keys_across_the_lone_share(monkeypatch, p, lone):
    n = len(p)
    weights = per_pair_weights(p)
    assert sum(w == 2 for w in weights.values()) == lone
    seen = gathered_rows(monkeypatch)
    wm = bisector_weight_map(p)
    assert sum(seen) == n * (n - 1) // 2 - lone
    assert dict(wm.items()) == weights
    assert wm.line_arrays()[0].dtype == rows_dtype(weights)


def test_random_points_gather_almost_no_rows(monkeypatch):
    # the rows of a set with few repeated distances stay where they were
    # written: under 1% of the pairs go through the sorted order
    p = random_int_points(random.Random(3), 300, 10**6)
    seen = gathered_rows(monkeypatch)
    bisector_weight_map(p)
    assert sum(seen) < 0.01 * 300 * 299 // 2


def reduced_rows(p):
    """Every pair's raw row from _pair_bisectors on p's reduced lattice, in
    row-major pair order, as the weight map forms them, with the frame."""
    xs, ys, reach, g, x0, y0 = planar._reduced_lattice(p)
    n = len(p)
    cols = [np.empty(n * (n - 1) // 2, dtype=xs.dtype) for _ in range(3)]
    narrow = (xs.astype(np.int32), ys.astype(np.int32)) if xs.dtype == np.int64 else (xs, ys)
    written = bisectors._pair_bisectors(*narrow, xs * xs + ys * ys, slice(0, n), *cols)
    assert written == len(cols[0])
    return np.array(cols), list(zip(xs.tolist(), ys.tolist())), (reach, g, x0, y0)


def pair_bisectors(pts):
    return [perpendicular_bisector(u, v) for i, u in enumerate(pts) for v in pts[i + 1:]]


# The points are sorted by (x, y), and so are their reduced copies: the pairs
# i < j have dx >= 0, and dy > 0 where dx = 0, so the kernel's raw rows, in
# row-major pair order, are the canonical bisectors of the reduced points,
# with no sign to normalise, and _to_cleared maps them to p's own.  The set
# has vertical pairs and slopes of both signs; its reduced lattice is int64,
# that of the points cleared by L = 6 too, and object where x alone is
# scaled by 10^25, so that no similarity reduces it.
@pytest.mark.parametrize("sx, sy", [(1, 1), (Fraction(1, 6), Fraction(1, 6)), (10**25, 1)],
                         ids=["int64", "L6", "object"])
def test_raw_pair_rows_are_canonical(sx, sy):
    base = [(0, 0), (0, 3), (0, -2), (2, 1), (2, -5), (-3, 4), (5, 5), (4, -1), (-3, -7)]
    p = PlanarPointSet([(x * sx, y * sy + 1) for x, y in base])
    rows, reduced, frame = reduced_rows(p)
    assert rows.dtype == (object if sx == 10**25 else np.int64)
    assert [Line(*row) for row in rows.T.tolist()] == pair_bisectors(reduced)
    assert all(a > 0 or (a == 0 and b > 0) for a, b, _ in rows.T.tolist())
    lines = bisectors._to_cleared(rows, p.scaled_int_coords()[2], *frame)
    assert [Line(*row) for row in lines.T.tolist()] == pair_bisectors(p.points)


def kernel_dtypes(monkeypatch):
    """(difference, column) dtypes of every _pair_bisectors call."""
    seen = []
    real = bisectors._pair_bisectors

    def spy(xs, *args):
        seen.append((xs.dtype, args[-1].dtype))
        return real(xs, *args)
    monkeypatch.setattr(bisectors, "_pair_bisectors", spy)
    return seen


def box(w, h):
    """Points spanning a w x h box, with vertical pairs and both slopes."""
    return [(0, 0), (0, h), (w, 0), (w, h), (w, 1), (1, h), (1, 0), (5, 3), (w - 6, h),
            (3, h - 4), (w - 1, 1)]


# The reduced columns are int64 while the reach W^2 + H^2 of the reduced box
# is below 2^62, which keeps W and H, and so every difference, below 2^31:
# the gcd runs on int32, with rows of |a| past 2^31, which int32 would wrap.
# The largest reach below 2^62 is 2^62 - 44 here; 2^62 is a segment of
# width 2^31, and 2^62 + 1 a box of 2^31 by 1.  Every set sits far from the
# origin, so its cleared coordinates are object.
@pytest.mark.parametrize("base, reach, dtypes", [
    (box(2147483524, 729778), (1 << 62) - 44, (np.int32, np.int64)),
    ([(0, 0), (1, 0), (5, 0), ((1 << 31) - 6, 0), ((1 << 31) - 1, 0), (1 << 31, 0)], 1 << 62,
     (object, object)),
    ([(0, 0), (0, 1), (1, 0), (5, 1), (7, 0), ((1 << 31) - 6, 1), ((1 << 31) - 1, 0), (1 << 31, 0),
      (1 << 31, 1)], (1 << 62) + 1, (object, object)),
], ids=["2^62-44", "2^62", "2^62+1"])
def test_pair_kernel_at_the_int32_guard(monkeypatch, base, reach, dtypes):
    shift = 10**20
    p = PlanarPointSet([(x - shift, y + shift) for x, y in base])
    assert planar._reduced_lattice(p)[2] == reach
    assert p.scaled_int_coords()[0].dtype == object
    seen = kernel_dtypes(monkeypatch)
    wm = bisector_weight_map(p)
    assert seen == [dtypes]
    assert wm.line_arrays()[0].dtype == object
    assert dtypes[0] is object or max(abs(line.a) for line, _ in wm.items()) > 1 << 31
    assert dict(wm.items()) == per_pair_weights(p)


# A reduced row maps back to (a' L, b' L, g c' - a' x0 - b' y0) over its gcd
# h, which divides L g.  Over points k / L whose cleared coordinates are all
# odd, g = 2, and h takes every divisor of 2L: 1 and 2 at L = 1, every
# divisor of 24 at L = 12; the kernel still runs on int32 differences.
@pytest.mark.parametrize("den", [1, 12])
def test_map_back_divides_by_every_divisor_of_L_times_g(monkeypatch, den):
    rng = random.Random(den)
    pts = {(Fraction(1, den), Fraction(1, den))}
    while len(pts) < 40:
        pts.add((Fraction(2 * rng.randint(-30, 30) + 1, den), Fraction(2 * rng.randint(-30, 30) + 1, den)))
    p = PlanarPointSet(pts)
    rows, _, (reach, g, x0, y0) = reduced_rows(p)
    assert (p.scaled_int_coords()[2], g) == (den, 2)
    hs = {math.gcd(a * den, b * den, g * c - a * x0 - b * y0) for a, b, c in rows.T.tolist()}
    assert hs == {h for h in range(1, 2 * den + 1) if 2 * den % h == 0}
    lines = bisectors._to_cleared(rows, den, reach, g, x0, y0)
    assert lines.dtype == np.int64
    assert [Line(*row) for row in lines.T.tolist()] == pair_bisectors(p.points)
    seen = kernel_dtypes(monkeypatch)
    assert dict(bisector_weight_map(p).items()) == per_pair_weights(p)
    assert seen == [(np.int32, np.int64)]


# A scaled and translated copy of grid(12) reduces to grid(12) itself, so its
# pairs run on int32 differences and int64 rows, not on Python ints.  Its
# lines are object only because c passes int64: a and b are those of grid(12).
@pytest.mark.parametrize("shift", [(0, 0), (10**30, -(10**30))], ids=["scaled", "translated"])
def test_scaled_lattice_keeps_the_int64_kernel(monkeypatch, shift):
    grid = generate_family(FamilySpec(kind="grid", n=12))
    p = PlanarPointSet([(x * 10**25 + shift[0], y * 10**25 + shift[1]) for x, y in grid.points])
    assert p.scaled_int_coords()[0].dtype == object
    seen = kernel_dtypes(monkeypatch)
    wmap = bisector_weight_map(p)
    assert seen == [(np.int32, np.int64)]
    assert dict(wmap.items()) == per_pair_weights(p)
    lines, _ = wmap.line_arrays()
    assert lines.dtype == object
    assert max(abs(v) for v in lines[:, :2].ravel().tolist()) < _I64_LIMIT
    assert max(abs(v) for v in lines[:, 2].tolist()) >= _I64_LIMIT


@pytest.mark.parametrize("n", [300, 1000])
def test_weight_map_peak_stays_within_twice_the_finished_map(n):
    # random points tie nearly every line, so the map holds about one row per pair
    p = random_int_points(random.Random(3), n, 10**6)
    tracemalloc.start()
    try:
        wmap = bisector_weight_map(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines, weights = wmap.line_arrays()
    assert peak <= 2 * (lines.nbytes + weights.nbytes)


def test_lattice_weight_map_peak_stays_within_the_gathering_maps():
    # grid(40) repeats most keys, so most rows are gathered; 61.1 MiB is the
    # traced peak of the map that gathered every row through the key order,
    # for a finished map of 17.6 MiB.  Its 577,436 lines fill under half of
    # the 1,279,200 rows' block, so the map holds a copy of them, not the block
    p = generate_family(FamilySpec(kind="grid", n=40))
    tracemalloc.start()
    try:
        wmap = bisector_weight_map(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines, weights = wmap.line_arrays()
    assert lines.nbytes + weights.nbytes == 18477952
    assert peak <= 61.1 * 2**20
    assert held <= 18477952 + 2**20


def test_row_key_is_the_same_for_int64_and_object_rows():
    edges = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63), 12345, -98765]
    rows = np.array([(x, y, z) for x in edges for y in edges[:4] for z in edges[::2]], dtype=np.int64)
    a, b, c = rows.T.copy()
    obj = [v.astype(object) for v in (a, b, c)]
    key = _row_key(a, b, c)
    assert key.dtype == np.uint64
    assert np.array_equal(key, _row_key(*obj))
    assert np.array_equal(_row_key(*obj), _row_key(*[v + 2**64 for v in obj]))


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
    assert sub.mirror == sub.subset
    members = set(p.points)
    for s in sub.subset.points:
        assert s in members
        assert reflect_point(sub.axis, s) in members


def test_foreign_weight_map_rejected():
    other = PlanarPointSet([(0, 0), (5, 5), (9, 1)])
    wm = bisector_weight_map(other)
    with pytest.raises(MismatchedInputsError):
        extract_symmetric_subset(TRIANGLE, weight_map=wm)


def oracle_subset(p, axis, include_fixed_points):
    """{s : R(s) in P, R(s) != s}, plus the fixed points on request, with R
    the point-by-point reflection of reflect_point, which shares no helper
    with the row lookup of _mirror_indices."""
    members = set(p.points)
    return tuple(s for s in p.points
                 if (r := reflect_point(axis, s)) in members and (r != s or include_fixed_points))


MIRROR_SETS = {
    "integer": random_int_points(random.Random(21), 40, 12),
    "rational": random_rational_point_set(random.Random(22), 30),
    "rational_grid": scaled_grid_sample(22, Fraction(2, 3), Fraction(1, 7)),
    "huge": huge_points(random.Random(23), 30),
    "huge_grid": scaled_grid_sample(23, 10**25, 1),
    "grid6": generate_family(FamilySpec(kind="grid", n=6)),
    "cartesian_geometric": generate_family(
        FamilySpec(kind="cartesian_of", base=FamilySpec(kind="geometric", n=7, start=1))),
    # heaviest about x = y, with three points on it and a lattice point
    # (6, 1) whose image is missing
    "with_fixed_points": PlanarPointSet(
        [(0, 0), (2, 2), (Fraction(1, 2), Fraction(1, 2)), (1, 3), (3, 1), (-2, 5), (5, -2),
         (0, 4), (4, 0), (6, 1)]),
}


@pytest.mark.parametrize("name", sorted(MIRROR_SETS))
def test_symmetric_subset_matches_the_fraction_oracle(name):
    p = MIRROR_SETS[name]
    wmap = bisector_weight_map(p)
    for fixed in (False, True):
        sub = extract_symmetric_subset(p, include_fixed_points=fixed, weight_map=wmap)
        assert sub.subset.points == oracle_subset(p, sub.axis, fixed)
        assert sub.mirror == sub.subset
    assert sub.axis == heaviest_bisector(wmap)[0]


def test_mirror_sets_cover_every_row_kind():
    assert MIRROR_SETS["rational"].scaled_int_coords()[2] != 1
    assert MIRROR_SETS["rational_grid"].scaled_int_coords()[2] != 1
    assert MIRROR_SETS["huge_grid"].scaled_int_coords()[0].dtype == object
    p = MIRROR_SETS["with_fixed_points"]
    bare = extract_symmetric_subset(p)
    padded = extract_symmetric_subset(p, include_fixed_points=True)
    assert bare.axis == Line(1, -1, 0)
    assert len(bare.subset) == 6 and len(padded.subset) == 9


@pytest.mark.parametrize("name", sorted(MIRROR_SETS))
def test_mirror_indices_match_the_fraction_oracle_on_every_bisector(name):
    p = MIRROR_SETS[name]
    index = {s: i for i, s in enumerate(p.points)}
    for line, _ in bisector_weight_map(p).items():
        want = [index.get(reflect_point(line, s), -1) for s in p.points]
        assert bisectors._mirror_indices(p, line) == want


def test_mirror_indices_off_the_lattice_and_outside_the_set():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    # x + 2y = 0: n = 5 does not divide 2as for (1, 0), so its image
    # (3/5, -4/5) is no cleared row
    assert reflect_point(Line(1, 2, 0), (1, 0)) == (Fraction(3, 5), Fraction(-4, 5))
    assert bisectors._mirror_indices(g3, Line(1, 2, 0))[g3.points.index((1, 0))] == -1
    # x = 3 sends (0, 0) to the lattice point (6, 0), which is not in the grid
    assert reflect_point(Line(1, 0, -3), (0, 0)) == (6, 0)
    assert bisectors._mirror_indices(g3, Line(1, 0, -3)) == [-1] * 9
    # x = 1 fixes the middle column and swaps the outer two
    assert bisectors._mirror_indices(g3, Line(1, 0, -1)) == [6, 7, 8, 3, 4, 5, 0, 1, 2]


def test_symmetric_subset_checks_the_axis_weight(monkeypatch):
    p = MIRROR_SETS["grid6"]
    axis, w = heaviest_bisector(bisector_weight_map(p))
    monkeypatch.setattr(bisectors, "heaviest_bisector", lambda wmap: (axis, w + 2))
    with pytest.raises(RuntimeError, match="weight"):
        extract_symmetric_subset(p)


def test_symmetric_subset_checks_the_involution(monkeypatch):
    p = MIRROR_SETS["grid6"]
    real = bisectors._mirror_indices

    def broken(p, axis):
        # send one paired point to a third point: same count, no involution
        mirror = real(p, axis)
        paired = [i for i, j in enumerate(mirror) if j >= 0 and j != i]
        i = paired[0]
        mirror[i] = next(j for j in paired if j not in (i, mirror[i]))
        return mirror

    monkeypatch.setattr(bisectors, "_mirror_indices", broken)
    with pytest.raises(RuntimeError, match="involution"):
        extract_symmetric_subset(p)
