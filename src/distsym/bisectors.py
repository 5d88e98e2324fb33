"""Perpendicular bisectors in canonical integer form, the weighted bisector
multiset of a point set, and extraction of its heaviest mirror symmetry.

The bisector of distinct points p, q is the locus |x - p|^2 = |x - q|^2,
which rearranges to the linear equation

    2(qx - px) X + 2(qy - py) Y + (|p|^2 - |q|^2) = 0.

Clearing denominators, dividing by the gcd and forcing the first nonzero of
(a, b) positive makes the triple (a, b, c) a unique key for the line.  The
weight map writes the triples of all pairs i < j of the reduced lattice
(planar._reduced_lattice), an integer copy of the set similar to it, block
by block into one (3, pairs) block allocated once, and sorts one 64-bit key
per row whose low bits carry the row index.  Equal triples share a key, so
a key seen once is a line of weight 2 whose row is already canonical: in a
set with many distinct distances, almost every row, and then no row moves.
Otherwise the lone rows move to the front of the block in pair order, and
the rows of repeated keys behind them in key order, one column at a time;
each run of equal triples among the latter is a line
(scalar_sets.run_starts), and a key run that holds two different triples
is lex-sorted on its own, so the count stays exact however short the key.
The lines are a slice of the block, and only they are mapped back to the
set's own coordinates.

The mirror subset of the heaviest bisector is found on the cleared integer
rows of the point set, by one lookup per point in its row index.  A
reflection is an involution, so that subset is its own mirror.  reflect_point
does the same reflection point by point: it scales each point by its own
denominators, forms the image in Python ints and divides once per
coordinate, so it returns an exact rational image and looks up no row.  It
shares no helper with the mirror search and serves as the independent
oracle in the corpus and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (
    DegeneratePairError,
    MismatchedInputsError,
    TooFewPointsError,
)
from .planar import PlanarPointSet, Point, _reduced_lattice, as_point
from .scalar_sets import as_scalar, clear_denominators, int_dtype, row_blocks, run_starts


class Line(NamedTuple):
    """ax + by + c = 0 with integer a, b, c, gcd(|a|,|b|,|c|) = 1 and the
    first nonzero of (a, b) positive."""

    a: int
    b: int
    c: int


def canonical_line(a, b, c) -> Line:
    """Normalise rational coefficients of a nondegenerate line to the unique
    canonical triple; any rational multiple of the equation yields the same."""
    (ai, bi, ci), _ = clear_denominators((as_scalar(a), as_scalar(b), as_scalar(c)))
    if ai == 0 and bi == 0:
        raise ValueError("degenerate line: a = b = 0")
    g = math.gcd(ai, bi, ci)
    ai, bi, ci = ai // g, bi // g, ci // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi, ci = -ai, -bi, -ci
    return Line(ai, bi, ci)


def perpendicular_bisector(p, q) -> Line:
    """Canonical form of the locus equidistant from two distinct points."""
    p, q = as_point(p), as_point(q)
    if p == q:
        raise DegeneratePairError("coincident points have no bisector")
    px, py = p
    qx, qy = q
    return canonical_line(
        2 * (qx - px),
        2 * (qy - py),
        (px * px + py * py) - (qx * qx + qy * qy),
    )


def reflect_point(line: Line, p) -> Point:
    """Mirror image of p across the line; exact and involutive."""
    # on x = X/L, y = Y/L with L the lcm of p's own denominators, the image
    # is (X n - a s2, Y n - b s2) / (n L) with n = a^2 + b^2 and
    # s2 = 2(aX + bY + cL): Python ints up to one division per coordinate
    x, y = as_point(p)
    a, b, c = line
    L = math.lcm(x.denominator, y.denominator)
    X = x.numerator * (L // x.denominator)
    Y = y.numerator * (L // y.denominator)
    n = a * a + b * b
    s2 = 2 * (a * X + b * Y + c * L)
    return (_ratio_scalar(X * n - a * s2, n * L), _ratio_scalar(Y * n - b * s2, n * L))


def _ratio_scalar(num: int, den: int):
    # the canonical scalar num / den for den > 0: an int when exact
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def point_on_line(line: Line, p) -> bool:
    x, y = p
    return line.a * x + line.b * y + line.c == 0


class WeightedBisectorMap:
    """w(l) = number of ordered pairs of distinct points whose bisector is l.

    Held as read-only coefficient rows (a, b, c) with their weights, in the
    order line_arrays() describes; dict(items()) is the mapping.  Weights
    are even and sum to N^2 - N.
    """

    __slots__ = ("n_points", "source_points", "total_weight", "max_weight",
                 "_lines", "_weights")

    def __init__(self, source_points: Tuple[Point, ...], lines: np.ndarray, weights: np.ndarray):
        self.source_points = source_points
        self.n_points = len(source_points)
        lines.flags.writeable = weights.flags.writeable = False
        self._lines = lines
        self._weights = weights
        self.total_weight = int(weights.sum())
        self.max_weight = int(weights.max())

    @property
    def distinct_lines(self) -> int:
        return len(self._weights)

    def __len__(self):
        return self.distinct_lines

    def items(self) -> Iterator[Tuple[Line, int]]:
        for row, w in zip(self._lines.tolist(), self._weights.tolist()):
            yield Line(*row), w

    def line_arrays(self):
        """(lines, weights): an (n, 3) array of distinct canonical rows and
        their int64 weights, both read-only.  The lines of weight 2 whose key
        no other row shares come first, in the order of their pairs i < j of
        the reduced lattice, then the lines of repeated keys in the order of
        those keys, with the row index packed into their low bits.  That is
        fixed for a given point set, but neither numeric order nor a
        contract, and it moves whenever the key or the reduced lattice does.
        When every line weighs 2, weights is a broadcast 2 and holds no
        memory.  The rows are int64 when they fit int_dtype, else object
        (Python ints)."""
        return self._lines, self._weights


def check_weight_map(p: PlanarPointSet, wmap: WeightedBisectorMap) -> None:
    """Refuse a weight map built from another point set."""
    if wmap.source_points != p.points:
        raise MismatchedInputsError("weight map does not belong to this point set")


_KEY_MULTIPLIERS = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], dtype=np.uint64)


def _row_key(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One uint64 key per row (a, b, c): a linear mix of the entries taken
    mod 2^64, so an integer keys alike in int64 and object rows.  Equal rows
    get equal keys; different rows may collide."""
    key = np.zeros(len(a), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for col, mult in zip((a, b, c), _KEY_MULTIPLIERS):
            if col.dtype == object:
                col = (col % (1 << 64)).astype(np.uint64)
            key += col.view(np.uint64) * mult
    return key


def _line_starts(key: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Starts of the runs of equal triples in rows sorted by key.  Equal
    triples share a key, so only a key run holding two different triples (a
    collision) can split a line; the rows of those runs alone are lex-sorted
    in place, within their runs, before the runs are read."""
    starts = run_starts(a, b, c)
    # a collision shows as a new triple with its predecessor's key
    collided = np.zeros(len(key), dtype=bool)
    collided[starts[1:]] = True
    collided[1:] &= key[1:] == key[:-1]
    if collided.any():
        rows = np.flatnonzero(np.isin(key, key[collided]))
        sub = rows[np.lexsort((c[rows], b[rows], a[rows], key[rows]))]
        a[rows], b[rows], c[rows] = a[sub], b[sub], c[sub]
        starts = run_starts(a, b, c)
    return starts


def _pair_bisectors(xs, ys, sq, rows: slice, a, b, c) -> int:
    """Write the canonical bisector rows (a, b, c) of the point pairs i < j
    with i in rows, a row_blocks slice, to the start of the columns a, b, c
    and return how many were written.  The block is the rows against the
    columns from rows.start on, which hold every such j; its differences and
    gcd temporaries die with the call.

    xs and ys are reduced coordinates (_reduced_lattice), in a dtype that
    holds their differences, and sq = xs^2 + ys^2 is in the columns' dtype.
    The points are sorted by (x, y), so every pair i < j has dx >= 0, and
    dy > 0 where dx = 0: the row comes out with a positive first nonzero
    entry.  With g0 = gcd(dx, dy), which divides c = |P|^2 - |Q|^2, the
    canonical row is (2 dx, 2 dy, c) / g0 when c / g0 is odd and
    (dx, dy, c / 2) / g0 when it is even."""
    c0 = rows.start  # no pair i < j of these rows has j < c0
    idx = np.arange(len(xs))
    upper = idx[rows, None] < idx[None, c0:]
    k = int(np.count_nonzero(upper))
    a, b, c = a[:k], b[:k], c[:k]
    # c = |P_i|^2 - |P_j|^2 in the pairs' row-major order: each i's own value
    # repeated once per later point, less the later points' values read by
    # the mask off a broadcast row, so no (rows, N) block of int64 values is
    # formed.  In process, the kernel took 46.5 against 47.4 ms on 1000
    # random points, and its traced peak on grid(40) fell from 61.0 to 51.3
    # MiB.  Boolean indexing: np.compress(..., out=) goes through a buffered
    # take, 5.0 against 2.3 ms a column at N = 1000
    c[...] = np.repeat(sq[rows], len(xs) - 1 - idx[rows])
    c -= np.broadcast_to(sq[c0:], upper.shape)[upper]
    upper = upper.ravel()
    dx = (xs[None, c0:] - xs[rows, None]).ravel()[upper]
    dy = (ys[None, c0:] - ys[rows, None]).ravel()[upper]
    del upper
    g = np.gcd(dx, dy)
    dx //= g
    dy //= g
    c //= g
    del g
    odd = c & 1
    np.left_shift(dx, odd, out=a)
    np.left_shift(dy, odd, out=b)
    odd ^= 1
    c >>= odd
    return k


def _to_cleared(lines: np.ndarray, den: int, reach: int, g: int, x0: int, y0: int) -> np.ndarray:
    """The reduced lattice's distinct rows (a', b', c'), a (3, n) array, as
    canonical rows in p's coordinates.  A reduced point is (X - x0, Y - y0)
    / g for (X, Y) = L (x, y), so the row is (a' L, b' L, g c' - a' x0 - b' y0)
    over its gcd: that of its c and L gcd(a', b'), where gcd(a', b') is 2
    or 1 (_pair_bisectors).  It divides L g, as gcd(a', b', c') = 1, so rows
    with L = g = 1 need no division.  In place in int64 when |a'|, |b'| <=
    2 sqrt(reach) and |c'| <= reach bound every entry inside int_dtype, else
    in Python ints, kept as int64 if they fit."""
    w = 2 * math.isqrt(reach)
    bound = max(den * w, g * reach + w * (abs(x0) + abs(y0)))
    lines = lines.astype(int_dtype(bound), copy=False)
    a, b, c = lines
    if g != 1:
        c *= g
    for col, shift in ((a, x0), (b, y0)):
        if shift:  # one temporary at a time: c -= a x0 + b y0 took 3x as long
            c -= col * shift
    if den * g != 1:
        h = np.gcd((2 * den) >> ((a | b) & 1), c)  # the small operand first: one step fewer
        lines[:2] *= den
        lines //= h
    return lines.astype(int_dtype(int(np.abs(lines).max()))) if lines.dtype == object else lines


def bisector_weight_map(p: PlanarPointSet) -> WeightedBisectorMap:
    """Accumulate bisector weights over all ordered pairs of distinct points:
    on the reduced lattice, whose distinct lines alone are mapped back."""
    n = len(p)
    if n < 2:
        raise TooFewPointsError("bisector weights need at least two points")
    xs, ys, reach, g, x0, y0 = _reduced_lattice(p)
    sq = xs * xs + ys * ys
    m = n * (n - 1) // 2
    # column-major, so heaviest_bisector and the incidence scan read contiguous
    # columns of the lines, which end up as a slice of this block
    block = np.empty((3, m), dtype=xs.dtype)
    if xs.dtype == np.int64:  # W^2 + H^2 < 2^62 keeps every difference below 2^31
        xs, ys = xs.astype(np.int32), ys.astype(np.int32)
    done = 0
    for rows in row_blocks(n, n):
        done += _pair_bisectors(xs, ys, sq, rows, *block[:, done:])
    # the key keeps its high bits and carries the row index in the low ones,
    # so one in-place sort of it yields both the key order and the rows' order
    key = _row_key(*block)
    low = np.uint64((1 << (m - 1).bit_length()) - 1)
    key &= ~low
    key |= np.arange(m, dtype=np.uint64)
    key.sort()
    # equal triples share a key, so a key seen once is a line of weight 2 whose
    # row is canonical as written: only the rows of repeated keys need the
    # key order.  Neighbours share a key when their high bits agree
    same = (key[1:] ^ key[:-1]) <= low
    if not same.any():  # every line weighs 2, and no array need hold that
        del key
        lines, weights = block, np.broadcast_to(np.int64(2), (m,))
    else:
        repeated = np.zeros(m, dtype=bool)
        repeated[1:] = same
        repeated[:-1] |= same
        del same
        # index arrays, not boolean gathers: at grid(16) a nonzero and a take
        # of sorted indices took 39 us, a boolean gather of the same rows 84
        key = key[repeated.nonzero()[0]]
        del repeated
        r = len(key)
        k = m - r
        # the lone rows to the front, in pair order, then the repeated keys'
        # rows in key order: one gather a column, so one extra column is alive
        perm = np.empty(m, dtype=np.int64)
        np.bitwise_and(key, low, out=perm[k:].view(np.uint64))
        key &= ~low
        keep = np.ones(m, dtype=bool)
        keep[perm[k:]] = False
        perm[:k] = keep.nonzero()[0]
        del keep
        for col in block:
            col[:] = col[perm]
        del perm
        starts = _line_starts(key, *block[:, k:])
        del key
        lines = block[:, :k + len(starts)]
        for col in block:  # a take a column: 2.5x faster than one 2-d take
            col[k:len(lines[0])] = col[k:][starts]
        # lone lines weigh 2, the others twice their run's length
        weights = np.empty(len(lines[0]), dtype=np.int64)
        weights[:k] = 2
        np.subtract(starts[1:], starts[:-1], out=weights[k:-1])
        weights[-1] = r - starts[-1]
        weights[k:] *= 2
        if 2 * len(weights) < m:  # do not keep the whole block alive
            lines = lines.copy()
    del block
    lines = _to_cleared(lines, p.scaled_int_coords()[2], reach, g, x0, y0)
    wmap = WeightedBisectorMap(p.points, lines.T, weights)
    if wmap.total_weight != n * n - n:
        raise RuntimeError("bisector weights failed the pair-count identity")
    return wmap


def heaviest_bisector(wmap: WeightedBisectorMap) -> Tuple[Line, int]:
    """Line of maximum weight; ties break to the lexicographically least
    triple, found by keeping the rows of least a, then b, then c.  When
    every line ties, as where every line weighs 2, the rows of least a are
    read off the whole column: on 1000 random points 0.38 against 1.5 ms."""
    lines, weights = wmap.line_arrays()
    if wmap.max_weight * len(weights) == wmap.total_weight:
        a = lines[:, 0]
        cand = np.flatnonzero(a == a.min())
    else:
        cand = np.flatnonzero(weights == wmap.max_weight)
    for col in lines.T:
        vals = col[cand]
        cand = cand[vals == vals.min()]
    return Line(*lines[cand[0]].tolist()), wmap.max_weight


@dataclass(frozen=True)
class SymmetricSubset:
    """A subset mapped into the ambient set by reflection across axis.

    The reflection is an involution, so the subset is closed under it and is
    its own mirror: subset and mirror are one and the same point set.
    """

    axis: Line
    subset: PlanarPointSet
    mirror: PlanarPointSet
    weight: int


def _mirror_indices(p: PlanarPointSet, axis: Line) -> list:
    """mirror[i]: index of the image of point i across the axis, or -1 when
    the image is not in p.  On cleared rows (X, Y) the axis reads
    aX + bY + cL = 0, and with s = aX + bY + cL, n = a^2 + b^2 the image is
    (X - 2as/n, Y - 2bs/n): a row only if both divisions are exact."""
    index = p.row_index()
    a, b, c = axis
    n = a * a + b * b
    cl = c * p.scaled_int_coords()[2]
    mirror = []
    for x, y in index:
        s2 = 2 * (a * x + b * y + cl)
        dx, rx = divmod(a * s2, n)
        dy, ry = divmod(b * s2, n)
        mirror.append(-1 if rx or ry else index.get((x - dx, y - dy), -1))
    return mirror


def extract_symmetric_subset(
    p: PlanarPointSet,
    include_fixed_points: bool = False,
    weight_map: Optional[WeightedBisectorMap] = None,
) -> SymmetricSubset:
    """Points reflected back into p by its heaviest bisector.

    Fixed points of the reflection (points on the axis) are excluded unless
    include_fixed_points is set; without them the subset size equals the
    axis weight exactly, and that equality is checked before returning, as
    is mirror[mirror[i]] == i for every paired point.
    """
    wmap = weight_map if weight_map is not None else bisector_weight_map(p)
    check_weight_map(p, wmap)
    axis, wmax = heaviest_bisector(wmap)
    mirror = _mirror_indices(p, axis)
    paired = [i for i, j in enumerate(mirror) if j >= 0 and j != i]
    if len(paired) != wmax:
        raise RuntimeError("axis weight disagrees with its reflection count")
    if any(mirror[mirror[i]] != i for i in paired):
        raise RuntimeError("reflection across the axis is not an involution")
    keep = [i for i, j in enumerate(mirror) if j >= 0] if include_fixed_points else paired
    sub = PlanarPointSet._from_sorted(p.points[i] for i in keep)
    return SymmetricSubset(axis, sub, sub, wmax)
