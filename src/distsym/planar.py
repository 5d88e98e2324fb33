"""Planar point sets with exact coordinates and their squared-distance data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

import numpy as np

from . import scalar_sets
from .errors import EmptyInputError
from .scalar_sets import (
    Scalar,
    ScalarSet,
    as_scalar,
    clear_denominators,
    difference_set,
    elementwise_square,
    int_dtype,
    iterated_combination,
    row_blocks,
)

Point = Tuple[Scalar, Scalar]


def as_point(value) -> Point:
    x, y = value
    return (as_scalar(x), as_scalar(y))


def _ratio(v) -> Tuple[int, int]:
    # exact (numerator, denominator) of an int, Fraction, float or numpy scalar
    if hasattr(v, "numerator"):
        return int(v.numerator), int(v.denominator)
    return v.as_integer_ratio()


class PlanarPointSet:
    """Deduplicated point set in lexicographic (x, y) order.

    It caches what its readers derive from it, each on first use: the
    cleared coordinates (scaled_int_coords), the row index (row_index), the
    reduced lattice (_reduced_lattice) and the distance count
    (distance_count).  The points never change, so neither do these."""

    __slots__ = ("_points", "_index", "_scaled", "_lattice", "_distance_count")

    def __init__(self, points: Iterable = ()):
        self._points = tuple(sorted({as_point(p) for p in points}))
        self._clear_caches()

    @classmethod
    def _from_sorted(cls, points) -> "PlanarPointSet":
        s = cls.__new__(cls)
        s._points = tuple(points)
        s._clear_caches()
        return s

    def _clear_caches(self):
        self._index = self._scaled = self._lattice = self._distance_count = None

    @property
    def points(self) -> tuple:
        return self._points

    def scaled_int_coords(self):
        """(xs, ys, L): coordinates times their common denominator L, as int64
        arrays when int_dtype admits 2M, M the largest scaled magnitude, which
        bounds _reduced_lattice's translation to the minimum, else as object
        arrays of Python ints.  Every kernel picks its own dtype."""
        if self._scaled is None:
            nums, den = clear_denominators([v for pt in self._points for v in pt])
            flat = np.array(nums, dtype=int_dtype(2 * max(map(abs, nums), default=0)))
            self._scaled = (flat[0::2].copy(), flat[1::2].copy(), den)
        return self._scaled

    def row_index(self) -> Dict[Tuple[int, int], int]:
        """Each cleared row (X, Y) = L (x, y), as Python ints, mapped to the
        index of its point; rows are inserted in point order."""
        if self._index is None:
            xs, ys, _ = self.scaled_int_coords()
            self._index = {row: i for i, row in enumerate(zip(xs.tolist(), ys.tolist()))}
        return self._index

    def distance_count(self) -> int:
        """|d(P)| with 0 counted, from squared_distance_set on first use, so
        however many reports read it, d(P) is sorted once per point set."""
        if self._distance_count is None:
            squared_distance_set(self)
        return self._distance_count

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __bool__(self):
        return bool(self._points)

    def __contains__(self, point):
        # (x, y) is a point iff L (x, y) is a cleared row; a coordinate whose
        # denominator does not divide L is in no row
        try:
            (xn, xd), (yn, yd) = map(_ratio, point)
        except (AttributeError, TypeError, ValueError, OverflowError):
            return False
        den = self.scaled_int_coords()[2]
        if den % xd or den % yd:
            return False
        return (xn * (den // xd), yn * (den // yd)) in self.row_index()

    def __eq__(self, other):
        if isinstance(other, PlanarPointSet):
            return self._points == other._points
        return NotImplemented

    def __hash__(self):
        return hash(self._points)

    def __repr__(self):
        return f"PlanarPointSet(n={len(self._points)})"


@dataclass(frozen=True)
class DistanceSet:
    """Distinct squared distances of a point set under a zero convention."""

    squared: ScalarSet
    includes_zero: bool

    def __len__(self):
        return len(self.squared)


def cartesian_square(a: ScalarSet) -> PlanarPointSet:
    """All points (x, y) with both coordinates drawn from a."""
    if not a:
        raise EmptyInputError("cartesian square of an empty set")
    elems = a.elements
    return PlanarPointSet._from_sorted((x, y) for x in elems for y in elems)


def _reduced_lattice(p: PlanarPointSet):
    """(xs, ys, reach, g, x0, y0): p's cleared coordinates translated to their
    minimum (x0, y0) and divided by their common gcd g (1 for a single
    point), in int_dtype(reach), reach = W^2 + H^2 for the widths of the
    reduced box, the largest squared distance.  The map is a similarity: it
    scales every squared distance by (L / g)^2 and maps bisectors to
    bisectors.  Computed once per point set and cached on it, so the weight
    map, d(P) and the radius-class pass share it; xs and ys are read-only."""
    if p._lattice is None:
        xs, ys, _ = p.scaled_int_coords()
        x0, y0 = int(xs.min()), int(ys.min())
        xs, ys = xs - x0, ys - y0
        g = int(np.gcd.reduce(np.concatenate((xs, ys)))) or 1
        if g > 1:
            xs //= g
            ys //= g
        reach = int(xs.max()) ** 2 + int(ys.max()) ** 2
        dtype = int_dtype(reach)
        xs, ys = xs.astype(dtype, copy=False), ys.astype(dtype, copy=False)
        xs.flags.writeable = ys.flags.writeable = False
        p._lattice = (xs, ys, reach, g, x0, y0)
    return p._lattice


def _sq_dists(xs: np.ndarray, ys: np.ndarray, rows, c0: int, out: np.ndarray, tmp: np.ndarray):
    """Write into out, a (len(rows), N - c0) array, the squared distances from
    the points rows (a slice or an index array) to the points c0 to N - 1,
    with tmp, an array of the same shape, as scratch; returns out.  Computed
    in the dtype of out, so uint32 yields the residues mod 2^32."""
    np.subtract(xs[rows, None], xs[c0:], out=out)
    np.subtract(ys[rows, None], ys[c0:], out=tmp)
    out *= out
    tmp *= tmp
    out += tmp
    return out


def _sq_dist_rows(xs: np.ndarray, ys: np.ndarray):
    """Squared distances from each row_blocks block of centres to every
    point, as (rows, N) arrays, in the dtype of xs and ys.  uint32 input
    yields the distances' residues mod 2^32, since uint32 arithmetic wraps.
    Every block is written into the leading rows of one of two buffers
    allocated once, the first block's size, so each yielded block is
    overwritten by the next: a consumer reduces a block before it asks for
    the next one."""
    bufs = None
    for rows in row_blocks(len(xs), len(xs)):
        h = rows.stop - rows.start
        if bufs is None:
            bufs = np.empty((2, h, len(xs)), dtype=xs.dtype)
        yield _sq_dists(xs, ys, rows, 0, *bufs[:, :h])


def _distinct_upper_distances(xs: np.ndarray, ys: np.ndarray, reach: int) -> np.ndarray:
    """Sorted distinct squared distances of the points (xs, ys), in their
    dtype, which must hold every one of them, and all at most reach.  Each
    row_blocks block of rows is cut to the columns from its first row on, so
    every pair i < j is written once; the block's leading square adds only
    its rows' own zeros and pairs i > j, which repeat values.
    distinct_values takes these rectangles, each written with a cache-sized
    scratch array."""
    n = len(xs)
    blocks = list(row_blocks(n, n))
    sizes = [(rows.stop - rows.start) * (n - rows.start) for rows in blocks]
    tmp = np.empty(max(sizes), dtype=xs.dtype)

    def write(i, out):
        rows = blocks[i]
        shape = (rows.stop - rows.start, n - rows.start)
        _sq_dists(xs, ys, rows, rows.start, out.reshape(shape), tmp[:out.size].reshape(shape))
    return scalar_sets.distinct_values(sizes, xs.dtype, write, 0, reach)


def squared_distance_set(p: PlanarPointSet, include_zero: bool = True) -> DistanceSet:
    """Distinct values |u - v|^2 over point pairs; 0 kept iff include_zero.

    Computed on the reduced lattice (_reduced_lattice), whose squared
    distances are those of p times (L / g)^2, from the pairs of the upper
    triangle only; the distinct values alone are scaled back by g^2 / L^2.
    Their number, 0 counted, is kept as p's distance_count."""
    if not p:
        raise EmptyInputError("distance set of an empty point set")
    xs, ys, reach, g, _, _ = _reduced_lattice(p)
    vals = _distinct_upper_distances(xs, ys, reach)
    p._distance_count = len(vals)
    if not include_zero:
        vals = vals[1:]  # the diagonal's 0 is the least value
    den = p.scaled_int_coords()[2]
    k = math.gcd(g * g, den * den)
    scale = g * g // k
    if scale != 1:
        vals = vals.astype(int_dtype(scale * reach), copy=False) * scale
    return DistanceSet(ScalarSet._from_numerators(vals, den * den // k), include_zero)


def verify_product_identity(a: ScalarSet):
    """Squared distances of a x a versus the two-fold sumset of the squared
    difference set; returns (agree, distance_side, sumset_side).

    The two sides are computed along fully independent routes and must be
    equal for every nonempty a.
    """
    lhs = squared_distance_set(cartesian_square(a), include_zero=True).squared
    rhs = iterated_combination(2, 0, elementwise_square(difference_set(a)))
    return lhs == rhs, lhs, rhs


@dataclass(frozen=True)
class RadiusMultiplicityMap:
    """Per-centre multiplicities of squared circle radii; r = 0 is included,
    every centre sees itself once."""

    by_center: Dict[Point, Dict[Scalar, int]]

    def total(self) -> int:
        return sum(sum(m.values()) for m in self.by_center.values())


def radius_multiplicity_map(p: PlanarPointSet) -> RadiusMultiplicityMap:
    if not p:
        raise EmptyInputError("radius multiplicities of an empty point set")
    out = {}
    pts = p.points
    for s in pts:
        sx, sy = s
        counts: Dict[Scalar, int] = {}
        for x, y in pts:
            dx = x - sx
            dy = y - sy
            r2 = dx * dx + dy * dy
            counts[r2] = counts.get(r2, 0) + 1
        out[s] = counts
    return RadiusMultiplicityMap(out)
