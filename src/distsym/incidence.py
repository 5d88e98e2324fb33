"""Equal-distance triple counts along three independent routes, plus the
weighted point-line incidence report.

T counts ordered triples (p, q, s) with p != q and |p - s| = |q - s|.  The
same number falls out of per-centre radius multiplicities (sum of m(m-1)),
out of a literal cubic loop, and out of the weighted incidences I_w of the
bisector map with the point set; the routes share no counting logic, which
is what makes their agreement worth testing.

The multiplicity route reads the rich (centre, radius) classes, those of two
or more points, off sorted distance rows with scalar_sets.repeat_runs; the
singleton classes add nothing to T or to the rich count and are never
materialised.  st_bound_report takes T and the rich count from that one pass.
It runs on the reduced lattice, the cleared points translated to their
minimum and divided by their gcd, whose squared distances are at most
W^2 + H^2 for the reduced box's widths.  On every lattice it sorts 32-bit
rows of residues mod 2^32, which are the distances below 2^32; above, only
the rows that repeat a residue can hold a rich class, and only they are
recomputed, in the lattice's int64 or Python ints (see _radius_class_counts
for why this is exact).

The incidence route reduces every line once to its direction form
uX + vY = t and drops the lines that hold no cleared point.  It joins the
lines of each well-filled direction against the points' projections onto
it, one lookup per point and direction, and scans the other lines against
every point; one reach picks int64 or Python ints for both, so exact inputs
join too.  Lattice-like sets, the paper's sets with few distinct
distances, have few directions, so the join does most of their work.

The three row-local kernels here, the radius-class pass, the join and the
scan, take their blocks from scalar_sets.row_blocks, as every pair kernel
does, and reduce each block of pair values to a few integers on the spot:
at N = 4000 a block of 2^22 int64 distances is 33.5 MB, and the triple
count faulted 37.9k pages per call in the planar benchmark with blocks that
size; with cache-sized ones it faulted none there and took half the time
(see _CACHE_BLOCK).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bisectors import WeightedBisectorMap, check_weight_map
from .brackets import Bracket, nth_root_bracket, ratio_bracket
from .errors import CapExceededError, EmptyInputError
from .planar import PlanarPointSet, _reduced_lattice, _sq_dist_rows, _sq_dists
from .scalar_sets import int_dtype, repeat_runs, row_blocks

BRUTE_CAP_DEFAULT = 60
_SCAN_WORK_LIMIT = 10 ** 8
# A direction with at least this many lines that can hold a point is joined,
# a smaller one scanned (at least 1).  In process on a 2-core host, with the
# scan alone at 45, 62, 61 and 64 ms, I_w took 11.2-13.3 ms on grid(2..16)
# summed, 6.6-7.2 ms on grid(20), 19-29 ms on 300 random points in +-30 and
# 40-45 ms on 300 in +-10^6 at 4, 8 and 16, with 8 best or within 5% of the
# best on each; at 32 they were 19, 7.9, 33 and 52 ms.
_JOIN_MIN_LINES = 8


def _radius_class_counts(p: PlanarPointSet):
    """(T, rich): the sum of m(m-1) over the rich (centre, radius) classes,
    those of m >= 2 points, and the number of those classes.  A block of
    centres at a time, the classes are read as runs of repeated values in the
    flattened block of sorted distance rows.  No run crosses rows: each row
    opens with its centre's own 0, and with distinct points only a lone
    point's row ends at 0.

    Exactness.  The rows are those of the reduced lattice
    (_reduced_lattice): its squared distances are at most reach, and two of
    them are equal iff the same two distances of p are.  Every lattice's
    rows are computed from its coordinates mod 2^32 in uint32 arithmetic,
    which is arithmetic mod 2^32, so each entry is its squared distance's
    residue mod 2^32; 32-bit rows are computed and sorted about twice as
    fast as 64-bit ones, and far faster than rows of Python ints.  Equal
    distances have equal residues, so residue equality is necessary for
    equality, and a row whose sorted residues are all distinct holds no rich
    class.  Where reach < 2^32 each distance is its own residue, so equality
    of residues is also sufficient and the residue rows are counted as they
    are.  Otherwise only the rows that repeat a residue are recomputed in
    the lattice's dtype, int64 or Python ints, which holds every value up to
    reach since int_dtype admitted it, and counted; a block without such a
    row adds nothing.  A Python-int lattice in which every row repeats a
    residue pays the 32-bit pass on top of its exact rows.  No float is
    compared anywhere."""
    xs, ys, reach = _reduced_lattice(p)[:3]
    residues = [(c % (1 << 32)).astype(np.uint32) for c in (xs, ys)]
    exact = reach < 1 << 32
    t = rich = start = 0
    for d2 in _sq_dist_rows(*residues):
        d2.sort(axis=1)
        if not exact:
            again = start + np.flatnonzero((d2[:, 1:] == d2[:, :-1]).any(axis=1))
            start += len(d2)
            if not len(again):
                continue
            d2 = _sq_dists(xs, ys, again, 0, *np.empty((2, len(again), len(xs)), dtype=xs.dtype))
            d2.sort(axis=1)
        lens = repeat_runs(d2.ravel())
        t += int((lens * (lens - 1)).sum())
        rich += len(lens)
    return t, rich


def isosceles_count(p: PlanarPointSet) -> int:
    """T via radius multiplicities, O(N^2): sum over classes of m(m-1)."""
    if not p:
        raise EmptyInputError("triple count of an empty point set")
    return _radius_class_counts(p)[0]


def isosceles_count_brute(p: PlanarPointSet, cap: int = BRUTE_CAP_DEFAULT) -> int:
    """T via the literal cubic loop; refuses sets larger than cap.

    It reads the coordinates cleared to a common integer grid.  That single
    dilation preserves every equality of squared distances, and the loop
    below stays a plain triple enumeration.
    """
    if not p:
        raise EmptyInputError("triple count of an empty point set")
    if cap is not None and len(p) > cap:
        raise CapExceededError(f"brute-force triple count capped at {cap} points")
    xs, ys, _ = p.scaled_int_coords()
    coords = list(zip(xs.tolist(), ys.tolist()))
    n = len(coords)
    count = 0
    for si in range(n):
        sx, sy = coords[si]
        for pi in range(n):
            px, py = coords[pi]
            dps = (px - sx) ** 2 + (py - sy) ** 2
            for qi in range(n):
                if qi == pi:
                    continue
                qx, qy = coords[qi]
                if (qx - sx) ** 2 + (qy - sy) ** 2 == dps:
                    count += 1
    return count


def weighted_incidences(p: PlanarPointSet, wmap: WeightedBisectorMap) -> int:
    """I_w: sum of w(l) over incident (point, line) pairs.

    With g = gcd(a, b), a cleared point (X, Y) is on (a, b, c) iff
    uX + vY = t for the direction (u, v) = (a, b)/g and the offset
    t = -cL/g.  Every line is reduced once to that form, in Python ints
    where |c| L passes int64, and a line with g not dividing cL holds no
    point and is dropped.  The lines of each direction of at least
    _JOIN_MIN_LINES lines are joined against the points by offset, the
    others scanned against every point.  One reach, max(|t|, (|u| + |v|) M)
    for cleared coordinates up to M, bounds every offset and every partial
    sum of uX + vY, and picks int64 or object for both kernels; where int64
    kernels would overflow the join's key, every line is scanned."""
    if not p:
        raise EmptyInputError("incidence scan of an empty point set")
    check_weight_map(p, wmap)
    xs, ys, den = p.scaled_int_coords()
    lines, weights = wmap.line_arrays()
    if int_dtype(_abs_max(lines[:, 2]) * den) is object:
        lines = lines.astype(object, copy=False)
    a, b, c = lines.T
    g = np.gcd(a, b)
    t = c * den
    kept = np.flatnonzero(t % g == 0)
    g = g[kept]
    u, v, t = a[kept] // g, b[kept] // g, t[kept]
    t //= g
    np.negative(t, out=t)
    del g
    coord_bound = max(_abs_max(xs), _abs_max(ys), 1)
    reach = max(_abs_max(t), (_abs_max(u) + _abs_max(v)) * coord_bound)
    dtype = int_dtype(reach)
    xs, ys, u, v, t = (col.astype(dtype, copy=False) for col in (xs, ys, u, v, t))
    order = np.lexsort((t, v, u))
    u, v, t, weights = u[order], v[order], t[order], weights[kept[order]]
    del kept, order
    firsts = np.flatnonzero(np.concatenate(([True], (u[1:] != u[:-1]) | (v[1:] != v[:-1]))))
    sizes = np.diff(firsts, append=len(u))
    big = sizes >= _JOIN_MIN_LINES
    # the join's keys reach directions x (2 reach + 1)
    if dtype is np.int64 and int_dtype(int(np.count_nonzero(big)) * (2 * reach + 1)) is object:
        big[:] = False
    in_join = np.repeat(big, sizes)
    heads, scan = firsts[big], ~in_join
    return (_join_by_direction(xs, ys, reach, u[heads], v[heads], t[in_join], sizes[big], weights[in_join])
            + _scan_lines(xs, ys, u[scan], v[scan], t[scan], weights[scan]))


def _scan_lines(xs, ys, u, v, t, weights) -> int:
    """Sum of w(l) over the points on each line uX + vY = t, testing every
    line against every point in cache-sized blocks of lines."""
    total = 0
    for rows in row_blocks(len(t), len(xs)):
        vals = u[rows, None] * xs + v[rows, None] * ys
        hits = (vals == t[rows, None]).sum(axis=1)
        total += int(weights[rows] @ hits)
    return total


def _join_by_direction(xs, ys, reach: int, u, v, t, sizes, weights) -> int:
    """Sum of w(l) over the points on each line uX + vY = t.  The offsets t
    are sorted by direction, then offset, and the i-th direction (u, v)
    holds the next sizes[i] of them.

    The rows are distinct canonical lines, so the offsets within a direction
    are distinct and a point meets at most one line there: each point's
    projection uX + vY is looked up among its direction's offsets, for
    directions x N work in place of lines x N."""
    # key = direction index * span + offset + reach, one sorted array since
    # the lines are sorted by direction, then offset; every offset and
    # projection lies in [-reach, reach]
    base = np.arange(len(u), dtype=t.dtype) * (2 * reach + 1) + reach
    keys = np.repeat(base, sizes)
    keys += t
    total = 0
    for rows in row_blocks(len(u), len(xs)):
        q = u[rows, None] * xs
        q += v[rows, None] * ys
        q += base[rows, None]
        q = q.ravel()
        at = np.searchsorted(keys, q)
        np.minimum(at, len(keys) - 1, out=at)
        total += int(weights[at[keys[at] == q]].sum())
    return total


def _abs_max(values: np.ndarray) -> int:
    return int(np.abs(values).max()) if len(values) else 0


@dataclass(frozen=True)
class IncidenceReport:
    """Everything the incidence bound needs, with the irrational term held as
    an integer floor/ceil pair so the ratio is decided without floats.  The
    fields are declared in the column order of the report's CSV and JSON."""

    n: int
    triples: int
    weighted: int
    total_weight: int
    max_weight: int
    rhs_floor: int
    rhs_ceil: int
    low_multiplicity_classes: int

    @property
    def ratio(self) -> Bracket:
        return ratio_bracket(self.weighted, Bracket(self.rhs_floor, self.rhs_ceil))


def st_bound_report(p: PlanarPointSet, wmap: WeightedBisectorMap) -> IncidenceReport:
    """Compare I_w against w^(1/3) (N W)^(2/3) + W + w N.

    The cube root is bracketed by exact integer roots of w (N W)^2.  I_w
    comes from weighted_incidences, the direction join plus the filtered
    scan, while lines x N is at most _SCAN_WORK_LIMIT; past it that route is
    skipped before any of its work and I_w falls back to the triple count
    (the identity T = I_w is enforced whenever both are computed, and is
    exercised exhaustively at oracle scale in tests).

    The low-multiplicity count covers the (centre, radius) pairs over radius
    in d(P) (zero included) that hit at most one point; empty classes count,
    so it is N |d(P)| minus the rich classes, those of two or more points.
    |d(P)| is p.distance_count(), sorted once per point set however many
    reports read it.
    """
    check_weight_map(p, wmap)
    n = len(p)
    t, rich = _radius_class_counts(p)
    if wmap.distinct_lines * n <= _SCAN_WORK_LIMIT:
        iw = weighted_incidences(p, wmap)
        if iw != t:
            raise RuntimeError("incidence identity violated: T != I_w")
    else:
        iw = t
    w_total, w_max = wmap.total_weight, wmap.max_weight
    root = nth_root_bracket(w_max * (n * w_total) ** 2, 3, digits=0)
    base = w_total + w_max * n
    return IncidenceReport(
        n=n,
        triples=t,
        weighted=iw,
        total_weight=w_total,
        max_weight=w_max,
        rhs_floor=int(root.lo) + base,
        rhs_ceil=int(root.hi) + base,
        low_multiplicity_classes=n * p.distance_count() - rich,
    )
