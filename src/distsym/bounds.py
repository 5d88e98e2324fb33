"""Bound reports: each named inequality evaluated exactly on a concrete input.

Constant-free claims (inclusions, fold-growth with explicit constant 1, the
product-form distance identity) can genuinely be violated and then carry the
verdict "violated"; asymptotic lower bounds always hold with some constant,
so their reports record the observed ratio lhs / rhs instead.  Ratios
against irrational comparators are rational brackets, never floats.

The Hanson inclusion enumerates A x A and D x D once each: D and {2}DD are
the distinct values of those enumerations, and their first occurrences,
read off a first-index table over a small span or else a stable sort of
the values as they are, are the certificates, checked on integer arrays
under one int64 guard; the rank of every value of A - A places each
certificate component in D.  Every certificate value is read off the
elements of A, D and {2}DD, so it is in canonical form: an int when
integral, else a reduced Fraction.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .bisectors import WeightedBisectorMap, extract_symmetric_subset
from .brackets import (
    Bracket,
    exact_bracket,
    ln_bracket,
    nth_root_bracket,
    ratio_bracket,
    sqrt_bracket,
)
from .errors import EmptyInputError, TooFewPointsError
from .planar import PlanarPointSet, verify_product_identity
from .scalar_sets import (
    Scalar,
    ScalarSet,
    ab_plus_c_set,
    check_fold_budget,
    dedup_route,
    difference_set,
    dilate,
    elementwise_square,
    int_dtype,
    iterated_combination,
    pairwise_combine,
    run_starts,
)

VERDICT_HOLDS = "holds"
VERDICT_HOLDS_WITH_CONSTANT = "holds-with-constant"
VERDICT_VIOLATED = "violated"


@dataclass(frozen=True)
class BoundReport:
    """One inequality on one input: exact left side, bracketed (positive)
    right side, verdict, and whatever certifies the claim.  The ratio
    bracket is derived from lhs and rhs."""

    name: str
    lhs: Scalar
    rhs: Bracket
    verdict: str
    witness: Optional[dict] = None
    flags: Tuple[str, ...] = ()

    @property
    def ratio(self) -> Bracket:
        return ratio_bracket(self.lhs, self.rhs)


def hanson_witness(a, b, c, d):
    """The four differences (a-d, b-c, a-c, b-d), which satisfy

        2(a-b)(c-d) = (a-d)^2 + (b-c)^2 - (a-c)^2 - (b-d)^2.

    The identity is re-verified on every call before returning.
    """
    w, x, y, z = a - d, b - c, a - c, b - d
    if 2 * (a - b) * (c - d) != w * w + x * x - y * y - z * z:
        raise AssertionError("witness expansion identity failed")
    return w, x, y, z


def hanson_inclusion_check(a: ScalarSet) -> BoundReport:
    """Inclusion of {2}DD in 2D^2 - 2D^2 for D the difference set of a.

    Checked two ways: elementwise against the computed right side, and per
    element through a certifying quadruple whose expansion identity is
    verified exactly.  {2}DD is read off the same enumeration that finds the
    quadruples.  The right side is folded first, so the fold budget refuses a
    wide input before any certificate is built.  Constant-free, so failure
    would be a violation.
    """
    if not a:
        raise EmptyInputError("inclusion check of an empty set")
    rhs_set = iterated_combination(2, 2, elementwise_square(difference_set(a)))
    _, two_dd, witnesses = _hanson_certificates(a)
    return BoundReport(
        name="hanson-inclusion",
        lhs=len(two_dd),
        rhs=exact_bracket(len(rhs_set)),
        verdict=VERDICT_HOLDS if two_dd.issubset(rhs_set) else VERDICT_VIOLATED,
        witness={"certified_elements": len(witnesses), "witnesses": witnesses},
    )


def _hanson_certificates(a: ScalarSet):
    """(D, {2}DD, witnesses): the difference set of a, the doubled product set
    of D, and one certified generating quadruple per element of {2}DD.

    A x A is enumerated once and D x D once.  Their sorted distinct values,
    over L and L^2 for L the denominator of a, are D and {2}DD, so every
    witness lines up with its element by position.  For 2uv with u = a1 - b1
    and v = c1 - d1 drawn from the first decompositions found, the witness
    quadruple lands in D four times over, which places the element inside
    2D^2 - 2D^2 independently of the computed set.  The expansion identity of
    hanson_witness is checked once, on the numerator arrays of every quadruple.
    """
    den = a.denominator
    # over L, A - A stays within 2 max|A| L, and 2uv and every term of the
    # identity within 2 (2 max|A| L)^2
    diff_bound = 2 * int(a.max_abs * den)
    na = a.numerators.astype(int_dtype(2 * diff_bound ** 2), copy=False)
    # both enumerations are materialised whole, so each is budgeted first
    check_fold_budget("A - A", len(na), len(na), len(na) ** 2)
    # first (x, y) in row-major order for each value of A - A, and the place
    # in D of the value at every (x, y)
    diffs, first_diff, rank = _first_occurrences(np.subtract.outer(na, na).ravel(), ranked=True)
    check_fold_budget("2DD", len(diffs), len(diffs), len(diffs) ** 2)
    # first (u, v) in row-major order for each value of {2}DD
    prods, first_prod = _first_occurrences(2 * np.multiply.outer(diffs, diffs).ravel())
    d = ScalarSet._from_numerators(diffs, den)
    two_dd = ScalarSet._from_numerators(prods, den * den)
    # quadruples (a, b, c, d) as rows of indices into A: u = a - b, v = c - d
    ii, jj = np.divmod(first_prod, len(diffs))
    ia, ib = np.divmod(first_diff, len(na))
    quad = np.stack((ia[ii], ib[ii], ia[jj], ib[jj]))
    nq = na[quad]
    # hanson_witness's components (a - d, b - c, a - c, b - d) as rows
    comps = nq[[0, 1, 0, 1]] - nq[[3, 2, 2, 3]]
    # 2(a-b)(c-d) = w^2 + x^2 - y^2 - z^2
    u, v, (w, x, y, z) = nq[0] - nq[1], nq[2] - nq[3], comps
    if not np.array_equal(2 * u * v, w * w + x * x - y * y - z * z):
        raise AssertionError("witness expansion identity failed")
    # each component is a value of A - A, at (a, d), (b, c), (a, c) and
    # (b, d), so its rank names its element of D; the compare certifies it
    pos = rank[quad[[0, 1, 0, 1]] * len(na) + quad[[3, 2, 2, 3]]]
    if pos.max() >= len(diffs) or np.any(diffs[pos] != comps):
        raise AssertionError("witness components escaped the difference set")
    # values are read off the sets' elements, which are canonical: an int
    # when integral, else a reduced Fraction.  The tuples form no cycles, so
    # the cyclic collector is paused while they are made
    enabled = gc.isenabled()
    gc.disable()
    try:
        aelems, delems = (np.array(s.elements, dtype=object) for s in (a, d))
        quads = zip(*aelems[quad].tolist())
        parts = zip(*delems[pos].tolist())
        return d, two_dd, list(zip(two_dd.elements, quads, parts))
    finally:
        if enabled:
            gc.enable()


def _first_occurrences(values: np.ndarray, ranked: bool = False):
    """Sorted distinct values of a flat array and the index of each one's
    first occurrence, and with ranked the place of every entry's value among
    them.  On dedup_route's mask route the values' offsets from their
    minimum, cast to intp once (each indexes the table), fill a table of
    the first index at each offset, which then takes the places of the
    offsets present; sparser arrays, of either dtype, are stably sorted as
    they are."""
    lo, hi = int(values.min()), int(values.max())
    if dedup_route(len(values), hi - lo) == "mask":
        # indices in the least type holding n, the mark of an absent offset
        n, index = len(values), np.min_scalar_type(len(values))
        offsets = (values - lo).astype(np.intp, copy=False)
        table = np.full(hi - lo + 1, n, dtype=index)
        np.minimum.at(table, offsets, np.arange(n, dtype=index))
        present = np.flatnonzero(table < n)
        first = table[present].astype(np.intp)
        if not ranked:
            return values[first], first
        table[present] = np.arange(len(present), dtype=index)
        return values[first], first, table[offsets].astype(np.intp)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = order[run_starts(ordered)]
    if not ranked:
        return values[first], first
    # the entry at sorted place i has as many values below it as run starts
    # in 1..i
    rank = np.zeros(len(values), dtype=np.intp)
    rank[order[1:]] = np.cumsum(ordered[1:] != ordered[:-1])
    return values[first], first, rank


def plunnecke_check(a: ScalarSet, m: int, n: int) -> BoundReport:
    """Fold growth |mA - nA| against (|A+A|/|A|)^(m+n) |A|, constant exactly 1."""
    if not a:
        raise EmptyInputError("fold growth of an empty set")
    lhs = len(iterated_combination(m, n, a))
    doubling = Fraction(len(pairwise_combine(a, a, "add")), len(a))
    rhs = exact_bracket(doubling ** (m + n) * len(a))
    return BoundReport(
        name="plunnecke",
        lhs=lhs,
        rhs=rhs,
        verdict=VERDICT_HOLDS if lhs <= rhs.lo else VERDICT_VIOLATED,
        witness={"m": m, "n": n, "doubling_ratio": doubling},
    )


def abc_lower_report(a: ScalarSet, b: ScalarSet, c: ScalarSet) -> BoundReport:
    """|AB + C| against sqrt(|A| |B| |C|), bracketed by integer square roots."""
    if not (a and b and c):
        raise EmptyInputError("AB + C needs three nonempty sets")
    return BoundReport(
        name="abc-lower",
        lhs=len(ab_plus_c_set(a, b, c)),
        rhs=sqrt_bracket(len(a) * len(b) * len(c), digits=0),
        verdict=VERDICT_HOLDS_WITH_CONSTANT,
        witness={"sizes": (len(a), len(b), len(c))},
    )


def thm1_report(a: ScalarSet) -> BoundReport:
    """Distance growth for cartesian squares: |D^2 + D^2| against |D|^(11/10),
    with every intermediate of the product-set chain recorded.

    D is the difference set of a.  The chain steps

        {2}DD + D^2  is included in  3D^2 - 2D^2,
        |3D^2 - 2D^2| <= (|D^2 + D^2| / |D^2|)^5 |D^2|,

    are constant-free and are verified outright; |D|^(3/2) is bracketed for
    the record.  The five-fold combination is the largest intermediate; the
    fold budget refuses any fold of the chain predicted to pass it, before
    that fold allocates.  Its last fold, 3D^2 - D^2 minus D^2, is refused up
    front, once D^2 + D^2 exists: 3D^2 - D^2 contains 2D^2, and with 0 in
    D^2 the fold spans 5 max D^2, so it predicts at least
    min(|2D^2| |D^2|, 5 max D^2 + 1) values.
    """
    if not a:
        raise EmptyInputError("distance chain of an empty set")
    d = difference_set(a)
    dsq = elementwise_square(d)
    dist = iterated_combination(2, 0, dsq)
    lhs = len(dist)
    check_fold_budget("3D^2 - 2D^2", lhs, len(dsq),
                      min(lhs * len(dsq), 5 * int(dsq.numerators[-1]) + 1))
    chain_lhs = pairwise_combine(dilate(2, pairwise_combine(d, d, "multiply")), dsq, "add")
    # 3D^2 - 2D^2 folded on from dist = D^2 + D^2, in iterated_combination's order
    chain_mid = pairwise_combine(dist, dsq, "add")
    for _ in range(2):
        chain_mid = pairwise_combine(chain_mid, dsq, "subtract")
    inclusion = chain_lhs.issubset(chain_mid)
    plun_rhs = Fraction(lhs, len(dsq)) ** 5 * len(dsq)
    plun_ok = len(chain_mid) <= plun_rhs
    verdict = VERDICT_HOLDS_WITH_CONSTANT if inclusion and plun_ok else VERDICT_VIOLATED
    return BoundReport(
        name="thm1",
        lhs=lhs,
        rhs=nth_root_bracket(Fraction(len(d)) ** 11, 10),
        verdict=verdict,
        witness={
            "diff_size": len(d),
            "square_size": len(dsq),
            "product_shift_size": len(chain_lhs),
            "five_fold_size": len(chain_mid),
            "five_fold_bound": plun_rhs,
            "diff_pow_3_2": sqrt_bracket(Fraction(len(d)) ** 3),
            "chain_inclusion": inclusion,
            "ratio_at_least_one": lhs ** 10 >= len(d) ** 11,
        },
    )


def guth_katz_ratio(a: ScalarSet) -> BoundReport:
    """|D^2 + D^2| against |A|^2 / log |A|, the natural log held as a bracket."""
    if len(a) < 2:
        raise TooFewPointsError("log ratio needs at least two elements")
    lhs = len(iterated_combination(2, 0, elementwise_square(difference_set(a))))
    ln = ln_bracket(len(a))
    return BoundReport(
        name="guth-katz",
        lhs=lhs,
        rhs=ratio_bracket(len(a) ** 2, ln),
        verdict=VERDICT_HOLDS_WITH_CONSTANT,
        witness={"log_bracket": ln},
    )


def thm2_report(
    p: PlanarPointSet,
    include_zero: bool = True,
    include_fixed_points: bool = False,
    weight_map: Optional[WeightedBisectorMap] = None,
):
    """Heaviest-axis mirror weight against K^3 for K = N / |d(P)|.

    Returns (report, subset).  The claim is vacuous when K <= 1; that case is
    flagged but still reported.  K follows the zero convention given: |d(P)|
    is p.distance_count(), less the 0 when it is excluded.
    """
    subset = extract_symmetric_subset(
        p, include_fixed_points=include_fixed_points, weight_map=weight_map
    )
    n = len(p)
    d_count = p.distance_count() - (not include_zero)
    k = Fraction(n, d_count)
    report = BoundReport(
        name="thm2",
        lhs=subset.weight,
        rhs=exact_bracket(k ** 3),
        verdict=VERDICT_HOLDS_WITH_CONSTANT,
        witness={
            "n": n,
            "distance_count": d_count,
            "K": k,
            "axis": subset.axis,
            "subset_size": len(subset.subset),
            "include_zero": include_zero,
        },
        flags=("vacuous-K",) if k <= 1 else (),
    )
    return report, subset


def product_identity_report(a: ScalarSet) -> BoundReport:
    """Equality of the two routes to the squared distances of a x a."""
    agree, lhs_set, rhs_set = verify_product_identity(a)
    return BoundReport(
        name="product-identity",
        lhs=len(lhs_set),
        rhs=exact_bracket(len(rhs_set)),
        verdict=VERDICT_HOLDS if agree else VERDICT_VIOLATED,
        witness={"sides_equal": agree},
    )
