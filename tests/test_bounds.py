import gc
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distsym import bounds, planar
from distsym.bounds import (
    VERDICT_HOLDS,
    VERDICT_HOLDS_WITH_CONSTANT,
    abc_lower_report,
    guth_katz_ratio,
    hanson_inclusion_check,
    hanson_witness,
    plunnecke_check,
    product_identity_report,
    thm1_report,
    thm2_report,
)
from distsym.bisectors import bisector_weight_map
from distsym.errors import CapExceededError, MismatchedInputsError, TooFewPointsError
from distsym.families import FamilySpec, generate_family, random_point_set, random_scalar_set
from distsym.incidence import st_bound_report
from distsym.planar import PlanarPointSet
from distsym.scalar_sets import (
    ScalarSet,
    as_scalar,
    difference_set,
    dilate,
    int_dtype,
    iterated_combination,
    pairwise_combine,
)

int_sets = st.lists(
    st.integers(min_value=-80, max_value=80), min_size=1, max_size=12
).map(ScalarSet)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=7)


def test_hanson_witness_worked_example():
    w, x, y, z = hanson_witness(2, 0, 3, 1)
    assert (w, x, y, z) == (1, -3, -1, -1)
    assert w**2 + x**2 - y**2 - z**2 == 2 * (2 - 0) * (3 - 1) == 8


@given(rationals, rationals, rationals, rationals)
def test_hanson_witness_identity(a, b, c, d):
    w, x, y, z = hanson_witness(a, b, c, d)
    assert w**2 + x**2 - y**2 - z**2 == 2 * (a - b) * (c - d)


def test_hanson_inclusion_worked_example():
    rep = hanson_inclusion_check(ScalarSet([0, 1, 3]))
    assert rep.verdict == VERDICT_HOLDS
    assert rep.lhs == 13
    assert rep.rhs.lo == 35
    assert rep.witness["certified_elements"] == 13


@given(int_sets)
def test_hanson_inclusion_random(a):
    rep = hanson_inclusion_check(a)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.witness["certified_elements"] == rep.lhs
    # spot check one certificate end to end
    t, (p, q, r, s), (w, x, y, z) = rep.witness["witnesses"][0]
    d = difference_set(a)
    assert {w, x, y, z} <= set(d.elements)
    assert t == 2 * (p - q) * (r - s) == w**2 + x**2 - y**2 - z**2


def first_decomposition_witnesses(a):
    """Oracle: for each t in {2}DD, the first (u, v) in row-major order over D
    x D with 2uv = t, and for u and v the first (x, y) over A x A with x - y
    equal to it, found by plain loops."""
    first = {}
    for x in a.elements:
        for y in a.elements:
            first.setdefault(x - y, (x, y))
    d = sorted(first)
    uv = {}
    for u in d:
        for v in d:
            uv.setdefault(2 * u * v, (u, v))
    return [(t, first[uv[t][0]] + first[uv[t][1]]) for t in sorted(uv)]


@pytest.mark.parametrize("values", [
    [0, 1, 3],
    [5, -2, 9, 14, 0, 7],
    [Fraction(1, 2), Fraction(3, 4), 2, Fraction(-5, 3)],
    [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)],
    [0, 10**25, -3 * 10**25 + 1],
])
def test_hanson_certificates_use_first_decompositions(values):
    rep = hanson_inclusion_check(ScalarSet(values))
    got = [(t, quad) for t, quad, _ in rep.witness["witnesses"]]
    assert got == first_decomposition_witnesses(ScalarSet(values))
    for _, quad, comps in rep.witness["witnesses"]:
        assert comps == hanson_witness(*quad)


# the certificate enumerations run in int64 while 8 max|A|^2 L^2 < 2^62, i.e.
# up to max|A| = isqrt(2^59) on integer sets, and on Python ints from one past it
IDENTITY_EDGE = math.isqrt(2**59)

CERTIFICATE_CASES = [
    random.Random(6).sample(range(-60, 61), 18),
    [Fraction(1, 6) + Fraction(k, 2) for k in (0, 1, 4, 9, 11, 20)],  # L = 6, L(D) = 2
    [Fraction(1, 2), 2, Fraction(-5, 3), Fraction(7, 4), 0],
    [0, 7, 10**25, 10**25 + 3, -3 * 10**25 + 1],
    [-IDENTITY_EDGE, 0, 1, 3, IDENTITY_EDGE],
    [-IDENTITY_EDGE - 1, 0, 1, 3, IDENTITY_EDGE + 1],
    # L^2 past int64 while every numerator is small
    [0, Fraction(1, 10**10), Fraction(3, 10**10)],
    [0, 7, Fraction(1, 10**20)],
]
CERTIFICATE_IDS = ["integer", "rational-lifted", "rational-mixed", "1e25", "identity-edge",
                   "identity-edge+1", "denominator-1e10", "denominator-1e20"]


@pytest.mark.parametrize("values", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_array_certificates_match_hanson_witness_on_every_element(values):
    a = ScalarSet(values)
    rep = hanson_inclusion_check(a)
    assert rep.verdict == VERDICT_HOLDS
    witnesses = rep.witness["witnesses"]
    assert isinstance(witnesses, list) and len(witnesses) == rep.lhs
    d = set(difference_set(a).elements)
    for t, quad, comps in witnesses:
        # values are canonical: the oracle's, as ints when integral
        oracle = hanson_witness(*quad)
        assert comps == oracle
        assert [type(v) for v in comps] == [type(as_scalar(v)) for v in oracle]
        assert set(comps) <= d
        p, q, r, s = quad
        plain = as_scalar(2 * (p - q) * (r - s))
        assert t == plain and type(t) is type(plain)


# The witness tuples are built with the cyclic collector paused; it is on
# again afterwards if it was on before, and stays off if it was off.
@pytest.mark.parametrize("enabled", [True, False])
def test_certificates_leave_the_collector_as_they_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        witnesses = bounds._hanson_certificates(ScalarSet(CERTIFICATE_CASES[0]))[2]
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert isinstance(witnesses, list) and all(len(w) == 3 for w in witnesses)


def assert_same_set(got, want):
    assert got.denominator == want.denominator
    assert got.numerators.dtype == want.numerators.dtype
    assert np.array_equal(got.numerators, want.numerators)


@pytest.mark.parametrize("values", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_certificate_sets_match_the_set_engine(values):
    # D and {2}DD come off the certificate enumerations; the set engine's
    # difference set and dilated product set are the oracle
    a = ScalarSet(values)
    d, two_dd, witnesses = bounds._hanson_certificates(a)
    assert_same_set(d, difference_set(a))
    assert_same_set(two_dd, dilate(2, pairwise_combine(d, d, "multiply")))
    assert [t for t, _, _ in witnesses] == list(two_dd.elements)


@pytest.mark.parametrize("edge, dtype", [(IDENTITY_EDGE, np.int64), (IDENTITY_EDGE + 1, object)],
                         ids=["identity-edge", "identity-edge+1"])
def test_certificates_take_one_guard_int64_up_to_the_identity_edge(monkeypatch, edge, dtype):
    # a loosened guard changes no result on correct components, since the
    # identity also holds in wrapping int64, so the dtype it picks is checked
    picked = []

    def spy(bound):
        picked.append(int_dtype(bound))
        return picked[-1]

    monkeypatch.setattr(bounds, "int_dtype", spy)
    bounds._hanson_certificates(ScalarSet([-edge, 0, 1, 3, edge]))
    assert picked == [dtype]


def first_occurrence_oracle(values):
    """(sorted distinct values, index of each one's first occurrence, place of
    every entry's value among them), from a dict in plain Python."""
    first = {}
    for i, v in enumerate(values):
        first.setdefault(v, i)
    distinct = sorted(first)
    place = {v: r for r, v in enumerate(distinct)}
    return distinct, [first[v] for v in distinct], [place[v] for v in values]


def spread(lo, span, dtype, seed, draws=3000):
    # draws from [lo, lo + span] and both ends, in a shuffled order
    rng = random.Random(seed)
    values = [lo, lo + span, lo] + [lo + rng.randrange(span + 1) for _ in range(draws)]
    rng.shuffle(values)
    return np.array(values, dtype=dtype)


def two_dd_enumeration(edge):
    # {2}DD's enumeration on [-edge, 0, 1, 3, edge] in the dtype the
    # certificates pick: int64 at IDENTITY_EDGE, where its span nears 2^63
    na = np.array([-edge, 0, 1, 3, edge], dtype=int_dtype(8 * edge ** 2))
    diffs = np.unique(np.subtract.outer(na, na))
    return 2 * np.multiply.outer(diffs, diffs).ravel()


# int64 values past the mask route's span bound and Python ints are stably
# sorted as they are.  The span-255 case has 63 values, so its span passes 4
# per value
FIRST_OCCURRENCE_CASES = {
    "span-2^16-1": spread(-3000, 2**16 - 1, np.int64, 1),
    "span-2^16": spread(-3000, 2**16, np.int64, 2),
    "span-255": spread(10**15, 255, np.int64, 3, draws=60),
    "identity-edge": two_dd_enumeration(IDENTITY_EDGE),
    "identity-edge+1": two_dd_enumeration(IDENTITY_EDGE + 1),
    "1e25": spread(-(10**25), 2 * 10**25, object, 4),
}


@pytest.mark.parametrize("values", FIRST_OCCURRENCE_CASES.values(), ids=FIRST_OCCURRENCE_CASES.keys())
def test_first_occurrences_match_a_dict_oracle(monkeypatch, values):
    keys_sorted = []
    real = np.argsort

    def spy(keys, **kwargs):
        keys_sorted.append(keys.dtype)
        return real(keys, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    distinct, first, rank = bounds._first_occurrences(values, ranked=True)
    assert keys_sorted == [values.dtype]
    assert distinct.dtype == values.dtype
    assert (distinct.tolist(), first.tolist(), rank.tolist()) == first_occurrence_oracle(values.tolist())
    unranked = bounds._first_occurrences(values)
    assert [x.tolist() for x in unranked] == [distinct.tolist(), first.tolist()]


# Within the span bound, n values spanning up to 4n fill a first-index table
# in the least unsigned type that holds n, its mark of an absent offset:
# uint8 up to 255 values, uint16 from 256.  One more span sorts.  Values near
# either end of the int64 guard are offset from their own minimum.  Values
# near 10^25 are Python ints, which have no table, so they sort however
# dense they are.
@pytest.mark.parametrize("n, lo, extra, route", [
    (255, 10**15, 0, "mask"), (255, 10**15, 1, "sort"), (256, -(2**62), 0, "mask"),
    (256, -(2**62), 1, "sort"), (3000, 2**62 - 12001, 0, "mask"), (300, 10**25, 0, "sort")])
def test_first_occurrences_fill_a_table_within_the_span_bound(monkeypatch, n, lo, extra, route):
    # numpy infers the dtype: int64 where every value fits, else object
    values = spread(lo, 4 * n + extra, None, n, draws=n - 3)
    sorts = []
    real = np.argsort

    def spy(keys, **kwargs):
        sorts.append(keys.dtype)
        return real(keys, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    distinct, first, rank = bounds._first_occurrences(values, ranked=True)
    assert sorts == ([] if route == "mask" else [values.dtype])
    assert (distinct.dtype, first.dtype, rank.dtype) == (values.dtype, np.dtype(np.intp), np.dtype(np.intp))
    assert values.dtype == (object if lo == 10**25 else np.int64)
    assert (distinct.tolist(), first.tolist(), rank.tolist()) == first_occurrence_oracle(values.tolist())
    unranked = bounds._first_occurrences(values)
    assert [x.tolist() for x in unranked] == [distinct.tolist(), first.tolist()]


def test_hanson_refuses_a_wide_input_before_building_certificates(monkeypatch):
    def unreachable(a):
        raise AssertionError("certificates built for an input the fold budget refuses")

    monkeypatch.setattr(bounds, "_hanson_certificates", unreachable)
    a = ScalarSet(random.Random(0).sample(range(-10**6, 10**6 + 1), 30))
    with pytest.raises(CapExceededError) as refused:
        hanson_inclusion_check(a)
    assert str(refused.value) == ("fold subtract of 95266 x 436 values predicts 41535976 values, "
                                  "past the budget of 16777216")


def test_plunnecke_worked_examples():
    rep = plunnecke_check(ScalarSet([0, 1]), 1, 1)
    assert rep.lhs == 3
    assert rep.rhs.lo == Fraction(9, 2)
    assert rep.verdict == VERDICT_HOLDS
    rep = plunnecke_check(generate_family(FamilySpec(kind="ap", n=5)), 3, 2)
    assert rep.lhs == 21
    assert rep.rhs.lo == Fraction(59049, 625)
    assert rep.verdict == VERDICT_HOLDS


def test_fold_counts_are_checked_once_with_one_message():
    a = ScalarSet([0, 1, 3])
    message = r"^fold counts must be nonnegative with m \+ n >= 1$"
    for fold in (lambda: plunnecke_check(a, 0, 0), lambda: iterated_combination(0, 0, a),
                 lambda: iterated_combination(-1, 2, a)):
        with pytest.raises(ValueError, match=message):
            fold()


@settings(max_examples=30, deadline=None)
@given(int_sets, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_plunnecke_random(a, m, n):
    if not 1 <= m + n <= 4:
        return
    rep = plunnecke_check(a, m, n)
    assert rep.verdict == VERDICT_HOLDS
    assert rep.lhs <= rep.rhs.lo


def test_abc_worked_example():
    a = ScalarSet([0, 1, 3])
    rep = abc_lower_report(a, a, a)
    assert rep.lhs == 9
    # sqrt(27) lies in (5, 6); the integer bracket is exactly that
    assert (rep.rhs.lo, rep.rhs.hi) == (5, 6)
    assert rep.verdict == VERDICT_HOLDS_WITH_CONSTANT
    assert rep.ratio.lo == Fraction(9, 6) and rep.ratio.hi == Fraction(9, 5)


def test_abc_rhs_is_the_integer_square_root_bracket():
    sets = [ScalarSet(range(k)) for k in (4, 4, 4, 3, 5)]
    exact = abc_lower_report(*sets[:3]).rhs  # |A||B||C| = 64
    assert exact == (Fraction(8), Fraction(8)) and type(exact.lo) is Fraction
    between = abc_lower_report(sets[3], sets[0], sets[4]).rhs  # 3 * 4 * 5 = 60
    assert between == (Fraction(7), Fraction(8)) and type(between.hi) is Fraction


def test_abc_distinct_inputs():
    a, b, c = ScalarSet([0, 1, 3]), ScalarSet([0, 2]), ScalarSet([5])
    rep = abc_lower_report(a, b, c)
    assert rep.lhs == 3  # products {0,2,6} shift to {5,7,11}
    assert rep.witness["sizes"] == (3, 2, 1)


def test_thm1_worked_example():
    rep = thm1_report(ScalarSet([0, 1, 2]))
    assert rep.lhs == 6
    assert rep.verdict == VERDICT_HOLDS_WITH_CONSTANT
    # |D| = 5, so the comparator is 5^(11/10); 6^10 > 5^11 makes the ratio > 1
    assert rep.rhs.lo < rep.rhs.hi
    assert Fraction("587/100") < rep.rhs.lo < rep.rhs.hi < Fraction("588/100")
    assert rep.witness["ratio_at_least_one"] is True
    assert rep.witness["chain_inclusion"] is True
    assert rep.witness["five_fold_size"] <= rep.witness["five_fold_bound"]


def test_thm1_chain_sizes_worked_example():
    rep = thm1_report(ScalarSet([0, 1]))
    assert rep.witness["diff_size"] == 3
    assert rep.witness["square_size"] == 2
    # {2}DD + D^2 = {-2..3} fills the whole five-fold combination
    assert rep.witness["product_shift_size"] == 6
    assert rep.witness["five_fold_size"] == 6


def test_thm1_cap():
    # the fold budget is the chain's one size refusal: a long progression
    # passes it, and 40 integers spread over +-10^6 do not
    rep = thm1_report(generate_family(FamilySpec(kind="ap", n=300)))
    assert rep.verdict == VERDICT_HOLDS_WITH_CONSTANT
    wide = ScalarSet(random.Random(3).sample(range(-10**6, 10**6 + 1), 40))
    with pytest.raises(CapExceededError) as refused:
        thm1_report(wide)
    assert str(refused.value) == ("fold 3D^2 - 2D^2 of 305371 x 781 values predicts 238494751 "
                                  "values, past the budget of 16777216")


class ChainFolded(Exception):
    pass


# 3D^2 - D^2 contains 2D^2 and spans 4 max D^2, so the chain's last fold
# predicts at least min(|2D^2| |D^2|, 5 max D^2 + 1) values.  For ap(1900)
# that is 5 * 1899^2 + 1, past the budget, and the chain is refused once
# D^2 + D^2 exists, before any of its own folds; for ap(1830) it is
# 5 * 1829^2 + 1, inside the budget, and the chain goes on to fold.
@pytest.mark.parametrize("n, refused", [(1900, True), (1830, False)])
def test_thm1_refuses_its_last_fold_before_the_chain_folds(monkeypatch, n, refused):
    def folded(*args):
        raise ChainFolded
    monkeypatch.setattr(bounds, "pairwise_combine", folded)
    ap = generate_family(FamilySpec(kind="ap", n=n))
    if refused:
        with pytest.raises(CapExceededError) as err:
            thm1_report(ap)
        assert str(err.value) == ("fold 3D^2 - 2D^2 of 1034540 x 1900 values predicts 18031006 "
                                  "values, past the budget of 16777216")
    else:
        with pytest.raises(ChainFolded):
            thm1_report(ap)


def test_guth_katz_known_brackets():
    rep = guth_katz_ratio(ScalarSet([0, 1, 2, 4]))
    assert rep.lhs == 15
    lo, hi = rep.ratio.lo, rep.ratio.hi
    assert Fraction("129/100") < lo <= hi < Fraction("131/100")


@pytest.mark.parametrize("include_zero", [True, False])
def test_too_few_points_or_elements_raise_one_error_type(include_zero):
    # one point has no bisector, so no K is formed: |d(P)| = 0 without the zero distance
    with pytest.raises(TooFewPointsError, match="^bisector weights need at least two points$"):
        thm2_report(PlanarPointSet([(0, 0)]), include_zero=include_zero)
    with pytest.raises(TooFewPointsError, match="^log ratio needs at least two elements$"):
        guth_katz_ratio(ScalarSet([5]))


def test_thm2_grid3():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    rep, sub = thm2_report(g3)
    assert rep.ratio.lo == rep.ratio.hi == Fraction(16, 9)
    assert rep.verdict == VERDICT_HOLDS_WITH_CONSTANT
    assert rep.flags == ()
    assert rep.witness["K"] == Fraction(3, 2)
    assert len(sub.subset) == 6


def test_thm2_vacuous_case():
    rep, sub = thm2_report(PlanarPointSet([(0, 0), (1, 0)]))
    assert "vacuous-K" in rep.flags
    assert rep.ratio.lo == 2
    assert len(sub.subset) == 2


def test_thm2_zero_convention_changes_k():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    with_zero, _ = thm2_report(g3, include_zero=True)
    without, _ = thm2_report(g3, include_zero=False)
    assert with_zero.witness["K"] == Fraction(3, 2)
    assert without.witness["K"] == Fraction(9, 5)


# thm2 and st both read |d(P)|; on one point set it is sorted once, by the
# first of them, and both reports equal those made on fresh copies of the set.
@pytest.mark.parametrize("points", [
    generate_family(FamilySpec(kind="grid", n=6)).points,
    random_point_set(random.Random(4), 30, bound=20).points,
], ids=["grid6", "random30"])
@pytest.mark.parametrize("include_zero", [True, False])
def test_reports_sort_the_distances_once_per_point_set(monkeypatch, points, include_zero):
    calls = []
    real = planar._distinct_upper_distances

    def spy(xs, ys, reach):
        calls.append(len(xs))
        return real(xs, ys, reach)
    monkeypatch.setattr(planar, "_distinct_upper_distances", spy)
    p = PlanarPointSet(points)
    wmap = bisector_weight_map(p)
    got = (thm2_report(p, include_zero=include_zero, weight_map=wmap), st_bound_report(p, wmap))
    assert calls == [len(points)]
    fresh = [PlanarPointSet(points) for _ in range(2)]
    assert got == (thm2_report(fresh[0], include_zero=include_zero),
                   st_bound_report(fresh[1], bisector_weight_map(fresh[1])))
    assert len(calls) == 3


def test_thm2_takes_the_given_weight_map_and_refuses_another_sets():
    p = random_point_set(random.Random(5), 30, bound=12)
    assert thm2_report(p) == thm2_report(p, weight_map=bisector_weight_map(p))
    other = PlanarPointSet([(x + 1, y) for x, y in p.points])
    with pytest.raises(MismatchedInputsError):
        thm2_report(p, weight_map=bisector_weight_map(other))


def test_product_identity_report():
    rep = product_identity_report(ScalarSet([0, 1, 3]))
    assert rep.verdict == VERDICT_HOLDS
    assert rep.lhs == rep.rhs.lo


def test_reports_are_deterministic():
    rng = random.Random(8)
    a = random_scalar_set(rng, 10, bound=50)
    r1 = hanson_inclusion_check(a)
    r2 = hanson_inclusion_check(a)
    assert r1 == r2
