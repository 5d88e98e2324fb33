import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sorted_dtypes
import distsym.scalar_sets as scalar_sets_module
from distsym.errors import CapExceededError, EmptyInputError
from distsym.scalar_sets import (
    _I64_LIMIT,
    ScalarSet,
    ab_plus_c_set,
    as_scalar,
    difference_set,
    dilate,
    elementwise_square,
    int_dtype,
    iterated_combination,
    pairwise_combine,
    row_blocks,
)

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-100, max_value=100, max_denominator=12),
)
scalar_sets = st.lists(scalars, min_size=1, max_size=24).map(ScalarSet)
small_sets = st.lists(scalars, min_size=1, max_size=10).map(ScalarSet)


def test_as_scalar_normalises_integral_fractions():
    assert as_scalar(Fraction(4, 2)) == 2
    assert isinstance(as_scalar(Fraction(4, 2)), int)
    assert as_scalar(Fraction(1, 3)) == Fraction(1, 3)


def test_as_scalar_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)


def test_construction_sorts_and_dedups():
    s = ScalarSet([3, 1, 1, Fraction(2, 1), 3])
    assert s.elements == (1, 2, 3)
    assert len(s) == 3
    assert 2 in s and 5 not in s


def test_membership_searches_the_numerators():
    a = ScalarSet([Fraction(1, 6), Fraction(1, 2), 2, -5])  # L = 6
    assert all(x in a for x in (2, -5, Fraction(1, 2), Fraction(2, 12), np.int64(2)))
    assert Fraction(1, 3) not in a  # 1/3 * L is an integer, but not a numerator
    assert Fraction(1, 4) not in a and Fraction(5, 7) not in a  # 4 and 7 do not divide L
    assert 7 not in a and -6 not in a and 10**25 not in a and -(10**25) not in a
    assert 0 not in ScalarSet([])
    big = ScalarSet([-3, Fraction(1, 3), 10**25])
    assert big.numerators.dtype == object
    assert all(x in big for x in (-3, Fraction(1, 3), 10**25))
    assert 10**25 + 1 not in big and 0 not in big and Fraction(10**25, 7) not in big
    for bad in (0.5, 2.0, True):
        with pytest.raises(TypeError):
            bad in a


def test_difference_set_worked_example():
    assert difference_set(ScalarSet([0, 1, 3])).elements == (-3, -2, -1, 0, 1, 2, 3)


def test_pairwise_combine_worked_examples():
    a = ScalarSet([0, 1, 3])
    assert pairwise_combine(a, a, "add").elements == (0, 1, 2, 3, 4, 6)
    assert pairwise_combine(a, a, "multiply").elements == (0, 1, 3, 9)
    with pytest.raises(ValueError):
        pairwise_combine(a, a, "divide")


def test_iterated_combination_worked_examples():
    a = ScalarSet([0, 1])
    assert iterated_combination(2, 2, a).elements == (-2, -1, 0, 1, 2)
    assert iterated_combination(1, 0, a) == a
    assert iterated_combination(0, 1, a).elements == (-1, 0)
    assert iterated_combination(0, 2, a).elements == (-2, -1, 0)


def test_iterated_combination_rejects_bad_folds():
    a = ScalarSet([1])
    with pytest.raises(ValueError):
        iterated_combination(0, 0, a)
    with pytest.raises(ValueError):
        iterated_combination(-1, 2, a)


def test_dilate():
    a = ScalarSet([0, 1, 3])
    assert dilate(2, a).elements == (0, 2, 6)
    assert dilate(-1, a).elements == (-3, -1, 0)
    assert dilate(0, a).elements == (0,)
    assert dilate(Fraction(1, 2), a).elements == (0, Fraction(1, 2), Fraction(3, 2))


def test_elementwise_square():
    assert elementwise_square(ScalarSet([-2, 1, 3])).elements == (1, 4, 9)
    # squaring collapses sign pairs
    assert elementwise_square(ScalarSet([-1, 1])).elements == (1,)


def test_ab_plus_c():
    a = ScalarSet([0, 1])
    assert ab_plus_c_set(a, a, a).elements == (0, 1, 2)


def test_empty_inputs_raise():
    with pytest.raises(EmptyInputError):
        difference_set(ScalarSet([]))
    with pytest.raises(EmptyInputError):
        pairwise_combine(ScalarSet([]), ScalarSet([1]), "add")


def test_issubset():
    assert ScalarSet([1, 3]).issubset(ScalarSet([0, 1, 2, 3]))
    assert not ScalarSet([1, Fraction(7, 2)]).issubset(ScalarSet([1, 3]))


# issubset merges the two numerator arrays and counts equal neighbours; the
# oracle is Python's set comparison.  Each superset is tried against an empty
# set, one element, subsets of several sizes and subsets with one value moved
# below the minimum, above the maximum or into a gap.  int64-guard-edge holds
# +-(2^62 - 1), the widest int64 numerators, so its span is 2^63 - 2.
SUBSET_CASES = {
    "int64": [3 * k for k in range(-40, 41)],
    "int64-wide-span": [(k << 55) + 1 for k in range(-60, 61)],
    "int64-guard-edge": [-(2**62 - 1), 2**62 - 1] + [5 * k for k in range(-10, 11)],
    "1e25": [10**25 * k + 7 for k in range(-30, 31)],
    "1e25-narrow-span": [10**25 + 3 * k for k in range(-40, 41)],
    "mixed-denominators": [Fraction(k, 6) for k in range(-30, 31, 5)] + [Fraction(k, 4) for k in range(9)],
}


@pytest.mark.parametrize("values", SUBSET_CASES.values(), ids=SUBSET_CASES.keys())
def test_issubset_matches_python_sets(values):
    theirs = ScalarSet(values)
    elems = list(theirs.elements)
    low, high = elems[0] - 1, elems[-1] + 1
    gap = as_scalar((Fraction(elems[3]) + elems[4]) / 2)
    rng = random.Random(5)
    candidates = [[], [elems[0]], [elems[-1]], [elems[7]], elems, elems[1:-1],
                  [low], [high], [gap], elems + [high], [low] + elems[2:], elems[:3] + [gap]]
    candidates += [rng.sample(elems, k) for k in (2, 5, len(elems) // 2)]
    candidates += [rng.sample(elems, 4) + [x] for x in (low, high, gap)]
    for chosen in candidates:
        mine = ScalarSet(chosen)
        assert mine.issubset(theirs) == (set(mine.elements) <= set(elems)), chosen
        assert theirs.issubset(mine) == (set(elems) <= set(mine.elements)), chosen
    assert ScalarSet([]).issubset(ScalarSet([])) and not theirs.issubset(ScalarSet([]))


@pytest.mark.parametrize("values", SUBSET_CASES.values(), ids=SUBSET_CASES.keys())
def test_membership_matches_python_sets(values):
    s = ScalarSet(values)
    elems = s.elements
    outside = [elems[0] - 1, elems[-1] + 1, Fraction(elems[0] + elems[1], 2),
               Fraction(1, 7), Fraction(elems[2]) + Fraction(1, 7 * s.denominator), -(10**30), 10**30]
    for x in list(elems) + outside:
        assert (x in s) == (x in set(elems)), x
    assert 0 not in ScalarSet([]) and Fraction(1, 3) not in ScalarSet([])


def test_huge_magnitudes_fall_back_to_exact_path():
    big = 10**25
    a = ScalarSet([0, big, -big])
    d = difference_set(a)
    assert d.elements == (-2 * big, -big, 0, big, 2 * big)
    p = pairwise_combine(a, a, "multiply")
    assert big * big in p and -(big * big) in p


OPS = {"add": operator.add, "subtract": operator.sub, "multiply": operator.mul}


def comprehension(a, b, f):
    """Oracle: f over every pair of elements, in plain Python arithmetic."""
    return tuple(sorted({as_scalar(f(x, y)) for x in a.elements for y in b.elements}))


@given(small_sets, small_sets)
def test_combine_matches_comprehension(a, b):
    for op, f in OPS.items():
        assert pairwise_combine(a, b, op).elements == comprehension(a, b, f)


# With _CACHE_BLOCK at 40, 40 rows of 13 values go in 14 blocks of 3 rows,
# the last one of 1, and with _CHUNK at 200 the buffer takes 5 of them.  The
# 137 products of two short ranges, one stretched by 9 so that their span
# passes 4 per pair value and keeps them on the sort route, repeat, so the
# buffer is deduplicated on the way and never grows; the 435 of random values
# fill it, so it grows.  At 10^25 the operands and products are Python ints.
def test_combine_across_several_blocks(monkeypatch):
    monkeypatch.setattr(scalar_sets_module, "_CHUNK", 200)
    monkeypatch.setattr(scalar_sets_module, "_CACHE_BLOCK", 40)
    assert [s.stop - s.start for s in row_blocks(40, 13)] == [3] * 13 + [1]
    seen = sorted_dtypes(monkeypatch)
    rng = random.Random(8)
    for values, grows in ((range(-180, 180, 9), False), (rng.sample(range(-500, 500), 40), True)):
        for scale, dtype in ((1, np.int64), (10**25, object)):
            a = ScalarSet(v * scale for v in values)
            b = ScalarSet([Fraction(k, 3) * scale for k in range(-6, 7)])
            seen.clear()
            assert pairwise_combine(a, b, "multiply").elements == comprehension(a, b, operator.mul)
            assert {dt for dt, _ in seen} == {np.dtype(dtype)}
            assert len(seen) > 2
            assert (max(size for _, size in seen) > 200) == grows
            for op in ("add", "subtract"):
                assert pairwise_combine(a, b, op).elements == comprehension(a, b, OPS[op])
            assert difference_set(a).elements == comprehension(a, a, operator.sub)


# The unstretched ranges' products, numerators over 3 from -120 to 120, span
# 240 over 520 pairs and take the mask route: each of the 14 blocks is
# written into one buffer of 3 rows and scattered, and nothing is sorted.
def test_mask_route_across_several_blocks(monkeypatch):
    monkeypatch.setattr(scalar_sets_module, "_CACHE_BLOCK", 40)
    seen = sorted_dtypes(monkeypatch)
    filled = []
    real = scalar_sets_module._mask_values

    def spy(sizes, dtype, write, lo, hi):
        filled.append((len(sizes), max(sizes), lo, hi))
        return real(sizes, dtype, write, lo, hi)
    monkeypatch.setattr(scalar_sets_module, "_mask_values", spy)
    a, b = ScalarSet(range(-20, 20)), ScalarSet([Fraction(k, 3) for k in range(-6, 7)])
    assert pairwise_combine(a, b, "multiply").elements == comprehension(a, b, operator.mul)
    assert filled == [(14, 39, -120, 120)]
    assert seen == []


# int64 operands whose products pass the guard: the fold runs on Python ints
# and the 40 x 13 random products fill the 200-value buffer several times.
# Object values are sorted as a list, so timsort merges the distinct prefix
# the buffer keeps with the new blocks; the spy sees every sort take the
# object route and bounds the values sorted by a small multiple of the pairs.
def test_fold_crossing_into_object_dtype_refills_the_buffer(monkeypatch):
    monkeypatch.setattr(scalar_sets_module, "_CHUNK", 200)
    monkeypatch.setattr(scalar_sets_module, "_CACHE_BLOCK", 40)
    seen = sorted_dtypes(monkeypatch)
    rng = random.Random(12)
    a = ScalarSet(v << 31 for v in rng.sample(range(-500, 500), 40))
    b = ScalarSet([Fraction(k << 31, 3) for k in range(-6, 7)])
    assert a.numerators.dtype == b.numerators.dtype == np.int64
    pairs = len(a) * len(b)
    got = pairwise_combine(a, b, "multiply")
    assert got.numerators.dtype == object
    assert got.elements == comprehension(a, b, operator.mul)
    assert {dt for dt, _ in seen} == {np.dtype(object)}
    assert len(seen) >= 3
    assert sum(size for _, size in seen) <= 3 * pairs


# D.D of ap(1500) takes 2999^2 = 9.0M products in 143 blocks, 1,094,987 of
# them distinct.  Their span, 4.5M, takes the mask route; forced onto the sort
# route, the buffer starts at _CHUNK values and is deduplicated in place
# before it grows, so the fold peaks near 48 MiB traced, below the 72 MiB of
# its 9.0M int64 pair values.  Both stay within two _CHUNK buffers.
def test_product_fold_peak_stays_within_two_chunks():
    d = difference_set(ScalarSet(range(1500)))
    tracemalloc.start()
    try:
        dd = pairwise_combine(d, d, "multiply")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dd) == 1094987
    assert peak <= 2 * scalar_sets_module._CHUNK * 8


def test_product_fold_peak_stays_within_two_chunks_on_the_sort_route(monkeypatch):
    monkeypatch.setattr(scalar_sets_module, "dedup_route", lambda *args, **kwargs: "sort")
    test_product_fold_peak_stays_within_two_chunks()


@given(scalar_sets)
def test_difference_set_invariants(a):
    d = difference_set(a)
    assert 0 in d
    assert d.elements == tuple(-x for x in reversed(d.elements))
    assert len(d) >= 2 * len(a) - 1


@given(st.integers(min_value=2, max_value=40))
def test_difference_set_tight_on_progressions(n):
    ap = ScalarSet(range(0, 3 * n, 3))
    assert len(difference_set(ap)) == 2 * n - 1


@given(scalar_sets, scalar_sets)
def test_sumset_size_lower_bound(a, b):
    assert len(pairwise_combine(a, b, "add")) >= len(a) + len(b) - 1


@given(scalar_sets, scalars)
def test_dilate_preserves_cardinality(a, lam):
    if lam == 0:
        return
    assert len(dilate(lam, a)) == len(a)


@settings(max_examples=40)
@given(small_sets, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_iterated_combination_matches_direct_enumeration(a, m, n):
    if m + n == 0 or m + n > 4:
        return
    got = iterated_combination(m, n, a)
    elems = a.elements
    acc = {0}
    for _ in range(m):
        acc = {x + y for x in acc for y in elems}
    for _ in range(n):
        acc = {x - y for x in acc for y in elems}
    assert set(got.elements) == {as_scalar(v) for v in acc}


def test_random_cross_check_numpy_vs_object_path():
    # adjoining 1/7 lifts the set to denominator 7; integer sums must survive unchanged
    rng = random.Random(4)
    for _ in range(25):
        xs = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 15))]
        a = ScalarSet(xs)
        b = ScalarSet(list(xs) + [Fraction(1, 7)])
        fast = pairwise_combine(a, a, "add")
        slow = pairwise_combine(b, b, "add")
        assert set(fast.elements) <= set(slow.elements)
        assert len(slow) == len(fast) + len(a) + 1


# Each magnitude guard picks the dtype, int64 below its limit and Python-int
# object arrays from it on.  Inputs sit at limit - 1, limit and limit + 1 of
# the guarded magnitude, which is also the largest magnitude of each result.
EDGES = (_I64_LIMIT - 1, _I64_LIMIT, _I64_LIMIT + 1)
F62_MINUS = (2**31 - 1, 2**31 + 1)  # factors of 2^62 - 1
F62_PLUS = (5, (2**62 + 1) // 5)  # factors of 2^62 + 1


def expected_dtype(edge):
    return np.int64 if edge < _I64_LIMIT else object


@pytest.mark.parametrize("edge", EDGES)
def test_add_and_subtract_at_the_int64_guard(edge):
    x = edge // 2
    a = ScalarSet([0, 3, x])
    for op, b in (("add", ScalarSet([0, 1, edge - x])), ("subtract", ScalarSet([x - edge, -1, 0]))):
        got = pairwise_combine(a, b, op)
        assert got.elements == comprehension(a, b, OPS[op])
        assert max(got.elements) == edge
        assert got.numerators.dtype == expected_dtype(edge)


@pytest.mark.parametrize("edge, factors", [
    (_I64_LIMIT - 1, F62_MINUS), (_I64_LIMIT, (2**31, 2**31)), (_I64_LIMIT + 1, F62_PLUS)])
def test_multiply_and_dilate_at_the_int64_guard(edge, factors):
    x, y = factors
    assert x * y == edge
    a, b = ScalarSet([-1, 0, x]), ScalarSet([0, 2, y])
    got = pairwise_combine(a, b, "multiply")
    assert got.elements == comprehension(a, b, operator.mul)
    assert got.numerators.dtype == expected_dtype(edge)
    for scale in (x, -x, Fraction(x, 7)):
        got = dilate(scale, b)
        assert got.elements == tuple(sorted(as_scalar(scale * v) for v in b.elements))
        assert got.numerators.dtype == expected_dtype(edge)


@pytest.mark.parametrize("root", (2**31 - 1, 2**31, 2**31 + 1))
def test_square_and_difference_set_at_the_int64_guard(root):
    # (2^31)^2 = 2^62 is the guard; no square sits one away from it
    a = ScalarSet([-root, 1, root])
    got = elementwise_square(a)
    assert got.elements == tuple(sorted({x * x for x in a.elements}))
    assert got.numerators.dtype == expected_dtype(root * root)
    half = _I64_LIMIT // 2 + root - 2**31  # the guard 2 * half is limit - 2, limit, limit + 2
    a = ScalarSet([-half, 0, 5, half])
    got = difference_set(a)
    assert got.elements == comprehension(a, a, operator.sub)
    assert got.numerators.dtype == expected_dtype(2 * half)


@pytest.mark.parametrize("edge", EDGES)
def test_rationals_lifted_across_the_int64_guard(edge):
    # lifting to the common denominator 15 multiplies the numerators by 5 and 3
    y = next(y for y in range(edge // 6, edge // 6 + 5) if (edge - 3 * y) % 5 == 0)
    x = (edge - 3 * y) // 5
    a, b = ScalarSet([Fraction(x, 3), Fraction(1, 3)]), ScalarSet([Fraction(y, 5), Fraction(2, 5)])
    got = pairwise_combine(a, b, "add")
    assert got.denominator == 15
    assert got.elements == comprehension(a, b, operator.add)
    assert got.numerators.dtype == expected_dtype(edge)
    assert a.issubset(pairwise_combine(a, ScalarSet([0, Fraction(1, 5)]), "add"))


def test_representation_is_canonical():
    a = ScalarSet([Fraction(1, 6), Fraction(1, 2), 2])
    assert a.denominator == 6 and a.numerators.tolist() == [1, 3, 12]
    # differences of halves reduce back to denominator 1
    d = difference_set(ScalarSet([Fraction(1, 2), Fraction(3, 2)]))
    assert d.denominator == 1 and d.elements == (-1, 0, 1)
    big = pairwise_combine(ScalarSet([_I64_LIMIT]), ScalarSet([-_I64_LIMIT, -1]), "add")
    assert big.elements == (0, _I64_LIMIT - 1)
    assert big.numerators.dtype == np.int64  # an object result that fits is stored as int64
    assert dilate(10**20, ScalarSet([0])).elements == (0,)


# dedup_route sends sums and differences to the bitset while, per pair
# value, the fold's bitset words, len(small) * (span >> 6), are at most
# _BITSET_WORDS_PER_PAIR and its span at most _DENSE_SPAN_PER_PAIR; past the
# words bound int64 values take the mask, while Python ints, which have no
# mask, keep the bitset; past the span bound every fold sorts.  Each fold
# below is put at threshold - 1, at it and + 1 of one bound by a
# monkeypatched (Fraction) constant, with the other bound lifted out of the
# way.
BIG = 10**25
ASYM_A, ASYM_B = ScalarSet([0, 1, 5, 40, 300, 301, 302]), ScalarSet(range(0, 90, 4))
ROUTE_FOLDS = {
    "negatives": (ScalarSet(range(-900, -100, 7)), ScalarSet(range(-400, 0, 3)), "add"),
    "rational-lifts": (ScalarSet(Fraction(k, 6) for k in range(-300, 300, 7)),
                       ScalarSet(Fraction(k, 10) for k in range(0, 500, 3)), "add"),
    "rational-difference-set": (ScalarSet(Fraction(k * k, 4) for k in range(-20, 25)), None, "subtract"),
    "a-minus-b": (ASYM_A, ASYM_B, "subtract"),
    "b-minus-a": (ASYM_B, ASYM_A, "subtract"),
    "one-element": (ScalarSet([Fraction(-7, 2)]), ScalarSet(range(0, 2000, 3)), "subtract"),
    "element-minus-one": (ScalarSet(range(0, 2000, 3)), ScalarSet([5]), "subtract"),
    "one-element-wide-span": (ScalarSet([3]), ScalarSet(range(0, 256 * 300, 256)), "add"),
    "near-1e25-add": (ScalarSet(BIG + k for k in range(0, 700, 9)),
                      ScalarSet(-BIG - k for k in range(0, 300, 4)), "add"),
    "near-1e25-subtract": (ScalarSet(BIG + k for k in range(0, 700, 9)),
                           ScalarSet(-BIG - k for k in range(0, 300, 4)), "subtract"),
    **{f"int64-edge{edge - _I64_LIMIT:+d}-{op}": (
        ScalarSet(range(edge - 700, edge - 199, 5)), ScalarSet(range(-200, 201, 4)), op)
       for edge in EDGES for op in ("add", "subtract")},
}


def fold_cost(a, b):
    """Both sides of the cost model for a fold, from the elements: the
    bitset's 64-bit words (the shorter operand's length times the result's
    span over the common denominator, over 64) and that span."""
    den = math.lcm(a.denominator, b.denominator)
    span = int((max(a.elements) - min(a.elements) + max(b.elements) - min(b.elements)) * den)
    return {"words": min(len(a), len(b)) * (span >> 6), "span": span}


def fold_dtype(a, b):
    """The dtype pairwise_combine picks for a sum or difference of a and b."""
    den = math.lcm(a.denominator, b.denominator)
    return int_dtype(a._bound(den // a.denominator) + b._bound(den // b.denominator))


BOUNDS = {"words": "_BITSET_WORDS_PER_PAIR", "span": "_DENSE_SPAN_PER_PAIR"}


def recording(fn, route, taken):
    def spy(*args):
        taken.append(route)
        return fn(*args)
    return spy


def spy_routes(monkeypatch):
    """The routes the folds take, in order: one entry per fold, as long as
    its sort route sorts once."""
    taken = []
    for name, route in (("_bitset_sum", "bitset"), ("_mask_values", "mask"), ("_sorted_unique", "sort")):
        monkeypatch.setattr(scalar_sets_module, name,
                            recording(getattr(scalar_sets_module, name), route, taken))
    return taken


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("case", ROUTE_FOLDS)
def test_routes_agree_at_the_cost_threshold(monkeypatch, case, bound):
    a, b, op = ROUTE_FOLDS[case]
    other = a if b is None else b
    taken = spy_routes(monkeypatch)
    cost = fold_cost(a, other)[bound]
    assert cost > 0
    pairs = len(a) * len(other)
    for name in BOUNDS.values():
        monkeypatch.setattr(scalar_sets_module, name, 2**64)
    expected = comprehension(a, other, OPS[op])
    past = {"span": "sort", "words": "bitset" if fold_dtype(a, other) is object else "mask"}[bound]
    results = []
    for threshold, route in ((cost + 1, "bitset"), (cost, "bitset"), (cost - 1, past)):
        monkeypatch.setattr(scalar_sets_module, BOUNDS[bound], Fraction(threshold, pairs))
        taken.clear()
        got = difference_set(a) if b is None else pairwise_combine(a, b, op)
        assert taken == [route]
        assert got.elements == expected
        results.append(got)
    for got in results[1:]:
        assert got.denominator == results[0].denominator
        assert got.numerators.dtype == results[0].numerators.dtype
        assert got.numerators.tolist() == results[0].numerators.tolist()


# Products never take the bitset: within the span bound int64 ones take the
# mask and Python ints the sort, and past it both sort.  The corners of each
# product set its span: negative corners, rational lifts, and -1 times values
# up to 2^62 - 1, whose products reach the int64 guard from below.
PRODUCT_FOLDS = {
    "negative-corners": (ScalarSet(range(-30, 25)), ScalarSet(range(-7, 12))),
    "rational-lifts": (ScalarSet(Fraction(k, 6) for k in range(-40, 30, 3)),
                       ScalarSet(Fraction(k, 10) for k in range(-9, 30, 2))),
    "near-int64-guard": (ScalarSet([-1]), ScalarSet(range(_I64_LIMIT - 701, _I64_LIMIT, 7))),
    "near-1e25": (ScalarSet(BIG + k for k in range(0, 70, 9)), ScalarSet(range(-30, 30, 4))),
}


@pytest.mark.parametrize("case", PRODUCT_FOLDS)
def test_product_routes_agree_at_the_span_threshold(monkeypatch, case):
    a, b = PRODUCT_FOLDS[case]
    monkeypatch.setattr(scalar_sets_module, "_CACHE_BLOCK", 64)
    taken = spy_routes(monkeypatch)
    corners = [x * y for x in (min(a.elements), max(a.elements)) for y in (min(b.elements), max(b.elements))]
    span = int((max(corners) - min(corners)) * a.denominator * b.denominator)
    pairs = len(a) * len(b)
    expected = comprehension(a, b, operator.mul)
    dense = "sort" if case == "near-1e25" else "mask"
    for threshold, route in ((span + 1, dense), (span, dense), (span - 1, "sort")):
        monkeypatch.setattr(scalar_sets_module, "_DENSE_SPAN_PER_PAIR", Fraction(threshold, pairs))
        taken.clear()
        assert pairwise_combine(a, b, "multiply").elements == expected
        assert taken == [route]


def test_default_cost_model_routes(monkeypatch):
    taken = spy_routes(monkeypatch)
    ap = ScalarSet(range(0, 3000, 3))
    difference_set(ap)
    pairwise_combine(ap, ScalarSet([10**6, -(10**6)]), "add")  # one short row over a wide span
    pairwise_combine(ap, ap, "multiply")  # span 9.0M over 1M pairs
    # D.D of ap(100): 39601 products spanning 19602
    d = difference_set(ScalarSet(range(100)))
    pairwise_combine(d, d, "multiply")
    # one element against 300: a span of 4 per pair value is the last a
    # dense route takes; at 5 per pair the fold sorts
    pairwise_combine(ScalarSet([3]), ScalarSet(range(0, 4 * 300, 4)), "add")
    pairwise_combine(ScalarSet([3]), ScalarSet(range(0, 5 * 300, 5)), "add")
    # 100 elements step apart, added to themselves: 0.99 words per pair value
    # at step 32, 1.02 at 33 and 4.6 at 150, all within the span bound, and
    # 4.2 span per pair value at 210
    for step in (32, 33, 150, 210):
        spread = ScalarSet(range(0, 100 * step, step))
        pairwise_combine(spread, spread, "add")
    # the same near 10^25 are Python ints, which keep the bitset within the
    # span bound
    for step in (150, 210):
        spread = ScalarSet(range(BIG, BIG + 100 * step, step))
        pairwise_combine(spread, spread, "add")
    assert taken == ["bitset", "sort", "sort", "bitset", "mask", "bitset", "sort",
                     "bitset", "mask", "mask", "sort", "bitset", "sort"]


# The mask route holds a bool per position of the span and one block of
# values, where the sort holds every pair value up to _CHUNK of them: on D.D
# of ap(1000), 4.0M products spanning 2.0M, and on d(P) of grid(64), 8.4M
# squared distances spanning 7938, the mask's traced peak stays below the
# sort's on the same input (6.5 MB against 40 MB, and 1.2 MB against 38 MB).
@pytest.mark.parametrize("case", ["dd-ap1000", "distances-grid64"])
def test_mask_route_peaks_below_the_sort(monkeypatch, case):
    if case == "dd-ap1000":
        d = difference_set(ScalarSet(range(1000)))
        run = lambda: pairwise_combine(d, d, "multiply").numerators
    else:
        from distsym import planar
        from distsym.families import FamilySpec, generate_family
        xs, ys, reach = planar._reduced_lattice(generate_family(FamilySpec(kind="grid", n=64)))[:3]
        run = lambda: planar._distinct_upper_distances(xs, ys, reach)
    peaks, values = {}, {}
    for route in ("mask", "sort"):
        if route == "sort":
            monkeypatch.setattr(scalar_sets_module, "dedup_route", lambda *args, **kwargs: "sort")
        taken = spy_routes(monkeypatch)
        tracemalloc.start()
        try:
            values[route] = run()
            peaks[route] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(taken) == {route}
    assert values["mask"].tolist() == values["sort"].tolist()
    assert peaks["mask"] < peaks["sort"]


@pytest.mark.parametrize("op, side, refused", [
    # 3 x 3 products over corners 0 and 4: 5 values predicted, not 9 pairs
    ("multiply", 3, False),
    ("multiply", 4, True),  # 16 pairs, 10 values over corners 0 and 9
    ("add", 3, False),  # 9 pairs, span 4: 5 values
    ("subtract", 4, True),  # 16 pairs, span 6: 7 values
])
def test_fold_budget_predicts_the_lesser_of_pairs_and_span(monkeypatch, op, side, refused):
    monkeypatch.setattr(scalar_sets_module, "_FOLD_VALUE_BUDGET", 6)
    a = ScalarSet(range(side))
    if refused:
        with pytest.raises(CapExceededError, match=f"fold {op} of {side} x {side} values"):
            pairwise_combine(a, a, op)
    else:
        assert len(pairwise_combine(a, a, op)) <= 5
