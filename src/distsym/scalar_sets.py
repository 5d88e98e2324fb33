"""Exact finite-set algebra over the rationals.

A set is stored once, as integers: a sorted array of distinct numerators
over one common denominator L, reduced so that gcd(L, every numerator) = 1.
Every operation lifts its operands to a common denominator and runs on those
integer arrays.  The magnitude guards pick only the dtype: int64 while every
intermediate provably fits, numpy object arrays of Python ints past that.
Elements are exposed as Python ints and Fractions (denominator-1 values are
ints); floats are rejected at the boundary.  A subset test lifts both sets to
the superset's denominator and merges their numerators, in their own dtype,
with one stable sort, which finds the two sorted runs and merges them in
linear time; a membership test is one search.

Every pair kernel of the package, here and in the planar modules, takes its
blocks from row_blocks, of about _CACHE_BLOCK values each, and reads runs of
equal sorted values with run_starts (or, where only runs of two or more
count, with repeat_runs).  The kernels that read only the pairs i < j, the
squared-distance set and the bisector weight map, cut each block of rows to
the columns from its first row on.  dedup_route alone picks how the folds,
the squared-distance set and the Hanson first occurrences deduplicate their
values, from their density (pair values per position of their span) and
nothing else: sparse values by a sort; dense sums and differences, and any
of Python ints, by a Python-int bitset; every other value, of either dtype,
by scattering its offsets from the minimum into a mask.  The folds and the
squared-distance set write their blocks into distinct_values, which takes
the mask or its one sorting buffer; Python-int values there are sorted as a
list, so timsort merges the sorted prefix the buffer keeps with the new
blocks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Literal, Union

import numpy as np

from .errors import CapExceededError, EmptyInputError

Scalar = Union[int, Fraction]
CombineOp = Literal["add", "subtract", "multiply"]

# int64 arithmetic stays exact as long as every intermediate fits; the
# per-operation guards below compare actual magnitudes against this margin.
_I64_LIMIT = 1 << 62
# values in the first size of the buffer of distinct_values' sort route,
# which serves int64 values too sparse for the mask and Python ints: every
# block is written into it and sorted once while all of them fit (a fold of
# up to 2^22 pair values, the distances of up to 2860 points), else it is
# deduplicated in place before it grows.  In process (2-core host, numpy 2.4,
# best of 3 to 5), a larger size would spare 4000 random points in +-10^6,
# whose distances are nearly all distinct, the sort at the half-way point
# (0.21 s at 2^23 against 0.33 s); that is not a benchmark job.
_CHUNK = 1 << 22
# values per block of every pair kernel (row_blocks).  At int64 a block is
# 512 KiB (256 KiB for the radius-class pass's 32-bit rows), so it and its one
# or two temporaries of the same shape stay inside a 2 MiB L2.  A _CHUNK block
# of int64 distances at N = 4000 is 33.5 MB, and in the planar benchmark's job
# list (2-core host, numpy 2.4) isosceles_count at N = 4000 on int64 rows took
# 0.30-0.39 s and 37.9k minor page faults per call with _CHUNK blocks, and
# none with these (sorting 0.141 -> 0.108 s, the distance arithmetic 0.164 ->
# 0.033 s); of 2^14 to 2^22 values, 2^14 to 2^16 were fastest, 2^16 by a
# little.  In process, best of 9, the radius-class pass took 61.7, 57.6,
# 55.7, 58.9 and 58.5 ms at 2^14 to 2^18 values on 4000 random points in
# +-10^6, and 5.4, 5.1, 5.2, 6.1 and 8.1 ms on grid(30).  The bisector weight
# map, which writes its blocks into columns allocated once for all pairs, is
# as fast on these blocks as on _CHUNK ones (median of 7 processes' best of
# 30: 53.8 against 53.7 ms on 1000 random points in +-10^6, 115.9 against
# 114.0 ms on grid(40)), and the squared-distance set cut from these blocks
# is as fast as on rectangles of a full block each (10.2 against 10.8 ms on
# those 1000 points).
# planar._sq_dist_rows writes its blocks into two buffers made once per call,
# so a fresh process faults about 220 pages per such call (0.17 s), not the
# 27.5k (0.26 s) of a fresh pair of arrays per block.
_CACHE_BLOCK = 1 << 16


def row_blocks(n_rows: int, width: int):
    """Slices covering range(n_rows), clipped to it, each of at most
    max(1, _CACHE_BLOCK // width) rows, so that a (rows, width) block of pair
    values stays near _CACHE_BLOCK values.  _CACHE_BLOCK is read at each
    call."""
    step = max(1, _CACHE_BLOCK // width)
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Indices where a run of equal entries begins, for equal-length keys
    sorted jointly (lexicographically, first key most significant)."""
    new = np.empty(len(keys[0]), dtype=bool)
    new[:1] = True
    # the first key writes in place, sparing a temporary the size of the keys
    np.not_equal(keys[0][1:], keys[0][:-1], out=new[1:])
    for k in keys[1:]:
        new[1:] |= k[1:] != k[:-1]
    return np.flatnonzero(new)


def repeat_runs(v: np.ndarray) -> np.ndarray:
    """Lengths, in order, of the maximal runs of two or more equal adjacent
    entries of v (sorted, or sorted rows laid end to end); runs of one entry
    are skipped.  Read from the positions where an entry equals its
    successor: a maximal stretch of g consecutive such positions is a run of
    g + 1 entries."""
    eq = np.flatnonzero(v[1:] == v[:-1])
    ends = np.flatnonzero(eq[1:] != eq[:-1] + 1) + 1
    return np.diff(np.concatenate(([0], ends, [len(eq)]))) + 1 if len(eq) else eq


def as_scalar(value) -> Scalar:
    """Normalise to the canonical exact form: int, or Fraction in lowest terms."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def clear_denominators(values):
    """(ints, L): canonical scalars times their least common denominator L."""
    values = list(values)
    # exact type tests: isinstance(v, Fraction) runs ABCMeta's check on ints
    den = math.lcm(*(v.denominator for v in values if type(v) is not int))
    if den == 1:
        return values, 1
    return [v * den if type(v) is int else v.numerator * (den // v.denominator)
            for v in values], den


def int_dtype(bound: int):
    """int64 when every value is at most bound in magnitude and the bound is
    inside the exact-int64 guard, else object (Python ints)."""
    return np.int64 if bound < _I64_LIMIT else object


def _end_bound(nums) -> int:
    # largest magnitude of a sorted sequence sits at one of its ends
    return max(abs(int(nums[0])), abs(int(nums[-1]))) if len(nums) else 0


class ScalarSet:
    """Canonically sorted, deduplicated set of exact rationals, held as
    sorted integer numerators over one reduced common denominator."""

    __slots__ = ("_nums", "_den", "_elems")

    def __init__(self, values: Iterable = ()):
        nums, den = clear_denominators({as_scalar(v) for v in values})
        nums.sort()
        self._init(np.array(nums, dtype=int_dtype(_end_bound(nums))), den)

    def _init(self, nums: np.ndarray, den: int) -> None:
        self._nums = nums
        self._den = den
        self._elems = None

    @classmethod
    def _from_numerators(cls, nums: np.ndarray, den: int) -> "ScalarSet":
        """Trusted constructor: nums strictly increasing.  Reduces the
        fraction nums / den and settles the dtype of the stored array."""
        if not len(nums):
            den = 1
        elif den != 1:
            g = math.gcd(den, int(np.gcd.reduce(nums)))
            if g != 1:
                nums, den = nums // g, den // g
        if nums.dtype == object and _end_bound(nums) < _I64_LIMIT:
            nums = nums.astype(np.int64)
        s = cls.__new__(cls)
        s._init(nums, den)
        return s

    @property
    def numerators(self) -> np.ndarray:
        """Sorted integer numerators: int64 inside the guard, else object."""
        return self._nums

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def elements(self) -> tuple:
        if self._elems is None:
            vals = self._nums.tolist()
            if self._den != 1:
                vals = [as_scalar(Fraction(v, self._den)) for v in vals]
            self._elems = tuple(vals)
        return self._elems

    @property
    def max_abs(self):
        return as_scalar(Fraction(_end_bound(self._nums), self._den))

    def _lifted(self, k: int, dtype) -> np.ndarray:
        # numerators over the denominator k * L
        nums = self._nums.astype(dtype, copy=False)
        return nums if k == 1 else nums * k

    def _bound(self, k: int = 1) -> int:
        # magnitude bound of _lifted(k), counting k itself as an operand
        return max(_end_bound(self._nums), 1) * k

    def issubset(self, other: "ScalarSet") -> bool:
        if not self:
            return True
        # every denominator of a subset divides the superset's L
        if not other or other._den % self._den:
            return False
        k = other._den // self._den
        dt = int_dtype(max(self._bound(k), other._bound()))
        mine, theirs = self._lifted(k, dt), other._lifted(1, dt)
        if mine[0] < theirs[0] or mine[-1] > theirs[-1]:
            return False
        # both arrays are strictly increasing, so a stable sort of the two
        # laid end to end is one merge of two runs, and every value they share
        # is exactly one pair of equal neighbours
        merged = np.concatenate((mine, theirs))
        merged.sort(kind="stable")
        return int(np.count_nonzero(merged[1:] == merged[:-1])) == len(mine)

    def __len__(self):
        return len(self._nums)

    def __iter__(self):
        return iter(self.elements)

    def __bool__(self):
        return len(self._nums) > 0

    def __contains__(self, value):
        # value * L must be an integer inside the numerators' range, found
        # among them by one search
        num = Fraction(as_scalar(value)) * self._den
        nums = self._nums
        if num.denominator != 1 or not self or not nums[0] <= num.numerator <= nums[-1]:
            return False
        return bool(nums[np.searchsorted(nums, num.numerator)] == num.numerator)

    def __eq__(self, other):
        if isinstance(other, ScalarSet):
            return self._den == other._den and np.array_equal(self._nums, other._nums)
        return NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        elems = self.elements
        if len(elems) > 8:
            shown = ", ".join(map(str, elems[:8]))
            return f"ScalarSet([{shown}, ...] n={len(elems)})"
        return f"ScalarSet([{', '.join(map(str, elems))}])"


_NP_OPS = {"add": np.add, "subtract": np.subtract, "multiply": np.multiply}


def _require_nonempty(*sets: ScalarSet) -> None:
    for s in sets:
        if not s:
            raise EmptyInputError("operation requires nonempty input sets")


# dedup_route's one constant, a density: sort past this many positions of
# the span per pair value, and take the bitset for int64 sums and differences
# from this many pair values per position on.  Measured in process on random
# sums (2-core host, numpy 2.4, best of 3 to 5), ms on the bitset / mask /
# sort:
#
#   shorter x longer     4 positions per pair  1 per position      4 pairs per position
#   10 x 10^4            3.42 / 1.49 / 1.74    0.83 / 0.45 / 1.19  0.14 / 0.36 / 1.12
#   100 x 10^4           53.9 / 10.4 / 12.2    8.70 / 3.50 / 11.8  1.39 / 2.08 / 11.7
#   1000 x 1000          145 / 9.97 / 13.2     33.8 / 4.68 / 13.5  8.05 / 3.52 / 12.9
#   1000 x 10^4          1850 / 133 / 1040     449 / 82.5 / 751    79.2 / 46.5 / 268
#   Python ints 100 x 10^4   89.8 / 132 / 308  52.9 / 114 / 329    12.8 / 89.6 / 335
#   Python ints 1000 x 1000  189 / 149 / 370   83.8 / 107 / 449    26.0 / 84.2 / 410
#
# At 4 positions per pair value the mask beat the sort on every shape, as on
# products and d(P) (1.1-2.4x; even at 8).  On int64 sums the bitset
# overtook the mask between 1 and 4 pair values per position for shorter
# operands of 10 and 100 values, and only near 16 for 1000 (2.8 against
# 2.6 ms on 1000 x 1000, 20.3 against 22.2 on 1000 x 10^4).  Python-int sums
# took the bitset 1.2-23x faster than their mask within the sort bound, but
# for 1000 x 1000 at 4 positions per pair.
_DENSE_SPAN_PER_PAIR = 4


def dedup_route(pairs: int, span: int, sums: bool = False, objects: bool = False) -> str:
    """'bitset', 'mask' or 'sort' to deduplicate pairs values spanning span,
    by their density alone: past _DENSE_SPAN_PER_PAIR positions per pair value
    they sort; sums and differences (sums) take the bitset from
    _DENSE_SPAN_PER_PAIR pair values per position on, or wherever their values
    are Python ints (objects); every other value takes the mask."""
    if span > _DENSE_SPAN_PER_PAIR * pairs:
        return "sort"
    if sums and (objects or pairs >= _DENSE_SPAN_PER_PAIR * span):
        return "bitset"
    return "mask"


def _sorted_unique(scratch: np.ndarray) -> np.ndarray:
    # sorts the (freshly computed) array in place and keeps the first of each
    # run; numpy 2's unique hashes int64 values, many times slower.  Python
    # ints are sorted as a list and written back: timsort merges the sorted
    # prefix that distinct_values keeps in its buffer with the new blocks,
    # where numpy's object sort would sort it again
    v = scratch.ravel()
    if v.dtype == object:
        lst = v.tolist()
        lst.sort()
        v[:] = lst
        del lst  # one pointer array alive while the runs are read
    else:
        v.sort()
    return v[run_starts(v)]


def _mask_values(sizes, dtype, write, lo: int, hi: int) -> np.ndarray:
    # distinct_values' mask route: each block is written into one buffer of
    # the largest block, offset by lo, cast to intp (Python ints too: every
    # offset indexes the mask) and scattered into a bool mask of the span,
    # and one flatnonzero reads the values off in order, in dtype
    buf = np.empty(max(sizes), dtype=dtype)
    mask = np.zeros(hi - lo + 1, dtype=bool)
    for i, size in enumerate(sizes):
        out = buf[:size]
        write(i, out)
        out -= lo
        mask[out.astype(np.intp, copy=False)] = True
    found = np.flatnonzero(mask).astype(dtype, copy=False)
    found += lo
    return found


def distinct_values(sizes, dtype, write, lo: int, hi: int) -> np.ndarray:
    """Sorted distinct values, in dtype, of the blocks that write(i, out)
    writes straight into out, block i of sizes[i] values, all in [lo, hi].
    The values take the mask route (_mask_values) where dedup_route picks
    it, Python ints too.  Otherwise every block is a slice of one buffer,
    which holds all the blocks when they fit _CHUNK values, for one sort,
    else as many leading ones as fit.  When the next block would not fit,
    the buffer is sorted and deduplicated in place and keeps its distinct
    prefix; only when that leaves no room does it grow, twice over but never
    past what is left to write, so past its first size it stays below twice
    the distinct values and two blocks."""
    if dedup_route(sum(sizes), hi - lo) == "mask":
        return _mask_values(sizes, dtype, write, lo, hi)
    cap = max(sizes)
    for done in itertools.accumulate(sizes):
        if done > _CHUNK:
            break
        cap = max(cap, done)
    buf = np.empty(cap, dtype=dtype)
    filled, left = 0, sum(sizes)
    for i, size in enumerate(sizes):
        if filled + size > len(buf):
            distinct = _sorted_unique(buf[:filled])
            filled = len(distinct)
            buf[:filled] = distinct
            del distinct  # before the buffer may grow
            if filled + size > len(buf):
                grown = np.empty(min(2 * len(buf), filled + left), dtype=dtype)
                grown[:filled] = buf[:filled]
                buf = grown
        write(i, buf[filled:filled + size])
        filled += size
        left -= size
    return _sorted_unique(buf[:filled])


def _bitset_sum(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Sorted distinct x + y over x in ua, y in ub (both sorted), in their
    dtype.  The longer operand's offsets from its minimum become one Python-int
    bitset, shifted by each offset of the shorter operand and ORed together;
    offsets are Python ints, so no int64 guard applies."""
    small, big = (ua, ub) if len(ua) <= len(ub) else (ub, ua)
    lo = int(big[0])
    mask = np.zeros(int(big[-1]) - lo + 1, dtype=bool)
    mask[(big - lo).astype(np.int64, copy=False)] = True
    bits = int.from_bytes(np.packbits(mask, bitorder="little"), "little")
    acc = 0
    for s in (small - small[0]).tolist():
        acc |= bits << s
    packed = np.frombuffer(acc.to_bytes((acc.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    offsets = np.flatnonzero(np.unpackbits(packed, bitorder="little")).astype(ua.dtype, copy=False)
    offsets += lo + int(small[0])
    return offsets


# The most values a fold may be predicted to yield; past it the fold is
# refused before it allocates.  Peak bytes per predicted value (ru_maxrss,
# distinct values): 36 on the int64 sort route, 12-16 on the mask (3.0-4.8
# per predicted value on D.D and D^2 + D^2 of ap(1000) and ap(1830)), 170 on
# Python ints, 240 in the Hanson certificates.  2^24 values is 2 GiB at 128
# each, 16.8 times the largest fold of the tests, verify, the sweeps and the
# benchmarks (1000 x 1000 products).
_FOLD_VALUE_BUDGET = 1 << 24


def check_fold_budget(fold: str, m: int, n: int, predicted: int) -> None:
    """Refuse, before it allocates, a fold of m x n values predicted to yield
    more than _FOLD_VALUE_BUDGET values."""
    if predicted > _FOLD_VALUE_BUDGET:
        raise CapExceededError(f"fold {fold} of {m} x {n} values predicts {predicted} values, "
                               f"past the budget of {_FOLD_VALUE_BUDGET}")


def _unique_outer(ua: np.ndarray, ub: np.ndarray, ufunc) -> np.ndarray:
    """Sorted distinct ufunc(x, y) over x in ua, y in ub (both sorted), within
    the value budget, by dedup_route's route: sums and differences (a sum
    once b is negated) may take the bitset, and every other fold writes its
    pair values, block by block, into distinct_values."""
    pairs, fold = len(ua) * len(ub), ufunc.__name__
    if ufunc is np.subtract:
        # a - b is a plus the negated, reversed (so again sorted) b
        ufunc, ub = np.add, -ub[::-1]
    if ufunc is np.multiply:
        corners = [int(x) * int(y) for x in (ua[0], ua[-1]) for y in (ub[0], ub[-1])]
        lo, hi = min(corners), max(corners)
    else:
        lo, hi = int(ua[0]) + int(ub[0]), int(ua[-1]) + int(ub[-1])
    check_fold_budget(fold, len(ua), len(ub), min(pairs, hi - lo + 1))
    if dedup_route(pairs, hi - lo, ufunc is np.add, ua.dtype == object) == "bitset":
        return _bitset_sum(ua, ub)
    blocks = list(row_blocks(len(ua), len(ub)))
    return distinct_values([(rows.stop - rows.start) * len(ub) for rows in blocks], ua.dtype,
                           lambda i, out: ufunc.outer(ua[blocks[i]], ub, out=out.reshape(-1, len(ub))),
                           lo, hi)


def pairwise_combine(a: ScalarSet, b: ScalarSet, op: CombineOp) -> ScalarSet:
    """All values x op y over x in a, y in b, deduplicated."""
    if op not in _NP_OPS:
        raise ValueError(f"unknown combine op: {op!r}")
    _require_nonempty(a, b)
    if op == "multiply":
        den, ka, kb = a._den * b._den, 1, 1
        bound = a._bound() * b._bound()
    else:
        den = math.lcm(a._den, b._den)
        ka, kb = den // a._den, den // b._den
        bound = a._bound(ka) + b._bound(kb)
    dt = int_dtype(bound)
    nums = _unique_outer(a._lifted(ka, dt), b._lifted(kb, dt), _NP_OPS[op])
    return ScalarSet._from_numerators(nums, den)


def difference_set(a: ScalarSet) -> ScalarSet:
    """All pairwise differences of a with itself; contains 0, symmetric about it."""
    return pairwise_combine(a, a, "subtract")


def iterated_combination(m: int, n: int, a: ScalarSet) -> ScalarSet:
    """m-fold sumset minus n-fold sumset of a, folded left one combine at a time."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("fold counts must be nonnegative with m + n >= 1")
    _require_nonempty(a)
    if m >= 1:
        acc, adds, subs = a, m - 1, n
    else:
        # 0A - nA starts from the negated set and subtracts n - 1 more times
        acc, adds, subs = dilate(-1, a), 0, n - 1
    for _ in range(adds):
        acc = pairwise_combine(acc, a, "add")
    for _ in range(subs):
        acc = pairwise_combine(acc, a, "subtract")
    return acc


def dilate(scale, a: ScalarSet) -> ScalarSet:
    """Elementwise multiples {scale * x}; collapses to {0} when scale is 0."""
    _require_nonempty(a)
    lam = Fraction(as_scalar(scale))
    if lam == 0:
        return ScalarSet([0])
    p = lam.numerator
    out = a._lifted(p, int_dtype(a._bound(abs(p))))
    if p < 0:
        out = out[::-1]
    return ScalarSet._from_numerators(out, a._den * lam.denominator)


def elementwise_square(a: ScalarSet) -> ScalarSet:
    """Squares of the elements; sign information collapses."""
    _require_nonempty(a)
    ua = a._lifted(1, int_dtype(a._bound() ** 2))
    return ScalarSet._from_numerators(_sorted_unique(ua * ua), a._den ** 2)


def ab_plus_c_set(a: ScalarSet, b: ScalarSet, c: ScalarSet) -> ScalarSet:
    """{x*y + z : x in a, y in b, z in c}, product set first, then the shift."""
    _require_nonempty(a, b, c)
    return pairwise_combine(pairwise_combine(a, b, "multiply"), c, "add")
