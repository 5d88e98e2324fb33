import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from distsym.brackets import (
    Bracket,
    _ln2,
    exact_bracket,
    int_nth_root,
    ln_bracket,
    nth_root_bracket,
    ratio_bracket,
    sqrt_bracket,
)


def test_exact_bracket_is_degenerate():
    b = exact_bracket(Fraction(7, 3))
    assert b.lo == b.hi == Fraction(7, 3)
    assert b.exact
    assert b.width == 0


def test_int_nth_root_perfect_powers():
    assert int_nth_root(0, 3) == 0
    assert int_nth_root(1, 10) == 1
    assert int_nth_root(8, 3) == 2
    assert int_nth_root(10**30, 10) == 1000
    assert int_nth_root(5**11, 11) == 5


def test_int_nth_root_floor():
    assert int_nth_root(7, 3) == 1
    assert int_nth_root(26, 3) == 2
    assert int_nth_root(27, 3) == 3
    assert int_nth_root(2**62 - 1, 2) == math.isqrt(2**62 - 1)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=17))
def test_int_nth_root_bracket_property(x, n):
    r = int_nth_root(x, n)
    assert r**n <= x
    assert (r + 1) ** n > x


def test_nth_root_bracket_exact_on_perfect_powers():
    b = nth_root_bracket(Fraction(49), 2)
    assert b.exact and b.lo == 7
    b = nth_root_bracket(Fraction(27, 8), 3)
    assert b.exact and b.lo == Fraction(3, 2)


@given(
    st.fractions(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=10),
)
def test_nth_root_bracket_contains_root(x, n, digits):
    b = nth_root_bracket(x, n, digits=digits)
    assert b.lo**n <= x <= b.hi**n
    assert b.width <= Fraction(1, 10**digits)


def test_integer_radicand_is_rooted_once_at_digits_zero(monkeypatch):
    radicands = []

    def counting_root(x, n):
        radicands.append(x)
        return int_nth_root(x, n)

    monkeypatch.setattr("distsym.brackets.int_nth_root", counting_root)
    assert nth_root_bracket(10, 3, digits=0) == (2, 3)
    assert radicands == [10, 1]  # numerator and denominator, nothing scaled
    for x in range(300):
        b = nth_root_bracket(x, 3, digits=0)
        assert b.lo ** 3 <= x <= b.hi ** 3 and b.width <= 1


def test_sqrt_bracket_values():
    b = sqrt_bracket(Fraction(2), digits=10)
    assert b.lo < b.hi
    assert b.lo**2 < 2 < b.hi**2
    assert sqrt_bracket(Fraction(9, 4)).exact


def test_ln_bracket_known_values():
    # the interval is strict in exact arithmetic; float rounding may collapse it
    b = ln_bracket(Fraction(2))
    assert float(b.lo) <= math.log(2) <= float(b.hi)
    assert b.width <= Fraction(1, 10**12)
    assert ln_bracket(Fraction(1)).lo <= 0 <= ln_bracket(Fraction(1)).hi
    # ln 2 is bracketed once, to 10^-40, and that bracket is reused
    assert _ln2() is _ln2()
    assert _ln2().width < Fraction(1, 10**40)


def test_ln_bracket_negates_below_one():
    b = ln_bracket(Fraction(1, 2))
    c = ln_bracket(Fraction(2))
    assert b.lo == -c.hi and b.hi == -c.lo


@given(st.fractions(min_value=Fraction(1, 1000), max_value=1000))
def test_ln_bracket_float_consistency(x):
    if x <= 0:
        return
    b = ln_bracket(x, digits=10)
    ref = math.log(x)
    assert float(b.lo) <= ref + 1e-8
    assert ref - 1e-8 <= float(b.hi)


@given(
    st.fractions(min_value=Fraction(11, 10), max_value=50),
    st.fractions(min_value=Fraction(11, 10), max_value=50),
)
def test_ln_bracket_additivity(x, y):
    # ln(xy) must land inside the exact interval sum of the factors
    bx, by, bxy = ln_bracket(x), ln_bracket(y), ln_bracket(x * y)
    assert bxy.hi >= bx.lo + by.lo
    assert bxy.lo <= bx.hi + by.hi


def test_ln_bracket_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_bracket(Fraction(0))
    with pytest.raises(ValueError):
        ln_bracket(Fraction(-3))


def test_ratio_bracket_against_interval():
    comp = Bracket(Fraction(2), Fraction(3))
    r = ratio_bracket(Fraction(6), comp)
    assert r == Bracket(Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        ratio_bracket(Fraction(1), Bracket(Fraction(0), Fraction(1)))
