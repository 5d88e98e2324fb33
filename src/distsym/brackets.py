"""Rational brackets for irrational comparators.

Quantities such as |D|^(11/10), sqrt(n) and log(n) are irrational in
general, so every comparison against them goes through a rational interval
[lo, hi] that provably contains the true value.  Intervals come from exact
integer root extraction and from a truncated atanh series with an explicit
tail bound.  No floating point enters any of these computations.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple


class Bracket(NamedTuple):
    """Closed rational interval guaranteed to contain an exact real value."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def exact_bracket(value) -> Bracket:
    f = Fraction(value)
    return Bracket(f, f)


def int_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for x >= 0, n >= 1, in integer arithmetic."""
    if x < 0:
        raise ValueError("negative radicand")
    if n < 1:
        raise ValueError("root order must be >= 1")
    if n == 1 or x in (0, 1):
        return x
    if n == 2:
        return math.isqrt(x)
    # Newton iteration started above the root; the sequence is decreasing
    # until it crosses, after which the fix-up loops settle the floor.
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def nth_root_bracket(x, n: int, digits: int = 8) -> Bracket:
    """Bracket x ** (1/n) within 10**-digits; exact for perfect powers.

    Soundness: with S = 10**digits and t = floor(x * S**n), the returned
    pair r/S, (r+1)/S satisfies (r/S)**n <= x < ((r+1)/S)**n.
    """
    xf = Fraction(x)
    if xf < 0:
        raise ValueError("negative radicand")
    if xf == 0:
        return exact_bracket(0)
    rn = int_nth_root(xf.numerator, n)
    rd = int_nth_root(xf.denominator, n)
    if rn ** n == xf.numerator and rd ** n == xf.denominator:
        root = Fraction(rn, rd)
        return Bracket(root, root)
    scale = 10 ** digits
    t = (xf.numerator * scale ** n) // xf.denominator
    r = rn if t == xf.numerator else int_nth_root(t, n)
    return Bracket(Fraction(r, scale), Fraction(r + 1, scale))


def sqrt_bracket(x, digits: int = 8) -> Bracket:
    return nth_root_bracket(x, 2, digits)


def _atanh_series_bracket(z: Fraction, tol: Fraction) -> Bracket:
    """2 * atanh(z) = 2 * sum z^(2k+1) / (2k+1), truncated once the geometric
    tail bound 2 z^(2k+1) / ((2k+1)(1 - z^2)) drops below tol."""
    if not 0 <= z < 1:
        raise ValueError("series needs 0 <= z < 1")
    if z == 0:
        return exact_bracket(0)
    total = Fraction(0)
    term = z
    z2 = z * z
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= z2
        k += 1
        tail = 2 * term / ((2 * k + 1) * (1 - z2))
        if tail < tol:
            return Bracket(2 * total, 2 * total + tail)


@functools.cache
def _ln2() -> Bracket:
    # ln 2 = 2 atanh(1/3); cached very tight so that e * ln2 stays sharp
    # for any exponent e this package ever sees.
    return _atanh_series_bracket(Fraction(1, 3), Fraction(1, 10 ** 40))


def ln_bracket(x, digits: int = 12) -> Bracket:
    """Bracket the natural log of a positive rational within ~10**-digits."""
    xf = Fraction(x)
    if xf <= 0:
        raise ValueError("log of a nonpositive value")
    if xf == 1:
        return exact_bracket(0)
    if xf < 1:
        inner = ln_bracket(1 / xf, digits)
        return Bracket(-inner.hi, -inner.lo)
    exponent = 0
    m = xf
    while m >= 2:
        m /= 2
        exponent += 1
    series = _atanh_series_bracket((m - 1) / (m + 1), Fraction(1, 10 ** digits))
    ln2 = _ln2()
    return Bracket(exponent * ln2.lo + series.lo, exponent * ln2.hi + series.hi)


def ratio_bracket(numerator, comparator: Bracket) -> Bracket:
    """numerator / comparator for nonnegative numerator, positive comparator."""
    num = Fraction(numerator)
    if comparator.lo <= 0:
        raise ValueError("comparator bracket must be positive")
    if num < 0:
        raise ValueError("numerator must be nonnegative")
    return Bracket(num / comparator.hi, num / comparator.lo)
