"""Seeded verification corpora.

Structural identities and inclusions are re-checked against independent
routes over randomised inputs.  The corpora are pure functions of the seed,
so any reported failure is reproducible from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .bisectors import (
    bisector_weight_map,
    canonical_line,
    perpendicular_bisector,
    reflect_point,
)
from .bounds import VERDICT_HOLDS, VERDICT_VIOLATED, hanson_inclusion_check, plunnecke_check
from .families import (
    random_point_set,
    random_rational_point_set,
    random_rational_scalar_set,
    random_scalar_set,
)
from .incidence import isosceles_count, isosceles_count_brute, weighted_incidences
from .planar import verify_product_identity
from .scalar_sets import ScalarSet


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationResult:
    rows: List[PropertyResult]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)


def verify_corpus(seed: int = 20260816, scale: int = 1, corrupt: bool = False) -> VerificationResult:
    """Run every corpus property; scale multiplies trial counts.

    corrupt flips one expected value of every property on purpose, in its
    first checked trial, as a negative control that each property can fail.
    """
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, not {scale}")
    return VerificationResult([
        _run(name, check, seed + k, trials * scale, corrupt)
        for k, (name, trials, check) in enumerate(_PROPERTIES)
    ])


def _run(name: str, check, seed: int, trials: int, corrupt: bool) -> PropertyResult:
    """Run check(rng, t, damage) for trials t on one rng seeded by seed.

    A check returns None to skip a degenerate draw, "" when the trial holds,
    or the failure detail.  damage, the negative control, is set until the
    first checked trial.
    """
    rng = random.Random(seed)
    damage = corrupt
    for t in range(trials):
        detail = check(rng, t, damage)
        if detail is None:
            continue
        damage = False
        if detail:
            return PropertyResult(name, t + 1, False, detail)
    return PropertyResult(name, trials, True)


def _product_identity(rng, t, damage):
    if t % 3 == 2:
        a = random_rational_scalar_set(rng, rng.randint(2, 12))
    else:
        a = random_scalar_set(rng, rng.randint(2, 16))
    _, lhs, rhs = verify_product_identity(a)
    if damage:
        rhs = ScalarSet(rhs.elements[1:])
    return "" if lhs == rhs else f"disagree on {a!r}"


def _triple_equivalence(rng, t, damage):
    if t % 3 == 2:
        p = random_rational_point_set(rng, rng.randint(3, 14))
    else:
        p = random_point_set(rng, rng.randint(3, 18), bound=30)
    fast = isosceles_count(p) + damage  # the control miscounts by one
    brute = isosceles_count_brute(p)
    scanned = weighted_incidences(p, bisector_weight_map(p))
    return "" if fast == brute == scanned else f"routes disagree: {fast} / {brute} / {scanned}"


def _inclusion(rng, t, damage):
    a = random_scalar_set(rng, rng.randint(2, 14), bound=60)
    expected = VERDICT_VIOLATED if damage else VERDICT_HOLDS
    return "" if hanson_inclusion_check(a).verdict == expected else f"violated on {a!r}"


_FOLDS = [(m, n) for m in range(0, 4) for n in range(0, 4) if 1 <= m + n <= 4]


def _fold_growth(rng, t, damage):
    a = random_scalar_set(rng, rng.randint(2, 12), bound=80)
    expected = VERDICT_VIOLATED if damage else VERDICT_HOLDS
    for m, n in _FOLDS:
        if plunnecke_check(a, m, n).verdict != expected:
            return f"violated at m={m} n={n} on {a!r}"
    return ""


def _reflection(rng, t, damage):
    p = (Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
         Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
    q = (Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
         Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
    if p == q:
        return None
    line = perpendicular_bisector(p, q)
    image = p if damage else q
    # the bisector swaps its defining pair, and reflecting twice is identity
    if reflect_point(line, p) != image or reflect_point(line, reflect_point(line, q)) != q:
        return f"failed for {p}, {q}"
    return ""


def _weights_vs_reflections(rng, t, damage):
    p = random_point_set(rng, rng.randint(3, 16), bound=8)
    for line, w in bisector_weight_map(p).items():
        w += damage  # the control miscounts by one
        back = sum(1 for pt in p if (r := reflect_point(line, pt)) != pt and r in p)
        if back != w:
            return f"w={w} but {back} reflections"
    return ""


def _canonical_rescaling(rng, t, damage):
    a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    b = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    c = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
    if a == 0 and b == 0:
        return None
    lam = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 7))
    shift = 1 if damage else 0  # a parallel line
    if canonical_line(a, b, c) != canonical_line(lam * a, lam * b, lam * c + shift):
        return f"({a}, {b}, {c})"
    return ""


# (name, trials at scale 1, check); a property's rng is seeded by seed + its index
_PROPERTIES = (
    ("product-identity", 20, _product_identity),
    ("triple-equivalence", 12, _triple_equivalence),
    ("difference-product-inclusion", 10, _inclusion),
    ("fold-growth", 10, _fold_growth),
    ("reflection-involution", 150, _reflection),
    ("weights-vs-reflections", 8, _weights_vs_reflections),
    ("canonical-rescaling", 150, _canonical_rescaling),
)
