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
    FamilySpec,
    generate_family,
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
    rows = [
        _product_identity(seed, 20 * scale, corrupt),
        _triple_equivalence(seed + 1, 12 * scale, corrupt),
        _inclusion(seed + 2, 10 * scale, corrupt),
        _fold_growth(seed + 3, 10 * scale, corrupt),
        _reflection(seed + 4, 150 * scale, corrupt),
        _weights_vs_reflections(seed + 5, 8 * scale, corrupt),
        _canonical_rescaling(seed + 6, 150 * scale, corrupt),
    ]
    return VerificationResult(rows)


def _product_identity(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    for t in range(trials):
        if t % 3 == 2:
            a = random_rational_scalar_set(rng, rng.randint(2, 12))
        else:
            a = random_scalar_set(rng, rng.randint(2, 16))
        _, lhs, rhs = verify_product_identity(a)
        if corrupt and t == 0:
            rhs = ScalarSet(rhs.elements[1:])  # negative control
        if lhs != rhs:
            return PropertyResult("product-identity", t + 1, False, f"disagree on {a!r}")
    return PropertyResult("product-identity", trials, True)


def _triple_equivalence(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    for t in range(trials):
        if t % 3 == 2:
            p = random_rational_point_set(rng, rng.randint(3, 14))
        else:
            p = random_point_set(rng, rng.randint(3, 18), bound=30)
        fast = isosceles_count(p)
        brute = isosceles_count_brute(p)
        scanned = weighted_incidences(p, bisector_weight_map(p)) if len(p) >= 2 else fast
        if corrupt and t == 0:
            fast += 1  # negative control
        if not (fast == brute == scanned):
            return PropertyResult(
                "triple-equivalence",
                t + 1,
                False,
                f"routes disagree: {fast} / {brute} / {scanned}",
            )
    return PropertyResult("triple-equivalence", trials, True)


def _inclusion(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    for t in range(trials):
        a = random_scalar_set(rng, rng.randint(2, 14), bound=60)
        expected = VERDICT_VIOLATED if corrupt and t == 0 else VERDICT_HOLDS  # negative control
        if hanson_inclusion_check(a).verdict != expected:
            return PropertyResult("difference-product-inclusion", t + 1, False, f"violated on {a!r}")
    return PropertyResult("difference-product-inclusion", trials, True)


def _fold_growth(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    pairs = [(m, n) for m in range(0, 4) for n in range(0, 4) if 1 <= m + n <= 4]
    for t in range(trials):
        a = random_scalar_set(rng, rng.randint(2, 12), bound=80)
        expected = VERDICT_VIOLATED if corrupt and t == 0 else VERDICT_HOLDS  # negative control
        for m, n in pairs:
            if plunnecke_check(a, m, n).verdict != expected:
                return PropertyResult(
                    "fold-growth", t + 1, False, f"violated at m={m} n={n} on {a!r}"
                )
    return PropertyResult("fold-growth", trials, True)


def _reflection(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    damage = corrupt
    for t in range(trials):
        p = (Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
        q = (Fraction(rng.randint(-40, 40), rng.randint(1, 5)),
             Fraction(rng.randint(-40, 40), rng.randint(1, 5)))
        if p == q:
            continue
        line = perpendicular_bisector(p, q)
        image = p if damage else q  # negative control
        damage = False
        # the bisector swaps its defining pair, and reflecting twice is identity
        if reflect_point(line, p) != image or reflect_point(line, reflect_point(line, q)) != q:
            return PropertyResult("reflection-involution", t + 1, False, f"failed for {p}, {q}")
    return PropertyResult("reflection-involution", trials, True)


def _weights_vs_reflections(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    for t in range(trials):
        p = random_point_set(rng, rng.randint(3, 16), bound=8)
        wmap = bisector_weight_map(p)
        extra = 1 if corrupt and t == 0 else 0  # negative control
        for line, w in wmap.items():
            w += extra
            back = sum(
                1
                for pt in p
                if (r := reflect_point(line, pt)) != pt and r in p
            )
            if back != w:
                return PropertyResult(
                    "weights-vs-reflections", t + 1, False, f"w={w} but {back} reflections"
                )
    return PropertyResult("weights-vs-reflections", trials, True)


def _canonical_rescaling(seed: int, trials: int, corrupt: bool = False) -> PropertyResult:
    rng = random.Random(seed)
    damage = corrupt
    for t in range(trials):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        if a == 0 and b == 0:
            continue
        lam = Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 7))
        shift = 1 if damage else 0  # negative control: a parallel line
        damage = False
        if canonical_line(a, b, c) != canonical_line(lam * a, lam * b, lam * c + shift):
            return PropertyResult("canonical-rescaling", t + 1, False, f"({a}, {b}, {c})")
    return PropertyResult("canonical-rescaling", trials, True)


# frozen families used by the regression constants and the ratio corpora

def st_ratio_corpus():
    """Fixed labelled point sets for the incidence-ratio regression."""
    out = []
    for n in range(2, 9):
        out.append((f"grid({n})", generate_family(FamilySpec(kind="grid", n=n))))
    rng = random.Random(96251)
    for size in (10, 25, 50, 100, 150, 200):
        for rep in range(3):
            out.append((f"random({size},{rep})", random_point_set(rng, size, bound=10 * size)))
    out.append(("triangle", generate_family(FamilySpec(kind="cartesian_of", base=FamilySpec(kind="ap", n=2)))))
    return out


def abc_ratio_corpus():
    """Fixed labelled triples for the AB + C ratio regression."""
    rng = random.Random(70424)
    out = []
    for rep in range(12):
        a = random_scalar_set(rng, rng.randint(3, 16), bound=90)
        b = random_scalar_set(rng, rng.randint(3, 16), bound=90)
        c = random_scalar_set(rng, rng.randint(3, 16), bound=90)
        out.append((f"triple({rep})", a, b, c))
    for n in (4, 8, 16):
        ap = generate_family(FamilySpec(kind="ap", n=n))
        out.append((f"ap({n})^3", ap, ap, ap))
    return out
