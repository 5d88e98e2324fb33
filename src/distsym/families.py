"""Deterministic input families and seeded random corpora.

Every generator is a pure function of its spec, seed included, so a corpus
can be frozen by recording nothing but specs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import RangeTooSmallError
from .planar import PlanarPointSet, cartesian_square
from .scalar_sets import ScalarSet, as_scalar


@dataclass(frozen=True)
class FamilySpec:
    """Recipe for one named input family.

    kind is one of ap, gap2, geometric, random_int, grid, cartesian_of.
    Only the fields a kind reads are meaningful for it; random_int uses
    dim to choose between a scalar set (1) and a planar point set (2).
    """

    kind: str
    n: int = 1
    start: Optional[Union[int, Fraction]] = None  # 1 for geometric, else 0
    step: Union[int, Fraction] = 1
    ratio: Union[int, Fraction] = 2
    n2: int = 2
    d1: Union[int, Fraction] = 1
    d2: Union[int, Fraction] = 1
    coord_range: int = 100
    seed: int = 0
    dim: int = 1
    base: Optional["FamilySpec"] = None


def generate_family(spec: FamilySpec):
    """Materialise a spec into a ScalarSet or PlanarPointSet."""
    if spec.kind == "cartesian_of":
        if spec.base is None:
            raise ValueError("cartesian_of needs a base family")
        base = generate_family(spec.base)
        if not isinstance(base, ScalarSet):
            raise ValueError("cartesian_of base must be a scalar family")
        return cartesian_square(base)

    _check_size(spec.n)
    if spec.kind == "ap":
        step = as_scalar(spec.step)
        if step == 0:
            raise ValueError("ap step must be nonzero")
        start = as_scalar(spec.start or 0)
        return ScalarSet(start + i * step for i in range(spec.n))

    if spec.kind == "gap2":
        _check_size(spec.n2)
        d1, d2 = as_scalar(spec.d1), as_scalar(spec.d2)
        if d1 == 0 or d2 == 0:
            raise ValueError("gap2 generators must be nonzero")
        return ScalarSet(
            i * d1 + j * d2 for i in range(spec.n) for j in range(spec.n2)
        )

    if spec.kind == "geometric":
        start = as_scalar(1 if spec.start is None else spec.start)
        ratio = as_scalar(spec.ratio)
        if start == 0:
            raise ValueError("geometric start must be nonzero")
        if ratio == 0:
            raise ValueError("geometric ratio must be nonzero")
        if abs(ratio) == 1:
            raise ValueError("geometric ratio must not be 1 or -1")
        vals, v = [], start
        for _ in range(spec.n):
            vals.append(v)
            v = v * ratio
        return ScalarSet(vals)

    if spec.kind == "random_int":
        r = spec.coord_range
        if r < 0:
            raise ValueError("coordinate range must be nonnegative")
        rng = random.Random(spec.seed)
        if spec.dim == 1:
            if spec.n > 2 * r + 1:
                raise RangeTooSmallError("range too small for a distinct sample")
            return random_scalar_set(rng, spec.n, bound=r)
        if spec.dim == 2:
            if spec.n > (2 * r + 1) ** 2:
                raise RangeTooSmallError("range too small for distinct points")
            return random_point_set(rng, spec.n, bound=r)
        raise ValueError("dim must be 1 or 2")

    if spec.kind == "grid":
        return cartesian_square(ScalarSet(range(spec.n)))

    raise ValueError(f"unknown family kind: {spec.kind!r}")


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("family size must be >= 1")


# ---------------------------------------------------------------------------
# seeded corpus helpers; callers own the Random instance

def random_scalar_set(rng: random.Random, size: int, bound: int = 100) -> ScalarSet:
    """size distinct integers from [-bound, bound]."""
    return ScalarSet(rng.sample(range(-bound, bound + 1), size))


def random_rational_scalar_set(
    rng: random.Random, size: int, max_numerator: int = 60, max_denominator: int = 6
) -> ScalarSet:
    vals = set()
    while len(vals) < size:
        vals.add(
            Fraction(
                rng.randint(-max_numerator, max_numerator),
                rng.randint(1, max_denominator),
            )
        )
    return ScalarSet(vals)


def random_point_set(rng: random.Random, size: int, bound: int = 100) -> PlanarPointSet:
    pts = set()
    while len(pts) < size:
        pts.add((rng.randint(-bound, bound), rng.randint(-bound, bound)))
    return PlanarPointSet(pts)


def random_rational_point_set(
    rng: random.Random, size: int, max_numerator: int = 50, max_denominator: int = 8
) -> PlanarPointSet:
    pts = set()
    while len(pts) < size:
        x = Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))
        y = Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))
        pts.add((x, y))
    return PlanarPointSet(pts)
