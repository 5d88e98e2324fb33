"""Shared oracles, the frozen regression constants and their corpora.

The three Fraction literals below are corpus-wide extremes, asserted
exactly by test_acceptance.py::test_c7_frozen_ratio_regressions.  Do not
relax them to make a failing run pass; a change means either the corpora or
the arithmetic changed.  After an intentional change, c7's failure message
prints the new literals to paste here.
"""

import random
from collections import Counter
from fractions import Fraction

from distsym import scalar_sets
from distsym.bisectors import perpendicular_bisector
from distsym.families import FamilySpec, generate_family, random_point_set, random_scalar_set

# worst observed I_w / rhs over st_ratio_corpus, attained by grid(7)
ST_RATIO_MAX = Fraction("2488/6321")

# smallest observed |AB+C| / sqrt(|A||B||C|) over abc_ratio_corpus, at ap(4)^3
ABC_RATIO_MIN = Fraction("13/8")

# smallest |D^2+D^2| / |D|^(11/10) over ap(3)..ap(64), attained at ap(3)
THM1_AP_RATIO_MIN = Fraction("6250000/6117807")


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


def per_pair_weights(p):
    """Bisector weights counted one ordered pair at a time with
    perpendicular_bisector, independently of bisector_weight_map."""
    counts = Counter()
    for u in p.points:
        for v in p.points:
            if u != v:
                counts[perpendicular_bisector(u, v)] += 1
    return dict(counts)


def rows_dtype(weights):
    """The dtype a weight map stores these lines in: int64 when every entry
    of every canonical row fits int_dtype, else object."""
    return scalar_sets.int_dtype(max(abs(v) for line in weights for v in line))


def sorted_dtypes(monkeypatch):
    """(dtype, length) of every array that scalar_sets._sorted_unique sorts,
    the sorts of the folds' sort route and of the distance set among them."""
    seen = []
    real = scalar_sets._sorted_unique

    def spy(values):
        seen.append((values.dtype, len(values)))
        return real(values)
    monkeypatch.setattr(scalar_sets, "_sorted_unique", spy)
    return seen
