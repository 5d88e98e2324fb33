"""Shared oracles and the frozen regression constants.

The three Fraction literals below were computed once from the fixed corpora
(scripts/refresh_frozen_constants.py reprints them) and are asserted as hard
bounds thereafter.  Do not relax them to make a failing run pass; a crossing
means either the corpora or the arithmetic changed.
"""

from collections import Counter
from fractions import Fraction

from distsym.bisectors import perpendicular_bisector

# worst observed I_w / rhs over st_ratio_corpus, attained by grid(7)
ST_RATIO_MAX = Fraction("2488/6321")

# smallest observed |AB+C| / sqrt(|A||B||C|) over abc_ratio_corpus, at ap(4)^3
ABC_RATIO_MIN = Fraction("13/8")

# smallest |D^2+D^2| / |D|^(11/10) over ap(3)..ap(64), attained at ap(3)
THM1_AP_RATIO_MIN = Fraction("6250000/6117807")


def per_pair_weights(p):
    """Bisector weights counted one ordered pair at a time with
    perpendicular_bisector, independently of bisector_weight_map."""
    counts = Counter()
    for u in p.points:
        for v in p.points:
            if u != v:
                counts[perpendicular_bisector(u, v)] += 1
    return dict(counts)
