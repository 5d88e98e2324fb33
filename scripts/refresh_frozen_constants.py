#!/usr/bin/env python3
"""Recompute the pinned regression constants and print exact literals.

The test suite freezes three corpus-wide extremes as Fraction strings.
After an intentional change to the corpora or the reports, run this and
paste the printed values into tests/conftest.py.
"""

from distsym.bisectors import bisector_weight_map
from distsym.bounds import abc_lower_report, thm1_report
from distsym.corpus import abc_ratio_corpus, st_ratio_corpus
from distsym.families import FamilySpec, generate_family
from distsym.incidence import st_bound_report


def main() -> None:
    worst = None
    for label, p in st_ratio_corpus():
        hi = st_bound_report(p, bisector_weight_map(p)).ratio.hi
        if worst is None or hi > worst[1]:
            worst = (label, hi)
    print(f'ST_RATIO_MAX = Fraction("{worst[1]}")  # {worst[0]}')

    best = None
    for label, a, b, c in abc_ratio_corpus():
        lo = abc_lower_report(a, b, c).ratio.lo
        if best is None or lo < best[1]:
            best = (label, lo)
    print(f'ABC_RATIO_MIN = Fraction("{best[1]}")  # {best[0]}')

    tmin = None
    for n in range(3, 65):
        lo = thm1_report(generate_family(FamilySpec(kind="ap", n=n))).ratio.lo
        if tmin is None or lo < tmin[1]:
            tmin = (n, lo)
    print(f'THM1_AP_RATIO_MIN = Fraction("{tmin[1]}")  # ap({tmin[0]})')


if __name__ == "__main__":
    main()
