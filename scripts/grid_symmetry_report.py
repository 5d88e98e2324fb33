#!/usr/bin/env python3
"""Per-grid symmetry extraction next to the incidence-side numbers.

For each n x n grid this prints the heaviest bisector, the size of the
mirror-symmetric subset it certifies, and the weighted-incidence report,
so the w_max >= c K^3 behaviour is visible line by line.
"""

import argparse

from distsym.bisectors import bisector_weight_map
from distsym.bounds import thm2_report
from distsym.families import FamilySpec, generate_family
from distsym.incidence import st_bound_report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=10)
    ap.add_argument("--include-fixed-points", action="store_true")
    args = ap.parse_args()

    print(f"{'grid':>8} {'N':>5} {'axis':>14} {'w_max':>6} {'subset':>6} "
          f"{'K':>8} {'ratio':>12} {'T':>9} {'rhs_ceil':>9}")
    for n in range(2, args.max_n + 1):
        p = generate_family(FamilySpec(kind="grid", n=n))
        wm = bisector_weight_map(p)
        rep, sub = thm2_report(
            p, include_fixed_points=args.include_fixed_points, weight_map=wm
        )
        inc = st_bound_report(p, wm)
        axis = f"{sub.axis.a} {sub.axis.b} {sub.axis.c}"
        print(f"{f'grid({n})':>8} {len(p):>5} {axis:>14} {sub.weight:>6} "
              f"{len(sub.subset):>6} {str(rep.witness['K']):>8} "
              f"{float(rep.ratio.lo):>12.4f} {inc.triples:>9} {inc.rhs_ceil:>9}")


if __name__ == "__main__":
    main()
