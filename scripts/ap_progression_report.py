#!/usr/bin/env python3
"""Sweep the product-set chain over arithmetic progressions.

Progressions are the tight case for sum-difference growth, so the ratio
column here is the one to watch when hunting for near-violations.
Progressions past the chain cap are kept as rows marked skipped, as in
`distsym sweep`.  Writes CSV to stdout or --out.
"""

import argparse
import io
import sys

from distsym.bounds import thm1_report
from distsym.errors import CapExceededError
from distsym.families import FamilySpec, generate_family
from distsym.reports import BOUND_CSV_HEADER, bound_csv_row, write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=48)
    ap.add_argument("--step", type=int, default=1, help="progression common difference")
    ap.add_argument("--out")
    args = ap.parse_args()

    rows = []
    for n in range(3, args.max_n + 1):
        fam = generate_family(FamilySpec(kind="ap", n=n, step=args.step))
        try:
            rows.append((f"ap({n})", *bound_csv_row(thm1_report(fam))))
        except CapExceededError:
            rows.append((f"ap({n})", "thm1", "", "", "", "", "", "skipped"))

    buf = io.StringIO()
    write_csv(buf, ("input", *BOUND_CSV_HEADER), rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


if __name__ == "__main__":
    main()
