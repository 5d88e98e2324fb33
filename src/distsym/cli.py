"""Command-line harness.

Subcommands: gen, distset, isosceles, symmetry, check, sweep, verify.
All output is exact (integers and p/q fractions), so identical invocations
produce byte-identical files.  Exit codes: 0 success, 1 a constant-free
claim was violated or verification failed, 2 bad input, an exceeded cap or
running out of memory.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
import time
from pathlib import Path

from .bisectors import bisector_weight_map, extract_symmetric_subset
from .bounds import (
    VERDICT_VIOLATED,
    abc_lower_report,
    guth_katz_ratio,
    hanson_inclusion_check,
    plunnecke_check,
    product_identity_report,
    thm1_report,
    thm2_report,
)
from .corpus import verify_corpus
from .errors import CapExceededError, ParseError, RangeTooSmallError, TooFewPointsError
from .families import FamilySpec, generate_family
from .incidence import (
    BRUTE_CAP_DEFAULT,
    IncidenceReport,
    isosceles_count,
    isosceles_count_brute,
    st_bound_report,
)
from .parsing import (
    format_scalar,
    parse_point_set,
    parse_scalar_set,
    parse_scalar_token,
    point_set_to_text,
    scalar_set_to_text,
)
from .planar import PlanarPointSet, squared_distance_set
from .reports import (
    BOUND_CSV_HEADER,
    INCIDENCE_CSV_HEADER,
    bound_csv_row,
    bound_json_dict,
    dump_json,
    incidence_csv_row,
    incidence_json_dict,
    jsonable,
    symmetric_subset_json_dict,
    write_csv,
)
from .scalar_sets import ScalarSet

OUT_DIR_ENV = "DISTSYM_OUT_DIR"
BISECTOR_MAP_CAP = 5000

SCALAR_FAMILIES = ("ap", "gap2", "geometric", "random-int")
POINT_FAMILIES = ("grid", "random-int", "cartesian-of")
FAMILIES = tuple(dict.fromkeys(SCALAR_FAMILIES + POINT_FAMILIES))


def _emit(args, text: str) -> None:
    """Write text to stdout, or to --out; a relative --out resolves under
    $DISTSYM_OUT_DIR when that is set."""
    if args.out is None:
        sys.stdout.write(text)
        return
    path = Path(os.environ.get(OUT_DIR_ENV) or "", args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _emit_formatted(args, json_payload, csv_table) -> None:
    """Render the output --format asks for and emit it.  Both arguments are
    thunks, so only the requested payload is built: json_payload() returns
    the JSON value, csv_table() a (header, rows) pair."""
    buf = io.StringIO()
    if args.format == "json":
        dump_json(buf, json_payload())
    else:
        write_csv(buf, *csv_table())
    _emit(args, buf.getvalue())


def _read_scalars(path) -> ScalarSet:
    return parse_scalar_set(Path(path).read_text(encoding="utf-8"))


def _read_points(path) -> PlanarPointSet:
    return parse_point_set(Path(path).read_text(encoding="utf-8"))


def _scalar_flag(value: str):
    try:
        return parse_scalar_token(value)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _cap(args, default):
    """The size cap for a command: --max-size, else the default."""
    cap = getattr(args, "max_size", None)
    if cap is None:
        return default
    if cap > default:
        _warn(f"cap raised from {default} to {cap}; runtime and memory grow quickly")
    return cap


def _family_spec(kind: str, args, n: int, dim: int, seed: int) -> FamilySpec:
    """The family the flags describe, at size n; random-int draws in dim
    dimensions with seed.  A cartesian-of base is scalar, drawn with --seed + n."""
    if kind == "cartesian-of":
        return FamilySpec(kind="cartesian_of",
                          base=_family_spec(args.of or "ap", args, n, 1, args.seed + n))
    return FamilySpec(
        kind=kind.replace("-", "_"), n=n,
        start=args.start, step=args.step, ratio=args.ratio, n2=args.n2, d1=args.d1, d2=args.d2,
        coord_range=args.range, seed=seed, dim=dim,
    )


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    fam = generate_family(_family_spec(args.kind, args, args.n, args.dim, args.seed))
    if isinstance(fam, ScalarSet):
        _emit(args, scalar_set_to_text(fam))
    else:
        _emit(args, point_set_to_text(fam))
    return 0


def cmd_distset(args) -> int:
    p = _read_points(args.input)
    ds = squared_distance_set(p, include_zero=args.include_zero_distance)
    _emit_formatted(
        args,
        lambda: {"count": len(ds), **jsonable(ds)},
        lambda: (("squared_distance",), ((format_scalar(x),) for x in ds.squared)),
    )
    return 0


def cmd_isosceles(args) -> int:
    p = _read_points(args.input)
    if args.brute:
        t = isosceles_count_brute(p, cap=_cap(args, BRUTE_CAP_DEFAULT))
    else:
        t = isosceles_count(p)
    _emit_formatted(
        args,
        lambda: {"N": len(p), "T": t},
        lambda: (("N", "T"), [(str(len(p)), str(t))]),
    )
    return 0


def cmd_symmetry(args) -> int:
    p = _read_points(args.input)
    _check_point_cap(len(p), _cap(args, BISECTOR_MAP_CAP))
    sub = extract_symmetric_subset(p, include_fixed_points=args.include_fixed_points)
    _emit_formatted(
        args,
        lambda: symmetric_subset_json_dict(sub),
        lambda: (
            ("axis", "weight", "subset_size", "mirror_size"),
            [
                (
                    jsonable(sub.axis),
                    str(sub.weight),
                    str(len(sub.subset)),
                    str(len(sub.mirror)),
                )
            ],
        ),
    )
    return 0


def _check_point_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"bisector maps capped at {cap} points; pass --max-size to override"
        )


def _abc(data, args):
    b = _read_scalars(args.input_b) if args.input_b else data
    c = _read_scalars(args.input_c) if args.input_c else data
    return abc_lower_report(data, b, c)


# name: (reads points, CSV header, report name, run(data, args) -> report);
# a check that reads points is capped at BISECTOR_MAP_CAP (see _check_cap).
# Each runner looks its report function up when called, so a rebound module
# name holds
CHECKS = {
    "hanson": (False, BOUND_CSV_HEADER, "hanson-inclusion",
               lambda data, args: hanson_inclusion_check(data)),
    "plunnecke": (False, BOUND_CSV_HEADER, "plunnecke",
                  lambda data, args: plunnecke_check(data, args.m, args.n)),
    "abc": (False, BOUND_CSV_HEADER, "abc-lower", _abc),
    "thm1": (False, BOUND_CSV_HEADER, "thm1", lambda data, args: thm1_report(data)),
    "guth-katz": (False, BOUND_CSV_HEADER, "guth-katz",
                  lambda data, args: guth_katz_ratio(data)),
    "product-identity": (False, BOUND_CSV_HEADER, "product-identity",
                         lambda data, args: product_identity_report(data)),
    "thm2": (True, BOUND_CSV_HEADER, "thm2", lambda data, args: thm2_report(
        data, args.include_zero_distance, args.include_fixed_points)[0]),
    "st": (True, INCIDENCE_CSV_HEADER, "st",
           lambda data, args: st_bound_report(data, bisector_weight_map(data))),
}


def _check_cap(name: str, args):
    """The size cap of a named check: the bisector-map cap, or --max-size,
    for a check that reads points; None for a scalar check, whose only size
    rule is the fold budget."""
    return _cap(args, BISECTOR_MAP_CAP) if CHECKS[name][0] else None


def run_check(name: str, args, cap, data=None):
    """One named check on data, or else on the --input file, under the cap
    _check_cap resolved for it.  Returns the report."""
    reads_points, _, _, run = CHECKS[name]
    if data is None:
        data = (_read_points if reads_points else _read_scalars)(args.input)
    if reads_points:
        _check_point_cap(len(data), cap)
    return run(data, args)


def _render(report, witness: bool = True):
    """(csv row, json thunk, violated flag) of a bound or incidence report,
    chosen by its type.  The incidence bound has a constant: never violated."""
    if isinstance(report, IncidenceReport):
        return incidence_csv_row(report), lambda: incidence_json_dict(report), False
    return (bound_csv_row(report), lambda: bound_json_dict(report, include_witness=witness),
            report.verdict == VERDICT_VIOLATED)


def cmd_check(args) -> int:
    header = CHECKS[args.name][1]
    report = run_check(args.name, args, _check_cap(args.name, args))
    row, json_payload, violated = _render(report)
    _emit_formatted(args, json_payload, lambda: (header, [row]))
    return 1 if violated else 0


def _parse_sizes(spec: str):
    lo, _, hi = spec.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError("sizes must look like LO:HI") from None
    if lo < 1 or hi < lo:
        raise ValueError("sizes must satisfy 1 <= LO <= HI")
    return range(lo, hi + 1)


def run_sweep(args):
    """One check across a family size range.  Returns (header, csv rows,
    json rows, violated flag); a size past the cap or the fold budget,
    below the check's minimum or past what a random family's range holds
    becomes a skipped row, not a gap."""
    name = args.check
    reads_points, csv_header, report_name, _ = CHECKS[name]
    families, what = (POINT_FAMILIES, "point") if reads_points else (SCALAR_FAMILIES, "scalar")
    if args.family not in families:
        raise ValueError(f"check {name!r} needs a {what} family, not {args.family!r}")
    cap = _check_cap(name, args)
    header = ["input", *csv_header]
    if "verdict" not in csv_header:
        header.append("status")  # bound rows have their verdict for a status
    rows = []
    json_rows = []
    violated = False
    for size in _parse_sizes(args.sizes):
        label = f"{args.family}({size})"
        started = time.perf_counter()
        try:
            # random-int draws points for a point check, scalars otherwise
            fam = generate_family(
                _family_spec(args.family, args, size, 2 if reads_points else 1, args.seed + size))
            report = run_check(name, args, cap, fam)
        except (CapExceededError, RangeTooSmallError, TooFewPointsError):
            row = [label, *(report_name if col == "name" else "" for col in header[1:-1]), "skipped"]
            json_rows.append({"input": label, "skipped": True})
        else:
            cells, json_payload, row_violated = _render(report, witness=False)
            row = [label, *cells]
            row += ["ok"] * (len(header) - len(row))  # the status column, if any
            json_rows.append({"input": label, "report": json_payload()})
            violated = violated or row_violated
        if args.timings:
            row.append(f"{time.perf_counter() - started:.3f}")
            json_rows[-1]["wall_time_s"] = row[-1]
        rows.append(row)
    if args.timings:
        header.append("wall_time_s")
    return header, rows, json_rows, violated


def cmd_sweep(args) -> int:
    header, rows, json_rows, violated = run_sweep(args)
    _emit_formatted(args, lambda: json_rows, lambda: (header, rows))
    return 1 if violated else 0


def cmd_verify(args) -> int:
    result = verify_corpus(seed=args.seed, scale=args.scale, corrupt=args.self_test_corrupt)
    for row in result.rows:
        status = "ok  " if row.ok else "FAIL"
        line = f"{status} {row.name:32s} {row.trials:4d} trials"
        if row.detail:
            line += f"  ({row.detail})"
        print(line)
    if result.passed:
        print(f"verification PASSED ({len(result.rows)} properties)")
        return 0
    print("verification FAILED")
    return 1


# ---------------------------------------------------------------------------
# parser

def _add_out_flags(sp, default_format="csv"):
    sp.add_argument("--out", help=f"output file; relative paths resolve under ${OUT_DIR_ENV} when set")
    sp.add_argument("--format", choices=("csv", "json"), default=default_format)


def _add_family_flags(sp):
    sp.add_argument("--start", type=_scalar_flag, help="default 1 for geometric, else 0")
    sp.add_argument("--step", type=_scalar_flag, default=1)
    sp.add_argument("--ratio", type=_scalar_flag, default=2)
    sp.add_argument("--n2", type=int, default=2, help="gap2 second dimension")
    sp.add_argument("--d1", type=_scalar_flag, default=1)
    sp.add_argument("--d2", type=_scalar_flag, default=1)
    sp.add_argument("--range", type=int, default=100, help="random-int coordinate range")
    sp.add_argument("--of", choices=SCALAR_FAMILIES,
                    help="base family for cartesian-of")
    sp.add_argument("--seed", type=int, default=0)


def _add_check_flags(sp):
    sp.add_argument("--input-b", help="second set for abc (defaults to --input)")
    sp.add_argument("--input-c", help="third set for abc (defaults to --input)")
    sp.add_argument("--m", type=int, default=3, help="plunnecke sum folds")
    sp.add_argument("--n", type=int, default=2, help="plunnecke difference folds")
    sp.add_argument("--include-zero-distance", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--include-fixed-points", action=argparse.BooleanOptionalAction, default=False)
    sp.add_argument("--max-size", type=_positive_int, default=None)


def _positive_int(value: str) -> int:
    if not value.isdecimal() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {value}")
    return int(value)


# Built once per process: building the seven subcommands costs about a
# millisecond, which every main() call in a sweep script would pay again.
# Parsing leaves the parser as it was, and it reads no environment and holds
# only immutable defaults, so one instance parses each argv as a fresh one.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distsym",
        description="Exact toolkit for distance sets, bisector weights and mirror symmetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate an input family to a set/point file")
    sp.add_argument("--kind", required=True, choices=FAMILIES)
    sp.add_argument("--n", type=int, default=8, help="family size")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1, help="random-int dimension")
    _add_family_flags(sp)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("distset", help="distinct squared distances of a point file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--include-zero-distance", action=argparse.BooleanOptionalAction, default=True)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_distset)

    sp = sub.add_parser("isosceles", help="equal-distance triple count of a point file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--brute", action="store_true", help="use the cubic oracle instead")
    sp.add_argument("--max-size", type=_positive_int, default=None)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_isosceles)

    sp = sub.add_parser("symmetry", help="extract the heaviest mirror-symmetric subset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--include-fixed-points", action=argparse.BooleanOptionalAction, default=False)
    sp.add_argument("--max-size", type=_positive_int, default=None)
    _add_out_flags(sp, default_format="json")
    sp.set_defaults(func=cmd_symmetry)

    sp = sub.add_parser("check", help="run one named check on an input file")
    sp.add_argument("name", choices=tuple(CHECKS))
    sp.add_argument("--input", required=True)
    _add_check_flags(sp)
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("sweep", help="run one check across a family of growing inputs")
    sp.add_argument("--check", required=True, choices=tuple(CHECKS))
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--sizes", required=True, help="inclusive size range LO:HI")
    _add_family_flags(sp)
    _add_check_flags(sp)
    sp.add_argument("--timings", action="store_true",
                    help="append wall times (off by default to keep reruns byte-identical)")
    _add_out_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="re-check core identities over seeded corpora")
    sp.add_argument("--seed", type=int, default=20260816)
    sp.add_argument("--scale", type=_positive_int, default=1, help="trial count multiplier")
    sp.add_argument("--self-test-corrupt", action="store_true", help=argparse.SUPPRESS)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # every input error of the package (errors.py) is a ValueError
    except (ValueError, CapExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        check = getattr(args, "name", None) or getattr(args, "check", None)
        capped = args.command == "symmetry" or getattr(args, "brute", False) or (
            check is not None and CHECKS[check][0])
        hint = " or a lower --max-size" if capped else ""
        print(f"error: out of memory in {args.command}; try a smaller input{hint}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
