"""Report serialisation: exact CSV rows and JSON detail records.

Every number is written in exact form (integers, or p/q fractions), so a
rerun with the same inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple
from fractions import Fraction
from typing import Iterable, Sequence

from .bisectors import Line, SymmetricSubset
from .bounds import BoundReport
from .brackets import Bracket
from .incidence import IncidenceReport
from .parsing import format_point, format_scalar
from .planar import DistanceSet, PlanarPointSet
from .scalar_sets import ScalarSet

BOUND_CSV_HEADER = ("name", "lhs", "rhs_lo", "rhs_hi", "ratio_lo", "ratio_hi", "verdict")
INCIDENCE_CSV_HEADER = (
    "N",
    "T",
    "I_w",
    "W_total",
    "w_max",
    "rhs_floor",
    "rhs_ceil",
    "low_mult_classes",
)


def bound_csv_row(r: BoundReport) -> tuple:
    return (
        r.name,
        format_scalar(r.lhs),
        format_scalar(r.rhs.lo),
        format_scalar(r.rhs.hi),
        format_scalar(r.ratio.lo),
        format_scalar(r.ratio.hi),
        r.verdict,
    )


def incidence_csv_row(r: IncidenceReport) -> tuple:
    # IncidenceReport declares its fields in the order of INCIDENCE_CSV_HEADER
    return tuple(map(str, astuple(r)))


def jsonable(value):
    """Recursively convert package values to exact, JSON-friendly forms."""
    if isinstance(value, Bracket):
        return {"lo": format_scalar(value.lo), "hi": format_scalar(value.hi)}
    if isinstance(value, Line):
        return f"{value.a} {value.b} {value.c}"
    if type(value) is Fraction:  # an exact test skips ABCMeta's isinstance
        return format_scalar(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, ScalarSet):
        return [format_scalar(x) for x in value.elements]
    if isinstance(value, PlanarPointSet):
        return [format_point(pt) for pt in value.points]
    if isinstance(value, DistanceSet):
        return {
            "includes_zero": value.includes_zero,
            "squared_distances": jsonable(value.squared),
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot serialise {type(value).__name__}")


def bound_json_dict(r: BoundReport, include_witness: bool = True) -> dict:
    out = {
        "name": r.name,
        "lhs": format_scalar(r.lhs),
        "rhs": jsonable(r.rhs),
        "ratio": jsonable(r.ratio),
        "verdict": r.verdict,
        "flags": list(r.flags),
    }
    if include_witness and r.witness is not None:
        out["witness"] = jsonable(r.witness)
    return out


def incidence_json_dict(r: IncidenceReport) -> dict:
    return {**dict(zip(INCIDENCE_CSV_HEADER, astuple(r))), "ratio": jsonable(r.ratio)}


def symmetric_subset_json_dict(s: SymmetricSubset) -> dict:
    return {
        "axis": jsonable(s.axis),
        "weight": s.weight,
        "subset": jsonable(s.subset),
        "mirror": jsonable(s.mirror),
    }


def write_csv(stream, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def dump_json(stream, obj) -> None:
    json.dump(obj, stream, indent=2, sort_keys=True)
    stream.write("\n")
