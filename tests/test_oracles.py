"""The independent routes used as oracles share no counting logic with the
kernels they check: none of them references the run, block or key helpers
of the fast paths, directly or in a nested comprehension."""

import importlib
import pkgutil
import types

import pytest

import distsym
from conftest import per_pair_weights
from distsym.bisectors import reflect_point
from distsym.bounds import hanson_witness
from distsym.incidence import (
    _join_by_direction,
    _scan_lines,
    isosceles_count_brute,
    weighted_incidences,
)
from distsym.planar import radius_multiplicity_map

FAST_PATH_HELPERS = {
    "run_starts",
    "repeat_runs",
    "distinct_values",
    "_row_key",
    "_radius_class_counts",
    "_reduced_lattice",
    "_first_occurrences",
    "offset_keys",
    "_bitset_sum",
    "_sorted_unique",
    "_unique_outer",
    "_pair_bisectors",
    "_to_cleared",
    "_line_starts",
    "_mirror_indices",
    "_sq_dist_rows",
    "_upper_rectangles",
    "_distinct_upper_distances",
    "_hanson_certificates",
}


def referenced_names(code: types.CodeType) -> set:
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= referenced_names(const)
    return names


@pytest.mark.parametrize("oracle", [
    isosceles_count_brute,
    radius_multiplicity_map,
    weighted_incidences,
    _join_by_direction,
    _scan_lines,
    reflect_point,
    hanson_witness,
    per_pair_weights,
], ids=lambda f: f.__name__)
def test_oracles_share_no_counting_logic(oracle):
    assert not referenced_names(oracle.__code__) & FAST_PATH_HELPERS


def test_every_fast_path_helper_is_defined():
    # a renamed helper would otherwise drop out of the check above unseen
    modules = (importlib.import_module(f"distsym.{m.name}")
               for m in pkgutil.iter_modules(distsym.__path__))
    defined = set().union(*map(vars, modules))
    assert FAST_PATH_HELPERS - defined == set()
