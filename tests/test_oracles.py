"""The independent routes used as oracles share no counting logic with the
kernels they check: none of them references the run, block or key helpers
of the fast paths, directly or in a nested comprehension.  The fast paths
in turn cut their pairs with one block plan, row_blocks."""

import importlib
import inspect
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
    "dedup_route",
    "_mask_values",
    "_row_key",
    "_radius_class_counts",
    "_reduced_lattice",
    "_first_occurrences",
    "_bitset_sum",
    "_sorted_unique",
    "_unique_outer",
    "_pair_bisectors",
    "_to_cleared",
    "_line_starts",
    "_mirror_indices",
    "_sq_dist_rows",
    "_sq_dists",
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


def test_reflection_oracle_shares_nothing_with_the_mirror_route():
    # reflect_point checks the mirror search, which clears the whole set's
    # denominators and looks each image up in its row index; the oracle
    # scales by one point's own denominators and looks up no row, nor does
    # any distsym function it calls
    mirror_route = {"clear_denominators", "scaled_int_coords", "row_index", "_mirror_indices"}
    names, seen, todo = set(), set(), [reflect_point]
    while todo:
        fn = todo.pop()
        seen.add(fn.__name__)
        new = referenced_names(fn.__code__) - names
        names |= new
        todo += [f for f in map(fn.__globals__.get, new)
                 if isinstance(f, types.FunctionType) and f.__module__.startswith("distsym.")]
    assert {"as_point", "as_scalar"} <= seen
    assert not names & mirror_route


def test_every_fast_path_helper_is_defined():
    # a renamed helper would otherwise drop out of the check above unseen
    modules = (importlib.import_module(f"distsym.{m.name}")
               for m in pkgutil.iter_modules(distsym.__path__))
    defined = set().union(*map(vars, modules))
    assert FAST_PATH_HELPERS - defined == set()


def constant_readers(*names) -> dict:
    """For each name, the module.function of every top-level function and
    class of every module that reads it, with what it nests."""
    readers = {name: set() for name in names}
    for info in pkgutil.iter_modules(distsym.__path__):
        module = importlib.import_module(f"distsym.{info.name}")
        code = compile(inspect.getsource(module), module.__file__, "exec")
        for defn in code.co_consts:
            if isinstance(defn, types.CodeType):
                for name in readers.keys() & referenced_names(defn):
                    readers[name].add(f"{info.name}.{defn.co_name}")
    return readers


def test_one_block_plan():
    # the pair kernels take their blocks from row_blocks alone, and _CHUNK
    # sizes only the buffer of distinct_values: a second block plan would
    # read one of these constants somewhere else
    assert constant_readers("_CHUNK", "_CACHE_BLOCK") == {
        "_CHUNK": {"scalar_sets.distinct_values"},
        "_CACHE_BLOCK": {"scalar_sets.row_blocks"}}


def test_one_cost_model():
    # every route choice reads the one density constant through dedup_route,
    # and no second constant weighs the bitset
    assert constant_readers("_DENSE_SPAN_PER_PAIR") == {
        "_DENSE_SPAN_PER_PAIR": {"scalar_sets.dedup_route"}}
    modules = [importlib.import_module(f"distsym.{m.name}")
               for m in pkgutil.iter_modules(distsym.__path__)]
    assert not [m.__name__ for m in modules if hasattr(m, "_BITSET_WORDS_PER_PAIR")]
