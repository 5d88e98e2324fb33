"""Acceptance gate: nine criteria, one test and one printed line each.

Run as `pytest -v tests/test_acceptance.py` (add -s to see the lines inline).
Criteria with stated runtime budgets assert them; everything else is exact
equality, not a tolerance.
"""

import random
import time
from fractions import Fraction

from conftest import (
    ABC_RATIO_MIN,
    ST_RATIO_MAX,
    THM1_AP_RATIO_MIN,
    abc_ratio_corpus,
    st_ratio_corpus,
)

from distsym.bisectors import bisector_weight_map, extract_symmetric_subset, reflect_point
from distsym.bounds import (
    VERDICT_HOLDS,
    abc_lower_report,
    hanson_inclusion_check,
    plunnecke_check,
    thm1_report,
    thm2_report,
)
from distsym.cli import main
from distsym.families import (
    FamilySpec,
    generate_family,
    random_point_set,
    random_rational_point_set,
    random_scalar_set,
)
from distsym.incidence import (
    isosceles_count,
    isosceles_count_brute,
    st_bound_report,
    weighted_incidences,
)
from distsym.planar import PlanarPointSet, squared_distance_set
from distsym.scalar_sets import ScalarSet, difference_set
from distsym.planar import verify_product_identity


def _grids(up_to):
    return [generate_family(FamilySpec(kind="grid", n=n)) for n in range(2, up_to + 1)]


def test_c1_triple_equivalence_200_sets():
    rng = random.Random(10601)
    started = time.perf_counter()
    corpus = [random_rational_point_set(rng, 3 + i % 38) for i in range(200)]
    corpus += _grids(6)
    for p in corpus:
        fast = isosceles_count(p)
        assert fast == isosceles_count_brute(p)
        assert fast == weighted_incidences(p, bisector_weight_map(p))
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"\nPASS criterion 1: triple equivalence on {len(corpus)} sets ({elapsed:.1f}s)")


def test_c2_product_identity():
    rng = random.Random(20602)
    corpus = [random_scalar_set(rng, 1 + rng.randint(0, 23), bound=500) for _ in range(100)]
    corpus += [generate_family(FamilySpec(kind="ap", n=n)) for n in range(1, 33)]
    for a in corpus:
        agree, lhs, rhs = verify_product_identity(a)
        assert agree and lhs == rhs
    print(f"PASS criterion 2: product identity on {len(corpus)} sets")


def test_c3_inclusion_with_certificates():
    rng = random.Random(30603)
    for _ in range(100):
        a = random_scalar_set(rng, 1 + rng.randint(0, 31), bound=100)
        rep = hanson_inclusion_check(a)
        assert rep.verdict == VERDICT_HOLDS
        assert rep.witness["certified_elements"] == rep.lhs
        d = set(difference_set(a).elements)
        for t, _, (w, x, y, z) in rep.witness["witnesses"]:
            assert {w, x, y, z} <= d
            assert t == w * w + x * x - y * y - z * z
    print("PASS criterion 3: inclusion plus per-element certificates on 100 sets")


def test_c4_growth_bound_all_folds():
    rng = random.Random(40604)
    pairs = [(m, n) for m in range(6) for n in range(6) if 1 <= m + n <= 5]
    for _ in range(50):
        a = random_scalar_set(rng, 1 + rng.randint(0, 15), bound=1000)
        for m, n in pairs:
            rep = plunnecke_check(a, m, n)
            assert rep.verdict == VERDICT_HOLDS
            assert Fraction(rep.lhs) <= rep.rhs.lo
    print(f"PASS criterion 4: growth bound, {len(pairs)} fold shapes x 50 sets")


def test_c5_symmetric_subset_postcondition():
    rng = random.Random(50605)
    corpus = [random_point_set(rng, 2 + (197 * i) % 199, bound=4000) for i in range(12)]
    corpus += [random_rational_point_set(rng, 2 + rng.randint(0, 38)) for _ in range(3)]
    corpus += _grids(12)
    for p in corpus:
        wm = bisector_weight_map(p)
        sub = extract_symmetric_subset(p, weight_map=wm)
        members = set(p.points)
        assert len(sub.subset) == wm.max_weight
        for s in sub.subset.points:
            assert s in members
            assert reflect_point(sub.axis, s) in members
    print(f"PASS criterion 5: mirror-subset postcondition on {len(corpus)} sets")


def test_c6_micro_fixtures():
    g3 = generate_family(FamilySpec(kind="grid", n=3))
    assert len(squared_distance_set(g3)) == 6
    wm = bisector_weight_map(g3)
    assert wm.total_weight == 72
    assert wm.max_weight == 6
    rep, _ = thm2_report(g3)
    assert rep.ratio.lo == rep.ratio.hi == Fraction(16, 9)

    tri = PlanarPointSet([(0, 0), (1, 0), (0, 1)])
    tri_map = bisector_weight_map(tri)
    assert isosceles_count(tri) == 2
    assert weighted_incidences(tri, tri_map) == 2
    assert tri_map.total_weight == 6

    assert thm1_report(ScalarSet([0, 1, 2])).lhs == 6
    print("PASS criterion 6: micro fixtures match their frozen values")


def test_c7_frozen_ratio_regressions():
    # (label, value) of each corpus-wide extreme; max and min keep the first in corpus order
    def value(extreme):
        return extreme[1]

    thm1 = []
    for n in range(3, 65):
        rep = thm1_report(generate_family(FamilySpec(kind="ap", n=n)))
        assert rep.witness["ratio_at_least_one"] is True
        assert rep.ratio.lo >= 1
        thm1.append((f"ap({n})", rep.ratio.lo))
    found = {
        "ST_RATIO_MAX": max(((label, st_bound_report(p, bisector_weight_map(p)).ratio.hi)
                             for label, p in st_ratio_corpus()), key=value),
        "ABC_RATIO_MIN": min(((label, abc_lower_report(a, b, c).ratio.lo)
                              for label, a, b, c in abc_ratio_corpus()), key=value),
        "THM1_AP_RATIO_MIN": min(thm1, key=value),
    }
    literals = "\n".join(f'{name} = Fraction("{v}")  # {label}' for name, (label, v) in found.items())
    assert {name: v for name, (_, v) in found.items()} == {
        "ST_RATIO_MAX": ST_RATIO_MAX,
        "ABC_RATIO_MIN": ABC_RATIO_MIN,
        "THM1_AP_RATIO_MIN": THM1_AP_RATIO_MIN,
    }, f"the pinned ratio extremes moved; if on purpose, paste into tests/conftest.py:\n{literals}"
    print("PASS criterion 7: frozen ratio extremes equal their pinned literals")


def test_c8_quadratic_pipelines_meet_budgets():
    p = generate_family(
        FamilySpec(kind="random_int", n=2000, coord_range=10**6, seed=80608, dim=2)
    )
    started = time.perf_counter()
    wm = bisector_weight_map(p)
    thm2_report(p, weight_map=wm)
    t_map = time.perf_counter() - started
    assert t_map < 30

    q = generate_family(
        FamilySpec(kind="random_int", n=5000, coord_range=10**6, seed=80609, dim=2)
    )
    started = time.perf_counter()
    isosceles_count(q)
    t_count = time.perf_counter() - started
    assert t_count < 20
    print(
        f"PASS criterion 8: N=2000 weight map {t_map:.1f}s (<30), "
        f"N=5000 triple count {t_count:.1f}s (<20)"
    )


def test_c9_sweeps_are_byte_identical(tmp_path, capsys):
    cases = [
        ["sweep", "--check", "hanson", "--family", "random-int", "--sizes", "3:10", "--seed", "42"],
        ["sweep", "--check", "st", "--family", "grid", "--sizes", "2:6"],
        ["sweep", "--check", "thm1", "--family", "ap", "--sizes", "3:12", "--format", "json"],
    ]
    for i, argv in enumerate(cases):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    print(f"PASS criterion 9: {len(cases)} sweeps re-ran byte-identical")
