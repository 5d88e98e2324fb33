"""The dedup route of every fold, of d(P) and of the Hanson first
occurrences changes no output byte.  Each route is forced in turn, wherever
it can serve: the bitset sums and differences, the mask and the sort every
value, and both spans they can allocate; elsewhere dedup_route chooses as
usual.  Under each one the check and sweep digests, the c9 sweeps and
verify's report come out as on the default routes, and a Hanson check of
Python ints as on the forced sort."""

import random

import pytest

import test_cli
from distsym import bounds, scalar_sets
from distsym.cli import main

ROUTES = ("bitset", "mask", "sort")
SERVABLE_SPAN = 1 << 24


def force(monkeypatch, route):
    """Make dedup_route return route wherever it can serve; returns the list
    of spans it was forced on."""
    real, forced_spans = scalar_sets.dedup_route, []

    def forced(pairs, span, sums=False, objects=False):
        if (sums or route != "bitset") and span <= SERVABLE_SPAN:
            forced_spans.append(span)
            return route
        return real(pairs, span, sums, objects)
    for module in (scalar_sets, bounds):
        monkeypatch.setattr(module, "dedup_route", forced)
    return forced_spans


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name, fmt", sorted(test_cli.CHECK_DIGESTS))
def test_check_digests_on_every_route(tmp_path, capsys, monkeypatch, route, name, fmt):
    force(monkeypatch, route)
    test_cli.test_check_stdout_digest(tmp_path, capsys, name, fmt)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", sorted(test_cli.SWEEP_DIGESTS))
def test_sweep_digests_on_every_route(capsys, monkeypatch, route, case):
    force(monkeypatch, route)
    test_cli.test_capped_sweep_stdout_digest(capsys, *case)


C9_SWEEPS = [
    "sweep --check hanson --family random-int --sizes 3:10 --seed 42",
    "sweep --check st --family grid --sizes 2:6",
    "sweep --check thm1 --family ap --sizes 3:12 --format json",
]


def stdout_of(capsys, argv):
    capsys.readouterr()
    assert main(argv.split()) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("route", ROUTES)
def test_c9_and_verify_on_every_route(capsys, monkeypatch, route):
    runs = C9_SWEEPS + ["verify"]
    want = [stdout_of(capsys, argv) for argv in runs]
    forced_spans = force(monkeypatch, route)
    assert [stdout_of(capsys, argv) for argv in runs] == want
    assert forced_spans


# 12 integers 10^25 + k, k drawn from [0, 60]: Python ints whose A - A and
# D.D enumerations are dense enough for the first-index table
TRANSLATED = sorted(10**25 + k for k in random.Random(35).sample(range(61), 12))


@pytest.mark.parametrize("route", ["bitset", "mask"])
def test_translated_hanson_check_on_every_route(tmp_path, capsys, monkeypatch, route):
    path = tmp_path / "translated.txt"
    path.write_text("".join(f"{v}\n" for v in TRANSLATED))
    argv = f"check hanson --input {path} --format json"
    force(monkeypatch, "sort")
    want = stdout_of(capsys, argv)
    monkeypatch.undo()
    forced_spans = force(monkeypatch, route)
    assert stdout_of(capsys, argv) == want
    assert forced_spans
