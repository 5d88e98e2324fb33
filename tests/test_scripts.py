"""Each report script runs end to end at a small size, in its own process,
against the package in src/."""

import importlib.util
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conftest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_ap_progression_report_writes_one_row_per_progression():
    rows = run_script("ap_progression_report.py", "--max-n", "12")
    assert rows[0].startswith("input,")
    assert [row.split(",")[0] for row in rows[1:]] == [f"ap({n})" for n in range(3, 13)]


def test_ap_progression_report_skips_progressions_past_the_cap(monkeypatch, capsys):
    # in-process, with the chain capped at 5 elements instead of 256
    spec = importlib.util.spec_from_file_location(
        "ap_progression_report", ROOT / "scripts" / "ap_progression_report.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    thm1_report = script.thm1_report
    monkeypatch.setattr(script, "thm1_report", lambda a: thm1_report(a, max_size=5))
    monkeypatch.setattr(sys, "argv", ["ap_progression_report.py", "--max-n", "7"])
    script.main()
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [f"ap({n})" for n in range(3, 8)]
    assert rows[3].startswith("ap(5),thm1,") and rows[3].endswith(",holds-with-constant")
    assert rows[-2:] == [f"ap({n}),thm1,,,,,,skipped" for n in (6, 7)]


@pytest.mark.parametrize("flags", [(), ("--include-fixed-points",)], ids=["bare", "fixed"])
def test_grid_symmetry_report_writes_one_row_per_grid(flags):
    rows = run_script("grid_symmetry_report.py", "--max-n", "5", *flags)
    assert rows[0].split()[0] == "grid"
    assert [row.split()[0] for row in rows[1:]] == [f"grid({n})" for n in range(2, 6)]


def test_refresh_frozen_constants_reprints_the_pinned_literals():
    rows = run_script("refresh_frozen_constants.py")
    literals = [re.fullmatch(r'(\w+) = Fraction\("(-?\d+(?:/\d+)?)"\)  # \S+', row) for row in rows]
    assert len(rows) == 3 and all(literals), rows
    assert {m[1]: Fraction(m[2]) for m in literals} == {
        name: getattr(conftest, name)
        for name in ("ST_RATIO_MAX", "ABC_RATIO_MIN", "THM1_AP_RATIO_MIN")
    }
