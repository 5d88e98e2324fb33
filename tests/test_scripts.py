"""Each script under scripts/ runs end to end at a small size, in its own
process, against the package in src/.  The thm1 sweep over progressions is
`distsym sweep --check thm1 --family ap`, tested in test_cli.py."""

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
