import json

import pytest

from distsym.cli import build_parser, main, run_sweep
from distsym.corpus import verify_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_sorted_scalar_file(tmp_path, capsys):
    out = tmp_path / "ap.txt"
    code, _, _ = run(capsys, "gen", "--kind", "ap", "--n", "4", "--out", str(out))
    assert code == 0
    assert out.read_text() == "0\n1\n2\n3\n"


def test_gen_grid_points(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(capsys, "gen", "--kind", "grid", "--n", "2", "--out", str(out))[0] == 0
    assert out.read_text() == "0 0\n0 1\n1 0\n1 1\n"


def test_gen_random_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "gen", "--kind", "random-int", "--n", "30", "--seed", "7", "--out", str(a))
    run(capsys, "gen", "--kind", "random-int", "--n", "30", "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    run(capsys, "gen", "--kind", "random-int", "--n", "30", "--seed", "8", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


@pytest.fixture
def grid3_file(tmp_path, capsys):
    path = tmp_path / "grid3.txt"
    run(capsys, "gen", "--kind", "grid", "--n", "3", "--out", str(path))
    return str(path)


def test_distset_csv(grid3_file, capsys):
    code, out, _ = run(capsys, "distset", "--input", grid3_file)
    assert code == 0
    assert out == "squared_distance\n0\n1\n2\n4\n5\n8\n"
    code, out, _ = run(capsys, "distset", "--input", grid3_file, "--no-include-zero-distance")
    assert out.splitlines()[1] == "1"


def test_isosceles_json(grid3_file, capsys):
    code, out, _ = run(capsys, "isosceles", "--input", grid3_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"N": 9, "T": 88}


def test_symmetry_json(grid3_file, capsys):
    code, out, _ = run(capsys, "symmetry", "--input", grid3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["axis"] == "0 1 -1"
    assert doc["weight"] == 6
    assert len(doc["subset"]) == 6


def test_check_csv_row(grid3_file, capsys):
    code, out, _ = run(capsys, "check", "thm2", "--input", grid3_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,lhs,rhs_lo,rhs_hi,ratio_lo,ratio_hi,verdict"
    assert lines[1] == "thm2,6,27/8,27/8,16/9,16/9,holds-with-constant"


def test_check_json_carries_witness(grid3_file, capsys):
    code, out, _ = run(capsys, "check", "st", "--input", grid3_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["T"] == 88 and doc["rhs_floor"] == 262


def test_sweep_reruns_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "--check", "hanson", "--family", "random-int", "--sizes", "3:8", "--seed", "5"]
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("input,name,lhs,")


def test_point_sweep_over_random_int_leaves_args_alone():
    args = build_parser().parse_args(
        ["sweep", "--check", "st", "--family", "random-int", "--sizes", "3:4", "--range", "9"])
    _, rows, _, _ = run_sweep(args)
    assert args.dim == 1  # the planar family is chosen per call, not written back
    assert [row[1] for row in rows] == ["3", "4"]  # N column: point sets of 3 and 4


def test_sweep_marks_capped_rows_skipped(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--check", "st", "--family", "grid", "--sizes", "2:4",
        "--max-size", "9",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[1].endswith("ok")
    assert rows[2].endswith("ok")
    assert rows[3].endswith("skipped")  # grid(4) has 16 > 9 points


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISTSYM_OUT_DIR", str(tmp_path))
    run(capsys, "gen", "--kind", "ap", "--n", "3", "--out", "nested/ap.txt")
    assert (tmp_path / "nested" / "ap.txt").read_text() == "0\n1\n2\n"


def test_out_absolute_path_ignores_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DISTSYM_OUT_DIR", str(tmp_path / "base"))
    target = tmp_path / "abs" / "ap.txt"
    run(capsys, "gen", "--kind", "ap", "--n", "3", "--out", str(target))
    assert target.read_text() == "0\n1\n2\n"
    assert not (tmp_path / "base").exists()


def test_thm1_sweep_over_progressions_skips_past_the_cap(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--check", "thm1", "--family", "ap", "--sizes", "3:7", "--max-size", "5",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("input,")
    assert [row.split(",")[0] for row in rows[1:]] == [f"ap({n})" for n in range(3, 8)]
    assert rows[3].startswith("ap(5),thm1,") and rows[3].endswith(",holds-with-constant")
    assert rows[-2:] == [f"ap({n}),thm1,,,,,,skipped" for n in (6, 7)]


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "verification PASSED" in out


def test_verify_corrupt_hook_fails(capsys):
    # every property must prove that it can fail
    code, out, _ = run(capsys, "verify", "--self-test-corrupt")
    assert code == 1
    rows = out.splitlines()
    assert len(rows) == 8 and rows[-1] == "verification FAILED"
    assert all(row.startswith("FAIL ") for row in rows[:7])
    # each property fails in its first checked trial
    assert all(row.split()[2:4] == ["1", "trials"] for row in rows[:7])


@pytest.mark.parametrize("scale", ["0", "-3"])
def test_verify_rejects_scale_below_one(capsys, scale):
    # a scale below 1 would run no trials and pass, corrupted or not
    with pytest.raises(SystemExit) as e:
        main(["verify", "--scale", scale, "--self-test-corrupt"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"must be a positive integer, not {scale}" in err


@pytest.mark.parametrize("scale", [0, -3])
def test_verify_corpus_rejects_scale_below_one(scale):
    with pytest.raises(ValueError, match="positive integer"):
        verify_corpus(scale=scale, corrupt=True)


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("zap\n")
    code, _, err = run(capsys, "distset", "--input", str(bad))
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "distset", "--input", "/nonexistent/file.txt")
    assert code == 2
    assert err.startswith("error:")


def test_cap_exit_code(grid3_file, capsys):
    code, _, err = run(capsys, "check", "st", "--input", grid3_file, "--max-size", "4")
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("argv, hint", [
    (("distset",), ""),  # distset has no --max-size to lower
    (("check", "thm2"), " or a lower --max-size"),
], ids=["distset", "check"])
def test_out_of_memory_exits_2(grid3_file, capsys, monkeypatch, argv, hint):
    def exhausted(values):
        raise MemoryError
    monkeypatch.setattr("distsym.scalar_sets._sorted_unique", exhausted)
    code, out, err = run(capsys, *argv, "--input", grid3_file)
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory in {argv[0]}; try a smaller input{hint}\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "nonsense", "--input", "x"])
    assert e.value.code == 2
