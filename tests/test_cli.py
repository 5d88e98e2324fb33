import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from distsym.cli import build_parser, main, run_sweep
from distsym.corpus import verify_corpus
from distsym.families import FamilySpec, generate_family
from distsym.parsing import point_set_to_text, scalar_set_to_text
from distsym.scalar_sets import ScalarSet


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
    before = vars(args).copy()
    _, rows, _, _ = run_sweep(args)
    assert vars(args) == before  # the planar family is chosen per call, not written back
    assert [row[1] for row in rows] == ["3", "4"]  # N column: point sets of 3 and 4


def test_scalar_sweep_over_random_int_draws_on_the_line(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "--check", "hanson", "--family", "random-int",
                         "--sizes", "2:4", "--seed", "5")
    assert (code, err) == (0, "")
    # each size draws the scalars gen draws at that size with seed + size
    for size, row in zip(range(2, 5), out.splitlines()[1:]):
        path = tmp_path / f"scalars{size}.txt"
        run(capsys, "gen", "--kind", "random-int", "--n", str(size), "--seed", str(5 + size),
            "--out", str(path))
        code, check_out, _ = run(capsys, "check", "hanson", "--input", str(path))
        assert code == 0
        assert row == f"random-int({size})," + check_out.splitlines()[1]


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


@pytest.mark.parametrize("argv, message", [
    ("check thm2 --input P1", "bisector weights need at least two points"),
    ("check thm2 --input P1 --no-include-zero-distance", "bisector weights need at least two points"),
    ("check st --input P1", "bisector weights need at least two points"),
    ("symmetry --input P1", "bisector weights need at least two points"),
    ("check guth-katz --input S1", "log ratio needs at least two elements"),
], ids=["thm2", "thm2-no-zero", "st", "symmetry", "guth-katz"])
def test_a_set_below_the_check_minimum_exits_2(tmp_path, capsys, argv, message):
    (tmp_path / "P1").write_text("0 0\n")
    (tmp_path / "S1").write_text("5\n")
    code, out, err = run(capsys, *(str(tmp_path / w) if w in ("P1", "S1") else w
                                   for w in argv.split()))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("check, family", [("st", "grid"), ("thm2", "grid"), ("guth-katz", "ap")])
def test_sweep_marks_sizes_below_the_check_minimum_skipped(capsys, check, family):
    # size 1 is one point or one element, too few for these checks
    argv = ["sweep", "--check", check, "--family", family, "--sizes", "1:3"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [f"{family}({n})" for n in (1, 2, 3)]
    assert rows[0].endswith(",skipped") and not any(row.endswith("skipped") for row in rows[1:])
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    records = json.loads(out)
    assert records[0] == {"input": f"{family}(1)", "skipped": True}
    assert [sorted(r) for r in records[1:]] == [["input", "report"]] * 2


# [-1, 1] holds 3 distinct integers and 9 distinct points.  A skipped bound
# row carries the name its report would have: hanson-inclusion, abc-lower.
@pytest.mark.parametrize("check, sizes, skipped, name", [
    ("st", "2:12", (10, 11, 12), None),
    ("hanson", "2:5", (4, 5), "hanson-inclusion"),
    ("abc", "2:5", (4, 5), "abc-lower"),
], ids=["st", "hanson", "abc"])
def test_sweep_marks_sizes_past_the_random_range_skipped(capsys, check, sizes, skipped, name):
    argv = ["sweep", "--check", check, "--family", "random-int", "--sizes", sizes, "--range", "1"]
    lo, hi = map(int, sizes.split(":"))
    labels = [f"random-int({n})" for n in range(lo, hi + 1)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == labels
    assert [label for label, row in zip(labels, rows) if row.endswith(",skipped")] == [
        f"random-int({n})" for n in skipped]
    if name is not None:
        assert {row.split(",")[1] for row in rows} == {name}
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    records = json.loads(out)
    assert [r["input"] for r in records] == labels
    assert [r for r in records if "report" not in r] == [
        {"input": f"random-int({n})", "skipped": True} for n in skipped]


@pytest.mark.parametrize("argv, message", [
    ("gen --kind random-int --n 4 --range 1", "range too small for a distinct sample"),
    ("gen --kind random-int --n 10 --range 1 --dim 2", "range too small for distinct points"),
], ids=["scalar", "points"])
def test_gen_past_the_random_range_exits_2(capsys, argv, message):
    assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag", ["--dim 2", "--n-fold 1"])
def test_sweep_has_no_flag_it_would_not_read(capsys, flag):
    # the check fixes random-int's dimension, and plunnecke's difference folds are --n
    with pytest.raises(SystemExit) as e:
        main(["sweep", "--check", "plunnecke", "--family", "ap", "--sizes", "3:4", *flag.split()])
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"distsym: error: unrecognized arguments: {flag}")
    with pytest.raises(SystemExit):
        main(["sweep", "-h"])
    assert flag.split()[0] not in capsys.readouterr().out


def test_sweep_and_check_spell_plunnecke_folds_alike(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--check", "plunnecke", "--family", "ap", "--sizes", "3:4",
                       "--m", "2", "--n", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    for size, row in zip((3, 4), rows):
        path = tmp_path / f"ap{size}.txt"
        path.write_text("".join(f"{i}\n" for i in range(size)))
        code, check_out, _ = run(capsys, "check", "plunnecke", "--input", str(path),
                                 "--m", "2", "--n", "1")
        assert code == 0
        assert row == f"ap({size})," + check_out.splitlines()[1]
    # --m 2 --n 1 is not the default --m 3 --n 2
    assert run(capsys, "sweep", "--check", "plunnecke", "--family", "ap", "--sizes", "3:4")[1] != out


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


def test_thm1_sweep_over_progressions_ignores_max_size(capsys):
    # thm1 has no size cap, only the fold budget, so --max-size leaves its bytes alone
    argv = ("sweep", "--check", "thm1", "--family", "ap", "--sizes", "3:7")
    for fmt in ("csv", "json"):
        uncapped = run(capsys, *argv, "--format", fmt)
        assert run(capsys, *argv, "--max-size", "5", "--format", fmt) == uncapped
        assert uncapped[0] == 0 and uncapped[2] == "" and "skipped" not in uncapped[1]
    rows = run(capsys, *argv)[1].splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == [f"ap({n})" for n in range(3, 8)]
    assert all(row.endswith(",holds-with-constant") for row in rows[1:])


def test_check_thm1_runs_past_256_elements_and_stops_at_the_fold_budget(tmp_path, capsys):
    ap = tmp_path / "ap257.txt"
    ap.write_text("".join(f"{i}\n" for i in range(257)))
    code, out, err = run(capsys, "check", "thm1", "--input", str(ap))
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("thm1,") and out.endswith(",holds-with-constant\n")
    # 40 integers spread over +-10^6 pass no cap, and the budget refuses them
    wide = tmp_path / "wide.txt"
    run(capsys, "gen", "--kind", "random-int", "--n", "40", "--range", "1000000", "--seed", "3",
        "--out", str(wide))
    code, out, err = run(capsys, "check", "thm1", "--input", str(wide))
    assert (code, out) == (2, "")
    assert err == ("error: fold 3D^2 - 2D^2 of 305371 x 781 values predicts 238494751 values, "
                   "past the budget of 16777216\n")


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


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("command", [
    "check thm1 --input S", "sweep --check thm1 --family ap --sizes 3:4", "isosceles --input S",
    "symmetry --input S",
], ids=["check", "sweep", "isosceles", "symmetry"])
def test_max_size_rejects_values_below_one(capsys, command, value):
    # a cap of 0 would skip every sweep row and refuse every input
    with pytest.raises(SystemExit) as e:
        main([*command.split(), "--max-size", value])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f" error: argument --max-size: must be a positive integer, not {value}")


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


HINT = " or a lower --max-size"
# name: (function made to run out of memory, argv, hint); the hint names
# --max-size only where it caps something, and GRID3 and AP5 are input files.
# d(P) runs out in distinct_values, on whichever route it takes
OUT_OF_MEMORY = {
    "distset": ("distsym.scalar_sets.distinct_values", "distset --input GRID3", ""),
    "check": ("distsym.scalar_sets.distinct_values", "check thm2 --input GRID3", HINT),
    "check-hanson": ("distsym.scalar_sets._sorted_unique", "check hanson --input AP5", ""),
    "sweep-hanson": ("distsym.scalar_sets._sorted_unique",
                     "sweep --check hanson --family ap --sizes 3:4", ""),
    "sweep-thm1": ("distsym.scalar_sets._sorted_unique",
                   "sweep --check thm1 --family ap --sizes 3:4", ""),
    "isosceles": ("distsym.cli.isosceles_count", "isosceles --input GRID3", ""),
    "isosceles-brute": ("distsym.cli.isosceles_count_brute",
                        "isosceles --brute --input GRID3", HINT),
    "symmetry": ("distsym.cli.extract_symmetric_subset", "symmetry --input GRID3", HINT),
}


@pytest.mark.parametrize("name", OUT_OF_MEMORY)
def test_out_of_memory_exits_2(grid3_file, tmp_path, capsys, monkeypatch, name):
    target, argv, hint = OUT_OF_MEMORY[name]

    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(target, exhausted)
    ap5 = tmp_path / "ap5.txt"
    ap5.write_text("0\n1\n2\n3\n4\n")
    argv = [{"GRID3": grid3_file, "AP5": str(ap5)}.get(arg, arg) for arg in argv.split()]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: out of memory in {argv[0]}; try a smaller input{hint}\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "nonsense", "--input", "x"])
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "distsym check: error: argument name: invalid choice: 'nonsense' (choose from "
        "'hanson', 'plunnecke', 'abc', 'thm1', 'guth-katz', 'product-identity', 'thm2', 'st')")


def test_one_shared_parser_parses_each_argv_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
    (tmp_path / "s.txt").write_text("1/2\n3\n-7/3\n5\n11/4\n0\n")
    (tmp_path / "p.txt").write_text("".join(f"{x} {y}\n" for x in range(3) for y in range(3)))
    # relative --out files land under $DISTSYM_OUT_DIR, which main reads at run time
    thm1 = f"check thm1 --input {tmp_path / 's.txt'}"
    # thm1 comes last again, so state the other calls left behind would show
    sequence = [
        thm1,
        "sweep --check thm2 --family grid --sizes 2:4 --out thm2.csv",
        "check nonsense --input x",
        "verify",
        f"check st --input {tmp_path / 'p.txt'} --format json --out st.json",
        thm1,
    ]

    def outcome(argv, out_dir):
        monkeypatch.setenv("DISTSYM_OUT_DIR", str(out_dir))
        try:
            code = main(argv.split())
        except SystemExit as e:
            code = ("exit", e.code)
        files = {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.exists() else {}
        return code, capsys.readouterr(), files

    alone = []
    for k, argv in enumerate(sequence):
        build_parser.cache_clear()
        alone.append(outcome(argv, tmp_path / f"alone{k}"))
    build_parser.cache_clear()
    shared = [outcome(argv, tmp_path / f"shared{k}") for k, argv in enumerate(sequence)]
    assert build_parser.cache_info().misses == 1
    assert shared == alone
    assert [code for code, _, _ in alone] == [0, 0, ("exit", 2), 0, 0, 0]
    assert set(alone[1][2]) == {"thm2.csv"} and set(alone[4][2]) == {"st.json"}


# sha256 of stdout: a change to any byte of a check's report shows here
CHECK_DIGESTS = {
    ("hanson", "csv"): "bf693045f47859eafcf1b20115b93c99efc1171d910b9d0bb495d2300158adf9",
    ("hanson", "json"): "119047ae067f945e69cf3be74415c986a972a1b8e0dda250e009f98143df109e",
    ("plunnecke", "csv"): "b84474c8e86f2b0f1f16df2dac6351ca81e788c4c1be7e6407de2597d6559649",
    ("plunnecke", "json"): "71017abfe3c7e98405f904656c68ec0a950035a5dfa9cf2d92986e53521b17ac",
    ("abc", "csv"): "81beb8c7c08e66fe65c98a60dd066baae0032dbbe97d13d49c4d4e7b4a13311c",
    ("abc", "json"): "74fa411f26de0a1f21abcd4569a45e02807c6520e7385b54841a5adfa646b2f7",
    ("thm1", "csv"): "3e2bee1ec10ca653fc2d9b38006af9a2e8e6fe061dd6326ebd02acff5a72bb25",
    ("thm1", "json"): "7ba790f370dcbe0318678607e2e0878829cb1c25efd444e90afbac18fa63776a",
    ("guth-katz", "csv"): "a7fc93e54acd4cefec9c6c276f5cf229f9c575bdab16c73f1ab0b208b4e896c4",
    ("guth-katz", "json"): "c2dd5446481acd142ccbb1ba6d715e6a4987049a71f42e43480db4e269ed951f",
    ("product-identity", "csv"): "8695cd819d06bc8e0c9ca243e3d4579c54c5f8c0cb120f9167c5824cf62f25d1",
    ("product-identity", "json"): "1900729ca2e15b7a86bb01a5315e150f4dc7d5edabac69b27c6dd64d08fa89bf",
    ("thm2", "csv"): "98bae048cd9b6c2a17d57af0844f44ca1a6c33e43fc7f8b688bd4bdb2626c485",
    ("thm2", "json"): "cb337823f4ae9c6e18ebafb53fa00f7b2e932c605217ee6ee294cc9b66a58a09",
    ("st", "csv"): "7f3b22bb09c9ee78e29b06deb8362795218d5d4ea7e2ce91587ebf3d4210fc5f",
    ("st", "json"): "290e125a052b573870d777cc4a9069b6f0d65ba1ad59da0be65e6eeda198a813",
}


@pytest.mark.parametrize("name, fmt", sorted(CHECK_DIGESTS))
def test_check_stdout_digest(tmp_path, capsys, name, fmt):
    scalars, points = tmp_path / "scalars.txt", tmp_path / "points.txt"
    scalars.write_text("1/2\n3\n-7/3\n5\n11/4\n0\n")
    points.write_text("".join(f"{x} {y}\n" for x in range(3) for y in range(3)) + "1/2 5/3\n")
    path = points if name in ("thm2", "st") else scalars
    code, out, _ = run(capsys, "check", name, "--input", str(path), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[name, fmt]


# one capped sweep per check with a cap; each has a skipped row
SWEEP_DIGESTS = {
    ("thm2", "grid", "2:4", "9", "csv"): "33aeabe22e981404f9bbaf983e63a212cb48f89601882283d659c1f6a91f889c",
    ("thm2", "grid", "2:4", "9", "json"): "8161bb48006a2dc7b3dd9c037e9d9372040a604a14c88bced11dbfddefd572b6",
    ("st", "grid", "2:4", "9", "csv"): "73b448db000c7db799c3c013132281c43543f0f2e65620321679eacfab99c507",
    ("st", "grid", "2:4", "9", "json"): "adf3db57e8169b73c3847687fe874f266fbd65eb0193685d3c4b46e64f18684d",
}


@pytest.mark.parametrize("check, family, sizes, cap, fmt", sorted(SWEEP_DIGESTS))
def test_capped_sweep_stdout_digest(capsys, check, family, sizes, cap, fmt):
    code, out, _ = run(capsys, "sweep", "--check", check, "--family", family, "--sizes", sizes,
                       "--max-size", cap, "--format", fmt)
    assert code == 0
    assert "skipped" in out
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[check, family, sizes, cap, fmt]


# the per-check arguments that reach a check's runner; S, P, G, B and C name
# the input files below.  hanson has no cap, so --max-size leaves its bytes alone.
ARGUMENT_DIGESTS = {
    "abc-b-c-csv": ("check abc --input S --input-b B --input-c C",
                    "932dff8b7633d73658a2cbfaad6aeb3d22b70e0d9589ea7cef32f1ae66110a41"),
    "abc-b-c-json": ("check abc --input S --input-b B --input-c C --format json",
                     "f0520e6d938cb1eaaba4ebffabf0f747b3b627542d3aba9c3d616edcc580a520"),
    # --m 2 --n 3 has the default's lhs and rhs (2A - 3A is -(3A - 2A)); the
    # JSON witness records m and n
    "plunnecke-m-n": ("check plunnecke --input S --m 2 --n 3 --format json",
                      "8650ddc8512200e2e018b8412d16604b4e933382dddfadff02f6964969aad00f"),
    "thm2-flags": ("check thm2 --input P --no-include-zero-distance --include-fixed-points "
                   "--format json", "2c0e261dd1c7dbe4827255001cabf3083efc05c569f64c5989604e5b309c5f3a"),
    "hanson-max-size": ("check hanson --input S --max-size 2", CHECK_DIGESTS["hanson", "csv"]),
    "symmetry-csv": ("symmetry --input G --format csv",
                     "80bb707881e9f997824ed566e18b76afde2f4b1dfc4a2e29dff2a67d6e1b3701"),
    "sweep-abc-b": ("sweep --check abc --family gap2 --sizes 2:4 --input-b B",
                    "484c87da0096550f7cd8f10fbe028b41fe77db08d50beaddb111fd43a9bf2bd1"),
}


@pytest.mark.parametrize("case", sorted(ARGUMENT_DIGESTS))
def test_check_argument_stdout_digest(tmp_path, capsys, case):
    grid3 = "".join(f"{x} {y}\n" for x in range(3) for y in range(3))
    files = {"S": "1/2\n3\n-7/3\n5\n11/4\n0\n", "P": grid3 + "1/2 5/3\n", "G": grid3,
             "B": "0\n1\n4\n9\n", "C": "2\n-5/2\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv, digest = ARGUMENT_DIGESTS[case]
    code, out, _ = run(capsys, *(str(tmp_path / w) if w in files else w for w in argv.split()))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if case == "symmetry-csv":
        assert out == "axis,weight,subset_size,mirror_size\n0 1 -1,6,6,6\n"


def test_symmetry_refuses_a_set_past_its_cap(tmp_path, capsys):
    path = tmp_path / "grid8.txt"
    path.write_text("".join(f"{x} {y}\n" for x in range(8) for y in range(8)))
    code, out, err = run(capsys, "symmetry", "--input", str(path), "--max-size", "10")
    assert code == 2 and out == ""
    assert err == "error: bisector maps capped at 10 points; pass --max-size to override\n"


def test_sweep_warns_once_when_the_cap_is_raised(capsys):
    code, _, err = run(capsys, "sweep", "--check", "st", "--family", "grid", "--sizes", "2:5",
                       "--max-size", "6000")
    assert code == 0
    assert err == "warning: cap raised from 5000 to 6000; runtime and memory grow quickly\n"


GEN_CASES = [
    ("ap --start 1/2 --step 3", FamilySpec("ap", n=8, start=Fraction(1, 2), step=3)),
    ("gap2 --n2 3 --d2 7/2", FamilySpec("gap2", n=8, n2=3, d1=1, d2=Fraction(7, 2))),
    ("geometric", FamilySpec("geometric", n=8, start=1, ratio=2)),
    ("geometric --start 3 --ratio 1/2",
     FamilySpec("geometric", n=8, start=3, ratio=Fraction(1, 2))),
    ("random-int --seed 7 --range 50", FamilySpec("random_int", n=8, coord_range=50, seed=7)),
    ("random-int --dim 2 --seed 7", FamilySpec("random_int", n=8, seed=7, dim=2)),
    ("grid --n 4", FamilySpec("grid", n=4)),
    ("cartesian-of --n 3", FamilySpec("cartesian_of", base=FamilySpec("ap", n=3))),
    ("cartesian-of --of gap2",
     FamilySpec("cartesian_of", base=FamilySpec("gap2", n=8, n2=2, d1=1, d2=1))),
    # gen's cartesian-of draws its random base with seed + n, as a sweep does
    ("cartesian-of --of random-int --n 4 --seed 3",
     FamilySpec("cartesian_of", base=FamilySpec("random_int", n=4, seed=7))),
]


@pytest.mark.parametrize("argv, spec", GEN_CASES, ids=[argv for argv, _ in GEN_CASES])
def test_gen_matches_the_family_spec(tmp_path, capsys, argv, spec):
    out = tmp_path / "family.txt"
    assert run(capsys, "gen", "--kind", *argv.split(), "--out", str(out))[0] == 0
    fam = generate_family(spec)
    to_text = scalar_set_to_text if isinstance(fam, ScalarSet) else point_set_to_text
    assert out.read_text() == to_text(fam)


@pytest.mark.parametrize("kind", ["ap", "gap2", "geometric", "random-int", "grid"])
def test_gen_and_a_bare_spec_share_their_defaults(tmp_path, capsys, kind):
    # gen --kind K --n 4 writes the family of the spec that names only K and n
    out = tmp_path / "family.txt"
    assert run(capsys, "gen", "--kind", kind, "--n", "4", "--out", str(out))[0] == 0
    fam = generate_family(FamilySpec(kind.replace("-", "_"), n=4))
    to_text = scalar_set_to_text if isinstance(fam, ScalarSet) else point_set_to_text
    assert out.read_text() == to_text(fam)


def test_distset_json(grid3_file, capsys):
    code, out, _ = run(capsys, "distset", "--input", grid3_file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"count": 6, "includes_zero": True,
                               "squared_distances": ["0", "1", "2", "4", "5", "8"]}


def test_isosceles_brute_matches_and_is_capped(grid3_file, tmp_path, capsys):
    code, out, _ = run(capsys, "isosceles", "--input", grid3_file, "--brute")
    assert code == 0
    assert out == "N,T\n9,88\n"
    big = tmp_path / "line61.txt"
    big.write_text("".join(f"{x} 0\n" for x in range(61)))
    code, out, err = run(capsys, "isosceles", "--input", str(big), "--brute")
    assert code == 2
    assert out == "" and "capped" in err


def test_sweep_timings_add_a_wall_time_column(capsys):
    argv = ("sweep", "--check", "thm1", "--family", "ap", "--sizes", "3:4", "--timings")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()]
    assert rows[0][-1] == "wall_time_s" and len(rows) == 3
    assert all(len(row) == len(rows[0]) and float(row[-1]) >= 0 for row in rows[1:])
    # JSON rows carry the same text under the same name
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert [r["input"] for r in records] == ["ap(3)", "ap(4)"]
    assert all(f"{float(r['wall_time_s']):.3f}" == r["wall_time_s"] for r in records)


def test_verify_accepts_a_larger_scale(capsys):
    code, out, _ = run(capsys, "verify", "--scale", "2")
    assert code == 0
    assert out.splitlines()[-1] == "verification PASSED (7 properties)"


@pytest.mark.parametrize("argv, message", [
    ("--check thm1 --family ap --sizes 5", "sizes must look like LO:HI"),
    ("--check thm1 --family ap --sizes 4:2", "sizes must satisfy 1 <= LO <= HI"),
    ("--check thm2 --family ap --sizes 2:3", "check 'thm2' needs a point family, not 'ap'"),
    # a ratio of 1 would make every size one set, {1}
    ("--check hanson --family geometric --ratio 1 --sizes 2:4",
     "geometric ratio must not be 1 or -1"),
    ("--check thm1 --family ap --sizes a:3", "sizes must look like LO:HI"),
    ("--check thm1 --family ap --sizes 3:b", "sizes must look like LO:HI"),
], ids=["sizes-without-range", "sizes-reversed", "point-check-on-scalar-family",
        "geometric-ratio-1", "sizes-lo-not-an-integer", "sizes-hi-not-an-integer"])
def test_bad_sweep_exits_2(capsys, argv, message):
    code, out, err = run(capsys, "sweep", *argv.split())
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_gen_rejects_a_zero_step(capsys):
    code, out, err = run(capsys, "gen", "--kind", "ap", "--step", "0")
    assert code == 2
    assert out == "" and err == "error: ap step must be nonzero\n"


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "geometric", "--n", "3"),
    ("sweep", "--check", "thm2", "--family", "cartesian-of", "--of", "geometric",
     "--sizes", "2:3"),
], ids=["gen", "sweep-cartesian-of"])
def test_an_explicit_geometric_start_of_0_is_refused(capsys, argv):
    # an omitted --start is 1 for geometric; a given 0 is refused as FamilySpec refuses it
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--start", "0")
    assert code == 2
    assert out == "" and err == "error: geometric start must be nonzero\n"


@pytest.mark.parametrize("value, reason", [
    ("1/0", "zero denominator in '1/0'"),
    ("abc", "malformed scalar 'abc'"),
], ids=["zero-denominator", "malformed"])
def test_a_bad_scalar_flag_names_the_reason(capsys, value, reason):
    with pytest.raises(SystemExit) as e:
        main(["gen", "--kind", "ap", "--step", value])
    assert e.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"distsym gen: error: argument --step: {reason}")


def test_hanson_past_the_fold_budget_exits_2_quickly(tmp_path, capsys):
    # 2D^2 - D^2 here predicts 4.2e7 values and the last fold 1.8e10, which
    # the kernel would kill the process for; the budget refuses the first
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"{v}\n" for v in random.Random(0).sample(range(-10**6, 10**6 + 1), 30)))
    started = time.perf_counter()
    code, out, err = run(capsys, "check", "hanson", "--input", str(path))
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err == ("error: fold subtract of 95266 x 436 values predicts 41535976 values, "
                   "past the budget of 16777216\n")


@pytest.mark.parametrize("name", ["hanson", "plunnecke", "abc", "thm1", "guth-katz",
                                  "product-identity"])
def test_every_scalar_check_refuses_a_fold_past_the_budget(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setattr("distsym.scalar_sets._FOLD_VALUE_BUDGET", 4)
    path = tmp_path / "scalars.txt"
    path.write_text("1/2\n3\n-7/3\n5\n11/4\n0\n")
    code, out, err = run(capsys, "check", name, "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: fold ") and err.endswith(" past the budget of 4\n")
