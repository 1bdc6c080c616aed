import json
import shlex
from pathlib import Path

import pytest

from wcurves import reference, siegelveech
from wcurves.cli import main
from wcurves.prototypes import prototype_from_json


def test_no_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "prototypes" in out and "verify" in out


def test_prototypes_text(capsys):
    assert main(["prototypes", "--d", "17", "--kind", "w"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "W(1,-3,-2,0)"
    assert len(lines) == 6


def test_prototypes_json_round_trip(capsys):
    assert main(["prototypes", "--d", "17", "--kind", "w", "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 6
    for rec in records:
        p = prototype_from_json(rec)
        assert p.kind == "W" and p.D == 17


def test_prototypes_csv(capsys):
    assert main(["prototypes", "--d", "12", "--kind", "y", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "kind,D,a,b,c,q,modulus"
    assert lines[1] == "Y,12,1,-2,-2,0,1"
    assert len(lines) == 4


def test_prototypes_rejects_bad_discriminant(capsys):
    assert main(["prototypes", "--d", "7"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "0 or 1 mod 4" in err


def test_euler_single(capsys):
    assert main(["euler", "--d", "45"]) == 0
    out = capsys.readouterr().out
    assert "chi_W = -9" in out
    assert "h2 = -62/5" in out


def test_euler_sweep_csv(capsys):
    assert main(["euler", "--dmin", "1", "--dmax", "20", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("D,D0,f,h2,chi_X,chi_W")
    assert len(lines) == 1 + 10  # 1,4,5,8,9,12,13,16,17,20
    d9 = [l for l in lines if l.startswith("9,")][0]
    assert ",-25/12," in d9


def test_euler_needs_some_range(capsys):
    assert main(["euler"]) == 1
    assert "need --d or both" in capsys.readouterr().err


def test_sv_single_json(capsys):
    assert main(["sv", "--d", "17", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["c0"] == "221/24 + 1/8*sqrt(17)"
    assert rec["billiards"] == "221/24 - 1/8*sqrt(17)"
    assert rec["coefficient"].startswith("10.34305960228063818288451413278")


def test_sv_square_is_refused(capsys):
    assert main(["sv", "--d", "16"]) == 1
    assert "square" in capsys.readouterr().err


def test_sv_sweep_skips_squares(capsys):
    assert main(["sv", "--dmin", "1", "--dmax", "30", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    ds = [int(l.split(",")[0]) for l in lines[1:]]
    assert ds == [5, 8, 12, 13, 17, 20, 21, 24, 28, 29]


def test_hseries_csv(capsys):
    assert main(["hseries", "--dmax", "16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "D,h2"
    assert "5,-2/5" in lines
    assert "16,-55/12" in lines


def test_boundary_dot(capsys):
    assert main(["boundary", "--d", "12", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph boundary_12 {")
    assert '[label="m=2"]' in out


def test_boundary_json(capsys):
    assert main(["boundary", "--d", "25", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["D"] == 25
    assert rec["s1s2_points"] == 2
    assert len(rec["curves"]) == 9


def test_tables_sv_rows(capsys):
    assert main(["tables", "--sv", "--dmax", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 40
    assert lines[0] == "5,25/3"
    assert "17,221/24 + 1/8*sqrt(17)" in lines
    assert "89,702833/68640 - 831/22880*sqrt(89)" in lines
    assert "96,3194/345" in lines


def test_tables_regenerate(tmp_path, capsys):
    assert main(["tables", "--regenerate", "--output", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "table1.csv (10 rows)" in out
    assert "table2.csv (40 rows)" in out
    t1 = (tmp_path / "table1.csv").read_text().strip().splitlines()
    assert t1[3] == "13,91/9"
    assert "17,221/24 - 1/8*sqrt(17)" in t1
    t2 = (tmp_path / "table2.csv").read_text().strip().splitlines()
    assert len(t2) == 40


def test_tables_needs_a_mode(capsys):
    assert main(["tables"]) == 1
    assert "needs --sv or --regenerate" in capsys.readouterr().err


def test_verify_ok(capsys):
    assert main(["verify", "--dmin", "5", "--dmax", "40"]) == 0
    out = capsys.readouterr().out
    assert "D=5: " in out
    assert "0 failed" in out
    assert "enumeration_W" in out  # per-suite tally


def test_verify_failure_exits_2_with_reproducer(monkeypatch, capsys):
    monkeypatch.setattr(reference, "reference_tuples", lambda D, kind: [])
    assert main(["verify", "--dmin", "5", "--dmax", "5"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("D=5: ") and lines[0].endswith(" checks, FAIL")
    assert any(line.startswith("  FAIL enumeration_") for line in lines)
    assert lines.count("  reproduce: wcurves verify --dmin 5 --dmax 5") == 1
    assert lines[-1].endswith(" failed") and not lines[-1].endswith(" 0 failed")


def test_verify_raising_suite_exits_2_with_reproducer(monkeypatch, capsys):
    def broken(p):
        raise AssertionError("planted")

    monkeypatch.setattr(siegelveech, "v_of_prototype", broken)
    assert main(["verify", "--dmin", "41", "--dmax", "41"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[:3] == [
        "D=41: 198 checks, FAIL",
        "  FAIL sv: AssertionError: planted",
        "  reproduce: wcurves verify --dmin 41 --dmax 41",
    ]
    assert lines[-1] == "verified 1 discriminants: 198 checks passed, 1 failed"
    assert captured.err == ""


def test_verify_pass_prints_no_reproducer(capsys):
    assert main(["verify", "--dmin", "5", "--dmax", "12"]) == 0
    assert "reproduce:" not in capsys.readouterr().out


def test_verify_sharding_covers_everything(capsys):
    assert main(["verify", "--dmin", "5", "--dmax", "40", "--shard", "0/2"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--dmin", "5", "--dmax", "40", "--shard", "1/2"]) == 0
    second = capsys.readouterr().out
    ds = set()
    for block in (first, second):
        ds.update(int(l.split(":")[0][2:]) for l in block.splitlines() if l.startswith("D="))
    assert ds == {D for D in range(5, 41) if D % 4 in (0, 1)}


def test_verify_bad_shard(capsys):
    assert main(["verify", "--dmin", "5", "--dmax", "12", "--shard", "nope"]) == 1
    assert "shard" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shard, message",
    [
        ("3/2", "bad --shard 3/2: need 0 <= i < n"),
        ("2/2", "bad --shard 2/2: need 0 <= i < n"),
        ("-1/2", "bad --shard -1/2: need 0 <= i < n"),
        ("0/0", "bad --shard 0/0: need 0 <= i < n"),
        ("nope", "bad --shard nope: expected i/n such as 0/4"),
        ("1/2/3", "bad --shard 1/2/3: expected i/n such as 0/4"),
    ],
)
def test_verify_bad_shard_names_the_typed_value(capsys, shard, message):
    assert main(["verify", "--dmin", "5", "--dmax", "12", f"--shard={shard}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["tables", "--sv", "--output", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 40


def test_sv_rejects_nonpositive_digits(capsys):
    for digits in ("0", "-3"):
        assert main(["sv", "--d", "17", "--digits", digits]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "digit" in captured.err


def test_verify_empty_range_is_an_error(capsys):
    assert main(["verify", "--dmin", "5", "--dmax", "4"]) == 1
    captured = capsys.readouterr()
    assert "verified" not in captured.out
    assert "error:" in captured.err and "selects no discriminants" in captured.err


def test_verify_empty_shard_is_an_error(capsys):
    assert main(["verify", "--dmin", "5", "--dmax", "5", "--shard", "1/2"]) == 1
    assert "selects no discriminants" in capsys.readouterr().err


def test_tables_sv_empty_range_is_an_error(capsys):
    assert main(["tables", "--sv", "--dmax", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "--dmax 3" in captured.err


def test_hseries_empty_range_is_an_error(capsys):
    assert main(["hseries", "--dmin", "5", "--dmax", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "no discriminants" in captured.err


def test_unwritable_output_is_an_error_line(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert main(["euler", "--d", "5", "--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "No such file" in err
    assert "Traceback" not in err


def test_single_d_mixed_with_a_range_is_an_error(capsys):
    for argv in (
        ["euler", "--d", "5", "--dmin", "3"],
        ["euler", "--d", "5", "--dmin", "3", "--dmax", "20"],
        ["sv", "--d", "5", "--dmax", "3"],
        ["sv", "--d", "17", "--dmin", "5", "--dmax", "30", "--format", "csv"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), argv
        assert "--d" in lines[0] and "--dmin or --dmax" in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        ("euler --dmin 5 --dmax 4", "empty range: --dmin 5 > --dmax 4"),
        ("euler --dmin 2 --dmax 3", "no discriminants in [2, 3]"),
        ("sv --dmin 1 --dmax 4", "no nonsquare discriminants >= 5 in [1, 4]"),
    ],
)
def test_range_without_discriminants_is_an_error(capsys, argv, message):
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _readme_cli_lines():
    """The argument lists of the `wcurves ...` lines in the README's CLI block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("wcurves ")
    ]


def test_readme_cli_block_runs(capsys, tmp_path):
    lines = _readme_cli_lines()
    assert len(lines) == 10
    outputs = {}
    for argv in lines:
        if "--regenerate" in argv:
            argv[argv.index("--output") + 1] = str(tmp_path)
        assert main(argv) == 0, argv
        outputs[" ".join(argv)] = capsys.readouterr().out
    records = json.loads(outputs["prototypes --d 17 --kind w --format json"])
    assert len(records) == 6
    assert len(outputs["tables --sv --dmax 100"].splitlines()) == 40
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table1.csv", "table2.csv"]
