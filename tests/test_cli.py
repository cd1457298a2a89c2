"""CLI subcommands, exit codes, deterministic output."""

import json

import pytest

from racefree import corpus
from racefree.cli import run_cli


@pytest.fixture()
def fig_file(tmp_path):
    f = tmp_path / "coupled_xy.cp"
    f.write_text(corpus.COUPLED_XY)
    return str(f)


@pytest.fixture()
def region_file(tmp_path):
    f = tmp_path / "default.rg"
    f.write_text(corpus.COUPLED_XY_REGIONS)
    return str(f)


def test_analyze_regrel_proves_all(fig_file, region_file, capsys):
    code = run_cli(["analyze", "--analysis", "regrel", "--domain", "octagon",
                    "--regions", region_file, fig_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PROVED") - out.count("UNPROVED") == 3


def test_analyze_valset_partial(fig_file, capsys):
    code = run_cli(["analyze", "--analysis", "valset", fig_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "1/3 assertions proved" in out


def test_analyze_no_assertions(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("var x;\nthread t { x := 1; }\n")
    code = run_cli(["analyze", str(f)])
    assert code == 0
    assert "0/0 assertions proved" in capsys.readouterr().out


def test_analyze_json_schema(fig_file, region_file, capsys):
    code = run_cli(["analyze", "--analysis", "regrel", "--regions", region_file,
                    "--format", "json", "--deterministic", fig_file])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["analysis"] == "regrel"
    assert len(blob["assertions"]) == 3
    assert blob["timing_ms"] == {"analysis": 0, "total": 0}


def test_deterministic_output_is_bit_identical(fig_file, region_file, capsys):
    argv = ["analyze", "--analysis", "regrel", "--regions", region_file,
            "--format", "json", "--deterministic", fig_file]
    run_cli(argv)
    first = capsys.readouterr().out
    run_cli(argv)
    second = capsys.readouterr().out
    assert first == second


def test_races_clean_and_racy(tmp_path, capsys):
    clean = tmp_path / "clean.cp"
    clean.write_text(corpus.COUPLED_XY)
    assert run_cli(["races", "--depth", "13", str(clean)]) == 0
    assert "no race found up to depth 13" in capsys.readouterr().out

    racy = tmp_path / "racy.cp"
    racy.write_text(corpus.COUPLED_XY.replace(
        "  acquire(m);\n  assert(x == y);\n  release(m);", "  assert(x == y);"))
    assert run_cli(["races", "--depth", "13", str(racy)]) == 1
    assert "data_race on x" in capsys.readouterr().out


def test_races_region_kind(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text(corpus.COUPLED_XY)
    rg = tmp_path / "all.rg"
    rg.write_text("region r { x, y, z };\n")
    code = run_cli(["races", "--kind", "region", "--regions", str(rg),
                    "--depth", "13", "--cross-validate", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert "region_race on r" in out
    assert "translation cross-check agrees: True" in out


def test_races_json_schema(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text(corpus.COUPLED_XY)
    code = run_cli(["races", "--kind", "both", "--depth", "10",
                    "--format", "json", str(f)])
    blob = json.loads(capsys.readouterr().out)
    assert code == 0
    assert blob["data_races"] == [] and blob["region_races"] == []
    assert "bounded search" in blob["verdict_note"]


def test_explore_dumps_traces(fig_file, capsys):
    code = run_cli(["explore", "--depth", "3", "--limit", "2", fig_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "t1 1 -[acquire(m)]-> 2" in out


def test_metacheck_passes(fig_file, capsys):
    code = run_cli(["metacheck", "--depth", "8", "--samples", "20", fig_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "correspondence:" in out and "pass" in out


def test_metacheck_refuses_racy_input(tmp_path, capsys):
    f = tmp_path / "racy.cp"
    f.write_text("var x;\nthread a { x := 1; }\nthread b { x := 2; }\n")
    code = run_cli(["metacheck", "--depth", "6", str(f)])
    assert code == 2
    assert "race" in capsys.readouterr().err


def test_dot_export(fig_file, capsys):
    assert run_cli(["dot", fig_file]) == 0
    assert "digraph" in capsys.readouterr().out


def test_usage_errors(tmp_path, capsys):
    assert run_cli(["analyze", str(tmp_path / "missing.cp")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.cp"
    bad.write_text("thread t { x := 1; }")  # undeclared variable
    assert run_cli(["analyze", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
    assert run_cli(["analyze", "--analysis", "valset", "--domain", "octagon",
                    str(bad)]) == 2


def test_bad_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_builtin_corpus_names_resolve(capsys):
    assert run_cli(["analyze", "--analysis", "rel", "--recency",
                    "capped_counter"]) == 0


def test_analyze_with_refined_gamma(fig_file, region_file, capsys):
    code = run_cli(["analyze", "--analysis", "regrel", "--regions", region_file,
                    "--gamma", "refined", "--depth", "11", fig_file])
    assert code == 0
    assert "3/3 assertions proved" in capsys.readouterr().out


def test_region_file_without_semicolons(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text(corpus.COUPLED_XY)
    rg = tmp_path / "bare.rg"
    rg.write_text("region rxy { x, y }\n")  # no trailing semicolon
    assert run_cli(["analyze", "--analysis", "regrel", "--regions", str(rg),
                    str(f)]) == 0


def test_analyze_octagon_literal_above_2_pow_53_not_rounded(tmp_path, capsys):
    # rel/octagon stores float bounds: 2^53 + 1 must be dropped, not rounded
    f = tmp_path / "big.cp"
    f.write_text("var x;\nthread t { x := 9007199254740993; "
                 "assert(x == 9007199254740994); }\n")
    code = run_cli(["analyze", "--analysis", "rel", "--domain", "octagon",
                    "--format", "json", str(f)])
    blob = json.loads(capsys.readouterr().out)
    assert code == 1
    fact = blob["assertions"][0]["fact"]
    assert "9007199254740992" not in fact and fact == "true"


def test_analyze_octagon_sum_above_2_pow_53_not_proved(tmp_path, capsys):
    # y is 2^53 + 1, reached by sums of constants no larger than 2^52
    f = tmp_path / "sum.cp"
    f.write_text("var x, y;\nthread t { x := 4503599627370496; "
                 "y := x + 4503599627370496; y := y + 1; "
                 "assert(y == 9007199254740992); }\n")
    code = run_cli(["analyze", "--analysis", "rel", "--domain", "octagon", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert "0/1 assertions proved" in out


def test_analyze_valset_literal_above_2_pow_53_not_proved(tmp_path, capsys):
    # 9007199254740993 is 2^53 + 1: as a float it rounds to 2^53
    f = tmp_path / "big.cp"
    f.write_text("var x;\nthread t { x := 9007199254740993; "
                 "assert(x == 9007199254740994); }\n")
    code = run_cli(["analyze", "--analysis", "valset", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert "UNPROVED" in out and "0/1 assertions proved" in out
