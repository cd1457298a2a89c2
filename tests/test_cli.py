"""CLI subcommands, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from racefree import corpus
from racefree.cli import build_parser, run_cli
from racefree.concrete import format_step, initial_state, successor_transitions
from racefree.lang import MAX_NESTING


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


def test_races_cross_validate_with_a_witness_named_variable(tmp_path, capsys):
    """A variable named like a region's witness neither races with it nor
    hides a region: no region race, and the translation agrees."""
    f = tmp_path / "p.cp"
    f.write_text("var x, __rg_x; thread t { x := 1; } thread u { __rg_x := 1; }")
    code = run_cli(["races", "--kind", "region", "--cross-validate", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "no race found" in out
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


def test_explore_maximal_only_prints_no_extendable_execution(capsys):
    """An execution cut at the depth bound is not maximal when a step is
    still enabled: coupled_xy has none within 2 steps, and each execution
    printed for flag_handoff, replayed step by step, ends in a state with
    no successor."""
    assert run_cli(["explore", "--depth", "2", "--maximal-only", "coupled_xy"]) == 0
    out = capsys.readouterr().out
    assert "# execution" not in out
    assert "no maximal execution up to depth 2" in out

    assert run_cli(["explore", "--depth", "20", "--maximal-only", "flag_handoff"]) == 0
    blocks = capsys.readouterr().out.split("# execution ")[1:]
    assert blocks
    p = corpus.load("flag_handoff")
    for block in blocks:
        steps = [line for line in block.splitlines()[1:] if " -[" in line]
        state = initial_state(p)
        for line in steps:
            (fired,) = [tr for tr in successor_transitions(p, state)
                        if format_step(tr, p) == line]
            state = fired.post
        assert successor_transitions(p, state) == (), block


def test_metacheck_passes(fig_file, capsys):
    code = run_cli(["metacheck", "--depth", "8", "--samples", "20", fig_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "correspondence:" in out and "pass" in out


def test_metacheck_searches_for_races_once(fig_file, monkeypatch):
    """The correspondence and invariant checks share one race-freedom
    precondition: the tree is searched for races once per run."""
    from racefree import metacheck

    searches = []

    def counting(*args, **kwargs):
        searches.append(args[1])
        return find(*args, **kwargs)

    find = metacheck.find_data_races
    monkeypatch.setattr(metacheck, "find_data_races", counting)
    assert run_cli(["metacheck", "--depth", "6", "--samples", "5", fig_file]) == 0
    assert searches == [6]


def test_metacheck_walks_the_standard_tree_once(fig_file, monkeypatch):
    """The race precondition and the owned sets of the version invariants
    come from one walk of the standard tree, through the module attributes
    the benchmark's tracer wraps."""
    from racefree import concrete

    calls = []

    def counting(name):
        original = getattr(concrete, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(concrete, name, wrapper)

    counting("clocked_walk")
    counting("_find_races")
    assert run_cli(["metacheck", "--depth", "6", "--samples", "5", fig_file]) == 0
    assert calls == ["_find_races", "clocked_walk"]


def test_metacheck_walks_the_thread_local_tree_once(fig_file, monkeypatch):
    """The correspondence and the version invariants come from one walk
    of the thread-local tree."""
    from racefree import metacheck

    walks = []
    monkeypatch.setattr(metacheck, "dfs",
                        lambda *a, _dfs=metacheck.dfs: walks.append(a[1]) or _dfs(*a))
    assert run_cli(["metacheck", "--depth", "6", "--samples", "5", fig_file]) == 0
    assert walks == [6]


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


@pytest.mark.parametrize("src", [
    "thread t { acquire(m); while (c < 2) { c := c + 1; } assert(c >= 2); release(m); }",
    "thread t { acquire(m); c := 0; release(m); while (x < 2) { x := x + 1; } }",
    "thread t { if (c == 0) { acquire(m); x := 1; release(m); } }",
], ids=["acquire_then_while", "release_then_while", "one_armed_if_ends_in_release"])
def test_analyze_takes_sync_before_a_join(tmp_path, capsys, src):
    """An acquire or release just before a while head or at the end of a
    one-armed if's body desugars to a valid program (no exit 2)."""
    f = tmp_path / "p.cp"
    f.write_text(f"var c, x;\nlock m;\n{src}\nthread u {{ acquire(m); release(m); }}")
    assert run_cli(["analyze", str(f)]) in (0, 1)
    assert "invalid program" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["races", "--depth", "-1"],
    ["explore", "--depth", "-1"],
    ["explore", "--limit", "-1"],
    ["analyze", "--owned", "oracle", "--depth", "-1"],
    ["metacheck", "--samples", "-1"],
    ["metacheck", "--depth", "-1"],
])
def test_negative_counts_are_usage_errors(fig_file, capsys, argv):
    assert run_cli(argv + [fig_file]) == 2
    err = capsys.readouterr().err
    assert "must be an integer >= 0" in err and "internal error" not in err


def test_empty_value_box_is_a_usage_error_under_optimization(fig_file):
    # `python -O` strips asserts, so the box check must not be one
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "racefree.cli", "analyze", "--domain", "envset",
         "--value-box", "4,-4", fig_file],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "bad value box" in proc.stderr


def test_bad_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [
    ["explore", "--format", "json"],
    ["races", "--deterministic"],
    ["metacheck", "--deterministic"],
    ["dot", "--format", "json"],
    ["dot", "--deterministic"],
    ["explore", "--deterministic"],
    ["dot", "--gamma", "refined"],
    ["dot", "--depth", "3"],
    ["dot", "--havoc-set", "0"],
])
def test_subcommands_take_only_the_options_they_read(fig_file, capsys, argv):
    """--format belongs to analyze, races and metacheck, --deterministic to
    analyze; anywhere else either is a usage error.  dot takes no option:
    it exports the full sync-CFG, which no depth or havoc pool changes."""
    assert run_cli(argv + [fig_file]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_builtin_corpus_names_resolve(capsys):
    assert run_cli(["analyze", "--analysis", "rel", "--recency",
                    "capped_counter"]) == 0


LATE_WRITE = """\
var x;
lock m;
thread t { acquire(m); x := 1; release(m); acquire(m); x := 2; release(m); }
thread u { acquire(m); assert(x <= 1); release(m); }
"""


def test_analyze_has_no_refined_gamma(tmp_path, capsys):
    """A gamma refined at a depth that misses the second release proved
    `x <= 1` although x = 2 is reachable there; analyze rejects the option
    (usage error) and leaves the assertion unproved."""
    f = tmp_path / "late.rf"
    f.write_text(LATE_WRITE)
    for depth in ("3", "6"):
        assert run_cli(["analyze", "--gamma", "refined", "--depth", depth, str(f)]) == 2
        assert run_cli(["analyze", "--depth", depth, str(f)]) == 1
    assert "UNPROVED" in capsys.readouterr().out


def test_region_file_without_semicolons(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text(corpus.COUPLED_XY)
    rg = tmp_path / "bare.rg"
    rg.write_text("region rxy { x, y }\n")  # no trailing semicolon
    assert run_cli(["analyze", "--analysis", "regrel", "--regions", str(rg),
                    str(f)]) == 0


TWO_WRITERS = "var x, y;\n{regions}thread a {{ x := 1; }}\nthread b {{ y := 2; }}\n"


@pytest.mark.parametrize("where", ["program", "region file"])
def test_region_named_after_a_variable_outside_it_is_a_parse_error(tmp_path, capsys, where):
    # x's own singleton region would be named x too: a write of y then
    # raced with a write of x, as a region race on x (exit 1)
    f = tmp_path / "p.cp"
    argv = ["races", "--kind", "region"]
    if where == "program":
        f.write_text(TWO_WRITERS.format(regions="region x { y };\n"))
        at = "p.cp: 2:8:"
    else:
        f.write_text(TWO_WRITERS.format(regions=""))
        rg = tmp_path / "bad.rg"
        rg.write_text("region x { y }\n")
        argv += ["--regions", str(rg)]
        at = "bad.rg: 1:8:"
    code = run_cli([*argv, str(f)])
    captured = capsys.readouterr()
    assert code == 2, captured.out
    assert f"{at} region 'x' is named after a variable outside it" in captured.err
    assert "region_race" not in captured.out


def test_a_variable_declared_after_a_region_of_its_name_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text("var y;\nregion x { y };\nvar x;\nthread a { x := 1; }\n")
    assert run_cli(["races", "--kind", "region", str(f)]) == 2
    assert "3:5: region 'x' is named after a variable outside it" in capsys.readouterr().err


def test_a_region_named_after_a_variable_inside_it_stays_legal(tmp_path, capsys):
    f = tmp_path / "p.cp"
    f.write_text(TWO_WRITERS.format(regions="region x { x, y };\n"))
    assert run_cli(["races", "--kind", "region", str(f)]) == 1  # x and y share region x
    assert "region_race on x" in capsys.readouterr().out


def test_analyze_octagon_literal_above_2_pow_53_not_rounded(tmp_path, capsys):
    # 2^53 + 1 is stored exactly, not rounded to the float 2^53
    f = tmp_path / "big.cp"
    f.write_text("var x;\nthread t { x := 9007199254740993; "
                 "assert(x == 9007199254740994); }\n")
    code = run_cli(["analyze", "--analysis", "rel", "--domain", "octagon",
                    "--format", "json", str(f)])
    blob = json.loads(capsys.readouterr().out)
    assert code == 1
    fact = blob["assertions"][0]["fact"]
    assert fact == "x = 9007199254740993"


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


@pytest.mark.parametrize("analysis", ["rel", "valset"])
def test_analyze_sum_above_2_pow_53_proved_exactly(tmp_path, capsys, analysis):
    # y is 2^53 + 1, reached by sums of constants no larger than 2^52
    f = tmp_path / "sum.cp"
    f.write_text("var x, y;\nthread t { x := 4503599627370496; "
                 "y := x + 4503599627370496; y := y + 1; "
                 "assert(y == 9007199254740993); }\n")
    code = run_cli(["analyze", "--analysis", analysis, str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 assertions proved" in out


HUGE = 10 ** 400  # beyond the float range


@pytest.mark.parametrize("analysis", ["valset", "rel", "regrel"])
@pytest.mark.parametrize("body,code,summary", [
    # y is havoc, so x's range is infinite and x >= 0 unprovable
    (f"y := havoc; x := y + {HUGE}; assert(x >= 0);", 1, "0/1"),
    # x stays 0; the guard bounds x by HUGE minus y's infinite lower bound
    (f"y := havoc; assume(x + y <= {HUGE}); assert(x >= 0);", 0, "1/1"),
], ids=["assign", "guard"])
def test_analyze_literal_beyond_the_float_range_is_sound(tmp_path, capsys, analysis,
                                                         body, code, summary):
    # a sum of an int past 2^1024 and an infinite bound converted the int
    # to float: OverflowError, exit 3
    f = tmp_path / "huge.cp"
    f.write_text(f"var x, y;\nthread t {{ {body} }}\n")
    got = run_cli(["analyze", "--analysis", analysis, "--deterministic", str(f)])
    captured = capsys.readouterr()
    assert got == code, captured.err
    assert f"{summary} assertions proved" in captured.out


def test_analyze_valset_literal_above_2_pow_53_not_proved(tmp_path, capsys):
    # 9007199254740993 is 2^53 + 1: as a float it rounds to 2^53
    f = tmp_path / "big.cp"
    f.write_text("var x;\nthread t { x := 9007199254740993; "
                 "assert(x == 9007199254740994); }\n")
    code = run_cli(["analyze", "--analysis", "valset", str(f)])
    out = capsys.readouterr().out
    assert code == 1
    assert "UNPROVED" in out and "0/1 assertions proved" in out


def test_analyze_recency_dead_branch_passes_the_postfixpoint_check(tmp_path, capsys):
    # assume(x == 2) is bottom after x := 1; that bottom must not keep the
    # write tag of x := 1, or the post-fixpoint check rejects a sound result
    f = tmp_path / "dead.cp"
    f.write_text("var x;\nthread t { x := 1; if (x == 2) { x := 3; } assert(x == 1); }\n")
    code = run_cli(["analyze", "--analysis", "rel", "--recency", str(f)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "PROVED" in captured.out and "1/1 assertions proved" in captured.out


# Long and deeply nested inputs.  Sums and &&/|| chains are flat, so their
# length is unlimited; parentheses, `!` and blocks nest up to MAX_NESTING
# levels, counted over every enclosing `(`, `{` and `!` and every && chain
# inside an || chain.  Each of these inputs ended in "internal error:
# RecursionError" (exit 3) before.

LONG = 1500
LOCKED = ("var x, y;\nlock m;\n"
          "thread t {{ acquire(m); {body} release(m); assert(x >= 0); }}\n"
          "thread u {{ acquire(m); y := x; release(m); }}\n")
LONG_INPUTS = {
    "sum": LOCKED.format(body="x := x" + " + 1" * (LONG - 1) + ";"),
    "product": LOCKED.format(body="x := " + "2 * " * (LONG - 1) + "x;"),
    "and-chain": LOCKED.format(
        body="assume(" + " && ".join(f"x <= {k}" for k in range(LONG)) + ");"),
    "or-chain": LOCKED.format(
        body="assume(" + " || ".join(f"x == {k}" for k in range(LONG)) + ");"),
}
LONG_RUNS = {
    "valset": ["analyze", "--analysis", "valset"],
    "rel": ["analyze", "--analysis", "rel"],
    "regrel": ["analyze", "--analysis", "regrel"],
    "envset": ["analyze", "--domain", "envset"],
    "races": ["races", "--kind", "both", "--depth", "6"],
    "explore": ["explore", "--depth", "4"],
    "metacheck": ["metacheck", "--depth", "6", "--samples", "10"],
    "dot": ["dot"],
}


@pytest.mark.parametrize("run", LONG_RUNS)
@pytest.mark.parametrize("name", LONG_INPUTS)
def test_long_sums_and_chains_run_every_subcommand(tmp_path, capsys, name, run):
    f = tmp_path / f"{name}.cp"
    f.write_text(LONG_INPUTS[name])
    code = run_cli([*LONG_RUNS[run], str(f)])
    captured = capsys.readouterr()
    assert code in (0, 1), captured.err
    assert "internal error" not in captured.err


@pytest.mark.parametrize("argv", [["races", "--depth", "2"], ["explore", "--depth", "1"]])
def test_a_sum_of_many_variables_compiles(tmp_path, capsys, argv):
    # the compiled step sums 3000 distinct terms; as one chain of `+`, the
    # Python compiler recursed past its limit
    names = [f"v{k}" for k in range(3000)]
    f = tmp_path / "wide.cp"
    f.write_text(f"var x, {', '.join(names)};\nthread t {{ x := {' + '.join(names)}; }}\n")
    code = run_cli([*argv, str(f)])
    captured = capsys.readouterr()
    assert code == 0, captured.err


def _nested(kind: str, levels: int) -> tuple[str, str]:
    """A program whose innermost opener is `levels` deep, on line 2, and the
    text that starts with that opener."""
    if kind == "parens":  # x - (1 - (1 - ... (1 - x)))
        inner = levels - 1  # the thread's braces are the first level
        return ("var x;\nthread t { x := x" + " - (1" * inner + " - x" + ")" * inner
                + "; assert(x >= 0); }\n"), "(1 - x)"
    if kind in ("guard-parens", "leading-guard-parens"):
        # in x >= 0 || x >= 1 && (...), the && chain inside the || chain is
        # a level of its own: the k-th parenthesis is 2k + 2 deep
        inner, odd = divmod(levels - 2, 2)
        group = "!" * odd + "(x >= 2)"
        if kind == "guard-parens":  # the groups close the chains
            cond = "x >= 0 || x >= 1 && " + "(x >= 2 || x >= 1 && " * (inner - 1) + group
            cond += ")" * (inner - 1)
        else:  # the groups open them: (((x >= 2) && x >= 1 || x >= 0) && ...)
            cond = "(" * (inner - 1) + group + " && x >= 1 || x >= 0)" * (inner - 1)
            cond += " && x >= 1 || x >= 0"
        return (f"var x;\nthread t {{ x := havoc; assume({cond}); assert(x >= 0); }}\n",
                "(x >= 2)")
    if kind == "not":
        inner = levels - 2
        return f"var x;\nthread t {{ assert({'!' * inner}x == 0); }}\n", "!x == 0"
    assert kind == "blocks"  # each `if` adds a level of braces
    inner = levels - 1
    return ("var x;\nthread t { " + "if (x >= 0) { " * inner + "x := x + 1; "
            + "} " * inner + "assert(x >= 0); }\n"), "(x >= 0) { x := "


NESTED_KINDS = ("parens", "guard-parens", "leading-guard-parens", "not", "blocks")


@pytest.mark.parametrize("kind", NESTED_KINDS)
def test_nesting_at_the_cap_analyzes(tmp_path, capsys, kind):
    f = tmp_path / f"{kind}.cp"
    f.write_text(_nested(kind, MAX_NESTING)[0])
    for argv in LONG_RUNS.values():
        code = run_cli([*argv, str(f)])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        assert "internal error" not in captured.err


@pytest.mark.parametrize("kind", NESTED_KINDS)
def test_nesting_past_the_cap_is_a_parse_error_at_the_token(tmp_path, capsys, kind):
    text, innermost = _nested(kind, MAX_NESTING + 1)
    col = text.splitlines()[1].index(innermost) + 1
    f = tmp_path / f"{kind}.cp"
    f.write_text(text)
    code = run_cli(["analyze", str(f)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f": 2:{col}: nesting deeper than {MAX_NESTING} levels" in err


def test_literal_past_the_int_digit_limit_is_a_parse_error(tmp_path, capsys):
    # int() of more than 4300 digits raises ValueError: exit 3 before
    digits = "7" * 4301
    f = tmp_path / "long_literal.cp"
    f.write_text(f"var x;\nthread t {{ x := {digits}; }}\n")
    code = run_cli(["analyze", str(f)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert ": 2:17: integer literal of 4301 digits is too long" in err


def test_analyze_prints_a_bound_past_the_digit_limit_in_hex(tmp_path, capsys):
    # y's bound has 8000 digits; str() of it raised ValueError: exit 3 before
    n = "9" * 4000
    f = tmp_path / "big_bound.cp"
    f.write_text(f"var x, y;\nthread t {{ x := {n}; y := {n} * x; assert(y >= 0); }}\n")
    code = run_cli(["analyze", "--analysis", "valset", "--format", "json", str(f)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    fact = json.loads(captured.out)["assertions"][0]["fact"]
    assert fact == f"x = {n}; y = {hex(int(n) ** 2)}"
