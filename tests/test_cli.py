"""CLI subcommands, exit codes, deterministic output."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from racefree import corpus
from racefree.cli import build_parser, run_cli
from racefree.concrete import ProgramIndex, format_step, initial_state, successor_transitions
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


def test_a_region_file_keeps_the_program_tables(region_file, monkeypatch, capsys):
    """The program over a region file keeps the edge tables the validator
    built, since no table reads the regions: each is built once."""
    from racefree import lang

    built = []
    edges = lang.Program._edges
    monkeypatch.setattr(lang.Program, "_edges",
                        lambda self, end: built.append(end) or edges(self, end))
    assert run_cli(["analyze", "--analysis", "regrel", "--regions", region_file,
                    "coupled_xy"]) == 0
    assert sorted(built) == ["source", "target"]


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


def test_races_cross_validate_needs_region_races(capsys):
    """The cross-check compares region races, so with --kind data it is a
    usage error that names the conflict, not a silent skip."""
    assert run_cli(["races", "--kind", "data", "--cross-validate", "coupled_xy"]) == 2
    captured = capsys.readouterr()
    assert "translation" not in captured.out
    assert "--cross-validate" in captured.err and "--kind data" in captured.err


def counting_calls(monkeypatch, module, names) -> list[str]:
    """The names of `module`'s functions among `names`, appended to the
    returned list at each call."""
    calls = []
    for name in names:
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_races_of_both_kinds_walk_the_tree_once(monkeypatch, capsys):
    """`races --kind both` searches for data and region races in one walk
    of the standard tree, through the module attributes the benchmark's
    tracer wraps; the cross-check then searches the translated program."""
    from racefree import concrete

    calls = counting_calls(monkeypatch, concrete, ("_find_races", "clocked_walk"))
    assert run_cli(["races", "--kind", "both", "--depth", "8", "coupled_xy"]) == 0
    assert calls == ["_find_races", "clocked_walk"]
    calls.clear()
    assert run_cli(["races", "--kind", "both", "--depth", "4", "--cross-validate",
                    "coupled_xy"]) == 0
    assert calls == ["_find_races", "clocked_walk"] * 2
    assert "translation cross-check agrees: True" in capsys.readouterr().out


def test_races_of_both_kinds_stop_at_the_budget(tmp_path, monkeypatch, capsys):
    """An exhausted budget stops the one walk of both kinds: exit 3 with
    the limit message, and no second walk.  Under one region of every
    variable the walk is the region search's, so the message names the
    depth of its 18th node (a data search alone reaches its 18th node at
    depth 5)."""
    from racefree import concrete

    rg = tmp_path / "all.rg"
    rg.write_text("region r { x, y, z };\n")
    monkeypatch.setattr(concrete, "DEFAULT_BUDGET", 17)
    calls = counting_calls(monkeypatch, concrete, ("clocked_walk",))
    assert run_cli(["races", "--kind", "both", "--depth", "12", "--regions", str(rg),
                    "coupled_xy"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("limit: exploration budget 17 exceeded after 18 nodes "
                            "at depth 8\n")
    assert calls == ["clocked_walk"]


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
        state, idx = initial_state(p), ProgramIndex(p)
        for line in steps:
            (fired,) = [tr for tr in successor_transitions(p, state, index=idx)
                        if format_step(tr, p) == line]
            state = fired.post
        assert successor_transitions(p, state, index=idx) == (), block


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

    calls = counting_calls(monkeypatch, concrete, ("_find_races", "clocked_walk"))
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


def test_invalid_analysis_domain_pair_is_a_usage_error(capsys):
    """On a program that parses, the pair is rejected as a usage error
    (exit 2), not an internal error (exit 3)."""
    assert run_cli(["analyze", "--analysis", "valset", "--domain", "octagon",
                    "coupled_xy"]) == 2
    err = capsys.readouterr().err
    assert "the value-set analysis pairs with the interval domain" in err
    assert "internal error" not in err


def test_metacheck_takes_a_program_without_variables(tmp_path, capsys):
    """The harness's cartesian mix reads the environments' width from the
    environments: a program without variables has no region to read it
    from."""
    f = tmp_path / "novar.rf"
    f.write_text("lock m; thread t { acquire(m); release(m); }")
    assert run_cli(["metacheck", "--samples", "20", str(f)]) == 0
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("src", [
    "thread t { acquire(m); while (c < 2) { c := c + 1; } assert(c >= 2); release(m); }",
    "thread t { acquire(m); c := 0; release(m); while (x < 2) { x := x + 1; } }",
    "thread t { if (c == 0) { acquire(m); x := 1; release(m); } }",
], ids=["acquire_then_while", "release_then_while", "one_armed_if_ends_in_release"])
def test_analyze_takes_sync_before_a_join(tmp_path, capsys, src):
    """An acquire or release just before a while head or at the end of a
    one-armed if's body is lowered to a valid program (no exit 2)."""
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


@pytest.mark.parametrize("argv", [
    ["analyze", "--format", "json", "coupled_xy"],
    ["metacheck", "--depth", "6", "--samples", "5", "--format", "json", "coupled_xy"],
])
def test_a_closed_stdout_ends_quietly_with_141(argv):
    """A reader that goes away is no internal error: the run ends with the
    shell's code for SIGPIPE and prints nothing, not even at exit."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "racefree.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_bad_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_readme_synopsis_lists_every_option():
    """Each subcommand's synopsis in the README's CLI block names exactly
    the options its parser defines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["racefree"]:
            command = words[1]
        if command is not None:
            documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = build_parser()._subparsers._group_actions[0].choices
    defined = {name: {o for a in sp._actions for o in a.option_strings
                      if o not in ("-h", "--help")}
               for name, sp in subparsers.items()}
    assert documented == defined


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


def test_program_file_not_utf8_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "latin1.cp"
    f.write_bytes("var x; // caf\xe9\nthread t { x := 1; }\n".encode("latin-1"))
    assert run_cli(["analyze", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"cannot read {f}: not UTF-8 text" in err and "internal error" not in err


def test_region_file_not_utf8_is_a_usage_error(tmp_path, capsys, fig_file):
    rg = tmp_path / "latin1.rg"
    rg.write_bytes("region rxy { x, y } // caf\xe9\n".encode("latin-1"))
    assert run_cli(["analyze", "--analysis", "regrel", "--regions", str(rg), fig_file]) == 2
    err = capsys.readouterr().err
    assert f"cannot read region file {rg}: not UTF-8 text" in err
    assert "internal error" not in err


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


@pytest.mark.parametrize("analysis", ["rel", "regrel"])
@pytest.mark.parametrize("extra", [[], ["--recency"]], ids=["plain", "recency"])
def test_analyze_a_program_without_variables(tmp_path, capsys, analysis, extra):
    # the acquire mixes octagons over no variable: the closure's emptiness
    # test then reduces an empty diagonal
    f = tmp_path / "varless.rf"
    f.write_text("lock m; thread t { acquire(m); release(m); }\n")
    code = run_cli(["analyze", "--analysis", analysis, "--deterministic", *extra, str(f)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "0/0 assertions proved" in captured.out


NEAR_LIMIT = (
    "var x, y, z; lock m; region r { x, y, z };\n"
    "thread t { acquire(m); z := y - x; release(m); acquire(m);\n"
    "  assume(y + y >= 0 - 96076792050570583); z := z + (0 - 48038396025285288); release(m); }\n"
    "thread u { acquire(m); y := 96076792050570581 - y; release(m); }\n")


@pytest.mark.parametrize("extra", [[], ["--recency"]], ids=["plain", "recency"])
def test_regrel_near_the_octagon_limit_passes_the_postfixpoint_check(tmp_path, capsys, extra):
    # the release-point facts feeding t's first acquire were saturated, so
    # they are not closed and neither is their mix: it lacks y >= 0,
    # implied by x = 0 and x - y <= 0, and the entrywise leq rejected it
    # against the stored fact, which is semantically above it (exit 3)
    f = tmp_path / "near_limit.rf"
    f.write_text(NEAR_LIMIT)
    code = run_cli(["analyze", "--analysis", "regrel", "--deterministic", *extra, str(f)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "0/0 assertions proved" in captured.out


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


@pytest.mark.parametrize("text, where", [
    # a tab and a carriage return are one column each
    ("var x;\r\nthread t {\r\n\tx := 1;\r\n  assert(x == 2 @);\r\n}", "4:17: unexpected character '@'"),
    # a literal is ASCII digits: U+0661 (ARABIC-INDIC DIGIT ONE) read as 1 gave PROVED, exit 0
    ("var x; thread t { x := \u0661; assert(x == 1); }", "1:24: unexpected character '\u0661'"),
])
def test_an_unexpected_character_is_a_parse_error_at_its_position(tmp_path, capsys, text, where):
    f = tmp_path / "bad_char.cp"
    f.write_text(text, encoding="utf-8")
    code = run_cli(["analyze", str(f)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f": {where}" in err


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
