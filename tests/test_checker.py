"""Owned-variable computation and assertion discharge."""

import json
from itertools import product

import pytest

import domtools
from domtools import discharge_projected, owned_static_reference, random_race_free_programs
from racefree import corpus
from racefree.checker import (
    check_assertions,
    compute_owned_oracle,
    compute_owned_static,
    emit_report,
    must_hold_locksets,
    report_to_dict,
)
from racefree.concrete import enumerate_executions
from racefree.engine import AnalysisConfig, analyze_fixpoint
from racefree.lang import desugar, eval_bool, parse_program, parse_region_text


def analyze(p, **kw):
    cfg = AnalysisConfig(**kw)
    return analyze_fixpoint(p, cfg), cfg


# ---------------------------------------------------------------------------
# owned sets


def test_must_hold_locksets(coupled_xy):
    must = must_hold_locksets(coupled_xy)
    assert must[("t1", 1)] == frozenset()
    assert must[("t1", 3)] == frozenset({"m"})
    assert must[("t1", 7)] == frozenset()
    assert must[("t2", 11)] == frozenset({"m"})


def test_static_owned_coupled_xy(coupled_xy):
    owned = compute_owned_static(coupled_xy)
    assert owned.owned("t1", 3) == frozenset({"x", "y"})
    assert owned.owned("t2", 9) == frozenset({"z"})
    assert owned.owned("t2", 11) == frozenset({"x", "y", "z"})
    assert "z" not in owned.owned("t1", 3)


def test_static_owned_single_thread():
    p = desugar(parse_program("var x, y;\nthread t { x := y; }"))
    owned = compute_owned_static(p)
    for loc in p.threads[0].locations:
        assert owned.owned("t", loc) == frozenset({"x", "y"})


def test_static_owned_gap_on_flag_handoff(flag_handoff):
    """x is semantically owned at t2's unprotected accesses but not statically."""
    static = compute_owned_static(flag_handoff)
    assert "x" not in static.owned("t2", 12)
    oracle = compute_owned_oracle(flag_handoff, 12)
    assert "x" in oracle.owned("t2", 12)


def test_static_is_subset_of_oracle_on_corpus():
    for name in corpus.names():
        p = corpus.load(name)
        static = compute_owned_static(p)
        oracle = compute_owned_oracle(p, 12)
        assert set(oracle.table) == set(static.table), name
        for key in static.table:
            assert static.table[key] <= oracle.table[key], (name, key)


UNLOCKED_WRITER = """var x, y, z;
lock m, n;
thread a { acquire(m); x := y + 1; release(m); acquire(n); z := x; release(n); }
thread b { acquire(m); acquire(n); y := x; z := z + 1; release(n); release(m); }
thread c { x := 3; }
"""


def test_static_owned_matches_the_reference_scan():
    programs = [corpus.load(n) for n in corpus.names()]
    programs += [p for _, p in random_race_free_programs(50, seed=7)]
    unlocked = desugar(parse_program(UNLOCKED_WRITER))
    programs.append(unlocked)
    assert len(programs) == 55
    for p in programs:
        assert compute_owned_static(p).table == owned_static_reference(p)
    # c writes x with no lock held: x is owned nowhere in a or b; y is
    # protected by m, z by n, and c, holding no lock, owns nothing
    owned = compute_owned_static(unlocked)
    assert all("x" not in owned.owned(t, loc) for t in ("a", "b")
               for loc in unlocked.threads[unlocked.thread_index(t)].locations)
    assert owned.owned("b", unlocked.threads[1].instructions[2].source) == {"y", "z"}
    assert owned.owned("c", unlocked.threads[2].entry) == frozenset()


# ---------------------------------------------------------------------------
# assertion discharge


def test_report_verdicts_per_analysis(coupled_xy, coupled_xy_regions):
    p = coupled_xy.with_regions(coupled_xy_regions)
    owned = compute_owned_static(p)
    expectations = {
        ("regrel", "octagon"): {5: True, 9: True, 11: True},
        ("rel", "octagon"): {5: True, 9: True, 11: False},
        ("valset", "interval"): {5: False, 9: True, 11: False},
    }
    for (analysis, domain), want in expectations.items():
        facts, cfg = analyze(p, analysis=analysis, domain=domain)
        report = check_assertions(p, facts, owned, cfg, "coupled_xy")
        got = {a.location: a.proved for a in report.assertions}
        assert got == want, analysis


def test_assert_true_is_proved():
    p = desugar(parse_program("var x;\nthread t { x := 1; assert(true); }"))
    facts, cfg = analyze(p, analysis="rel", domain="octagon")
    report = check_assertions(p, facts, compute_owned_static(p), cfg)
    assert report.assertions[0].proved


def test_unowned_variable_blocks_proof():
    # y written by the other thread with no lock anywhere: never owned at the assert
    src = "var y;\nthread a { assert(y == 0); }\nthread b { y := 1; }"
    p = desugar(parse_program(src))
    facts, cfg = analyze(p, analysis="rel", domain="octagon")
    report = check_assertions(p, facts, compute_owned_static(p), cfg)
    (a,) = report.assertions
    assert not a.proved
    assert a.reason == "unowned variable in condition"


def test_proved_monotone_in_owned_set(flag_handoff):
    facts, cfg = analyze(flag_handoff, analysis="rel", domain="octagon")
    static = compute_owned_static(flag_handoff)
    oracle = compute_owned_oracle(flag_handoff, 12)
    proved_static = {a.location for a in check_assertions(
        flag_handoff, facts, static, cfg).assertions if a.proved}
    proved_oracle = {a.location for a in check_assertions(
        flag_handoff, facts, oracle, cfg).assertions if a.proved}
    assert proved_static <= proved_oracle
    assert 13 in proved_oracle


def test_proved_assertions_hold_in_bounded_executions(coupled_xy, coupled_xy_regions):
    """Desk-scale soundness: Proved conditions hold whenever the thread sits
    at the assert location in any execution up to the test depth."""
    p = coupled_xy.with_regions(coupled_xy_regions)
    facts, cfg = analyze(p, analysis="regrel", domain="octagon")
    report = check_assertions(p, facts, compute_owned_static(p), cfg)
    proved = {(a.thread, a.location) for a in report.assertions if a.proved}
    assert proved
    by_loc = {a.location: a for a in coupled_xy.assertions}
    var_order = coupled_xy.variables
    for e in enumerate_executions(coupled_xy, 12):
        state = e.final
        for tid, t in enumerate(coupled_xy.threads):
            loc = state.pc[tid]
            if (t.name, loc) in proved:
                env = dict(zip(var_order, state.phi))
                assert eval_bool(by_loc[loc].cond, env), (t.name, loc, env)


# ---------------------------------------------------------------------------
# discharge on the fact as it is


REFERENCE_CONFIGS = list(product(
    (("valset", "interval"), ("rel", "octagon"), ("regrel", "octagon"),
     ("rel", "envset"), ("valset", "envset")),
    (False, True)))


def assert_discharge_matches_projection(p, owned_maps) -> int:
    """`check_assertions` gives the verdicts and reasons of the projecting
    reference discharge; returns how many assertions passed the owned gate."""
    gated = 0
    for (analysis, domain), recency in REFERENCE_CONFIGS:
        cfg = AnalysisConfig(analysis=analysis, domain=domain, recency=recency)
        facts = analyze_fixpoint(p, cfg)
        for owned in owned_maps:
            got = [(a.proved, a.reason) for a in
                   check_assertions(p, facts, owned, cfg).assertions]
            assert got == discharge_projected(p, facts, owned, cfg), (cfg, owned.mode)
            gated += sum(reason != "unowned variable in condition" for _, reason in got)
    return gated


@pytest.mark.parametrize("name", corpus.names())
def test_discharge_matches_projection_on_corpus(name):
    p = corpus.load(name)
    text = corpus.REGION_TEXTS.get(name)
    if text:
        p = p.with_regions(parse_region_text(text, p.variables))
    owned_maps = (compute_owned_static(p), compute_owned_oracle(p, 12))
    gated = assert_discharge_matches_projection(p, owned_maps)
    assert gated or not p.assertions


def test_discharge_matches_projection_on_random_programs():
    gated = 0
    for _, q in domtools.asserted_programs():
        gated += assert_discharge_matches_projection(q, (compute_owned_static(q),))
    assert gated


# ---------------------------------------------------------------------------
# report formats


def test_json_schema_shape(coupled_xy, coupled_xy_regions):
    p = coupled_xy.with_regions(coupled_xy_regions)
    facts, cfg = analyze(p, analysis="regrel", domain="octagon")
    report = check_assertions(p, facts, compute_owned_static(p), cfg, "coupled_xy")
    report.timing_ms = {"analysis": 0, "total": 0}
    blob = json.loads(emit_report(report, "json"))
    assert blob["program"] == "coupled_xy"
    assert blob["analysis"] == "regrel" and blob["domain"] == "octagon"
    assert {"name", "vars"} <= set(blob["regions"][0])
    entry = blob["assertions"][0]
    assert {"location", "thread", "condition", "proved", "fact", "owned"} <= set(entry)
    assert blob["races"] is None
    assert blob["timing_ms"] == {"analysis": 0, "total": 0}


def test_text_format_lines(coupled_xy, coupled_xy_regions):
    p = coupled_xy.with_regions(coupled_xy_regions)
    facts, cfg = analyze(p, analysis="regrel", domain="octagon")
    report = check_assertions(p, facts, compute_owned_static(p), cfg)
    text = emit_report(report, "text")
    assert "loc 11 [t2] assert(x == y): PROVED" in text


def test_unproved_entry_carries_fact_string(coupled_xy):
    facts, cfg = analyze(coupled_xy, analysis="valset", domain="interval")
    report = check_assertions(coupled_xy, facts, compute_owned_static(coupled_xy), cfg)
    unproved = [a for a in report.assertions if not a.proved]
    assert unproved and all(a.fact for a in unproved)


def test_program_without_assertions():
    p = desugar(parse_program("var x;\nthread t { x := 1; }"))
    facts, cfg = analyze(p, analysis="rel", domain="octagon")
    report = check_assertions(p, facts, compute_owned_static(p), cfg)
    assert report.assertions == []
    assert report.all_proved
    assert report_to_dict(report)["assertions"] == []
