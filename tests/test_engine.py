"""Fixpoint engine: post-fixpoint property, golden facts, determinism."""

import pytest

from racefree.absdom import RecencyFact
from racefree.concrete import reachable_states
from racefree.engine import (
    AnalysisConfig,
    analyze_fixpoint,
    check_postfixpoint,
    collecting_fixpoint,
    facts_to_json,
    make_domain,
)
from racefree.lang import desugar, parse_program
from racefree.syncfg import build_syncfg


def base(fact):
    return fact.elem if isinstance(fact, RecencyFact) else fact


def cond(p, src):
    q = parse_program(f"var {', '.join(p.variables)};\nthread t {{ assume({src}); }}")
    return q.threads[0].body[0].cond


def run(p, **kw):
    cfg = AnalysisConfig(**kw)
    return analyze_fixpoint(p, build_syncfg(p), cfg), cfg


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(analysis="valset", domain="octagon").validate()
    with pytest.raises(ValueError):
        AnalysisConfig(analysis="nope").validate()


def test_postfixpoint_holds_on_all_configs(coupled_xy, coupled_xy_regions):
    g = build_syncfg(coupled_xy)
    for kw in (
        dict(analysis="valset", domain="interval"),
        dict(analysis="rel", domain="octagon"),
        dict(analysis="rel", domain="octagon", recency=True),
        dict(analysis="regrel", domain="octagon", regions=coupled_xy_regions),
        dict(analysis="rel", domain="envset"),
        dict(analysis="rel", domain="envset", recency=True),
        dict(analysis="valset", domain="envset"),
        dict(analysis="valset", domain="envset", recency=True),
    ):
        cfg = AnalysisConfig(**kw)
        facts = analyze_fixpoint(coupled_xy, g, cfg)
        check_postfixpoint(coupled_xy, g, cfg, facts)  # must not raise


def test_regrel_equality_at_acquire_target(coupled_xy, coupled_xy_regions):
    facts, cfg = run(coupled_xy, analysis="regrel", domain="octagon",
                     regions=coupled_xy_regions)
    dom = make_domain(cfg, coupled_xy.variables)
    assert dom.entails(base(facts[11]), cond(coupled_xy, "x == y"))


def test_rel_drops_equality_at_acquire_target(coupled_xy):
    facts, cfg = run(coupled_xy, analysis="rel", domain="octagon")
    dom = make_domain(cfg, coupled_xy.variables)
    assert not dom.entails(base(facts[11]), cond(coupled_xy, "x == y"))
    assert dom.entails(base(facts[5]), cond(coupled_xy, "x == y"))


def test_double_increment_golden_relational_facts(double_increment):
    """Before t1's release: 0 < x = y; after t2's acquire: bounds only."""
    facts, cfg = run(double_increment, analysis="rel", domain="octagon")
    dom = make_domain(cfg, double_increment.variables)
    assert dom.entails(base(facts[5]), cond(double_increment, "x == y && x > 0"))
    assert dom.entails(base(facts[4]), cond(double_increment, "x == y + 1 && y >= 0"))
    post_acquire = base(facts[8])
    assert dom.entails(post_acquire, cond(double_increment, "x >= 0 && y >= 0"))
    assert not dom.entails(post_acquire, cond(double_increment, "x == y"))


def test_recency_bounds_capped_counter(capped_counter):
    plain, cfg = run(capped_counter, analysis="rel", domain="octagon")
    dom = make_domain(cfg, capped_counter.variables)
    assert dom.intervals_of(base(plain[3]))[0][1] == float("inf")
    tagged, cfg2 = run(capped_counter, analysis="rel", domain="octagon", recency=True)
    assert dom.intervals_of(base(tagged[3]))[0][1] == 1
    assert tagged[3].tids  # writer identities flow with the facts


def test_recency_tags_track_writes_only(capped_counter):
    """Writes tag the writing thread; assume and release leave tags alone."""
    facts, _ = run(capped_counter, analysis="rel", domain="octagon", recency=True)
    assert facts[2].tids == frozenset()            # post-acquire, nothing admitted
    assert facts[3].tids == frozenset({0})         # x := x + 1 adds t1
    assert facts[4].tids == frozenset({0})         # assert edge: unchanged
    assert facts[5].tids == frozenset({0})         # release: unchanged


def test_determinism(coupled_xy, coupled_xy_regions):
    a, _ = run(coupled_xy, analysis="regrel", domain="octagon",
               regions=coupled_xy_regions)
    b, _ = run(coupled_xy, analysis="regrel", domain="octagon",
               regions=coupled_xy_regions)
    assert set(a) == set(b)
    for loc in a:
        assert base(a[loc]) == base(b[loc])


def test_iteration_cap_names_location(capped_counter):
    from racefree.engine import AnalysisLimitError

    cfg = AnalysisConfig(analysis="rel", domain="octagon", iteration_cap=3)
    with pytest.raises(AnalysisLimitError) as e:
        analyze_fixpoint(capped_counter, build_syncfg(capped_counter), cfg)
    assert e.value.location in {loc for t in capped_counter.threads
                                for loc in t.locations}
    # the progress made, as the CLI prints it on exit 3
    assert (e.value.visits, e.value.updates) == (4, 1)
    assert str(e.value) == ("iteration cap 3 exceeded after 4 visits, at location "
                            f"{e.value.location} (update count 1)")


def _widen_points_recursive(p):
    """Reference: the recursive DFS that the engine's iterative one replaced."""
    points = set()
    for t in p.threads:
        succs = {}
        for i in t.instructions:
            succs.setdefault(i.source, []).append(i.target)
        color = {}

        def dfs(n):
            color[n] = 1
            for s in succs.get(n, ()):
                if color.get(s, 0) == 1:
                    points.add(s)
                elif color.get(s, 0) == 0:
                    dfs(s)
            color[n] = 2

        dfs(t.entry)
    return points


NESTED_LOOPS = """\
var x, y;
thread t {
  while (x < 5) {
    while (y < x) { y := y + 1; }
    if (y > 2) { x := x + 2; } else { x := x + 1; }
  }
  while (y > 0) { y := y - 1; }
}
"""


def test_widen_points_match_recursive_dfs():
    from racefree import corpus
    from racefree.engine import _Frame
    from racefree.lang import Acquire

    programs = [corpus.load(n) for n in corpus.names()]
    programs.append(desugar(parse_program(NESTED_LOOPS)))
    for p in programs:
        frame = _Frame(p, build_syncfg(p), AnalysisConfig())
        acquire_targets = {i.target for i in p.instructions if isinstance(i.command, Acquire)}
        assert frame.widen_points == _widen_points_recursive(p) | acquire_targets
    assert len(_widen_points_recursive(programs[-1])) == 3  # one head per loop


def test_long_straight_line_thread_analyzes():
    n = 3000
    src = "var x;\nthread t {\n" + "  x := x + 1;\n" * n + f"  assert(x == {n});\n}}\n"
    p = desugar(parse_program(src))
    facts, cfg = run(p, analysis="rel", domain="octagon")
    dom = make_domain(cfg, p.variables)
    assert dom.entails(base(facts[p.assertions[0].location]), cond(p, f"x == {n}"))


# ---------------------------------------------------------------------------
# collecting fixpoints


def test_collecting_straight_line_equals_enumeration():
    p = desugar(parse_program("var x, y;\nthread t { x := 1; y := x + 1; }"))
    res = collecting_fixpoint(p, AnalysisConfig(analysis="rel"), (-4, 4))
    reach = reachable_states(p, 4)
    per_loc = {}
    for s in reach:
        per_loc.setdefault(s.pc[0], set()).add(s.phi)
    for loc, envs in per_loc.items():
        assert res.facts[loc] == frozenset(envs)
    assert not res.clamped


def test_collecting_empty_body_thread():
    p = desugar(parse_program("var x;\nthread t { }"))
    res = collecting_fixpoint(p, AnalysisConfig(analysis="rel"), (-4, 4))
    assert res.facts[p.threads[0].entry] == frozenset({(0,)})


def test_collecting_regrel_keeps_equality(coupled_xy, coupled_xy_regions):
    cfg = AnalysisConfig(analysis="regrel", regions=coupled_xy_regions)
    res = collecting_fixpoint(coupled_xy, cfg, (0, 3))
    assert res.facts[11]
    assert all(env[0] == env[1] for env in res.facts[11])  # x == y throughout


def test_collecting_reports_clamping(double_increment):
    res = collecting_fixpoint(double_increment, AnalysisConfig(analysis="rel"), (-2, 2))
    assert res.clamped


def test_facts_serialize_to_json(coupled_xy):
    facts, cfg = run(coupled_xy, analysis="rel", domain="octagon", recency=True)
    rows = facts_to_json(coupled_xy, cfg, facts)
    assert {r["location"] for r in rows} == {loc for t in coupled_xy.threads
                                             for loc in t.locations}
    row11 = [r for r in rows if r["location"] == 11][0]
    assert row11["thread"] == "t2"
    assert isinstance(row11["constraints"], list)
    assert isinstance(row11["recency_tids"], list)
