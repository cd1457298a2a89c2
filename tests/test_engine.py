"""Fixpoint engine: post-fixpoint property, golden facts, determinism."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from racefree import lang
from racefree.absdom import RecencyFact
from racefree.checker import check_assertions, compute_owned_static
from racefree.concrete import reachable_states
from racefree.engine import (
    AnalysisConfig,
    analyze_fixpoint,
    check_postfixpoint,
    collecting_fixpoint,
    make_domain,
)
from racefree.lang import desugar, parse_program, parse_region_text

from domtools import fifo_solve_reference, random_race_free_programs


def base(fact):
    return fact.elem if isinstance(fact, RecencyFact) else fact


def cond(p, src):
    q = parse_program(f"var {', '.join(p.variables)};\nthread t {{ assume({src}); }}")
    return q.threads[0].body[0].cond


def run(p, **kw):
    cfg = AnalysisConfig(**kw)
    return analyze_fixpoint(p, cfg), cfg


def test_config_validation():
    with pytest.raises(ValueError):
        AnalysisConfig(analysis="valset", domain="octagon").validate()
    with pytest.raises(ValueError):
        AnalysisConfig(analysis="nope").validate()


CHECK_CONFIGS = [
    dict(analysis=a, domain="interval" if a == "valset" else "octagon", recency=r)
    for a in ("valset", "rel", "regrel") for r in (False, True)
] + [dict(analysis=a, domain="envset", recency=r)
     for a in ("rel", "valset") for r in (False, True)]


def test_postfixpoint_holds_on_all_configs():
    """The facts that the cached narrowing and check accept also pass the
    check on a fresh frame, which recomputes every transfer."""
    from racefree import corpus

    for name in corpus.names():
        p = corpus.load(name)
        text = corpus.REGION_TEXTS.get(name)
        if text:
            p = p.with_regions(parse_region_text(text, p.variables))
        for kw in CHECK_CONFIGS:
            cfg = AnalysisConfig(**kw)
            facts = analyze_fixpoint(p, cfg)
            check_postfixpoint(p, cfg, facts)  # frame=None: must not raise


def test_regrel_equality_at_acquire_target(coupled_xy, coupled_xy_regions):
    facts, cfg = run(coupled_xy.with_regions(coupled_xy_regions), analysis="regrel",
                     domain="octagon")
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
    p = coupled_xy.with_regions(coupled_xy_regions)
    a, _ = run(p, analysis="regrel", domain="octagon")
    b, _ = run(p, analysis="regrel", domain="octagon")
    assert set(a) == set(b)
    for loc in a:
        assert base(a[loc]) == base(b[loc])


def test_iteration_cap_names_location(capped_counter):
    from racefree.engine import AnalysisLimitError

    cfg = AnalysisConfig(analysis="rel", domain="octagon", iteration_cap=3)
    with pytest.raises(AnalysisLimitError) as e:
        analyze_fixpoint(capped_counter, cfg)
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
    """Also: no acquire target is a loop head, which the termination
    argument of the thread rounds reads, even where an acquire or a release
    comes right before a while head."""
    from racefree import corpus
    from racefree.engine import _Frame
    from racefree.lang import Acquire

    programs = [corpus.load(n) for n in corpus.names()]
    programs.append(desugar(parse_program(GUARDED)))
    programs.append(desugar(parse_program(
        "var c;\nlock m;\nthread t { acquire(m); while (c < 2) { release(m); acquire(m);"
        " while (c < 1) { c := c + 1; } } release(m); }")))
    programs.append(desugar(parse_program(NESTED_LOOPS)))
    for p in programs:
        frame = _Frame(p, AnalysisConfig())
        acquire_targets = {i.target for i in p.instructions if isinstance(i.command, Acquire)}
        assert frame.heads == _widen_points_recursive(p)
        assert frame.widen_points == frame.heads | acquire_targets
        assert not frame.heads & acquire_targets
    assert len(_widen_points_recursive(programs[-2])) == 2
    assert len(_widen_points_recursive(programs[-1])) == 3  # one head per loop


def test_long_straight_line_thread_analyzes():
    n = 3000
    src = "var x;\nthread t {\n" + "  x := x + 1;\n" * n + f"  assert(x == {n});\n}}\n"
    p = desugar(parse_program(src))
    facts, cfg = run(p, analysis="rel", domain="octagon")
    dom = make_domain(cfg, p.variables)
    assert dom.entails(base(facts[p.assertions[0].location]), cond(p, f"x == {n}"))


GUARDED = """var x, y;
lock m;
thread t {
  while (x != 6 && !(y == 3 || x < 0)) {
    acquire(m); x := x + 1; release(m);
  }
  if (x == y) { y := y - 1; } else { y := x; }
  assert(x <= 6 && y != 7);
}
thread u { acquire(m); x := 2; release(m); assert(!(y > 9)); }
"""


def _conditions(b) -> list:
    """`b` and every condition inside it."""
    kids = b.args if isinstance(b, lang.BoolOp) else (
        (b.expr,) if isinstance(b, lang.NotExpr) else ())
    return [b, *(c for kid in kids for c in _conditions(kid))]


def test_one_fixpoint_run_builds_each_guard_once(monkeypatch):
    """Every `assume` of a condition reads its cached guard view: a run
    builds each condition object's guard at most once, and the assertion
    check one more per assertion, for the negation it refutes."""
    built = []  # the objects themselves, so no id is reused
    for cls in (lang.BoolLit, lang.Cmp, lang.BoolOp, lang.NotExpr):
        def counting(self, _build=cls._guard):
            built.append(self)
            return _build(self)
        monkeypatch.setattr(cls, "_guard", counting)
    p = desugar(parse_program(GUARDED))  # parsed here: no guard is cached yet
    cfg = AnalysisConfig(analysis="rel")
    facts = analyze_fixpoint(p, cfg)
    check_assertions(p, facts, compute_owned_static(p), cfg)
    conditions = [c for i in p.instructions if isinstance(i.command, lang.Assume)
                  for c in _conditions(i.command.cond)]
    conditions += [c for a in p.assertions for c in _conditions(a.cond)]
    assert built
    assert len({id(b) for b in built}) == len(built)
    assert len(built) <= len({id(c) for c in conditions}) + len(p.assertions)


# ---------------------------------------------------------------------------
# the transfer cache


HANDOFF = """var x;
lock m;
thread a { acquire(m); x := 1; release(m); }
thread b { acquire(m); assume(x <= 1); release(m); }
"""


def _solved(src):
    from racefree.engine import _Frame, _solve

    p = desugar(parse_program(src))
    cfg = AnalysisConfig(analysis="rel", domain="octagon")
    frame = _Frame(p, cfg)
    return p, cfg, frame, _solve(frame)


def test_cached_check_recomputes_a_changed_input():
    """A fact replaced by a new object is a changed input: the cached frame
    recomputes the transfers that read it and still finds the violation."""
    from racefree.engine import PostFixpointError

    p, cfg, frame, facts = _solved(HANDOFF)
    check_postfixpoint(p, cfg, facts, frame=frame)
    b_acquire = p.threads[1].instructions[0]
    dom = frame.domain
    # strictly smaller at b's acquire target: the mix into it exceeds it
    smaller = dict(facts)
    target = b_acquire.target
    smaller[target] = dom.assume(facts[target], cond(p, "x >= 1"))
    assert dom.leq(smaller[target], facts[target])
    assert not dom.leq(facts[target], smaller[target])
    with pytest.raises(PostFixpointError):
        check_postfixpoint(p, cfg, smaller, frame=frame)
    # top at a's last location, which feeds b's acquire and has no outgoing
    # edge: only a recomputed mix sees it
    a_exit = p.threads[0].instructions[-1].target
    assert b_acquire.source in frame.g.acquire_points["m"]
    assert a_exit in frame.g.release_points_feeding("m")
    assert not any(i.source == a_exit for i in p.instructions)
    wider = dict(facts)
    wider[a_exit] = dom.top()
    with pytest.raises(PostFixpointError):
        check_postfixpoint(p, cfg, wider, frame=frame)


def test_narrowing_and_check_reuse_the_solver_transfers(monkeypatch):
    """Where narrowing stops after one round, the whole analysis assigns no
    more often than the worklist solver alone: the narrowing round and the
    check find every input unchanged."""
    from racefree import absdom, engine

    assigns, rounds = [], []
    monkeypatch.setattr(absdom.OctagonDomain, "assign",
                        lambda self, *a, _f=absdom.OctagonDomain.assign:
                        assigns.append(a) or _f(self, *a))
    monkeypatch.setattr(engine._Frame, "initial_facts",
                        lambda self, _f=engine._Frame.initial_facts:
                        rounds.append(1) or _f(self))
    _solved(HANDOFF)
    solve_only = len(assigns)
    assigns.clear()
    rounds.clear()
    p = desugar(parse_program(HANDOFF))
    analyze_fixpoint(p, AnalysisConfig(analysis="rel", domain="octagon"))
    assert len(rounds) == 2  # the solver's initial facts, one narrowing round
    assert solve_only > 0
    assert len(assigns) <= solve_only


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
    cfg = AnalysisConfig(analysis="regrel")
    res = collecting_fixpoint(coupled_xy.with_regions(coupled_xy_regions), cfg, (0, 3))
    assert res.facts[11]
    assert all(env[0] == env[1] for env in res.facts[11])  # x == y throughout


def test_collecting_reports_clamping(double_increment):
    res = collecting_fixpoint(double_increment, AnalysisConfig(analysis="rel"), (-2, 2))
    assert res.clamped


# ---------------------------------------------------------------------------
# thread rounds

# a sync cycle inside one thread: each release feeds the thread's own acquire
INCREMENT_LOOP = """var x, c;
lock m;
thread t {
  while (c < 5) { acquire(m); x := x + 1; release(m); c := c + 1; }
  assert(x >= 0);
}
"""

# a sync cycle through two threads: each release feeds the other's acquire
PING_PONG = """var x;
lock m;
thread ping { acquire(m); x := x + 1; assert(x >= 1); release(m); }
thread pong { acquire(m); x := x + 1; assert(x >= 1); release(m); }
"""

ROUND_CONFIGS = {
    "valset": dict(analysis="valset", domain="interval"),
    "rel": dict(analysis="rel", domain="octagon"),
    "regrel": dict(analysis="regrel", domain="octagon"),
    "regrel-recency": dict(analysis="regrel", domain="octagon", recency=True),
}


@pytest.mark.parametrize("src", [INCREMENT_LOOP, PING_PONG], ids=["loop", "ping-pong"])
@pytest.mark.parametrize("config", ROUND_CONFIGS)
def test_sync_cycles_reach_a_fixpoint_far_below_the_cap(src, config):
    """x grows without bound around each sync cycle: the rounds must cut
    the cycle and widen, well within 100 of the 10,000 visits allowed."""
    p = desugar(parse_program(src))
    cfg = AnalysisConfig(**ROUND_CONFIGS[config], iteration_cap=100)
    facts = analyze_fixpoint(p, cfg)
    dom = make_domain(cfg, p.variables)
    for a in p.assertions:
        fact = base(facts[a.location])
        assert dom.entails(fact, a.cond)
        assert not dom.entails(fact, cond(p, "x <= 1000"))


def test_collecting_facts_do_not_depend_on_the_order():
    """Without widening the rounds reach the least fixpoint, as the FIFO
    order of the reference solver does, with the same clamping."""
    from racefree import corpus
    from racefree.engine import _Frame

    programs = [corpus.load(n) for n in corpus.names()]
    programs += [p for _, p in random_race_free_programs(12, seed=5)]
    programs += [desugar(parse_program(src)) for src in (INCREMENT_LOOP, PING_PONG)]
    box = (-3, 3)
    for p in programs:
        for analysis in ("valset", "rel", "regrel"):
            cfg = AnalysisConfig(analysis=analysis)
            res = collecting_fixpoint(p, cfg, box)
            frame = _Frame(p, replace(cfg, domain="envset", value_box=box))
            assert res.facts == fifo_solve_reference(frame)
            assert res.clamped == frame.domain.clamped


def test_round_facts_pass_the_independent_check_at_workload_size():
    """The solver's facts (before narrowing) on the scaled golden programs,
    8-48 octagon literals, pass the check that recomputes every transfer."""
    from racefree.engine import _Frame, _solve

    golden = Path(__file__).parent / "golden" / "analyze_scaled.json"
    for name, src in sorted(json.loads(golden.read_text())["sources"].items()):
        p = desugar(parse_program(src))
        for config in ("rel", "regrel"):
            cfg = AnalysisConfig(**ROUND_CONFIGS[config])
            facts = _solve(_Frame(p, cfg))
            check_postfixpoint(p, cfg, facts)  # frame=None: must not raise
