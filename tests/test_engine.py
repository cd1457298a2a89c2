"""Fixpoint engine: post-fixpoint property, golden facts, determinism."""


import pytest

from racefree import lang
from racefree.absdom import RecencyFact
from racefree.checker import check_assertions, compute_owned_static
from racefree.concrete import reachable_states
from racefree.engine import (
    AnalysisConfig,
    _Frame,
    analyze_fixpoint,
    check_postfixpoint,
    collecting_fixpoint,
    make_domain,
)
from racefree.lang import parse_program

from domtools import (
    corpus_programs,
    fifo_solve_reference,
    golden_programs,
    jacobi_round_reference,
    join_everywhere_solve_reference,
    random_race_free_programs,
)


def base(fact):
    return fact.elem if isinstance(fact, RecencyFact) else fact


def cond(p, src):
    q = parse_program(f"var {', '.join(p.variables)};\nthread t {{ assume({src}); }}")
    return q.threads[0].instructions[0].command.cond


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
    """The facts that the solver and the cached check accept also pass the
    check on a fresh frame, which recomputes every transfer."""
    for _, p in corpus_programs():
        for kw in CHECK_CONFIGS:
            cfg = AnalysisConfig(**kw)
            facts = analyze_fixpoint(p, cfg)
            check_postfixpoint(_Frame(p, cfg), facts)  # must not raise


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


def test_iteration_cap_names_location(capped_counter, monkeypatch):
    from racefree import engine
    from racefree.engine import AnalysisLimitError

    monkeypatch.setattr(engine, "ITERATION_CAP", 3)
    cfg = AnalysisConfig(analysis="rel", domain="octagon")
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
    programs.append(parse_program(GUARDED))
    programs.append(parse_program(
        "var c;\nlock m;\nthread t { acquire(m); while (c < 2) { release(m); acquire(m);"
        " while (c < 1) { c := c + 1; } } release(m); }"))
    programs.append(parse_program(NESTED_LOOPS))
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
    p = parse_program(src)
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
    p = parse_program(GUARDED)  # parsed here: no guard is cached yet
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

    p = parse_program(src)
    cfg = AnalysisConfig(analysis="rel", domain="octagon")
    frame = _Frame(p, cfg)
    return p, cfg, frame, _solve(frame)


def test_cached_check_recomputes_a_changed_input():
    """A fact replaced by a new object is a changed input: the cached frame
    recomputes the transfers that read it and still finds the violation."""
    from racefree.engine import PostFixpointError

    p, cfg, frame, facts = _solved(HANDOFF)
    check_postfixpoint(frame, facts)
    b_acquire = p.threads[1].instructions[0]
    dom = frame.domain
    # strictly smaller at b's acquire target: the mix into it exceeds it
    smaller = dict(facts)
    target = b_acquire.target
    smaller[target] = dom.assume(facts[target], cond(p, "x >= 1"))
    assert dom.leq(smaller[target], facts[target])
    assert not dom.leq(facts[target], smaller[target])
    with pytest.raises(PostFixpointError):
        check_postfixpoint(frame, smaller)
    # top at a's last location, which feeds b's acquire and has no outgoing
    # edge: only a recomputed mix sees it
    a_exit = p.threads[0].instructions[-1].target
    assert b_acquire.source in frame.g.acquire_points["m"]
    assert a_exit in frame.g.release_points_feeding("m")
    assert not any(i.source == a_exit for i in p.instructions)
    wider = dict(facts)
    wider[a_exit] = dom.top()
    with pytest.raises(PostFixpointError):
        check_postfixpoint(frame, wider)


def test_check_reuses_every_solver_transfer(monkeypatch):
    """The solver, ascent and descent, leaves each instruction's transfer
    stored for the facts it returns: the check on its frame recomputes none."""
    from racefree import engine

    applied = []
    monkeypatch.setattr(engine._Frame, "_apply",
                        lambda self, *a, _f=engine._Frame._apply:
                        applied.append(a) or _f(self, *a))
    for name, p in corpus_programs():
        for kw in CHECK_CONFIGS:
            cfg = AnalysisConfig(**kw)
            frame = engine._Frame(p, cfg)
            facts = engine._solve(frame)
            assert applied  # the count sees the solver's transfers
            applied.clear()
            check_postfixpoint(frame, facts)
            assert not applied, (name, kw)


# ---------------------------------------------------------------------------
# collecting fixpoints


def test_collecting_straight_line_equals_enumeration():
    p = parse_program("var x, y;\nthread t { x := 1; y := x + 1; }")
    res = collecting_fixpoint(p, AnalysisConfig(analysis="rel"))
    reach = reachable_states(p, 4)
    per_loc = {}
    for s in reach:
        per_loc.setdefault(s.pc[0], set()).add(s.phi)
    for loc, envs in per_loc.items():
        assert res.facts[loc] == frozenset(envs)
    assert not res.clamped


def test_collecting_empty_body_thread():
    p = parse_program("var x;\nthread t { }")
    res = collecting_fixpoint(p, AnalysisConfig(analysis="rel"))
    assert res.facts[p.threads[0].entry] == frozenset({(0,)})


def test_collecting_regrel_keeps_equality(coupled_xy, coupled_xy_regions):
    cfg = AnalysisConfig(analysis="regrel", value_box=(0, 3))
    res = collecting_fixpoint(coupled_xy.with_regions(coupled_xy_regions), cfg)
    assert res.facts[11]
    assert all(env[0] == env[1] for env in res.facts[11])  # x == y throughout


def test_collecting_reports_clamping(double_increment):
    res = collecting_fixpoint(double_increment, AnalysisConfig(analysis="rel", value_box=(-2, 2)))
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
def test_sync_cycles_reach_a_fixpoint_far_below_the_cap(src, config, monkeypatch):
    """x grows without bound around each sync cycle: the rounds must cut
    the cycle and widen, well within 100 of the 10,000 visits allowed."""
    from racefree import engine

    monkeypatch.setattr(engine, "ITERATION_CAP", 100)
    p = parse_program(src)
    cfg = AnalysisConfig(**ROUND_CONFIGS[config])
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
    programs += [parse_program(src) for src in (INCREMENT_LOOP, PING_PONG)]
    box = (-3, 3)
    for p in programs:
        for analysis in ("valset", "rel", "regrel"):
            cfg = AnalysisConfig(analysis=analysis, value_box=box)
            res = collecting_fixpoint(p, cfg)
            frame = _Frame(p, cfg._replace(domain="envset"))
            assert res.facts == fifo_solve_reference(frame)
            assert res.clamped == frame.domain.clamped


def test_round_facts_pass_the_independent_check_at_workload_size():
    """The solver's facts (after its descent) on the scaled golden programs
    pass the check that recomputes every transfer."""
    from racefree.engine import _Frame, _solve

    for _, p in golden_programs():
        for config in ("rel", "regrel"):
            cfg = AnalysisConfig(**ROUND_CONFIGS[config])
            facts = _solve(_Frame(p, cfg))
            check_postfixpoint(_Frame(p, cfg), facts)  # must not raise


# ---------------------------------------------------------------------------
# the descent

# widening takes i to [10, +oo) at the loop exit; only the descent brings the
# loop head back to [0, 10], and so the exit to i = 10
LOOP_EXIT = """var x, i;
lock m;
thread t { while (i < 10) { i := i + 1; } assert(i <= 10); acquire(m); x := i; release(m); }
thread u { acquire(m); x := 0; release(m); }
"""


@pytest.mark.parametrize("config", ROUND_CONFIGS)
def test_descent_proves_the_loop_exit_bound(config):
    p = parse_program(LOOP_EXIT)
    cfg = AnalysisConfig(**ROUND_CONFIGS[config])
    report = check_assertions(p, analyze_fixpoint(p, cfg), compute_owned_static(p), cfg)
    assert [r.proved for r in report.assertions] == [True], report.assertions


def test_descent_ends_where_a_jacobi_round_changes_nothing():
    """One round of the Jacobi descent that `_solve`'s own descent replaced,
    on a fresh frame, changes no fact of the analysis result."""
    from racefree.engine import _Frame

    programs = [*corpus_programs(), *golden_programs(), *random_race_free_programs(40, seed=7)]
    for name, p in programs:
        for kw in CHECK_CONFIGS:
            cfg = AnalysisConfig(**kw)
            if cfg.domain == "envset":
                continue
            facts = analyze_fixpoint(p, cfg)
            frame = _Frame(p, cfg)
            after = jacobi_round_reference(frame, facts)
            assert all(frame.domain_at[loc].equal(after[loc], facts[loc]) for loc in facts), \
                (name, kw)


# ---------------------------------------------------------------------------
# joins only where paths merge


def test_facts_equal_the_join_everywhere_reference():
    """Storing a one-in-edge location's transfer without a join, and
    descending only from the sources of widening points, reaches the facts
    of the solver that joined and descended everywhere: under valset, rel
    and regrel, with and without recency, over intervals, octagons and
    environment sets, whose widening is their join and whose descent lowers
    nothing, and in the collecting fixpoint (environment sets only on the
    programs small enough for them).  Near the octagon limit saturation is
    not monotone, so there the differential net checks soundness instead."""
    from racefree.engine import _Frame

    def same(cfg, p, facts):
        frame = _Frame(p, cfg)
        ref = join_everywhere_solve_reference(frame)
        return all(frame.domain_at[loc].equal(facts[loc], ref[loc]) for loc in facts)

    small = [*corpus_programs(), *random_race_free_programs(40, seed=7)]
    numeric = [kw for kw in CHECK_CONFIGS if kw["domain"] != "envset"]
    runs = [(name, p, kw) for name, p in small for kw in CHECK_CONFIGS]
    runs += [(name, p, kw) for name, p in golden_programs() for kw in numeric]
    for name, p, kw in runs:
        cfg = AnalysisConfig(**kw)
        assert same(cfg, p, analyze_fixpoint(p, cfg)), (name, kw)
    box = (-3, 3)
    for name, p in small:
        for analysis in ("valset", "rel", "regrel"):
            cfg = AnalysisConfig(analysis=analysis, value_box=box)
            res = collecting_fixpoint(p, cfg)
            run = cfg._replace(domain="envset")
            assert same(run, p, res.facts), (name, analysis)


def test_every_cycle_passes_through_a_widening_point():
    """The termination premise of `_solve`: with the widening points removed
    the graph of what each fact reads (an instruction's source to its
    target, and each release point of a lock to the target of each acquire
    of it, along the sync edge) has no cycle, and a chain location, whose
    fact the ascent overwrites rather than joins, has exactly one in-edge
    and is no thread entry.  Every acquire target is a chain location."""
    from collections import Counter
    from graphlib import TopologicalSorter

    from racefree.engine import _Frame
    from racefree.lang import Acquire

    programs = [*corpus_programs(), *golden_programs(), *random_race_free_programs(40, seed=7),
                ("loop", parse_program(INCREMENT_LOOP)),
                ("ping-pong", parse_program(PING_PONG)),
                ("nested", parse_program(NESTED_LOOPS))]
    for name, p in programs:
        frame = _Frame(p, AnalysisConfig())
        preds: dict[int, set[int]] = {}
        edges = [(i.source, i.target) for i in p.instructions] + [
            (rel, i.target) for i in p.instructions if isinstance(i.command, Acquire)
            for rel in frame.g.release_points_feeding(i.command.lock)]
        for src, tgt in edges:
            if src not in frame.widen_points and tgt not in frame.widen_points:
                preds.setdefault(tgt, set()).add(src)
        TopologicalSorter(preds).prepare()  # raises CycleError, naming the cycle
        entries = {t.entry for t in p.threads}
        in_edges = Counter(i.target for i in p.instructions)
        assert all(in_edges[loc] == 1 and loc not in entries for loc in frame.chain), name
        assert {i.target for i in p.instructions if isinstance(i.command, Acquire)} <= frame.chain
