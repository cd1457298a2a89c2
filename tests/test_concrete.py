"""Interleaving semantics, bounded exploration, happens-before, races."""

from dataclasses import replace

import pytest

from racefree import corpus
from racefree.concrete import (
    ProgramIndex,
    enumerate_executions,
    find_data_races,
    find_region_races,
    format_execution,
    happens_before,
    initial_state,
    owned_vars_oracle,
    racy_regions_via_translation,
    reachable_states,
    std_step,
    translate_for_region_races,
)
from racefree.lang import (
    Acquire,
    Assign,
    RegionMap,
    Release,
    VarRef,
    desugar,
    parse_program,
    parse_region_text,
)

TWO_STEPS = "var a, b;\nthread t1 { a := 1; }\nthread t2 { b := 1; }"


def prog(src):
    return desugar(parse_program(src))


def find_instr(p, source):
    return [i for i in p.instructions if i.source == source][0]


# ---------------------------------------------------------------------------
# std_step


def test_step_assign_copies_value(coupled_xy):
    s0 = initial_state(coupled_xy)
    idx = ProgramIndex(coupled_xy)
    acq = find_instr(coupled_xy, 1)
    ((_, s1),) = std_step(coupled_xy, s0, acq, index=idx)
    assign = find_instr(coupled_xy, 2)  # x := y
    ((choices, s2),) = std_step(coupled_xy, s1, assign, index=idx)
    assert choices == ()
    assert s2.phi == (0, 0, 0)
    assert s2.pc[0] == 3


def test_step_acquire_disabled_when_held(coupled_xy):
    s0 = initial_state(coupled_xy)
    idx = ProgramIndex(coupled_xy)
    ((_, s1),) = std_step(coupled_xy, s0, find_instr(coupled_xy, 1), index=idx)
    # walk t2 to its pre-acquire point, then try to grab m while t1 holds it
    ((_, s2),) = std_step(coupled_xy, s1, find_instr(coupled_xy, 8), index=idx)
    ((_, s3),) = std_step(coupled_xy, s2, find_instr(coupled_xy, 9), index=idx)
    assert std_step(coupled_xy, s3, find_instr(coupled_xy, 10), index=idx) == ()


def test_step_assume_guard():
    p = prog("var x;\nthread t { x := 1; assume(x == 2); }")
    s0 = initial_state(p)
    ((_, s1),) = std_step(p, s0, find_instr(p, 1))
    assert std_step(p, s1, find_instr(p, 2)) == ()


def test_step_havoc_enumerates_choices():
    p = prog("var x;\nthread t { x := havoc; }")
    s0 = initial_state(p)
    succ = std_step(p, s0, find_instr(p, 1), havoc_values=(2, 0, 1))
    assert [c for c, _ in succ] == [(0,), (1,), (2,)]
    assert sorted(s.phi[0] for _, s in succ) == [0, 1, 2]


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_depth_zero(coupled_xy):
    execs = list(enumerate_executions(coupled_xy, 0))
    assert len(execs) == 1
    assert execs[0].steps == ()


def test_enumerate_two_thread_shuffle():
    """Hand enumeration: 1 empty + 2 singletons + 2 full interleavings."""
    p = prog(TWO_STEPS)
    execs = list(enumerate_executions(p, 2))
    by_len = {}
    for e in execs:
        by_len[len(e.steps)] = by_len.get(len(e.steps), 0) + 1
    assert by_len == {0: 1, 1: 2, 2: 2}


def test_enumeration_is_deterministic(coupled_xy):
    a = [tuple((t.tid, t.instr.source) for t in e.steps)
         for e in enumerate_executions(coupled_xy, 6)]
    b = [tuple((t.tid, t.instr.source) for t in e.steps)
         for e in enumerate_executions(coupled_xy, 6)]
    assert a == b


def test_exploration_budget_error(coupled_xy):
    """The limit message says how far the search got when it tripped."""
    from racefree.concrete import ExplorationLimitError

    with pytest.raises(ExplorationLimitError,
                       match="^exploration budget 5 exceeded after 6 nodes at depth 5$"):
        list(enumerate_executions(coupled_xy, 10, budget=5))
    with pytest.raises(ExplorationLimitError,
                       match="^state budget 5 exceeded after 6 states at depth 2$"):
        reachable_states(coupled_xy, 10, budget=5)


def test_dfs_preorder_depth_bound():
    from racefree.concrete import dfs

    def expand(n, path):
        for child in (2 * n, 2 * n + 1):
            yield child, child

    assert [(n, list(path)) for n, path in dfs(1, 2, 100, expand)] == [
        (1, []), (2, [2]), (4, [2, 4]), (5, [2, 5]), (3, [3]), (6, [3, 6]), (7, [3, 7])]


def test_program_index_rejects_a_location_in_two_threads():
    p = prog(TWO_STEPS)
    a, b = p.threads
    moved = replace(b, entry=a.entry,
                    instructions=tuple(replace(i, source=a.entry) for i in b.instructions))
    with pytest.raises(ValueError, match="in two threads"):
        ProgramIndex(replace(p, threads=(a, moved)))


def test_lock_safety_along_executions(coupled_xy):
    """mu changes only via acquire/release; release only by the holder."""
    for e in enumerate_executions(coupled_xy, 9):
        for tr in e.steps:
            cmd = tr.instr.command
            if isinstance(cmd, Acquire):
                assert tr.pre.mu[0] is None and tr.post.mu[0] == tr.tid
            elif isinstance(cmd, Release):
                assert tr.pre.mu[0] == tr.tid and tr.post.mu[0] is None
            else:
                assert tr.pre.mu == tr.post.mu


# ---------------------------------------------------------------------------
# happens-before


def full_run(p, schedule):
    """Drive one execution by a list of thread indices."""
    from racefree.concrete import Transition

    idx = ProgramIndex(p)
    s = initial_state(p)
    steps = []
    for tid in schedule:
        t = p.threads[tid]
        fired = None
        for instr in t.instructions:
            if instr.source == s.pc[tid]:
                succ = std_step(p, s, instr, index=idx)
                if succ:
                    fired = Transition(tid, instr, succ[0][0], s, succ[0][1])
                    break
        assert fired is not None, f"thread {tid} stuck at {s.pc[tid]}"
        steps.append(fired)
        s = fired.post
    from racefree.concrete import Execution

    return Execution(initial_state(p), tuple(steps))


def test_hb_single_thread_total_order():
    p = prog("var x;\nthread t { x := 1; x := 2; x := 3; }")
    e = full_run(p, [0, 0, 0])
    hb = happens_before(e)
    for i in range(3):
        for j in range(i, 3):
            assert hb.ordered(i, j)


def test_hb_release_acquire_ordering(coupled_xy):
    # t1 runs to completion, then t2
    e = full_run(coupled_xy, [0] * 6 + [1] * 5)
    hb = happens_before(e)
    # release at step 5 synchronizes with acquire at step 8
    assert (5, 8) in hb.sw_edges
    # t1's x := y (step 1) happens-before t2's assert read at 11 (step 9)
    assert hb.ordered(1, 9)
    # t1's x := y and t2's z++ (step 6) are unordered
    assert hb.unordered(1, 6)
    assert hb.ordered(0, 1)  # program order
    rel = hb.as_relation()
    assert all((i, i) in rel for i in range(len(e.steps)))


def test_hb_contains_po_and_sw(coupled_xy):
    for e in enumerate_executions(coupled_xy, 8):
        if not e.steps:
            continue
        hb = happens_before(e)
        for i, j in hb.po_edges + hb.sw_edges:
            assert hb.ordered(i, j)


def test_format_execution_mentions_edges(coupled_xy):
    e = full_run(coupled_xy, [0] * 6 + [1] * 5)
    dump = format_execution(e, coupled_xy)
    assert "t1 1 -[acquire(m)]-> 2" in dump
    assert "po:" in dump and "sw:" in dump


# ---------------------------------------------------------------------------
# data races


def test_coupled_xy_race_free_at_depth(coupled_xy):
    assert find_data_races(coupled_xy, 13) == []


def test_unlocked_variant_races_on_x():
    src = corpus.COUPLED_XY.replace(
        "  acquire(m);\n  assert(x == y);\n  release(m);", "  assert(x == y);")
    races = find_data_races(prog(src), 13)
    assert any(r.subject == "x" for r in races)
    assert any(r.subject == "y" for r in races)


def test_single_thread_never_races():
    p = prog("var x;\nthread t { x := 1; x := x + 1; }")
    assert find_data_races(p, 6) == []


def test_race_reports_normalized(coupled_xy):
    src = corpus.COUPLED_XY.replace(
        "  acquire(m);\n  assert(x == y);\n  release(m);", "  assert(x == y);")
    for r in find_data_races(prog(src), 10):
        assert r.first < r.second


# ---------------------------------------------------------------------------
# region races


def test_region_race_with_coarse_partition(coupled_xy):
    rall = RegionMap.from_declared(coupled_xy.variables, {"r": ("x", "y", "z")})
    races = find_region_races(coupled_xy, 13, regions=rall)
    assert races, "single-region partition must race"
    pairs = {(race.execution.steps[race.first].instr.source,
              race.execution.steps[race.second].instr.source)
             for race in races}
    # t1's x := y (source 2) against t2's z++ (source 8), in either order
    assert (2, 8) in pairs or (8, 2) in pairs


def test_region_race_free_with_xy_partition(coupled_xy, coupled_xy_regions):
    assert find_region_races(coupled_xy, 13, regions=coupled_xy_regions) == []


def test_singleton_regions_coincide_with_data_races():
    src = corpus.COUPLED_XY.replace(
        "  acquire(m);\n  assert(x == y);\n  release(m);", "  assert(x == y);")
    p = prog(src)
    data = {(r.subject, r.first, r.second) for r in find_data_races(p, 10)}
    region = {(r.subject, r.first, r.second) for r in find_region_races(p, 10)}
    assert data == region


def test_translation_prefixes_assignments(coupled_xy, coupled_xy_regions):
    p = translate_for_region_races(coupled_xy.with_regions(coupled_xy_regions))
    assert "__rg_rxy" in p.variables
    # x := y now carries a same-region witness copy in front
    t1 = p.threads[0]
    assigns = [i for i in t1.instructions if isinstance(i.command, Assign)]
    assert any(i.command.var == "__rg_rxy" for i in assigns)


@pytest.mark.parametrize("region_text,expected", [
    ("region r { x, y, z };\n", {"r"}),
    ("region rxy { x, y };\n", set()),
])
def test_translation_agrees_with_direct_detection(coupled_xy, region_text, expected):
    regions = parse_region_text(region_text, coupled_xy.variables)
    p = coupled_xy.with_regions(regions)
    direct = {r.subject for r in find_region_races(p, 13)}
    translated = racy_regions_via_translation(p, 40)
    assert direct == translated == expected


# ---------------------------------------------------------------------------
# owned variables (bounded oracle)


def test_owned_oracle_coupled_xy(coupled_xy):
    assert owned_vars_oracle(coupled_xy, "t1", 3, 13) == frozenset({"x", "y"})
    assert owned_vars_oracle(coupled_xy, "t2", 9, 13) == frozenset({"z"})


def test_owned_oracle_single_thread_owns_all():
    p = prog("var x, y;\nthread t { x := y; }")
    for loc in sorted(p.threads[0].locations):
        assert owned_vars_oracle(p, "t", loc, 6) == frozenset({"x", "y"})


def test_owned_oracle_searches_once_per_location(monkeypatch):
    """One probe reads every variable, so one race search decides them all."""
    from racefree import concrete

    p = prog("var x, y, z;\nthread a { x := 1; }\nthread b { y := 1; z := 1; }")
    searches = []

    def counting(*args, **kwargs):
        searches.append(args[0])
        return find_races(*args, **kwargs)

    find_races = concrete._find_races
    monkeypatch.setattr(concrete, "_find_races", counting)
    # each thread's probe at its entry races with the other thread's writes
    assert owned_vars_oracle(p, "a", p.threads[0].entry, 4) == {"x"}
    assert owned_vars_oracle(p, "b", p.threads[1].entry, 4) == {"y", "z"}
    assert len(searches) == 2


def test_enumeration_contains_canonical_handoff(coupled_xy):
    """The run-t1-fully-then-t2 interleaving shows up in the stream."""
    want = tuple([0] * 6 + [1] * 5)
    shapes = {tuple(tr.tid for tr in e.steps)
              for e in enumerate_executions(coupled_xy, 11) if len(e.steps) == 11}
    assert want in shapes


def test_translation_crosses_regions():
    p = prog("var x, y;\nthread t { x := y; }")  # singleton regions
    out = translate_for_region_races(p)
    t = out.threads[0]
    prefix, assign = t.instructions
    assert isinstance(prefix.command, Assign)
    assert prefix.command.var == "__rg_x"
    assert prefix.command.expr == VarRef("__rg_y")
    assert assign.command.var == "x"


def test_translation_marks_pure_writes():
    p = prog("var x;\nthread t { x := 5; }")
    out = translate_for_region_races(p)
    prefix = out.threads[0].instructions[0]
    assert prefix.command.var == "__rg_x"
    assert prefix.command.expr == VarRef("__rg_x")
