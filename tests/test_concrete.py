"""Interleaving semantics, bounded exploration, happens-before, races."""

import copy
import random
from collections import Counter
from itertools import product

import pytest

from domtools import (
    binop,
    chain,
    conflict_table_reference,
    happens_before,
    post_release_points_reference,
    random_race_free_programs,
    scaled,
    strip_locks,
    unreduced,
    update_env,
)
from racefree import corpus
from racefree.concrete import (
    DEFAULT_HAVOC,
    ProgramIndex,
    StdState,
    clocked_walk,
    conflict_table,
    enumerate_executions,
    find_data_races,
    find_races,
    find_region_races,
    format_execution,
    initial_state,
    owned_vars_oracle,
    racy_regions_via_translation,
    reachable_states,
    region_accesses,
    std_step,
    successor_transitions,
    successors,
    translate_for_region_races,
)
from racefree.engine import AnalysisConfig, analyze_fixpoint
from racefree.lang import (
    HAVOC,
    Acquire,
    Assign,
    Assume,
    BoolLit,
    Cmp,
    Expr,
    Instruction,
    NotExpr,
    Program,
    RegionMap,
    Release,
    Thread,
    eval_bool,
    eval_expr,
    instr_accesses,
    parse_program,
    parse_region_text,
    print_command,
)
from racefree.threadlocal import (
    InadmissibleStateError,
    LocalContext,
    ThreadLocalState,
    VersionedEnv,
    initial_local_state,
    local_step,
)

TWO_STEPS = "var a, b;\nthread t1 { a := 1; }\nthread t2 { b := 1; }"


def prog(src):
    return parse_program(src)


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
    s0, idx = initial_state(p), ProgramIndex(p)
    ((_, s1),) = std_step(p, s0, find_instr(p, 1), index=idx)
    assert std_step(p, s1, find_instr(p, 2), index=idx) == ()


def test_step_havoc_enumerates_choices():
    p = prog("var x;\nthread t { x := havoc; }")
    s0 = initial_state(p)
    succ = std_step(p, s0, find_instr(p, 1), havoc_values=(2, 0, 1), index=ProgramIndex(p))
    assert [c for c, _ in succ] == [(0,), (1,), (2,)]
    assert sorted(s.phi[0] for _, s in succ) == [0, 1, 2]


# ---------------------------------------------------------------------------
# compiled steps against a tree-walking reference
#
# The reference steps below are the step bodies from before the step table:
# `lang.eval_expr`/`eval_bool` over env dicts, the owning thread found by a
# scan, versions bumped by region lookups.  They share nothing with the
# compiled table they check, so a fault there cannot hide in both.

BIG = 2 ** 62
VARS = ("a", "b", "c", "d")
REGIONS = RegionMap.from_declared(VARS, {"ab": ("a", "b")})


def random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return Expr.of(HAVOC)
        if kind == 1:
            return Expr.of(rng.choice([0, 1, -2, 7, BIG - 1, BIG + 3, -BIG]))
        return Expr.of(rng.choice(VARS))
    kind = rng.randrange(4)
    if kind == 0:  # k * (havoc - x)
        return scaled(rng.choice([-3, 2, 5]),
                      binop("-", Expr.of(HAVOC), random_expr(rng, depth - 1)))
    if kind == 1:
        return scaled(rng.choice([-1, 0, 3, BIG]), random_expr(rng, depth - 1))
    return binop(rng.choice("+-"), random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_guard(rng, depth):
    def side():
        e = random_expr(rng, 2)
        return e if not e.linear.havocs else Expr.of(rng.choice(VARS))

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return BoolLit(rng.random() < 0.5)
        return Cmp(rng.choice(["==", "!=", "<", "<=", ">", ">="]), side(), side())
    if rng.random() < 0.25:
        return NotExpr(random_guard(rng, depth - 1))
    return chain(rng.choice(["&&", "||"]), random_guard(rng, depth - 1),
                 random_guard(rng, depth - 1))


def random_program(rng):
    """Two threads of random commands; thread k's locations are 100k + j."""
    threads = []
    for k in range(2):
        instrs = []
        for j in range(6):
            kind = rng.randrange(6)
            if kind < 2:
                c = Assign(rng.choice(VARS), random_expr(rng, 3))
            elif kind < 4:
                c = Assume(random_guard(rng, 3))
            else:
                c = (Acquire if kind == 4 else Release)(rng.choice(["m", "n"]))
            # each release has a target of its own: one buffer per release point
            target = 50 + j if isinstance(c, Release) else rng.randrange(7)
            instrs.append(Instruction(100 * k + j, c, 100 * k + target))
        threads.append(Thread(f"t{k}", 100 * k, tuple(instrs)))
    return Program(VARS, ("m", "n"), REGIONS, tuple(threads))


def random_value(rng):
    return rng.choice([0, 1, -1, 5, BIG, -BIG, BIG - 7, rng.randrange(-9, 9)])


def outcome(step, *args):
    try:
        return step(*args)
    except (InadmissibleStateError, ValueError) as e:
        return type(e)


def reference_std_step(p, s, instr, havoc_values):
    tid = next(k for k, t in enumerate(p.threads) if instr in t.instructions)
    if s.pc[tid] != instr.source:
        return ()
    pc2 = tuple(instr.target if k == tid else loc for k, loc in enumerate(s.pc))
    env = dict(zip(p.variables, s.phi))
    c = instr.command
    if isinstance(c, Assign):
        out = []
        for choices in product(sorted(set(havoc_values)), repeat=len(c.expr.linear.havocs)):
            phi2 = tuple(eval_expr(c.expr, env, choices) if v == c.var else x
                         for v, x in zip(p.variables, s.phi))
            out.append((choices, StdState(pc2, s.mu, phi2)))
        return tuple(out)
    if isinstance(c, Assume):
        return (((), StdState(pc2, s.mu, s.phi)),) if eval_bool(c.cond, env) else ()
    mi = p.locks.index(c.lock)
    if isinstance(c, Acquire):
        if s.mu[mi] is not None:
            return ()
        return (((), StdState(pc2, s.mu[:mi] + (tid,) + s.mu[mi + 1:], s.phi)),)
    if s.mu[mi] != tid:
        return ()
    return (((), StdState(pc2, s.mu[:mi] + (None,) + s.mu[mi + 1:], s.phi)),)


def reference_local_step(p, s, instr, havoc_values, regions):
    tid = next(k for k, t in enumerate(p.threads) if instr in t.instructions)
    if s.pc[tid] != instr.source:
        return ()
    pc2 = tuple(instr.target if k == tid else loc for k, loc in enumerate(s.pc))
    mine = s.theta[tid]
    env = dict(zip(p.variables, mine.values))

    def with_mine(ve):
        return tuple(ve if k == tid else other for k, other in enumerate(s.theta))

    c = instr.command
    if isinstance(c, Assign):
        group = regions.region_vars(regions.region_of(c.var))
        versions = tuple(n + (v in group) for v, n in zip(p.variables, mine.versions))
        out = []
        for choices in product(sorted(set(havoc_values)), repeat=len(c.expr.linear.havocs)):
            values = tuple(eval_expr(c.expr, env, choices) if v == c.var else x
                           for v, x in zip(p.variables, mine.values))
            theta2 = with_mine(VersionedEnv(values, versions))
            out.append((choices, ThreadLocalState(pc2, s.mu, theta2, s.buffers)))
        return tuple(out)
    if isinstance(c, Assume):
        if eval_bool(c.cond, env):
            return (((), ThreadLocalState(pc2, s.mu, s.theta, s.buffers)),)
        return ()
    mi = p.locks.index(c.lock)
    points = post_release_points_reference(p)
    if isinstance(c, Acquire):
        if s.mu[mi] is not None:
            return ()
        relevant = tuple(s.buffers[points.index(loc)]
                         for loc in post_release_points_reference(p, c.lock))
        merged = update_env(mine, relevant)
        if len(merged) != 1:
            raise InadmissibleStateError("conflicting buffered values")
        mu2 = s.mu[:mi] + (tid,) + s.mu[mi + 1:]
        return (((), ThreadLocalState(pc2, mu2, with_mine(merged[0]), s.buffers)),)
    if s.mu[mi] != tid:
        return ()
    bi = points.index(instr.target)
    buffers2 = s.buffers[:bi] + (mine,) + s.buffers[bi + 1:]
    return (((), ThreadLocalState(pc2, s.mu[:mi] + (None,) + s.mu[mi + 1:], s.theta, buffers2)),)


def test_compiled_steps_match_the_tree_walking_reference():
    """Seeded: 150 random programs, every instruction on 8 random states
    of each semantics (mostly with its thread at the instruction's source),
    under havoc pools that are unsorted, repeated or near 2^62."""
    rng = random.Random(20261018)
    pools = [(0, 1, 2), (2, 0, 2, 1), (-1, BIG), (7,)]
    kinds = Counter()
    for _ in range(150):
        p = random_program(rng)
        idx, ctx = ProgramIndex(p), LocalContext(p, regions=REGIONS)
        locs = [sorted(t.locations) for t in p.threads]
        n_buffers = len(post_release_points_reference(p))

        def env():
            return VersionedEnv(tuple(random_value(rng) for _ in VARS),
                                tuple(rng.randrange(3) for _ in VARS))

        for _ in range(8):
            pc = tuple(rng.choice(ls) for ls in locs)
            mu = tuple(rng.choice([None, 0, 1]) for _ in p.locks)
            phi = tuple(random_value(rng) for _ in VARS)
            theta, buffers = (env(), env()), tuple(env() for _ in range(n_buffers))
            pool = rng.choice(pools)
            for tid, t in enumerate(p.threads):
                for instr in t.instructions:
                    at = pc if rng.random() < 0.2 else pc[:tid] + (instr.source,) + pc[tid + 1:]
                    std = StdState(at, mu, phi)
                    local = ThreadLocalState(at, mu, theta, buffers)
                    want = outcome(reference_std_step, p, std, instr, pool)
                    assert outcome(std_step, p, std, instr, pool, idx) == want, instr
                    want_local = outcome(reference_local_step, p, local, instr, pool, REGIONS)
                    assert outcome(local_step, p, local, instr, pool, ctx) == want_local, instr
                    kinds[type(instr.command).__name__, len(want), want_local is InadmissibleStateError] += 1
    # every kind of step is enabled many times, assigns with several choices,
    # and some acquires see conflicting buffers
    assert all(sum(n for (k, count, _), n in kinds.items() if k == kind and count) > 200
               for kind in ("Assign", "Assume", "Acquire", "Release"))
    assert sum(n for (k, count, _), n in kinds.items() if k == "Assign" and count > 1) > 500
    assert sum(n for (_, _, raised), n in kinds.items() if raised) > 50


def test_an_equal_instruction_steps_like_the_original(coupled_xy):
    idx, ctx = ProgramIndex(coupled_xy), LocalContext(coupled_xy)
    s, sigma = initial_state(coupled_xy), initial_local_state(coupled_xy, ctx)
    for instr in coupled_xy.threads[0].instructions:
        twin = copy.deepcopy(instr)
        assert twin == instr and twin is not instr
        assert std_step(coupled_xy, s, twin, index=idx) == std_step(
            coupled_xy, s, instr, index=idx)
        assert local_step(coupled_xy, sigma, twin, DEFAULT_HAVOC, ctx) == local_step(
            coupled_xy, sigma, instr, DEFAULT_HAVOC, ctx)
        (_, s), = std_step(coupled_xy, s, instr, index=idx)
        (_, sigma), = local_step(coupled_xy, sigma, twin, DEFAULT_HAVOC, ctx)


def test_the_standard_step_needs_the_program_index(coupled_xy):
    """Neither the step nor the transition list builds an index of its own."""
    s, instr = initial_state(coupled_xy), coupled_xy.instructions[0]
    with pytest.raises(TypeError, match="index"):
        std_step(coupled_xy, s, instr)
    with pytest.raises(TypeError, match="index"):
        successor_transitions(coupled_xy, s)
    idx = ProgramIndex(coupled_xy)
    assert [tr.post for tr in successor_transitions(coupled_xy, s, index=idx)] == [
        post for _, _, _, post in successors(idx, s, std_step, DEFAULT_HAVOC)]


def test_a_foreign_instruction_raises_key_error(coupled_xy):
    foreign = Instruction(999, Assign("x", Expr.of(1)), 1000)
    with pytest.raises(KeyError):
        std_step(coupled_xy, initial_state(coupled_xy), foreign, index=ProgramIndex(coupled_xy))
    ctx = LocalContext(coupled_xy)
    with pytest.raises(KeyError):
        local_step(coupled_xy, initial_local_state(coupled_xy, ctx), foreign, DEFAULT_HAVOC, ctx)


def test_race_searches_step_through_the_module_global(coupled_xy, monkeypatch):
    """A wrapper over `concrete.std_step` sees every step of the searches.
    The counts are those of the sleep-set reduced walk: the unreduced tree
    of coupled_xy at depth 13 took 268 steps for each search.  A node never
    steps an instruction in its sleep set, so each search takes 39 steps,
    not the 51 of a walk that stepped sleeping instructions and then
    dropped their edges."""
    from racefree import concrete

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return step(*args, **kwargs)

    step = concrete.std_step
    monkeypatch.setattr(concrete, "std_step", counting)
    searches = [
        (lambda: find_data_races(coupled_xy, 13), 39),
        (lambda: find_region_races(coupled_xy, 13), 39),
        (lambda: owned_vars_oracle(coupled_xy, 13), 39),
    ]
    for search, count in searches:
        calls.clear()
        search()
        assert len(calls) == count


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


def test_exploration_budget_error(coupled_xy, monkeypatch):
    """The limit message says how far the search got when it tripped.  A
    tree search reads `concrete.DEFAULT_BUDGET` at call time; only
    `reachable_states` takes a budget of its own."""
    from racefree import concrete
    from racefree.concrete import ExplorationLimitError

    with pytest.raises(ExplorationLimitError,
                       match="^state budget 5 exceeded after 6 states at depth 2$"):
        reachable_states(coupled_xy, 10, budget=5)
    monkeypatch.setattr(concrete, "DEFAULT_BUDGET", 5)
    with pytest.raises(ExplorationLimitError,
                       match="^exploration budget 5 exceeded after 6 nodes at depth 5$"):
        list(enumerate_executions(coupled_xy, 10))
    with pytest.raises(ExplorationLimitError,
                       match="^state budget 5 exceeded after 6 states at depth 2$"):
        reachable_states(coupled_xy, 10)


def test_dfs_preorder_depth_bound():
    from racefree.concrete import dfs

    def expand(n, path):
        for child in (2 * n, 2 * n + 1):
            yield child, child

    assert [(n, list(path)) for n, path in dfs(1, 2, expand)] == [
        (1, []), (2, [2]), (4, [2, 4]), (5, [2, 5]), (3, [3]), (6, [3, 6]), (7, [3, 7])]


def test_program_index_rejects_a_location_in_two_threads():
    p = prog(TWO_STEPS)
    a, b = p.threads
    moved = b._replace(entry=a.entry,
                       instructions=tuple(i._replace(source=a.entry) for i in b.instructions))
    shared = p._replace(threads=(a, moved))
    with pytest.raises(ValueError, match="in two threads"):
        ProgramIndex(shared)
    # the fixpoint engine reads the same edge tables, and refuses it too
    with pytest.raises(ValueError, match="in two threads"):
        analyze_fixpoint(shared, AnalysisConfig())


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
    assert all(hb.ordered(i, i) for i in range(len(e.steps)))


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


@pytest.mark.parametrize("name", corpus.names())
def test_format_execution_prints_the_reference_edges(name):
    """The po and sw lines `explore` prints are the edges of the
    per-execution happens-before, on every execution up to depth 8 (some
    of which synchronize)."""
    p = corpus.load(name)
    synced = 0
    for e in enumerate_executions(p, 8):
        hb = happens_before(e)
        *_, po, sw = format_execution(e, p).split("\n")
        assert po == "po: " + " ".join(f"{i}->{j}" for i, j in hb.po_edges)
        assert sw == "sw: " + " ".join(f"{i}->{j}" for i, j in hb.sw_edges)
        synced += bool(hb.sw_edges)
    assert synced


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
    races = find_region_races(coupled_xy.with_regions(rall), 13)
    assert races, "single-region partition must race"
    pairs = {(race.execution.steps[race.first].instr.source,
              race.execution.steps[race.second].instr.source)
             for race in races}
    # t1's x := y (source 2) against t2's z++ (source 8), in either order
    assert (2, 8) in pairs or (8, 2) in pairs


def test_region_race_free_with_xy_partition(coupled_xy, coupled_xy_regions):
    assert find_region_races(coupled_xy.with_regions(coupled_xy_regions), 13) == []


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
    owned = owned_vars_oracle(coupled_xy, 13)
    assert set(owned) == {(t.name, loc) for t in coupled_xy.threads for loc in t.locations}
    assert owned["t1", 3] == frozenset({"x", "y"})
    assert owned["t2", 9] == frozenset({"z"})


def test_owned_oracle_single_thread_owns_all():
    p = prog("var x, y;\nthread t { x := y; }")
    assert owned_vars_oracle(p, 6) == {
        ("t", loc): frozenset({"x", "y"}) for loc in p.threads[0].locations}


def test_owned_oracle_walks_the_tree_once(monkeypatch):
    """One walk of the program's own execution tree decides every location;
    the walk's root node holds the initial state."""
    from racefree import concrete

    p = prog("var x, y, z;\nthread a { x := 1; }\nthread b { y := 1; z := 1; }")
    walks = []

    def counting(*args, **kwargs):
        walks.append(args[0])
        return walk(*args, **kwargs)

    walk = concrete.dfs
    monkeypatch.setattr(concrete, "dfs", counting)
    owned = owned_vars_oracle(p, 4)
    # each thread at its entry races with the other thread's writes
    assert owned["a", p.threads[0].entry] == {"x"}
    assert owned["b", p.threads[1].entry] == {"y", "z"}
    assert len(walks) == 1
    assert walks[0][0] == initial_state(p)


def probe_race_depths(p, thread, location, depth):
    """Per variable, the length of the shortest execution of at most
    `depth` steps in which a read of every variable, added at (thread,
    location) as a dead-end branch, races with a write of it: the owned-set
    definition, checked one execution at a time with `happens_before`."""
    fresh = max(max(t.locations) for t in p.threads) + 1
    probe = Instruction(location, Assume(BoolLit(True)), fresh,
                        assert_reads=frozenset(p.variables))
    threads = tuple(Thread(t.name, t.entry, t.instructions + (probe,))
                    if t.name == thread else t for t in p.threads)
    probed = Program(p.variables, p.locks, p.regions, threads, p.assertions)
    shortest = {}
    for e in enumerate_executions(probed, depth):
        if not e.steps:
            continue  # every pair is checked in the execution ending in it
        hb = happens_before(e)
        last = len(e.steps) - 1
        for i in range(last):
            a, b = e.steps[i], e.steps[last]
            if a.tid == b.tid or hb.ordered(i, last):
                continue
            write = b if a.instr is probe else a if b.instr is probe else None
            if write is not None and isinstance(write.instr.command, Assign):
                v = write.instr.command.var
                shortest[v] = min(shortest.get(v, len(e.steps)), len(e.steps))
    return shortest


RACY = """\
var x, y;
lock m;
thread a { x := 1; acquire(m); y := x; release(m); }
thread b { acquire(m); x := y + 1; release(m); y := 2; }
"""


def test_owned_oracle_matches_the_probed_reference():
    """At every location and depth, the one-walk oracle owns exactly the
    variables a probed read does not race on one step deeper."""
    programs = [corpus.load(name) for name in corpus.names()]
    programs += [p for _, p in random_race_free_programs(12, seed=3)]
    programs.append(prog(RACY))
    max_depth = 6
    for p in programs:
        oracles = [owned_vars_oracle(p, d) for d in range(max_depth + 1)]
        for t in p.threads:
            for loc in t.locations:
                shortest = probe_race_depths(p, t.name, loc, max_depth + 1)
                for d, owned in enumerate(oracles):
                    want = {v for v in p.variables if shortest.get(v, d + 2) > d + 1}
                    assert owned[t.name, loc] == want, (p.threads, t.name, loc, d)
    racy = owned_vars_oracle(programs[-1], max_depth)
    assert any(owned != {"x", "y"} for owned in racy.values())


# ---------------------------------------------------------------------------
# sleep-set reduction of the clocked walk

# loop programs: every depth of the net cuts their trees; two_locks races
# on z, which v reads outside the lock
LOOPS = {
    "locked_counters": """\
var c, d;
lock m;
thread t { while (c < 3) { acquire(m); c := c + 1; release(m); } }
thread u { while (d < 2) { acquire(m); d := d + c; release(m); } }
""",
    "two_locks": """\
var x, y, z;
lock m, n;
thread t { while (x < 2) { acquire(m); x := x + 1; release(m); acquire(n); y := x; release(n); } }
thread u { acquire(n); z := y + havoc; release(n); }
thread v { while (z < 1) { acquire(n); z := z + 1; release(n); } }
""",
}


def reduction_net():
    """The corpus, random race-free programs and loop programs, each also
    with its locks stripped."""
    named = [(name, corpus.load(name)) for name in corpus.names()]
    named += random_race_free_programs(12, seed=5)
    named += [(name, prog(src)) for name, src in LOOPS.items()]
    return named + [(f"{name}/stripped", strip_locks(p)) for name, p in named]


def dependence(table) -> set:
    """The instruction pairs a conflict table makes dependent."""
    return {(a, b) for a, row in table.items() for b in row}


def test_reduced_searches_match_the_unreduced_walk():
    """The race searches (data races, and region races under the program's
    regions and under one region of every variable, and for coupled_xy
    under its rxy partition) report the same triples with the same witness
    executions, and the owned oracle gives the same map, over the sleep-set
    reduced walk as over every execution, at each depth up to 8.  One walk
    for both kinds gives each kind's list too, also where the region
    dependence is strictly larger than the data dependence."""
    racy, wider = 0, set()
    for name, p in reduction_net():
        partitions = [p.regions, RegionMap.from_declared(p.variables, {"__all": p.variables})]
        if name.startswith("coupled_xy"):
            partitions.append(parse_region_text(corpus.COUPLED_XY_REGIONS, p.variables))
        for depth in range(9):
            races = find_data_races(p, depth)
            assert races == unreduced(find_data_races, p, depth), (name, depth)
            for rg in partitions:
                q = p.with_regions(rg)
                region = unreduced(find_region_races, q, depth)
                assert find_region_races(q, depth) == region, (name, rg, depth)
                assert find_races(q, depth, ("data", "region")) == [races, region], (
                    name, rg, depth)
            assert owned_vars_oracle(p, depth) == unreduced(owned_vars_oracle, p, depth), (
                name, depth)
        racy += bool(races)
        idx = ProgramIndex(p)
        data = dependence(conflict_table(idx, instr_accesses))
        wider.update((name, rg.names) for rg in partitions
                     if dependence(conflict_table(idx, region_accesses(rg))) > data)
    assert racy > 12  # most of the 18 stripped variants race
    assert {("coupled_xy", ("rxy", "z")), ("coupled_xy", ("__all",))} <= wider, wider
    assert len(wider) > 12, wider


@pytest.mark.parametrize("name", corpus.names())
def test_reduced_walk_yields_every_reachable_state(name):
    """Sleep sets prune transitions, never states."""
    p = corpus.load(name)
    idx = ProgramIndex(p)
    for depth in (0, 3, 6, 9, 13):
        walked = {s for s, *_ in clocked_walk(idx, depth, DEFAULT_HAVOC,
                                              (conflict_table(idx, instr_accesses),))}
        assert walked == reachable_states(p, depth), depth


def test_conflict_table_matches_the_per_pair_reference():
    """One symmetric pass gives the table of the per-pair rule, on the
    corpus and on random race-free programs, for variables and for the
    region-lifted subjects of the program's regions and of one region of
    every variable."""
    named = [(name, corpus.load(name)) for name in corpus.names()]
    named += random_race_free_programs(12, 5)
    lifted = 0
    for name, p in named:
        one_region = RegionMap.from_declared(p.variables, {"__all": p.variables})
        for rg in (None, p.regions, one_region):
            def subjects_of(instr, rg=rg):
                reads, writes = instr_accesses(instr)
                if rg is None:
                    return reads, writes
                return (frozenset(map(rg.region_of, reads)),
                        frozenset(map(rg.region_of, writes)))

            table = conflict_table(ProgramIndex(p), subjects_of)
            assert table == conflict_table_reference(p, subjects_of), (name, rg)
            assert all(table[b][a] == both for a, row in table.items()
                       for b, both in row.items()), (name, rg)
            lifted += rg is one_region and any(
                "__all" in both for row in table.values() for both in row.values())
    assert lifted == len(named)  # every program has a conflict on its one region


def test_one_conflict_table_per_search(coupled_xy, monkeypatch):
    """The walk's dependence and the race test read one table: a race
    search reads each instruction's accesses once."""
    from racefree import concrete

    calls = []

    def counting(instr):
        calls.append(instr)
        return accesses(instr)

    accesses = concrete.instr_accesses
    monkeypatch.setattr(concrete, "instr_accesses", counting)
    for search in (find_data_races, find_region_races):
        calls.clear()
        search(coupled_xy, 6)
        assert len(calls) == len(coupled_xy.instructions)


def test_enumeration_contains_canonical_handoff(coupled_xy):
    """The run-t1-fully-then-t2 interleaving shows up in the stream."""
    want = tuple([0] * 6 + [1] * 5)
    shapes = {tuple(tr.tid for tr in e.steps)
              for e in enumerate_executions(coupled_xy, 11) if len(e.steps) == 11}
    assert want in shapes


def test_translation_crosses_regions():
    """One witness step per access, right after it: the written region's
    witness, plus zero times each other region read; a pure read is an
    assume."""
    p = prog("var x, y, z;\nthread t { x := y + z; assume(y > z); }")  # singleton regions
    out = translate_for_region_races(p)
    assign, mark, assume, check = out.threads[0].instructions
    assert print_command(mark.command) == "__rg_x := __rg_x + 0 * __rg_y + 0 * __rg_z"
    assert print_command(check.command) == (
        "assume(0 * __rg_y + 0 * __rg_z == 0 * __rg_y + 0 * __rg_z)")
    # each original instruction keeps its command and source; its mark
    # leads on to its target
    assert [(i.source, i.target) for i in out.threads[0].instructions] == [
        (1, 4), (4, 2), (2, 5), (5, 3)]
    assert (assign.command, assume.command) == tuple(
        i.command for i in p.threads[0].instructions)
    assert instr_accesses(mark) == (frozenset({"__rg_x", "__rg_y", "__rg_z"}), frozenset({"__rg_x"}))
    assert instr_accesses(check) == (frozenset({"__rg_y", "__rg_z"}), frozenset())


def test_translation_finds_no_race_through_a_blocked_assume():
    """An assume that never passes reads nothing, in `p` and in its
    translation: no region race either way (a witness read in front of
    the assume would race with u's write)."""
    p = prog("var x;\nthread t { assume(x > 5); }\nthread u { x := 1; }")
    assert find_region_races(p, 6) == []
    assert racy_regions_via_translation(p, 12) == frozenset()


def test_witnesses_never_collide_with_program_variables():
    """A program variable named like a witness moves the witness prefix:
    the two threads below write different regions, so no region races,
    and the translation agrees (a witness `__rg_x` of region x would be
    the program's own `__rg_x`, and race with it)."""
    p = prog("var x, __rg_x;\nthread t { x := 1; }\nthread u { __rg_x := 1; }")
    out = translate_for_region_races(p)
    assert out.variables == ("x", "__rg_x", "___rg_x", "___rg___rg_x")
    assert find_region_races(p, 6) == []
    assert racy_regions_via_translation(p, 12) == frozenset()
    racy = prog("var x, __rg_x;\nthread t { x := 1; }\nthread u { x := 2; __rg_x := 1; }")
    assert racy_regions_via_translation(racy, 12) == {"x"}
    # nor with a region's name: the translation's regions stay distinct
    named = prog("var a, b;\nregion __rg_b { a };\nthread t { a := 1; }\nthread u { b := a; }")
    out = translate_for_region_races(named)
    assert len(set(out.regions.names)) == len(out.regions.names) == 4
    assert racy_regions_via_translation(named, 12) == {"__rg_b"}


def test_translation_covers_the_direct_region_races():
    """Every region the direct search reports within d steps races in the
    translation within 2d steps (`translate_for_region_races`' covering
    argument), and every region racing there races in `p` within 2d steps
    (its converse), on the corpus, random race-free programs and loop
    programs, each also lock-stripped, under their own regions and under
    one region of every variable."""
    depth, racy, checked = 6, 0, 0
    for name, p in reduction_net():
        one_region = RegionMap.from_declared(p.variables, {"__all": p.variables})
        for q in (p, p.with_regions(one_region)):
            direct = {r.subject for r in find_region_races(q, depth)}
            translated = racy_regions_via_translation(q, 2 * depth)
            assert direct <= translated <= {
                r.subject for r in find_region_races(q, 2 * depth)}, name
            racy += bool(direct)
            checked += 1
    assert racy > checked // 3, (racy, checked)


def test_translation_marks_pure_writes():
    p = prog("var x;\nthread t { x := 5; }")
    out = translate_for_region_races(p)
    mark = out.threads[0].instructions[1]
    assert mark.command.var == "__rg_x"
    assert mark.command.expr == Expr.of("__rg_x")
