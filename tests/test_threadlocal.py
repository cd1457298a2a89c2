"""Versioned environments, buffers, and the thread-local step relation."""

import random

import pytest
from domtools import (
    enumerate_local_executions,
    extract_state_reference,
    is_admissible_reference,
    take_newest,
    update_env,
)

from racefree import corpus
from racefree.concrete import DEFAULT_HAVOC, initial_state, reachable
from racefree.lang import Acquire, parse_program
from racefree.threadlocal import (
    InadmissibleStateError,
    LocalContext,
    ThreadLocalState,
    VersionedEnv,
    extract_state,
    initial_local_state,
    is_admissible,
    local_step,
    merge_newest,
)


def prog(src):
    return parse_program(src)


def drive(p, ctx, state, tid, count=1):
    for _ in range(count):
        t = p.threads[tid]
        for instr in t.instructions:
            if instr.source == state.pc[tid]:
                succ = local_step(p, state, instr, DEFAULT_HAVOC, ctx)
                assert succ
                state = succ[0][1]
                break
        else:
            pytest.fail(f"thread {tid} stuck")
    return state


# ---------------------------------------------------------------------------
# take / update_env


def test_take_prefers_highest_version():
    local = VersionedEnv((0,), (0,))
    buffered = VersionedEnv((1,), (2,))
    assert take_newest(0, (local, buffered)) == frozenset({(1, 2)})


def test_take_singleton():
    ve = VersionedEnv((5,), (3,))
    assert take_newest(0, (ve,)) == frozenset({(5, 3)})


def test_take_ties_agree_on_admissible_inputs():
    """Randomized admissible pools: ties at the top version share one value."""
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 3)
        value_at_version = {v: {} for v in range(n)}
        pool = []
        for _ in range(rng.randint(1, 5)):
            values, versions = [], []
            for v in range(n):
                ver = rng.randint(0, 3)
                val = value_at_version[v].setdefault(ver, rng.randint(-5, 5))
                versions.append(ver)
                values.append(val)
            pool.append(VersionedEnv(tuple(values), tuple(versions)))
        for v in range(n):
            assert len(take_newest(v, tuple(pool))) == 1


def test_update_env_imports_newer_values():
    mine = VersionedEnv((0, 0, 1), (0, 0, 1))
    buffered = VersionedEnv((1, 1, 0), (2, 1, 0))
    (merged,) = update_env(mine, (buffered,))
    assert merged == VersionedEnv((1, 1, 1), (2, 1, 1))
    assert merge_newest((mine, buffered)) == merged


def test_update_env_empty_buffer_set_is_identity():
    ve = VersionedEnv((3, 4), (1, 2))
    assert update_env(ve, ()) == (ve,)
    assert merge_newest((ve,)) == ve


def test_update_env_dominated_by_buffer():
    ve = VersionedEnv((1, 2), (1, 1))
    dominating = VersionedEnv((7, 8), (2, 3))
    assert update_env(ve, (dominating,)) == (dominating,)
    assert merge_newest((ve, dominating)) == dominating


def test_merge_newest_matches_the_recombining_reference():
    """On every acquire enabled in a thread-local state reachable in the
    corpus within 8 steps, the one merge gives the one recombination of
    the reference; on a pool whose entries disagree at the newest version
    it gives none, and the acquire raises."""
    merged = 0
    for name in corpus.names():
        p = corpus.load(name)
        ctx = LocalContext(p)
        for s in reachable(ctx, initial_local_state(p, ctx), local_step, 8, (0, 1, 2)):
            for tid, loc in enumerate(s.pc):
                for instr in ctx.by_source.get(loc, ()):
                    if not isinstance(instr.command, Acquire):
                        continue
                    lock = instr.command.lock
                    if s.mu[ctx.lock_index[lock]] is not None:
                        continue
                    pool = (s.theta[tid], *(s.buffers[b] for b in ctx.buffers_of_lock[lock]))
                    assert (merge_newest(pool),) == update_env(pool[0], pool[1:]), (name, s)
                    merged += 1
    assert merged == 22

    mine = VersionedEnv((0, 5), (0, 1))
    buffered = VersionedEnv((2, 6), (1, 1))
    assert len(update_env(mine, (buffered,))) == 2
    assert merge_newest((mine, buffered)) is None
    p = prog("var x;\nlock m;\nthread a { acquire(m); x := 3; release(m); }")
    ctx = LocalContext(p)
    s = initial_local_state(p, ctx)
    conflicting = ThreadLocalState(s.pc, s.mu, (VersionedEnv((3,), (1,)),) * 2,
                                   (VersionedEnv((4,), (1,)),) * len(s.buffers))
    with pytest.raises(InadmissibleStateError, match="conflicting buffered values"):
        local_step(p, conflicting, p.threads[0].instructions[0], DEFAULT_HAVOC, ctx)


# ---------------------------------------------------------------------------
# step relation: the overview walkthrough


def test_walkthrough_acquire_imports_buffers(coupled_xy):
    ctx = LocalContext(coupled_xy)
    s = initial_local_state(coupled_xy, ctx)
    s = drive(coupled_xy, ctx, s, 0, 6)  # t1 start to finish
    after_release = s
    b7 = ctx.buffer_index[7]
    assert after_release.buffers[b7] == after_release.theta[0]
    assert after_release.theta[0] == VersionedEnv((1, 1, 0), (2, 1, 0))
    s = drive(coupled_xy, ctx, s, 1, 3)  # t2: z++, assert edge, acquire
    assert s.theta[1] == VersionedEnv((1, 1, 1), (2, 1, 1))
    assert s.mu == (1,)


def test_release_stores_snapshot_without_touching_theta(coupled_xy):
    ctx = LocalContext(coupled_xy)
    s = initial_local_state(coupled_xy, ctx)
    s5 = drive(coupled_xy, ctx, s, 0, 5)  # through the assert edge
    s6 = drive(coupled_xy, ctx, s5, 0, 1)  # release
    assert s6.theta == s5.theta
    assert s6.buffers[ctx.buffer_index[7]] == s5.theta[0]


def test_region_variant_bumps_whole_region(coupled_xy, coupled_xy_regions):
    ctx = LocalContext(coupled_xy, regions=coupled_xy_regions)
    s = initial_local_state(coupled_xy, ctx)
    s = drive(coupled_xy, ctx, s, 0, 2)  # acquire, then x := y
    assert s.theta[0].versions == (1, 1, 0)  # x and y bumped together


def test_region_variant_with_singletons_is_identical(capped_counter):
    singleton = capped_counter.regions
    ctx_plain = LocalContext(capped_counter)
    ctx_regions = LocalContext(capped_counter, regions=singleton)
    plain = [
        tuple((tr.instr.source, tr.post) for tr in e.steps)
        for e in enumerate_local_executions(capped_counter, 8, ctx=ctx_plain)
    ]
    tagged = [
        tuple((tr.instr.source, tr.post) for tr in e.steps)
        for e in enumerate_local_executions(capped_counter, 8, ctx=ctx_regions)
    ]
    assert plain == tagged


# ---------------------------------------------------------------------------
# extraction and admissibility


def test_extract_initial_state(coupled_xy):
    assert extract_state(coupled_xy, initial_local_state(coupled_xy, LocalContext(coupled_xy))) \
        == initial_state(coupled_xy)


def test_extract_takes_maximal_versions(coupled_xy):
    zero = VersionedEnv((0, 0, 0), (0, 0, 0))
    strong = VersionedEnv((4, 5, 6), (3, 3, 3))
    s = initial_local_state(coupled_xy, LocalContext(coupled_xy))
    s = ThreadLocalState(s.pc, s.mu, (strong, zero), s.buffers)
    assert extract_state(coupled_xy, s).phi == (4, 5, 6)


def test_admissibility_detects_conflicts(coupled_xy):
    s = initial_local_state(coupled_xy, LocalContext(coupled_xy))
    assert is_admissible(s)
    a = VersionedEnv((3, 0, 0), (1, 0, 0))
    b = VersionedEnv((4, 0, 0), (1, 0, 0))
    bad = ThreadLocalState(s.pc, s.mu, (a, b), s.buffers)
    assert not is_admissible(bad)
    with pytest.raises(InadmissibleStateError):
        extract_state(coupled_xy, bad)


def test_reachable_states_admissible(coupled_xy):
    ctx = LocalContext(coupled_xy)
    for e in enumerate_local_executions(coupled_xy, 9, ctx=ctx):
        if e.steps:
            assert is_admissible(e.steps[-1].post)


def test_one_pass_extraction_matches_the_two_pass_reference():
    """On every thread-local state reachable in the corpus within 8 steps,
    and on inadmissible states made from them, the one-pass admissibility
    test and extraction agree with the reference, error message included."""

    def outcome(extract, p, s):
        try:
            return extract(p, s)
        except InadmissibleStateError as e:
            return str(e)

    checked = inadmissible = 0
    for name in corpus.names():
        p = corpus.load(name)
        ctx = LocalContext(p)
        states = reachable(ctx, initial_local_state(p, ctx), local_step, 8, (0, 1, 2))
        made = []
        for s in states[::7]:
            # one component's value at x moved off the value another
            # component holds at the same version (a thread's, a buffer's)
            comps = s.theta + s.buffers
            for k, ve in enumerate(comps):
                for x in range(len(p.variables)):
                    if any(o.versions[x] == ve.versions[x] for j, o in enumerate(comps) if j != k):
                        values = ve.values[:x] + (ve.values[x] + 1,) + ve.values[x + 1:]
                        comps2 = comps[:k] + (VersionedEnv(values, ve.versions),) + comps[k + 1:]
                        n = len(s.theta)
                        made.append(ThreadLocalState(s.pc, s.mu, comps2[:n], comps2[n:]))
        for s in states + made:
            admissible = is_admissible(s)
            assert admissible == is_admissible_reference(s), (name, s)
            assert outcome(extract_state, p, s) == outcome(extract_state_reference, p, s)
            checked += 1
            inadmissible += not admissible
    assert inadmissible > 100 and checked > inadmissible
