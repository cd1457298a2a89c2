"""Versioned environments, buffers, and the thread-local step relation."""

import random

import pytest

from racefree.concrete import initial_state
from racefree.lang import desugar, parse_program
from racefree.threadlocal import (
    InadmissibleStateError,
    LocalContext,
    ThreadLocalState,
    VersionedEnv,
    enumerate_local_executions,
    extract_state,
    initial_local_state,
    is_admissible,
    local_step,
    take_newest,
    update_env,
)


def prog(src):
    return desugar(parse_program(src))


def drive(p, ctx, state, tid, count=1):
    for _ in range(count):
        t = p.threads[tid]
        for instr in t.instructions:
            if instr.source == state.pc[tid]:
                succ = local_step(p, state, instr, ctx=ctx)
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


def test_update_env_empty_buffer_set_is_identity():
    ve = VersionedEnv((3, 4), (1, 2))
    assert update_env(ve, ()) == (ve,)


def test_update_env_dominated_by_buffer():
    ve = VersionedEnv((1, 2), (1, 1))
    dominating = VersionedEnv((7, 8), (2, 3))
    assert update_env(ve, (dominating,)) == (dominating,)


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
    ctx = LocalContext(coupled_xy)
    assert extract_state(coupled_xy, initial_local_state(coupled_xy, ctx), ctx) \
        == initial_state(coupled_xy)


def test_extract_takes_maximal_versions(coupled_xy):
    ctx = LocalContext(coupled_xy)
    zero = VersionedEnv((0, 0, 0), (0, 0, 0))
    strong = VersionedEnv((4, 5, 6), (3, 3, 3))
    s = initial_local_state(coupled_xy, ctx)
    s = ThreadLocalState(s.pc, s.mu, (strong, zero), s.buffers)
    assert extract_state(coupled_xy, s, ctx).phi == (4, 5, 6)


def test_admissibility_detects_conflicts(coupled_xy):
    ctx = LocalContext(coupled_xy)
    s = initial_local_state(coupled_xy, ctx)
    assert is_admissible(s)
    a = VersionedEnv((3, 0, 0), (1, 0, 0))
    b = VersionedEnv((4, 0, 0), (1, 0, 0))
    bad = ThreadLocalState(s.pc, s.mu, (a, b), s.buffers)
    assert not is_admissible(bad)
    with pytest.raises(InadmissibleStateError):
        extract_state(coupled_xy, bad, ctx)


def test_reachable_states_admissible(coupled_xy):
    ctx = LocalContext(coupled_xy)
    for e in enumerate_local_executions(coupled_xy, 9, ctx=ctx):
        if e.steps:
            assert is_admissible(e.steps[-1].post)


def test_pruned_gamma_restricts_acquire_imports(coupled_xy):
    """With an empty relevance map the acquire keeps its stale local copy."""
    pruned = LocalContext(coupled_xy, sync_gamma={7: (), 13: ()})
    s = initial_local_state(coupled_xy, pruned)
    s = drive(coupled_xy, pruned, s, 0, 6)   # t1 start to finish
    s = drive(coupled_xy, pruned, s, 1, 3)   # t2 up to and through its acquire
    assert s.theta[1] == VersionedEnv((0, 0, 1), (0, 0, 1))  # nothing imported
