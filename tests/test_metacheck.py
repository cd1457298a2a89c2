"""Metatheory harness: correspondence, version invariants, abstraction checks,
and the fault-injection self-tests that prove the harness can catch bugs."""

from dataclasses import replace

import pytest

from racefree import corpus
from racefree.concrete import ExplorationLimitError, enumerate_executions
from racefree.lang import Assign, desugar, parse_program
from racefree.metacheck import (
    PreconditionError,
    check_correspondence,
    check_local_abstraction,
    check_version_invariants,
    random_race_free_programs,
)
from racefree.threadlocal import VersionedEnv, local_step


def prog(src):
    return desugar(parse_program(src))


RACY = "var x;\nthread a { x := 1; }\nthread b { x := 2; }"


# ---------------------------------------------------------------------------
# correspondence


def test_correspondence_coupled_xy(coupled_xy):
    r = check_correspondence(coupled_xy, 13)
    assert r.passed and r.instances > 0


def test_correspondence_depth_zero(coupled_xy):
    r = check_correspondence(coupled_xy, 0)
    assert r.passed and r.instances == 0


def test_correspondence_requires_race_freedom():
    with pytest.raises(PreconditionError):
        check_correspondence(prog(RACY), 4)


def test_correspondence_catches_broken_acquire():
    """Fault injection: an acquire that ignores the buffers must be caught."""
    handoff = prog("""var x;
lock m;
thread a { acquire(m); x := 3; release(m); }
thread b { acquire(m); x := x + 1; release(m); }
""")

    def no_import_step(p, s, instr, havoc_values, ctx, **kw):
        from racefree.lang import Acquire
        from racefree.threadlocal import ThreadLocalState

        if isinstance(instr.command, Acquire):
            tid = ctx.tid_of_instr[instr]
            if s.pc[tid] != instr.source:
                return ()
            mi = ctx.lock_index[instr.command.lock]
            if s.mu[mi] is not None:
                return ()
            pc2 = tuple(instr.target if k == tid else l for k, l in enumerate(s.pc))
            mu2 = tuple(tid if k == mi else h for k, h in enumerate(s.mu))
            return (((), ThreadLocalState(pc2, mu2, s.theta, s.buffers)),)
        return local_step(p, s, instr, havoc_values, ctx, **kw)

    assert check_correspondence(handoff, 8).passed
    r = check_correspondence(handoff, 8, local_step_fn=no_import_step)
    assert not r.passed


def test_walks_keep_the_budget_without_the_precondition(coupled_xy):
    with pytest.raises(ExplorationLimitError, match="after 6 nodes"):
        check_correspondence(coupled_xy, 10, budget=5, skip_precondition=True)
    with pytest.raises(ExplorationLimitError, match="after 6 nodes"):
        check_version_invariants(coupled_xy, 10, budget=5, skip_precondition=True)


def test_walks_fit_in_the_budget_the_precondition_needs(coupled_xy):
    """The walks, the owned-set oracle among them, search the tree the
    race-freedom precondition searches, at the same depth, so they never
    trip where it passed."""
    nodes = sum(1 for _ in enumerate_executions(coupled_xy, 10))
    assert nodes == 183
    with pytest.raises(ExplorationLimitError):
        check_correspondence(coupled_xy, 10, budget=nodes - 1)
    assert check_correspondence(coupled_xy, 10, budget=nodes).passed
    results = check_version_invariants(coupled_xy, 10, budget=nodes)
    for r in results:
        assert r.passed, r.summary()


# ---------------------------------------------------------------------------
# version invariants


def test_version_invariants_pass_on_corpus_program(coupled_xy):
    results = check_version_invariants(coupled_xy, 10)
    assert {r.name for r in results} == {
        "version_bound", "write_version_exact", "max_version_at_access",
        "admissibility", "owned_projection",
    }
    for r in results:
        assert r.passed, r.summary()
        assert r.instances > 0


def test_version_invariants_single_thread():
    p = prog("var x;\nthread t { x := 1; x := x + 1; }")
    for r in check_version_invariants(p, 6):
        assert r.passed


def test_version_invariants_catch_missing_bump(coupled_xy):
    """Fault injection: removing the write bump must trip the exactness check."""

    def no_bump(p, s, instr, havoc_values, ctx):
        out = local_step(p, s, instr, havoc_values, ctx)
        if not isinstance(instr.command, Assign):
            return out
        tid = ctx.tid_of_instr[instr]
        versions = s.theta[tid].versions  # the writer's versions before the step
        return tuple(
            (choices, replace(post, theta=post.theta[:tid] + (
                VersionedEnv(post.theta[tid].values, versions),) + post.theta[tid + 1:]))
            for choices, post in out)

    results = check_version_invariants(coupled_xy, 6, local_step_fn=no_bump)
    by_name = {r.name: r for r in results}
    assert not by_name["write_version_exact"].passed


def test_version_invariants_precondition():
    with pytest.raises(PreconditionError):
        check_version_invariants(prog(RACY), 4)


# ---------------------------------------------------------------------------
# local abstraction


def test_local_abstraction_coupled_xy(coupled_xy):
    r = check_local_abstraction(coupled_xy, samples=60, seed=5)
    assert r.passed and r.instances > 0


def test_local_abstraction_region_variant(coupled_xy, coupled_xy_regions):
    r = check_local_abstraction(coupled_xy, samples=60, seed=5,
                                regions=coupled_xy_regions)
    assert r.passed


def test_local_abstraction_initial_state_acquire(capped_counter):
    """Hand-checkable base case: from the initial state alone, the first
    acquire's buffer-fold is dominated by the cartesian mix."""
    from racefree.metacheck import _alpha, _cartesian_transfer
    from racefree.threadlocal import LocalContext, initial_local_state, local_step

    ctx = LocalContext(capped_counter)
    init = initial_local_state(capped_counter, ctx)
    acquire = capped_counter.threads[0].instructions[0]
    post = [s for _, s in local_step(capped_counter, init, acquire, (0, 1, 2), ctx)]
    lhs = _alpha(capped_counter, ctx, post)
    rhs = _cartesian_transfer(capped_counter, ctx, acquire,
                              _alpha(capped_counter, ctx, [init]),
                              ((0,),), (0, 1, 2))
    for loc, envs in lhs.items():
        assert envs <= rhs.get(loc, frozenset())


def test_local_abstraction_catches_unsound_mix(coupled_xy):
    """Fault injection: a mix that keeps cross-variable correlations at
    variable granularity is unsound and must be flagged."""

    def broken_mix(envs, partition):
        return frozenset(envs)  # keeps correlations it must forget

    r = check_local_abstraction(coupled_xy, samples=40, seed=5, mix_fn=broken_mix)
    assert not r.passed


def test_local_abstraction_pool_budget_is_an_exploration_limit(coupled_xy):
    with pytest.raises(ExplorationLimitError,
                       match="^state budget 3 exceeded after 4 states at depth 2$"):
        check_local_abstraction(coupled_xy, samples=5, seed=1, budget=3)


def test_deterministic_given_seed(coupled_xy):
    a = check_local_abstraction(coupled_xy, samples=30, seed=123)
    b = check_local_abstraction(coupled_xy, samples=30, seed=123)
    assert (a.instances, a.violations) == (b.instances, b.violations)


# ---------------------------------------------------------------------------
# random race-free corpus


def test_random_programs_are_deterministic():
    a = random_race_free_programs(5, seed=42)
    b = random_race_free_programs(5, seed=42)
    assert [n for n, _ in a] == [n for n, _ in b]
    assert [p for _, p in a] == [p for _, p in b]


def test_random_programs_propagate_unexpected_errors(monkeypatch):
    """Only an exhausted budget rejects a candidate; any other error of
    the race check is a fault and reaches the caller."""
    from racefree import metacheck

    def broken(*args, **kwargs):
        raise TypeError("broken race check")

    monkeypatch.setattr(metacheck, "find_data_races", broken)
    with pytest.raises(TypeError, match="broken race check"):
        random_race_free_programs(2, seed=42)


def test_random_programs_pass_the_checks():
    for name, p in random_race_free_programs(4, seed=9):
        assert check_correspondence(p, 10).passed, name
        for r in check_version_invariants(p, 8):
            assert r.passed, (name, r.summary())
