"""Metatheory harness: correspondence, version invariants, abstraction checks,
and the fault-injection self-tests that prove the harness can catch bugs."""

import pytest
from domtools import (
    local_abstraction_reference,
    random_race_free_programs,
    two_way_correspondence,
    version_invariants_reference,
)

from racefree import concrete, corpus, metacheck
from racefree.concrete import (
    ExplorationLimitError,
    enumerate_executions,
    find_data_races,
    owned_vars_oracle,
)
from racefree.lang import Acquire, Assign, parse_program, parse_region_text
from racefree.metacheck import (
    PreconditionError,
    check_correspondence,
    check_local_abstraction,
    check_version_invariants,
    race_free_owned,
)
from racefree.threadlocal import ThreadLocalState, VersionedEnv, local_step


def prog(src):
    return parse_program(src)


RACY = "var x;\nthread a { x := 1; }\nthread b { x := 2; }"

HANDOFF = """var x;
lock m;
thread a { acquire(m); x := 3; release(m); }
thread b { acquire(m); x := x + 1; release(m); }
"""


# ---------------------------------------------------------------------------
# broken thread-local step functions (fault injection): a test installs one
# as `metacheck.local_step`, which the checks look up at call time


def no_import_step(p, s, instr, havoc_values, ctx):
    """An acquire that ignores the release buffers."""
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
    return local_step(p, s, instr, havoc_values, ctx)


def no_bump(p, s, instr, havoc_values, ctx):
    """A write that leaves the writer's versions as they were."""
    out = local_step(p, s, instr, havoc_values, ctx)
    if not isinstance(instr.command, Assign):
        return out
    tid = ctx.tid_of_instr[instr]
    versions = s.theta[tid].versions  # the writer's versions before the step
    return tuple(
        (choices, post._replace(theta=post.theta[:tid] + (
            VersionedEnv(post.theta[tid].values, versions),) + post.theta[tid + 1:]))
        for choices, post in out)


def acquire_held_step(p, s, instr, havoc_values, ctx):
    """An acquire enabled while another thread holds the lock."""
    if isinstance(instr.command, Acquire):
        mi = ctx.lock_index[instr.command.lock]
        s = s._replace(mu=s.mu[:mi] + (None,) + s.mu[mi + 1:])
    return local_step(p, s, instr, havoc_values, ctx)


def no_assign_step(p, s, instr, havoc_values, ctx):
    """Every assign disabled."""
    if isinstance(instr.command, Assign):
        return ()
    return local_step(p, s, instr, havoc_values, ctx)


BROKEN_STEPS = (no_import_step, no_bump, acquire_held_step, no_assign_step)


# ---------------------------------------------------------------------------
# correspondence


def test_correspondence_coupled_xy(coupled_xy):
    results = check_correspondence(coupled_xy, 13)
    assert [r.name for r in results] == [
        "correspondence", "version_bound", "write_version_exact", "max_version_at_access",
        "admissibility", "owned_projection"]
    for r in results:
        assert r.passed and r.instances > 0, r.summary()


def test_correspondence_depth_zero(coupled_xy):
    r = check_correspondence(coupled_xy, 0)[0]
    assert r.passed and r.instances == 0


def test_correspondence_requires_race_freedom():
    with pytest.raises(PreconditionError):
        check_correspondence(prog(RACY), 4)


def test_correspondence_catches_broken_acquire(monkeypatch):
    """Fault injection: an acquire that ignores the buffers must be caught."""
    handoff = prog(HANDOFF)
    assert check_correspondence(handoff, 8)[0].passed
    monkeypatch.setattr(metacheck, "local_step", no_import_step)
    r = check_correspondence(handoff, 8)[0]
    assert not r.passed


def explanations(r):
    return {explanation for _, explanation in r.violations}


def test_correspondence_catches_a_step_only_the_thread_local_semantics_takes(monkeypatch):
    """Fault injection: an acquire of a lock another thread holds is a
    thread-local step that the standard semantics disables."""
    monkeypatch.setattr(metacheck, "local_step", acquire_held_step)
    r = check_correspondence(prog(HANDOFF), 8)[0]
    assert explanations(r) == {"thread-local step disabled in the standard semantics"}


def test_correspondence_catches_a_step_only_the_standard_semantics_takes(monkeypatch):
    """Fault injection: a thread-local semantics without assigns leaves
    every standard assign without a counterpart."""
    monkeypatch.setattr(metacheck, "local_step", no_assign_step)
    r = check_correspondence(prog(HANDOFF), 8)[0]
    assert explanations(r) == {"standard step has no thread-local counterpart"}


def test_correspondence_walks_once(coupled_xy, monkeypatch):
    """Both directions of the correspondence and the version invariants
    are checked by one walk of the thread-local tree."""
    walks = []
    monkeypatch.setattr(metacheck, "dfs",
                        lambda *a, _dfs=metacheck.dfs: walks.append(1) or _dfs(*a))
    results = check_correspondence(coupled_xy, 8)
    assert all(r.passed for r in results)
    assert len(walks) == 1


def summaries(results):
    return [(r.name, r.instances, r.passed, explanations(r)) for r in results]


def test_one_walk_matches_the_two_walk_reference(monkeypatch):
    """The one walk gives, per check, the instances, verdict and
    explanations of the two replays of the correspondence and of the
    version invariants' own walk: a pass on race-free programs, a failure
    under each broken semantics."""
    cases = [(p, depth, None) for p in map(corpus.load, corpus.names())
             for depth in range(11)]
    cases += [(p, depth, None) for _, p in random_race_free_programs(12, seed=5)
              for depth in (4, 8, 10)]
    cases += [(p, depth, step) for step in BROKEN_STEPS
              for p, depth in ((prog(HANDOFF), 8), (corpus.load("coupled_xy"), 10))]
    for p, depth, step in cases:
        owned = owned_vars_oracle(p, depth)
        with monkeypatch.context() as m:
            if step is not None:
                m.setattr(metacheck, "local_step", step)
            one = check_correspondence(p, depth)
        two = [two_way_correspondence(p, depth, local_step_fn=step),
               *version_invariants_reference(p, depth, owned, local_step_fn=step)]
        assert summaries(one) == summaries(two), (p, depth, step)
        assert all(r.passed for r in one) == (step is None), (p, depth, step)


def test_walks_keep_the_budget_without_the_precondition(coupled_xy, monkeypatch):
    """With the precondition's walk made beforehand, the thread-local walk
    itself trips the budget."""
    owned = owned_vars_oracle(coupled_xy, 10)
    monkeypatch.setattr(metacheck, "race_free_owned", lambda *a: owned)
    monkeypatch.setattr(concrete, "DEFAULT_BUDGET", 5)
    with pytest.raises(ExplorationLimitError, match="after 6 nodes"):
        check_correspondence(coupled_xy, 10)


def test_walks_fit_in_the_budget_the_precondition_needs(coupled_xy, monkeypatch):
    """The walks, the owned-set oracle among them, search the tree the
    race-freedom precondition searches, at the same depth, so they never
    trip where it passed."""
    nodes = sum(1 for _ in enumerate_executions(coupled_xy, 10))
    assert nodes == 183
    monkeypatch.setattr(concrete, "DEFAULT_BUDGET", nodes - 1)
    with pytest.raises(ExplorationLimitError):
        check_correspondence(coupled_xy, 10)
    monkeypatch.setattr(concrete, "DEFAULT_BUDGET", nodes)
    for r in check_correspondence(coupled_xy, 10):
        assert r.passed, r.summary()


def test_race_free_owned_is_the_race_search_and_the_oracle(coupled_xy, monkeypatch):
    """One walk gives the precondition and the owned sets; an exhausted
    budget trips at the node where the race search trips."""
    cases = [(p, depth) for p in map(corpus.load, corpus.names()) for depth in (0, 4, 9)]
    cases += [(p, 8) for _, p in random_race_free_programs(6, seed=3)]
    for p, depth in cases:
        assert not find_data_races(p, depth)
        assert race_free_owned(p, depth) == owned_vars_oracle(p, depth), (p, depth)
    with pytest.raises(PreconditionError, match="data race on 'x' within depth 4"):
        race_free_owned(prog(RACY), 4)
    for budget in (1, 5, 20):
        monkeypatch.setattr(concrete, "DEFAULT_BUDGET", budget)
        with pytest.raises(ExplorationLimitError) as search:
            find_data_races(coupled_xy, 10)
        with pytest.raises(ExplorationLimitError) as shared:
            race_free_owned(coupled_xy, 10)
        assert str(shared.value) == str(search.value)


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


def test_version_invariants_catch_missing_bump(coupled_xy, monkeypatch):
    """Fault injection: removing the write bump must trip the exactness check."""
    monkeypatch.setattr(metacheck, "local_step", no_bump)
    results = check_version_invariants(coupled_xy, 6)
    by_name = {r.name: r for r in results}
    assert not by_name["write_version_exact"].passed


def test_version_invariants_precondition():
    with pytest.raises(PreconditionError):
        check_version_invariants(prog(RACY), 4)


def test_version_invariants_walk_the_standard_tree_once(coupled_xy, monkeypatch):
    """The precondition and the owned sets come from one walk."""
    walks = []
    monkeypatch.setattr(concrete, "clocked_walk",
                        lambda *a, _walk=concrete.clocked_walk: walks.append(1) or _walk(*a))
    check_version_invariants(coupled_xy, 8)
    assert len(walks) == 1


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
    lhs = _alpha(ctx, post)
    rhs = _cartesian_transfer(ctx, acquire, _alpha(ctx, [init]),
                              ((0,),), (0, 1, 2))
    for loc, envs in lhs.items():
        assert envs <= rhs.get(loc, frozenset())


def broken_mix(envs, partition):
    """A mix that keeps the correlations it must forget."""
    return frozenset(envs)


def test_local_abstraction_catches_unsound_mix(coupled_xy, monkeypatch):
    """Fault injection: a mix that keeps cross-variable correlations at
    variable granularity is unsound and must be flagged."""
    monkeypatch.setattr(metacheck, "_mix_envs", broken_mix)
    r = check_local_abstraction(coupled_xy, samples=40, seed=5)
    assert not r.passed


def test_cartesian_transfer_joins_into_the_target():
    """The collecting transfer adds the image of an instruction to its
    target's set and keeps what the target held: the join that the
    per-instruction comparison of `check_local_abstraction` cannot see."""
    from racefree.threadlocal import LocalContext

    p = prog(HANDOFF)
    ctx = LocalContext(p)
    partition = ((0,),)
    for instr in p.instructions:
        state = {loc: frozenset() for t in p.threads for loc in t.locations}
        state[instr.source] = frozenset({(3,)})
        state[instr.target] = frozenset({(9,)})
        out = metacheck._cartesian_transfer(ctx, instr, state, partition, (0, 1, 2))
        assert out[instr.target] > {(9,)}, instr
        assert {loc: envs for loc, envs in out.items() if loc != instr.target} == {
            loc: envs for loc, envs in state.items() if loc != instr.target}


def test_local_abstraction_pool_budget_is_an_exploration_limit(coupled_xy, monkeypatch):
    monkeypatch.setattr(concrete, "DEFAULT_BUDGET", 3)
    with pytest.raises(ExplorationLimitError,
                       match="^state budget 3 exceeded after 4 states at depth 2$"):
        check_local_abstraction(coupled_xy, samples=5, seed=1)


def test_local_abstraction_steps_only_instructions_at_a_pc(coupled_xy, monkeypatch):
    """An instruction is stepped from a sampled state only when its thread
    stands at its source; every (sample, instruction) pair still counts."""
    off_pc = []

    def spy(p, s, instr, havoc_values, ctx):
        if s.pc[ctx.tid_of_instr[instr]] != instr.source:
            off_pc.append(instr)
        return local_step(p, s, instr, havoc_values, ctx)

    monkeypatch.setattr(metacheck, "local_step", spy)
    r = check_local_abstraction(coupled_xy, samples=20, seed=5)
    assert r.passed and r.instances == 20 * len(coupled_xy.instructions)
    assert off_pc == []


def replacing_transfer(ctx, instr, state, partition, havoc_values,
                       _transfer=metacheck._cartesian_transfer):
    """`{**state, instr.target: added}`: a transfer that replaces the
    target's set by the image of the instruction instead of joining the
    image into it."""
    added = _transfer(ctx, instr, {**state, instr.target: frozenset()}, partition,
                      havoc_values)[instr.target]
    return {**state, instr.target: added}


def test_local_abstraction_matches_the_dense_reference(coupled_xy, monkeypatch):
    """Stepping only the enabled instructions, with sparse abstractions,
    gives the instances and violations of stepping every instruction from
    every sampled state."""
    cases = [(p, None, None) for p in map(corpus.load, corpus.names())]
    cases += [(p, None, None) for _, p in random_race_free_programs(12, seed=5)]
    for name, text in (("coupled_xy", corpus.COUPLED_XY_REGIONS),
                       ("double_increment", corpus.DOUBLE_INCREMENT_REGIONS)):
        p = corpus.load(name)
        cases.append((p, parse_region_text(text, p.variables), None))
    cases += [(coupled_xy, None, broken_mix)]

    def compare(cases):
        failed = 0
        for p, regions, mix in cases:
            for seed in (0, 5):
                kwargs = dict(samples=25, seed=seed, regions=regions)
                with monkeypatch.context() as m:
                    if mix is not None:
                        m.setattr(metacheck, "_mix_envs", mix)
                    new = check_local_abstraction(p, **kwargs)
                    ref = local_abstraction_reference(p, **kwargs)
                assert (new.name, new.instances, new.violations) == (
                    ref.name, ref.instances, ref.violations), (p, regions, mix, seed)
                failed += not new.passed
        return failed

    assert compare(cases) == 2  # the broken mix, at both seeds
    # the check compares one image at a time, so it cannot see the lost
    # join (test_cartesian_transfer_joins_into_the_target pins that): both
    # forms pass under the replacing transfer
    monkeypatch.setattr(metacheck, "_cartesian_transfer", replacing_transfer)
    assert compare(cases) == 2


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

    def broken(*args, **kwargs):
        raise TypeError("broken race check")

    monkeypatch.setattr(concrete, "find_data_races", broken)
    with pytest.raises(TypeError, match="broken race check"):
        random_race_free_programs(2, seed=42)


def test_random_programs_pass_the_checks():
    for name, p in random_race_free_programs(4, seed=9):
        for r in check_correspondence(p, 10) + check_version_invariants(p, 8):
            assert r.passed, (name, r.summary())
