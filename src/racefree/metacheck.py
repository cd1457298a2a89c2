"""Bounded machine-checks of the semantic correspondence and its invariants.

Every check here explores executions exhaustively up to a depth, so a pass
is evidence at that depth, not a proof.  The checks:

- correspondence: the interleaving and thread-local semantics simulate each
  other step-for-step on race-free programs, related by the extraction map;
- version invariants: write counters are bounded by the number of prior
  writes, exact immediately after a write, maximal at every access, all
  reachable states are admissible, and owned projections agree between the
  two semantics.
  One walk of the thread-local tree checks both: a node paired with a
  standard state checks that both semantics take the same steps, and
  every node checks the invariants.  A replay of either semantics in the
  other descends exactly the steps both take with agreeing extraction, so
  both replays visit the paired nodes of this walk;
- local abstraction: the per-instruction transfer of the location-indexed
  environment-set analysis dominates the thread-local collecting transfer
  through the abstraction that gathers thread environments per location
  (checked for both variable- and region-granular mixes).

Step functions are injectable so the test suite can verify that each check
catches a deliberately broken semantics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from operator import gt
from typing import Callable, Iterable, Optional

from .concrete import (
    DEFAULT_BUDGET,
    DEFAULT_HAVOC,
    dfs,
    find_data_races,
    initial_state,
    owned_probe,
    reachable,
    std_step,
    successors,
)
from .lang import (
    Acquire,
    Assign,
    Assume,
    Instruction,
    Program,
    RegionMap,
    Release,
    eval_bool,
    eval_expr,
    instr_accesses,
)
from .threadlocal import (
    InadmissibleStateError,
    LocalContext,
    ThreadLocalState,
    components,
    extract_state,
    initial_local_state,
    is_admissible,
    local_step,
)


class PreconditionError(Exception):
    """The program races within the bound; the thread-local correspondence
    only holds for race-free programs, so the check refuses to run."""


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def fail(self, witness: str, explanation: str, cap: int = 20) -> None:
        if len(self.violations) < cap:
            self.violations.append((witness, explanation))

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.name}: {self.instances} instances, {status}"


def race_free_owned(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[str, int], frozenset[str]]:
    """The race-freedom precondition of the correspondence and version
    checks, and the owned-set oracle the version invariants read, from one
    walk of the standard tree: raises PreconditionError when `p` races
    within `depth`, and returns `owned_vars_oracle(p, depth, ...)`.  The
    race search and the oracle walk the same tree under the same budget,
    so the shared walk trips where either would."""
    visit, owned = owned_probe(p)
    races = find_data_races(p, depth, havoc_values, budget, on_node=visit)
    if races:
        raise PreconditionError(
            f"data race on {races[0].subject!r} within depth {depth}; "
            f"the correspondence checks assume race freedom"
        )
    return owned()


def _trace(path, *instrs) -> str:
    """Witness text: source->target of each step of `path`, then of `instrs`."""
    steps = [edge[1] for edge in path] + list(instrs)
    return " ".join(f"{i.source}->{i.target}" for i in steps) or "<initial>"


def _recording(step: Callable, path, *results: CheckResult) -> Callable:
    """`step`, except that an InadmissibleStateError disables the
    instruction and is recorded in each of `results` as a violation after
    `path`."""

    def guarded(p, s, instr, havoc_values, ctx):
        try:
            return step(p, s, instr, havoc_values, ctx)
        except InadmissibleStateError as e:
            for result in results:
                result.fail(_trace(path, instr), f"admissibility broken: {e}")
            return ()

    return guarded


# ---------------------------------------------------------------------------
# Correspondence and version invariants: one walk of the thread-local tree


def check_correspondence(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
    local_step_fn: Optional[Callable] = None,
    owned: Optional[dict[tuple[str, int], frozenset[str]]] = None,
) -> list[CheckResult]:
    """Walk every bounded thread-local execution (at most `budget` nodes)
    once, checking the correspondence with the interleaving semantics and
    the counter invariants; returns one result per check: correspondence,
    version_bound, write_version_exact, max_version_at_access,
    admissibility, owned_projection.

    A node carries its standard partner, if it has one.  At such a node
    both semantics must enable the same steps, keyed by (instruction, havoc
    choices), and the extraction map must take each thread-local post to
    the standard post.  A child whose step agrees gets the standard post as
    its partner; any other child gets none, and its subtree is checked for
    the invariants only.  This one walk checks both directions of the
    simulation: replaying the standard steps in the thread-local semantics
    and replaying the thread-local steps in the standard semantics each
    descend exactly the edges that both take with agreeing extraction, from
    the same root, so both replays visit the partnered nodes.  A partner is
    the extraction of its node's thread-local state, so it needs no
    extraction of its own.

    `owned` is the owned-set oracle at the same depth and havoc values,
    given by `race_free_owned`, whose walk has checked the race-freedom
    precondition; without it this check makes that walk itself."""
    if owned is None:
        owned = race_free_owned(p, depth, havoc_values, budget)
    step_local = local_step_fn or local_step
    ctx = LocalContext(p)
    var_count = len(p.variables)
    var_index = ctx.var_index
    # per instruction, the (name, index) of each variable it accesses, sorted
    accessed = {id(i): tuple((v, var_index[v]) for v in sorted(set().union(*instr_accesses(i))))
                for i in p.instructions}

    correspondence = CheckResult("correspondence")
    version_bound = CheckResult("version_bound")
    write_exact = CheckResult("write_version_exact")
    max_at_access = CheckResult("max_version_at_access")
    admissible = CheckResult("admissibility")
    owned_projection = CheckResult("owned_projection")
    results = [correspondence, version_bound, write_exact, max_at_access, admissible,
               owned_projection]

    def newest(sigma: ThreadLocalState) -> tuple[int, ...]:
        """Per variable, the highest version among the components."""
        return tuple(map(max, zip(*[ve.versions for ve in components(sigma)])))

    # `top` is `newest(sigma)`, computed once per node for the checks of the
    # node and of the edges out of it
    def check_state(sigma: ThreadLocalState, writes: tuple[int, ...], top, path) -> None:
        version_bound.instances += 1
        if any(map(gt, top, writes)):
            for ve in components(sigma):
                for x in range(var_count):
                    if ve.versions[x] > writes[x]:
                        version_bound.fail(
                            _trace(path),
                            f"version of {p.variables[x]} is {ve.versions[x]} after "
                            f"{writes[x]} writes",
                        )
        admissible.instances += 1
        if not is_admissible(sigma):
            admissible.fail(_trace(path), "inadmissible reachable state")
        owned_projection.instances += 1
        for tid, t in enumerate(p.threads):
            mine = sigma.theta[tid].versions
            for v in owned[t.name, sigma.pc[tid]]:
                x = var_index[v]
                if mine[x] != top[x]:
                    owned_projection.fail(
                        _trace(path),
                        f"{t.name} owns {v} at {sigma.pc[tid]} but its version "
                        f"{mine[x]} is not the maximum {top[x]}",
                    )

    # a node is (standard partner or None, thread-local state, the number
    # of writes per variable on the path to it, its `newest` versions)
    def expand(node, path):
        s, sigma, writes, top = node
        if s is None:
            standard, recorders = {}, (admissible,)
        else:
            standard = {(instr, choices): s2 for _, instr, choices, s2 in
                        successors(ctx, s, std_step, havoc_values)}
            correspondence.instances += len(standard)
            recorders = (admissible, correspondence)
        for edge in successors(ctx, sigma, _recording(step_local, path, *recorders),
                               havoc_values):
            tid, instr, choices, sigma2 = edge
            mine = sigma.theta[tid].versions
            max_at_access.instances += 1
            for v, x in accessed[id(instr)]:
                if mine[x] != top[x]:
                    max_at_access.fail(
                        _trace(path, instr),
                        f"access of {v} with version {mine[x]} < max {top[x]}",
                    )
            cmd = instr.command
            writes2 = writes
            if isinstance(cmd, Assign):
                x = var_index[cmd.var]
                writes2 = writes[:x] + (writes[x] + 1,) + writes[x + 1:]
                write_exact.instances += 1
                got = sigma2.theta[tid].versions[x]
                if got != writes2[x]:
                    write_exact.fail(
                        _trace(path, instr),
                        f"post-write version of {cmd.var} is {got}, "
                        f"expected {writes2[x]}",
                    )
            s2 = None
            if s is not None:
                correspondence.instances += 1
                s2 = standard.pop((instr, choices), None)
                try:
                    if s2 is None:
                        problem = "thread-local step disabled in the standard semantics"
                    elif extract_state(p, sigma2) != s2:
                        problem = "extraction differs from the standard state"
                    else:
                        problem = None
                except InadmissibleStateError as e:
                    problem = f"admissibility broken: {e}"
                if problem:
                    correspondence.fail(_trace(path, instr), problem)
                    s2 = None
            yield edge, (s2, sigma2, writes2, newest(sigma2))
        for instr, _ in standard:  # the steps left are standard only
            correspondence.fail(_trace(path, instr),
                                "standard step has no thread-local counterpart")

    sigma0 = initial_local_state(p, ctx)
    root = (initial_state(p), sigma0, (0,) * var_count, newest(sigma0))
    for (_, sigma, writes, top), path in dfs(root, depth, budget, expand):
        check_state(sigma, writes, top, path)
    return results


def check_version_invariants(*args, **kwargs) -> list[CheckResult]:
    """The version-invariant results of `check_correspondence`.  The CLI
    never calls it; it stays because perfbench's tracer looks it up by name
    and reads a missing name as an absent metric."""
    return check_correspondence(*args, **kwargs)[1:]


# ---------------------------------------------------------------------------
# Local consistent-abstraction check


LocEnvs = dict[int, frozenset]


def _alpha(ctx: LocalContext, states: Iterable[ThreadLocalState]) -> LocEnvs:
    """Gather, per location, the thread environments of threads standing
    there and the buffer contents at post-release points.  A location
    where nothing stands is absent: its set is empty."""
    out: dict[int, set] = {}
    points = ctx.buffer_points
    for sigma in states:
        for loc, ve in zip(sigma.pc, sigma.theta):
            out.setdefault(loc, set()).add(ve.values)
        for loc, ve in zip(points, sigma.buffers):
            out.setdefault(loc, set()).add(ve.values)
    return {loc: frozenset(envs) for loc, envs in out.items()}


def _mix_envs(envs: frozenset, partition) -> frozenset:
    """The cartesian mix.  It and `_cartesian_transfer` repeat what
    `EnvSetDomain` computes on purpose: the harness must not reuse the code
    it checks."""
    if not envs:
        return frozenset()
    projections = []
    for region in partition:
        projections.append(sorted({tuple(env[i] for i in region) for env in envs}))
    out = set()
    n = max(max(r) for r in partition) + 1
    for combo in product(*projections):
        env = [0] * n
        for region, values in zip(partition, combo):
            for i, v in zip(region, values):
                env[i] = v
        out.add(tuple(env))
    return frozenset(out)


def _cartesian_transfer(
    ctx: LocalContext,
    instr: Instruction,
    state: LocEnvs,
    partition,
    havoc_values,
    mix_fn=None,
) -> LocEnvs:
    """One application of the location-indexed environment-set transfer:
    only the target's set grows."""
    mix = mix_fn or _mix_envs
    c = instr.command
    src = state.get(instr.source, frozenset())
    var_index = ctx.var_index
    added = set()
    if isinstance(c, Assign):
        vi = var_index[c.var]
        for env in src:
            env_map = {v: env[i] for v, i in var_index.items()}
            for choices in product(tuple(sorted(set(havoc_values))),
                                   repeat=len(c.expr.linear.havocs)):
                value = eval_expr(c.expr, env_map, choices)
                added.add(tuple(value if k == vi else x for k, x in enumerate(env)))
    elif isinstance(c, Assume):
        for env in src:
            env_map = {v: env[i] for v, i in var_index.items()}
            if eval_bool(c.cond, env_map):
                added.add(env)
    elif isinstance(c, Release):
        added = src
    elif isinstance(c, Acquire):
        pool = set(src)
        for loc in ctx.program.release_points[c.lock]:
            pool |= state.get(loc, frozenset())
        added = mix(frozenset(pool), partition)
    return {**state, instr.target: state.get(instr.target, frozenset()) | added}


def check_local_abstraction(
    p: Program,
    samples: int,
    seed: int,
    depth: int = 8,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    regions: Optional[RegionMap] = None,
    budget: int = DEFAULT_BUDGET,
    mix_fn=None,
) -> CheckResult:
    """For sampled sets X of reachable thread-local states and every
    instruction: abstracting the post-set is below the abstract transfer of
    the abstracted pre-set.  With a RegionMap the region-granular semantics
    and mix are used; otherwise variable granularity.

    Only the instructions enabled in some state of X are stepped and
    compared: an instruction steps only from its thread's pc, and one with
    an empty post-set has nothing to dominate.  Every (sample,
    instruction) pair still counts as an instance."""
    ctx = LocalContext(p, regions=regions)
    if regions is None:
        partition = tuple((i,) for i in range(len(p.variables)))
    else:
        partition = regions.index_partition(p.variables)
    name = "local_abstraction" + ("_regions" if regions is not None else "")
    result = CheckResult(name)
    # a failure names the first undominated location in this order
    rank = {loc: n for n, loc in enumerate(loc for t in p.threads for loc in t.locations)}

    pool = reachable(ctx, initial_local_state(p, ctx), local_step, depth,
                     havoc_values, budget)

    rng = random.Random(seed)
    instructions = p.instructions
    for case in range(samples):
        k = rng.randint(1, min(6, len(pool)))
        X = rng.sample(pool, k)
        result.instances += len(instructions)
        alpha_x = _alpha(ctx, X)
        # the states of X by the locations their threads stand at: an
        # instruction steps only from its thread's pc
        standing: dict[int, list[ThreadLocalState]] = {}
        for sigma in X:
            for loc in sigma.pc:
                standing.setdefault(loc, []).append(sigma)
        for instr in instructions:
            post = [s2 for sigma in standing.get(instr.source, ())
                    for _, s2 in local_step(p, sigma, instr, havoc_values, ctx)]
            if not post:
                continue
            rhs = _cartesian_transfer(ctx, instr, alpha_x, partition,
                                      havoc_values, mix_fn=mix_fn)
            lhs = _alpha(ctx, post)
            bad = [loc for loc, envs in lhs.items() if not envs <= rhs.get(loc, frozenset())]
            if bad:
                loc = min(bad, key=rank.__getitem__)
                missing = sorted(lhs[loc] - rhs.get(loc, frozenset()))[:3]
                result.fail(
                    f"case {case} instr {instr.source}->{instr.target}",
                    f"abstraction not dominated at {loc}: missing {missing}",
                )
    return result

