"""Bounded machine-checks of the semantic correspondence and its invariants.

Every check here explores executions exhaustively up to a depth, so a pass
is evidence at that depth, not a proof.  The checks:

- correspondence: the interleaving and thread-local semantics simulate each
  other step-for-step on race-free programs, related by the extraction map.
  One walk over (standard state, thread-local state) pairs checks both
  directions: a replay of either semantics in the other descends exactly
  the steps both take with agreeing extraction, so both replays visit the
  pairs this walk visits;
- version invariants: write counters are bounded by the number of prior
  writes, exact immediately after a write, maximal at every access, all
  reachable states are admissible, and owned projections agree between the
  two semantics;
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
from typing import Callable, Iterable, Optional

from .concrete import (
    DEFAULT_BUDGET,
    DEFAULT_HAVOC,
    ExplorationLimitError,
    dfs,
    find_data_races,
    initial_state,
    owned_vars_oracle,
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
    desugar,
    eval_bool,
    eval_expr,
    instr_accesses,
    parse_program,
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


def _require_race_free(p: Program, depth: int, havoc_values, budget) -> None:
    races = find_data_races(p, depth, havoc_values, budget)
    if races:
        r = races[0]
        raise PreconditionError(
            f"data race on {r.subject!r} within depth {depth}; "
            f"the correspondence checks assume race freedom"
        )


def _trace(path, *instrs) -> str:
    """Witness text: source->target of each step of `path`, then of `instrs`."""
    steps = [edge[1] for edge in path] + list(instrs)
    return " ".join(f"{i.source}->{i.target}" for i in steps) or "<initial>"


def _recording(step: Callable, result: CheckResult, path) -> Callable:
    """`step`, except that an InadmissibleStateError disables the
    instruction and is recorded in `result` as a violation after `path`."""

    def guarded(p, s, instr, havoc_values, ctx):
        try:
            return step(p, s, instr, havoc_values, ctx)
        except InadmissibleStateError as e:
            result.fail(_trace(path, instr), f"admissibility broken: {e}")
            return ()

    return guarded


# ---------------------------------------------------------------------------
# Correspondence (mutual step simulation through the extraction map)


def check_correspondence(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
    local_step_fn: Optional[Callable] = None,
    skip_precondition: bool = False,
) -> CheckResult:
    """Walk the bounded interleaving and thread-local executions together,
    demanding that both semantics enable the same steps, keyed by
    (instruction, havoc choices), and that the extraction map takes each
    thread-local post to the standard post.  Explores at most `budget`
    (standard state, thread-local state) pairs.

    One walk checks both directions of the simulation.  Replaying the
    standard steps in the thread-local semantics and replaying the
    thread-local steps in the standard semantics each descend exactly the
    edges that both semantics take with agreeing extraction, from the same
    root; so the two replays visit the same pairs, and the paired walk
    visits them once.  Each of its nodes is reached through an edge whose
    extraction matched, so a node's standard state is the extraction of its
    thread-local state and needs no extraction of its own."""
    if not skip_precondition:
        _require_race_free(p, depth, havoc_values, budget)
    step_local = local_step_fn or local_step
    ctx = LocalContext(p)
    result = CheckResult("correspondence")

    # a node is a (standard state, thread-local state) pair
    def expand(node, path):
        s, sigma = node
        local = {(instr, choices): sigma2 for _, instr, choices, sigma2 in
                 successors(ctx, sigma, _recording(step_local, result, path), havoc_values)}
        result.instances += len(local)
        for edge in successors(ctx, s, std_step, havoc_values):
            _, instr, choices, s2 = edge
            result.instances += 1
            sigma2 = local.pop((instr, choices), None)
            try:
                if sigma2 is None:
                    problem = "standard step has no thread-local counterpart"
                elif extract_state(p, sigma2) != s2:
                    problem = "extraction differs from the standard state"
                else:
                    problem = None
            except InadmissibleStateError as e:
                problem = f"admissibility broken: {e}"
            if problem:
                result.fail(_trace(path, instr), problem)
            else:
                yield edge, (s2, sigma2)
        for instr, _ in local:  # the steps left are thread-local only
            result.fail(_trace(path, instr),
                        "thread-local step disabled in the standard semantics")

    for _ in dfs((initial_state(p), initial_local_state(p, ctx)), depth, budget, expand):
        pass
    return result


# ---------------------------------------------------------------------------
# Version invariants


def check_version_invariants(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
    local_step_fn: Optional[Callable] = None,
    skip_precondition: bool = False,
) -> list[CheckResult]:
    """Walk every bounded thread-local execution (at most `budget` nodes)
    and assert the counter invariants; returns one result per sub-check."""
    if not skip_precondition:
        _require_race_free(p, depth, havoc_values, budget)
    # the oracle walks the tree the precondition walks, so it fits the budget
    owned = owned_vars_oracle(p, depth, havoc_values, budget)
    step_local = local_step_fn or local_step
    ctx = LocalContext(p)
    var_count = len(p.variables)

    version_bound = CheckResult("version_bound")
    write_exact = CheckResult("write_version_exact")
    max_at_access = CheckResult("max_version_at_access")
    admissible = CheckResult("admissibility")
    owned_projection = CheckResult("owned_projection")
    results = [version_bound, write_exact, max_at_access, admissible, owned_projection]

    def check_state(sigma: ThreadLocalState, writes: tuple[int, ...], path) -> None:
        version_bound.instances += 1
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
            for v in owned[t.name, sigma.pc[tid]]:
                x = ctx.var_index[v]
                top = max(ve.versions[x] for ve in components(sigma))
                mine = sigma.theta[tid]
                if mine.versions[x] != top:
                    owned_projection.fail(
                        _trace(path),
                        f"{t.name} owns {v} at {sigma.pc[tid]} but its version "
                        f"{mine.versions[x]} is not the maximum {top}",
                    )

    # a node is a thread-local state with the number of writes per variable
    # on the path to it
    def expand(node, path):
        sigma, writes = node
        for edge in successors(ctx, sigma, _recording(step_local, admissible, path),
                               havoc_values):
            tid, instr, _, sigma2 = edge
            reads, written = instr_accesses(instr)
            max_at_access.instances += 1
            for v in sorted(reads | written):
                x = ctx.var_index[v]
                top = max(ve.versions[x] for ve in components(sigma))
                if sigma.theta[tid].versions[x] != top:
                    max_at_access.fail(
                        _trace(path, instr),
                        f"access of {v} with version "
                        f"{sigma.theta[tid].versions[x]} < max {top}",
                    )
            cmd = instr.command
            writes2 = writes
            if isinstance(cmd, Assign):
                x = ctx.var_index[cmd.var]
                writes2 = writes[:x] + (writes[x] + 1,) + writes[x + 1:]
                write_exact.instances += 1
                got = sigma2.theta[tid].versions[x]
                if got != writes2[x]:
                    write_exact.fail(
                        _trace(path, instr),
                        f"post-write version of {cmd.var} is {got}, "
                        f"expected {writes2[x]}",
                    )
            yield edge, (sigma2, writes2)

    root = (initial_local_state(p, ctx), (0,) * var_count)
    for (sigma, writes), path in dfs(root, depth, budget, expand):
        check_state(sigma, writes, path)
    return results


# ---------------------------------------------------------------------------
# Local consistent-abstraction check


LocEnvs = dict[int, frozenset]


def _alpha(p: Program, ctx: LocalContext, states: Iterable[ThreadLocalState]) -> LocEnvs:
    """Gather, per location, the thread environments of threads standing
    there and the buffer contents at post-release points."""
    out: dict[int, set] = {loc: set() for t in p.threads for loc in t.locations}
    for sigma in states:
        for tid in range(len(p.threads)):
            out[sigma.pc[tid]].add(sigma.theta[tid].values)
        for bi, loc in enumerate(ctx.buffer_points):
            out[loc].add(sigma.buffers[bi].values)
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
    return {**state, instr.target: state[instr.target] | added}


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
    and mix are used; otherwise variable granularity."""
    ctx = LocalContext(p, regions=regions)
    if regions is None:
        partition = tuple((i,) for i in range(len(p.variables)))
    else:
        partition = regions.index_partition(p.variables)
    name = "local_abstraction" + ("_regions" if regions is not None else "")
    result = CheckResult(name)

    pool = reachable(ctx, initial_local_state(p, ctx), local_step, depth,
                     havoc_values, budget)

    rng = random.Random(seed)
    instructions = p.instructions
    for case in range(samples):
        k = rng.randint(1, min(6, len(pool)))
        X = rng.sample(pool, k)
        alpha_x = _alpha(p, ctx, X)
        for instr in instructions:
            post = []
            for sigma in X:
                for _, s2 in local_step(p, sigma, instr, havoc_values, ctx):
                    post.append(s2)
            result.instances += 1
            lhs = _alpha(p, ctx, post) if post else {}
            rhs = _cartesian_transfer(ctx, instr, alpha_x, partition,
                                      havoc_values, mix_fn=mix_fn)
            for loc, envs in lhs.items():
                if post and not envs <= rhs.get(loc, frozenset()):
                    missing = sorted(envs - rhs.get(loc, frozenset()))[:3]
                    result.fail(
                        f"case {case} instr {instr.source}->{instr.target}",
                        f"abstraction not dominated at {loc}: missing {missing}",
                    )
                    break
    return result


# ---------------------------------------------------------------------------
# Random race-free corpus


_TEMPLATE_EXPRS = (
    "{v} + 1",
    "{v} - 1",
    "{v} + {w}",
    "2 * {v}",
    "{w} - {v}",
    "havoc",
    "1",
)


def random_race_free_programs(
    count: int,
    seed: int,
    depth: int = 12,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
) -> list[tuple[str, Program]]:
    """Deterministically generate small 2-3 thread programs that are race
    free by construction (each variable is either private to one thread or
    only ever accessed inside critical sections of one lock), then double-
    check with the bounded race detector."""
    out = []
    attempt = 0
    while len(out) < count and attempt < count * 10:
        rng = random.Random(seed * 100_003 + attempt)
        attempt += 1
        n_threads = rng.choice((2, 2, 3))
        variables = ["a", "b", "c"][: rng.choice((2, 3))]
        discipline = {
            v: rng.choice(["private", "locked"]) for v in variables
        }
        if all(d == "private" for d in discipline.values()):
            discipline[variables[0]] = "locked"
        owner = {v: rng.randrange(n_threads) for v in variables}
        lines = ["var " + ", ".join(variables) + ";", "lock m;", ""]

        def expr_for(readable, rng):
            template = rng.choice(_TEMPLATE_EXPRS)
            v = rng.choice(readable) if readable else "1"
            w = rng.choice(readable) if readable else "1"
            return template.format(v=v, w=w)

        for tid in range(n_threads):
            body = []
            private = [v for v in variables
                       if discipline[v] == "private" and owner[v] == tid]
            locked = [v for v in variables if discipline[v] == "locked"]
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(["private", "locked", "locked"])
                if kind == "private" and private:
                    v = rng.choice(private)
                    body.append(f"  {v} := {expr_for(private, rng)};")
                elif locked:
                    stmts = [
                        f"  {rng.choice(locked)} := "
                        f"{expr_for(locked + private, rng)};"
                        for _ in range(rng.randint(1, 2))
                    ]
                    body.append("  acquire(m);")
                    body.extend(stmts)
                    body.append("  release(m);")
            if not body:
                body = ["  acquire(m);", "  release(m);"]
            lines.append(f"thread t{tid} {{")
            lines.extend(body)
            lines.append("}")
            lines.append("")
        source = "\n".join(lines)
        program = desugar(parse_program(source))
        if len(program.instructions) > 14:
            continue
        try:
            if find_data_races(program, depth, havoc_values, budget=200_000):
                continue
        except ExplorationLimitError:
            continue
        out.append((f"rand_{seed}_{attempt - 1}", program))
    return out
