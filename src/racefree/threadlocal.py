"""Thread-local reference semantics with versioned environments.

Each thread runs on its own copy of the shared state and counts its writes
per variable.  Release stores the local versioned environment into a buffer
at the post-release point; acquire folds the relevant buffers back into the
local state, taking each variable from wherever its version is highest.
The region-parameterized variant bumps the version of every variable in the
written variable's region, which is what lets region-granular joins stay
sound downstream.

This module is a reference semantics and oracle, not the shipped analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .concrete import DEFAULT_BUDGET, DEFAULT_HAVOC, ExplorationLimitError, StdState
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
    havoc_slots,
    print_command,
)


class InadmissibleStateError(Exception):
    """Two components agree on a version but disagree on the value."""


@dataclass(frozen=True)
class VersionedEnv:
    values: tuple[int, ...]
    versions: tuple[int, ...]


@dataclass(frozen=True)
class ThreadLocalState:
    pc: tuple[int, ...]
    mu: tuple[Optional[int], ...]
    theta: tuple[VersionedEnv, ...]
    buffers: tuple[VersionedEnv, ...]  # aligned with LocalContext.buffer_points


@dataclass(frozen=True)
class LocalTransition:
    tid: int
    instr: Instruction
    choices: tuple[int, ...]
    pre: ThreadLocalState
    post: ThreadLocalState


@dataclass(frozen=True)
class LocalExecution:
    initial: ThreadLocalState
    steps: tuple[LocalTransition, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final(self) -> ThreadLocalState:
        return self.steps[-1].post if self.steps else self.initial


class LocalContext:
    """Index tables shared by all operations over one program.

    `sync_gamma` optionally prunes which release buffers an acquire may
    observe (mapping release point -> allowed pre-acquire points); by
    default every buffer of the lock is relevant to every acquire of it.
    """

    def __init__(
        self,
        program: Program,
        regions: Optional[RegionMap] = None,
        sync_gamma: Optional[dict[int, tuple[int, ...]]] = None,
    ):
        if not program.is_desugared:
            raise ValueError("program must be desugared")
        self.program = program
        self.var_index = {v: i for i, v in enumerate(program.variables)}
        self.lock_index = {m: i for i, m in enumerate(program.locks)}
        self.buffer_points = program.post_release_points()
        self.buffer_index = {loc: i for i, loc in enumerate(self.buffer_points)}
        self.buffers_of_lock = {
            m: tuple(self.buffer_index[loc] for loc in program.post_release_points(m))
            for m in program.locks
        }
        self.sync_gamma = sync_gamma
        self.tid_of_instr = {}
        for tid, t in enumerate(program.threads):
            for i in t.instructions:
                self.tid_of_instr[i] = tid
        # indices whose version is bumped when a variable is written
        self.bump_group: dict[int, tuple[int, ...]] = {}
        for v, vi in self.var_index.items():
            if regions is None:
                self.bump_group[vi] = (vi,)
            else:
                members = regions.region_vars(regions.region_of(v))
                self.bump_group[vi] = tuple(self.var_index[w] for w in members)

    def env_of(self, ve: VersionedEnv) -> dict[str, int]:
        return {v: ve.values[i] for v, i in self.var_index.items()}


def initial_local_state(p: Program, ctx: Optional[LocalContext] = None) -> ThreadLocalState:
    ctx = ctx or LocalContext(p)
    zero = VersionedEnv((0,) * len(p.variables), (0,) * len(p.variables))
    return ThreadLocalState(
        pc=tuple(t.entry for t in p.threads),
        mu=(None,) * len(p.locks),
        theta=(zero,) * len(p.threads),
        buffers=(zero,) * len(ctx.buffer_points),
    )


def take_newest(var_idx: int, envs: tuple[VersionedEnv, ...]) -> frozenset[tuple[int, int]]:
    """All (value, version) pairs carrying the highest version of the variable."""
    if not envs:
        raise ValueError("take over an empty set of versioned environments")
    top = max(ve.versions[var_idx] for ve in envs)
    return frozenset(
        (ve.values[var_idx], top) for ve in envs if ve.versions[var_idx] == top
    )


def update_env(ve: VersionedEnv, others: tuple[VersionedEnv, ...]) -> tuple[VersionedEnv, ...]:
    """All recombinations taking each variable at its highest version from
    {ve} u others; a single environment when the inputs are admissible."""
    pool = (ve,) + tuple(others)
    per_var = [sorted(take_newest(i, pool)) for i in range(len(ve.values))]
    out = []
    for combo in product(*per_var):
        out.append(VersionedEnv(tuple(v for v, _ in combo), tuple(n for _, n in combo)))
    return tuple(out)


def components(s: ThreadLocalState) -> tuple[VersionedEnv, ...]:
    return s.theta + s.buffers


def is_admissible(s: ThreadLocalState) -> bool:
    comps = components(s)
    n_vars = len(comps[0].values) if comps else 0
    for x in range(n_vars):
        seen: dict[int, int] = {}
        for ve in comps:
            ver, val = ve.versions[x], ve.values[x]
            if ver in seen and seen[ver] != val:
                return False
            seen[ver] = val
    return True


def local_step(
    p: Program,
    s: ThreadLocalState,
    instr: Instruction,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    ctx: Optional[LocalContext] = None,
    bump_versions: bool = True,
) -> tuple[tuple[tuple[int, ...], ThreadLocalState], ...]:
    """Successors of `s` under `instr`; empty when the guard is disabled.

    Region granularity comes from the LocalContext (a context built with a
    RegionMap bumps whole regions on writes).  `bump_versions=False` exists
    only for fault-injection self-tests of the check harness.
    """
    ctx = ctx or LocalContext(p)
    tid = ctx.tid_of_instr[instr]
    if s.pc[tid] != instr.source:
        return ()
    pc2 = tuple(instr.target if k == tid else loc for k, loc in enumerate(s.pc))
    c = instr.command
    mine = s.theta[tid]
    if isinstance(c, Assign):
        env = ctx.env_of(mine)
        vi = ctx.var_index[c.var]
        group = ctx.bump_group[vi] if bump_versions else ()
        out = []
        for choices in product(tuple(sorted(set(havoc_values))), repeat=havoc_slots(c.expr)):
            value = eval_expr(c.expr, env, choices)
            values = tuple(value if k == vi else v for k, v in enumerate(mine.values))
            versions = tuple(
                n + 1 if k in group else n for k, n in enumerate(mine.versions)
            )
            theta2 = tuple(
                VersionedEnv(values, versions) if k == tid else ve
                for k, ve in enumerate(s.theta)
            )
            out.append((choices, ThreadLocalState(pc2, s.mu, theta2, s.buffers)))
        return tuple(out)
    if isinstance(c, Assume):
        if eval_bool(c.cond, ctx.env_of(mine)):
            return (((), ThreadLocalState(pc2, s.mu, s.theta, s.buffers)),)
        return ()
    if isinstance(c, Acquire):
        mi = ctx.lock_index[c.lock]
        if s.mu[mi] is not None:
            return ()
        mu2 = tuple(tid if k == mi else h for k, h in enumerate(s.mu))
        buffer_ids = ctx.buffers_of_lock[c.lock]
        if ctx.sync_gamma is not None:
            buffer_ids = tuple(
                b for b in buffer_ids
                if instr.source in ctx.sync_gamma.get(ctx.buffer_points[b], ())
            )
        relevant = tuple(s.buffers[b] for b in buffer_ids)
        merged = update_env(mine, relevant)
        if len(merged) != 1:
            raise InadmissibleStateError(
                f"acquire of {c.lock!r} saw conflicting buffered values"
            )
        theta2 = tuple(merged[0] if k == tid else ve for k, ve in enumerate(s.theta))
        return (((), ThreadLocalState(pc2, mu2, theta2, s.buffers)),)
    if isinstance(c, Release):
        mi = ctx.lock_index[c.lock]
        if s.mu[mi] != tid:
            return ()
        mu2 = tuple(None if k == mi else h for k, h in enumerate(s.mu))
        bi = ctx.buffer_index[instr.target]
        buffers2 = tuple(mine if k == bi else ve for k, ve in enumerate(s.buffers))
        return (((), ThreadLocalState(pc2, mu2, s.theta, buffers2)),)
    raise TypeError(f"not a command: {c!r}")


def extract_state(p: Program, s: ThreadLocalState, ctx: Optional[LocalContext] = None) -> StdState:
    """Collapse to an interleaving-semantics state: per variable, the value at
    the highest version across the thread-local environments."""
    ctx = ctx or LocalContext(p)
    if not is_admissible(s):
        raise InadmissibleStateError("cannot extract from an inadmissible state")
    phi = []
    for x in range(len(p.variables)):
        pairs = take_newest(x, s.theta)
        phi.append(next(iter(pairs))[0])
    return StdState(pc=s.pc, mu=s.mu, phi=tuple(phi))


def enumerate_local_executions(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    ctx: Optional[LocalContext] = None,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[LocalExecution]:
    """Every thread-local execution of length <= depth, canonical order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    ctx = ctx or LocalContext(p)
    init = initial_local_state(p, ctx)
    produced = 0

    def successors(state: ThreadLocalState) -> Iterator[LocalTransition]:
        for tid, t in enumerate(p.threads):
            for instr in t.instructions:
                if instr.source != state.pc[tid]:
                    continue
                for choices, post in local_step(p, state, instr, havoc_values, ctx):
                    yield LocalTransition(tid, instr, choices, state, post)

    def walk(state: ThreadLocalState, steps: list[LocalTransition]) -> Iterator[LocalExecution]:
        nonlocal produced
        produced += 1
        if produced > budget:
            raise ExplorationLimitError(f"exploration budget {budget} exceeded")
        yield LocalExecution(init, tuple(steps))
        if len(steps) >= depth:
            return
        for tr in successors(state):
            steps.append(tr)
            yield from walk(tr.post, steps)
            steps.pop()

    yield from walk(init, [])


def format_versioned_env(p: Program, ve: VersionedEnv) -> str:
    parts = [f"{v}↦{ve.values[i]}^{ve.versions[i]}"
             for i, v in enumerate(p.variables)]
    return ", ".join(parts)


def format_local_execution(e: LocalExecution, p: Program) -> str:
    """Mirror of the interleaving trace dump, with version superscripts."""
    lines = []
    for tr in e.steps:
        name = p.threads[tr.tid].name
        cmd = print_command(tr.instr.command)
        if tr.choices:
            cmd += " {" + ",".join(map(str, tr.choices)) + "}"
        lines.append(f"{name} {tr.instr.source} -[{cmd}]-> {tr.instr.target}")
        lines.append(f"  {name}: {format_versioned_env(p, tr.post.theta[tr.tid])}")
    return "\n".join(lines)
