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
from operator import add
from typing import Optional

from .concrete import DEFAULT_HAVOC, ProgramIndex, StdState
from .lang import Acquire, Assign, Assume, Instruction, Program, RegionMap


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


class LocalContext(ProgramIndex):
    """The program's index tables, whose step table `steps` serves both
    semantics, plus the release buffers and version bumps of this one.
    Every buffer of a lock is relevant to every acquire of it.
    """

    def __init__(self, program: Program, regions: Optional[RegionMap] = None):
        super().__init__(program)
        self.buffer_points = tuple(sorted(
            loc for locs in program.release_points.values() for loc in locs))
        self.buffer_index = {loc: i for i, loc in enumerate(self.buffer_points)}
        self.buffers_of_lock = {
            m: tuple(self.buffer_index[loc] for loc in locs)
            for m, locs in program.release_points.items()
        }
        # per written variable index, the version increments of a write:
        # 1 at each index whose version it bumps, 0 elsewhere
        self.bump: dict[int, tuple[int, ...]] = {}
        for v, vi in self.var_index.items():
            group = {vi} if regions is None else {
                self.var_index[w] for w in regions.region_vars(regions.region_of(v))}
            self.bump[vi] = tuple(int(k in group) for k in range(len(self.var_index)))


def initial_local_state(p: Program, ctx: Optional[LocalContext] = None) -> ThreadLocalState:
    ctx = ctx or LocalContext(p)
    zero = VersionedEnv((0,) * len(p.variables), (0,) * len(p.variables))
    return ThreadLocalState(
        pc=tuple(t.entry for t in p.threads),
        mu=(None,) * len(p.locks),
        theta=(zero,) * len(p.threads),
        buffers=(zero,) * len(ctx.buffer_points),
    )


def merge_newest(pool: tuple[VersionedEnv, ...]) -> Optional[VersionedEnv]:
    """Per variable, the (version, value) pair with the highest version in
    `pool`; None when two entries carry that version with different values,
    so that no one environment is the newest."""
    columns = [max(column) for column in zip(*[zip(ve.versions, ve.values) for ve in pool])]
    for ve in pool:
        for version, value, (top, newest) in zip(ve.versions, ve.values, columns):
            if version == top and value != newest:
                return None
    return VersionedEnv(tuple(value for _, value in columns),
                        tuple(version for version, _ in columns))


def components(s: ThreadLocalState) -> tuple[VersionedEnv, ...]:
    return s.theta + s.buffers


def is_admissible(s: ThreadLocalState) -> bool:
    """No two components agree on a variable's version but not its value.
    One pass over the distinct components collects each (variable,
    version) with its values; a conflict leaves more pairs than keys."""
    envs = {(ve.versions, ve.values) for ve in components(s)}
    if len(envs) == 1:
        return True
    pairs: set[tuple[tuple[int, int], int]] = set()
    for versions, values in envs:
        pairs.update(zip(enumerate(versions), values))
    return len(pairs) == len({key for key, _ in pairs})


def local_step(
    p: Program,
    s: ThreadLocalState,
    instr: Instruction,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    ctx: Optional[LocalContext] = None,
) -> tuple[tuple[tuple[int, ...], ThreadLocalState], ...]:
    """Successors of `s` under `instr`; empty when the guard is disabled.

    Region granularity comes from the LocalContext (a context built with a
    RegionMap bumps whole regions on writes).
    """
    ctx = ctx or LocalContext(p)
    tid, source, target, kind, slot, slots, fn, _ = (
        ctx.steps.get(id(instr)) or ctx.compile(instr))
    pc, mu, theta, buffers = s.pc, s.mu, s.theta, s.buffers
    if pc[tid] != source:
        return ()
    pc2 = pc[:tid] + (target,) + pc[tid + 1:]
    mine = theta[tid]
    if kind is Assign:
        values = mine.values
        versions = tuple(map(add, mine.versions, ctx.bump[slot]))
        head, tail = values[:slot], values[slot + 1:]
        before, after = theta[:tid], theta[tid + 1:]
        return tuple(
            (choices, ThreadLocalState(
                pc2, mu,
                before + (VersionedEnv(head + (fn(values, choices),) + tail, versions),) + after,
                buffers))
            for choices in ctx.havoc_choices(slots, havoc_values))
    if kind is Assume:
        return (((), ThreadLocalState(pc2, mu, theta, buffers)),) if fn(mine.values) else ()
    if kind is Acquire:
        if mu[slot] is not None:
            return ()
        lock = instr.command.lock
        merged = merge_newest((mine, *(buffers[b] for b in ctx.buffers_of_lock[lock])))
        if merged is None:
            raise InadmissibleStateError(
                f"acquire of {lock!r} saw conflicting buffered values")
        theta2 = theta[:tid] + (merged,) + theta[tid + 1:]
        return (((), ThreadLocalState(pc2, mu[:slot] + (tid,) + mu[slot + 1:], theta2, buffers)),)
    if mu[slot] != tid:
        return ()
    bi = ctx.buffer_index[target]
    buffers2 = buffers[:bi] + (mine,) + buffers[bi + 1:]
    return (((), ThreadLocalState(pc2, mu[:slot] + (None,) + mu[slot + 1:], theta, buffers2)),)


def extract_state(p: Program, s: ThreadLocalState) -> StdState:
    """Collapse to an interleaving-semantics state: per variable, the value at
    the highest version across the thread-local environments.  In an
    admissible state the pairs at the top version carry one value, so the
    largest (version, value) pair of each variable has it."""
    if not is_admissible(s):
        raise InadmissibleStateError("cannot extract from an inadmissible state")
    columns = zip(*[zip(ve.versions, ve.values) for ve in s.theta])
    return StdState(pc=s.pc, mu=s.mu, phi=tuple(max(column)[1] for column in columns))

