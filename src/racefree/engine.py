"""Worklist fixpoint over the sync-CFG, and exact collecting fixpoints.

The analyses differ only in the domain and the granularity of the mix
applied at lock acquires: value-set analysis uses intervals with a plain
join, the relational analysis uses octagons with a variable-granular mix
(all correlations forgotten across threads), and its region variant keeps
correlations inside each declared region.  The recency refinement is one
more domain, a per-thread wrapper (`RecencyDomain`).  One worklist loop
(`_solve`) serves both the widening analyses and the exact collecting
fixpoint over environment sets.  Each run builds the program's full
sync-CFG itself (`build_syncfg`): every release of a lock feeds every
acquire of it.

The loop follows the thread-local semantics: a race-free program's threads
interact only through sync edges, so `_solve` solves one thread at a time,
sequentially in the thread's reverse postorder, with the other threads'
release facts held fixed, and passes facts across sync edges between these
thread rounds.  Within a round every cycle passes through a back-edge
target of the thread's DFS, which widens after `WIDEN_DELAY` changes in the
round; across rounds every cycle passes through an acquire target, which
counts at most one change per round and widens after `WIDEN_DELAY` such
rounds.  The order decides only which post-fixpoint the widening analyses
reach, never soundness: `check_postfixpoint` checks every result.

A frame stores each instruction's last transfer with its inputs (the
source fact, then for an acquire the facts at the release points feeding
it) and returns the stored result while every input is the same object.
Elements are immutable (and `EnvSetDomain.clamped` only ever turns on), so
the stored result is what recomputing would give, and narrowing's first
round and the post-fixpoint check make no domain call for inputs the solver
left unchanged.
`check_postfixpoint(..., frame=None)` builds a fresh frame instead and
recomputes every transfer: that is the independent form of the check.

Facts are sound only on the variables a thread owns at a location; the
engine itself just computes a post-fixpoint of the transfer system and
leaves the owned-set gate to the assertion checker.
"""

from __future__ import annotations

import operator
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass, replace
from typing import Optional

from .absdom import (
    EnvSetDomain,
    IntervalDomain,
    OctagonDomain,
    RecencyDomain,
    is_bottom,
    singleton_partition,
)
from .concrete import ProgramIndex
from .lang import Acquire, Assign, Assume, Instruction, Program, Release
from .syncfg import build_syncfg

ANALYSES = ("valset", "rel", "regrel")
DOMAINS = ("interval", "octagon", "envset")
WIDEN_DELAY = 2  # changes of a widening point's fact before widening starts (see `_solve`)


class AnalysisLimitError(Exception):
    """The worklist iteration cap was exceeded; says how far it got: the
    visits made, and the rounds in which the location's fact changed."""

    def __init__(self, location: int, cap: int, visits: int, updates: int):
        super().__init__(f"iteration cap {cap} exceeded after {visits} visits, "
                         f"at location {location} (update count {updates})")
        self.location = location
        self.visits = visits
        self.updates = updates


class PostFixpointError(AssertionError):
    pass


@dataclass
class AnalysisConfig:
    analysis: str = "rel"
    domain: str = "octagon"
    recency: bool = False
    iteration_cap: int = 10_000
    havoc_values: tuple[int, ...] = (0, 1, 2)
    value_box: tuple[int, int] = (-4, 4)

    def validate(self) -> None:
        if self.analysis not in ANALYSES:
            raise ValueError(f"unknown analysis {self.analysis!r}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.analysis == "valset" and self.domain == "octagon":
            raise ValueError("the value-set analysis pairs with the interval domain")


LocationFacts = dict[int, object]  # a domain element, or a RecencyFact under recency


def make_domain(cfg: AnalysisConfig, variables: tuple[str, ...]):
    if cfg.domain == "interval":
        return IntervalDomain(variables)
    if cfg.domain == "octagon":
        return OctagonDomain(variables)
    return EnvSetDomain(variables, value_box=cfg.value_box, havoc_values=cfg.havoc_values)


def mix_partition(cfg: AnalysisConfig, p: Program) -> tuple[tuple[int, ...], ...]:
    if cfg.analysis == "regrel":
        return p.regions.index_partition(p.variables)
    return singleton_partition(len(p.variables))


class _Frame:
    """One analysis run: each thread's domain, its iteration order, and
    fact bookkeeping."""

    def __init__(self, p: Program, cfg: AnalysisConfig):
        cfg.validate()
        self.p = p
        self.g = g = build_syncfg(p)
        self.cfg = cfg
        self.domain = make_domain(cfg, p.variables)
        self.partition = mix_partition(cfg, p)
        self.value_set = cfg.analysis == "valset" and cfg.domain == "envset"
        # the thread owning each location, and that thread's domain
        self.thread_of: dict[int, int] = {}
        self.domain_at = {}
        for tid, t in enumerate(p.threads):
            dom = RecencyDomain(self.domain, tid) if cfg.recency else self.domain
            for loc in t.locations:
                self.thread_of[loc] = tid
                self.domain_at[loc] = dom
        self.by_source = ProgramIndex(p).by_source
        # acquire sources to re-enqueue when a release-point fact changes
        self.dependents: dict[int, tuple[int, ...]] = {
            rel: g.acquire_points[m] for m, rels in g.release_points.items() for rel in rels}
        self.rank, self.order, self.heads = self._thread_orders()
        # widening points: back-edge targets, and acquire targets (every
        # cycle through a sync edge closes at an acquire target)
        self.widen_points = self.heads | {
            i.target for i in p.instructions if isinstance(i.command, Acquire)}
        # id(instruction) -> (inputs, result) of its last transfer
        self._last: dict[int, tuple[tuple, object]] = {}

    def transfer(self, instr: Instruction, fact, facts: LocationFacts):
        """Abstract effect of one instruction on the fact at its source;
        the stored result while its inputs are the same objects."""
        c = instr.command
        if isinstance(c, Acquire):
            feeding = self.g.release_points_feeding(c.lock)
            inputs = (fact, *(facts[rel] for rel in feeding))
        else:
            inputs = (fact,)
        last = self._last.get(id(instr))
        if last is not None and all(map(operator.is_, last[0], inputs)):
            return last[1]
        out = self._apply(instr, inputs)
        self._last[id(instr)] = (inputs, out)
        return out

    def _apply(self, instr: Instruction, inputs: tuple):
        c = instr.command
        dom = self.domain_at[instr.source]
        fact = inputs[0]
        if isinstance(c, Acquire):
            out = dom.mix(inputs, self.partition)
        elif is_bottom(fact):
            return dom.bottom()
        elif isinstance(c, Assign):
            out = dom.assign(fact, c.var, c.expr)
        elif isinstance(c, Assume):
            out = dom.assume(fact, c.cond)
        elif isinstance(c, Release):
            return fact
        else:
            raise TypeError(f"not a command: {c!r}")
        if self.value_set and not is_bottom(out):
            # value sets keep the product of per-variable values: the mix of
            # the fact alone over the valset's singleton partition
            return dom.mix((out,), self.partition)
        return out

    def initial_facts(self) -> LocationFacts:
        facts = {loc: dom.bottom() for loc, dom in self.domain_at.items()}
        for t in self.p.threads:
            facts[t.entry] = self.domain_at[t.entry].initial()
        return facts

    def _thread_orders(self) -> tuple[dict[int, int], list[int], frozenset[int]]:
        """One DFS per thread from its entry: each location's rank in the
        thread's reverse postorder (threads one after another; locations the
        DFS never reaches come last), the locations by rank, and the
        back-edge targets.  Every cycle of a thread's CFG has a DFS back edge,
        so it passes through a back-edge target."""
        order: list[int] = []
        heads: set[int] = set()
        for t in self.p.threads:
            succs: dict[int, list[int]] = {}
            for i in t.instructions:
                succs.setdefault(i.source, []).append(i.target)
            # iterative DFS (a recursive one overflows on long threads);
            # color 1 = on the stack, 2 = finished
            color: dict[int, int] = {t.entry: 1}
            stack = [(t.entry, iter(succs.get(t.entry, ())))]
            postorder: list[int] = []
            while stack:
                n, pending = stack[-1]
                for s in pending:
                    if color.get(s, 0) == 1:
                        heads.add(s)
                    elif color.get(s, 0) == 0:
                        color[s] = 1
                        stack.append((s, iter(succs.get(s, ()))))
                        break
                else:
                    color[n] = 2
                    postorder.append(n)
                    stack.pop()
            order += reversed(postorder)
            order += sorted(t.locations - color.keys())
        rank = {loc: r for r, loc in enumerate(order)}
        return rank, order, frozenset(heads)


def _solve(frame: _Frame) -> LocationFacts:
    """The worklist iteration, from the initial facts to a post-fixpoint.

    It runs in thread rounds, the thread-modular order of interference
    analyses.  An outer FIFO of threads picks the next thread, and that
    thread is solved to local stability, with every other thread's facts
    held fixed, by a worklist that pops the location of least rank in the
    thread's reverse postorder (`_Frame._thread_orders`).  A changed release
    point re-queues the acquire sources of other threads at once (their
    thread joins the outer FIFO), and its own thread's acquire sources only
    for that thread's next round.

    Widening (not over environment sets) applies at back-edge targets and
    acquire targets, once a count reaches `WIDEN_DELAY`: at a back-edge
    target the changes of its fact in the current round, at an acquire
    target the rounds in which its fact changed (its update count).  So a
    loop that a round re-enters with facts imported from other threads
    gets `WIDEN_DELAY` fresh steps before they are widened away, and an
    acquire target inside a loop is not widened by the loop's own
    iterations.

    Termination: within a round only the thread's own CFG edges re-queue
    work, and every cycle of a thread's CFG passes through a back-edge
    target, whose facts form a widening sequence after `WIDEN_DELAY`
    changes in the round; so every round ends.  Every sync edge leads to an
    acquire target, whose facts form a widening sequence after
    `WIDEN_DELAY` rounds that changed them, so they change finitely often
    (the desugarer puts a step between an acquire and a loop head, so no
    location is both).  After each thread's first round, a round starts
    only from queued acquire sources, and once no acquire target changes,
    such a round changes nothing and queues nothing more.
    Environment sets are finite in the value box, so there joins alone
    terminate, at the least fixpoint, whatever the order.  Soundness does
    not depend on the order either: `check_postfixpoint` checks every
    result."""
    cfg = frame.cfg
    use_widening = cfg.domain != "envset"
    facts = frame.initial_facts()
    rank, order, owner, heads = frame.rank, frame.order, frame.thread_of, frame.heads
    pending = [[rank[t.entry]] for t in frame.p.threads]  # one rank heap per thread
    queued = {t.entry for t in frame.p.threads}
    deferred: list[set[int]] = [set() for _ in frame.p.threads]  # for the next round
    rounds = deque(range(len(frame.p.threads)))
    update_count: dict[int, int] = {}  # rounds in which a location's fact changed
    visits = 0

    while rounds:
        tid = rounds.popleft()
        heap = pending[tid]
        for loc in deferred[tid]:
            if loc not in queued:
                heappush(heap, rank[loc])
                queued.add(loc)
        deferred[tid] = set()
        changes: dict[int, int] = {}  # changes of a location's fact this round
        while heap:
            loc = order[heappop(heap)]
            queued.discard(loc)
            visits += 1
            if visits > cfg.iteration_cap:
                raise AnalysisLimitError(loc, cfg.iteration_cap, visits,
                                         update_count.get(loc, 0))
            for instr in frame.by_source.get(loc, ()):
                new = frame.transfer(instr, facts[loc], facts)
                if is_bottom(new):
                    continue
                tgt = instr.target
                dom = frame.domain_at[tgt]
                cur = facts[tgt]
                joined = dom.join(cur, new)
                if use_widening and tgt in frame.widen_points:
                    count = changes.get(tgt, 0) if tgt in heads else update_count.get(tgt, 0)
                    if count >= WIDEN_DELAY:
                        joined = dom.widen(cur, joined)
                if dom.equal(joined, cur):
                    continue
                facts[tgt] = joined
                changes[tgt] = changes.get(tgt, 0) + 1
                if changes[tgt] == 1:
                    update_count[tgt] = update_count.get(tgt, 0) + 1
                if tgt not in queued:
                    heappush(heap, rank[tgt])
                    queued.add(tgt)
                for acq_src in frame.dependents.get(tgt, ()):
                    other = owner[acq_src]
                    if other == tid:
                        deferred[tid].add(acq_src)
                    elif acq_src not in queued:
                        heappush(pending[other], rank[acq_src])
                        queued.add(acq_src)
                        if other not in rounds:
                            rounds.append(other)
        if deferred[tid]:
            rounds.append(tid)
    return facts


def analyze_fixpoint(p: Program, cfg: AnalysisConfig) -> LocationFacts:
    """Deterministic worklist fixpoint; returns a verified post-fixpoint."""
    frame = _Frame(p, cfg)
    facts = _solve(frame)
    if cfg.domain != "envset":
        facts = _narrow(frame, facts)
    check_postfixpoint(p, cfg, facts, frame=frame)
    return facts


_NARROW_CAP = 8


def _narrow(frame: _Frame, facts: LocationFacts) -> LocationFacts:
    """Descending Jacobi rounds without widening, to stabilization (capped).

    Applying the global transfer to a post-fixpoint descends and stays a
    post-fixpoint, so every round is sound; a single round would leave
    join-accumulation artifacts at nodes downstream of widening points.
    """
    at = frame.domain_at
    for _ in range(_NARROW_CAP):
        out = frame.initial_facts()
        for loc in sorted(facts):
            for instr in frame.by_source.get(loc, ()):
                new = frame.transfer(instr, facts[loc], facts)
                out[instr.target] = at[loc].join(out[instr.target], new)
        # never go above the old facts (defensive; holds by construction)
        if any(not at[loc].leq(out[loc], facts[loc]) for loc in out):
            return facts
        if all(at[loc].equal(out[loc], facts[loc]) for loc in out):
            return facts
        facts = out
    return facts


def check_postfixpoint(
    p: Program,
    cfg: AnalysisConfig,
    facts: LocationFacts,
    frame: Optional[_Frame] = None,
) -> None:
    """Assert the per-instruction transfer inequality exhaustively.

    `frame` reuses the transfers that frame stored for unchanged inputs;
    without one, every transfer is recomputed on a fresh frame."""
    frame = frame or _Frame(p, cfg)
    for instr in p.instructions:
        new = frame.transfer(instr, facts[instr.source], facts)
        if not frame.domain_at[instr.target].leq(new, facts[instr.target]):
            raise PostFixpointError(
                f"transfer of {instr.source}->{instr.target} exceeds the stored fact"
            )


@dataclass
class CollectingResult:
    facts: LocationFacts
    clamped: bool
    value_box: tuple[int, int]


def collecting_fixpoint(
    p: Program,
    cfg: AnalysisConfig,
    value_box: tuple[int, int],
) -> CollectingResult:
    """Exact least fixpoint of the set-based transfer system over a finite
    value box (environments escaping the box are dropped and reported)."""
    run = replace(cfg, domain="envset", value_box=value_box)
    frame = _Frame(p, run)
    facts = _solve(frame)
    check_postfixpoint(p, run, facts, frame=frame)
    return CollectingResult(facts=facts, clamped=frame.domain.clamped, value_box=value_box)
