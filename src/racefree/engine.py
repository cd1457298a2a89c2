"""Worklist fixpoint over the sync-CFG, and exact collecting fixpoints.

The analyses differ only in the domain and the granularity of the mix
applied at lock acquires: value-set analysis uses intervals with a plain
join, the relational analysis uses octagons with a variable-granular mix
(all correlations forgotten across threads), and its region variant keeps
correlations inside each declared region.  The recency refinement is one
more domain, a per-thread wrapper (`RecencyDomain`).  One worklist loop
(`_solve`) serves every domain the same way, the exact collecting fixpoint
over environment sets included.  Each run builds the program's full
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
rounds, and then the loop descends from there without widening.
The order decides only which post-fixpoint they reach, never soundness:
`check_postfixpoint` checks every result.

Like a sequential solver, the loop joins only where paths merge (`_solve`
has the details).  A chain location (`_Frame.chain`: one in-edge, no thread
entry) takes its in-edge's transfer, or at a widening point the old fact
widened by it; merge points and thread entries join.  The descent starts
from the sources of the in-edges of widening points only.
- Exactness: every `widen` joins first, so `widen(cur, new)` equals
  `widen(cur, join(cur, new))`.  Where transfers are monotone and the
  ascent's facts grow, a transfer into a chain location lies above the fact
  it replaces, and a merge point that does not widen holds the join of its
  in-edges' transfers, so the facts are those of joining and descending at
  every location.  Environment sets widen by their join, so there the
  ascent ends at the least fixpoint and the descent lowers nothing.
- Soundness holds everywhere, monotone or not (octagon saturation near the
  limit is not, and a merge point may keep a stale join there):
  `check_postfixpoint` checks each result.
- Termination: every cycle of the sync-CFG passes through a widening point.

A frame stores each instruction's last transfer with its inputs (the
source fact, then for an acquire the facts at the release points feeding
it) and returns the stored result while every input is the same object.
Elements are immutable (and `EnvSetDomain.clamped` only ever turns on), so
the stored result is what recomputing would give: the descent recomputes
only the transfers whose inputs changed, and the post-fixpoint check after
`_solve` recomputes only the transfers out of locations the solver never
popped, whose facts stayed bottom.  Checked on a fresh frame, the same
facts have every transfer recomputed: that is the independent form of the
check.

Facts are sound only on the variables a thread owns at a location; the
engine itself just computes a post-fixpoint of the transfer system and
leaves the owned-set gate to the assertion checker.
"""

from __future__ import annotations

import operator
from collections import deque
from heapq import heappop, heappush
from typing import NamedTuple, Optional

from .absdom import (
    DEFAULT_VALUE_BOX,
    EnvSetDomain,
    IntervalDomain,
    OctagonDomain,
    RecencyDomain,
    is_bottom,
    singleton_partition,
)
from .lang import DEFAULT_HAVOC, Acquire, Assign, Assume, Instruction, Program, Release
from .syncfg import build_syncfg

ANALYSES = ("valset", "rel", "regrel")
DOMAINS = ("interval", "octagon", "envset")
WIDEN_DELAY = 2  # changes of a widening point's fact before widening starts (see `_solve`)
_NARROW_CAP = 8  # changes of a location's fact in the descent (see `_solve`)
ITERATION_CAP = 10_000  # worklist visits of one fixpoint, read by `_solve` at call time


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


class AnalysisConfig(NamedTuple):
    analysis: str = "rel"
    domain: str = "octagon"
    recency: bool = False
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC
    value_box: tuple[int, int] = DEFAULT_VALUE_BOX

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
        self.thread_of = p.thread_of
        doms = [RecencyDomain(self.domain, tid) if cfg.recency else self.domain
                for tid in range(len(p.threads))]
        self.domain_at = {loc: doms[tid] for loc, tid in self.thread_of.items()}
        self.by_source, self.by_target = p.by_source, p.by_target
        # acquire sources to re-enqueue when a release-point fact changes
        self.dependents: dict[int, tuple[int, ...]] = {
            rel: g.acquire_points[m] for m, rels in g.release_points.items() for rel in rels}
        self.rank, self.order, self.heads = self._thread_orders()
        # widening points: back-edge targets, and acquire targets (every
        # cycle through a sync edge closes at an acquire target)
        self.widen_points = self.heads | {
            i.target for i in p.instructions if isinstance(i.command, Acquire)}
        # chain locations: one in-edge and not a thread entry, so their fact
        # is that edge's transfer and `_solve` stores it without a join
        entries = {t.entry for t in p.threads}
        self.chain = frozenset(loc for loc, edges in self.by_target.items()
                               if len(edges) == 1 and loc not in entries)
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

    Widening applies at back-edge targets and acquire targets, once a count
    reaches `WIDEN_DELAY`: at a back-edge target the changes of its fact in
    the current round, at an acquire target the rounds in which its fact
    changed (its update count).  So a loop that a round re-enters with facts
    imported from other threads gets `WIDEN_DELAY` fresh steps before they
    are widened away, and an acquire target inside a loop is not widened by
    the loop's own iterations.

    A location with two or more in-edges, or a thread entry, gets its old
    fact joined with the transfer (a merge point); a chain location gets the
    transfer itself, and a chain widening point the old fact widened by it.

    After the ascent the loop descends without widening from the sources of
    the in-edges of widening points: a popped location's target gets its
    in-edge's transfer if it is a chain location, and otherwise its initial
    fact joined with all its in-edges' transfers, kept if it is below the
    stored fact.  Every other location holds what that would give (see the
    module docstring) until a source of its in-edges changes, which queues
    that source again.

    Termination: within a round only the thread's own CFG edges re-queue
    work, and every cycle of a thread's CFG passes through a back-edge
    target, whose facts form a widening sequence after `WIDEN_DELAY`
    changes in the round; so every round ends.  Every sync edge leads to an
    acquire target, whose facts form a widening sequence after
    `WIDEN_DELAY` rounds that changed them, so they change finitely often
    (the parser puts a step between an acquire and a loop head, so no
    location is both).  A chain location that does not widen changes only
    when its source does, and no cycle avoids the widening points.  After
    each thread's first round, a round starts only from queued acquire
    sources, and once no acquire target changes, such a round changes
    nothing and queues nothing more.  In the descent each location's fact
    changes at most `_NARROW_CAP` times, and each change queues finitely
    many locations.  Soundness does not depend on the order:
    `check_postfixpoint` checks every result.  The descent starts from a
    post-fixpoint, and with monotone transfers each recomputed fact leaves
    one."""
    facts = frame.initial_facts()
    rank, order, owner, heads, chain = (frame.rank, frame.order, frame.thread_of,
                                        frame.heads, frame.chain)
    pending = [[rank[t.entry]] for t in frame.p.threads]  # one rank heap per thread
    queued = {t.entry for t in frame.p.threads}
    deferred: list[set[int]] = [set() for _ in frame.p.threads]  # for the next round
    rounds = deque(range(len(frame.p.threads)))
    update_count: dict[int, int] = {}  # rounds in which a location's fact changed
    descent: Optional[dict[int, int]] = None  # changes of a location's fact in the descent
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
            if visits > ITERATION_CAP:
                raise AnalysisLimitError(loc, ITERATION_CAP, visits, update_count.get(loc, 0))
            for instr in frame.by_source.get(loc, ()):
                tgt = instr.target
                dom = frame.domain_at[tgt]
                cur = facts[tgt]
                if descent is None:
                    new = frame.transfer(instr, facts[loc], facts)
                    if is_bottom(new):
                        continue
                    joined = new if tgt in chain else dom.join(cur, new)
                    if tgt in frame.widen_points:
                        count = changes.get(tgt, 0) if tgt in heads else update_count.get(tgt, 0)
                        if count >= WIDEN_DELAY:
                            joined = dom.widen(cur, joined)
                elif descent.get(tgt, 0) >= _NARROW_CAP:
                    continue
                else:
                    joined = initial[tgt]
                    for edge in frame.by_target[tgt]:
                        new = frame.transfer(edge, facts[edge.source], facts)
                        joined = new if tgt in chain else dom.join(joined, new)
                    if not dom.leq(joined, cur):
                        continue
                if dom.equal(joined, cur):
                    continue
                facts[tgt] = joined
                if descent is not None:
                    descent[tgt] = descent.get(tgt, 0) + 1
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
        if not rounds and descent is None:
            # the ascent is at a post-fixpoint: queue the sources of the
            # in-edges of widening points
            descent, initial = {}, frame.initial_facts()
            queued = {i.source for i in frame.p.instructions if i.target in frame.widen_points}
            pending = [sorted(rank[loc] for loc in t.locations & queued)
                       for t in frame.p.threads]
            rounds.extend(range(len(pending)))
    return facts


def analyze_fixpoint(p: Program, cfg: AnalysisConfig) -> LocationFacts:
    """Deterministic worklist fixpoint; returns a verified post-fixpoint."""
    frame = _Frame(p, cfg)
    facts = _solve(frame)
    check_postfixpoint(frame, facts)
    return facts


def check_postfixpoint(frame: _Frame, facts: LocationFacts) -> None:
    """Assert the per-instruction transfer inequality exhaustively.

    The check reuses the transfers that `frame` stored for unchanged
    inputs; on a fresh `_Frame` it recomputes every one.  It compares by
    the domains' `check_leq`, which also passes an octagon transfer that
    the entrywise `leq` rejects but whose full closure is below the stored
    fact."""
    for instr in frame.p.instructions:
        new = frame.transfer(instr, facts[instr.source], facts)
        if not frame.domain_at[instr.target].check_leq(new, facts[instr.target]):
            raise PostFixpointError(
                f"transfer of {instr.source}->{instr.target} exceeds the stored fact"
            )


class CollectingResult(NamedTuple):
    facts: LocationFacts
    clamped: bool  # some environment left `cfg.value_box`


def collecting_fixpoint(p: Program, cfg: AnalysisConfig) -> CollectingResult:
    """Exact least fixpoint of the set-based transfer system over the
    finite value box `cfg.value_box` (environments escaping the box are
    dropped and reported)."""
    frame = _Frame(p, cfg._replace(domain="envset"))
    facts = _solve(frame)
    check_postfixpoint(frame, facts)
    return CollectingResult(facts=facts, clamped=frame.domain.clamped)
