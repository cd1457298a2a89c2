"""Standard interleaving semantics, bounded exploration, and race checking.

States are immutable tuples, so exploration can deduplicate and memoize
freely.  Race verdicts are always bounded: an empty report means "no race
found up to the given depth", never "race free".

The exploration core serves both semantics and every checker: one edge
table (`ProgramIndex.by_source`), one successor generator (`successors`)
that takes the step function of a semantics, one depth-bounded tree search
(`dfs`) and one breadth-first state search (`reachable`).  The race search
and the owned-variable oracle read one walk of the standard tree that keeps
happens-before's vector clocks along the path (`clocked_walk`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional

from .lang import (
    Acquire,
    Assign,
    Assume,
    BoolOp,
    Cmp,
    Expr,
    Guard,
    Instruction,
    LinearAtom,
    NotExpr,
    Program,
    RegionMap,
    Release,
    Thread,
    instr_accesses,
    print_command,
    vars_of_bool,
)

DEFAULT_HAVOC = (0, 1, 2)
DEFAULT_BUDGET = 500_000


class ExplorationLimitError(Exception):
    """The configured exploration budget was exhausted."""


@dataclass(frozen=True)
class StdState:
    pc: tuple[int, ...]
    mu: tuple[Optional[int], ...]
    phi: tuple[int, ...]


@dataclass(frozen=True)
class Transition:
    """One step of either semantics; `pre` and `post` are states of it."""

    tid: int
    instr: Instruction
    choices: tuple[int, ...]
    pre: object
    post: object


@dataclass(frozen=True)
class Execution:
    initial: object
    steps: tuple[Transition, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def final(self):
        return self.steps[-1].post if self.steps else self.initial


class Step(NamedTuple):
    """One instruction compiled for stepping.

    `kind` is the command's class; `slot` is the written variable's index
    (assign) or the lock's index (acquire, release).  `fn` evaluates the command straight on a value
    tuple: `fn(values, choices)` is the assigned value, `fn(values)` the
    assume guard.  `instr` keeps the instruction alive, so its `id` keys
    this record and no other."""

    tid: int
    source: int
    target: int
    kind: type
    slot: int
    slots: int  # havoc occurrences of an assign, consumed left to right
    fn: Optional[Callable]
    instr: Instruction


@lru_cache(maxsize=4096)
def _function(src: str) -> Callable:
    """The function of a lambda's source; each search indexes a program of
    its own, and most of their instructions are shared."""
    return eval(src, {})


def _sum_source(const: int, coeffs: dict[str, int], var_index: dict[str, int],
                havocs: tuple[int, ...] = ()) -> str:
    """`const + sum(coeffs[x] * x) + sum(havocs[i] * c[i])` as Python source
    over the value tuple `v` and the havoc choices `c`: one `sum((...))` of
    the terms, which the Python compiler takes at any length (a chain of `+`
    recursed once per term)."""
    terms = [(f"v[{var_index[x]}]", k) for x, k in coeffs.items()]
    terms += [(f"c[{i}]", k) for i, k in enumerate(havocs) if k]
    if not terms:
        return hex(const)  # hex: str() of an int past 4300 digits raises ValueError
    return hex(const) + " + sum((" + "".join(
        ("-" if k < 0 else "+") + (t if abs(k) == 1 else f"{hex(abs(k))} * {t}") + ", "
        for t, k in terms) + "))"


def _guard_source(g: Guard, var_index: dict[str, int], outer: int = 0) -> str:
    """A condition's guard view as Python source over the value tuple `v`;
    `outer` is the precedence of the enclosing operator (0: none, 1: or,
    2: and).  Parentheses go only where precedence needs them."""
    if type(g) is LinearAtom:
        return f"{_sum_source(0, g.coeffs, var_index)} <= {hex(g.bound)}"
    tag, arg = g
    if tag == "bool":
        return repr(arg)
    prec, op = (2, " and ") if tag == "and" else (1, " or ")
    src = op.join(_guard_source(kid, var_index, prec) for kid in arg)
    return f"({src})" if prec < outer else src


class ProgramIndex:
    """Lookup tables for one desugared program, built once.

    `by_source` is the edge table: each location's outgoing instructions,
    in thread instruction order.  It relies on every location belonging to
    one thread, which `validate_program` checks and the constructor
    enforces.

    `steps` is the step table both semantics read: `id(instr)` -> `Step`,
    filled by `compile` on an instruction's first step, so an index built
    only for `by_source` compiles nothing.
    """

    def __init__(self, program: Program):
        if not program.is_desugared:
            raise ValueError("program must be desugared")
        self.program = program
        self.var_index = {v: i for i, v in enumerate(program.variables)}
        self.lock_index = {m: i for i, m in enumerate(program.locks)}
        self.tid_of_instr: dict[Instruction, int] = {}
        owner: dict[int, int] = {}
        by_source: dict[int, list[Instruction]] = {}
        for tid, t in enumerate(program.threads):
            for loc in t.locations:
                if owner.setdefault(loc, tid) != tid:
                    raise ValueError(f"location {loc} is in two threads")
            for i in t.instructions:
                by_source.setdefault(i.source, []).append(i)
                self.tid_of_instr[i] = tid
        self.by_source = {loc: tuple(instrs) for loc, instrs in by_source.items()}
        self.steps: dict[int, Step] = {}
        self._choices: dict[tuple, tuple[tuple[int, ...], ...]] = {}

    def compile(self, instr: Instruction) -> Step:
        """The step record of `instr`, entered in `steps`.  An instruction
        equal to one of the program's (but not the same object) steps like
        it; any other instruction raises KeyError."""
        tid = self.tid_of_instr[instr]
        c = instr.command
        kind, slot, slots, fn = type(c), 0, 0, None
        if kind is Assign:
            slot = self.var_index[c.var]
            const, coeffs, havocs, _ = c.expr.linear
            slots = len(havocs)
            fn = _function(f"lambda v, c: {_sum_source(const, coeffs, self.var_index, havocs)}")
        elif kind is Assume:
            fn = _function(f"lambda v: {_guard_source(c.cond.guard, self.var_index)}")
        elif kind is Acquire or kind is Release:
            slot = self.lock_index[c.lock]
        else:
            raise TypeError(f"not a command: {c!r}")
        step = self.steps[id(instr)] = Step(
            tid, instr.source, instr.target, kind, slot, slots, fn, instr)
        return step

    def havoc_choices(self, slots: int, havoc_values) -> tuple[tuple[int, ...], ...]:
        """Every choice tuple for `slots` havoc occurrences, in canonical
        order: each distinct value of `havoc_values`, ascending."""
        key = (slots, havoc_values)
        out = self._choices.get(key)
        if out is None:
            out = self._choices[key] = tuple(product(sorted(set(havoc_values)), repeat=slots))
        return out


def initial_state(p: Program) -> StdState:
    return StdState(
        pc=tuple(t.entry for t in p.threads),
        mu=(None,) * len(p.locks),
        phi=(0,) * len(p.variables),
    )


def std_step(
    p: Program,
    s: StdState,
    instr: Instruction,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    index: Optional[ProgramIndex] = None,
) -> tuple[tuple[tuple[int, ...], StdState], ...]:
    """Successors of `s` under `instr`, one per havoc choice; empty = disabled."""
    idx = index or ProgramIndex(p)
    tid, source, target, kind, slot, slots, fn, _ = (
        idx.steps.get(id(instr)) or idx.compile(instr))
    pc = s.pc
    if pc[tid] != source:
        return ()
    pc2 = pc[:tid] + (target,) + pc[tid + 1:]
    phi, mu = s.phi, s.mu
    if kind is Assign:
        head, tail = phi[:slot], phi[slot + 1:]
        return tuple((choices, StdState(pc2, mu, head + (fn(phi, choices),) + tail))
                     for choices in idx.havoc_choices(slots, havoc_values))
    if kind is Assume:
        return (((), StdState(pc2, mu, phi)),) if fn(phi) else ()
    if kind is Acquire:
        if mu[slot] is not None:
            return ()
        return (((), StdState(pc2, mu[:slot] + (tid,) + mu[slot + 1:], phi)),)
    if mu[slot] != tid:
        return ()
    return (((), StdState(pc2, mu[:slot] + (None,) + mu[slot + 1:], phi)),)


# ---------------------------------------------------------------------------
# Exploration core


def successors(idx: ProgramIndex, state, step: Callable, havoc_values) -> Iterator[tuple]:
    """Every step enabled in `state`, as (tid, instr, choices, post), in
    canonical order: thread index, instruction order, havoc value.

    `step` is the step function of a semantics (`std_step`, `local_step` or
    a stand-in with their signature); it is called with `idx` as its index
    or context and decides which instructions at the threads' pcs are
    enabled.  Callers name it at call time, never at import time, so that a
    wrapper installed over the module attribute sees every step.
    """
    p = idx.program
    by_source = idx.by_source
    for tid, loc in enumerate(state.pc):
        for instr in by_source.get(loc, ()):
            for choices, post in step(p, state, instr, havoc_values, idx):
                yield tid, instr, choices, post


def dfs(root, depth: int, budget: int, expand: Callable) -> Iterator[tuple[object, list]]:
    """Depth-first search of the tree below `root`, at most `depth` edges deep.

    Yields `(node, path)` for every node in pre-order, root first; `path`
    is the list of edges from the root, one list updated in place.
    `expand(node, path)` is a generator of the `(edge, child)` pairs to
    descend into; it is resumed only after the subtree of its previous
    child is done.  Raises ExplorationLimitError when more than `budget`
    nodes would be visited.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    path: list = []
    stack: list[Iterator] = []  # one generator per node on the path
    node, visited = root, 0
    while True:
        visited += 1
        if visited > budget:
            raise ExplorationLimitError(
                f"exploration budget {budget} exceeded after {visited} nodes "
                f"at depth {len(path)}")
        yield node, path
        if len(path) < depth:
            stack.append(expand(node, path))
        elif path:
            path.pop()  # a leaf: back to its parent
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if stack:
                    path.pop()
                continue
            edge, node = step
            path.append(edge)
            break
        if not stack:
            return


def reachable(idx: ProgramIndex, init, step: Callable, depth: int,
              havoc_values, budget: int) -> list:
    """Distinct states within `depth` steps of `init` under `step`, in
    breadth-first discovery order.  Raises ExplorationLimitError when more
    than `budget` states are found."""
    seen = {init: None}  # a dict keeps the discovery order
    frontier = [init]
    for level in range(1, depth + 1):
        nxt = []
        for s in frontier:
            for _, _, _, post in successors(idx, s, step, havoc_values):
                if post not in seen:
                    seen[post] = None
                    nxt.append(post)
                    if len(seen) > budget:
                        raise ExplorationLimitError(
                            f"state budget {budget} exceeded after {len(seen)} states "
                            f"at depth {level}")
        if not nxt:
            break
        frontier = nxt
    return list(seen)


def executions(idx: ProgramIndex, init, step: Callable, depth: int,
               havoc_values, budget: int) -> Iterator[Execution]:
    """Every execution of length <= depth from `init` under `step`, each
    exactly once, in pre-order (every prefix is itself yielded)."""

    def expand(state, path):
        for tid, instr, choices, post in successors(idx, state, step, havoc_values):
            yield Transition(tid, instr, choices, state, post), post

    for _, path in dfs(init, depth, budget, expand):
        yield Execution(init, tuple(path))


def successor_transitions(
    p: Program,
    s: StdState,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    index: Optional[ProgramIndex] = None,
) -> tuple[Transition, ...]:
    """All enabled transitions out of `s`, in canonical order."""
    idx = index or ProgramIndex(p)
    return tuple(Transition(tid, instr, choices, s, post)
                 for tid, instr, choices, post in successors(idx, s, std_step, havoc_values))


def enumerate_executions(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[Execution]:
    """Every execution of length <= depth, each exactly once, canonical order.

    Order is depth-first by (thread index, instruction order, havoc value);
    every prefix is itself yielded.  Raises ExplorationLimitError when more
    than `budget` executions would be produced.
    """
    return executions(ProgramIndex(p), initial_state(p), std_step, depth,
                      havoc_values, budget)


def reachable_states(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> set[StdState]:
    """Distinct states reachable within `depth` steps (visited-set pruned)."""
    return set(reachable(ProgramIndex(p), initial_state(p), std_step, depth,
                         havoc_values, budget))


# ---------------------------------------------------------------------------
# Happens-before


@dataclass(frozen=True)
class HappensBefore:
    """hb = (po U sw)* over the step indices of one execution."""

    clocks: tuple[tuple[int, ...], ...]
    tids: tuple[int, ...]
    po_edges: tuple[tuple[int, int], ...]
    sw_edges: tuple[tuple[int, int], ...]

    def ordered(self, i: int, j: int) -> bool:
        """True iff step i happens-before step j (reflexive)."""
        if i == j:
            return True
        if i > j:
            return False
        return self.clocks[i][self.tids[i]] <= self.clocks[j][self.tids[i]]

    def unordered(self, i: int, j: int) -> bool:
        return not self.ordered(i, j) and not self.ordered(j, i)


def happens_before(e: Execution, index: Optional[ProgramIndex] = None) -> HappensBefore:
    if not e.steps:
        return HappensBefore((), (), (), ())
    n_threads = len(e.initial.pc)
    lock_names = sorted({tr.instr.command.lock for tr in e.steps
                         if isinstance(tr.instr.command, (Acquire, Release))})
    thread_clock = [[0] * n_threads for _ in range(n_threads)]
    lock_clock = {m: [0] * n_threads for m in lock_names}
    clocks: list[tuple[int, ...]] = []
    tids: list[int] = []
    po_edges: list[tuple[int, int]] = []
    sw_edges: list[tuple[int, int]] = []
    last_of_thread: dict[int, int] = {}
    last_release: dict[str, int] = {}
    for k, tr in enumerate(e.steps):
        t = tr.tid
        cmd = tr.instr.command
        if isinstance(cmd, Acquire):
            lm = lock_clock[cmd.lock]
            thread_clock[t] = [max(a, b) for a, b in zip(thread_clock[t], lm)]
            if cmd.lock in last_release:
                sw_edges.append((last_release.pop(cmd.lock), k))
        thread_clock[t][t] += 1
        clocks.append(tuple(thread_clock[t]))
        tids.append(t)
        if isinstance(cmd, Release):
            lock_clock[cmd.lock] = list(thread_clock[t])
            last_release[cmd.lock] = k
        if t in last_of_thread:
            po_edges.append((last_of_thread[t], k))
        last_of_thread[t] = k
    return HappensBefore(tuple(clocks), tuple(tids), tuple(po_edges), tuple(sw_edges))


def clocked_walk(idx: ProgramIndex, depth: int, havoc_values,
                 budget: int) -> Iterator[tuple]:
    """`dfs` of the standard execution tree of `idx.program`, with the
    vector clocks of happens-before kept along the path.

    Yields `(state, path, clocks, thread_clock)` at every node: `clocks[i]`
    is the clock of step i of `path`, `thread_clock[t]` that of thread t
    after the path.  Like `path`, both lists are updated in place.  They
    are the clocks `happens_before` computes per execution, updated once per
    tree edge; `happens_before` stays the independent reference.
    """
    p = idx.program
    zero = (0,) * len(p.threads)
    thread_clock = [zero] * len(p.threads)
    lock_clock = [zero] * len(p.locks)
    clocks: list[tuple[int, ...]] = []

    def expand(state: StdState, path: list):
        for edge in successors(idx, state, std_step, havoc_values):
            t, instr, _, post = edge
            _, _, _, kind, slot, _, _, _ = idx.steps.get(id(instr)) or idx.compile(instr)
            saved_thread = vc = thread_clock[t]
            if kind is Acquire:
                vc = tuple(map(max, vc, lock_clock[slot]))
            vc = vc[:t] + (vc[t] + 1,) + vc[t + 1:]
            thread_clock[t] = vc
            if kind is Release:
                saved_lock = lock_clock[slot]
                lock_clock[slot] = vc
            clocks.append(vc)
            yield edge, post
            clocks.pop()
            thread_clock[t] = saved_thread
            if kind is Release:
                lock_clock[slot] = saved_lock

    for state, path in dfs(initial_state(p), depth, budget, expand):
        yield state, path, clocks, thread_clock


# ---------------------------------------------------------------------------
# Race detection


@dataclass(frozen=True)
class RaceReport:
    execution: Execution
    first: int
    second: int
    subject: str  # variable or region name


def _conflicts(a_reads, a_writes, b_reads, b_writes) -> frozenset[str]:
    return (a_writes & (b_reads | b_writes)) | (b_writes & a_reads)


def _find_races(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...],
    budget: int,
    subjects_of: Callable[[Instruction], tuple[frozenset[str], frozenset[str]]],
) -> list[RaceReport]:
    """DFS over the execution tree, reporting hb-unordered conflicting pairs.

    A pair is reported at the tree node whose last step is its second
    access, so each distinct (instruction, instruction, subject) triple is
    witnessed once, by its canonically first execution.
    """
    idx = ProgramIndex(p)
    init = initial_state(p)
    # keyed by identity: hashing an Instruction walks its whole command
    reported: dict[tuple[int, int, str], RaceReport] = {}

    # row[id(b)][id(a)] holds the sorted subjects on which an earlier step
    # of `a` in another thread conflicts with a step of `b`
    instrs = p.instructions
    accesses = {id(i): (idx.tid_of_instr[i], *subjects_of(i)) for i in instrs}
    table: dict[int, dict[int, tuple[str, ...]]] = {}
    for b in instrs:
        tb, b_reads, b_writes = accesses[id(b)]
        row = table[id(b)] = {}
        for a in instrs:
            ta, a_reads, a_writes = accesses[id(a)]
            if ta != tb:
                both = _conflicts(a_reads, a_writes, b_reads, b_writes)
                if both:
                    row[id(a)] = tuple(sorted(both))

    def witness(path) -> Execution:
        steps, pre = [], init
        for tid, instr, choices, post in path:
            steps.append(Transition(tid, instr, choices, pre, post))
            pre = post
        return Execution(init, tuple(steps))

    for _, path, clocks, _ in clocked_walk(idx, depth, havoc_values, budget):
        if not path:
            continue
        k = len(path) - 1
        instr = path[k][1]
        row = table[id(instr)]
        if not row:
            continue
        vc = clocks[k]
        for i in range(k):
            prior_tid, prior = path[i][:2]
            both = row.get(id(prior))
            if both is None or clocks[i][prior_tid] <= vc[prior_tid]:
                continue  # no conflict, or ordered by happens-before
            for subject in both:
                key = (id(prior), id(instr), subject)
                if key not in reported:
                    reported[key] = RaceReport(witness(path), i, k, subject)
    return sorted(
        reported.values(),
        key=lambda r: (r.subject, r.first, r.second, len(r.execution.steps)),
    )


def find_data_races(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> list[RaceReport]:
    """All hb-unordered conflicting same-variable access pairs up to depth."""
    return _find_races(p, depth, havoc_values, budget, instr_accesses)


def find_region_races(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
    regions: Optional[RegionMap] = None,
) -> list[RaceReport]:
    """Like find_data_races, with accesses lifted to the region partition."""
    rg = regions or p.regions

    def region_subjects(instr: Instruction):
        reads, writes = instr_accesses(instr)
        return (
            frozenset(rg.region_of(v) for v in reads),
            frozenset(rg.region_of(v) for v in writes),
        )

    return _find_races(p, depth, havoc_values, budget, region_subjects)


# ---------------------------------------------------------------------------
# Owned variables (bounded semantic oracle)


def owned_vars_oracle(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> dict[tuple[str, int], frozenset[str]]:
    """Per (thread, location): the variables that no other thread's write
    races with a read there, in any execution explored up to the given
    depth.  Over-approximates the true owned sets when the depth is too
    small to expose a race.

    Variable v is not owned by thread t at location l when some node of
    the tree has t at l after a write of v by a thread u != t that t has
    not synchronized with.  That is the race of a read of v appended there,
    one step deeper.  A read placed earlier, with the write after it, is no
    other case: t idles after the read, so the write alone, one step
    earlier, ends a node of the first kind.  One walk of the tree, which
    `budget` bounds, decides every location."""
    idx = ProgramIndex(p)
    written = {id(i): instr_accesses(i)[1] for i in p.instructions}
    racy: dict[tuple[int, int], set[str]] = {
        (t, loc): set() for t, th in enumerate(p.threads) for loc in th.locations}
    for state, path, clocks, thread_clock in clocked_walk(idx, depth, havoc_values, budget):
        for t, loc in enumerate(state.pc):
            seen = thread_clock[t]
            for i, (u, instr, _, _) in enumerate(path):
                if u != t and clocks[i][u] > seen[u]:
                    racy[t, loc] |= written[id(instr)]
    return {(p.threads[t].name, loc): frozenset(p.variables) - vs
            for (t, loc), vs in racy.items()}


# ---------------------------------------------------------------------------
# Region-race reduction to data races


def translate_for_region_races(p: Program) -> Program:
    """Rewrite `p` so data races on per-region witness variables correspond to
    region races of `p`.

    Assume conditions (and registered assertion reads) are first localized
    through fresh per-thread copies, then every assignment writing region r_w
    and reading regions r_1..r_n is preceded by X_{r_w} := X_{r_1}; ...;
    X_{r_w} := X_{r_n} (X_{r_w} := X_{r_w} when nothing is read, so pure
    writes still mark their region).
    """
    if not p.is_desugared:
        raise ValueError("program must be desugared")
    rg = p.regions

    # fresh per-thread locals for variables read inside assume conditions;
    # each local forms a singleton region of its own
    locals_of: dict[str, dict[str, str]] = {}
    local_names: list[str] = []
    for t in p.threads:
        table: dict[str, str] = {}
        for i in t.instructions:
            if isinstance(i.command, Assume):
                for v in sorted(vars_of_bool(i.command.cond) | i.assert_reads):
                    if v not in table:
                        table[v] = f"__{t.name}_{v}"
                        local_names.append(table[v])
        locals_of[t.name] = table

    def region_of(v: str) -> str:
        return v if v in set(local_names) else rg.region_of(v)

    region_names = list(rg.names) + local_names
    region_var = {name: f"__rg_{name}" for name in region_names}
    fresh_loc = max(max(t.locations) for t in p.threads) + 1

    def alloc_loc() -> int:
        nonlocal fresh_loc
        loc = fresh_loc
        fresh_loc += 1
        return loc

    threads = []
    for t in p.threads:
        instrs: list[Instruction] = []
        table = locals_of[t.name]

        def emit_region_prefix(entry: int, write_var: str, read_vars) -> int:
            rw = region_var[region_of(write_var)]
            read_regions = sorted({region_of(v) for v in read_vars}) or [
                region_of(write_var)
            ]
            cur = entry
            for r in read_regions:
                nxt = alloc_loc()
                instrs.append(Instruction(cur, Assign(rw, Expr.of(region_var[r])), nxt))
                cur = nxt
            return cur

        for i in t.instructions:
            if isinstance(i.command, Assign):
                reads = sorted(i.command.expr.linear.reads)
                cur = emit_region_prefix(i.source, i.command.var, reads)
                instrs.append(Instruction(cur, i.command, i.target))
            elif isinstance(i.command, Assume):
                shared_reads = sorted(vars_of_bool(i.command.cond) | i.assert_reads)
                if not shared_reads:
                    instrs.append(Instruction(i.source, i.command, i.target))
                    continue
                # localize: l_v := v for each read, then assume on the copies
                cur = i.source
                for v in shared_reads:
                    lv = table[v]
                    mid = emit_region_prefix(cur, lv, [v])
                    nxt = alloc_loc()
                    instrs.append(Instruction(mid, Assign(lv, Expr.of(v)), nxt))
                    cur = nxt
                cond = _substitute_bool(i.command.cond, table)
                instrs.append(Instruction(cur, Assume(cond), i.target))
            else:
                instrs.append(Instruction(i.source, i.command, i.target))
        threads.append(Thread(t.name, t.body, t.entry, tuple(instrs)))

    all_vars = tuple(
        list(p.variables) + local_names + [region_var[n] for n in region_names]
    )
    declared = {name: vs for name, vs in rg.members if len(vs) > 1}
    regions = RegionMap.from_declared(all_vars, declared)
    return Program(all_vars, p.locks, regions, tuple(threads), p.assertions)


def _substitute_bool(b, mapping):
    if isinstance(b, Cmp):
        return Cmp(b.op, _substitute_expr(b.left, mapping), _substitute_expr(b.right, mapping))
    if isinstance(b, BoolOp):
        return BoolOp(b.op, tuple(_substitute_bool(a, mapping) for a in b.args))
    if isinstance(b, NotExpr):
        return NotExpr(_substitute_bool(b.expr, mapping))
    return b


def _substitute_expr(e: Expr, mapping) -> Expr:
    """`e` with variables renamed; literals and HAVOC are no keys of `mapping`."""
    return Expr(tuple(
        (sign, factors, _substitute_expr(a, mapping) if type(a) is Expr else mapping.get(a, a))
        for sign, factors, a in e.terms))


def racy_regions_via_translation(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[str]:
    """Regions of `p` whose witness variable races in the translated program."""
    translated = translate_for_region_races(p)
    races = find_data_races(translated, depth, havoc_values, budget)
    out = set()
    for r in races:
        if r.subject.startswith("__rg_"):
            out.add(r.subject[len("__rg_"):])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Trace dump


def format_step(tr: Transition, p: Program) -> str:
    """One trace line: thread, source, command (with havoc choices), target."""
    cmd = print_command(tr.instr.command)
    if tr.choices:
        cmd += " {" + ",".join(map(str, tr.choices)) + "}"
    return f"{p.threads[tr.tid].name} {tr.instr.source} -[{cmd}]-> {tr.instr.target}"


def format_execution(e: Execution, p: Program) -> str:
    """One line per transition, then po/sw edge lists."""
    hb = happens_before(e)
    lines = [format_step(tr, p) for tr in e.steps]
    lines.append("po: " + " ".join(f"{i}->{j}" for i, j in hb.po_edges))
    lines.append("sw: " + " ".join(f"{i}->{j}" for i, j in hb.sw_edges))
    return "\n".join(lines)
