"""Standard interleaving semantics, bounded exploration, and race checking.

States are immutable tuples, so exploration can deduplicate and memoize
freely.  Race verdicts are always bounded: an empty report means "no race
found up to the given depth", never "race free".

The exploration core serves both semantics and every checker: one edge
table (`ProgramIndex.by_source`), one successor generator (`successors`)
that takes the step function of a semantics, one depth-bounded tree search
(`dfs`) and one breadth-first state search (`reachable`).  The race search
and the owned-variable oracle read one walk of the standard tree whose
nodes keep happens-before's vector clocks (`clocked_walk`), and the walk
and the race test read one table of conflicting pairs (`conflict_table`).

That walk is reduced by sleep sets: it enters one execution of each
Mazurkiewicz trace, the executions equal up to reordering adjacent
independent steps.  This keeps every verdict at depth k.  Equivalent
executions have the same final state, the same po U sw clocks and the same
length, so every trace of length <= k has an explored representative.  A
race pair stays ordered because its two steps conflict.  A sleeping
instruction is never stepped.  The budget counts nodes of the reduced tree.

Every search stops at `DEFAULT_BUDGET` nodes or states, which `dfs` and
`reachable` read at call time; only `reachable_states` takes a budget of its
own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional

from .lang import (
    DEFAULT_HAVOC,
    Acquire,
    Assign,
    Assume,
    Cmp,
    Expr,
    Guard,
    Instruction,
    LinearAtom,
    Program,
    RegionMap,
    Release,
    instr_accesses,
    print_command,
)

DEFAULT_BUDGET = 500_000  # nodes of a tree search, or states of a state search
Subjects = Callable[[Instruction], tuple[frozenset[str], frozenset[str]]]  # (reads, writes)
ConflictTable = dict[int, dict[int, tuple[str, ...]]]  # see conflict_table


class ExplorationLimitError(Exception):
    """The configured exploration budget was exhausted."""


class StdState(NamedTuple):
    pc: tuple[int, ...]
    mu: tuple[Optional[int], ...]
    phi: tuple[int, ...]


class Transition(NamedTuple):
    """One step of either semantics; `pre` and `post` are states of it."""

    tid: int
    instr: Instruction
    choices: tuple[int, ...]
    pre: object
    post: object


class Execution(NamedTuple):
    initial: object
    steps: tuple[Transition, ...]

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
    """Lookup tables for one program, as the parser lowered it, built once.

    `by_source` is the program's edge table (`Program.by_source`): each
    location's outgoing instructions, in thread instruction order.  It
    relies on every location belonging to one thread, which
    `validate_program` checks and `Program.thread_of` enforces.

    `steps` is the step table both semantics read: `id(instr)` -> `Step`,
    filled by `compile` on an instruction's first step.
    """

    def __init__(self, program: Program):
        self.program = program
        self.var_index = {v: i for i, v in enumerate(program.variables)}
        self.lock_index = {m: i for i, m in enumerate(program.locks)}
        thread_of = program.thread_of
        self.tid_of_instr = {i: thread_of[i.source] for i in program.instructions}
        self.by_source = program.by_source
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


def dfs(root, depth: int, expand: Callable) -> Iterator[tuple[object, list]]:
    """Depth-first search of the tree below `root`, at most `depth` edges deep.

    Yields `(node, path)` for every node in pre-order, root first; `path`
    is the list of edges from the root, one list updated in place.
    `expand(node, path)` is a generator of the `(edge, child)` pairs to
    descend into; it is resumed only after the subtree of its previous
    child is done.  Raises ExplorationLimitError when more than
    `DEFAULT_BUDGET` nodes would be visited.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    budget = DEFAULT_BUDGET
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
              havoc_values, budget: Optional[int] = None) -> list:
    """Distinct states within `depth` steps of `init` under `step`, in
    breadth-first discovery order.  Raises ExplorationLimitError when more
    than `budget` states (by default `DEFAULT_BUDGET`) are found."""
    if budget is None:
        budget = DEFAULT_BUDGET
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
               havoc_values) -> Iterator[Execution]:
    """Every execution of length <= depth from `init` under `step`, each
    exactly once, in pre-order (every prefix is itself yielded)."""

    def expand(state, path):
        for tid, instr, choices, post in successors(idx, state, step, havoc_values):
            yield Transition(tid, instr, choices, state, post), post

    for _, path in dfs(init, depth, expand):
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
) -> Iterator[Execution]:
    """Every execution of length <= depth, each exactly once, canonical order.

    Order is depth-first by (thread index, instruction order, havoc value);
    every prefix is itself yielded.  Raises ExplorationLimitError when more
    than `DEFAULT_BUDGET` executions would be produced.
    """
    return executions(ProgramIndex(p), initial_state(p), std_step, depth, havoc_values)


def reachable_states(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: Optional[int] = None,
) -> set[StdState]:
    """Distinct states reachable within `depth` steps (visited-set pruned),
    at most `budget` of them (by default `DEFAULT_BUDGET`)."""
    return set(reachable(ProgramIndex(p), initial_state(p), std_step, depth,
                         havoc_values, budget))


def conflict_table(idx: ProgramIndex, subjects_of: Subjects) -> ConflictTable:
    """`table[id(a)][id(b)]`: the sorted subjects on which steps of `a` and
    `b` conflict (one writes what the other reads or writes), for every
    conflicting pair, of one thread or two; symmetric.  A search builds one
    and hands it to `clocked_walk`, so the walk's dependence and the race
    test read one table."""
    accesses = [(id(i), *subjects_of(i)) for i in idx.program.instructions]
    table: ConflictTable = {a: {} for a, _, _ in accesses}
    for n, (a, a_reads, a_writes) in enumerate(accesses):
        for b, b_reads, b_writes in accesses[n:]:
            both = (a_writes & (b_reads | b_writes)) | (b_writes & a_reads)
            if both:
                table[a][b] = table[b][a] = tuple(sorted(both))
    return table


def clocked_walk(idx: ProgramIndex, depth: int, havoc_values,
                 table: ConflictTable) -> Iterator[tuple]:
    """`dfs` of the standard execution tree of `idx.program`, reduced by
    sleep sets (Godefroid 1996), with the vector clocks of happens-before.

    A node is `(state, thread clocks, lock clocks, sleep set)` and a path
    edge `(tid, instr, choices, post, clock)`, `clock` being the step's.
    Yields `(state, path, thread clocks)` at every node; `path` is updated
    in place, as in `dfs`.

    Two steps are dependent when they belong to one thread, both acquire or
    release one lock, or conflict in `table` (a `conflict_table`);
    independent steps commute.  A sleep set holds instructions, and a node
    never steps one: its step function gives no successor for a sleeping
    instruction and calls `std_step` (the module attribute, at call time)
    for the others.  A child's sleep set is its parent's plus the
    instructions stepped before it, less every one dependent on the step
    taken.  So a branch that only reorders independent steps of an earlier
    branch is never entered, and the budget counts the nodes of the reduced
    tree.  Keying the sleep set by instruction, not by (instruction, havoc
    choices), prunes the same tree: the choices of one instruction are
    consecutive siblings of one thread, and dependence is decided per
    instruction, so a sleep set holds all of an instruction's choices or
    none of them.

    What the readers see is kept.  Executions that differ only in the order
    of independent steps (one Mazurkiewicz trace) have the same final state,
    the same po U sw clocks on each step and the same length.  Every trace
    of length <= `depth` has an explored representative, so every state is
    yielded.  A pruned branch reorders an earlier one, so the representative
    is the first execution of its trace in the canonical order of the
    unreduced tree.  A race pair conflicts, so its two steps keep their
    order in every representative; in a table of region-lifted subjects so
    do two accesses to one region.  The race search therefore reports the same
    triples, each with the same first witness, and the owned oracle sees
    the same (state, clocks) pairs.

    The walks that must see every execution or every transition stay
    unreduced: `executions` and `enumerate_executions` promise each
    execution once (`explore` prints them, and the tests' references,
    among them a per-execution happens-before that checks these clocks,
    enumerate them), `reachable` already merges reorders in its visited
    set, and metacheck's correspondence and local-abstraction walks check
    each transition step for step, which a representative skips.
    """
    p = idx.program
    # dependent[id(a)]: the ids of the instructions whose steps do not
    # commute with a step of `a`: its conflicts, its thread's (an int key)
    # and its lock's (a name key)
    keys = {id(i): (idx.tid_of_instr[i], getattr(i.command, "lock", None))
            for i in p.instructions}
    groups: dict[object, set[int]] = {}
    for a, (t, lock) in keys.items():
        groups.setdefault(t, set()).add(a)
        groups.setdefault(lock, set()).add(a)
    groups[None] = set()  # an assign or assume has no lock to share
    dependent = {a: frozenset(table[a]).union(*(groups[k] for k in ks)) for a, ks in keys.items()}

    def expand(node, path):
        state, clocks, locks, sleep = node

        def step(prog, s, instr, values, index):
            return () if id(instr) in sleep else std_step(prog, s, instr, values, index)

        explored: set[int] = set()
        for t, instr, choices, post in successors(idx, state, step, havoc_values):
            _, _, _, kind, slot, _, _, _ = idx.steps.get(id(instr)) or idx.compile(instr)
            vc = clocks[t]
            if kind is Acquire:
                vc = tuple(map(max, vc, locks[slot]))
            vc = vc[:t] + (vc[t] + 1,) + vc[t + 1:]
            child = (post, clocks[:t] + (vc,) + clocks[t + 1:],
                     locks[:slot] + (vc,) + locks[slot + 1:] if kind is Release else locks,
                     (sleep | explored) - dependent[id(instr)])
            explored.add(id(instr))
            yield (t, instr, choices, post, vc), child

    zero = (0,) * len(p.threads)
    root = (initial_state(p), (zero,) * len(p.threads), (zero,) * len(p.locks), frozenset())
    for (state, clocks, _, _), path in dfs(root, depth, expand):
        yield state, path, clocks


# ---------------------------------------------------------------------------
# Race detection


class RaceReport(NamedTuple):
    execution: Execution
    first: int
    second: int
    subject: str  # variable or region name


def _find_races(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...],
    subjects_of: Subjects,
    on_node: Optional[Callable] = None,
) -> list[RaceReport]:
    """DFS over the reduced execution tree of `clocked_walk`, reporting
    hb-unordered conflicting pairs.

    A pair is reported at the tree node whose last step is its second
    access, so each distinct (instruction, instruction, subject) triple is
    witnessed once, by its canonically first execution.  The pairs come
    from the walk's own `conflict_table`; a pair of one thread is ordered
    by po, so the clock test skips it.  `on_node(state, path, clocks)`, if
    given, reads every node of the walk as well.
    """
    idx = ProgramIndex(p)
    init = initial_state(p)
    table = conflict_table(idx, subjects_of)
    # keyed by identity: hashing an Instruction walks its whole command
    reported: dict[tuple[int, int, str], RaceReport] = {}

    def witness(path) -> Execution:
        steps, pre = [], init
        for tid, instr, choices, post, _ in path:
            steps.append(Transition(tid, instr, choices, pre, post))
            pre = post
        return Execution(init, tuple(steps))

    for state, path, clocks in clocked_walk(idx, depth, havoc_values, table):
        if on_node is not None:
            on_node(state, path, clocks)
        if not path:
            continue
        k = len(path) - 1
        _, instr, _, _, vc = path[k]
        row = table[id(instr)]
        if not row:
            continue
        for i, (prior_tid, prior, _, _, prior_vc) in enumerate(path[:k]):
            both = row.get(id(prior))
            if both is None or prior_vc[prior_tid] <= vc[prior_tid]:
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
    on_node: Optional[Callable] = None,
) -> list[RaceReport]:
    """All hb-unordered conflicting same-variable access pairs up to depth.
    `on_node(state, path, clocks)`, if given, reads every node of the walk,
    as the `visit` of `owned_probe` does."""
    return _find_races(p, depth, havoc_values, instr_accesses, on_node)


def find_region_races(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
) -> list[RaceReport]:
    """Like find_data_races, with accesses lifted to the partition `p.regions`."""
    rg = p.regions

    def region_subjects(instr: Instruction):
        reads, writes = instr_accesses(instr)
        return (
            frozenset(rg.region_of(v) for v in reads),
            frozenset(rg.region_of(v) for v in writes),
        )

    return _find_races(p, depth, havoc_values, region_subjects)


# ---------------------------------------------------------------------------
# Owned variables (bounded semantic oracle)


def owned_vars_oracle(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
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
    earlier, ends a node of the first kind.  One walk of the tree, reduced
    by sleep sets, decides every location."""
    visit, owned = owned_probe(p)
    idx = ProgramIndex(p)
    for node in clocked_walk(idx, depth, havoc_values, conflict_table(idx, instr_accesses)):
        visit(*node)
    return owned()


def owned_probe(p: Program) -> tuple[Callable, Callable]:
    """The owned oracle as a reader of the nodes of `clocked_walk` under
    `instr_accesses`: `visit(state, path, clocks)` at every node, then
    `owned()` for the map.  `find_data_races` walks that tree, so its walk
    can feed `visit` too."""
    written = {id(i): instr_accesses(i)[1] for i in p.instructions}
    racy: dict[tuple[int, int], set[str]] = {
        (t, loc): set() for t, th in enumerate(p.threads) for loc in th.locations}

    def visit(state, path, clocks) -> None:
        for t, loc in enumerate(state.pc):
            seen = clocks[t]
            for u, instr, _, _, vc in path:
                if u != t and vc[u] > seen[u]:
                    racy[t, loc] |= written[id(instr)]

    def owned() -> dict[tuple[str, int], frozenset[str]]:
        return {(p.threads[t].name, loc): frozenset(p.variables) - vs
                for (t, loc), vs in racy.items()}

    return visit, owned


# ---------------------------------------------------------------------------
# Region-race reduction to data races


def _region_witnesses(p: Program) -> dict[str, str]:
    """Each region's witness variable: a prefix no variable or region name
    of `p` starts with (`__rg_`, with `_` prepended until none does), then
    the region's name.  So no witness is a variable or region name of `p`,
    and each region has its own."""
    prefix = "__rg_"
    while any(name.startswith(prefix) for name in p.variables + p.regions.names):
        prefix = "_" + prefix
    return {r: prefix + r for r in p.regions.names}


def translate_for_region_races(p: Program) -> Program:
    """`p` with one witness step right after each instruction that
    accesses a region, so that the data races on the witness variables
    (`_region_witnesses`) are the region races of `p`.

    An instruction writing region w and reading regions R is followed by
    `X_w := X_w + 0 * X_r + ...` over the r in R other than w; one that
    only reads by `assume(0 * X_r + ... == 0 * X_r + ...)` over R.  An
    expression reads every variable it mentions, so a witness step accesses
    X_r as its instruction accesses r (the read of X_w adds no conflict: the
    step writes X_w too), and it changes no variable of `p`.

    Covering: run each witness step just after its instruction, and an
    execution of `p` of length K is one of the translation of length at
    most 2K.  Neither an instruction nor its witness step is a lock step,
    so happens-before orders two witness steps as it orders their
    instructions: every region race of `p` within K steps is a data race on
    a witness within 2K steps.  Conversely, a witness step runs only after
    its instruction (an assume that blocks reads no witness), so every
    witness race is a region race of `p`, though maybe only past K steps:
    the comparison is bounded.
    """
    rg, witness = p.regions, _region_witnesses(p)
    fresh = max(max(t.locations) for t in p.threads) + 1
    threads = []
    for t in p.threads:
        instrs: list[Instruction] = []
        for i in t.instructions:
            reads, writes = ({rg.region_of(v) for v in vs} for vs in instr_accesses(i))
            if not reads | writes:
                instrs.append(i)
                continue
            zeros = tuple((1, (0,), witness[r]) for r in sorted(reads - writes))
            if writes:
                (w,) = writes
                mark = Assign(witness[w], Expr(((1, (), witness[w]),) + zeros))
            else:
                mark = Assume(Cmp("==", Expr(zeros), Expr(zeros)))
            instrs += [i._replace(target=fresh), Instruction(fresh, mark, i.target)]
            fresh += 1
        threads.append(t._replace(instructions=tuple(instrs)))
    variables = p.variables + tuple(witness.values())
    declared = {name: vs for name, vs in rg.members if len(vs) > 1}
    return Program(variables, p.locks, RegionMap.from_declared(variables, declared),
                   tuple(threads), p.assertions)


def racy_regions_via_translation(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
) -> frozenset[str]:
    """Regions of `p` whose witness variable races in the translated program."""
    region_of = {x: r for r, x in _region_witnesses(p).items()}
    races = find_data_races(translate_for_region_races(p), depth, havoc_values)
    return frozenset(region_of[r.subject] for r in races if r.subject in region_of)


# ---------------------------------------------------------------------------
# Trace dump


def format_step(tr: Transition, p: Program) -> str:
    """One trace line: thread, source, command (with havoc choices), target."""
    cmd = print_command(tr.instr.command)
    if tr.choices:
        cmd += " {" + ",".join(map(str, tr.choices)) + "}"
    return f"{p.threads[tr.tid].name} {tr.instr.source} -[{cmd}]-> {tr.instr.target}"


def format_execution(e: Execution, p: Program) -> str:
    """One line per transition, then the po and sw edges between step
    indices: po links each step to its thread's next step, sw a lock's last
    unmatched release to the lock's next acquire."""
    po: list[tuple[int, int]] = []
    sw: list[tuple[int, int]] = []
    last_of_thread: dict[int, int] = {}
    last_release: dict[str, int] = {}
    for k, tr in enumerate(e.steps):
        cmd = tr.instr.command
        if isinstance(cmd, Acquire) and cmd.lock in last_release:
            sw.append((last_release.pop(cmd.lock), k))
        elif isinstance(cmd, Release):
            last_release[cmd.lock] = k
        if tr.tid in last_of_thread:
            po.append((last_of_thread[tr.tid], k))
        last_of_thread[tr.tid] = k
    lines = [format_step(tr, p) for tr in e.steps]
    lines.append("po: " + " ".join(f"{i}->{j}" for i, j in po))
    lines.append("sw: " + " ".join(f"{i}->{j}" for i, j in sw))
    return "\n".join(lines)
