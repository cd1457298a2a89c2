"""Standard interleaving semantics, bounded exploration, and race checking.

States are immutable tuples, so exploration can deduplicate and memoize
freely.  Race verdicts are always bounded: an empty report means "no race
found up to the given depth", never "race free".

The exploration core serves both semantics and every checker: one edge
table (`ProgramIndex.by_source`), one successor generator (`successors`)
that takes the step function of a semantics, one depth-bounded tree search
(`dfs`) and one breadth-first state search (`reachable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Optional

from .lang import (
    Acquire,
    Assign,
    Assume,
    BinExpr,
    BoolLit,
    BoolOp,
    Cmp,
    Instruction,
    NotExpr,
    Program,
    RegionMap,
    Release,
    ScaledExpr,
    Thread,
    VarRef,
    eval_bool,
    eval_expr,
    havoc_slots,
    instr_accesses,
    print_command,
    vars_of_bool,
    vars_of_expr,
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


class ProgramIndex:
    """Lookup tables for one desugared program, built once.

    `by_source` is the edge table: each location's outgoing instructions,
    in thread instruction order.  It relies on every location belonging to
    one thread, which `validate_program` checks and the constructor
    enforces.
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

    def env_of(self, values: tuple[int, ...]) -> dict[str, int]:
        return {v: values[i] for v, i in self.var_index.items()}


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
    tid = idx.tid_of_instr[instr]
    if s.pc[tid] != instr.source:
        return ()
    pc2 = tuple(instr.target if k == tid else loc for k, loc in enumerate(s.pc))
    c = instr.command
    if isinstance(c, Assign):
        env = idx.env_of(s.phi)
        vi = idx.var_index[c.var]
        out = []
        slots = havoc_slots(c.expr)
        for choices in product(tuple(sorted(set(havoc_values))), repeat=slots):
            value = eval_expr(c.expr, env, choices)
            phi2 = tuple(value if k == vi else v for k, v in enumerate(s.phi))
            out.append((choices, StdState(pc2, s.mu, phi2)))
        return tuple(out)
    if isinstance(c, Assume):
        if eval_bool(c.cond, idx.env_of(s.phi)):
            return (((), StdState(pc2, s.mu, s.phi)),)
        return ()
    if isinstance(c, Acquire):
        mi = idx.lock_index[c.lock]
        if s.mu[mi] is not None:
            return ()
        mu2 = tuple(tid if k == mi else h for k, h in enumerate(s.mu))
        return (((), StdState(pc2, mu2, s.phi)),)
    if isinstance(c, Release):
        mi = idx.lock_index[c.lock]
        if s.mu[mi] != tid:
            return ()
        mu2 = tuple(None if k == mi else h for k, h in enumerate(s.mu))
        return (((), StdState(pc2, mu2, s.phi)),)
    raise TypeError(f"not a command: {c!r}")


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

    def as_relation(self) -> frozenset[tuple[int, int]]:
        n = len(self.tids)
        return frozenset(
            (i, j) for i in range(n) for j in range(n)
            if (i <= j and self.ordered(i, j))
        )


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
    involving: Optional[Instruction] = None,
) -> list[RaceReport]:
    """DFS over the execution tree, reporting hb-unordered conflicting pairs.

    A pair is reported at the tree node where its second access is appended,
    so each distinct (instruction, instruction, subject) triple is witnessed
    once, by its canonically first execution.
    """
    idx = ProgramIndex(p)
    init = initial_state(p)
    zero = (0,) * len(p.threads)
    reported: dict[tuple, RaceReport] = {}
    # keyed by identity: hashing an Instruction walks its whole command
    subjects = {id(i): subjects_of(i) for i in p.instructions}

    # vector clocks along the current path, updated by `expand` before it
    # yields a child and restored when the child's subtree is done
    thread_clock = [zero] * len(p.threads)
    lock_clock = {m: zero for m in p.locks}
    clocks: list[tuple[int, ...]] = []  # clocks[i]: clock of step i of the path

    def witness(path) -> Execution:
        steps, pre = [], init
        for tid, instr, choices, post in path:
            steps.append(Transition(tid, instr, choices, pre, post))
            pre = post
        return Execution(init, tuple(steps))

    def expand(state: StdState, path: list):
        k = len(path)
        for edge in successors(idx, state, std_step, havoc_values):
            t, instr, _, post = edge
            cmd = instr.command
            saved_thread, saved_lock = thread_clock[t], None
            vc = saved_thread
            if isinstance(cmd, Acquire):
                vc = tuple(map(max, vc, lock_clock[cmd.lock]))
            vc = vc[:t] + (vc[t] + 1,) + vc[t + 1:]
            thread_clock[t] = vc
            if isinstance(cmd, Release):
                saved_lock = lock_clock[cmd.lock]
                lock_clock[cmd.lock] = vc

            k_reads, k_writes = subjects[id(instr)]
            if k_reads or k_writes:
                for i, (prior_tid, prior_instr, _, _) in enumerate(path):
                    if prior_tid == t:
                        continue
                    if involving is not None and (
                        prior_instr is not involving and instr is not involving
                    ):
                        continue
                    i_reads, i_writes = subjects[id(prior_instr)]
                    conflict = _conflicts(i_reads, i_writes, k_reads, k_writes)
                    if not conflict:
                        continue
                    if clocks[i][prior_tid] <= vc[prior_tid]:
                        continue  # ordered by happens-before
                    for subject in sorted(conflict):
                        key = (prior_instr, instr, subject)
                        if key not in reported:
                            reported[key] = RaceReport(witness([*path, edge]), i, k, subject)
            clocks.append(vc)
            yield edge, post
            clocks.pop()
            thread_clock[t] = saved_thread
            if saved_lock is not None:
                lock_clock[cmd.lock] = saved_lock

    for _ in dfs(init, depth, budget, expand):
        pass
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


def _probe_program(p: Program, thread: str, location: int) -> tuple[Program, Instruction]:
    """Insert a dead-end `assume(true)` branch at `location` that reads every
    variable, the way an assertion registers its reads for race checking."""
    fresh = max(max(t.locations) for t in p.threads) + 1
    probe = Instruction(location, Assume(BoolLit(True)), fresh,
                        assert_reads=frozenset(p.variables))
    threads = []
    for t in p.threads:
        if t.name == thread:
            threads.append(Thread(t.name, t.body, t.entry, t.instructions + (probe,)))
        else:
            threads.append(t)
    return (
        Program(p.variables, p.locks, p.regions, tuple(threads), p.assertions),
        probe,
    )


def owned_vars_oracle(
    p: Program,
    thread: str,
    location: int,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> frozenset[str]:
    """Variables whose probe read at (thread, location) races in no execution
    explored up to the given depth.  Over-approximates the true owned set when
    the depth is too small to expose a race.

    One race search of the probed program decides every variable; `budget`
    bounds that one search, which walks the whole probed tree even when
    every variable races."""
    tindex = p.thread_index(thread)
    if location not in p.threads[tindex].locations:
        raise ValueError(f"location {location} is not in thread {thread!r}")
    probed, probe = _probe_program(p, thread, location)
    races = _find_races(probed, depth + 1, havoc_values, budget, instr_accesses,
                        involving=probe)
    return frozenset(p.variables) - {r.subject for r in races}


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
                instrs.append(Instruction(cur, Assign(rw, VarRef(region_var[r])), nxt))
                cur = nxt
            return cur

        for i in t.instructions:
            if isinstance(i.command, Assign):
                reads = sorted(vars_of_expr(i.command.expr))
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
                    instrs.append(Instruction(mid, Assign(lv, VarRef(v)), nxt))
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
        return BoolOp(b.op, _substitute_bool(b.left, mapping), _substitute_bool(b.right, mapping))
    if isinstance(b, NotExpr):
        return NotExpr(_substitute_bool(b.expr, mapping))
    return b


def _substitute_expr(e, mapping):
    if isinstance(e, VarRef):
        return VarRef(mapping.get(e.name, e.name))
    if isinstance(e, BinExpr):
        return BinExpr(e.op, _substitute_expr(e.left, mapping), _substitute_expr(e.right, mapping))
    if isinstance(e, ScaledExpr):
        return ScaledExpr(e.coef, _substitute_expr(e.expr, mapping))
    return e


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
