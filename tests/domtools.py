"""Randomized element/command generators and point-set oracles.

The soundness oracles work inside a finite integer box: the concrete
post-image of gamma(d) within the box is computed by direct evaluation and
must be contained in gamma(transfer(d)).  Everything is seeded and
deterministic; the acceptance suite reruns these at high case counts.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from dataclasses import dataclass, replace
from functools import cache
from itertools import product

import numpy as np

from racefree.absdom import (
    _NO_BOUND,
    BOTTOM,
    EnvSetDomain,
    IntervalDomain,
    IntervalElem,
    OctagonDomain,
    OctElem,
    is_bottom,
    _bound_constraints,
    split_fact,
)
from racefree import concrete, metacheck
from racefree.checker import must_hold_locksets
from racefree.concrete import reachable_states
from racefree.engine import WIDEN_DELAY, make_domain
from racefree.lang import (
    _KEYWORDS,
    _TOKEN_RE,
    HAVOC as HAVOC_ATOM,
    Acquire,
    AssertStmt,
    Assertion,
    Assign,
    Assume,
    BoolExpr,
    BoolLit,
    BoolOp,
    Cmp,
    Expr,
    NotExpr,
    ParseError,
    Program,
    Release,
    Thread,
    Token,
    access_sets,
    desugar,
    eval_bool,
    eval_expr,
    instr_accesses,
    parse_program,
    vars_of_bool,
)
from racefree.metacheck import CheckResult, _recording, _trace
from racefree.threadlocal import (
    InadmissibleStateError,
    LocalContext,
    ThreadLocalState,
    VersionedEnv,
    components,
    extract_state,
    initial_local_state,
    is_admissible,
    local_step,
)

BOX = (-4, 4)
HAVOC = (0, 1, 2)
INF = math.inf


def box_tuples(n):
    return list(product(range(BOX[0], BOX[1] + 1), repeat=n))


# ---------------------------------------------------------------------------
# expressions


def expr(text: str) -> Expr:
    """The expression `text` as the parser reads it."""
    names = sorted(set(re.findall(r"[A-Za-z_]\w*", text)) - {"havoc"}) or ["z"]
    p = parse_program(f"var {', '.join(names)}; thread t {{ {names[0]} := {text}; }}")
    return p.threads[0].body[0].expr


def binop(op: str, left: Expr, right: Expr) -> Expr:
    """`(left) op (right)` as the parser builds it: the leading group is
    spliced in, a group of one term unwrapped."""
    return Expr(left.terms + (_group(1 if op == "+" else -1, (), right),))


def scaled(k: int, e: Expr) -> Expr:
    """`k * (e)` as the parser builds it."""
    return Expr((_group(1, (k,), e),))


def _group(sign: int, factors: tuple, e: Expr) -> tuple:
    if len(e.terms) == 1:
        _, inner, atom = e.terms[0]
        return sign, factors + inner, atom
    return sign, factors, e


def chain(op: str, left, right) -> BoolOp:
    """`(left) op (right)` as the parser builds it."""
    args = left.args if isinstance(left, BoolOp) and left.op == op else (left,)
    return BoolOp(op, args + (right,))


# ---------------------------------------------------------------------------
# random elements


def rand_interval(dom: IntervalDomain, rng):
    if rng.random() < 0.05:
        return BOTTOM
    bounds = []
    for _ in range(dom.n):
        lo = rng.choice([-INF, *range(-6, 7)])
        hi = rng.choice([INF, *range(-6, 7)])
        if lo > hi:
            lo, hi = hi, lo
        bounds.append((lo, hi))
    return IntervalElem(tuple(bounds))


def rand_octagon(dom: OctagonDomain, rng):
    if rng.random() < 0.05:
        return BOTTOM
    m = dom.top().m.copy()
    for _ in range(rng.randint(0, 2 * dom.n + 2)):
        i = rng.randrange(2 * dom.n)
        j = rng.randrange(2 * dom.n)
        if i == j:
            continue
        c = rng.randint(-8, 8)
        m[i, j] = min(m[i, j], c)
        m[j ^ 1, i ^ 1] = min(m[j ^ 1, i ^ 1], c)  # keep coherence
    closed = dom._close_matrix(m)
    return closed if closed is not None else BOTTOM


def rand_envset(dom: EnvSetDomain, rng):
    k = rng.randint(0, 6)
    pts = box_tuples(dom.n)
    return frozenset(rng.sample(pts, min(k, len(pts))))


def rand_elem(dom, rng):
    if isinstance(dom, IntervalDomain):
        return rand_interval(dom, rng)
    if isinstance(dom, OctagonDomain):
        return rand_octagon(dom, rng)
    return rand_envset(dom, rng)


# ---------------------------------------------------------------------------
# random commands


def rand_expr(variables, rng, allow_havoc=True, depth=0):
    choices = ["const", "var", "sum", "scaled", "diff"]
    if allow_havoc:
        choices.append("havoc")
    kind = rng.choice(choices if depth < 2 else ["const", "var"])
    if kind == "const":
        return Expr.of(rng.randint(-3, 3))
    if kind == "var":
        return Expr.of(rng.choice(variables))
    if kind == "havoc":
        return Expr.of(HAVOC_ATOM)
    if kind == "scaled":
        return scaled(rng.choice((-2, -1, 2, 3)),
                      rand_expr(variables, rng, False, depth + 1))
    op = "+" if kind == "sum" else "-"
    return binop(op, rand_expr(variables, rng, allow_havoc, depth + 1),
                 rand_expr(variables, rng, allow_havoc, depth + 1))


def rand_cond(variables, rng, depth=0):
    if depth < 1 and rng.random() < 0.3:
        op = rng.choice(("&&", "||"))
        return chain(op, rand_cond(variables, rng, depth + 1),
                     rand_cond(variables, rng, depth + 1))
    if rng.random() < 0.1:
        return NotExpr(rand_cond(variables, rng, depth + 1))
    if rng.random() < 0.05:
        return BoolLit(rng.random() < 0.5)
    op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
    return Cmp(op, rand_expr(variables, rng, False, 1),
               rand_expr(variables, rng, False, 1))


def rand_command(variables, rng):
    if rng.random() < 0.5:
        return Assign(rng.choice(variables), rand_expr(variables, rng))
    return Assume(rand_cond(variables, rng))


# ---------------------------------------------------------------------------
# oracles


def concrete_post(variables, cmd, env_tuples):
    """Exact post-image of a command on a set of environments (havoc drawn
    from the finite pool)."""
    out = set()
    index = {v: i for i, v in enumerate(variables)}
    for env in env_tuples:
        env_map = dict(zip(variables, env))
        if isinstance(cmd, Assign):
            vi = index[cmd.var]
            for choices in product(HAVOC, repeat=len(cmd.expr.linear.havocs)):
                value = eval_expr(cmd.expr, env_map, choices)
                out.add(tuple(value if k == vi else x for k, x in enumerate(env)))
        else:
            if eval_bool(cmd.cond, env_map):
                out.add(env)
    return out


def concrete_mix(env_tuples, partition):
    """Region-granular recombination of a set of environments."""
    if not env_tuples:
        return set()
    n = max(max(r) for r in partition) + 1
    projections = [sorted({tuple(env[i] for i in region) for env in env_tuples})
                   for region in partition]
    out = set()
    for combo in product(*projections):
        env = [0] * n
        for region, values in zip(partition, combo):
            for i, v in zip(region, values):
                env[i] = v
        out.add(tuple(env))
    return out


def gamma_box(dom, d, pts):
    """gamma(d) restricted to the box, as a set of tuples."""
    mask = dom.contains_points(d, pts)
    return {tuple(int(x) for x in row) for row in pts[mask]}


def transfer_sound(dom, d, cmd, pts) -> bool:
    """concrete post of gamma(d) within the box  <=  gamma(transfer(d))."""
    pre = gamma_box(dom, d, pts)
    post = concrete_post(dom.variables, cmd, pre)
    post = {env for env in post
            if all(BOX[0] <= v <= BOX[1] for v in env)}
    if isinstance(cmd, Assign):
        out = dom.assign(d, cmd.var, cmd.expr)
    else:
        out = dom.assume(d, cmd.cond)
    return post <= gamma_box(dom, out, pts)


def mix_sound(dom, elems, partition, pts) -> bool:
    pool = set()
    for e in elems:
        pool |= gamma_box(dom, e, pts)
    want = concrete_mix(pool, partition)
    want = {env for env in want if all(BOX[0] <= v <= BOX[1] for v in env)}
    mixed = dom.mix(elems, partition)
    return want <= gamma_box(dom, mixed, pts)


def rand_partition(n, rng):
    """Random partition of variable indices 0..n-1."""
    idx = list(range(n))
    rng.shuffle(idx)
    parts = []
    while idx:
        k = rng.randint(1, len(idx))
        parts.append(tuple(sorted(idx[:k])))
        idx = idx[k:]
    return tuple(parts)


def octagon_mix_loop(dom: OctagonDomain, elems, partition):
    """Reference octagon mix: the per-entry double loop that the NumPy
    region mask of OctagonDomain.mix replaced.  Kept as the test oracle."""
    j = BOTTOM
    for e in elems:
        j = dom.join(j, e)
    if j is BOTTOM:
        return BOTTOM
    region_of = {v: r for r, vs in enumerate(partition) for v in vs}
    m = dom.top().m.copy()
    for i in range(dom.size):
        for k in range(dom.size):
            if region_of[i // 2] == region_of[k // 2]:
                m[i, k] = j.m[i, k]
    return dom._close_matrix(m) or BOTTOM


def owned_static_reference(p) -> dict:
    """Reference static owned sets: for every (thread, location) and variable,
    a scan of every other thread's accesses, the per-location loop that the
    one-pass `checker.compute_owned_static` replaced.  Kept as the test
    oracle."""
    must = must_hold_locksets(p)
    accesses = {v: {} for v in p.variables}
    for t in p.threads:
        for i in t.instructions:
            reads, writes = instr_accesses(i)
            for v in reads | writes:
                accesses[v].setdefault(t.name, []).append(i)
    table = {}
    for t in p.threads:
        for loc in t.locations:
            owned = set()
            for v in p.variables:
                others = {tn: instrs for tn, instrs in accesses[v].items()
                          if tn != t.name}
                if not others:
                    owned.add(v)  # nobody else ever touches v
                    continue
                for m in must[(t.name, loc)]:
                    if all(m in must[(tn, i.source)]
                           for tn, instrs in others.items() for i in instrs):
                        owned.add(v)
                        break
            table[(t.name, loc)] = frozenset(owned)
    return table


def post_release_points_reference(p, lock=None) -> tuple[int, ...]:
    """Release targets of `lock` (of every lock when None), ascending: the
    per-lock scan of every instruction that the one-pass table
    `Program.release_points` replaced.  Kept apart from that table so the
    test oracle does not reuse the code it checks."""
    locs = []
    for t in p.threads:
        for i in t.instructions:
            if isinstance(i.command, Release) and (lock is None or i.command.lock == lock):
                locs.append(i.target)
    return tuple(sorted(locs))


def pre_acquire_points_reference(p, lock=None) -> tuple[int, ...]:
    """Acquire sources of `lock` (of every lock when None), ascending; the
    oracle of `Program.acquire_points`, kept apart for the same reason."""
    locs = []
    for t in p.threads:
        for i in t.instructions:
            if isinstance(i.command, Acquire) and (lock is None or i.command.lock == lock):
                locs.append(i.source)
    return tuple(sorted(locs))


def dependents_reference(p) -> dict[int, list[int]]:
    """Per post-release point, the acquire sources it feeds, grouped from
    the full sorted list of (release, acquire, lock) pairs as the engine
    grouped them before it read the per-lock tables."""
    edges = sorted((rel, acq, m) for m in p.locks
                   for rel in post_release_points_reference(p, m)
                   for acq in pre_acquire_points_reference(p, m))
    dependents: dict[int, list[int]] = {}
    for rel, acq, _m in edges:
        dependents.setdefault(rel, []).append(acq)
    return dependents


def forget_projected(dom, d, drop: set[str]):
    """Existential projection of `d` away from the variables `drop`: the
    per-domain `forget` that the assertion checker used to apply before
    discharging.  Kept as the test oracle."""
    if is_bottom(d):
        return d
    idx = {dom.var_index[v] for v in drop}
    if not idx:
        return d
    if isinstance(dom, IntervalDomain):
        return IntervalElem(tuple(
            (-INF, INF) if k in idx else bd for k, bd in enumerate(d.bounds)))
    if isinstance(dom, OctagonDomain):
        c = dom._closed(d)
        return c if is_bottom(c) else OctElem(dom._forget_matrix(c.m, idx), closed=True)
    # environment sets: every dropped variable re-materialized over the box
    values = range(dom.box[0], dom.box[1] + 1)
    order = sorted(idx)
    out = set()
    for env in d:
        for combo in product(values, repeat=len(order)):
            e = list(env)
            for k, vi in enumerate(order):
                e[vi] = combo[k]
            out.add(tuple(e))
    return frozenset(out)


def discharge_projected(p, facts, owned, cfg) -> list[tuple[bool, str]]:
    """Reference assertion discharge: (proved, reason) per assertion, with
    each fact projected onto the owned variables before `entails`, as the
    checker did before it read the fact as it is.  Kept as the test
    oracle."""
    dom = make_domain(cfg, p.variables)
    out = []
    for a in p.assertions:
        elem, _ = split_fact(facts[a.location])
        owned_here = owned.owned(a.thread, a.location)
        if not vars_of_bool(a.cond) <= owned_here:
            out.append((False, "unowned variable in condition"))
            continue
        projected = forget_projected(dom, elem, set(p.variables) - owned_here)
        proved = dom.entails(projected, a.cond)
        out.append((proved, "" if proved else "fact does not entail the condition"))
    return out


# ---------------------------------------------------------------------------
# random race-free programs


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
    havoc_values: tuple[int, ...] = concrete.DEFAULT_HAVOC,
) -> list[tuple[str, Program]]:
    """Deterministically generate small 2-3 thread programs that are race
    free by construction (each variable is either private to one thread or
    only ever accessed inside critical sections of one lock), then double-
    check with the bounded race detector (`concrete.find_data_races`, read
    at call time)."""
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
            if concrete.find_data_races(program, depth, havoc_values, budget=200_000):
                continue
        except concrete.ExplorationLimitError:
            continue
        out.append((f"rand_{seed}_{attempt - 1}", program))
    return out


# ---------------------------------------------------------------------------
# programs with bounds asserted at every release and thread end


def _bound(v: str, k: int) -> Cmp:
    return Cmp("<=", Expr.of(v), Expr.of(k))


def _reading(variables) -> BoolExpr:
    """A condition that reads exactly `variables`."""
    atoms = tuple(_bound(v, 0) for v in sorted(variables))
    if not atoms:
        return BoolLit(True)
    return atoms[0] if len(atoms) == 1 else BoolOp("&&", atoms)


def _asserted_body(body, readable_anywhere, readable_locked) -> tuple:
    """`body` with an assert before each release and at the end, each
    reading what the thread may read there without racing."""
    out, locked = [], False
    for s in body:
        if isinstance(s, Release):
            out.append(AssertStmt(_reading(readable_locked)))
            locked = False
        elif isinstance(s, Acquire):
            locked = True
        out.append(s)
    out.append(AssertStmt(_reading(readable_locked if locked else readable_anywhere)))
    return tuple(out)


@cache
def asserted_programs(count: int = 40, seed: int = 1) -> tuple[tuple[str, Program], ...]:
    """`count` loop-free race-free programs of `random_race_free_programs`,
    rebuilt with a true bound `v <= max` and a false bound `v <= max - 1`
    asserted, at every reachable assert point, on each variable the thread
    may read there without racing: anywhere, one no other thread writes;
    inside a lock section, one no other thread writes outside of one.
    `max` is taken over `reachable_states(q, len(q.instructions))`, which
    is exhaustive on a loop-free program: no execution takes more steps
    than there are instructions."""
    out = []
    for name, p in random_race_free_programs(count, seed):
        writes, free_writes = {}, {}  # thread -> variables written (outside a lock)
        for t in p.threads:
            writes[t.name], free_writes[t.name], locked = set(), set(), False
            for s in t.body:
                locked = isinstance(s, Acquire) or (locked and not isinstance(s, Release))
                _, written = access_sets(s)
                writes[t.name] |= written
                if not locked:
                    free_writes[t.name] |= written
        threads = []
        for t in p.threads:
            others = [u.name for u in p.threads if u is not t]
            anywhere = set(p.variables).difference(*(writes[u] for u in others))
            locked = set(p.variables).difference(*(free_writes[u] for u in others))
            threads.append(Thread(t.name, _asserted_body(t.body, anywhere, locked)))
        q = desugar(Program(p.variables, p.locks, p.regions, tuple(threads)))
        states = reachable_states(q, len(q.instructions))
        assertions = []
        for a in q.assertions:
            tid = q.thread_index(a.thread)
            here = [s.phi for s in states if s.pc[tid] == a.location]
            if not here:
                continue  # no execution reaches this point
            for v in sorted(vars_of_bool(a.cond)):
                top = max(phi[q.variables.index(v)] for phi in here)
                assertions += [Assertion(a.location, _bound(v, top), a.thread),
                               Assertion(a.location, _bound(v, top - 1), a.thread)]
        out.append((name, replace(q, assertions=tuple(assertions))))
    return tuple(out)


# ---------------------------------------------------------------------------
# happens-before of one execution


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


def happens_before(e: concrete.Execution) -> HappensBefore:
    """The vector clocks and the po and sw edges of one execution.  Kept for
    oracle independence, as `unreduced_clocked_walk` is kept beside
    `concrete.clocked_walk`: it is the reference of the walk's clocks and
    of the edges `concrete.format_execution` prints."""
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
# the unreduced clocked walk


def unreduced_clocked_walk(idx, depth, havoc_values, budget, table):
    """`concrete.clocked_walk` without its sleep sets: every node of the
    standard execution tree up to `depth`, with happens-before's vector
    clocks kept in lists along the path and undone after each child; the
    same `(state, path, thread clocks)` at each node, each path edge
    `(tid, instr, choices, post, clock)`.  The conflict `table` is taken
    for the signature and not read.  Kept for oracle independence, as
    `metacheck._mix_envs` is kept beside `EnvSetDomain.mix`: the race
    searches and the owned oracle, run over it by `unreduced`, are the
    reference of the reduced ones."""
    p = idx.program
    zero = (0,) * len(p.threads)
    thread_clock = [zero] * len(p.threads)
    lock_clock = [zero] * len(p.locks)

    def expand(state, path):
        for t, instr, choices, post in concrete.successors(idx, state, concrete.std_step,
                                                           havoc_values):
            cmd = instr.command
            lock = idx.lock_index[cmd.lock] if isinstance(cmd, (Acquire, Release)) else None
            saved_thread = vc = thread_clock[t]
            if isinstance(cmd, Acquire):
                vc = tuple(map(max, vc, lock_clock[lock]))
            vc = vc[:t] + (vc[t] + 1,) + vc[t + 1:]
            thread_clock[t] = vc
            if isinstance(cmd, Release):
                saved_lock = lock_clock[lock]
                lock_clock[lock] = vc
            yield (t, instr, choices, post, vc), post
            thread_clock[t] = saved_thread
            if isinstance(cmd, Release):
                lock_clock[lock] = saved_lock

    for state, path in concrete.dfs(concrete.initial_state(p), depth, budget, expand):
        yield state, path, tuple(thread_clock)


def conflicts(a_reads, a_writes, b_reads, b_writes) -> frozenset[str]:
    """The subjects on which two accesses conflict: one writes what the
    other reads or writes."""
    return (a_writes & (b_reads | b_writes)) | (b_writes & a_reads)


def conflict_table_reference(p, subjects_of) -> dict:
    """`concrete.conflict_table` as one `conflicts` call per ordered pair of
    instructions.  Kept for oracle independence, as `unreduced_clocked_walk`
    is kept beside `concrete.clocked_walk`: the one-pass symmetric table is
    checked against it."""
    accesses = {id(i): subjects_of(i) for i in p.instructions}
    return {a: {b: tuple(sorted(both)) for b, (b_reads, b_writes) in accesses.items()
                if (both := conflicts(a_reads, a_writes, b_reads, b_writes))}
            for a, (a_reads, a_writes) in accesses.items()}


def unreduced(search, *args, **kwargs):
    """`search(*args, **kwargs)` with `concrete.clocked_walk` replaced by
    `unreduced_clocked_walk`: the search, or the owned oracle, over every
    execution of the tree."""
    walk = concrete.clocked_walk
    concrete.clocked_walk = unreduced_clocked_walk
    try:
        return search(*args, **kwargs)
    finally:
        concrete.clocked_walk = walk


# ---------------------------------------------------------------------------
# the two-walk correspondence check


def two_way_correspondence(p, depth, havoc_values=concrete.DEFAULT_HAVOC,
                           budget=concrete.DEFAULT_BUDGET, local_step_fn=None) -> CheckResult:
    """`metacheck.check_correspondence` as two walks, without its race
    precondition: standard executions replayed in the thread-local
    semantics, then thread-local executions replayed in the standard
    semantics, each within `budget` nodes.  Kept for oracle independence,
    as `unreduced_clocked_walk` is kept beside `concrete.clocked_walk`: it
    is the reference of the one paired walk."""
    step_local = local_step_fn or local_step
    ctx = LocalContext(p)
    result = CheckResult("correspondence")

    # completeness: standard execution -> thread-local replay; a node is a
    # (standard state, thread-local state) pair
    def fwd(node, path):
        s, sigma = node
        for edge in concrete.successors(ctx, s, concrete.std_step, havoc_values):
            _, instr, choices, s2 = edge
            result.instances += 1
            try:
                match = [post for ch, post in step_local(p, sigma, instr, havoc_values, ctx)
                         if ch == choices]
                if not match:
                    problem = "standard step has no thread-local counterpart"
                elif extract_state(p, match[0]) != s2:
                    problem = "extraction differs from the standard state"
                else:
                    problem = None
            except InadmissibleStateError as e:
                problem = f"admissibility broken: {e}"
            if problem:
                result.fail(_trace(path, instr), problem)
            else:
                yield edge, (s2, match[0])

    # soundness: thread-local execution -> standard validity
    def bwd(sigma, path):
        try:
            s = extract_state(p, sigma)
        except InadmissibleStateError as e:
            result.fail(_trace(path), f"admissibility broken: {e}")
            return
        for edge in concrete.successors(ctx, sigma, _recording(step_local, path, result),
                                        havoc_values):
            _, instr, choices, sigma2 = edge
            result.instances += 1
            match = [s2 for ch, s2 in concrete.std_step(p, s, instr, havoc_values, ctx)
                     if ch == choices]
            try:
                if not match:
                    problem = "thread-local step disabled in the standard semantics"
                elif match[0] != extract_state(p, sigma2):
                    problem = "extraction differs from the standard state"
                else:
                    problem = None
            except InadmissibleStateError as e:
                problem = f"admissibility broken: {e}"
            if problem:
                result.fail(_trace(path, instr), problem)
            else:
                yield edge, sigma2

    init = initial_local_state(p, ctx)
    for _ in concrete.dfs((concrete.initial_state(p), init), depth, budget, fwd):
        pass
    for _ in concrete.dfs(init, depth, budget, bwd):
        pass
    return result


def version_invariants_reference(p, depth, owned, havoc_values=concrete.DEFAULT_HAVOC,
                                 budget=concrete.DEFAULT_BUDGET,
                                 local_step_fn=None) -> list[CheckResult]:
    """The version-invariant results of `metacheck.check_correspondence` as
    a walk of the thread-local tree of their own, without the race
    precondition, reading the owned-set oracle `owned`.  Kept for oracle
    independence, as `two_way_correspondence` is kept beside the paired
    walk: it is the reference of the one walk's invariant checks."""
    step_local = local_step_fn or local_step
    ctx = LocalContext(p)
    var_count = len(p.variables)
    var_index = ctx.var_index
    version_bound = CheckResult("version_bound")
    write_exact = CheckResult("write_version_exact")
    max_at_access = CheckResult("max_version_at_access")
    admissible = CheckResult("admissibility")
    owned_projection = CheckResult("owned_projection")

    def newest(sigma):
        return tuple(max(ve.versions[x] for ve in components(sigma))
                     for x in range(var_count))

    def check_state(sigma, writes, path):
        top = newest(sigma)
        version_bound.instances += 1
        for ve in components(sigma):
            for x in range(var_count):
                if ve.versions[x] > writes[x]:
                    version_bound.fail(_trace(path), f"version of {p.variables[x]} is "
                                       f"{ve.versions[x]} after {writes[x]} writes")
        admissible.instances += 1
        if not is_admissible(sigma):
            admissible.fail(_trace(path), "inadmissible reachable state")
        owned_projection.instances += 1
        for tid, t in enumerate(p.threads):
            for v in owned[t.name, sigma.pc[tid]]:
                x = var_index[v]
                if sigma.theta[tid].versions[x] != top[x]:
                    owned_projection.fail(
                        _trace(path), f"{t.name} owns {v} at {sigma.pc[tid]} but its "
                        f"version {sigma.theta[tid].versions[x]} is not the maximum {top[x]}")

    def expand(node, path):
        sigma, writes = node
        top = newest(sigma)
        for edge in concrete.successors(ctx, sigma, _recording(step_local, path, admissible),
                                        havoc_values):
            tid, instr, _, sigma2 = edge
            mine = sigma.theta[tid].versions
            max_at_access.instances += 1
            for v in sorted(set().union(*instr_accesses(instr))):
                x = var_index[v]
                if mine[x] != top[x]:
                    max_at_access.fail(_trace(path, instr),
                                       f"access of {v} with version {mine[x]} < max {top[x]}")
            writes2 = writes
            if isinstance(instr.command, Assign):
                var = instr.command.var
                x = var_index[var]
                writes2 = tuple(n + (k == x) for k, n in enumerate(writes))
                write_exact.instances += 1
                got = sigma2.theta[tid].versions[x]
                if got != writes2[x]:
                    write_exact.fail(_trace(path, instr), f"post-write version of {var} "
                                     f"is {got}, expected {writes2[x]}")
            yield edge, (sigma2, writes2)

    for (sigma, writes), path in concrete.dfs((initial_local_state(p, ctx), (0,) * var_count),
                                              depth, budget, expand):
        check_state(sigma, writes, path)
    return [version_bound, write_exact, max_at_access, admissible, owned_projection]


# ---------------------------------------------------------------------------
# the newest-version merge of an acquire, by recombination


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
    {ve} u others; a single environment when the inputs are admissible.
    Kept for oracle independence, as `two_way_correspondence` is kept
    beside the paired walk: it is the reference of `threadlocal.merge_newest`,
    the one merge of `local_step`'s acquire."""
    pool = (ve,) + tuple(others)
    per_var = [sorted(take_newest(i, pool)) for i in range(len(ve.values))]
    out = []
    for combo in product(*per_var):
        out.append(VersionedEnv(tuple(v for v, _ in combo), tuple(n for _, n in combo)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the dense local-abstraction check and the two-pass extraction


def _dense_alpha(p, ctx, states) -> dict[int, frozenset]:
    """`metacheck._alpha` with a set, empty or not, at every location."""
    out: dict[int, set] = {loc: set() for t in p.threads for loc in t.locations}
    for sigma in states:
        for tid in range(len(p.threads)):
            out[sigma.pc[tid]].add(sigma.theta[tid].values)
        for bi, loc in enumerate(ctx.buffer_points):
            out[loc].add(sigma.buffers[bi].values)
    return {loc: frozenset(envs) for loc, envs in out.items()}


def local_abstraction_reference(p, samples, seed, depth=8, havoc_values=HAVOC,
                                regions=None, budget=concrete.DEFAULT_BUDGET,
                                mix_fn=None) -> CheckResult:
    """`metacheck.check_local_abstraction` as every instruction stepped
    from every sampled state, with dense abstractions and the abstract
    transfer built for every pair.  Kept for oracle independence, as
    `two_way_correspondence` is kept beside the paired walk: it is the
    reference of the check that steps only enabled instructions.  The
    transfer is `metacheck._cartesian_transfer`, looked up at call time, so
    a stand-in installed there serves both."""
    ctx = LocalContext(p, regions=regions)
    if regions is None:
        partition = tuple((i,) for i in range(len(p.variables)))
    else:
        partition = regions.index_partition(p.variables)
    result = CheckResult("local_abstraction" + ("_regions" if regions is not None else ""))
    pool = concrete.reachable(ctx, initial_local_state(p, ctx), local_step, depth,
                              havoc_values, budget)
    rng = random.Random(seed)
    for case in range(samples):
        k = rng.randint(1, min(6, len(pool)))
        X = rng.sample(pool, k)
        alpha_x = _dense_alpha(p, ctx, X)
        for instr in p.instructions:
            post = [s2 for sigma in X
                    for _, s2 in local_step(p, sigma, instr, havoc_values, ctx)]
            result.instances += 1
            lhs = _dense_alpha(p, ctx, post) if post else {}
            rhs = metacheck._cartesian_transfer(ctx, instr, alpha_x, partition,
                                                havoc_values, mix_fn=mix_fn)
            for loc, envs in lhs.items():
                if not envs <= rhs.get(loc, frozenset()):
                    missing = sorted(envs - rhs.get(loc, frozenset()))[:3]
                    result.fail(
                        f"case {case} instr {instr.source}->{instr.target}",
                        f"abstraction not dominated at {loc}: missing {missing}",
                    )
                    break
    return result


def is_admissible_reference(s: ThreadLocalState) -> bool:
    """`threadlocal.is_admissible` as one version-to-value map per variable."""
    comps = s.theta + s.buffers
    n_vars = len(comps[0].values) if comps else 0
    for x in range(n_vars):
        seen: dict[int, int] = {}
        for ve in comps:
            ver, val = ve.versions[x], ve.values[x]
            if ver in seen and seen[ver] != val:
                return False
            seen[ver] = val
    return True


def extract_state_reference(p, s: ThreadLocalState) -> concrete.StdState:
    """`threadlocal.extract_state` as an admissibility pass and then one
    `take_newest` per variable.  Kept for oracle independence, as
    `two_way_correspondence` is kept beside the paired walk: it is the
    reference of the one-pass extraction."""
    if not is_admissible_reference(s):
        raise InadmissibleStateError("cannot extract from an inadmissible state")
    phi = [next(iter(take_newest(x, s.theta)))[0] for x in range(len(p.variables))]
    return concrete.StdState(pc=s.pc, mu=s.mu, phi=tuple(phi))


def enumerate_local_executions(p: Program, depth: int, havoc_values=HAVOC, ctx=None,
                               budget: int = concrete.DEFAULT_BUDGET):
    """Every thread-local execution of length <= depth, canonical order."""
    ctx = ctx or LocalContext(p)
    return concrete.executions(ctx, initial_local_state(p, ctx), local_step, depth,
                               havoc_values, budget)


def strip_locks(p: Program) -> Program:
    """`p` with every acquire and release turned into a no-op step (a true
    assume), so that the accesses they guarded race."""
    noop = Assume(BoolLit(True))
    threads = tuple(
        replace(t, instructions=tuple(
            replace(i, command=noop) if isinstance(i.command, (Acquire, Release)) else i
            for i in t.instructions))
        for t in p.threads)
    return replace(p, threads=threads)


# ---------------------------------------------------------------------------
# the lexer and the fact printer before their per-call costs were cut


def tokenize_reference(text: str) -> list:
    """The lexer that counted each token's column by advancing over every
    lexeme, the reference for `lang._tokenize`."""
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup == "num":
            tokens.append(Token("num", lexeme, line, col))
        elif m.lastgroup == "ident":
            kind = lexeme if lexeme in _KEYWORDS else "ident"
            tokens.append(Token(kind, lexeme, line, col))
        elif m.lastgroup == "op":
            tokens.append(Token(lexeme, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def octagon_constraints_reference(dom: OctagonDomain, d) -> list[str]:
    """The fact printer that read each matrix entry as a NumPy scalar, the
    reference for `OctagonDomain.constraints`."""
    c = dom._closed(d)
    if c is BOTTOM:
        return ["false"]
    ivals = dom.intervals_of(c)
    out = _bound_constraints(dom.variables, ivals)
    for a in range(dom.n):
        for b in range(a + 1, dom.n):
            va, vb = dom.variables[a], dom.variables[b]
            dab = c.m[2 * b, 2 * a]      # va - vb <= c
            dba = c.m[2 * a, 2 * b]      # vb - va <= c
            sab = c.m[2 * b + 1, 2 * a]  # va + vb <= c
            sba = c.m[2 * a, 2 * b + 1]  # -va - vb <= c
            ia, ib = ivals[a], ivals[b]
            point = ia[0] == ia[1] and ib[0] == ib[1]
            if dab != _NO_BOUND and dab == -dba:
                if not point:
                    if dab == 0:
                        out.append(f"{va} = {vb}")
                    else:
                        out.append(f"{va} = {vb} {'+' if dab > 0 else '-'} {int(abs(dab))}")
            else:
                if dab != _NO_BOUND and not ia[1] - ib[0] <= dab:
                    out.append(f"{va} - {vb} <= {int(dab)}")
                if dba != _NO_BOUND and not ib[1] - ia[0] <= dba:
                    out.append(f"{vb} - {va} <= {int(dba)}")
            if sab != _NO_BOUND and sab == -sba:
                if not point:
                    out.append(f"{va} + {vb} = {int(sab)}")
            else:
                if sab != _NO_BOUND and not ia[1] + ib[1] <= sab:
                    out.append(f"{va} + {vb} <= {int(sab)}")
                if sba != _NO_BOUND and not -ia[0] - ib[0] <= sba:
                    out.append(f"{va} + {vb} >= {int(-sba)}")
    return out


# ---------------------------------------------------------------------------
# the worklist solver before thread rounds


def fifo_solve_reference(frame) -> dict:
    """The engine's worklist loop before thread rounds: one FIFO over every
    thread's locations, a changed release point re-queuing every acquire of
    its lock at once, and every change of a widening point counted.  Kept
    here, not in the engine, for oracle independence: it is the order the
    thread-round solver (`engine._solve`) replaced, and without widening
    (environment sets) both must reach the same least fixpoint."""
    use_widening = frame.cfg.domain != "envset"
    facts = frame.initial_facts()
    worklist = deque(sorted(t.entry for t in frame.p.threads))
    queued = set(worklist)
    update_count: dict[int, int] = {}
    while worklist:
        loc = worklist.popleft()
        queued.discard(loc)
        for instr in frame.by_source.get(loc, ()):
            new = frame.transfer(instr, facts[loc], facts)
            if is_bottom(new):
                continue
            tgt = instr.target
            dom = frame.domain_at[tgt]
            cur = facts[tgt]
            joined = dom.join(cur, new)
            if use_widening and tgt in frame.widen_points:
                if update_count.get(tgt, 0) >= WIDEN_DELAY:
                    joined = dom.widen(cur, joined)
            if dom.equal(joined, cur):
                continue
            facts[tgt] = joined
            update_count[tgt] = update_count.get(tgt, 0) + 1
            for nxt in (tgt, *frame.dependents.get(tgt, ())):
                if nxt not in queued:
                    worklist.append(nxt)
                    queued.add(nxt)
    return facts
