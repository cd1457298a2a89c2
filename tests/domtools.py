"""Randomized element/command generators and point-set oracles.

The soundness oracles work inside a finite integer box: the concrete
post-image of gamma(d) within the box is computed by direct evaluation and
must be contained in gamma(transfer(d)).  Everything is seeded and
deterministic; the acceptance suite reruns these at high case counts.
"""

from __future__ import annotations

import math
import re
from dataclasses import replace
from functools import cache
from itertools import product

import numpy as np

from racefree.absdom import (
    BOTTOM,
    EnvSetDomain,
    IntervalDomain,
    IntervalElem,
    OctagonDomain,
    OctElem,
    is_bottom,
    split_fact,
)
from racefree import concrete
from racefree.checker import must_hold_locksets
from racefree.concrete import reachable_states
from racefree.engine import make_domain
from racefree.lang import (
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
    Program,
    Release,
    Thread,
    access_sets,
    desugar,
    eval_bool,
    eval_expr,
    instr_accesses,
    parse_program,
    vars_of_bool,
)
from racefree.metacheck import CheckResult, _recording, _trace, random_race_free_programs
from racefree.threadlocal import (
    InadmissibleStateError,
    LocalContext,
    extract_state,
    initial_local_state,
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
# the unreduced clocked walk


def unreduced_clocked_walk(idx, depth, havoc_values, budget, subjects_of):
    """`concrete.clocked_walk` without its sleep sets: every node of the
    standard execution tree up to `depth`, with happens-before's vector
    clocks kept along the path; `subjects_of` is taken for the signature
    and not read.  Kept for oracle independence, as `metacheck._mix_envs`
    is kept beside `EnvSetDomain.mix`: the race searches and the owned
    oracle, run over it by `unreduced`, are the reference of the reduced
    ones."""
    p = idx.program
    zero = (0,) * len(p.threads)
    thread_clock = [zero] * len(p.threads)
    lock_clock = [zero] * len(p.locks)
    clocks = []

    def expand(state, path):
        for edge in concrete.successors(idx, state, concrete.std_step, havoc_values):
            t, instr, _, post = edge
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
            clocks.append(vc)
            yield edge, post
            clocks.pop()
            thread_clock[t] = saved_thread
            if isinstance(cmd, Release):
                lock_clock[lock] = saved_lock

    for state, path in concrete.dfs(concrete.initial_state(p), depth, budget, expand):
        yield state, path, clocks, thread_clock


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
        for edge in concrete.successors(ctx, sigma, _recording(step_local, result, path),
                                        havoc_values):
            _, instr, choices, sigma2 = edge
            result.instances += 1
            match = [s2 for ch, s2 in concrete.std_step(p, s, instr, havoc_values, ctx)
                     if ch == choices]
            try:
                if not match:
                    problem = "thread-local step disabled in the standard semantics"
                elif match[0] != extract_state(p, sigma2):
                    problem = "standard successor disagrees with extraction"
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
