"""Randomized element/command generators and point-set oracles.

The soundness oracles work inside a finite integer box: the concrete
post-image of gamma(d) within the box is computed by direct evaluation and
must be contained in gamma(transfer(d)).  Everything is seeded and
deterministic; the acceptance suite reruns these at high case counts.
"""

from __future__ import annotations

import math
import re
from itertools import product

import numpy as np

from racefree.absdom import (
    BOTTOM,
    EnvSetDomain,
    IntervalDomain,
    IntervalElem,
    OctagonDomain,
)
from racefree.lang import (
    HAVOC as HAVOC_ATOM,
    Assign,
    Assume,
    BoolLit,
    BoolOp,
    Cmp,
    Expr,
    NotExpr,
    eval_bool,
    eval_expr,
    parse_program,
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
