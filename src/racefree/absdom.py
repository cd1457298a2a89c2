"""Numerical abstract domains and the inter-thread mix operator.

Three domains share one operation surface:

- intervals (per-variable bounds), the value-set workhorse;
- octagons as tightly closed integer difference-bound matrices (+-x +-y <= c);
- explicit environment sets, a finite reference domain used as the exact
  collecting oracle at desk scale.

The mix operator is the join used at lock-acquire points: at variable
granularity it forgets all correlations between variables (cartesian
recombination); given a region partition it preserves correlations within
each region.  For the numerical domains mix is the meet over regions of
forgets of the join; for environment sets it is computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .lang import (
    BoolExpr,
    BoolLit,
    BoolOp,
    Cmp,
    Expr,
    NotExpr,
    eval_bool,
    eval_expr,
    havoc_slots,
    linear_terms,
)

INF = math.inf


class DomainError(Exception):
    pass


class _Bottom:
    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


# ---------------------------------------------------------------------------
# Linear guards (normalized assume conditions)


@dataclass(frozen=True)
class LinearAtom:
    """sum(coeffs[i] * var_i) <= bound, over variable indices."""

    coeffs: tuple[int, ...]
    bound: int


Guard = Union[tuple, LinearAtom]  # ('and'|'or', list[Guard]) | ('bool', bool) | atom


def _atom_from_cmp(op: str, left: Expr, right: Expr, var_index) -> Guard:
    lc, lk, lh = linear_terms(left)
    rc, rk, rh = linear_terms(right)
    if lh or rh:
        raise DomainError("havoc is not allowed in conditions")
    coeffs = [0] * len(var_index)
    for v, c in lc.items():
        coeffs[var_index[v]] += c
    for v, c in rc.items():
        coeffs[var_index[v]] -= c
    k = rk - lk  # sum coeffs*v <= k  encodes  left <= right
    coeffs_t = tuple(coeffs)

    def le(bound):
        return LinearAtom(coeffs_t, bound)

    def ge(bound):  # sum >= bound  ->  -sum <= -bound
        return LinearAtom(tuple(-c for c in coeffs_t), -bound)

    if all(c == 0 for c in coeffs_t):
        # constant comparison
        return ("bool", _CONST_CMP[op](0, k))
    if op == "<=":
        return le(k)
    if op == "<":
        return le(k - 1)
    if op == ">=":
        return ge(k)
    if op == ">":
        return ge(k + 1)
    if op == "==":
        return ("and", [le(k), ge(k)])
    if op == "!=":
        return ("or", [le(k - 1), ge(k + 1)])
    raise DomainError(f"unknown comparison {op!r}")


_CONST_CMP = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def guard_of(b: BoolExpr, var_index: dict[str, int], negate: bool = False) -> Guard:
    """Negation-normal guard tree of atoms, conjunctions and disjunctions."""
    if isinstance(b, BoolLit):
        return ("bool", b.value != negate)
    if isinstance(b, NotExpr):
        return guard_of(b.expr, var_index, not negate)
    if isinstance(b, BoolOp):
        kids = [guard_of(b.left, var_index, negate), guard_of(b.right, var_index, negate)]
        if (b.op == "&&") != negate:
            return ("and", kids)
        return ("or", kids)
    if isinstance(b, Cmp):
        op = b.op
        if negate:
            op = {"==": "!=", "!=": "==", "<": ">=", "<=": ">",
                  ">": "<=", ">=": "<"}[op]
        return _atom_from_cmp(op, b.left, b.right, var_index)
    raise DomainError(f"not a condition: {b!r}")


# ---------------------------------------------------------------------------
# Elements


@dataclass(frozen=True)
class IntervalElem:
    """Per-variable [lo, hi] bounds: Python ints of magnitude at most 2^52,
    or +-inf for missing bounds."""

    bounds: tuple[tuple[float, float], ...]


_EXACT = 2 ** 52  # bounds stay within this magnitude, where floats are exact too


def _outward(lo, hi) -> tuple[float, float]:
    """Send a bound beyond +-2^52 outward to +-inf; never round it."""
    return (lo if -_EXACT <= lo <= _EXACT else -INF,
            hi if -_EXACT <= hi <= _EXACT else INF)


def _expr_range(bounds, var_index, coeffs: dict[str, int], const: int):
    """Range of const + sum(coeffs[v] * v) over per-variable [lo, hi] bounds."""
    lo = hi = const
    for v, c in coeffs.items():
        vl, vh = bounds[var_index[v]]
        lo += c * vl if c > 0 else c * vh
        hi += c * vh if c > 0 else c * vl
    return lo, hi


def _refine_bounds(bounds, atom: LinearAtom) -> Optional[list]:
    """Per-variable bounds tightened by `atom`, each variable bounded by the
    range of the other terms; None when no point satisfies it.  Finite sums
    and quotients stay in exact integer arithmetic, and a new bound beyond
    +-2^52 goes outward to +-inf."""
    bounds = list(bounds)
    lows = []
    for i, c in enumerate(atom.coeffs):
        if c == 0:
            lows.append(0)
            continue
        lo, hi = bounds[i]
        lows.append(c * lo if c > 0 else c * hi)
    if sum(lows) > atom.bound:
        return None
    for i, c in enumerate(atom.coeffs):
        if c == 0:
            continue
        rest_lo = sum(lows[j] for j in range(len(lows)) if j != i)
        limit = atom.bound - rest_lo  # c * v_i <= limit
        if not math.isfinite(limit):
            continue
        lo, hi = bounds[i]
        if c > 0:
            hi = min(hi, limit // c)
        else:
            lo = max(lo, -(-limit // c))  # ceil(limit / c)
        if lo > hi:
            return None
        bounds[i] = _outward(lo, hi)
    return bounds


def _apply_guard(dom, d, g: Guard):
    """Refine `d` by a guard tree: atoms through `dom._apply_atom`, a
    disjunction as the join of its refined branches."""
    if d is BOTTOM:
        return BOTTOM
    if isinstance(g, LinearAtom):
        return dom._apply_atom(d, g)
    tag = g[0]
    if tag == "bool":
        return d if g[1] else BOTTOM
    if tag == "and":
        for kid in g[1]:
            d = _apply_guard(dom, d, kid)
        return d
    out = BOTTOM
    for kid in g[1]:
        out = dom.join(out, _apply_guard(dom, d, kid))
    return out


def _bound_constraints(variables, bounds) -> list[str]:
    """Constraint strings of per-variable [lo, hi] bounds."""
    out = []
    for v, (lo, hi) in zip(variables, bounds):
        if lo == hi:
            out.append(f"{v} = {int(lo)}")
            continue
        if lo != -INF:
            out.append(f"{v} >= {int(lo)}")
        if hi != INF:
            out.append(f"{v} <= {int(hi)}")
    return out


_NOT_CLOSED = object()  # OctElem.closure before the first closure


class OctElem:
    """Difference-bound matrix over {+v, -v}; m[i][j] bounds V_j - V_i.

    Literal 2k is +v_k, literal 2k+1 is -v_k.  Stored matrices are tightly
    closed except directly after widening (closure there would break the
    termination guarantee); operations close lazily.

    An unclosed element caches its closure in `closure`: the closed element,
    or None when unsatisfiable, filled by `OctagonDomain._closed` on first
    use (`_NOT_CLOSED` until then).  The element is immutable, so the cache
    never goes stale.  The unclosed matrix `m` itself is kept, and `closed`
    stays False: `widen` must read the widened bounds, not their closure, or
    widening may not terminate.  A closed element leaves `closure` unset
    rather than pointing to itself, so elements form no reference cycles.
    """

    __slots__ = ("m", "closed", "closure", "_bytes")

    def __init__(self, m: np.ndarray, closed: bool):
        m = np.asarray(m, dtype=float)
        m.setflags(write=False)
        self.m = m
        self.closed = closed
        self.closure = _NOT_CLOSED
        self._bytes = m.tobytes()

    def __eq__(self, other):
        return isinstance(other, OctElem) and self._bytes == other._bytes

    def __hash__(self):
        return hash(self._bytes)

    def __repr__(self):
        return f"OctElem(closed={self.closed})"


def is_bottom(d) -> bool:
    """Whether a domain element, or the element of a `RecencyFact`, is bottom."""
    if isinstance(d, RecencyFact):
        d = d.elem
    return d is BOTTOM or (isinstance(d, frozenset) and not d)


# ---------------------------------------------------------------------------
# Interval domain


class IntervalDomain:
    kind = "interval"

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.n = len(self.variables)

    # lattice

    def top(self) -> IntervalElem:
        return IntervalElem(((-INF, INF),) * self.n)

    def bottom(self):
        return BOTTOM

    def initial(self) -> IntervalElem:
        return IntervalElem(((0, 0),) * self.n)

    def _check(self, d):
        if d is BOTTOM or isinstance(d, IntervalElem):
            return
        raise DomainError(f"interval domain got {type(d).__name__}")

    def leq(self, a, b) -> bool:
        self._check(a), self._check(b)
        if a is BOTTOM:
            return True
        if b is BOTTOM:
            return False
        return all(bl <= al and ah <= bh
                   for (al, ah), (bl, bh) in zip(a.bounds, b.bounds))

    def join(self, a, b):
        self._check(a), self._check(b)
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        return IntervalElem(tuple(
            (min(al, bl), max(ah, bh))
            for (al, ah), (bl, bh) in zip(a.bounds, b.bounds)))

    def meet(self, a, b):
        self._check(a), self._check(b)
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        out = []
        for (al, ah), (bl, bh) in zip(a.bounds, b.bounds):
            lo, hi = max(al, bl), min(ah, bh)
            if lo > hi:
                return BOTTOM
            out.append((lo, hi))
        return IntervalElem(tuple(out))

    def widen(self, a, b):
        """Bounds unstable from a to b go to +-inf; applied as a widen (a join b)."""
        self._check(a), self._check(b)
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        if self.leq(b, a):
            return a
        b = self.join(a, b)
        return IntervalElem(tuple(
            (al if al <= bl else -INF, ah if bh <= ah else INF)
            for (al, ah), (bl, bh) in zip(a.bounds, b.bounds)))

    def equal(self, a, b) -> bool:
        return a == b

    # transfer

    def assign(self, d, var: str, e: Expr):
        self._check(d)
        if d is BOTTOM:
            return BOTTOM
        vi = self.var_index[var]
        if havoc_slots(e):
            rng = (-INF, INF)
        else:
            coeffs, const, _ = linear_terms(e)
            rng = _outward(*_expr_range(d.bounds, self.var_index, coeffs, const))
        return IntervalElem(tuple(
            rng if k == vi else bd for k, bd in enumerate(d.bounds)))

    def forget(self, d, variables: Iterable[str]):
        self._check(d)
        if d is BOTTOM:
            return BOTTOM
        drop = {self.var_index[v] for v in variables}
        return IntervalElem(tuple(
            (-INF, INF) if k in drop else bd for k, bd in enumerate(d.bounds)))

    def _apply_atom(self, d: IntervalElem, atom: LinearAtom):
        bounds = _refine_bounds(d.bounds, atom)
        return BOTTOM if bounds is None else IntervalElem(tuple(bounds))

    def assume(self, d, b: BoolExpr):
        self._check(d)
        return _apply_guard(self, d, guard_of(b, self.var_index))

    def mix(self, elems: Sequence, partition: Sequence[Sequence[int]]):
        if not elems:
            raise DomainError("mix of an empty list")
        j = BOTTOM
        for e in elems:
            j = self.join(j, e)
        return j  # intervals carry no correlations; any-granularity mix = join

    # inspection

    def entails(self, d, b: BoolExpr) -> bool:
        return is_bottom(self.assume(d, NotExpr(b)))

    def constraints(self, d) -> list[str]:
        if d is BOTTOM:
            return ["false"]
        return _bound_constraints(self.variables, d.bounds)

    def contains_points(self, d, pts: np.ndarray) -> np.ndarray:
        if d is BOTTOM:
            return np.zeros(len(pts), dtype=bool)
        lo = np.array([b[0] for b in d.bounds])
        hi = np.array([b[1] for b in d.bounds])
        return ((pts >= lo) & (pts <= hi)).all(axis=1)


# ---------------------------------------------------------------------------
# Octagon domain


def _bar(i: int) -> int:
    return i ^ 1


class OctagonDomain:
    kind = "octagon"

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.n = len(self.variables)
        self.size = 2 * self.n
        self._sum_limit = _EXACT / max(self.size, 1)
        # literal signs: row per literal over variables (+1 at 2k, -1 at 2k+1)
        signs = np.zeros((self.size, self.n))
        for k in range(self.n):
            signs[2 * k, k] = 1.0
            signs[2 * k + 1, k] = -1.0
        self._signs = signs

    def _check(self, d):
        if d is BOTTOM or isinstance(d, OctElem):
            return
        raise DomainError(f"octagon domain got {type(d).__name__}")

    # construction / closure

    def top(self) -> OctElem:
        m = np.full((self.size, self.size), INF)
        np.fill_diagonal(m, 0.0)
        return OctElem(m, closed=True)

    def bottom(self):
        return BOTTOM

    def initial(self) -> OctElem:
        d = self.top()
        m = d.m.copy()
        for k in range(self.n):
            m[2 * k + 1, 2 * k] = 0.0  # v_k <= 0
            m[2 * k, 2 * k + 1] = 0.0  # -v_k <= 0
        return self._close_matrix(m) or self.top()

    def _close_matrix(self, m: np.ndarray) -> Optional[OctElem]:
        """Tight closure for integer octagons; None when unsatisfiable.

        Bounds beyond `_sum_limit` are dropped first.  Closure adds entries
        along paths of fewer than `size` edges, so every sum it forms then
        stays below 2^53 in magnitude, where floats are exact integers."""
        m = np.where(np.abs(m) <= self._sum_limit, m, INF)
        np.fill_diagonal(m, 0.0)
        size = self.size
        for k in range(size):
            np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :], out=m)
        if np.any(np.diagonal(m) < 0):
            return None
        # integer tightening of unary bounds, then one strengthening pass
        idx = np.arange(size)
        unary = m[idx, idx ^ 1]
        finite = np.isfinite(unary)
        unary[finite] = 2.0 * np.floor(unary[finite] / 2.0)
        m[idx, idx ^ 1] = unary
        half = (m[idx, idx ^ 1][:, None] + m[idx ^ 1, idx][None, :]) / 2.0
        np.minimum(m, half, out=m)
        np.fill_diagonal(m, 0.0)
        if np.any(m[idx, idx ^ 1] + m[idx ^ 1, idx] < 0):
            return None
        return OctElem(m, closed=True)

    def _closed(self, d: OctElem) -> Optional[OctElem]:
        if d.closed:
            return d
        if d.closure is _NOT_CLOSED:
            d.closure = self._close_matrix(d.m)
        return d.closure

    # lattice

    def leq(self, a, b) -> bool:
        self._check(a), self._check(b)
        if a is BOTTOM:
            return True
        a = self._closed(a)
        if a is None:
            return True
        if b is BOTTOM:
            return False
        b = self._closed(b)
        if b is None:
            return False
        return bool(np.all(a.m <= b.m))

    def join(self, a, b):
        self._check(a), self._check(b)
        if a is BOTTOM:
            return b if b is BOTTOM else (self._closed(b) or BOTTOM)
        if b is BOTTOM:
            return self._closed(a) or BOTTOM
        ca, cb = self._closed(a), self._closed(b)
        if ca is None:
            return cb or BOTTOM
        if cb is None:
            return ca
        return OctElem(np.maximum(ca.m, cb.m), closed=True)

    def meet(self, a, b):
        self._check(a), self._check(b)
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        out = self._close_matrix(np.minimum(a.m, b.m))
        return out if out is not None else BOTTOM

    def widen(self, a, b):
        """Entrywise: keep stable bounds, drop unstable ones to +inf.

        The result is deliberately left unclosed; closing a widened matrix
        can reintroduce bounds and defeat termination.
        """
        self._check(a), self._check(b)
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        if self.leq(b, a):
            return a
        cb = self._closed(self.join(a, b))
        w = np.where(cb.m <= a.m, a.m, INF)
        np.fill_diagonal(w, 0.0)
        return OctElem(w, closed=False)

    def equal(self, a, b) -> bool:
        if a is BOTTOM or b is BOTTOM:
            return (a is BOTTOM) == (b is BOTTOM)
        ca, cb = self._closed(a), self._closed(b)
        if ca is None or cb is None:
            return (ca is None) == (cb is None)
        return ca == cb

    # constraint helpers

    def _with_entries(self, m: np.ndarray, entries) -> np.ndarray:
        for i, j, c in entries:
            if c < m[i, j]:
                m[i, j] = c
        return m

    def _unary_entries(self, vi: int, lo: float, hi: float):
        out = []
        if hi != INF:
            out.append((2 * vi + 1, 2 * vi, 2 * hi))  # v <= hi
        if lo != -INF:
            out.append((2 * vi, 2 * vi + 1, -2 * lo))  # -v <= -lo
        return out

    def intervals_of(self, d: OctElem) -> tuple[tuple[float, float], ...]:
        c = self._closed(d)
        if c is None:
            raise DomainError("intervals of bottom")
        out = []
        for k in range(self.n):
            # closed unary entries are even: twice the bound
            hi = c.m[2 * k + 1, 2 * k]
            lo = c.m[2 * k, 2 * k + 1]
            out.append((-(int(lo) // 2) if math.isfinite(lo) else -INF,
                        int(hi) // 2 if math.isfinite(hi) else INF))
        return tuple(out)

    def _forget_matrix(self, m: np.ndarray, drop: set[int]) -> np.ndarray:
        m = m.copy()
        lits = [l for v in drop for l in (2 * v, 2 * v + 1)]
        m[lits, :] = INF
        m[:, lits] = INF
        np.fill_diagonal(m, 0.0)
        return m

    def forget(self, d, variables: Iterable[str]):
        self._check(d)
        if d is BOTTOM:
            return BOTTOM
        c = self._closed(d)
        if c is None:
            return BOTTOM
        drop = {self.var_index[v] for v in variables}
        if not drop:
            return c
        return OctElem(self._forget_matrix(c.m, drop), closed=True)

    # transfer

    def assign(self, d, var: str, e: Expr):
        self._check(d)
        if d is BOTTOM:
            return BOTTOM
        c = self._closed(d)
        if c is None:
            return BOTTOM
        vi = self.var_index[var]
        if havoc_slots(e):
            return self.forget(c, [var])
        coeffs, const, _ = linear_terms(e)
        coeffs = {v: k for v, k in coeffs.items() if k != 0}

        if not coeffs:  # x := const
            m = self._forget_matrix(c.m, {vi})
            self._with_entries(m, self._unary_entries(vi, const, const))
            return self._close_matrix(m) or BOTTOM

        if set(coeffs) == {var} and coeffs[var] in (1, -1):
            # invertible self-update x := +-x + const
            m = c.m.copy()
            pos, neg = 2 * vi, 2 * vi + 1
            if coeffs[var] == -1:
                m[[pos, neg], :] = m[[neg, pos], :]
                m[:, [pos, neg]] = m[:, [neg, pos]]
            # shift x by const: bounds on (V_j - x) shrink, on (x - V_j) grow
            m[pos, :] -= const
            m[:, pos] += const
            m[neg, :] += const
            m[:, neg] -= const
            np.fill_diagonal(m, 0.0)
            return self._close_matrix(m) or BOTTOM

        if len(coeffs) == 1:
            (y, k), = coeffs.items()
            if y != var and k in (1, -1):
                # x := +-y + const, exact
                m = self._forget_matrix(c.m, {vi})
                yi = self.var_index[y]
                if k == 1:  # x - y = const
                    self._with_entries(m, [
                        (2 * yi, 2 * vi, const), (2 * vi, 2 * yi, -const),
                        (2 * vi + 1, 2 * yi + 1, const), (2 * yi + 1, 2 * vi + 1, -const),
                    ])
                else:  # x + y = const
                    self._with_entries(m, [
                        (2 * yi + 1, 2 * vi, const), (2 * vi, 2 * yi + 1, -const),
                        (2 * vi + 1, 2 * yi, const), (2 * yi, 2 * vi + 1, -const),
                    ])
                return self._close_matrix(m) or BOTTOM

        # general linear fallback: interval bounds plus unit-coefficient
        # pairwise relations, all computed on the pre-state
        ivals = self.intervals_of(c)
        rng = _outward(*_expr_range(ivals, self.var_index, coeffs, const))
        pair_entries = []
        for y, k in coeffs.items():
            if y == var or k not in (1, -1):
                continue
            rest = dict(coeffs)
            del rest[y]
            rlo, rhi = _outward(*_expr_range(ivals, self.var_index, rest, const))
            yi = self.var_index[y]
            if k == 1:  # x - y in [rlo, rhi]
                if rhi != INF:
                    pair_entries.append((2 * yi, 2 * vi, rhi))
                    pair_entries.append((2 * vi + 1, 2 * yi + 1, rhi))
                if rlo != -INF:
                    pair_entries.append((2 * vi, 2 * yi, -rlo))
                    pair_entries.append((2 * yi + 1, 2 * vi + 1, -rlo))
            else:  # x + y in [rlo, rhi]
                if rhi != INF:
                    pair_entries.append((2 * yi + 1, 2 * vi, rhi))
                    pair_entries.append((2 * vi + 1, 2 * yi, rhi))
                if rlo != -INF:
                    pair_entries.append((2 * vi, 2 * yi + 1, -rlo))
                    pair_entries.append((2 * yi, 2 * vi + 1, -rlo))
        m = self._forget_matrix(c.m, {vi})
        self._with_entries(m, self._unary_entries(vi, rng[0], rng[1]))
        self._with_entries(m, pair_entries)
        return self._close_matrix(m) or BOTTOM

    def _atom_entries(self, atom: LinearAtom):
        """Octagon-exact entries for an atom, or None when not expressible
        (a bound beyond +-2^52 is not: floats might round it)."""
        if abs(atom.bound) > _EXACT:
            return None
        nz = [(i, c) for i, c in enumerate(atom.coeffs) if c != 0]
        if len(nz) == 1:
            (i, c), = nz
            if c == 1:
                return [(2 * i + 1, 2 * i, 2 * atom.bound)]
            if c == -1:
                return [(2 * i, 2 * i + 1, 2 * atom.bound)]
        if len(nz) == 2:
            (i, ci), (j, cj) = nz
            b = atom.bound
            if (ci, cj) == (1, -1):  # v_i - v_j <= b
                return [(2 * j, 2 * i, b), (2 * i + 1, 2 * j + 1, b)]
            if (ci, cj) == (-1, 1):
                return [(2 * i, 2 * j, b), (2 * j + 1, 2 * i + 1, b)]
            if (ci, cj) == (1, 1):
                return [(2 * j + 1, 2 * i, b), (2 * i + 1, 2 * j, b)]
            if (ci, cj) == (-1, -1):
                return [(2 * i, 2 * j + 1, b), (2 * j, 2 * i + 1, b)]
        return None

    def _apply_atom(self, d, atom: LinearAtom):
        if d is BOTTOM:
            return BOTTOM
        entries = self._atom_entries(atom)
        if entries is not None:
            m = d.m.copy()
            self._with_entries(m, entries)
            return self._close_matrix(m) or BOTTOM
        # interval fallback for other atoms
        bounds = _refine_bounds(self.intervals_of(d), atom)
        if bounds is None:
            return BOTTOM
        m = d.m.copy()
        for i, (lo, hi) in enumerate(bounds):
            self._with_entries(m, self._unary_entries(i, lo, hi))
        return self._close_matrix(m) or BOTTOM

    def assume(self, d, b: BoolExpr):
        self._check(d)
        if d is BOTTOM:
            return BOTTOM
        c = self._closed(d)
        if c is None:
            return BOTTOM
        return _apply_guard(self, c, guard_of(b, self.var_index))

    def mix(self, elems: Sequence, partition: Sequence[Sequence[int]]):
        """Meet over regions of forgets of the join: keeps constraints within
        each region of the joined input, drops all cross-region relations."""
        if not elems:
            raise DomainError("mix of an empty list")
        j = BOTTOM
        for e in elems:
            j = self.join(j, e)
        if j is BOTTOM:
            return BOTTOM
        region_of = np.full(self.n, -1)
        for r, vs in enumerate(partition):
            region_of[list(vs)] = r
        if np.any(region_of < 0):
            raise DomainError("the partition leaves a variable out")
        lit_region = np.repeat(region_of, 2)  # literals 2k, 2k+1 share v_k's region
        m = np.where(lit_region[:, None] == lit_region[None, :], j.m, INF)
        np.fill_diagonal(m, 0.0)
        return self._close_matrix(m) or BOTTOM

    # inspection

    def entails(self, d, b: BoolExpr) -> bool:
        return is_bottom(self.assume(d, NotExpr(b)))

    def constraints(self, d) -> list[str]:
        if d is BOTTOM:
            return ["false"]
        c = self._closed(d)
        if c is None:
            return ["false"]
        ivals = self.intervals_of(c)
        out = _bound_constraints(self.variables, ivals)
        for a in range(self.n):
            for b in range(a + 1, self.n):
                va, vb = self.variables[a], self.variables[b]
                dab = c.m[2 * b, 2 * a]      # va - vb <= c
                dba = c.m[2 * a, 2 * b]      # vb - va <= c
                sab = c.m[2 * b + 1, 2 * a]  # va + vb <= c
                sba = c.m[2 * a, 2 * b + 1]  # -va - vb <= c
                ia, ib = ivals[a], ivals[b]
                point = ia[0] == ia[1] and ib[0] == ib[1]
                if math.isfinite(dab) and dab == -dba:
                    if not point:
                        if dab == 0:
                            out.append(f"{va} = {vb}")
                        else:
                            out.append(f"{va} = {vb} {'+' if dab > 0 else '-'} {int(abs(dab))}")
                else:
                    if math.isfinite(dab) and not (ia[1] != INF and ib[0] != -INF
                                                   and ia[1] - ib[0] <= dab):
                        out.append(f"{va} - {vb} <= {int(dab)}")
                    if math.isfinite(dba) and not (ib[1] != INF and ia[0] != -INF
                                                   and ib[1] - ia[0] <= dba):
                        out.append(f"{vb} - {va} <= {int(dba)}")
                if math.isfinite(sab) and sab == -sba:
                    if not point:
                        out.append(f"{va} + {vb} = {int(sab)}")
                else:
                    if math.isfinite(sab) and not (ia[1] != INF and ib[1] != INF
                                                   and ia[1] + ib[1] <= sab):
                        out.append(f"{va} + {vb} <= {int(sab)}")
                    if math.isfinite(sba) and not (ia[0] != -INF and ib[0] != -INF
                                                   and -ia[0] - ib[0] <= sba):
                        out.append(f"{va} + {vb} >= {int(-sba)}")
        return out

    def contains_points(self, d, pts: np.ndarray) -> np.ndarray:
        if d is BOTTOM:
            return np.zeros(len(pts), dtype=bool)
        c = self._closed(d)
        if c is None:
            return np.zeros(len(pts), dtype=bool)
        lits = pts @ self._signs.T  # (N, 2n)
        diffs = lits[:, None, :] - lits[:, :, None]  # D[p,i,j] = lit_j - lit_i
        return (diffs <= c.m[None, :, :]).all(axis=(1, 2))


# ---------------------------------------------------------------------------
# Environment-set domain (exact, desk scale)


class EnvSetDomain:
    kind = "envset"

    def __init__(
        self,
        variables: Sequence[str],
        value_box: tuple[int, int] = (-4, 4),
        havoc_values: tuple[int, ...] = (0, 1, 2),
    ):
        self.variables = tuple(variables)
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.n = len(self.variables)
        self.box = value_box
        self.havoc_values = tuple(sorted(set(havoc_values)))
        self.clamped = False  # set when any environment left the box

    def _check(self, d):
        if d is BOTTOM or isinstance(d, frozenset):
            return
        raise DomainError(f"envset domain got {type(d).__name__}")

    def _norm(self, d):
        return frozenset() if d is BOTTOM else d

    def top(self):
        raise DomainError("environment-set top is not representable")

    def bottom(self):
        return frozenset()

    def initial(self):
        return frozenset({(0,) * self.n})

    def leq(self, a, b) -> bool:
        self._check(a), self._check(b)
        return self._norm(a) <= self._norm(b)

    def join(self, a, b):
        self._check(a), self._check(b)
        return self._norm(a) | self._norm(b)

    def meet(self, a, b):
        self._check(a), self._check(b)
        return self._norm(a) & self._norm(b)

    def widen(self, a, b):
        raise DomainError("the environment-set reference domain has no widening")

    def equal(self, a, b) -> bool:
        return self._norm(a) == self._norm(b)

    def _in_box(self, value: int) -> bool:
        return self.box[0] <= value <= self.box[1]

    def _filter(self, envs):
        kept = set()
        for env in envs:
            if all(self._in_box(v) for v in env):
                kept.add(env)
            else:
                self.clamped = True
        return frozenset(kept)

    def assign(self, d, var: str, e: Expr):
        self._check(d)
        d = self._norm(d)
        vi = self.var_index[var]
        out = set()
        slots = havoc_slots(e)
        for env in d:
            env_map = {v: env[i] for v, i in self.var_index.items()}
            for choices in product(self.havoc_values, repeat=slots):
                value = eval_expr(e, env_map, choices)
                out.add(tuple(value if k == vi else x for k, x in enumerate(env)))
        return self._filter(out)

    def assume(self, d, b: BoolExpr):
        self._check(d)
        d = self._norm(d)
        out = set()
        for env in d:
            env_map = {v: env[i] for v, i in self.var_index.items()}
            if eval_bool(b, env_map):
                out.add(env)
        return frozenset(out)

    def forget(self, d, variables: Iterable[str]):
        """Existential projection, re-materialized over the value box."""
        self._check(d)
        d = self._norm(d)
        drop = sorted(self.var_index[v] for v in variables)
        if not drop or not d:
            return d
        values = range(self.box[0], self.box[1] + 1)
        out = set()
        for env in d:
            for combo in product(values, repeat=len(drop)):
                e = list(env)
                for k, vi in enumerate(drop):
                    e[vi] = combo[k]
                out.add(tuple(e))
        return frozenset(out)

    def mix(self, elems: Sequence, partition: Sequence[Sequence[int]]):
        """Exact recombination: every environment agreeing per region with
        some input environment."""
        if not elems:
            raise DomainError("mix of an empty list")
        pool = set()
        for e in elems:
            self._check(e)
            pool |= self._norm(e)
        if not pool:
            return frozenset()
        projections = []
        for region in partition:
            projections.append(sorted({tuple(env[i] for i in region) for env in pool}))
        out = set()
        for combo in product(*projections):
            env = [0] * self.n
            for region, values in zip(partition, combo):
                for i, v in zip(region, values):
                    env[i] = v
            out.add(tuple(env))
        return frozenset(out)

    def product_closure(self, d):
        """Value-set collapse: the full product of per-variable value sets."""
        self._check(d)
        d = self._norm(d)
        if not d:
            return d
        return self.mix([d], [(i,) for i in range(self.n)])

    def entails(self, d, b: BoolExpr) -> bool:
        return self.equal(self.assume(d, NotExpr(b)), frozenset())

    def constraints(self, d) -> list[str]:
        if is_bottom(d):
            return ["false"]
        rows = sorted(self._norm(d))
        return ["{" + ", ".join(f"{v}={env[i]}" for v, i in
                                sorted(self.var_index.items(), key=lambda kv: kv[1]))
                + "}" for env in rows]

    def contains_points(self, d, pts: np.ndarray) -> np.ndarray:
        envs = self._norm(d)
        return np.array([tuple(int(x) for x in row) in envs for row in pts], dtype=bool)


# ---------------------------------------------------------------------------
# Recency (thread-identifier) wrapper


@dataclass(frozen=True)
class RecencyFact:
    """A domain element tagged with the threads that may have written since
    the fact was last confirmed fresh."""

    elem: object
    tids: frozenset[int]


def split_fact(fact) -> tuple[object, frozenset[int]]:
    """A fact's domain element and its writer tags (none when untagged)."""
    if isinstance(fact, RecencyFact):
        return fact.elem, fact.tids
    return fact, frozenset()


class RecencyDomain:
    """The recency refinement of `inner`, as seen by thread `tid`.

    Facts are `RecencyFact`s over the inner domain's elements.  A write by
    this thread tags it; assume and release keep the tags.  At an acquire,
    an incoming fact tagged only with this thread is stale, since it holds
    nothing that this thread has not already seen, and is dropped.  Every
    operation on elements goes to the inner domain.
    """

    def __init__(self, inner, tid: int):
        self.inner = inner
        self.tid = tid

    def initial(self) -> RecencyFact:
        return RecencyFact(self.inner.initial(), frozenset())

    def bottom(self) -> RecencyFact:
        return RecencyFact(self.inner.bottom(), frozenset())

    def join(self, a: RecencyFact, b: RecencyFact) -> RecencyFact:
        return RecencyFact(self.inner.join(a.elem, b.elem), a.tids | b.tids)

    def widen(self, a: RecencyFact, b: RecencyFact) -> RecencyFact:
        return RecencyFact(self.inner.widen(a.elem, b.elem), a.tids | b.tids)

    def leq(self, a: RecencyFact, b: RecencyFact) -> bool:
        return self.inner.leq(a.elem, b.elem) and a.tids <= b.tids

    def equal(self, a: RecencyFact, b: RecencyFact) -> bool:
        return self.inner.equal(a.elem, b.elem) and a.tids == b.tids

    def assign(self, d: RecencyFact, var: str, e: Expr) -> RecencyFact:
        return RecencyFact(self.inner.assign(d.elem, var, e), d.tids | {self.tid})

    def assume(self, d: RecencyFact, b: BoolExpr) -> RecencyFact:
        return RecencyFact(self.inner.assume(d.elem, b), d.tids)

    def mix(self, elems: Sequence[RecencyFact], partition) -> RecencyFact:
        """`elems` is this thread's own fact, then the facts arriving over
        sync edges; stale and bottom arrivals carry no tags into the mix."""
        own, *incoming = elems
        kept = [own] + [f for f in incoming
                        if not is_bottom(f.elem) and f.tids != {self.tid}]
        mixed = self.inner.mix([f.elem for f in kept], partition)
        if is_bottom(mixed):
            return self.bottom()
        return RecencyFact(mixed, frozenset().union(*(f.tids for f in kept)))

    def product_closure(self, d: RecencyFact) -> RecencyFact:
        return RecencyFact(self.inner.product_closure(d.elem), d.tids)


# ---------------------------------------------------------------------------
# Helpers


def singleton_partition(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(n))


def box_points(n_vars: int, box: tuple[int, int]) -> np.ndarray:
    """All integer points of box^n_vars as an (N, n_vars) array."""
    axis = np.arange(box[0], box[1] + 1)
    grids = np.meshgrid(*([axis] * n_vars), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
