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
from typing import Optional, Sequence

import numpy as np

from .lang import (
    BoolExpr,
    Expr,
    Guard,
    LinearAtom,
    NotExpr,
    eval_bool,
    eval_expr,
)

INF = math.inf


class DomainError(Exception):
    pass


class _Bottom:
    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()


# ---------------------------------------------------------------------------
# Elements


@dataclass(frozen=True)
class IntervalElem:
    """Per-variable [lo, hi] bounds: exact Python ints of any magnitude, or
    +-inf for missing bounds."""

    bounds: tuple[tuple[float, float], ...]


def _expr_range(bounds, var_index, coeffs: dict[str, int], const: int):
    """Range of const + sum(coeffs[v] * v) over per-variable [lo, hi] bounds.
    An infinite bound makes its side infinite with no arithmetic: an int
    past 2^1024 met with a float infinity converts to float and overflows."""
    lo = hi = const
    for v, c in coeffs.items():
        vl, vh = bounds[var_index[v]]
        if c < 0:
            vl, vh = vh, vl  # the bounds giving the least and greatest c * v
        lo = -INF if lo == -INF or abs(vl) == INF else lo + c * vl
        hi = INF if hi == INF or abs(vh) == INF else hi + c * vh
    return lo, hi


def _refine_bounds(bounds, atom: LinearAtom, var_index) -> Optional[list]:
    """Per-variable bounds tightened by `atom`, each of its variables bounded
    by the range of its other terms; None when no point satisfies it.
    Finite sums and quotients stay in exact integer arithmetic."""
    bounds = list(bounds)
    terms = [(var_index[v], c) for v, c in atom.coeffs.items()]
    # the least value of each term c * v: an int, or -inf when unbounded
    lows = []
    for i, c in terms:
        lo, hi = bounds[i]
        least = lo if c > 0 else hi
        lows.append(-INF if abs(least) == INF else c * least)
    if -INF not in lows and sum(lows) > atom.bound:
        return None
    for k, (i, c) in enumerate(terms):
        rest = lows[:k] + lows[k + 1:]
        if -INF in rest:
            continue  # the other terms are unbounded below: no limit on v_i
        limit = atom.bound - sum(rest)  # c * v_i <= limit
        lo, hi = bounds[i]
        if c > 0:
            hi = min(hi, limit // c)
        else:
            lo = max(lo, -(-limit // c))  # ceil(limit / c)
        if lo > hi:
            return None
        bounds[i] = (lo, hi)
    return bounds


def _apply_guard(dom, d, g: Guard):
    """Refine `d` by a condition's guard view: atoms through
    `dom._apply_atom`, a disjunction as the join of its refined branches."""
    if d is BOTTOM:
        return BOTTOM
    if type(g) is LinearAtom:
        return dom._apply_atom(d, g)
    tag, arg = g
    if tag == "bool":
        return d if arg else BOTTOM
    if tag == "and":
        for kid in arg:
            d = _apply_guard(dom, d, kid)
        return d
    out = BOTTOM
    for kid in arg:
        out = dom.join(out, _apply_guard(dom, d, kid))
    return out


def _bound_constraints(variables, bounds) -> list[str]:
    """Constraint strings of per-variable [lo, hi] bounds."""
    out = []
    for v, (lo, hi) in zip(variables, bounds):
        if lo == hi:
            out.append(f"{v} = {_int_text(lo)}")
            continue
        if lo != -INF:
            out.append(f"{v} >= {_int_text(lo)}")
        if hi != INF:
            out.append(f"{v} <= {_int_text(hi)}")
    return out


def _int_text(n) -> str:
    """Decimal, or hex past the interpreter's limit on int/str digits."""
    try:
        return str(int(n))
    except ValueError:
        return hex(int(n))


_NOT_CLOSED = object()  # OctElem.closure before the first closure
_NO_BOUND = 2 ** 61  # an octagon matrix entry that bounds nothing


class OctElem:
    """Difference-bound matrix over {+v, -v}; m[i][j] bounds V_j - V_i.

    Literal 2k is +v_k, literal 2k+1 is -v_k, so literal i ^ 1 negates
    literal i, and a unit term k * v_i (k = +-1) is literal 2i + (k == -1).
    The constraint literal_i + literal_j <= b is the pair of entries
    m[j ^ 1][i] = m[i ^ 1][j] = b (`OctagonDomain._sum_entries`); a unary
    bound literal_i <= b is that with j = i and 2b.  Stored matrices are tightly
    closed except directly after widening (closure there would break the
    termination guarantee); operations close lazily.  Transfers and mix
    start from closed elements and close their results incrementally with
    `OctagonDomain._close_at`, pivoting only on the literals whose entries
    they lowered; a widened element takes the full closure.  Entries are
    exact int64 integers: a bound of magnitude at most `OctagonDomain._limit`,
    or `_NO_BOUND` for none.

    An unclosed element caches its closure in `closure`: the closed element,
    or BOTTOM when unsatisfiable, filled by `OctagonDomain._closed` on first
    use (`_NOT_CLOSED` until then).  The element is immutable, so the cache
    never goes stale.  The unclosed matrix `m` itself is kept, and `closed`
    stays False: `widen` must read the widened bounds, not their closure, or
    widening may not terminate.  A closed element leaves `closure` unset
    rather than pointing to itself, so elements form no reference cycles.
    """

    __slots__ = ("m", "closed", "closure", "_bytes")

    def __init__(self, m: np.ndarray, closed: bool):
        m = np.asarray(m, dtype=np.int64)
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
        for (al, ah), (bl, bh) in zip(a.bounds, b.bounds):
            if al < bl or ah > bh:
                return False
        return True

    def join(self, a, b):
        self._check(a), self._check(b)
        if a is BOTTOM:
            return b
        if b is BOTTOM or a is b:
            return a
        return IntervalElem(tuple([
            (bl if bl < al else al, bh if bh > ah else ah)
            for (al, ah), (bl, bh) in zip(a.bounds, b.bounds)]))

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
        return IntervalElem(tuple([
            (al if al <= bl else -INF, ah if bh <= ah else INF)
            for (al, ah), (bl, bh) in zip(a.bounds, b.bounds)]))

    def equal(self, a, b) -> bool:
        return a == b

    # transfer

    def assign(self, d, var: str, e: Expr):
        self._check(d)
        if d is BOTTOM:
            return BOTTOM
        vi = self.var_index[var]
        lin = e.linear
        if lin.havocs:
            rng = (-INF, INF)
        else:
            rng = _expr_range(d.bounds, self.var_index, lin.coeffs, lin.const)
        bounds = list(d.bounds)
        bounds[vi] = rng
        return IntervalElem(tuple(bounds))

    def _apply_atom(self, d: IntervalElem, atom: LinearAtom):
        bounds = _refine_bounds(d.bounds, atom, self.var_index)
        return BOTTOM if bounds is None else IntervalElem(tuple(bounds))

    def assume(self, d, b: BoolExpr):
        self._check(d)
        return _apply_guard(self, d, b.guard)

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


class OctagonDomain:
    """Octagons over `variables` as `OctElem` matrices, or BOTTOM.

    BOTTOM is the one encoding of the empty octagon: `_closed` maps an
    unsatisfiable element to it, so every operation closes its inputs and
    tests `is BOTTOM` only.  `mix` reads a literal mask per region
    partition from `_masks`, built on first use of the partition.
    """

    kind = "octagon"

    def __init__(self, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        self.n = len(self.variables)
        self.size = 2 * self.n
        self._limit = 2 ** 59 // max(self.size, 1)  # see `_close_at`
        # literal signs: row per literal over variables (+1 at 2k, -1 at 2k+1)
        self._signs = np.kron(np.eye(self.n, dtype=np.int64), [[1], [-1]])
        self._lits = np.arange(self.size)
        self._bars = self._lits ^ 1  # literal 2k+1 is the negation of 2k
        # flat indices into a matrix: the diagonal as a slice, and the unary
        # entries m[i, i ^ 1], twice the bound on -literal_i
        self._diag = slice(None, None, self.size + 1)
        self._unary = self._lits * self.size + self._bars
        self._masks: dict[tuple, np.ndarray] = {}  # partition -> region mask

    def _check(self, d):
        if d is BOTTOM or isinstance(d, OctElem):
            return
        raise DomainError(f"octagon domain got {type(d).__name__}")

    # construction / closure

    def top(self) -> OctElem:
        m = np.full((self.size, self.size), _NO_BOUND, dtype=np.int64)
        np.fill_diagonal(m, 0)
        return OctElem(m, closed=True)

    def bottom(self):
        return BOTTOM

    def initial(self) -> OctElem:
        # every variable is 0, so every difference or sum of literals is 0:
        # the all-zero matrix is already tightly closed
        return OctElem(np.zeros((self.size, self.size), dtype=np.int64), closed=True)

    def _close_matrix(self, m: np.ndarray) -> Optional[OctElem]:
        """Tight closure for integer octagons; None when unsatisfiable.  The
        shortest-path step takes every literal as a pivot; see `_close_at`
        for fewer and for the bounds of every number it forms.  `m` is left
        as it is (it may be a stored, read-only matrix): this closes a copy."""
        return self._close_at(np.array(m, dtype=np.int64), range(self.size))

    def _close_at(self, m: np.ndarray, pivots) -> Optional[OctElem]:
        """`_close_matrix(m)` with the shortest-path step over `pivots` only.

        Takes ownership of `m`, a writable C-ordered int64 matrix that the
        caller made for this call (a copy, a forget or a mask): it is closed
        in place and becomes the result's read-only matrix, or is left
        half-closed when the result is None.

        Precondition: `m` is a shortest-path-closed matrix M without
        negative cycles, lowered only at entries whose two endpoints are
        both pivots.  A closed element is such an M, and so are its forget,
        its shift by x := +-x + c, and the region mask of a join of closed
        elements.  Then any walk in `m` is no shorter than one whose inner
        literals are all pivots: a stretch of unlowered entries between two
        lowered ones, or before or after them, is no shorter than the direct
        entry of M, which `m` keeps or lowers, and a stretch that returns to
        its start is a cycle of M, so no shorter than 0.  Floyd-Warshall
        over the pivots finds the shortest such walks, hence the same
        distances, or the same negative cycle, as over every literal, and
        the tightening and strengthening that follow it are unchanged.

        The last step sets every entry beyond `_limit` to `_NO_BOUND`.  That
        keeps every int64 sum exact: each input entry is `_NO_BOUND` = 2^61
        or at most 2 * `_limit` = 2^60 / size in magnitude (closures end
        saturated, `_with_entries` stores bounds within `_limit` only, and a
        shift moves an entry by at most `_limit`).  Floyd-Warshall only
        lowers entries, so none exceeds 2^61 + 2^59.  While no negative cycle
        runs through the pivots taken so far, an entry is the length of a
        shortest walk, which repeats no literal, so it has fewer than `size`
        edges and is above -2^60.  A negative cycle is caught on the
        diagonal after the pivot that closes it, and the step returns then:
        iterated further, the entries along a negative cycle grow
        exponentially.  Every sum thus stays within +-2^63.  The saturation
        must end every closure, not only the first: entries that closure
        derives grow across successive closures, as along a chain of shifts.
        Since it raises entries, a saturated element breaks the precondition
        of later pivot closures, whose result is then weaker than the full
        closure, but still sound."""
        flat = m.ravel()  # a view: m is C-ordered
        flat[self._diag] = 0
        if pivots:
            for k in sorted(pivots):
                np.minimum(m, m[:, k, None] + m[k], out=m)
                if m[k, k] < 0:
                    return None
        # integer tightening of unary bounds (`_NO_BOUND` is even), then one
        # strengthening pass m[i, j] <= (unary[i] + unary[j ^ 1]) / 2, which
        # also writes the tightened unary bounds (j = i ^ 1) and leaves the
        # diagonal at 0 (no unary pair sums below 0); halving first is exact,
        # since the tightened bounds are even
        half = (flat[self._unary] & -2) >> 1
        half_bar = half[self._bars]
        if (half + half_bar < 0).any():
            return None
        np.minimum(m, half[:, None] + half_bar, out=m)
        np.putmask(m, np.abs(m) > self._limit, _NO_BOUND)
        return OctElem(m, closed=True)

    def _closed(self, d):
        """The closed element of `d`: BOTTOM for BOTTOM and for an
        unsatisfiable element."""
        if d is BOTTOM or d.closed:
            return d
        if d.closure is _NOT_CLOSED:
            d.closure = self._close_matrix(d.m) or BOTTOM
        return d.closure

    # lattice

    def leq(self, a, b) -> bool:
        self._check(a), self._check(b)
        if a is b:
            return True
        a = self._closed(a)
        if a is BOTTOM:
            return True
        b = self._closed(b)
        return b is not BOTTOM and bool((a.m <= b.m).all())

    def join(self, a, b):
        self._check(a), self._check(b)
        ca, cb = self._closed(a), self._closed(b)
        if ca is BOTTOM:
            return cb
        if cb is BOTTOM or ca is cb:  # join(a, a) is a, or a's closure
            return ca
        return OctElem(np.maximum(ca.m, cb.m), closed=True)

    def widen(self, a, b):
        """Entrywise: keep stable bounds, drop unstable ones to `_NO_BOUND`.

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
        w = np.where(cb.m <= a.m, a.m, _NO_BOUND)
        w.ravel()[self._diag] = 0
        return OctElem(w, closed=False)

    def equal(self, a, b) -> bool:
        return self._closed(a) == self._closed(b)

    # constraint helpers

    def _with_entries(self, m: np.ndarray, entries) -> set[int]:
        """Lower `m` in place to the given entries, dropping any bound beyond
        `_limit` (among them +-inf); returns the endpoints of the entries it
        lowered, the pivots `_close_at` needs."""
        pivots = set()
        for i, j, c in entries:
            if abs(c) <= self._limit and c < m[i, j]:
                m[i, j] = c
                pivots.update((i, j))
        return pivots

    @staticmethod
    def _sum_entries(i: int, j: int, bound) -> list[tuple]:
        """The entries of literal_i + literal_j <= bound: V_j - V_{i^1} and
        V_i - V_{j^1}, since literal i ^ 1 is -V_i."""
        return [(j ^ 1, i, bound), (i ^ 1, j, bound)]

    def _unary_entries(self, vi: int, lo: float, hi: float):
        return (self._sum_entries(2 * vi, 2 * vi, 2 * hi)  # v <= hi
                + self._sum_entries(2 * vi + 1, 2 * vi + 1, -2 * lo))  # -v <= -lo

    def _interval(self, c: OctElem, k: int) -> tuple[float, float]:
        """Bounds of variable k in the closed element `c`, whose unary
        entries are even: twice the bound."""
        hi = c.m[2 * k + 1, 2 * k]
        lo = c.m[2 * k, 2 * k + 1]
        return (-(int(lo) // 2) if lo != _NO_BOUND else -INF,
                int(hi) // 2 if hi != _NO_BOUND else INF)

    def intervals_of(self, d: OctElem) -> tuple[tuple[float, float], ...]:
        c = self._closed(d)
        if c is BOTTOM:
            raise DomainError("intervals of bottom")
        return tuple(self._interval(c, k) for k in range(self.n))

    def _forget_matrix(self, m: np.ndarray, drop: set[int]) -> np.ndarray:
        m = m.copy()
        for v in drop:  # the rows and columns of literals 2v and 2v + 1
            m[2 * v:2 * v + 2] = _NO_BOUND
            m[:, 2 * v:2 * v + 2] = _NO_BOUND
        m.ravel()[self._diag] = 0
        return m

    # transfer

    def assign(self, d, var: str, e: Expr):
        self._check(d)
        c = self._closed(d)
        if c is BOTTOM:
            return BOTTOM
        vi = self.var_index[var]
        const, coeffs, havocs, _ = e.linear
        if havocs:
            return OctElem(self._forget_matrix(c.m, {vi}), closed=True)

        if set(coeffs) == {var} and coeffs[var] in (1, -1) and abs(const) <= self._limit:
            # invertible self-update x := +-x + const keeps x's relations
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
            return self._close_at(m, ()) or BOTTOM  # a shift keeps m closed

        # forget x, then bound x by the range of e and x - k * y by the range
        # of the rest of e for each unit term k * y (y not x), all on the
        # pre-state: exact for x := c and x := +-y + c
        ivals = {i: self._interval(c, i) for i in map(self.var_index.get, coeffs)}
        entries = self._unary_entries(
            vi, *_expr_range(ivals, self.var_index, coeffs, const))
        for y, k in coeffs.items():
            if y == var or k not in (1, -1):
                continue
            rest = {v: kv for v, kv in coeffs.items() if v != y}
            rlo, rhi = _expr_range(ivals, self.var_index, rest, const)
            neg_y = 2 * self.var_index[y] + (k == 1)  # the literal of -k * y
            entries += self._sum_entries(2 * vi, neg_y, rhi)  # x - k * y <= rhi
            entries += self._sum_entries(2 * vi + 1, neg_y ^ 1, -rlo)  # k * y - x <= -rlo
        m = self._forget_matrix(c.m, {vi})
        return self._close_at(m, self._with_entries(m, entries)) or BOTTOM

    def _atom_entries(self, atom: LinearAtom):
        """Octagon-exact entries for an atom, or None when not expressible.
        A bound beyond `_limit` is not: `_with_entries` would drop it, while
        the interval fallback still decides, exactly, whether it is empty."""
        coeffs = atom.coeffs
        if (2 * abs(atom.bound) > self._limit or len(coeffs) > 2
                or any(c not in (1, -1) for c in coeffs.values())):
            return None
        lits = [2 * self.var_index[v] + (c == -1) for v, c in coeffs.items()]
        if len(lits) == 1:  # +-v <= b, as +-v + +-v <= 2b
            return self._sum_entries(lits[0], lits[0], 2 * atom.bound)
        return self._sum_entries(lits[0], lits[1], atom.bound)

    def _apply_atom(self, d: OctElem, atom: LinearAtom):
        entries = self._atom_entries(atom)
        if entries is None:  # interval fallback for other atoms
            bounds = _refine_bounds(self.intervals_of(d), atom, self.var_index)
            if bounds is None:
                return BOTTOM
            entries = [e for i, (lo, hi) in enumerate(bounds)
                       for e in self._unary_entries(i, lo, hi)]
        m = d.m.copy()
        return self._close_at(m, self._with_entries(m, entries)) or BOTTOM

    def assume(self, d, b: BoolExpr):
        self._check(d)
        c = self._closed(d)
        if c is BOTTOM:
            return BOTTOM
        return _apply_guard(self, c, b.guard)

    def _region_mask(self, partition) -> np.ndarray:
        """Whether two literals' variables share a region, cached per
        partition."""
        key = tuple(map(tuple, partition))
        mask = self._masks.get(key)
        if mask is None:
            region_of = np.full(self.n, -1)
            for r, vs in enumerate(key):
                region_of[list(vs)] = r
            if np.any(region_of < 0):
                raise DomainError("the partition leaves a variable out")
            lit_region = np.repeat(region_of, 2)  # literals 2k, 2k+1 share v_k's region
            mask = self._masks[key] = lit_region[:, None] == lit_region[None, :]
        return mask

    def mix(self, elems: Sequence, partition: Sequence[Sequence[int]]):
        """Meet over regions of forgets of the join: keeps constraints within
        each region of the joined input, drops all cross-region relations.
        The join is the entrywise max of the closed inputs."""
        if not elems:
            raise DomainError("mix of an empty list")
        for e in elems:
            self._check(e)
        mats = [c.m for c in map(self._closed, elems) if c is not BOTTOM]
        if not mats:
            return BOTTOM
        m = np.where(self._region_mask(partition), np.maximum.reduce(mats), _NO_BOUND)
        # the mask of a closed join is shortest-path closed: only the
        # strengthening of `_close_at` has work left
        return self._close_at(m, ()) or BOTTOM

    # inspection

    def entails(self, d, b: BoolExpr) -> bool:
        return is_bottom(self.assume(d, NotExpr(b)))

    def constraints(self, d) -> list[str]:
        c = self._closed(d)
        if c is BOTTOM:
            return ["false"]
        ivals = self.intervals_of(c)
        out = _bound_constraints(self.variables, ivals)
        m = c.m.tolist()  # Python ints: no NumPy scalar per entry read
        for a in range(self.n):
            va, ia = self.variables[a], ivals[a]
            row_pa = m[2 * a]
            for b in range(a + 1, self.n):
                vb, ib = self.variables[b], ivals[b]
                row_pb, row_nb = m[2 * b], m[2 * b + 1]
                dab = row_pb[2 * a]      # va - vb <= c
                dba = row_pa[2 * b]      # vb - va <= c
                sab = row_nb[2 * a]      # va + vb <= c
                sba = row_pa[2 * b + 1]  # -va - vb <= c
                point = ia[0] == ia[1] and ib[0] == ib[1]
                if dab != _NO_BOUND and dab == -dba:
                    if not point:
                        if dab == 0:
                            out.append(f"{va} = {vb}")
                        else:
                            out.append(f"{va} = {vb} {'+' if dab > 0 else '-'} {abs(dab)}")
                else:
                    # bounds the intervals imply are left out (an interval
                    # difference or sum with an infinite bound is +inf)
                    if dab != _NO_BOUND and not ia[1] - ib[0] <= dab:
                        out.append(f"{va} - {vb} <= {dab}")
                    if dba != _NO_BOUND and not ib[1] - ia[0] <= dba:
                        out.append(f"{vb} - {va} <= {dba}")
                if sab != _NO_BOUND and sab == -sba:
                    if not point:
                        out.append(f"{va} + {vb} = {sab}")
                else:
                    if sab != _NO_BOUND and not ia[1] + ib[1] <= sab:
                        out.append(f"{va} + {vb} <= {sab}")
                    if sba != _NO_BOUND and not -ia[0] - ib[0] <= sba:
                        out.append(f"{va} + {vb} >= {-sba}")
        return out

    def contains_points(self, d, pts: np.ndarray) -> np.ndarray:
        c = self._closed(d)
        if c is BOTTOM:
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
        slots = len(e.linear.havocs)
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

    def _fact(self, elem, tids: frozenset[int]) -> RecencyFact:
        """A bottom element carries no tags, so a tagged bottom never exists
        and `leq` can compare tags without looking at the elements."""
        if is_bottom(elem):
            return self.bottom()
        return RecencyFact(elem, tids)

    def assign(self, d: RecencyFact, var: str, e: Expr) -> RecencyFact:
        return self._fact(self.inner.assign(d.elem, var, e), d.tids | {self.tid})

    def assume(self, d: RecencyFact, b: BoolExpr) -> RecencyFact:
        return self._fact(self.inner.assume(d.elem, b), d.tids)

    def mix(self, elems: Sequence[RecencyFact], partition) -> RecencyFact:
        """`elems` is this thread's own fact, then the facts arriving over
        sync edges; stale and bottom arrivals carry no tags into the mix."""
        own, *incoming = elems
        kept = [own] + [f for f in incoming
                        if not is_bottom(f.elem) and f.tids != {self.tid}]
        mixed = self.inner.mix([f.elem for f in kept], partition)
        return self._fact(mixed, frozenset().union(*(f.tids for f in kept)))


# ---------------------------------------------------------------------------
# Helpers


def singleton_partition(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(n))


def box_points(n_vars: int, box: tuple[int, int]) -> np.ndarray:
    """All integer points of box^n_vars as an (N, n_vars) array."""
    axis = np.arange(box[0], box[1] + 1)
    grids = np.meshgrid(*([axis] * n_vars), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
