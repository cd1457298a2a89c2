"""Domain unit tests: lattice laws, transfers, mix, closure, widening."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domtools
from domtools import binop, box_points, expr, scaled
from racefree.absdom import (
    BOTTOM,
    DomainError,
    EnvSetDomain,
    IntervalDomain,
    IntervalElem,
    OctagonDomain,
    OctElem,
    RecencyDomain,
    RecencyFact,
    _NO_BOUND,
    is_bottom,
    singleton_partition,
    split_fact,
)
from racefree.lang import (
    HAVOC,
    Assign,
    Cmp,
    Expr,
    NotExpr,
    eval_bool,
    eval_expr,
    parse_program,
    print_bexpr,
)

INF = math.inf


def cond(src, variables="x, y, z"):
    p = parse_program(f"var {variables};\nthread t {{ assume({src}); }}")
    return p.threads[0].instructions[0].command.cond


def octagon_from(dom, constraints):
    d = dom.top()
    for c in constraints:
        d = dom.assume(d, cond(c, ", ".join(dom.variables)))
    return d


def _octagon_holds(dom, d, point) -> bool:
    """Whether the integer point lies in gamma(d), in exact Python ints."""
    c = dom._closed(d)
    if c is BOTTOM:
        return False
    lits = [s * v for v in point for s in (1, -1)]  # literals 2k, 2k+1
    return all(c.m[i, j] == _NO_BOUND or lits[j] - lits[i] <= int(c.m[i, j])
               for i in range(dom.size) for j in range(dom.size))


def _every_entry_bounded_or_none(dom, d) -> bool:
    return bool(np.all((d.m == _NO_BOUND) | (np.abs(d.m) <= dom._limit)))


# ---------------------------------------------------------------------------
# ordering and join


def test_interval_leq_containment():
    dom = IntervalDomain(("x",))
    assert dom.leq(IntervalElem(((0, 1),)), IntervalElem(((0, 5),)))
    assert not dom.leq(IntervalElem(((0, 6),)), IntervalElem(((0, 5),)))
    assert dom.leq(BOTTOM, IntervalElem(((0, 5),)))


def test_octagon_leq_via_point_oracle():
    dom = OctagonDomain(("x", "y"))
    a = octagon_from(dom, ["x - y <= 0", "y - x <= 0"])  # x = y
    b = octagon_from(dom, ["x - y <= 3"])
    assert dom.leq(a, b)
    pts = box_points(2, domtools.BOX)
    assert domtools.gamma_box(dom, a, pts) <= domtools.gamma_box(dom, b, pts)


def test_join_interval_hull():
    dom = IntervalDomain(("x",))
    j = dom.join(IntervalElem(((0, 0),)), IntervalElem(((2, 2),)))
    assert j == IntervalElem(((0, 2),))
    assert dom.join(BOTTOM, j) == j


def test_octagon_join_keeps_shared_equality():
    dom = OctagonDomain(("x", "y"))
    one = octagon_from(dom, ["x == 1", "y == 1"])
    two = octagon_from(dom, ["x == 2", "y == 2"])
    j = dom.join(one, two)
    assert dom.entails(j, cond("x == y", "x, y"))
    pts = box_points(2, domtools.BOX)
    want = domtools.gamma_box(dom, one, pts) | domtools.gamma_box(dom, two, pts)
    assert want <= domtools.gamma_box(dom, j, pts)


def test_kind_mismatch_raises():
    oct_dom = OctagonDomain(("x",))
    with pytest.raises(DomainError):
        oct_dom.leq(IntervalElem(((0, 1),)), oct_dom.top())


# ---------------------------------------------------------------------------
# widening


def test_interval_widen_unstable_upper():
    dom = IntervalDomain(("x",))
    w = dom.widen(IntervalElem(((0, 1),)), IntervalElem(((0, 2),)))
    assert w == IntervalElem(((0, INF),))
    assert dom.widen(w, w) == w


def test_widen_chain_stabilizes_quickly():
    dom = IntervalDomain(("x",))
    w = IntervalElem(((0, 0),))
    changes = 0
    for k in range(1, 40):
        nxt = dom.widen(w, dom.join(w, IntervalElem(((0, k),))))
        if not dom.equal(nxt, w):
            changes += 1
        w = nxt
    assert changes <= 2
    assert w == IntervalElem(((0, INF),))


def test_envset_widen_is_join():
    """Environment sets in the value box form a lattice of finite height,
    so their widening is their join."""
    rng = random.Random(13)
    dom = EnvSetDomain(("x", "y"), value_box=domtools.BOX)
    for _ in range(100):
        a, b = domtools.rand_envset(dom, rng), domtools.rand_envset(dom, rng)
        assert dom.widen(a, b) == dom.join(a, b) == a | b


def test_envset_rejects_bottom():
    """The empty set is the one envset bottom: `BOTTOM`, the other domains'
    bottom, is no element of it."""
    dom = EnvSetDomain(("x",))
    ops = [lambda: dom.leq(BOTTOM, frozenset()), lambda: dom.join(frozenset(), BOTTOM),
           lambda: dom.widen(BOTTOM, frozenset()), lambda: dom.assign(BOTTOM, "x", expr("x + 1")),
           lambda: dom.assume(BOTTOM, cond("x >= 0", "x")),
           lambda: dom.mix([BOTTOM], singleton_partition(1)),
           lambda: dom.entails(BOTTOM, cond("x >= 0", "x"))]
    for op in ops:
        with pytest.raises(DomainError):
            op()
    assert dom.bottom() == frozenset() and is_bottom(dom.bottom())


# ---------------------------------------------------------------------------
# transfers


def test_assign_copy_interval():
    dom = IntervalDomain(("x", "y"))
    d = IntervalElem((((-INF, INF)), (1, 2)))
    out = dom.assign(d, "x", expr("y"))
    assert out.bounds[0] == (1, 2)


def test_assign_offset_octagon():
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, ["y >= 0"])
    out = dom.assign(d, "x", expr("y + 1"))
    assert dom.entails(out, cond("x == y + 1", "x, y"))
    assert dom.entails(out, cond("y >= 0", "x, y"))


def test_assign_havoc_forgets():
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, ["x == y", "x >= 1", "x <= 2"])
    out = dom.assign(d, "x", expr("havoc"))
    ivals = dom.intervals_of(out)
    assert ivals[0] == (-INF, INF)
    assert ivals[1] == (1, 2)


def test_assume_interval_meet():
    dom = IntervalDomain(("x",))
    d = IntervalElem(((0, 5),))
    assert dom.assume(d, cond("x >= 3", "x")) == IntervalElem(((3, 5),))
    assert dom.assume(d, cond("false", "x")) is BOTTOM


def test_assume_octagon_equality_atom():
    dom = OctagonDomain(("x", "y"))
    out = dom.assume(dom.top(), cond("x == y", "x, y"))
    assert dom.entails(out, cond("x - y <= 0 && y - x <= 0", "x, y"))


def test_forget_drops_relation_keeps_bounds():
    """Forgetting is y := havoc: y's relation to x goes, x's bounds stay, exactly."""
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, ["x == y", "x >= 1", "x <= 2"])
    out = dom.assign(d, "y", expr("havoc"))
    pts = box_points(2, domtools.BOX)
    got = domtools.gamma_box(dom, out, pts)
    want = {(x, y) for x in (1, 2) for y in range(domtools.BOX[0], domtools.BOX[1] + 1)}
    assert got == want
    assert dom.assign(BOTTOM, "y", expr("havoc")) is BOTTOM


@pytest.mark.parametrize("make", [IntervalDomain, OctagonDomain])
def test_assume_on_a_point_is_bottom_exactly_when_the_condition_is_false(make):
    """Both domains refine by the condition's guard view, and on one point
    that refinement is exact: `assume` must agree with `eval_bool` about
    the condition and about its negation.  The soundness suites would not
    notice a guard that drops an atom; this test does."""
    variables = ("x", "y", "z")
    dom = make(variables)
    rng = random.Random(13)
    for _ in range(400):
        b = domtools.rand_cond(variables, rng)
        point = [rng.randint(-3, 3) for _ in variables]
        d = dom.initial()
        for v, k in zip(variables, point):
            d = dom.assign(d, v, Expr.of(k))
        env = dict(zip(variables, point))
        for c in (b, NotExpr(b)):
            assert is_bottom(dom.assume(d, c)) is not eval_bool(c, env), (
                print_bexpr(c), point)


# ---------------------------------------------------------------------------
# mix


def test_envset_mix_loses_cross_pair_correlation():
    dom = EnvSetDomain(("x", "y"))
    mixed = dom.mix([frozenset({(1, 1), (2, 2)})], singleton_partition(2))
    assert mixed == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})


def test_envset_mix_preserves_region_correlation():
    dom = EnvSetDomain(("x", "y", "z"), value_box=(-8, 8))
    mixed = dom.mix([frozenset({(1, 1, 0), (2, 2, 5)})], ((0, 1), (2,)))
    assert mixed == frozenset({(1, 1, 0), (1, 1, 5), (2, 2, 0), (2, 2, 5)})


def test_octagon_region_mix_keeps_equality():
    dom = OctagonDomain(("x", "y"))
    one = octagon_from(dom, ["x == 1", "y == 1"])
    two = octagon_from(dom, ["x == 2", "y == 2"])
    mixed = dom.mix([one, two], ((0, 1),))
    assert dom.entails(mixed, cond("x == y && x >= 1 && x <= 2", "x, y"))
    # and the point-set oracle agrees with the concrete region mix
    pts = box_points(2, domtools.BOX)
    assert domtools.mix_sound(dom, [one, two], ((0, 1),), pts)


def test_interval_singleton_mix_equals_join():
    dom = IntervalDomain(("x", "y"))
    a = IntervalElem(((0, 0), (1, 1)))
    b = IntervalElem(((2, 2), (3, 3)))
    assert dom.mix([a, b], singleton_partition(2)) == dom.join(a, b)


def test_envset_mix_matches_bruteforce_cartesian():
    rng = random.Random(11)
    dom = EnvSetDomain(("x", "y"), value_box=domtools.BOX)
    for _ in range(100):
        envs = domtools.rand_envset(dom, rng)
        mixed = dom.mix([envs], singleton_partition(2))
        assert mixed == frozenset(domtools.concrete_mix(envs, singleton_partition(2)))


@given(st.integers(1, 5), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_octagon_mix_matches_reference_loop(n, k, rng):
    dom = OctagonDomain(tuple(f"v{i}" for i in range(n)))
    elems = [domtools.rand_octagon(dom, rng) for _ in range(k)]
    partition = domtools.rand_partition(n, rng)
    want = domtools.octagon_mix_loop(dom, elems, partition)
    got = dom.mix(elems, partition)
    assert got == want  # OctElem equality is bytewise: bit-identical matrices


def test_octagon_mix_rejects_partial_partition():
    dom = OctagonDomain(("x", "y"))
    for _ in range(2):  # no mask is cached for the partial partition
        with pytest.raises(DomainError):
            dom.mix([dom.initial()], ((0,),))


def test_mix_empty_list_rejected():
    dom = IntervalDomain(("x",))
    with pytest.raises(DomainError):
        dom.mix([], singleton_partition(1))


# ---------------------------------------------------------------------------
# closure


def test_closure_idempotent_and_gamma_exact():
    rng = random.Random(3)
    dom = OctagonDomain(("x", "y"))
    pts = box_points(2, domtools.BOX)
    for _ in range(200):
        raw = dom.top().m.copy()
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                c = rng.randint(-6, 6)
                raw[i, j] = min(raw[i, j], c)
                raw[j ^ 1, i ^ 1] = min(raw[j ^ 1, i ^ 1], c)
        from racefree.absdom import OctElem

        rawe = OctElem(raw, closed=False)
        closed = dom._close_matrix(raw)
        if closed is None:
            assert not dom.contains_points(rawe, pts).any()
            continue
        again = dom._close_matrix(closed.m)
        assert again == closed
        assert (dom.contains_points(rawe, pts) == dom.contains_points(closed, pts)).all()


def _count_closures(monkeypatch, target: OctElem) -> list:
    """Record each `_close_matrix` call made on `target`'s own matrix."""
    calls = []
    original = OctagonDomain._close_matrix

    def counting(self, m):
        if m is target.m:
            calls.append(1)
        return original(self, m)

    monkeypatch.setattr(OctagonDomain, "_close_matrix", counting)
    return calls


def test_widened_element_is_closed_once(monkeypatch):
    dom = OctagonDomain(("x", "y"))
    a = octagon_from(dom, ["x == 0", "y == 0"])
    b = octagon_from(dom, ["x >= 0", "x <= 1", "y == x"])
    w = dom.widen(a, dom.join(a, b))
    assert not w.closed
    raw = w.m.tobytes()
    calls = _count_closures(monkeypatch, w)
    x_plus_1 = expr("x + 1")
    for _ in range(2):
        assert dom.leq(a, w) and dom.leq(w, w)
        assert dom.equal(w, w)
        assert dom.join(w, a) == dom.join(a, w)
        assert dom.widen(w, a) is w
        dom.assign(w, "y", x_plus_1)
        dom.assume(w, cond("x <= 3", "x, y"))
    assert len(calls) == 1
    # the widened matrix is kept as it was, and the cache is no self-loop
    assert not w.closed and w.m.tobytes() == raw
    c = dom._closed(w)
    assert c.closed and c is not w and c.closure is not c
    assert dom.entails(w, cond("y == x", "x, y"))


def test_unsatisfiable_widened_element_caches_bottom(monkeypatch):
    dom = OctagonDomain(("x",))
    m = dom.top().m.copy()
    m[1, 0] = -2.0  # x <= -1
    m[0, 1] = -2.0  # -x <= -1
    w = OctElem(m, closed=False)
    calls = _count_closures(monkeypatch, w)
    for _ in range(2):
        assert dom.leq(w, dom.initial())
        assert dom.equal(w, w)
        assert dom.join(w, dom.initial()) == dom.initial()
        assert dom.assume(w, cond("x <= 3", "x")) is BOTTOM
        assert dom.assign(w, "x", expr("1")) is BOTTOM
    assert len(calls) == 1
    assert w.closure is BOTTOM


def test_unsatisfiable_element_equals_bottom():
    dom = OctagonDomain(("x",))
    u = OctElem(np.array([[0.0, -2.0], [-2.0, 0.0]]), closed=False)  # x <= -1, x >= 1
    assert dom.leq(BOTTOM, u) and dom.leq(u, BOTTOM)
    assert dom.equal(BOTTOM, u) and dom.equal(u, BOTTOM)
    assert dom.join(u, u) is BOTTOM


# ---------------------------------------------------------------------------
# pivot closure: `_close_at` against the full `_close_matrix` as reference


def _assert_closes_like_full(dom, m, pivots):
    # None when unsatisfiable; OctElem equality compares the matrix bytes;
    # `_close_at` closes its argument in place, so it gets a copy
    assert dom._close_at(m.copy(), pivots) == dom._close_matrix(m)


def _closed_octagon(dom, rng):
    while True:
        d = domtools.rand_octagon(dom, rng)
        if d is not BOTTOM:
            return d


def test_pivot_closure_after_lowering_matches_full_closure():
    rng = random.Random(7)
    unsatisfiable = 0
    for n in range(1, 7):
        dom = OctagonDomain(tuple(f"v{k}" for k in range(n)))
        initial = dom.top().m.copy()
        for k in range(n):
            initial[2 * k + 1, 2 * k] = initial[2 * k, 2 * k + 1] = 0.0
        assert dom.initial() == dom._close_matrix(initial)
        for _ in range(80):
            d = _closed_octagon(dom, rng)
            chosen = rng.sample(range(n), min(n, rng.randint(1, 2)))
            lits = [lit for v in chosen for lit in (2 * v, 2 * v + 1)]
            m = d.m
            if rng.random() < 0.5:  # forget, then set: an assignment
                m = dom._forget_matrix(m, {chosen[0]})
            m = m.copy()
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(lits, 2)
                c = rng.randint(-10, 10)
                m[i, j] = min(m[i, j], c)
                m[j ^ 1, i ^ 1] = min(m[j ^ 1, i ^ 1], c)
            unsatisfiable += dom._close_matrix(m) is None
            _assert_closes_like_full(dom, m, lits)
    assert unsatisfiable > 0


def test_transfers_and_mix_close_like_the_full_closure(monkeypatch):
    """Every pivot closure that assign, assume and mix make, among them
    region masks, equals the full closure.  The assigns x := +-y + c and
    x := c make none (see the closed-form test)."""
    pivot_close = OctagonDomain._close_at
    pivot_counts = []

    def checked(self, m, pivots):
        if len(pivots) == self.size:
            return pivot_close(self, m, pivots)
        full = self._close_matrix(m)  # before `_close_at` closes m in place
        out = pivot_close(self, m, pivots)
        assert out == full
        pivot_counts.append(len(pivots))
        return out

    monkeypatch.setattr(OctagonDomain, "_close_at", checked)
    rng = random.Random(11)
    for n in range(1, 7):
        variables = tuple(f"v{k}" for k in range(n))
        dom = OctagonDomain(variables)
        for _ in range(40):
            d = _closed_octagon(dom, rng)
            cmd = domtools.rand_command(variables, rng)
            if isinstance(cmd, Assign):
                dom.assign(d, cmd.var, cmd.expr)
            else:
                dom.assume(d, cmd.cond)
            dom.mix([d, _closed_octagon(dom, rng)], domtools.rand_partition(n, rng))
    assert 0 in pivot_counts and max(pivot_counts) >= 4


def test_closure_saturates_a_bound_beyond_the_limit():
    dom = OctagonDomain(("x", "y", "z"))
    lim = dom._limit
    x, y, z = 0, 2, 4  # the literals +x, +y, +z
    m = dom.top().m.copy()
    dom._with_entries(m, dom._sum_entries(y, x ^ 1, lim) + dom._sum_entries(x, z ^ 1, lim))
    d = dom._close_matrix(m)
    assert d.m[z, y] == _NO_BOUND  # y - z <= 2 * lim is beyond the limit
    assert d.m[x, y] == d.m[z, x] == lim  # y - x <= lim and x - z <= lim stay
    assert _every_entry_bounded_or_none(dom, d)
    assert _octagon_holds(dom, d, (0, lim, -lim))  # y - z = 2 * lim is kept
    # x := 0 forgets x, so no path re-derives y - z: it stays unbounded
    out = dom.assign(d, "x", expr("0"))
    assert out.m[z, y] == _NO_BOUND and _octagon_holds(dom, out, (0, lim, -lim))


# ---------------------------------------------------------------------------
# one path per operation: the general assign, the one constraint encoding and
# the one-pass mix against the code they replaced


def _widened_octagon(dom, rng):
    while True:
        a = _closed_octagon(dom, rng)
        w = dom.widen(a, dom.join(a, _closed_octagon(dom, rng)))
        if not w.closed:
            return w


def _unsatisfiable_octagon(dom, rng):
    m = dom.top().m.copy()
    k = rng.randrange(dom.n)
    m[2 * k + 1, 2 * k] = m[2 * k, 2 * k + 1] = -2.0  # v_k <= -1 and v_k >= 1
    return OctElem(m, closed=False)


def _branch_assign(dom, d, x, y, k, c):
    """x := c (y None) or x := k * y + c as the deleted special cases did
    it: forget x, write these exact entries, close."""
    closed = dom._closed(d)
    if closed is BOTTOM:
        return BOTTOM
    xi = dom.var_index[x]
    m = dom._forget_matrix(closed.m, {xi})
    if y is None:
        entries = [(2 * xi + 1, 2 * xi, 2 * c), (2 * xi, 2 * xi + 1, -2 * c)]
    else:
        yi = dom.var_index[y]
        if k == 1:  # x - y = c
            entries = [(2 * yi, 2 * xi, c), (2 * xi, 2 * yi, -c),
                       (2 * xi + 1, 2 * yi + 1, c), (2 * yi + 1, 2 * xi + 1, -c)]
        else:  # x + y = c
            entries = [(2 * yi + 1, 2 * xi, c), (2 * xi, 2 * yi + 1, -c),
                       (2 * xi + 1, 2 * yi, c), (2 * yi, 2 * xi + 1, -c)]
    for i, j, b in entries:
        m[i, j] = min(m[i, j], b)
    return dom._close_matrix(m) or BOTTOM


def test_constant_and_copy_assigns_match_the_exact_entries():
    """Pre-states with small bounds; see the next test for large ones."""
    rng = random.Random(23)
    constants = (0, 3, -3, 2 ** 50, 2 ** 52, 2 ** 52 + 1, 2 ** 53 + 1)
    checked = 0
    for n in range(1, 7):
        variables = tuple(f"v{k}" for k in range(n))
        dom = OctagonDomain(variables)
        for _ in range(6):
            for d in (_closed_octagon(dom, rng), _widened_octagon(dom, rng)):
                x = rng.choice(variables)
                others = [v for v in variables if v != x]
                for c in constants:
                    got = dom.assign(d, x, Expr.of(c))
                    assert got == _branch_assign(dom, d, x, None, 0, c)
                    checked += 1
                    if not others:
                        continue
                    y = rng.choice(others)
                    got = dom.assign(d, x, binop("+", Expr.of(y), Expr.of(c)))
                    assert got == _branch_assign(dom, d, x, y, 1, c)
                    got = dom.assign(d, x, binop("-", Expr.of(c), Expr.of(y)))
                    assert got == _branch_assign(dom, d, x, y, -1, c)
                    checked += 2
    assert checked == 6 * 2 * 7 * (1 + 3 * 5)  # n = 1 has no y: one assign, not three


def test_copy_and_the_exact_entries_agree_on_bounds_near_2_pow_50():
    """y <= 2^49 + 10 is the entry 2^50 + 20, within the limit of 2
    variables (2^57): the general path and the exact entries of x := y - 20
    keep it, and both bound x by it."""
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, [f"x <= {2 ** 49}", "y - x <= 10"])
    assert d.m[3, 2] == 2 ** 50 + 20 <= dom._limit
    out = dom.assign(d, "x", expr("y - 20"))
    assert dom.constraints(out) == [f"x <= {2 ** 49 - 10}", f"y <= {2 ** 49 + 10}",
                                    "x = y - 20"]
    assert _branch_assign(dom, d, "x", "y", 1, -20) == out


def test_constant_assign_keeps_a_bound_closure_derived():
    """x <= 2^49 and y - x <= 10 close to y <= 2^49 + 10; x := 0 forgets x,
    and y keeps the bound that closure derived through it."""
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, [f"x <= {2 ** 49}", "y - x <= 10"])
    out = dom.assign(d, "x", expr("0"))
    assert dom.constraints(out) == ["x = 0", f"y <= {2 ** 49 + 10}"]


# ---------------------------------------------------------------------------
# the closed-form assigns x := +-y + c, x := +-x + c and x := c against the
# general path


def _general_assign(dom, c, x, k, y, const, wide):
    """x := k * y + const (x := const when y is None) on the closed `c` by
    the general path, `_assign_general`: forget x, write the entries, close
    at their pivots.  That path forgets x's old value, so for y = x it runs
    in `wide`, `dom` with one more variable t and the same `_limit`: t := x,
    then x := k * t + const, then t is dropped."""
    xi = dom.var_index[x]
    if y != x:
        return dom._assign_general(c, xi, const, {y: k} if y else {})
    m = wide.top().m.copy()
    m[:dom.size, :dom.size] = c.m
    e = wide._assign_general(OctElem(m, closed=True), dom.n, 0, {x: 1})
    e = wide._assign_general(e, xi, const, {wide.variables[-1]: k})
    return OctElem(e.m[:dom.size, :dom.size].copy(), closed=True)


def _wide_domain(dom):
    """`dom` with one more variable and `dom`'s `_limit`, under which int64
    sums stay exact: walks of two more literals at 2^59 / size each."""
    wide = OctagonDomain(dom.variables + ("t'",))
    wide._limit = dom._limit
    return wide


def _exact_domain(dom):
    """`dom` with saturation only of what derives from `_NO_BOUND`: finite
    sums stay within 2^59 = size * `_limit`, and a sum or a half with
    `_NO_BOUND` in it is above 2^60 - 2^58."""
    exact = OctagonDomain(dom.variables)
    exact._limit = 2 ** 59
    return exact


def _loses_no_bound(dom, c) -> bool:
    """Whether the entries of the closed `c` are exact: closing it again
    without saturation changes nothing, so no bound that saturation
    dropped is implied by the others."""
    return _exact_domain(dom)._close_matrix(c.m) == c


def _points_in(dom, c, rng, count):
    """`count` integer points of gamma(c): fix one variable at a time to a
    bound of its range in the exact tight closure, which keeps the rest
    satisfiable, and close again."""
    exact = _exact_domain(dom)
    points = []
    for _ in range(count):
        e, point = exact._close_matrix(c.m), []
        for k in range(dom.n):
            value = rng.choice([b for b in exact._interval(e, k) if abs(b) != INF] or [0])
            m = e.m.copy()
            exact._with_entries(m, exact._unary_entries(k, value, value))
            e = exact._close_at(m, (2 * k, 2 * k + 1))
            point.append(value)
        assert e is not None
        points.append(tuple(point))
    return points


def _hull(dom, points):
    """The closed octagon of a finite point set, saturated as every closure
    ends: each entry is the greatest lit_j - lit_i over the points."""
    lits = [[s * v for v in p for s in (1, -1)] for p in points]
    m = [[max(lit[j] - lit[i] for lit in lits) for j in range(dom.size)]
         for i in range(dom.size)]
    return OctElem([[b if abs(b) <= dom._limit else _NO_BOUND for b in row] for row in m],
                   closed=True)


def _fact_inputs(programs, per_program, rng):
    """Distinct closed octagon facts of `programs` under rel and regrel, at
    most `per_program` from each."""
    from racefree.engine import AnalysisConfig, analyze_fixpoint

    for _, p in programs:
        dom = OctagonDomain(p.variables)
        seen = set()
        for analysis in ("rel", "regrel"):
            facts = analyze_fixpoint(p, AnalysisConfig(analysis=analysis, domain="octagon"))
            seen.update(c for c in map(dom._closed, facts.values()) if c is not BOTTOM)
        for c in rng.sample(sorted(seen, key=lambda c: c._bytes), min(per_program, len(seen))):
            yield dom, c


def _random_inputs(rng):
    """Small random octagons, many entries unbounded, and hulls of points
    near the limit, some entries saturated, some variables forgotten."""
    for n in range(1, 5):
        dom = OctagonDomain(tuple(f"v{k}" for k in range(n)))
        lim = dom._limit
        coords = [0, 1, 5] + [a + d for a in (lim // 4, lim // 2, lim) for d in range(-2, 3)]
        for _ in range(12):
            yield dom, _closed_octagon(dom, rng)
            h = _hull(dom, [tuple(rng.choice(coords) * rng.choice((1, -1)) for _ in range(n))
                            for _ in range(rng.randint(1, 3))])
            if rng.random() < 0.3:
                h = OctElem(dom._forget_matrix(h.m, {rng.randrange(n)}), closed=True)
            yield dom, h


def test_closed_form_assigns_equal_the_general_path():
    """On every closed input whose entries are exact, the three closed forms
    equal the general path entry for entry, for constants 0, +-1 and within
    2 of +-`_limit` / 2 and +-`_limit`, where the closed forms stop.  An
    input whose saturation dropped an implied bound is not closed: there the
    general path's pivots may re-derive part of it and the closed forms do
    not, so on those both are checked for soundness only, at points of the
    input."""
    rng = random.Random(37)
    inputs = [*_fact_inputs(domtools.corpus_programs(), 6, rng),
              *_fact_inputs(domtools.golden_programs(), 4, rng),
              *_fact_inputs(domtools.near_limit_programs(), 1, rng),
              *_random_inputs(rng)]
    compared = sound = 0
    for dom, c in inputs:
        points = () if _loses_no_bound(dom, c) else _points_in(dom, c, rng, 3)
        wide = _wide_domain(dom)
        lim = dom._limit
        constants = (0, 1, -1, *(s * (a + d) for a in (lim // 2, lim)
                                 for d in range(-2, 3) for s in (1, -1)))
        x = rng.choice(dom.variables)
        others = [v for v in dom.variables if v != x]
        forms = [(1, None), (1, x), (-1, x)]
        if others:
            y = rng.choice(others)
            forms += [(1, y), (-1, y)]
        for k, y in forms:
            for const in constants:
                e = Expr.of(const) if y is None else binop(
                    "+", scaled(k, Expr.of(y)), Expr.of(const))
                got = dom.assign(c, x, e)
                want = _general_assign(dom, c, x, k, y, const, wide)
                if not points:
                    assert got == want, (dom.variables, x, k, y, const)
                    compared += 1
                for p in points:
                    env = dict(zip(dom.variables, p))
                    image = tuple(const + (k * env[y] if y else 0) if v == x else env[v]
                                  for v in dom.variables)
                    assert _octagon_holds(dom, got, image) and _octagon_holds(dom, want, image)
                    sound += 1
    assert compared > 20_000 and sound > 0


# ---------------------------------------------------------------------------
# the gather of `_assign_closed` against the kernel it replaced, kept in
# domtools, and the closure tail of `_close_at` against `_reference_close`


def _kernel_inputs(rng):
    """Closed octagons on 1-24 variables: facts of the corpus, the scaled
    goldens (up to 48 literals) and the near-limit programs, random
    octagons, and hulls of points near the limit, some with a variable
    forgotten, whose saturation may have dropped a bound that the other
    entries imply."""
    yield from _fact_inputs(domtools.corpus_programs(), 6, rng)
    yield from _fact_inputs(domtools.golden_programs(), 4, rng)
    yield from _fact_inputs(domtools.near_limit_programs(), 2, rng)
    yield from _random_inputs(rng)
    for n in (5, 8, 12, 16, 24):
        dom = OctagonDomain(tuple(f"v{k}" for k in range(n)))
        lim = int(dom._limit)
        coords = [0, 1, 5] + [a + d for a in (lim // 4, lim // 2, lim) for d in range(-2, 3)]
        for _ in range(3):
            yield dom, _closed_octagon(dom, rng)
            h = _hull(dom, [tuple(rng.choice(coords) * rng.choice((1, -1)) for _ in range(n))
                            for _ in range(rng.randint(1, 3))])
            yield dom, OctElem(dom._forget_matrix(h.m, {rng.randrange(n)}), closed=True)


def test_gathered_assigns_equal_the_buffered_kernel():
    """x := c, x := +-x + c and x := +-y + c through the cached gather give
    the matrix of `domtools.assign_closed_reference`, bit for bit, for
    constants 0, +-1 and within 2 of +-`_limit` / 2 and +-`_limit` (past
    the closed forms' range for a constant, so saturation is compared
    there too), and the maps are cached once per (x, source)."""
    rng = random.Random(59)
    compared, sizes = 0, set()
    for dom, c in _kernel_inputs(rng):
        lim = int(dom._limit)
        constants = (0, 1, -1, *(s * (a + d) for a in (lim // 2, lim)
                                 for d in range(-2, 3) for s in (1, -1)))
        for vi in rng.sample(range(dom.n), min(dom.n, 2)):
            y = rng.randrange(dom.n)
            sources = {None, 2 * vi, 2 * vi + 1, 2 * y, 2 * y + 1}
            for lit in sources:
                for const in constants:
                    got = dom._assign_closed(c, vi, const, lit)
                    want = domtools.assign_closed_reference(dom, c, vi, const, lit)
                    assert got.closed and got == want, (dom.n, vi, lit, const)
                    compared += 1
            assert sources <= {lit for x, lit in dom._gathers if x == vi}
            # x's entries and signs are held once per x, not per source
            assert all(dom._gathers[vi, lit][2] is dom._crosses[vi][1] for lit in sources)
        assert len(dom._gathers) <= dom.n * (dom.size + 1)
        sizes.add(dom.n)
    assert compared > 50_000 and {1, 24} <= sizes


def test_closure_tail_equals_the_python_int_closure():
    """`_close_at` gives the matrix, or the None, of `_reference_close`
    (below) on the inputs of the gather test: closed as they are (the tail
    alone, as in `mix`), fully closed after x := c, and lowered at random
    literals and closed at those pivots; and on the octagon over no
    variable, whose diagonal is empty."""
    rng = random.Random(61)
    outcomes = {True: 0, False: 0}

    def check(dom, m, pivots):
        got, want = dom._close_at(m.copy(), pivots), _reference_close(dom, m, pivots)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.closed and np.array_equal(got.m, want)
        outcomes[got is None] += 1

    empty = OctagonDomain(())
    check(empty, empty.top().m, ())
    check(empty, empty.top().m, range(0))
    for dom, c in _kernel_inputs(rng):
        lim = int(dom._limit)
        check(dom, c.m, ())
        check(dom, dom._assign_closed(c, rng.randrange(dom.n), rng.choice((0, 1, lim // 2)),
                                      None).m, range(dom.size))
        m = c.m.copy()
        lits = rng.sample(range(dom.size), min(dom.size, 4))
        for _ in range(3):
            i, j = rng.choice(lits), rng.choice(lits)
            b = rng.choice((-3, -1, 0, 2, lim // 2, -lim // 2, lim))
            m[i, j] = min(m[i, j], b)
            m[j ^ 1, i ^ 1] = min(m[j ^ 1, i ^ 1], b)
        check(dom, m, lits)
    assert min(outcomes.values()) > 20


def test_a_guard_that_lowers_nothing_returns_its_input():
    dom = OctagonDomain(("x", "y", "z"))
    c = octagon_from(dom, ["x <= 3", "y - x <= 2", "z >= 0 - 1"])
    implied = ["x <= 5", "y - x <= 2", "x + y <= 8", "z + 1 >= 0",
               "x + y + z <= 100", "2 * x <= 6", "x <= 3 && y <= 5"]
    for src in implied:
        assert dom.assume(c, cond(src)) is c, src
    lowered = dom.assume(c, cond("x <= 2"))
    assert lowered is not c and lowered == octagon_from(
        dom, ["x <= 2", "y - x <= 2", "z >= 0 - 1"])
    # without the guard the same atoms closed a copy at no pivot: the same
    # matrix, as on any closed element whose entries are exact
    assert _loses_no_bound(dom, c) and dom._close_at(c.m.copy(), ()) == c


def test_bottom_and_facts_survive_pickling():
    """A round trip keeps BOTTOM itself, so `is_bottom` still holds at an
    unreachable location, and a widened fact not yet closed still closes."""
    import pickle

    from racefree.engine import AnalysisConfig, analyze_fixpoint

    assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM
    p = parse_program(
        "var x, i;\nthread t { while (i < 10) { i := i + 1; } assume(x >= 1); x := 2; }")
    dom = OctagonDomain(p.variables)
    for analysis, domain, recency in (("rel", "octagon", False), ("regrel", "octagon", True),
                                      ("valset", "interval", False)):
        facts = analyze_fixpoint(p, AnalysisConfig(analysis=analysis, domain=domain,
                                                   recency=recency))
        back = pickle.loads(pickle.dumps(facts))
        unreachable = [loc for loc, f in facts.items() if is_bottom(f)]
        assert unreachable and all(is_bottom(back[loc]) for loc in unreachable)
        assert back == facts
        if domain == "octagon":
            for loc, f in facts.items():
                a, b = (split_fact(g)[0] for g in (f, back[loc]))
                assert dom.equal(a, b) and dom.equal(b, a)


def test_a_pickled_octagon_keeps_its_matrix_read_only():
    """`OctElem` hashes the bytes of its matrix once, so a round trip must
    give back a read-only matrix, equal and with the same hash."""
    import pickle

    rng = random.Random(41)
    dom = OctagonDomain(("x", "y", "z"))
    elems = [OctagonDomain(("x",)).initial(), dom.initial()]
    elems += [make(dom, rng) for make in (_closed_octagon, _widened_octagon) for _ in range(5)]
    for e in elems:
        back = pickle.loads(pickle.dumps(e))
        assert not back.m.flags.writeable
        assert back == e and hash(back) == hash(e) and back.closed == e.closed
        with pytest.raises(ValueError):
            back.m[0, 0] = 1


def test_mix_equals_the_masked_fold_of_joins():
    rng = random.Random(29)
    makers = (_closed_octagon, _widened_octagon, _unsatisfiable_octagon,
              lambda dom, rng: BOTTOM)
    bottoms = 0
    for n in range(1, 7):
        dom = OctagonDomain(tuple(f"v{k}" for k in range(n)))
        partitions = set()
        for _ in range(30):
            elems = [rng.choice(makers)(dom, rng) for _ in range(rng.randint(1, 4))]
            partition = domtools.rand_partition(n, rng)
            want = domtools.octagon_mix_loop(dom, elems, partition)
            assert dom.mix(elems, partition) == want
            if want is BOTTOM:  # every input is bottom: no mask needed
                bottoms += 1
            else:
                partitions.add(partition)
        assert len(dom._masks) == len(partitions)  # one mask per partition
    assert bottoms > 0


def test_sum_entries_spell_the_unary_and_pair_encodings():
    s = OctagonDomain._sum_entries
    i, j, b = 1, 3, 5  # variable indices and a bound
    assert set(s(2 * i, 2 * i, 2 * b)) == {(2 * i + 1, 2 * i, 2 * b)}  # v_i <= b
    assert set(s(2 * i + 1, 2 * i + 1, 2 * b)) == {(2 * i, 2 * i + 1, 2 * b)}  # -v_i <= b
    assert set(s(2 * i, 2 * j + 1, b)) == {(2 * j, 2 * i, b), (2 * i + 1, 2 * j + 1, b)}
    assert set(s(2 * i + 1, 2 * j, b)) == {(2 * i, 2 * j, b), (2 * j + 1, 2 * i + 1, b)}
    assert set(s(2 * i, 2 * j, b)) == {(2 * j + 1, 2 * i, b), (2 * i + 1, 2 * j, b)}
    assert set(s(2 * i + 1, 2 * j + 1, b)) == {(2 * i, 2 * j + 1, b), (2 * j, 2 * i + 1, b)}


# ---------------------------------------------------------------------------
# bounds near and beyond 2^53, where floats stop being exact integers


def test_interval_bound_above_2_pow_52_stays_exact():
    dom = IntervalDomain(("x",))
    big = dom.assign(dom.initial(), "x", expr("9007199254740993"))
    assert big.bounds == ((2 ** 53 + 1, 2 ** 53 + 1),)
    assert not dom.entails(big, cond("x == 9007199254740994", "x"))
    assert dom.entails(big, cond("x == 9007199254740993", "x"))
    edge = dom.assign(dom.initial(), "x", expr(f"{2 ** 52}"))
    assert edge.bounds == ((2 ** 52, 2 ** 52),)
    assert dom.assume(dom.top(), cond(f"x <= {2 ** 52 + 1}", "x")).bounds \
        == ((-INF, 2 ** 52 + 1),)
    # beyond int64 too
    huge = dom.assign(big, "x", expr(f"x + {2 ** 70}"))
    assert huge.bounds == ((2 ** 70 + 2 ** 53 + 1, 2 ** 70 + 2 ** 53 + 1),)


def test_interval_refinement_divides_exactly():
    dom = IntervalDomain(("x",))
    d = IntervalElem(((0, 2 ** 52),))
    # the float quotient 2^52 - 0.2 rounds to 2^52; exactly, x <= 2^52 - 1
    out = dom.assume(d, cond(f"5 * x <= {5 * 2 ** 52 - 1}", "x"))
    assert out.bounds == ((0, 2 ** 52 - 1),)
    # and 2^52 - 0.8 rounds to 2^52 - 1; exactly, x >= 2^52
    out = dom.assume(d, cond(f"5 * x >= {5 * 2 ** 52 - 4}", "x"))
    assert out.bounds == ((2 ** 52, 2 ** 52),)


def test_octagon_bound_is_exact_within_the_limit_and_dropped_beyond():
    dom = OctagonDomain(("x", "y"))
    assert dom._limit == 2 ** 57  # a unary bound b is the entry 2b
    start = dom.initial()
    relation = 2 ** 56 + 1  # the unary entry 2c is beyond the limit, c is not
    for c, want in ((2 ** 53 + 1, [f"x = {2 ** 53 + 1}", "y = 0"]),
                    (2 ** 56, [f"x = {2 ** 56}", "y = 0"]),
                    (relation, ["y = 0", f"x = y + {relation}", f"x + y = {relation}"]),
                    (2 ** 60, ["y = 0"])):
        for e in (expr(f"x + {c}"), expr(f"y + {c}")):
            assert dom.constraints(dom.assign(start, "x", e)) == want
        constant = dom.assign(start, "x", expr(f"{c}"))
        assert dom.intervals_of(constant)[0] == ((c, c) if c <= 2 ** 56 else (-INF, INF))
    # a guard bound beyond the limit is dropped, but still decides emptiness
    # exactly, through the interval fallback
    assert dom.intervals_of(dom.assume(dom.top(), cond(f"x <= {2 ** 57}", "x, y")))[0] \
        == (-INF, INF)
    for c in (2 ** 53 + 1, 2 ** 60 + 1):
        assert dom.assume(start, cond(f"x >= {c}", "x, y")) is BOTTOM
        assert dom.assume(start, cond(f"x - y >= {c}", "x, y")) is BOTTOM


def test_octagon_closure_sums_never_round():
    # y = 2^52 + 2^52 + 1 = 2^53 + 1: twice that, as a float, rounds to 2^54
    dom = OctagonDomain(("x", "y"))
    d = dom.assign(dom.initial(), "x", expr(f"{2 ** 52}"))
    d = dom.assign(d, "y", expr(f"x + {2 ** 52}"))
    d = dom.assign(d, "y", expr("y + 1"))
    assert not dom.entails(d, cond(f"y == {2 ** 53}", "x, y"))
    assert not dom.entails(d, cond(f"y <= {2 ** 53}", "x, y"))
    assert dom.entails(d, cond(f"y == {2 ** 53 + 1}", "x, y"))
    assert _every_entry_bounded_or_none(dom, d)


def test_octagon_refinement_divides_exactly():
    dom = OctagonDomain(("x",))
    d = dom.assume(dom.top(), cond(f"x >= 0 && x <= {2 ** 50}", "x"))
    # the float quotient 2^50 - 0.01 rounds to 2^50; exactly, x <= 2^50 - 1
    out = dom.assume(d, cond(f"100 * x <= {100 * 2 ** 50 - 1}", "x"))
    assert dom.intervals_of(out) == ((0, 2 ** 50 - 1),)
    # and 2^50 - 0.99 rounds to 2^50 - 1; exactly, x >= 2^50
    out = dom.assume(d, cond(f"100 * x >= {100 * 2 ** 50 - 99}", "x"))
    assert dom.intervals_of(out) == ((2 ** 50, 2 ** 50),)


def _big(rng) -> int:
    """An integer of magnitude near 2^40 ... 2^62, of either sign."""
    return rng.choice((1, -1)) * (2 ** rng.randint(40, 62) + rng.randint(-2 ** 20, 2 ** 20))


def _holds(dom, d, point) -> bool:
    if isinstance(dom, IntervalDomain):
        return d is not BOTTOM and all(lo <= v <= hi for v, (lo, hi) in zip(point, d.bounds))
    return _octagon_holds(dom, d, point)


def _linear(variables, rng):
    """A random linear expression: unit and scaled terms plus a constant."""
    e = Expr.of(rng.choice((0, rng.randint(-9, 9), _big(rng))))
    for v in rng.sample(variables, rng.randint(1, min(2, len(variables)))):
        term = Expr.of(v) if rng.random() < 0.7 else scaled(rng.choice((-2, 3)), Expr.of(v))
        e = binop(rng.choice("+-"), e, term)
    return e


def _true_at(variables, point, rng):
    """A random linear condition that holds at `point`."""
    env = dict(zip(variables, point))
    e = _linear(variables, rng)
    value = eval_expr(e, env)
    slack = rng.choice((0, rng.randint(0, 9), abs(_big(rng))))
    op, bound = rng.choice((("<=", value + slack), (">=", value - slack), ("==", value),
                            ("!=", value + slack + 1)))
    return Cmp(op, e, Expr.of(bound))


def _around(dom, point, rng):
    """An element that contains `point`."""
    d = dom.top()
    for _ in range(rng.randint(1, 2 * dom.n)):
        d = dom.assume(d, _true_at(dom.variables, point, rng))
    return d


def test_transfers_stay_sound_at_large_magnitudes():
    """Bounded: 200 seeded random walks of 8 steps from a concrete point
    near +-2^40 ... 2^62, each step checked in exact Python ints."""
    rng = random.Random(41)
    checks = 0
    for walk in range(200):
        variables = tuple(f"v{k}" for k in range(rng.randint(2, 4)))
        point = [_big(rng) for _ in variables]
        doms = (IntervalDomain(variables), OctagonDomain(variables))
        elems = [_around(dom, point, rng) for dom in doms]
        history = [list(elems)]
        for _ in range(8):
            step = rng.choice(("assign", "shift", "assume", "mix", "widen"))
            x = rng.choice(variables)
            if step in ("assign", "shift"):
                if step == "shift":  # x := +-x + c keeps x's relations
                    c = Expr.of(rng.choice((rng.randint(-9, 9), _big(rng))))
                    e = rng.choice((binop("+", Expr.of(x), c), binop("-", c, Expr.of(x))))
                else:
                    e = Expr.of(HAVOC) if rng.random() < 0.1 else _linear(variables, rng)
                choices = (rng.randint(-3, 3),) * len(e.linear.havocs)
                value = eval_expr(e, dict(zip(variables, point)), choices)
                point[variables.index(x)] = value
                elems = [dom.assign(d, x, e) for dom, d in zip(doms, elems)]
            elif step == "assume":
                b = _true_at(variables, point, rng)
                elems = [dom.assume(d, b) for dom, d in zip(doms, elems)]
            elif step == "mix":
                partition = domtools.rand_partition(len(variables), rng)
                elems = [dom.mix([d, _around(dom, point, rng)], partition)
                         for dom, d in zip(doms, elems)]
            else:
                earlier = rng.choice(history)
                elems = [dom.widen(a, d) for dom, a, d in zip(doms, earlier, elems)]
            history.append(list(elems))
            for dom, d in zip(doms, elems):
                assert _holds(dom, d, point), (walk, step, dom.kind, point)
                checks += 1
    assert checks == 200 * 8 * 2


def _reference_close(dom, m, pivots):
    """`_close_at` over Python ints: the same steps on an object matrix,
    where no sum can wrap, and with the negative-cycle test at the end."""
    m = np.array(m, dtype=object)
    np.fill_diagonal(m, 0)
    for k in sorted(pivots):
        m = np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :])
    if any(m[k, k] < 0 for k in pivots):
        return None
    lits, bars = dom._lits, dom._bars
    unary = 2 * (m[lits, bars] // 2)
    if any(unary + unary[bars] < 0):
        return None
    m[lits, bars] = unary
    m = np.minimum(m, (unary[:, None] + unary[bars][None, :]) // 2)
    return np.where(abs(m) > dom._limit, _NO_BOUND, m).astype(np.int64)


def test_int64_closure_matches_the_python_int_closure():
    """Entries in a wider range than `_close_at` gets (within twice the
    limit, or `_NO_BOUND` give or take the limit; its inputs are within the
    limit or `_NO_BOUND`), negative cycles included: int64 closure never
    wraps."""
    rng = random.Random(43)
    outcomes = {True: 0, False: 0}
    for _ in range(400):
        dom = OctagonDomain(tuple(f"v{k}" for k in range(rng.randint(1, 12))))
        lim = dom._limit
        m = dom.top().m.copy()
        negative = rng.random()  # share of negative entries
        for i in range(dom.size):
            for j in range(dom.size):
                r = rng.random()
                if r < 0.3:
                    m[i, j] = _NO_BOUND + rng.randint(-lim, lim)
                elif r < 0.6:
                    m[i, j] = rng.choice((-1, 1) if rng.random() < negative else (1,)) \
                        * rng.randint(lim // 2, 2 * lim)
        pivots = (range(dom.size) if rng.random() < 0.5
                  else rng.sample(range(dom.size), rng.randint(0, dom.size)))
        got, want = dom._close_at(m.copy(), pivots), _reference_close(dom, m, pivots)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.m, want)
        outcomes[got is None] += 1
    assert min(outcomes.values()) > 50


def _near_limit_octagon(dom, rng, closed):
    """Entries from small bounds, `_NO_BOUND`, and bounds within 2 of
    +-`_limit` (and of +-2 * `_limit`, as unary entries are twice a bound):
    closed, or left unclosed as a widened element is."""
    lim = dom._limit
    pool = [*range(-4, 5), *(s * (k * lim + e) for s in (1, -1)
                              for k in (1, 2) for e in range(-2, 3))]
    m = dom.top().m.copy()
    for _ in range(rng.randint(0, 3 * dom.size)):
        i, j = rng.randrange(dom.size), rng.randrange(dom.size)
        if i != j:
            c = rng.choice(pool)
            m[i, j] = min(m[i, j], c)
            m[j ^ 1, i ^ 1] = min(m[j ^ 1, i ^ 1], c)
    if closed:
        return dom._close_matrix(m) or BOTTOM
    return OctElem(m, closed=False)


def test_constraints_match_the_scalar_reference_near_the_limit():
    """The fact printer reading Python ints prints what the printer reading
    NumPy scalars printed, on closed and widened elements whose entries
    include `_NO_BOUND` and bounds within 2 of +-`_limit`."""
    rng = random.Random(47)
    checked = near = 0
    while checked < 500:
        dom = OctagonDomain(tuple(f"v{k}" for k in range(rng.randint(1, 8))))
        lim = dom._limit
        for d in (_near_limit_octagon(dom, rng, True), _near_limit_octagon(dom, rng, False),
                  domtools.rand_octagon(dom, rng)):
            if d is not BOTTOM and not d.closed and rng.random() < 0.5:
                d = dom.widen(_closed_octagon(dom, rng), d)
            assert dom.constraints(d) == domtools.octagon_constraints_reference(dom, d)
            c = dom._closed(d)
            near += c is not BOTTOM and bool((np.abs(np.abs(c.m) - lim) <= 2).any())
            checked += 1
    assert near > 50


def test_join_of_an_element_with_itself_is_that_element():
    """join(a, a) returns a when a is closed, else a's cached closure (or
    BOTTOM when it is unsatisfiable), so no new matrix is made; leq(a, a)."""
    rng = random.Random(53)
    dom = OctagonDomain(("x", "y", "z"))
    for _ in range(100):
        a = _closed_octagon(dom, rng)
        w = _widened_octagon(dom, rng)
        u = _unsatisfiable_octagon(dom, rng)
        assert dom.join(a, a) is a and dom.leq(a, a)
        assert dom.join(w, w) is dom._closed(w) and dom.leq(w, w)
        assert dom.join(u, u) is BOTTOM and dom.leq(u, u)
        assert dom.join(BOTTOM, BOTTOM) is BOTTOM and dom.leq(BOTTOM, BOTTOM)
    intervals = IntervalDomain(("x", "y"))
    i = domtools.rand_interval(intervals, rng)
    assert intervals.join(i, i) is i and intervals.leq(i, i)


# ---------------------------------------------------------------------------
# recency wrapper


def _recency(tid=1):
    inner = IntervalDomain(("x",))
    return inner, RecencyDomain(inner, tid)


def _tagged(value, tids):
    return RecencyFact(IntervalElem(((value, value),)), frozenset(tids))


def test_recency_write_tags_thread():
    _, dom = _recency(tid=0)
    f = dom.assign(dom.initial(), "x", expr("1"))
    assert f.tids == frozenset({0})
    assert f.elem == IntervalElem(((1, 1),))
    assert dom.assign(f, "x", expr("2")).tids == frozenset({0})
    assert dom.assign(_tagged(0, {2}), "x", expr("1")).tids == frozenset({0, 2})


def test_recency_apply_per_command():
    """Writes tag the writing thread; assume, acquire and release keep tags."""
    from racefree.engine import AnalysisConfig, _Frame
    from racefree.lang import Release

    _, dom = _recency(tid=1)
    f = _tagged(0, {2})
    assert dom.assign(f, "x", expr("1")).tids == frozenset({1, 2})
    assert dom.assume(f, cond("x == x", "x")).tids == frozenset({2})
    assert dom.mix([f], singleton_partition(1)).tids == frozenset({2})
    p = parse_program("var x;\nlock m;\nthread t { acquire(m); release(m); }")
    frame = _Frame(p, AnalysisConfig(recency=True))
    release = next(i for i in p.instructions if isinstance(i.command, Release))
    own = RecencyFact(frame.domain.initial(), frozenset({0}))
    assert frame.transfer(release, own, {}) is own


def test_recency_admit_rules():
    """At an acquire, an incoming fact tagged only with the receiving thread
    is stale and dropped; every other one is mixed in, and the thread's own
    fact always is, whatever its tags."""
    _, dom = _recency(tid=0)
    part = singleton_partition(1)
    own = _tagged(0, {0})
    assert dom.mix([own, _tagged(3, {0})], part) == own
    assert dom.mix([own, _tagged(3, {0, 1})], part) == RecencyFact(
        IntervalElem(((0, 3),)), frozenset({0, 1}))
    assert dom.mix([own, _tagged(3, ())], part) == RecencyFact(
        IntervalElem(((0, 3),)), frozenset({0}))
    assert dom.mix([_tagged(0, {1}), _tagged(3, {0})], part) == _tagged(0, {1})


# ---------------------------------------------------------------------------
# randomized lattice laws (small count here; acceptance reruns at >= 10k)


@pytest.mark.parametrize("make", ["interval", "octagon", "envset"])
def test_lattice_laws_sampled(make):
    rng = random.Random(make)
    dom = {
        "interval": IntervalDomain(("x", "y")),
        "octagon": OctagonDomain(("x", "y")),
        "envset": EnvSetDomain(("x", "y"), value_box=domtools.BOX),
    }[make]
    for _ in range(150):
        a = domtools.rand_elem(dom, rng)
        b = domtools.rand_elem(dom, rng)
        c = domtools.rand_elem(dom, rng)
        assert dom.equal(dom.join(a, b), dom.join(b, a))
        assert dom.equal(dom.join(a, dom.join(b, c)), dom.join(dom.join(a, b), c))
        assert dom.equal(dom.join(a, a), a)
        assert dom.leq(a, a)
        assert dom.leq(a, dom.join(a, b))
        if dom.leq(a, b) and dom.leq(b, a):
            assert dom.equal(a, b)
        if dom.leq(a, b) and dom.leq(b, c):
            assert dom.leq(a, c)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_interval_join_is_lub(a, b, c, d):
    """Hypothesis: the join is the least upper bound of two intervals."""
    dom = IntervalDomain(("x",))
    lo1, hi1 = min(a, b), max(a, b)
    lo2, hi2 = min(c, d), max(c, d)
    x = IntervalElem(((lo1, hi1),))
    y = IntervalElem(((lo2, hi2),))
    j = dom.join(x, y)
    assert dom.leq(x, j) and dom.leq(y, j)
    assert j.bounds[0] == (min(lo1, lo2), max(hi1, hi2))


@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=0, max_size=6))
@settings(max_examples=200, deadline=None)
def test_envset_mix_is_product_of_projections(envs):
    """Hypothesis: singleton-region mix equals the projection product."""
    dom = EnvSetDomain(("x", "y"), value_box=domtools.BOX)
    s = frozenset(envs)
    if not s:
        return
    mixed = dom.mix([s], singleton_partition(2))
    xs = {e[0] for e in s}
    ys = {e[1] for e in s}
    assert mixed == frozenset((x, y) for x in xs for y in ys)


def test_transfer_soundness_sampled():
    rng = random.Random(99)
    pts = box_points(2, domtools.BOX)
    doms = [IntervalDomain(("x", "y")), OctagonDomain(("x", "y")),
            EnvSetDomain(("x", "y"), value_box=domtools.BOX)]
    for _ in range(150):
        dom = rng.choice(doms)
        d = domtools.rand_elem(dom, rng)
        cmd = domtools.rand_command(dom.variables, rng)
        assert domtools.transfer_sound(dom, d, cmd, pts)


def test_mix_soundness_sampled():
    rng = random.Random(17)
    pts = box_points(2, domtools.BOX)
    doms = [IntervalDomain(("x", "y")), OctagonDomain(("x", "y")),
            EnvSetDomain(("x", "y"), value_box=domtools.BOX)]
    for _ in range(150):
        dom = rng.choice(doms)
        elems = [domtools.rand_elem(dom, rng) for _ in range(rng.randint(1, 3))]
        partition = domtools.rand_partition(2, rng)
        assert domtools.mix_sound(dom, elems, partition, pts)
