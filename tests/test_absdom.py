"""Domain unit tests: lattice laws, transfers, mix, closure, widening."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domtools
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
    box_points,
    singleton_partition,
)
from racefree.lang import BinExpr, HavocExpr, IntLit, VarRef, parse_program

INF = math.inf


def cond(src, variables="x, y, z"):
    p = parse_program(f"var {variables};\nthread t {{ assume({src}); }}")
    return p.threads[0].body[0].cond


def octagon_from(dom, constraints):
    d = dom.top()
    for c in constraints:
        d = dom.assume(d, cond(c, ", ".join(dom.variables)))
    return d


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


def test_envset_has_no_widening():
    dom = EnvSetDomain(("x",))
    with pytest.raises(DomainError):
        dom.widen(frozenset(), frozenset())


# ---------------------------------------------------------------------------
# transfers


def test_assign_copy_interval():
    dom = IntervalDomain(("x", "y"))
    d = IntervalElem((((-INF, INF)), (1, 2)))
    out = dom.assign(d, "x", VarRef("y"))
    assert out.bounds[0] == (1, 2)


def test_assign_offset_octagon():
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, ["y >= 0"])
    out = dom.assign(d, "x", BinExpr("+", VarRef("y"), IntLit(1)))
    assert dom.entails(out, cond("x == y + 1", "x, y"))
    assert dom.entails(out, cond("y >= 0", "x, y"))


def test_assign_havoc_forgets():
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, ["x == y", "x >= 1", "x <= 2"])
    out = dom.assign(d, "x", HavocExpr())
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
    dom = OctagonDomain(("x", "y"))
    d = octagon_from(dom, ["x == y", "x >= 1", "x <= 2"])
    out = dom.forget(d, ["y"])
    pts = box_points(2, domtools.BOX)
    got = domtools.gamma_box(dom, out, pts)
    want = {(x, y) for x in (1, 2) for y in range(domtools.BOX[0], domtools.BOX[1] + 1)}
    assert got == want
    assert dom.forget(d, []) == d
    assert dom.forget(BOTTOM, ["y"]) is BOTTOM


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
    x_plus_1 = BinExpr("+", VarRef("x"), IntLit(1))
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
        assert dom.assign(w, "x", IntLit(1)) is BOTTOM
    assert len(calls) == 1
    assert w.closure is None


# ---------------------------------------------------------------------------
# bounds near 2^53 (floats stop being exact integers there)


def test_interval_bound_above_2_pow_52_goes_to_infinity():
    dom = IntervalDomain(("x",))
    big = dom.assign(dom.initial(), "x", IntLit(9007199254740993))
    assert big.bounds == ((-INF, INF),)
    assert not dom.entails(big, cond("x == 9007199254740994", "x"))
    edge = dom.assign(dom.initial(), "x", IntLit(2 ** 52))
    assert edge.bounds == ((2 ** 52, 2 ** 52),)
    assert dom.assume(dom.top(), cond(f"x <= {2 ** 52 + 1}", "x")).bounds == ((-INF, INF),)


def test_interval_refinement_divides_exactly():
    dom = IntervalDomain(("x",))
    d = IntervalElem(((0, 2 ** 52),))
    # the float quotient 2^52 - 0.2 rounds to 2^52; exactly, x <= 2^52 - 1
    out = dom.assume(d, cond(f"5 * x <= {5 * 2 ** 52 - 1}", "x"))
    assert out.bounds == ((0, 2 ** 52 - 1),)
    # and 2^52 - 0.8 rounds to 2^52 - 1; exactly, x >= 2^52
    out = dom.assume(d, cond(f"5 * x >= {5 * 2 ** 52 - 4}", "x"))
    assert out.bounds == ((2 ** 52, 2 ** 52),)


def test_octagon_constant_above_2_pow_52_drops_the_bound():
    dom = OctagonDomain(("x", "y"))
    start = dom.initial()
    for expr in (IntLit(9007199254740993),
                 BinExpr("+", VarRef("y"), IntLit(2 ** 60)),
                 BinExpr("+", VarRef("x"), IntLit(2 ** 53 + 1))):
        big = dom.assign(start, "x", expr)
        assert dom.intervals_of(big) == ((-INF, INF), (0, 0))
        assert dom.constraints(big) == ["y = 0"]
    kept = dom.assign(start, "x", IntLit(2 ** 40))
    assert dom.intervals_of(kept)[0] == (2 ** 40, 2 ** 40)
    # a guard bound beyond 2^52 is dropped, but still decides emptiness exactly
    assert dom.intervals_of(dom.assume(dom.top(), cond(f"x <= {2 ** 52 + 1}", "x, y")))[0] \
        == (-INF, INF)
    assert dom.assume(start, cond(f"x >= {2 ** 53 + 1}", "x, y")) is BOTTOM
    assert dom.assume(start, cond(f"x - y >= {2 ** 53 + 1}", "x, y")) is BOTTOM


def test_octagon_closure_sums_never_round():
    # y = 2^52 + 2^52 + 1 = 2^53 + 1: twice that, as a float, rounds to 2^54
    dom = OctagonDomain(("x", "y"))
    d = dom.assign(dom.initial(), "x", IntLit(2 ** 52))
    d = dom.assign(d, "y", BinExpr("+", VarRef("x"), IntLit(2 ** 52)))
    d = dom.assign(d, "y", BinExpr("+", VarRef("y"), IntLit(1)))
    assert not dom.entails(d, cond(f"y == {2 ** 53}", "x, y"))
    assert not dom.entails(d, cond(f"y <= {2 ** 53}", "x, y"))
    # every stored bound is within the limit where closure sums are exact
    finite = d.m[np.isfinite(d.m)]
    assert np.all(np.abs(finite) * dom.size < 2 ** 53)


def test_octagon_refinement_divides_exactly():
    dom = OctagonDomain(("x",))
    d = dom.assume(dom.top(), cond(f"x >= 0 && x <= {2 ** 50}", "x"))
    # the float quotient 2^50 - 0.01 rounds to 2^50; exactly, x <= 2^50 - 1
    out = dom.assume(d, cond(f"100 * x <= {100 * 2 ** 50 - 1}", "x"))
    assert dom.intervals_of(out) == ((0, 2 ** 50 - 1),)
    # and 2^50 - 0.99 rounds to 2^50 - 1; exactly, x >= 2^50
    out = dom.assume(d, cond(f"100 * x >= {100 * 2 ** 50 - 99}", "x"))
    assert dom.intervals_of(out) == ((2 ** 50, 2 ** 50),)


# ---------------------------------------------------------------------------
# recency wrapper


def _recency(tid=1):
    inner = IntervalDomain(("x",))
    return inner, RecencyDomain(inner, tid)


def _tagged(value, tids):
    return RecencyFact(IntervalElem(((value, value),)), frozenset(tids))


def test_recency_write_tags_thread():
    _, dom = _recency(tid=0)
    f = dom.assign(dom.initial(), "x", IntLit(1))
    assert f.tids == frozenset({0})
    assert f.elem == IntervalElem(((1, 1),))
    assert dom.assign(f, "x", IntLit(2)).tids == frozenset({0})
    assert dom.assign(_tagged(0, {2}), "x", IntLit(1)).tids == frozenset({0, 2})


def test_recency_apply_per_command():
    """Writes tag the writing thread; assume, acquire and release keep tags."""
    from racefree.engine import AnalysisConfig, _Frame
    from racefree.lang import Release, desugar
    from racefree.syncfg import build_syncfg

    _, dom = _recency(tid=1)
    f = _tagged(0, {2})
    assert dom.assign(f, "x", IntLit(1)).tids == frozenset({1, 2})
    assert dom.assume(f, cond("x == x", "x")).tids == frozenset({2})
    assert dom.mix([f], singleton_partition(1)).tids == frozenset({2})
    p = desugar(parse_program("var x;\nlock m;\nthread t { acquire(m); release(m); }"))
    frame = _Frame(p, build_syncfg(p), AnalysisConfig(recency=True))
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
