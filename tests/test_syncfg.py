"""Sync-CFG construction, the per-lock tables it reads, gamma refinement,
DOT export."""

import pytest

from domtools import (
    asserted_programs,
    dependents_reference,
    post_release_points_reference,
    pre_acquire_points_reference,
)
from racefree import corpus
from racefree.concrete import enumerate_executions, happens_before
from racefree.engine import AnalysisConfig, _Frame
from racefree.lang import desugar, parse_program
from racefree.metacheck import random_race_free_programs
from racefree.syncfg import build_syncfg, refine_gamma, to_dot
from racefree.threadlocal import LocalContext

TWO_LOCKS = """var x;
lock m, n;
thread t { if (x == 0) { acquire(m); release(m); } else { acquire(n); release(n); } x := 1; }
thread u { while (x == 0) { acquire(m); release(m); } acquire(n); release(n); }
"""


def table_programs():
    return ([corpus.load(name) for name in corpus.names()]
            + [p for _, p in random_race_free_programs(12, 5)]
            + [p for _, p in asserted_programs()]
            + [desugar(parse_program(TWO_LOCKS))])


def test_lock_tables_match_the_reference_scans():
    """Each layer's view of the per-lock tables equals the per-lock scans
    they replaced: the sync-CFG, the thread-local buffers and the engine's
    re-enqueue map."""
    for p in table_programs():
        assert p.release_points == {m: post_release_points_reference(p, m) for m in p.locks}
        assert p.acquire_points == {m: pre_acquire_points_reference(p, m) for m in p.locks}
        g = build_syncfg(p)
        assert (g.release_points, g.acquire_points) == (p.release_points, p.acquire_points)
        ctx = LocalContext(p)
        assert ctx.buffer_points == post_release_points_reference(p)
        assert ctx.buffers_of_lock == {
            m: tuple(ctx.buffer_points.index(loc) for loc in post_release_points_reference(p, m))
            for m in p.locks}
        dependents = _Frame(p, AnalysisConfig()).dependents
        assert {rel: list(acqs) for rel, acqs in dependents.items()} == dependents_reference(p)


def test_coupled_xy_sync_edges(coupled_xy):
    g = build_syncfg(coupled_xy)
    assert set(g.sync_edges) == {(7, 1, "m"), (7, 10, "m"), (13, 1, "m"), (13, 10, "m")}


@pytest.mark.parametrize("name", corpus.names())
def test_sync_lookups_match_a_scan_of_the_edges(name):
    """Every acquire of a lock reads the one tuple of that lock's release
    points; a location that acquires no lock has no incoming sync edge."""
    p = corpus.load(name)
    g = build_syncfg(p)
    for n in sorted(loc for t in p.threads for loc in t.locations):
        for m in p.locks:
            scanned = tuple(sorted(r for r, a, lock in g.sync_edges if a == n and lock == m))
            if n in g.acquire_points[m]:
                assert g.release_points_feeding(m) == scanned
            else:
                assert scanned == ()
    refined = refine_gamma(g, p, depth=8)
    assert set(refined) <= set(g.sync_edges)
    assert refined == tuple(sorted(set(refined)))


def test_lock_free_program_has_no_sync_edges():
    p = desugar(parse_program("var x;\nthread a { x := 1; }\nthread b { }"))
    assert build_syncfg(p).sync_edges == ()


def test_single_release_single_acquire():
    p = desugar(parse_program(
        "var x;\nlock m;\nthread a { acquire(m); x := 1; release(m); }"))
    g = build_syncfg(p)
    assert len(g.sync_edges) == 1


def test_every_sw_pair_is_a_sync_edge(coupled_xy):
    g = build_syncfg(coupled_xy)
    edges = set(g.sync_edges)
    for e in enumerate_executions(coupled_xy, 11):
        if not e.steps:
            continue
        hb = happens_before(e)
        for i, j in hb.sw_edges:
            rel, acq = e.steps[i].instr, e.steps[j].instr
            assert (rel.target, acq.source, rel.command.lock) in edges


def test_refine_gamma_keeps_observed_edges(coupled_xy):
    g = build_syncfg(coupled_xy)
    refined = refine_gamma(g, coupled_xy, depth=11)
    assert set(refined) <= set(g.sync_edges)
    assert (7, 10, "m") in refined  # t1's release feeds t2's acquire


def test_refine_gamma_depth_zero_empties():
    p = desugar(parse_program(
        "var x;\nlock m;\nthread a { acquire(m); release(m); }"))
    refined = refine_gamma(build_syncfg(p), p, depth=0)
    assert refined == ()


def test_refine_gamma_drops_never_acquiring_thread():
    src = """var x;
lock m;
thread a { acquire(m); x := 1; release(m); }
thread b { assume(false); acquire(m); release(m); }
"""
    p = desugar(parse_program(src))
    g = build_syncfg(p)
    refined = refine_gamma(g, p, depth=10)
    acq_b = p.threads[1].instructions[1].source
    assert all(n != acq_b for (_, n, _) in refined)
    assert any(n != acq_b for (_, n, _) in g.sync_edges)


def test_dot_export_shape(coupled_xy):
    g = build_syncfg(coupled_xy)
    dot = to_dot(coupled_xy, g.sync_edges)
    assert dot.startswith("digraph")
    assert 'style=dashed, label="m"' in dot
    assert '"cluster_t1"' in dot and '"cluster_t2"' in dot
