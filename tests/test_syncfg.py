"""Sync-CFG construction, gamma refinement, DOT export."""

import pytest

from racefree import corpus
from racefree.concrete import enumerate_executions, happens_before
from racefree.lang import desugar, parse_program
from racefree.syncfg import build_syncfg, refine_gamma, to_dot


def test_coupled_xy_sync_edges(coupled_xy):
    g = build_syncfg(coupled_xy)
    assert set(g.sync_edges) == {(7, 1, "m"), (7, 10, "m"), (13, 1, "m"), (13, 10, "m")}


@pytest.mark.parametrize("name", corpus.names())
def test_sync_lookups_match_a_scan_of_the_edges(name):
    p = corpus.load(name)
    default = build_syncfg(p)
    for g in (default, refine_gamma(default, p, depth=8)):
        for n in sorted(loc for t in p.threads for loc in t.locations):
            for m in p.locks:
                assert g.release_points_feeding(n, m) == tuple(
                    sorted(r for r, a, lock in g.sync_edges if a == n and lock == m))


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
    assert set(refined.sync_edges) <= set(g.sync_edges)
    assert (7, 10, "m") in refined.sync_edges  # t1's release feeds t2's acquire


def test_refine_gamma_depth_zero_empties():
    p = desugar(parse_program(
        "var x;\nlock m;\nthread a { acquire(m); release(m); }"))
    refined = refine_gamma(build_syncfg(p), p, depth=0)
    assert refined.sync_edges == ()


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
    assert all(n != acq_b for (_, n, _) in refined.sync_edges)
    assert any(n != acq_b for (_, n, _) in g.sync_edges)


def test_dot_export_shape(coupled_xy):
    g = build_syncfg(coupled_xy)
    dot = to_dot(g, coupled_xy)
    assert dot.startswith("digraph")
    assert 'style=dashed, label="m"' in dot
    assert '"cluster_t1"' in dot and '"cluster_t2"' in dot
