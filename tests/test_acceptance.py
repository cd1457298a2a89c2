"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a single pass/fail line (visible with `pytest -s`);
a test only passes if the exact expected outcome holds AND the stated time
budget is met.  Expected values are frozen from independent oracles: hand
enumeration, point-set semantics within the value box, and the bounded
concrete explorer.
"""

import math
import random
import time
from itertools import product

import numpy as np
import pytest

import domtools
from domtools import box_points, random_race_free_programs
from racefree import corpus
from racefree.absdom import (
    EnvSetDomain,
    IntervalDomain,
    OctagonDomain,
    RecencyFact,
)
from racefree.checker import (
    check_assertions,
    compute_owned_oracle,
    compute_owned_static,
)
from racefree.concrete import (
    find_data_races,
    find_region_races,
    racy_regions_via_translation,
)
from racefree.engine import (
    AnalysisConfig,
    analyze_fixpoint,
    collecting_fixpoint,
    make_domain,
)
from racefree.lang import RegionMap, eval_bool, parse_program
from racefree.metacheck import (
    check_correspondence,
    check_local_abstraction,
)

BOX = (-4, 4)
RANDOM_SEED = 20240811


def _report_line(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s): {detail}")
    assert ok, detail


def base(fact):
    return fact.elem if isinstance(fact, RecencyFact) else fact


def verdicts(p, analysis, domain, owned, recency=False):
    cfg = AnalysisConfig(analysis=analysis, domain=domain, recency=recency)
    facts = analyze_fixpoint(p, cfg)
    report = check_assertions(p, facts, owned, cfg)
    return {a.location: a.proved for a in report.assertions}, facts, cfg


@pytest.fixture(scope="module")
def random_corpus():
    return random_race_free_programs(10, seed=RANDOM_SEED)


@pytest.fixture(scope="module")
def full_corpus(random_corpus):
    return [(n, corpus.load(n)) for n in corpus.names()] + list(random_corpus)


# ---------------------------------------------------------------------------


def test_criterion_1_precision_triple(coupled_xy, coupled_xy_regions):
    """Region-relational proves all three assertions; relational fails the
    cross-thread equality at the acquire; value-set proves only the private
    counter.  Exact verdicts, under one second."""
    t0 = time.monotonic()
    owned = compute_owned_static(coupled_xy)
    regrel, _, _ = verdicts(coupled_xy.with_regions(coupled_xy_regions), "regrel",
                            "octagon", owned)
    rel, _, _ = verdicts(coupled_xy, "rel", "octagon", owned)
    valset, _, _ = verdicts(coupled_xy, "valset", "interval", owned)
    elapsed = time.monotonic() - t0
    ok = (
        regrel == {5: True, 9: True, 11: True}
        and rel == {5: True, 9: True, 11: False}
        and valset == {5: False, 9: True, 11: False}
        and elapsed < 1.0
    )
    _report_line(1, ok, elapsed,
                 f"regrel={regrel} rel={rel} valset={valset}")


def test_criterion_2_recency_bound(capped_counter):
    """Without recency the counter has no upper bound and the assertion
    fails; with recency the bound is finite and the assertion is proved."""
    t0 = time.monotonic()
    owned = compute_owned_static(capped_counter)
    plain, plain_facts, cfg = verdicts(capped_counter, "rel", "octagon", owned)
    tagged, tagged_facts, _ = verdicts(capped_counter, "rel", "octagon", owned,
                                       recency=True)
    dom = make_domain(cfg, capped_counter.variables)
    hi_plain = dom.intervals_of(base(plain_facts[3]))[0][1]
    hi_tagged = dom.intervals_of(base(tagged_facts[3]))[0][1]
    elapsed = time.monotonic() - t0
    ok = (
        plain == {3: False}
        and tagged == {3: True}
        and hi_plain == math.inf
        and hi_tagged == 1
        and elapsed < 1.0
    )
    _report_line(2, ok, elapsed,
                 f"x upper bound without recency={hi_plain}, with={hi_tagged}")


def test_criterion_3_unprotected_read(flag_handoff):
    """The flag-handoff read of x is lock-free but race free; with the
    semantic owned oracle the final assertion is proved."""
    t0 = time.monotonic()
    owned = compute_owned_oracle(flag_handoff, 12)
    got, _, _ = verdicts(flag_handoff, "rel", "octagon", owned)
    elapsed = time.monotonic() - t0
    ok = got == {13: True} and elapsed < 5.0
    _report_line(3, ok, elapsed, f"verdicts={got}")


GOLDEN_ROWS = {
    # analysis style -> location -> constraint row (artifact grammar syntax)
    "vrel_style": {
        1: "x == 0 && y == 0",
        2: "x >= 0 && x == y",
        3: "x >= 0 && x == y",
        4: "x == y + 1 && y >= 0",
        5: "x >= 1 && x == y",
        6: "x >= 1 && x == y",
        7: "x == 0 && y == 0",
        8: "x >= 0 && x == y",
        9: "x == y + 1 && y >= 0",
        10: "x >= 1 && x == y",
        11: "x >= 1 && x == y",
    },
    "rel": {
        1: "x == 0 && y == 0",
        2: "x >= 0 && y >= 0",
        3: "x >= 0 && x == y",
        4: "x == y + 1 && y >= 0",
        5: "x >= 1 && x == y",
        6: "x >= 1 && x == y",
        7: "x == 0 && y == 0",
        8: "x >= 0 && y >= 0",
        9: "x >= 1 && y >= 0",
        10: "x >= 1 && y >= 1",
        11: "x >= 1 && y >= 1",
    },
    "valset": {
        1: "x == 0 && y == 0",
        2: "x >= 0 && y >= 0",
        3: "x >= 0 && y >= 0",
        4: "x >= 1 && y >= 0",
        5: "x >= 1 && y >= 1",
        6: "x >= 1 && y >= 1",
        7: "x == 0 && y == 0",
        8: "x >= 0 && y >= 0",
        9: "x >= 1 && y >= 0",
        10: "x >= 1 && y >= 1",
        11: "x >= 1 && y >= 1",
    },
}


def _row_set(row, variables):
    """Normalize a constraint row to its satisfying set inside the box."""
    p = parse_program(f"var {', '.join(variables)};\nthread t {{ assume({row}); }}")
    cond = p.threads[0].instructions[0].command.cond
    out = set()
    for env in product(range(BOX[0], BOX[1] + 1), repeat=len(variables)):
        if eval_bool(cond, dict(zip(variables, env))):
            out.add(env)
    return frozenset(out)


def test_criterion_4_collecting_golden_rows(double_increment, double_increment_regions):
    """The environment-set collecting fixpoints reproduce the golden
    constraint rows at every location, for the version-tracking style
    (realized at region granularity), the relational style, and the
    value-set style.  Rows are compared string-normalized: each row is
    parsed with the artifact grammar and must denote exactly the computed
    set inside the value box."""
    t0 = time.monotonic()
    p = double_increment.with_regions(double_increment_regions)
    styles = {
        "vrel_style": AnalysisConfig(analysis="regrel"),
        "rel": AnalysisConfig(analysis="rel"),
        "valset": AnalysisConfig(analysis="valset", domain="envset"),
    }
    mismatches = []
    for style, cfg in styles.items():
        res = collecting_fixpoint(p, cfg._replace(value_box=BOX))
        for loc, row in GOLDEN_ROWS[style].items():
            want = _row_set(row, p.variables)
            got = res.facts[loc]
            if got != want:
                mismatches.append((style, loc, row, sorted(got - want)[:3],
                                   sorted(want - got)[:3]))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 5.0
    _report_line(4, ok, elapsed,
                 f"33 golden rows checked; mismatches={mismatches or 'none'}")


def test_criterion_5_metatheory_at_depth(full_corpus):
    """Correspondence and version-invariant checks pass with zero violations
    on the full corpus at depth 12 with havoc pool {0,1,2}."""
    t0 = time.monotonic()
    failures = []
    total = 0
    for name, p in full_corpus:
        for r in check_correspondence(p, 12, havoc_values=(0, 1, 2)):
            total += r.instances
            if not r.passed:
                failures.append((name, r.name, r.violations[:1]))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300.0
    _report_line(5, ok, elapsed,
                 f"{len(full_corpus)} programs, {total} check instances, "
                 f"failures={failures or 'none'}")


def test_criterion_6_local_abstraction(full_corpus, coupled_xy_regions,
                                       double_increment_regions):
    """Per-instruction transfer dominance of the location-indexed analysis
    over the thread-local collecting semantics: 200 seeded samples per
    program, variable and region granularity."""
    t0 = time.monotonic()
    declared = {"coupled_xy": coupled_xy_regions,
                "double_increment": double_increment_regions}
    failures = []
    for name, p in full_corpus:
        plain = check_local_abstraction(p, 200, seed=RANDOM_SEED)
        if not plain.passed:
            failures.append((name, plain.name))
        regions = declared.get(name, p.regions)
        tagged = check_local_abstraction(p, 200, seed=RANDOM_SEED, regions=regions)
        if not tagged.passed:
            failures.append((name, tagged.name))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report_line(6, ok, elapsed,
                 f"{2 * len(full_corpus)} runs of 200 samples, "
                 f"failures={failures or 'none'}")


def test_criterion_7_domain_property_suites():
    """Five randomized suites, >= 10,000 cases each inside the [-4,4] box:
    lattice laws, transfer soundness, mix soundness, closure idempotence,
    widening stabilization.  Zero counterexamples allowed."""
    t0 = time.monotonic()
    pts = box_points(2, BOX)
    doms = [IntervalDomain(("x", "y")), OctagonDomain(("x", "y")),
            EnvSetDomain(("x", "y"), value_box=BOX)]
    counts = {}

    rng = random.Random(701)
    n = 0
    for i in range(10_000):
        dom = doms[i % 3]
        a, b, c = (domtools.rand_elem(dom, rng) for _ in range(3))
        assert dom.equal(dom.join(a, b), dom.join(b, a))
        assert dom.equal(dom.join(a, dom.join(b, c)), dom.join(dom.join(a, b), c))
        assert dom.equal(dom.join(a, a), a)
        assert dom.leq(a, a) and dom.leq(a, dom.join(a, b))
        if dom.leq(a, b) and dom.leq(b, a):
            assert dom.equal(a, b)
        n += 1
    counts["lattice_laws"] = n

    rng = random.Random(702)
    n = 0
    for i in range(10_000):
        dom = doms[i % 3]
        d = domtools.rand_elem(dom, rng)
        cmd = domtools.rand_command(dom.variables, rng)
        assert domtools.transfer_sound(dom, d, cmd, pts), (dom.kind, cmd)
        n += 1
    counts["transfer_soundness"] = n

    rng = random.Random(703)
    n = 0
    for i in range(10_000):
        dom = doms[i % 3]
        elems = [domtools.rand_elem(dom, rng) for _ in range(rng.randint(1, 3))]
        partition = domtools.rand_partition(2, rng)
        assert domtools.mix_sound(dom, elems, partition, pts), dom.kind
        n += 1
    counts["mix_soundness"] = n

    from racefree.absdom import OctElem

    oct_dom = OctagonDomain(("x", "y"))
    rng = random.Random(704)
    n = 0
    for _ in range(10_000):
        raw = oct_dom.top().m.copy()
        for _ in range(rng.randint(0, 6)):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                v = rng.randint(-6, 6)
                raw[i, j] = min(raw[i, j], v)
                raw[j ^ 1, i ^ 1] = min(raw[j ^ 1, i ^ 1], v)
        closed = oct_dom._close_matrix(raw)
        rawe = OctElem(raw, closed=False)
        if closed is None:
            assert not oct_dom.contains_points(rawe, pts).any()
        else:
            assert oct_dom._close_matrix(closed.m) == closed
            assert (oct_dom.contains_points(rawe, pts)
                    == oct_dom.contains_points(closed, pts)).all()
        n += 1
    counts["closure"] = n

    rng = random.Random(705)
    n = 0
    for i in range(10_000):
        dom = doms[i % 2]  # widening exists for interval and octagon only
        entries = (2 * dom.n) ** 2 if isinstance(dom, OctagonDomain) else 2 * dom.n
        w = domtools.rand_elem(dom, rng)
        changes = 0
        for _ in range(2 * entries + 6):
            nxt = dom.widen(w, dom.join(w, domtools.rand_elem(dom, rng)))
            if not dom.equal(nxt, w):
                changes += 1
            w = nxt
        assert changes <= 2 * entries, dom.kind
        assert dom.equal(dom.widen(w, w), w)
        n += 1
    counts["widening"] = n

    elapsed = time.monotonic() - t0
    ok = all(v >= 10_000 for v in counts.values()) and elapsed < 120.0
    _report_line(7, ok, elapsed, f"cases={counts}, zero counterexamples")


def test_criterion_8_race_checking(full_corpus, coupled_xy, coupled_xy_regions):
    """Bounded race checking: clean program clean at depth 13, lock-stripped
    variant races on x, coarse region partition races while the two-region
    one does not, and the witness-variable translation agrees with direct
    detection on the whole corpus."""
    t0 = time.monotonic()
    clean = find_data_races(coupled_xy, 13)

    stripped = parse_program(corpus.COUPLED_XY.replace(
        "  acquire(m);\n  assert(x == y);\n  release(m);", "  assert(x == y);"))
    racy = find_data_races(stripped, 13)

    one_region = coupled_xy.with_regions(
        RegionMap.from_declared(coupled_xy.variables, {"r": ("x", "y", "z")}))
    coarse = find_region_races(one_region, 13)
    fine = find_region_races(coupled_xy.with_regions(coupled_xy_regions), 13)

    translation_ok = True
    corpus_plus = list(full_corpus) + [
        ("coupled_xy_one_region", one_region),
        ("coupled_xy_two_regions", coupled_xy.with_regions(coupled_xy_regions)),
    ]
    for name, p in corpus_plus:
        direct = {r.subject for r in find_region_races(p, 10)}
        translated = racy_regions_via_translation(p, 12)
        if direct != translated:
            translation_ok = False
            break

    elapsed = time.monotonic() - t0
    ok = (
        clean == []
        and any(r.subject == "x" for r in racy)
        and any(r.subject == "r" for r in coarse)
        and fine == []
        and translation_ok
        and elapsed < 60.0
    )
    _report_line(8, ok, elapsed,
                 f"clean={len(clean)} stripped_x={any(r.subject == 'x' for r in racy)} "
                 f"coarse_race={bool(coarse)} fine_race={bool(fine)} "
                 f"translation_agrees={translation_ok}")


def test_criterion_9_precision_partial_order(full_corpus, coupled_xy_regions,
                                             double_increment_regions):
    """Substitute for the benchmark tables: the analysis precision order is
    verified as gamma-containment of the fixpoint facts at every location,
    for every corpus program, inside the test box."""
    t0 = time.monotonic()
    declared = {"coupled_xy": coupled_xy_regions,
                "double_increment": double_increment_regions}
    violations = []
    for name, p in full_corpus:
        p = p.with_regions(declared.get(name, p.regions))
        pts = box_points(len(p.variables), BOX)
        configs = {
            "VS": AnalysisConfig(analysis="valset", domain="interval"),
            "Rel": AnalysisConfig(analysis="rel", domain="octagon"),
            "RelT": AnalysisConfig(analysis="rel", domain="octagon", recency=True),
            "Reg": AnalysisConfig(analysis="regrel", domain="octagon"),
            "RegT": AnalysisConfig(analysis="regrel", domain="octagon", recency=True),
        }
        masks = {}
        for key, cfg in configs.items():
            facts = analyze_fixpoint(p, cfg)
            dom = make_domain(cfg, p.variables)
            masks[key] = {loc: dom.contains_points(base(f), pts)
                          for loc, f in facts.items()}
        for tighter, wider in (("RegT", "Reg"), ("Reg", "Rel"), ("RelT", "Rel"),
                               ("Rel", "VS"), ("RegT", "RelT")):
            for loc in masks[tighter]:
                if (masks[tighter][loc] & ~masks[wider][loc]).any():
                    violations.append((name, tighter, wider, loc))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 120.0
    _report_line(9, ok, elapsed,
                 f"{len(full_corpus)} programs x 5 configs, "
                 f"violations={violations or 'none'}")
