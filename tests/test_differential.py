"""Differential soundness net: every PROVED assertion holds in every state.

The programs are `domtools.asserted_programs`: loop-free race-free programs
from `domtools.random_race_free_programs`, with a true and a false upper
bound asserted on each variable a thread may read without racing, before
each release and at each thread's end.  Their reachable states are
explored exhaustively, so a PROVED false bound is a soundness defect, not
an artefact of a depth bound.

`domtools.near_limit_programs` do the same at octagon scale: constants, sums and
shifts straddling the octagon domain's limit of 2^59 / (2 * variables), past
which an octagon drops a bound, under rel and regrel.

The soundness defects still open in ROADMAP.md are pinned the same way, each
on a loop-free program that shows it, as a strict expected failure: the
change that fixes a defect turns its test into an unexpected pass, which
fails until the mark is removed.
"""

from functools import cache

import pytest

import domtools
from racefree.checker import check_assertions, compute_owned_static
from racefree.concrete import DEFAULT_HAVOC, find_data_races, reachable_states
from racefree.engine import AnalysisConfig, PostFixpointError, analyze_fixpoint
from racefree.lang import eval_bool, parse_program

CONFIGS = [
    *((analysis, domain, recency)
      for analysis, domain in (("valset", "interval"), ("rel", "octagon"),
                               ("regrel", "octagon"))
      for recency in (False, True)),
    ("rel", "envset", False),
    ("valset", "envset", False),
]
# No envset config proves a false bound on these programs, so none is kept
# as an expected failure: the one program whose values leave the envset
# value box (rand_1_3) leaves it downwards, where no upper bound can see
# the dropped environments (ROADMAP item 1).


def wrong_proofs(name, q, config, havoc_values=DEFAULT_HAVOC):
    """The PROVED assertions of `q` under `config` that fail in some
    reachable state where their thread stands at their location, and the
    number of PROVED assertions.  The states are explored with
    `havoc_values`, which must hold every value the analysis's havoc pool
    does."""
    analysis, domain, recency = config
    cfg = AnalysisConfig(analysis=analysis, domain=domain, recency=recency)
    facts = analyze_fixpoint(q, cfg)
    report = check_assertions(q, facts, compute_owned_static(q), cfg, name)
    # exhaustive: loop free
    states = reachable_states(q, len(q.instructions), havoc_values)
    wrong, proved = [], 0
    for a, r in zip(q.assertions, report.assertions):
        if not r.proved:
            continue
        proved += 1
        tid = q.thread_index(a.thread)
        if any(s.pc[tid] == a.location
               and not eval_bool(a.cond, dict(zip(q.variables, s.phi)))
               for s in states):
            wrong.append(f"{name} loc {a.location} [{a.thread}] {r.condition}")
    return wrong, proved


def config_id(config):
    analysis, domain, recency = config
    return f"{analysis}/{domain}" + ("/recency" if recency else "")


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_proved_assertions_hold_in_every_reachable_state(config):
    wrong, proved = [], 0
    for name, q in domtools.asserted_programs():
        w, k = wrong_proofs(name, q, config)
        wrong += w
        proved += k
    assert not wrong
    if config[1] != "envset":
        assert proved > 0


NEAR_LIMIT_CONFIGS = [("rel", "octagon", False), ("regrel", "octagon", False)]


@cache
def near_limit_outcomes(config):
    """The wrong PROVED assertions and the PROVED count over
    `domtools.near_limit_programs` under `config`, and the programs whose analysis
    fails its own post-fixpoint check, which give no verdicts."""
    wrong, proved, failed = [], 0, []
    for name, q in domtools.near_limit_programs():
        try:
            w, k = wrong_proofs(name, q, config)
        except PostFixpointError:
            failed.append(name)
            continue
        wrong += w
        proved += k
    return wrong, proved, failed


@pytest.mark.parametrize("config", NEAR_LIMIT_CONFIGS, ids=config_id)
def test_proved_near_the_octagon_limit_hold_in_every_reachable_state(config):
    wrong, proved, _ = near_limit_outcomes(config)
    assert not wrong
    assert proved > 100


@pytest.mark.parametrize("config", NEAR_LIMIT_CONFIGS, ids=config_id)
def test_near_limit_facts_pass_the_postfixpoint_check(config):
    assert near_limit_outcomes(config)[2] == []


def test_asserted_programs_are_race_free():
    """The asserts read only what their thread may read without racing, so
    the programs stay race free, and their facts are sound on owned
    variables (exhaustive: the programs are loop free)."""
    for name, q in domtools.asserted_programs():
        assert not find_data_races(q, len(q.instructions)), name


# (source, config, oracle havoc pool, the ROADMAP item that fixes it)
OPEN_DEFECTS = {
    # v = 5 leaves the value box -4..4
    "envset-value-box": (
        "var v; thread t { v := 4; v := v + 1; assert(v <= 4); }",
        ("rel", "envset", False), DEFAULT_HAVOC, "ROADMAP item 1, envset value box"),
    # the analysis enumerates only the pool 0,1,2; havoc is any integer
    "envset-havoc-pool": (
        "var x; thread t { x := havoc; assert(x <= 2); }",
        ("rel", "envset", False), (0, 1, 2, 3), "ROADMAP item 1, envset havoc pool"),
    # data-race free, but t1 and t3 race on region rxy
    "regrel-region-race": (
        """var x, y; lock m, n; region rxy { x, y };
        thread t1 { acquire(m); x := 1; release(m); }
        thread t3 { acquire(n); y := 1; release(n); }
        thread t2 { acquire(m); acquire(n); assert(x + y <= 1); }""",
        ("regrel", "octagon", False), DEFAULT_HAVOC,
        "ROADMAP item 1, regrel on region-racy programs (fixed by item 2's region check)"),
    # w := v races with u's write
    "racy-read": (
        "var v, w; thread t { w := v; assert(w != 5); } thread u { v := 5; }",
        ("rel", "octagon", False), DEFAULT_HAVOC, "ROADMAP item 2, a racy read reads top"),
}


@pytest.mark.parametrize("defect", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reason))
    for name, (*_, reason) in OPEN_DEFECTS.items()])
def test_open_defect_proves_no_false_assertion(defect):
    source, config, havoc_values, _ = OPEN_DEFECTS[defect]
    q = parse_program(source)
    wrong, _ = wrong_proofs(defect, q, config, havoc_values)
    assert not wrong
