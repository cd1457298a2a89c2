"""Differential soundness net: every PROVED assertion holds in every state.

The programs are `domtools.asserted_programs`: loop-free race-free programs
from `metacheck.random_race_free_programs`, with a true and a false upper
bound asserted on each variable a thread may read without racing, before
each release and at each thread's end.  Their reachable states are
explored exhaustively, so a PROVED false bound is a soundness defect, not
an artefact of a depth bound.
"""

import pytest

import domtools
from racefree.checker import check_assertions, compute_owned_static
from racefree.concrete import find_data_races, reachable_states
from racefree.engine import AnalysisConfig, analyze_fixpoint
from racefree.lang import eval_bool

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


def wrong_proofs(name, q, config):
    """The PROVED assertions of `q` under `config` that fail in some
    reachable state where their thread stands at their location, and the
    number of PROVED assertions."""
    analysis, domain, recency = config
    cfg = AnalysisConfig(analysis=analysis, domain=domain, recency=recency)
    facts = analyze_fixpoint(q, cfg)
    report = check_assertions(q, facts, compute_owned_static(q), cfg, name)
    states = reachable_states(q, len(q.instructions))  # exhaustive: loop free
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


def test_asserted_programs_are_race_free():
    """The asserts read only what their thread may read without racing, so
    the programs stay race free, and their facts are sound on owned
    variables (exhaustive: the programs are loop free)."""
    for name, q in domtools.asserted_programs():
        assert not find_data_races(q, len(q.instructions)), name
