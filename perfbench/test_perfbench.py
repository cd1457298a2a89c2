"""Self-tests of the benchmark: generator determinism, self-time arithmetic,
and the oracle catching wrong verdicts.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oracle import ENVSET_VALUE_BOX, Oracle, Problem  # noqa: E402

from racefree import checker, concrete, lang  # noqa: E402


def _sources(workload, seed, tmp_path):
    return [(j.id, j.argv, j.program.source) for j in workloads.build(workload, seed, tmp_path)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _sources(workload, 7, tmp_path / "a")
    again = _sources(workload, 7, tmp_path / "a")
    other = _sources(workload, 8, tmp_path / "a")
    assert first == again
    assert [s for _, _, s in first] != [s for _, _, s in other]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_programs_are_valid(workload, tmp_path):
    for job in workloads.build(workload, 3, tmp_path):
        p = lang.desugar(lang.parse_program(job.path.read_text()))
        assert lang.validate_program(p) == []


def test_stripped_variant_drops_one_lock_section():
    rf, strip = gen.bounded_pair(random.Random(5), "b", 3, 3, 2)
    assert rf.race_free and not strip.race_free
    assert strip.source.count("acquire(") == rf.source.count("acquire(") - 1
    assert concrete.find_data_races(lang.desugar(lang.parse_program(rf.source)), 7) == []


def _span(id, parent, name, busy, count=1, job=0):
    return spans.Span(id, job, parent, name, start=0, end=busy, count=count, busy=busy)


def test_self_time_on_hand_built_tree():
    tree = [
        _span(0, None, "job", 100),
        _span(1, 0, "engine.fixpoint", 60),
        _span(2, 1, "absdom.octagon.join", 25, count=5),  # merged calls
        _span(3, 2, "absdom.close", 15, count=5),
        _span(4, 1, "syncfg.feed", 5, count=2),
        _span(5, 0, "checker.discharge", 10),
    ]
    assert spans.self_times(tree) == {0: 30, 1: 30, 2: 10, 3: 15, 4: 5, 5: 10}


def test_tracer_merges_hot_calls_under_their_parent():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.begin_job(3)
    root = tracer.enter("job")                  # t=0
    for _ in range(2):
        hot = tracer.enter("absdom.octagon.join", merge=True)   # t=10, 30
        tracer.exit(hot)                        # t=20, 40
    tracer.exit(root)                           # t=50
    assert [(s.name, s.parent, s.count, s.busy, s.job) for s in tracer.spans] == [
        ("job", None, 1, 50, 3), ("absdom.octagon.join", 0, 2, 20, 3)]
    assert spans.self_times(tracer.spans) == {0: 30, 1: 20}


def test_metric_built_on_a_missing_name_is_absent():
    tracer = spans.Tracer()
    report = spans.per_layer(tracer, 1, {"absdom.close": "gone"}, 0, 0.0)
    assert "absdom.close_ms" not in report.metrics
    assert report.absent["absdom.reclose_share"] == "gone"
    assert "engine.fixpoint_ms" in report.metrics


# -- the oracle catches planted wrong verdicts

SOURCE = """\
var x;
lock m;
thread t0 { acquire(m); x := x + 1; assert(x <= 1); release(m); }
thread t1 { acquire(m); x := x + 1; release(m); }
"""


@pytest.fixture
def oracle():
    mods = {"lang": lang, "concrete": concrete, "checker": checker}
    return Oracle(mods)


def _job(tmp_path, kind, args, program, depth=None):
    path = tmp_path / f"{program.name}.rf"
    path.write_text(program.source)
    return workloads.Job(f"{program.name}:{kind}", program, path, kind, args, 0, depth)


def _analyze_report(p, proved: bool) -> str:
    a = p.assertions[0]
    return json.dumps({"assertions": [{
        "location": a.location, "thread": a.thread, "condition": "x <= 1",
        "proved": proved, "fact": "", "owned": ["x"]}]})


def test_oracle_flags_a_wrong_proved_verdict(oracle, tmp_path):
    job = _job(tmp_path, "analyze", ("--owned", "static"), gen.GenProgram("c", SOURCE, "s"))
    p = oracle.program(job.path)
    assert oracle.check(job, 1, _analyze_report(p, proved=False)) == []
    problems = oracle.check(job, 0, _analyze_report(p, proved=True))
    assert len(problems) == 1 and problems[0].text.startswith("PROVED assert(x <= 1)")
    assert "all reachable states" in problems[0].text
    assert problems[0].defect is None
    assert oracle.coverage == {"bounded": 1}


def test_oracle_flags_a_missed_race(oracle, tmp_path):
    rf, strip = gen.bounded_pair(random.Random(1), "b", 2, 2, 2)
    silent = json.dumps({"data_races": [], "region_races": []})
    job = _job(tmp_path, "races", ("--kind", "both"), strip, depth=6)
    assert oracle.check(job, 0, silent) == [Problem(
        f"no data race on stripped variable {strip.stripped_var} within depth 6")]
    assert oracle.check(_job(tmp_path, "races", ("--kind", "both"), rf, 6), 0, silent) == []


def test_oracle_flags_a_race_in_a_race_free_program(oracle, tmp_path):
    rf, _ = gen.bounded_pair(random.Random(1), "b", 2, 2, 2)
    noisy = json.dumps({"data_races": [{"subject": "v0"}], "region_races": []})
    problems = oracle.check(_job(tmp_path, "races", ("--kind", "both"), rf, 6), 1, noisy)
    assert problems and "race-free" in problems[0].text


def test_oracle_flags_metacheck_violations(oracle, tmp_path):
    rf, _ = gen.bounded_pair(random.Random(1), "b", 2, 2, 2)
    job = _job(tmp_path, "metacheck", ("--depth", "6"), rf, 6)
    out = {"metatheory": [{"check": "correspondence", "instances": 3,
                           "violations": [{"witness": "w", "explanation": "e"}]}]}
    assert oracle.check(job, 1, json.dumps(out)) == [Problem("correspondence: 1 violations")]


# x reaches 5 only by leaving the envset value box (-4..4) on the way; y == 0
# fails in a state inside the box
BOX_SOURCE = """\
var x, y;
lock m;
thread t0 { x := x + 3; x := x + 3; x := x - 1; assert(x <= 4); }
thread t1 { y := 1; assert(y == 0); }
"""


def _report(p, proved: list[bool]) -> str:
    return json.dumps({"assertions": [
        {"location": a.location, "thread": a.thread, "condition": "c", "proved": ok,
         "fact": "", "owned": []} for a, ok in zip(p.assertions, proved)]})


def test_oracle_names_the_envset_value_box_defect_only_when_it_fits(oracle, tmp_path):
    job = _job(tmp_path, "analyze", ("--domain", "envset"), gen.GenProgram("e", BOX_SOURCE, "s"))
    p = oracle.program(job.path)
    (hole,) = oracle.check(job, 1, _report(p, [True, False]))
    assert hole.defect == ENVSET_VALUE_BOX
    (new,) = oracle.check(job, 1, _report(p, [False, True]))
    assert new.defect is None
    octagon = _job(tmp_path, "analyze", ("--owned", "static"), gen.GenProgram("e", BOX_SOURCE, "s"))
    (plain,) = oracle.check(octagon, 1, _report(p, [True, False]))
    assert plain.defect is None


LONG_SOURCE = """\
var c, d;
lock m;
thread t0 { while (c < 6) { c := c + 1; } assert(c <= 5); }
thread t1 { while (d < 6) { d := d + 1; } }
"""


def test_sampled_executions_check_what_the_bound_misses(tmp_path):
    mods = {"lang": lang, "concrete": concrete, "checker": checker}
    oracle = Oracle(mods, state_cap=20)
    job = _job(tmp_path, "analyze", ("--owned", "static"), gen.GenProgram("l", LONG_SOURCE, "s"))
    p = oracle.program(job.path)
    (problem,) = oracle.check(job, 0, _report(p, [True]))
    assert "sampled executions" in problem.text
    assert oracle.coverage == {"sampled": 1}
    assert Oracle(mods, state_cap=20).walked(job.path) == oracle.walked(job.path)


# -- failures and `correct`

def _outcome(tmp_path, args, rc, stderr="", problems=()):
    job = _job(tmp_path, "analyze", args, gen.GenProgram("o", SOURCE, "s"))
    return run.Outcome(job, rc, 0.1, "", stderr, list(problems))


def test_known_defect_failures_stay_correct_within_their_cap(tmp_path, capsys):
    recency = ("--analysis", "regrel", "--recency")
    crash = "internal error: PostFixpointError: transfer of 1->2 exceeds the stored fact"
    outcomes = [_outcome(tmp_path, recency, 0) for _ in range(7)]
    outcomes.append(_outcome(tmp_path, recency, 3, crash))
    run.judge(None, outcomes[-1:])
    assert outcomes[-1].defect == run.RECENCY_POSTFIXPOINT
    assert run.is_correct(outcomes)
    for o in outcomes[:3]:
        o.rc, o.stderr = 3, crash
    run.judge(None, outcomes[:3])
    assert not run.is_correct(outcomes)  # 4 of 8 is above the cap
    assert "EXCEEDED" in capsys.readouterr().out


def test_a_failure_outside_the_known_defects_is_incorrect(tmp_path):
    outcomes = [_outcome(tmp_path, ("--analysis", "regrel"), 3, "internal error: PostFixpointError")]
    run.judge(None, outcomes)
    assert outcomes[0].defect is None and not run.is_correct(outcomes)
    mixed = _outcome(tmp_path, ("--domain", "envset"), 1,
                     problems=[Problem("a", ENVSET_VALUE_BOX), Problem("b")])
    assert mixed.defect is None and not run.is_correct([mixed])


def test_repeated_runs_count_once_and_must_match_the_first(tmp_path):
    args = ("--analysis", "regrel")
    report = json.dumps({"assertions": [], "timing_ms": {"total": 1.0}})
    first, same, other = (_outcome(tmp_path, args, 0) for _ in range(3))
    first.stdout = report
    same.stdout = report.replace("1.0", "2.0")  # only the timings differ
    other.stdout = json.dumps({"assertions": [], "timing_ms": {"total": 1.0}, "races": []})

    class AcceptAll:
        def check(self, job, rc, stdout):
            return []

    assert run.judge(AcceptAll(), [first, same]) == [first]
    assert not first.failed and not same.failed
    firsts = run.judge(AcceptAll(), [first, same, other])
    assert firsts == [first] and first.failed and other.failed
    assert first.defect is None and not run.is_correct(firsts)


def test_percentile_weights_the_order_statistics_around_the_rank():
    assert run.percentile([7.0] * 25, 0.9) == pytest.approx(7.0)
    assert run.percentile([float(i) for i in range(1, 12)], 0.5) == pytest.approx(6.0, abs=1e-3)
    # a single outlier far above the rank barely moves p90
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 0.9) == pytest.approx(90.5, abs=0.6)
    assert run.percentile(values[:-1] + [1e4], 0.9) < 91.5
