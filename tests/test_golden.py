"""Golden CLI reports on the built-in corpus and two small racy programs.

`analyze`: every corpus program under each analysis, with its default
domain and with envset, with and without recency: 48 JSON reports (timings
zeroed), compared byte for byte with `golden/analyze_corpus.json`.

`races`, `metacheck`, `explore` and `dot`: every corpus program plus a
program with a data race and one with a region race but no data race (the
corpus has no races, so these two pin the witness traces): 24 outputs in
`golden/explore_cases.json`.  They pin witness traces, the canonical
exploration order, the metacheck instance counts and the sync-CFG export.

`analyze` at workload size: six programs of the benchmark's generator (two
loop-nest and two loop-free lock-section shapes; the file name gives the
shape and the generator's seed), embedded as source text in
`golden/analyze_scaled.json`, each under the four analysis configurations
the benchmark runs: 24 JSON reports.  They pin facts over 8-48 octagon
literals, sizes the corpus never reaches.

Each case records the exit code, stdout and stderr.  Regenerate the files
only for an intended output change (the scaled sources are kept as they are):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from racefree import corpus
from racefree.cli import run_cli

GOLDEN = Path(__file__).parent / "golden" / "analyze_corpus.json"
GOLDEN_EXPLORE = Path(__file__).parent / "golden" / "explore_cases.json"
GOLDEN_SCALED = Path(__file__).parent / "golden" / "analyze_scaled.json"

CASES = [
    (name, analysis, domain, recency)
    for name in corpus.names()
    for analysis in ("valset", "rel", "regrel")
    for domain in ("default", "envset")
    for recency in (False, True)
]

RACY_SOURCES = {
    # y is written by both threads outside the lock
    "data_race.rf": """var x, y;
lock m;
thread a { acquire(m); x := 1; release(m); y := x; }
thread b { acquire(m); x := x + 1; release(m); y := 2; }
""",
    # x and y are never accessed by two threads, but share region r
    "region_race.rf": """var x, y;
lock m;
region r { x, y };
thread a { acquire(m); x := 1; release(m); }
thread b { y := 2; }
""",
}

COMMANDS = {
    "races": ["races", "--kind", "both", "--cross-validate", "--format", "json"],
    "metacheck": ["metacheck", "--depth", "8", "--samples", "20", "--format", "json"],
    "explore": ["explore", "--depth", "4", "--limit", "5"],
    "dot": ["dot"],
}

EXPLORE_CASES = [
    (command, name)
    for command in COMMANDS
    for name in (*corpus.names(), *RACY_SOURCES)
]


SCALED_PROGRAMS = (
    "loops_t8_v16_n1_r2_seed1.rf", "loops_t3_v8_n3_r4_seed1.rf", "loops_t8_v16_n1_r2_seed2.rf",
    "sync_t10_v16_r4_s1_seed1.rf", "sync_t16_v4_r4_s1_seed1.rf", "sync_t10_v16_r4_s1_seed2.rf",
)

SCALED_CONFIGS = {
    "valset": ["--analysis", "valset"],
    "rel": ["--analysis", "rel"],
    "regrel": ["--analysis", "regrel"],
    "regrel-recency": ["--analysis", "regrel", "--recency"],
}

SCALED_CASES = [(name, config) for name in SCALED_PROGRAMS for config in SCALED_CONFIGS]


def case_id(case) -> str:
    name, analysis, domain, recency = case
    return f"{name}/{analysis}/{domain}/{'recency' if recency else 'plain'}"


def explore_case_id(case) -> str:
    return "/".join(case)


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_in(sources: dict, argv) -> dict:
    """`argv` run in a temporary working directory holding `sources`, so
    the reports name the programs by their bare file names."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, source in sources.items():
            Path(tmp, file_name).write_text(source)
        os.chdir(tmp)
        try:
            return _run(argv)
        finally:
            os.chdir(old)


def run_case(case) -> dict:
    name, analysis, domain, recency = case
    argv = ["analyze", "--analysis", analysis, "--format", "json", "--deterministic"]
    if domain != "default":
        argv += ["--domain", domain]
    if recency:
        argv.append("--recency")
    return _run(argv + [name])


def run_explore_case(case) -> dict:
    command, name = case
    return _run_in(RACY_SOURCES, COMMANDS[command] + [name])


def run_scaled_case(case, sources: dict) -> dict:
    """As the benchmark runs its analyze jobs: static owned sets, JSON."""
    name, config = case
    return _run_in({name: sources[name]},
                   ["analyze", *SCALED_CONFIGS[config], "--owned", "static",
                    "--deterministic", "--format", "json", name])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_explore():
    return json.loads(GOLDEN_EXPLORE.read_text())


@pytest.fixture(scope="module")
def golden_scaled():
    return json.loads(GOLDEN_SCALED.read_text())


def test_golden_covers_every_case(golden, golden_explore):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)
    assert len(CASES) == 48
    assert sorted(golden_explore) == sorted(explore_case_id(c) for c in EXPLORE_CASES)
    assert len(EXPLORE_CASES) == 24


def test_scaled_golden_covers_every_case(golden_scaled):
    assert sorted(golden_scaled["sources"]) == sorted(SCALED_PROGRAMS)
    assert sorted(golden_scaled["reports"]) == sorted(map("/".join, SCALED_CASES))
    assert len(SCALED_CASES) == 24
    # the reports pin relational facts and proofs, not only failures
    stdout = "".join(r["stdout"] for r in golden_scaled["reports"].values())
    assert '"proved": true' in stdout and " - " in stdout


def test_racy_programs_race_as_intended(golden_explore):
    data = json.loads(golden_explore["races/data_race.rf"]["stdout"])
    region = json.loads(golden_explore["races/region_race.rf"]["stdout"])
    assert data["data_races"] and data["region_races"]
    assert not region["data_races"] and region["region_races"]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_analyze_report_matches_golden(case, golden):
    assert run_case(case) == golden[case_id(case)]


@pytest.mark.parametrize("case", EXPLORE_CASES, ids=explore_case_id)
def test_explore_output_matches_golden(case, golden_explore):
    assert run_explore_case(case) == golden_explore[explore_case_id(case)]


@pytest.mark.parametrize("case", SCALED_CASES, ids="/".join)
def test_scaled_analyze_report_matches_golden(case, golden_scaled):
    assert (run_scaled_case(case, golden_scaled["sources"])
            == golden_scaled["reports"]["/".join(case)])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case_id(c): run_case(c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
    GOLDEN_EXPLORE.write_text(json.dumps(
        {explore_case_id(c): run_explore_case(c) for c in EXPLORE_CASES},
        indent=1, sort_keys=True) + "\n")
    scaled = json.loads(GOLDEN_SCALED.read_text())
    scaled["reports"] = {"/".join(c): run_scaled_case(c, scaled["sources"])
                         for c in SCALED_CASES}
    GOLDEN_SCALED.write_text(json.dumps(scaled, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} reports to {GOLDEN}, "
          f"{len(EXPLORE_CASES)} to {GOLDEN_EXPLORE} and "
          f"{len(SCALED_CASES)} to {GOLDEN_SCALED}")
