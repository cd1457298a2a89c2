"""Golden CLI reports on the built-in corpus and two small racy programs.

`analyze`: every corpus program under each analysis, with its default
domain and with envset, with and without recency: 48 JSON reports (timings
zeroed), compared byte for byte with `golden/analyze_corpus.json`.

`races`, `metacheck`, `explore` and `dot`: every corpus program plus a
program with a data race and one with a region race but no data race (the
corpus has no races, so these two pin the witness traces): 24 outputs in
`golden/explore_cases.json`.  They pin witness traces, the canonical
exploration order, the metacheck instance counts and the sync-CFG export.

Each case records the exit code, stdout and stderr.  Regenerate the files
only for an intended output change:

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


def run_case(case) -> dict:
    name, analysis, domain, recency = case
    argv = ["analyze", "--analysis", analysis, "--format", "json", "--deterministic"]
    if domain != "default":
        argv += ["--domain", domain]
    if recency:
        argv.append("--recency")
    return _run(argv + [name])


def run_explore_case(case) -> dict:
    """Racy programs are read from files in a temporary working directory,
    so the reports name them by their bare file names."""
    command, name = case
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, source in RACY_SOURCES.items():
            Path(tmp, file_name).write_text(source)
        os.chdir(tmp)
        try:
            return _run(COMMANDS[command] + [name])
        finally:
            os.chdir(old)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_explore():
    return json.loads(GOLDEN_EXPLORE.read_text())


def test_golden_covers_every_case(golden, golden_explore):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)
    assert len(CASES) == 48
    assert sorted(golden_explore) == sorted(explore_case_id(c) for c in EXPLORE_CASES)
    assert len(EXPLORE_CASES) == 24


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


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case_id(c): run_case(c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
    GOLDEN_EXPLORE.write_text(json.dumps(
        {explore_case_id(c): run_explore_case(c) for c in EXPLORE_CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} reports to {GOLDEN} and "
          f"{len(EXPLORE_CASES)} to {GOLDEN_EXPLORE}")
