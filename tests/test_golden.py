"""Golden `analyze` reports on the built-in corpus.

Every corpus program under each analysis, with its default domain and with
envset, with and without recency: 48 JSON reports (timings zeroed), compared
byte for byte with `golden/analyze_corpus.json`, together with the exit
code and stderr.  Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from racefree import corpus
from racefree.cli import run_cli

GOLDEN = Path(__file__).parent / "golden" / "analyze_corpus.json"

CASES = [
    (name, analysis, domain, recency)
    for name in corpus.names()
    for analysis in ("valset", "rel", "regrel")
    for domain in ("default", "envset")
    for recency in (False, True)
]


def case_id(case) -> str:
    name, analysis, domain, recency = case
    return f"{name}/{analysis}/{domain}/{'recency' if recency else 'plain'}"


def run_case(case) -> dict:
    name, analysis, domain, recency = case
    argv = ["analyze", "--analysis", analysis, "--format", "json", "--deterministic"]
    if domain != "default":
        argv += ["--domain", domain]
    if recency:
        argv.append("--recency")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv + [name])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)
    assert len(CASES) == 48


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_analyze_report_matches_golden(case, golden):
    assert run_case(case) == golden[case_id(case)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case_id(c): run_case(c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} reports to {GOLDEN}")
