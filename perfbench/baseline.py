"""Record a baseline: end-to-end medians and quartiles over several seeds per
workload, and traced per-layer runs on two seeds.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1,2 --out perfbench/baseline.json

Each run is a separate `run.py` process, started with the command and
`run_seconds` of BENCHMARK.json.  The spread of a metric is
(q3 - q1) / median over its seeds, with the quartiles of
`statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace-seeds", type=seeds_arg, default=seeds_arg("1,2"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    out = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, lines = run(workload, seed, 0)
            runs.append({"seed": seed, **result,
                         "notes": [ln for ln in lines if not ln.startswith("  ")]})
            print(workload, seed, json.dumps(result), flush=True)
        names = runs[0]["metrics"]
        row = {"runs": runs,
               "end_to_end": {k: summary([r["metrics"][k]["value"] for r in runs])
                              for k in names}}
        traced = []
        for seed in args.trace_seeds:
            result, lines = run(workload, seed, 1)
            traced.append({"seed": seed, **result,
                           "notes": [ln for ln in lines if not ln.startswith("  ")]})
            print(workload, seed, "traced", json.dumps(result), flush=True)
        row["traced"] = traced
        out["workloads"][workload] = row
        for k, s in row["end_to_end"].items():
            print(f"{workload} {k}: median {s['median']:.5g} spread {s['spread']:.3f}")
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
