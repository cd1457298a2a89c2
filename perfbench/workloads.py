"""Workload definitions: which programs are generated and which CLI jobs run.

A job is one `racefree.cli.run_cli` call on one generated program file.  Each
workload draws its programs from a fixed list of shapes (the same list for
every seed), so a seed changes the program text but not the size mix; that
keeps the end-to-end figures comparable across seeds.  The pool is REPS draws
over the shape list, and a run walks it in order: draw by draw, shapes in
list order, the jobs of one program back to back.  A run walks the whole pool
at least once and ends on a draw boundary, so every run sees whole draws and
the same size mix.  REPS is chosen so that one walk takes somewhat longer
than a run's `run_seconds` on the machine the benchmark was built on; a faster
machine repeats draws from the start of the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import gen

# (threads, shared variables, loop nesting, regions); every thread also owns
# one private loop counter.  8 threads x 16 variables x 2 loop levels takes
# seconds per octagon job, so the largest shapes here keep one loop level.
LOOPS_SHAPES = (
    (8, 16, 1, 2), (2, 4, 1, 1), (3, 8, 3, 4), (3, 4, 1, 2),
    (4, 6, 2, 3), (4, 4, 1, 1), (2, 6, 3, 3), (4, 8, 1, 4),
    (3, 6, 2, 2), (3, 12, 1, 4), (8, 6, 1, 4), (2, 4, 2, 2),
    (6, 8, 1, 3), (5, 6, 1, 2), (4, 16, 1, 4), (2, 10, 2, 3),
)

# (threads, shared variables, regions, lock sections per thread)
SYNC_SHAPES = (
    (10, 16, 4, 1), (12, 4, 1, 1), (8, 6, 2, 3), (14, 4, 2, 1),
    (12, 6, 2, 2), (8, 4, 1, 2), (8, 8, 3, 2), (16, 4, 4, 1),
    (8, 16, 2, 1), (10, 4, 2, 2), (10, 6, 3, 2), (10, 8, 1, 1),
    (8, 12, 4, 1), (14, 6, 3, 1), (12, 8, 4, 1), (16, 6, 2, 1),
)

# (threads, variables, statements per thread); the exploration depth shrinks
# with the thread count so every tree stays far below the default budget.
BOUNDED_SHAPES = (
    (4, 4, 2), (2, 2, 3), (3, 4, 2), (2, 3, 3),
    (4, 3, 2), (3, 2, 2), (3, 3, 3), (2, 4, 3),
)
BOUNDED_DEPTH = {2: 9, 3: 7, 4: 5}
METACHECK_SAMPLES = 20  # the CLI default of 200 makes one job take seconds

ANALYZE_CONFIGS = (
    ("valset", ["--analysis", "valset"]),
    ("rel", ["--analysis", "rel"]),
    ("regrel", ["--analysis", "regrel"]),
    ("regrel-recency", ["--analysis", "regrel", "--recency"]),
)


@dataclass(frozen=True)
class Job:
    id: str
    program: gen.GenProgram
    path: Path
    kind: str  # "analyze" | "races" | "metacheck"
    args: tuple[str, ...]  # everything between the subcommand and the file
    draw: int  # which draw over the shape list the program belongs to
    depth: Optional[int] = None  # exploration depth of the job, if it explores

    @property
    def argv(self) -> list[str]:
        return [self.kind, *self.args, "--format", "json", str(self.path)]


def _analyze_jobs(prefix: str, make, shapes, rng: random.Random, reps: int, workdir: Path) -> list[Job]:
    jobs = []
    for r in range(reps):
        for k, shape in enumerate(shapes):
            p = make(rng, f"{prefix}{k:02d}_{r}", *shape)
            path = workdir / f"{p.name}.rf"
            for cname, args in ANALYZE_CONFIGS:
                jobs.append(Job(f"{p.name}:{cname}", p, path, "analyze",
                                (*args, "--owned", "static"), r))
    return jobs


def _bounded_jobs(rng: random.Random, reps: int, workdir: Path) -> list[Job]:
    jobs = []
    for r in range(reps):
        for k, shape in enumerate(BOUNDED_SHAPES):
            depth = BOUNDED_DEPTH[shape[0]]
            d = str(depth)
            for p in gen.bounded_pair(rng, f"bounded{k:02d}_{r}", *shape):
                path = workdir / f"{p.name}.rf"
                jobs.append(Job(f"{p.name}:races", p, path, "races",
                                ("--kind", "both", "--depth", d), r, depth))
                jobs.append(Job(f"{p.name}:owned-oracle", p, path, "analyze",
                                ("--owned", "oracle", "--depth", d), r, depth))
                jobs.append(Job(f"{p.name}:envset", p, path, "analyze",
                                ("--domain", "envset"), r))
                if p.race_free:  # the correspondence checks refuse racy programs
                    jobs.append(Job(f"{p.name}:metacheck", p, path, "metacheck",
                                    ("--depth", d, "--samples", str(METACHECK_SAMPLES)),
                                    r, depth))
    return jobs


WORKLOADS = ("analyze-loops", "analyze-sync", "bounded-check")
REPS = {"analyze-loops": 3, "analyze-sync": 3, "bounded-check": 4}


def build(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Generate the workload's programs from `seed`, write them to `workdir`,
    and return the jobs in the order a run walks them."""
    rng = random.Random(f"{workload}/{seed}")
    reps = REPS[workload]
    if workload == "analyze-loops":
        jobs = _analyze_jobs("loops", gen.loops_program, LOOPS_SHAPES, rng, reps, workdir)
    elif workload == "analyze-sync":
        jobs = _analyze_jobs("sync", gen.sync_program, SYNC_SHAPES, rng, reps, workdir)
    elif workload == "bounded-check":
        jobs = _bounded_jobs(rng, reps, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    written = set()
    for job in jobs:
        if job.path not in written:
            job.path.write_text(job.program.source)
            written.add(job.path)
    return jobs

