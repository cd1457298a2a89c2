"""Independent checks of job outputs against bounded concrete exploration.

Every check here is bounded and labelled with its bound: a state set comes
from `racefree.concrete.reachable_states` at a stated depth, so "holds" means
"holds in every state reachable within that many steps".  None of this reuses
the abstract domains or the fixpoint engine whose verdicts it judges.  The
checks run after the timed loop, outside every timed region.

- analyze: every PROVED assertion holds in every explored state whose program
  counter is at the assertion; with `--owned oracle` each reported owned set
  contains the static owned set at that location.  Where the bounded
  exploration reaches no state at a PROVED assertion (deep in loops of many
  threads), the assertion is checked on the states of WALKS sampled complete
  executions instead, seeded by the program text.
- races: a race-free-by-construction program reports no data or region race;
  a lock-stripped variant reports a data race on its stripped variable.
- metacheck: zero violations.

Each problem names the known defect it matches, if any (see
`ENVSET_VALUE_BOX`); run.py decides what a match means for `correct`.  The
oracle also counts how many PROVED verdicts it could check against at least
one reached state, so a bound too shallow to reach the assertions shows.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

# Explored-state cap per program; the depth reached under it is the bound.
STATE_CAP = 1000
# Sampled complete executions per program, for PROVED assertions the bounded
# exploration does not reach; each runs until every thread ends or blocks.
WALKS = 4
WALK_STEPS = 20000

# The envset domain drops every environment that leaves its value box (the
# CLI's `--value-box`, default -4,4) and still reports PROVED (ROADMAP item 1).
# A wrong PROVED matches this defect only if the assertion holds in every
# state that is reachable, within the same bound, along a path whose states
# all keep every variable inside the box; any other wrong PROVED is new.
ENVSET_VALUE_BOX = "envset-value-box"
DEFAULT_VALUE_BOX = (-4, 4)


@dataclass(frozen=True)
class Problem:
    text: str
    defect: Optional[str] = None  # the known defect it matches, if any

    def __str__(self) -> str:
        return self.text if self.defect is None else f"{self.text} [known: {self.defect}]"


@dataclass
class StateSpace:
    depth: int
    exhaustive: bool  # every reachable state was found, not just those within depth
    by_pc: dict = field(repr=False)  # (thread index, location) -> states


class Oracle:
    """Bounded ground truth per program file, computed once and cached."""

    def __init__(self, racefree_modules: dict, state_cap: int = STATE_CAP):
        self.rf = racefree_modules
        self.state_cap = state_cap
        self._programs: dict = {}
        self._spaces: dict = {}
        self._distinct: dict = {}
        self._in_box: dict = {}
        self._walked: dict = {}
        # PROVED verdicts checked against explored states ("bounded"), only
        # against sampled executions ("sampled"), or against none ("unreached")
        self.coverage: Counter = Counter()

    def program(self, path):
        if path not in self._programs:
            lang = self.rf["lang"]
            self._programs[path] = lang.desugar(lang.parse_program(path.read_text()))
        return self._programs[path]

    def space(self, path) -> StateSpace:
        """States reachable from the program's initial state within the
        largest depth found whose state count stays within the cap.  Each
        step deepens as far as the growth rate seen so far predicts the cap
        allows, and halves when a step passes the cap after all."""
        if path not in self._spaces:
            concrete = self.rf["concrete"]
            p = self.program(path)
            depth, states, exhaustive, step = 0, {concrete.initial_state(p)}, False, 1
            while step:
                try:
                    nxt = concrete.reachable_states(p, depth + step, budget=self.state_cap)
                except concrete.ExplorationLimitError:
                    step //= 2
                    continue
                if len(nxt) == len(states):  # nothing new: the frontier ran dry
                    exhaustive = True
                    break
                growth = (len(nxt) / len(states)) ** (1 / step)
                depth, states = depth + step, nxt
                step = int(math.log(self.state_cap / len(states)) / math.log(growth))
            by_pc: dict = {}
            for s in states:
                for tid, loc in enumerate(s.pc):
                    by_pc.setdefault((tid, loc), []).append(s)
            self._spaces[path] = StateSpace(depth, exhaustive, by_pc)
        return self._spaces[path]

    def distinct_states(self, path, depth: int) -> int:
        """Distinct states within `depth` steps (the exploration jobs' depth)."""
        key = (path, depth)
        if key not in self._distinct:
            concrete = self.rf["concrete"]
            self._distinct[key] = len(concrete.reachable_states(self.program(path), depth))
        return self._distinct[key]

    def in_box_states(self, path, box: tuple[int, int]) -> dict:
        """(thread index, location) -> states reachable within the bound of
        `space(path)` along paths that keep every variable inside `box`."""
        key = (path, box)
        if key not in self._in_box:
            concrete = self.rf["concrete"]
            p = self.program(path)
            space = self.space(path)
            idx = concrete.ProgramIndex(p)
            lo, hi = box
            frontier = [concrete.initial_state(p)]
            seen = set(frontier)
            # within the bound: `space.depth` steps, or no limit when the
            # space is exhaustive (the in-box states are a subset of it)
            steps = 0
            while frontier and (space.exhaustive or steps < space.depth):
                steps += 1
                nxt = []
                for s in frontier:
                    for tr in concrete.successor_transitions(p, s, index=idx):
                        post = tr.post
                        if post not in seen and all(lo <= v <= hi for v in post.phi):
                            seen.add(post)
                            nxt.append(post)
                frontier = nxt
            by_pc: dict = {}
            for s in seen:
                for tid, loc in enumerate(s.pc):
                    by_pc.setdefault((tid, loc), []).append(s)
            self._in_box[key] = by_pc
        return self._in_box[key]

    def walked(self, path) -> dict:
        """(thread index, location) -> states on WALKS random executions,
        each run until every thread has ended or is blocked."""
        if path not in self._walked:
            concrete = self.rf["concrete"]
            p = self.program(path)
            idx = concrete.ProgramIndex(p)
            code: dict = {}
            for i in p.instructions:
                code.setdefault((idx.tid_of_instr[i], i.source), []).append(i)
            rng = random.Random(path.read_text())
            threads = list(range(len(p.threads)))
            by_pc: dict = {}
            for _ in range(WALKS):
                s = concrete.initial_state(p)
                for _ in range(WALK_STEPS):
                    for tid, loc in enumerate(s.pc):
                        by_pc.setdefault((tid, loc), set()).add(s)
                    rng.shuffle(threads)
                    posts = []
                    for tid in threads:
                        posts = [post for i in code.get((tid, s.pc[tid]), ())
                                 for _, post in concrete.std_step(p, s, i, index=idx)]
                        if posts:
                            break
                    if not posts:
                        break
                    s = rng.choice(posts)
            self._walked[path] = by_pc
        return self._walked[path]

    def depths(self) -> Counter:
        """Bound reached per program checked so far: depth -> programs
        ("all" for an exhaustive space)."""
        return Counter("all" if s.exhaustive else s.depth for s in self._spaces.values())

    # -- verdict checks; each returns a list of problems (empty = agrees)

    def check(self, job, rc: int, stdout: str) -> list[Problem]:
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return [Problem(f"exit {rc} without a JSON report")]
        if job.kind == "analyze":
            return self._check_analyze(job, rc, out)
        if job.kind == "races":
            return self._check_races(job, rc, out)
        return self._check_metacheck(rc, out)

    def _check_analyze(self, job, rc: int, out: dict) -> list[Problem]:
        lang = self.rf["lang"]
        p = self.program(job.path)
        asserts = {(a.thread, a.location): a for a in p.assertions}
        space = self.space(job.path)
        bound = ("all reachable states" if space.exhaustive
                 else f"states reachable within {space.depth} steps")
        problems = []
        box = None
        if "--domain" in job.args and job.args[job.args.index("--domain") + 1] == "envset":
            box = DEFAULT_VALUE_BOX
            if "--value-box" in job.args:
                box = tuple(int(v) for v in job.args[job.args.index("--value-box") + 1].split(","))
        static = None
        if "--owned" in job.args and job.args[job.args.index("--owned") + 1] == "oracle":
            static = self.rf["checker"].compute_owned_static(p)
        rows = out.get("assertions", [])
        if len(rows) != len(asserts):
            problems.append(Problem(f"{len(rows)} assertions reported, program has {len(asserts)}"))
        for row in rows:
            a = asserts.get((row["thread"], row["location"]))
            if a is None:
                problems.append(Problem(f"unknown assertion at {row['thread']}:{row['location']}"))
                continue
            if static is not None:
                missing = static.owned(a.thread, a.location) - set(row["owned"])
                if missing:
                    problems.append(Problem(f"oracle owned set at {a.thread}:{a.location} "
                                            f"lacks static-owned {sorted(missing)}"))
            if not row["proved"]:
                continue
            tid = p.thread_index(a.thread)
            states, where = space.by_pc.get((tid, a.location), ()), bound
            if states:
                self.coverage["bounded"] += 1
            else:
                states = self.walked(job.path).get((tid, a.location), ())
                where = f"sampled executions; nothing {bound} reaches it"
                self.coverage["sampled" if states else "unreached"] += 1
            for s in states:
                env = dict(zip(p.variables, s.phi))
                if not lang.eval_bool(a.cond, env):
                    text = (f"PROVED assert({row['condition']}) at {a.thread}:{a.location} "
                            f"fails in a state with {env} ({where})")
                    defect = None
                    if box is not None and all(
                            lang.eval_bool(a.cond, dict(zip(p.variables, t.phi)))
                            for t in self.in_box_states(job.path, box).get((tid, a.location), ())):
                        defect = ENVSET_VALUE_BOX
                    problems.append(Problem(text, defect))
                    break
        proved_all = all(row["proved"] for row in rows)
        if rc != (0 if proved_all else 1):
            problems.append(Problem(f"exit {rc} disagrees with the report"))
        return problems

    def _check_races(self, job, rc: int, out: dict) -> list[Problem]:
        data = out.get("data_races", [])
        region = out.get("region_races", [])
        prog = job.program
        depth = job.depth
        if prog.race_free:
            if data or region:
                found = sorted({r["subject"] for r in data + region})
                return [Problem(f"race reported on {found} in a race-free-by-construction program")]
            return [] if rc == 0 else [Problem(f"exit {rc} with no race reported")]
        if not any(r["subject"] == prog.stripped_var for r in data):
            return [Problem(f"no data race on stripped variable {prog.stripped_var} "
                            f"within depth {depth}")]
        return [] if rc == 1 else [Problem(f"exit {rc} with a race reported")]

    @staticmethod
    def _check_metacheck(rc: int, out: dict) -> list[Problem]:
        problems = [Problem(f"{c['check']}: {len(c['violations'])} violations")
                    for c in out.get("metatheory", []) if c["violations"]]
        if not out.get("metatheory"):
            problems.append(Problem("no metatheory results"))
        if rc != 0 and not problems:
            problems.append(Problem(f"exit {rc} with no violations"))
        return problems
