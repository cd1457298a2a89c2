"""Seeded program generator for the benchmark workloads.

The benchmark owns this generator so that a change to racefree (including
its own random program generator in `metacheck`) cannot change the inputs.
Every program is produced as source text from a `random.Random`, so the same
seed always yields byte-identical programs.  The shape fixes a program's
structure (threads, regions, sections, loops, where assertions sit); the seed
picks the statements and assertions, so programs of one shape cost about the
same to analyze whatever the seed.

Layout shared by all families: shared variables are split into regions, each
region has one lock, and every access to a shared variable in a race-free
program happens while holding its region's lock.  Thread-private loop
counters are not declared in any region, so they stay singleton regions and
never cause region races.  Regions alternate between two disciplines:

- lockstep: every section moves the region's variables together, so
  relational assertions such as `a == b` hold and a region-granular octagon
  can prove them;
- free: sections use arbitrary linear updates, so assertions may be false and
  only a sound analyzer that leaves them unproved is correct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class GenProgram:
    name: str
    source: str
    shape: str
    race_free: bool = True  # every shared access is under its region's lock
    stripped_var: Optional[str] = None  # lock-stripped variant: the racing variable


@dataclass
class _Region:
    name: str
    lock: str
    vars: list[str]
    lockstep: bool


@dataclass
class _Layout:
    shared: list[str]
    regions: list[_Region]
    private: list[str] = field(default_factory=list)

    def header(self) -> str:
        lines = [f"var {', '.join(self.shared + self.private)};",
                 f"lock {', '.join(r.lock for r in self.regions)};"]
        for r in self.regions:
            lines.append(f"region {r.name} {{ {', '.join(r.vars)} }};")
        return "\n".join(lines)


def _layout(nvars: int, nregions: int, private: list[str]) -> _Layout:
    """Contiguous regions of equal size (within one), lockstep and free
    alternating, so a shape fixes the layout and a seed only the statements."""
    shared = [f"v{i}" for i in range(nvars)]
    nregions = max(1, min(nregions, nvars))
    regions = [_Region(f"r{r}", f"m{r}",
                       shared[r * nvars // nregions:(r + 1) * nvars // nregions],
                       lockstep=r % 2 == 0)
               for r in range(nregions)]
    return _Layout(shared, regions, list(private))


def _lockstep_ops(rng: random.Random, r: _Region, pos: int) -> list[str]:
    a = r.vars[0]
    kind = ("step", "copy", "step", "reset")[pos % 4]
    if kind == "step":
        k = rng.choice((1, 2))
        return [f"{v} := {v} + {k};" for v in r.vars]
    if kind == "copy":
        return [f"{a} := {a} + {rng.choice((1, 2))};"] + [f"{v} := {a};" for v in r.vars[1:]]
    return [f"{v} := 0;" for v in r.vars]


def _free_ops(rng: random.Random, r: _Region, n: int, pos: int,
              havoc: bool = True) -> list[str]:
    ops = []
    for i in range(n):
        a = rng.choice(r.vars)
        b = rng.choice([v for v in r.vars if v != a] or r.vars)
        ops.append((
            f"{a} := {a} + 1;",
            f"{a} := {b} + {rng.randint(0, 2)};",
            f"{a} := havoc;" if havoc else f"{a} := {b} + {b};",
            f"{a} := {rng.randint(0, 3)};",
            f"{a} := {a} - {b};",
        )[(pos + i) % 5])
    return ops


def _assertion(rng: random.Random, r: _Region, pos: int) -> str:
    if r.lockstep and len(r.vars) >= 2:
        a, b = rng.sample(r.vars, 2)
        return (f"assert({a} == {b});", f"assert({a} - {b} <= 0);",
                f"assert({a} >= {b});")[pos % 3]
    a = rng.choice(r.vars)
    if r.lockstep:
        return (f"assert({a} >= 0);", f"assert({a} <= 4);")[pos % 2]
    if len(r.vars) == 1:
        return (f"assert({a} >= 0);", f"assert({a} <= 3);")[pos % 2]
    b = rng.choice([v for v in r.vars if v != a])
    return (f"assert({a} >= 0);", f"assert({a} <= 3);",
            f"assert({a} == {b});", f"assert({a} - {b} <= 2);")[pos % 4]


def _section(rng: random.Random, r: _Region, pos: int, branch: bool = False,
             free_ops: int = 2, havoc: bool = True) -> list[str]:
    """A lock section on region r ending in an assertion.  The kind of each
    update and of the assertion follows the position `pos` in the program;
    the seed picks variables and constants.  With `branch` the updates of a
    free region sit under an if."""
    if r.lockstep:
        body = _lockstep_ops(rng, r, pos)
    else:
        body = _free_ops(rng, r, free_ops, pos, havoc)
        if branch:
            a = rng.choice(r.vars)
            body = [f"if ({a} <= 2) {{ {' '.join(body)} }} else {{ {a} := 0; }}"]
    return [f"acquire({r.lock});"] + body + [_assertion(rng, r, pos), f"release({r.lock});"]


def _render(layout: _Layout, threads: list[list[str]]) -> str:
    out = [layout.header(), ""]
    for t, body in enumerate(threads):
        out.append(f"thread t{t} {{")
        out.extend(f"  {line}" for line in body)
        out.append("}")
    return "\n".join(out) + "\n"


def _unowned_assert(layout: _Layout, pos: int) -> str:
    """An assertion reading a shared variable without its lock.  The variable
    follows the position, not the seed: reading it unlocked makes it unowned
    in the whole program, which decides whether most assertions on its region
    can be proved, so a seed-picked variable would swing `proved_share`."""
    return f"assert({layout.shared[pos % len(layout.shared)]} >= 0);"


# ---------------------------------------------------------------------------
# analyze-loops: while-loop nesting around lock sections and private counters


def loops_program(rng: random.Random, name: str, threads: int, nvars: int,
                  nesting: int, nregions: int) -> GenProgram:
    """Each thread t runs `nesting` nested while loops on its private counter
    c_t; every loop level holds one lock section.  After the outer loop comes
    an assertion on the counter (true with a lower bound, true with an exact
    bound, or false), and the last thread also asserts on a shared variable
    without its lock."""
    counters = [f"c{t}" for t in range(threads)]
    layout = _layout(nvars, nregions, counters)
    bounds = [3 * (nesting - level) for level in range(nesting)]

    def body(t: int, level: int) -> list[str]:
        c = counters[t]
        stmts: list[str] = []
        if level + 1 < nesting:
            inner = body(t, level + 1)
            stmts.append(f"while ({c} < {bounds[level + 1]}) {{ {' '.join(inner)} }}")
        region = layout.regions[(t + level) % len(layout.regions)]
        stmts.extend(_section(rng, region, 3 * t + level, branch=level % 2 == 1))
        stmts.append(f"{c} := {c} + 1;")
        return stmts

    bodies = []
    for t, c in enumerate(counters):
        final = (f"assert({c} >= {bounds[0]});", f"assert({c} == {bounds[0]});",
                 f"assert({c} <= {bounds[0] - 1});")[t % 3]
        stmts = [f"while ({c} < {bounds[0]}) {{ {' '.join(body(t, 0))} }}", final]
        if t == threads - 1:
            stmts.append(_unowned_assert(layout, t))
        bodies.append(stmts)
    shape = f"loops t{threads} v{nvars} n{nesting} r{nregions}"
    return GenProgram(name, _render(layout, bodies), shape)


# ---------------------------------------------------------------------------
# analyze-sync: loop-free, many threads and lock sections


def sync_program(rng: random.Random, name: str, threads: int, nvars: int,
                 nregions: int, sections: int) -> GenProgram:
    """Each thread t runs `sections` lock sections, section k on region
    (t + k) mod regions, each ending in an assertion; every fourth thread
    also asserts on a shared variable without its lock."""
    layout = _layout(nvars, nregions, [])
    bodies = []
    for t in range(threads):
        stmts: list[str] = []
        for k in range(sections):
            region = layout.regions[(t + k) % len(layout.regions)]
            stmts.extend(_section(rng, region, 5 * t + k, branch=(t + k) % 4 == 3))
        if t % 4 == 3:
            stmts.append(_unowned_assert(layout, t))
        bodies.append(stmts)
    shape = f"sync t{threads} v{nvars} r{nregions} s{sections}"
    return GenProgram(name, _render(layout, bodies), shape)


# ---------------------------------------------------------------------------
# bounded-check: tiny programs, race-free by construction or lock-stripped


def bounded_pair(rng: random.Random, name: str, threads: int, nvars: int,
                 steps: int) -> tuple[GenProgram, GenProgram]:
    """A race-free program and its lock-stripped variant.

    Half the variables (rounded down) are private to the first threads; their
    updates run outside any lock, so they interleave freely with the lock
    sections of other threads.  Every thread runs `steps` items, alternating
    lock sections (each with an assertion) and private updates.  There is no
    `havoc`, so the size of the execution tree varies little between seeds.

    Threads t0 and t1 both open with a section that increments a variable of
    region r0 under its lock.  The variant drops that lock in t0 only, so the
    race is reachable within the first sections of those two threads.
    """
    nprivate = nvars // 2
    layout = _layout(nvars - nprivate, 2, [f"p{t}" for t in range(nprivate)])
    r0 = layout.regions[0]
    target = r0.vars[0]

    def first_section(t: int) -> list[str]:
        movers = r0.vars if r0.lockstep else [target]
        body = [f"{v} := {v} + 1;" for v in movers] + [_assertion(rng, r0, t)]
        return [f"acquire({r0.lock});"] + body + [f"release({r0.lock});"]

    def private_op(p: str, pos: int) -> list[str]:
        op = (f"{p} := {p} + 1;", f"{p} := {p} + {p};", f"{p} := {rng.randint(1, 2)};")[pos % 3]
        return [op, (f"assert({p} >= 0);", f"assert({p} <= 2);")[pos % 2]]

    bodies = []
    for t in range(threads):
        stmts = first_section(t) if t < 2 else []
        mine = f"p{t}" if t < nprivate else None
        for k in range(1 if t < 2 else 0, steps):
            if mine is not None and k % 2:
                stmts.extend(private_op(mine, t + k))
            else:
                region = layout.regions[(t + k) % len(layout.regions)]
                stmts.extend(_section(rng, region, 5 * t + k, free_ops=len(region.vars),
                                      havoc=False))
        bodies.append(stmts)
    release = bodies[0].index(f"release({r0.lock});")
    stripped = [bodies[0][1:release] + bodies[0][release + 1:]] + bodies[1:]
    shape = f"bounded t{threads} v{nvars} s{steps}"
    return (
        GenProgram(f"{name}_rf", _render(layout, bodies), shape),
        GenProgram(f"{name}_strip", _render(layout, stripped), shape,
                   race_free=False, stripped_var=target),
    )
