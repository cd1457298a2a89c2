"""Owned-variable computation and assertion discharge.

Fixpoint facts over the sync-CFG are sound only for the variables a thread
owns at a location (L-DRF).  An assertion that reads an unowned variable is
therefore reported Unproved outright: that is the only way to never emit an
unsound "proved".  Any other assertion is discharged on the stored fact as
it is, with no projection onto the owned set:

- the condition reads only owned variables, and on those the fact
  over-approximates every reachable state, so if the fact entails the
  condition, the condition holds in every reachable state;
- for intervals and environment sets the verdict equals the one on the
  owned projection by construction, since `assume` of the negated
  condition touches only the condition's variables;
- for octagons the projection drops only constraints that go through
  unowned variables, and no verdict changed on the corpus, the random
  programs of the differential tests or the benchmark workloads
  (`tests/test_checker.py` compares against the projecting discharge).

Two owned-set computations are provided: a static under-approximation
(variable untouched by other threads, or protected by a lock the thread
must hold here and the other threads always hold around their accesses) and
the bounded semantic oracle from the concrete module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .absdom import split_fact
from .concrete import DEFAULT_BUDGET, DEFAULT_HAVOC, owned_vars_oracle
from .engine import AnalysisConfig, LocationFacts, make_domain
from .lang import (
    Acquire,
    Program,
    Release,
    instr_accesses,
    print_bexpr,
    vars_of_bool,
)


# ---------------------------------------------------------------------------
# Owned variables


@dataclass(frozen=True)
class OwnedMap:
    mode: str  # "static" | "oracle@<depth>"
    table: dict[tuple[str, int], frozenset[str]]

    def owned(self, thread: str, location: int) -> frozenset[str]:
        return self.table[(thread, location)]


def must_hold_locksets(p: Program) -> dict[tuple[str, int], frozenset[str]]:
    """Per (thread, location): locks held on every path from the entry."""
    out: dict[tuple[str, int], frozenset[str]] = {}
    all_locks = frozenset(p.locks)
    for t in p.threads:
        held: dict[int, frozenset[str]] = {loc: all_locks for loc in t.locations}
        held[t.entry] = frozenset()
        changed = True
        while changed:
            changed = False
            for i in t.instructions:
                post = held[i.source]
                if isinstance(i.command, Acquire):
                    post = post | {i.command.lock}
                elif isinstance(i.command, Release):
                    post = post - {i.command.lock}
                merged = held[i.target] & post
                if merged != held[i.target]:
                    held[i.target] = merged
                    changed = True
        for loc, locks in held.items():
            out[(t.name, loc)] = locks
    return out


def compute_owned_static(p: Program) -> OwnedMap:
    """Sound under-approximation of the semantic owned sets.

    v is owned at (t, loc) if no other thread touches v, or t must hold
    there a lock that every other thread must hold at each of its accesses
    to v.  One pass: per variable and thread, the locks held at all of the
    thread's accesses, then per thread their intersection over the others."""
    must = must_hold_locksets(p)
    # guards[v][u]: the locks thread u must hold at every access to v
    guards: dict[str, dict[str, frozenset[str]]] = {v: {} for v in p.variables}
    for t in p.threads:
        for i in t.instructions:
            reads, writes = instr_accesses(i)
            held = must[(t.name, i.source)]
            for v in reads | writes:
                by_thread = guards[v]
                by_thread[t.name] = by_thread.get(t.name, held) & held
    table: dict[tuple[str, int], frozenset[str]] = {}
    for t in p.threads:
        # protect[v]: the locks every other thread touching v holds at its accesses
        protect: dict[str, frozenset[str]] = {}
        for v, by_thread in guards.items():
            others = [locks for u, locks in by_thread.items() if u != t.name]
            if others:
                protect[v] = frozenset.intersection(*others)
        owned_under: dict[frozenset[str], frozenset[str]] = {}  # by lockset held
        for loc in t.locations:
            held = must[(t.name, loc)]
            if held not in owned_under:
                owned_under[held] = frozenset(
                    v for v in p.variables if v not in protect or held & protect[v])
            table[(t.name, loc)] = owned_under[held]
    return OwnedMap(mode="static", table=table)


def compute_owned_oracle(
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> OwnedMap:
    """Bounded semantic oracle; over-approximates when depth is insufficient."""
    return OwnedMap(mode=f"oracle@{depth}",
                    table=owned_vars_oracle(p, depth, havoc_values, budget))


# ---------------------------------------------------------------------------
# Assertion discharge


@dataclass
class AssertionResult:
    location: int
    thread: str
    condition: str
    proved: bool
    fact: str
    owned: list[str]
    reason: str = ""


@dataclass
class Report:
    program: str
    analysis: str
    domain: str
    recency: bool
    regions: list[dict]
    owned_mode: str
    assertions: list[AssertionResult] = field(default_factory=list)
    timing_ms: dict = field(default_factory=dict)

    @property
    def all_proved(self) -> bool:
        return all(a.proved for a in self.assertions)


def check_assertions(
    p: Program,
    facts: LocationFacts,
    owned: OwnedMap,
    cfg: AnalysisConfig,
    program_name: str = "<program>",
) -> Report:
    domain = make_domain(cfg, p.variables)
    report = Report(
        program=program_name,
        analysis=cfg.analysis,
        domain=cfg.domain,
        recency=cfg.recency,
        regions=[{"name": name, "vars": list(vs)} for name, vs in p.regions.members],
        owned_mode=owned.mode,
    )
    for a in p.assertions:
        elem, _ = split_fact(facts[a.location])
        owned_here = owned.owned(a.thread, a.location)
        if not vars_of_bool(a.cond) <= owned_here:
            proved, reason = False, "unowned variable in condition"
        else:
            proved = domain.entails(elem, a.cond)
            reason = "" if proved else "fact does not entail the condition"
        report.assertions.append(AssertionResult(
            location=a.location,
            thread=a.thread,
            condition=print_bexpr(a.cond),
            proved=proved,
            fact="; ".join(domain.constraints(elem)) or "true",
            owned=sorted(owned_here),
            reason=reason,
        ))
    return report


# ---------------------------------------------------------------------------
# Serialization


def report_to_dict(r: Report) -> dict:
    return {
        "program": r.program,
        "analysis": r.analysis,
        "domain": r.domain,
        "recency": r.recency,
        "regions": r.regions,
        "owned": r.owned_mode,
        "assertions": [
            {
                "location": a.location,
                "thread": a.thread,
                "condition": a.condition,
                "proved": a.proved,
                "fact": a.fact,
                "owned": a.owned,
                **({"reason": a.reason} if a.reason else {}),
            }
            for a in r.assertions
        ],
        "races": None,  # analyze searches no race; the key stays in the schema
        "timing_ms": r.timing_ms,
    }


def emit_report(r: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report_to_dict(r), indent=2)
    lines = []
    for a in r.assertions:
        verdict = "PROVED" if a.proved else "UNPROVED"
        line = f"loc {a.location} [{a.thread}] assert({a.condition}): {verdict}"
        if not a.proved:
            line += f"  ({a.reason}; fact: {a.fact})"
        lines.append(line)
    proved = sum(1 for a in r.assertions if a.proved)
    lines.append(f"{proved}/{len(r.assertions)} assertions proved "
                 f"[{r.analysis}/{r.domain}{'/recency' if r.recency else ''}, "
                 f"owned={r.owned_mode}]")
    return "\n".join(lines)
