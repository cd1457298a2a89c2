"""Owned-variable computation and assertion discharge.

Fixpoint facts over the sync-CFG are sound only for the variables a thread
owns at a location, so an assertion is proved by projecting the fact onto
the owned set and testing implication there.  Assertions mentioning any
unowned variable are reported Unproved outright: that is the only way to
never emit an unsound "proved".

Two owned-set computations are provided: a static under-approximation
(variable untouched by other threads, or protected by a lock the thread
must hold here and the other threads always hold around their accesses) and
the bounded semantic probe oracle from the concrete module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

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
    """Sound under-approximation of the semantic owned sets."""
    must = must_hold_locksets(p)
    # per variable: accesses by each thread
    accesses: dict[str, dict[str, list]] = {v: {} for v in p.variables}
    for t in p.threads:
        for i in t.instructions:
            reads, writes = instr_accesses(i)
            for v in reads | writes:
                accesses[v].setdefault(t.name, []).append(i)
    table: dict[tuple[str, int], frozenset[str]] = {}
    for t in p.threads:
        for loc in t.locations:
            owned = set()
            for v in p.variables:
                others = {tn: instrs for tn, instrs in accesses[v].items()
                          if tn != t.name}
                if not others:
                    owned.add(v)  # nobody else ever touches v
                    continue
                for m in must[(t.name, loc)]:
                    if all(m in must[(tn, i.source)]
                           for tn, instrs in others.items() for i in instrs):
                        owned.add(v)
                        break
            table[(t.name, loc)] = frozenset(owned)
    return OwnedMap(mode="static", table=table)


def compute_owned_oracle(
    p: Program,
    depth: int,
    locations: Optional[list[tuple[str, int]]] = None,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> OwnedMap:
    """Bounded probe oracle; over-approximates when depth is insufficient."""
    if locations is None:
        locations = [(t.name, loc) for t in p.threads for loc in sorted(t.locations)]
    table = {}
    for thread, loc in locations:
        table[(thread, loc)] = owned_vars_oracle(p, thread, loc, depth,
                                                 havoc_values, budget)
    return OwnedMap(mode=f"oracle@{depth}", table=table)


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
    races: Optional[dict] = None
    metatheory: Optional[dict] = None
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
    regions = cfg.regions or p.regions
    report = Report(
        program=program_name,
        analysis=cfg.analysis,
        domain=cfg.domain,
        recency=cfg.recency,
        regions=[{"name": name, "vars": list(vs)} for name, vs in regions.members],
        owned_mode=owned.mode,
    )
    for a in p.assertions:
        elem, _ = split_fact(facts[a.location])
        owned_here = owned.owned(a.thread, a.location)
        cond_vars = vars_of_bool(a.cond)
        fact_str = "; ".join(domain.constraints(elem)) or "true"
        if not cond_vars <= owned_here:
            report.assertions.append(AssertionResult(
                location=a.location,
                thread=a.thread,
                condition=print_bexpr(a.cond),
                proved=False,
                fact=fact_str,
                owned=sorted(owned_here),
                reason="unowned variable in condition",
            ))
            continue
        projected = domain.forget(elem, set(p.variables) - owned_here)
        proved = domain.entails(projected, a.cond)
        report.assertions.append(AssertionResult(
            location=a.location,
            thread=a.thread,
            condition=print_bexpr(a.cond),
            proved=proved,
            fact=fact_str,
            owned=sorted(owned_here),
            reason="" if proved else "fact does not entail the condition",
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
        "races": r.races,
        **({"metatheory": r.metatheory} if r.metatheory is not None else {}),
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
    if r.races is not None:
        lines.append(f"races: {json.dumps(r.races)}")
    return "\n".join(lines)
