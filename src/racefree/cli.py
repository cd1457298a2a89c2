"""Command-line front end.

Subcommands: analyze (fixpoint + assertion discharge), races (bounded
data/region race search), explore (dump bounded executions), metacheck
(machine-check the semantic correspondence on the given program), dot
(sync-CFG export).

Exit codes: 0 clean (all assertions proved / nothing found), 1 findings
(unproved assertions, races, or check violations), 2 usage errors,
3 internal errors or exhausted limits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import corpus
from .checker import (
    check_assertions,
    compute_owned_oracle,
    compute_owned_static,
    emit_report,
)
from .concrete import (
    ExplorationLimitError,
    enumerate_executions,
    find_data_races,
    find_region_races,
    format_execution,
    racy_regions_via_translation,
)
from .engine import AnalysisConfig, AnalysisLimitError, analyze_fixpoint
from .lang import ParseError, desugar, parse_program, parse_region_text, validate_program
from .metacheck import (
    PreconditionError,
    check_correspondence,
    check_local_abstraction,
)
from .syncfg import build_syncfg, to_dot


class UsageError(Exception):
    pass


def _load_program(path: str):
    if path in corpus.SOURCES:
        text = corpus.SOURCES[path]
    else:
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise UsageError(f"cannot read {path}: {e}") from e
    try:
        program = desugar(parse_program(text))
    except ParseError as e:
        raise UsageError(f"{path}: {e}") from e
    diagnostics = validate_program(program)
    if diagnostics:
        msgs = "; ".join(d.message for d in diagnostics)
        raise UsageError(f"{path}: invalid program: {msgs}")
    return program


def _load_regions(source: str, program):
    if source == "default":
        return program.regions
    try:
        text = Path(source).read_text()
    except OSError as e:
        raise UsageError(f"cannot read region file {source}: {e}") from e
    try:
        return parse_region_text(text, program.variables)
    except ParseError as e:
        raise UsageError(f"{source}: {e}") from e


def _havoc_set(text: str) -> tuple[int, ...]:
    try:
        values = tuple(sorted({int(v) for v in text.split(",") if v.strip() != ""}))
    except ValueError as e:
        raise UsageError(f"bad havoc set {text!r}") from e
    if not values:
        raise UsageError("havoc set must be nonempty")
    return values


def _count(text: str) -> int:
    """argparse type of a depth, budget or count: an int >= 0."""
    if not text.isdecimal():  # no sign, so no negative number either
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _add_common(sp):
    sp.add_argument("program", help="program file (or a built-in corpus name)")
    sp.add_argument("--havoc-set", default="0,1,2", metavar="a,b,c",
                    help="finite havoc value pool (default 0,1,2)")


# Built once, on first use: `parse_args` leaves the parser as it was.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="racefree", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="run an analysis and discharge assertions")
    _add_common(an)
    an.add_argument("--format", choices=("text", "json"), default="text")
    an.add_argument("--deterministic", action="store_true",
                    help="zero all timings in the output")
    an.add_argument("--analysis", choices=("valset", "rel", "regrel"), default="rel")
    an.add_argument("--domain", choices=("interval", "octagon", "envset"))
    an.add_argument("--recency", action="store_true",
                    help="tag facts with writer thread ids and drop stale sync facts")
    an.add_argument("--regions", default="default", metavar="FILE|default")
    an.add_argument("--owned", choices=("static", "oracle"), default="static")
    an.add_argument("--depth", type=_count, default=12,
                    help="exploration depth for oracle owned sets")
    an.add_argument("--value-box", default="-4,4", metavar="lo,hi",
                    help="value box for the envset domain")

    rc = sub.add_parser("races", help="bounded data/region race search")
    _add_common(rc)
    rc.add_argument("--format", choices=("text", "json"), default="text")
    rc.add_argument("--depth", type=_count, default=12)
    rc.add_argument("--regions", default="default", metavar="FILE|default")
    rc.add_argument("--kind", choices=("data", "region", "both"), default="data")
    rc.add_argument("--cross-validate", action="store_true",
                    help="also run the witness-variable translation and compare")

    ex = sub.add_parser("explore", help="dump bounded executions")
    _add_common(ex)
    ex.add_argument("--depth", type=_count, default=6)
    ex.add_argument("--limit", type=_count, default=20, help="max executions printed")
    ex.add_argument("--maximal-only", action="store_true",
                    help="print only executions that cannot be extended")

    mc = sub.add_parser("metacheck", help="machine-check the metatheory at depth")
    _add_common(mc)
    mc.add_argument("--format", choices=("text", "json"), default="text")
    mc.add_argument("--depth", type=_count, default=12,
                    help="exploration depth of the race precondition, the "
                         "correspondence and the version invariants; the "
                         "local-abstraction pool is always drawn within 8 steps")
    mc.add_argument("--samples", type=_count, default=200)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--regions", default="default", metavar="FILE|default")

    dt = sub.add_parser("dot", help="export the sync-CFG in DOT format")
    dt.add_argument("program", help="program file (or a built-in corpus name)")

    return ap


def _cmd_analyze(args) -> int:
    program = _load_program(args.program)
    program = program.with_regions(_load_regions(args.regions, program))
    havoc = _havoc_set(args.havoc_set)
    domain = args.domain or ("interval" if args.analysis == "valset" else "octagon")
    try:
        box = tuple(int(v) for v in args.value_box.split(","))
    except ValueError:
        box = ()
    if len(box) != 2 or box[0] > box[1]:
        raise UsageError(f"bad value box {args.value_box!r}")
    cfg = AnalysisConfig(
        analysis=args.analysis,
        domain=domain,
        recency=args.recency,
        havoc_values=havoc,
        value_box=box,
    )
    cfg.validate()
    t0 = time.monotonic()
    facts = analyze_fixpoint(program, cfg)
    t_analysis = time.monotonic() - t0
    if args.owned == "oracle":
        owned = compute_owned_oracle(program, args.depth, havoc_values=havoc)
    else:
        owned = compute_owned_static(program)
    report = check_assertions(program, facts, owned, cfg, args.program)
    t_total = time.monotonic() - t0
    report.timing_ms = (
        {"analysis": 0, "total": 0}
        if args.deterministic
        else {"analysis": round(t_analysis * 1000, 3), "total": round(t_total * 1000, 3)}
    )
    print(emit_report(report, args.format))
    return 0 if report.all_proved else 1


def _race_rows(program, races):
    rows = []
    for r in races:
        first = r.execution.steps[r.first].instr
        second = r.execution.steps[r.second].instr
        rows.append({
            "subject": r.subject,
            "first": {"source": first.source, "target": first.target},
            "second": {"source": second.source, "target": second.target},
            "trace": [f"{program.threads[tr.tid].name} {tr.instr.source}->{tr.instr.target}"
                      for tr in r.execution.steps],
        })
    return rows


def _cmd_races(args) -> int:
    program = _load_program(args.program)
    regions = _load_regions(args.regions, program)
    program = program.with_regions(regions)
    havoc = _havoc_set(args.havoc_set)
    out = {"program": args.program, "depth": args.depth,
           "verdict_note": f"bounded search: no race found up to depth {args.depth} "
                           "is not a race-freedom proof"}
    found = False
    if args.kind in ("data", "both"):
        races = find_data_races(program, args.depth, havoc)
        out["data_races"] = _race_rows(program, races)
        found = found or bool(races)
    if args.kind in ("region", "both"):
        races = find_region_races(program, args.depth, havoc)
        out["region_races"] = _race_rows(program, races)
        found = found or bool(races)
        if args.cross_validate:
            direct = sorted({r.subject for r in races})
            translated = sorted(racy_regions_via_translation(program, args.depth * 2, havoc))
            out["translation_agrees"] = direct == translated
            out["translated_racy_regions"] = translated
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        for kind in ("data_races", "region_races"):
            for row in out.get(kind, ()):
                print(f"{kind[:-1]} on {row['subject']}: "
                      f"{row['first']['source']} vs {row['second']['source']}  "
                      f"[{' ; '.join(row['trace'])}]")
        if not found:
            print(f"no race found up to depth {args.depth}")
        if "translation_agrees" in out:
            print(f"translation cross-check agrees: {out['translation_agrees']}")
    return 1 if found else 0


def _cmd_explore(args) -> int:
    from .concrete import ProgramIndex, successor_transitions

    program = _load_program(args.program)
    havoc = _havoc_set(args.havoc_set)
    idx = ProgramIndex(program)
    shown = 0
    for e in enumerate_executions(program, args.depth, havoc):
        if args.maximal_only and successor_transitions(program, e.final, havoc, idx):
            continue  # extendable, not maximal
        if shown >= args.limit:
            print(f"... (limit {args.limit} reached)")
            break
        print(f"# execution {shown} ({len(e.steps)} steps)")
        print(format_execution(e, program))
        shown += 1
    if args.maximal_only and not shown:
        print(f"no maximal execution up to depth {args.depth}")
    return 0


def _cmd_metacheck(args) -> int:
    program = _load_program(args.program)
    regions = _load_regions(args.regions, program)
    havoc = _havoc_set(args.havoc_set)
    # one walk of the standard tree checks the race precondition and gives
    # the owned sets; one walk of the thread-local tree checks the rest
    results = check_correspondence(program, args.depth, havoc)
    results.append(check_local_abstraction(program, args.samples, args.seed,
                                           havoc_values=havoc))
    if not regions.is_singleton():
        results.append(check_local_abstraction(program, args.samples, args.seed,
                                               havoc_values=havoc, regions=regions))
    if args.format == "json":
        print(json.dumps({"metatheory": [
            {"check": r.name, "instances": r.instances,
             "violations": [{"witness": w, "explanation": x} for w, x in r.violations]}
            for r in results
        ]}, indent=2))
    else:
        for r in results:
            print(r.summary())
    return 0 if all(r.passed for r in results) else 1


def _cmd_dot(args) -> int:
    program = _load_program(args.program)
    print(to_dot(program, build_syncfg(program).sync_edges))
    return 0


def run_cli(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handlers = {
        "analyze": _cmd_analyze,
        "races": _cmd_races,
        "explore": _cmd_explore,
        "metacheck": _cmd_metacheck,
        "dot": _cmd_dot,
    }
    try:
        return handlers[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (AnalysisLimitError, ExplorationLimitError) as e:
        print(f"limit: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
