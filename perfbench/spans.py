"""Span tracing of racefree from the benchmark's side, and per-layer metrics.

Nothing here edits racefree: `instrument` replaces the public entry points of
each module (and a few private hot spots) with wrappers, at every module
attribute that holds them, and `Instrumentation.remove` puts the originals
back.  A name that no longer exists is skipped and reported, so the metrics
built on it read as absent rather than zero.

A span is (id, job, parent, name, start, end, count, busy).  Layer entry
points get one span per call.  Hot per-call functions (domain operations,
closure, interleaving and thread-local steps, sync-edge lookups) would produce
millions of records, so their calls are merged: all calls of one name under
one parent span share a record whose `count` is the number of calls and whose
`busy` is their summed duration; start and end are the first start and the
last end.  Self time is busy minus the busy time of the children; calls run on
one thread, so children never overlap each other.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    job: int
    parent: Optional[int]
    name: str
    start: int  # ns, perf_counter_ns
    end: int = 0
    count: int = 1
    busy: int = 0  # summed duration of the calls, ns
    entered: int = 0  # start of the call in progress
    merged: dict = field(default_factory=dict)  # hot child name -> Span

    def to_json(self) -> dict:
        return {"id": self.id, "job": self.job, "parent": self.parent, "name": self.name,
                "start_ns": self.start, "end_ns": self.end, "count": self.count,
                "busy_ns": self.busy}


class Tracer:
    """In-memory span recorder; one call stack, one job at a time."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job = -1
        self.counts: Counter = Counter()
        # reclosure bookkeeping: unclosed octagon elements closed in this job
        self.closing: object = None
        self.closed_before: dict[int, object] = {}

    def begin_job(self, job: int) -> None:
        self.job = job
        self.closed_before.clear()

    def enter(self, name: str, merge: bool = False) -> Span:
        parent = self.stack[-1] if self.stack else None
        now = self.clock()
        span = parent.merged.get(name) if merge and parent is not None else None
        if span is None:
            span = Span(len(self.spans), self.job, parent.id if parent else None, name, now,
                        count=0)
            self.spans.append(span)
            if merge and parent is not None:
                parent.merged[name] = span
        span.entered = now
        self.stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        now = self.clock()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        span.end = now
        span.count += 1
        span.busy += now - span.entered

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Self time


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> busy time not covered by child spans (ns), clamped at 0."""
    child_busy: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_busy[s.parent] += s.busy
    return {s.id: max(0, s.busy - child_busy[s.id]) for s in spans}


# ---------------------------------------------------------------------------
# Instrumentation

# (module, attribute, span name): one span per call
LAYER_FUNCTIONS = (
    ("lang", "parse_program", "lang.parse"),
    ("lang", "desugar", "lang.desugar"),
    ("lang", "validate_program", "lang.validate"),
    ("syncfg", "build_syncfg", "syncfg.build"),
    ("engine", "analyze_fixpoint", "engine.fixpoint"),
    ("engine", "collecting_fixpoint", "engine.fixpoint"),
    ("checker", "compute_owned_static", "checker.owned_static"),
    ("checker", "compute_owned_oracle", "checker.owned_oracle"),
    ("checker", "check_assertions", "checker.discharge"),
    ("concrete", "_find_races", "concrete.race_search"),
    ("concrete", "owned_vars_oracle", "concrete.oracle_probe"),
    ("metacheck", "check_correspondence", "metacheck.correspondence"),
    ("metacheck", "check_version_invariants", "metacheck.invariants"),
    ("metacheck", "check_local_abstraction", "metacheck.local_abstraction"),
)

# (module, attribute, span name): merged per parent
HOT_FUNCTIONS = (
    ("concrete", "std_step", "concrete.std_step"),
    ("threadlocal", "local_step", "threadlocal.local_step"),
)

# (module, class, method, span name): merged per parent
HOT_METHODS = [("syncfg", "SyncCFG", "release_points_feeding", "syncfg.feed"),
               ("absdom", "OctagonDomain", "_close_matrix", "absdom.close")]
DOMAIN_CLASSES = (("IntervalDomain", "interval"), ("OctagonDomain", "octagon"),
                  ("EnvSetDomain", "envset"))
DOMAIN_OPS = ("top", "bottom", "initial", "leq", "join", "meet", "widen", "equal",
              "assign", "assume", "forget", "mix", "entails", "constraints",
              "product_closure", "intervals_of", "contains_points")
for _cls, _kind in DOMAIN_CLASSES:
    for _op in DOMAIN_OPS:
        HOT_METHODS.append(("absdom", _cls, _op, f"absdom.{_kind}.{_op}"))


def _count_desugar(tracer, out):
    tracer.counts["lang.instructions"] += len(out.instructions)


def _count_syncfg(tracer, out):
    tracer.counts["syncfg.sync_edges"] += len(out.sync_edges)


def _count_report(tracer, out):
    tracer.counts["checker.assertions"] += len(out.assertions)


def _count_instances(tracer, out):
    results = out if isinstance(out, list) else [out]
    tracer.counts["metacheck.instances"] += sum(r.instances for r in results)


AFTER_HOOKS = {
    "lang.desugar": _count_desugar,
    "syncfg.build": _count_syncfg,
    "checker.discharge": _count_report,
    "metacheck.correspondence": _count_instances,
    "metacheck.invariants": _count_instances,
    "metacheck.local_abstraction": _count_instances,
}


def _span_wrapper(tracer: Tracer, name: str, fn, merge: bool):
    after = AFTER_HOOKS.get(name)

    def wrapped(*args, **kwargs):
        span = tracer.enter(name, merge)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None:
            after(tracer, out)
        return out

    wrapped.__wrapped__ = fn
    return wrapped


def _closed_wrapper(tracer: Tracer, fn):
    """Marks the unclosed element whose closure `_close_matrix` is about to
    compute, so that closing the same element again counts as a reclosure."""

    def wrapped(self, d):
        if getattr(d, "closed", True):
            return fn(self, d)
        tracer.closing = d
        try:
            return fn(self, d)
        finally:
            tracer.closing = None

    return wrapped


def _close_hook(tracer: Tracer, fn):
    def wrapped(self, m):
        d = tracer.closing
        if d is not None:
            tracer.closing = None
            if id(d) in tracer.closed_before:
                tracer.counts["absdom.reclosures"] += 1
            else:
                tracer.closed_before[id(d)] = d  # keeps the id from being reused
        return fn(self, m)

    return wrapped


class Instrumentation:
    """The wrappers installed into the racefree modules, and what is absent."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.absent: dict[str, str] = {}  # span or hook name -> reason

    def _set(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, replacement):
        """Rebind every module-level name that holds `original`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def instrument(tracer: Tracer, racefree_modules: dict) -> Instrumentation:
    """Install span wrappers; `racefree_modules` maps short names ("lang",
    "engine", ...) to the imported racefree submodules."""
    inst = Instrumentation()
    mods = list(racefree_modules.values())
    for table, merge in ((LAYER_FUNCTIONS, False), (HOT_FUNCTIONS, True)):
        for mod_name, attr, span_name in table:
            original = getattr(racefree_modules[mod_name], attr, None)
            if original is None:
                inst.absent[span_name] = f"racefree.{mod_name}.{attr} not found"
                continue
            inst._replace_everywhere(mods, original,
                                     _span_wrapper(tracer, span_name, original, merge))
    for mod_name, cls_name, meth, span_name in HOT_METHODS:
        cls = getattr(racefree_modules[mod_name], cls_name, None)
        original = vars(cls).get(meth) if cls is not None else None
        if original is None:  # a domain without this operation has nothing to wrap
            inst.absent[span_name] = f"racefree.{mod_name}.{cls_name}.{meth} not found"
            continue
        wrapper = _span_wrapper(tracer, span_name, original, True)
        if span_name == "absdom.close":
            wrapper = _close_hook(tracer, wrapper)
        inst._set(cls, meth, wrapper)
    octagon = getattr(racefree_modules["absdom"], "OctagonDomain", None)
    if octagon is not None and "_closed" in vars(octagon):
        inst._set(octagon, "_closed", _closed_wrapper(tracer, vars(octagon)["_closed"]))
    else:
        inst.absent["absdom.reclosures"] = "racefree.absdom.OctagonDomain._closed not found"
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_of(name: str) -> str:
    return "cli" if name == "job" else name.split(".", 1)[0]


# metric name -> unit
PER_LAYER_UNITS = {
    "lang.front_ms": "ms/job",
    "lang.instructions": "count/job",
    "syncfg.build_ms": "ms/job",
    "syncfg.sync_edges": "count/job",
    "syncfg.feed_calls": "count/job",
    "syncfg.feed_ms": "ms/job",
    "engine.fixpoint_ms": "ms/job",
    "engine.self_ms": "ms/job",
    "engine.fixpoints": "count/job",
    "absdom.close_calls": "count/job",
    "absdom.close_ms": "ms/job",
    "absdom.reclose_share": "share",
    "absdom.mix_calls": "count/job",
    "absdom.mix_ms": "ms/job",
    "absdom.join_calls": "count/job",
    "absdom.widen_calls": "count/job",
    "absdom.assign_calls": "count/job",
    "absdom.octagon_ms": "ms/job",
    "absdom.interval_ms": "ms/job",
    "absdom.envset_ms": "ms/job",
    "checker.owned_static_ms": "ms/job",
    "checker.owned_oracle_ms": "ms/job",
    "checker.discharge_ms": "ms/job",
    "checker.assertions": "count/job",
    "concrete.race_search_ms": "ms/job",
    "concrete.std_steps": "count/job",
    "concrete.distinct_states": "count/job",
    "concrete.state_yield": "share",
    "concrete.oracle_probes": "count/job",
    "threadlocal.local_steps": "count/job",
    "threadlocal.step_ms": "ms/job",
    "metacheck.correspondence_ms": "ms/job",
    "metacheck.invariants_ms": "ms/job",
    "metacheck.local_abstraction_ms": "ms/job",
    "metacheck.instances": "count/job",
    "cli.other_ms": "ms/job",
    "trace.overhead_share": "share",
}

# metric -> span or hook names it is derived from (absent if any is absent)
_SOURCES = {
    "lang.front_ms": ("lang.parse", "lang.desugar", "lang.validate"),
    "lang.instructions": ("lang.desugar",),
    "syncfg.build_ms": ("syncfg.build",),
    "syncfg.sync_edges": ("syncfg.build",),
    "syncfg.feed_calls": ("syncfg.feed",),
    "syncfg.feed_ms": ("syncfg.feed",),
    "engine.fixpoint_ms": ("engine.fixpoint",),
    "engine.self_ms": ("engine.fixpoint",),
    "engine.fixpoints": ("engine.fixpoint",),
    "absdom.close_calls": ("absdom.close",),
    "absdom.close_ms": ("absdom.close",),
    "absdom.reclose_share": ("absdom.close", "absdom.reclosures"),
    "absdom.mix_calls": ("absdom.octagon.mix",),
    "absdom.mix_ms": ("absdom.octagon.mix",),
    "absdom.join_calls": ("absdom.octagon.join",),
    "absdom.widen_calls": ("absdom.octagon.widen",),
    "absdom.assign_calls": ("absdom.octagon.assign",),
    "checker.owned_static_ms": ("checker.owned_static",),
    "checker.owned_oracle_ms": ("checker.owned_oracle",),
    "checker.discharge_ms": ("checker.discharge",),
    "checker.assertions": ("checker.discharge",),
    "concrete.race_search_ms": ("concrete.race_search",),
    "concrete.std_steps": ("concrete.std_step",),
    "concrete.distinct_states": ("concrete.std_step",),
    "concrete.state_yield": ("concrete.std_step",),
    "concrete.oracle_probes": ("concrete.oracle_probe",),
    "threadlocal.local_steps": ("threadlocal.local_step",),
    "threadlocal.step_ms": ("threadlocal.local_step",),
    "metacheck.correspondence_ms": ("metacheck.correspondence",),
    "metacheck.invariants_ms": ("metacheck.invariants",),
    "metacheck.local_abstraction_ms": ("metacheck.local_abstraction",),
    "metacheck.instances": ("metacheck.correspondence", "metacheck.invariants",
                            "metacheck.local_abstraction"),
}


@dataclass
class LayerReport:
    metrics: dict[str, float]
    absent: dict[str, str]  # metric -> reason
    layer_self_ms: dict[str, float]  # per job


def per_layer(tracer: Tracer, jobs: int, absent_sources: dict[str, str],
              distinct_states: int, overhead_share: float) -> LayerReport:
    """Every per-layer metric, per traced job, from the recorded spans."""
    spans = tracer.spans
    own = self_times(spans)
    busy: Counter = Counter()
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    layer_self: Counter = Counter()
    for s in spans:
        busy[s.name] += s.busy
        calls[s.name] += s.count
        self_ns[s.name] += own[s.id]
        layer_self[layer_of(s.name)] += own[s.id]

    def ms(ns: float) -> float:
        return ns / 1e6 / jobs

    def prefixed(counter: Counter, prefix: str, suffix: str = "") -> float:
        return sum(v for k, v in counter.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    c = tracer.counts
    std_steps = calls["concrete.std_step"]
    close_calls = calls["absdom.close"]
    m = {
        "lang.front_ms": ms(busy["lang.parse"] + busy["lang.desugar"] + busy["lang.validate"]),
        "lang.instructions": c["lang.instructions"] / jobs,
        "syncfg.build_ms": ms(busy["syncfg.build"]),
        "syncfg.sync_edges": c["syncfg.sync_edges"] / jobs,
        "syncfg.feed_calls": calls["syncfg.feed"] / jobs,
        "syncfg.feed_ms": ms(busy["syncfg.feed"]),
        "engine.fixpoint_ms": ms(busy["engine.fixpoint"]),
        "engine.self_ms": ms(self_ns["engine.fixpoint"]),
        "engine.fixpoints": calls["engine.fixpoint"] / jobs,
        "absdom.close_calls": close_calls / jobs,
        "absdom.close_ms": ms(busy["absdom.close"]),
        "absdom.reclose_share": c["absdom.reclosures"] / close_calls if close_calls else 0.0,
        "absdom.mix_calls": prefixed(calls, "absdom.", ".mix") / jobs,
        "absdom.mix_ms": ms(prefixed(busy, "absdom.", ".mix")),
        "absdom.join_calls": prefixed(calls, "absdom.", ".join") / jobs,
        "absdom.widen_calls": prefixed(calls, "absdom.", ".widen") / jobs,
        "absdom.assign_calls": prefixed(calls, "absdom.", ".assign") / jobs,
        "absdom.octagon_ms": ms(prefixed(self_ns, "absdom.octagon.")),
        "absdom.interval_ms": ms(prefixed(self_ns, "absdom.interval.")),
        "absdom.envset_ms": ms(prefixed(self_ns, "absdom.envset.")),
        "checker.owned_static_ms": ms(busy["checker.owned_static"]),
        "checker.owned_oracle_ms": ms(busy["checker.owned_oracle"]),
        "checker.discharge_ms": ms(busy["checker.discharge"]),
        "checker.assertions": c["checker.assertions"] / jobs,
        "concrete.race_search_ms": ms(busy["concrete.race_search"]),
        "concrete.std_steps": std_steps / jobs,
        "concrete.distinct_states": distinct_states / jobs,
        "concrete.state_yield": distinct_states / std_steps if std_steps else 0.0,
        "concrete.oracle_probes": calls["concrete.oracle_probe"] / jobs,
        "threadlocal.local_steps": calls["threadlocal.local_step"] / jobs,
        "threadlocal.step_ms": ms(busy["threadlocal.local_step"]),
        "metacheck.correspondence_ms": ms(busy["metacheck.correspondence"]),
        "metacheck.invariants_ms": ms(busy["metacheck.invariants"]),
        "metacheck.local_abstraction_ms": ms(busy["metacheck.local_abstraction"]),
        "metacheck.instances": c["metacheck.instances"] / jobs,
        "cli.other_ms": ms(self_ns["job"]),
        "trace.overhead_share": overhead_share,
    }
    absent = {}
    for metric, sources in _SOURCES.items():
        for src in sources:
            if src in absent_sources:
                absent[metric] = absent_sources[src]
                m.pop(metric, None)
                break
    return LayerReport(m, absent, {k: ms(v) for k, v in layer_self.items()})
