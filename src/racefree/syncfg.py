"""Sync-CFG construction: per-thread control flow plus release-to-acquire edges.

A sync edge (post-release point, pre-acquire point, lock) says the buffer
snapshot stored at the release point may be observed by that acquire.  The
default wiring connects every release of a lock to every acquire of the same
lock; `refine_gamma` prunes edges never exercised by any execution up to a
bounded depth and is therefore only sound as a test-harness device.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .concrete import DEFAULT_BUDGET, DEFAULT_HAVOC, enumerate_executions, happens_before
from .lang import Program, print_command


@dataclass(frozen=True)
class SyncCFG:
    sync_edges: tuple[tuple[int, int, str], ...]

    def release_points_feeding(self, acquire_point: int, lock: str) -> tuple[int, ...]:
        return self._feeding.get((acquire_point, lock), ())

    # Built on first use from `sync_edges`; a copy made with
    # `dataclasses.replace` (as `refine_gamma` makes) builds its own.
    @cached_property
    def _feeding(self) -> dict[tuple[int, str], tuple[int, ...]]:
        return _sorted_groups(((acq, m), rel) for rel, acq, m in self.sync_edges)


def _sorted_groups(pairs) -> dict:
    groups: dict = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: tuple(sorted(values)) for key, values in groups.items()}


def build_syncfg(p: Program) -> SyncCFG:
    if not p.is_desugared:
        raise ValueError("program must be desugared")
    edges = []
    for m in p.locks:
        for rel in p.post_release_points(m):
            for acq in p.pre_acquire_points(m):
                edges.append((rel, acq, m))
    return SyncCFG(sync_edges=tuple(sorted(edges)))


def refine_gamma(
    g: SyncCFG,
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> SyncCFG:
    """Keep only sync edges witnessed by a synchronizes-with pair in some
    execution up to `depth`.

    UNSOUND-IF-DEPTH-INSUFFICIENT: executions deeper than the bound may use
    pruned edges; off by default and meant for experiments only.
    """
    observed: set[tuple[int, int, str]] = set()
    for e in enumerate_executions(p, depth, havoc_values, budget):
        if not e.steps:
            continue
        hb = happens_before(e)
        for i, j in hb.sw_edges:
            rel = e.steps[i].instr
            acq = e.steps[j].instr
            observed.add((rel.target, acq.source, rel.command.lock))
    kept = tuple(sorted(edge for edge in g.sync_edges if edge in observed))
    return replace(g, sync_edges=kept)


def to_dot(g: SyncCFG, p: Program) -> str:
    """DOT export: intra edges solid, sync edges dashed and lock-labeled."""
    lines = ["digraph syncfg {"]
    for t in p.threads:
        lines.append(f'  subgraph "cluster_{t.name}" {{')
        lines.append(f'    label="{t.name}";')
        for loc in sorted(t.locations):
            lines.append(f'    n{loc} [label="{loc}"];')
        lines.append("  }")
    for i in p.instructions:
        label = print_command(i.command).replace('"', "'")
        lines.append(f'  n{i.source} -> n{i.target} [label="{label}"];')
    for rel, acq, m in g.sync_edges:
        lines.append(f'  n{rel} -> n{acq} [style=dashed, label="{m}"];')
    lines.append("}")
    return "\n".join(lines)

