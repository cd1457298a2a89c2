"""Sync-CFG construction: per-thread control flow plus release-to-acquire edges.

A sync edge (post-release point, pre-acquire point, lock) says the buffer
snapshot stored at the release point may be observed by that acquire.  The
wiring connects every release of a lock to every acquire of the same lock,
so the graph is the program's two per-lock tables of release and acquire
points; `refine_gamma` keeps the edges exercised by some execution up to a
bounded depth and is therefore only sound as a test-harness device.
"""

from __future__ import annotations

from dataclasses import dataclass

from .concrete import DEFAULT_BUDGET, DEFAULT_HAVOC, enumerate_executions, happens_before
from .lang import Program, print_command


@dataclass(frozen=True)
class SyncCFG:
    release_points: dict[str, tuple[int, ...]]
    acquire_points: dict[str, tuple[int, ...]]

    def release_points_feeding(self, lock: str) -> tuple[int, ...]:
        """The post-release points feeding every acquire of `lock`."""
        return self.release_points[lock]

    @property
    def sync_edges(self) -> tuple[tuple[int, int, str], ...]:
        return tuple(sorted((rel, acq, m) for m, rels in self.release_points.items()
                            for rel in rels for acq in self.acquire_points[m]))


def build_syncfg(p: Program) -> SyncCFG:
    if not p.is_desugared:
        raise ValueError("program must be desugared")
    return SyncCFG(p.release_points, p.acquire_points)


def refine_gamma(
    g: SyncCFG,
    p: Program,
    depth: int,
    havoc_values: tuple[int, ...] = DEFAULT_HAVOC,
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[int, int, str], ...]:
    """The sync edges witnessed by a synchronizes-with pair in some
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
    return tuple(edge for edge in g.sync_edges if edge in observed)


def to_dot(p: Program, sync_edges) -> str:
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
    for rel, acq, m in sync_edges:
        lines.append(f'  n{rel} -> n{acq} [style=dashed, label="{m}"];')
    lines.append("}")
    return "\n".join(lines)
