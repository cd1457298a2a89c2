"""Sync-CFG construction: per-thread control flow plus release-to-acquire edges.

A sync edge (post-release point, pre-acquire point, lock) says the buffer
snapshot stored at the release point may be observed by that acquire.  The
wiring connects every release of a lock to every acquire of the same lock,
so the graph is the program's two per-lock tables of release and acquire
points: the full graph for which the paper's soundness argument is made.
"""

from __future__ import annotations

from typing import NamedTuple

from .lang import Program, print_command


class SyncCFG(NamedTuple):
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
    return SyncCFG(p.release_points, p.acquire_points)


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
