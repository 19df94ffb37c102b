"""Transactional edge log (TEL): multi-version adjacency lists (paper §IV-C).

GraphDance stores adjacency in LiveGraph-style transactional edge logs: each
edge record embeds its creation and deletion timestamps, so all edges visible
at a given read timestamp are found in a single sequential scan of the log —
no per-edge version chains or indirections.

:class:`EdgeLog` is one vertex's log for one (direction, label) pair;
:class:`TELStore` groups logs per vertex and enforces visibility rules. The
recovery procedure (paper: "scan the graph data and remove all versions with
timestamps larger than LCT") is implemented in
:mod:`repro.txn.recovery` on top of :meth:`TELStore.trim_after`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Sentinel "infinite" timestamp for live (undeleted) edge versions.
INF_TS: int = 1 << 62


@dataclass
class EdgeVersion:
    """One record in a transactional edge log.

    ``create_ts`` is the commit timestamp of the inserting transaction;
    ``delete_ts`` is :data:`INF_TS` while the edge is live and is overwritten
    in place by the deleting transaction's commit timestamp.
    """

    neighbor: int
    eid: int
    create_ts: int
    delete_ts: int = INF_TS
    properties: Optional[Dict[str, Any]] = None

    def visible_at(self, ts: int) -> bool:
        """An edge version is visible at ``ts`` when it was created at or
        before ``ts`` and not yet deleted at ``ts``."""
        return self.create_ts <= ts < self.delete_ts


class EdgeLog:
    """Append-only sequential log of edge versions for one adjacency list."""

    __slots__ = ("_versions",)

    def __init__(self) -> None:
        self._versions: List[EdgeVersion] = []

    def append(self, version: EdgeVersion) -> None:
        """Append an edge version to the log."""
        self._versions.append(version)

    def mark_deleted(self, neighbor: int, eid: int, delete_ts: int) -> bool:
        """Tombstone the latest live version matching ``(neighbor, eid)``.

        Returns ``True`` if a live version was found.
        """
        for version in reversed(self._versions):
            if (
                version.neighbor == neighbor
                and version.eid == eid
                and version.delete_ts == INF_TS
            ):
                version.delete_ts = delete_ts
                return True
        return False

    def scan(self, ts: int) -> Iterator[EdgeVersion]:
        """Single sequential scan yielding versions visible at ``ts``."""
        for version in self._versions:
            if version.visible_at(ts):
                yield version

    def trim_after(self, lct: int) -> int:
        """Remove effects of transactions with timestamps beyond ``lct``.

        Versions created after ``lct`` are discarded; deletions stamped after
        ``lct`` are rolled back to live. Returns the number of versions
        touched. This is the per-log recovery primitive.
        """
        touched = 0
        kept: List[EdgeVersion] = []
        for version in self._versions:
            if version.create_ts > lct:
                touched += 1
                continue
            if version.delete_ts != INF_TS and version.delete_ts > lct:
                version.delete_ts = INF_TS
                touched += 1
            kept.append(version)
        self._versions = kept
        return touched

    def __len__(self) -> int:
        return len(self._versions)

    def live_count(self, ts: int) -> int:
        """Number of versions visible at ``ts``."""
        return sum(1 for _ in self.scan(ts))


class TELStore:
    """Multi-version adjacency storage for one graph partition.

    Keyed by ``(vertex, direction, label)``. Directions use the constants of
    :mod:`repro.graph.property_graph` (``"out"`` / ``"in"``).
    """

    def __init__(self) -> None:
        self._logs: Dict[Tuple[int, str, str], EdgeLog] = {}

    def log_for(self, vid: int, direction: str, label: str) -> EdgeLog:
        """The (vertex, direction, label) log, created lazily."""
        key = (vid, direction, label)
        log = self._logs.get(key)
        if log is None:
            log = EdgeLog()
            self._logs[key] = log
        return log

    def insert_edge(
        self,
        src: int,
        dst: int,
        label: str,
        eid: int,
        create_ts: int,
        properties: Optional[Dict[str, Any]] = None,
        *,
        owns_src: bool = True,
        owns_dst: bool = True,
    ) -> None:
        """Insert an edge version into the logs of the endpoints this
        partition owns (``owns_src`` / ``owns_dst`` select which)."""
        if owns_src:
            self.log_for(src, "out", label).append(
                EdgeVersion(dst, eid, create_ts, properties=properties)
            )
        if owns_dst:
            self.log_for(dst, "in", label).append(
                EdgeVersion(src, eid, create_ts, properties=properties)
            )

    def delete_edge(
        self,
        src: int,
        dst: int,
        label: str,
        eid: int,
        delete_ts: int,
        *,
        owns_src: bool = True,
        owns_dst: bool = True,
    ) -> bool:
        """Tombstone an edge in the owned endpoint logs."""
        found = False
        if owns_src:
            found |= self.log_for(src, "out", label).mark_deleted(dst, eid, delete_ts)
        if owns_dst:
            found |= self.log_for(dst, "in", label).mark_deleted(src, eid, delete_ts)
        return found

    def neighbors(self, vid: int, direction: str, label: str, ts: int) -> List[int]:
        """Neighbor ids visible at ``ts``."""
        key = (vid, direction, label)
        log = self._logs.get(key)
        if log is None:
            return []
        return [v.neighbor for v in log.scan(ts)]

    def edges(
        self, vid: int, direction: str, label: str, ts: int
    ) -> List[EdgeVersion]:
        """Edge versions visible at ``ts``."""
        key = (vid, direction, label)
        log = self._logs.get(key)
        if log is None:
            return []
        return list(log.scan(ts))

    def trim_after(self, lct: int) -> int:
        """Recovery scan over every log (paper §IV-C restart procedure)."""
        return sum(log.trim_after(lct) for log in self._logs.values())

    def version_count(self) -> int:
        """Total version records across all logs."""
        return sum(len(log) for log in self._logs.values())
