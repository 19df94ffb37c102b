"""Snapshot views: run read-only queries over base graph + TEL delta.

Completes the paper's §IV-C story: GraphDance serves read-only queries from
a multi-version snapshot while update transactions commit concurrently.
This reproduction stores the bulk-loaded graph in immutable CSR partitions
(fast scans) and routes updates through the transactional edge log / MV2PL
delta (:mod:`repro.txn`) — the classic base + delta design.

:class:`SnapshotStore` is a read-only, partition-shaped view that merges
one base :class:`~repro.graph.partition.PartitionStore` with the
corresponding :class:`~repro.txn.transaction.TxnPartitionState` at a fixed
read timestamp. It duck-types the ``PartitionStore`` interface the physical
operators use, so **any engine** (reference, async PSTM, BSP) can execute
ordinary compiled plans against a transactional snapshot — no operator
changes, no locks taken, and concurrent commits after the snapshot's read
timestamp stay invisible (the paper's "read-only queries will not be
blocked" property).

Use :func:`snapshot_view` to build the cluster-wide view at a node's cached
last-commit timestamp (LCT).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import PartitionError, VertexNotFoundError
from repro.graph.partition import PartitionedGraph, PartitionStore
from repro.graph.placement import Placement
from repro.graph.property_graph import BOTH, Edge, IN, OUT
from repro.txn.manager import TransactionManager
from repro.txn.transaction import TxnPartitionState

#: Property key a delta-created vertex stores its label under.
LABEL_PROP = "_label"
DEFAULT_LABEL = "vertex"


class SnapshotStore:
    """Partition-shaped read view: immutable base + TEL delta at ``ts``."""

    def __init__(
        self,
        base: PartitionStore,
        delta: TxnPartitionState,
        read_ts: int,
        partitioner: Placement,
    ) -> None:
        self.pid = base.pid
        self._base = base
        self._delta = delta
        self._ts = read_ts
        self._partitioner = partitioner
        #: newest adjacency version timestamp served through this view —
        #: the kernels cite it on EXEC events so the trace auditor can
        #: reject a traversal reading past its query's pinned snapshot
        self.version_high = 0
        # Vertices created through the delta (any property version ≤ ts),
        # owned by this partition.
        self._created: Dict[int, bool] = {}
        for (vid, _key), chain in delta.props._versions.items():  # noqa: SLF001
            if self._partitioner(vid) != self.pid or base.owns(vid):
                continue
            if any(commit_ts <= read_ts for commit_ts, _v in chain):
                self._created[vid] = True
        # Edge records discovered while scanning the delta (edge_record is
        # always called after edges()/neighbors() on the same worker).
        self._delta_edges: Dict[int, Edge] = {}
        if not delta.tel._logs and not delta.props._versions:  # noqa: SLF001
            # Pristine delta: nothing has ever committed into this
            # partition's overlay, so the base CSR *is* the snapshot —
            # forward the raw CSR surface so batched Expand keeps its
            # direct array reads (the 0%-update curve). Any later
            # commit lands at a timestamp above this view's read_ts and
            # would be invisible here anyway, so the forwarding stays
            # correct for the view's whole lifetime.
            self.adjacency = base.adjacency
            self.local_index_map = base.local_index_map

    @property
    def read_ts(self) -> int:
        return self._ts

    # -- ownership ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._base.vertex_count + len(self._created)

    def owns(self, vid: int) -> bool:
        """True when the base or delta owns the vertex here."""
        return self._base.owns(vid) or vid in self._created

    def local_vertices(self, label: Optional[str] = None) -> List[int]:
        """Owned vertices including delta-created ones."""
        base = self._base.local_vertices(label)
        if not self._created:
            return base
        extra = [
            vid for vid in self._created
            if label is None or self.vertex_label(vid) == label
        ]
        return list(base) + extra if extra else base

    def edge_labels(self) -> Iterable[str]:
        """Edge labels of the base partition."""
        return self._base.edge_labels()

    # -- vertex data ----------------------------------------------------

    def vertex_label(self, vid: int) -> str:
        """Label from base, or the delta's _label property."""
        if self._base.owns(vid):
            return self._base.vertex_label(vid)
        if vid in self._created:
            return self._delta.props.read(vid, LABEL_PROP, self._ts, DEFAULT_LABEL)
        self._raise_not_local(vid)

    def vertex_properties(self, vid: int) -> Dict[str, Any]:
        """Merged property dict (delta versions override base values)."""
        props: Dict[str, Any] = {}
        if self._base.owns(vid):
            props.update(self._base.vertex_properties(vid))
        elif vid not in self._created:
            self._raise_not_local(vid)
        for (v, key), _chain in self._delta.props._versions.items():  # noqa: SLF001
            if v != vid:
                continue
            value = self._delta.props.read(vid, key, self._ts)
            if value is not None:
                props[key] = value
        return props

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """Delta version at ≤ ts, falling back to base."""
        delta_value = self._delta.props.read(vid, key, self._ts)
        if delta_value is not None:
            return delta_value
        if self._base.owns(vid):
            return self._base.get_vertex_property(vid, key, default)
        if vid in self._created:
            return default
        self._raise_not_local(vid)

    # -- adjacency ------------------------------------------------------

    def neighbors(
        self, vid: int, direction: str, label: Optional[str] = None
    ) -> List[int]:
        """Base adjacency plus delta edges visible at ts."""
        if direction == BOTH:
            return self.neighbors(vid, OUT, label) + self.neighbors(vid, IN, label)
        self._require_local(vid)
        result: List[int] = []
        if self._base.owns(vid):
            result.extend(self._base.neighbors(vid, direction, label))
        result.extend(v.neighbor for v in self._delta_versions(vid, direction, label))
        return result

    def edges(
        self, vid: int, direction: str, label: Optional[str] = None
    ) -> List[Tuple[int, int]]:
        """(neighbor, eid) pairs from base plus visible delta."""
        if direction == BOTH:
            return self.edges(vid, OUT, label) + self.edges(vid, IN, label)
        self._require_local(vid)
        result: List[Tuple[int, int]] = []
        if self._base.owns(vid):
            result.extend(self._base.edges(vid, direction, label))
        for version, edge_label in self._delta_versions_labeled(vid, direction, label):
            result.append((version.neighbor, version.eid))
            if version.eid not in self._delta_edges:
                src, dst = (
                    (vid, version.neighbor) if direction == OUT
                    else (version.neighbor, vid)
                )
                self._delta_edges[version.eid] = Edge(
                    version.eid, src, dst, edge_label,
                    dict(version.properties or {}),
                )
        return result

    def degree(self, vid: int, direction: str, label: Optional[str] = None) -> int:
        """Base degree plus visible delta edges."""
        if direction == BOTH:
            return self.degree(vid, OUT, label) + self.degree(vid, IN, label)
        self._require_local(vid)
        count = 0
        if self._base.owns(vid):
            count += self._base.degree(vid, direction, label)
        count += sum(1 for _ in self._delta_versions(vid, direction, label))
        return count

    def edge_record(self, eid: int) -> Optional[Edge]:
        """Edge record from the delta cache or the base."""
        record = self._delta_edges.get(eid)
        if record is not None:
            return record
        return self._base.edge_record(eid)

    def edge_property(self, eid: int, key: str) -> Any:
        """Edge property from the delta cache or the base."""
        record = self._delta_edges.get(eid)
        if record is None:
            return self._base.edge_property(eid, key)
        return record.properties.get(key)

    # -- index lookup -----------------------------------------------------

    def has_property_index(self, vertex_label: str, key: str) -> bool:
        """Delegates to the base partition's indexes."""
        return self._base.has_property_index(vertex_label, key)

    def index_lookup(self, vertex_label: str, key: str, value: Any) -> List[int]:
        """Base index hits plus a scan of this partition's delta versions."""
        matches = list(self._base.index_lookup(vertex_label, key, value))
        seen = set(matches)
        for (vid, prop_key), _chain in self._delta.props._versions.items():  # noqa: SLF001
            if prop_key != key or vid in seen:
                continue
            if self._partitioner(vid) != self.pid:
                continue
            if not self.owns(vid) or self.vertex_label(vid) != vertex_label:
                continue
            if self._delta.props.read(vid, key, self._ts) == value:
                matches.append(vid)
                seen.add(vid)
        return matches

    # -- internals -----------------------------------------------------------

    def _delta_versions(self, vid: int, direction: str, label: Optional[str]):
        for version, _label in self._delta_versions_labeled(vid, direction, label):
            yield version

    def _delta_versions_labeled(
        self, vid: int, direction: str, label: Optional[str]
    ):
        tel = self._delta.tel
        if label is not None:
            for version in tel.edges(vid, direction, label, self._ts):
                if version.create_ts > self.version_high:
                    self.version_high = version.create_ts
                yield version, label
            return
        for (v, d, lab), _log in list(tel._logs.items()):  # noqa: SLF001
            if v == vid and d == direction:
                for version in tel.edges(vid, direction, lab, self._ts):
                    if version.create_ts > self.version_high:
                        self.version_high = version.create_ts
                    yield version, lab

    def _require_local(self, vid: int) -> None:
        if not self.owns(vid):
            self._raise_not_local(vid)

    def _raise_not_local(self, vid: int) -> None:
        if self._partitioner(vid) == self.pid:
            raise VertexNotFoundError(vid)
        raise PartitionError(f"vertex {vid} is not owned by partition {self.pid}")


class SnapshotGraph:
    """A PartitionedGraph-shaped snapshot: plug it into any engine."""

    def __init__(
        self,
        base: PartitionedGraph,
        delta_partitions: List[TxnPartitionState],
        read_ts: int,
    ) -> None:
        if len(delta_partitions) != base.num_partitions:
            raise PartitionError(
                f"delta has {len(delta_partitions)} partitions, base has "
                f"{base.num_partitions}"
            )
        self.base = base
        self.read_ts = read_ts
        self.partitioner = base.partitioner
        self.stores = [
            SnapshotStore(store, delta_partitions[store.pid], read_ts,
                          base.partitioner)
            for store in base.stores
        ]
        self.label_counts = base.label_counts

    @property
    def num_partitions(self) -> int:
        return self.base.num_partitions

    @property
    def vertex_count(self) -> int:
        return sum(store.vertex_count for store in self.stores)

    @property
    def edge_count(self) -> int:
        return self.base.edge_count

    def partition_of(self, vid: int) -> int:
        """The owning partition id of a vertex.

        Goes straight to the placement rather than the base graph's
        (existence-checked) lookup: a delta-created vertex is absent from
        the base store but still owns a placement-assigned partition —
        its delta rows live in that partition's overlay.
        """
        return self.base.partitioner(vid)

    def store_of(self, vid: int) -> SnapshotStore:
        """The owning snapshot store of a vertex."""
        return self.stores[self.partition_of(vid)]

    def has_index(self, vertex_label: str, key: str) -> bool:
        """Delegates to the base graph's indexes."""
        return self.base.has_index(vertex_label, key)

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """A property through the owning snapshot store."""
        return self.store_of(vid).get_vertex_property(vid, key, default)

    def neighbors(self, vid: int, direction: str = OUT,
                  label: Optional[str] = None) -> List[int]:
        """Adjacency through the owning snapshot store."""
        return self.store_of(vid).neighbors(vid, direction, label)


def snapshot_view(
    base: PartitionedGraph,
    txm: TransactionManager,
    node: int = 0,
) -> SnapshotGraph:
    """The cluster-wide snapshot a read-only query on ``node`` would see.

    Uses the node's *cached* LCT (paper §IV-C: "a read-only query can fetch
    the LCT from any worker node as its read timestamp without consulting
    the transaction manager"), so a node that missed the latest broadcast
    serves a slightly stale — but consistent — snapshot.
    """
    if txm.partitioner is not base.partitioner:
        # Delta rows are found where the manager's placement put them: a
        # placement of its own (even a hash of the same width) disagrees
        # with the graph's static homes.
        raise PartitionError(
            "transaction manager must route by the base graph's placement"
        )
    return SnapshotGraph(base, txm.partitions, txm.cached_lct(node))
