"""Graph partitioning: placement-owned sharding and per-partition stores.

The paper (§II-C) divides the vertex set across partitions with a hash
function ``H: V → PartId``; each partition is owned by exactly one
single-threaded worker (shared-nothing, §IV). Placement itself lives in
:mod:`repro.graph.placement` — degree-stratified static homes — and this
module keeps the storage side. A partition stores:

* its local vertices with labels and properties,
* CSR adjacency per (direction, edge label) — *all* edges incident to a
  local vertex in that direction, so a worker can expand from any vertex it
  owns without remote lookups,
* optional (label, property) → vertices lookup indexes used by the
  ``IndexLookup`` step.

Cut edges appear in the out-CSR of the source's partition and the in-CSR of
the destination's partition; traversers, not edges, cross partitions. CSRs
are counting-sorted from the graph's :class:`~repro.graph.property_graph.EdgeTable`,
which the stores share for edge records.
"""

from __future__ import annotations

import sys
from array import array
from itertools import accumulate
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import PartitionError, VertexNotFoundError
from repro.graph.csr import CSRIndex
from repro.graph.placement import Placement, stratified_homes
from repro.graph.property_graph import (
    BOTH, IN, OUT, Edge, EdgeTable, PropertyGraph, boxed_bytes,
)


class HashPartitioner(Placement):
    """The paper's partition function ``H: V → {0, ..., n_parts - 1}``.

    A :class:`~repro.graph.placement.Placement` with no home table: the
    static hash everywhere, for unit tests and standalone stores.
    :meth:`PartitionedGraph.from_graph` builds its placement with
    degree-stratified homes instead. Assignments are memoized: routing
    consults the placement several times per traverser, and a dict hit is
    ~5× cheaper than re-mixing.
    """


class PartitionStore:
    """Read-optimized storage for one graph partition."""

    def __init__(
        self,
        pid: int,
        local_vertices: List[int],
        vertex_labels: Dict[int, str],
        vertex_props: Dict[int, Dict[str, Any]],
        edges: EdgeTable,
        csrs: Dict[Tuple[str, str], CSRIndex],
    ) -> None:
        self.pid = pid
        self._local_vertices = local_vertices
        self._local_index = {vid: i for i, vid in enumerate(local_vertices)}
        self._vertex_labels = vertex_labels
        self._vertex_props = vertex_props
        # (direction, edge_label) -> CSRIndex over local source indexes
        self._csr = csrs
        # the graph's edge table; a record is visible here when its
        # source or destination is local
        self._edges = edges
        # (vertex_label, prop_key) -> {value: [vids]}
        self._prop_index: Dict[Tuple[str, str], Dict[Any, List[int]]] = {}
        # vertex_label -> [local vids]
        self._label_index: Dict[str, List[int]] = {}
        for vid in local_vertices:
            self._label_index.setdefault(vertex_labels[vid], []).append(vid)

    # -- construction ---------------------------------------------------

    def build_property_index(self, vertex_label: str, key: str) -> None:
        """Build a (label, key) → vertices exact-match index."""
        index: Dict[Any, List[int]] = {}
        for vid in self._label_index.get(vertex_label, ()):
            value = self._vertex_props[vid].get(key)
            if value is not None:
                index.setdefault(value, []).append(vid)
        self._prop_index[(vertex_label, key)] = index

    # -- ownership ------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._local_vertices)

    def owns(self, vid: int) -> bool:
        """True when this partition owns the vertex."""
        return vid in self._local_index

    def local_vertices(self, label: Optional[str] = None) -> List[int]:
        """Owned vertex ids (optionally one label)."""
        if label is None:
            return self._local_vertices
        return self._label_index.get(label, [])

    def edge_labels(self) -> Iterable[str]:
        """Edge labels with adjacency in this partition."""
        return {label for (_d, label) in self._csr}

    # -- vertex data ----------------------------------------------------

    def vertex_label(self, vid: int) -> str:
        """The label of an owned vertex."""
        self._require_local(vid)
        return self._vertex_labels[vid]

    def vertex_properties(self, vid: int) -> Dict[str, Any]:
        """The property dict of an owned vertex."""
        self._require_local(vid)
        return self._vertex_props[vid]

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """One property of an owned vertex (or ``default``)."""
        self._require_local(vid)
        return self._vertex_props[vid].get(key, default)

    # -- adjacency ------------------------------------------------------

    def local_of(self, vid: int) -> int:
        """The dense local index of an owned vertex (raises if not owned)."""
        return self._local_of(vid)

    def local_index_map(self) -> Dict[int, int]:
        """The vid → dense local index mapping for owned vertices.

        Batch kernels index this dict directly, skipping two method calls
        per traverser. Callers must not mutate it; a missing vertex raises
        ``KeyError`` instead of :class:`PartitionError`.
        """
        return self._local_index

    def adjacency(self, direction: str, label: str) -> Optional[CSRIndex]:
        """The CSR index for one (direction, label), or ``None``.

        Batch kernels use this to get the raw arrays once per run instead of
        paying a dict lookup per traverser.
        """
        return self._csr.get((direction, label))

    def neighbors(
        self, vid: int, direction: str, label: Optional[str] = None
    ) -> List[int]:
        """Neighbor global ids of a *local* vertex."""
        if direction == BOTH:
            return self.neighbors(vid, OUT, label) + self.neighbors(vid, IN, label)
        local = self._local_of(vid)
        if label is not None:
            csr = self._csr.get((direction, label))
            return csr.neighbors(local) if csr is not None else []
        result: List[int] = []
        for (d, _l), csr in self._csr.items():
            if d == direction:
                result.extend(csr.neighbors(local))
        return result

    def edges(
        self, vid: int, direction: str, label: Optional[str] = None
    ) -> List[Tuple[int, int]]:
        """``(neighbor_gid, eid)`` pairs of a local vertex's edges."""
        if direction == BOTH:
            return self.edges(vid, OUT, label) + self.edges(vid, IN, label)
        local = self._local_of(vid)
        if label is not None:
            csr = self._csr.get((direction, label))
            return csr.edges(local) if csr is not None else []
        result: List[Tuple[int, int]] = []
        for (d, _l), csr in self._csr.items():
            if d == direction:
                result.extend(csr.edges(local))
        return result

    def degree(self, vid: int, direction: str, label: Optional[str] = None) -> int:
        """Degree of an owned vertex in one direction."""
        if direction == BOTH:
            return self.degree(vid, OUT, label) + self.degree(vid, IN, label)
        local = self._local_of(vid)
        if label is not None:
            csr = self._csr.get((direction, label))
            return csr.degree(local) if csr is not None else 0
        return sum(
            csr.degree(local) for (d, _l), csr in self._csr.items() if d == direction
        )

    def edge_record(self, eid: int) -> Optional[Edge]:
        """The Edge by id when its source or destination is local."""
        edges, local = self._edges, self._local_index
        row = edges.row(eid)
        if row is None or (edges.src[row] not in local
                           and edges.dst[row] not in local):
            return None
        return edges.edge(row)

    def edge_property(self, eid: int, key: str) -> Any:
        """One property of an edge in this store's adjacency (``None`` when
        unset), read from the shared table without building an Edge."""
        props = self._edges.props.get(eid)
        return None if props is None else props.get(key)

    # -- index lookup ---------------------------------------------------

    def index_lookup(self, vertex_label: str, key: str, value: Any) -> List[int]:
        """Exact-match lookup; requires :meth:`build_property_index` first."""
        index = self._prop_index.get((vertex_label, key))
        if index is None:
            raise PartitionError(
                f"no index on ({vertex_label!r}, {key!r}) in partition {self.pid}"
            )
        return index.get(value, [])

    def has_property_index(self, vertex_label: str, key: str) -> bool:
        """True when the (label, key) index was built."""
        return (vertex_label, key) in self._prop_index

    # -- footprint ------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes this store holds beyond the vertex maps and edge table it
        shares with the graph: its vertex indexes and CSRs."""
        total = (
            sum(map(sys.getsizeof, (self._local_vertices, self._local_index,
                                    self._csr, self._label_index)))
            + sum(map(boxed_bytes, self._local_index.values()))
            + sum(csr.nbytes for csr in self._csr.values())
            + sum(map(sys.getsizeof, self._label_index.values()))
        )
        for index in self._prop_index.values():
            total += sys.getsizeof(index) + sum(map(sys.getsizeof, index.values()))
        return total

    # -- internal -------------------------------------------------------

    def _local_of(self, vid: int) -> int:
        try:
            return self._local_index[vid]
        except KeyError:
            raise PartitionError(
                f"vertex {vid} is not owned by partition {self.pid}"
            ) from None

    def _require_local(self, vid: int) -> None:
        if vid not in self._local_index:
            if vid not in self._vertex_labels:
                raise VertexNotFoundError(vid)
            raise PartitionError(f"vertex {vid} is not owned by partition {self.pid}")


class PartitionedGraph:
    """A property graph sharded into :class:`PartitionStore` shards.

    This is the ``(V, E, λ, H)`` part of the paper's partitioned stateful
    graph model; the memoranda ``M`` live in the runtime
    (:mod:`repro.core.memo`) because their lifetime is query-scoped.
    """

    def __init__(
        self,
        partitioner: Placement,
        stores: List[PartitionStore],
        vertex_count: int,
        edge_count: int,
        label_counts: Dict[str, int],
    ) -> None:
        self.partitioner = partitioner
        self.stores = stores
        self.vertex_count = vertex_count
        self.edge_count = edge_count
        self.label_counts = label_counts
        self._indexed: List[Tuple[str, str]] = []
        # Stores share one labels dict; it doubles as the vertex-id domain
        # for membership checks in partition_of.
        self._vertex_labels = stores[0]._vertex_labels if stores else {}

    @property
    def num_partitions(self) -> int:
        return self.partitioner.num_partitions

    def partition_of(self, vid: int) -> int:
        """The owning partition id of a vertex (the placement lookup).

        Raises :class:`~repro.errors.VertexNotFoundError` for ids outside
        the graph — an out-of-range id would otherwise hash to a valid
        partition and fail much later, deep inside a store lookup.
        """
        if vid not in self._vertex_labels:
            raise VertexNotFoundError(vid)
        return self.partitioner(vid)

    def store_of(self, vid: int) -> PartitionStore:
        """The owning partition store of a vertex."""
        return self.stores[self.partition_of(vid)]

    def create_index(self, vertex_label: str, key: str) -> None:
        """Build the (label, key) index in every partition."""
        for store in self.stores:
            store.build_property_index(vertex_label, key)
        self._indexed.append((vertex_label, key))

    def indexed_keys(self) -> List[Tuple[str, str]]:
        """All (label, key) pairs with built indexes."""
        return list(self._indexed)

    def has_index(self, vertex_label: str, key: str) -> bool:
        """True when the (label, key) index was built."""
        return (vertex_label, key) in self._indexed

    # convenience accessors that route through the owning partition

    def vertex_label(self, vid: int) -> str:
        """A vertex's label, routed through its owner."""
        return self.store_of(vid).vertex_label(vid)

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """A vertex property, routed through its owner."""
        return self.store_of(vid).get_vertex_property(vid, key, default)

    def neighbors(
        self, vid: int, direction: str = OUT, label: Optional[str] = None
    ) -> List[int]:
        """A vertex's neighbors, routed through its owner."""
        return self.store_of(vid).neighbors(vid, direction, label)

    @property
    def nbytes(self) -> int:
        """Bytes partitioning adds to the graph it shares: every store's
        vertex indexes and CSRs, and the placement's home table and memo."""
        return self.partitioner.nbytes + sum(store.nbytes for store in self.stores)

    def partition_sizes(self) -> List[int]:
        """Owned-vertex count per partition."""
        return [store.vertex_count for store in self.stores]

    def cut_stats(self) -> Dict[str, Any]:
        """Edge-cut and balance statistics for the current placement.

        Placement quality, observable without tracing: every edge of the
        edge table is counted once and is *cut* when source and
        destination live in different partitions — cut edges are exactly
        the edges whose traversers cross the network (Fig 11).
        ``imbalance`` is max/mean owned vertices; ``load_imbalance`` is
        max/mean of Σ(degree + 1) over each partition's vertices, the
        quantity the static homes balance.
        """
        placement = self.partitioner
        table = self.stores[0]._edges
        total = len(table)
        sizes = self.partition_sizes()
        loads = sizes[:]
        cut = 0
        for s, d in zip(table.src, table.dst):
            ps, pd = placement(s), placement(d)
            loads[ps] += 1
            loads[pd] += 1
            cut += ps != pd
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        mean_weight = sum(loads) / len(loads) if loads else 0.0
        return {
            "total_edges": total,
            "cut_edges": cut,
            "cut_fraction": cut / total if total else 0.0,
            "partition_sizes": sizes,
            "max_load": max(sizes) if sizes else 0,
            "mean_load": mean,
            "imbalance": (max(sizes) / mean) if mean else 0.0,
            "load_imbalance": (max(loads) / mean_weight) if mean_weight else 0.0,
        }

    @classmethod
    def from_graph(cls, graph: PropertyGraph, num_partitions: int) -> "PartitionedGraph":
        """Shard ``graph`` into ``num_partitions`` partitions.

        Every vertex gets its degree-stratified static home
        (:func:`~repro.graph.placement.stratified_homes`). Every edge is
        materialized twice when it crosses partitions: in the source
        partition's out-CSR and the destination partition's in-CSR.
        """
        table = graph._edges  # noqa: SLF001 - intentional internal share
        vids = list(graph.vertices())
        placement = Placement(
            num_partitions,
            stratified_homes(num_partitions, vids, table.src, table.dst))
        local_lists: List[List[int]] = [[] for _ in range(num_partitions)]
        for vid in vids:
            local_lists[placement(vid)].append(vid)
        # Share vertex maps and edge table: stores read what they own or touch.
        built = _build_csrs(table, local_lists)
        stores = [
            PartitionStore(pid, vids, graph._vertex_labels,  # noqa: SLF001
                           graph._vertex_props, table, built[pid])  # noqa: SLF001
            for pid, vids in enumerate(local_lists)
        ]
        return cls(placement, stores, graph.vertex_count, graph.edge_count,
                   graph.label_counts())


def _build_csrs(
    table: EdgeTable, residents: List[List[int]]
) -> List[Dict[Tuple[str, str], CSRIndex]]:
    """Counting-sort the edge table into per-partition CSR indexes.

    ``residents`` lists each partition's vertices in dense local order and
    covers every edge endpoint. Each source's slice lists its edges in
    table order, and each partition's indexes come out-labels first, then
    in-labels, each by first appearance.
    """
    n_labels = len(table.labels)
    # vid -> pid * n_labels (a row's group adds its label code) and vid ->
    # local index: lists indexed by vertex id, or dicts when ids are sparse
    count = sum(map(len, residents))
    occupied = [vids for vids in residents if vids]
    lo = min(map(min, occupied), default=0)
    hi = max(map(max, occupied), default=-1)
    if lo >= 0 and hi < 2 * count:
        group, local = [0] * (hi + 1), [0] * (hi + 1)
    else:
        group, local = {}, {}
    for pid, vids in enumerate(residents):
        base = pid * n_labels
        for i, vid in enumerate(vids):
            group[vid] = base
            local[vid] = i
    built: List[Dict[Tuple[str, str], CSRIndex]] = [{} for _ in residents]
    codes, eids = table.codes, table.eid
    for direction, ends, others in ((OUT, table.src, table.dst),
                                    (IN, table.dst, table.src)):
        # Pass 1: counts[i + 2] = the group's edges at local source i.
        slots: Dict[int, Any] = {}
        for end, code in zip(ends, codes):
            g = group[end] + code
            counts = slots.get(g)
            if counts is None:
                n = len(residents[g // n_labels])
                counts = slots[g] = array("q", bytes(8 * (n + 2)))
            counts[local[end] + 2] += 1
        # Prefix sums leave source i's slice start in bounds[i + 1]; pass 2
        # places each edge there and bumps it, so bounds[:-1] ends up as
        # the CSR offsets.
        for g, counts in slots.items():
            bounds = array("q", accumulate(counts))
            slots[g] = (bounds, array("q", bytes(8 * bounds[-1])),
                        array("q", bytes(8 * bounds[-1])))
        for end, code, other, eid in zip(ends, codes, others, eids):
            bounds, targets, ids = slots[group[end] + code]
            i = local[end] + 1
            pos = bounds[i]
            bounds[i] = pos + 1
            targets[pos] = other
            ids[pos] = eid
        for g, (bounds, targets, ids) in slots.items():
            label = table.labels[g % n_labels]
            built[g // n_labels][(direction, label)] = CSRIndex(
                bounds[:-1], targets, ids)
    return built
