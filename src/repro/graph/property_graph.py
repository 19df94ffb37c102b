"""The property graph model (paper §II-B).

A property graph is a triplet ``(V, E, λ)``: vertices, directed edges, and a
property function assigning key-value pairs to both. Every vertex and edge
additionally carries a *label* (its type, e.g. ``person`` or ``knows``),
matching the labelled property graphs used by LDBC SNB and Gremlin.

:class:`PropertyGraph` is the construction-time, single-address-space
representation. Distributed engines do not execute against it directly; they
use :class:`repro.graph.partition.PartitionedGraph`, which shards it by a
placement function and builds per-partition CSR indexes.

Edges live in one columnar :class:`EdgeTable` (no Python object per edge)
that the partition stores share; an :class:`Edge` is built on read.
"""

from __future__ import annotations

import copy
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError

#: Direction constants for adjacency queries.
OUT = "out"
IN = "in"
BOTH = "both"


@dataclass(frozen=True)
class Edge:
    """A directed, labelled edge with an id and properties.

    The paper encodes endpoints as the special property keys ``_src`` and
    ``_dest``; here they are first-class fields for clarity, and the property
    view in :meth:`all_properties` exposes them under those special keys.
    """

    eid: int
    src: int
    dst: int
    label: str
    properties: Dict[str, Any] = field(default_factory=dict)

    def all_properties(self) -> Dict[str, Any]:
        """Properties including the paper's ``_src`` / ``_dest`` keys."""
        props = dict(self.properties)
        props["_src"] = self.src
        props["_dest"] = self.dst
        return props

    def other(self, vid: int) -> int:
        """The endpoint opposite to ``vid``."""
        if vid == self.src:
            return self.dst
        if vid == self.dst:
            return self.src
        raise GraphError(f"vertex {vid} is not an endpoint of edge {self.eid}")


def boxed_bytes(value: Any) -> int:
    """Bytes a stored int, float or str owns beyond its slot; the
    interpreter's cached small ints and every other object count 0."""
    kind = type(value)
    if kind is float or kind is str or (kind is int and not -5 <= value <= 256):
        return sys.getsizeof(value)
    return 0


class EdgeTable:
    """Edges as rows of typed columns, in insertion order.

    ``src``, ``dst`` and ``eid`` are ``array('q')`` columns and ``codes``
    indexes each row's label in ``labels``. ``props`` maps an eid to its
    property dict, only for edges that have any; a dict is replaced, never
    mutated, so copies of the table share it. Auto-assigned eids run one
    past the largest so far; an eid → row map exists once some eid ≠ its row.
    """

    __slots__ = ("src", "dst", "eid", "codes", "labels", "label_codes",
                 "props", "next_eid", "_row_of")

    def __init__(self) -> None:
        self.src, self.dst, self.eid = array("q"), array("q"), array("q")
        self.codes = array("H")
        self.labels: List[str] = []
        self.label_codes: Dict[str, int] = {}
        self.props: Dict[int, Dict[str, Any]] = {}
        self.next_eid = 0
        self._row_of: Optional[Dict[int, int]] = None

    def __len__(self) -> int:
        return len(self.src)

    def append(self, src: int, dst: int, label: str, eid: Optional[int],
               props: Optional[Dict[str, Any]]) -> int:
        """Add one row (``eid=None`` auto-assigns); returns its number."""
        row = len(self.src)
        if eid is None:
            eid = self.next_eid
        if eid != row and self._row_of is None:
            self._row_of = dict(zip(self.eid, range(row)))
        if self._row_of is not None:
            self._row_of[eid] = row
        self.next_eid = max(self.next_eid, eid + 1)
        code = self.label_codes.get(label)
        if code is None:
            code = self.label_codes[label] = len(self.labels)
            self.labels.append(label)
        self.src.append(src)
        self.dst.append(dst)
        self.eid.append(eid)
        self.codes.append(code)
        if props:
            self.props[eid] = props
        return row

    def row(self, eid: int) -> Optional[int]:
        """The row holding ``eid``, or ``None``."""
        if self._row_of is not None:
            return self._row_of.get(eid)
        return eid if 0 <= eid < len(self.src) else None

    def edge(self, row: int) -> Edge:
        """One row as an :class:`Edge` with its own copy of the properties."""
        eid = self.eid[row]
        return Edge(eid, self.src[row], self.dst[row],
                    self.labels[self.codes[row]], dict(self.props.get(eid, ())))

    def copy(self) -> "EdgeTable":
        """An independent table with the same rows (property dicts shared)."""
        other = EdgeTable()
        for name in self.__slots__:
            setattr(other, name, copy.copy(getattr(self, name)))
        return other

    @property
    def nbytes(self) -> int:
        """Bytes held: the columns, labels, property dicts and eid map."""
        total = sum(map(sys.getsizeof, (self, self.src, self.dst, self.eid,
                                        self.codes, self.labels, self.label_codes)))
        for table in filter(None, (self.props, self._row_of)):
            total += sys.getsizeof(table) + sum(
                map(boxed_bytes, chain(table, table.values())))
        return total + sum(sys.getsizeof(props) + sum(map(boxed_bytes, props.values()))
                           for props in self.props.values())


class PropertyGraph:
    """Mutable in-memory labelled property graph.

    Vertices are integer ids with a label and a property dict. Edges are
    rows of an :class:`EdgeTable`; the first adjacency read in a direction
    sorts the rows by that endpoint (stably, so each vertex lists its edges
    in insertion order), and the next edge insert drops that order.
    """

    def __init__(self) -> None:
        self._vertex_labels: Dict[int, str] = {}
        self._vertex_props: Dict[int, Dict[str, Any]] = {}
        self._edges = EdgeTable()
        # direction -> (endpoint of each sorted row, sorted rows)
        self._order: Dict[str, Tuple[array, array]] = {}
        self._labels_to_vertices: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_vertex(self, vid: int, label: str = "vertex", **properties: Any) -> int:
        """Add a vertex. Re-adding an existing id is an error."""
        if vid in self._vertex_labels:
            raise GraphError(f"vertex {vid} already exists")
        self._vertex_labels[vid] = label
        self._vertex_props[vid] = dict(properties)
        self._labels_to_vertices.setdefault(label, []).append(vid)
        return vid

    def add_edge(
        self,
        src: int,
        dst: int,
        label: str = "edge",
        eid: Optional[int] = None,
        **properties: Any,
    ) -> Edge:
        """Add a directed edge from ``src`` to ``dst``.

        Both endpoints must already exist. Edge ids are auto-assigned unless
        given explicitly.
        """
        if src not in self._vertex_labels:
            raise VertexNotFoundError(src)
        if dst not in self._vertex_labels:
            raise VertexNotFoundError(dst)
        if eid is not None and self._edges.row(eid) is not None:
            raise GraphError(f"edge {eid} already exists")
        self._order.clear()
        return self._edges.edge(
            self._edges.append(src, dst, label, eid, properties))

    def set_vertex_property(self, vid: int, key: str, value: Any) -> None:
        """Set one vertex property."""
        self._require_vertex(vid)
        self._vertex_props[vid][key] = value

    def set_edge_property(self, eid: int, key: str, value: Any) -> None:
        """Set one edge property: the one write path for edge data (the
        edge's dict is replaced, never mutated)."""
        if not self.has_edge(eid):
            raise EdgeNotFoundError(eid)
        props = self._edges.props
        props[eid] = {**props.get(eid, {}), key: value}

    # ------------------------------------------------------------------
    # vertex access
    # ------------------------------------------------------------------

    def vertex_label(self, vid: int) -> str:
        """The label of a vertex."""
        self._require_vertex(vid)
        return self._vertex_labels[vid]

    def vertex_properties(self, vid: int) -> Dict[str, Any]:
        """The property dict of a vertex."""
        self._require_vertex(vid)
        return self._vertex_props[vid]

    def get_vertex_property(self, vid: int, key: str, default: Any = None) -> Any:
        """One vertex property (or ``default``)."""
        self._require_vertex(vid)
        return self._vertex_props[vid].get(key, default)

    def vertices(self, label: Optional[str] = None) -> Iterator[int]:
        """Iterate vertex ids, optionally restricted to one label."""
        if label is None:
            return iter(self._vertex_labels)
        return iter(self._labels_to_vertices.get(label, ()))

    def vertex_labels(self) -> Iterable[str]:
        """All vertex labels present in the graph."""
        return self._labels_to_vertices.keys()

    # ------------------------------------------------------------------
    # edge access
    # ------------------------------------------------------------------

    def has_edge(self, eid: int) -> bool:
        """True when the edge id exists."""
        return self._edges.row(eid) is not None

    def edge(self, eid: int) -> Edge:
        """The Edge by id (raises EdgeNotFoundError)."""
        row = self._edges.row(eid)
        if row is None:
            raise EdgeNotFoundError(eid)
        return self._edges.edge(row)

    def edges(self, label: Optional[str] = None) -> Iterator[Edge]:
        """Iterate edges in insertion order, optionally one label."""
        table = self._edges
        if label is None:
            return map(table.edge, range(len(table)))
        code = table.label_codes.get(label)
        return (table.edge(row) for row, c in enumerate(table.codes) if c == code)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------

    def out_edges(self, vid: int, label: Optional[str] = None) -> List[Edge]:
        """Outgoing edges of a vertex (optionally one label)."""
        return list(map(self._edges.edge, self._rows(vid, OUT, label)))

    def in_edges(self, vid: int, label: Optional[str] = None) -> List[Edge]:
        """Incoming edges of a vertex (optionally one label)."""
        return list(map(self._edges.edge, self._rows(vid, IN, label)))

    def out_neighbors(self, vid: int, label: Optional[str] = None) -> List[int]:
        """Targets of a vertex's outgoing edges."""
        return list(map(self._edges.dst.__getitem__, self._rows(vid, OUT, label)))

    def in_neighbors(self, vid: int, label: Optional[str] = None) -> List[int]:
        """Sources of a vertex's incoming edges."""
        return list(map(self._edges.src.__getitem__, self._rows(vid, IN, label)))

    def neighbors(
        self, vid: int, direction: str = OUT, label: Optional[str] = None
    ) -> List[int]:
        """Neighbors in the given direction (``out``, ``in`` or ``both``)."""
        if direction == OUT:
            return self.out_neighbors(vid, label)
        if direction == IN:
            return self.in_neighbors(vid, label)
        if direction == BOTH:
            return self.out_neighbors(vid, label) + self.in_neighbors(vid, label)
        raise GraphError(f"unknown direction: {direction!r}")

    def degree(self, vid: int, direction: str = OUT, label: Optional[str] = None) -> int:
        """Edge count at a vertex in one direction."""
        return len(self.neighbors(vid, direction, label))

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._vertex_labels)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def label_counts(self) -> Dict[str, int]:
        """Vertex count per label."""
        return {label: len(vids) for label, vids in self._labels_to_vertices.items()}

    def estimated_raw_size(self) -> int:
        """Rough on-disk byte size estimate for dataset summary tables.

        Counts 16 bytes per edge (two 8-byte endpoints) plus a serialized
        estimate of every property value — the analogue of the "Raw Size"
        column in the paper's Table II.
        """
        size = 16 * self.edge_count
        for props in self._vertex_props.values():
            size += 8  # vertex id
            size += sum(_value_size(v) for v in props.values())
        for props in self._edges.props.values():
            size += sum(_value_size(v) for v in props.values())
        return size

    @property
    def nbytes(self) -> int:
        """Bytes the edge store holds: the edge table, and the adjacency
        order once a read has built it (vertex maps are not counted)."""
        return self._edges.nbytes + sum(
            sys.getsizeof(a) for pair in self._order.values() for a in pair)

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _require_vertex(self, vid: int) -> None:
        if vid not in self._vertex_labels:
            raise VertexNotFoundError(vid)

    def _rows(self, vid: int, direction: str, label: Optional[str]) -> Sequence[int]:
        """Table rows of ``vid``'s edges in one direction, insertion order."""
        self._require_vertex(vid)
        table = self._edges
        index = self._order.get(direction)
        if index is None:
            ends = table.src if direction == OUT else table.dst
            order = array("q", sorted(range(len(ends)), key=ends.__getitem__))
            index = self._order[direction] = (
                array("q", map(ends.__getitem__, order)), order)
        keys, order = index
        lo = bisect_left(keys, vid)
        rows = order[lo:bisect_right(keys, vid, lo)]
        if label is None:
            return rows
        code, codes = table.label_codes.get(label), table.codes
        return [row for row in rows if codes[row] == code]


def _value_size(value: Any) -> int:
    """Byte-size estimate of a property value for raw-size accounting."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(_value_size(v) for v in value)
    return 8
