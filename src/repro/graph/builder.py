"""Fluent construction of (partitioned) property graphs.

:class:`GraphBuilder` collects vertices and edges, then produces either a
plain :class:`~repro.graph.property_graph.PropertyGraph` or a
:class:`~repro.graph.partition.PartitionedGraph` ready for the distributed
engines, optionally pre-building the property indexes the query planner's
``IndexLookup`` strategy needs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import VertexNotFoundError
from repro.graph.partition import PartitionedGraph
from repro.graph.property_graph import EdgeTable, PropertyGraph


class GraphBuilder:
    """Incremental builder for property graphs.

    Unlike :class:`PropertyGraph`, the builder tolerates out-of-order input:
    edges may be added before their endpoints; missing endpoints are
    materialized with a default label at :meth:`build` time (or rejected with
    ``strict=True``).
    """

    def __init__(self, default_vertex_label: str = "vertex") -> None:
        self._default_label = default_vertex_label
        self._vertices: Dict[int, Tuple[str, Dict[str, Any]]] = {}
        self._edges = EdgeTable()

    def vertex(self, vid: int, label: Optional[str] = None, **props: Any) -> "GraphBuilder":
        """Declare a vertex; repeated declarations merge properties."""
        if vid in self._vertices:
            old_label, old_props = self._vertices[vid]
            merged = dict(old_props)
            merged.update(props)
            self._vertices[vid] = (label or old_label, merged)
        else:
            self._vertices[vid] = (label or self._default_label, dict(props))
        return self

    def edge(self, src: int, dst: int, label: str = "edge", **props: Any) -> "GraphBuilder":
        """Add a directed edge (endpoints may be declared later)."""
        self._edges.append(src, dst, label, None, props)
        return self

    def edges(self, pairs: Iterable[Tuple[int, int]], label: str = "edge") -> "GraphBuilder":
        """Bulk-add unlabelled-property edges from ``(src, dst)`` pairs."""
        for src, dst in pairs:
            self._edges.append(src, dst, label, None, None)
        return self

    def get_vertex_prop(self, vid: int, key: str, default: Any = None) -> Any:
        """Read back a property of a declared vertex (generator helper)."""
        if vid not in self._vertices:
            raise KeyError(f"vertex {vid} not declared")
        return self._vertices[vid][1].get(key, default)

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def build(self, strict: bool = False) -> PropertyGraph:
        """Materialize a :class:`PropertyGraph`.

        With ``strict=False`` (default), endpoints never declared via
        :meth:`vertex` are auto-created with the default label.
        """
        graph = PropertyGraph()
        for vid, (label, props) in self._vertices.items():
            graph.add_vertex(vid, label, **props)
        edges = self._edges
        missing = set(edges.src).union(edges.dst).difference(self._vertices)
        if strict and missing:
            raise VertexNotFoundError(next(v for pair in zip(edges.src, edges.dst)
                                           for v in pair if v in missing))
        for vid in sorted(missing):
            graph.add_vertex(vid, self._default_label)
        graph._edges = edges.copy()  # noqa: SLF001 - endpoints all exist now
        return graph

    def build_partitioned(
        self,
        num_partitions: int,
        indexes: Optional[List[Tuple[str, str]]] = None,
        strict: bool = False,
    ) -> PartitionedGraph:
        """Materialize and shard in one step.

        ``indexes`` is a list of ``(vertex_label, property_key)`` pairs to
        pre-build exact-match lookup indexes for.
        """
        graph = self.build(strict=strict)
        pg = PartitionedGraph.from_graph(graph, num_partitions)
        for label, key in indexes or []:
            pg.create_index(label, key)
        return pg
