"""Tests for the property graph model (V, E, λ) — paper §II-B."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph.property_graph import BOTH, IN, OUT, PropertyGraph


@pytest.fixture
def small_graph():
    g = PropertyGraph()
    g.add_vertex(1, "person", name="alice", weight=10)
    g.add_vertex(2, "person", name="bob", weight=20)
    g.add_vertex(3, "post", title="hello")
    g.add_edge(1, 2, "knows", since=2020)
    g.add_edge(2, 1, "knows", since=2020)
    g.add_edge(3, 1, "hasCreator")
    return g


class TestVertices:
    def test_counts(self, small_graph):
        assert small_graph.vertex_count == 3
        assert small_graph.edge_count == 3

    def test_duplicate_vertex_rejected(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.add_vertex(1, "person")

    def test_label_and_properties(self, small_graph):
        assert small_graph.vertex_label(1) == "person"
        assert small_graph.get_vertex_property(1, "name") == "alice"
        assert small_graph.get_vertex_property(1, "missing", "dflt") == "dflt"

    def test_vertices_by_label(self, small_graph):
        assert sorted(small_graph.vertices("person")) == [1, 2]
        assert list(small_graph.vertices("post")) == [3]
        assert sorted(small_graph.vertices()) == [1, 2, 3]

    def test_unknown_vertex_raises(self, small_graph):
        with pytest.raises(VertexNotFoundError):
            small_graph.vertex_label(99)

    def test_set_vertex_property(self, small_graph):
        small_graph.set_vertex_property(1, "weight", 11)
        assert small_graph.get_vertex_property(1, "weight") == 11

    def test_label_counts(self, small_graph):
        assert small_graph.label_counts() == {"person": 2, "post": 1}


class TestEdges:
    def test_edge_endpoints_raise_if_missing(self, small_graph):
        with pytest.raises(VertexNotFoundError):
            small_graph.add_edge(1, 99, "knows")
        with pytest.raises(VertexNotFoundError):
            small_graph.add_edge(99, 1, "knows")

    def test_auto_edge_ids_are_unique(self, small_graph):
        eids = [e.eid for e in small_graph.edges()]
        assert len(set(eids)) == 3

    def test_explicit_edge_id(self):
        g = PropertyGraph()
        g.add_vertex(1)
        g.add_vertex(2)
        edge = g.add_edge(1, 2, "e", eid=100)
        assert edge.eid == 100
        # subsequent auto ids do not collide
        auto = g.add_edge(2, 1, "e")
        assert auto.eid == 101

    def test_duplicate_edge_id_rejected(self):
        g = PropertyGraph()
        g.add_vertex(1)
        g.add_vertex(2)
        g.add_edge(1, 2, "e", eid=5)
        with pytest.raises(GraphError):
            g.add_edge(2, 1, "e", eid=5)

    def test_edge_lookup(self, small_graph):
        edge = next(small_graph.edges("hasCreator"))
        assert small_graph.edge(edge.eid) == edge
        with pytest.raises(EdgeNotFoundError):
            small_graph.edge(999)

    def test_edge_special_properties(self, small_graph):
        edge = next(small_graph.edges("hasCreator"))
        props = edge.all_properties()
        assert props["_src"] == 3
        assert props["_dest"] == 1

    def test_edge_other_endpoint(self, small_graph):
        edge = next(small_graph.edges("hasCreator"))
        assert edge.other(3) == 1
        assert edge.other(1) == 3
        with pytest.raises(GraphError):
            edge.other(2)

    def test_set_edge_property(self, small_graph):
        edge = next(small_graph.edges("hasCreator"))
        small_graph.set_edge_property(edge.eid, "ts", 5)
        assert small_graph.edge(edge.eid).properties["ts"] == 5


class TestAdjacency:
    def test_out_neighbors(self, small_graph):
        assert small_graph.out_neighbors(1, "knows") == [2]
        assert small_graph.out_neighbors(3, "hasCreator") == [1]

    def test_in_neighbors(self, small_graph):
        assert small_graph.in_neighbors(1, "knows") == [2]
        assert small_graph.in_neighbors(1, "hasCreator") == [3]

    def test_label_filter_none_means_all(self, small_graph):
        assert sorted(small_graph.in_neighbors(1)) == [2, 3]

    def test_both_direction(self, small_graph):
        assert sorted(small_graph.neighbors(1, BOTH, "knows")) == [2, 2]

    def test_degree(self, small_graph):
        assert small_graph.degree(1, OUT, "knows") == 1
        assert small_graph.degree(1, IN) == 2
        assert small_graph.degree(1, BOTH) == 3

    def test_unknown_direction_raises(self, small_graph):
        with pytest.raises(GraphError):
            small_graph.neighbors(1, "sideways")

    def test_parallel_edges_allowed(self):
        g = PropertyGraph()
        g.add_vertex(1)
        g.add_vertex(2)
        g.add_edge(1, 2, "e")
        g.add_edge(1, 2, "e")
        assert g.out_neighbors(1, "e") == [2, 2]


class TestRawSize:
    def test_size_grows_with_data(self):
        g = PropertyGraph()
        g.add_vertex(1, "v")
        base = g.estimated_raw_size()
        g.add_vertex(2, "v", name="a-long-property-value")
        assert g.estimated_raw_size() > base

    def test_size_counts_edges(self):
        g = PropertyGraph()
        g.add_vertex(1)
        g.add_vertex(2)
        before = g.estimated_raw_size()
        g.add_edge(1, 2, "e")
        assert g.estimated_raw_size() == before + 16
