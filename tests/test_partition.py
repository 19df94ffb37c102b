"""Tests for graph partitioning (H, PartitionStore, PartitionedGraph)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError, VertexNotFoundError
from repro.graph.builder import GraphBuilder
from repro.graph.partition import HashPartitioner, PartitionedGraph
from repro.graph.placement import mix64
from repro.graph.property_graph import BOTH, IN, OUT


@pytest.fixture
def chain_graph():
    """0 -> 1 -> 2 -> ... -> 19 plus one labeled hub."""
    b = GraphBuilder("node")
    for v in range(20):
        b.vertex(v, "node", value=v * 10)
    b.vertex(100, "hub", name="center")
    for v in range(19):
        b.edge(v, v + 1, "next")
    for v in range(0, 20, 5):
        b.edge(100, v, "spoke")
    return b.build()


class TestMix64AndPartitioner:
    def test_mix64_deterministic(self):
        assert mix64(42) == mix64(42)

    def test_mix64_distinct(self):
        values = {mix64(i) for i in range(1000)}
        assert len(values) == 1000

    def test_mix64_range(self):
        for i in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(i) < 2**64

    def test_partitioner_range(self):
        h = HashPartitioner(7)
        assert all(0 <= h(v) < 7 for v in range(500))

    def test_partitioner_rejects_zero_partitions(self):
        with pytest.raises(PartitionError):
            HashPartitioner(0)

    def test_partitioner_cache_consistency(self):
        h = HashPartitioner(5)
        first = [h(v) for v in range(100)]
        second = [h(v) for v in range(100)]
        assert first == second

    def test_key_partition_handles_non_ints(self):
        h = HashPartitioner(4)
        assert 0 <= h.key_partition("some-key") < 4
        assert 0 <= h.key_partition(("tuple", 3)) < 4
        assert h.key_partition("k") == h.key_partition("k")

    def test_balance_roughly_uniform(self):
        h = HashPartitioner(8)
        counts = [0] * 8
        for v in range(8000):
            counts[h(v)] += 1
        assert min(counts) > 700  # perfectly uniform would be 1000

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=64))
    @settings(max_examples=100)
    def test_property_partition_in_range(self, vid, n):
        assert 0 <= HashPartitioner(n)(vid) < n


class TestPartitionedGraph:
    def test_every_vertex_owned_exactly_once(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        owners = [pg.partition_of(v) for v in range(20)]
        for v, pid in zip(range(20), owners):
            assert pg.stores[pid].owns(v)
            for other in range(4):
                if other != pid:
                    assert not pg.stores[other].owns(v)
        assert sum(pg.partition_sizes()) == chain_graph.vertex_count

    def test_counts_preserved(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        assert pg.vertex_count == chain_graph.vertex_count
        assert pg.edge_count == chain_graph.edge_count
        assert pg.label_counts == chain_graph.label_counts()

    def test_out_adjacency_matches_original(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        for v in chain_graph.vertices():
            expected = sorted(chain_graph.out_neighbors(v))
            assert sorted(pg.neighbors(v, OUT)) == expected

    def test_in_adjacency_matches_original(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        for v in chain_graph.vertices():
            expected = sorted(chain_graph.in_neighbors(v))
            assert sorted(pg.neighbors(v, IN)) == expected

    def test_both_adjacency(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 3)
        assert sorted(pg.neighbors(5, BOTH)) == sorted(
            chain_graph.neighbors(5, BOTH)
        )

    def test_label_filtered_adjacency(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        assert pg.neighbors(0, IN, "spoke") == [100]
        assert pg.neighbors(0, IN, "next") == []

    def test_vertex_data_access_via_owner(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        assert pg.vertex_label(100) == "hub"
        assert pg.get_vertex_property(7, "value") == 70

    def test_single_partition_degenerate(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 1)
        assert pg.num_partitions == 1
        assert pg.stores[0].vertex_count == 21


class TestPartitionStore:
    def test_non_owned_access_raises(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        pid = pg.partition_of(3)
        other = pg.stores[(pid + 1) % 4]
        with pytest.raises(PartitionError):
            other.vertex_properties(3)
        with pytest.raises(PartitionError):
            other.neighbors(3, OUT)

    def test_unknown_vertex_raises_not_found(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        with pytest.raises(VertexNotFoundError):
            pg.stores[0].vertex_properties(9999)

    def test_local_vertices_by_label(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        hub_owner = pg.store_of(100)
        assert hub_owner.local_vertices("hub") == [100]

    def test_degree(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        store = pg.store_of(100)
        assert store.degree(100, OUT, "spoke") == 4
        assert store.degree(100, OUT) == 4
        assert store.degree(100, IN) == 0

    def test_edge_records_available_on_both_sides(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        edge = next(chain_graph.edges("spoke"))
        src_store = pg.store_of(edge.src)
        dst_store = pg.store_of(edge.dst)
        assert src_store.edge_record(edge.eid) is not None
        assert dst_store.edge_record(edge.eid) is not None


class TestPropertyIndex:
    def test_index_lookup(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        pg.create_index("node", "value")
        matches = []
        for store in pg.stores:
            matches.extend(store.index_lookup("node", "value", 70))
        assert matches == [7]

    def test_index_miss_is_empty(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        pg.create_index("node", "value")
        for store in pg.stores:
            assert store.index_lookup("node", "value", -1) == []

    def test_lookup_without_index_raises(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 4)
        with pytest.raises(PartitionError):
            pg.stores[0].index_lookup("node", "value", 70)

    def test_has_index_tracking(self, chain_graph):
        pg = PartitionedGraph.from_graph(chain_graph, 2)
        assert not pg.has_index("node", "value")
        pg.create_index("node", "value")
        assert pg.has_index("node", "value")
        assert pg.indexed_keys() == [("node", "value")]
