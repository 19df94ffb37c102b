"""Tests for snapshot views: queries over base graph + transactional delta."""

import pytest

from repro.errors import PartitionError
from repro.graph.builder import GraphBuilder
from repro.graph.partition import HashPartitioner, PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine
from repro.runtime.reference import LocalExecutor
from repro.txn.manager import TransactionManager
from repro.txn.view import LABEL_PROP, SnapshotGraph, snapshot_view

PARTS = 4


@pytest.fixture
def base():
    b = GraphBuilder("person")
    for v in range(8):
        b.vertex(v, "person", weight=v * 10, name=f"p{v}")
    for src, dst in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]:
        b.edge(src, dst, "knows")
    return PartitionedGraph.from_graph(b.build(), PARTS)


@pytest.fixture
def txm(base):
    return TransactionManager(base.partitioner)


def commit_edge(txm, src, dst, label="knows", eid=1000, **props):
    txn = txm.begin()
    txm.add_edge(txn, src, dst, label, eid, properties=props or None)
    txm.commit(txn)
    txm.broadcast_lct(list(range(PARTS)))


class TestSnapshotStore:
    def test_base_only_view_equals_base(self, base, txm):
        txm.broadcast_lct([0])
        view = snapshot_view(base, txm, node=0)
        for v in range(8):
            store = view.store_of(v)
            assert store.owns(v)
            assert store.get_vertex_property(v, "weight") == v * 10
            assert store.neighbors(v, "out", "knows") == \
                base.store_of(v).neighbors(v, "out", "knows")

    def test_committed_edge_visible(self, base, txm):
        commit_edge(txm, 0, 5)
        view = snapshot_view(base, txm, node=0)
        assert sorted(view.store_of(0).neighbors(0, "out", "knows")) == [1, 5]
        assert 0 in view.store_of(5).neighbors(5, "in", "knows")

    def test_uncommitted_edge_invisible(self, base, txm):
        txm.broadcast_lct(list(range(PARTS)))
        txn = txm.begin()
        txm.add_edge(txn, 0, 5, "knows", 1000)
        # not committed — and even after commit, the cached LCT is stale
        view = snapshot_view(base, txm, node=0)
        assert view.store_of(0).neighbors(0, "out", "knows") == [1]
        txm.commit(txn)
        stale = snapshot_view(base, txm, node=0)  # cache not re-broadcast
        assert stale.store_of(0).neighbors(0, "out", "knows") == [1]

    def test_snapshot_isolation_from_later_commits(self, base, txm):
        commit_edge(txm, 0, 5, eid=1000)
        view = snapshot_view(base, txm, node=0)
        # a commit after the snapshot was taken stays invisible to it
        commit_edge(txm, 0, 6, eid=1001)
        assert sorted(view.store_of(0).neighbors(0, "out", "knows")) == [1, 5]
        fresh = snapshot_view(base, txm, node=0)
        assert sorted(fresh.store_of(0).neighbors(0, "out", "knows")) == [1, 5, 6]

    def test_deleted_edge_invisible(self, base, txm):
        commit_edge(txm, 0, 5, eid=1000)
        txn = txm.begin()
        txm.delete_edge(txn, 0, 5, "knows", 1000)
        txm.commit(txn)
        txm.broadcast_lct(list(range(PARTS)))
        view = snapshot_view(base, txm, node=0)
        assert view.store_of(0).neighbors(0, "out", "knows") == [1]

    def test_property_override(self, base, txm):
        txn = txm.begin()
        txm.set_property(txn, 3, "weight", 999)
        txm.commit(txn)
        txm.broadcast_lct(list(range(PARTS)))
        view = snapshot_view(base, txm, node=0)
        assert view.store_of(3).get_vertex_property(3, "weight") == 999
        # untouched properties fall through to the base
        assert view.store_of(3).get_vertex_property(3, "name") == "p3"
        merged = view.store_of(3).vertex_properties(3)
        assert merged["weight"] == 999 and merged["name"] == "p3"

    def test_delta_created_vertex(self, base, txm):
        new_vid = 100
        txn = txm.begin()
        txm.set_property(txn, new_vid, LABEL_PROP, "person")
        txm.set_property(txn, new_vid, "weight", 77)
        txm.add_edge(txn, 0, new_vid, "knows", 2000)
        txm.commit(txn)
        txm.broadcast_lct(list(range(PARTS)))
        view = snapshot_view(base, txm, node=0)
        store = view.store_of(new_vid)
        assert store.owns(new_vid)
        assert store.vertex_label(new_vid) == "person"
        assert store.get_vertex_property(new_vid, "weight") == 77
        assert new_vid in view.store_of(0).neighbors(0, "out", "knows")
        assert new_vid in store.local_vertices("person")

    def test_edge_record_carries_delta_properties(self, base, txm):
        commit_edge(txm, 0, 5, eid=3000, creationDate=42)
        view = snapshot_view(base, txm, node=0)
        store = view.store_of(0)
        pairs = store.edges(0, "out", "knows")
        eids = {eid for _n, eid in pairs}
        assert 3000 in eids
        record = store.edge_record(3000)
        assert record.properties["creationDate"] == 42
        assert (record.src, record.dst) == (0, 5)

    def test_degree_includes_delta(self, base, txm):
        commit_edge(txm, 0, 5)
        view = snapshot_view(base, txm, node=0)
        assert view.store_of(0).degree(0, "out", "knows") == 2
        assert view.store_of(0).degree(0, "both") == 2  # no in-edges at 0

    def test_partition_mismatch_rejected(self, base):
        txm = TransactionManager(HashPartitioner(PARTS + 1))
        with pytest.raises(PartitionError):
            snapshot_view(base, txm)

    def test_placement_of_its_own_rejected(self, base):
        """A hash of the same width still disagrees with the graph's
        static homes, so the view would miss deltas."""
        with pytest.raises(PartitionError):
            snapshot_view(base, TransactionManager(HashPartitioner(PARTS)))


class TestQueriesOverSnapshots:
    def khop_plan(self, graph, k=3):
        return (
            Traversal("khop").v_param("s").khop("knows", k=k).as_("v")
            .select("v")
        ).compile(graph)

    def test_reference_executor_sees_delta(self, base, txm):
        commit_edge(txm, 0, 6)  # shortcut: 6 and 7 now within 2 hops of 0
        view = snapshot_view(base, txm, node=0)
        rows = LocalExecutor(view).run(self.khop_plan(view, k=2), {"s": 0})
        assert sorted(r[0] for r in rows) == [0, 1, 2, 6, 7]

    def test_async_engine_runs_on_snapshot(self, base, txm):
        commit_edge(txm, 0, 6)
        view = snapshot_view(base, txm, node=0)
        plan = self.khop_plan(view, k=2)
        expected = LocalExecutor(view).run(plan, {"s": 0})
        engine = AsyncPSTMEngine(view, nodes=2, workers_per_node=2)
        assert sorted(engine.run(plan, {"s": 0}).rows) == sorted(expected)

    def test_index_lookup_finds_delta_vertices(self, base, txm):
        base.create_index("person", "name")
        new_vid = 200
        txn = txm.begin()
        txm.set_property(txn, new_vid, LABEL_PROP, "person")
        txm.set_property(txn, new_vid, "name", "newcomer")
        txm.commit(txn)
        txm.broadcast_lct(list(range(PARTS)))
        view = snapshot_view(base, txm, node=0)
        plan = (
            Traversal("lookup").index_lookup("person", "name", "who")
            .as_("v").select("v")
        ).compile(view)
        rows = LocalExecutor(view).run(plan, {"who": "newcomer"})
        assert rows == [(new_vid,)]
        # base-indexed vertices still resolve
        rows = LocalExecutor(view).run(plan, {"who": "p3"})
        assert rows == [(3,)]

    def test_bsp_engine_runs_on_snapshot(self, base, txm):
        from repro.runtime.bsp import BSPEngine

        commit_edge(txm, 0, 6)
        view = snapshot_view(base, txm, node=0)
        plan = self.khop_plan(view, k=2)
        expected = LocalExecutor(view).run(plan, {"s": 0})
        engine = BSPEngine(view, nodes=2, workers_per_node=2)
        assert sorted(engine.run(plan, {"s": 0}).rows) == sorted(expected)

    def test_recovery_then_query_sees_committed_prefix(self, base, txm):
        """Crash-recover the delta, then query the snapshot: only the
        committed prefix is visible (the §IV-C restart story end to end)."""
        from repro.txn.recovery import recover

        commit_edge(txm, 0, 5, eid=1000)           # committed: survives
        lct = txm.lct
        # torn write applied with a post-crash timestamp
        sp = txm.partitioner(0)
        txm.partitions[sp].tel.insert_edge(0, 7, "knows", 1001, create_ts=lct + 3)
        recover(txm.partitions, lct)
        txm.broadcast_lct(list(range(PARTS)))
        view = snapshot_view(base, txm, node=0)
        rows = LocalExecutor(view).run(self.khop_plan(view, k=1), {"s": 0})
        reached = sorted(r[0] for r in rows)
        assert 5 in reached      # committed delta edge
        assert 7 not in reached  # torn write removed by recovery

    def test_snapshot_graph_counts(self, base, txm):
        txn = txm.begin()
        txm.set_property(txn, 300, LABEL_PROP, "person")
        txm.commit(txn)
        txm.broadcast_lct(list(range(PARTS)))
        view = snapshot_view(base, txm, node=0)
        assert view.vertex_count == base.vertex_count + 1
