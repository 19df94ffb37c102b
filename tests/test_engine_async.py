"""Tests for the asynchronous PSTM engine (GraphDance)."""

import pytest

from repro.core.progress import ProgressMode
from repro.errors import ConfigurationError
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.cluster import ClusterConfig
from repro.runtime.costmodel import CostModel
from repro.runtime.engine import (
    AsyncPSTMEngine,
    EngineConfig,
    IO_SYNC,
    IO_TLC,
    IO_TLC_NLC,
)
from repro.runtime.reference import LocalExecutor
from tests.conftest import build_diamond, random_graph

CLUSTER = ClusterConfig(nodes=2, workers_per_node=2)


def khop_plan(graph, k=3, limit=5):
    return (
        Traversal("khop").v_param("s").khop("knows", k=k)
        .filter_(X.vertex().neq(X.param("s")))
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
        .limit(limit)
    ).compile(graph)


@pytest.fixture
def graph():
    return random_graph(n=120, degree=4, partitions=CLUSTER.num_partitions, seed=2)


@pytest.fixture
def engine(graph):
    return AsyncPSTMEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)


class TestConfiguration:
    def test_partition_count_must_match(self, graph):
        with pytest.raises(ConfigurationError):
            AsyncPSTMEngine(graph, nodes=3, workers_per_node=2)

    def test_non_partitioned_needs_per_node_sharding(self, graph):
        with pytest.raises(ConfigurationError):
            AsyncPSTMEngine(
                graph, CLUSTER.nodes, CLUSTER.workers_per_node,
                config=EngineConfig(partitioned_state=False),
            )

    def test_bad_io_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(io_mode="warp")

    @pytest.mark.parametrize("kernel", [None, "batch", "vector"])
    def test_kernel_accepts_exactly_run_and_scalar(self, kernel):
        with pytest.raises(ConfigurationError, match="'run', 'scalar'"):
            EngineConfig(kernel=kernel)

    @pytest.mark.parametrize("field, value", [
        # a drain with no budget pops nothing and reschedules at zero CPU:
        # the event loop would spin forever at one simulated instant
        ("batch_size", 0),
        ("batch_size", -1),
        ("flush_threshold_bytes", 0),
    ])
    def test_degenerate_sizes_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            EngineConfig(**{field: value})

    def test_cost_model_cpu_scale_is_honoured(self, graph):
        # CostModel.cpu_scale is the one compute-scale knob: doubling it
        # doubles every compute term of a 3-hop count (dispatch, edges,
        # memo ops, serialization, flush syscalls).
        plan = (Traversal("khop3").v_param("s").khop("knows", k=3).count()
                ).compile(graph)
        busy, latency = [], []
        for cm in (CostModel(), CostModel().scaled_cpu(2.0)):
            eng = AsyncPSTMEngine(graph, CLUSTER.nodes,
                                  CLUSTER.workers_per_node, cost_model=cm)
            result = eng.run(plan, {"s": 7})
            busy.append(sum(w.busy_total for w in eng.workers))
            latency.append(result.latency_us)
        assert busy[1] == pytest.approx(2 * busy[0], rel=1e-12)
        assert latency[1] > latency[0]

    def test_node_of_layout(self, engine):
        assert engine.node_of(0) == 0
        assert engine.node_of(1) == 0
        assert engine.node_of(2) == 1
        assert engine.node_of(3) == 1


class TestSingleQuery:
    def test_matches_reference(self, graph, engine):
        plan = khop_plan(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 7})
        result = engine.run(plan, {"s": 7})
        assert result.rows == expected
        assert result.latency_us > 0

    def test_latency_is_simulated_not_wall_clock(self, graph, engine):
        plan = khop_plan(graph)
        result = engine.run(plan, {"s": 7})
        assert result.latency_ms < 1000  # simulated ms, tiny graph

    def test_memos_cleared_after_completion(self, graph, engine):
        engine.run(khop_plan(graph), {"s": 7})
        for runtime in engine.runtimes:
            assert runtime.memo_store.active_queries() == []

    def test_sessions_move_to_completed(self, graph, engine):
        session = engine.submit(khop_plan(graph), {"s": 7})
        engine.clock.run_until_idle()
        assert session.query_id in engine.completed
        assert session.query_id not in engine.sessions

    def test_on_done_callback_fires(self, graph, engine):
        fired = []
        engine.submit(khop_plan(graph), {"s": 7}, on_done=fired.append)
        engine.clock.run_until_idle()
        assert len(fired) == 1
        assert fired[0].qmetrics.done

    def test_submit_at_defers_start(self, graph, engine):
        session = engine.submit(khop_plan(graph), {"s": 7}, at=500.0)
        engine.clock.run_until_idle()
        assert session.qmetrics.submitted_at_us == 500.0
        assert session.qmetrics.completed_at_us > 500.0

    def test_metrics_populated(self, graph, engine):
        engine.run(khop_plan(graph), {"s": 7})
        m = engine.metrics
        assert m.steps_executed > 0
        assert m.traversers_spawned > 0
        assert m.edges_scanned > 0


class TestConcurrentQueries:
    def test_interleaved_queries_return_correct_results(self, graph, engine):
        plan = khop_plan(graph)
        expected = {s: LocalExecutor(graph).run(plan, {"s": s})
                    for s in (1, 2, 3, 4)}
        sessions = {s: engine.submit(plan, {"s": s}) for s in (1, 2, 3, 4)}
        engine.clock.run_until_idle()
        for s, session in sessions.items():
            assert session.results == expected[s], s

    def test_closed_loop_completes_all(self, graph, engine):
        plan = khop_plan(graph)
        qps, recorder = engine.run_closed_loop(
            lambda i: (plan, {"s": i % 20}), clients=4, total_queries=12
        )
        assert len(recorder) == 12
        assert qps > 0


class TestProgressModes:
    @pytest.mark.parametrize("mode", list(ProgressMode))
    def test_all_modes_agree_on_results(self, graph, mode):
        plan = khop_plan(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 3})
        engine = AsyncPSTMEngine(
            graph, CLUSTER.nodes, CLUSTER.workers_per_node,
            config=EngineConfig(progress_mode=mode),
        )
        assert engine.run(plan, {"s": 3}).rows == expected

    def test_coalescing_reduces_progress_messages(self, graph):
        plan = khop_plan(graph)
        counts = {}
        for mode in (ProgressMode.WEIGHTED_COALESCED,
                     ProgressMode.WEIGHTED_IMMEDIATE):
            engine = AsyncPSTMEngine(
                graph, CLUSTER.nodes, CLUSTER.workers_per_node,
                config=EngineConfig(progress_mode=mode),
            )
            engine.run(plan, {"s": 3})
            counts[mode] = engine.metrics.progress_messages
        assert counts[ProgressMode.WEIGHTED_COALESCED] < \
            counts[ProgressMode.WEIGHTED_IMMEDIATE]

    def test_naive_mode_floods_the_tracker(self, graph):
        plan = khop_plan(graph)
        engine = AsyncPSTMEngine(
            graph, CLUSTER.nodes, CLUSTER.workers_per_node,
            config=EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL),
        )
        engine.run(plan, {"s": 3})
        # one report per execution
        assert engine.metrics.progress_messages >= engine.metrics.steps_executed


class TestIOModes:
    @pytest.mark.parametrize("mode", [IO_SYNC, IO_TLC, IO_TLC_NLC])
    def test_all_io_modes_agree_on_results(self, graph, mode):
        plan = khop_plan(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 3})
        engine = AsyncPSTMEngine(
            graph, CLUSTER.nodes, CLUSTER.workers_per_node,
            config=EngineConfig(io_mode=mode),
        )
        assert engine.run(plan, {"s": 3}).rows == expected

    @staticmethod
    def packets_per_mode(graph, nodes, workers_per_node):
        """Packets sent per I/O mode by a solo query and a 16-query batch."""
        plan = khop_plan(graph)
        solo, batch = {}, {}
        for mode in (IO_SYNC, IO_TLC, IO_TLC_NLC):
            for packets, starts in ((solo, [3]), (batch, range(0, 48, 3))):
                engine = AsyncPSTMEngine(
                    graph, nodes, workers_per_node,
                    config=EngineConfig(io_mode=mode),
                )
                for s in starts:
                    engine.submit(plan, {"s": s})
                engine.clock.run_until_idle()
                packets[mode] = engine.metrics.packets_sent
        return solo, batch

    def test_batching_reduces_packets(self):
        """Tier 1 always packs; tier 2 packs what was flushed while the
        NIC was busy, so it needs contention: an uncontended solo query
        sends the same packets with or without it, a concurrent batch
        strictly fewer. Four workers share each NIC here; with two, the
        batch's 20 remote flushes never met a busy NIC (the packing
        itself is pinned in ``tests/test_network.py``)."""
        graph = random_graph(n=120, degree=4, partitions=8, seed=2)
        solo, batch = self.packets_per_mode(graph, 2, 4)
        assert solo[IO_SYNC] > solo[IO_TLC] >= solo[IO_TLC_NLC]
        assert batch[IO_SYNC] > batch[IO_TLC] > batch[IO_TLC_NLC]

    def test_batching_on_the_default_cluster(self, graph):
        """The same batch on the shared 2×2 cluster: tier 1 packs in
        both modes, and tier 2 finds (almost) nothing — every TLC+NLC
        packet is one remote flush here, and on graph seeds 1-8 at most
        two flushes a run meet a busy NIC. Which of TLC and TLC+NLC sends
        fewer packets is then a matter of schedule, not of tier 2: the
        0.3 µs hand-off to the node's network thread, against TLC's 2 µs
        send syscall, lets a worker idle, and flush, at other instants.
        TLC+NLC has sent more packets than TLC on four to six of graph
        seeds 1-8 ever since the network thread pays its sends, so the
        two are not ordered here. Seed 2 reads 690 / 30 / 32 packets
        (sync / TLC / TLC+NLC) with every partitionable aggregate absorbed
        inline, 661 / 28 / 23 with only a k-hop count absorbed."""
        solo, batch = self.packets_per_mode(
            graph, CLUSTER.nodes, CLUSTER.workers_per_node)
        assert solo[IO_SYNC] > solo[IO_TLC] >= solo[IO_TLC_NLC]
        assert batch[IO_SYNC] > max(batch[IO_TLC], batch[IO_TLC_NLC])


class TestMultiStage:
    def test_mid_plan_aggregation_runs_distributed(self, graph, engine):
        plan = (
            Traversal("t").v_param("s").out("knows").as_("v")
            .group_count("v")
            .filter_(X.binding("count").ge(1))
            .select("key", "count")
        ).compile(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 3})
        result = engine.run(plan, {"s": 3})
        assert sorted(result.rows) == sorted(expected)

    def test_join_query_runs_distributed(self, graph, engine):
        left = Traversal("l").v_param("a").out("knows").as_("x")
        right = Traversal("r").v_param("b").out("knows").as_("y")
        plan = (
            Traversal.join("j", left, "x", right, "y")
            .as_("meet").dedup().select("meet")
        ).compile(graph)
        expected = LocalExecutor(graph).run(plan, {"a": 1, "b": 2})
        result = engine.run(plan, {"a": 1, "b": 2})
        assert sorted(result.rows) == sorted(expected)
