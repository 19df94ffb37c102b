"""White-box tests for worker buffering, weight coalescing, and the tracker."""

import pytest

from repro.core.progress import ProgressMode
from repro.core.traverser import Traverser
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.delivery import TrackerActor
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message
from repro.runtime.runs import PROGRESS_MSG_BYTES
from tests.conftest import random_graph


NODES, WPN = 2, 2


@pytest.fixture
def graph():
    return random_graph(n=80, degree=4, partitions=NODES * WPN, seed=8)


@pytest.fixture
def engine(graph):
    return AsyncPSTMEngine(graph, NODES, WPN)


def simple_plan(graph):
    return (
        Traversal("t").v_param("s").out("knows").out("knows").dedup()
        .as_("v").select("v")
    ).compile(graph)


class TestTierOneBuffers:
    def test_buffers_empty_after_idle(self, graph, engine):
        engine.run(simple_plan(graph), {"s": 1})
        for worker in engine.workers:
            assert all(not msgs for msgs in worker._buffers.values())
            assert all(not pairs for pairs in worker._trav_buffers.values())
            assert all(b == 0 for b in worker._buffer_bytes.values())

    def test_flush_threshold_triggers_early_sends(self, graph):
        small = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(flush_threshold_bytes=64),
        )
        large = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(flush_threshold_bytes=1 << 20),
        )
        plan = simple_plan(graph)
        small.run(plan, {"s": 1})
        large.run(plan, {"s": 1})
        assert small.metrics.flushes > large.metrics.flushes

    def test_traverser_batches_group_by_destination_partition(self, graph, engine):
        engine.run(simple_plan(graph), {"s": 1})
        # Logical traverser count is preserved through batching.
        assert engine.metrics.messages[MsgKind.TRAVERSER] > 0


class TestWeightCoalescingRules:
    def test_accumulators_drain_by_completion(self, graph, engine):
        engine.run(simple_plan(graph), {"s": 1})
        for worker in engine.workers:
            for accum in worker._accums.values():
                assert accum.pending_count == 0

    def test_progress_messages_far_fewer_than_finishes(self, graph, engine):
        engine.run(simple_plan(graph), {"s": 1})
        # every traverser that finishes absorbs into an accumulator;
        # coalescing collapses them into far fewer tracker messages
        finishes = engine.metrics.steps_executed
        assert engine.metrics.progress_messages < finishes / 2

    def test_stage_counts_return_to_zero(self, graph, engine):
        engine.run(simple_plan(graph), {"s": 1})
        for runtime in engine.runtimes:
            assert all(v == 0 for v in runtime.stage_counts.values())


def report(query_id):
    return Message(MsgKind.PROGRESS, TRACKER_DST, None, PROGRESS_MSG_BYTES,
                   query_id)


class TestTrackerActor:
    def test_serial_processing_charges_time(self, graph, engine):
        tracker = TrackerActor(engine)
        handled = []
        engine.tracker_handle = lambda m: handled.append(m)  # type: ignore
        tracker.submit(report(0), at=0.0, cost_us=2.0)
        tracker.submit(report(0), at=0.0, cost_us=2.0)
        assert tracker.free_at == pytest.approx(4.0)
        engine.clock.run_until_idle()
        assert len(handled) == 2

    def test_charge_occupies_cpu(self, graph, engine):
        tracker = TrackerActor(engine)
        t1 = tracker.charge(0, at=10.0, cost_us=5.0)
        t2 = tracker.charge(0, at=0.0, cost_us=5.0)  # queues behind the first
        assert t1 == 15.0
        assert t2 == 20.0
        lane = engine.home_node(0)
        assert tracker.busy_us[lane] == 10.0
        assert tracker.wait_us[lane] == 15.0  # the second waited 0 -> 15

    def test_lanes_are_independent(self, graph, engine):
        """Differently-homed queries never queue behind each other; two
        reports for one query serialize on its lane."""
        a = 0
        b = next(q for q in range(1, 64)
                 if engine.home_node(q) != engine.home_node(a))
        tracker = engine.tracker
        cost_us = engine.cost.tracker_msg_us
        handled = []
        engine.tracker_handle = (  # type: ignore
            lambda m: handled.append((m.query_id, engine.clock.now)))
        at = 7.0
        for query_id in (a, b, a):
            tracker.submit(report(query_id), at, cost_us)
        engine.clock.run_until_idle()
        assert handled == [(a, at + cost_us), (b, at + cost_us),
                           (a, at + 2 * cost_us)]
        assert tracker.free_at == at + 2 * cost_us
        assert tracker.messages_processed == 3
        assert sum(tracker.wait_us) == cost_us  # only a's second report

    def test_progress_size_constant(self):
        assert PROGRESS_MSG_BYTES == 16


class TestUtilization:
    def test_busy_time_accumulates(self, graph, engine):
        engine.run(simple_plan(graph), {"s": 1})
        assert sum(w.busy_total for w in engine.workers) > 0

    def test_utilization_bounded(self, graph, engine):
        plan = simple_plan(graph)
        engine.run_closed_loop(lambda i: (plan, {"s": i % 20}),
                               clients=8, total_queries=16)
        util = engine.worker_utilization()
        assert 0.0 < util <= 1.0

    def test_loaded_utilization_exceeds_single_query(self, graph):
        plan = simple_plan(graph)
        solo = AsyncPSTMEngine(graph, NODES, WPN)
        solo.run(plan, {"s": 1})
        solo_util = solo.worker_utilization()
        loaded = AsyncPSTMEngine(graph, NODES, WPN)
        loaded.run_closed_loop(lambda i: (plan, {"s": i % 20}),
                               clients=16, total_queries=32)
        assert loaded.worker_utilization() > solo_util

    def test_empty_window_is_zero(self, graph, engine):
        assert engine.worker_utilization() == 0.0


class TestSetupCost:
    def test_setup_cost_delays_first_batch(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        worker = engine.workers[0]
        worker.add_setup_cost(0.0, 100.0)
        assert worker.busy_until == 100.0
        worker.add_setup_cost(50.0, 10.0)  # stacks after existing busy time
        assert worker.busy_until == 110.0


class TestStrayTraversers:
    def test_traverser_for_finished_query_is_dropped(self, graph, engine):
        plan = simple_plan(graph)
        result = engine.run(plan, {"s": 1})
        done_qid = max(engine.completed)
        stray = Traverser(done_qid, 1, plan.stages[0].entry_points[0],
                          (None,) * plan.payload_width, 1)
        engine.runtimes[0].enqueue([stray], engine.clock.now)
        engine.clock.run_until_idle()  # must not raise or deadlock
        assert done_qid not in engine.sessions
