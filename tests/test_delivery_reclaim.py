"""Exactly-once weight reclamation through the delivery plane.

Before the delivery plane existed, four sites (deliver-time filter,
CANCEL purge, worker-buffer purge, drain-loop drop) each carried their own
copy of the reclamation bookkeeping; a missed copy double-counted or lost
weight only under rare interleavings. All four now funnel through
:meth:`DeliveryPlane.reclaim`, and this module pins the invariant the
unification exists for:

* **unit** — one ``reclaim`` call charges the global and per-query
  counters exactly once and reports weight to the ledger exactly once
  (mod 2^64), in every variant (mid-cancellation lookup, explicit
  session, teardown's report-free form);
* **regression** — the nastiest interleaving we know: a worker crashes
  *while* a query is mid-cancellation, with credit-gated backpressure
  armed and a healthy query sharing the engine. Every unit of the doomed
  query's weight must be reclaimed exactly once (the ledger closes, the
  cancellation finalizes once, no credit is released twice — the gate
  raises on over-release), and the healthy query's answer is untouched.
"""

import pytest

from repro.core.traverser import Traverser
from repro.core.weight import GROUP_MODULUS
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import QueryState
from tests.conftest import KERNELS
from tests.test_lifecycle import LEGAL_KEYS

NODES, WPN = 4, 2


@pytest.fixture(scope="module")
def graph(soak_graph):
    return soak_graph


def khop_plan(graph, k=4):
    return (Traversal("khop").v_param("s").khop("knows", k=k).count()
            ).compile(graph)


# -- unit: the one bookkeeping path -----------------------------------------


class TestReclaimBookkeeping:
    def test_counters_charged_exactly_once(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(khop_plan(graph), {"s": 3}, at=1e9)
        engine.delivery.cancelling[session.query_id] = session
        before_reports = engine.progress.reclaim_reports
        engine.delivery.reclaim(session.query_id, 0, weight=7, count=3)
        assert engine.metrics.traversers_reclaimed == 3
        assert session.qmetrics.traversers_reclaimed == 3
        assert engine.metrics.weight_reclaim_reports == 1
        assert engine.progress.reclaim_reports == before_reports + 1

    def test_explicit_session_overrides_lookup(self, graph):
        """Teardown reclaims for queries already out of ``cancelling``."""
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(khop_plan(graph), {"s": 3}, at=1e9)
        engine.delivery.reclaim(session.query_id, 0, weight=0, count=2,
                                report=False, session=session)
        assert session.qmetrics.traversers_reclaimed == 2
        assert engine.metrics.traversers_reclaimed == 2
        assert engine.metrics.weight_reclaim_reports == 0  # report=False

    def test_zero_weight_reports_nothing(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        engine.delivery.reclaim(999, 0, weight=0, count=1)
        assert engine.metrics.traversers_reclaimed == 1
        assert engine.metrics.weight_reclaim_reports == 0

    def test_weight_folds_modulo_group(self, graph):
        # A full group's worth of weight is congruent to zero: nothing to
        # report. (Reclaimed weights are group elements, Theorem 1.)
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        engine.delivery.reclaim(999, 0, weight=GROUP_MODULUS, count=1)
        assert engine.metrics.weight_reclaim_reports == 0

    def test_filter_cancelled_reclaims_per_stage(self, graph):
        """The deliver-time filter groups dropped traversers by (query,
        stage) and reclaims each group's weight once."""
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(khop_plan(graph), {"s": 3}, at=1e9)
        qid = session.query_id
        engine.delivery.cancelling[qid] = session
        travs = [
            Traverser(qid, 1, 0, (), 10, stage=0),
            Traverser(qid, 2, 0, (), 20, stage=0),
            Traverser(qid, 3, 0, (), 30, stage=1),
            Traverser(qid + 1, 4, 0, (), 40, stage=0),  # not cancelling
        ]
        kept = engine.delivery.filter_cancelled(travs, pid=0)
        assert [t.query_id for t in kept] == [qid + 1]
        assert engine.metrics.traversers_reclaimed == 3
        assert session.qmetrics.traversers_reclaimed == 3
        assert engine.metrics.weight_reclaim_reports == 2  # one per stage


# -- regression: cancel + crash, combined -----------------------------------


class TestCancelCrashInterleaving:
    """A crash landing mid-cancellation is the interleaving that used to
    require all four bookkeeping copies to agree. Exactly-once now falls
    out of the single funnel; these runs would previously double-release
    credits (the gate asserts) or strand the ledger (open_stages > 0)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_during_cancellation_reclaims_exactly_once(
            self, graph, kernel):
        config = EngineConfig(
            kernel=kernel,
            inbox_capacity=64,  # armed gate: over-release raises
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=1, at_us=41.0, down_us=2000.0),)),
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = khop_plan(graph)
        doomed = engine.submit(plan, {"s": 3})
        healthy = engine.submit(plan, {"s": 7})
        engine.clock.schedule_at(40.0, lambda: engine.cancel(doomed, "caller"))
        mid_cancel_at_crash = []
        engine.clock.schedule_at(
            40.5,
            lambda: mid_cancel_at_crash.append(
                doomed.query_id in engine.delivery.cancelling))
        engine.clock.run_until_idle()

        # The interleaving actually happened: the CANCEL was still waiting
        # on reclaimed weight when the crash fired.
        assert mid_cancel_at_crash == [True]
        assert engine.metrics.worker_crashes == 1
        assert engine.metrics.traversers_reclaimed > 0

        # Exactly-once: the cancellation finalized once (the crash-forced
        # finalize and the ledger-close path are idempotent), the doomed
        # session is terminal, and nothing was reclaimed twice — a double
        # credit release would have raised inside CreditGate, and a lost
        # unit of weight would leave the stage ledger open below.
        snap = engine.overload_snapshot()
        assert snap["open_stages"] == 0
        assert snap["cancelling"] == 0
        assert snap["active_sessions"] == 0
        assert doomed.lifecycle.terminal
        assert doomed.cancelled and doomed.cancel_reason == "caller"
        for gate in engine.delivery.gates:
            assert gate.available == gate.capacity, (
                f"gate {gate.pid} leaked {gate.in_use} credits")
            assert gate.waiting_sends == 0
        for runtime in engine.runtimes:
            assert runtime.memo_store.active_queries() == []
            assert list(runtime.queue) == []
            assert list(runtime.inbox) == []
        assert engine.network.unacked_packets == 0
        # per-query attribution never exceeds the global count
        assert (doomed.qmetrics.traversers_reclaimed
                <= engine.metrics.traversers_reclaimed)

        # The healthy neighbour survived the crash (possibly via retry)
        # with the exact answer.
        assert healthy.state is QueryState.DONE
        baseline = AsyncPSTMEngine(graph, NODES, WPN).run(plan, {"s": 7})
        assert healthy.results == baseline.rows

        # And the whole run stayed inside the lifecycle table.
        assert set(engine.metrics.lifecycle_transitions) <= LEGAL_KEYS

    def test_cancel_of_crashed_workers_queries_is_clean(self, graph):
        """The mirror order: crash first, then cancel the recovering query
        mid-retry. Still exactly-once, still zero residue."""
        config = EngineConfig(
            inbox_capacity=64,
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=1, at_us=30.0, down_us=1000.0),)),
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        doomed = engine.submit(khop_plan(graph), {"s": 3})
        engine.clock.schedule_at(1100.0, lambda: engine.cancel(doomed, "late"))
        engine.clock.run_until_idle()
        assert engine.metrics.worker_crashes == 1
        assert doomed.lifecycle.terminal
        snap = engine.overload_snapshot()
        assert snap["open_stages"] == 0
        assert snap["cancelling"] == 0
        assert snap["active_sessions"] == 0
        for gate in engine.delivery.gates:
            assert gate.available == gate.capacity
        assert set(engine.metrics.lifecycle_transitions) <= LEGAL_KEYS
