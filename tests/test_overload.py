"""Tests for overload protection: admission control and cooperative
cancellation with weight reclamation (docs/OVERLOAD.md)."""

import random

import pytest

from repro.errors import (
    AdmissionTimeoutError,
    ConfigurationError,
    QueryCancelledError,
    QueryRejectedError,
    QueryTimeoutError,
)
from repro.core.progress import ProgressMode
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.lifecycle import QueryState
from repro.runtime.trace import CHECKPOINT
from tests.conftest import KERNELS

NODES, WPN = 4, 2  # 8 partitions: cancellation must fan out across >= 4


@pytest.fixture(scope="module")
def graph(soak_graph):
    return soak_graph


def khop_plan(graph, k=4):
    return (
        Traversal("khop").v_param("s").khop("knows", k=k)
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
        .limit(5)
    ).compile(graph)


def count_plan(graph, k=3):
    return (
        Traversal("khopcount").v_param("s").khop("knows", k=k).count()
    ).compile(graph)


def assert_no_residue(engine):
    """Zero residue on every partition: the acceptance invariant."""
    snap = engine.overload_snapshot()
    assert snap["open_stages"] == 0, "leaked stage ledger/counter"
    assert snap["cancelling"] == 0, "cancellation never finalized"
    assert snap["active_sessions"] == 0
    for runtime in engine.runtimes:
        assert runtime.memo_store.active_queries() == []
        assert runtime.stage_counts == {}
        assert list(runtime.queue) == []
        assert list(runtime.inbox) == []


class TestConfigValidation:
    def test_defaults_valid(self):
        EngineConfig()  # no error

    @pytest.mark.parametrize("field", [
        "max_concurrent_queries", "inbox_capacity",
    ])
    def test_optional_limits_require_at_least_one(self, field):
        with pytest.raises(ConfigurationError):
            EngineConfig(**{field: 0})
        EngineConfig(**{field: 1})  # boundary is legal

    def test_admission_queue_size_positive(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(admission_queue_size=0)

    def test_admission_timeout_positive(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(admission_timeout_us=0.0)
        with pytest.raises(ConfigurationError):
            EngineConfig(admission_timeout_us=-5.0)

    def test_admission_timeout_requires_admission_control(self):
        # Only the admission queue reads the timeout: without a slot
        # limit no submission ever waits, so the knob would do nothing.
        with pytest.raises(ConfigurationError, match="max_concurrent_queries"):
            EngineConfig(admission_timeout_us=10.0)
        EngineConfig(admission_timeout_us=10.0, max_concurrent_queries=1)


class TestCooperativeCancellation:
    """The tentpole acceptance: a query cancelled mid-flight across many
    partitions leaves zero residue, and the stage ledger closes by weight
    reclamation alone — the PR-2 watchdog never fires."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_midflight_cancel_leaves_zero_residue(self, graph, kernel):
        # A zero-rate FaultPlan arms the watchdog and reliability layer
        # without injecting anything: if cancellation relied on watchdog
        # recovery, query_retries would be nonzero afterwards.
        config = EngineConfig(
            kernel=kernel,
            fault_plan=FaultPlan(),
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        with pytest.raises(QueryTimeoutError):
            engine.run(khop_plan(graph), {"s": 3}, time_limit_us=30.0)
        assert_no_residue(engine)
        # mid-flight for real: traversers existed and were reclaimed
        assert engine.metrics.traversers_reclaimed > 0
        assert engine.metrics.weight_reclaim_reports > 0
        assert engine.progress.reclaim_reports > 0
        # the watchdog stayed silent
        assert engine.metrics.query_retries == 0
        assert engine.metrics.queries_cancelled == 1

    def test_cancel_spans_multiple_partitions(self, graph):
        """The CANCEL fan-out must reach and purge work on >= 4 partitions."""
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        # Let the query spread before cancelling (k-hop over a random
        # graph touches every partition within a couple of hops).
        session = engine.submit(khop_plan(graph), {"s": 3})
        occupancy = []

        def snapshot_then_cancel():
            occupancy.extend(
                pid for pid, rt in enumerate(engine.runtimes)
                if rt.stage_counts or rt.memo_store.active_queries()
            )
            engine.cancel(session, "caller")

        engine.clock.schedule_at(40.0, snapshot_then_cancel)
        engine.clock.run_until_idle()
        assert len(occupancy) >= 4, f"query only reached {occupancy}"
        assert session.cancelled and session.cancel_reason == "caller"
        with pytest.raises(QueryCancelledError):
            engine.result_of(session)
        assert_no_residue(engine)

    def test_cancel_in_naive_mode_hard_teardown(self, graph):
        """NAIVE_CENTRAL has no ledger to reclaim into: cancellation falls
        back to immediate hard teardown, still with zero residue."""
        config = EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        with pytest.raises(QueryTimeoutError):
            engine.run(khop_plan(graph), {"s": 3}, time_limit_us=30.0)
        assert_no_residue(engine)
        assert engine.progress.reclaim_reports == 0  # nothing to reclaim into

    def test_cancel_finished_query_is_noop(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(count_plan(graph), {"s": 3})
        engine.clock.run_until_idle()
        assert session.qmetrics.done
        assert engine.cancel(session) is False
        assert not session.cancelled

    def test_other_queries_survive_a_neighbors_cancel(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        plan = khop_plan(graph)
        doomed = engine.submit(plan, {"s": 3})
        healthy = engine.submit(plan, {"s": 7})
        engine.clock.schedule_at(40.0, lambda: engine.cancel(doomed))
        engine.clock.run_until_idle()
        assert doomed.cancelled and not healthy.cancelled
        alone = AsyncPSTMEngine(graph, NODES, WPN).run(plan, {"s": 7})
        assert healthy.results == alone.rows
        assert_no_residue(engine)


class TestAdmissionControl:
    def test_excess_submissions_shed_when_queue_full(self, graph):
        config = EngineConfig(max_concurrent_queries=2, admission_queue_size=2)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = count_plan(graph)
        sessions = [engine.submit(plan, {"s": s}) for s in range(10)]
        engine.clock.run_until_idle()
        done = [s for s in sessions if s.qmetrics.done]
        shed = [s for s in sessions if s.rejected]
        assert len(done) == 4 and len(shed) == 6
        assert engine.metrics.queries_rejected == 6
        with pytest.raises(QueryRejectedError):
            engine.result_of(shed[0])
        assert_no_residue(engine)
        assert engine._admission.running == 0

    def test_waiters_dispatch_as_slots_free(self, graph):
        config = EngineConfig(max_concurrent_queries=1, admission_queue_size=8)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = count_plan(graph)
        sessions = [engine.submit(plan, {"s": s}) for s in range(5)]
        engine.clock.run_until_idle()
        assert all(s.qmetrics.done for s in sessions)
        assert engine._admission.peak_waiting == 4
        assert_no_residue(engine)

    def test_priority_orders_the_wait_queue(self, graph):
        config = EngineConfig(max_concurrent_queries=1, admission_queue_size=8)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = count_plan(graph)
        order = []
        engine.submit(plan, {"s": 0},
                      on_done=lambda s: order.append("blocker"))
        for name, prio in [("low", 5), ("high", 0), ("mid", 3)]:
            engine.submit(plan, {"s": 1}, priority=prio,
                          on_done=lambda s, n=name: order.append(n))
        engine.clock.run_until_idle()
        assert order == ["blocker", "high", "mid", "low"]

    def test_admission_timeout_expires_waiters(self, graph):
        config = EngineConfig(
            max_concurrent_queries=1,
            admission_queue_size=8,
            admission_timeout_us=5.0,
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = khop_plan(graph)
        first = engine.submit(plan, {"s": 3})  # holds the only slot a while
        waiter = engine.submit(plan, {"s": 7})
        engine.clock.run_until_idle()
        assert first.qmetrics.done
        assert waiter.admission_timed_out and not waiter.qmetrics.done
        assert engine.metrics.admission_timeouts == 1
        with pytest.raises(AdmissionTimeoutError):
            engine.result_of(waiter)
        assert_no_residue(engine)

    def test_cancel_a_waiting_session_withdraws_it(self, graph):
        config = EngineConfig(max_concurrent_queries=1, admission_queue_size=8)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = count_plan(graph)
        engine.submit(plan, {"s": 0})
        waiter = engine.submit(plan, {"s": 1})
        assert waiter.admission_waiting
        assert engine.cancel(waiter, "changed my mind") is True
        engine.clock.run_until_idle()
        assert waiter.cancelled and not waiter.qmetrics.done
        assert_no_residue(engine)

    def test_deadline_counts_from_dispatch_not_submission(self, graph):
        """Under admission control the execution deadline arms at dispatch:
        a generous limit must not expire merely because the query waited."""
        config = EngineConfig(max_concurrent_queries=1, admission_queue_size=8)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = khop_plan(graph)
        engine.submit(plan, {"s": 3})
        # waits behind the first query far longer than its own limit would
        # allow if it counted from submission
        waiter = engine.submit(plan, {"s": 7}, time_limit_us=1e9)
        engine.clock.run_until_idle()
        assert waiter.qmetrics.done and not waiter.timed_out


class TestAdmissionSlotAccounting:
    """Regression guards for the withdraw/on_closed bookkeeping: every
    exit from the wait queue (dispatch, timeout, cancel, pause re-park)
    must free or skip its slot exactly once and land the session in a
    terminal state — never stuck QUEUED, never double-freed."""

    def test_expired_waiters_are_skipped_not_started(self, graph):
        """A slot freeing after its waiters expired pops the stale heap
        entries and starts none of them; the expired sessions are
        terminal REJECTED and the slot is still usable."""
        config = EngineConfig(
            max_concurrent_queries=1,
            admission_queue_size=8,
            admission_timeout_us=5.0,
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        engine.submit(khop_plan(graph), {"s": 3})  # holds the slot ~170us
        waiters = [engine.submit(count_plan(graph), {"s": s})
                   for s in (1, 2)]
        engine.clock.run_until_idle()
        for waiter in waiters:
            assert waiter.admission_timed_out and not waiter.qmetrics.done
            assert waiter.lifecycle.state is QueryState.REJECTED
        assert engine.metrics.admission_timeouts == 2
        assert engine._admission.running == 0
        assert engine._admission.waiting == 0
        # The slot was freed exactly once and still works.
        late = engine.submit(count_plan(graph), {"s": 3})
        engine.clock.run_until_idle()
        assert late.qmetrics.done
        assert engine._admission.running == 0
        assert_no_residue(engine)

    def test_cancel_then_expiry_withdraws_once(self, graph):
        """A waiter cancelled before its admission deadline stays
        cancelled: the later timer finds it no longer QUEUED and must not
        expire it again (or drive ``waiting`` negative)."""
        config = EngineConfig(
            max_concurrent_queries=1,
            admission_queue_size=8,
            admission_timeout_us=30.0,
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        engine.submit(khop_plan(graph), {"s": 3})
        waiter = engine.submit(count_plan(graph), {"s": 1})
        engine.clock.schedule_at(
            10.0, lambda: engine.cancel(waiter, "changed my mind"))
        engine.clock.run_until_idle()
        assert waiter.cancelled and not waiter.admission_timed_out
        assert waiter.lifecycle.state is QueryState.REJECTED
        assert engine.metrics.admission_timeouts == 0
        assert engine.metrics.queries_cancelled == 1
        assert engine._admission.running == 0
        assert engine._admission.waiting == 0
        assert_no_residue(engine)

    def test_stale_expiry_ignores_a_reparked_paused_session(self, graph):
        """The expiry timer armed when a session first parked must not
        fire on the *re-parked* entry a pause creates later: the session
        is PAUSED (not QUEUED) and resumes normally.

        Timeline (soak graph, one slot), in the run's own units: a short
        blocker holds the slot, so the analytics query parks at t=0 and
        arms its deadline; it dispatches when the blocker finishes and
        checkpoints its two boundaries at b1 and b2 (read off a reference
        run without the preemptor). A higher-priority arrival mid-way
        between them preempts it — it pauses at b2 and re-enters the wait
        queue for as long as the preemptor runs. The deadline is set to
        fire half a preemptor-latency into that paused window, and must
        be a no-op."""
        staged3 = (
            Traversal("staged3").v_param("s").khop("knows", k=2)
            .as_("a").group_count("a").out("knows")
            .as_("b").group_count("b").out("knows").count()
        ).compile(graph)
        short = (Traversal("short").v_param("s").out("knows").count()
                 ).compile(graph)

        def start(admission_timeout_us, trace=False):
            engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
                max_concurrent_queries=1,
                admission_queue_size=8,
                admission_timeout_us=admission_timeout_us,
                checkpoint_interval_us=0.0,
                preemption=True,
                trace=trace,
            ))
            engine.submit(short, {"s": 7})  # blocker: analytics must park
            return engine, engine.submit(staged3, {"s": 3}, priority=1)

        ref, _ = start(None, trace=True)
        ref.clock.run_until_idle()
        b1, b2 = (ev.ts for ev in ref.trace.by_kind(CHECKPOINT))
        solo = AsyncPSTMEngine(graph, NODES, WPN).run(staged3, {"s": 3})
        preemptor_us = AsyncPSTMEngine(graph, NODES, WPN).run(
            khop_plan(graph), {"s": 7}).latency_us

        deadline = b2 + preemptor_us / 2
        engine, analytics = start(deadline)
        engine.submit(khop_plan(graph), {"s": 7}, priority=0,
                      at=(b1 + b2) / 2)
        at_deadline = []
        engine.clock.schedule_at(
            deadline, lambda: at_deadline.append(analytics.lifecycle.state))
        engine.clock.run_until_idle()
        assert at_deadline == [QueryState.PAUSED]
        assert engine.metrics.preemptions == 1
        assert engine.metrics.resumes == 1
        assert analytics.qmetrics.pauses == 1
        assert not analytics.admission_timed_out
        assert engine.metrics.admission_timeouts == 0
        assert engine.result_of(analytics).rows == solo.rows
        assert engine._admission.running == 0
        assert engine._admission.waiting == 0
        assert_no_residue(engine)


class TestInvariantUnderMixedOutcomes:
    """Property-style soak: a seeded mix of completions, timeouts, caller
    cancels, and shed submissions must drain every ledger and balance the
    weight accounting — ``Σ active + finished = 1`` per stage, zero open
    stages at idle."""

    def test_seeded_mix_drains_to_zero(self, graph):
        rng = random.Random(1234)
        config = EngineConfig(
            max_concurrent_queries=4,
            admission_queue_size=6,
            fault_plan=FaultPlan(),  # watchdog armed, zero injected faults
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = khop_plan(graph)
        cheap = count_plan(graph)
        outcomes = {"done": 0, "timeout": 0, "cancel": 0,
                    "shed": 0, "expired": 0}

        def on_done(session):
            if session.rejected:
                outcomes["shed"] += 1
            elif session.admission_timed_out:
                outcomes["expired"] += 1
            elif session.timed_out:
                outcomes["timeout"] += 1
            elif session.cancelled:
                outcomes["cancel"] += 1
            else:
                outcomes["done"] += 1

        total = 30
        for i in range(total):
            at = rng.uniform(0.0, 400.0)
            fate = rng.random()
            if fate < 0.25:  # doomed to time out
                engine.submit(plan, {"s": rng.randrange(400)}, on_done=on_done,
                              at=at, time_limit_us=rng.uniform(10.0, 60.0))
            elif fate < 0.5:  # cancelled by the caller mid-flight
                session = engine.submit(
                    plan, {"s": rng.randrange(400)}, on_done=on_done, at=at
                )
                engine.clock.schedule_at(
                    at + rng.uniform(5.0, 80.0),
                    lambda s=session: engine.cancel(s),
                )
            else:  # allowed to finish
                engine.submit(
                    cheap, {"s": rng.randrange(400)}, on_done=on_done, at=at
                )
        engine.clock.run_until_idle()

        assert sum(outcomes.values()) == total, outcomes
        assert outcomes["done"] > 0  # the mix actually mixed
        assert outcomes["timeout"] + outcomes["cancel"] > 0
        assert_no_residue(engine)
        assert engine._admission.running == 0
        assert engine._admission.waiting == 0
        assert engine.metrics.query_retries == 0  # watchdog never fired
