"""Attempt-scoped query state: a closed query keeps only its outcome.

Every terminal path — finish, cooperative-cancel finalize, retry-budget
failure, admission reject and expiry, and cancel while paused — ends in
``AsyncPSTMEngine._retire``, which closes the session
(:meth:`~repro.runtime.lifecycle.QuerySession.close`): its partition
contexts, RNG and snapshot pin go, and ``MemoStore.clear_query`` has
already emptied each memo in place. Pinned here:

* after each terminal path, on both kernels, every ``QueryMemo`` and
  ``StepContext`` the run created is unreachable while the caller still
  holds every session;
* a closed session refuses new contexts and its snapshot pin is gone;
* the bytes a finished session leaves behind stay flat over a soak;
* the transaction plane drops stale snapshot views without ever
  rebuilding one (docs/TRANSACTIONS.md).
"""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
import weakref

import pytest

from repro.core.memo import MemoStore, QueryMemo
from repro.core.steps import StepContext
from repro.errors import ExecutionError
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.updates import UP_QUERIES, UpdateContext
from repro.query.traversal import Traversal
from repro.runtime import faults
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import (
    REASON_ADMISSION_TIMEOUT,
    REASON_QUEUE_FULL,
    REASON_RETRY_BUDGET,
    QueryState,
)
from repro.runtime.txnplane import TxnPlane
from repro.txn.view import SnapshotStore
from tests.conftest import (
    KERNELS, khop3_count, make_graph, stage_windows, within,
)

NODES, WPN = 2, 2

#: tracemalloc bytes one finished 3-hop count session leaves allocated
#: (its outcome plus the engine's per-query bookkeeping) in the soak
#: below, measured on CPython 3.11 (1 642-1 644); the guard allows 15 %
#: on top, on that interpreter only — object layouts differ across minor
#: versions. Before sessions were closed it was 9 960.
RETAINED_PER_SESSION = 1_650
RETAINED_GUARD = RETAINED_PER_SESSION * 1.15
MEASURED_ON = (3, 11)


@pytest.fixture(scope="module")
def graph():
    return make_graph(3)


def two_stage_plan(graph):
    return (Traversal("two_stage").v_param("s").khop("e", k=2).as_("v")
            .group_count("v").out("e").count().compile(graph))


def engine_for(graph, kernel, **cfg):
    return AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
        kernel=kernel, transactions=True, **cfg))


def mid_stage0(graph, plan):
    """Halfway through ``plan``'s stage 0, from a dry run."""
    windows = stage_windows(engine_for(graph, "run", trace=True),
                            lambda engine: engine.submit(plan, {"s": 5}))
    return within(windows[0], 0.5)


# -- the terminal paths -------------------------------------------------------
#
# Each submits and schedules, then returns (engine, [(session, expected
# state, expected reason)], the lifecycle edge that proves the path was
# taken); the caller drains the clock. A path that needs a module constant
# narrowed (the retry budget) sets it through the caller's monkeypatch.


def finish(graph, kernel, monkeypatch):
    engine = engine_for(graph, kernel)
    session = engine.submit(two_stage_plan(graph), {"s": 5})
    return engine, [(session, QueryState.DONE, None)], "running->done"


def cancel_finalize(graph, kernel, monkeypatch):
    plan = two_stage_plan(graph)
    at = mid_stage0(graph, plan)
    engine = engine_for(graph, kernel)
    session = engine.submit(plan, {"s": 5})
    engine.clock.schedule_at(at, lambda: engine.cancel(session))
    return (engine, [(session, QueryState.FAILED, "caller")],
            "cancelling->failed")


def retry_budget(graph, kernel, monkeypatch):
    monkeypatch.setattr(faults, "RETRY_BUDGET", 0)
    plan = khop3_count(graph)
    crash = WorkerFault(wid=0, at_us=mid_stage0(graph, plan), down_us=3000.0)
    engine = engine_for(graph, kernel, fault_plan=FaultPlan(
        seed=1, worker_faults=(crash,)))
    session = engine.submit(plan, {"s": 5})
    return (engine, [(session, QueryState.FAILED, REASON_RETRY_BUDGET)],
            "running->failed")


def admission(graph, kernel, monkeypatch):
    engine = engine_for(graph, kernel, max_concurrent_queries=1,
                        admission_queue_size=1, admission_timeout_us=5.0)
    plan = two_stage_plan(graph)
    running, expired, shed = (engine.submit(plan, {"s": s}) for s in (5, 6, 7))
    expected = [(running, QueryState.DONE, None),
                (expired, QueryState.REJECTED, REASON_ADMISSION_TIMEOUT),
                (shed, QueryState.REJECTED, REASON_QUEUE_FULL)]
    return engine, expected, "queued->rejected"


def cancel_paused(graph, kernel, monkeypatch):
    plan = two_stage_plan(graph)
    at = mid_stage0(graph, plan)
    engine = engine_for(graph, kernel, checkpoint_interval_us=0.0)
    session = engine.submit(plan, {"s": 5})
    engine.clock.schedule_at(at, lambda: engine.preempt(session))
    engine.clock.schedule_at(1000.0, lambda: engine.cancel(session, "shed"))
    return (engine, [(session, QueryState.FAILED, "shed")],
            "paused->cancelling")


TERMINAL_PATHS = [finish, cancel_finalize, retry_budget, admission,
                  cancel_paused]


def watch_state(monkeypatch):
    """Weak references to every QueryMemo and StepContext built from now
    on (restored memos included: ``from_snapshot`` constructs too)."""
    refs = []
    for cls in (QueryMemo, StepContext):
        init = cls.__init__

        def tracked(self, *args, _init=init):
            _init(self, *args)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracked)
    return refs


class TestTerminalPathsRelease:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("path", TERMINAL_PATHS,
                             ids=[p.__name__ for p in TERMINAL_PATHS])
    def test_state_unreachable(self, graph, kernel, path, monkeypatch):
        refs = watch_state(monkeypatch)
        engine, expected, edge = path(graph, kernel, monkeypatch)
        engine.clock.run_until_idle()
        assert engine.metrics.lifecycle_transitions[edge] >= 1
        for session, state, reason in expected:
            assert session.lifecycle.state is state
            assert session.lifecycle.reason == reason
            assert engine.completed[session.query_id] is session
        assert refs, "the run built no query state"
        gc.collect()
        alive = [type(r()).__name__ for r in refs if r() is not None]
        assert not alive, f"{len(alive)} of {len(refs)} still reachable"
        assert engine.txnplane._pins == {}

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_closed_session_refuses_contexts(self, graph, kernel):
        engine = engine_for(graph, kernel)
        session = engine.submit(two_stage_plan(graph), {"s": 5})
        engine.clock.run_until_idle()
        assert session.results and session.snapshot_ts is not None
        assert session.rng is None
        with pytest.raises(ExecutionError):
            session.context(0)
        assert engine.txnplane._pins == {}
        session.close()  # idempotent: no second unpin
        assert engine.txnplane._pins == {}

    def test_sessions_share_one_machine_per_plan(self, graph):
        engine = engine_for(graph, "run")
        plan = two_stage_plan(graph)
        a, b = engine.submit(plan, {"s": 5}), engine.submit(plan, {"s": 6})
        other = engine.submit(khop3_count(graph), {"s": 5})
        assert a.machine is b.machine is engine._machines[plan]
        assert other.machine is not a.machine


def test_held_memo_is_emptied_by_clear_query():
    store = MemoStore(0)
    memo = store.for_query(7)
    memo.put("Distance", 1, 2)
    memo.append("Join", 3, "x")
    store.clear_query(7)
    assert memo.labels() == [] and memo.record_count() == 0
    assert store.peek(7) is None


# -- soak -----------------------------------------------------------------------


def test_retained_bytes_per_session_flat():
    """200 sequential 3-hop counts with every session held by the caller:
    the bytes each finished one leaves allocated are the same over the
    first and the second hundred, and within the guard."""
    small = make_graph(3, n=60, degree=3)
    engine = AsyncPSTMEngine(small, NODES, WPN)
    plan = khop3_count(small)
    sessions = []

    def run(n):
        for _ in range(n):
            sessions.append(engine.submit(plan, {"s": len(sessions) % 60}))
            engine.clock.run_until_idle()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        base = run(20)  # warm every lazily built structure
        mid = run(100)
        end = run(100)
    finally:
        tracemalloc.stop()
    first, second = (mid - base) / 100, (end - mid) / 100
    assert all(s.qmetrics.done for s in sessions)
    assert second <= first * 1.15 and first <= second * 1.15, (first, second)
    if sys.version_info[:2] == MEASURED_ON:
        assert max(first, second) <= RETAINED_GUARD, (first, second)


# -- snapshot views -------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    return generate_snb(SNB_TINY)


def mixed_run(dataset, monkeypatch, evict=True):
    """IC reads beside a UP update stream, LCT broadcast lag 40 us.
    Returns (SnapshotStore constructions, events after which more
    timestamps had cached views than live pins plus nodes, views cached
    at the end)."""
    built = [0]
    init = SnapshotStore.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(SnapshotStore, "__init__", counted)
    if not evict:
        monkeypatch.setattr(TxnPlane, "_evict_stale", lambda self: None)
    rng = random.Random(5)
    graph = dataset.partitioned(NODES * WPN)
    engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
        transactions=True, lct_broadcast_lag_us=40.0), seed=3)
    plane = engine.txnplane
    plans = [IC_QUERIES[n].build().compile(graph) for n in (2, 7, 8)]
    for i in range(36):
        qdef = IC_QUERIES[(2, 7, 8)[i % 3]]
        engine.submit(plans[i % 3], qdef.make_params(dataset, rng),
                      at=20.0 + 30.0 * i)
    ctx = UpdateContext(dataset)
    for i in range(36):
        udef = UP_QUERIES[rng.choice(sorted(UP_QUERIES))]
        params = udef.make_params(ctx, rng)
        plane.schedule_update(15.0 + 30.0 * i,
                              lambda m, u=udef, p=params: u.apply(m, p),
                              label=udef.name)
    over = 0
    while engine.clock.step():
        if len(plane._stores) > len(plane._pins) + engine.nodes:
            over += 1
    assert len(engine.completed) == 36 and plane.txm.lct > 0
    views = sum(len(v) for v in plane._stores.values())
    return built[0], over, views


def test_views_evicted_never_rebuilt(dataset, monkeypatch):
    """Cached view timestamps never exceed the live pinned timestamps plus
    the node count, and eviction builds exactly as many views as keeping
    them all does."""
    built, over, views = mixed_run(dataset, monkeypatch)
    assert over == 0
    with monkeypatch.context() as mp:
        kept_built, _over, kept_views = mixed_run(dataset, mp, evict=False)
    assert built == kept_built > 0
    assert views < kept_views
