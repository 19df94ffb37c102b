"""The query-lifecycle state machine (runtime/lifecycle.py).

Two layers of guarantees are pinned here:

1. **table** — the legal-transition table is exactly the diagram in the
   module docstring: every pair of states is probed exhaustively, illegal
   edges raise :class:`LifecycleError`, terminal states have no exits,
   and every state is reachable from QUEUED;
2. **audit** (property-style) — no engine run, including fault and
   overload soaks exercising every outcome the engine can produce, ever
   takes an edge outside the table. The engine counts each taken edge in
   ``RunMetrics.lifecycle_transitions``; after each soak the observed edge
   set must be a subset of the legal one and every session terminal.
"""

import random
from collections import Counter

import pytest

from repro.errors import (
    LifecycleError,
    QueryTimeoutError,
    RetryBudgetExceededError,
)
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import (
    LEGAL_TRANSITIONS,
    TERMINAL_STATES,
    QueryLifecycle,
    QueryResult,
    QueryState,
)
from repro.runtime.metrics import QueryMetrics
from tests.conftest import random_graph

NODES, WPN = 2, 2

ALL_STATES = list(QueryState)
ALL_PAIRS = [(a, b) for a in ALL_STATES for b in ALL_STATES]

#: every edge the engine is allowed to count, in counter-key form
LEGAL_KEYS = {f"{a.value}->{b.value}" for a, b in LEGAL_TRANSITIONS}


# -- the table itself -------------------------------------------------------


class TestTransitionTable:
    @pytest.mark.parametrize(
        "src,dst", ALL_PAIRS,
        ids=[f"{a.value}->{b.value}" for a, b in ALL_PAIRS])
    def test_every_pair_probed(self, src, dst):
        """Exhaustive: each of the |states|^2 pairs either transitions or
        raises, exactly as the table says — including self-loops."""
        lc = QueryLifecycle()
        lc.state = src
        if (src, dst) in LEGAL_TRANSITIONS:
            lc.to(dst, reason="probe")
            assert lc.state is dst
            assert lc.reason == "probe"
        else:
            with pytest.raises(LifecycleError) as exc:
                lc.to(dst)
            assert exc.value.src == src.value
            assert exc.value.dst == dst.value
            assert lc.state is src  # a refused edge changes nothing

    def test_terminal_states_have_no_exits(self):
        for src, _dst in LEGAL_TRANSITIONS:
            assert src not in TERMINAL_STATES
        for state in TERMINAL_STATES:
            assert state.terminal

    def test_every_state_reachable_from_queued(self):
        reached = {QueryState.QUEUED}
        frontier = [QueryState.QUEUED]
        while frontier:
            src = frontier.pop()
            for a, b in LEGAL_TRANSITIONS:
                if a is src and b not in reached:
                    reached.add(b)
                    frontier.append(b)
        assert reached == set(ALL_STATES)

    def test_every_nonterminal_can_reach_a_terminal(self):
        # No state can trap a query: from anywhere there is a path down.
        for start in ALL_STATES:
            reached, frontier = {start}, [start]
            while frontier:
                src = frontier.pop()
                for a, b in LEGAL_TRANSITIONS:
                    if a is src and b not in reached:
                        reached.add(b)
                        frontier.append(b)
            assert reached & TERMINAL_STATES or start in TERMINAL_STATES

    def test_initial_state_is_queued(self):
        lc = QueryLifecycle()
        assert lc.state is QueryState.QUEUED
        assert lc.reason is None
        assert not lc.terminal

    def test_transitions_are_counted(self):
        counts = Counter()
        lc = QueryLifecycle(counts)
        lc.to(QueryState.ADMITTED)
        lc.to(QueryState.RUNNING)
        lc.to(QueryState.DONE)
        assert counts == Counter({
            "queued->admitted": 1,
            "admitted->running": 1,
            "running->done": 1,
        })

    def test_refused_transition_not_counted(self):
        counts = Counter()
        lc = QueryLifecycle(counts)
        with pytest.raises(LifecycleError):
            lc.to(QueryState.DONE)
        assert not counts

    def test_reason_survives_none(self):
        lc = QueryLifecycle()
        lc.to(QueryState.ADMITTED, reason="slot")
        lc.to(QueryState.RUNNING)  # no reason: keeps the previous one
        assert lc.reason == "slot"


class TestQueryResultDerivedFlags:
    def _result(self, state):
        return QueryResult([], 1.0, QueryMetrics(1, "q", 0.0), state=state)

    def test_flags_derive_from_terminal_state(self):
        assert self._result(QueryState.REJECTED).rejected
        assert not self._result(QueryState.DONE).rejected

    def test_contradictory_combinations_unrepresentable(self):
        # One state, one view: ``rejected`` holds for exactly the REJECTED
        # state, so a result can never be both rejected and anything else.
        for state in ALL_STATES:
            r = self._result(state)
            assert r.rejected == (state is QueryState.REJECTED)


# -- property-style audit: no run takes an illegal edge ---------------------


@pytest.fixture(scope="module")
def graph():
    return random_graph(n=200, degree=6, partitions=NODES * WPN, seed=17)


def khop_plan(graph, k=4):
    return (Traversal("khop").v_param("s").khop("knows", k=k).count()
            ).compile(graph)


def audit(engine, sessions=()):
    """The soak invariant: observed edges ⊆ legal edges, all terminal."""
    observed = engine.metrics.lifecycle_transitions
    illegal = set(observed) - LEGAL_KEYS
    assert not illegal, f"illegal lifecycle edges taken: {illegal}"
    assert engine.metrics.snapshot()["lifecycle_transitions"] == (
        sum(observed.values()))
    for session in sessions:
        assert session.lifecycle.terminal, (
            f"query {session.query_id} stranded in "
            f"{session.lifecycle.state.value}")


class TestRunAudits:
    def test_plain_run(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(khop_plan(graph), {"s": 3})
        engine.clock.run_until_idle()
        audit(engine, [session])
        assert session.state is QueryState.DONE
        assert dict(engine.metrics.lifecycle_transitions) == {
            "queued->admitted": 1,
            "admitted->running": 1,
            "running->done": 1,
        }

    def test_timeout_cancel(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        with pytest.raises(QueryTimeoutError):
            engine.run(khop_plan(graph), {"s": 3}, time_limit_us=30.0)
        audit(engine)
        assert engine.metrics.lifecycle_transitions[
            "running->cancelling"] == 1

    def test_caller_cancel_before_deferred_dispatch(self, graph):
        """Cancelling between admission and a deferred seed dispatch takes
        the admitted->failed edge, the one non-RUNNING cancellation."""
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(khop_plan(graph), {"s": 3}, at=100.0)
        engine.clock.schedule_at(10.0, lambda: engine.cancel(session))
        engine.clock.run_until_idle()
        audit(engine, [session])
        assert session.state is QueryState.FAILED
        assert engine.metrics.lifecycle_transitions[
            "admitted->failed"] == 1

    def test_overload_soak(self, graph):
        """Seeded mix of completions, shed submissions, admission expiry,
        timeouts and caller cancels — every outcome the overload layer can
        produce — stays inside the table."""
        rng = random.Random(99)
        config = EngineConfig(
            max_concurrent_queries=2,
            admission_queue_size=3,
            admission_timeout_us=400.0,
            fault_plan=FaultPlan(),  # watchdog armed, nothing injected
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        plan = khop_plan(graph)
        sessions = []
        for i in range(24):
            limit = 40.0 if i % 5 == 0 else None
            s = engine.submit(plan, {"s": rng.randrange(200)},
                              at=float(i) * 15.0, time_limit_us=limit)
            sessions.append(s)
            if i % 7 == 3:
                engine.clock.schedule_at(
                    float(i) * 15.0 + 25.0,
                    lambda s=s: engine.cancel(s, "caller"))
        engine.clock.run_until_idle()
        audit(engine, sessions)
        states = Counter(s.state for s in sessions)
        # the mix actually exercised multiple outcome kinds
        assert states[QueryState.DONE] > 0
        assert states[QueryState.REJECTED] > 0
        assert len(states) >= 3

    def test_fault_soak_recoverable_crash(self, graph):
        config = EngineConfig(
            fault_plan=FaultPlan(seed=1, drop_rate=0.02, worker_faults=(
                WorkerFault(wid=1, at_us=30.0, down_us=3000.0),)),
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        result = engine.run(khop_plan(graph), {"s": 3})
        audit(engine)
        assert result.degraded
        # the retry re-keys the session, it does not restart the machine:
        # exactly one pass through the lifecycle
        assert engine.metrics.lifecycle_transitions["running->done"] == 1

    def test_fault_soak_retry_budget_exhausted(self, graph):
        home = graph.partition_of(3)
        config = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=home, at_us=0.0),)),
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
        with pytest.raises(RetryBudgetExceededError):
            engine.run(khop_plan(graph), {"s": 3})
        audit(engine)
        assert engine.metrics.lifecycle_transitions["running->failed"] == 1
