"""Trace-audited invariant fuzzing: the Theorem-1 weight ledger, re-derived
from the event stream by :class:`WeightLedgerAuditor`, must hold with zero
violations under randomized interleavings of packet faults, worker crashes,
caller cancellations, voluntary preemptions and time limits — on both
kernels (docs/OBSERVABILITY.md).

Unlike test_faults / test_overload, which assert on *results* and residue,
these tests assert on the *ledger at every traced event*: the auditor
replays ``active + finished + reclaimed + lost ≡ 1 (mod 2^64)`` per
(query, stage) and checks each cleanly-closed stage delivered exactly the
root weight to the tracker. Any double-report, lost reclaim, or phantom
weight anywhere in the runtime shows up as a violation here even when the
query still happens to produce the right rows.

The fuzz arms the checkpoint plane and mixes pause/resume ops into the
schedule, so the interleavings include crash-while-pausing,
cancel-while-paused, and double preempt/resume — the preemption splice
(docs/RECOVERY.md) must keep the ledger closed exactly like cancellation
and crash-restore do.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import QueryCancelledError
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.lifecycle import QueryState
from repro.runtime.trace import CRASH_LOSS, WeightLedgerAuditor
from tests.conftest import (
    FAULT_NODES,
    FAULT_WPN,
    KERNELS,
    khop3_count,
    make_graph,
)

#: the acceptance floor: at least 10 distinct seeded interleavings
FUZZ_SEEDS = tuple(range(100, 110))
EXTENDED_SEEDS = tuple(range(110, 125))  # slow-marked deepening of the same


def staged_plan(graph):
    """A three-stage plan (two certified boundaries): the only kind of
    query a preempt can actually pause mid-run."""
    return (
        Traversal("staged").v_param("s").khop("e", k=2)
        .as_("a").group_count("a").out("e")
        .as_("b").group_count("b").out("e").count()
    ).compile(graph)


def fuzz_run(seed: int, kernel: str, queries: int = 10):
    """One randomized fault+cancel+preempt+deadline interleaving, traced.

    The fault plan, the cancel/pause schedule and the per-query deadlines
    are all drawn from ``seed``, so a reported failure replays exactly.
    """
    rng = random.Random(seed)
    graph = make_graph(seed)
    plan = khop3_count(graph)
    staged = staged_plan(graph)
    worker_faults = ()
    if rng.random() < 0.5:  # half the seeds include a recoverable crash
        worker_faults = (WorkerFault(
            wid=rng.randrange(FAULT_NODES * FAULT_WPN),
            at_us=rng.uniform(50.0, 400.0), kind="crash",
            down_us=rng.uniform(200.0, 800.0)),)
    fault_plan = FaultPlan(
        seed=seed,
        drop_rate=rng.uniform(0.0, 0.08),
        dup_rate=rng.uniform(0.0, 0.05),
        delay_rate=rng.uniform(0.0, 0.08),
        ack_drop_rate=rng.uniform(0.0, 0.08),
        worker_faults=worker_faults,
    )
    config = EngineConfig(trace=True, kernel=kernel, fault_plan=fault_plan,
                          checkpoint_interval_us=0.0)
    engine = AsyncPSTMEngine(graph, FAULT_NODES, FAULT_WPN, config=config)

    sessions = []
    for _ in range(queries):
        at = rng.uniform(0.0, 200.0)
        fate = rng.random()
        if fate < 0.2:  # preempted mid-flight, resumed later
            session = engine.submit(staged, {"s": rng.randrange(200)}, at=at)
            t_pause = at + rng.uniform(5.0, 120.0)
            engine.clock.schedule_at(t_pause,
                                     lambda s=session: engine.preempt(s))
            if rng.random() < 0.5:  # double preempt: second must refuse
                engine.clock.schedule_at(t_pause + rng.uniform(1.0, 40.0),
                                         lambda s=session: engine.preempt(s))
            t_resume = t_pause + rng.uniform(150.0, 500.0)
            engine.clock.schedule_at(t_resume,
                                     lambda s=session: engine.resume(s))
            if rng.random() < 0.5:  # double resume: second must refuse
                engine.clock.schedule_at(t_resume + rng.uniform(1.0, 40.0),
                                         lambda s=session: engine.resume(s))
        elif fate < 0.35:  # preempted, then cancelled (often while paused)
            session = engine.submit(staged, {"s": rng.randrange(200)}, at=at)
            t_pause = at + rng.uniform(5.0, 120.0)
            engine.clock.schedule_at(t_pause,
                                     lambda s=session: engine.preempt(s))
            engine.clock.schedule_at(t_pause + rng.uniform(30.0, 300.0),
                                     lambda s=session: engine.cancel(s))
        elif fate < 0.55:  # caller cancel mid-flight
            session = engine.submit(plan, {"s": rng.randrange(200)}, at=at)
            engine.clock.schedule_at(at + rng.uniform(5.0, 120.0),
                                     lambda s=session: engine.cancel(s))
        elif fate < 0.7:  # tight deadline, likely to abort
            session = engine.submit(plan, {"s": rng.randrange(200)}, at=at,
                                    time_limit_us=rng.uniform(20.0, 120.0))
        else:  # allowed to finish
            session = engine.submit(plan, {"s": rng.randrange(200)}, at=at)
        sessions.append(session)
    engine.clock.run_until_idle()
    # A scheduled resume that fired before its pause landed (or a pause
    # delayed past it by a crash) leaves the query evicted at idle; drain
    # those so every fuzzed pause also exercises the resume splice.
    for _ in range(4):
        paused = [s for s in sessions
                  if s.lifecycle.state is QueryState.PAUSED]
        if not paused:
            break
        for session in paused:
            engine.resume(session)
        engine.clock.run_until_idle()
    assert not any(s.lifecycle.state is QueryState.PAUSED for s in sessions)
    return engine


def assert_audit_ok(engine, seed):
    report = WeightLedgerAuditor(engine.trace.events).audit()
    assert report.ok, f"seed {seed}: {report.violations[:5]}"
    assert report.stages_opened > 0, seed
    assert report.stages_closed + report.stages_dropped == \
        report.stages_opened, seed
    return report


class TestFuzzedInterleavings:
    """The acceptance gate: >= 10 seeds x both kernels, zero
    violations — and the checkpoint plane drains (a paused query either
    resumed and retired or was cancelled with its snapshots dropped)."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_ledger_holds_under_fuzzed_faults(self, seed, kernel):
        engine = fuzz_run(seed, kernel)
        assert_audit_ok(engine, seed)
        assert engine.checkpoints.stored == 0, seed

    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", EXTENDED_SEEDS)
    def test_ledger_holds_extended_seeds(self, seed, kernel):
        engine = fuzz_run(seed, kernel, queries=16)
        assert_audit_ok(engine, seed)
        assert engine.checkpoints.stored == 0, seed


class TestCrashAccounting:
    """Seeds with a guaranteed crash: the destroyed weight must be traced
    as CRASH_LOSS (not silently vanish), and the retried query's fresh
    ledger must still close clean."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_loss_events_balance_the_books(self, kernel):
        graph = make_graph(4)
        plan = khop3_count(graph)
        # 60 us: worker 1 holds traversers then under hash and under
        # degree-stratified homes alike (at 40 us it is idle under the latter)
        config = EngineConfig(
            trace=True, kernel=kernel,
            fault_plan=FaultPlan(seed=2, worker_faults=(
                WorkerFault(wid=1, at_us=60.0, kind="crash", down_us=500.0),)))
        engine = AsyncPSTMEngine(graph, FAULT_NODES, FAULT_WPN, config=config)
        sessions = [engine.submit(plan, {"s": v}) for v in range(6)]
        engine.clock.run_until_idle()

        assert engine.metrics.worker_crashes == 1
        losses = engine.trace.by_kind(CRASH_LOSS)
        assert losses, "a mid-flight crash must trace its destroyed weight"
        assert all(e.data["wid"] == 1 for e in losses)
        report = assert_audit_ok(engine, seed=2)
        # Retried queries reopen stage 0 under a fresh query id.
        assert report.stages_dropped > 0
        assert all(s.results is not None for s in sessions)


class TestBudgetsAndLimits:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_caller_cancel_reclaims_every_unit(self, kernel):
        """A caller cancel landing mid-stage (the query finishes at ~94 us
        uncancelled) takes the cooperative path: every queued, buffered
        and in-flight unit is reclaimed and the ledger closes clean."""
        graph = make_graph(6)
        config = EngineConfig(trace=True, kernel=kernel)
        engine = AsyncPSTMEngine(graph, FAULT_NODES, FAULT_WPN, config=config)
        session = engine.submit(khop3_count(graph), {"s": 3})
        engine.clock.schedule_at(40.0, lambda: engine.cancel(session, "caller"))
        engine.clock.run_until_idle()
        with pytest.raises(QueryCancelledError):
            engine.result_of(session)
        transitions = engine.metrics.lifecycle_transitions
        assert transitions["running->cancelling"] == 1
        assert transitions["cancelling->failed"] == 1
        assert engine.metrics.traversers_reclaimed > 0
        assert_audit_ok(engine, seed="cancel")

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_deadline_abort_leaves_no_ledger_residue(self, kernel):
        graph = make_graph(8)
        config = EngineConfig(trace=True, kernel=kernel)
        engine = AsyncPSTMEngine(graph, FAULT_NODES, FAULT_WPN, config=config)
        plan = khop3_count(graph)
        engine.submit(plan, {"s": 1}, time_limit_us=30.0)
        engine.submit(plan, {"s": 2})  # an untouched bystander
        engine.clock.run_until_idle()
        assert engine.metrics.queries_cancelled >= 1
        assert_audit_ok(engine, seed="deadline")


class TestTransactionPlaneAudit:
    """PR10 growth: mixed read/write seeds, and the auditor's snapshot-
    isolation checks — a traversal citing a version newer than its pin,
    a pin beyond the committed LCT prefix, and a non-monotonic commit
    must each be rejected; writers must leave the weight ledger clean."""

    def txn_fuzz_run(self, seed: int, kernel: str, crash: bool = False):
        """A seeded interleaving of queries, write txns, and cancels on
        an engine with the transaction plane armed."""
        rng = random.Random(seed)
        graph = make_graph(seed)
        plan = khop3_count(graph)
        worker_faults = ()
        if crash:
            worker_faults = (WorkerFault(
                wid=rng.randrange(FAULT_NODES * FAULT_WPN),
                at_us=rng.uniform(60.0, 300.0), kind="crash",
                down_us=200.0),)
        config = EngineConfig(
            trace=True, kernel=kernel, transactions=True,
            checkpoint_interval_us=0.0,
            fault_plan=FaultPlan(seed=seed, worker_faults=worker_faults),
            lct_broadcast_lag_us=rng.choice([0.0, 30.0]))
        engine = AsyncPSTMEngine(graph, FAULT_NODES, FAULT_WPN, config=config)
        plane = engine.txnplane
        sessions = []
        for _ in range(8):
            at = rng.uniform(0.0, 400.0)
            session = engine.submit(plan, {"s": rng.randrange(200)}, at=at)
            if rng.random() < 0.25:
                engine.clock.schedule_at(
                    at + rng.uniform(5.0, 80.0),
                    lambda s=session: engine.cancel(s))
            sessions.append(session)
        for j in range(6):
            src, dst = rng.randrange(200), rng.randrange(200)

            def write(m, src=src, dst=dst, j=j):
                txn = m.begin()
                m.add_edge(txn, src, dst, "e", 7000 + j)
                m.commit(txn)
            plane.schedule_update(rng.uniform(20.0, 450.0), write,
                                  label=f"W{j}", service_us=10.0,
                                  home_vid=src)
        engine.clock.run_until_idle()
        return engine

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:5])
    def test_writers_leave_ledger_clean(self, seed, kernel):
        engine = self.txn_fuzz_run(seed, kernel)
        report = assert_audit_ok(engine, seed)
        assert report.txn_commits == engine.metrics.txn_commits > 0

    @pytest.mark.parametrize("seed", FUZZ_SEEDS[:3])
    def test_crash_replays_version_log_and_stays_clean(self, seed):
        engine = self.txn_fuzz_run(seed, "run", crash=True)
        report = assert_audit_ok(engine, seed)
        assert report.version_replays == engine.metrics.txn_replays == 1

    @pytest.mark.slow
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", EXTENDED_SEEDS)
    def test_writers_extended_seeds(self, seed, kernel):
        engine = self.txn_fuzz_run(seed, kernel)
        assert_audit_ok(engine, seed)

    # -- doctored traces the auditor must reject --------------------------

    def _traced_txn_run(self):
        engine = self.txn_fuzz_run(300, "scalar")
        events = list(engine.trace.events)
        report = WeightLedgerAuditor(events).audit()
        assert report.ok
        return events

    def test_exec_citing_version_past_pin_rejected(self):
        from repro.runtime.trace import EXEC, SNAPSHOT_PIN, TraceEvent

        events = self._traced_txn_run()
        pins = {e.query_id: e.data["ts"] for e in events
                if e.kind == SNAPSHOT_PIN}
        idx, victim = next(
            (i, e) for i, e in enumerate(events)
            if e.kind == EXEC and e.query_id in pins)
        doctored = dict(victim.data,
                        version_ts=pins[victim.query_id] + 100)
        events[idx] = TraceEvent(victim.ts, EXEC, victim.query_id, doctored)
        report = WeightLedgerAuditor(events).audit()
        assert not report.ok
        assert any("newer than its" in v for v in report.violations)

    def test_pin_beyond_committed_prefix_rejected(self):
        from repro.runtime.trace import SNAPSHOT_PIN, TraceEvent

        events = self._traced_txn_run()
        idx, victim = next(
            (i, e) for i, e in enumerate(events)
            if e.kind == SNAPSHOT_PIN)
        # The first pin precedes every commit: any positive ts is a cut
        # the commit prefix cannot justify yet.
        events[idx] = TraceEvent(victim.ts, SNAPSHOT_PIN, victim.query_id,
                                 dict(victim.data, ts=victim.data["ts"] + 7))
        report = WeightLedgerAuditor(events).audit()
        assert not report.ok
        assert any("last committed" in v for v in report.violations)

    def test_non_monotonic_commit_rejected(self):
        from repro.runtime.trace import TXN_COMMIT, TraceEvent

        events = self._traced_txn_run()
        last = max(i for i, e in enumerate(events) if e.kind == TXN_COMMIT)
        stale = TraceEvent(events[last].ts + 1.0, TXN_COMMIT, -1,
                           dict(events[last].data, commit_ts=1))
        events.insert(last + 1, stale)
        report = WeightLedgerAuditor(events).audit()
        assert not report.ok
        assert any("monotonic" in v for v in report.violations)


class TestResultCompleteness:
    """Where partials ride weight reports the audit covers the rows too:
    what a ``stage_close`` combined must be every shipping partition's
    highest ``partial_ship`` version, and that version must count every
    traverser the partition executed at a partial-writing op."""

    @pytest.fixture(scope="class")
    def events(self):
        from tests.test_query_homing import two_stage_plan

        graph = make_graph(11, partitions=8)
        plan = two_stage_plan(graph)
        engine = AsyncPSTMEngine(graph, 4, 2, config=EngineConfig(trace=True))
        engine.run_closed_loop(lambda i: (plan, {"s": 7 * i}),
                               clients=4, total_queries=8)
        events = list(engine.trace.events)
        report = WeightLedgerAuditor(events).audit()
        assert report.ok and report.stages_closed == 16
        return events

    @staticmethod
    def last_ship_of_a_reshipping_partition(events):
        """Index of the final ship of a (query, stage, pid) that shipped
        more than once."""
        from repro.runtime.trace import PARTIAL_SHIP

        ships = {}
        for i, e in enumerate(events):
            if e.kind == PARTIAL_SHIP:
                ships.setdefault(
                    (e.query_id, e.data["stage"], e.data["pid"]), []
                ).append(i)
        return next(idxs[-1] for idxs in ships.values() if len(idxs) > 1)

    def test_trace_with_the_last_ship_removed_is_rejected(self, events):
        doctored = list(events)
        del doctored[self.last_ship_of_a_reshipping_partition(events)]
        report = WeightLedgerAuditor(doctored).audit()
        assert not report.ok
        assert any("highest shipped" in v for v in report.violations)

    def test_write_after_the_last_ship_is_rejected(self, events):
        """Replay a partial-writing exec after its partition's last ship:
        the combined version no longer counts every write."""
        from repro.runtime.trace import EXEC, STAGE_CLOSE, TraceEvent

        last = self.last_ship_of_a_reshipping_partition(events)
        ship = events[last]
        close = next(e for e in events[last:] if e.kind == STAGE_CLOSE
                     and e.query_id == ship.query_id
                     and e.data["stage"] == ship.data["stage"])
        write = next(e for e in events if e.kind == EXEC
                     and e.query_id == ship.query_id
                     and e.data["stage"] == ship.data["stage"]
                     and e.data["pid"] == ship.data["pid"]
                     and e.data["op_idx"] in close.data["writers"])
        doctored = list(events)
        # weight-neutral, so only the completeness check can object
        doctored.insert(last + 1, TraceEvent(
            ship.ts, EXEC, write.query_id, dict(write.data, w_in=0, w_fin=0)))
        report = WeightLedgerAuditor(doctored).audit()
        assert not report.ok
        assert any("later than its last ship" in v for v in report.violations)

    def test_jsonl_round_trip_still_audits(self, events):
        import json

        dumped = [json.loads(json.dumps(e.as_dict())) for e in events]
        assert WeightLedgerAuditor(dumped).audit().ok


@pytest.mark.slow
class TestLDBCTraced:
    """IC9 on the tiny SNB dataset: the ledger discipline must hold on a
    real multi-stage benchmark query, faults and all, not just k-hop."""

    NODES, WPN = 4, 2

    @pytest.fixture(scope="class")
    def snb(self):
        from repro.ldbc.generator import SNB_TINY, generate_snb
        dataset = generate_snb(SNB_TINY)
        return dataset, dataset.partitioned(self.NODES * self.WPN)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ic9_traced_audit_clean(self, snb, kernel):
        from repro.ldbc.queries.ic import IC_QUERIES
        dataset, graph = snb
        qdef = IC_QUERIES[9]
        plan = qdef.build().compile(graph)
        params = [qdef.make_params(dataset, random.Random(900 + i))
                  for i in range(8)]
        config = EngineConfig(
            trace=True, kernel=kernel,
            fault_plan=FaultPlan(seed=5, drop_rate=0.01, dup_rate=0.01))
        engine = AsyncPSTMEngine(graph, self.NODES, self.WPN, config=config)
        sessions = [engine.submit(plan, p) for p in params]
        engine.clock.run_until_idle()
        report = assert_audit_ok(engine, seed="ic9")
        assert report.stages_closed > 0
        assert all(s.results is not None for s in sessions)
