"""Fault injection & recovery: the chaos suite (docs/FAULTS.md).

Three layers of guarantees are pinned here:

1. **equivalence** — with no :class:`FaultPlan` configured (and even with an
   armed all-zero plan) the engine's simulated output is bit-for-bit
   identical to the fault-free engine: same rows, same latency, same packet
   counts;
2. **masking** — injected drops, duplicates, delays and recoverable worker
   crashes never change query *answers*; the ack/retransmit layer and the
   crash-retry path only cost simulated time;
3. **bounded recovery** — a query whose data is permanently unreachable
   fails loudly with :class:`RetryBudgetExceededError`, never silently.

All chaos runs are seeded and therefore exactly reproducible; the seeds
used below were chosen so every scenario actually injects faults.
"""

import random

import pytest

from repro.errors import ConfigurationError, RetryBudgetExceededError
from repro.core.progress import ProgressMode
from repro.query.traversal import Traversal
from repro.runtime import faults
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import (
    CRASH,
    STALL,
    FaultInjector,
    FaultPlan,
    WorkerFault,
)
from repro.runtime.lifecycle import QueryState
from repro.runtime.metrics import MsgKind
from tests.conftest import KERNELS, khop3_count, make_graph, run_batch, run_one

NODES, WPN = 2, 2


# -- plan validation --------------------------------------------------------


class TestValidation:
    def test_rates_must_be_probabilities(self):
        for field in ("drop_rate", "dup_rate", "delay_rate", "ack_drop_rate"):
            with pytest.raises(ConfigurationError):
                FaultPlan(**{field: 1.0})
            with pytest.raises(ConfigurationError):
                FaultPlan(**{field: -0.1})

    def test_worker_fault_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerFault(wid=0, at_us=-1.0)
        with pytest.raises(ConfigurationError):
            WorkerFault(wid=0, at_us=0.0, kind="explode")
        with pytest.raises(ConfigurationError):
            WorkerFault(wid=0, at_us=0.0, down_us=0.0)

    def test_worker_fault_wid_checked_against_cluster(self):
        graph = make_graph(1, n=40, degree=3)
        plan = FaultPlan(worker_faults=(WorkerFault(wid=99, at_us=10.0),))
        with pytest.raises(ConfigurationError):
            AsyncPSTMEngine(graph, NODES, WPN,
                            config=EngineConfig(fault_plan=plan))

    def test_naive_progress_mode_rejects_faults(self):
        # Dropped messages corrupt the naive central counter irreparably:
        # there is no ledger invariant to detect the loss. Forbidden.
        with pytest.raises(ConfigurationError):
            EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL,
                         fault_plan=FaultPlan(drop_rate=0.01))

    def test_injector_is_deterministic(self):
        plan = FaultPlan(seed=5, drop_rate=0.3, dup_rate=0.3, delay_rate=0.3)
        a, b = FaultInjector(plan), FaultInjector(plan)
        fates_a = [a.packet_fate() for _ in range(200)]
        fates_b = [b.packet_fate() for _ in range(200)]
        assert fates_a == fates_b
        assert a.counts == b.counts
        assert a.total_injected > 0


# -- equivalence: the fault machinery must be invisible when disarmed -------


class TestFaultFreeEquivalence:
    def _signature(self, engine, result):
        m = engine.metrics
        return (result.rows, result.latency_us, m.packets_sent, m.bytes_sent,
                m.steps_executed, m.flushes, dict(m.messages))

    def test_no_plan_runs_are_bit_identical(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        sig_a = self._signature(*run_one(graph, plan, {"s": 5}))
        sig_b = self._signature(*run_one(graph, plan, {"s": 5}))
        assert sig_a == sig_b

    def test_armed_zero_rate_plan_is_bit_identical_to_no_plan(self):
        """An armed FaultPlan that never fires (all rates 0, no worker
        faults) must not perturb the simulation: acks ride the wire for
        free and the retransmit timeout strictly exceeds the ack round
        trip, so no timer ever fires spuriously."""
        graph = make_graph(3)
        plan = khop3_count(graph)
        baseline = self._signature(*run_one(graph, plan, {"s": 5}))
        for seed in (0, 1, 2):
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed))
            engine, result = run_one(graph, plan, {"s": 5}, cfg)
            assert self._signature(engine, result) == baseline
            assert engine.metrics.retransmits == 0
            assert engine.metrics.acks_sent > 0  # protocol ran, invisibly
            assert not result.degraded

    def test_chaos_runs_are_reproducible(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        cfg = EngineConfig(fault_plan=FaultPlan(seed=1, drop_rate=0.05,
                                                dup_rate=0.05))
        sig_a = self._signature(*run_one(graph, plan, {"s": 5}, cfg))
        sig_b = self._signature(*run_one(graph, plan, {"s": 5}, cfg))
        assert sig_a == sig_b


# -- message-loss masking ---------------------------------------------------


class TestDropRecovery:
    # Seeds chosen so a 1% drop rate hits the ~170 packets of this batch.
    DROP_SEEDS = (1, 4, 5)
    STARTS = [{"s": s} for s in range(0, 48, 2)]

    def test_khop_batch_survives_one_percent_drops(self):
        graph = make_graph(3, partitions=8)
        plan = khop3_count(graph)
        base_engine, base = run_batch(graph, plan, self.STARTS,
                                      nodes=4, wpn=2)
        expected = [s.results for s in base]
        for seed in self.DROP_SEEDS:
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed, drop_rate=0.01))
            engine, sessions = run_batch(graph, plan, self.STARTS, cfg,
                                         nodes=4, wpn=2)
            assert [s.results for s in sessions] == expected, seed
            assert engine.metrics.retransmits > 0, seed
            assert engine.metrics.packets_dropped > 0, seed
            assert engine.network.unacked_packets == 0, seed
            # The retransmits are attributed to the queries that lost data.
            assert sum(s.qmetrics.retransmits for s in sessions) > 0, seed
            assert sum(s.qmetrics.faults_injected for s in sessions) > 0, seed

    def test_heavy_drops_still_mask(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        for seed in (1, 2, 3):
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed, drop_rate=0.25,
                                                    ack_drop_rate=0.25))
            engine, result = run_one(graph, plan, {"s": 5}, cfg)
            assert result.rows == base.rows
            assert engine.network.unacked_packets == 0

    def test_duplicates_and_delays_mask(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        cfg = EngineConfig(fault_plan=FaultPlan(
            seed=7, dup_rate=0.2, delay_rate=0.2, delay_us=300.0,
            ack_drop_rate=0.1))
        engine, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.rows == base.rows
        assert engine.metrics.duplicates_suppressed > 0
        assert engine.metrics.packets_delayed > 0

    def test_folded_reports_close_every_ledger_under_drops_and_dups(self):
        from repro.runtime.trace import WeightLedgerAuditor

        graph = make_graph(3, partitions=8)
        plan = khop3_count(graph)
        _, base = run_batch(graph, plan, self.STARTS, nodes=4, wpn=2)
        cfg = EngineConfig(trace=True, fault_plan=FaultPlan(
            seed=4, drop_rate=0.05, dup_rate=0.05, ack_drop_rate=0.05))
        engine, sessions = run_batch(graph, plan, self.STARTS, cfg,
                                     nodes=4, wpn=2)
        assert [s.results for s in sessions] == [s.results for s in base]
        m = engine.metrics
        assert m.progress_reports_coalesced > 0
        assert m.retransmits > 0 and m.duplicates_suppressed > 0
        assert engine.progress.open_stage_count == 0
        rep = WeightLedgerAuditor(engine.trace.events).audit()
        assert rep.ok, rep.violations
        assert rep.stages_closed == len(sessions)


# -- LDBC interactive-complex under drops -----------------------------------


@pytest.mark.slow
class TestLDBCUnderFaults:
    # Seeds chosen so a 1% drop rate hits this batch's ~50 packets.
    DROP_SEEDS = (1, 5, 6)

    @pytest.fixture(scope="class")
    def snb(self):
        from repro.ldbc.generator import SNB_TINY, generate_snb
        dataset = generate_snb(SNB_TINY)
        return dataset, dataset.partitioned(NODES * WPN)

    def test_ic9_batch_survives_one_percent_drops(self, snb):
        from repro.ldbc.queries.ic import IC_QUERIES
        dataset, graph = snb
        qdef = IC_QUERIES[9]
        plan = qdef.build().compile(graph)
        params = [qdef.make_params(dataset, random.Random(900 + i))
                  for i in range(16)]
        _, base = run_batch(graph, plan, params)
        expected = [s.results for s in base]
        for seed in self.DROP_SEEDS:
            cfg = EngineConfig(fault_plan=FaultPlan(seed=seed, drop_rate=0.01))
            engine, sessions = run_batch(graph, plan, params, cfg)
            assert [s.results for s in sessions] == expected, seed
            assert engine.metrics.retransmits > 0, seed


# -- worker crash & stall ---------------------------------------------------


class TestWorkerFaults:
    def test_recoverable_crash_forces_retry_and_masks(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        for wid in range(NODES * WPN):
            cfg = EngineConfig(
                fault_plan=FaultPlan(seed=1, worker_faults=(
                    WorkerFault(wid=wid, at_us=30.0, down_us=3000.0),)),
            )
            engine, result = run_one(graph, plan, {"s": 5}, cfg)
            assert result.rows == base.rows, wid
            assert result.metrics.retries >= 1, wid
            assert result.degraded, wid
            assert engine.metrics.worker_crashes == 1, wid
            assert engine.metrics.query_retries >= 1, wid
            # The lost attempt is paid for in simulated latency.
            assert result.latency_us > base.latency_us, wid

    def test_stall_delays_but_needs_no_retry(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=1, at_us=30.0, kind=STALL, down_us=2000.0),)),
        )
        engine, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.rows == base.rows
        assert result.metrics.retries == 0
        assert not result.degraded
        assert engine.metrics.worker_stalls == 1

    def test_crash_after_completion_is_harmless(self):
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        cfg = EngineConfig(fault_plan=FaultPlan(seed=1, worker_faults=(
            WorkerFault(wid=1, at_us=base.latency_us + 1000.0),)))
        _, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.rows == base.rows
        assert result.metrics.retries == 0

    def test_permanent_crash_exhausts_retry_budget(self, monkeypatch):
        monkeypatch.setattr(faults, "RETRY_BUDGET", 2)
        graph = make_graph(3)
        plan = khop3_count(graph)
        home = graph.partition_of(5)  # the start vertex's partition
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=home, at_us=0.0),)),
        )
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=cfg)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            engine.run(plan, {"s": 5})
        assert excinfo.value.retries == 2
        assert engine.metrics.query_retries == 2

    def test_cleanup_after_recovery(self):
        """After a crash-retried query completes, no stray state survives:
        no open sessions, no memos, no queued traversers, no unacked
        packets, no open ledgers."""
        graph = make_graph(3)
        plan = khop3_count(graph)
        cfg = EngineConfig(
            fault_plan=FaultPlan(seed=1, worker_faults=(
                WorkerFault(wid=0, at_us=30.0, down_us=3000.0),)),
        )
        engine, result = run_one(graph, plan, {"s": 5}, cfg)
        assert result.metrics.retries >= 1
        assert not engine.sessions
        assert engine.network.unacked_packets == 0
        for runtime in engine.runtimes:
            assert runtime.memo_store.active_queries() == []
            assert not runtime.queue


# -- residue: every way an attempt ends leaves nothing behind ---------------
#
# Timeline facts for make_graph(3), start vertex 5: khop3_count finishes at
# t ~= 105 us; the two-stage plan closes stage 0 at t ~= 48 us and
# finishes at t ~= 115 us.

CRASH_INSTANTS = (10.0, 25.0, 40.0, 60.0, 80.0)


def two_stage_plan(graph):
    return (Traversal("two_stage").v_param("s").khop("e", k=2).as_("v")
            .group_count("v").out("e").count().compile(graph))


def watch_retirements(engine, plan):
    """Shim ``retire_attempt`` to assert, right after every attempt id is
    retired, that nothing of it is resident anywhere, and ``network.send``
    to assert that no retired id is sent again. Returns the retired ids."""
    retired = set()
    delivery = engine.delivery
    real_retire = delivery.retire_attempt
    real_send = engine.network.send

    def retire(query_id):
        real_retire(query_id)
        retired.add(query_id)
        for worker in engine.workers:
            assert query_id not in worker.resident_queries()
        for runtime in engine.runtimes:
            assert query_id not in runtime.memo_store.active_queries()
            for table in (runtime.stage_counts, runtime.partial_versions,
                          runtime.partial_shipped):
                assert all(key[0] != query_id for key in table)
        for stage in range(plan.num_stages):
            assert engine.progress.ledger(query_id, stage) is None
        assert query_id not in engine.sessions
        assert query_id not in engine._homes
        assert query_id not in delivery.inflight

    def send(src, dst, messages, when):
        for m in messages:
            ids = {m.query_id}
            if m.kind in (MsgKind.TRAVERSER, MsgKind.SEED):
                ids.update(t.query_id for t in m.payload)
            assert not ids & retired, m
        real_send(src, dst, messages, when)

    delivery.retire_attempt = retire
    engine.network.send = send
    return retired


def run_watched(engine, plan, schedule=lambda engine, session: None):
    """Run one query with retirements watched; returns ``(session, first
    attempt id, retired ids)``."""
    retired = watch_retirements(engine, plan)
    session = engine.submit(plan, {"s": 5})
    first_id = session.query_id
    schedule(engine, session)
    engine.clock.run_until_idle()
    return session, first_id, retired


class TestAttemptResidue:
    """Force-retry, restore, pause and cancel all end an attempt through
    ``DeliveryPlane.evict``: right after it, the retired id holds no worker
    state, memo, stage count, partial version, ledger, session, home or
    in-flight count, and no later message carries it."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_force_retry(self, kernel):
        """A crash on each worker at each instant, checkpointing off."""
        graph = make_graph(3)
        plan = khop3_count(graph)
        _, base = run_one(graph, plan, {"s": 5})
        retries = 0
        for wid in range(NODES * WPN):
            for at in CRASH_INSTANTS:
                engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
                    kernel=kernel,
                    fault_plan=FaultPlan(seed=1, worker_faults=(
                        WorkerFault(wid=wid, at_us=at, down_us=3000.0),)),
                ))
                session, first_id, retired = run_watched(engine, plan)
                assert engine.result_of(session).rows == base.rows
                assert first_id in retired
                retries += engine.metrics.query_retries
        # most crash points hit live state and force a retry
        assert retries > NODES * WPN * len(CRASH_INSTANTS) // 2

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_restore(self, kernel):
        """A crash after the stage-0 boundary restores from its checkpoint."""
        graph = make_graph(3)
        plan = two_stage_plan(graph)
        _, base = run_one(graph, plan, {"s": 5})
        for wid in range(NODES * WPN):
            engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
                kernel=kernel, checkpoint_interval_us=0.0,
                fault_plan=FaultPlan(seed=1, worker_faults=(
                    WorkerFault(wid=wid, at_us=80.0, down_us=3000.0),)),
            ))
            session, first_id, retired = run_watched(engine, plan)
            assert engine.result_of(session).rows == base.rows
            assert engine.metrics.checkpoint_restores == 1, wid
            assert first_id in retired

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pause_resume(self, kernel):
        """Preempted mid stage 0, paused at its boundary, resumed later."""
        graph = make_graph(3)
        plan = two_stage_plan(graph)
        _, base = run_one(graph, plan, {"s": 5})
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            kernel=kernel, checkpoint_interval_us=0.0))

        def schedule(engine, session):
            engine.clock.schedule_at(25.0, lambda: engine.preempt(session))
            engine.clock.schedule_at(1000.0, lambda: engine.resume(session))

        session, first_id, retired = run_watched(engine, plan, schedule)
        assert engine.result_of(session).rows == base.rows
        assert engine.metrics.resumes == 1
        assert first_id in retired

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cooperative_cancel(self, kernel):
        """A CANCEL fanned out mid stage 0, torn down once its ledger
        closes."""
        graph = make_graph(3)
        plan = two_stage_plan(graph)
        engine = AsyncPSTMEngine(graph, NODES, WPN,
                                 config=EngineConfig(kernel=kernel))

        def schedule(engine, session):
            engine.clock.schedule_at(25.0, lambda: engine.cancel(session))

        session, first_id, retired = run_watched(engine, plan, schedule)
        assert session.lifecycle.state is QueryState.FAILED
        assert engine.metrics.lifecycle_transitions[
            "running->cancelling"] == 1
        assert first_id in retired
