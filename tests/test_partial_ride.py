"""Barrier partials ride the closing weight report (docs/SIMULATION.md,
"Progress tracker").

In the default progress mode a partition's barrier partial travels on the
weight report its worker flushes anyway, and when the ledger closes the
coordinator already holds every final partial: no gather. Pinned here:

(a) **pull equivalence** — at every ledger close the combined partials
    equal what ``gather_partials`` reads at that instant, in pids, values
    and sizes (``watch_closes``; the shipped values are snapshotted at the
    flush, so a write after a partition's last ship cannot hide);
(b) **reordering** — a stale ship arriving after a newer one is ignored;
(c) **every stage rides** — an absorbed child keeps its weight share,
    which the absorbing step finishes, so a partition's last partial
    write is always followed by a weight report (the k-hop branch
    absorbs its count beside the loop child and still rides); only the
    two non-coalescing progress modes gather;
(d) **ship accounting** — one ship per changed partial per idle flush, the
    fold keeps every input's, splices leave nothing behind.
"""

import copy
import random

import pytest

from repro.core.machine import PSTMMachine
from repro.core.progress import ProgressMode
from repro.core.steps import FilterOp, MinDistBranchOp
from repro.core.subquery import GatheredPartial, gather_partials
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import (
    AsyncPSTMEngine, EngineConfig, IO_SYNC, IO_TLC, IO_TLC_NLC,
)
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message, Network
from repro.runtime.trace import PARTIAL_SHIP, STAGE_CLOSE, WeightLedgerAuditor
from tests.conftest import KERNELS, make_graph
from tests.test_query_homing import two_stage_plan

NODES, WPN = 4, 2


def watch_closes(engine):
    """Shim the ledger close and the ship: every shipped value is copied
    as it leaves (so the coordinator holds what the partition had *then*),
    and at every close whose partials rode, the held partials must equal
    what a pull reads now. Returns the ``(query_id, stage, n_partials)``
    list of the closes it checked."""
    delivery = engine.delivery
    closes = []
    for worker in engine.workers:
        def ship(query_id, stage, version, real=worker._partial_to_ship):
            shipped = real(query_id, stage, version)
            if shipped is None:
                return None
            pid, version, value, size = shipped
            return pid, version, copy.deepcopy(value), size
        worker._partial_to_ship = ship
    real_close = engine.progress._on_complete

    def stage_terminated(query_id, stage):
        session = engine.sessions.get(query_id)
        if (session is not None and session.cursor.current == stage
                and engine.config.progress_mode.coalesced):
            pulled = gather_partials(
                session.plan, stage, query_id,
                engine.memo_stores)
            held = [GatheredPartial(pid, value, size) for pid, (_v, value, size)
                    in sorted(session.partials.items())]
            assert held == pulled, (query_id, stage, held, pulled)
            closes.append((query_id, stage, len(held)))
        real_close(query_id, stage)

    engine.progress._on_complete = stage_terminated
    return closes


def count_ships(engine):
    """Ships sent (riding weight reports) and partials combined."""
    shipped = len(engine.trace.by_kind(PARTIAL_SHIP))
    combined = sum(len(ev.data.get("versions", ()))
                   for ev in engine.trace.by_kind(STAGE_CLOSE))
    return shipped, combined


@pytest.fixture(scope="module")
def graph():
    return make_graph(11, partitions=NODES * WPN)


def khop_plans(graph):
    """The k-hop count (its branch absorbs the count inline beside the
    loop child) and the k-hop top-10, each compiled with and without the
    ignored ``fuse`` keyword."""
    count = Traversal("c").v_param("s").khop("e", k=3).count()
    top = (Traversal("t").v_param("s").khop("e", k=3)
           .values("w", "weight").as_("v").select("v", "w")
           .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
           .limit(10))
    return [t.compile(graph, fuse=fuse)
            for t in (count, top) for fuse in (False, True)]


class TestPullEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("io_mode", [IO_SYNC, IO_TLC, IO_TLC_NLC])
    @pytest.mark.parametrize("partitioned", [True, False],
                             ids=["partitioned", "shared"])
    def test_khop_plans_combine_what_a_pull_would_read(
            self, kernel, io_mode, partitioned):
        graph = make_graph(11, partitions=NODES * WPN if partitioned else NODES)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            kernel=kernel, io_mode=io_mode, partitioned_state=partitioned))
        closes = watch_closes(engine)
        plans = khop_plans(graph)
        sessions = [engine.submit(plan, {"s": 7 * i + j}, at=3.0 * (4 * i + j))
                    for i in range(6) for j, plan in enumerate(plans)]
        engine.clock.run_until_idle()
        assert all(s.qmetrics.done for s in sessions)
        # every close rode and was checked
        assert len(closes) == 24
        assert all(n > 0 for _q, _s, n in closes)
        assert engine.metrics.message_count(MsgKind.PARTIAL) == 0

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_closed_loop_ic_mix(self, kernel):
        from repro.ldbc.generator import SNB_TINY, generate_snb
        from repro.ldbc.queries import IC_QUERIES, IS_QUERIES

        dataset = generate_snb(SNB_TINY)
        graph = dataset.partitioned(NODES * WPN)
        queries = ([IC_QUERIES[n] for n in sorted(IC_QUERIES)]
                   + [IS_QUERIES[n] for n in sorted(IS_QUERIES)])
        plans = [q.build().compile(graph) for q in queries]
        engine = AsyncPSTMEngine(graph, NODES, WPN,
                                 config=EngineConfig(kernel=kernel))
        closes = watch_closes(engine)

        def query(i):
            k = i % len(queries)
            return plans[k], queries[k].make_params(
                dataset, random.Random(700 + i))

        total = 4 * len(queries)
        engine.run_closed_loop(query, clients=32, total_queries=total)
        assert len(closes) >= total
        assert engine.metrics.message_count(MsgKind.PARTIAL) == 0


class TestReordering:
    def test_stale_ship_after_a_newer_one_is_ignored(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        session = engine.submit(two_stage_plan(graph), {"s": 0})
        hold = engine.delivery._hold_partials
        hold(session.query_id, 0, ((3, 5, {"new": 1}, 752),))
        hold(session.query_id, 0, ((3, 2, {"old": 1}, 704),))
        hold(session.query_id, 0, ((1, 2, {"other": 1}, 16),))
        hold(session.query_id, 1, ((2, 9, {"wrong stage": 1}, 16),))
        assert session.partials == {3: (5, {"new": 1}, 752),
                                    1: (2, {"other": 1}, 16)}

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delayed_and_duplicated_packets_combine_the_final_partials(
            self, graph, kernel, seed):
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            kernel=kernel, trace=True,
            fault_plan=FaultPlan(seed=seed, delay_rate=0.2, dup_rate=0.1),
        ), seed=seed)
        closes = watch_closes(engine)
        plan = two_stage_plan(graph)
        sessions = [engine.submit(plan, {"s": 7 * i}, at=5.0 * i)
                    for i in range(8)]
        engine.clock.run_until_idle()
        assert all(s.qmetrics.done for s in sessions)
        assert engine.metrics.packets_delayed and engine.metrics.packets_duplicated
        assert len(closes) >= 16
        report = WeightLedgerAuditor(engine.trace.events).audit()
        assert report.ok, report.violations[:3]

    def test_shared_partition_workers_ship_out_of_order(self):
        """Two workers of one shared partition: the one that flushes later
        in host order can be stamped earlier in simulated time, so a lower
        version arrives after a higher one. Highest version wins."""
        graph = make_graph(11, partitions=NODES)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            partitioned_state=False, trace=True))
        closes = watch_closes(engine)
        arrivals = []
        real = engine.delivery._hold_partials

        def hold(query_id, stage, ships):
            arrivals.extend((query_id, stage, s[0], s[1]) for s in ships)
            real(query_id, stage, ships)

        engine.delivery._hold_partials = hold
        plan = two_stage_plan(graph)
        engine.run_closed_loop(lambda i: (plan, {"s": 7 * i % 200}),
                               clients=8, total_queries=32)
        assert closes
        newest = {}
        stale = 0
        for query_id, stage, pid, version in arrivals:
            key = (query_id, stage, pid)
            stale += version < newest.get(key, 0)
            newest[key] = max(version, newest.get(key, 0))
        assert stale > 0  # it happened, and the closes above still held
        assert WeightLedgerAuditor(engine.trace.events).audit().ok


def absorbing_ops(machine):
    """Types of the ops whose steps absorb their stage's barrier input
    inline."""
    writes = machine.inline_links().writes
    return [type(op) for op in machine.plan.ops
            if writes[op.idx] and not op.is_barrier]


class TestEveryStageRides:
    def test_absorbing_partition_flushes_after_its_last_write(self):
        """The example hypothesis found for the prototype of partial
        riding (``test_kernels_bit_identical(seed=3, query_index=3,
        start=0)`` on the fused lowering, start 2 under degree-stratified
        homes): the k-hop branch absorbs the count beside the loop child
        that carries its weight on. The absorbed child's share is
        finished where it was absorbed, so every partition that counted
        flushed weight, its partial rode, and the ledger audits clean."""
        # that suite's graph 3 and query 3, rebuilt here
        graph = make_graph(3, n=40, degree=3, partitions=4)
        plan = (Traversal("q3").v_param("s").khop("e", k=2).count()
                .compile(graph))
        rows = {}
        for kernel in KERNELS:
            engine = AsyncPSTMEngine(graph, 2, 2, config=EngineConfig(
                kernel=kernel, trace=True))
            machine = PSTMMachine(plan, graph.partitioner)
            assert MinDistBranchOp in absorbing_ops(machine)
            absorbing = set(machine.partial_writers(0)) - {
                op.idx for op in plan.ops if op.is_barrier}
            closes = watch_closes(engine)
            result = engine.run(plan, {"s": 2})
            rows[kernel] = (result.rows, result.latency_us)
            assert len(closes) == 1  # the stage rode
            assert engine.metrics.message_count(MsgKind.PARTIAL) == 0
            # 2 x 2 partitioned workers: wid == pid
            flushed = {ev.data["wid"]
                       for ev in engine.trace.by_kind("weight_flush")}
            counted = {ev.data["pid"] for ev in engine.trace.by_kind("exec")
                       if ev.data["op_idx"] in absorbing}
            assert counted and counted <= flushed, (counted, flushed)
            shipped = {ev.data["pid"] for ev in engine.trace.by_kind(
                PARTIAL_SHIP)}
            assert counted <= shipped
            report = WeightLedgerAuditor(engine.trace.events).audit()
            assert report.ok, report.violations[:3]
        assert rows["run"] == rows["scalar"]

    def test_only_the_non_coalescing_modes_gather(self, graph):
        """Whatever absorbs the count — the k-hop branch beside its loop
        child, a filter whose only child is the count, or nothing (a
        count routed to one partition) — the default mode rides and the
        two eager modes gather."""
        count = (Traversal("c").v_param("s").khop("e", k=3).count()
                 .compile(graph))
        # a vertex-routed filter whose only child the count absorbs
        lone = (Traversal("f").v_param("s").out("e")
                .filter_(X.prop("weight").gt(5)).count().compile(graph))
        assert MinDistBranchOp in absorbing_ops(
            PSTMMachine(count, graph.partitioner))
        assert absorbing_ops(PSTMMachine(lone, graph.partitioner)) == [
            FilterOp]
        # a count routed to one partition is dispatched: nothing absorbs
        assert absorbing_ops(PSTMMachine(count, graph.partitioner,
                                         barrier_route=0)) == []
        for mode in (ProgressMode.WEIGHTED_IMMEDIATE,
                     ProgressMode.NAIVE_CENTRAL):
            for plan in (count, lone):
                engine = AsyncPSTMEngine(
                    graph, NODES, WPN, config=EngineConfig(progress_mode=mode))
                engine.run(plan, {"s": 3})
                assert engine.metrics.message_count(MsgKind.PARTIAL) > 0
        for config in (EngineConfig(), EngineConfig(centralized_agg=True)):
            engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
            for plan in (count, lone):
                engine.run(plan, {"s": 3})
            assert engine.metrics.message_count(MsgKind.PARTIAL) == 0


class TestShipAccounting:
    def test_second_idle_flush_supersedes_and_unchanged_is_not_reshipped(
            self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN,
                                 config=EngineConfig(trace=True))
        closes = watch_closes(engine)
        # the dispatched filter's dropped children finish weight without
        # touching the count partial, which the last Expand absorbs
        plan = (Traversal("f").v_param("s").out("e")
                .filter_(X.prop("weight").gt(25)).out("e").out("e").count()
                .compile(graph))
        engine.run_closed_loop(lambda i: (plan, {"s": 7 * i % 200}),
                               clients=4, total_queries=16)
        ships = engine.trace.by_kind(PARTIAL_SHIP)
        per_partition = {}
        for ev in ships:
            key = (ev.query_id, ev.data["stage"], ev.data["pid"])
            per_partition.setdefault(key, []).append(ev.data["version"])
        # a partition that went idle twice shipped twice, versions rising
        assert any(len(v) > 1 for v in per_partition.values())
        assert all(v == sorted(set(v)) for v in per_partition.values())
        # ... and only when its partial had changed: fewer ships than the
        # idle flushes of the workers that absorbed into a barrier
        flushes = len(engine.trace.by_kind("weight_flush"))
        shipped, combined = count_ships(engine)
        assert combined == sum(n for _q, _s, n in closes)
        assert combined <= shipped < flushes
        # the coordinator combined each partition's last version
        for ev in engine.trace.by_kind(STAGE_CLOSE):
            for pid, version in ev.data.get("versions", ()):
                key = (ev.query_id, ev.data["stage"], pid)
                assert per_partition[key][-1] == version

    def test_fold_keeps_both_partitions_partials(self):
        net = Network.__new__(Network)
        net.metrics = type("M", (), {"progress_reports_coalesced": 0})()
        net.trace = None
        a = Message(MsgKind.PROGRESS, TRACKER_DST,
                    ("weight", 7, 0, 10, ((2, 4, "a", 48),)), 16 + 48, 7)
        b = Message(MsgKind.PROGRESS, TRACKER_DST,
                    ("weight", 7, 0, 5, ((3, 1, "b", 24),)), 16 + 24, 7)
        c = Message(MsgKind.PROGRESS, TRACKER_DST, ("weight", 7, 0, 1), 16, 7)
        other = Message(MsgKind.PROGRESS, TRACKER_DST, ("weight", 8, 0, 9), 16, 8)
        out, total = net._fold_weight_reports(
            0, [a, other, b, c], sum(m.size_bytes for m in (a, other, b, c)))
        assert [m.query_id for m in out] == [7, 8]
        folded = out[0]
        assert folded.payload == ("weight", 7, 0, 16,
                                  ((2, 4, "a", 48), (3, 1, "b", 24)))
        # two 16-byte reports given back; both partials' bytes kept
        assert folded.size_bytes == 16 + 48 + 24
        assert total == folded.size_bytes + 16
        assert net.metrics.progress_reports_coalesced == 2

    @pytest.mark.parametrize("scenario", ["cancel", "crash", "pause"])
    def test_splices_leave_no_shipped_partial(self, graph, scenario):
        cfg = {"trace": True, "checkpoint_interval_us": 0.0}
        if scenario == "crash":
            cfg["fault_plan"] = FaultPlan(worker_faults=(
                WorkerFault(wid=1, at_us=150.0, down_us=30.0),))
        engine = AsyncPSTMEngine(graph, NODES, WPN,
                                 config=EngineConfig(**cfg), seed=3)
        plan = two_stage_plan(graph)
        sessions = [engine.submit(plan, {"s": 7 * i}, at=10.0 * i)
                    for i in range(6)]
        spliced = []

        def splice(session, act):
            # mid-stage, after the first ships arrived
            if session.partials:
                spliced.append(session)
            act(session)

        for i, session in enumerate(sessions):
            if scenario == "cancel":
                engine.clock.schedule_at(
                    10.0 * i + 30.0,
                    lambda s=session: splice(s, engine.cancel))
            elif scenario == "pause":
                engine.clock.schedule_at(
                    10.0 * i + 30.0,
                    lambda s=session: splice(s, engine.preempt))
                engine.clock.schedule_at(
                    2000.0, lambda s=session: engine.resume(s))
        engine.clock.run_until_idle()
        if scenario == "crash":
            assert engine.metrics.checkpoint_restores > 0
        else:
            assert spliced
        assert all(s.partials == {} for s in sessions)
        assert all(not r.partial_versions and not r.partial_shipped
                   for r in engine.runtimes)
        assert WeightLedgerAuditor(engine.trace.events).audit().ok
