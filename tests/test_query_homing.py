"""Query-homed coordinators: one tracker lane per node, each query attempt
coordinated from ``engine.home_node(query_id)`` (docs/SIMULATION.md).

Pinned here:

1. **endpoint consistency** — every tracker-bound message is sent to its
   query's home node and every SEED / CANCEL / PREEMPT fan-out leaves from
   it, in every progress mode, on both kernels, through cancellation,
   preemption and crash + checkpoint restore (a fresh attempt id is homed
   afresh, from the seeds it starts with);
2. **the home rule** — an attempt whose seeds start on one node is homed
   there; broadcast sources, sources on two nodes and restored
   multi-partition frontiers take the hash of the attempt id; the table
   holds live attempts only;
3. **no aliasing** — a periodic stream whose every ``nodes``-th query is
   the heavy one still loads the lanes evenly (``query_id % nodes`` would
   pin every heavy query to one lane);
4. **lane accounting** — ``busy_us`` counts everything a lane serves:
   reports, partial combines and dataflow-instantiation charges.

The "placement and nothing else" digests live beside the ablation pins in
tests/test_variants.py; lane independence in tests/test_worker_internals.py.
"""

from collections import Counter

import pytest

from repro.core.progress import ProgressMode
from repro.graph import placement
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST
from repro.runtime.trace import PARTIAL_SHIP
from tests.conftest import KERNELS, make_graph, stage_windows, within

NODES, WPN = 4, 2
N_QUERIES = 6
#: a cancel this long after submission finds stage 0's ledger still open
#: (its last report lands 55-155 us after submission in either weighted mode)
CANCEL_AFTER_US = 30.0


@pytest.fixture(scope="module")
def graph():
    return make_graph(11, partitions=NODES * WPN)


def two_stage_plan(graph):
    """The whole six-query batch below is quiet by t ~= 1 000 us."""
    return (
        Traversal("two_stage").v_param("s").khop("e", k=2).as_("v")
        .group_count("v").out("e").count().compile(graph)
    )


def submit_batch(engine, plan, gap=10.0):
    """The six staggered queries: one every ``gap`` us from t = 0."""
    return [engine.submit(plan, {"s": 7 * i}, at=gap * i)
            for i in range(N_QUERIES)]


def crash_instant(graph, **cfg):
    """After every stage-0 boundary, while stage 1 still runs: halfway
    through the batch's stage-1 window in a dry run under ``cfg``."""
    engine = AsyncPSTMEngine(graph, NODES, WPN,
                             config=EngineConfig(trace=True, **cfg), seed=3)
    plan = two_stage_plan(graph)
    return within(stage_windows(engine, lambda e: submit_batch(e, plan))[1],
                  0.5)


def check_endpoints(engine):
    """Shim ``network.send`` to assert both ends of every coordinator
    message; returns the per-kind tally of what it checked."""
    seen = Counter()
    real_send = engine.network.send

    def send(src, dst, messages, when):
        for m in messages:
            if m.dst_pid == TRACKER_DST:
                assert dst == engine.home_node(m.query_id), m
                seen[m.kind] += 1
            elif m.kind in (MsgKind.SEED, MsgKind.CONTROL):
                assert src == engine.home_node(m.query_id), m
                seen[m.kind] += 1
        real_send(src, dst, messages, when)

    engine.network.send = send
    return seen


#: naive active counters support neither checkpoints nor fault plans
#: (``EngineConfig`` rejects both), so they get the first two scenarios
SCENARIOS = [
    (mode, scenario)
    for mode in ProgressMode
    for scenario in ("plain", "cancel", "preempt", "crash")
    if mode.is_weighted or scenario in ("plain", "cancel")
]


class TestEndpointConsistency:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "mode, scenario", SCENARIOS,
        ids=[f"{m.value}-{s}" for m, s in SCENARIOS],
    )
    def test_coordinator_messages_use_the_home_node(
            self, graph, mode, scenario, kernel):
        cfg = {"progress_mode": mode, "kernel": kernel}
        if scenario in ("preempt", "crash"):
            cfg["checkpoint_interval_us"] = 0.0
        if scenario == "crash":
            cfg["fault_plan"] = FaultPlan(worker_faults=(
                WorkerFault(wid=1, at_us=crash_instant(graph, **cfg),
                            down_us=30.0),
            ))
        engine = AsyncPSTMEngine(
            graph, NODES, WPN, config=EngineConfig(**cfg), seed=3
        )
        seen = check_endpoints(engine)
        plan = two_stage_plan(graph)
        gap = 10.0
        sessions = submit_batch(engine, plan, gap)
        first_ids = [s.query_id for s in sessions]
        assert len({engine.home_node(q) for q in first_ids}) > 1
        clock = engine.clock
        if scenario == "cancel":
            for i in (0, 2, 5):
                clock.schedule_at(gap * i + CANCEL_AFTER_US,
                                  lambda s=sessions[i]: engine.cancel(s))
        elif scenario == "preempt":
            for i in (1, 3):
                clock.schedule_at(gap * i + 30.0,
                                  lambda s=sessions[i]: engine.preempt(s))
                clock.schedule_at(3000.0,
                                  lambda s=sessions[i]: engine.resume(s))
        clock.run_until_idle()

        assert seen[MsgKind.SEED] and seen[MsgKind.PROGRESS]
        # the default mode's partials ride its weight reports
        assert bool(seen[MsgKind.PARTIAL]) == (not mode.coalesced)
        metrics = engine.metrics
        if scenario == "cancel":
            assert metrics.queries_cancelled == 3
            # cooperative cancels fan a CANCEL out; naive teardown is local
            assert bool(seen[MsgKind.CONTROL]) == mode.is_weighted
        else:
            assert all(s.qmetrics.done for s in sessions)
        if scenario == "preempt":
            assert metrics.resumes == 2 and seen[MsgKind.CONTROL]
        if scenario == "crash":
            assert metrics.checkpoint_restores > 0
        if scenario in ("preempt", "crash"):
            # the spliced attempts ran under fresh ids — and the shim held
            # their messages to the fresh ids' homes
            respliced = [s.query_id for s, q in zip(sessions, first_ids)
                         if s.query_id != q]
            assert respliced and min(respliced) >= N_QUERIES


def record_homes(engine):
    """Shim ``_dispatch_seeds``; returns the list it fills with one
    ``(attempt id, home node, nodes its seeds resolve to)`` per stage
    dispatch."""
    homes = []
    real = engine._dispatch_seeds

    def dispatch(session, seeds, now):
        real(session, seeds, now)
        nodes = {engine.node_of(engine.resolve_target(
            t, session.machine.route(t))) for t in seeds}
        homes.append((session.query_id, engine.home_node(session.query_id),
                      nodes))

    engine._dispatch_seeds = dispatch
    return homes


class TestStartVertexHoming:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("mode", ProgressMode, ids=lambda m: m.value)
    def test_single_source_plan_homes_on_its_start_vertex_node(
            self, graph, mode, kernel):
        engine = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(progress_mode=mode, kernel=kernel), seed=3,
        )
        seen = check_endpoints(engine)
        plan = two_stage_plan(graph)
        starts = [7 * i for i in range(N_QUERIES)]
        sessions = [engine.submit(plan, {"s": s}) for s in starts]
        want = [engine.node_of(graph.partition_of(s)) for s in starts]
        assert len(set(want)) > 1
        # decided at dispatch, before anything ran — and kept for stage 1,
        # whose reseeded frontier spans every node
        assert [engine.home_node(s.query_id) for s in sessions] == want
        engine.clock.run_until_idle()
        assert all(s.qmetrics.done for s in sessions)
        assert seen[MsgKind.SEED] and seen[MsgKind.PROGRESS]
        idle = set(range(NODES)) - set(want)
        assert all(engine.tracker.busy_us[n] == 0.0 for n in idle)
        assert engine._homes == {}

    def test_broadcast_and_two_node_sources_keep_the_hashed_home(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN, seed=3)
        homes = record_homes(engine)
        scan = Traversal("scan").scan("v").out("e").count().compile(graph)
        left = Traversal("l").v_param("a").out("e").as_("x")
        right = Traversal("r").v_param("b").in_("e").as_("y")
        join = Traversal.join("j", left, "x", right, "y").count().compile(graph)
        node_of = lambda v: engine.node_of(graph.partition_of(v))
        a = 0
        far = next(v for v in range(1, 200) if node_of(v) != node_of(a))
        near = next(v for v in range(1, 200) if node_of(v) == node_of(a))
        for _ in range(3):
            engine.submit(scan, {})
            engine.submit(join, {"a": a, "b": far})
        together = engine.submit(join, {"a": a, "b": near})
        engine.clock.run_until_idle()
        for qid, home, nodes in homes:
            if qid == together.query_id:
                assert nodes == {node_of(a)} and home == node_of(a)
            else:
                assert len(nodes) > 1
                assert home == placement.home_node(qid, NODES)

    def test_force_retry_lands_on_the_same_node(self, graph):
        """No checkpoint plane: a crash force-retries from stage 0 under a
        fresh id, whose seeds are the same start vertex."""
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            fault_plan=FaultPlan(worker_faults=(
                WorkerFault(wid=1, at_us=20.0, down_us=30.0),)),
        ), seed=3)
        homes = record_homes(engine)
        plan = two_stage_plan(graph)
        for i in range(N_QUERIES):
            engine.submit(plan, {"s": 7 * i})
        engine.clock.run_until_idle()
        assert engine.metrics.query_retries > 0
        assert engine.metrics.checkpoint_restores == 0
        stage0 = [(q, home, nodes) for q, home, nodes in homes
                  if len(nodes) == 1]
        # every first attempt and every retry starts on its start vertex
        assert len(stage0) == N_QUERIES + engine.metrics.query_retries
        assert all(nodes == {home} for _q, home, nodes in stage0)
        assert engine._homes == {}

    def test_restored_multi_partition_frontier_takes_the_hash(self, graph):
        at = crash_instant(graph, checkpoint_interval_us=0.0)
        engine = AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            checkpoint_interval_us=0.0,
            fault_plan=FaultPlan(worker_faults=(
                WorkerFault(wid=1, at_us=at, down_us=30.0),)),
        ), seed=3)
        homes = record_homes(engine)
        plan = two_stage_plan(graph)
        sessions = submit_batch(engine, plan)
        engine.clock.run_until_idle()
        assert all(s.qmetrics.done for s in sessions)
        assert engine.metrics.checkpoint_restores > 0
        restored = [(q, h, n) for q, h, n in homes if q >= N_QUERIES]
        assert restored
        for qid, home, nodes in restored:
            assert len(nodes) > 1
            assert home == placement.home_node(qid, NODES)
        assert engine.overload_snapshot()["homed_attempts"] == 0

    def test_stream_hammering_one_hub_vertex_is_bound_by_its_partition(self):
        """Every query of the stream is homed on the hub's node. The hub's
        partition — which scans its ~400 edges for each of them — stays
        the bottleneck, not the lane beside it (a stream of point lookups
        on a low-degree vertex is the other way round: docs/SIMULATION.md,
        "Progress tracker")."""
        import random

        from repro.graph.builder import GraphBuilder
        from repro.graph.partition import PartitionedGraph

        rng = random.Random(1)
        b = GraphBuilder("v")
        for v in range(400):
            b.vertex(v, "v", weight=rng.randint(1, 50))
        for v in range(1, 400):
            b.edge(0, v, "e")
        for v in range(400):
            for u in rng.sample(range(400), 3):
                if u != v:
                    b.edge(v, u, "e")
        hub = PartitionedGraph.from_graph(b.build(), NODES * WPN)
        plan = Traversal("hub").v_param("s").out("e").count().compile(hub)
        engine = AsyncPSTMEngine(hub, NODES, WPN)
        engine.run_closed_loop(lambda i: (plan, {"s": 0}),
                               clients=16, total_queries=200)
        pid = hub.partition_of(0)
        lane = engine.node_of(pid)
        busy = engine.tracker.busy_us
        assert [n for n in range(NODES) if busy[n]] == [lane]
        assert busy[lane] < engine.workers[pid].busy_total
        assert engine.workers[pid].busy_total == max(
            w.busy_total for w in engine.workers)

    def test_table_holds_live_attempts_only(self, graph):
        """The home table is bounded by the attempts in flight: it peaks at
        the client count and is empty at idle, after 1 008 queries."""
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        plan = Traversal("p").v_param("s").out("e").count().compile(graph)
        peak = []
        real = engine._dispatch_seeds

        def dispatch(session, seeds, now):
            real(session, seeds, now)
            peak.append(len(engine._homes))

        engine._dispatch_seeds = dispatch
        engine.run_closed_loop(lambda i: (plan, {"s": i % 200}),
                               clients=32, total_queries=1008)
        assert len(engine.completed) == 1008
        assert max(peak) == 32
        assert engine._homes == {}
        snap = engine.overload_snapshot()
        assert snap["homed_attempts"] == 0 and snap["open_stages"] == 0

    def test_unknown_attempt_resolves_to_the_hash(self, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        assert [engine.home_node(q) for q in range(50)] == [
            placement.home_node(q, NODES) for q in range(50)]


class TestNoAliasing:
    def test_periodic_heavy_stream_spreads_over_the_lanes(self):
        """Every ``nodes``-th query is ~8x heavier at the tracker (a 3-hop
        beside 1-hops, one report per finished traverser). Hashed homes
        load the lanes evenly; ``query_id % nodes`` — run as the
        counterfactual — stacks every heavy query on lane 0."""
        nodes = 4
        graph = make_graph(11, degree=4, partitions=nodes)
        light = Traversal("l").v_param("s").out("e").count().compile(graph)
        heavy = (Traversal("h").v_param("s").khop("e", k=3).count()
                 .compile(graph))

        def lane_imbalance(home_node=None):
            engine = AsyncPSTMEngine(
                graph, nodes, 1, config=EngineConfig(
                    progress_mode=ProgressMode.WEIGHTED_IMMEDIATE),
            )
            if home_node is not None:
                engine.home_node = home_node
            engine.run_closed_loop(
                lambda i: (heavy if i % nodes == 0 else light,
                           {"s": i % 200}),
                clients=8, total_queries=224,
            )
            busy = engine.tracker.busy_us
            return max(busy) / (sum(busy) / nodes)

        assert lane_imbalance() < 1.3
        assert lane_imbalance(lambda query_id: query_id % nodes) > 2.0


class TestLaneAccounting:
    def test_busy_us_counts_reports_combines_and_instantiation(self, graph):
        """sum(busy_us) == reports x tracker_msg_us + combined partials x
        (tracker_msg_us + combine_partial_us) + instantiation charges,
        exactly (the default prices are dyadic, so the float sums are
        order-independent). A partial that rode a report costs the lane
        what a gathered one did, charged when the ledger closes; a
        superseded ship costs nothing."""
        engine = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(per_query_instantiation=True, trace=True),
        )
        cost = engine.cost
        plan = two_stage_plan(graph)
        n_queries = 24
        combined = []
        real_complete = engine._complete_stage

        def complete_stage(session, stage):
            combined.append(len(session.partials))
            real_complete(session, stage)

        engine._complete_stage = complete_stage
        engine.run_closed_loop(
            lambda i: (plan, {"s": 7 * i}), clients=4,
            total_queries=n_queries,
        )
        tracker = engine.tracker
        instantiation = (cost.operator_instantiation_us * 0.25
                         * len(engine.workers) * len(plan.ops))
        assert sum(combined) > 0
        assert engine.metrics.message_count(MsgKind.PARTIAL) == 0
        assert sum(tracker.busy_us) == (
            tracker.messages_processed * cost.tracker_msg_us
            + (cost.tracker_msg_us + cost.combine_partial_us) * sum(combined)
            + instantiation * n_queries
        )
        # more partials were shipped than combined: the rest cost no lane time
        assert len(engine.trace.by_kind(PARTIAL_SHIP)) > sum(combined)
        snap = engine.overload_snapshot()
        assert snap["tracker_busy_us"] == tracker.busy_us
        assert snap["tracker_wait_us"] == tracker.wait_us
        # the closed loop keeps several same-lane queries in flight
        assert sum(tracker.wait_us) > 0
        assert sum(1 for b in tracker.busy_us if b) > 1
