"""Tests for the baseline engine variants (§V) and the cluster config."""

import hashlib
import json

import pytest

from repro.core.progress import ProgressMode
from repro.errors import ConfigurationError
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.cluster import ClusterConfig, PAPER_CLUSTER, SMALL_CLUSTER
from repro.runtime.costmodel import LEGACY_CORES_8
from repro.runtime.engine import (
    AsyncPSTMEngine, EngineConfig, IO_SYNC, IO_TLC,
)
from repro.runtime.metrics import MsgKind
from repro.runtime.reference import LocalExecutor
from repro.runtime.variants import (
    GRAPHSCOPE_CPU_SCALE,
    SWAP_PENALTY,
    make_banyan,
    make_bsp,
    make_gaia,
    make_graphdance,
    make_graphscope,
    make_non_partitioned,
)
from tests.conftest import khop3_count, make_graph, random_graph


CLUSTER = ClusterConfig(nodes=2, workers_per_node=2)


def build_raw(seed=3):
    import random

    from repro.graph.builder import GraphBuilder

    rng = random.Random(seed)
    b = GraphBuilder("person")
    for v in range(150):
        b.vertex(v, "person", weight=rng.randint(1, 100))
    for v in range(150):
        for _ in range(4):
            u = rng.randrange(150)
            if u != v:
                b.edge(v, u, "knows")
    return b.build()


def khop_plan(graph, k=3):
    return (
        Traversal("khop").v_param("s").khop("knows", k=k)
        .filter_(X.vertex().neq(X.param("s")))
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
        .limit(5)
    ).compile(graph)


class TestClusterConfig:
    def test_paper_cluster_shape(self):
        assert PAPER_CLUSTER.nodes == 8
        assert PAPER_CLUSTER.num_partitions == 8 * 16

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(nodes=1, workers_per_node=9, hardware=LEGACY_CORES_8)

    def test_with_helpers(self):
        c = SMALL_CLUSTER.with_nodes(4).with_workers(2)
        assert c.nodes == 4 and c.workers_per_node == 2
        assert c.hardware == SMALL_CLUSTER.hardware

    def test_partition_helpers(self):
        raw = build_raw()
        assert CLUSTER.partition(raw).num_partitions == 4
        assert CLUSTER.partition_per_node(raw).num_partitions == 2


class TestVariantEquivalence:
    """Every variant executes the same plans and returns the same rows."""

    def test_all_variants_agree(self):
        raw = build_raw()
        reference_graph = CLUSTER.partition(raw)
        plan = khop_plan(reference_graph)
        expected = LocalExecutor(reference_graph).run(plan, {"s": 5})

        engines = [
            make_graphdance(CLUSTER.partition(raw), CLUSTER),
            make_bsp(CLUSTER.partition(raw), CLUSTER),
            make_banyan(CLUSTER.partition(raw), CLUSTER),
            make_gaia(CLUSTER.partition(raw), CLUSTER),
        ]
        for engine in engines:
            assert engine.run(khop_plan(engine.graph), {"s": 5}).rows == expected

        np_graph = CLUSTER.partition_per_node(raw)
        np_engine = make_non_partitioned(np_graph, CLUSTER)
        assert np_engine.run(khop_plan(np_graph), {"s": 5}).rows == expected

        single = PartitionedGraph.from_graph(raw, CLUSTER.workers_per_node)
        gs = make_graphscope(single, CLUSTER, raw.estimated_raw_size())
        assert gs.run(khop_plan(single), {"s": 5}).rows == expected


class TestVariantBehaviors:
    def test_dataflow_variants_pay_query_setup(self):
        raw = build_raw()
        plan_graph = CLUSTER.partition(raw)
        plan = khop_plan(plan_graph)
        gd = make_graphdance(CLUSTER.partition(raw), CLUSTER)
        banyan = make_banyan(CLUSTER.partition(raw), CLUSTER)
        t_gd = gd.run(khop_plan(gd.graph), {"s": 5}).latency_us
        t_banyan = banyan.run(khop_plan(banyan.graph), {"s": 5}).latency_us
        # On a tiny graph, instantiation dominates: Banyan-like is slower.
        assert t_banyan > t_gd

    def test_gaia_routes_barriers_to_partition_zero(self):
        raw = build_raw()
        gaia = make_gaia(CLUSTER.partition(raw), CLUSTER)
        session = gaia.submit(khop_plan(gaia.graph), {"s": 5})
        gaia.clock.run_until_idle()
        assert session.machine.barrier_route == 0
        assert session.results  # completed

    def test_non_partitioned_is_slower_than_partitioned(self):
        raw = build_raw()
        gd = make_graphdance(CLUSTER.partition(raw), CLUSTER)
        np_engine = make_non_partitioned(CLUSTER.partition_per_node(raw), CLUSTER)
        t_gd = gd.run(khop_plan(gd.graph), {"s": 5}).latency_us
        t_np = np_engine.run(khop_plan(np_engine.graph), {"s": 5}).latency_us
        assert t_np > t_gd

    def test_graphscope_fits_flag(self):
        raw = build_raw()
        single = PartitionedGraph.from_graph(raw, CLUSTER.workers_per_node)
        small = make_graphscope(single, CLUSTER, dataset_bytes=10)
        assert small.fits_in_memory
        huge = make_graphscope(
            PartitionedGraph.from_graph(raw, CLUSTER.workers_per_node),
            CLUSTER,
            dataset_bytes=int(CLUSTER.hardware.ram_gb * 1e9 * 2),
        )
        assert not huge.fits_in_memory

    def test_graphscope_swap_penalty_slows_queries(self):
        raw = build_raw()
        plan_single = PartitionedGraph.from_graph(raw, CLUSTER.workers_per_node)
        fits = make_graphscope(plan_single, CLUSTER, dataset_bytes=10)
        swapped = make_graphscope(
            PartitionedGraph.from_graph(raw, CLUSTER.workers_per_node),
            CLUSTER,
            dataset_bytes=int(CLUSTER.hardware.ram_gb * 1e9 * 2),
        )
        t_fit = fits.run(khop_plan(fits.engine.graph), {"s": 5}).latency_us
        t_swap = swapped.run(khop_plan(swapped.engine.graph), {"s": 5}).latency_us
        assert t_swap > 5 * t_fit

    def test_graphscope_has_zero_network_packets(self):
        raw = build_raw()
        single = PartitionedGraph.from_graph(raw, CLUSTER.workers_per_node)
        gs = make_graphscope(single, CLUSTER, raw.estimated_raw_size())
        gs.run(khop_plan(single), {"s": 5})
        assert gs.metrics.packets_sent == 0

    def test_constants_sane(self):
        assert 0 < GRAPHSCOPE_CPU_SCALE < 1
        assert SWAP_PENALTY > 10


def ablation_run(config, gap_us, nodes=2):
    """29 3-hop counts, one every ``gap_us``, on the fault suites' graph;
    returns the engine and a digest of every simulated number of the run
    (rows, latencies, every counter, clock, per-worker busy time)."""
    graph = make_graph(11)
    plan = khop3_count(graph)
    engine = AsyncPSTMEngine(graph, nodes, 4 // nodes, config=config)
    sessions = [engine.submit(plan, {"s": s}, at=gap_us * i)
                for i, s in enumerate(range(0, 200, 7))]
    engine.clock.run_until_idle()
    counters = engine.metrics_snapshot()
    # absent at the commit the digests were taken from; asserted separately
    counters.pop("progress_reports_coalesced")
    # live-migration and resource-budget counters, present (and 0 on every
    # run here) at that commit and deleted with their planes
    counters.update(migrations=0, vertices_migrated=0, migration_bytes=0,
                    traversers_forwarded=0, budget_cancels=0)
    body = {
        "rows": [s.results for s in sessions],
        "latencies": [repr(s.qmetrics.latency_us) for s in sessions],
        "counters": counters,
        "tracker_msgs": engine.tracker.messages_processed,
        "tracker_free_at": repr(engine.tracker.free_at),
        "now": repr(engine.clock.now),
        "events": engine.clock.events_run,
        "busy": [repr(w.busy_total) for w in engine.workers],
    }
    blob = json.dumps(body, sort_keys=True, default=repr).encode()
    return engine, hashlib.sha256(blob).hexdigest()[:16]


def home_everything_on_node_0(monkeypatch):
    monkeypatch.setattr(AsyncPSTMEngine, "home_node",
                        lambda self, query_id: 0)


class TestAblationModesPinned:
    """Each change moved only the modes it meant to, and these digests are
    the proof. The rows homed on node 0 patch ``home_node`` itself, so no
    home rule reaches them; the ``test_hashed_homes_pinned`` rows run the
    engine's own rule. Generations of pins, by the commit each was taken
    at:

    * ``weighted_immediate`` / ``naive_central``, homed on node 0 — PR 19,
      the work-conserving combiner (child of 387955b): a pack leaves when
      the NIC is free instead of after a 4 us timer, so every latency
      under NLC moved. Untouched since: neither mode coalesces, so
      neither has a report for a partial to ride on.
    * ``weighted_immediate`` / ``naive_central`` under the engine's own
      rule — PR 24 commit (1), *start-vertex homing*: an attempt whose
      seeds start on one node is homed there, so all five own-home
      digests moved and no node-0 row did; with the rule patched back to
      the hash of the attempt id the PR 18 / PR 19 digests reproduce bit
      for bit (and the spine's ``sim_digest`` on all five workloads).
    * every coalescing row (``default``, ``io_tlc``, ``io_sync`` under
      either homing, and the one-node cluster) — PR 24 commit (2),
      *partials ride the closing weight report*: the gather and its
      PARTIAL messages are gone (116 tracker messages fewer on each of
      these runs; the lanes' ``busy_us`` totals did not move). The two
      non-coalescing modes above keep their gather and their digests —
      the proof the change is confined. Before it ``io_tlc`` / ``io_sync``
      on node 0 still held their 57399d2 digests (the parent of
      node-level weight coalescing) and the rest their PR 19 / commit (1)
      ones.
    * every row — *degree-stratified vertex placement* (child of
      96efc55): ``PartitionedGraph.from_graph`` homes each vertex by
      Σ(degree + 1) balance instead of the hash, so every traverser's
      route, and with it every number here, moved. With the homes patched
      back to the hash all eleven previous pins (and the spine's
      ``sim_digest`` on all five workloads) reproduce bit for bit.
    * every row — *location-free links inlined* (child of f52106a): the
      plan's ``Project(dist=0)`` runs inside its source's step instead of
      as a dispatched step, so every run drains fewer steps and every
      number here moved. With the inline table forced empty all eleven
      previous pins reproduce bit for bit.
    * ``weighted_immediate`` / ``naive_central`` / ``default`` homed on
      node 0 and ``naive_central`` under the engine's own rule — *the
      network thread pays the send syscall* (child of f792a29): a tier-2
      pack cannot start until the node's network thread is back from the
      previous pack's ``syscall_us`` send, so wherever two packs of a node
      used to leave less than that apart the later one now waits (and
      packs more). The other seven rows never had two packs that close,
      and ``io_tlc`` / ``io_sync`` never enter tier 2: their pins did not
      move, the proof the change is confined to tier 2's pacing.
    * every row — *one inlining rule* (child of f67419b): the k-hop
      branch runs its exit chain (the vertex Dedup, then absorption into
      the count partial) in its own step, so the exit child is never
      dispatched and every number here moved; and because the branch
      absorbs the count beside the loop child that carries its weight
      on, the coalescing rows' stage gathers its partials again (the
      tracker counts above grew by the PARTIAL messages). With only
      location-free links inlined (``_link`` called with ``local``
      forced False) all eleven previous pins reproduce bit for bit.
    * every coalescing row — *every partitionable aggregate absorbed*
      (child of 43599bd): under a coalescing progress mode an absorbed
      child keeps its weight share, which the absorbing step finishes, so
      the k-hop branch now reports the count's share and the partials
      ride again (109-116 tracker messages fewer: no gather). The two
      non-coalescing modes keep their gather and take no share, so all
      four of their pins held — the proof the move is the weight share's
      and is confined to the coalescing modes. ``_link`` patched back to
      absorbing only a local Count restores none of the other seven: the
      share is not a link decision."""

    @pytest.mark.parametrize("config, gap_us, tracker_msgs, digest", [
        (EngineConfig(progress_mode=ProgressMode.WEIGHTED_IMMEDIATE), 3.0,
         12476, "9c34112828c2bafa"),
        # one at a time, as at 57399d2: concurrent naive-central queries
        # did not all finish then (TestNaiveCentralConcurrent)
        (EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL), 5000.0,
         16039, "d0fe5430d5a1cd7f"),
        (EngineConfig(io_mode=IO_TLC), 3.0, 285, "61968f0019059f5d"),
        (EngineConfig(io_mode=IO_SYNC), 3.0, 133, "759bd45c4c54480d"),
    ], ids=["weighted_immediate", "naive_central", "io_tlc", "io_sync"])
    def test_non_default_modes_bit_identical_to_parent(
            self, monkeypatch, config, gap_us, tracker_msgs, digest):
        home_everything_on_node_0(monkeypatch)
        engine, got = ablation_run(config, gap_us)
        assert engine.metrics.progress_reports_coalesced == 0
        assert engine.tracker.messages_processed == tracker_msgs
        assert got == digest

    def test_default_mode_homed_on_node_0_bit_identical_to_parent(
            self, monkeypatch):
        home_everything_on_node_0(monkeypatch)
        engine, got = ablation_run(EngineConfig(), 3.0)
        assert engine.tracker.messages_processed == 204
        assert got == "b26dcee4927bc439"
        assert engine.tracker.busy_us[1] == 0.0

    def test_one_node_cluster_bit_identical_to_parent(self):
        """One node, one lane, no patch, no NIC: every report crosses
        shared memory unfolded."""
        engine, got = ablation_run(EngineConfig(), 3.0, nodes=1)
        assert engine.metrics.packets_sent == 0
        assert engine.tracker.messages_processed == 184
        assert got == "42a613232f108480"

    @pytest.mark.parametrize("config, gap_us, tracker_msgs, digest", [
        (EngineConfig(), 3.0, 234, "bdece8d15131838c"),
        (EngineConfig(progress_mode=ProgressMode.WEIGHTED_IMMEDIATE), 3.0,
         12476, "930fd284cd48d915"),
        (EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL), 5000.0,
         16039, "8226a3d7bb547543"),
        (EngineConfig(io_mode=IO_TLC), 3.0, 235, "82055bcdc820d9f3"),
        (EngineConfig(io_mode=IO_SYNC), 3.0, 243, "2d6286c938e1c938"),
    ], ids=["default", "weighted_immediate", "naive_central", "io_tlc",
            "io_sync"])
    def test_hashed_homes_pinned(self, config, gap_us, tracker_msgs, digest):
        engine, got = ablation_run(config, gap_us)
        assert engine.tracker.messages_processed == tracker_msgs
        assert got == digest
        assert all(engine.tracker.busy_us)  # both lanes served queries

    def test_default_mode_folds(self):
        """The worker-emitted progress count keeps its meaning: every
        report still counts at ``Network.send``; the fold shows at the
        tracker, and nothing else reaches it — the partials ride those
        reports, so no gather message does. A fold needs NIC contention —
        two workers of one node reporting one (query, stage) while their
        NIC is busy — which the pins' 3 us open loop on 2 x 2 workers
        never has (it folds nothing) and a 16-client closed loop on 2 x 4
        does. The plan is a 3-hop count whose Dedup absorbs the count
        (every coalesced stage's partials ride, docs/SIMULATION.md)."""
        graph = make_graph(11, partitions=8)
        plan = (Traversal("hop3_count").v_param("s").out("e").out("e")
                .out("e").dedup().count().compile(graph))
        engine = AsyncPSTMEngine(graph, 2, 4, config=EngineConfig())
        engine.run_closed_loop(lambda i: (plan, {"s": 7 * i % 200}),
                               clients=16, total_queries=64)
        metrics = engine.metrics
        folded = metrics.progress_reports_coalesced
        assert folded > 0
        assert metrics.message_count(MsgKind.PARTIAL) == 0
        assert engine.tracker.messages_processed == (
            metrics.progress_messages - folded)


class TestNaiveCentralConcurrent:
    """The naive detector's in-flight count settles per traverser: tier-1
    packs mix queries but are stamped with their first traverser's, so a
    per-pack decrement left every other query of a pack in flight forever
    (12 of these 29 finished at a 3 us gap, 15 at 50 us)."""

    @pytest.mark.parametrize("kernel", ["run", "scalar"])
    @pytest.mark.parametrize("gap_us", [3.0, 50.0])
    def test_concurrent_queries_all_finish_with_default_rows(
            self, kernel, gap_us):
        naive, _ = ablation_run(EngineConfig(
            progress_mode=ProgressMode.NAIVE_CENTRAL, kernel=kernel), gap_us)
        default, _ = ablation_run(EngineConfig(kernel=kernel), gap_us)
        assert len(naive.completed) == 29
        assert all(s.qmetrics.done for s in naive.completed.values())
        assert ({q: s.results for q, s in naive.completed.items()}
                == {q: s.results for q, s in default.completed.items()})
        assert naive.delivery.inflight == {}
