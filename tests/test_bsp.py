"""Tests for the BSP engine (TigerGraph-like baseline)."""

import dataclasses
import hashlib
import random

import pytest

import repro.core.machine as machine_mod
from repro.core.progress import ProgressMode
from repro.errors import ConfigurationError
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.bsp import BSP_FIELDS, BSPEngine
from repro.runtime.config import IO_TLC, EngineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.metrics import MsgKind
from repro.runtime.reference import LocalExecutor
from repro.runtime.trace import WeightLedgerAuditor
from tests.conftest import build_diamond, random_graph

NODES, WPN = 2, 2


def khop_plan(graph, k=3):
    return (
        Traversal("khop").v_param("s").khop("knows", k=k)
        .filter_(X.vertex().neq(X.param("s")))
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
        .limit(5)
    ).compile(graph)


@pytest.fixture
def graph():
    return random_graph(n=120, degree=4, partitions=NODES * WPN, seed=2)


@pytest.fixture
def engine(graph):
    return BSPEngine(graph, NODES, WPN)


class TestBSPExecution:
    def test_partition_count_validated(self, graph):
        with pytest.raises(ConfigurationError):
            BSPEngine(graph, nodes=3, workers_per_node=2)

    def test_matches_reference(self, graph, engine):
        plan = khop_plan(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 7})
        result = engine.run(plan, {"s": 7})
        assert result.rows == expected

    def test_supersteps_counted(self, graph, engine):
        engine.run(khop_plan(graph), {"s": 7})
        assert engine.metrics.supersteps >= 3  # at least one per hop

    def test_time_advances_per_superstep(self, graph, engine):
        before = engine.time_us
        engine.run(khop_plan(graph), {"s": 7})
        barriers = engine.metrics.supersteps * engine.cost.bsp_barrier_us
        assert engine.time_us - before >= barriers

    def test_memos_cleared_after_query(self, graph, engine):
        engine.run(khop_plan(graph), {"s": 7})
        for store in engine.memo_stores:
            assert store.active_queries() == []

    def test_multi_stage_plans(self, graph, engine):
        plan = (
            Traversal("t").v_param("s").out("knows").as_("v")
            .group_count("v")
            .filter_(X.binding("count").ge(1)).select("key", "count")
        ).compile(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 3})
        assert sorted(engine.run(plan, {"s": 3}).rows) == sorted(expected)

    def test_sequential_queries(self, graph, engine):
        plan = khop_plan(graph)
        first = engine.run(plan, {"s": 1})
        second = engine.run(plan, {"s": 1})
        assert first.rows == second.rows
        # simulated time accumulates across queries on one engine
        assert second.metrics.completed_at_us > first.metrics.completed_at_us


class TestBSPConfig:
    """One config, one validation table: BSP models ``BSP_FIELDS`` and
    rejects every other non-default EngineConfig field by name."""

    #: a non-default value for every field BSP does not model; a new
    #: EngineConfig field fails test_every_field_is_classified until it is
    #: listed here or in BSP_FIELDS
    UNMODELED = {
        "progress_mode": ProgressMode.WEIGHTED_IMMEDIATE,
        "io_mode": IO_TLC,
        "flush_threshold_bytes": 1024,
        "batch_size": 8,
        "partitioned_state": False,
        "per_query_instantiation": True,
        "centralized_agg": True,
        "kernel": "scalar",
        "fault_plan": FaultPlan(seed=1, drop_rate=0.01),
        "checkpoint_interval_us": 0.0,
        "max_concurrent_queries": 2,
        "admission_queue_size": 4,
        "admission_timeout_us": 10.0,
        "inbox_capacity": 16,
        "preemption": True,
        "transactions": True,
        "lct_broadcast_lag_us": 1.0,
    }
    #: fields EngineConfig itself only accepts beside others
    COMPANIONS = {
        "admission_queue_size": {"max_concurrent_queries": 2},
        "admission_timeout_us": {"max_concurrent_queries": 2},
        "preemption": {"max_concurrent_queries": 2, "checkpoint_interval_us": 0.0},
        "lct_broadcast_lag_us": {"transactions": True},
    }

    def test_every_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(EngineConfig)}
        assert names == set(self.UNMODELED) | BSP_FIELDS
        assert not set(self.UNMODELED) & BSP_FIELDS

    @pytest.mark.parametrize("name", sorted(UNMODELED))
    def test_unmodeled_field_is_rejected_by_name(self, graph, name):
        config = EngineConfig(**{name: self.UNMODELED[name]},
                              **self.COMPANIONS.get(name, {}))
        with pytest.raises(ConfigurationError, match=rf"\b{name}\b"):
            BSPEngine(graph, NODES, WPN, config=config)

    def test_modeled_fields_are_accepted(self, graph):
        engine = BSPEngine(graph, NODES, WPN,
                           config=EngineConfig(name="bsp-x", trace=True))
        assert engine.name == "bsp-x"
        assert engine.trace is not None
        assert BSPEngine(graph, NODES, WPN).trace is None


class TestTracedBSP:
    """A traced BSP run changes no simulated bit and passes the same
    weight-ledger audit as the async engine."""

    @staticmethod
    def traced_and_plain(graph, plan, params):
        plain = BSPEngine(graph, NODES, WPN).run(plan, params)
        engine = BSPEngine(graph, NODES, WPN,
                           config=EngineConfig(name="bsp", trace=True))
        traced = engine.run(plan, params)
        assert traced.rows == plain.rows
        assert traced.latency_us == plain.latency_us
        report = WeightLedgerAuditor(engine.trace.events).audit()
        assert report.ok, report.violations[:5]
        assert report.stages_closed == report.stages_opened > 0

    @pytest.mark.parametrize("inline", [False, True])
    def test_khop_count(self, graph, inline, monkeypatch):
        """With the exit chain run in the branch's step, and with every
        link dispatched (``_link`` disabled)."""
        if not inline:
            monkeypatch.setattr(machine_mod, "_link", lambda *args: None)
        plan = (Traversal("k").v_param("s").khop("knows", k=3).count()
                .compile(graph))
        self.traced_and_plain(graph, plan, {"s": 7})

    def test_khop_top_k(self, graph):
        self.traced_and_plain(graph, khop_plan(graph), {"s": 7})

    @pytest.mark.parametrize("number", [1, 9])
    def test_ic_plans_with_barriers(self, snb, number):
        from repro.ldbc.queries.ic import IC_QUERIES

        dataset, graph = snb
        qdef = IC_QUERIES[number]
        plan = qdef.build().compile(graph)
        for seed in range(3):
            params = qdef.make_params(dataset, random.Random(900 + seed))
            self.traced_and_plain(graph, plan, params)


class TestBSPConcurrency:
    def test_closed_loop_is_superstep_serialized(self, graph, engine):
        """Concurrency buys BSP almost nothing: total time with 4 clients
        is close to the sum of solo latencies."""
        plan = khop_plan(graph)
        solo = BSPEngine(graph, NODES, WPN).run(plan, {"s": 1}).latency_us
        qps, recorder = engine.run_closed_loop(
            lambda i: (plan, {"s": 1}), clients=4, total_queries=8
        )
        assert len(recorder) == 8
        # Throughput bounded by ~1/solo-latency (time slicing, no overlap).
        assert qps <= 1.5 * 1e6 / solo

    def test_closed_loop_results_still_correct(self, graph, engine):
        plan = khop_plan(graph)
        expected = LocalExecutor(graph).run(plan, {"s": 2})
        collected = []
        original_advance = engine.advance

        qps, recorder = engine.run_closed_loop(
            lambda i: (plan, {"s": 2}), clients=2, total_queries=4
        )
        assert len(recorder) == 4


class TestStragglerEffect:
    def test_superstep_cost_is_max_over_partitions(self):
        """A single hot partition dominates the superstep duration."""
        # star graph: all edges from vertex 0 → heavy partition for 0
        from repro.graph.builder import GraphBuilder
        from repro.graph.partition import PartitionedGraph

        b = GraphBuilder("v")
        for v in range(200):
            b.vertex(v, "v", weight=v)
        for v in range(1, 200):
            b.edge(0, v, "e")
        pg = PartitionedGraph.from_graph(b.build(), 4)
        engine = BSPEngine(pg, 2, 2)
        # dedup routes by vertex hash, forcing a cross-partition exchange
        plan = (
            Traversal("t").v_param("s").out("e").dedup().count()
        ).compile(pg)
        result = engine.run(plan, {"s": 0})
        assert result.rows == [199]
        # the hub expansion ran on one partition; the exchange then spread
        # the dedups — at least two supersteps with a barrier between them
        assert engine.metrics.supersteps >= 2
        assert engine.metrics.packets_sent >= 1


# -- golden pins -----------------------------------------------------------
#
# Exact simulated output of BSP runs, captured as repr floats and counts:
# latency, supersteps, barrier compute/idle, exchange packets and bytes,
# traverser messages, steps, and a digest of the rows. Any change to how
# BSP drains, routes, prices or exchanges shows here as a moved number.


def rows_digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def observe(engine, result):
    """One run's pinned tuple (the counters are the engine's, so each
    pinned run gets a fresh engine)."""
    m = engine.metrics
    return (
        result.latency_us, m.supersteps, m.bsp_compute_us, m.bsp_idle_us,
        m.packets_sent, m.bytes_sent, m.messages[MsgKind.TRAVERSER],
        m.steps_executed, rows_digest(result.rows),
    )


def snb_cases():
    """Every IC and IS plan on SNB_TINY at three parameter sets each."""
    from repro.ldbc.queries.ic import IC_QUERIES
    from repro.ldbc.queries.short import IS_QUERIES

    for family, table in (("IC", IC_QUERIES), ("IS", IS_QUERIES)):
        for number, qdef in sorted(table.items()):
            for i in range(3):
                yield f"{family}{number}/{i}", qdef, 100 * number + i


@pytest.fixture(scope="module")
def snb():
    from repro.ldbc.generator import SNB_TINY, generate_snb

    dataset = generate_snb(SNB_TINY)
    return dataset, dataset.partitioned(NODES * WPN)


def observe_snb(snb, qdef, seed, slowdown=None):
    dataset, graph = snb
    engine = BSPEngine(graph, NODES, WPN)
    if slowdown:
        engine.partition_slowdown.update(slowdown)
    params = qdef.make_params(dataset, random.Random(seed))
    return observe(engine, engine.run(qdef.build().compile(graph), params))


def observe_khop(dataset, k, start):
    from repro.bench.harness import BENCH_CLUSTER, build_engine, khop_plan

    engine = build_engine("bsp", dataset, BENCH_CLUSTER)
    plan = khop_plan(dataset, BENCH_CLUSTER.num_partitions, k)
    return observe(engine, engine.run(plan, {"start": start}))


def observe_closed_loop(snb):
    from repro.ldbc.queries.ic import IC_QUERIES

    dataset, graph = snb
    engine = BSPEngine(graph, NODES, WPN)
    numbers = (2, 7, 9, 13)
    plans = [IC_QUERIES[n].build().compile(graph) for n in numbers]
    rng = random.Random(17)
    queries = [
        (plans[i % 4], IC_QUERIES[numbers[i % 4]].make_params(dataset, rng))
        for i in range(8)
    ]
    qps, recorder = engine.run_closed_loop(
        lambda i: queries[i], clients=3, total_queries=8)
    m = engine.metrics
    return (qps, tuple(recorder.values), m.supersteps, m.bsp_compute_us,
            m.bsp_idle_us, m.packets_sent, m.steps_executed)


def observe_open_loop(snb):
    from repro.ldbc.workload import run_mixed_workload
    from tests.test_ldbc_workload import TINY_WORKLOAD

    dataset, graph = snb
    engine = BSPEngine(graph, NODES, WPN)
    result = run_mixed_workload(engine, dataset, TINY_WORKLOAD)
    per_label = tuple(
        (label, tuple(result.per_type[label].values))
        for label in result.labels())
    m = engine.metrics
    return (result.completed, engine.time_us, m.supersteps, m.steps_executed,
            m.bytes_sent, per_label)


#: (latency_us, supersteps, bsp_compute_us, bsp_idle_us, packets_sent,
#: bytes_sent, traverser messages, steps_executed, rows digest) per
#: SNB_TINY plan and parameter set, 2×2 cluster
SNB_PINS = {
    'IC1/0': (683.9940800000003, 4, 181.3512000000004, 104.4680000000006, 5,
              20950, 640, 910, 'bbf494f06ed57a15'),
    'IC1/1': (669.23476, 4, 144.3446000000002, 79.0562000000001, 5, 16100, 500,
              707, '65b310216f92251f'),
    'IC1/2': (686.1757600000003, 4, 181.53160000000042, 105.00920000000063, 5,
              20950, 640, 910, '34b688e8eb83a82c'),
    'IC10/0': (618.53428, 4, 13.530000000000001, 16.8756, 4, 1080, 42, 60,
               '6c17b42f0f72d4d7'),
    'IC10/1': (634.18252, 4, 44.07499999999999, 36.54739999999998, 5, 4212,
               138, 193, '51957dbe044c8e99'),
    'IC10/2': (627.08964, 4, 27.183, 37.20339999999998, 4, 2627, 87, 121,
               '297e054e20b9e06f'),
    'IC11/0': (792.7877999999998, 5, 62.057599999999994, 59.6304, 7, 5733, 158,
               300, 'fa6dbddb8143b9d6'),
    'IC11/1': (771.9903999999999, 5, 19.639, 19.327399999999994, 7, 1782, 51,
               95, 'd70b3152088c8b10'),
    'IC11/2': (777.9575199999999, 5, 33.3002, 30.463, 6, 3390, 88, 159,
               '2fb81df338e3506f'),
    'IC12/0': (932.45048, 6, 49.83140000000001, 25.313400000000012, 9, 6219,
               184, 312, 'c5721d0a90e10445'),
    'IC12/1': (950.55544, 6, 93.49640000000004, 53.51320000000001, 9, 10360,
               336, 582, 'e48a9c0d3ac3fe50'),
    'IC12/2': (932.78104, 6, 50.32340000000001, 26.133400000000016, 9, 6219,
               184, 312, '1382a4889576e452'),
    'IC13/0': (732.1675200000003, 4, 332.9282000000004, 136.63660000000078, 6,
               33852, 979, 1663, '06d033ece6645de5'),
    'IC13/1': (704.1557600000003, 4, 252.71580000000068, 105.52580000000054, 5,
               25064, 726, 1259, '06d033ece6645de5'),
    'IC13/2': (706.1384800000003, 4, 270.79680000000076, 95.84160000000048, 5,
               25844, 767, 1346, '06d033ece6645de5'),
    'IC14/0': (497.61888, 3, 91.21679999999999, 48.24879999999998, 4, 6812,
               206, 433, '06d033ece6645de5'),
    'IC14/1': (488.5416, 3, 60.8358, 42.28739999999999, 3, 4420, 124, 288,
               '06d033ece6645de5'),
    'IC14/2': (489.70516, 3, 57.318, 50.6924, 3, 3848, 121, 271,
               '06d033ece6645de5'),
    'IC2/0': (490.19236, 3, 52.17659999999999, 57.4738, 3, 4730, 146, 210,
              '875e44d685d3879d'),
    'IC2/1': (476.3638, 3, 32.767199999999995, 21.975999999999996, 3, 2836, 92,
              135, '128747505e7f7035'),
    'IC2/2': (476.2282, 3, 29.109999999999996, 25.042799999999993, 3, 2936, 90,
              125, '07a1605e71bc39e5'),
    'IC3/0': (808.9415600000001, 5, 108.85500000000017, 76.69460000000024, 7,
              13861, 365, 626, 'c1dae384774a5217'),
    'IC3/1': (890.07756, 5, 326.1550000000002, 180.80179999999947, 7, 41169,
              1082, 1874, 'c0a2d608616fcaff'),
    'IC3/2': (852.36452, 5, 234.31500000000037, 122.71300000000022, 7, 29867,
              793, 1340, '589e653b4171ba14'),
    'IC4/0': (621.6672, 4, 21.287200000000002, 14.661600000000004, 4, 2009, 77,
              118, '2d7b01fc030813bc'),
    'IC4/1': (645.2169200000001, 4, 64.15680000000002, 60.38480000000001, 5,
              5863, 220, 353, '6e6734ed22a18094'),
    'IC4/2': (637.20124, 4, 49.733000000000004, 42.86139999999998, 5, 5166,
              187, 272, '569ea5d8b4b35d05'),
    'IC5/0': (543.25664, 3, 155.7344, 166.06640000000004, 2, 2601, 76, 180,
              'e5dd2ccc2dae4f65'),
    'IC5/1': (518.57884, 3, 111.0444, 112.3892, 3, 1377, 44, 119,
              '0784c5a7b1788a1f'),
    'IC5/2': (548.4876399999999, 3, 163.8606, 178.86660000000006, 3, 2703, 88,
              195, '0091aa7792feb186'),
    'IC6/0': (782.9278800000001, 5, 40.2538, 30.233400000000003, 6, 3806, 88,
              195, '48c651c21af3c1e5'),
    'IC6/1': (789.34076, 5, 63.590999999999994, 42.77939999999995, 6, 5205,
              142, 298, '2467942f27ce9c42'),
    'IC6/2': (787.5889199999999, 5, 49.651, 40.614599999999996, 7, 3886, 104,
              233, '713e94571b8d2265'),
    'IC7/0': (309.93472, 2, 1.7466, 4.7478, 1, 246, 5, 9, 'b30c94fb32558e9e'),
    'IC7/1': (463.29716, 3, 2.6649999999999996, 4.091799999999999, 3, 232, 10,
              13, '9ee8cec3a75ba83f'),
    'IC7/2': (461.99340000000007, 3, 2.1811999999999996, 4.542799999999999, 2,
              246, 6, 11, '55ce6e417a7bf29f'),
    'IC8/0': (465.27408, 3, 4.4361999999999995, 10.192599999999999, 2, 358, 11,
              25, 'a17d79652b0b63c5'),
    'IC8/1': (464.03344, 3, 2.7879999999999994, 4.099999999999999, 3, 272, 8,
              16, '99b82e9b02257020'),
    'IC8/2': (461.25852000000003, 3, 2.1401999999999997, 4.452599999999999, 1,
              258, 8, 13, '0523810eca4de8be'),
    'IC9/0': (662.2240800000001, 4, 106.17360000000015, 85.6408000000002, 4,
              11214, 297, 450, '7b0015e62a35adeb'),
    'IC9/1': (706.1244000000002, 4, 237.93120000000042, 128.74000000000035, 4,
              26049, 688, 995, 'bd097bb2497b8548'),
    'IC9/2': (717.59296, 4, 260.4894000000004, 151.44579999999974, 5, 29431,
              769, 1100, '7f20e09bbc496f54'),
    'IS1/0': (157.41096, 1, 0.41, 1.23, 0, 0, 0, 2, '88d2d5abd5ab297a'),
    'IS1/1': (157.41, 1, 0.41, 1.23, 0, 0, 0, 2, '0e3f866258d270db'),
    'IS1/2': (157.41096, 1, 0.41, 1.23, 0, 0, 0, 2, '88d2d5abd5ab297a'),
    'IS2/0': (313.94168, 2, 3.9032, 6.5927999999999995, 1, 378, 13, 17,
              'c85ff9e20f0bf8a9'),
    'IS2/1': (312.88536, 2, 2.4272, 3.870399999999999, 1, 210, 7, 11,
              'e646e352739ae871'),
    'IS2/2': (311.51784, 2, 1.4268, 3.4276, 1, 42, 2, 7, 'a6eed941904bd814'),
    'IS3/0': (312.43268, 2, 2.3779999999999997, 6.117199999999999, 1, 150, 4,
              9, 'a13f5eccc08101d5'),
    'IS3/1': (311.83924, 2, 1.7875999999999999, 4.346, 1, 50, 4, 7,
              '35ea8a45194ba289'),
    'IS3/2': (310.91516, 2, 1.1643999999999999, 2.4764, 1, 100, 2, 5,
              '43deff789f4810e6'),
    'IS4/0': (157.3362, 1, 0.3362, 1.0086, 0, 0, 0, 2, '0371a52ed8761dcc'),
    'IS4/1': (157.3362, 1, 0.3362, 1.0086, 0, 0, 0, 2, '32964490ab501e40'),
    'IS4/2': (157.33715999999998, 1, 0.3362, 1.0086, 0, 0, 0, 2,
              '7632cf886ba8be55'),
    'IS5/0': (157.50116, 1, 0.5002, 1.5006, 0, 0, 0, 3, 'b2855a214c0eaadd'),
    'IS5/1': (157.5002, 1, 0.5002, 1.5006, 0, 0, 0, 3, 'c58b5ed23ed6ae3f'),
    'IS5/2': (157.5002, 1, 0.5002, 1.5006, 0, 0, 0, 3, '3434535c004ef27f'),
    'IS6/0': (309.15851999999995, 2, 1.1562, 3.4685999999999995, 1, 58, 1, 7,
              'a400a9b6e6824d4f'),
    'IS6/1': (308.45716, 2, 1.1562, 3.4685999999999995, 0, 0, 1, 7,
              'bccd37a8d6d10b4e'),
    'IS6/2': (309.52848, 2, 1.5252, 4.5756, 1, 58, 1, 9, '8caec96e86c3b9bb'),
    'IS7/0': (157.246, 1, 0.24599999999999997, 0.7379999999999999, 0, 0, 0, 2,
              '4f53cda18c2baa0c'),
    'IS7/1': (308.10456000000005, 2, 0.8036, 2.4108, 0, 0, 1, 5,
              'd634a4a17e7f438d'),
    'IS7/2': (157.246, 1, 0.24599999999999997, 0.7379999999999999, 0, 0, 0, 2,
              '4f53cda18c2baa0c'),
}

#: the same tuple for k-hop queries at BENCH_CLUSTER, keyed (dataset, k,
#: start vertex)
KHOP_PINS = {
    ('lj', 2, 3670): (490.5649599999999, 3, 59.84359999999999,
                      127.50999999999993, 11, 6750, 159, 181,
                      'b35212e65d9806c5'),
    ('lj', 2, 3815): (501.79455999999993, 3, 97.8178, 287.38540000000023, 8,
                      10850, 258, 290, 'bf64ee5486c59da2'),
    ('lj', 3, 3670): (778.5571600000002, 4, 1524.3800000000033,
                      763.6167999999999, 27, 198050, 4944, 5412,
                      '0d782b45786546e7'),
    ('lj', 3, 3815): (830.0767600000003, 4, 2011.681400000007,
                      1110.484999999997, 20, 266500, 6641, 7381,
                      '3403c012235e6e43'),
}

#: FS 4-hop at BENCH_CLUSTER from vertex 30520 (Fig 9's longest query)
FS_4HOP_PIN = (12260.557760006091, 5, 156566.06040009568, 22099.73800000177,
               39, 27921450, 698558, 773820, 'd41e090d5ccbc8e3')

#: IC9 with partition 1 computing 3× slower, per parameter seed
SLOWDOWN_PINS = {
    900: (716.3276800000001, 4, 160.27720000000025, 247.95160000000044, 4,
          11214, 297, 450, '7b0015e62a35adeb'),
    901: (788.3458000000004, 4, 353.4364000000007, 342.12040000000076, 4,
          26049, 688, 995, 'bd097bb2497b8548'),
    902: (805.1607600000004, 4, 379.76660000000055, 382.43980000000096, 5,
          29431, 769, 1100, '7f20e09bbc496f54'),
}

#: (qps, recorded latencies, supersteps, bsp_compute_us, bsp_idle_us,
#: packets_sent, steps_executed) of an 8-query, 3-client closed loop
CLOSED_LOOP_PIN = (
    1667.5866325221637,
    (1128.5595999999998, 1289.8823599999996, 1656.8503199999998,
     1548.8064799999997, 2044.9608799999999, 1676.2385199999997,
     1562.4651600000002, 1623.8314799999994),
    28,
    1279.0032000000022,
    676.3359999999993,
    32,
    5958,
)

#: (completed, engine time, supersteps, steps, bytes, per-label latencies)
#: of the tiny mixed workload replayed open-loop
OPEN_LOOP_PIN = (
    True,
    96014.95635272178,
    87,
    824,
    15506,
    (
        ('IC2', (471.971120000002, 580.3922246438597, 481.79943999998795)),
        ('IC7', (465.2989600000019, 468.53480000000127, 461.3696399999899)),
        ('IC8', (461.8756399999984, 466.9728000000032, 461.79811999999947,
                 308.9658799999961, 464.47559999999066, 465.1577200000029,
                 462.34851999999955)),
        ('IS1', (157.41096000000016, 157.40999999999985, 300.0173005281358,
                 157.40999999999985, 157.41096000000107, 157.40999999999985,
                 157.41096000000107, 432.69790460569493, 157.41096000000834)),
        ('IS2', (313.93831999999975, 446.2891254428514, 313.65952000000107,
                 312.3752800000002, 471.1375442380304, 311.9841599999927,
                 314.468160000004, 310.07543999999325, 312.3752799999929,
                 311.4265599999926, 310.02607999998145, 312.8870399999869,
                 311.1427199999889, 311.4659199999878, 313.3445599999832)),
        ('IS4', (157.33715999999913, 157.33716000000277, 157.33716000000277,
                 157.33619999999792, 157.3371599999955, 343.2097705053893,
                 157.3362000000052, 157.3362000000052, 157.3362000000052,
                 157.33716000001004)),
        ('UP', (12.0, 12.0, 8.0, 8.0, 12.0, 8.0, 8.0, 8.0, 8.0, 12.0, 12.0,
                12.0, 12.0, 18.0, 12.0, 6.0, 6.0, 18.0, 6.0, 8.0, 12.0, 12.0,
                12.0, 8.0, 12.0)),
    ),
)


class TestGoldenPins:
    """BSP's exact simulated output. Generations of pins, by the commit
    each was taken at:

    * every pin — BSP as a superstep schedule over the async engine's run
      kernel (the parent, 3a62881, pinned them first; 1c71270 reproduced
      them bit for bit).
    * every pin but eleven SNB cases (IC4/0-2, IS1/0-2, IS4/0-2, IS7/0
      and IS7/2, which did not move) — *location-free links inlined*
      (child of f52106a): a location-free Filter/Project runs inside the
      step that emits its input, so steps, compute, idle time and
      latency moved; the rows digests, supersteps and exchange figures
      (packets, bytes, traverser messages) did not. With the inline
      table forced empty every previous pin reproduces bit for bit.
    * every pin but 21 SNB cases (IC7, IC8, IC12, IC13, IC14, IS2 and IS7,
      three parameter sets each, which did not move) — *one inlining
      rule* (child of f67419b): after a vertex-routed op that keeps its
      vertex, vertex-reading Filter/Project links, a privately fed
      vertex-keyed Dedup and count absorption run in that op's step, so
      steps, compute, idle time and latency moved; the rows digests,
      supersteps and exchange figures did not. With only location-free
      links inlined (``_link`` called with ``local`` forced False) every
      previous pin reproduces bit for bit.
    * every pin but five SNB cases (IS6/0-2, IS7/0 and IS7/2, which did
      not move) — *every partitionable aggregate absorbed* (child of
      43599bd): Min, Max, GroupCount and a uniquely ordered Collect join
      Count after any op, Sum and the other Collects after a
      vertex-preserving private chain, so steps, compute, idle time and
      (but for IC1/0, IC3/1, IC10/0, IC10/2 and IC12/0) latency moved;
      the rows digests, supersteps and exchange figures did not. With
      ``_link`` patched back to absorbing only a local Count every
      previous pin reproduces bit for bit."""

    @pytest.mark.parametrize("case", sorted(SNB_PINS))
    def test_snb_plan(self, snb, case):
        cases = {key: (qdef, seed) for key, qdef, seed in snb_cases()}
        qdef, seed = cases[case]
        assert observe_snb(snb, qdef, seed) == SNB_PINS[case]

    def test_every_snb_plan_is_pinned(self):
        assert sorted(SNB_PINS) == sorted(key for key, _q, _s in snb_cases())

    @pytest.mark.parametrize("case", sorted(KHOP_PINS))
    def test_lj_khop(self, case):
        assert observe_khop(*case) == KHOP_PINS[case]

    @pytest.mark.slow
    def test_fs_4hop(self):
        assert observe_khop("fs", 4, 30520) == FS_4HOP_PIN

    @pytest.mark.parametrize("seed", sorted(SLOWDOWN_PINS))
    def test_partition_slowdown(self, snb, seed):
        from repro.ldbc.queries.ic import IC_QUERIES

        got = observe_snb(snb, IC_QUERIES[9], seed, slowdown={1: 3.0})
        assert got == SLOWDOWN_PINS[seed]

    def test_closed_loop(self, snb):
        assert observe_closed_loop(snb) == CLOSED_LOOP_PIN

    def test_open_loop_workload(self, snb):
        assert observe_open_loop(snb) == OPEN_LOOP_PIN
