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
    'IC1/0': (683.9940800000003, 4, 181.72020000000043, 104.09900000000059, 5,
              20950, 640, 913, 'bbf494f06ed57a15'),
    'IC1/1': (669.7267600000001, 4, 144.95960000000022, 80.40920000000011, 5,
              16100, 500, 712, '65b310216f92251f'),
    'IC1/2': (686.4217600000003, 4, 182.14660000000043, 105.3782000000006, 5,
              20950, 640, 915, '34b688e8eb83a82c'),
    'IC10/0': (618.53428, 4, 13.653, 16.752599999999997, 4, 1080, 42, 61,
               '6c17b42f0f72d4d7'),
    'IC10/1': (634.42852, 4, 44.812999999999995, 36.793399999999984, 5, 4212,
               138, 199, '51957dbe044c8e99'),
    'IC10/2': (627.08964, 4, 27.306, 37.08039999999998, 4, 2627, 87, 122,
               '297e054e20b9e06f'),
    'IC11/0': (792.9107999999999, 5, 62.18059999999999, 59.9994, 7, 5733, 158,
               301, 'fa6dbddb8143b9d6'),
    'IC11/1': (772.0149999999999, 5, 19.761999999999997, 19.302799999999994, 7,
               1782, 51, 96, 'd70b3152088c8b10'),
    'IC11/2': (778.20352, 5, 33.54619999999999, 31.201, 6, 3390, 88, 161,
               '2fb81df338e3506f'),
    'IC12/0': (932.45048, 6, 50.20040000000001, 24.94440000000001, 9, 6219,
               184, 315, 'c5721d0a90e10445'),
    'IC12/1': (951.2934399999999, 6, 94.60340000000002, 55.3582, 9, 10360, 336,
               591, 'e48a9c0d3ac3fe50'),
    'IC12/2': (934.28984, 6, 52.168400000000005, 30.323600000000006, 9, 6219,
               184, 327, '1382a4889576e452'),
    'IC13/0': (739.9165200000003, 4, 352.97720000000055, 147.5836000000009, 6,
               33852, 979, 1826, '06d033ece6645de5'),
    'IC13/1': (709.0757600000003, 4, 266.98380000000077, 110.93780000000056, 5,
               25064, 726, 1375, '06d033ece6645de5'),
    'IC13/2': (711.1814800000004, 4, 287.03280000000086, 99.77760000000058, 5,
               25844, 767, 1478, '06d033ece6645de5'),
    'IC14/0': (499.70988, 3, 97.36679999999998, 50.46280000000005, 4, 6812,
               206, 483, '06d033ece6645de5'),
    'IC14/1': (490.14059999999995, 3, 64.52579999999999, 44.993399999999966, 3,
               4420, 124, 318, '06d033ece6645de5'),
    'IC14/2': (490.93516, 3, 60.515999999999984, 52.414399999999986, 3, 3848,
               121, 297, '06d033ece6645de5'),
    'IC2/0': (499.90936000000005, 3, 73.20959999999997, 75.30880000000002, 3,
              4730, 146, 381, '875e44d685d3879d'),
    'IC2/1': (481.4068, 3, 45.31319999999998, 29.601999999999972, 3, 2836, 92,
              237, '128747505e7f7035'),
    'IC2/2': (480.2872, 3, 38.94999999999999, 31.438799999999965, 3, 2936, 90,
              205, '07a1605e71bc39e5'),
    'IC3/0': (809.3105600000001, 5, 109.47000000000018, 77.55560000000024, 7,
              13861, 365, 631, 'c1dae384774a5217'),
    'IC3/1': (890.07756, 5, 327.8770000000002, 179.0797999999995, 7, 41169,
              1082, 1888, 'c0a2d608616fcaff'),
    'IC3/2': (853.10252, 5, 235.17600000000039, 124.8040000000002, 7, 29867,
              793, 1347, '589e653b4171ba14'),
    'IC4/0': (622.1017999999999, 4, 22.886200000000002, 14.801000000000002, 4,
              2009, 77, 131, '2d7b01fc030813bc'),
    'IC4/1': (647.3079200000001, 4, 69.44580000000002, 63.45980000000003, 5,
              5863, 220, 396, '6e6734ed22a18094'),
    'IC4/2': (638.67724, 4, 53.915, 44.58339999999997, 5, 5166, 187, 306,
              '569ea5d8b4b35d05'),
    'IC5/0': (582.1246400000005, 3, 232.4864000000008, 244.786400000001, 2,
              2601, 76, 804, 'e5dd2ccc2dae4f65'),
    'IC5/1': (547.9758400000002, 3, 171.43740000000037, 169.58420000000055, 3,
              1377, 44, 610, '0784c5a7b1788a1f'),
    'IC5/2': (592.5216400000005, 3, 247.37760000000088, 271.485600000001, 3,
              2703, 88, 874, '0091aa7792feb186'),
    'IC6/0': (783.5428800000001, 5, 41.60679999999999, 31.340399999999995, 6,
              3806, 88, 206, '48c651c21af3c1e5'),
    'IC6/1': (789.5867599999999, 5, 64.083, 43.27139999999996, 6, 5205, 142,
              302, '2467942f27ce9c42'),
    'IC6/2': (788.32692, 5, 51.25, 41.9676, 7, 3886, 104, 246,
              '713e94571b8d2265'),
    'IC7/0': (310.30372, 2, 2.1155999999999997, 5.854799999999999, 1, 246, 5,
              12, 'b30c94fb32558e9e'),
    'IC7/1': (463.54316, 3, 3.2799999999999994, 4.460799999999999, 3, 232, 10,
              18, '9ee8cec3a75ba83f'),
    'IC7/2': (462.305, 3, 2.6732, 5.2972, 2, 246, 6, 15, '55ce6e417a7bf29f'),
    'IC8/0': (466.01207999999997, 3, 5.297199999999999, 12.283599999999996, 2,
              358, 11, 32, 'a17d79652b0b63c5'),
    'IC8/1': (464.27944, 3, 3.2799999999999994, 4.591999999999999, 3, 272, 8,
              20, '99b82e9b02257020'),
    'IC8/2': (461.50451999999996, 3, 2.3861999999999997, 5.190599999999999, 1,
              258, 8, 15, '0523810eca4de8be'),
    'IC9/0': (676.8610800000002, 4, 140.61360000000013, 109.74880000000034, 4,
              11214, 297, 730, '7b0015e62a35adeb'),
    'IC9/1': (734.7998000000006, 4, 317.51220000000137, 163.860600000001, 4,
              26049, 688, 1642, 'bd097bb2497b8548'),
    'IC9/2': (747.6049600000003, 4, 344.8674000000011, 187.1158000000003, 5,
              29431, 769, 1786, '7f20e09bbc496f54'),
    'IS1/0': (157.53395999999998, 1, 0.5329999999999999, 1.5989999999999998, 0,
              0, 0, 3, '88d2d5abd5ab297a'),
    'IS1/1': (157.533, 1, 0.5329999999999999, 1.5989999999999998, 0, 0, 0, 3,
              '0e3f866258d270db'),
    'IS1/2': (157.53395999999998, 1, 0.5329999999999999, 1.5989999999999998, 0,
              0, 0, 3, '88d2d5abd5ab297a'),
    'IS2/0': (315.04868, 2, 5.748199999999999, 9.175799999999999, 1, 378, 13,
              32, 'c85ff9e20f0bf8a9'),
    'IS2/1': (313.50036, 2, 3.5342, 5.223399999999998, 1, 210, 7, 20,
              'e646e352739ae871'),
    'IS2/2': (312.00984, 2, 2.0418, 4.780599999999999, 1, 42, 2, 12,
              'a6eed941904bd814'),
    'IS3/0': (313.17068, 2, 3.239, 8.208199999999998, 1, 150, 4, 16,
              'a13f5eccc08101d5'),
    'IS3/1': (312.33124000000004, 2, 2.4026, 5.699, 1, 50, 4, 12,
              '35ea8a45194ba289'),
    'IS3/2': (311.16116, 2, 1.5333999999999999, 3.0914, 1, 100, 2, 8,
              '43deff789f4810e6'),
    'IS4/0': (157.4592, 1, 0.45919999999999994, 1.3775999999999997, 0, 0, 0, 3,
              '0371a52ed8761dcc'),
    'IS4/1': (157.4592, 1, 0.45919999999999994, 1.3775999999999997, 0, 0, 0, 3,
              '32964490ab501e40'),
    'IS4/2': (157.46016, 1, 0.45919999999999994, 1.3775999999999997, 0, 0, 0,
              3, '7632cf886ba8be55'),
    'IS5/0': (157.62416, 1, 0.6232, 1.8696, 0, 0, 0, 4, 'b2855a214c0eaadd'),
    'IS5/1': (157.6232, 1, 0.6232, 1.8696, 0, 0, 0, 4, 'c58b5ed23ed6ae3f'),
    'IS5/2': (157.6232, 1, 0.6232, 1.8696, 0, 0, 0, 4, '3434535c004ef27f'),
    'IS6/0': (309.15851999999995, 2, 1.1562, 3.4685999999999995, 1, 58, 1, 7,
              'a400a9b6e6824d4f'),
    'IS6/1': (308.45716, 2, 1.1562, 3.4685999999999995, 0, 0, 1, 7,
              'bccd37a8d6d10b4e'),
    'IS6/2': (309.52848, 2, 1.5252, 4.5756, 1, 58, 1, 9, '8caec96e86c3b9bb'),
    'IS7/0': (157.246, 1, 0.24599999999999997, 0.7379999999999999, 0, 0, 0, 2,
              '4f53cda18c2baa0c'),
    'IS7/1': (308.22756, 2, 0.9266, 2.7798, 0, 0, 1, 6, 'd634a4a17e7f438d'),
    'IS7/2': (157.246, 1, 0.24599999999999997, 0.7379999999999999, 0, 0, 0, 2,
              '4f53cda18c2baa0c'),
}

#: the same tuple for k-hop queries at BENCH_CLUSTER, keyed (dataset, k,
#: start vertex)
KHOP_PINS = {
    ('lj', 2, 3670): (493.39396, 3, 79.64659999999996, 152.9709999999999, 11,
                      6750, 159, 342, 'b35212e65d9806c5'),
    ('lj', 2, 3815): (507.57556, 3, 130.65879999999996, 347.04040000000026, 8,
                      10850, 258, 557, 'bf64ee5486c59da2'),
    ('lj', 3, 3670): (809.1841600000004, 4, 1899.5300000000007,
                      878.4988000000046, 27, 198050, 4944, 8462,
                      '0d782b45786546e7'),
    ('lj', 3, 3815): (869.0513600000002, 4, 2474.530400000008,
                      1271.2295999999942, 20, 266500, 6641, 11144,
                      '3403c012235e6e43'),
}

#: FS 4-hop at BENCH_CLUSTER from vertex 30520 (Fig 9's longest query)
FS_4HOP_PIN = (12653.911760006058, 5, 161453.46540009492, 23505.997000002037,
               39, 27921450, 698558, 813555, 'd41e090d5ccbc8e3')

#: IC9 with partition 1 computing 3× slower, per parameter seed
SLOWDOWN_PINS = {
    900: (746.9546800000002, 4, 210.7072000000002, 320.02960000000064, 4,
          11214, 297, 730, '7b0015e62a35adeb'),
    901: (843.6958000000008, 4, 469.9174000000018, 447.0394000000012, 4, 26049,
          688, 1642, 'bd097bb2497b8548'),
    902: (866.6607600000009, 4, 503.99660000000176, 504.209800000002, 5, 29431,
          769, 1786, '7f20e09bbc496f54'),
}

#: (qps, recorded latencies, supersteps, bsp_compute_us, bsp_idle_us,
#: packets_sent, steps_executed) of an 8-query, 3-client closed loop
CLOSED_LOOP_PIN = (
    1638.4743398615556,
    (1142.7046, 1304.88836, 1695.1033200000002, 1584.3534800000002,
     2082.2298800000003, 1689.76852, 1592.8461600000005, 1657.65648),
    28,
    1509.7512000000029,
    786.5439999999991,
    32,
    7834,
)

#: (completed, engine time, supersteps, steps, bytes, per-label latencies)
#: of the tiny mixed workload replayed open-loop
OPEN_LOOP_PIN = (
    True,
    96015.81735272179,
    87,
    1319,
    15506,
    (
        ('IC2', (475.1117200000008, 586.6652246438534, 488.44143999999505)),
        ('IC7', (465.7909600000021, 469.88780000000406, 461.49263999999675)),
        ('IC8', (462.12163999999757, 467.58780000000115, 462.04411999999866,
                 309.0888799999957, 464.96759999998903, 465.64972000000125,
                 462.71751999999105)),
        ('IS1', (157.53396000000066, 157.53299999999945, 300.263300528135,
                 157.53299999999945, 157.53396000000066, 157.53299999999945,
                 157.53396000000066, 433.4359046056925, 157.53396000000066)),
        ('IS2', (315.0453199999997, 448.62612544285093, 314.64352000000144,
                 312.744279999999, 471.87554423802794, 312.59915999999066,
                 315.8211599999995, 310.3214399999997, 312.7442799999844,
                 311.79555999999866, 310.3950799999875, 313.5020399999921,
                 311.3887199999881, 312.08091999999306, 314.2055599999876)),
        ('IS4', (157.46015999999872, 157.46016000000236, 157.46016000000236,
                 157.4591999999975, 157.46015999999508, 349.97477050538873,
                 157.4591999999975, 157.4591999999975, 157.4591999999975,
                 157.46016000000236)),
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
