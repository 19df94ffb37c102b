"""Tests for the BSP engine (TigerGraph-like baseline)."""

import dataclasses
import hashlib
import random

import pytest

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
        "cpu_scale": 0.5,
        "kernel": "scalar",
        "fault_plan": FaultPlan(seed=1, drop_rate=0.01),
        "retry_budget": 1,
        "watchdog_timeout_us": 5_000.0,
        "checkpoint_interval_us": 0.0,
        "checkpoint_retention": 2,
        "max_concurrent_queries": 2,
        "admission_queue_size": 4,
        "admission_timeout_us": 10.0,
        "inbox_capacity": 16,
        "preemption": True,
        "preemption_min_checkpoints": 0,
        "transactions": True,
        "lct_broadcast_lag_us": 1.0,
    }
    #: fields EngineConfig itself only accepts beside others
    COMPANIONS = {
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

    @pytest.mark.parametrize("fuse", [False, True])
    def test_khop_count(self, graph, fuse):
        plan = (Traversal("k").v_param("s").khop("knows", k=3).count()
                .compile(graph, fuse=fuse))
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
    'IC1/0': (703.5510800000002, 4, 228.46020000000044, 135.58700000000036, 5,
              20950, 640, 1293, 'bbf494f06ed57a15'),
    'IC1/1': (689.8987600000002, 4, 193.42160000000035, 112.63520000000032, 5,
              16100, 500, 1106, '65b310216f92251f'),
    'IC1/2': (706.4707600000003, 4, 229.37860000000046, 138.34220000000036, 5,
              20950, 640, 1299, '34b688e8eb83a82c'),
    'IC10/0': (623.08528, 4, 22.263, 26.3466, 4, 1080, 42, 131,
               '6c17b42f0f72d4d7'),
    'IC10/1': (647.3435200000001, 4, 72.11900000000001, 61.14740000000006, 5,
               4212, 138, 421, '51957dbe044c8e99'),
    'IC10/2': (637.17564, 4, 45.264, 59.466399999999986, 4, 2627, 87, 268,
               '297e054e20b9e06f'),
    'IC11/0': (815.7888, 5, 106.9526000000001, 106.73940000000016, 7, 5733,
               158, 665, 'fa6dbddb8143b9d6'),
    'IC11/1': (779.6409999999998, 5, 34.89099999999999, 34.67779999999998, 7,
               1782, 51, 219, 'd70b3152088c8b10'),
    'IC11/2': (790.50352, 5, 59.00720000000001, 54.94000000000007, 6, 3390, 88,
               368, '2fb81df338e3506f'),
    'IC12/0': (932.69648, 6, 50.692400000000006, 25.436400000000013, 9, 6219,
               184, 319, 'c5721d0a90e10445'),
    'IC12/1': (952.2774400000001, 6, 96.44840000000002, 57.449200000000005, 9,
               10360, 336, 606, 'e48a9c0d3ac3fe50'),
    'IC12/2': (934.53584, 6, 52.6604, 30.815600000000003, 9, 6219, 184, 331,
               '1382a4889576e452'),
    'IC13/0': (761.5235200000002, 4, 407.4662000000004, 179.52260000000024, 6,
               33852, 979, 2269, '06d033ece6645de5'),
    'IC13/1': (724.6967600000002, 4, 310.27980000000036, 130.1258000000003, 5,
               25064, 726, 1727, '06d033ece6645de5'),
    'IC13/2': (726.6794800000002, 4, 334.3878000000004, 114.41460000000042, 5,
               25844, 767, 1863, '06d033ece6645de5'),
    'IC14/0': (509.30388, 3, 122.70480000000002, 63.500800000000005, 4, 6812,
               206, 689, '06d033ece6645de5'),
    'IC14/1': (497.8896, 3, 82.48380000000003, 58.03140000000007, 3, 4420, 124,
               464, '06d033ece6645de5'),
    'IC14/2': (498.43816000000004, 3, 77.49000000000001, 65.45240000000008, 3,
               3848, 121, 435, '06d033ece6645de5'),
    'IC2/0': (520.5733600000002, 3, 116.99760000000035, 114.17680000000053, 3,
              4730, 146, 737, '875e44d685d3879d'),
    'IC2/1': (491.9848, 3, 71.14319999999996, 46.084, 3, 2836, 92, 447,
              '128747505e7f7035'),
    'IC2/2': (488.77419999999995, 3, 59.36799999999997, 44.96879999999998, 3,
              2936, 90, 371, '07a1605e71bc39e5'),
    'IC3/0': (820.1345600000002, 5, 133.08600000000027, 97.23560000000039, 7,
              13861, 365, 823, 'c1dae384774a5217'),
    'IC3/1': (921.8115599999995, 5, 403.52199999999897, 230.3707999999988, 7,
              41169, 1082, 2503, 'c0a2d608616fcaff'),
    'IC3/2': (874.8735199999998, 5, 288.1889999999999, 158.87499999999937, 7,
              29867, 793, 1778, '589e653b4171ba14'),
    'IC4/0': (623.3317999999999, 4, 25.592200000000005, 17.015000000000004, 4,
              2009, 77, 153, '2d7b01fc030813bc'),
    'IC4/1': (653.3349200000001, 4, 81.62280000000004, 75.3908000000001, 5,
              5863, 220, 495, '6e6734ed22a18094'),
    'IC4/2': (642.49024, 4, 62.155999999999985, 51.59439999999999, 5, 5166,
              187, 373, '569ea5d8b4b35d05'),
    'IC5/0': (710.1676399999988, 3, 485.0053999999984, 504.43939999999645, 2,
              2601, 76, 2857, 'e5dd2ccc2dae4f65'),
    'IC5/1': (639.2418399999996, 3, 354.09239999999977, 351.9931999999985, 3,
              1377, 44, 2095, '0784c5a7b1788a1f'),
    'IC5/2': (730.0356399999984, 3, 510.10559999999714, 558.8135999999962, 3,
              2703, 88, 3010, '0091aa7792feb186'),
    'IC6/0': (793.50588, 5, 62.393800000000006, 50.40539999999999, 6, 3806, 88,
              375, '48c651c21af3c1e5'),
    'IC6/1': (802.50176, 5, 94.956, 64.0584, 6, 5205, 142, 553,
              '2467942f27ce9c42'),
    'IC6/2': (801.11892, 5, 79.04799999999999, 65.33760000000004, 7, 3886, 104,
              472, '713e94571b8d2265'),
    'IC7/0': (311.16472, 2, 2.9765999999999995, 8.437799999999998, 1, 246, 5,
              19, 'b30c94fb32558e9e'),
    'IC7/1': (464.65015999999997, 3, 4.632999999999999, 7.535799999999998, 3,
              232, 10, 29, '9ee8cec3a75ba83f'),
    'IC7/2': (463.3464, 3, 3.7801999999999993, 8.355799999999999, 2, 246, 6,
              24, '55ce6e417a7bf29f'),
    'IC8/0': (467.48808, 3, 7.019199999999998, 16.4656, 2, 358, 11, 46,
              'a17d79652b0b63c5'),
    'IC8/1': (464.77144, 3, 4.2639999999999985, 5.575999999999998, 3, 272, 8,
              28, '99b82e9b02257020'),
    'IC8/2': (461.99652000000003, 3, 2.878199999999999, 6.666599999999998, 1,
              258, 8, 19, '0523810eca4de8be'),
    'IC9/0': (713.5150800000002, 4, 222.4086000000008, 174.56980000000064, 4,
              11214, 297, 1395, '7b0015e62a35adeb'),
    'IC9/1': (806.2627999999994, 4, 504.7181999999989, 262.50659999999834, 4,
              26049, 688, 3164, 'bd097bb2497b8548'),
    'IC9/2': (822.3889599999999, 4, 543.1434000000002, 287.97579999999937, 5,
              29431, 769, 3398, '7f20e09bbc496f54'),
    'IS1/0': (158.02596, 1, 1.0249999999999997, 3.0749999999999993, 0, 0, 0, 7,
              '88d2d5abd5ab297a'),
    'IS1/1': (158.025, 1, 1.0249999999999997, 3.0749999999999993, 0, 0, 0, 7,
              '0e3f866258d270db'),
    'IS1/2': (158.02596, 1, 1.0249999999999997, 3.0749999999999993, 0, 0, 0, 7,
              '88d2d5abd5ab297a'),
    'IS2/0': (316.15568, 2, 7.5931999999999995, 11.7588, 1, 378, 13, 47,
              'c85ff9e20f0bf8a9'),
    'IS2/1': (314.11536, 2, 4.6411999999999995, 6.576399999999998, 1, 210, 7,
              29, 'e646e352739ae871'),
    'IS2/2': (312.50184, 2, 2.6567999999999996, 6.133599999999999, 1, 42, 2,
              17, 'a6eed941904bd814'),
    'IS3/0': (314.64668, 2, 4.960999999999999, 12.390199999999998, 1, 150, 4,
              30, 'a13f5eccc08101d5'),
    'IS3/1': (313.31524, 2, 3.632599999999999, 8.404999999999998, 1, 50, 4, 22,
              '35ea8a45194ba289'),
    'IS3/2': (311.65316, 2, 2.2714, 4.3214, 1, 100, 2, 14, '43deff789f4810e6'),
    'IS4/0': (157.5822, 1, 0.5821999999999999, 1.7466, 0, 0, 0, 4,
              '0371a52ed8761dcc'),
    'IS4/1': (157.5822, 1, 0.5821999999999999, 1.7466, 0, 0, 0, 4,
              '32964490ab501e40'),
    'IS4/2': (157.58316, 1, 0.5821999999999999, 1.7466, 0, 0, 0, 4,
              '7632cf886ba8be55'),
    'IS5/0': (157.87016, 1, 0.8691999999999999, 2.6075999999999997, 0, 0, 0, 6,
              'b2855a214c0eaadd'),
    'IS5/1': (157.8692, 1, 0.8691999999999999, 2.6075999999999997, 0, 0, 0, 6,
              'c58b5ed23ed6ae3f'),
    'IS5/2': (157.8692, 1, 0.8691999999999999, 2.6075999999999997, 0, 0, 0, 6,
              '3434535c004ef27f'),
    'IS6/0': (309.77351999999996, 2, 1.7711999999999999, 5.313599999999999, 1,
              58, 1, 12, 'a400a9b6e6824d4f'),
    'IS6/1': (309.07216, 2, 1.7711999999999999, 5.313599999999999, 0, 0, 1, 12,
              'bccd37a8d6d10b4e'),
    'IS6/2': (310.38948, 2, 2.3861999999999997, 7.158599999999999, 1, 58, 1,
              16, '8caec96e86c3b9bb'),
    'IS7/0': (157.246, 1, 0.24599999999999997, 0.7379999999999999, 0, 0, 0, 2,
              '4f53cda18c2baa0c'),
    'IS7/1': (308.47356, 2, 1.1725999999999996, 3.5177999999999994, 0, 0, 1, 8,
              'd634a4a17e7f438d'),
    'IS7/2': (157.246, 1, 0.24599999999999997, 0.7379999999999999, 0, 0, 0, 2,
              '4f53cda18c2baa0c'),
}

#: the same tuple for k-hop queries at BENCH_CLUSTER, keyed (dataset, k,
#: start vertex)
KHOP_PINS = {
    ('lj', 2, 3670): (505.07895999999994, 3, 159.2276, 260.34999999999997, 11,
                      6750, 159, 989, 'b35212e65d9806c5'),
    ('lj', 2, 3815): (531.0685600000002, 3, 262.3918000000003,
                      591.1954000000019, 8, 10850, 258, 1628,
                      'bf64ee5486c59da2'),
    ('lj', 3, 3670): (932.5531599999972, 4, 3403.6969999999815,
                      1348.2357999999745, 27, 198050, 4944, 20691,
                      '0d782b45786546e7'),
    ('lj', 3, 3815): (1026.3683600000013, 4, 4327.279400000002,
                      1935.5526000000177, 20, 266500, 6641, 26207,
                      '3403c012235e6e43'),
}

#: FS 4-hop at BENCH_CLUSTER from vertex 30520 (Fig 9's longest query)
FS_4HOP_PIN = (14431.50776000587, 5, 184040.81640009393, 29360.181999999983,
               39, 27921450, 698558, 997192, 'd41e090d5ccbc8e3')

#: IC9 with partition 1 computing 3× slower, per parameter seed
SLOWDOWN_PINS = {
    900: (822.9686800000007, 4, 331.8622000000012, 502.9306000000021, 4, 11214,
          297, 1395, '7b0015e62a35adeb'),
    901: (976.9047999999999, 4, 745.6833999999988, 704.1094000000007, 4, 26049,
          688, 3164, 'bd097bb2497b8548'),
    902: (1012.9077599999999, 4, 795.2606000000001, 797.9338000000001, 5,
          29431, 769, 3398, '7f20e09bbc496f54'),
}

#: (qps, recorded latencies, supersteps, bsp_compute_us, bsp_idle_us,
#: packets_sent, steps_executed) of an 8-query, 3-client closed loop
CLOSED_LOOP_PIN = (
    1570.7698702054797,
    (1183.9096000000002, 1346.09336, 1786.4923199999998, 1667.0094799999995,
     2166.48488, 1723.83952, 1669.7211599999991, 1742.6494799999982),
    28,
    2053.165200000001,
    1084.9419999999977,
    32,
    12252,
)

#: (completed, engine time, supersteps, steps, bytes, per-label latencies)
#: of the tiny mixed workload replayed open-loop
OPEN_LOOP_PIN = (
    True,
    96016.6783527218,
    87,
    2208,
    15506,
    (
        ('IC2', (481.8767200000002, 599.8262246438535, 502.46343999999226)),
        ('IC7', (467.7589599999992, 473.7007999999987, 462.2306399999943)),
        ('IC8', (462.61363999999594, 468.94080000000395, 462.41311999999743,
                 309.3348799999949, 465.9515999999858, 466.633719999998,
                 463.33251999998174)),
        ('IS1', (158.02595999999994, 158.02499999999964, 301.2473005281354,
                 158.02500000000146, 158.02596000000267, 158.02500000000146,
                 158.02595999999903, 434.5429046056961, 158.02595999999903)),
        ('IS2', (316.1523200000006, 450.9631254428523, 315.62752,
                 313.11327999999776, 472.8595442380247, 313.2141599999959,
                 317.174159999995, 310.5674399999989, 313.1132799999905,
                 312.1645600000047, 310.76407999999356, 314.11703999999736,
                 311.6347199999873, 312.6959199999983, 315.0665600000066)),
        ('IS4', (157.58316000000013, 157.58316000000195, 157.58316000000195,
                 157.5821999999971, 157.58315999999468, 364.1197705053928,
                 157.58220000000438, 157.58220000000438, 157.58220000000438,
                 157.58316000000923)),
        ('UP', (12.0, 12.0, 8.0, 8.0, 12.0, 8.0, 8.0, 8.0, 8.0, 12.0, 12.0,
                12.0, 12.0, 18.0, 12.0, 6.0, 6.0, 18.0, 6.0, 8.0, 12.0, 12.0,
                12.0, 8.0, 12.0)),
    ),
)


class TestGoldenPins:
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
