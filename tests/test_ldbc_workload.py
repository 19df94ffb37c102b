"""Tests for LDBC updates and the mixed-workload driver (Fig 7 machinery)."""

import random

import pytest

from repro.graph.partition import HashPartitioner
from repro.ldbc import schema as S
from repro.ldbc import workload
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.ldbc.queries.updates import UP_QUERIES, UpdateContext
from repro.ldbc.workload import (
    MixedWorkloadResult,
    WorkloadConfig,
    build_schedule,
    run_mixed_workload,
)
from repro.runtime.bsp import BSPEngine
from repro.runtime.engine import AsyncPSTMEngine
from repro.txn.manager import TransactionManager

NODES, WPN = 2, 2


@pytest.fixture(scope="module")
def dataset():
    return generate_snb(SNB_TINY)


@pytest.fixture(scope="module")
def graph(dataset):
    return dataset.partitioned(NODES * WPN)


TINY_WORKLOAD = WorkloadConfig(
    tcr=0.5,
    duration_s=0.1,
    ic_rate=30.0,
    is_rate=60.0,
    up_rate=120.0,
    include_ic=(2, 7, 8),
    include_is=(1, 2, 4),
    seed=5,
)


class TestUpdates:
    @pytest.mark.parametrize("number", sorted(UP_QUERIES))
    def test_each_update_applies_and_commits(self, dataset, number):
        txm = TransactionManager(HashPartitioner(8))
        ctx = UpdateContext(dataset)
        udef = UP_QUERIES[number]
        rng = random.Random(number)
        before = txm.commits
        udef.apply(txm, udef.make_params(ctx, rng))
        assert txm.commits > before
        assert txm.aborts == 0

    def test_add_like_visible_in_snapshot(self, dataset):
        txm = TransactionManager(HashPartitioner(8))
        ctx = UpdateContext(dataset)
        udef = UP_QUERIES[2]
        params = udef.make_params(ctx, random.Random(1))
        udef.apply(txm, params)
        txm.broadcast_lct([0])
        reader = txm.begin_readonly(0)
        likes = txm.neighbors(reader, params["person"], "out", S.LIKES)
        assert params["message"] in likes

    def test_unlike_leaves_no_live_edge(self, dataset):
        txm = TransactionManager(HashPartitioner(8))
        ctx = UpdateContext(dataset)
        udef = UP_QUERIES[7]
        params = udef.make_params(ctx, random.Random(2))
        udef.apply(txm, params)
        txm.broadcast_lct([0])
        reader = txm.begin_readonly(0)
        likes = txm.neighbors(reader, params["person"], "out", S.LIKES)
        assert params["message"] not in likes

    def test_update_context_allocates_fresh_ids(self, dataset):
        ctx = UpdateContext(dataset)
        v1, v2 = ctx.new_vertex_id(), ctx.new_vertex_id()
        assert v1 != v2
        assert v1 > dataset.graph.vertex_count
        assert ctx.new_edge_id() != ctx.new_edge_id()


class TestSchedule:
    def test_deterministic(self, dataset, graph):
        a = build_schedule(dataset, graph, TINY_WORKLOAD)
        b = build_schedule(dataset, graph, TINY_WORKLOAD)
        assert [(x.time_us, x.label) for x in a] == \
            [(x.time_us, x.label) for x in b]

    def test_sorted_by_time(self, dataset, graph):
        schedule = build_schedule(dataset, graph, TINY_WORKLOAD)
        times = [a.time_us for a in schedule]
        assert times == sorted(times)

    def test_contains_all_stream_kinds(self, dataset, graph):
        schedule = build_schedule(dataset, graph, TINY_WORKLOAD)
        labels = {a.label for a in schedule}
        assert any(l.startswith("IC") for l in labels)
        assert any(l.startswith("IS") for l in labels)
        assert any(l.startswith("UP") for l in labels)

    def test_lower_tcr_means_more_arrivals(self, dataset, graph):
        import dataclasses

        fast = dataclasses.replace(TINY_WORKLOAD, tcr=0.05)
        a = build_schedule(dataset, graph, TINY_WORKLOAD)
        b = build_schedule(dataset, graph, fast)
        assert len(b) > len(a)


class TestMixedRuns:
    def test_async_run_completes(self, dataset, graph):
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        result = run_mixed_workload(engine, dataset, TINY_WORKLOAD)
        assert result.completed
        assert result.labels()
        for label in result.labels():
            rec = result.per_type[label]
            assert len(rec) > 0
            assert rec.average() > 0

    def test_bsp_run_completes(self, dataset, graph):
        engine = BSPEngine(graph, NODES, WPN)
        result = run_mixed_workload(engine, dataset, TINY_WORKLOAD)
        assert result.completed
        assert any(l.startswith("IC") for l in result.labels())

    def test_overload_marks_dnf(self, dataset, graph):
        import dataclasses

        engine = BSPEngine(graph, NODES, WPN)
        config = dataclasses.replace(
            TINY_WORKLOAD, tcr=0.001, overload_cap=4, duration_s=0.05
        )
        result = run_mixed_workload(engine, dataset, config)
        assert not result.completed
        assert "in flight" in result.failure_reason

    def test_result_helpers(self):
        result = MixedWorkloadResult("e", 3.0, True)
        result.recorder("IC1").record(2000.0)
        result.recorder("IS2").record(500.0)
        assert result.avg_ms("IC1") == 2.0
        assert result.p99_ms("IS2") == 0.5
        assert result.labels() == ["IC1", "IS2"]

    def test_deltas_land_on_the_graphs_owner(self, dataset, monkeypatch):
        """Without a transaction plane run_mixed_workload's own manager routes
        writes by the graph's placement, not a private hash: every
        committed delta sits in its vertex's stratified home, including
        vertices whose home is not their hash."""
        graph = dataset.partitioned(NODES * WPN)
        placement = graph.partitioner
        hashed = HashPartitioner(graph.num_partitions)
        managers = []

        class Recording(TransactionManager):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                managers.append(self)

        monkeypatch.setattr(workload, "TransactionManager", Recording)
        config = WorkloadConfig(tcr=1.0, duration_s=0.1, ic_rate=0.0,
                                is_rate=0.0, up_rate=400.0, include_ic=(),
                                include_is=(), seed=3)
        run_mixed_workload(AsyncPSTMEngine(graph, NODES, WPN), dataset, config)
        (txm,) = managers
        assert txm.commits > 0
        owners = {}
        for state in txm.partitions:
            for vid, _direction, _label in state.tel._logs:
                owners.setdefault(vid, set()).add(state.pid)
            for vid, _key in state.props._versions:
                owners.setdefault(vid, set()).add(state.pid)
        assert any(placement(vid) != hashed(vid) for vid in owners)
        for vid, pids in owners.items():
            assert pids == {placement(vid)}, vid
