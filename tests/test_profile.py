"""Tests for EXPLAIN ANALYZE (per-operator execution profiles)."""

import pytest

from repro.core import steps as phys
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine
from tests.conftest import build_diamond, random_graph

NODES, WPN = 2, 2


@pytest.fixture
def graph():
    return random_graph(n=100, degree=4, partitions=NODES * WPN, seed=12)


def khop_plan(graph, k=3):
    return (
        Traversal("khop").v_param("s").khop("knows", k=k)
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
        .limit(5)
    ).compile(graph)


class TestProfile:
    def test_counts_sum_to_total_steps(self, graph):
        """``op_steps`` counts executions; the ones that ran inside their
        emitting step (inlined links) are no kernel steps."""
        plan = khop_plan(graph)
        engine = AsyncPSTMEngine(graph, NODES, WPN)
        profile = engine.profile(plan, {"s": 1})
        dispatched = sum(profile.dispatched_of(op.idx) for op in plan.ops)
        assert dispatched == profile.metrics.steps_executed
        # the location-free projections, and the k-hop exit chain (the
        # vertex Dedup, the vertex-reading projection and absorption into
        # the Collect) in the branch's step
        assert set(profile.op_inlined) == {
            op.idx for op in plan.ops
            if isinstance(op, (phys.ProjectOp, phys.DedupOp,
                               phys.CollectAgg))}
        assert "inlined=" in profile.render()

    def test_rows_match_plain_run(self, graph):
        plan = khop_plan(graph)
        profiled = AsyncPSTMEngine(graph, NODES, WPN).profile(plan, {"s": 1})
        plain = AsyncPSTMEngine(graph, NODES, WPN).run(plan, {"s": 1})
        assert profiled.rows == plain.rows

    def test_expand_is_the_hot_operator(self, graph):
        plan = khop_plan(graph)
        profile = AsyncPSTMEngine(graph, NODES, WPN).profile(plan, {"s": 1})
        hottest = profile.hottest(2)
        hot_ops = {type(plan.ops[i]) for i in hottest}
        # the k-hop loop (expand + memo branch) dominates execution
        assert hot_ops & {phys.ExpandOp, phys.MinDistBranchOp}

    def test_dedup_prunes_are_visible(self):
        graph = build_diamond()
        plan = (
            Traversal("t").v_param("s").out("knows").out("knows").dedup()
            .as_("v").select("v")
        ).compile(graph)
        engine = AsyncPSTMEngine(graph, 2, 2)
        profile = engine.profile(plan, {"s": 0})
        dedup_idx = next(i for i, op in enumerate(plan.ops)
                         if isinstance(op, phys.DedupOp))
        # two paths reach vertex 3; dedup executes twice, passes once: its
        # one survivor is collected inside the dedup's step
        assert profile.steps_of(dedup_idx) == 2
        assert profile.op_inlined[plan.stages[0].barrier_idx] == 1

    def test_render_lists_every_operator(self, graph):
        plan = khop_plan(graph)
        profile = AsyncPSTMEngine(graph, NODES, WPN).profile(plan, {"s": 1})
        text = profile.render()
        for op in plan.ops:
            assert f"[{op.idx:>2}]" in text
        assert "executed=" in text and "spawned=" in text

    def test_barrier_absorptions_counted(self, graph):
        plan = khop_plan(graph)
        profile = AsyncPSTMEngine(graph, NODES, WPN).profile(plan, {"s": 1})
        barrier_idx = plan.stages[-1].barrier_idx
        # every surviving traverser is absorbed by the collector
        assert profile.steps_of(barrier_idx) > 0
        assert profile.spawned_of(barrier_idx) == 0
