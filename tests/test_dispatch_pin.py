"""Dispatched-step pins for the two k-hop plans of the spine benchmark.

The paper's Fig 1 top-10 and the 3-hop count run their k-hop loop with
the branch's exit chain (Dedup, Filter, Project, count absorption) inside
the branch's own step: no exit traverser is ever dispatched. These pins
fix the exact number of dispatched steps, in total and per operator
(``op_steps - op_inlined``), on one partition and on four, on both
kernels. A change to how exit links are run or priced must not make a
single extra step dispatch.
"""

import pytest

from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from tests.conftest import KERNELS


def fig1():
    return (
        Traversal("fig1_top10").v_param("start").khop("knows", k=3)
        .filter_(X.vertex().neq(X.param("start")))
        .values("influence", "weight").as_("person")
        .select("person", "influence")
        .order_by((X.binding("influence"), "desc"),
                  (X.binding("person"), "asc"))
        .limit(10)
    )


def count():
    return Traversal("khop3_count").v_param("start").khop("knows", k=3).count()


#: plan -> (steps_executed, {op_idx: dispatched}): the source, the
#: branch, the loop's Expand and, for Fig 1, the Collect barrier
PINS = {
    "fig1": (1755, {0: 1, 2: 1255, 3: 152, 8: 347}),
    "count": (1408, {0: 1, 2: 1255, 3: 152}),
}


@pytest.fixture(scope="module")
def raw():
    return powerlaw_graph(PowerLawConfig("pin-pl", 400, 6.0), seed=5)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("layout", [(1, 1, 1), (4, 2, 2)],
                         ids=["1-partition", "4-partitions"])
@pytest.mark.parametrize("name", sorted(PINS))
def test_khop_plans_dispatch_the_pinned_steps(raw, name, layout, kernel):
    partitions, nodes, wpn = layout
    graph = PartitionedGraph.from_graph(raw, partitions)
    plan = {"fig1": fig1, "count": count}[name]().compile(graph, fuse=True)
    engine = AsyncPSTMEngine(graph, nodes, wpn,
                             config=EngineConfig(kernel=kernel))
    session = engine.submit(plan, {"start": 3})
    engine.clock.run_until_idle()
    dispatched = {
        idx: n - session.op_inlined.get(idx, 0)
        for idx, n in session.op_steps.items()
    }
    steps, per_op = PINS[name]
    assert engine.metrics.steps_executed == steps
    assert session.qmetrics.steps_executed == steps
    assert {i: n for i, n in dispatched.items() if n} == per_op
    if name == "count":
        assert session.results == [348]
    else:
        assert len(session.results) == 10
