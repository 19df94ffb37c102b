"""Shared fixtures: small graphs, step-context factories, and the seeded
engine-run helpers used by the fault / overload / trace suites."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

import pytest

from repro.core.memo import MemoStore
from repro.core.steps import StepContext
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.config import KERNEL_NAMES
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig

#: every ``EngineConfig.kernel`` value: the axis the equivalence suites
#: parametrize over (production run kernel vs the scalar oracle)
KERNELS = list(KERNEL_NAMES)


def build_diamond(partitions: int = 4) -> PartitionedGraph:
    """The Fig 4 style example graph: 0→{1,2}, 1→3, 2→3, 3→4, plus weights."""
    b = GraphBuilder("person")
    weights = {0: 50, 1: 10, 2: 20, 3: 30, 4: 40}
    for v, w in weights.items():
        b.vertex(v, "person", weight=w, name=f"p{v}")
    for src, dst in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]:
        b.edge(src, dst, "knows")
    return PartitionedGraph.from_graph(b.build(), partitions)


def random_graph(
    n: int = 60,
    degree: int = 4,
    partitions: int = 4,
    seed: int = 0,
    label: str = "person",
    edge_label: str = "knows",
) -> PartitionedGraph:
    rng = random.Random(seed)
    b = GraphBuilder(label)
    for v in range(n):
        b.vertex(v, label, weight=rng.randint(1, 100))
    for v in range(n):
        for _ in range(degree):
            u = rng.randrange(n)
            if u != v:
                b.edge(v, u, edge_label)
    return PartitionedGraph.from_graph(b.build(), partitions)


class ContextFactory:
    """Builds StepContexts over a partitioned graph for direct op tests."""

    def __init__(self, graph: PartitionedGraph, params: Optional[Dict[str, Any]] = None,
                 query_id: int = 0) -> None:
        self.graph = graph
        self.params = params or {}
        self.query_id = query_id
        self.memo_stores = [MemoStore(p) for p in range(graph.num_partitions)]

    def ctx(self, pid: int) -> StepContext:
        return StepContext(
            self.graph.stores[pid],
            self.memo_stores[pid].for_query(self.query_id),
            self.graph.partitioner,
            self.params,
        )

    def ctx_of_vertex(self, vid: int) -> StepContext:
        return self.ctx(self.graph.partition_of(vid))


# -- seeded engine-run helpers (shared by test_faults, test_trace_audit) ----
#
# make_graph's exact construction (labels "v"/"e", weight range 1-50) is
# part of the fault suites' contract: the seeds that make low fault rates
# actually fire were chosen against these graphs. Do not merge it with
# random_graph above.

FAULT_NODES, FAULT_WPN = 2, 2


def make_graph(seed: int, n: int = 200, degree: int = 8,
               partitions: int = 4) -> PartitionedGraph:
    """A seeded random graph in the fault suites' shape (labels v/e)."""
    rng = random.Random(seed)
    b = GraphBuilder("v")
    for v in range(n):
        b.vertex(v, "v", weight=rng.randint(1, 50))
    for v in range(n):
        for _ in range(degree):
            u = rng.randrange(n)
            if u != v:
                b.edge(v, u, "e")
    return PartitionedGraph.from_graph(b.build(), partitions)


def khop3_count(graph: PartitionedGraph):
    """The acceptance microbenchmark plan compiled against ``graph``."""
    return (Traversal("khop3_count").v_param("s").khop("e", k=3).count()
            .compile(graph))


def run_one(graph, plan, params, config=None, nodes=FAULT_NODES,
            wpn=FAULT_WPN):
    """Run one query on a fresh engine; returns ``(engine, result)``."""
    engine = AsyncPSTMEngine(graph, nodes, wpn, config=config or EngineConfig())
    return engine, engine.run(plan, params)


def run_batch(graph, plan, param_list, config=None, nodes=FAULT_NODES,
              wpn=FAULT_WPN):
    """Submit many queries into one engine run; more packets in flight
    means low fault rates actually fire."""
    engine = AsyncPSTMEngine(graph, nodes, wpn, config=config or EngineConfig())
    sessions = [engine.submit(plan, p) for p in param_list]
    engine.clock.run_until_idle()
    return engine, sessions


@pytest.fixture(scope="session")
def soak_graph():
    """The 400-vertex / 8-partition soak graph shared by the overload,
    delivery-reclaim, and trace suites (built once per session; engines
    never mutate the partitioned stores)."""
    return random_graph(n=400, degree=6, partitions=8, seed=17)


@pytest.fixture
def diamond():
    return build_diamond()


@pytest.fixture
def diamond_ctx(diamond):
    return ContextFactory(diamond)
