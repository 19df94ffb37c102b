"""Shared benchmark infrastructure: cached datasets, the Fig 1 k-hop query,
the demo graph, engine construction, and k-hop measurement helpers.

Datasets and partitioned graphs are cached per process so the benchmark
suite generates each graph once. Partitioned graphs are read-only during
execution, so engines may share them.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.datasets.synthetic import (
    FRIENDSTER_LIKE,
    LIVEJOURNAL_LIKE,
    PowerLawConfig,
    powerlaw_graph,
)
from repro.graph.partition import PartitionedGraph
from repro.graph.property_graph import PropertyGraph
from repro.ldbc.generator import (
    SNB_SF1000_SIM,
    SNB_SF300_SIM,
    SNBDataset,
    generate_snb,
)
from repro.query.exprs import X
from repro.query.plan import PhysicalPlan
from repro.query.traversal import Traversal
from repro.runtime.cluster import ClusterConfig
from repro.runtime.costmodel import CostModel, HardwareProfile
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.variants import (
    make_banyan,
    make_bsp,
    make_gaia,
    make_graphdance,
    make_graphscope,
    make_non_partitioned,
)

#: Default simulated cluster for the benchmark suite. Smaller than the
#: paper's 8×16 testbed so the pure-Python simulation stays tractable; the
#: scalability experiments sweep nodes/workers explicitly.
BENCH_CLUSTER = ClusterConfig(nodes=4, workers_per_node=4)

KHOP_START_SEED = 997


# -- cached datasets -----------------------------------------------------------


@lru_cache(maxsize=None)
def snb_dataset(name: str) -> SNBDataset:
    config = {"sf300": SNB_SF300_SIM, "sf1000": SNB_SF1000_SIM}[name]
    return generate_snb(config)


@lru_cache(maxsize=None)
def snb_graph(name: str, partitions: int) -> PartitionedGraph:
    return snb_dataset(name).partitioned(partitions)


@lru_cache(maxsize=None)
def powerlaw_raw(name: str) -> PropertyGraph:
    config = {"lj": LIVEJOURNAL_LIKE, "fs": FRIENDSTER_LIKE}[name]
    return powerlaw_graph(config, seed=13)


@lru_cache(maxsize=None)
def powerlaw_partitioned(name: str, partitions: int) -> PartitionedGraph:
    return PartitionedGraph.from_graph(powerlaw_raw(name), partitions)


# -- the Fig 1 k-hop query -------------------------------------------------------


def khop_traversal(k: int, edge_label: str = "knows") -> Traversal:
    """The paper's Fig 1 query: top-10 most weighted vertices within k hops."""
    return (
        Traversal(f"khop{k}")
        .v_param("start")
        .khop(edge_label, k=k)
        .filter_(X.vertex().neq(X.param("start")))
        .values("w", "weight")
        .as_("vid")
        .select("vid", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("vid"), "asc"))
        .limit(10)
    )


@lru_cache(maxsize=None)
def khop_plan(name: str, partitions: int, k: int) -> PhysicalPlan:
    graph = powerlaw_partitioned(name, partitions)
    return khop_traversal(k).compile(graph)


def khop_starts(name: str, count: int) -> List[int]:
    """Deterministic start vertices (the paper samples 100; we default to
    fewer for simulation-time budget — same vertices for every engine)."""
    graph = powerlaw_raw(name)
    rng = random.Random(KHOP_START_SEED)
    return [rng.randrange(graph.vertex_count) for _ in range(count)]


# -- the demo graph ---------------------------------------------------------------

#: the small cluster of the faults and trace demos and of the recovery and
#: preemption benches
DEMO_NODES, DEMO_WPN = 4, 2
#: their 400-vertex power-law graph (generated with :data:`DEMO_GRAPH_SEED`)
DEMO_GRAPH = PowerLawConfig("demo", 400, 6.0)
DEMO_GRAPH_SEED = 7


def demo_graph() -> PartitionedGraph:
    """The demo graph, one partition per worker of the demo cluster."""
    return PartitionedGraph.from_graph(
        powerlaw_graph(DEMO_GRAPH, seed=DEMO_GRAPH_SEED), DEMO_NODES * DEMO_WPN
    )


def demo_khop3_batch(
    queries: int,
) -> Tuple[PartitionedGraph, PhysicalPlan, List[int]]:
    """The faults and trace demos' batch: the demo graph, a 3-hop count
    plan over it, and ``queries`` start vertices drawn from
    ``Random(42)``."""
    graph = demo_graph()
    plan = (
        Traversal("khop3_count")
        .v_param("start")
        .khop(DEMO_GRAPH.edge_label, k=3)
        .count()
        .compile(graph)
    )
    rng = random.Random(42)
    return graph, plan, [
        rng.randrange(DEMO_GRAPH.num_vertices) for _ in range(queries)
    ]


# -- engine construction ---------------------------------------------------------


ENGINE_KINDS = (
    "graphdance",
    "bsp",
    "non-partitioned",
    "banyan",
    "gaia",
)


def build_engine(
    kind: str,
    name: str,
    cluster: ClusterConfig,
    cost_model: Optional[CostModel] = None,
    config: Optional[EngineConfig] = None,
    dataset_kind: str = "powerlaw",
):
    """Construct an engine over the named cached dataset.

    ``dataset_kind`` selects the graph cache: "powerlaw" (lj/fs) or "snb"
    (sf300/sf1000).
    """
    def graph(partitions: int) -> PartitionedGraph:
        if dataset_kind == "snb":
            return snb_graph(name, partitions)
        return powerlaw_partitioned(name, partitions)

    if kind == "graphdance":
        return make_graphdance(graph(cluster.num_partitions), cluster, cost_model, config)
    if kind == "bsp":
        return make_bsp(graph(cluster.num_partitions), cluster, cost_model)
    if kind == "non-partitioned":
        return make_non_partitioned(graph(cluster.nodes), cluster, cost_model)
    if kind == "banyan":
        return make_banyan(graph(cluster.num_partitions), cluster, cost_model)
    if kind == "gaia":
        return make_gaia(graph(cluster.num_partitions), cluster, cost_model)
    raise ValueError(f"unknown engine kind {kind!r}")


def run_khop_avg(
    engine: Any,
    name: str,
    k: int,
    starts: Iterable[int],
) -> float:
    """Average simulated k-hop latency (ms) over the given start vertices."""
    partitions = engine.graph.num_partitions
    plan = khop_plan(name, partitions, k)
    total = 0.0
    count = 0
    for start in starts:
        result = engine.run(plan, {"start": start})
        total += result.latency_ms
        count += 1
    return total / max(count, 1)
