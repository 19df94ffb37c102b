"""Hybrid sync/async execution — the paper's suggested extension (§VI).

The related-work discussion notes that Sync (BSP) and Async execution have
complementary strengths — the paper's own Fig 9 shows BSP winning the very
largest k-hop query while async PSTM dominates everywhere else — and
suggests that "integrating Sync mode or PowerSwitch's hybrid approach in
GraphDance could further improve the performance of long-running queries."

:class:`HybridEngine` implements that idea at query granularity:

1. estimate the query's traverser volume with the cost-based planner's
   fanout statistics (:func:`estimate_plan_work`);
2. route small/latency-bound queries to the async PSTM engine (barriers
   would dominate them) and huge bandwidth-bound queries to the BSP engine
   (bulk supersteps amortize per-traverser overhead);
3. both engines share the same partitioned graph, so results are identical
   either way — only cost changes.

The switch threshold is expressed in *estimated traverser steps*; the
default is calibrated so the Fig 9 crossover (the FS-like 4-hop query)
lands on the BSP side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.steps import (
    ExpandOp,
    FixedVertexSource,
    MinDistBranchOp,
    PhysicalOp,
    ScanSource,
)
from repro.graph.partition import PartitionedGraph
from repro.query.plan import PhysicalPlan
from repro.query.planner import GraphStats, PatternEdge
from repro.runtime.bsp import BSPEngine
from repro.runtime.cluster import ClusterConfig
from repro.runtime.costmodel import CostModel
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig, QueryResult

#: Queries estimated above this many traverser steps run under BSP. The
#: estimator counts distinct frontier vertices (memo-capped), so this sits
#: well below the raw step counts of the bandwidth-bound regime; it cleanly
#: separates the Fig 9 crossover query (FS-like 4-hop, est. ≈ 46 k) from
#: the deepest latency-bound queries (LJ-like 4-hop, est. ≈ 6.5 k).
DEFAULT_SWITCH_THRESHOLD = 30_000.0


def estimate_plan_work(plan: PhysicalPlan, stats: GraphStats,
                       graph: PartitionedGraph) -> float:
    """Rough traverser-step estimate for a compiled plan.

    Walks the operator list multiplying expansion fanouts; k-hop loops
    contribute a geometric series capped at the graph size per level (the
    distance memo bounds each level at |V| vertices). Deliberately crude —
    the switch only needs order-of-magnitude separation between
    latency-bound and bandwidth-bound queries.
    """
    count = 1.0
    total = 1.0
    n = max(graph.vertex_count, 1)
    for op in plan.ops:
        if isinstance(op, ScanSource):
            count = float(
                graph.label_counts.get(op.label, n) if op.label else n
            )
            total += count
        elif isinstance(op, MinDistBranchOp):
            # The expansion loop: fanout^k paths, memo-capped at |V| per hop.
            expand = plan.ops[op.loop_idx]
            if isinstance(expand, ExpandOp):
                fanout = stats.fanout(
                    PatternEdge(
                        "out" if expand.direction == "out" else "in",
                        expand.edge_label or "",
                    )
                )
                level = count
                for _hop in range(op.max_dist):
                    level = min(level * max(fanout, 1e-9), float(n))
                    total += level
                count = min(count + level, float(n))
        elif isinstance(op, ExpandOp):
            # Skip loop-body expands (handled by their MinDistBranch).
            if any(
                isinstance(o, MinDistBranchOp) and o.loop_idx == op.idx
                for o in plan.ops
            ):
                continue
            fanout = stats.fanout(
                PatternEdge(
                    "out" if op.direction == "out" else "in",
                    op.edge_label or "",
                )
            )
            count *= max(fanout, 1e-9)
            total += count
    return total


@dataclass
class HybridDecision:
    """One routing decision, for introspection and tests."""

    plan_name: str
    estimated_steps: float
    engine: str  # "async" | "bsp"


class HybridEngine:
    """Route each query to async PSTM or BSP by estimated volume."""

    def __init__(
        self,
        graph: PartitionedGraph,
        cluster: ClusterConfig,
        cost_model: Optional[CostModel] = None,
        config: Optional[EngineConfig] = None,
        switch_threshold: float = DEFAULT_SWITCH_THRESHOLD,
        stats: Optional[GraphStats] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.switch_threshold = switch_threshold
        self.stats = stats or GraphStats.from_partitioned(graph)
        self.async_engine = AsyncPSTMEngine(
            graph,
            cluster.nodes,
            cluster.workers_per_node,
            hardware=cluster.hardware,
            cost_model=cost_model,
            config=config or EngineConfig(name="hybrid/async"),
            seed=seed,
        )
        self.bsp_engine = BSPEngine(
            graph,
            cluster.nodes,
            cluster.workers_per_node,
            hardware=cluster.hardware,
            cost_model=cost_model,
            config=EngineConfig(name="hybrid/bsp"),
        )
        self.decisions: List[HybridDecision] = []

    def choose(self, plan: PhysicalPlan) -> HybridDecision:
        """The routing decision for a plan (recorded for inspection)."""
        estimate = estimate_plan_work(plan, self.stats, self.graph)
        engine = "bsp" if estimate >= self.switch_threshold else "async"
        decision = HybridDecision(plan.name, estimate, engine)
        self.decisions.append(decision)
        return decision

    def run(
        self, plan: PhysicalPlan, params: Optional[Dict[str, Any]] = None
    ) -> QueryResult:
        """Route the query and run it to completion."""
        decision = self.choose(plan)
        if decision.engine == "bsp":
            return self.bsp_engine.run(plan, params)
        return self.async_engine.run(plan, params)
