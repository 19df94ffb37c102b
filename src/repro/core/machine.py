"""The PSTM step executor: one operator application, weight-correct.

:class:`PSTMMachine` is the engine-agnostic kernel shared by every runtime:
it executes a traverser's current operator against a partition-local
:class:`~repro.core.steps.StepContext`, splits the progression weight among
the children (or reports it finished), and computes each child's routing
target. Engines differ only in *when* and *where* they call this kernel and
how they move the produced traversers around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.steps import OpCost, PhysicalOp, StepContext
from repro.core.traverser import Traverser
from repro.core.weight import split_weight
from repro.errors import ExecutionError
from repro.graph.placement import Placement
from repro.query.plan import PhysicalPlan


@dataclass
class ExecResult:
    """Outcome of executing one traverser for one step.

    ``children`` pairs each spawned traverser with its routing target: the
    partition id where its next op must run, or ``None`` when the op is
    location-free (the engine keeps it local).
    """

    children: List[Tuple[Traverser, Optional[int]]]
    finished_weight: int
    cost: OpCost
    op: PhysicalOp


def resolve_partition(
    trav: Traverser, partitioner: Placement, routed: Optional[int]
) -> int:
    """The partition a traverser should execute on.

    ``routed`` is the op's own routing demand (``h_ψ``); when the op is
    location-free, fall back to the home of the current vertex. Seed
    traversers for broadcast sources encode their designated partition as
    ``vertex = -pid - 1``; other vertex-less traversers (stage reseeds) run
    on partition 0.
    """
    if routed is not None:
        return routed
    if trav.vertex >= 0:
        return partitioner(trav.vertex)
    return min(-trav.vertex - 1, partitioner.num_partitions - 1)


class PSTMMachine:
    """Stateless step executor over one compiled plan.

    ``barrier_route`` forces all aggregation traversers to one partition —
    the centralized result aggregation of GAIA-like engines the paper
    contrasts with PSTM's partition-local partials (§V-B).

    ``stay_local`` is the superstep schedule's routing rule: a child whose
    op names no partition (a ``"free"`` op) stays on the partition that
    made it, instead of moving to its vertex's owner. (The one
    ``"custom"`` route that can return None is a fixed-vertex source's,
    and sources are seeded, never spawned.)
    """

    def __init__(
        self,
        plan: PhysicalPlan,
        partitioner: Placement,
        barrier_route: Optional[int] = None,
        stay_local: bool = False,
    ) -> None:
        self.plan = plan
        self.partitioner = partitioner
        self.barrier_route = barrier_route
        self.stay_local = stay_local
        self._route_info: Optional[List[Tuple[int, str, PhysicalOp]]] = None

    def route_info(self) -> List[Tuple[int, str, PhysicalOp]]:
        """Per-op ``(stage, routing mode, op)`` table, indexed by op_idx.

        Modes are the ops' own (``"vertex"``, ``"free"``, ``"custom"``),
        ``"fixed"`` for barrier ops under ``barrier_route``, and
        ``"local"`` for free ops under ``stay_local``. The plan is
        immutable after compilation and the policy is fixed at
        construction, so this is computed once and shared by every run
        drain that executes this plan. (:meth:`route` places seeds, which
        have no making partition, and ignores ``stay_local``.)
        """
        info = self._route_info
        if info is None:
            info = []
            for op in self.plan.ops:
                if op.is_barrier and self.barrier_route is not None:
                    mode = "fixed"
                elif self.stay_local and op.routing_mode == "free":
                    mode = "local"
                else:
                    mode = op.routing_mode
                info.append((op.stage, mode, op))
            self._route_info = info
        return info

    def route(self, trav: Traverser) -> Optional[int]:
        """Partition where ``trav`` must run its current op (or None)."""
        op = self.plan.ops[trav.op_idx]
        if op.is_barrier and self.barrier_route is not None:
            return self.barrier_route
        return op.routing(self.partitioner, trav)

    def execute(
        self, ctx: StepContext, trav: Traverser, rng: random.Random
    ) -> ExecResult:
        """Run ``trav``'s current op; split or finish its weight.

        The caller must have placed ``trav`` on the partition demanded by
        :meth:`route` — ops assume their data is local.
        """
        op = self.plan.ops[trav.op_idx]
        outcome = op.apply(ctx, trav)
        specs = outcome.children
        if not specs:
            return ExecResult([], trav.weight, outcome.cost, op)
        weights = split_weight(trav.weight, len(specs), rng)
        children: List[Tuple[Traverser, Optional[int]]] = []
        for (vertex, op_idx, payload, loops), weight in zip(specs, weights):
            if op_idx < 0 or op_idx >= len(self.plan.ops):
                raise ExecutionError(
                    f"op {op.name} produced child with bad target index {op_idx}"
                )
            child = Traverser(
                query_id=trav.query_id,
                vertex=vertex,
                op_idx=op_idx,
                payload=payload,
                weight=weight,
                stage=self.plan.ops[op_idx].stage,
                loops=loops,
            )
            children.append((child, self.route(child)))
        return ExecResult(children, 0, outcome.cost, op)
