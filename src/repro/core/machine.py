"""The PSTM step executor: one operator application, weight-correct.

:class:`PSTMMachine` is the engine-agnostic kernel shared by every runtime:
it executes a traverser's current operator against a partition-local
:class:`~repro.core.steps.StepContext`, runs the location-free
Filter/Project links its children enter (:class:`InlineLinks`), splits the
progression weight among the surviving children (or reports it finished),
and computes each child's routing target. Engines differ only in *when*
and *where* they call this kernel and how they move the produced
traversers around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.steps import (
    ChildSpec,
    FilterOp,
    OpCost,
    PhysicalOp,
    ProjectOp,
    StepContext,
)
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


#: One inlined link: ``(op_idx, predicate, assignments, props)`` — a
#: Filter carries its predicate (assignments None), a Project its
#: assignments (predicate None); ``props`` is the link's price.
Link = Tuple[int, Any, Any, int]


def _link(op: PhysicalOp) -> Optional[Link]:
    """``op`` as an inlinable link, or None when it must be dispatched."""
    if op.routing_mode != "free":
        return None
    if type(op) is FilterOp:
        return (op.idx, op.predicate, None, 1)
    if type(op) is ProjectOp:
        return (op.idx, None, op.assignments, len(op.assignments))
    return None


class InlineLinks:
    """A plan's location-free Filter/Project links, run inside the step
    that emits their input.

    A location-free op (``routing_mode == "free"``: a Filter or Project
    whose expressions read only the traverser's payload, vertex id, loop
    counter and the query parameters) is a pure function of the traverser,
    so dispatching it as its own step buys nothing but a queue round trip
    and, through the routing fallback, a hop to the vertex's owner. When
    an op emits a child into such a link, the emitting step evaluates the
    link — and every such link chained after it — before the child is
    built: a failed filter drops the child before the weight split, a
    project rewrites the payload, and the survivor targets the first
    non-inlinable op and is routed as that op demands.

    Pricing: each evaluated link adds its props (Filter 1, Project
    ``len(assignments)``) to the emitting traverser's cost tuple and no
    dispatch cost. ``op_steps`` counts the link's executions and
    ``op_inlined`` how many of them ran inline; ``steps_executed`` counts
    dispatched steps only.

    ``chains[i]`` is ``(links, target)`` for an inlinable op ``i`` (None
    otherwise); ``emits[i]`` says whether op ``i`` can emit into one at
    all, so runs of ops that never do skip the per-child check.
    """

    __slots__ = ("chains", "emits")

    def __init__(self, ops: List[PhysicalOp]) -> None:
        links = [_link(op) for op in ops]
        chains: List[Optional[Tuple[Tuple[Link, ...], int]]] = []
        for idx, link in enumerate(links):
            chain: List[Link] = []
            j = idx
            while links[j] is not None and j not in [c[0] for c in chain]:
                chain.append(links[j])
                j = ops[j].next_idx
            chains.append((tuple(chain), j) if chain else None)
        self.chains = chains
        self.emits = [
            any(0 <= j < len(ops) and links[j] is not None
                for j in op.successors())
            for op in ops
        ]

    def run(
        self,
        ctx: StepContext,
        spec_rows: List[List[ChildSpec]],
        costs: List[Tuple[int, int, int, int]],
        op_steps: Optional[Dict[int, int]] = None,
        op_inlined: Optional[Dict[int, int]] = None,
    ) -> Tuple[List[List[ChildSpec]], List[Tuple[int, int, int, int]]]:
        """The children rows and cost tuples of one run of steps with
        their inlined links applied (rows without such a child are passed
        through as they are)."""
        chains = self.chains
        # the one traverser the links read (expressions see its vertex,
        # payload and loop counter)
        probe = Traverser(-1, -1, -1, (), 0)
        rows: List[List[ChildSpec]] = []
        priced: List[Tuple[int, int, int, int]] = []
        repriced: Dict[Tuple[Any, int], Tuple[int, int, int, int]] = {}
        counts: Dict[int, int] = {}
        for specs, ct in zip(spec_rows, costs):
            kept: Optional[List[ChildSpec]] = None
            extra = 0
            for k, spec in enumerate(specs):
                entry = chains[spec[1]]
                if entry is None:
                    if kept is not None:
                        kept.append(spec)
                    continue
                if kept is None:
                    kept = specs[:k]
                vertex, _, payload, loops = spec
                probe.vertex = vertex
                probe.payload = payload
                probe.loops = loops
                links, target = entry
                for idx, predicate, assignments, props in links:
                    extra += props
                    counts[idx] = counts.get(idx, 0) + 1
                    if predicate is not None:
                        if not predicate(ctx, probe):
                            break
                    else:
                        pl = list(payload)
                        for slot, expr in assignments:
                            pl[slot] = expr(ctx, probe)
                        payload = probe.payload = tuple(pl)
                else:
                    kept.append((vertex, target, payload, loops))
            if kept is None:
                rows.append(specs)
                priced.append(ct)
                continue
            rows.append(kept)
            key = (ct, extra)
            new_ct = repriced.get(key)
            if new_ct is None:
                new_ct = repriced[key] = (ct[0], ct[1], ct[2], ct[3] + extra)
            priced.append(new_ct)
        for tally in (op_steps, op_inlined):
            if tally is not None:
                for idx, n in counts.items():
                    tally[idx] = tally.get(idx, 0) + n
        return rows, priced


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
        self._inline: Optional[InlineLinks] = None

    def inline_links(self) -> InlineLinks:
        """The plan's :class:`InlineLinks`, built once beside the route
        table and shared the same way."""
        inline = self._inline
        if inline is None:
            inline = self._inline = InlineLinks(self.plan.ops)
        return inline

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
        self,
        ctx: StepContext,
        trav: Traverser,
        rng: random.Random,
        op_steps: Optional[Dict[int, int]] = None,
        op_inlined: Optional[Dict[int, int]] = None,
    ) -> ExecResult:
        """Run ``trav``'s current op and the links its children enter;
        split or finish its weight.

        The caller must have placed ``trav`` on the partition demanded by
        :meth:`route` — ops assume their data is local. Inlined link
        executions are added to ``op_steps`` / ``op_inlined`` when given.
        """
        op = self.plan.ops[trav.op_idx]
        outcome = op.apply(ctx, trav)
        specs = outcome.children
        inline = self.inline_links()
        if specs and inline.emits[trav.op_idx]:
            rows, costs = inline.run(
                ctx, [specs], [(0, 0, 0, 0)], op_steps, op_inlined
            )
            specs = rows[0]
            outcome.cost.props += costs[0][3]
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
