"""The PSTM step executor: one operator application, weight-correct.

:class:`PSTMMachine` is the engine-agnostic kernel shared by every runtime:
it executes a traverser's current operator against a partition-local
:class:`~repro.core.steps.StepContext`, runs the links its children enter
inside the same step (:class:`InlineLinks`), splits the
progression weight among the surviving children (or reports it finished),
and computes each child's routing target. Engines differ only in *when*
and *where* they call this kernel and how they move the produced
traversers around.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.core.steps import (
    ChildSpec,
    CountAgg,
    DedupOp,
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


#: Link kinds: what an inlined link does to the child it receives.
FILTER, PROJECT, DEDUP, COUNT = range(4)

#: One inlined link: ``(kind, arg, memo_ops, props)``. ``arg`` is a
#: Filter's predicate, a Project's assignments, a Dedup's memo label or a
#: Count's partial label; ``memo_ops`` and ``props`` are its price.
Link = Tuple[int, Any, int, int]


class Chain(NamedTuple):
    """The links one successor of an op runs inside that op's step."""

    #: the links' op indexes, in chain order
    idxs: Tuple[int, ...]
    #: ``(kind, arg)`` per link
    steps: Tuple[Tuple[int, Any], ...]
    #: ``(memo_ops, props)`` of the links up to and including link ``j``;
    #: the last entry is the whole chain's
    prices: Tuple[Tuple[int, int], ...]
    #: the op a survivor targets; -1 when the chain ends in a count
    #: absorption
    target: int


def _link(op: PhysicalOp, mode: str, local: bool, private: bool) -> Optional[Link]:
    """``op`` (routed ``mode`` by the machine) as a link run inside the
    step that emits its input, or None when it must be dispatched.

    ``local``: the emitting step ran at the owner of the vertex the link
    receives, so vertex reads and vertex-keyed memos are local there.
    ``private``: no op but the emitting one can feed the link (each link
    up to it has exactly one predecessor).
    """
    t = type(op)
    if t is FilterOp or t is ProjectOp:
        if op.routing_mode != "free" and not local:
            return None
        if t is FilterOp:
            return (FILTER, op.predicate, 0, 1)
        return (PROJECT, op.assignments, 0, len(op.assignments))
    if not local:
        return None
    if t is DedupOp and op.routing_mode == "vertex" and private:
        return (DEDUP, op.memo_label, 1, 0)
    if t is CountAgg and mode != "fixed":
        return (COUNT, op.memo_label(), 1, 0)
    return None


def _predecessors(plan: PhysicalPlan) -> Dict[int, int]:
    """How many plan edges (jump targets and stage entries) reach each op
    index: an op with one can only be fed by that one edge."""
    refs: Dict[int, int] = {}
    edges = [j for op in plan.ops for j in set(op.successors())]
    edges += [e for stage in plan.stages for e in stage.entry_points]
    for j in edges:
        refs[j] = refs.get(j, 0) + 1
    return refs


class InlineLinks:
    """The links each op of a plan runs inside its own step, on the
    children it emits, before they are built.

    A link is a pure function of the traverser, or of partition-local
    state the emitting step already stands on, so dispatching it as its
    own step buys nothing but a queue round trip. Two kinds of successor
    chain run inline:

    * **location-free** Filter/Project links (``routing_mode == "free"``:
      they read only the payload, vertex id, loop counter and query
      parameters), after any op;
    * **vertex-preserving** links after an op that is ``"vertex"``-routed
      by the machine and whose children keep its vertex
      (:attr:`~repro.core.steps.PhysicalOp.keeps_vertex`): the child would
      be dispatched to the partition the step runs on. Such a chain may
      also hold vertex-routed Filter/Project links, a vertex-keyed Dedup
      that no other op can feed, and, last, absorption into a ``Count``
      partial whose route is not ``"fixed"``.

    A failed filter or a duplicate drops the child, an absorbed child
    bumps the count partial; either way it leaves the weight split, and
    when no child survives the parent finishes its weight. A project
    rewrites the payload, and a survivor targets the first op that is not
    a link and is routed as that op demands. The inline Dedup admits the
    same traverser a dispatched one would: a vertex-preserving child never
    leaves its partition and the local queue is FIFO, so the dispatched
    Dedup would see its inputs in emission order too.

    Pricing: each evaluated link adds its own work (Filter one prop,
    Project ``len(assignments)`` props, Dedup and Count one memo op) to
    the emitting step's cost tuple and no dispatch cost. ``op_steps``
    counts the link's executions and ``op_inlined`` how many of them ran
    inline; ``steps_executed`` counts dispatched steps only.

    ``table[i]`` maps each successor of op ``i`` that heads an inlined
    chain to its :class:`Chain`, or is None when op ``i`` inlines
    nothing, so its runs skip the per-child check. ``writes[i]`` says
    whether op ``i``'s step writes its stage's barrier partial (the
    barrier itself, or an op that absorbs into it); ``rides[s]`` whether
    stage ``s``'s partials can ride the weight reports: not when an op
    absorbs a count beside a sibling child that carries the weight on,
    since no report is then bound to follow the write on that partition.
    """

    __slots__ = ("table", "writes", "rides")

    def __init__(self, plan: PhysicalPlan,
                 route_info: List[Tuple[int, str, PhysicalOp]]) -> None:
        ops = plan.ops
        n = len(ops)
        refs = _predecessors(plan)
        table: List[Optional[Dict[int, Chain]]] = []
        writes = [op.is_barrier for op in ops]
        rides = [True] * len(plan.stages)
        for e, op in enumerate(ops):
            local = route_info[e][1] == "vertex" and op.keeps_vertex
            entries: Dict[int, Chain] = {}
            successors = set(op.successors())
            for s in successors:
                idxs: List[int] = []
                steps: List[Tuple[int, Any]] = []
                prices: List[Tuple[int, int]] = []
                memo_ops = props = 0
                private = True
                j = s
                while 0 <= j < n and j not in idxs:
                    private = private and refs.get(j, 0) == 1
                    link = _link(ops[j], route_info[j][1], local, private)
                    if link is None:
                        break
                    kind, arg, link_memo, link_props = link
                    memo_ops += link_memo
                    props += link_props
                    idxs.append(j)
                    steps.append((kind, arg))
                    prices.append((memo_ops, props))
                    j = -1 if kind == COUNT else ops[j].next_idx
                if idxs:
                    prices.append(prices[-1])
                    entries[s] = Chain(tuple(idxs), tuple(steps),
                                       tuple(prices), j)
            absorbing = [s for s, chain in entries.items() if chain.target < 0]
            if absorbing:
                writes[e] = True
                if len(absorbing) < len(successors):
                    rides[op.stage] = False
            table.append(entries or None)
        self.table = table
        self.writes = writes
        self.rides = rides

    def run(
        self,
        ctx: StepContext,
        op_idx: int,
        spec_rows: List[List[ChildSpec]],
        costs: List[Tuple[int, int, int, int]],
        op_steps: Optional[Dict[int, int]] = None,
        op_inlined: Optional[Dict[int, int]] = None,
    ) -> Tuple[List[List[ChildSpec]], List[Tuple[int, int, int, int]]]:
        """The children rows and cost tuples of one run of op ``op_idx``'s
        steps with their inlined links applied (childless rows are passed
        through as they are)."""
        table = self.table[op_idx]
        # per chain: its steps, prices, target, how many children stopped
        # at each link (the last slot: passed the whole chain), and
        # whether an expression reads the probe
        live = {s: (chain.steps, chain.prices, chain.target,
                    [0] * len(chain.prices),
                    any(kind in (FILTER, PROJECT) for kind, _ in chain.steps))
                for s, chain in table.items()}
        get = live.get
        # the one traverser the links read (expressions see its vertex,
        # payload and loop counter)
        probe = Traverser(-1, -1, -1, (), 0)
        seen_tables: Dict[str, Dict[Any, Any]] = {}
        rows: List[List[ChildSpec]] = []
        priced: List[Tuple[int, int, int, int]] = []
        rows_append = rows.append
        priced_append = priced.append
        repriced: Dict[Tuple[Any, int, int], Tuple[int, int, int, int]] = {}
        last_ct: Any = None
        last_memo = last_props = 0
        new_ct = None
        for specs, ct in zip(spec_rows, costs):
            if not specs:
                rows_append(specs)
                priced_append(ct)
                continue
            kept: List[ChildSpec] = []
            memo_ops = props = 0
            for spec in specs:
                entry = get(spec[1])
                if entry is None:
                    kept.append(spec)
                    continue
                vertex, _, payload, loops = spec
                steps, prices, target, stopped, reads = entry
                if reads:
                    probe.vertex = vertex
                    probe.payload = payload
                    probe.loops = loops
                j = 0
                for kind, arg in steps:
                    if kind == DEDUP:
                        seen = seen_tables.get(arg)
                        if seen is None:
                            seen = seen_tables[arg] = ctx.memo.table(arg)
                        if vertex in seen:
                            break
                        seen[vertex] = True
                    elif kind == COUNT:  # absorbed, tallied at its stop
                        break
                    elif kind == FILTER:
                        if not arg(ctx, probe):
                            break
                    else:
                        pl = list(payload)
                        for slot, expr in arg:
                            pl[slot] = expr(ctx, probe)
                        payload = probe.payload = tuple(pl)
                    j += 1
                else:
                    kept.append((vertex, target, payload, loops))
                stopped[j] += 1
                link_memo, link_props = prices[j]
                memo_ops += link_memo
                props += link_props
            rows_append(kept)
            # consecutive rows mostly share one price: reuse its tuple,
            # so the kernels' identity cost cache keeps hitting
            if ct is not last_ct or memo_ops != last_memo or (
                    props != last_props):
                last_ct, last_memo, last_props = ct, memo_ops, props
                key = (ct, memo_ops, props)
                new_ct = repriced.get(key)
                if new_ct is None:
                    new_ct = repriced[key] = (
                        ct[0], ct[1], ct[2] + memo_ops, ct[3] + props)
            priced_append(new_ct)
        for s, (_steps, _prices, _target, stopped, _reads) in live.items():
            chain = table[s]
            kind, arg = chain.steps[-1]
            if kind == COUNT and stopped[-2]:
                partial = ctx.memo.table(arg)
                partial["partial"] = partial.get("partial", 0) + stopped[-2]
            # link j ran for every child that stopped at it or later
            ran = stopped[-1]
            for j in range(len(chain.idxs) - 1, -1, -1):
                ran += stopped[j]
                if not ran:
                    continue
                idx = chain.idxs[j]
                for tally in (op_steps, op_inlined):
                    if tally is not None:
                        tally[idx] = tally.get(idx, 0) + ran
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
            inline = self._inline = InlineLinks(self.plan, self.route_info())
        return inline

    def partials_ride(self, stage: int) -> bool:
        """True when every write of the stage's barrier partial finishes
        weight on the writing partition, so each partition's final partial
        can ride its last weight report to the coordinator. An op that
        absorbs a count inline beside a child that carries its weight on
        makes the stage gather its partials after the ledger closes."""
        return self.inline_links().rides[stage]

    def partial_writers(self, stage: int) -> Tuple[int, ...]:
        """Indexes of the stage's ops whose steps write its barrier
        partial: the barrier and the ops that absorb into it inline."""
        writes = self.inline_links().writes
        return tuple(op.idx for op in self.plan.ops
                     if op.stage == stage and writes[op.idx])

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
        if specs and inline.table[trav.op_idx] is not None:
            rows, costs = inline.run(
                ctx, trav.op_idx, [specs], [(0, 0, 0, 0)], op_steps, op_inlined
            )
            specs = rows[0]
            outcome.cost.memo_ops += costs[0][2]
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
