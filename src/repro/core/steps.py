"""Physical operators of the partitioned stateful traversal machine.

A compiled query is a :class:`~repro.query.plan.PhysicalPlan`: a flat list of
:class:`PhysicalOp` instances plus stage metadata. Every engine (async PSTM,
BSP, the baseline variants) executes the *same* operators; only scheduling,
state placement, and communication differ.

The operator contract:

* :meth:`PhysicalOp.routing` — where must a traverser be to execute this op?
  ``None`` means "anywhere" (stateless or partition-local by construction);
  otherwise the partition id, computed from the traverser alone (the paper's
  ``h_ψ``). The engine moves traversers whose next op routes elsewhere.
* :meth:`PhysicalOp.apply` — execute the op for one traverser against the
  local partition (:class:`StepContext`), producing a :class:`StepOutcome`:
  zero or more children and a cost record. A traverser with zero children is
  *finished* and its progression weight is reported.
* Aggregation ops (:attr:`PhysicalOp.is_barrier` true) absorb traversers into
  partition-local memo partials; when the stage's weight ledger completes,
  the engine calls :meth:`AggregateOp.partial` / :meth:`AggregateOp.combine`
  / :meth:`AggregateOp.finalize` (or :meth:`AggregateOp.reseed` for
  mid-plan aggregations, the paper's Fig 6 subqueries).

Operator costs are reported as event counts (:class:`OpCost`); the runtime's
cost model converts them into simulated time, so the same operators can be
priced under different hardware profiles (paper Fig 13).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.memo import QueryMemo
from repro.core.traverser import Traverser
from repro.errors import CompilationError, ExecutionError
from repro.graph.partition import PartitionStore
from repro.graph.placement import Placement
from repro.graph.property_graph import BOTH, IN, OUT


class StepContext:
    """Partition-local world view handed to an operator.

    Wraps the partition's graph store and the executing query's memo, plus
    query parameters. A traverser only ever sees the partition it is on —
    the shared-nothing discipline of §IV.
    """

    __slots__ = ("store", "memo", "partitioner", "params", "pid",
                 "__weakref__")

    def __init__(
        self,
        store: PartitionStore,
        memo: QueryMemo,
        partitioner: Placement,
        params: Dict[str, Any],
    ) -> None:
        self.store = store
        self.memo = memo
        self.partitioner = partitioner
        self.params = params
        self.pid = store.pid

    def vertex_prop(self, vid: int, key: str, default: Any = None) -> Any:
        """A property of a locally-owned vertex."""
        return self.store.get_vertex_property(vid, key, default)

    def vertex_label(self, vid: int) -> str:
        """The label of a locally-owned vertex."""
        return self.store.vertex_label(vid)

    def param(self, name: str) -> Any:
        """A query parameter (raises if missing)."""
        try:
            return self.params[name]
        except KeyError:
            raise ExecutionError(f"missing query parameter: {name!r}") from None


class OpCost:
    """Event counts for one operator application (priced by the cost model).

    A hand-rolled ``__slots__`` class: one is allocated per traverser step,
    which is the simulation's hottest allocation site.
    """

    __slots__ = ("base", "edges", "memo_ops", "props")

    def __init__(
        self, base: int = 1, edges: int = 0, memo_ops: int = 0, props: int = 0
    ) -> None:
        self.base = base
        self.edges = edges
        self.memo_ops = memo_ops
        self.props = props

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OpCost(base={self.base}, edges={self.edges}, "
            f"memo_ops={self.memo_ops}, props={self.props})"
        )


class StepOutcome:
    """Children and cost produced by one operator application.

    Children are recorded as ``(vertex, op_idx, payload, loops)`` tuples;
    the machine assigns split weights and materializes traversers.
    """

    __slots__ = ("children", "cost")

    def __init__(self) -> None:
        self.children: List[Tuple[int, int, Tuple[Any, ...], int]] = []
        self.cost = OpCost()

    def child(
        self, vertex: int, op_idx: int, payload: Tuple[Any, ...], loops: int = 0
    ) -> None:
        """Record one child traverser spec."""
        self.children.append((vertex, op_idx, payload, loops))


#: One child traverser spec: ``(vertex, op_idx, payload, loops)``.
ChildSpec = Tuple[int, int, Tuple[Any, ...], int]

#: Shared empty cost tuple / children row for batch kernels.
_NO_CHILDREN: List[ChildSpec] = []

#: Shared ``(base, edges, memo_ops, props)`` tuples for small expansion
#: degrees. Reusing one tuple object per degree lets batched callers
#: detect repeated costs by identity instead of recomputing the price.
_EXPAND_COSTS: List[Tuple[int, int, int, int]] = [
    (1, d, 0, 0) for d in range(128)
]

#: Sentinel distinguishing "no partial yet" from a stored ``None`` partial.
_MISSING = object()


class BatchOutcome:
    """Result of applying one operator to a homogeneous run of traversers.

    Parallel lists, one entry per input traverser:

    * ``children[i]`` — child specs of traverser ``i`` (may be empty);
    * ``costs[i]`` — ``(base, edges, memo_ops, props)`` event counts, the
      same numbers the scalar path would have put in an :class:`OpCost`.

    Costs are plain tuples rather than :class:`OpCost` instances because the
    batch path exists to avoid per-traverser allocations; the runtime prices
    the tuples with the identical arithmetic (the expression shape of
    :meth:`~repro.runtime.costmodel.CostModel.op_cost_us`), so simulated
    times match the scalar path bit for bit.
    """

    __slots__ = ("children", "costs")

    def __init__(
        self,
        children: List[List[ChildSpec]],
        costs: List[Tuple[int, int, int, int]],
    ) -> None:
        self.children = children
        self.costs = costs


#: Expression: a function of (context, traverser) producing a value.
Expr = Callable[[StepContext, Traverser], Any]
#: Predicate: a function of (context, traverser) producing a bool.
Predicate = Callable[[StepContext, Traverser], bool]
#: Traverser-only key function (must not touch the context — used for routing).
KeyFn = Callable[[Traverser], Hashable]


class PhysicalOp:
    """Base class of all physical operators."""

    #: True for aggregation barriers (stage boundaries) — the only ops
    #: that write their stage's barrier partial on the executing
    #: partition. The write finishes the traverser's weight there, so a
    #: weight report from that partition always follows it — the report
    #: the partial rides to the coordinator on.
    is_barrier: bool = False
    #: True for source ops seeded once per partition by the engine.
    is_source: bool = False
    #: True for an op whose every child keeps the traverser's vertex: a
    #: vertex-routed such op may run its children's vertex-preserving
    #: links inside its own step (:class:`~repro.core.machine.InlineLinks`).
    keeps_vertex: bool = False
    #: How :meth:`routing` behaves, so batch kernels can route children
    #: without a per-child method call: ``"free"`` (always ``None``),
    #: ``"vertex"`` (always ``partitioner(trav.vertex)``), or ``"custom"``
    #: (call :meth:`routing`). Must be consistent with :meth:`routing`.
    routing_mode: str = "free"

    def __init__(self, name: str) -> None:
        self.name = name
        self.idx: int = -1  # assigned by the plan
        self.next_idx: int = -1  # default successor, assigned by the compiler
        self.stage: int = 0  # stage this op belongs to

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        """Partition where ``trav`` must run this op (``h_ψ``), or None."""
        return None

    def successors(self) -> Tuple[int, ...]:
        """The op indexes this op's children may target."""
        return (self.next_idx,)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        raise NotImplementedError

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        """Execute this op for a homogeneous run of traversers.

        The default implementation falls back to :meth:`apply` per
        traverser, so every operator is batch-executable; hot operators
        override this with kernels that amortize lookups and skip the
        per-traverser :class:`StepOutcome`/:class:`OpCost` allocations.

        Implementations must be *observationally identical* to the scalar
        path: same children in the same order, same per-traverser event
        counts, same memo access sequence.
        """
        children: List[List[ChildSpec]] = []
        costs: List[Tuple[int, int, int, int]] = []
        apply = self.apply
        for trav in travs:
            out = apply(ctx, trav)
            children.append(out.children)
            c = out.cost
            costs.append((c.base, c.edges, c.memo_ops, c.props))
        return BatchOutcome(children, costs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} #{self.idx} {self.name!r} -> {self.next_idx}>"


class VertexRoutedOp(PhysicalOp):
    """Mixin base for ops that must run where the current vertex lives."""

    routing_mode = "vertex"

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        return partitioner(trav.vertex)


# ---------------------------------------------------------------------------
# source operators
# ---------------------------------------------------------------------------


class SourceOp(PhysicalOp):
    """Base for source ops. Sources are executed by per-partition *seed
    traversers* (vertex = -1) injected by the engine; broadcast sources get
    one seed per partition, routed sources a single seed."""

    is_source = True

    #: True → one seed per partition; False → a single routed seed.
    broadcast: bool = True


class FixedVertexSource(SourceOp):
    """``g.V(id)``: start at one vertex given by a parameter or constant."""

    broadcast = False
    routing_mode = "custom"

    def __init__(self, vertex_param: str, const: Optional[int] = None) -> None:
        super().__init__(f"V(${vertex_param})" if const is None else f"V({const})")
        self.vertex_param = vertex_param
        self.const = const

    def start_vertex(self, params: Dict[str, Any]) -> int:
        """Resolve the start vertex from the query parameters."""
        if self.const is not None:
            return self.const
        value = params.get(self.vertex_param)
        if value is None:
            raise ExecutionError(f"missing start-vertex parameter {self.vertex_param!r}")
        return value

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        # Seed traversers carry the start vertex already; run where it lives.
        return partitioner(trav.vertex) if trav.vertex >= 0 else None

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        if ctx.store.owns(trav.vertex):
            out.child(trav.vertex, self.next_idx, trav.payload)
        return out


class IndexLookupSource(SourceOp):
    """Index lookup: find vertices with ``label.key == $param`` via the
    per-partition exact-match index (the IndexLookUpStrategy target form)."""

    def __init__(self, label: str, key: str, value_param: str) -> None:
        super().__init__(f"IndexLookup({label}.{key} == ${value_param})")
        self.label = label
        self.key = key
        self.value_param = value_param

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        value = ctx.param(self.value_param)
        matches = ctx.store.index_lookup(self.label, self.key, value)
        out.cost.memo_ops += 1
        for vid in matches:
            out.child(vid, self.next_idx, trav.payload)
        return out


class ScanSource(SourceOp):
    """Full scan of all vertices with a label (no index available)."""

    def __init__(self, label: Optional[str] = None) -> None:
        super().__init__(f"Scan({label or '*'})")
        self.label = label

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        vertices = ctx.store.local_vertices(self.label)
        out.cost.props += len(vertices)
        for vid in vertices:
            out.child(vid, self.next_idx, trav.payload)
        return out


# ---------------------------------------------------------------------------
# traversal operators
# ---------------------------------------------------------------------------


class ExpandOp(VertexRoutedOp):
    """Move along incident edges (Gremlin ``out()`` / ``in()`` / ``both()``).

    Spawns one child per matching edge. Options:

    * ``dist_slot`` — increment a hop-distance payload slot;
    * ``edge_slot`` — bind the traversed edge id into a slot;
    * ``edge_prop`` — ``(property_key, slot)``: bind an edge property (e.g.
      a ``knows`` edge's ``creationDate``) into a slot.
    """

    def __init__(
        self,
        direction: str,
        edge_label: Optional[str] = None,
        dist_slot: Optional[int] = None,
        edge_slot: Optional[int] = None,
        edge_prop: Optional[Tuple[str, int]] = None,
    ) -> None:
        if direction not in (OUT, IN, BOTH):
            raise CompilationError(f"bad expand direction: {direction!r}")
        super().__init__(f"Expand({direction}, {edge_label or '*'})")
        self.direction = direction
        self.edge_label = edge_label
        self.dist_slot = dist_slot
        self.edge_slot = edge_slot
        self.edge_prop = edge_prop

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        payload = trav.payload
        if self.dist_slot is not None:
            dist = payload[self.dist_slot]
            dist = 1 if dist is None else dist + 1
            payload = payload[: self.dist_slot] + (dist,) + payload[self.dist_slot + 1 :]
        if self.edge_slot is None and self.edge_prop is None:
            neighbors = ctx.store.neighbors(trav.vertex, self.direction, self.edge_label)
            out.cost.edges += len(neighbors)
            for nbr in neighbors:
                out.child(nbr, self.next_idx, payload, trav.loops + 1)
            return out
        pairs = ctx.store.edges(trav.vertex, self.direction, self.edge_label)
        out.cost.edges += len(pairs)
        for nbr, eid in pairs:
            p = payload
            if self.edge_slot is not None:
                p = p[: self.edge_slot] + (eid,) + p[self.edge_slot + 1 :]
            if self.edge_prop is not None:
                key, slot = self.edge_prop
                value = ctx.store.edge_property(eid, key)
                p = p[:slot] + (value,) + p[slot + 1 :]
                out.cost.props += 1
            out.child(nbr, self.next_idx, p, trav.loops + 1)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        """Batched expansion: one CSR slice per traverser, no per-traverser
        outcome objects. The single-(direction, label) no-binding case reads
        the CSR arrays directly; other shapes share the generic loop over
        :meth:`PartitionStore.neighbors` so child order matches the scalar
        path exactly."""
        if self.edge_slot is not None or self.edge_prop is not None:
            return PhysicalOp.apply_batch(self, ctx, travs)
        children: List[List[ChildSpec]] = []
        costs: List[Tuple[int, int, int, int]] = []
        next_idx = self.next_idx
        dist_slot = self.dist_slot
        store = ctx.store
        direction = self.direction
        label = self.edge_label
        csr = None
        if label is not None and direction != BOTH:
            # Only plain PartitionStores expose raw CSR arrays; snapshot
            # views and other wrapper stores merge deltas in neighbors(),
            # so they must take the generic path below.
            adjacency = getattr(store, "adjacency", None)
            if adjacency is not None:
                csr = adjacency(direction, label)
        if csr is not None:
            local_ix = store.local_index_map()
            offsets, targets = csr.arrays()
            cappend = children.append
            costappend = costs.append
            cost_cache = _EXPAND_COSTS
            n_cached = len(cost_cache)
            for trav in travs:
                payload = trav.payload
                if dist_slot is not None:
                    dist = payload[dist_slot]
                    dist = 1 if dist is None else dist + 1
                    payload = (
                        payload[:dist_slot] + (dist,) + payload[dist_slot + 1 :]
                    )
                li = local_ix[trav.vertex]
                lo = offsets[li]
                hi = offsets[li + 1]
                deg = hi - lo
                loops = trav.loops + 1
                # Degree-specialized rows: power-law graphs make degree 0/1
                # the common case, where slice + listcomp overhead dominates.
                if deg == 1:
                    cappend([(targets[lo], next_idx, payload, loops)])
                elif deg == 0:
                    cappend(_NO_CHILDREN)
                else:
                    cappend(
                        [
                            (nbr, next_idx, payload, loops)
                            for nbr in targets[lo:hi]
                        ]
                    )
                # Shared small-degree cost tuples let the worker's identity
                # fast path hit when consecutive traversers share a degree.
                costappend(
                    cost_cache[deg] if deg < n_cached else (1, deg, 0, 0)
                )
            return BatchOutcome(children, costs)
        neighbors = store.neighbors
        for trav in travs:
            payload = trav.payload
            if dist_slot is not None:
                dist = payload[dist_slot]
                dist = 1 if dist is None else dist + 1
                payload = payload[:dist_slot] + (dist,) + payload[dist_slot + 1 :]
            nbrs = neighbors(trav.vertex, direction, label)
            loops = trav.loops + 1
            children.append([(nbr, next_idx, payload, loops) for nbr in nbrs])
            costs.append((1, len(nbrs), 0, 0))
        return BatchOutcome(children, costs)


class GotoOp(PhysicalOp):
    """Relocate the traverser to a vertex held in a payload slot.

    Used after joins: the join runs at the key's partition, and the
    continuation often needs to resume at a vertex bound earlier (e.g. the
    matched post of Fig 3). Location-free: the next op's routing moves the
    traverser to the right partition.
    """

    def __init__(self, slot: int, name: str = "goto") -> None:
        super().__init__(f"Goto({name})")
        self.slot = slot

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        vertex = trav.payload[self.slot]
        if vertex is None:
            raise ExecutionError(f"{self.name}: binding slot {self.slot} is unset")
        out.child(vertex, self.next_idx, trav.payload, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        slot = self.slot
        next_idx = self.next_idx
        for trav in travs:
            vertex = trav.payload[slot]
            if vertex is None:
                raise ExecutionError(f"{self.name}: binding slot {slot} is unset")
            children.append([(vertex, next_idx, trav.payload, trav.loops)])
        return BatchOutcome(children, [(1, 0, 0, 0)] * len(travs))


class FilterOp(VertexRoutedOp):
    """Keep traversers satisfying a predicate (Gremlin ``has`` / ``where``).

    ``needs_vertex=False`` marks predicates that only read the payload,
    vertex id, loop counter and parameters. Such a filter is location-free
    (``routing_mode == "free"``): the machine runs it inside the step that
    emits its input (:class:`~repro.core.machine.InlineLinks`) — a failed
    predicate drops the child before the weight split — so it costs one
    property read there and no dispatch or routing hop of its own. A
    vertex-reading filter runs inline too when the emitting step already
    stands at its vertex's owner (a vertex-routed op that keeps its vertex).
    """

    keeps_vertex = True

    def __init__(self, predicate: Predicate, name: str, needs_vertex: bool = True) -> None:
        super().__init__(f"Filter({name})")
        self.predicate = predicate
        self.needs_vertex = needs_vertex
        self.routing_mode = "vertex" if needs_vertex else "free"

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        if not self.needs_vertex:
            return None
        return partitioner(trav.vertex)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.props += 1
        if self.predicate(ctx, trav):
            out.child(trav.vertex, self.next_idx, trav.payload, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        predicate = self.predicate
        next_idx = self.next_idx
        for trav in travs:
            if predicate(ctx, trav):
                children.append([(trav.vertex, next_idx, trav.payload, trav.loops)])
            else:
                children.append(_NO_CHILDREN)
        return BatchOutcome(children, [(1, 0, 0, 1)] * len(travs))


class ProjectOp(VertexRoutedOp):
    """Evaluate expressions into payload slots (Gremlin ``values``/``as``).

    With ``needs_vertex=False`` (every ``as_`` label, and projections of
    bindings, parameters or the vertex id) the op is location-free and
    runs inside the step that emits its input
    (:class:`~repro.core.machine.InlineLinks`), priced at one property
    read per assignment and no dispatch; a vertex-reading one does so
    after a vertex-routed op that keeps its vertex.
    """

    keeps_vertex = True

    def __init__(
        self,
        assignments: Sequence[Tuple[int, Expr]],
        name: str = "project",
        needs_vertex: bool = True,
    ) -> None:
        super().__init__(f"Project({name})")
        self.assignments = list(assignments)
        self.needs_vertex = needs_vertex
        self.routing_mode = "vertex" if needs_vertex else "free"

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        if not self.needs_vertex:
            return None
        return partitioner(trav.vertex)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        payload = list(trav.payload)
        for slot, expr in self.assignments:
            payload[slot] = expr(ctx, trav)
            out.cost.props += 1
        out.child(trav.vertex, self.next_idx, tuple(payload), trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        assignments = self.assignments
        next_idx = self.next_idx
        for trav in travs:
            payload = list(trav.payload)
            for slot, expr in assignments:
                payload[slot] = expr(ctx, trav)
            children.append([(trav.vertex, next_idx, tuple(payload), trav.loops)])
        return BatchOutcome(children, [(1, 0, 0, len(assignments))] * len(travs))


class DedupOp(PhysicalOp):
    """Incremental deduplication via a memo set (§III-A).

    Routed by the hash of the dedup key (``h_Dedup``), so each partition sees
    every occurrence of the keys it owns: the partitionable property makes
    the memo set complete without any global synchronization. The first
    traverser with a given key passes; later ones finish. A vertex-keyed
    dedup that only one op can feed runs inside that op's step when the
    step stands at the vertex's owner
    (:class:`~repro.core.machine.InlineLinks`), priced at its memo op and
    no dispatch.
    """

    keeps_vertex = True
    routing_mode = "custom"

    def __init__(
        self,
        key_fn: Optional[KeyFn] = None,
        memo_label: str = "__dedup__",
        name: str = "dedup",
    ) -> None:
        super().__init__(f"Dedup({name})")
        self.key_fn = key_fn or (lambda trav: trav.vertex)
        self.memo_label = memo_label
        if key_fn is None:
            # The default routing key IS the vertex: key_partition(v) of an
            # int key is the vertex's owner under the placement, so
            # vertex-mode routing yields identical partition ids and lets
            # the batched path use the memoized vertex→pid cache.
            self.routing_mode = "vertex"

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        return partitioner.key_partition(self.key_fn(trav))

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.memo_ops += 1
        if ctx.memo.insert_if_absent(self.memo_label, self.key_fn(trav)):
            out.child(trav.vertex, self.next_idx, trav.payload, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        append = children.append
        key_fn = self.key_fn
        # Inlined memo.insert_if_absent: one table fetch per run.
        tbl = ctx.memo.table(self.memo_label)
        next_idx = self.next_idx
        for trav in travs:
            key = key_fn(trav)
            if key in tbl:
                append(_NO_CHILDREN)
            else:
                tbl[key] = True
                append([(trav.vertex, next_idx, trav.payload, trav.loops)])
        return BatchOutcome(children, [(1, 0, 1, 0)] * len(travs))


class MinDistBranchOp(VertexRoutedOp):
    """The k-hop memo-pruning branch (paper Fig 4c / Fig 5).

    On arrival at vertex ``v`` with traversed distance ``d`` (a payload
    slot), consult the partition memo record ``M[Distance, v]``:

    * if a previous traverser reached ``v`` with distance ≤ ``d``, this
      traverser cannot discover anything new — prune (finish);
    * otherwise record ``d`` and branch: one child proceeds to the rest of
      the plan (``exit_idx`` — this vertex is a k-hop result), and, when
      ``d < max_dist``, a second child continues the expansion loop
      (``loop_idx``).

    The memo guarantees each vertex record is updated at most ``max_dist``
    times, bounding the traversal at O(k·|E|) — the paper's combinatorial
    explosion defense.
    """

    keeps_vertex = True

    def __init__(
        self,
        dist_slot: int,
        max_dist: int,
        memo_label: str = "Distance",
    ) -> None:
        super().__init__(f"MinDistBranch(k={max_dist})")
        self.dist_slot = dist_slot
        self.max_dist = max_dist
        self.memo_label = memo_label
        self.loop_idx: int = -1  # assigned by the compiler
        self.exit_idx: int = -1  # assigned by the compiler

    def successors(self) -> Tuple[int, ...]:
        """The op indexes this op's children may target."""
        return (self.exit_idx, self.loop_idx)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.memo_ops += 1
        dist = trav.payload[self.dist_slot]
        if not ctx.memo.put_if_less(self.memo_label, trav.vertex, dist):
            return out  # pruned: an earlier traverser got here no later
        out.child(trav.vertex, self.exit_idx, trav.payload, trav.loops)
        if dist < self.max_dist:
            out.child(trav.vertex, self.loop_idx, trav.payload, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        append = children.append
        # Inlined memo.put_if_less: one table fetch per run.
        tbl = ctx.memo.table(self.memo_label)
        tbl_get = tbl.get
        dist_slot = self.dist_slot
        max_dist = self.max_dist
        exit_idx = self.exit_idx
        loop_idx = self.loop_idx
        for trav in travs:
            dist = trav.payload[dist_slot]
            vertex = trav.vertex
            old = tbl_get(vertex)
            if old is not None and dist >= old:
                append(_NO_CHILDREN)
                continue
            tbl[vertex] = dist
            if dist < max_dist:
                append(
                    [
                        (vertex, exit_idx, trav.payload, trav.loops),
                        (vertex, loop_idx, trav.payload, trav.loops),
                    ]
                )
            else:
                append([(vertex, exit_idx, trav.payload, trav.loops)])
        return BatchOutcome(children, [(1, 0, 1, 0)] * len(travs))


class ForkOp(PhysicalOp):
    """Clone the traverser onto several branch entry points (``union``)."""

    def __init__(self, name: str = "union") -> None:
        super().__init__(f"Fork({name})")
        self.targets: List[int] = []  # assigned by the compiler

    def successors(self) -> Tuple[int, ...]:
        """The op indexes this op's children may target."""
        return tuple(self.targets)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        for target in self.targets:
            out.child(trav.vertex, target, trav.payload, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        targets = self.targets
        children = [
            [(trav.vertex, target, trav.payload, trav.loops) for target in targets]
            for trav in travs
        ]
        return BatchOutcome(children, [(1, 0, 0, 0)] * len(travs))


class JumpOp(PhysicalOp):
    """Unconditional jump (branch convergence point plumbing)."""

    def __init__(self, name: str = "jump") -> None:
        super().__init__(f"Jump({name})")

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.base = 0  # pure plumbing: free
        out.child(trav.vertex, self.next_idx, trav.payload, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        next_idx = self.next_idx
        children = [
            [(trav.vertex, next_idx, trav.payload, trav.loops)] for trav in travs
        ]
        return BatchOutcome(children, [(0, 0, 0, 0)] * len(travs))


class JoinOp(PhysicalOp):
    """Double-pipelined hash join (paper §III-A, Fig 3).

    Two plan branches (sides ``"A"`` and ``"B"``) converge at the same
    logical join, identified by ``join_label``. Each arriving traverser:

    1. inserts its payload into its own side's memo hash table at its join
       key, then
    2. probes the opposite side's table and spawns one child per match,
       with payloads merged A-side-first.

    Routing by the join key's hash makes the join partitionable: every
    traverser with key ``k`` meets at partition ``H(k)``, so matches are
    found exactly once, incrementally, with no barrier.
    """

    routing_mode = "custom"

    def __init__(
        self,
        join_label: str,
        side: str,
        key_fn: KeyFn,
        merge_fn: Callable[[Tuple[Any, ...], Tuple[Any, ...]], Tuple[Any, ...]],
    ) -> None:
        if side not in ("A", "B"):
            raise CompilationError(f"join side must be 'A' or 'B', got {side!r}")
        super().__init__(f"Join({join_label}:{side})")
        self.join_label = join_label
        self.side = side
        self.key_fn = key_fn
        self.merge_fn = merge_fn

    def routing(self, partitioner: Placement, trav: Traverser) -> Optional[int]:
        return partitioner.key_partition(self.key_fn(trav))

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        key = self.key_fn(trav)
        own = f"{self.join_label}/{self.side}"
        other = f"{self.join_label}/{'B' if self.side == 'A' else 'A'}"
        ctx.memo.append(own, key, trav.payload)
        matches = ctx.memo.get_list(other, key)
        out.cost.memo_ops += 2
        for other_payload in matches:
            if self.side == "A":
                merged = self.merge_fn(trav.payload, other_payload)
            else:
                merged = self.merge_fn(other_payload, trav.payload)
            out.child(trav.vertex, self.next_idx, merged, trav.loops)
        return out

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        key_fn = self.key_fn
        merge_fn = self.merge_fn
        next_idx = self.next_idx
        a_side = self.side == "A"
        own = f"{self.join_label}/{self.side}"
        other = f"{self.join_label}/{'B' if a_side else 'A'}"
        memo_append = ctx.memo.append
        memo_get_list = ctx.memo.get_list
        children: List[List[ChildSpec]] = []
        for trav in travs:
            key = key_fn(trav)
            payload = trav.payload
            memo_append(own, key, payload)
            matches = memo_get_list(other, key)
            if matches:
                vertex = trav.vertex
                loops = trav.loops
                if a_side:
                    children.append(
                        [(vertex, next_idx, merge_fn(payload, m), loops) for m in matches]
                    )
                else:
                    children.append(
                        [(vertex, next_idx, merge_fn(m, payload), loops) for m in matches]
                    )
            else:
                children.append(_NO_CHILDREN)
        return BatchOutcome(children, [(1, 0, 2, 0)] * len(travs))


# ---------------------------------------------------------------------------
# aggregation operators (stage barriers)
# ---------------------------------------------------------------------------


class AggregateOp(PhysicalOp):
    """Base class for aggregation barriers (paper §III-C, Fig 6).

    ``apply`` folds the traverser into a partition-local partial stored in
    the memo (commutative + associative, hence partitionable); the traverser
    then finishes. When the stage's weight ledger completes, the engine
    gathers partials (:meth:`partial`), merges them (:meth:`combine`), and
    either produces final rows (:meth:`finalize`) or seeds the next stage
    (:meth:`reseed`).
    """

    is_barrier = True

    #: memo label prefix for partials
    MEMO = "__agg__"

    def __init__(self, name: str) -> None:
        super().__init__(name)

    def memo_label(self) -> str:
        """The memo label this barrier's partials live under."""
        return f"{self.MEMO}{self.idx}"

    def successors(self) -> Tuple[int, ...]:
        """None: a barrier finishes every traverser it absorbs."""
        return ()

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.memo_ops += 1
        self.absorb(ctx, trav)
        return out  # no children: the traverser's weight is finished

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        absorb = self.absorb
        for trav in travs:
            absorb(ctx, trav)
        n = len(travs)
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    # subclass API ------------------------------------------------------

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        raise NotImplementedError

    def partial(self, memo: QueryMemo) -> Any:
        """This partition's partial (None when nothing was absorbed)."""
        return memo.get(self.memo_label(), "partial")

    def combine(self, partials: List[Any]) -> Any:
        """Merge partition partials into the global aggregate."""
        raise NotImplementedError

    def finalize(self, combined: Any) -> List[Any]:
        """Final result rows for an end-of-plan barrier."""
        raise NotImplementedError

    def reseed(self, combined: Any) -> List[Tuple[int, Tuple[Any, ...]]]:
        """Seeds ``(vertex, payload)`` for the next stage (mid-plan barrier)."""
        raise ExecutionError(f"{self.name} cannot reseed a next stage")

    def estimated_partial_size(self, partial: Any) -> int:
        """Wire-size estimate of a partial for the gather cost model."""
        if partial is None:
            return 8
        if isinstance(partial, (int, float)):
            return 8
        if isinstance(partial, dict):
            return 16 * max(len(partial), 1)
        if isinstance(partial, list):
            return 24 * max(len(partial), 1)
        return 16


class CountAgg(AggregateOp):
    """``count()``: one global counter."""

    def __init__(self) -> None:
        super().__init__("Count")

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        ctx.memo.accumulate(self.memo_label(), "partial", 1, lambda a, b: a + b)

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        n = len(travs)
        tbl = ctx.memo.table(self.memo_label())
        tbl["partial"] = tbl.get("partial", 0) + n
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    def combine(self, partials: List[Any]) -> int:
        """Merge partition partials into the global aggregate."""
        return sum(p for p in partials if p is not None)

    def finalize(self, combined: int) -> List[Any]:
        return [combined]

    def reseed(self, combined: int) -> List[Tuple[int, Tuple[Any, ...]]]:
        return [(-1, (combined,))]


class SumAgg(AggregateOp):
    """``sum(expr)`` over a payload slot."""

    def __init__(self, value_slot: int) -> None:
        super().__init__("Sum")
        self.value_slot = value_slot

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        value = trav.payload[self.value_slot]
        ctx.memo.accumulate(self.memo_label(), "partial", value, lambda a, b: a + b)

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        n = len(travs)
        tbl = ctx.memo.table(self.memo_label())
        slot = self.value_slot
        # Fold left-to-right from the stored partial, matching the scalar
        # accumulate sequence (float addition is order-sensitive).
        part = tbl.get("partial", _MISSING)
        for trav in travs:
            value = trav.payload[slot]
            part = value if part is _MISSING else part + value
        tbl["partial"] = part
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    def combine(self, partials: List[Any]) -> Any:
        """Merge partition partials into the global aggregate."""
        total = 0
        for p in partials:
            if p is not None:
                total += p
        return total

    def finalize(self, combined: Any) -> List[Any]:
        return [combined]


class MaxAgg(AggregateOp):
    """``max(expr)`` over a payload slot."""

    def __init__(self, value_slot: int) -> None:
        super().__init__("Max")
        self.value_slot = value_slot

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        value = trav.payload[self.value_slot]
        ctx.memo.accumulate(self.memo_label(), "partial", value, max)

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        n = len(travs)
        tbl = ctx.memo.table(self.memo_label())
        slot = self.value_slot
        part = tbl.get("partial", _MISSING)
        for trav in travs:
            value = trav.payload[slot]
            part = value if part is _MISSING else max(part, value)
        tbl["partial"] = part
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    def combine(self, partials: List[Any]) -> Any:
        """Merge partition partials into the global aggregate."""
        values = [p for p in partials if p is not None]
        return max(values) if values else None

    def finalize(self, combined: Any) -> List[Any]:
        return [combined]


class MinAgg(AggregateOp):
    """``min(expr)`` over a payload slot."""

    def __init__(self, value_slot: int) -> None:
        super().__init__("Min")
        self.value_slot = value_slot

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        value = trav.payload[self.value_slot]
        ctx.memo.accumulate(self.memo_label(), "partial", value, min)

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        n = len(travs)
        tbl = ctx.memo.table(self.memo_label())
        slot = self.value_slot
        part = tbl.get("partial", _MISSING)
        for trav in travs:
            value = trav.payload[slot]
            part = value if part is _MISSING else min(part, value)
        tbl["partial"] = part
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    def combine(self, partials: List[Any]) -> Any:
        """Merge partition partials into the global aggregate."""
        values = [p for p in partials if p is not None]
        return min(values) if values else None

    def finalize(self, combined: Any) -> List[Any]:
        return [combined]


class _NegKey:
    """Wrapper inverting comparison order (for bounded max-heaps)."""

    __slots__ = ("key",)

    def __init__(self, key: Any) -> None:
        self.key = key

    def __lt__(self, other: "_NegKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: "_NegKey") -> bool:
        # Heap entries and sort keys are homogeneous per aggregate label,
        # so the operand is always another _NegKey; this comparison is hot
        # enough (every tuple compare starts with ==) to skip isinstance.
        return other.key == self.key


class GroupCountAgg(AggregateOp):
    """``groupCount(key)``: per-key counters merged across partitions.

    ``limit`` truncates the finalized (count-desc, key-asc) output — the
    "top N groups" shape of several LDBC IC queries.
    """

    def __init__(self, key_fn: KeyFn, limit: Optional[int] = None) -> None:
        super().__init__("GroupCount")
        self.key_fn = key_fn
        self.limit = limit

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        label = self.memo_label()
        partial = ctx.memo.get(label, "partial")
        if partial is None:
            partial = {}
            ctx.memo.put(label, "partial", partial)
        key = self.key_fn(trav)
        partial[key] = partial.get(key, 0) + 1

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        n = len(travs)
        memo = ctx.memo
        label = self.memo_label()
        partial = memo.get(label, "partial")
        if partial is None:
            partial = {}
            memo.put(label, "partial", partial)
        key_fn = self.key_fn
        get = partial.get
        for trav in travs:
            key = key_fn(trav)
            partial[key] = get(key, 0) + 1
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    def combine(self, partials: List[Any]) -> Dict[Any, int]:
        """Merge partition partials into the global aggregate."""
        merged: Dict[Any, int] = {}
        for p in partials:
            if not p:
                continue
            for key, count in p.items():
                merged[key] = merged.get(key, 0) + count
        return merged

    def finalize(self, combined: Dict[Any, int]) -> List[Any]:
        ordered = sorted(combined.items(), key=lambda kv: (-kv[1], kv[0]))
        if self.limit is not None:
            ordered = ordered[: self.limit]
        return ordered

    def reseed(self, combined: Dict[Any, int]) -> List[Tuple[int, Tuple[Any, ...]]]:
        return [(key if isinstance(key, int) else -1, (key, count))
                for key, count in combined.items()]


class CollectAgg(AggregateOp):
    """Collect result rows, optionally ordered and limited.

    The default end-of-plan barrier: the compiler appends one when a query
    does not end in an explicit aggregation. Partition-local partials are
    row lists (bounded at ``limit`` when an order key is given, via a
    size-``limit`` heap).
    """

    def __init__(
        self,
        row_fn: Optional[Callable[[Traverser], Any]] = None,
        order_key: Optional[Callable[[Any], Any]] = None,
        ascending: bool = True,
        limit: Optional[int] = None,
        unique_order: bool = False,
    ) -> None:
        super().__init__("Collect")
        self.row_fn = row_fn or (lambda trav: trav.payload)
        self.order_key = order_key
        self.ascending = ascending
        self.limit = limit
        #: declared by the query (``order_by(..., unique=True)``): the
        #: order key is a total order over result rows, so :meth:`combine`
        #: is arrival- and partition-order independent. Gates the
        #: partial's below-cutoff heap skip in :meth:`absorb` and
        #: :meth:`apply_batch`.
        self.unique_order = unique_order

    def _bounded(self) -> bool:
        return self.order_key is not None and self.limit is not None

    def absorb(self, ctx: StepContext, trav: Traverser) -> None:
        """Fold one traverser into the partition-local partial."""
        label = self.memo_label()
        partial = ctx.memo.get(label, "partial")
        if partial is None:
            # Bounded partials are {"n": tiebreak counter, "heap": [...]}
            partial = {"n": 0, "heap": []} if self._bounded() else []
            ctx.memo.put(label, "partial", partial)
        row = self.row_fn(trav)
        if self._bounded():
            partial["n"] += 1
            heap = partial["heap"]
            # Deterministic tiebreak: arrival order within the partition.
            entry = (self.order_key(row), partial["n"], row)
            if self.ascending:
                entry = _neg_entry3(entry)
            if self.unique_order and len(heap) >= self.limit:
                # Total order declared → combine() fully determines the
                # final rows, so the heap's internal layout is
                # unobservable and below-cutoff rows can skip the heap.
                if heap[0] < entry:
                    heapq.heappushpop(heap, entry)
            else:
                heapq.heappush(heap, entry)
                if len(heap) > self.limit:
                    heapq.heappop(heap)
        else:
            partial.append(row)

    def apply_batch(self, ctx: StepContext, travs: Sequence[Traverser]) -> BatchOutcome:
        n = len(travs)
        memo = ctx.memo
        label = self.memo_label()
        bounded = self._bounded()
        partial = memo.get(label, "partial")
        if partial is None:
            partial = {"n": 0, "heap": []} if bounded else []
            memo.put(label, "partial", partial)
        row_fn = self.row_fn
        if bounded:
            heap = partial["heap"]
            count = partial["n"]
            order_key = self.order_key
            ascending = self.ascending
            limit = self.limit
            push = heapq.heappush
            pop = heapq.heappop
            # Same push/pop sequence as absorb(): tied order keys resolve by
            # the heap's internal list order.
            if self.unique_order:
                # Mirror of absorb()'s declared-total-order fast path.
                pushpop = heapq.heappushpop
                for trav in travs:
                    row = row_fn(trav)
                    count += 1
                    entry = (order_key(row), count, row)
                    if ascending:
                        entry = _neg_entry3(entry)
                    if len(heap) < limit:
                        push(heap, entry)
                    elif heap[0] < entry:
                        pushpop(heap, entry)
            else:
                for trav in travs:
                    row = row_fn(trav)
                    count += 1
                    entry = (order_key(row), count, row)
                    push(heap, _neg_entry3(entry) if ascending else entry)
                    if len(heap) > limit:
                        pop(heap)
            partial["n"] = count
        else:
            append = partial.append
            for trav in travs:
                append(row_fn(trav))
        return BatchOutcome([_NO_CHILDREN] * n, [(1, 0, 1, 0)] * n)

    def combine(self, partials: List[Any]) -> List[Any]:
        """Merge partition partials into the global aggregate."""
        rows: List[Any] = []
        for p in partials:
            if not p:
                continue
            if self._bounded():
                rows.extend(entry[2] for entry in p["heap"])
            else:
                rows.extend(p)
        if self.order_key is not None:
            rows.sort(key=self.order_key, reverse=not self.ascending)
        if self.limit is not None:
            rows = rows[: self.limit]
        return rows

    def finalize(self, combined: List[Any]) -> List[Any]:
        return combined

    def reseed(self, combined: List[Any]) -> List[Tuple[int, Tuple[Any, ...]]]:
        seeds = []
        for row in combined:
            payload = row if isinstance(row, tuple) else (row,)
            seeds.append((-1, payload))
        return seeds


def _neg_entry3(entry: Tuple[Any, Any, Any]) -> Tuple[Any, Any, Any]:
    return (_NegKey(entry[0]), entry[1], entry[2])
