"""Fused physical operators produced by the plan-level fusion pass.

The fusion pass (:mod:`repro.query.fusion`) replaces a k-hop loop's
``MinDistBranch`` with one fused op that applies the branch's exit chain
inline, so the loop never materializes exit children: the count is
absorbed directly into the downstream barrier's partial
(:class:`FusedMinDistCount`), or the chain survivor is emitted straight
at the chain's successor (:class:`FusedMinDistChain`).

A fused plan is a *different* plan from its unfused source: simulated
timings and traverser counts legitimately differ (that is the point).
The contracts that do hold, and that the equivalence suites assert:

* **result equivalence** — a fused plan produces exactly the same result
  rows as the unfused plan it was derived from;
* **kernel equivalence** — on the *same* fused plan, the run and scalar
  kernels produce bit-for-bit identical simulated output, so
  every fused op's ``apply`` and ``apply_batch`` must be observationally
  identical (children order, per-traverser cost counts, memo effects).

Fusion legality notes (enforced by the pass, relied on here):

* every inlined link is unary and vertex-preserving, so it would have
  executed on the partition the fused op runs on;
* count absorption writes the *original* barrier's memo label, and the
  barrier op itself stays in the plan at its index, so stage-termination
  partial gathering (which reads the barrier op, on every partition) is
  unchanged;
* replaced ops keep their plan index and jump targets, so other ops that
  jump *into* the middle of a fused chain still execute the original
  (unreplaced) intermediate ops.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

from repro.core.steps import (
    AggregateOp,
    BatchOutcome,
    ChildSpec,
    FilterOp,
    MinDistBranchOp,
    PhysicalOp,
    ProjectOp,
    StepContext,
    StepOutcome,
    VertexRoutedOp,
    _NO_CHILDREN,
)
from repro.core.traverser import Traverser

__all__ = ["FusedMinDistCount", "FusedMinDistChain"]

#: Shared cost tuples of :class:`FusedMinDistCount` (identity-cached by
#: the batched kernels like ``_EXPAND_COSTS``).
_FUSED_PRUNE: Tuple[int, int, int, int] = (1, 0, 1, 0)
_FUSED_ADMIT: Tuple[int, int, int, int] = (2, 0, 2, 0)


def _add(a: int, b: int) -> int:
    return a + b


class FusedMinDistCount(VertexRoutedOp):
    """``MinDistBranch`` whose exit chain ends at a ``count()`` barrier
    (the k-hop counting plan's hot loop, paper Fig 5 + Fig 6 fused).

    Instead of spawning an exit child that travels to the barrier just to
    bump a counter, an admitted traverser bumps the partition-local count
    partial in place and only the loop continuation (when ``d < k``) is
    materialized — with the *full* parent weight (no split, no RNG draw),
    since there is no sibling. Count partials are gathered from every
    partition at stage termination, so absorbing at the branch's home
    partition instead of the barrier's routed home is result-identical.

    Two exit shapes fuse:

    * ``exit → Count`` — every admitted (improving) traverser counts;
    * ``exit → Dedup(vertex) → Count`` (the ``khop().count()`` lowering,
      ``count_first=True``) — only the *first* admission of each vertex
      counts. Exact because a vertex-keyed dedup deduplicates exactly the
      vertices whose distance entry already exists, and both the branch
      memo and the dedup table live at the vertex's home partition.
    """

    forwards_weight_past_partial = True

    def __init__(
        self,
        branch: MinDistBranchOp,
        agg: AggregateOp,
        count_first: bool = False,
    ) -> None:
        suffix = "+dedup" if count_first else ""
        super().__init__(f"FusedMinDistCount(k={branch.max_dist}{suffix})")
        self.dist_slot = branch.dist_slot
        self.max_dist = branch.max_dist
        self.memo_label = branch.memo_label
        self.agg_label = agg.memo_label()
        self.count_first = count_first
        self.loop_idx = branch.loop_idx
        self.exit_idx = branch.exit_idx  # kept for plan validation/dumps
        self.stage = branch.stage

    def successors(self) -> Tuple[int, ...]:
        """Only the loop continuation: exits are absorbed in place."""
        return (self.loop_idx,)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        out.cost.memo_ops += 1
        dist = trav.payload[self.dist_slot]
        tbl = ctx.memo.table(self.memo_label)
        vertex = trav.vertex
        old = tbl.get(vertex)
        if old is not None and dist >= old:
            return out  # pruned: an earlier traverser got here no later
        tbl[vertex] = dist
        out.cost.base += 1
        out.cost.memo_ops += 1
        if old is None or not self.count_first:
            ctx.memo.accumulate(self.agg_label, "partial", 1, _add)
        if dist < self.max_dist:
            out.child(trav.vertex, self.loop_idx, trav.payload, trav.loops)
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        append = children.append
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        tbl = ctx.memo.table(self.memo_label)
        tbl_get = tbl.get
        dist_slot = self.dist_slot
        max_dist = self.max_dist
        loop_idx = self.loop_idx
        count_first = self.count_first
        counted = 0
        for trav in travs:
            dist = trav.payload[dist_slot]
            vertex = trav.vertex
            old = tbl_get(vertex)
            if old is not None and dist >= old:
                append(_NO_CHILDREN)
                cost_append(_FUSED_PRUNE)
                continue
            tbl[vertex] = dist
            if old is None or not count_first:
                counted += 1
            cost_append(_FUSED_ADMIT)
            if dist < max_dist:
                append([(vertex, loop_idx, trav.payload, trav.loops)])
            else:
                append(_NO_CHILDREN)
        if counted:
            atbl = ctx.memo.table(self.agg_label)
            atbl["partial"] = atbl.get("partial", 0) + counted
        return BatchOutcome(children, costs)


def _compile_links(
    subs: Sequence[PhysicalOp],
) -> Tuple[List[Tuple[Any, ...]], List[Tuple[int, int, int, int]]]:
    """Compile an exit chain of ``Filter``/``Project``/vertex-keyed
    ``Dedup`` ops into walkable links and per-link prefix cost tuples.

    A traverser dropped at link *j* (failed filter, duplicate key) is
    priced for the branch plus links ``0..j``; a survivor for the whole
    chain. The branch's own cost (+1 base, +1 memo op) seeds the prefix,
    and the tuples are shared so the batched kernels' identity cost
    caches keep hitting.
    """
    links: List[Tuple[Any, ...]] = []
    prefix: List[Tuple[int, int, int, int]] = []
    base = memo = 1
    props = 0
    for s in subs:
        t = type(s)
        base += 1
        if t is FilterOp:
            links.append(("f", s.predicate))
            props += 1
        elif t is ProjectOp:
            links.append(("p", list(s.assignments)))
            props += len(s.assignments)
        else:
            # Vertex-keyed DedupOp: the fusion pass only admits
            # ``routing_mode == "vertex"``, which implies the default
            # ``trav.vertex`` key — so the key_fn call is elided.
            links.append(("d", s.memo_label))
            memo += 1
        prefix.append((base, 0, memo, props))
    return links, prefix


class FusedMinDistChain(VertexRoutedOp):
    """``MinDistBranch`` with its exit chain applied inline — the k-hop
    *frontier* hot loop of plans that post-process k-hop results rather
    than counting them.

    The unfused lowering makes every admission spawn an exit child that
    hops through ``Dedup``/``Filter``/``Project`` ops at the same
    partition before leaving the loop. Those local hops interleave with
    the loop's expand children in the partition queue and shatter the
    batched kernels' homogeneous runs. Inlining the chain (all links are
    vertex-preserving, and the branch memo, dedup table, and vertex
    properties all live at the vertex's home partition) emits the chain
    *survivor* directly at the chain successor.

    Result-exactness of inlining the dedup links: every exit child routes
    to the chain head at its own vertex's partition via the local FIFO
    queue, so the first-arriving exit for a vertex is the first branch
    admission — exactly the traverser the inline dedup admits. The fusion
    pass additionally requires the chain ops to have no other
    predecessors, so no foreign traverser can race the shared memo label.
    """

    def __init__(
        self, branch: MinDistBranchOp, chain: Sequence[PhysicalOp]
    ) -> None:
        names = "+".join(s.name for s in chain)
        super().__init__(f"Fused({branch.name}+Chain({names}))")
        self.dist_slot = branch.dist_slot
        self.max_dist = branch.max_dist
        self.memo_label = branch.memo_label
        self.loop_idx = branch.loop_idx
        self.exit_idx = branch.exit_idx  # kept for plan validation/dumps
        self.stage = branch.stage
        self.next_idx = chain[-1].next_idx
        self._links, self._prefix = _compile_links(chain)

    def successors(self) -> Tuple[int, ...]:
        """The chain successor and the loop continuation."""
        return (self.next_idx, self.loop_idx)

    def apply(self, ctx: StepContext, trav: Traverser) -> StepOutcome:
        """Execute this op for one traverser (operator contract)."""
        out = StepOutcome()
        cost = out.cost
        dist = trav.payload[self.dist_slot]
        vertex = trav.vertex
        tbl = ctx.memo.table(self.memo_label)
        old = tbl.get(vertex)
        if old is not None and dist >= old:
            cost.memo_ops += 1
            return out  # pruned
        tbl[vertex] = dist
        payload = trav.payload
        probe = Traverser(
            trav.query_id, vertex, self.next_idx, payload, 0,
            trav.stage, trav.loops,
        )
        memo = ctx.memo
        ct = self._prefix[-1]
        for j, link in enumerate(self._links):
            kind = link[0]
            if kind == "p":
                pl = list(payload)
                for slot, expr in link[1]:
                    pl[slot] = expr(ctx, probe)
                payload = tuple(pl)
                probe.payload = payload
            elif kind == "f":
                if not link[1](ctx, probe):
                    ct, payload = self._prefix[j], None
                    break
            elif not memo.insert_if_absent(link[1], vertex):
                ct, payload = self._prefix[j], None
                break
        cost.base = ct[0]
        cost.memo_ops = ct[2]
        cost.props = ct[3]
        if payload is not None:
            out.child(vertex, self.next_idx, payload, trav.loops)
        if dist < self.max_dist:
            out.child(vertex, self.loop_idx, trav.payload, trav.loops)
        return out

    def apply_batch(
        self, ctx: StepContext, travs: Sequence[Traverser]
    ) -> BatchOutcome:
        children: List[List[ChildSpec]] = []
        append = children.append
        costs: List[Tuple[int, int, int, int]] = []
        cost_append = costs.append
        memo = ctx.memo
        tbl = memo.table(self.memo_label)
        tbl_get = tbl.get
        insert_if_absent = memo.insert_if_absent
        dist_slot = self.dist_slot
        max_dist = self.max_dist
        loop_idx = self.loop_idx
        nxt = self.next_idx
        links = self._links
        prefix = self._prefix
        full = prefix[-1]
        probe = Traverser(0, -1, nxt, (), 0, self.stage, 0)
        for trav in travs:
            orig = trav.payload
            dist = orig[dist_slot]
            vertex = trav.vertex
            old = tbl_get(vertex)
            if old is not None and dist >= old:
                append(_NO_CHILDREN)
                cost_append(_FUSED_PRUNE)
                continue
            tbl[vertex] = dist
            payload = orig
            probe.query_id = trav.query_id
            probe.vertex = vertex
            probe.payload = payload
            probe.loops = trav.loops
            ct = full
            for j, link in enumerate(links):
                kind = link[0]
                if kind == "p":
                    pl = list(payload)
                    for slot, expr in link[1]:
                        pl[slot] = expr(ctx, probe)
                    payload = tuple(pl)
                    probe.payload = payload
                elif kind == "f":
                    if not link[1](ctx, probe):
                        ct, payload = prefix[j], None
                        break
                elif not insert_if_absent(link[1], vertex):
                    ct, payload = prefix[j], None
                    break
            specs: List[ChildSpec] = (
                [] if payload is None else [(vertex, nxt, payload, trav.loops)]
            )
            if dist < max_dist:
                specs.append((vertex, loop_idx, orig, trav.loops))
            append(specs if specs else _NO_CHILDREN)
            cost_append(ct)
        return BatchOutcome(children, costs)
