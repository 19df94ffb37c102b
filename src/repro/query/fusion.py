"""Plan-level operator fusion: inline the k-hop loop's exit chain.

:func:`fuse_plan` rewrites a compiled :class:`~repro.query.plan.PhysicalPlan`
by replacing each k-hop loop's ``MinDistBranch`` with a fused op from
:mod:`repro.core.fused`, **in place at its index**. The ops of the exit
chain stay in the plan at their indexes, so:

* all operator indexes (and therefore jump targets, stage entry points,
  and barrier indexes) are unchanged;
* any *other* op that jumps into the middle of a fused chain still
  executes the original intermediate ops;
* stage-termination partial gathering still reads the original barrier
  op — the fused count absorbs into that barrier's own memo label.

The one fusion rule (docs/PERFORMANCE.md): a ``MinDistBranch`` whose exit
chain is a ``Count`` barrier — directly, or through a vertex-keyed
``Dedup`` (the ``khop().count()`` lowering) — becomes
:class:`~repro.core.fused.FusedMinDistCount` (the k-hop counting hot
loop: no exit children, no weight splits in the loop). Otherwise, an exit
chain of unary vertex-preserving ops (each with exactly one predecessor)
is inlined at the branch → :class:`~repro.core.fused.FusedMinDistChain`.

A fused plan produces exactly the same result rows as its source plan,
and both kernels execute it bit-for-bit identically; simulated
*timings* differ from the unfused plan by design (that is the win).
"""

from __future__ import annotations

from repro.core.fused import FusedMinDistChain, FusedMinDistCount
from repro.core.steps import (
    CountAgg,
    DedupOp,
    FilterOp,
    ForkOp,
    MinDistBranchOp,
    ProjectOp,
)
from repro.query.plan import PhysicalPlan

__all__ = ["fuse_plan"]


def _chain_link(op) -> bool:
    """Ops :class:`FusedMinDistChain` may inline: unary, vertex-preserving,
    and executable at the vertex's partition. Custom-keyed dedups are out
    — their memo must shard by key hash, not by vertex."""
    t = type(op)
    if t is FilterOp or t is ProjectOp:
        return True
    return t is DedupOp and op.routing_mode == "vertex"


def _ref_counts(plan: PhysicalPlan) -> dict:
    """How many plan edges (jump targets + stage entries) reference each
    op index. Used to gate rules that inline an op *out* of the plan:
    inlining is only exact when nothing else can jump to it."""
    refs: dict = {}

    def bump(idx: int) -> None:
        refs[idx] = refs.get(idx, 0) + 1

    for op in plan.ops:
        bump(op.next_idx)
        t = type(op)
        if t is MinDistBranchOp:
            bump(op.loop_idx)
            bump(op.exit_idx)
        elif t is ForkOp:
            for target in op.targets:
                bump(target)
    for stage in plan.stages:
        for entry in stage.entry_points:
            bump(entry)
    return refs


def fuse_plan(plan: PhysicalPlan) -> PhysicalPlan:
    """Return a fused copy of ``plan`` (or ``plan`` itself when nothing
    fuses)."""
    ops = list(plan.ops)
    n = len(ops)
    changed = False
    refs = _ref_counts(plan)
    for i, op in enumerate(ops):
        if type(op) is not MinDistBranchOp:
            continue
        ex = op.exit_idx
        if not 0 <= ex < n:
            continue
        exit_op = ops[ex]
        et = type(exit_op)
        if et is CountAgg:
            ops[i] = FusedMinDistCount(op, exit_op)
            changed = True
        elif (
            et is DedupOp
            and exit_op.routing_mode == "vertex"
            and 0 <= exit_op.next_idx < n
            and type(ops[exit_op.next_idx]) is CountAgg
        ):
            # The ``khop().count()`` lowering: exit → vertex dedup →
            # count. Only first admissions count (count_first).
            ops[i] = FusedMinDistCount(
                op, ops[exit_op.next_idx], count_first=True
            )
            changed = True
        else:
            # Exit chain of unary vertex-preserving ops, inlined at the
            # branch. Each chain op must have exactly one predecessor (its
            # chain neighbour / the branch exit) — inlining a dedup that
            # another path also feeds could reorder arrivals at the shared
            # memo label.
            chain = []
            j = ex
            seen = set()
            while (
                0 <= j < n
                and j not in seen
                and _chain_link(ops[j])
                and refs.get(j, 0) == 1
            ):
                seen.add(j)
                chain.append(ops[j])
                j = ops[j].next_idx
            if chain:
                ops[i] = FusedMinDistChain(op, chain)
                changed = True
    if not changed:
        return plan
    return PhysicalPlan(
        plan.name, ops, plan.stages, plan.payload_width,
        list(plan.param_names),
    )
