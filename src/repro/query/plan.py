"""Physical plans: operator lists plus stage (subquery) structure.

A :class:`PhysicalPlan` is the compiled form every engine executes:

* ``ops`` — the flat operator list; traversers address ops by index
  (control flow is explicit via each op's ``next_idx`` and branch targets);
* ``stages`` — the aggregation structure of paper §III-C / Fig 6: each stage
  is one progress-tracked subquery, entered at ``entry_idx`` and terminated
  by the aggregation barrier at ``barrier_idx``. Stage 0 is entered through
  a source op; later stages are seeded by the previous barrier's
  ``reseed``. The last stage's barrier ``finalize``s the query result.
* ``payload_width`` — number of payload slots the compiler allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.steps import AggregateOp, PhysicalOp, SourceOp
from repro.errors import CompilationError


@dataclass
class Stage:
    """One progress-tracked subquery of the plan.

    Stage 0 may have several entry points (a bidirectional join launches one
    traversal per pattern endpoint, paper Fig 3); reseeded stages have one.
    """

    index: int
    entry_points: List[int]
    barrier_idx: int

    def __post_init__(self) -> None:
        if not self.entry_points:
            raise CompilationError(f"stage {self.index} has no entry points")

    @property
    def entry_idx(self) -> int:
        """The single entry point (reseed target) of a non-initial stage."""
        if len(self.entry_points) != 1:
            raise CompilationError(
                f"stage {self.index} has {len(self.entry_points)} entry points"
            )
        return self.entry_points[0]


class PhysicalPlan:
    """A compiled, executable query plan."""

    def __init__(
        self,
        name: str,
        ops: List[PhysicalOp],
        stages: List[Stage],
        payload_width: int,
        param_names: Optional[List[str]] = None,
    ) -> None:
        if not ops:
            raise CompilationError("empty plan")
        if not stages:
            raise CompilationError("plan has no stages")
        self.name = name
        self.ops = ops
        self.stages = stages
        self.payload_width = payload_width
        self.param_names = param_names or []
        self._finalize()

    def _finalize(self) -> None:
        for idx, op in enumerate(self.ops):
            op.idx = idx
        # Validate stage structure.
        for entry in self.stages[0].entry_points:
            if not isinstance(self.ops[entry], SourceOp):
                raise CompilationError(
                    "stage 0 must be entered through source ops"
                )
        for stage in self.stages:
            barrier = self.ops[stage.barrier_idx]
            if not isinstance(barrier, AggregateOp):
                raise CompilationError(
                    f"stage {stage.index} barrier op {barrier.name} is not an "
                    "aggregation"
                )
        n = len(self.ops)
        for op in self.ops:
            # Branch-only ops (Fork, MinDistBranch) may leave next_idx
            # unset; their successors are their explicit targets.
            succ = op.successors()
            if not op.is_barrier and not (succ and all(0 <= j < n for j in succ)):
                raise CompilationError(
                    f"op {op.idx} ({op.name}) has no successor"
                )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def stage(self, index: int) -> Stage:
        """The Stage record at an index."""
        return self.stages[index]

    def source_ops(self) -> List[SourceOp]:
        """All stage-0 source ops (several for bidirectional joins)."""
        ops = [self.ops[i] for i in self.stages[0].entry_points]
        assert all(isinstance(op, SourceOp) for op in ops)
        return ops  # type: ignore[return-value]

    def source_op(self) -> SourceOp:
        """The single stage-0 source (raises for multi-source plans)."""
        sources = self.source_ops()
        if len(sources) != 1:
            raise CompilationError(f"plan {self.name!r} has {len(sources)} sources")
        return sources[0]

    def barrier_of(self, stage_index: int) -> AggregateOp:
        """The aggregation barrier terminating a stage."""
        op = self.ops[self.stages[stage_index].barrier_idx]
        assert isinstance(op, AggregateOp)
        return op

    def is_final_stage(self, stage_index: int) -> bool:
        """True for the last (result-producing) stage."""
        return stage_index == len(self.stages) - 1

    def describe(self) -> str:
        """Human-readable plan dump (for docs, debugging, and EXPLAIN)."""
        lines = [f"plan {self.name!r} ({self.num_stages} stages, "
                 f"{self.payload_width} payload slots)"]
        stage_of = {}
        for stage in self.stages:
            stage_of[stage.entry_points[0]] = f"  -- stage {stage.index} --"
        for op in self.ops:
            if op.idx in stage_of:
                lines.append(stage_of[op.idx])
            marker = "*" if op.is_barrier else " "
            extra = ""
            targets = getattr(op, "targets", None)
            if targets:
                extra = f" targets={targets}"
            loop_idx = getattr(op, "loop_idx", None)
            if loop_idx is not None and loop_idx >= 0:
                extra = f" loop={op.loop_idx} exit={op.exit_idx}"
            lines.append(
                f"  [{op.idx:>2}]{marker} {op.name} -> {op.next_idx}{extra}"
            )
        return "\n".join(lines)


@dataclass
class QueryStatement:
    """A plan bound to concrete parameter values — the submit unit."""

    plan: PhysicalPlan
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        missing = [p for p in self.plan.param_names if p not in self.params]
        if missing:
            raise CompilationError(
                f"plan {self.plan.name!r} missing parameters: {missing}"
            )
