"""Fluent Gremlin-like traversal builder.

The public query API. Example — the paper's Fig 1 k-hop influencer query::

    from repro.query.traversal import Traversal
    from repro.query.exprs import X

    query = (
        Traversal("khop-influencers")
        .v_param("start")
        .khop("knows", k=3)
        .filter_(X.vertex().neq(X.param("start")))
        .values("w", "weight")
        .as_("vid")
        .select("vid", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("vid"), "asc"))
        .limit(10)
    )
    plan = query.compile(graph)

Builders are mutable accumulators of logical steps; ``compile`` applies the
traversal strategies and lowers to a physical plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.errors import CompilationError
from repro.query import ast
from repro.query.exprs import X

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.partition import PartitionedGraph
    from repro.query.plan import PhysicalPlan


class Traversal:
    """A logical traversal under construction."""

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self.steps: List[ast.LogicalStep] = []
        self._order: Optional[ast.OrderLimitStep] = None

    # -- sources -----------------------------------------------------------

    def v_param(self, param: str) -> "Traversal":
        """Start at the vertex given by query parameter ``param``."""
        self._require_empty_source()
        self.steps.append(ast.VParamStep(param))
        return self

    def v_const(self, vertex: int) -> "Traversal":
        """Start at a fixed vertex id."""
        self._require_empty_source()
        self.steps.append(ast.VConstStep(vertex))
        return self

    def index_lookup(self, label: str, key: str, value_param: str) -> "Traversal":
        """Start from an exact-match index lookup (``has(label, key, $p)``)."""
        self._require_empty_source()
        self.steps.append(ast.IndexLookupStep(label, key, value_param))
        return self

    def scan(self, label: Optional[str] = None) -> "Traversal":
        """Start from a full vertex scan (optionally one label)."""
        self._require_empty_source()
        self.steps.append(ast.ScanStep(label))
        return self

    # -- movement ------------------------------------------------------------

    def out(
        self,
        label: Optional[str] = None,
        edge_prop: Optional[Tuple[str, str]] = None,
    ) -> "Traversal":
        """Hop along outgoing edges. ``edge_prop=(key, binding)`` binds an
        edge property into a named binding while hopping."""
        self.steps.append(self._expand("out", label, edge_prop))
        return self

    def in_(
        self,
        label: Optional[str] = None,
        edge_prop: Optional[Tuple[str, str]] = None,
    ) -> "Traversal":
        """Hop along incoming edges."""
        self.steps.append(self._expand("in", label, edge_prop))
        return self

    def both(
        self,
        label: Optional[str] = None,
        edge_prop: Optional[Tuple[str, str]] = None,
    ) -> "Traversal":
        """Hop along edges in both directions."""
        self.steps.append(self._expand("both", label, edge_prop))
        return self

    @staticmethod
    def _expand(
        direction: str,
        label: Optional[str],
        edge_prop: Optional[Tuple[str, str]],
    ) -> ast.ExpandStep:
        if edge_prop is None:
            return ast.ExpandStep(direction, label)
        key, binding = edge_prop
        return ast.ExpandStep(direction, label, key, binding)

    def goto(self, binding: str) -> "Traversal":
        """Relocate to a vertex bound earlier (typically after a join)."""
        self.steps.append(ast.GotoStep(binding))
        return self

    def khop(
        self,
        label: Optional[str] = None,
        k: int = 2,
        direction: str = "out",
        dist_binding: str = "__dist__",
        emit: str = "distinct",
    ) -> "Traversal":
        """Memo-pruned k-hop neighborhood (paper Fig 1/4/5).

        With ``emit="distinct"`` (default) each reached vertex (including
        the start, at distance 0) continues downstream exactly once; with
        ``emit="improving"`` every distance improvement flows downstream
        (combine with ``min_`` for exact shortest distances).
        """
        if k < 1:
            raise CompilationError(f"khop requires k >= 1, got {k}")
        if emit not in ("distinct", "improving"):
            raise CompilationError(f"khop emit must be distinct/improving: {emit!r}")
        self.steps.append(ast.KHopStep(direction, label, k, dist_binding, emit))
        return self

    # -- filtering -------------------------------------------------------------

    def filter_(self, expr: X) -> "Traversal":
        """Keep traversers satisfying an expression."""
        self.steps.append(ast.FilterStep(expr))
        return self

    def has(self, key: str, value: Any) -> "Traversal":
        """Keep vertices whose property equals a constant value."""
        self.steps.append(ast.HasStep(key, const=value))
        return self

    def has_param(self, key: str, param: str) -> "Traversal":
        """Keep vertices whose property equals a query parameter."""
        self.steps.append(ast.HasStep(key, param=param))
        return self

    def has_label(self, label: str) -> "Traversal":
        """Keep vertices with the given label."""
        self.steps.append(ast.HasLabelStep(label))
        return self

    def dedup(self, *by: str) -> "Traversal":
        """Deduplicate by bindings (or by current vertex when none given)."""
        self.steps.append(ast.DedupStep(list(by) or None))
        return self

    # -- bindings ---------------------------------------------------------------

    def as_(self, name: str) -> "Traversal":
        """Bind the current vertex id to a name."""
        self.steps.append(ast.AsStep(name))
        return self

    def values(self, name: str, prop_key: str, default: Any = None) -> "Traversal":
        """Bind a vertex property to a name."""
        self.steps.append(ast.ValuesStep(name, prop_key, default))
        return self

    def project(self, **assignments: X) -> "Traversal":
        """Bind several expressions to names."""
        self.steps.append(ast.ProjectStep(dict(assignments)))
        return self

    # -- branching ---------------------------------------------------------------

    def union(self, *branches: Callable[["Traversal"], "Traversal"]) -> "Traversal":
        """Clone the traverser through several sub-traversals and merge.

        Each branch callback receives a fresh headless builder::

            t.union(lambda b: b.out("knows"),
                    lambda b: b.out("knows").out("knows"))
        """
        if len(branches) < 2:
            raise CompilationError("union needs at least two branches")
        compiled = []
        for branch in branches:
            sub = Traversal(f"{self.name}#branch")
            branch(sub)
            if sub._order is not None:
                raise CompilationError("union branches cannot order/limit")
            compiled.append(sub.steps)
        self.steps.append(ast.UnionStep(compiled))
        return self

    @classmethod
    def join(
        cls,
        name: str,
        left: "Traversal",
        left_key: str,
        right: "Traversal",
        right_key: str,
    ) -> "Traversal":
        """Bidirectional join of two complete sub-traversals (Fig 3).

        ``left`` and ``right`` must each begin with their own source; they
        meet at the join key (a binding name defined in each side). The
        returned traversal continues after the join with both sides'
        bindings visible.
        """
        t = cls(name)
        t.steps.append(
            ast.JoinStep(
                ast.JoinSpec(left.steps, left_key),
                ast.JoinSpec(right.steps, right_key),
            )
        )
        return t

    # -- aggregation (terminal or mid-plan) ----------------------------------------

    def count(self) -> "Traversal":
        """Terminal (or staged) global count."""
        self.steps.append(ast.CountStep())
        return self

    def sum_(self, binding: str) -> "Traversal":
        """Sum a bound value across traversers."""
        self.steps.append(ast.SumStep(binding))
        return self

    def max_(self, binding: str) -> "Traversal":
        """Maximum of a bound value across traversers."""
        self.steps.append(ast.MaxStep(binding))
        return self

    def min_(self, binding: str) -> "Traversal":
        """Minimum of a bound value across traversers."""
        self.steps.append(ast.MinStep(binding))
        return self

    def group_count(
        self, binding: Optional[str] = None, limit: Optional[int] = None
    ) -> "Traversal":
        """Count traversers per key; optionally keep the top-``limit``
        groups by descending count."""
        self.steps.append(ast.GroupCountStep(binding, limit))
        return self

    # -- output ----------------------------------------------------------------------

    def select(self, *names: str) -> "Traversal":
        """Declare the output row as a tuple of binding values."""
        if not names:
            raise CompilationError("select needs at least one binding name")
        self.steps.append(ast.SelectStep(list(names)))
        return self

    def order_by(
        self, *parts: Tuple[X, str], unique: bool = False
    ) -> "Traversal":
        """Order final rows by (expression, "asc"/"desc") pairs.

        ``unique=True`` declares that the combined sort key is a total
        order over the result rows — no two rows ever compare equal
        (typically because the last part is a unique id tiebreaker).
        The declaration lets each partition's bounded top-N partial skip
        the heap for rows below its cutoff; a false declaration can
        change which of several tied rows survive the limit cutoff.
        """
        if self._order is None:
            self._order = ast.OrderLimitStep(list(parts), unique=unique)
        else:
            self._order.parts.extend(parts)
            self._order.unique = self._order.unique or unique
        return self

    def limit(self, n: int) -> "Traversal":
        """Keep only the first ``n`` final rows (after ordering)."""
        if n < 1:
            raise CompilationError(f"limit must be >= 1, got {n}")
        if self._order is None:
            self._order = ast.OrderLimitStep([], limit=n)
        else:
            self._order.limit = n
        return self

    # -- compilation -------------------------------------------------------------------

    def logical_steps(self) -> List[ast.LogicalStep]:
        """The full step list including the trailing order/limit step."""
        steps = list(self.steps)
        if self._order is not None:
            steps.append(self._order)
        return steps

    def compile(
        self, graph: "PartitionedGraph", fuse: bool = False
    ) -> "PhysicalPlan":
        """Apply traversal strategies and lower to a physical plan.

        ``fuse`` is accepted and ignored (see
        :func:`~repro.query.compiler.compile_traversal`).
        """
        from repro.query.compiler import compile_traversal

        return compile_traversal(self, graph, fuse=fuse)

    # -- internal -----------------------------------------------------------------------

    def _require_empty_source(self) -> None:
        if self.steps:
            raise CompilationError("source step must come first")
