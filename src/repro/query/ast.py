"""Logical traversal AST: the Gremlin-like step tree.

These dataclasses are what the fluent builder (:mod:`repro.query.traversal`)
records and what traversal strategies (:mod:`repro.query.strategies`)
rewrite. The compiler (:mod:`repro.query.compiler`) lowers them to physical
operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.query.exprs import X


class LogicalStep:
    """Base class for logical steps (marker)."""


# -- sources -----------------------------------------------------------------


@dataclass
class VParamStep(LogicalStep):
    """Start at the vertex named by a query parameter (``g.V($p)``)."""

    param: str


@dataclass
class VConstStep(LogicalStep):
    """Start at a fixed vertex id."""

    vertex: int


@dataclass
class IndexLookupStep(LogicalStep):
    """Start from an exact-match property index lookup."""

    label: str
    key: str
    value_param: str


@dataclass
class ScanStep(LogicalStep):
    """Start from a full scan of one vertex label (or all vertices)."""

    label: Optional[str] = None


# -- traversal ----------------------------------------------------------------


@dataclass
class ExpandStep(LogicalStep):
    """One hop along incident edges.

    ``edge_prop_key``/``edge_prop_binding`` bind an edge property (e.g. a
    ``knows`` edge's ``creationDate``) into a named binding while hopping.
    """

    direction: str  # "out" | "in" | "both"
    label: Optional[str] = None
    edge_prop_key: Optional[str] = None
    edge_prop_binding: Optional[str] = None


@dataclass
class GotoStep(LogicalStep):
    """Relocate the traverser to a vertex bound earlier (post-join resume)."""

    binding: str


@dataclass
class KHopStep(LogicalStep):
    """Memo-pruned multi-hop expansion (the paper's Fig 1/Fig 5 pattern).

    Emits the vertices within ``k`` hops (including the start at distance
    0), visiting each vertex's memo record at most ``k`` times.
    ``dist_binding`` exposes the discovered distance as a binding.

    ``emit`` controls exit semantics under asynchronous execution, where a
    vertex can be discovered at a longer distance before a shorter one:

    * ``"distinct"`` (default) — a per-vertex dedup on the exit path emits
      each vertex exactly once (the Dedup step of the paper's Fig 2 plan);
      the bound distance is *a* discovery distance ≤ k, not necessarily the
      shortest, so downstream logic must not filter on its exact value
      (``dist >= 1`` to drop the start vertex is safe).
    * ``"improving"`` — every distance improvement is emitted; combine with
      a ``min`` aggregation for exact shortest distances (IC13/IC14).
    """

    direction: str
    label: Optional[str]
    k: int
    dist_binding: str = "__dist__"
    emit: str = "distinct"


@dataclass
class FilterStep(LogicalStep):
    """Keep traversers satisfying an expression."""

    expr: X


@dataclass
class HasStep(LogicalStep):
    """Structured property-equality filter (``has(key, value)``).

    Kept structured (rather than an opaque expression) so the
    IndexLookUpStrategy can rewrite Scan+Has into an index lookup.
    Exactly one of ``const`` / ``param`` is set.
    """

    key: str
    const: Any = None
    param: Optional[str] = None


@dataclass
class HasLabelStep(LogicalStep):
    """Keep traversers whose current vertex has the given label."""

    label: str


@dataclass
class AsStep(LogicalStep):
    """Bind the current vertex id to a name."""

    name: str


@dataclass
class ValuesStep(LogicalStep):
    """Bind a vertex property to a name."""

    name: str
    prop_key: str
    default: Any = None


@dataclass
class ProjectStep(LogicalStep):
    """Bind several expressions to names."""

    assignments: Dict[str, X]


@dataclass
class DedupStep(LogicalStep):
    """Remove duplicate traversers by key (default: current vertex)."""

    by: Optional[List[str]] = None  # binding names; None → vertex


@dataclass
class UnionStep(LogicalStep):
    """Run each branch on a copy of the traverser; merge outputs."""

    branches: List[List[LogicalStep]]


@dataclass
class JoinSpec:
    """One side of a bidirectional join (a full sub-traversal)."""

    steps: List[LogicalStep]
    key: str  # binding name providing the join key


@dataclass
class JoinStep(LogicalStep):
    """Bidirectional double-pipelined join of two sub-traversals (Fig 3)."""

    left: JoinSpec
    right: JoinSpec


# -- aggregations (barriers) ---------------------------------------------------


@dataclass
class CountStep(LogicalStep):
    pass


@dataclass
class SumStep(LogicalStep):
    binding: str


@dataclass
class MaxStep(LogicalStep):
    binding: str


@dataclass
class MinStep(LogicalStep):
    binding: str


@dataclass
class GroupCountStep(LogicalStep):
    """Count traversers per key (binding name; None → current vertex).

    ``limit`` keeps only the top-``limit`` groups by descending count.
    """

    binding: Optional[str] = None
    limit: Optional[int] = None


@dataclass
class SelectStep(LogicalStep):
    """Declare the output row: a tuple of binding values (or expressions)."""

    names: List[str]


@dataclass
class OrderLimitStep(LogicalStep):
    """Order (by bindings) and limit the final rows. Must be terminal."""

    parts: List[Tuple[X, str]]  # (expr over bindings, "asc"/"desc")
    limit: Optional[int] = None
    #: the query author's declaration that the combined sort key is a
    #: total order over result rows (no ties) — e.g. it ends with a
    #: unique id tiebreaker, as every LDBC interactive query's does.
    #: Gates ``CollectAgg``'s below-cutoff heap skip.
    unique: bool = False
