"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Errors in graph construction or access."""


class VertexNotFoundError(GraphError):
    """A vertex id was not present in the graph."""

    def __init__(self, vertex_id: object) -> None:
        super().__init__(f"vertex not found: {vertex_id!r}")
        self.vertex_id = vertex_id


class EdgeNotFoundError(GraphError):
    """An edge id was not present in the graph."""

    def __init__(self, edge_id: object) -> None:
        super().__init__(f"edge not found: {edge_id!r}")
        self.edge_id = edge_id


class PropertyNotFoundError(GraphError):
    """A requested property key is absent on a vertex or edge."""


class PartitionError(GraphError):
    """Errors in graph partitioning or cross-partition routing."""


class QueryError(ReproError):
    """Errors in query construction, compilation, or planning."""


class CompilationError(QueryError):
    """The logical traversal could not be compiled to a physical plan."""


class PlanningError(QueryError):
    """The cost-based planner could not produce a plan."""


class ExecutionError(ReproError):
    """Errors raised while executing a query."""


class LifecycleError(ExecutionError):
    """An illegal query-lifecycle transition was attempted.

    The query lifecycle (:mod:`repro.runtime.lifecycle`) is a validated
    state machine; any attempt to take an edge outside its legal-transition
    table is a bug in the engine, surfaced eagerly instead of corrupting
    outcome flags.
    """

    def __init__(self, src: str, dst: str) -> None:
        super().__init__(f"illegal lifecycle transition: {src} -> {dst}")
        self.src = src
        self.dst = dst


class QueryTimeoutError(ExecutionError):
    """A query exceeded its (simulated) time limit."""

    def __init__(self, query_id: object, limit_ms: float) -> None:
        super().__init__(f"query {query_id!r} exceeded time limit of {limit_ms} ms")
        self.query_id = query_id
        self.limit_ms = limit_ms


class TerminationError(ExecutionError):
    """Progress tracking reached an inconsistent state."""


class RetryBudgetExceededError(ExecutionError):
    """A query kept losing work to injected faults and ran out of retries.

    Raised by the async engine's crash-recovery path when the watchdog has
    re-executed a query ``retry_budget`` times and the latest attempt is
    still stuck (e.g. its start vertex lives on a permanently crashed
    worker). See docs/FAULTS.md.
    """

    def __init__(self, query_id: object, retries: int) -> None:
        super().__init__(
            f"query {query_id!r} still stuck after {retries} recovery "
            f"retries; giving up"
        )
        self.query_id = query_id
        self.retries = retries


class MemoError(ExecutionError):
    """Invalid memo access (e.g. cross-query or cross-partition access)."""


class OverloadError(ExecutionError):
    """Base class for admission-control and resource-protection errors.

    Raised by the overload-protection layer (docs/OVERLOAD.md) when a query
    is shed, expires before dispatch, or is cancelled — the
    engine degrades gracefully by failing *this* query fast instead of
    letting it degrade every tenant.
    """


class QueryRejectedError(OverloadError):
    """The admission queue was full; the query was shed at submission.

    Load shedding under saturation: the engine refuses work it cannot
    start within bounded state, so admitted queries keep their latency.
    """

    def __init__(self, query_id: object, queue_size: int) -> None:
        super().__init__(
            f"query {query_id!r} rejected: admission queue full "
            f"({queue_size} waiting)"
        )
        self.query_id = query_id
        self.queue_size = queue_size


class AdmissionTimeoutError(OverloadError):
    """The query waited in the admission queue past its admission deadline."""

    def __init__(self, query_id: object, waited_us: float) -> None:
        super().__init__(
            f"query {query_id!r} expired in the admission queue after "
            f"{waited_us:.0f} us"
        )
        self.query_id = query_id
        self.waited_us = waited_us


class QueryCancelledError(OverloadError):
    """The query was cancelled by its caller before completing."""

    def __init__(self, query_id: object, reason: str) -> None:
        super().__init__(f"query {query_id!r} cancelled: {reason}")
        self.query_id = query_id
        self.reason = reason


class TransactionError(ReproError):
    """Errors in transactional processing."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (deadlock, conflict, or explicit abort)."""

    def __init__(self, txn_id: object, reason: str) -> None:
        super().__init__(f"transaction {txn_id!r} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class SimulationError(ReproError):
    """Errors in the discrete-event simulation runtime."""


class ConfigurationError(ReproError):
    """Invalid cluster, hardware, or engine configuration."""
