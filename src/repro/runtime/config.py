"""Engine configuration: the behavioral switch set for all variants.

:class:`EngineConfig` is a frozen value object consumed by
:class:`~repro.runtime.engine.AsyncPSTMEngine` and every baseline variant
built on it (BSP, Banyan/GAIA-style dataflow, non-partitioned). It sits at
the bottom of the runtime layering — it depends only on the core model and
the error types — so any layer (workers, kernels, delivery, recovery) can
read configuration without importing the engine.

All validation happens eagerly in ``__post_init__`` so a bad configuration
fails at construction, not mid-simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.progress import ProgressMode
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultPlan

__all__ = ["EngineConfig", "IO_SYNC", "IO_TLC", "IO_TLC_NLC", "KERNEL_NAMES"]

#: I/O scheduler configurations of Fig 12.
IO_SYNC = "sync"          # no batching: every message is its own packet
IO_TLC = "tlc"            # thread-level combining only
IO_TLC_NLC = "tlc+nlc"    # full two-tier scheduler (default)

#: ``EngineConfig.kernel`` values (docs/PERFORMANCE.md): the production run
#: kernel and the per-traverser scalar oracle it is compared against.
#: Spelled here because configuration is the bottom of the layering;
#: :mod:`repro.runtime.kernels` re-exports it beside the kernels themselves.
KERNEL_NAMES: Tuple[str, ...] = ("run", "scalar")


@dataclass(frozen=True)
class EngineConfig:
    """Behavioral switches for the async engine and its baselines."""

    name: str = "graphdance"
    progress_mode: ProgressMode = ProgressMode.WEIGHTED_COALESCED
    io_mode: str = IO_TLC_NLC
    flush_threshold_bytes: int = 8192
    batch_size: int = 64
    #: False → the non-partitioned baseline: one shared state per node
    partitioned_state: bool = True
    #: dataflow-style per-(op × worker) query setup cost (Banyan/GAIA)
    per_query_instantiation: bool = False
    #: route all aggregation traversers to partition 0 (GAIA)
    centralized_agg: bool = False
    #: execution kernel, one of :data:`KERNEL_NAMES`: "run" is the
    #: production drain (homogeneous runs, one batched call each);
    #: "scalar" is the reference one-traverser-at-a-time loop, kept for
    #: verification and debugging. Simulated output is bit-for-bit
    #: identical either way (the equivalence suites assert it), so the
    #: choice only affects wall-clock time.
    kernel: str = "run"
    #: fault schedule for chaos runs (None → perfect network, immortal
    #: workers, and a send path bit-identical to the pre-fault engine).
    #: Arming a plan also arms the ack/retransmit layer and the watchdog.
    fault_plan: Optional["FaultPlan"] = None
    #: arm stage-boundary checkpointing (docs/RECOVERY.md): a query's
    #: frontier seeds, per-partition memo shards, and RNG state are
    #: snapshotted at each certified stage boundary at most this often
    #: (0.0 → every boundary; None → checkpointing off). Recovery then
    #: restores from the last checkpoint and replays only post-checkpoint
    #: work instead of force-retrying the whole query. Requires a
    #: weighted progress mode — the quiescent cut *is* the closed ledger.
    checkpoint_interval_us: Optional[float] = None
    # -- overload protection (docs/OVERLOAD.md; all default to "off" so the
    # -- default config stays bit-for-bit identical to the pre-overload
    # -- engine, which the equivalence suites assert) ----------------------
    #: at most this many queries execute concurrently; excess submissions
    #: wait in the admission queue (None → admission control disabled)
    max_concurrent_queries: Optional[int] = None
    #: bounded admission queue: submissions beyond this many waiters are
    #: shed immediately with QueryRejectedError
    admission_queue_size: int = 64
    #: a waiter still undispatched after this long fails with
    #: AdmissionTimeoutError (None → waiters never expire); requires
    #: ``max_concurrent_queries``, without which nothing waits
    admission_timeout_us: Optional[float] = None
    #: per-partition bound on in-flight + inboxed remote traversers; arms
    #: credit-based sender throttling (None → unbounded, classic path)
    inbox_capacity: Optional[int] = None
    #: arm the voluntary-preemption policy (docs/RECOVERY.md): when a
    #: higher-priority waiter is parked and no slot is free, the admission
    #: controller preempts the lowest-priority resident query — it yields
    #: at its next certified stage boundary, takes a forced snapshot, is
    #: evicted, and later resumes from that snapshot. Requires admission
    #: control (``max_concurrent_queries``) and an armed checkpoint plane
    #: (``checkpoint_interval_us``); ``engine.preempt()`` stays callable
    #: without this flag as long as the checkpoint plane is armed.
    preemption: bool = False
    #: attach a TraceRecorder and emit structured events from every layer
    #: (docs/OBSERVABILITY.md). Off by default: the disabled mode allocates
    #: no event objects on the hot path.
    trace: bool = False
    #: arm the transaction plane (docs/TRANSACTIONS.md): the engine builds
    #: a TxnPlane sharing the graph's placement, every admitted query is
    #: pinned to a snapshot timestamp (its home node's cached LCT), and
    #: the kernels read base + TEL-delta snapshot views instead of the raw
    #: CSR stores. Off by default: the unarmed engine is bit-identical to
    #: pre-PR10 behaviour.
    transactions: bool = False
    #: simulated delay (µs) before a commit's LCT broadcast reaches node
    #: caches (0 → instantaneous). Staleness is the only permitted error:
    #: a lagged cache pins *older* snapshots, never uncommitted ones.
    lct_broadcast_lag_us: float = 0.0

    def __post_init__(self) -> None:
        if self.io_mode not in (IO_SYNC, IO_TLC, IO_TLC_NLC):
            raise ConfigurationError(f"unknown io_mode {self.io_mode!r}")
        if self.kernel not in KERNEL_NAMES:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; expected one of "
                f"{', '.join(map(repr, KERNEL_NAMES))}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.flush_threshold_bytes < 1:
            raise ConfigurationError(
                f"flush_threshold_bytes must be >= 1, "
                f"got {self.flush_threshold_bytes}"
            )
        for name in ("max_concurrent_queries", "inbox_capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.admission_queue_size < 1:
            raise ConfigurationError(
                f"admission_queue_size must be >= 1, "
                f"got {self.admission_queue_size}"
            )
        if self.admission_timeout_us is not None:
            if self.admission_timeout_us <= 0:
                raise ConfigurationError(
                    f"admission_timeout_us must be > 0, "
                    f"got {self.admission_timeout_us}"
                )
            if self.max_concurrent_queries is None:
                raise ConfigurationError(
                    "admission_timeout_us requires admission control: set "
                    "max_concurrent_queries (without it no submission ever "
                    "waits, so there is no wait to time out)"
                )
        if self.checkpoint_interval_us is not None:
            if self.checkpoint_interval_us < 0:
                raise ConfigurationError(
                    f"checkpoint_interval_us must be >= 0, "
                    f"got {self.checkpoint_interval_us}"
                )
            if not self.progress_mode.is_weighted:
                # The checkpoint cut is certified by the stage ledger
                # reaching the root weight; naive active counters provide
                # no such certificate, so a "boundary" there proves nothing
                # about in-flight traversers.
                raise ConfigurationError(
                    "checkpointing requires a weighted progress mode; the "
                    "quiescent stage boundary is certified by the weight "
                    "ledger (Theorem 1), which NAIVE_CENTRAL lacks"
                )
        if self.preemption:
            if self.max_concurrent_queries is None:
                raise ConfigurationError(
                    "preemption requires admission control: set "
                    "max_concurrent_queries (the policy exists to free "
                    "slots for parked waiters)"
                )
            if self.checkpoint_interval_us is None:
                raise ConfigurationError(
                    "preemption requires an armed checkpoint plane: set "
                    "checkpoint_interval_us (a paused query IS its forced "
                    "boundary snapshot)"
                )
        if self.lct_broadcast_lag_us < 0:
            raise ConfigurationError(
                f"lct_broadcast_lag_us must be >= 0, "
                f"got {self.lct_broadcast_lag_us}"
            )
        if self.lct_broadcast_lag_us and not self.transactions:
            raise ConfigurationError(
                "lct_broadcast_lag_us requires transactions=True; without "
                "the transaction plane there is no LCT to broadcast"
            )
        if self.fault_plan is not None and not self.progress_mode.is_weighted:
            # Naive active counters cannot survive loss: a dropped delta
            # corrupts the count forever, and the weight ledger the
            # recovery protocol leans on does not exist.
            raise ConfigurationError(
                "fault injection requires a weighted progress mode; "
                "NAIVE_CENTRAL counters cannot detect lost work"
            )
