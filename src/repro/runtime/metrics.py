"""Run metrics: message/step/byte counters and latency recorders.

These counters feed the paper's microbenchmark figures directly:

* Fig 11 — progress-tracking messages vs other messages (``messages`` by
  :class:`MsgKind`);
* Fig 10/12 — latency under different progress-tracking / I/O-scheduler
  configurations (``QueryMetrics.latency_us``);
* Fig 7 — avg and P99 latency over a mixed workload
  (:class:`LatencyRecorder`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional


class MsgKind(Enum):
    """Wire message categories (for Fig 11's breakdown)."""

    TRAVERSER = "traverser"
    PROGRESS = "progress"
    PARTIAL = "partial"
    SEED = "seed"
    CONTROL = "control"

    # Members are singletons: identity hashing is exact, and it keeps
    # ``Enum.__hash__`` (a Python-level call per ``counters[kind] += 1``)
    # off the per-message send path.
    __hash__ = object.__hash__


@dataclass
class RunMetrics:
    """Global counters for one engine instance."""

    steps_executed: int = 0
    traversers_spawned: int = 0
    edges_scanned: int = 0
    memo_ops: int = 0
    messages: Counter = field(default_factory=Counter)  # MsgKind -> count
    packets_sent: int = 0  # NIC-level packets (after node combining)
    bytes_sent: int = 0
    flushes: int = 0  # thread-level buffer flushes
    local_deliveries: int = 0  # same-node shared-memory deliveries
    # weight reports removed by the node-level fold (tier 2 of coalescing);
    # messages[PROGRESS] still counts every worker-emitted report
    progress_reports_coalesced: int = 0
    supersteps: int = 0  # BSP only
    # Fault-injection / reliability-layer counters (all stay 0 when no
    # FaultPlan is configured; see docs/FAULTS.md).
    retransmits: int = 0  # packet retransmissions after ack timeout
    packets_dropped: int = 0  # transmissions lost to injected drops
    packets_duplicated: int = 0  # network-minted duplicate copies
    packets_delayed: int = 0  # transmissions given extra wire latency
    duplicates_suppressed: int = 0  # receiver-side seq-filtered arrivals
    acks_sent: int = 0  # reliability-layer acknowledgement frames
    worker_crashes: int = 0  # injected crashes (state lost)
    worker_stalls: int = 0  # injected stalls (state kept)
    query_retries: int = 0  # watchdog-triggered query re-executions
    # Checkpoint/restore counters (all stay 0 when checkpointing is
    # disarmed; see docs/RECOVERY.md).
    checkpoints_taken: int = 0  # stage-boundary snapshots stored
    checkpoint_restores: int = 0  # recoveries resumed from a checkpoint
    checkpoint_fallbacks: int = 0  # recoveries with no checkpoint: full retry
    # Voluntary-preemption counters (all stay 0 unless a preempt is
    # requested; see docs/RECOVERY.md and docs/OVERLOAD.md).
    preemptions: int = 0  # queries paused and evicted at a stage boundary
    resumes: int = 0  # paused queries re-admitted and resumed
    pause_wait_us: float = 0.0  # total simulated time queries spent paused
    # Overload-protection counters (all stay 0 without admission control,
    # backpressure, deadlines or caller cancels; see docs/OVERLOAD.md).
    queries_rejected: int = 0  # shed at submission (admission queue full)
    admission_timeouts: int = 0  # expired while waiting for admission
    queries_cancelled: int = 0  # cancellations begun (timeout/caller)
    traversers_reclaimed: int = 0  # queued/buffered/in-flight traversers purged
    weight_reclaim_reports: int = 0  # reclaimed-weight reports to the tracker
    credit_stalls: int = 0  # sends deferred by an exhausted credit gate
    # Transaction-plane counters (all stay 0 unless EngineConfig.transactions
    # arms the plane; see docs/TRANSACTIONS.md).
    txn_commits: int = 0  # update transactions committed (LCT advanced)
    txn_aborts: int = 0  # aborts: lock conflicts + torn commits
    txn_replays: int = 0  # version-log recovery scans run after crashes
    snapshot_pins: int = 0  # queries pinned to a snapshot timestamp
    # Lifecycle audit trail: every validated state-machine edge taken by any
    # query, keyed "src->dst" (e.g. "running->done"). Soak tests assert the
    # key set stays inside the legal-transition table of
    # repro.runtime.lifecycle (illegal edges raise, so any key here is legal
    # by construction — the counter exists for post-hoc run audits).
    lifecycle_transitions: Counter = field(default_factory=Counter)  # str -> count
    # BSP only: per-superstep compute totals vs barrier-idle time. Idle is
    # Σ_s (P·max_p - Σ_p) compute — worker-time wasted waiting at barriers
    # because the superstep's frontier was imbalanced (the paper's
    # straggler/low-utilization critique of BSP).
    bsp_compute_us: float = 0.0
    bsp_idle_us: float = 0.0

    @property
    def bsp_idle_fraction(self) -> float:
        """Fraction of worker-time wasted at barriers (BSP engines only)."""
        total = self.bsp_compute_us + self.bsp_idle_us
        return self.bsp_idle_us / total if total > 0 else 0.0

    def message_count(self, kind: MsgKind) -> int:
        """Logical message count of one kind."""
        return self.messages.get(kind, 0)

    @property
    def progress_messages(self) -> int:
        return self.message_count(MsgKind.PROGRESS)

    @property
    def other_messages(self) -> int:
        return sum(v for k, v in self.messages.items() if k is not MsgKind.PROGRESS)

    def snapshot(self) -> Dict[str, int]:
        """All counters as a flat dict (for reports and trace exports).

        Derived from the dataclass fields rather than a hand-maintained
        key list, so a counter added to :class:`RunMetrics` can never be
        silently missing from reports — the metrics-completeness test
        asserts exactly this property. The two Counter-valued fields are
        flattened: ``messages`` to one ``messages_<kind>`` entry per
        :class:`MsgKind` and ``lifecycle_transitions`` to its total (the
        per-edge breakdown stays on the attribute for audits).
        """
        from dataclasses import fields

        out: Dict[str, int] = {}
        for f in fields(self):
            if f.name == "messages":
                for kind in MsgKind:
                    out[f"messages_{kind.value}"] = self.message_count(kind)
            elif f.name == "lifecycle_transitions":
                out[f.name] = sum(self.lifecycle_transitions.values())
            else:
                out[f.name] = getattr(self, f.name)
        return out


@dataclass
class QueryMetrics:
    """Per-query outcome."""

    query_id: int
    plan_name: str
    submitted_at_us: float
    completed_at_us: Optional[float] = None
    steps_executed: int = 0
    result_rows: int = 0
    #: traversers this query spawned
    traversers_spawned: int = 0
    # Fault-recovery accounting (all stay 0 without a FaultPlan).
    retries: int = 0  # watchdog-triggered re-executions of this query
    #: of those retries, how many resumed from a stage-boundary checkpoint
    #: instead of re-executing from stage 0 (docs/RECOVERY.md)
    restores: int = 0
    #: voluntary preemptions: times this query was paused and evicted at a
    #: stage boundary, then resumed from the forced snapshot — does NOT
    #: consume the retry budget (no work was lost; docs/RECOVERY.md)
    pauses: int = 0
    #: total simulated time this query spent evicted (paused → resumed)
    pause_wait_us: float = 0.0
    retransmits: int = 0  # packet retransmits carrying this query's traffic
    faults_injected: int = 0  # injected faults that hit this query's packets
    # Overload-protection accounting (see docs/OVERLOAD.md).
    cancelled: bool = False  # a cancellation was begun for this query
    cancel_reason: Optional[str] = None  # "timeout" / "caller"
    traversers_reclaimed: int = 0  # this query's purged traversers

    @property
    def latency_us(self) -> float:
        if self.completed_at_us is None:
            raise ValueError(f"query {self.query_id} has not completed")
        return self.completed_at_us - self.submitted_at_us

    @property
    def done(self) -> bool:
        return self.completed_at_us is not None

    @property
    def degraded(self) -> bool:
        """True when the result was produced by a crash-recovery retry.

        The rows are still exact — re-execution starts from invalidated
        memos (or, with checkpointing armed, from a certified
        stage-boundary snapshot) — but the latency includes the lost
        attempt(s) and the per-operator profile mixes the executions.
        """
        return self.retries > 0

    @property
    def resumed(self) -> bool:
        """True when at least one retry resumed from a checkpoint instead
        of re-executing the query from stage 0 (docs/RECOVERY.md)."""
        return self.restores > 0


class LatencyRecorder:
    """Collects latencies and reports avg / percentiles (Fig 7)."""

    def __init__(self) -> None:
        self._values: List[float] = []

    def record(self, latency_us: float) -> None:
        """Record one latency sample (µs)."""
        self._values.append(latency_us)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    def average(self) -> float:
        """Mean of the recorded latencies."""
        if not self._values:
            raise ValueError("no latencies recorded")
        return sum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (rank = ⌈p/100 · N⌉), p in [0, 100]."""
        import math

        if not self._values:
            raise ValueError("no latencies recorded")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self._values)
        if p == 0:
            return ordered[0]
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def p99(self) -> float:
        """The 99th-percentile latency (nearest rank)."""
        return self.percentile(99)
