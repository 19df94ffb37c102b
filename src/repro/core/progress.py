"""Progress tracking and termination detection (paper §III-B, §IV-A).

Detecting that an asynchronous traversal has terminated means certifying a
global quiescent state: no active traversers anywhere and none in flight.
The paper's weight-throwing scheme does this with one 64-bit addition per
finished traverser. This module implements the tracker-side state for the
three tracking modes the evaluation compares:

* :attr:`ProgressMode.WEIGHTED_COALESCED` — full GraphDance: workers fold
  finished weights into a local accumulator and piggyback the combined value
  on their next message-buffer flush (weight coalescing, §IV-A(a));
* :attr:`ProgressMode.WEIGHTED_IMMEDIATE` — the weight of every finished
  traverser is sent to the tracker as its own message (the "WC disabled"
  configuration of Fig 10/11);
* :attr:`ProgressMode.NAIVE_CENTRAL` — the strawman the paper measures as
  up to 4.46× slower: every *execution* reports an active-count delta to a
  centralized tracker, which declares termination on count zero.

The tracker is pure bookkeeping; the engines place it on a concrete worker
and charge CPU/network costs for its messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from repro.core.weight import ROOT_WEIGHT, WeightLedger
from repro.errors import TerminationError


class ProgressMode(Enum):
    """How query progress is tracked and termination detected."""

    WEIGHTED_COALESCED = "weighted+wc"
    WEIGHTED_IMMEDIATE = "weighted"
    NAIVE_CENTRAL = "naive"

    @property
    def is_weighted(self) -> bool:
        return self is not ProgressMode.NAIVE_CENTRAL

    @property
    def coalesced(self) -> bool:
        return self is ProgressMode.WEIGHTED_COALESCED


@dataclass
class NaiveCounter:
    """Active-traverser counter for the naive centralized mode.

    Deltas may arrive out of order (a child's finish can overtake its
    parent's spawn report on a faster network path), so the counter may go
    transiently negative and may cross zero before true quiescence. The
    engine therefore validates every zero crossing against actual global
    state before declaring termination.
    """

    active: int = 0
    reports: int = 0

    def report(self, delta: int) -> bool:
        """Apply a delta; True when the count reaches zero."""
        self.active += delta
        self.reports += 1
        return self.active == 0


class ProgressTracker:
    """Central tracker for all (query, stage) subqueries.

    One instance exists per engine run; it is hosted by a single designated
    worker (the centralization the paper's weight coalescing relieves).
    ``on_complete(query_id, stage)`` fires exactly once per subquery.
    """

    def __init__(
        self,
        mode: ProgressMode,
        on_complete: Callable[[int, int], None],
    ) -> None:
        self.mode = mode
        self._on_complete = on_complete
        self._ledgers: Dict[Tuple[int, int], WeightLedger] = {}
        self._counters: Dict[Tuple[int, int], NaiveCounter] = {}
        self._messages_received = 0
        self._reclaim_reports = 0

    @property
    def messages_received(self) -> int:
        """Progress messages processed — the tracker's load (Fig 11)."""
        return self._messages_received

    @property
    def reclaim_reports(self) -> int:
        """Weight reports folded in by cancellation reclamation."""
        return self._reclaim_reports

    @property
    def open_stage_count(self) -> int:
        """Ledgers/counters currently held — must drain to 0 at idle.

        Tests assert this after any mix of completions, timeouts, and
        cancellations: a nonzero value at quiescence is a leaked stage.
        """
        return len(self._ledgers) + len(self._counters)

    def open_stage(self, query_id: int, stage: int) -> None:
        """Register a new subquery before any of its reports can arrive."""
        key = (query_id, stage)
        if self.mode.is_weighted:
            if key in self._ledgers:
                raise TerminationError(f"stage {key} already open")
            self._ledgers[key] = WeightLedger(ROOT_WEIGHT)
        else:
            if key in self._counters:
                raise TerminationError(f"stage {key} already open")
            # The stage's root traverser is accounted at open time.
            self._counters[key] = NaiveCounter(active=0)

    def close_stage(self, query_id: int, stage: int) -> None:
        """Drop one stage's ledger/counter once the engine consumed it.

        Called at every stage boundary so terminated ledgers do not pile up
        for the life of a long query, and so late weight reports for the
        stage (e.g. retransmitted duplicates under fault injection) resolve
        to the "unknown stage" path in :meth:`report_weight` rather than
        touching a terminated ledger. After this call :meth:`ledger`
        returns ``None`` for the stage.
        """
        key = (query_id, stage)
        self._ledgers.pop(key, None)
        self._counters.pop(key, None)

    def close_query(self, query_id: int) -> None:
        """Drop *all* state of a finished/aborted/retried query.

        Every per-stage ledger and naive counter belonging to ``query_id``
        is removed — after this call :meth:`ledger` returns ``None`` for
        every stage of the query and late reports are silently ignored, so
        a closed query can never re-fire ``on_complete`` or leak ledgers.
        """
        for store in (self._ledgers, self._counters):
            for key in [k for k in store if k[0] == query_id]:
                del store[key]

    def report_weight(self, query_id: int, stage: int, weight: int) -> bool:
        """Fold one finished-weight report into a stage's ledger.

        Returns ``True`` exactly when this report completes the stage (the
        ledger's group sum reaches the root weight — Theorem 1), in which
        case ``on_complete(query_id, stage)`` has fired. Reports for
        unknown or already-terminated stages — late arrivals from closed
        queries, stale retransmits — are counted but otherwise ignored and
        return ``False``.
        """
        if not self.mode.is_weighted:
            raise TerminationError("weight report in naive mode")
        self._messages_received += 1
        return self._fold(query_id, stage, weight)

    def report_reclaimed(self, query_id: int, stage: int, weight: int) -> bool:
        """Fold reclaimed weight from a cancelled query's purged traversers.

        Cancellation discards traversers instead of executing them; their
        progression weight would otherwise be lost and the stage ledger
        could never reach the root weight (the same signature as a dropped
        packet — see docs/FAULTS.md). Reclamation reports the discarded
        weight on the query's behalf so ``Σ active + finished = 1``
        (Theorem 1) still closes and the ledger terminates cleanly,
        letting the engine finalize the cancellation without a watchdog.

        Same ledger arithmetic as :meth:`report_weight`, but counted
        separately (``reclaim_reports``) because these reports are minted
        by the cancellation protocol, not by finished traversers.
        """
        if not self.mode.is_weighted:
            raise TerminationError("weight reclamation in naive mode")
        self._reclaim_reports += 1
        return self._fold(query_id, stage, weight)

    def _fold(self, query_id: int, stage: int, weight: int) -> bool:
        """Fold ``weight`` into an open stage's ledger; ``True`` (and
        ``on_complete`` fired) exactly when it completes the stage."""
        ledger = self._ledgers.get((query_id, stage))
        if ledger is None or ledger.terminated:
            return False  # stale or reclaimed late: the stage already closed
        if ledger.report(weight):
            self._on_complete(query_id, stage)
            return True
        return False

    def add_naive_active(self, query_id: int, stage: int, count: int) -> None:
        """Account root traversers injected by the coordinator (no message)."""
        counter = self._counters.get((query_id, stage))
        if counter is None:
            raise TerminationError(f"stage ({query_id}, {stage}) not open")
        counter.active += count

    def report_delta(self, query_id: int, stage: int, delta: int) -> bool:
        """Naive-mode active-count delta. Returns True on termination."""
        if self.mode.is_weighted:
            raise TerminationError("delta report in weighted mode")
        self._messages_received += 1
        key = (query_id, stage)
        counter = self._counters.get(key)
        if counter is None:
            return False
        if counter.report(delta):
            self._on_complete(query_id, stage)
            return True
        return False

    def ledger(self, query_id: int, stage: int) -> Optional[WeightLedger]:
        """The weighted ledger of one *open* stage.

        Returns ``None`` for stages that were never opened or whose state
        was dropped by :meth:`close_stage` / :meth:`close_query` — callers
        (e.g. the engine's fault watchdog reading ``ledger().received`` as
        a progress fingerprint) must handle the ``None`` case.
        """
        return self._ledgers.get((query_id, stage))
