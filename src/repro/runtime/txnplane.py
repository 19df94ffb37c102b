"""The transaction plane: snapshot reads under concurrent writers.

Wires the dormant transactional store (:mod:`repro.txn`) into the layered
async runtime (paper §IV-C, the Fig 7 mixed workload):

* **Writers** — update streams (e.g. the LDBC SNB UP operations of
  :mod:`repro.ldbc.queries.updates`) are scheduled on the simulated clock
  and routed through the MV2PL :class:`~repro.txn.manager.TransactionManager`
  against the TEL-backed multi-version delta. Each update charges its
  service time to the worker owning its home vertex's partition, so
  concurrent reads queue behind writers exactly as the paper's latency
  curves require. Commit/abort hooks emit ``TXN_BEGIN`` / ``TXN_COMMIT`` /
  ``TXN_ABORT`` trace events, and every commit schedules an LCT broadcast
  (optionally delayed by ``EngineConfig.lct_broadcast_lag_us`` — staleness
  is the only permitted cache error).
* **Readers** — :meth:`TxnPlane.pin` stamps every admitted query with the
  cached LCT of its home node. The query's per-partition
  :class:`~repro.core.steps.StepContext` then reads through a
  :class:`~repro.txn.view.SnapshotStore` at that timestamp instead of the
  raw CSR store, so the run and scalar kernels both see the same
  version cut — commits after the pin stay invisible for the query's whole
  life, including crash-recovery retries (the pin survives the retry).
  Closing the session unpins it; a view no live query pins, below every
  node's cached LCT, is dropped (docs/TRANSACTIONS.md).
* **Recovery composition** — when a worker crashes, the recovery manager
  calls :meth:`TxnPlane.replay_after_crash` *synchronously, before* the
  checkpoint plane's restore events run: the version scan
  (:func:`repro.txn.recovery.recover`) discards torn post-LCT versions and
  emits ``VERSION_REPLAY``, then updates parked behind the torn commit
  re-apply. Traversals therefore never resume over a delta the recovery
  scan has not certified.
* **Placement** — the plane's manager shares the **graph's** placement
  (not a private hash), so delta rows live where their base rows do.

This module sits between ``checkpoint`` and ``lifecycle`` in the runtime
layering (``tools/check_layering.py``); it is also the only runtime module
allowed to import :mod:`repro.txn` — raw TEL access from other layers is
banned by the same tool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TransactionAborted
from repro.runtime.trace import (
    SNAPSHOT_PIN,
    TXN_ABORT,
    TXN_BEGIN,
    TXN_COMMIT,
    VERSION_REPLAY,
)
from repro.txn.manager import TransactionManager
from repro.txn.recovery import RecoveryReport, recover
from repro.txn.view import SnapshotGraph, SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.txn.transaction import Transaction

__all__ = ["TxnPlane"]

#: an update's body: receives the manager, begins/commits its own txns
UpdateFn = Callable[[TransactionManager], Any]


class TxnPlane:
    """Engine-attached coordinator for writers, snapshots, and replay."""

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine
        # Share the graph's placement so base and delta agree on ownership.
        self.txm = TransactionManager(engine.graph.partitioner)
        self.lag_us = engine.config.lct_broadcast_lag_us
        self._nodes = list(range(engine.nodes))
        # Snapshot stores are immutable-at-ts views; one per (ts, pid) is
        # shared by every query pinned at that cut, and dropped once no
        # query can pin it again (:meth:`_evict_stale`).
        self._stores: Dict[int, Dict[int, SnapshotStore]] = {}
        #: live (not yet closed) queries per pinned timestamp
        self._pins: Dict[int, int] = {}
        # Updates parked behind a torn commit: a crashed manager site
        # cannot commit, so later writers wait for the recovery scan.
        self._deferred: List[Tuple[UpdateFn, str, float, Optional[int]]] = []
        self.updates_applied = 0
        self.updates_deferred = 0
        txm = self.txm
        txm.on_begin = self._on_begin
        txm.on_commit = self._on_commit
        txm.on_abort = self._on_abort

    # -- snapshot pinning (the read path) ----------------------------------

    def pin(self, session) -> int:
        """Pin an admitted query to its home node's cached LCT.

        Called once per query at admission; the timestamp survives crash
        retries and checkpoint restores (the session object persists), so
        a recovered query replays against the *same* version cut and its
        rows stay bit-identical to the fault-free run.
        """
        ts = self.txm.cached_lct(self.engine.home_node(session.query_id))
        session.snapshot_ts = ts
        self._pins[ts] = self._pins.get(ts, 0) + 1
        self.engine.metrics.snapshot_pins += 1
        trace = self.engine.trace
        if trace is not None:
            trace.emit(SNAPSHOT_PIN, session.query_id, ts)
        return ts

    def unpin(self, ts: int) -> None:
        """Release a closed query's pin on ``ts`` (its one unpin)."""
        left = self._pins.pop(ts) - 1
        if left:
            self._pins[ts] = left
        else:
            self._evict_stale()

    def _evict_stale(self) -> None:
        """Drop the views of every timestamp no live query pins that is
        below every node's cached LCT. A pin reads some node's cached LCT
        and caches only move forward, so no query can pin such a
        timestamp again: an evicted view is never rebuilt."""
        floor = min(self.txm.cached_lct(node) for node in self._nodes)
        for ts in [ts for ts in self._stores
                   if ts < floor and ts not in self._pins]:
            del self._stores[ts]

    def store_for(self, pid: int, ts: int) -> SnapshotStore:
        """The partition's snapshot store at a pinned timestamp (cached)."""
        views = self._stores.setdefault(ts, {})
        store = views.get(pid)
        if store is None:
            store = views[pid] = SnapshotStore(
                self.engine.runtimes[pid].store,
                self.txm.partitions[pid],
                ts,
                self.engine.graph.partitioner,
            )
        return store

    def snapshot_graph(self, ts: int) -> SnapshotGraph:
        """A cluster-wide snapshot view at a pinned timestamp (solo-run
        equivalence checks)."""
        return SnapshotGraph(self.engine.graph, self.txm.partitions, ts)

    # -- the write path ----------------------------------------------------

    def schedule_update(
        self,
        at_us: float,
        apply_fn: UpdateFn,
        *,
        label: str = "UP",
        service_us: float = 0.0,
        home_vid: Optional[int] = None,
        tear: bool = False,
    ) -> None:
        """Schedule one update transaction at a simulated instant.

        ``apply_fn(txm)`` runs the whole transaction (begin → buffer →
        commit) against the plane's manager. ``service_us`` is charged to
        the worker owning ``home_vid``'s partition (the first worker when
        no home vertex is given), modeling writer/reader interference.
        ``tear=True`` arms the torn-commit fault first: the update's
        commit applies its versions but "crashes" before the commit
        record, wedging the manager until :meth:`replay_after_crash`.
        """
        self.engine.clock.schedule_at(
            at_us,
            lambda: self._run_update(apply_fn, label, service_us, home_vid, tear),
        )

    def apply_update(
        self,
        apply_fn: UpdateFn,
        *,
        label: str = "UP",
        service_us: float = 0.0,
        home_vid: Optional[int] = None,
        tear: bool = False,
    ) -> None:
        """Apply one update now (or park it while the manager is wedged).

        The immediate-mode counterpart of :meth:`schedule_update`, for
        callers already running inside a clock event (e.g. the LDBC mixed
        workload driver's arrival callbacks).
        """
        self._run_update(apply_fn, label, service_us, home_vid, tear)

    def _run_update(
        self,
        apply_fn: UpdateFn,
        label: str,
        service_us: float,
        home_vid: Optional[int],
        tear: bool,
    ) -> None:
        if self.txm.wedged:
            # The manager site is down mid-commit: park until the
            # recovery scan heals it. Re-applied in arrival order.
            self._deferred.append((apply_fn, label, service_us, home_vid))
            self.updates_deferred += 1
            return
        if tear:
            self.txm.arm_tear()
        self._apply_update(apply_fn, label, service_us, home_vid)

    def _apply_update(
        self,
        apply_fn: UpdateFn,
        label: str,
        service_us: float,
        home_vid: Optional[int],
    ) -> None:
        try:
            apply_fn(self.txm)
        except TransactionAborted:
            return  # no-wait MV2PL: the abort hook already counted it
        self.updates_applied += 1
        if service_us > 0:
            pid = 0 if home_vid is None else self.engine.graph.partitioner(home_vid)
            workers = self.engine.workers
            workers[pid % len(workers)].add_setup_cost(
                self.engine.clock.now, service_us
            )

    # -- manager hooks -----------------------------------------------------

    def _on_begin(self, txn: "Transaction") -> None:
        trace = self.engine.trace
        if trace is not None:
            trace.emit(TXN_BEGIN, -1, txn.txn_id, txn.read_ts)

    def _on_commit(self, txn: "Transaction", commit_ts: int) -> None:
        engine = self.engine
        engine.metrics.txn_commits += 1
        trace = engine.trace
        if trace is not None:
            trace.emit(TXN_COMMIT, -1, txn.txn_id, commit_ts, len(txn.writes))
        # LCT broadcast: instantaneous, or delayed by the configured lag —
        # a delayed broadcast carries the watermark it left the manager
        # with, so caches are stale-but-never-ahead.
        if self.lag_us > 0:
            lct = self.txm.lct
            engine.clock.schedule_at(
                engine.clock.now + self.lag_us, lambda: self._broadcast(lct))
        else:
            self._broadcast(None)

    def _broadcast(self, lct: Optional[int]) -> None:
        self.txm.broadcast_lct(self._nodes, lct)
        self._evict_stale()

    def _on_abort(self, txn: "Transaction", reason: str) -> None:
        self.engine.metrics.txn_aborts += 1
        trace = self.engine.trace
        if trace is not None:
            trace.emit(TXN_ABORT, -1, txn.txn_id, reason)

    # -- crash-recovery composition ----------------------------------------

    def replay_after_crash(self, wid: int) -> RecoveryReport:
        """Replay the version log — strictly before traversal restore.

        Called synchronously from the recovery manager's crash branch:
        the scan (paper §IV-C restart: "remove all versions with
        timestamps larger than LCT") discards torn versions, heals the
        wedged manager, and re-applies parked updates — all before the
        deferred checkpoint-restore events resume any traversal.
        """
        txm = self.txm
        report = recover(txm.partitions, txm.lct)
        txm.heal()
        engine = self.engine
        engine.metrics.txn_replays += 1
        trace = engine.trace
        if trace is not None:
            trace.emit(
                VERSION_REPLAY, -1, wid, report.lct,
                report.partitions_scanned, report.versions_discarded,
            )
        deferred, self._deferred = self._deferred, []
        for apply_fn, label, service_us, home_vid in deferred:
            self._apply_update(apply_fn, label, service_us, home_vid)
        return report
