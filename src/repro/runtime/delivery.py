"""The delivery plane: message routing, cancel filtering, and reclamation.

:class:`DeliveryPlane` is the layer between the simulated network and the
partition runtimes. It owns every invariant about what happens to a
message *after* the wire and *before* a worker executes it:

* **Routing** — :meth:`deliver` is the network's terminal callback:
  tracker-bound messages queue on their query's home-node lane of the
  :class:`TrackerActor`,
  traversers/seeds enqueue at their partition (through the credit-gated
  inbox when backpressure is armed), CANCELs purge.
* **Exactly-once weight reclamation** — a cancelled query's progression
  weight must reach the stage ledger exactly once no matter where the
  CANCEL catches it (queued, inboxed, buffered in a worker, racing in
  flight, or popped by a drain). Every one of those paths funnels through
  one audited helper, :meth:`reclaim`, so the bookkeeping (global and
  per-query counters, the tracker report) cannot diverge between paths.
* **Exactly-once credit release** — inboxed or in-flight traversers of
  cancelled queries release their sender credits here (and only here),
  so a cancellation can never deadlock a credit channel.
* **In-flight accounting** — the naive progress mode's transient-zero
  suppression (:meth:`note_outbound` / :meth:`query_quiescent`).

The engine composes a DeliveryPlane and delegates to it; workers reach it
as ``engine.delivery``. It deliberately knows nothing about admission
or the query lifecycle — those stay above it in the engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.progress import ProgressMode
from repro.core.subquery import gather_partials
from repro.core.traverser import Traverser
from repro.core.weight import normalize_weight
from repro.errors import ExecutionError
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message
from repro.runtime.overload import CreditGate
from repro.runtime.trace import MEMO_CLEAR, QUERY_CLOSE, RECLAIM, TRACKER_REPORT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.lifecycle import QuerySession
    from repro.runtime.worker import PartitionRuntime

__all__ = ["DeliveryPlane", "TrackerActor"]


class DeliveryPlane:
    """Routing, cancel filtering, credit accounting, and reclamation."""

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine
        config = engine.config
        #: queries mid-cancellation: cancelled but their stage ledger has
        #: not yet re-absorbed all outstanding progression weight
        self.cancelling: Dict[int, "QuerySession"] = {}
        #: per-partition credit gates (None → backpressure disarmed)
        self.gates: Optional[List[CreditGate]] = (
            [
                CreditGate(pid, config.inbox_capacity, engine.clock,
                           trace=engine.trace)
                for pid in range(engine.num_partitions)
            ]
            if config.inbox_capacity is not None
            else None
        )
        # Worker-bound traversers buffered or in flight, per query. Only the
        # naive progress mode needs this (its active counter can transiently
        # hit zero while traversers are in transit); weighted modes skip the
        # bookkeeping entirely.
        self.inflight: Dict[int, int] = {}
        self.track_inflight = config.progress_mode is ProgressMode.NAIVE_CENTRAL

    # -- in-flight accounting (naive progress mode) --------------------------

    def note_outbound(self, query_id: int) -> None:
        """Record a worker-bound message entering a buffer or the network."""
        self.inflight[query_id] = self.inflight.get(query_id, 0) + 1

    def query_quiescent(self, query_id: int, stage: int) -> bool:
        """True when no traverser of this (query, stage) exists anywhere:
        not queued, not buffered, not in flight."""
        if self.inflight.get(query_id, 0) > 0:
            return False
        return all(
            runtime.stage_counts.get((query_id, stage), 0) <= 0
            for runtime in self.engine.runtimes
        )

    # -- message delivery ----------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Terminal network callback: route one arrived message."""
        engine = self.engine
        if msg.dst_pid == TRACKER_DST:
            engine.tracker.submit(msg, engine.clock.now, engine.cost.tracker_msg_us)
            return
        runtime = engine.runtimes[msg.dst_pid]
        if msg.kind is MsgKind.TRAVERSER:
            travs = msg.payload
            if self.track_inflight:
                # A pack is stamped with its first traverser's query but
                # mixes queries (tier-1 buffers pack per node): each
                # traverser settles its own query's count.
                inflight = self.inflight
                for trav in travs:
                    if trav.query_id in inflight:
                        inflight[trav.query_id] -= 1
            if self.cancelling:
                # Batches can mix queries (tier-1 buffers pack per node),
                # so arrivals of cancelling queries are filtered out here
                # one traverser at a time, weight reclaimed.
                travs = self.filter_cancelled(travs, msg.dst_pid)
                if not travs:
                    return
            if self.gates is not None:
                runtime.enqueue_remote(travs, engine.clock.now)
            else:
                runtime.enqueue(travs, engine.clock.now)
        elif msg.kind is MsgKind.SEED:
            if self.track_inflight and msg.query_id in self.inflight:
                self.inflight[msg.query_id] -= 1
            travs = list(msg.payload)
            if self.cancelling:
                travs = self.filter_cancelled(travs, msg.dst_pid, gated=False)
                if not travs:
                    return
            # Seeds bypass the credit gate: the coordinator must always be
            # able to start/advance admitted queries, and seed cardinality
            # is bounded by the partition count.
            runtime.enqueue(travs, engine.clock.now)
        elif msg.kind is MsgKind.CONTROL:
            tag, query_id, stage = msg.payload
            if tag == "cancel":
                self.cancel_at_partition(query_id, stage, msg.dst_pid)
            elif tag == "preempt":
                # Voluntary preemption (docs/RECOVERY.md): the partition
                # drops nothing — the query yields at the coordinator when
                # the stage ledger closes, and this arrival just models
                # the control-plane fan-out cost (like CANCEL's).
                pass
            else:  # pragma: no cover - no other control verbs exist
                raise ExecutionError(f"unexpected control message {tag!r}")
        else:  # pragma: no cover - no other worker-bound kinds exist
            raise ExecutionError(f"unexpected worker message kind {msg.kind}")

    def filter_cancelled(
        self, travs: List[Traverser], pid: int, gated: Optional[bool] = None
    ) -> List[Traverser]:
        """Drop arriving traversers of mid-cancellation queries.

        They were in flight when the CANCEL fanned out (racing ahead of or
        behind it); their progression weight is reclaimed here and — on the
        credit-gated path — their sender credits released immediately,
        since they will never occupy the inbox.
        """
        cancelling = self.cancelling
        kept = [t for t in travs if t.query_id not in cancelling]
        n_dropped = len(travs) - len(kept)
        if not n_dropped:
            return kept
        dropped: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for t in travs:
            if t.query_id in cancelling:
                key = (t.query_id, t.stage)
                w, c = dropped.get(key, (0, 0))
                dropped[key] = (w + t.weight, c + 1)
        if (self.gates is not None) if gated is None else gated:
            self.gates[pid].release(n_dropped)
        for (query_id, stage), (weight, count) in dropped.items():
            self.reclaim(query_id, stage, weight, count)
        return kept

    def tracker_handle(self, msg: Message) -> None:
        """Process one tracker-bound message (progress report or partial)."""
        engine = self.engine
        if msg.kind is MsgKind.PROGRESS:
            tag, query_id, stage, value, *riding = msg.payload
            if engine.trace is not None:
                # core.progress stays trace-free (cross-package layering);
                # every report passes through here, so emit at the boundary.
                engine.trace.emit(TRACKER_REPORT, query_id, stage, tag, value)
            if tag == "weight":
                if riding:
                    # before the weight: this report may close the ledger
                    self._hold_partials(query_id, stage, riding[0])
                engine.progress.report_weight(query_id, stage, value)
            else:
                engine.progress.report_delta(query_id, stage, value)
        elif msg.kind is MsgKind.PARTIAL:
            _tag, query_id, stage, partial, expected = msg.payload
            session = self._hold_partials(query_id, stage, (partial,))
            if session is not None and len(session.partials) >= expected:
                self._combine(session, stage, engine.cost.combine_partial_us)
        else:  # pragma: no cover
            raise ExecutionError(f"unexpected tracker message kind {msg.kind}")

    # -- stage close (Fig 6) --------------------------------------------------

    def stage_terminated(self, query_id: int, stage: int) -> None:
        """Weight ledger hit 1: bring the barrier's partials to the
        coordinator and combine them."""
        engine = self.engine
        cancelling = self.cancelling.get(query_id)
        if cancelling is not None:
            # A cancelled stage's ledger closed: all outstanding weight was
            # executed or reclaimed, so nothing of the query remains queued,
            # buffered, or in flight — finish the teardown.
            engine._finalize_cancel(cancelling, stage)
            return
        session = engine.sessions.get(query_id)
        if session is None or session.cursor.current != stage:
            return
        if self.track_inflight and not self.query_quiescent(query_id, stage):
            # Transient zero crossing: traversers are still in transit.
            # Their own reports will re-trigger the zero check later.
            return
        cost = engine.cost
        if engine.config.progress_mode.coalesced:
            # Every partial write finishes weight on its partition, so each
            # partition's last flush — which this close could not happen
            # without — shipped its final partial: nothing to gather.
            self._combine(session, stage,
                          cost.tracker_msg_us + cost.combine_partial_us)
            return
        gathered = gather_partials(
            session.plan, stage, query_id, engine.memo_stores)
        if not gathered:
            self._combine(session, stage, cost.combine_partial_us)
            return
        home = engine.home_node(query_id)
        for p in gathered:
            payload = ("partial", query_id, stage,
                       (p.pid, 0, p.value, p.size_bytes), len(gathered))
            engine.network.send(
                engine.node_of(p.pid), home,
                [Message(MsgKind.PARTIAL, TRACKER_DST, payload, p.size_bytes,
                         query_id)],
                engine.clock.now,
            )

    def _hold_partials(
        self, query_id: int, stage: int, partials
    ) -> Optional["QuerySession"]:
        """Keep ``(pid, version, value, bytes)`` partials that rode in on a
        weight report (or were gathered): per partition the highest version
        wins, whatever order its workers' reports or delayed packets arrive
        in. Returns the session, None when the partials are stale."""
        session = self.engine.sessions.get(query_id)
        if session is None or session.cursor.current != stage:
            return None
        held = session.partials
        for pid, version, value, size in partials:
            if pid not in held or held[pid][0] < version:
                held[pid] = (version, value, size)
        return session

    def _combine(
        self, session: "QuerySession", stage: int, per_partial_us: float
    ) -> None:
        """Every partial of a closed stage is at the coordinator: occupy
        the home lane for the combine and schedule the stage's completion.

        The event is stamped with the attempt id: a crash restore in the
        charge window rekeys the *same* session object (fresh query_id,
        partials reset), so the sessions-identity guard inside
        ``_complete_stage`` alone would let this stale event combine empty
        partials and retire the restored attempt.
        """
        engine = self.engine
        if not session.partials:
            engine._complete_stage(session, stage)
            return
        attempt = session.query_id
        done_at = engine.tracker.charge(
            attempt, engine.clock.now, per_partial_us * len(session.partials)
        )
        engine.clock.schedule_at(
            done_at,
            lambda: (
                engine._complete_stage(session, stage)
                if session.query_id == attempt else None
            ),
        )

    # -- weight reclamation & purge (docs/OVERLOAD.md) -----------------------

    def reclaim(
        self,
        query_id: int,
        stage: int,
        weight: int,
        count: int,
        report: bool = True,
        session: Optional["QuerySession"] = None,
        fenced: bool = False,
    ) -> None:
        """The one reclamation bookkeeping path (exactly-once invariant).

        Every site that removes a cancelled/aborted query's traversers —
        the deliver-time filter, the CANCEL purge at a partition, the
        eviction purge, and the drain loop's dead-session drop — funnels
        through here: ``count`` traversers are charged to the global and
        per-query reclaim counters, and ``weight`` (mod |G|) is folded
        into the stage ledger via one tracker-direct report (a costless
        control-plane shortcut: the cancel fan-out already paid the wire,
        and a reclamation report has no ordering hazard since the ledger
        only sums). ``report=False`` discards the weight. ``session``
        overrides the mid-cancellation lookup for queries no longer in
        :attr:`cancelling`.

        ``fenced=True`` is :meth:`evict`'s form: the attempt is being
        retired, so its traverser counters are still charged but the
        tracker never hears about the weight. A restored or resumed
        attempt replays the checkpointed frontier itself; reporting the
        retired attempt's purged weight too would double-count it and
        could spuriously close the retired stage's ledger mid-splice.
        """
        if fenced:
            report = False
        weight = normalize_weight(weight)
        if self.engine.trace is not None:
            self.engine.trace.emit(RECLAIM, query_id, stage,
                                   weight, count, report, fenced)
        if count:
            self.engine.metrics.traversers_reclaimed += count
            if session is None:
                session = self.cancelling.get(query_id)
            if session is not None:
                session.qmetrics.traversers_reclaimed += count
        if not report:
            return
        if weight:
            self.engine.metrics.weight_reclaim_reports += 1
            self.engine.progress.report_reclaimed(query_id, stage, weight)

    def purge_partition(
        self, runtime: "PartitionRuntime", query_id: int
    ) -> Tuple[int, int]:
        """Purge one partition's queue + inbox for a query, releasing the
        inboxed traversers' sender credits. Returns (weight, n_purged)."""
        weight, n_queue, n_inbox = runtime.reclaim_query(query_id)
        if n_inbox and self.gates is not None:
            self.gates[runtime.pid].release(n_inbox)
        return weight, n_queue + n_inbox

    def cancel_at_partition(self, query_id: int, stage: int, pid: int) -> None:
        """CANCEL arrival at one partition: purge, reclaim, report.

        Every unit of the query's progression weight resident here —
        queued, inboxed, buffered in worker tier-1 buffers, or absorbed
        into weight accumulators — is removed exactly once and reported
        straight to the tracker.
        """
        engine = self.engine
        runtime = engine.runtimes[pid]
        runtime.memo_store.clear_query(query_id)
        if engine.trace is not None:
            engine.trace.emit(MEMO_CLEAR, query_id, pid, "cancel")
        weight, n = self.purge_partition(runtime, query_id)
        for worker in engine.workers:
            if worker.runtime is runtime:
                w_weight, w_n = worker.reclaim_query(query_id)
                weight += w_weight
                n += w_n
        self.reclaim(query_id, stage, weight, n)

    def evict(self, session: "QuerySession", stage: int, reason: str) -> None:
        """Remove every trace of a session's current attempt from the cluster.

        The one purge behind force-retry, checkpoint restore, pause and
        cancel teardown. The auditor is told first (MEMO_CLEAR, then
        QUERY_CLOSE with ``reason``) so it drops the attempt's open stage
        ledgers without the closing assertions — a crash legitimately
        lost weight mid-stage — and the purge below audits as a no-op:
        every partition's memos, queue and inbox and every worker's tier-1
        buffers and accumulators go through fenced reclaims charged to
        ``stage``, and the id is retired. The session keeps its query id
        until :func:`~repro.runtime.lifecycle.start_attempt` mints a fresh
        one.
        """
        engine = self.engine
        query_id = session.query_id
        if engine.trace is not None:
            engine.trace.emit(MEMO_CLEAR, query_id, -1, reason)
            engine.trace.emit(QUERY_CLOSE, query_id, reason)
        session.partials = {}
        for runtime in engine.runtimes:
            runtime.memo_store.clear_query(query_id)
            w, n = self.purge_partition(runtime, query_id)
            self.reclaim(query_id, stage, w, n, session=session, fenced=True)
        for worker in engine.workers:
            w, n = worker.reclaim_query(query_id)
            self.reclaim(query_id, stage, w, n, session=session, fenced=True)
        self.retire_attempt(query_id)

    def retire_attempt(self, query_id: int) -> None:
        """Forget an attempt id: its in-flight count, ledgers, session entry
        and home, and the reports workers still buffer for it — nobody is
        left to read those, and once the home is gone they could only be
        addressed by the hash (``engine.home_node``)."""
        engine = self.engine
        self.inflight.pop(query_id, None)
        engine.progress.close_query(query_id)
        engine.sessions.pop(query_id, None)
        engine._homes.pop(query_id, None)
        for worker in engine.workers:
            worker.drop_reports(query_id)


class TrackerActor:
    """The progress tracker / query coordinator CPUs: one lane per node.

    Each lane is a serial resource: the progress reports, partial combines
    and instantiation charges of the queries homed on its node
    (:meth:`AsyncPSTMEngine.home_node`) queue behind each other — the
    bottleneck weight coalescing relieves — while differently-homed
    queries never contend.
    """

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine
        self.lane_free_at = [0.0] * engine.nodes
        #: per-lane simulated µs of service (every submit and charge) and
        #: of queueing before service
        self.busy_us = [0.0] * engine.nodes
        self.wait_us = [0.0] * engine.nodes
        self.messages_processed = 0

    @property
    def free_at(self) -> float:
        """When the latest-busy lane frees up."""
        return max(self.lane_free_at)

    def submit(self, msg: Message, at: float, cost_us: float) -> None:
        """Queue a message behind its query's home lane."""
        self.messages_processed += 1
        self.engine.clock.schedule_at(
            self.charge(msg.query_id, at, cost_us),
            lambda m=msg: self.engine.tracker_handle(m),
        )

    def charge(self, query_id: int, at: float, cost_us: float) -> float:
        """Occupy the query's home lane for ``cost_us``; returns completion
        time."""
        lane = self.engine.home_node(query_id)
        start = max(self.lane_free_at[lane], at)
        self.wait_us[lane] += start - at
        self.busy_us[lane] += cost_us
        self.lane_free_at[lane] = done = start + cost_us
        return done
