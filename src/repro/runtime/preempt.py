"""Voluntary preemption: pause, evict, and resume on the checkpoint plane.

PR3's admission control can only shed or queue *new* work and PR7's
checkpoint plane only restores after a *crash*; this module closes the
gap between them (docs/RECOVERY.md): a long-running query can be asked to
**yield at its next certified stage boundary**, where a forced snapshot
captures its complete state for free, its cluster residue is evicted
through the same ``DeliveryPlane.evict`` crash-restore uses, and the freed
execution slot goes to waiting interactive work. The paused query later
re-enters through admission and resumes from the snapshot bit-for-bit.

The three phases, mirroring the cancel/restore idioms they reuse:

1. :func:`request_preempt` — RUNNING → PAUSING plus a CONTROL fan-out to
   every partition (like CANCEL, and charged the same control-plane cost;
   unlike CANCEL the partitions drop nothing — the actual yield happens
   at the coordinator when the stage ledger closes).
2. :func:`pause_at_boundary` — called by the engine inside
   ``_complete_stage``, *after* the boundary's seeds are split but
   *before* the next stage's ledger opens: force a
   :meth:`~repro.runtime.checkpoint.CheckpointPlane.maybe_snapshot`
   (bypassing the interval gate — the snapshot *is* the paused query),
   then :meth:`~repro.runtime.delivery.DeliveryPlane.evict` the cluster
   state through fenced reclaims, so nothing reports to the tracker and
   the :class:`~repro.runtime.trace.WeightLedgerAuditor` still proves
   ``active + finished + reclaimed + lost ≡ 1`` across the splice.
   PAUSING → PAUSED, the slot is released, and the session re-enters the
   admission queue at its original priority.
3. :func:`resume_session` — the same
   :func:`~repro.runtime.lifecycle.start_attempt` a crash restore uses
   (fresh query id, checkpoint rekey, memo install, RNG restore, seed
   re-dispatch). Unlike a crash restore it consumes **no retry budget**:
   nothing was lost, so ``qmetrics.retries`` is untouched and the pause
   is counted in ``pauses``/``resumes``/``pause_wait_us`` instead.

Failure composition: a worker crash while PAUSING flows through the
normal :class:`~repro.runtime.faults.RecoveryManager` restore-or-retry
path — the session *stays* PAUSING and yields at the next boundary of
the recovered attempt. Cancellation while PAUSING is the ordinary
cooperative cancel (the ledger is open). Cancellation while PAUSED
(:func:`cancel_paused`) drops the checkpoints and closes immediately —
an evicted query has no cluster state left to tear down.

Like :mod:`repro.runtime.overload`, this layer sits below the engine and
is handed the engine object by its callers; it may not import it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.runtime.lifecycle import QueryState, start_attempt
from repro.runtime.metrics import MsgKind
from repro.runtime.network import Message
from repro.runtime.trace import PAUSE, PREEMPT, RESUME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traverser import Traverser
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.lifecycle import QuerySession

__all__ = [
    "PREEMPT_MSG_BYTES",
    "cancel_paused",
    "pause_at_boundary",
    "request_preempt",
    "resume_session",
    "try_resume",
]

#: wire size of one PREEMPT control message (tag + query id + stage);
#: same shape as CANCEL's
PREEMPT_MSG_BYTES = 16


def request_preempt(
    engine: "AsyncPSTMEngine", session: "QuerySession", reason: str = "caller"
) -> bool:
    """Ask a running query to yield at its next certified stage boundary.

    Returns True when the preempt request was accepted (the session moves
    to PAUSING and will pause at its next boundary — or simply finish, if
    its final stage terminates first). Returns False when the query
    cannot pause: no checkpoint plane armed (there would be nothing to
    resume from), not currently RUNNING (already pausing/paused, queued,
    cancelling, or terminal), or a stale session handle.
    """
    if engine.checkpoints is None:
        return False
    if session.lifecycle.state is not QueryState.RUNNING:
        return False
    query_id = session.query_id
    if engine.sessions.get(query_id) is not session:
        return False
    stage = session.cursor.current if not session.cursor.finished else -1
    session.lifecycle.to(QueryState.PAUSING, reason)
    if engine.trace is not None:
        engine.trace.emit(PREEMPT, query_id, stage, reason)
    # Fan the request out to every partition like CANCEL does — the
    # partitions drop nothing (the yield is coordinator-driven at the
    # ledger close), but the control messages model the real fan-out cost
    # and let per-partition observers see the request in the trace.
    now = engine.clock.now
    home = engine.home_node(query_id)
    for pid in range(engine.num_partitions):
        engine.network.send(
            home,
            engine.node_of(pid),
            [
                Message(
                    MsgKind.CONTROL,
                    pid,
                    ("preempt", query_id, stage),
                    PREEMPT_MSG_BYTES,
                    query_id,
                )
            ],
            now,
        )
    return True


def pause_at_boundary(
    engine: "AsyncPSTMEngine",
    session: "QuerySession",
    seeds: List["Traverser"],
    snapshot: bool = True,
) -> None:
    """Snapshot and evict a PAUSING query at its certified boundary.

    Called by ``AsyncPSTMEngine._complete_stage`` after the boundary's
    seeds are split but *before* the next stage's ledger opens, so the
    evicted query leaves no open ledger behind. The snapshot is forced
    past the interval gate — it is the only copy of the frontier — unless
    ``snapshot`` is False: the boundary's checkpoint is already stored. The
    eviction is restore's; at a certified boundary every purge is
    provably empty (Theorem 1), so its fenced reclaims guard only against
    late strays such as retransmitted packets.
    """
    query_id = session.query_id
    stage = session.cursor.current  # the stage the seeds open (resume point)
    if snapshot:
        engine.checkpoints.maybe_snapshot(engine, session, seeds, force=True)
    engine.delivery.evict(session, stage, "pause")
    session.lifecycle.to(QueryState.PAUSED, "preempt")
    session.paused_at_us = engine.clock.now
    session.qmetrics.pauses += 1
    engine.metrics.preemptions += 1
    if engine.trace is not None:
        engine.trace.emit(PAUSE, query_id, stage, len(seeds))
    adm = engine._admission
    if adm is not None:
        # Re-enter the admission queue at the original priority, then
        # release the slot — on_closed dispatches the best live waiter,
        # which is whoever this pause was yielding to (or the paused
        # session itself, if nothing better is parked).
        adm.enqueue(session, session.priority)
        adm.on_closed()


def try_resume(engine: "AsyncPSTMEngine", session: "QuerySession") -> bool:
    """Resume a PAUSED query now (``engine.resume``'s body).

    Without admission control this is the only way back; with it, a
    paused session normally resumes through slot handoff
    (``AdmissionController.on_closed`` → ``_start_admitted``), and a
    manual resume withdraws the waiter and takes a free slot — refusing
    (False) when all slots are busy rather than oversubscribing.
    """
    if session.lifecycle.state is not QueryState.PAUSED:
        return False
    adm = engine._admission
    if adm is not None:
        if not adm.has_slot:
            return False
        adm.withdraw(session)
        adm.acquire()
    session.lifecycle.to(QueryState.ADMITTED)
    resume_session(engine, session)
    return True


def resume_session(engine: "AsyncPSTMEngine", session: "QuerySession") -> None:
    """Re-dispatch an ADMITTED ex-paused session from its snapshot.

    :func:`~repro.runtime.lifecycle.start_attempt` from the snapshot, as
    a crash restore does: fresh query id (late strays of the paused
    attempt resolve to a dead session), checkpoint rekey for repeat
    pause/crash restorability, memo shards reinstalled, RNG state rewound
    to the boundary, and the checkpointed frontier re-dispatched —
    bit-for-bit the rows of an uninterrupted run. No retry budget is
    consumed: nothing was lost.
    """
    ckpt = engine.checkpoints.latest(session.query_id)
    if ckpt is None:  # pragma: no cover - pause always stores a snapshot
        raise AssertionError(
            f"paused query {session.query_id} has no checkpoint to resume from"
        )
    now = engine.clock.now
    waited = now - (session.paused_at_us if session.paused_at_us is not None
                    else now)
    session.paused_at_us = None
    session.qmetrics.pause_wait_us += waited
    engine.metrics.resumes += 1
    engine.metrics.pause_wait_us += waited
    session.lifecycle.to(QueryState.RUNNING)
    start_attempt(engine, session, ckpt=ckpt, event=(RESUME, waited))


def cancel_paused(
    engine: "AsyncPSTMEngine", session: "QuerySession", reason: str
) -> None:
    """Cancel a PAUSED query: drop its checkpoints and close immediately.

    An evicted query holds no slot, no memos, no queued traversers, and
    no open ledger — its entire existence is the stored snapshot plus its
    (possibly parked) admission-queue entry, so cancellation is withdraw
    + the PAUSED → CANCELLING → FAILED walk + the engine's one exit
    (checkpoints dropped, session closed; the slot went at the pause).
    """
    adm = engine._admission
    if adm is not None:
        adm.withdraw(session)
    session.qmetrics.cancelled = True
    session.qmetrics.cancel_reason = reason
    engine.metrics.queries_cancelled += 1
    session.lifecycle.to(QueryState.CANCELLING, reason)
    session.lifecycle.to(QueryState.FAILED, reason)
    engine._retire(session, held_slot=False)
