"""Overload protection: admission control and credit-based backpressure.

The async engine (docs/OVERLOAD.md) protects itself from load the way it
protects itself from faults — with explicit, bounded mechanisms instead of
unbounded queues:

* :class:`AdmissionController` bounds *query-level* concurrency: at most
  ``max_concurrent_queries`` sessions execute; excess submissions wait in a
  bounded priority queue and are shed (``QueryRejectedError``) or expired
  (``AdmissionTimeoutError``) instead of silently growing engine state.
* :class:`CreditGate` bounds *traverser-level* queueing per partition: a
  remote sender must hold one credit per traverser it has in flight toward
  or parked in a partition's inbox, so a hot query cannot grow a slow
  partition's queue without bound — the sender's flush stalls until the
  receiver drains.

Both are pure bookkeeping over the shared
:class:`~repro.runtime.simclock.SimClock`; the engine and workers own the
actual queues and call in at submission, flush, dequeue, and teardown.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Tuple

from repro.runtime.lifecycle import QueryState
from repro.runtime.simclock import SimClock
from repro.runtime.trace import CREDIT_ACQUIRE, CREDIT_RELEASE, CREDIT_STALL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.lifecycle import QuerySession
    from repro.runtime.trace import TraceRecorder

class AdmissionController:
    """Bounded concurrent-query admission with priorities and deadlines.

    States a submission moves through (docs/OVERLOAD.md):

    ``submitted → running`` when a slot is free;
    ``submitted → waiting`` when all slots are busy and the queue has room;
    ``submitted → rejected`` when the queue is full (fail fast);
    ``waiting → running`` when a running query retires (priority order);
    ``waiting → expired`` when the admission deadline passes first.

    Lower ``priority`` values are dispatched sooner; ties dispatch in
    submission order. Expired waiters are removed lazily — the heap entry
    stays until it surfaces, so expiry is O(1) and dispatch amortized
    O(log n).
    """

    def __init__(
        self, engine: "AsyncPSTMEngine", max_concurrent: int, queue_size: int
    ) -> None:
        self.engine = engine
        self.max_concurrent = max_concurrent
        self.queue_size = queue_size
        #: sessions currently holding an execution slot
        self.running = 0
        #: live entries in the wait queue (stale heap entries excluded)
        self.waiting = 0
        self.peak_waiting = 0
        self._heap: List[Tuple[int, int, "QuerySession"]] = []
        self._seq = 0

    @property
    def has_slot(self) -> bool:
        return self.running < self.max_concurrent

    @property
    def queue_full(self) -> bool:
        return self.waiting >= self.queue_size

    def acquire(self) -> None:
        """Take one execution slot for a session being started."""
        self.running += 1

    def enqueue(self, session: "QuerySession", priority: int) -> None:
        """Park a session in the wait queue (caller checked ``queue_full``)."""
        session.parked = True
        self._seq += 1
        heapq.heappush(self._heap, (priority, self._seq, session))
        self.waiting += 1
        if self.waiting > self.peak_waiting:
            self.peak_waiting = self.waiting

    def withdraw(self, session: "QuerySession") -> None:
        """Lazily remove a waiter (admission timeout). O(1): the heap entry
        stays and is skipped when it surfaces in :meth:`on_closed`."""
        if session.parked:
            session.parked = False
            self.waiting -= 1

    def on_closed(self) -> None:
        """A running query retired: free its slot and dispatch a waiter."""
        self.running -= 1
        while self._heap:
            _prio, _seq, session = heapq.heappop(self._heap)
            if not session.parked:
                continue  # expired while queued; entry is stale
            session.parked = False
            self.waiting -= 1
            self.engine._start_admitted(session)
            return

    def maybe_preempt(self) -> bool:
        """Voluntary-preemption policy (docs/RECOVERY.md).

        Called after a new waiter parks, and after a resident stores a
        checkpoint while waiters are parked (it may have just become
        eligible): when ``EngineConfig.preemption`` is armed, no slot is
        free, and a resident query of strictly lower priority than the
        best parked waiter holds a checkpoint, ask the lowest-priority
        such resident to pause — it yields at its next
        boundary (at this one, if the policy ran from its checkpoint), and
        the freed slot dispatches the waiter through the normal
        :meth:`on_closed` handoff. Returns True when a preempt request was
        issued.
        """
        engine = self.engine
        if (not engine.config.preemption or self.has_slot
                or engine.checkpoints is None):
            return False
        best = min(
            (prio for prio, _seq, s in self._heap if s.parked), default=None
        )
        if best is None:
            return False
        victim = None
        for session in engine.sessions.values():
            if session.lifecycle.state is not QueryState.RUNNING:
                continue  # already pausing/cancelling, or not resident
            if session.priority <= best:
                continue  # only preempt strictly lower-priority work
            if engine.checkpoints.latest(session.query_id) is None:
                # Not past its first boundary: evicting it would save a
                # frontier no cheaper than its own resubmission.
                continue
            if victim is None or session.priority > victim.priority:
                victim = session
        if victim is None:
            return False
        return engine.preempt(victim, reason="policy")


class CreditGate:
    """Per-partition credit channel throttling remote traverser senders.

    A sender must acquire ``n`` credits before putting ``n`` traversers on
    the wire toward this partition; the receiving worker releases credits
    as it drains them from its inbox into the run queue (and the engine
    releases them for traversers it discards — cancelled queries, crashed
    inboxes — so a cancellation can never deadlock the channel). In-flight
    + inboxed traversers therefore never exceed ``capacity``, which is the
    bounded-inbox guarantee the soak harness asserts.

    Exhausted credits defer the send: the flush thunk queues FIFO and runs
    in its own clock event once enough credits return. Deferred sends model
    a NIC-queue stall, so they charge no additional worker CPU.
    """

    def __init__(
        self,
        pid: int,
        capacity: int,
        clock: SimClock,
        trace: "TraceRecorder | None" = None,
    ) -> None:
        self.pid = pid
        self.capacity = capacity
        self.clock = clock
        self.available = capacity
        self._waiters: Deque[Tuple[int, Callable[[float], None]]] = deque()
        #: sends that found the gate exhausted and had to wait
        self.stalls = 0
        self.peak_in_use = 0
        # credit events carry no query id (a batch can mix queries)
        self._trace = trace

    @property
    def in_use(self) -> int:
        """Credits held by in-flight or inboxed traversers."""
        return self.capacity - self.available

    @property
    def waiting_sends(self) -> int:
        return len(self._waiters)

    def submit(self, n: int, send: Callable[[float], None], when: float) -> None:
        """Send now if ``n`` credits are free (and no earlier send waits),
        else defer. ``send`` receives the actual transmission instant."""
        if not self._waiters and self.available >= n:
            self._take(n)
            send(when)
        else:
            self.stalls += 1
            if self._trace is not None:
                self._trace.emit(
                    CREDIT_STALL, -1, self.pid, n, len(self._waiters) + 1
                )
            self._waiters.append((n, send))

    def release(self, n: int = 1) -> None:
        """Return credits (inbox drain / discard) and grant waiting sends.

        Granted sends run as their own clock events: release is called from
        worker runs and delivery handlers, which must not re-enter the
        network mid-event.
        """
        self.available += n
        if self._trace is not None:
            self._trace.emit(CREDIT_RELEASE, -1, self.pid, n)
        if self.available > self.capacity:  # pragma: no cover - invariant
            raise AssertionError(
                f"credit gate {self.pid} over-released: "
                f"{self.available}/{self.capacity}"
            )
        while self._waiters and self.available >= self._waiters[0][0]:
            k, send = self._waiters.popleft()
            self._take(k)
            self.clock.schedule_at(
                self.clock.now, lambda s=send: s(self.clock.now)
            )

    def _take(self, n: int) -> None:
        self.available -= n
        if self._trace is not None:
            self._trace.emit(CREDIT_ACQUIRE, -1, self.pid, n, self.available)
        used = self.capacity - self.available
        if used > self.peak_in_use:
            self.peak_in_use = used
