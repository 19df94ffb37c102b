"""Worker actors: shared-nothing partition executors (paper §IV).

A :class:`PartitionRuntime` owns one graph partition's store, memo store,
and run queue. In the partitioned (GraphDance) configuration exactly one
:class:`Worker` serves each runtime — single-threaded, latch-free access, as
in the paper. The non-partitioned baseline attaches several workers to one
shared runtime; every state access then pays a latch/contention penalty from
the cost model (paper §V-A2).

Workers implement tier 1 of the two-tier I/O scheduler: per-destination-node
message buffers flushed at the size threshold or when the worker idles, with
finished-weight coalescing piggybacked on flushes (paper §IV-A(a), §IV-B).

The drain loop itself is layered: ``Worker._run`` owns the parts every
execution strategy shares — inbox drain with credit release, idle weight
flushes, slowdown, and rescheduling — and delegates the
execution middle to a pluggable :class:`~repro.runtime.kernels.ExecutionKernel`
(the production run kernel vs the scalar reference), so fault hooks,
backpressure, and reclaim paths exist exactly once.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Set, Tuple

from repro.core.memo import MemoStore
from repro.core.traverser import Traverser
from repro.core.weight import WeightAccumulator, normalize_weight
from repro.graph.partition import PartitionStore
from repro.runtime.kernels import kernel_for
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message
from repro.runtime.runs import PROGRESS_MSG_BYTES
from repro.runtime.trace import (ACCUM_RECLAIM, CRASH_LOSS, PARTIAL_SHIP,
                                 WEIGHT_FLUSH)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import AsyncPSTMEngine

__all__ = ["PartitionRuntime", "Worker"]


class PartitionRuntime:
    """One partition's queue + state, shared by its worker(s)."""

    def __init__(self, pid: int, store: PartitionStore, memo_store: MemoStore) -> None:
        self.pid = pid
        self.store = store
        self.memo_store = memo_store
        self.queue: Deque[Traverser] = deque()
        # Bounded arrival staging for credit-gated remote traversers (empty
        # and untouched unless EngineConfig.inbox_capacity is set). Workers
        # drain it into the run queue at the start of each run, releasing
        # the senders' credits at processing pace; its depth is bounded by
        # the credit gate's capacity.
        self.inbox: Deque[Traverser] = deque()
        # Local traversers per (query, stage): drives weight-flush decisions.
        # A plain dict whose keys are removed on decrement-to-zero and on
        # session teardown — a Counter here leaks one entry per (query,
        # stage) ever seen, which grows without bound under long mixed
        # workloads.
        self.stage_counts: Dict[Tuple[int, int], int] = {}
        # Barrier-partial versions per (query, stage): traversers executed
        # here by partial-writing ops (the kernels count them), and the
        # version last shipped on a weight report (_flush_idle_accums).
        self.partial_versions: Dict[Tuple[int, int], int] = {}
        self.partial_shipped: Dict[Tuple[int, int], int] = {}
        self.workers: List["Worker"] = []
        # High-water marks for the soak harness's bounded-memory assertions
        # (sampled at arrival batches, not per local append).
        self.peak_queue_depth = 0
        self.peak_inbox_depth = 0

    def enqueue(self, travs: List[Traverser], now: float) -> None:
        """Queue traversers and wake an idle worker."""
        counts = self.stage_counts
        append = self.queue.append
        # Traversers in one batch message overwhelmingly share one (query,
        # stage); counting per contiguous key run replaces a tuple build and
        # a dict update per traverser with one of each per run.
        last_q = last_s = -1
        key = None
        kcount = 0
        for trav in travs:
            append(trav)
            if trav.query_id != last_q or trav.stage != last_s:
                if kcount:
                    counts[key] = counts.get(key, 0) + kcount
                last_q = trav.query_id
                last_s = trav.stage
                key = (last_q, last_s)
                kcount = 1
            else:
                kcount += 1
        if kcount:
            counts[key] = counts.get(key, 0) + kcount
        depth = len(self.queue)
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth
        self.wake(now)

    def enqueue_remote(self, travs: List[Traverser], now: float) -> None:
        """Stage credit-gated arrivals in the bounded inbox.

        Stage counts are charged at insertion (not at drain) so idle-flush
        decisions and naive-mode quiescence checks see inboxed traversers
        as local work; the worker transfers them to the run queue — and
        releases their credits — at the start of its next run.
        """
        inbox = self.inbox
        counts = self.stage_counts
        for trav in travs:
            inbox.append(trav)
            key = (trav.query_id, trav.stage)
            counts[key] = counts.get(key, 0) + 1
        depth = len(inbox)
        if depth > self.peak_inbox_depth:
            self.peak_inbox_depth = depth
        self.wake(now)

    def dec_stage_count(self, key: Tuple[int, int], n: int = 1) -> None:
        """Decrement a (query, stage) count, dropping the key at zero."""
        counts = self.stage_counts
        left = counts.get(key, 0) - n
        if left > 0:
            counts[key] = left
        else:
            counts.pop(key, None)

    def drop_query(self, query_id: int) -> None:
        """Purge all stage counts and partial versions of a finished/
        aborted query."""
        for table in (self.stage_counts, self.partial_versions,
                      self.partial_shipped):
            for key in [k for k in table if k[0] == query_id]:
                del table[key]

    def reclaim_query(self, query_id: int) -> Tuple[int, int, int]:
        """Purge a query's queued + inboxed traversers and stage counts.

        The cancellation/teardown primitive: returns ``(weight, n_queue,
        n_inbox)`` where ``weight`` is the summed progression weight of the
        removed traversers (unreduced) — the engine reports it back to the
        progress tracker so the stage ledger still closes — and the counts
        let the engine release the inboxed traversers' sender credits.
        """
        weight = 0
        n_queue = 0
        n_inbox = 0
        if self.queue:
            kept = []
            for trav in self.queue:
                if trav.query_id == query_id:
                    weight += trav.weight
                    n_queue += 1
                else:
                    kept.append(trav)
            if n_queue:
                self.queue.clear()
                self.queue.extend(kept)
        if self.inbox:
            kept = []
            for trav in self.inbox:
                if trav.query_id == query_id:
                    weight += trav.weight
                    n_inbox += 1
                else:
                    kept.append(trav)
            if n_inbox:
                self.inbox.clear()
                self.inbox.extend(kept)
        self.drop_query(query_id)
        return weight, n_queue, n_inbox

    def wake(self, now: float) -> None:
        """Wake one idle, alive worker (the least busy) to process the queue."""
        if not self.queue and not self.inbox:
            return
        workers = self.workers
        if len(workers) == 1:
            # shared-nothing: Worker.wake checks scheduled/alive itself
            workers[0].wake(now)
            return
        idle = [w for w in workers if not w.scheduled and w.alive]
        if idle:
            min(idle, key=lambda w: w.busy_until).wake(now)


class Worker:
    """A single simulated CPU core executing traversers for one runtime."""

    def __init__(
        self,
        engine: "AsyncPSTMEngine",
        wid: int,
        node: int,
        runtime: PartitionRuntime,
    ) -> None:
        self.engine = engine
        self.wid = wid
        self.node = node
        self.runtime = runtime
        runtime.workers.append(self)
        #: execution strategy for the drain loop's middle (run/scalar)
        self.kernel = kernel_for(engine.config)
        self.busy_until = 0.0
        self.scheduled = False
        #: False while a crash/stall fault holds this worker down
        self.alive = True
        #: compute slowdown multiplier (straggler injection; 1.0 = healthy)
        self.slowdown = 1.0
        #: total simulated CPU time this worker has burned (utilization)
        self.busy_total = 0.0
        # tier-1 buffers: destination node -> control messages / traversers
        self._buffers: Dict[int, List[Message]] = {}
        # traverser buffer entries are (target pid, traverser, wire size)
        self._trav_buffers: Dict[int, List[Tuple[int, Traverser, int]]] = {}
        self._buffer_bytes: Dict[int, int] = {}
        # weight coalescing accumulators per (query, stage)
        self._accums: Dict[Tuple[int, int], WeightAccumulator] = {}

    # -- scheduling --------------------------------------------------------

    def wake(self, now: float) -> None:
        """Schedule a run at max(now, busy_until) if idle."""
        if self.scheduled or not self.alive:
            return
        self.scheduled = True
        self.engine.clock.schedule_at(max(now, self.busy_until), self._run)

    def add_setup_cost(self, now: float, cost_us: float) -> None:
        """Charge per-query setup work (operator instantiation, Banyan/GAIA)."""
        self.busy_until = max(self.busy_until, now) + cost_us

    # -- fault injection ----------------------------------------------------

    def crash(self) -> None:
        """Kill this worker: its core-resident state is lost.

        Queued traversers (when this is the runtime's only worker, i.e. the
        shared-nothing configuration), tier-1 message buffers, and weight
        accumulators all vanish — along with the progression weight they
        carried, which is exactly what the progress tracker's stuck ledger
        later detects. Partition memos are invalidated by the engine's
        crash handler, which also force-retries every affected query.
        """
        trace = self.engine.trace
        if trace is not None:
            # Tally the progression weight about to vanish, per (query,
            # stage), before the buffers are cleared. Accumulators are not
            # tallied: their weight already left "active" at execution time
            # and the recovery path drops the whole ledger anyway.
            losses: Dict[Tuple[int, int], List[int]] = {}
            for pairs in self._trav_buffers.values():
                for _pid, trav, _size in pairs:
                    entry = losses.setdefault(
                        (trav.query_id, trav.stage), [0, 0]
                    )
                    entry[0] += trav.weight
                    entry[1] += 1
            if len(self.runtime.workers) == 1:
                for source in (self.runtime.queue, self.runtime.inbox):
                    for trav in source:
                        entry = losses.setdefault(
                            (trav.query_id, trav.stage), [0, 0]
                        )
                        entry[0] += trav.weight
                        entry[1] += 1
            for (qid, stage), (weight, count) in losses.items():
                trace.emit(CRASH_LOSS, qid, stage, self.wid,
                           normalize_weight(weight), count)
        self.alive = False
        self.scheduled = False
        self._buffers.clear()
        self._trav_buffers.clear()
        self._buffer_bytes.clear()
        self._accums.clear()
        if len(self.runtime.workers) == 1:
            self.runtime.queue.clear()
            self.runtime.stage_counts.clear()
            dropped = len(self.runtime.inbox)
            if dropped:
                # Inboxed traversers die with the worker, but their sender
                # credits must not: a crash that swallowed credits would
                # deadlock every sender still throttled on this partition.
                self.runtime.inbox.clear()
                gates = self.engine.delivery.gates
                if gates is not None:
                    gates[self.runtime.pid].release(dropped)

    def stall(self) -> None:
        """Freeze this worker without losing state (GC pause, sched hiccup).

        Queued work and buffers survive; :meth:`recover` resumes exactly
        where the worker stopped, so no progression weight is lost.
        """
        self.alive = False
        self.scheduled = False

    def recover(self, now: float) -> None:
        """Bring a crashed/stalled worker back up and resume its queue."""
        self.alive = True
        self.busy_until = max(self.busy_until, now)
        self.runtime.wake(now)

    def resident_queries(self) -> Set[int]:
        """Ids of every query with state resident on this worker or its
        runtime: queued or inboxed traversers, tier-1 buffered traversers
        and control messages, and coalescing accumulators. Crash handling
        recovers exactly this set (plus the partition's memo holders) —
        any such query loses progression weight or buffered results when
        the worker dies."""
        affected: Set[int] = set()
        runtime = self.runtime
        affected.update(t.query_id for t in runtime.queue)
        affected.update(t.query_id for t in runtime.inbox)
        affected.update(key[0] for key in self._accums)
        for pairs in self._trav_buffers.values():
            affected.update(t.query_id for _pid, t, _size in pairs)
        for msgs in self._buffers.values():
            affected.update(m.query_id for m in msgs if m.query_id >= 0)
        return affected

    # -- cancellation -------------------------------------------------------

    def reclaim_query(self, query_id: int) -> Tuple[int, int]:
        """Discard a cancelled query's buffered traversers and pending
        coalesced weight.

        Returns ``(weight, n_traversers)``: the progression weight removed
        from this worker (buffered children that will now never be sent,
        plus finished weight absorbed into accumulators but not yet
        flushed), which the engine reports back to the tracker so the
        cancelled stage's ledger still reaches the root weight.
        """
        weight = 0
        n = 0
        for dst_node, pairs in self._trav_buffers.items():
            if not pairs:
                continue
            kept = []
            removed_bytes = 0
            for pid, trav, size in pairs:
                if trav.query_id == query_id:
                    weight += trav.weight
                    n += 1
                    removed_bytes += size
                else:
                    kept.append((pid, trav, size))
            if removed_bytes:
                self._trav_buffers[dst_node] = kept
                left = self._buffer_bytes.get(dst_node, 0) - removed_bytes
                self._buffer_bytes[dst_node] = max(0, left)
        trace = self.engine.trace
        for key in [k for k in self._accums if k[0] == query_id]:
            pending = self._accums.pop(key).flush()
            if pending is not None:
                weight += pending
                if trace is not None:
                    # The auditor moves this weight back from "finished" to
                    # "active": it was absorbed at execution time but never
                    # reported, and the combined reclaim below re-reports it.
                    trace.emit(ACCUM_RECLAIM, query_id, key[1], self.wid,
                               pending)
        return weight, n

    # -- main loop -----------------------------------------------------------

    def _run(self) -> None:
        """One scheduled drain: prologue, kernel middle, epilogue.

        Everything execution-strategy-independent lives here — crash-race
        drop, inbox drain with exactly-once credit release, the idle
        coalesced-weight flush, the straggler slowdown, and the
        reschedule-or-flush-all decision. The strategy-specific middle
        (pop/execute/route/buffer) is delegated to :attr:`kernel`, so both
        kernels share one copy of every hook.
        """
        if not self.alive:
            # A run scheduled before the fault fired; drop it. recover()
            # re-wakes the runtime.
            self.scheduled = False
            return
        self.scheduled = False
        engine = self.engine
        t = engine.clock.now
        runtime = self.runtime
        queue = runtime.queue

        inbox = runtime.inbox
        if inbox:
            # Drain credit-gated arrivals into the run queue, releasing
            # their senders' credits at processing pace (backpressure).
            moved = min(len(inbox), engine.config.batch_size)
            for _ in range(moved):
                queue.append(inbox.popleft())
            gates = engine.delivery.gates
            if gates is not None:
                gates[runtime.pid].release(moved)

        cpu = self.kernel.drain(self, t)

        # End of batch: flush coalesced weights of stages with no local work
        # left (the paper's "flush before the thread sleeps" rule, refined to
        # per-stage idleness so one busy query cannot stall another's
        # termination).
        if engine.config.progress_mode.coalesced:
            cpu += self._flush_idle_accums(t + cpu)

        cpu *= self.slowdown
        self.busy_total += cpu
        if queue or inbox:
            self.busy_until = t + cpu
            self.scheduled = True
            engine.clock.schedule_at(self.busy_until, self._run)
        else:
            # Idle: flush every buffer (tier-1 idle rule).
            cpu += self._flush_all(t + cpu)
            self.busy_until = t + cpu

    # -- buffering -------------------------------------------------------------

    def _accum(self, query_id: int, stage: int) -> WeightAccumulator:
        key = (query_id, stage)
        accum = self._accums.get(key)
        if accum is None:
            accum = WeightAccumulator()
            self._accums[key] = accum
        return accum

    def _buffer_traverser(
        self, child: Traverser, pid: int, dst_node: int, when: float
    ) -> float:
        """Stash a remote-bound traverser in the tier-1 buffer.

        Traversers are batched as ``(pid, traverser)`` pairs and packed into
        per-destination-partition batch messages at flush time, so the
        per-traverser bookkeeping stays off the hot path.
        """
        delivery = self.engine.delivery
        if delivery.track_inflight:
            delivery.note_outbound(child.query_id)
        buf = self._trav_buffers.setdefault(dst_node, [])
        size = child.estimated_size_bytes()
        buf.append((pid, child, size))
        self._buffer_bytes[dst_node] = self._buffer_bytes.get(dst_node, 0) + size
        if self._buffer_bytes[dst_node] >= self.engine.flush_threshold_bytes:
            return self._flush(dst_node, when)
        return 0.0

    def _buffer_message(self, msg: Message, dst_node: int, when: float) -> float:
        """Stash a control message (progress report) in the tier-1 buffer.

        Returns the CPU time spent (flush syscalls, if any).
        """
        buf = self._buffers.setdefault(dst_node, [])
        buf.append(msg)
        self._buffer_bytes[dst_node] = (
            self._buffer_bytes.get(dst_node, 0) + msg.size_bytes
        )
        if self._buffer_bytes[dst_node] >= self.engine.flush_threshold_bytes:
            return self._flush(dst_node, when)
        return 0.0

    def _flush(self, dst_node: int, when: float) -> float:
        msgs = self._buffers.get(dst_node) or []
        pairs = self._trav_buffers.get(dst_node) or []
        if not msgs and not pairs:
            return 0.0
        if msgs:
            self._buffers[dst_node] = []
        gates = self.engine.delivery.gates
        gated: List[Tuple[int, List[Traverser], int]] = []
        if pairs:
            self._trav_buffers[dst_node] = []
            if gates is None:
                # Pack traversers into one batch message per target partition.
                by_pid: Dict[int, List[Traverser]] = {}
                sizes: Dict[int, int] = {}
                for pid, child, size in pairs:
                    lst = by_pid.get(pid)
                    if lst is None:
                        by_pid[pid] = [child]
                        sizes[pid] = size
                    else:
                        lst.append(child)
                        sizes[pid] += size
                msgs = list(msgs)
                for pid, travs in by_pid.items():
                    msgs.append(
                        Message(
                            MsgKind.TRAVERSER, pid, travs, sizes[pid], travs[0].query_id
                        )
                    )
            else:
                # Credit-gated path: same per-partition packing, but each
                # batch is capped at the gate's capacity (so a single send
                # is always satisfiable) and submitted through the gate,
                # which defers it when the receiver's inbox is full.
                by_pid_g: Dict[int, List[Tuple[Traverser, int]]] = {}
                for pid, child, size in pairs:
                    by_pid_g.setdefault(pid, []).append((child, size))
                for pid, entries in by_pid_g.items():
                    cap = gates[pid].capacity
                    for i in range(0, len(entries), cap):
                        chunk = entries[i:i + cap]
                        travs = [child for child, _size in chunk]
                        total = sum(size for _child, size in chunk)
                        gated.append((pid, travs, total))
        self._buffer_bytes[dst_node] = 0
        self.engine.metrics.flushes += 1
        cm = self.engine.cost
        if dst_node == self.node or self.engine.network.node_combining:
            cost = cm.combiner_handoff_us
        else:
            cost = cm.syscall_us
        if msgs:
            self.engine.network.send(self.node, dst_node, msgs, when)
        for pid, travs, total in gated:
            msg = Message(MsgKind.TRAVERSER, pid, travs, total, travs[0].query_id)
            send = (
                lambda at, m=msg, dn=dst_node:
                self.engine.network.send(self.node, dn, [m], at)
            )
            gates[pid].submit(len(travs), send, when)
        return cost * cm.cpu_scale

    def drop_query(self, query_id: int) -> None:
        """Drop a finished query's flushed-out weight accumulators so the
        per-drain idle sweep stops iterating dead entries. Only empty
        ones: cancellation harvests pending weight via
        :meth:`reclaim_query` instead."""
        accums = self._accums
        for key in [
            k for k, a in accums.items()
            if k[0] == query_id and a.pending_count == 0
        ]:
            del accums[key]

    def drop_reports(self, query_id: int) -> None:
        """Discard the tier-1 buffered reports of a retired attempt."""
        for dst_node, msgs in self._buffers.items():
            dropped = [m for m in msgs if m.query_id == query_id]
            if dropped:  # rare: most retirements find the buffers empty
                self._buffers[dst_node] = [
                    m for m in msgs if m.query_id != query_id]
                self._buffer_bytes[dst_node] -= sum(
                    m.size_bytes for m in dropped)

    def _flush_idle_accums(self, when: float) -> float:
        """Flush finished-weight accumulators whose stage has drained here."""
        if not self._accums:
            return 0.0
        cost = 0.0
        trace = self.engine.trace
        runtime = self.runtime
        versions = runtime.partial_versions
        for key, accum in self._accums.items():
            if accum.pending_count == 0:
                continue
            if runtime.stage_counts.get(key, 0) > 0:
                continue
            count = accum.pending_count
            combined = accum.flush()
            if combined is None:
                continue
            query_id, stage = key
            if trace is not None:
                trace.emit(WEIGHT_FLUSH, query_id, stage, self.wid,
                           combined, count)
            payload = ("weight", query_id, stage, combined)
            size = PROGRESS_MSG_BYTES
            version = versions.get(key)
            if version is not None and version != runtime.partial_shipped.get(key):
                runtime.partial_shipped[key] = version
                ship = self._partial_to_ship(query_id, stage, version)
                if ship is not None:
                    payload += ((ship,),)
                    size += ship[3]
            cost += self._buffer_message(
                Message(MsgKind.PROGRESS, TRACKER_DST, payload, size, query_id),
                self.engine.home_node(query_id),
                when + cost,
            )
        return cost

    def _partial_to_ship(self, query_id: int, stage: int, version: int):
        """The partition's barrier partial as it rides a weight report,
        ``(pid, version, value, bytes)`` — or None when the stage gathers
        (``PSTMMachine.partials_ride``), the attempt is no longer running,
        or nothing was absorbed here. The value is the live memo object:
        only a partition's highest version is combined, and its last write
        is behind the flush that shipped it."""
        session = self.engine.sessions.get(query_id)
        if session is None or not session.machine.partials_ride(stage):
            return None
        runtime = self.runtime
        barrier = session.plan.barrier_of(stage)
        value = barrier.partial(runtime.memo_store.peek(query_id))
        if value is None:
            return None
        size = barrier.estimated_partial_size(value)
        if self.engine.trace is not None:
            self.engine.trace.emit(PARTIAL_SHIP, query_id, stage, runtime.pid,
                                   self.wid, version, size)
        return runtime.pid, version, value, size

    def _flush_all(self, when: float) -> float:
        """Flush every non-empty tier-1 buffer in ascending destination
        node id, each flush starting when the previous one's CPU ends;
        returns the CPU µs spent."""
        cost = 0.0
        bufs = self._buffers
        tbufs = self._trav_buffers
        for dst_node in range(self.engine.nodes):
            # Empty flushes are no-ops; skip the call (buffers persist
            # across drains, so most retained keys are usually empty).
            if bufs.get(dst_node) or tbufs.get(dst_node):
                cost += self._flush(dst_node, when + cost)
        return cost
