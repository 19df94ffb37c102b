"""Run-draining machinery for the production execution kernel.

:class:`~repro.runtime.kernels.RunKernel` drains the partition queue in
*homogeneous runs* — maximal contiguous spans of traversers sharing
``(query_id, op_idx)`` — and must replay the scalar kernel's observable
sequence exactly: the same float additions in the same order, the same RNG
draws, the same buffer-flush instants, the same progress reports.

:class:`RunDrain` owns everything one drain needs:

* the per-drain hoisted state (cost constants, routing tables, buffer
  mirrors, per-query session state refreshed when a run's query changes);
* :meth:`pop_run` — run partitioning against the drain budget, including
  the cancelled-query weight-reclaim path;
* :meth:`execute_batch` — the production body every run takes: one
  kernel call + inlined links, then one row loop that prices, splits,
  routes, buffers and reports each row.

``PROGRESS_MSG_BYTES`` lives here, at the bottom of the kernel stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.progress import ProgressMode
from repro.core.traverser import Traverser
from repro.core.weight import normalize_weight, split_weight
from repro.errors import ExecutionError
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message
from repro.runtime.trace import ABSENT, EXEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.worker import Worker

__all__ = ["PROGRESS_MSG_BYTES", "RunDrain", "get_drain"]

#: wire size of a progress report (weight or delta + headers)
PROGRESS_MSG_BYTES = 16


def get_drain(worker: "Worker", t: float) -> "RunDrain":
    """The worker's cached :class:`RunDrain`, reset for a new drain.

    Construction hoists ~40 engine/worker constants that never change for
    a given worker; reusing one instance per worker turns that into a
    short per-drain :meth:`RunDrain.reset`. Workers are single-threaded
    (the event loop is serial) so the cache is race-free.
    """
    d = getattr(worker, "_run_drain", None)
    if d is None:
        d = RunDrain(worker, t)
        worker._run_drain = d
    else:
        d.reset(t)
    return d


class RunDrain:
    """One drain invocation's state + the shared batched run execution."""

    __slots__ = (
        # drain-wide
        "worker", "t", "budget", "cpu",
        "engine", "runtime", "queue", "stage_counts", "dec_stage_count",
        "sessions", "delivery", "trace", "metrics",
        # cost constants
        "cpu_scale", "step_base_us", "edge_us", "memo_op_us", "prop_us",
        "serialize_us",
        # shared-state penalty (non-partitioned baseline)
        "shared", "locality", "per_access",
        # progress mode
        "naive", "coalesced",
        # topology
        "self_pid", "ppn", "num_nodes",
        # tier-1 buffer mirrors
        "track_inflight", "note_outbound", "trav_buffers", "buffer_bytes",
        "flush_threshold", "flush", "size_cache", "last_payload",
        "last_size", "local_bufs", "local_bytes",
        # metric tallies
        "steps", "edges_scanned", "memo_ops_total", "spawned_total",
        # per-query hoists
        "cur_qid", "session", "machine", "ctx", "ops", "inline",
        "num_ops", "route_info", "partitioner", "pcache_get",
        "num_partitions", "barrier_route", "op_steps", "op_spawned",
        "qmetrics",
        # current run
        "run_qid", "run_op_idx", "run_stage",
    )

    def __init__(self, worker: "Worker", t: float) -> None:
        engine = worker.engine
        runtime = worker.runtime
        cm = engine.cost
        self.worker = worker
        self.engine = engine
        self.runtime = runtime
        self.queue = runtime.queue
        self.stage_counts = runtime.stage_counts
        self.dec_stage_count = runtime.dec_stage_count
        self.sessions = engine.sessions
        self.delivery = engine.delivery
        self.metrics = engine.metrics

        self.cpu_scale = cm.cpu_scale
        self.step_base_us = cm.step_base_us
        self.edge_us = cm.edge_us
        self.memo_op_us = cm.memo_op_us
        self.prop_us = cm.prop_us
        self.serialize_us = cm.serialize_us * cm.cpu_scale

        self.shared = len(runtime.workers) > 1
        self.locality = cm.shared_locality_factor if self.shared else 1.0

        mode = engine.config.progress_mode
        self.naive = mode is ProgressMode.NAIVE_CENTRAL
        self.coalesced = mode.coalesced
        self.self_pid = runtime.pid
        self.ppn = engine.partitions_per_node
        self.num_nodes = engine.nodes

        # Inlined _buffer_traverser state (hot path).
        self.trav_buffers = worker._trav_buffers
        self.buffer_bytes = worker._buffer_bytes
        self.flush_threshold = engine.flush_threshold_bytes
        self.flush = worker._flush
        # estimated_size_bytes() depends only on the payload tuple, and
        # every payload referenced during this drain stays reachable (run
        # list, queue, buffers), so ids are stable for the cache's
        # lifetime. The cache is cleared per drain — a freed payload's id
        # may be reused afterwards.
        self.size_cache = {}
        # Node-indexed mirrors of the per-destination traverser buffers:
        # a list index replaces three dict operations per remote child. The
        # byte counts are written back to the dict around every _flush /
        # _buffer_message call (their only other readers during this drain)
        # and once at drain end.
        self.local_bufs: List = [None] * self.num_nodes
        self.local_bytes = [0] * self.num_nodes

        self.reset(t)

    def reset(self, t: float) -> None:
        """Prepare the cached instance for a new drain invocation."""
        engine = self.engine
        self.t = t
        self.budget = engine.config.batch_size
        self.cpu = 0.0
        self.trace = engine.trace
        delivery = engine.delivery
        self.track_inflight = delivery.track_inflight
        self.note_outbound = delivery.note_outbound
        if self.shared:
            # All workers' scheduled flags are frozen while this drain
            # executes (the event loop is serial), so the scalar loop's
            # per-traverser busy count is a per-drain constant.
            worker = self.worker
            busy = 1 + sum(
                1
                for w in self.runtime.workers
                if w is not worker and w.scheduled
            )
            cm = engine.cost
            self.per_access = (
                cm.latch_us + cm.latch_contention * max(busy - 1, 0)
            )
        else:
            self.per_access = 0.0

        self.size_cache.clear()
        # Siblings share their parent's payload reference, so one identity
        # compare usually replaces the id()+dict lookup.
        self.last_payload = object()
        self.last_size = 0
        local_bufs = self.local_bufs
        local_bytes = self.local_bytes
        for nd in range(self.num_nodes):
            local_bufs[nd] = None
            local_bytes[nd] = 0

        self.steps = 0
        self.edges_scanned = 0
        self.memo_ops_total = 0
        self.spawned_total = 0

        # Per-query hoisted machine state; refreshed when a run's query
        # differs from the previous run's.
        self.cur_qid = None
        self.session = None

        self.run_qid = -1
        self.run_op_idx = -1
        self.run_stage = -1

    # -- buffer mirror maintenance ------------------------------------------

    def sync_bufs(self) -> None:
        """Write the local byte mirrors back to the worker's dict."""
        local_bufs = self.local_bufs
        buffer_bytes = self.buffer_bytes
        local_bytes = self.local_bytes
        for nd in range(self.num_nodes):
            if local_bufs[nd] is not None:
                buffer_bytes[nd] = local_bytes[nd]
                local_bufs[nd] = None

    # -- run partitioning ----------------------------------------------------

    def _refresh_session(self, query_id: int) -> None:
        self.cur_qid = query_id
        session = self.sessions.get(query_id)
        self.session = session
        if session is not None:
            machine = session.machine
            self.machine = machine
            self.ctx = session.context(self.self_pid)
            self.ops = machine.plan.ops
            self.num_ops = len(machine.plan.ops)
            self.route_info = machine.route_info()
            self.inline = machine.inline_links()
            partitioner = machine.partitioner
            self.partitioner = partitioner
            pcache = getattr(partitioner, "_cache", None)
            self.pcache_get = None if pcache is None else pcache.get
            self.num_partitions = partitioner.num_partitions
            self.barrier_route = machine.barrier_route
            self.op_steps = session.op_steps
            self.op_spawned = session.op_spawned
            self.qmetrics = session.qmetrics

    def pop_run(self) -> Optional[List[Traverser]]:
        """Pop the next homogeneous run within the drain budget.

        Returns None when the budget or the queue is exhausted. Cancelled
        queries' runs are reclaimed here and never returned. On return,
        ``run_qid`` / ``run_op_idx`` / ``run_stage`` identify the run and
        the per-query hoists (session, machine, routing) are fresh.
        """
        queue = self.queue
        popleft = queue.popleft
        budget = self.budget
        while budget > 0 and queue:
            head = popleft()
            budget -= 1
            query_id = head.query_id
            op_idx = head.op_idx
            run = [head]
            run_append = run.append
            while budget > 0 and queue:
                nxt = queue[0]
                if nxt.query_id != query_id or nxt.op_idx != op_idx:
                    break
                run_append(popleft())
                budget -= 1
            self.budget = budget
            stage = head.stage
            self.dec_stage_count((query_id, stage), len(run))
            if query_id != self.cur_qid:
                self._refresh_session(query_id)
            if self.session is None:
                # Query already finished/cancelled. A cancelling query's
                # dropped run carries progression weight that must be
                # reclaimed, or its stage ledger never closes.
                delivery = self.delivery
                if delivery.cancelling and query_id in delivery.cancelling:
                    dropped = 0
                    for trav in run:
                        dropped += trav.weight
                    delivery.reclaim(query_id, stage, dropped, len(run))
                continue
            self.run_qid = query_id
            self.run_op_idx = op_idx
            self.run_stage = stage
            return run
        return None

    # -- drain epilogue ------------------------------------------------------

    def finish(self) -> float:
        """Flush mirrors, commit metric tallies, return the CPU µs burned.
        The cached drain lets go of the last run's session and context,
        which must not outlive their query."""
        self.sync_bufs()
        self.session = self.ctx = None
        metrics = self.metrics
        metrics.steps_executed += self.steps
        metrics.edges_scanned += self.edges_scanned
        metrics.memo_ops += self.memo_ops_total
        metrics.traversers_spawned += self.spawned_total
        return self.cpu

    # -- the run body ---------------------------------------------------------

    def execute_batch(self, run: List[Traverser]) -> None:
        """Execute one homogeneous run: the production body every run takes.

        One ``apply_batch`` call, then one loop over (traverser, children,
        cost) that every row takes: price the cost tuple, split the weight
        over the children, route each child to the local queue or a tier-1
        buffer, and send at most one progress report — in exactly the
        scalar kernel's order.
        """
        query_id = self.run_qid
        op_idx = self.run_op_idx
        stage = self.run_stage
        n_run = len(run)
        op = self.ops[op_idx]
        outcome = op.apply_batch(self.ctx, run)
        inline = self.inline
        if inline.writes[op_idx]:
            versions = self.runtime.partial_versions
            key = (query_id, stage)
            versions[key] = versions.get(key, 0) + n_run
        spec_rows, costs = outcome.children, outcome.costs
        if inline.table[op_idx] is not None:  # links run right here
            spec_rows, costs = inline.run(self.ctx, op_idx, spec_rows, costs,
                                          self.op_steps, self.session.op_inlined)
        self.steps += n_run
        self.qmetrics.steps_executed += n_run
        op_steps = self.op_steps
        op_steps[op_idx] = op_steps.get(op_idx, 0) + n_run

        # Localize hot state (the inner loop below runs per child).
        worker = self.worker
        t = self.t
        cpu = self.cpu
        trace = self.trace
        queue_append = self.queue.append
        stage_counts = self.stage_counts
        cpu_scale = self.cpu_scale
        step_base_us = self.step_base_us
        edge_us = self.edge_us
        memo_op_us = self.memo_op_us
        prop_us = self.prop_us
        serialize_us = self.serialize_us
        shared = self.shared
        locality = self.locality
        per_access = self.per_access
        naive = self.naive
        coalesced = self.coalesced
        self_pid = self.self_pid
        ppn = self.ppn
        # eager (non-coalesced) progress reports go to the query's home
        # node; coalesced ones leave through Worker._flush_idle_accums
        home = None if coalesced else self.engine.home_node(query_id)
        track_inflight = self.track_inflight
        note_outbound = self.note_outbound
        trav_buffers = self.trav_buffers
        buffer_bytes = self.buffer_bytes
        flush_threshold = self.flush_threshold
        flush = self.flush
        size_cache = self.size_cache
        size_cache_get = size_cache.get
        last_payload = self.last_payload
        last_size = self.last_size
        local_bufs = self.local_bufs
        local_bytes = self.local_bytes
        rng = self.session.rng
        num_ops = self.num_ops
        route_info = self.route_info
        partitioner = self.partitioner
        pcache_get = self.pcache_get
        num_partitions = self.num_partitions
        barrier_route = self.barrier_route

        run_cpu0 = cpu
        run_spawned = 0
        fin_total = 0
        fin_count = 0
        edges_scanned = 0
        memo_ops_total = 0
        prev_tuple = None
        prev_cost_us = 0.0
        prev_edges = 0
        prev_memo_ops = 0
        last_idx = -1
        c_stage = c_mode = child_op = c_key = None
        lkey = None
        lcount = 0
        for trav, specs, ct in zip(run, spec_rows, costs):
            # Non-Expand kernels share one cost tuple across the run
            # ([t] * n), so an identity hit replays the exact float
            # computed for the previous traverser.
            if ct is prev_tuple:
                cost_us = prev_cost_us
                edges = prev_edges
                memo_ops = prev_memo_ops
            else:
                base, edges, memo_ops, props = ct
                # Same expression shape/order as CostModel.op_cost_us —
                # float addition is not associative, so the term order is
                # part of the equivalence contract.
                cost_us = cpu_scale * (
                    base * step_base_us
                    + edges * edge_us
                    + memo_ops * memo_op_us
                    + props * prop_us
                )
                if shared:
                    cost_us = cost_us * locality
                    cost_us += (memo_ops + props + edges * 0.25) * per_access
                prev_tuple = ct
                prev_cost_us = cost_us
                prev_edges = edges
                prev_memo_ops = memo_ops
            cpu += cost_us
            edges_scanned += edges
            memo_ops_total += memo_ops
            if specs:
                nc = len(specs)
                run_spawned += nc
                # Same RNG draw sequence as the scalar path (ops never
                # consume the RNG, so drawing after apply_batch instead of
                # per apply is invisible); one child draws nothing.
                parts = split_weight(trav.weight, nc, rng)
                for (vertex, c_idx, payload, loops), weight in zip(
                    specs, parts
                ):
                    if c_idx != last_idx:
                        if c_idx < 0 or c_idx >= num_ops:
                            raise ExecutionError(
                                f"op {op.name} produced child with "
                                f"bad target index {c_idx}"
                            )
                        c_stage, c_mode, child_op = route_info[c_idx]
                        c_key = (query_id, c_stage)
                        last_idx = c_idx
                    child = Traverser(
                        query_id, vertex, c_idx, payload, weight,
                        c_stage, loops,
                    )
                    # Routing: the mode dispatch of engine.resolve_target.
                    if c_mode == "vertex":
                        if pcache_get is None or (
                            pid := pcache_get(vertex)
                        ) is None:
                            pid = partitioner(vertex)
                    elif c_mode == "free":
                        if vertex >= 0:
                            if pcache_get is None or (
                                pid := pcache_get(vertex)
                            ) is None:
                                pid = partitioner(vertex)
                        else:
                            pid = min(-vertex - 1, num_partitions - 1)
                    elif c_mode == "fixed":
                        pid = barrier_route
                    elif c_mode == "local":
                        pid = self_pid
                    else:
                        # Inlined resolve_partition.
                        routed = child_op.routing(partitioner, child)
                        if routed is not None:
                            pid = routed
                        elif vertex >= 0:
                            if pcache_get is None or (
                                pid := pcache_get(vertex)
                            ) is None:
                                pid = partitioner(vertex)
                        else:
                            pid = min(-vertex - 1, num_partitions - 1)
                    if pid == self_pid:
                        queue_append(child)
                        # Deferred stage-count increment: contiguous local
                        # children mostly share one stage key, so batch the
                        # dict update. Flushed at run end — before the next
                        # run's dec_stage_count (the only reader during
                        # this drain) can observe the map.
                        if c_key is lkey:
                            lcount += 1
                        else:
                            if lcount:
                                stage_counts[lkey] = (
                                    stage_counts.get(lkey, 0) + lcount
                                )
                            lkey = c_key
                            lcount = 1
                    else:
                        cpu += serialize_us
                        # Inlined _buffer_traverser (hot path).
                        if track_inflight:
                            note_outbound(query_id)
                        dst_node = pid // ppn
                        buf = local_bufs[dst_node]
                        if buf is None:
                            buf = trav_buffers.get(dst_node)
                            if buf is None:
                                buf = trav_buffers[dst_node] = []
                            local_bufs[dst_node] = buf
                            local_bytes[dst_node] = buffer_bytes.get(
                                dst_node, 0
                            )
                        if payload is last_payload:
                            size = last_size
                        else:
                            last_payload = payload
                            pk = id(payload)
                            size = size_cache_get(pk)
                            if size is None:
                                size = child.estimated_size_bytes()
                                size_cache[pk] = size
                            last_size = size
                        buf.append((pid, child, size))
                        nbytes = local_bytes[dst_node] + size
                        local_bytes[dst_node] = nbytes
                        if nbytes >= flush_threshold:
                            buffer_bytes[dst_node] = nbytes
                            local_bufs[dst_node] = None
                            cpu += flush(dst_node, t + cpu)
            # At most one eager progress report per row: the active-count
            # delta under naive progress, else a finished row's weight.
            if naive:
                report = ("delta", query_id, stage, len(specs) - 1)
            elif specs:
                continue
            else:
                weight = trav.weight
                if not weight:
                    continue
                if coalesced:
                    # Deferred to one absorb_many below: addition in the
                    # weight group is associative and the accumulator is
                    # only observed at flush time (end of the run).
                    fin_total += weight
                    fin_count += 1
                    continue
                if trace is not None:
                    # Observation only: fin_count stays 0, so the
                    # coalescing absorb below never fires — fin_total
                    # just feeds the EXEC event.
                    fin_total += weight
                report = ("weight", query_id, stage, weight)
            self.sync_bufs()
            cpu += worker._buffer_message(
                Message(
                    MsgKind.PROGRESS, TRACKER_DST, report,
                    PROGRESS_MSG_BYTES, query_id,
                ),
                home,
                t + cpu,
            )
        if lcount:
            stage_counts[lkey] = stage_counts.get(lkey, 0) + lcount
        if fin_count:
            worker._accum(query_id, stage).absorb_many(fin_total, fin_count)
        if trace is not None:
            # One EXEC event per batched run: per-traverser weights are not
            # materialized here (that is the point of batching), so the
            # event carries run totals; the auditor checks the
            # active-weight ledger, not per-traverser conservation. A
            # snapshot store also reports its served version high-water so
            # the auditor can reject a read past the query's pin.
            vh = getattr(self.ctx.store, "version_high", 0)
            trace.emit(
                EXEC, query_id, self_pid, worker.wid, stage, op_idx, n_run,
                run_spawned, normalize_weight(sum(tr.weight for tr in run)),
                normalize_weight(fin_total), ABSENT, cpu - run_cpu0,
                vh or ABSENT,
            )
        self.spawned_total += run_spawned
        if run_spawned:
            op_spawned = self.op_spawned
            op_spawned[op_idx] = op_spawned.get(op_idx, 0) + run_spawned
            self.qmetrics.traversers_spawned += run_spawned
        self.cpu = cpu
        self.edges_scanned += edges_scanned
        self.memo_ops_total += memo_ops_total
        self.last_payload = last_payload
        self.last_size = last_size
