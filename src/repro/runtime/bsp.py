"""BSP execution of PSTM plans — the TigerGraph-like baseline (paper §II-C1).

BSP differs from GraphDance in scheduling only: :class:`BSPEngine` is a
superstep schedule over an :class:`~repro.runtime.engine.AsyncPSTMEngine`'s
partitions, workers and run kernel (docs/ARCHITECTURE.md). Each superstep
drains every partition, exchanges remote children in bulk and waits at a
barrier for the straggler. Queries never share a superstep, so concurrency
buys BSP almost no throughput (the paper's Fig 8 gap and Fig 7 overload).
"""

from __future__ import annotations

import sys
from dataclasses import fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.machine import PSTMMachine
from repro.core.progress import ProgressTracker
from repro.core.subquery import gather_partials
from repro.core.traverser import Traverser
from repro.errors import ConfigurationError
from repro.graph.partition import PartitionedGraph
from repro.query.plan import PhysicalPlan
from repro.runtime.config import EngineConfig
from repro.runtime.costmodel import DEFAULT_COST_MODEL, MODERN, CostModel, HardwareProfile
from repro.runtime.engine import AsyncPSTMEngine
from repro.runtime.kernels import RUN_KERNEL
from repro.runtime.lifecycle import QueryResult, QuerySession, QueryState, stage0_seeds
from repro.runtime.metrics import LatencyRecorder, MsgKind
from repro.runtime.trace import STAGE_CLOSE, STAGE_OPEN, TRACKER_REPORT, WEIGHT_FLUSH

#: the EngineConfig fields a superstep schedule models
BSP_FIELDS = frozenset({"name", "trace"})


class BSPEngine:
    """Bulk-synchronous-parallel schedule over a partitioned graph."""

    def __init__(self, graph: PartitionedGraph, nodes: int, workers_per_node: int,
                 hardware: HardwareProfile = MODERN, cost_model: Optional[CostModel] = None,
                 config: Optional[EngineConfig] = None) -> None:
        config = config or EngineConfig(name="bsp")
        unmodeled = [f.name for f in fields(EngineConfig) if f.name not in BSP_FIELDS
                     and getattr(config, f.name) != getattr(EngineConfig(), f.name)]
        if unmodeled:
            raise ConfigurationError(f"{config.name}: a BSP superstep schedule does not "
                                     f"model EngineConfig field(s) {', '.join(unmodeled)}")
        cost = cost_model or DEFAULT_COST_MODEL
        cost = cost.scaled_cpu(cost.cpu_scale * cost.bsp_step_discount)
        self.pstm = pstm = AsyncPSTMEngine(graph, nodes, workers_per_node, hardware, cost, replace(
            config, batch_size=sys.maxsize, flush_threshold_bytes=sys.maxsize))
        # The schedule closes stages itself, at the barrier.
        pstm.progress = ProgressTracker(config.progress_mode, lambda qid, stage: None)
        self.name, self.graph, self.cost, self.metrics = config.name, graph, pstm.cost, pstm.metrics
        self.memo_stores, self.node_of, self.trace = pstm.memo_stores, pstm.node_of, pstm.trace
        #: per-partition compute slowdown (straggler injection)
        self.partition_slowdown: Dict[int, float] = {}
        #: query id -> its next superstep's (partition, traverser) pairs
        self._frontiers: Dict[int, List[Tuple[int, Traverser]]] = {}

    #: simulated time (µs); setting it only moves it forward
    time_us = property(lambda self: self.pstm.clock.now,
                       lambda self, value: self.pstm.clock.run_until(value))

    def run(self, plan: PhysicalPlan, params: Optional[Dict[str, Any]] = None) -> QueryResult:
        """Run one query to completion; returns rows and simulated latency."""
        session = self.submit(plan, params or {})
        while not session.cursor.finished:
            self.advance(session)
        return self.pstm.result_of(session)

    def submit(self, plan: PhysicalPlan, params: Dict[str, Any]) -> QuerySession:
        """Create a session and seed its stage-0 frontier."""
        pstm = self.pstm
        pstm._machines.setdefault(plan, PSTMMachine(plan, self.graph.partitioner, stay_local=True))
        session = QuerySession(pstm, pstm._next_query_id, plan, dict(params), None)
        pstm._next_query_id += 1
        pstm.sessions[session.query_id] = session
        for state in (QueryState.ADMITTED, QueryState.RUNNING):
            session.lifecycle.to(state)
        session.qmetrics.submitted_at_us = self.time_us
        self._open_stage(session, stage0_seeds(pstm, session))
        return session

    def advance(self, session: QuerySession) -> None:
        """One exclusive superstep of this query, plus any stage boundary."""
        pstm, cost, metrics = self.pstm, self.cost, self.metrics
        for pid, trav in self._frontiers[session.query_id]:
            pstm.runtimes[pid].queue.append(trav)
        compute_us = [RUN_KERNEL.drain(w, self.time_us) if w.runtime.queue else 0.0
                      for w in pstm.workers]

        # One bulk pack per node pair, serialized per source node's NIC.
        outgoing: Dict[Tuple[int, int], int] = {}
        frontier = self._frontiers[session.query_id] = []
        for worker in pstm.workers:
            for dst, entries in worker._trav_buffers.items():
                key = (worker.node, dst)
                outgoing[key] = outgoing.get(key, 0) + sum(size for _p, _c, size in entries)
                frontier += [(pid, child) for pid, child, _size in entries]
            worker._trav_buffers.clear()
            worker._buffer_bytes.clear()
        metrics.messages[MsgKind.TRAVERSER] += len(frontier)
        per_node_tx = [0.0] * pstm.nodes
        packets = [(src, size) for (src, dst), size in outgoing.items() if src != dst]
        for src, size in packets:
            per_node_tx[src] += cost.tx_time_us(size)
        metrics.packets_sent += len(packets)
        metrics.bytes_sent += sum(size for _src, size in packets)
        shm = len(packets) < len(outgoing)  # some pair stayed on its node
        comm_us = max(per_node_tx) + (cost.hardware.shm_latency_us if shm else 0.0)
        for pid, factor in self.partition_slowdown.items():
            compute_us[pid] *= factor
        straggler_us = max(compute_us)
        self.time_us += straggler_us + comm_us + cost.bsp_barrier_us
        busy = sum(compute_us)
        metrics.supersteps += 1
        metrics.bsp_compute_us += busy
        metrics.bsp_idle_us += straggler_us * len(compute_us) - busy
        for worker in pstm.workers:
            for (qid, stage), accum in worker._accums.items():
                count, weight = accum.pending_count, accum.flush()
                if weight is not None:
                    if self.trace is not None:
                        self.trace.emit(WEIGHT_FLUSH, qid, stage, worker.wid, weight, count)
                        self.trace.emit(TRACKER_REPORT, qid, stage, "weight", weight)
                    pstm.progress.report_weight(qid, stage, weight)
        if pstm.progress.ledger(session.query_id, session.cursor.current).terminated:
            self._close_stage(session)

    def run_closed_loop(self, make_query: Callable[[int], Tuple[PhysicalPlan, Dict[str, Any]]],
                        clients: int, total_queries: int) -> Tuple[float, LatencyRecorder]:
        """Closed-loop throughput under superstep-granularity time slicing."""
        recorder, start = LatencyRecorder(), self.time_us
        active = [self.submit(*make_query(i)) for i in range(min(clients, total_queries))]
        issued = len(active)
        while active:
            for session in list(active):  # round-robin: one superstep each
                self.advance(session)
                if session.cursor.finished:
                    active.remove(session)
                    recorder.record(session.qmetrics.latency_us)
                    if issued < total_queries:
                        active.append(self.submit(*make_query(issued)))
                        issued += 1
        elapsed_us = self.time_us - start
        return total_queries / (elapsed_us / 1e6) if elapsed_us > 0 else float("inf"), recorder

    def _open_stage(self, session: QuerySession, seeds: List[Traverser]) -> None:
        """Open the current stage's ledger and make its seeds the frontier."""
        query_id, stage = session.query_id, session.cursor.current
        self.pstm.progress.open_stage(query_id, stage)
        if self.trace is not None:
            self.trace.emit(STAGE_OPEN, query_id, stage)
            self.pstm._trace_seeds(query_id, stage, seeds)
        by_pid = self.pstm._route_seeds(session, seeds)
        self._frontiers[query_id] = [(pid, t) for pid, travs in by_pid.items() for t in travs]

    def _close_stage(self, session: QuerySession) -> None:
        """The ledger closed: gather and combine the partials at the coordinator
        (node 0), then seed the next stage (an empty one completes at once)."""
        query_id, cursor, cost = session.query_id, session.cursor, self.cost
        self.pstm.progress.close_stage(query_id, cursor.current)
        if self.trace is not None:
            self.trace.emit(STAGE_CLOSE, query_id, cursor.current, "terminated")
        seeds: List[Traverser] = []
        while not seeds and not cursor.finished:
            partials = gather_partials(session.plan, cursor.current, query_id, self.memo_stores)
            remote = [p for p in partials if self.node_of(p.pid) != 0]
            self.metrics.messages[MsgKind.PARTIAL] += len(remote)
            self.time_us += (cost.tx_time_us(sum(p.size_bytes for p in remote))
                             + cost.hardware.network_latency_us
                             + cost.combine_partial_us * max(len(partials), 1))
            seeds = cursor.complete_stage(partials, session.rng)
        if cursor.finished:
            del self._frontiers[query_id]
            self.pstm._finish_query(session)
        else:
            self._open_stage(session, seeds)
