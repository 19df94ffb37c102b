"""BSP execution of PSTM plans — the TigerGraph-like baseline (paper §II-C1).

The bulk-synchronous engine runs the *same compiled plans* as the async
engine, but organizes each query's execution into supersteps:

* within a superstep, every partition drains the query's local work
  (including chained per-vertex operators — realistic engines fuse those);
* traversers that must move to another partition are exchanged in a bulk
  communication phase at the superstep boundary;
* a global barrier separates supersteps: the superstep's duration is the
  *maximum* over partitions of compute time (the straggler effect), plus
  the exchange time and a fixed barrier cost.

Per-traverser dispatch is slightly cheaper than in the async engine (bulk
processing, no weight arithmetic — ``bsp_step_discount``), which is what
lets BSP win the very largest queries in the paper's Fig 9 while losing
badly on small ones, where barrier counts dominate.

**Concurrency model.** Queries do *not* share supersteps: each superstep's
global barrier gives its query exclusive use of the cluster (as in
Pregel-lineage engines, where concurrent queries time-slice at superstep
granularity). Concurrency therefore buys BSP almost no throughput — the
effect behind the paper's Fig 8 throughput gap and TigerGraph's Fig 7
overload at TCR 0.03.

BSP needs no termination detection — a stage is done when the query's
frontier is empty at a barrier — so progression weights are unused (all
traversers carry weight 0).

**Fault injection is out of scope here.** The fault/recovery subsystem
(:mod:`repro.runtime.faults`, docs/FAULTS.md) targets the *asynchronous*
engine, whose weight ledger doubles as a loss detector; BSP's barrier-based
completion has no such ledger, and its bulk exchanges bypass
``Network.send``'s ack/retransmit path. This engine deliberately takes no
``EngineConfig``, so a :class:`~repro.runtime.faults.FaultPlan` cannot be
attached to it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.memo import MemoStore
from repro.core.steps import FixedVertexSource, StepContext
from repro.core.subquery import GatheredPartial, StageCursor
from repro.core.traverser import Traverser, make_root
from repro.errors import ConfigurationError, ExecutionError
from repro.graph.partition import PartitionedGraph
from repro.query.plan import PhysicalPlan
from repro.runtime.costmodel import (
    DEFAULT_COST_MODEL,
    CostModel,
    HardwareProfile,
    MODERN,
    validate_cluster,
)
from repro.runtime.engine import QueryResult
from repro.runtime.metrics import LatencyRecorder, MsgKind, QueryMetrics, RunMetrics


class _BSPSession:
    """Per-query state: its own frontier and stage cursor."""

    def __init__(
        self,
        engine: "BSPEngine",
        query_id: int,
        plan: PhysicalPlan,
        params: Dict[str, Any],
        submitted_at_us: float,
    ) -> None:
        self.query_id = query_id
        self.plan = plan
        self.params = params
        self.rng = random.Random(query_id)
        self.cursor = StageCursor(plan, query_id)
        self.qmetrics = QueryMetrics(query_id, plan.name, submitted_at_us)
        self._contexts: List[Optional[StepContext]] = [None] * engine.num_partitions
        self.engine = engine
        #: per-partition frontier queues of live traversers
        self.frontier: List[deque] = [deque() for _ in range(engine.num_partitions)]
        self.active = 0

    def context(self, pid: int) -> StepContext:
        ctx = self._contexts[pid]
        if ctx is None:
            ctx = StepContext(
                self.engine.graph.stores[pid],
                self.engine.memo_stores[pid].for_query(self.query_id),
                self.engine.graph.partitioner,
                self.params,
            )
            self._contexts[pid] = ctx
        return ctx

    def push(self, pid: int, trav: Traverser) -> None:
        self.frontier[pid].append(trav)
        self.active += 1

    def results(self) -> List[Any]:
        if self.cursor.results is None:
            raise ExecutionError(f"query {self.query_id} has not finished")
        return self.cursor.results


class BSPEngine:
    """Bulk-synchronous-parallel executor over a partitioned graph."""

    def __init__(
        self,
        graph: PartitionedGraph,
        nodes: int,
        workers_per_node: int,
        hardware: HardwareProfile = MODERN,
        cost_model: Optional[CostModel] = None,
        name: str = "bsp",
    ) -> None:
        validate_cluster(nodes, workers_per_node, hardware)
        if graph.num_partitions != nodes * workers_per_node:
            raise ConfigurationError(
                f"{name}: graph has {graph.num_partitions} partitions, need "
                f"{nodes * workers_per_node}"
            )
        self.graph = graph
        self.nodes = nodes
        self.workers_per_node = workers_per_node
        self.name = name
        self.cost = (cost_model or DEFAULT_COST_MODEL).with_hardware(hardware)
        self.num_partitions = graph.num_partitions
        self.partitions_per_node = self.num_partitions // nodes
        self.memo_stores = [MemoStore(p) for p in range(self.num_partitions)]
        self.metrics = RunMetrics()
        self.time_us = 0.0
        self._next_query_id = 0
        #: per-partition compute slowdown (straggler injection)
        self.partition_slowdown: Dict[int, float] = {}

    def node_of(self, pid: int) -> int:
        """The node hosting a partition."""
        return pid // self.partitions_per_node

    # -- single query ---------------------------------------------------------

    def run(
        self, plan: PhysicalPlan, params: Optional[Dict[str, Any]] = None
    ) -> QueryResult:
        """Run one query to completion; returns rows and simulated latency."""
        session = self.submit(plan, params or {})
        while not session.cursor.finished:
            self.advance(session)
        return QueryResult(
            session.results(), session.qmetrics.latency_us, session.qmetrics
        )

    def submit(self, plan: PhysicalPlan, params: Dict[str, Any]) -> _BSPSession:
        """Create a session and seed its stage-0 frontier."""
        session = _BSPSession(self, self._next_query_id, plan, params, self.time_us)
        self._next_query_id += 1
        self._seed_stage(session)
        return session

    def advance(self, session: _BSPSession) -> None:
        """One exclusive superstep of this query, plus any stage boundary."""
        self._superstep(session)
        self._handle_stage_boundary(session)

    # -- closed-loop concurrency -------------------------------------------------

    def run_closed_loop(
        self,
        make_query: Callable[[int], Tuple[PhysicalPlan, Dict[str, Any]]],
        clients: int,
        total_queries: int,
    ) -> Tuple[float, LatencyRecorder]:
        """Closed-loop throughput under superstep-granularity time slicing."""
        recorder = LatencyRecorder()
        issued = 0
        active: List[_BSPSession] = []
        start = self.time_us

        def issue() -> None:
            nonlocal issued
            if issued >= total_queries:
                return
            plan, params = make_query(issued)
            issued += 1
            active.append(self.submit(plan, params))

        for _ in range(min(clients, total_queries)):
            issue()
        done = 0
        while active:
            # Round-robin: each active query gets one exclusive superstep.
            for session in list(active):
                self.advance(session)
                if session.cursor.finished:
                    active.remove(session)
                    recorder.record(session.qmetrics.latency_us)
                    done += 1
                    issue()
        if done != total_queries:
            raise ExecutionError(f"closed loop finished {done}/{total_queries}")
        elapsed_us = self.time_us - start
        qps = total_queries / (elapsed_us / 1e6) if elapsed_us > 0 else float("inf")
        return qps, recorder

    # -- internals --------------------------------------------------------------------

    def _seed_stage(self, session: _BSPSession) -> None:
        plan = session.plan
        for source in plan.source_ops():
            if source.broadcast:
                for pid in range(self.num_partitions):
                    session.push(
                        pid,
                        make_root(session.query_id, -pid - 1, source.idx,
                                  plan.payload_width, 0),
                    )
            else:
                assert isinstance(source, FixedVertexSource)
                vertex = source.start_vertex(session.params)
                pid = self.graph.partition_of(vertex)
                session.push(
                    pid,
                    make_root(session.query_id, vertex, source.idx,
                              plan.payload_width, 0),
                )

    def _superstep(self, session: _BSPSession) -> None:
        """One superstep: drain local work, bulk-exchange, barrier."""
        outgoing: Dict[Tuple[int, int], int] = {}  # (src_node, dst_node) -> bytes
        remote: List[Tuple[int, Traverser]] = []
        compute_us = [0.0] * self.num_partitions
        for pid in range(self.num_partitions):
            compute_us[pid] = self._drain_partition(
                session, pid, outgoing, remote
            )

        # Communication phase: one bulk pack per node pair, serialized per
        # source node's NIC; intra-node exchange is shared memory.
        per_node_tx = [0.0] * self.nodes
        for (src, dst), size in outgoing.items():
            if src == dst:
                continue
            per_node_tx[src] += self.cost.tx_time_us(size)
            self.metrics.packets_sent += 1
            self.metrics.bytes_sent += size
        comm_us = max(per_node_tx) if per_node_tx else 0.0
        if any(src == dst for (src, dst) in outgoing):
            comm_us += self.cost.hardware.shm_latency_us

        for pid, factor in self.partition_slowdown.items():
            compute_us[pid] *= factor
        straggler_us = max(compute_us) if compute_us else 0.0
        self.time_us += straggler_us + comm_us + self.cost.bsp_barrier_us
        self.metrics.supersteps += 1
        # Utilization accounting: every partition's worker is held at the
        # barrier until the slowest finishes.
        busy = sum(compute_us)
        self.metrics.bsp_compute_us += busy
        self.metrics.bsp_idle_us += straggler_us * self.num_partitions - busy

        for target, child in remote:
            session.push(target, child)

    def _drain_partition(
        self,
        session: _BSPSession,
        pid: int,
        outgoing: Dict[Tuple[int, int], int],
        remote: List[Tuple[int, Traverser]],
    ) -> float:
        """Per-traverser drain loop for one partition's frontier."""
        queue = session.frontier[pid]
        compute = 0.0
        ctx = None
        discount = self.cost.bsp_step_discount
        partitioner = self.graph.partitioner
        while queue:
            trav = queue.popleft()
            session.active -= 1
            if ctx is None:
                ctx = session.context(pid)
            op = session.plan.ops[trav.op_idx]
            outcome = op.apply(ctx, trav)
            cost = outcome.cost
            compute += self.cost.op_cost_us(cost) * discount
            self.metrics.steps_executed += 1
            self.metrics.edges_scanned += cost.edges
            self.metrics.memo_ops += cost.memo_ops
            session.qmetrics.steps_executed += 1
            for vertex, op_idx, payload, loops in outcome.children:
                child = Traverser(
                    trav.query_id, vertex, op_idx, payload, 0,
                    session.plan.ops[op_idx].stage, loops,
                )
                self.metrics.traversers_spawned += 1
                routed = session.plan.ops[op_idx].routing(partitioner, child)
                target = pid if routed is None else routed
                if target == pid:
                    queue.append(child)
                    session.active += 1
                else:
                    compute += self.cost.serialize_us * discount
                    size = child.estimated_size_bytes()
                    key = (self.node_of(pid), self.node_of(target))
                    outgoing[key] = outgoing.get(key, 0) + size
                    remote.append((target, child))
                    self.metrics.messages[MsgKind.TRAVERSER] += 1
        return compute

    def _handle_stage_boundary(self, session: _BSPSession) -> None:
        """Advance the stage cursor when the query's frontier drained."""
        while session.active == 0 and not session.cursor.finished:
            barrier = session.cursor.barrier()
            partials = []
            gather_bytes = 0.0
            for pid in range(self.num_partitions):
                memo = self.memo_stores[pid].peek(session.query_id)
                if memo is None:
                    continue
                value = barrier.partial(memo)
                if value is None:
                    continue
                size = barrier.estimated_partial_size(value)
                partials.append(GatheredPartial(pid, value, size))
                if self.node_of(pid) != 0:
                    gather_bytes += size
                    self.metrics.messages[MsgKind.PARTIAL] += 1
            # Gather + combine happen at the coordinator after a barrier.
            self.time_us += (
                self.cost.tx_time_us(int(gather_bytes))
                + self.cost.hardware.network_latency_us
                + self.cost.combine_partial_us * max(len(partials), 1)
            )
            seeds = session.cursor.complete_stage(partials, session.rng)
            if session.cursor.finished:
                session.qmetrics.completed_at_us = self.time_us
                session.qmetrics.result_rows = len(session.results())
                for store in self.memo_stores:
                    store.clear_query(session.query_id)
                break
            for seed in seeds:
                routed = session.plan.ops[seed.op_idx].routing(
                    self.graph.partitioner, seed
                )
                if routed is None:
                    routed = (
                        self.graph.partition_of(seed.vertex)
                        if seed.vertex >= 0
                        else 0
                    )
                session.push(routed, seed)
