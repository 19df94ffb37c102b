"""Execution kernels: the worker drain loop's hot middle.

A :class:`~repro.runtime.worker.Worker` runs one unified drain loop
(`Worker._run`): prologue (inbox drain + credit release), **kernel**, and
epilogue (idle weight flush, slowdown, reschedule-or-flush).
Only the kernel — how queued traversers are popped, executed, priced, and
their children routed — differs between production and its reference, so
exactly that part is a strategy object:

* :class:`RunKernel` — the production drain (``EngineConfig.kernel="run"``,
  the default). Pops contiguous runs sharing ``(query_id, op_idx)`` and
  executes each through :meth:`RunDrain.execute_batch
  <repro.runtime.runs.RunDrain.execute_batch>`.
* :class:`ScalarKernel` — the reference loop: one traverser per kernel
  call, costs priced through :meth:`CostModel.op_cost_us`, one progress
  action per execution. Selected by ``EngineConfig.kernel="scalar"``;
  kept as the oracle the equivalence suites compare the run kernel with.

Both implement :class:`ExecutionKernel` and are stateless — all mutable
state lives on the worker and the engine's layers — so module singletons
are shared by every worker. Fault hooks, backpressure, and reclaim paths
live once, in ``Worker._run`` and the delivery plane, not per kernel.
The BSP baseline (:mod:`repro.runtime.bsp`) calls :data:`RUN_KERNEL`
itself, once per partition per superstep, with an unbounded budget and
flush threshold: one kernel serves both schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.core.progress import ProgressMode
from repro.core.weight import normalize_weight
from repro.runtime.metrics import MsgKind
from repro.runtime.network import TRACKER_DST, Message
from repro.runtime.runs import PROGRESS_MSG_BYTES, get_drain
from repro.runtime.trace import ABSENT, EXEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import EngineConfig
    from repro.runtime.worker import Worker

__all__ = [
    "ExecutionKernel",
    "ScalarKernel",
    "RunKernel",
    "SCALAR_KERNEL",
    "RUN_KERNEL",
    "kernel_for",
]


class ExecutionKernel(Protocol):
    """Strategy protocol for the worker drain loop's execution middle.

    Implementations must be stateless (shared across workers) and must
    preserve the simulated-time contract: identical cost accumulation
    order, RNG draw sequence, and buffer-flush times for identical input
    queues — the property the scalar/run equivalence suites assert.
    """

    def drain(self, worker: "Worker", t: float) -> float:
        """Execute up to one batch of queued traversers; return CPU µs."""
        ...


class ScalarKernel:
    """Reference execution: one traverser per kernel call.

    Kept behind ``EngineConfig.kernel="scalar"`` so the equivalence suites
    can assert the run kernel reproduces it bit for bit.
    """

    def drain(self, worker: "Worker", t: float) -> float:
        """Pop and execute up to ``batch_size`` traversers one at a time."""
        engine = worker.engine
        runtime = worker.runtime
        queue = runtime.queue
        stage_counts = runtime.stage_counts
        cm = engine.cost
        config = engine.config
        metrics = engine.metrics
        trace = engine.trace
        sharers = len(runtime.workers)
        cpu = 0.0

        for _ in range(config.batch_size):
            if not queue:
                break
            trav = queue.popleft()
            runtime.dec_stage_count((trav.query_id, trav.stage))
            session = engine.sessions.get(trav.query_id)
            if session is None:
                # Query already finished/cancelled. A cancelling query's
                # dropped traversers carry progression weight that must be
                # reclaimed, or its stage ledger never closes.
                if engine.delivery.cancelling and (
                    trav.query_id in engine.delivery.cancelling
                ):
                    engine.delivery.reclaim(
                        trav.query_id, trav.stage, trav.weight, 1
                    )
                continue
            ctx = session.context(runtime.pid)
            result = session.machine.execute(
                ctx, trav, session.rng, session.op_steps, session.op_inlined
            )
            if session.machine.inline_links().writes[trav.op_idx]:
                key = (trav.query_id, trav.stage)
                versions = runtime.partial_versions
                versions[key] = versions.get(key, 0) + 1
            cost_us = cm.op_cost_us(result.cost)
            if sharers > 1:
                # Shared-state (non-partitioned) penalty: reduced locality on
                # all compute, plus latches with contention proportional to
                # the threads concurrently hitting this partition.
                busy = 1 + sum(
                    1 for w in runtime.workers if w is not worker and w.scheduled
                )
                cost_us = cost_us * cm.shared_locality_factor
                cost_us += cm.shared_state_penalty_us(result.cost, busy)
            cpu += cost_us
            metrics.steps_executed += 1
            metrics.edges_scanned += result.cost.edges
            metrics.memo_ops += result.cost.memo_ops
            metrics.traversers_spawned += len(result.children)
            session.qmetrics.steps_executed += 1
            op_idx = trav.op_idx
            session.op_steps[op_idx] = session.op_steps.get(op_idx, 0) + 1
            if result.children:
                session.op_spawned[op_idx] = (
                    session.op_spawned.get(op_idx, 0) + len(result.children)
                )
                session.qmetrics.traversers_spawned += len(result.children)

            if trace is not None:
                # Pure observation: by the machine's weight contract,
                # w_in == w_out + w_fin exactly (w_fin is the whole input or
                # the absorbed children's share), which the ledger auditor
                # cross-checks per execution. Snapshot stores additionally
                # report the newest version timestamp they have served, so
                # the auditor can reject a read past the query's pin.
                vh = getattr(ctx.store, "version_high", 0)
                trace.emit(
                    EXEC, trav.query_id, runtime.pid, worker.wid,
                    trav.stage, op_idx, 1, len(result.children),
                    trav.weight, result.finished_weight,
                    normalize_weight(sum(c.weight for c, _ in result.children)),
                    cost_us, vh or ABSENT,
                )

            for child, routed in result.children:
                pid = engine.resolve_target(child, routed)
                if pid == runtime.pid:
                    queue.append(child)
                    key = (child.query_id, child.stage)
                    stage_counts[key] = stage_counts.get(key, 0) + 1
                else:
                    cpu += cm.serialize_us * cm.cpu_scale
                    cpu += worker._buffer_traverser(
                        child, pid, engine.node_of(pid), t + cpu
                    )

            mode = config.progress_mode
            if mode is ProgressMode.NAIVE_CENTRAL:
                # One report per execution: active count delta.
                cpu += worker._buffer_message(
                    Message(
                        MsgKind.PROGRESS,
                        TRACKER_DST,
                        ("delta", trav.query_id, trav.stage,
                         len(result.children) - 1),
                        PROGRESS_MSG_BYTES,
                        trav.query_id,
                    ),
                    engine.home_node(trav.query_id),
                    t + cpu,
                )
            elif result.finished_weight:
                if mode.coalesced:
                    worker._accum(trav.query_id, trav.stage).absorb(
                        result.finished_weight
                    )
                else:
                    cpu += worker._buffer_message(
                        Message(
                            MsgKind.PROGRESS,
                            TRACKER_DST,
                            ("weight", trav.query_id, trav.stage,
                             result.finished_weight),
                            PROGRESS_MSG_BYTES,
                            trav.query_id,
                        ),
                        engine.home_node(trav.query_id),
                        t + cpu,
                    )

        return cpu


class RunKernel:
    """Production execution: drain homogeneous runs, one kernel call each.

    Pops contiguous runs of traversers sharing ``(query_id, op_idx)`` and
    hands each run to one batched ``apply_batch`` call. Locally spawned
    children append to the queue *end*, so run-draining visits traversers
    in exactly the order the scalar kernel would; cost pricing, RNG draws,
    buffer-flush times, and progress reports all replay the scalar
    sequence, making simulated time bit-for-bit identical. The wall-clock
    win comes from amortizing dispatch: one kernel call, one
    session/context lookup, and one metrics update per run instead of per
    traverser. The run machinery lives in
    :class:`~repro.runtime.runs.RunDrain`.
    """

    def drain(self, worker: "Worker", t: float) -> float:
        """Pop and execute up to ``batch_size`` traversers as runs."""
        d = get_drain(worker, t)
        execute_batch = d.execute_batch
        pop_run = d.pop_run
        while (run := pop_run()) is not None:
            execute_batch(run)
        return d.finish()


#: shared stateless kernel instances (one per strategy, not per worker)
SCALAR_KERNEL = ScalarKernel()
RUN_KERNEL = RunKernel()


def kernel_for(config: "EngineConfig") -> ExecutionKernel:
    """The execution kernel ``config.kernel`` names (validated by
    ``EngineConfig.__post_init__`` against :data:`~repro.runtime.config.KERNEL_NAMES`)."""
    return SCALAR_KERNEL if config.kernel == "scalar" else RUN_KERNEL
