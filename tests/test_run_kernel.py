"""Run-kernel dispatch: which runs take which execution body.

The equivalence suites prove every body produces the same simulated bits;
nothing there would notice the *selection* drifting (a specialized body
that is never chosen is still "equivalent"). These tests pin the selection
rule of :class:`~repro.runtime.kernels.RunKernel`: a fused k-hop count run
takes :meth:`RunDrain.fused_count_run` at every width whenever the drain's
``slim_ok`` gate holds, and every other run — Expand and Dedup included —
takes :meth:`RunDrain.execute_batch`. One crafted run is drained directly
so its width is exact.
"""

import pytest

from repro.core.fused import FusedMinDistCount
from repro.core.progress import ProgressMode
from repro.core.steps import DedupOp, ExpandOp
from repro.core.traverser import Traverser
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.runs import RunDrain
from tests.conftest import make_graph

BODIES = ("execute_batch", "fused_count_run")


@pytest.fixture
def entered(monkeypatch):
    """``(body name, run width)`` per run-body entry, in order."""
    calls = []
    for name in BODIES:
        real = getattr(RunDrain, name)

        def spy(d, *args, _real=real, _name=name):
            calls.append((_name, len(args[-1])))
            return _real(d, *args)

        monkeypatch.setattr(RunDrain, name, spy)
    return calls


def _expand_dedup_query():
    return (
        Traversal("q").v_param("s").out("e")
        .filter_(X.prop("weight").gt(5)).values("w", "weight")
        .out("e").dedup().count()
    )


#: per op type, the query whose first op of that type a crafted run targets
QUERIES = {
    ExpandOp: _expand_dedup_query,
    DedupOp: _expand_dedup_query,
    FusedMinDistCount: lambda: (
        Traversal("q").v_param("s").khop("e", k=3).count()
    ),
}


def drain_one_run(op_type, width, *, fuse=False, workers=1, **cfg):
    """Drain exactly one ``width``-wide run of ``op_type`` traversers on a
    one-partition engine; the drain budget equals the width, so the run's
    children stay queued. Each traverser carries distance 1 when the op
    reads one (a k-hop branch at its first hop)."""
    graph = make_graph(3, n=60, degree=4, partitions=1)
    plan = QUERIES[op_type]().compile(graph, fuse=fuse)
    op = next(op for op in plan.ops if type(op) is op_type)
    payload = [None] * plan.payload_width
    if getattr(op, "dist_slot", None) is not None:
        payload[op.dist_slot] = 1
    payload = tuple(payload)
    engine = AsyncPSTMEngine(
        graph, 1, workers, config=EngineConfig(batch_size=width, **cfg)
    )
    session = engine.submit(plan, {"s": 0})  # seeds wait on the clock
    runtime = engine.runtimes[0]
    assert not runtime.queue
    runtime.queue.extend(
        Traverser(session.query_id, v, op.idx, payload, 1 + v, op.stage)
        for v in range(width)
    )
    runtime.stage_counts[(session.query_id, op.stage)] = width
    worker = runtime.workers[0]
    worker.kernel.drain(worker, 0.0)
    assert engine.metrics.steps_executed == width


class TestWidthAndShape:
    @pytest.mark.parametrize("width", [1, 7, 8, 32])
    def test_fused_count_takes_its_body_at_every_width(self, entered, width):
        drain_one_run(FusedMinDistCount, width, fuse=True)
        assert entered == [("fused_count_run", width)]

    @pytest.mark.parametrize("width", [1, 7, 8, 32])
    @pytest.mark.parametrize("op_type", [ExpandOp, DedupOp])
    def test_expand_and_dedup_take_execute_batch(self, entered, op_type, width):
        drain_one_run(op_type, width)
        assert entered == [("execute_batch", width)]

    @pytest.mark.parametrize("op_type, fuse", [
        (ExpandOp, False), (FusedMinDistCount, True),
    ])
    @pytest.mark.parametrize("cfg", [
        dict(trace=True),
        dict(partitioned_state=False, workers=2),
        dict(progress_mode=ProgressMode.WEIGHTED_IMMEDIATE),
        dict(progress_mode=ProgressMode.NAIVE_CENTRAL),
    ], ids=["trace", "shared-state", "immediate", "naive"])
    def test_no_fast_path_outside_the_slim_gate(
        self, entered, cfg, op_type, fuse
    ):
        """Trace events, shared-state penalties and per-execution progress
        reports need the reference body's per-element structure."""
        drain_one_run(op_type, 32, fuse=fuse, **cfg)
        assert entered == [("execute_batch", 32)]
