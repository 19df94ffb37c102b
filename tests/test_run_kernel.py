"""Run-kernel dispatch: which runs take which execution path.

The equivalence suites prove every path produces the same simulated bits;
nothing there would notice the *selection* drifting (a fast path that is
never chosen is still "equivalent"). These tests pin the selection rule of
:class:`~repro.runtime.kernels.RunKernel`: an array fast path is entered
only when NumPy imported, the drain's ``slim_ok`` gate holds, and the
run's operator type and width qualify — otherwise the reference batched
body runs. One crafted run is drained directly so its width is exact.
"""

import pytest

from repro.core.fused import FusedMinDistCount
from repro.core.progress import ProgressMode
from repro.core.steps import ExpandOp
from repro.core.traverser import Traverser
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime import kernels
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.vector import HAVE_NUMPY, MIN_VECTOR_RUN
from tests.conftest import make_graph

FAST_PATHS = ("_expand_run", "_dedup_run", "_fused_branch_count_run")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")


@pytest.fixture
def entered(monkeypatch):
    """``(fast path name, run width)`` per fast-path entry, in order."""
    calls = []
    for name in FAST_PATHS:
        real = getattr(kernels, name)

        def spy(d, op, run, _real=real, _name=name):
            calls.append((_name, len(run)))
            return _real(d, op, run)

        monkeypatch.setattr(kernels, name, spy)
    return calls


#: per op type, the query whose first op of that type a crafted run targets
QUERIES = {
    ExpandOp: lambda: (
        Traversal("q").v_param("s").out("e")
        .filter_(X.prop("weight").gt(5)).values("w", "weight")
        .out("e").dedup().count()
    ),
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
    if op.dist_slot is not None:
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
    worker.kernel.drain(worker, 0.0, None)
    assert engine.metrics.steps_executed == width


@needs_numpy
class TestWidthAndShape:
    def test_expand_run_below_min_width_takes_reference_body(self, entered):
        drain_one_run(ExpandOp, MIN_VECTOR_RUN - 1)
        assert entered == []

    def test_expand_run_at_min_width_takes_array_path(self, entered):
        drain_one_run(ExpandOp, MIN_VECTOR_RUN)
        assert entered == [("_expand_run", MIN_VECTOR_RUN)]

    def test_fused_count_below_min_width_takes_reference_body(self, entered):
        drain_one_run(FusedMinDistCount, MIN_VECTOR_RUN - 1, fuse=True)
        assert entered == []

    def test_fused_count_at_min_width_takes_array_path(self, entered):
        drain_one_run(FusedMinDistCount, MIN_VECTOR_RUN, fuse=True)
        assert entered == [("_fused_branch_count_run", MIN_VECTOR_RUN)]

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
        drain_one_run(op_type, 4 * MIN_VECTOR_RUN, fuse=fuse, **cfg)
        assert entered == []


def test_no_fast_path_without_numpy(entered, numpy_masked):
    with numpy_masked():
        drain_one_run(ExpandOp, 4 * MIN_VECTOR_RUN)
        drain_one_run(FusedMinDistCount, 4 * MIN_VECTOR_RUN, fuse=True)
    assert entered == []
