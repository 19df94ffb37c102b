"""Run-kernel dispatch: every run takes one execution body.

The equivalence suites prove the run kernel produces the scalar kernel's
simulated bits; nothing there would notice a specialized body creeping
back in beside the production one. These tests pin the rule of
:class:`~repro.runtime.kernels.RunKernel`: every run — Expand, Dedup and
the k-hop branch with its inlined exit chain included, at every width and
under trace, shared state and per-execution progress — takes
:meth:`RunDrain.execute_batch`. One crafted run is drained directly so
its width is exact. A crafted run whose rows have 0, 1 and several
children checks that body's row loop against the scalar oracle directly.
"""

import pytest

from repro.core.progress import ProgressMode
from repro.core.steps import DedupOp, ExpandOp, MinDistBranchOp
from repro.core.traverser import Traverser
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.metrics import MsgKind
from repro.runtime.runs import RunDrain
from tests.conftest import make_graph

BODIES = ("execute_batch",)


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
    MinDistBranchOp: lambda: (
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


#: every shape is drained at these run widths, then at width 32 under each
#: drain-wide config that gives a run per-row side channels (trace events,
#: shared-state penalties, per-execution progress reports)
WIDTHS_AND_CONFIGS = [
    pytest.param(w, {}, id=str(w)) for w in (1, 7, 8, 32)
] + [
    pytest.param(32, cfg, id=name) for name, cfg in {
        "trace": dict(trace=True),
        "shared-state": dict(partitioned_state=False, workers=2),
        "immediate": dict(progress_mode=ProgressMode.WEIGHTED_IMMEDIATE),
        "naive": dict(progress_mode=ProgressMode.NAIVE_CENTRAL),
    }.items()
]


class TestWidthAndShape:
    # ``fuse`` is the ignored compile keyword; the k-hop plan passes it
    # the way the spine benchmark does
    @pytest.mark.parametrize("width, cfg", WIDTHS_AND_CONFIGS)
    def test_khop_branch_takes_execute_batch(self, entered, width, cfg):
        drain_one_run(MinDistBranchOp, width, fuse=True, **cfg)
        assert entered == [("execute_batch", width)]

    @pytest.mark.parametrize("width, cfg", WIDTHS_AND_CONFIGS)
    @pytest.mark.parametrize("op_type", [ExpandOp, DedupOp])
    def test_expand_and_dedup_take_execute_batch(
        self, entered, op_type, width, cfg
    ):
        drain_one_run(op_type, width, **cfg)
        assert entered == [("execute_batch", width)]


#: vertex v of the fan-out graph has v % 4 out-edges
FANOUT_N = 24


def _fanout_graph():
    """Rows with 0, 1 and >= 2 children in one Expand run, on two
    partitions so some children are buffered for the other node."""
    b = GraphBuilder("v")
    for v in range(FANOUT_N):
        b.vertex(v, "v", weight=v)
    for v in range(FANOUT_N):
        for k in range(1, v % 4 + 1):
            b.edge(v, (v + 5 * k) % FANOUT_N, "e")
    return PartitionedGraph.from_graph(b.build(), 2)


def _trav(t):
    return (t.query_id, t.vertex, t.op_idx, t.payload, t.weight, t.stage,
            t.loops)


def _msg(m):
    body = m.payload
    if isinstance(body, list):  # a traverser pack
        body = [_trav(t) for t in body]
    return (m.kind, m.dst_pid, body, m.size_bytes, m.query_id)


def drain_mixed_run(kernel, mode, flush_threshold):
    """Drain one Expand run over partition 0's vertices with ``kernel``;
    return what the drain leaves behind: its CPU µs, the local queue in
    order, the stage counts, the buffered traversers, the buffered
    progress messages and every flush handed to the network, with its
    instant."""
    graph = _fanout_graph()
    plan = _expand_dedup_query().compile(graph)
    op = next(op for op in plan.ops if type(op) is ExpandOp)
    payload = (None,) * plan.payload_width
    vertices = [v for v in range(FANOUT_N) if graph.partition_of(v) == 0]
    assert {v % 4 for v in vertices} == {0, 1, 2, 3}
    engine = AsyncPSTMEngine(graph, 2, 1, config=EngineConfig(
        kernel=kernel, progress_mode=mode, batch_size=len(vertices),
        flush_threshold_bytes=flush_threshold,
    ))
    session = engine.submit(plan, {"s": 0})  # seeds wait on the clock
    sent = []
    engine.network.send = lambda src, dst, msgs, when: sent.append(
        (src, dst, [_msg(m) for m in msgs], when)
    )
    runtime = engine.runtimes[0]
    runtime.queue.extend(
        Traverser(session.query_id, v, op.idx, payload,
                  (v + 1) * 0x9E3779B97F4A7C15 % (1 << 64), op.stage)
        for v in vertices
    )
    runtime.stage_counts[(session.query_id, op.stage)] = len(vertices)
    worker = runtime.workers[0]
    cpu = worker.kernel.drain(worker, 0.0)
    assert engine.metrics.steps_executed == len(vertices)
    return (
        cpu,
        [_trav(t) for t in runtime.queue],
        dict(runtime.stage_counts),
        {nd: [(pid, _trav(c), size) for pid, c, size in rows]
         for nd, rows in worker._trav_buffers.items() if rows},
        {nd: [_msg(m) for m in msgs]
         for nd, msgs in worker._buffers.items() if msgs},
        sent,
    )


class TestRowShapes:
    @pytest.mark.parametrize("mode", [
        ProgressMode.NAIVE_CENTRAL, ProgressMode.WEIGHTED_IMMEDIATE,
    ], ids=["naive", "immediate"])
    @pytest.mark.parametrize("flush_threshold", [8192, 96],
                             ids=["buffered", "flushing"])
    def test_mixed_fanout_run_matches_scalar(self, mode, flush_threshold):
        """One run whose rows have 0, 1 and >= 2 children: the run body
        leaves exactly what the scalar oracle leaves for the same queue,
        and flushes the same messages at the same instants."""
        run = drain_mixed_run("run", mode, flush_threshold)
        cpu, queue, _counts, trav_bufs, msgs, sent = run
        assert cpu > 0 and queue
        if flush_threshold == 8192:
            assert trav_bufs and msgs and not sent
        else:
            kinds = {m[0] for _src, _dst, ms, _when in sent for m in ms}
            assert kinds == {MsgKind.TRAVERSER, MsgKind.PROGRESS}
        assert run == drain_mixed_run("scalar", mode, flush_threshold)
