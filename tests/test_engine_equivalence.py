"""Property-based cross-engine equivalence.

The core guarantee of the reproduction: the async PSTM engine, the BSP
engine, every baseline variant, and the reference executor run the *same*
compiled plans and must return byte-identical result rows on arbitrary
graphs and queries — execution model changes cost, never answers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.machine as machine_mod
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.bsp import BSPEngine
from repro.runtime.cluster import ClusterConfig
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.reference import LocalExecutor
from repro.core.progress import ProgressMode
from tests.conftest import KERNELS
from tests.test_fuzz_queries import _build_chain
from tests.test_fuzz_queries import make_graph as fuzz_graph

CLUSTER = ClusterConfig(nodes=2, workers_per_node=2)
P = CLUSTER.num_partitions


def make_graph(seed: int, n: int = 40, degree: int = 3) -> PartitionedGraph:
    rng = random.Random(seed)
    b = GraphBuilder("v")
    for v in range(n):
        b.vertex(v, "v", weight=rng.randint(1, 50))
    for v in range(n):
        for _ in range(degree):
            u = rng.randrange(n)
            if u != v:
                b.edge(v, u, "e")
    return PartitionedGraph.from_graph(b.build(), P)


QUERY_BUILDERS = [
    lambda: (Traversal("q0").v_param("s").out("e").as_("v").select("v")),
    lambda: (Traversal("q1").v_param("s").out("e").out("e").dedup()
             .as_("v").select("v")),
    lambda: (Traversal("q2").v_param("s").khop("e", k=3)
             .values("w", "weight").as_("v").select("v", "w")
             .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"))
             .limit(5)),
    lambda: (Traversal("q3").v_param("s").khop("e", k=2).count()),
    lambda: (Traversal("q4").v_param("s").out("e").values("w", "weight")
             .sum_("w")),
    lambda: (Traversal("q5").v_param("s").out("e").both("e").dedup()
             .group_count()),
    lambda: (Traversal("q6").v_param("s").union(
        lambda b: b.out("e"), lambda b: b.in_("e")).dedup()
        .as_("v").select("v")),
    lambda: (Traversal("q7").v_param("s")
             .khop("e", k=4, dist_binding="d", emit="improving")
             .filter_(X.vertex().neq(X.param("s"))).min_("d")),
    lambda: (Traversal("q8").v_param("s").out("e").as_("v").group_count("v")
             .filter_(X.binding("count").ge(1)).select("key", "count")),
]


def normalized(rows, query_index):
    """Order-insensitive comparison for queries without a defined order."""
    if query_index in (2,):  # explicitly ordered
        return rows
    return sorted(rows, key=repr)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=40, deadline=None)
def test_async_engine_matches_reference(seed, query_index, start):
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": start})
    engine = AsyncPSTMEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    got = engine.run(plan, {"s": start}).rows
    assert normalized(got, query_index) == normalized(expected, query_index)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=25, deadline=None)
def test_bsp_engine_matches_reference(seed, query_index, start):
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": start})
    engine = BSPEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    got = engine.run(plan, {"s": start}).rows
    assert normalized(got, query_index) == normalized(expected, query_index)


@pytest.mark.parametrize("mode", list(ProgressMode))
@pytest.mark.parametrize("query_index", range(len(QUERY_BUILDERS)))
def test_every_query_under_every_progress_mode(mode, query_index):
    graph = make_graph(777)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    expected = LocalExecutor(graph).run(plan, {"s": 11})
    engine = AsyncPSTMEngine(
        graph, CLUSTER.nodes, CLUSTER.workers_per_node,
        config=EngineConfig(progress_mode=mode),
    )
    got = engine.run(plan, {"s": 11}).rows
    assert normalized(got, query_index) == normalized(expected, query_index)


# -- kernels and inlined links -------------------------------------------------
#
# The second equivalence axis: on the SAME compiled plan, the run kernel
# must reproduce not just the scalar oracle's rows but the exact simulated
# latency — bit for bit, float for float. Running links inside the step
# that emits their input (``repro.core.machine.InlineLinks``) fuses them
# into that step; the reference with every link dispatched (``_link``
# disabled) only owes the same result rows (its simulated timings differ
# by design — that is the win).


def without_inlining(mp):
    """Force every machine built from now on to dispatch every link."""
    mp.setattr(machine_mod, "_link", lambda *args: None)


def _run_kernel(graph, plan, start, kernel, fault_plan=None):
    engine = AsyncPSTMEngine(
        graph, CLUSTER.nodes, CLUSTER.workers_per_node,
        config=EngineConfig(kernel=kernel, fault_plan=fault_plan),
    )
    result = engine.run(plan, {"s": start})
    return result.rows, result.latency_us


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
    inline=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_kernels_bit_identical(seed, query_index, start, inline):
    """scalar == run on rows AND exact simulated latency, with links
    inlined and with every link dispatched, for every fixed-shape query."""
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    with pytest.MonkeyPatch.context() as mp:
        if not inline:
            without_inlining(mp)
        reference = _run_kernel(graph, plan, start, "scalar")
        assert _run_kernel(graph, plan, start, "run") == reference


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    query_index=st.integers(min_value=0, max_value=len(QUERY_BUILDERS) - 1),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=25, deadline=None)
def test_fused_plan_rows_match_unfused(seed, query_index, start):
    """Rows with links fused into their emitting steps equal the rows of
    the reference that dispatches every link, on both kernels."""
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[query_index]().compile(graph)
    got = {k: _run_kernel(graph, plan, start, k)[0] for k in KERNELS}
    with pytest.MonkeyPatch.context() as mp:
        without_inlining(mp)
        expected, _ = _run_kernel(graph, plan, start, "run")
    for kernel in KERNELS:
        assert (normalized(got[kernel], query_index)
                == normalized(expected, query_index))


@pytest.mark.parametrize("fault_seed", [1, 7, 23])
@pytest.mark.parametrize("inline", [False, True])
def test_kernels_bit_identical_under_faults(fault_seed, inline, monkeypatch):
    """A seeded fault plan (drops, dups, delays) arms the ack/retransmit
    layer; the kernels must still agree bit for bit, with links inlined
    and with every link dispatched."""
    if not inline:
        without_inlining(monkeypatch)
    graph = make_graph(99)
    plan = QUERY_BUILDERS[2]().compile(graph)
    fault = FaultPlan(
        seed=fault_seed, drop_rate=0.15, dup_rate=0.1, delay_rate=0.1
    )
    reference = _run_kernel(graph, plan, 11, "scalar", fault)
    assert _run_kernel(graph, plan, 11, "run", fault) == reference


# -- CollectAgg's declared-total-order heap skip ------------------------------


def _topn_query(unique: bool) -> Traversal:
    # dedup() makes the vertex binding unique per row, so (w desc, v asc)
    # really is a total order and the unique declaration is truthful. Two
    # hops typically reach a dozen or more rows, so partition-local
    # partials outgrow the limit and the heap skip runs.
    return (
        Traversal("topn").v_param("s").both("e").both("e").dedup()
        .values("w", "weight").as_("v").select("v", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"),
                  unique=unique)
        .limit(3)
    )


@given(
    seed=st.integers(min_value=0, max_value=2_000),
    start=st.integers(min_value=0, max_value=39),
)
@settings(max_examples=20, deadline=None)
def test_collect_pushdown_rows_exact(seed, start):
    """The bounded partition-local top-N partial: with the sort key
    declared a total order (``unique=True``), ``CollectAgg`` skips the
    heap for rows below the cutoff, and must still return exactly the
    rows, in order, of the undeclared plan — on both kernels."""
    graph = make_graph(seed)
    plain = _topn_query(False).compile(graph)
    declared = _topn_query(True).compile(graph)
    for kernel in ("run", "scalar"):
        rows_plain, _ = _run_kernel(graph, plain, start, kernel)
        rows_declared, _ = _run_kernel(graph, declared, start, kernel)
        assert rows_declared == rows_plain


# -- the ignored ``fuse`` keyword ----------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=50),
    steps=st.lists(st.integers(min_value=0, max_value=63),
                   min_size=1, max_size=4),
    terminal=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_fusion_emits_only_the_khop_fused_ops(seed, steps, terminal):
    """Over the fuzz grammar's chains, ``compile(fuse=True)`` emits the
    plan ``compile()`` emits, op for op: there is no fusion pass left to
    rewrite a k-hop branch (or anything else)."""
    graph = fuzz_graph(seed)
    t = _build_chain(steps, terminal)
    plain = [(type(op), op.name) for op in t.compile(graph).ops]
    fused = [(type(op), op.name) for op in t.compile(graph, fuse=True).ops]
    assert fused == plain


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=15, deadline=None)
def test_weight_invariant_holds_for_every_completed_query(seed):
    """After completion, the tracker's ledgers are all terminated and the
    engine holds no active sessions or stray memo state."""
    graph = make_graph(seed)
    plan = QUERY_BUILDERS[2]().compile(graph)
    engine = AsyncPSTMEngine(graph, CLUSTER.nodes, CLUSTER.workers_per_node)
    engine.run(plan, {"s": seed % 40})
    assert not engine.sessions
    for runtime in engine.runtimes:
        assert runtime.memo_store.active_queries() == []
        assert not runtime.queue
