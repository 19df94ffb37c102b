"""Scalar/run execution equivalence (the run kernel's core contract).

The run kernel's drain and the operator ``apply_batch`` kernels promise to
be *observationally identical* to the scalar reference loop: same result
rows, bit-for-bit identical simulated latency (the float cost accounting
replays the scalar expression order exactly), the same RNG draw sequence
for weight splits, and the same engine metric counters. These tests drive
both kernels over the fuzz-query grammar and compare everything.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progress import ProgressMode
from repro.core.weight import GROUP_MODULUS, WeightAccumulator
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from tests.test_fuzz_queries import apply_step, apply_terminal, make_graph

NODES = 2
WPN = 2


def _metrics_key(engine):
    m = engine.metrics
    return (
        m.steps_executed,
        m.traversers_spawned,
        m.edges_scanned,
        m.memo_ops,
        m.flushes,
        m.packets_sent,
        m.bytes_sent,
        m.local_deliveries,
        dict(m.messages),
    )


def _run_path(graph, plan, params_list, kernel, **config_kwargs):
    """Run a query sequence on a fresh engine; everything observable."""
    config = EngineConfig(kernel=kernel, **config_kwargs)
    engine = AsyncPSTMEngine(graph, NODES, WPN, config=config)
    outputs = []
    for params in params_list:
        result = engine.run(plan, params)
        outputs.append((result.rows, result.latency_us))
    return outputs, _metrics_key(engine)


def _assert_run_matches_scalar(graph, plan, params_list, **config_kwargs):
    """Rows AND float latency AND metric counters, exactly."""
    scalar = _run_path(graph, plan, params_list, "scalar", **config_kwargs)
    assert _run_path(graph, plan, params_list, "run", **config_kwargs) == scalar


# -- full-engine equivalence over the fuzz grammar ---------------------------


@given(
    graph_seed=st.integers(min_value=0, max_value=40),
    steps=st.lists(
        st.integers(min_value=0, max_value=63), min_size=1, max_size=4
    ),
    terminal=st.integers(min_value=0, max_value=3),
    start=st.integers(min_value=0, max_value=29),
)
@settings(max_examples=40, deadline=None)
def test_fuzzed_chains_bitwise_identical(
    graph_seed, steps, terminal, start
):
    """Rows, exact latency, and metric counters match on random chains."""
    graph = make_graph(graph_seed)
    t = Traversal("fuzz").v_param("s")
    for code in steps:
        t = apply_step(t, code)
    t = apply_terminal(t, terminal)
    plan = t.compile(graph)
    _assert_run_matches_scalar(graph, plan, [{"s": start}])


def test_multi_query_session_identical():
    """Back-to-back queries on one engine: per-query RNGs, stage counts,
    and weight accumulators must replay identically across paths."""
    graph = make_graph(7)
    plan = (
        Traversal("khop")
        .v_param("s")
        .khop("e", k=3)
        .count()
    ).compile(graph)
    params_list = [{"s": s} for s in range(8)]
    _assert_run_matches_scalar(graph, plan, params_list)


@pytest.mark.parametrize("mode", list(ProgressMode))
def test_equivalent_under_every_progress_mode(mode):
    """The naive-delta and uncoalesced-weight report paths also match."""
    graph = make_graph(3)
    plan = (
        Traversal("q").v_param("s").out("e").out("e").dedup().count()
    ).compile(graph)
    params = [{"s": 5}, {"s": 11}]
    _assert_run_matches_scalar(graph, plan, params, progress_mode=mode)


def test_equivalent_with_shared_state_penalty():
    """With non-partitioned state several workers share one runtime, which
    prices every access with the shared-state penalty — the run kernel
    must replay that float path exactly."""
    rng = random.Random(123)
    from repro.graph.builder import GraphBuilder

    b = GraphBuilder("v")
    for v in range(40):
        b.vertex(v, "v", weight=rng.randint(1, 9))
    for v in range(40):
        for _ in range(3):
            u = rng.randrange(40)
            if u != v:
                b.edge(v, u, "e")
    graph = PartitionedGraph.from_graph(b.build(), NODES)  # one per node
    plan = (
        Traversal("q").v_param("s").khop("e", k=2).count()
    ).compile(graph)
    params = [{"s": 1}, {"s": 2}]
    _assert_run_matches_scalar(graph, plan, params, partitioned_state=False)


def test_absorb_many_matches_sequential_absorbs():
    a = WeightAccumulator()
    b = WeightAccumulator()
    weights = [3, GROUP_MODULUS - 1, 17, 0]
    for w in weights:
        a.absorb(w)
    b.absorb_many(sum(w % GROUP_MODULUS for w in weights), len(weights))
    assert a.pending == b.pending
    assert a.pending_count == b.pending_count
    assert a.flush() == b.flush()
