"""Query fuzzing: random traversal chains, cross-engine agreement.

Hypothesis generates arbitrary step chains from a grammar of composable
steps; every generated query must compile, run on the reference executor,
and produce identical rows on the async engine. This complements the
fixed-shape equivalence suite with open-ended coverage of step
interactions (e.g. dedup after khop after union).
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
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.reference import LocalExecutor

PARTS = 4


def make_graph(seed: int) -> PartitionedGraph:
    rng = random.Random(seed)
    b = GraphBuilder("v")
    n = 30
    for v in range(n):
        b.vertex(v, "v", weight=rng.randint(1, 30))
    for v in range(n):
        for _ in range(3):
            u = rng.randrange(n)
            if u != v:
                b.edge(v, u, rng.choice(["e", "f"]))
    return PartitionedGraph.from_graph(b.build(), PARTS)


# -- step grammar --------------------------------------------------------------

def apply_step(t: Traversal, code: int) -> Traversal:
    """Apply one mid-chain step selected by ``code``."""
    choice = code % 8
    if choice == 0:
        return t.out("e")
    if choice == 1:
        return t.in_("e")
    if choice == 2:
        return t.both("f")
    if choice == 3:
        return t.dedup()
    if choice == 4:
        return t.filter_(X.prop("weight").gt(5))
    if choice == 5:
        return t.khop("e", k=1 + code % 3)
    if choice == 6:
        return t.union(lambda b: b.out("e"), lambda b: b.out("f"))
    return t.filter_(X.vertex().neq(X.param("s")))


def apply_terminal(t: Traversal, code: int) -> Traversal:
    choice = code % 5
    if choice == 0:
        return t.count()
    if choice == 1:
        return t.dedup().group_count()
    if choice == 2:
        return t.values("w", "weight").sum_("w")
    if choice == 3:
        # Ordered + limited collect with a truthfully-declared total
        # order (dedup makes the vertex binding unique per row) — the
        # shape that arms CollectAgg's below-cutoff heap skip.
        return (t.dedup().values("w", "weight").as_("v").select("v", "w")
                .order_by((X.binding("w"), "desc"), (X.binding("v"), "asc"),
                          unique=True)
                .limit(5))
    return t.as_("v").select("v")


@given(
    graph_seed=st.integers(min_value=0, max_value=50),
    steps=st.lists(st.integers(min_value=0, max_value=63),
                   min_size=1, max_size=4),
    terminal=st.integers(min_value=0, max_value=4),
    start=st.integers(min_value=0, max_value=29),
)
@settings(max_examples=60, deadline=None)
def test_random_chains_agree_across_engines(graph_seed, steps, terminal, start):
    graph = make_graph(graph_seed)
    t = Traversal("fuzz").v_param("s")
    for code in steps:
        t = apply_step(t, code)
    t = apply_terminal(t, terminal)
    plan = t.compile(graph)
    params = {"s": start}
    expected = LocalExecutor(graph).run(plan, params)
    engine = AsyncPSTMEngine(graph, 2, 2)
    got = engine.run(plan, params).rows
    assert sorted(map(repr, got)) == sorted(map(repr, expected))


# -- kernels and inlined links -------------------------------------------------


def _build_chain(steps, terminal):
    t = Traversal("fuzz").v_param("s")
    for code in steps:
        t = apply_step(t, code)
    return apply_terminal(t, terminal)


def _run_kernel(graph, plan, start, kernel, fault_plan=None):
    engine = AsyncPSTMEngine(
        graph, 2, 2,
        config=EngineConfig(kernel=kernel, fault_plan=fault_plan),
    )
    result = engine.run(plan, {"s": start})
    return result.rows, result.latency_us


@given(
    graph_seed=st.integers(min_value=0, max_value=50),
    steps=st.lists(st.integers(min_value=0, max_value=63),
                   min_size=1, max_size=4),
    terminal=st.integers(min_value=0, max_value=4),
    start=st.integers(min_value=0, max_value=29),
)
@settings(max_examples=40, deadline=None)
def test_random_chains_kernels_and_fusion_agree(
    graph_seed, steps, terminal, start
):
    """On each generated chain: the run kernel reproduces the scalar rows
    and exact simulated latency, with links fused into their emitting
    steps and with every link dispatched (``_link`` disabled), and the
    fused rows equal the dispatched reference's."""
    graph = make_graph(graph_seed)
    plan = _build_chain(steps, terminal).compile(graph)
    ref_f = _run_kernel(graph, plan, start, "scalar")
    assert _run_kernel(graph, plan, start, "run") == ref_f
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine_mod, "_link", lambda *args: None)
        ref_u = _run_kernel(graph, plan, start, "scalar")
        assert _run_kernel(graph, plan, start, "run") == ref_u
    assert sorted(map(repr, ref_f[0])) == sorted(map(repr, ref_u[0]))


@given(
    graph_seed=st.integers(min_value=0, max_value=20),
    steps=st.lists(st.integers(min_value=0, max_value=63),
                   min_size=1, max_size=3),
    terminal=st.integers(min_value=0, max_value=4),
    start=st.integers(min_value=0, max_value=29),
    fault_seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_random_chains_kernels_agree_under_faults(
    graph_seed, steps, terminal, start, fault_seed
):
    """Same agreement with a seeded fault plan armed: drops, dups, and
    delays exercise the ack/retransmit layer identically per kernel."""
    graph = make_graph(graph_seed)
    plan = _build_chain(steps, terminal).compile(graph)
    fault = FaultPlan(
        seed=fault_seed, drop_rate=0.1, dup_rate=0.1, delay_rate=0.1
    )
    reference = _run_kernel(graph, plan, start, "scalar", fault)
    assert _run_kernel(graph, plan, start, "run", fault) == reference


@given(
    graph_seed=st.integers(min_value=0, max_value=20),
    steps=st.lists(st.integers(min_value=0, max_value=63),
                   min_size=1, max_size=3),
    start=st.integers(min_value=0, max_value=29),
)
@settings(max_examples=30, deadline=None)
def test_random_chains_are_deterministic(graph_seed, steps, start):
    """The same plan over the same engine seed yields identical rows."""
    graph = make_graph(graph_seed)
    t = Traversal("fuzz").v_param("s")
    for code in steps:
        t = apply_step(t, code)
    t = t.as_("v").select("v")
    plan = t.compile(graph)
    first = AsyncPSTMEngine(graph, 2, 2).run(plan, {"s": start}).rows
    second = AsyncPSTMEngine(graph, 2, 2).run(plan, {"s": start}).rows
    assert first == second
