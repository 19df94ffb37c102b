"""Location-free Filter/Project links run inside the step that emits their
input (:class:`repro.core.machine.InlineLinks`).

Pinned here:

1. **exactness** — rows are the same with the inline table forced empty,
   on fuzz-grammar plans and every IC/IS plan, on the run and scalar
   kernels of the async engine and on BSP; and the run kernel still
   reproduces the scalar kernel bit for bit with inlining on;
2. **purity** — every link that runs inline, in every LDBC IC/IS plan
   and the k-hop plans (fused and unfused), evaluates against a context
   whose graph store and memo raise on any access;
3. **pricing** — an inlined link adds only its props to the emitting
   step's cost, to the exact float, and no dispatch cost;
4. **ledger** — a traced IC5 run audits clean;
5. **step count** — IC5 dispatches at most 35 % of the steps it
   dispatches with the links un-inlined;
6. **successors** — every child an op emits targets one of the op's
   ``successors()`` (the inline gate and plan validation read them).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.machine as machine_mod
from repro.core.machine import InlineLinks
from repro.core.steps import (
    CountAgg,
    ExpandOp,
    FilterOp,
    ForkOp,
    ProjectOp,
    ScanSource,
    StepContext,
)
from repro.errors import CompilationError
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.query.exprs import X
from repro.query.plan import PhysicalPlan, Stage
from repro.query.traversal import Traversal
from repro.runtime.bsp import BSPEngine
from repro.runtime.costmodel import CostModel
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.trace import EXEC, WeightLedgerAuditor
from tests.conftest import KERNELS
from tests.test_fuzz_queries import _build_chain, make_graph

NODES, WPN = 2, 2


@pytest.fixture(scope="module")
def snb():
    from repro.ldbc.generator import SNB_TINY, generate_snb

    dataset = generate_snb(SNB_TINY)
    return dataset, dataset.partitioned(NODES * WPN)


def ldbc_cases():
    """Every IC and IS plan, one parameter set each."""
    from repro.ldbc.queries.ic import IC_QUERIES
    from repro.ldbc.queries.short import IS_QUERIES

    for family, table in (("IC", IC_QUERIES), ("IS", IS_QUERIES)):
        for number, qdef in sorted(table.items()):
            yield f"{family}{number}", qdef, 100 * number


LDBC = {name: (qdef, seed) for name, qdef, seed in ldbc_cases()}


def khop_plans(graph):
    """The spine's two k-hop plans (the paper's Fig 1 and a 3-hop count),
    unfused and fused."""
    fig1 = (
        Traversal("fig1").v_param("start").khop("knows", k=3)
        .filter_(X.vertex().neq(X.param("start")))
        .values("w", "weight").as_("vid").select("vid", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("vid"), "asc"))
        .limit(10)
    )
    count = Traversal("count").v_param("start").khop("knows", k=3).count()
    return [t.compile(graph, fuse=fuse)
            for t in (fig1, count) for fuse in (False, True)]


@pytest.fixture(scope="module")
def khop_graph():
    from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph

    raw = powerlaw_graph(PowerLawConfig("inline-pl", 600, 6.0), seed=5)
    return PartitionedGraph.from_graph(raw, NODES * WPN)


def no_inlining(monkeypatch):
    """Force every plan's inline table empty (machines built afterwards)."""
    monkeypatch.setattr(machine_mod, "_link", lambda op: None)


def async_run(graph, plan, params, kernel="run", **config):
    engine = AsyncPSTMEngine(graph, NODES, WPN,
                             config=EngineConfig(kernel=kernel, **config))
    return engine, engine.run(plan, params)


def canon(rows):
    return sorted(map(repr, rows))


# -- 1. exactness ----------------------------------------------------------


class TestExactness:
    @pytest.mark.parametrize("case", sorted(LDBC))
    def test_ldbc_rows_equal_without_inlining(self, snb, case, monkeypatch):
        dataset, graph = snb
        qdef, seed = LDBC[case]
        plan = qdef.build().compile(graph)
        params = qdef.make_params(dataset, random.Random(seed))
        runs = {k: async_run(graph, plan, params, k)[1] for k in KERNELS}
        bsp = BSPEngine(graph, NODES, WPN).run(plan, params)
        # run == scalar bit for bit with inlining on
        assert (runs["run"].rows, runs["run"].latency_us) == (
            runs["scalar"].rows, runs["scalar"].latency_us)
        no_inlining(monkeypatch)
        for kernel in KERNELS:
            off = async_run(graph, plan, params, kernel)[1]
            assert canon(off.rows) == canon(runs[kernel].rows)
        off_bsp = BSPEngine(graph, NODES, WPN).run(plan, params)
        assert off_bsp.rows == bsp.rows

    @given(
        graph_seed=st.integers(min_value=0, max_value=50),
        steps=st.lists(st.integers(min_value=0, max_value=63),
                       min_size=1, max_size=4),
        terminal=st.integers(min_value=0, max_value=4),
        start=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzz_rows_equal_without_inlining(
            self, graph_seed, steps, terminal, start):
        graph = make_graph(graph_seed)
        t = _build_chain(steps, terminal)
        params = {"s": start}
        for fuse in (False, True):
            plan = t.compile(graph, fuse=fuse)
            on = {k: async_run(graph, plan, params, k)[1] for k in KERNELS}
            on_bsp = BSPEngine(graph, NODES, WPN).run(plan, params)
            assert (on["run"].rows, on["run"].latency_us) == (
                on["scalar"].rows, on["scalar"].latency_us)
            with pytest.MonkeyPatch.context() as mp:
                no_inlining(mp)
                for kernel in KERNELS:
                    off = async_run(graph, plan, params, kernel)[1]
                    assert canon(off.rows) == canon(on[kernel].rows)
                off_bsp = BSPEngine(graph, NODES, WPN).run(plan, params)
                assert canon(off_bsp.rows) == canon(on_bsp.rows)


# -- 2. purity ---------------------------------------------------------------


class _Sealed:
    """A step context that serves the query parameters and nothing else:
    any graph store, memo or vertex access raises."""

    def __init__(self, ctx: StepContext) -> None:
        self.params = ctx.params
        self.param = ctx.param
        self.pid = ctx.pid
        self.partitioner = ctx.partitioner

    def __getattr__(self, name):
        raise AssertionError(f"an inlined link touched ctx.{name}")


def seal_links(monkeypatch):
    """From now on every inline evaluation sees a sealed context; returns
    the list the number of links each evaluation ran goes to."""
    evaluated = []
    real_run = InlineLinks.run

    def run(self, ctx, spec_rows, costs, op_steps=None, op_inlined=None):
        tally = {}
        out = real_run(self, _Sealed(ctx), spec_rows, costs, tally)
        evaluated.append(sum(tally.values()))
        for target in (op_steps, op_inlined):
            if target is not None:
                for idx, n in tally.items():
                    target[idx] = target.get(idx, 0) + n
        return out

    monkeypatch.setattr(InlineLinks, "run", run)
    return evaluated


def assert_chains_are_free(plan):
    links = InlineLinks(plan.ops)
    for entry in links.chains:
        if entry is None:
            continue
        chain, target = entry
        assert links.chains[target] is None
        for idx, _pred, _assign, _props in chain:
            op = plan.ops[idx]
            assert type(op) in (FilterOp, ProjectOp)
            assert op.routing_mode == "free" and not op.needs_vertex


class TestPurity:
    def test_ldbc_links_read_no_store(self, snb, monkeypatch):
        dataset, graph = snb
        cases = []
        for qdef, seed in LDBC.values():
            plan = qdef.build().compile(graph)
            assert_chains_are_free(plan)
            params = qdef.make_params(dataset, random.Random(seed))
            cases.append((plan, params, async_run(graph, plan, params)[1]))
        evaluated = seal_links(monkeypatch)
        for plan, params, expected in cases:
            assert async_run(graph, plan, params)[1].rows == expected.rows
        assert sum(evaluated) > 0

    def test_khop_links_read_no_store(self, khop_graph, monkeypatch):
        evaluated = seal_links(monkeypatch)
        for plan in khop_plans(khop_graph):
            assert_chains_are_free(plan)
            for kernel in KERNELS:
                async_run(khop_graph, plan, {"start": 3}, kernel)
        assert sum(evaluated) > 0

    def test_vertex_reading_ops_are_never_inlined(self):
        graph = make_graph(1)
        plan = (
            Traversal("t").v_param("s").out("e")
            .filter_(X.prop("weight").gt(5))
            .values("w", "weight").as_("v").select("v", "w")
        ).compile(graph)
        links = InlineLinks(plan.ops)
        inlined = {idx for entry in links.chains if entry
                   for idx, *_rest in entry[0]}
        for op in plan.ops:
            if isinstance(op, (FilterOp, ProjectOp)):
                assert (op.idx in inlined) == (not op.needs_vertex)


# -- 3. pricing ----------------------------------------------------------------


def star_graph():
    """Vertex 0 with four out-neighbours, weights 1..4, on one partition."""
    b = GraphBuilder("v")
    for v in range(5):
        b.vertex(v, "v", weight=v)
    for v in range(1, 5):
        b.edge(0, v, "e")
    return PartitionedGraph.from_graph(b.build(), 1)


class TestPricing:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_expand_filter_as_count_priced_exactly(self, kernel):
        graph = star_graph()
        plan = (
            Traversal("priced").v_param("s").out("e")
            .filter_(X.vertex().neq(X.param("skip")))
            .as_("v").count()
        ).compile(graph)
        expand_idx = next(op.idx for op in plan.ops
                          if isinstance(op, ExpandOp))
        filter_op, as_op = plan.ops[expand_idx + 1], plan.ops[expand_idx + 2]
        assert isinstance(filter_op, FilterOp)
        assert isinstance(as_op, ProjectOp)
        engine = AsyncPSTMEngine(graph, 1, 1, config=EngineConfig(
            kernel=kernel, trace=True))
        session = engine.submit(plan, {"s": 0, "skip": 2})
        engine.clock.run_until_idle()
        assert session.results == [3]

        cm = CostModel()
        # Expand: 1 dispatch, 4 edges; inline: 4 filter props + 3 as_ props
        expected = cm.cpu_scale * (
            1 * cm.step_base_us + 4 * cm.edge_us + 0 * cm.memo_op_us
            + (4 + 3) * cm.prop_us
        )
        execs = [e for e in engine.trace.events
                 if e.kind == EXEC and e.data["op_idx"] == expand_idx]
        assert len(execs) == 1
        assert execs[0].data["cpu"] == expected
        assert execs[0].data["spawned"] == 3
        # the links executed, inline, without dispatched steps
        assert session.op_steps[filter_op.idx] == 4
        assert session.op_steps[as_op.idx] == 3
        assert session.op_inlined == {filter_op.idx: 4, as_op.idx: 3}
        # dispatched: source, expand, three counts
        assert session.qmetrics.steps_executed == 5
        assert engine.metrics.steps_executed == 5

    def test_all_children_filtered_finishes_parent_weight(self):
        graph = star_graph()
        plan = (
            Traversal("none").v_param("s").out("e")
            .filter_(X.vertex().gt(X.param("s")).and_(X.const(False)))
            .as_("v").count()
        ).compile(graph)
        engine = AsyncPSTMEngine(graph, 1, 1,
                                 config=EngineConfig(trace=True))
        result = engine.run(plan, {"s": 0})
        assert result.rows == [0]
        assert WeightLedgerAuditor(engine.trace.events).audit().ok


# -- 4. ledger ---------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_traced_ic5_audits_clean(snb, kernel):
    dataset, graph = snb
    qdef, seed = LDBC["IC5"]
    plan = qdef.build().compile(graph)
    params = qdef.make_params(dataset, random.Random(seed))
    engine, result = async_run(graph, plan, params, kernel, trace=True)
    report = WeightLedgerAuditor(engine.trace.events).audit()
    assert report.ok, report.violations[:3]
    assert result.rows == async_run(graph, plan, params, kernel)[1].rows


# -- 5. step count -------------------------------------------------------------


def test_ic5_dispatches_at_most_35_percent(snb, monkeypatch):
    dataset, graph = snb
    qdef, _seed = LDBC["IC5"]
    plan = qdef.build().compile(graph)
    params = [qdef.make_params(dataset, random.Random(500 + i))
              for i in range(3)]

    def steps():
        total = 0
        for p in params:
            engine, _result = async_run(graph, plan, p)
            total += engine.metrics.steps_executed
        return total

    inlined = steps()
    no_inlining(monkeypatch)
    dispatched_before = steps()
    assert inlined <= 0.35 * dispatched_before


# -- 6. successors -------------------------------------------------------------


def record_targets(plan, seen):
    """Wrap every op's batch kernel to record the op indexes its children
    target."""
    for op in plan.ops:
        real = op.apply_batch

        def apply_batch(ctx, travs, op=op, real=real):
            out = real(ctx, travs)
            for specs in out.children:
                seen.setdefault(op.idx, set()).update(s[1] for s in specs)
            return out

        op.apply_batch = apply_batch


def test_children_target_only_successors(snb, khop_graph):
    dataset, graph = snb
    runs = [(graph, qdef.build().compile(graph),
             qdef.make_params(dataset, random.Random(seed)))
            for qdef, seed in LDBC.values()]
    runs += [(khop_graph, plan, {"start": 3})
             for plan in khop_plans(khop_graph)]
    for g, plan, params in runs:
        seen = {}
        record_targets(plan, seen)
        async_run(g, plan, params)
        assert seen
        for idx, targets in seen.items():
            assert targets <= set(plan.ops[idx].successors()), (
                plan.name, plan.ops[idx].name)


def test_plan_validation_reads_successors():
    def plan_of(ops):
        return PhysicalPlan("p", ops, [Stage(0, [0], len(ops) - 1)], 1)

    scan, fork, count = ScanSource(), ForkOp(), CountAgg()
    scan.next_idx = 1
    with pytest.raises(CompilationError, match="no successor"):
        plan_of([scan, fork, count])  # a fork with no targets
    fork.targets = [2, 2]
    assert plan_of([scan, fork, count]).ops[1].successors() == (2, 2)
    fork.targets = [2, 7]
    with pytest.raises(CompilationError, match="no successor"):
        plan_of([scan, fork, count])  # a target outside the plan
