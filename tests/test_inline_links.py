"""Links run inside the step that emits their input
(:class:`repro.core.machine.InlineLinks`): location-free Filter/Project
links and absorption into an order-free aggregate after any op, and
vertex-preserving links (vertex-reading Filter/Project, a privately fed
vertex-keyed Dedup, absorption into any other aggregate) after a
vertex-routed op that keeps its vertex.

Pinned here:

1. **exactness** — rows are the same with the inline table forced empty,
   on fuzz-grammar plans, every IC/IS plan and the k-hop plans, on the run
   and scalar kernels of the async engine and on BSP; and the run kernel
   still reproduces the scalar kernel bit for bit with inlining on;
2. **purity** — every link that runs inline, in every LDBC IC/IS plan
   and the k-hop plans, evaluates against a context that serves it only
   what it has a right to: a location-free chain sees a store and memo
   that raise on any access, a vertex-preserving chain a store that
   raises on any vertex the partition does not own and a memo that raises
   on any label but its links' own; and the shapes that must not inline
   (a Dedup fed by two ops, a count under ``barrier_route``, a
   vertex-routed link after a free op under BSP's ``stay_local``, a Sum
   or an arrival-ordered Collect after an Expand) do not;
3. **pricing** — an inlined link adds only its props or memo op to the
   emitting step's cost, to the exact float, and no dispatch cost;
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
from repro.core.machine import (
    ABSORB,
    DEDUP,
    FILTER,
    PROJECT,
    InlineLinks,
    PSTMMachine,
)
from repro.core.steps import (
    CountAgg,
    DedupOp,
    ExpandOp,
    FilterOp,
    ForkOp,
    MinDistBranchOp,
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
from repro.runtime.reference import LocalExecutor
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
    """The spine's two k-hop plans (the paper's Fig 1 and a 3-hop count)."""
    fig1 = (
        Traversal("fig1").v_param("start").khop("knows", k=3)
        .filter_(X.vertex().neq(X.param("start")))
        .values("w", "weight").as_("vid").select("vid", "w")
        .order_by((X.binding("w"), "desc"), (X.binding("vid"), "asc"))
        .limit(10)
    )
    count = Traversal("count").v_param("start").khop("knows", k=3).count()
    return [t.compile(graph) for t in (fig1, count)]


@pytest.fixture(scope="module")
def khop_graph():
    from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph

    raw = powerlaw_graph(PowerLawConfig("inline-pl", 600, 6.0), seed=5)
    return PartitionedGraph.from_graph(raw, NODES * WPN)


def no_inlining(monkeypatch):
    """Force every plan's inline table empty (machines built afterwards)."""
    monkeypatch.setattr(machine_mod, "_link", lambda *args: None)


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
        local = LocalExecutor(graph).run(plan, params)
        assert canon(runs["run"].rows) == canon(local)
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
        plan = _build_chain(steps, terminal).compile(graph)
        params = {"s": start}
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

    @pytest.mark.parametrize("start", [0, 3, 17])
    def test_khop_rows_equal_without_inlining(self, khop_graph, start,
                                              monkeypatch):
        plans = khop_plans(khop_graph)
        params = {"start": start}
        on = [(async_run(khop_graph, plan, params, "run")[1],
               async_run(khop_graph, plan, params, "scalar")[1],
               BSPEngine(khop_graph, NODES, WPN).run(plan, params).rows)
              for plan in plans]
        for run, scalar, _bsp in on:
            assert (run.rows, run.latency_us) == (scalar.rows,
                                                  scalar.latency_us)
        no_inlining(monkeypatch)
        for plan, (run, scalar, bsp) in zip(plans, on):
            expected = LocalExecutor(khop_graph).run(plan, params)
            for rows in (run.rows, scalar.rows, bsp):
                assert canon(rows) == canon(expected)
            for kernel in KERNELS:
                off = async_run(khop_graph, plan, params, kernel)[1]
                assert canon(off.rows) == canon(expected)
            off_bsp = BSPEngine(khop_graph, NODES, WPN).run(plan, params)
            assert canon(off_bsp.rows) == canon(expected)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_rows_equal_the_dispatched_oracle(self, snb, khop_graph, kernel,
                                              monkeypatch):
        """Every IC/IS plan at three parameter sets and the k-hop plans
        (the top-10 also declared uniquely ordered, so its Collect is
        order-free) against ``LocalExecutor`` with nothing inlined."""
        dataset, graph = snb
        cases = [(graph, qdef.build().compile(graph),
                  qdef.make_params(dataset, random.Random(seed + i)))
                 for qdef, seed in LDBC.values() for i in range(3)]
        unique = (Traversal("top").v_param("start").khop("knows", k=3)
                  .values("w", "weight").as_("vid").select("vid", "w")
                  .order_by((X.binding("w"), "desc"),
                            (X.binding("vid"), "asc"), unique=True)
                  .limit(10)).compile(khop_graph)
        cases += [(khop_graph, plan, {"start": start})
                  for plan in khop_plans(khop_graph) + [unique]
                  for start in (0, 3)]
        got = [async_run(g, plan, params, kernel)[1].rows
               for g, plan, params in cases]
        no_inlining(monkeypatch)
        for rows, (g, plan, params) in zip(got, cases):
            assert canon(rows) == canon(LocalExecutor(g).run(plan, params))


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


class _OwnStore:
    """A partition store that raises on any vertex its partition does not
    own (and on anything but vertex reads)."""

    VERTEX_READS = ("vertex_label", "vertex_properties",
                    "get_vertex_property", "neighbors", "edges", "degree")

    def __init__(self, store) -> None:
        self._store = store
        self.pid = store.pid

    def __getattr__(self, name):
        if name not in self.VERTEX_READS:
            raise AssertionError(f"an inlined link touched store.{name}")
        real = getattr(self._store, name)

        def read(vid, *args, **kwargs):
            assert self._store.owns(vid), (
                f"an inlined link read vertex {vid}, not owned by "
                f"partition {self._store.pid}")
            return real(vid, *args, **kwargs)

        return read


class _OwnMemo:
    """A query memo that raises on any label but the given ones."""

    def __init__(self, memo, labels) -> None:
        self._memo = memo
        self._labels = labels

    def __getattr__(self, name):
        real = getattr(self._memo, name)

        def access(label, *args, **kwargs):
            assert label in self._labels, (
                f"an inlined link touched memo label {label!r}")
            return real(label, *args, **kwargs)

        return access


class _Guarded(StepContext):
    """A step context for vertex-preserving links: the partition's own
    vertices and the links' own memo labels, nothing else."""

    def __init__(self, ctx: StepContext, labels) -> None:
        super().__init__(_OwnStore(ctx.store), _OwnMemo(ctx.memo, labels),
                         ctx.partitioner, ctx.params)


def seal_links(monkeypatch):
    """From now on every inline evaluation sees a context holding only
    what its links may read (:class:`_Sealed` for location-free chains,
    :class:`_Guarded` otherwise); returns the list the number of links
    each evaluation ran goes to, and the set of link kinds that ran."""
    evaluated = []
    kinds = set()
    plans = {}
    real_inline_links = PSTMMachine.inline_links
    real_run = InlineLinks.run

    def inline_links(self):
        inline = real_inline_links(self)
        plans[id(inline)] = (inline, self.plan)
        return inline

    def run(self, ctx, op_idx, spec_rows, costs, op_steps=None,
            op_inlined=None):
        ops = plans[id(self)][1].ops
        links = list(links_of(self.table[op_idx]))
        if all(ops[idx].routing_mode == "free" and kind in (FILTER, PROJECT)
               for idx, kind, _arg in links):
            guarded = _Sealed(ctx)
        else:
            guarded = _Guarded(ctx, {
                arg if kind == DEDUP else ops[idx].memo_label()
                for idx, kind, arg in links if kind in (DEDUP, ABSORB)})
        tally = {}
        out = real_run(self, guarded, op_idx, spec_rows, costs, tally)
        evaluated.append(sum(tally.values()))
        kinds.update(type(ops[idx]) for idx in tally)
        for target in (op_steps, op_inlined):
            if target is not None:
                for idx, n in tally.items():
                    target[idx] = target.get(idx, 0) + n
        return out

    monkeypatch.setattr(PSTMMachine, "inline_links", inline_links)
    monkeypatch.setattr(InlineLinks, "run", run)
    return evaluated, kinds


def links_of(entries):
    """``(op_idx, kind, arg)`` of every link in one op's table entry."""
    for chain in (entries or {}).values():
        for idx, (kind, arg) in zip(chain.idxs, chain.steps):
            yield idx, kind, arg


def inline_table(plan, **policy):
    """The plan's inline table under a machine routing policy (it reads
    the plan and the policy, never the placement)."""
    machine = PSTMMachine(plan, None, **policy)
    return machine, machine.inline_links()


def assert_chains_are_lawful(plan, **policy):
    """Every vertex-reading link, Dedup or order-bound absorption follows
    a vertex-routed emitter that keeps its vertex; every other link is a
    location-free Filter/Project or an order-free absorption."""
    machine, links = inline_table(plan, **policy)
    route = machine.route_info()
    for e, entries in enumerate(links.table):
        for idx, kind, _arg in links_of(entries):
            op = plan.ops[idx]
            if kind in (FILTER, PROJECT) and op.routing_mode == "free":
                continue
            if kind == ABSORB and op.order_free:
                continue
            assert route[e][1] == "vertex" and plan.ops[e].keeps_vertex


class TestPurity:
    def test_ldbc_links_read_no_store(self, snb, monkeypatch):
        dataset, graph = snb
        cases = []
        for qdef, seed in LDBC.values():
            plan = qdef.build().compile(graph)
            assert_chains_are_lawful(plan)
            params = qdef.make_params(dataset, random.Random(seed))
            cases.append((plan, params, async_run(graph, plan, params)[1]))
        evaluated, _kinds = seal_links(monkeypatch)
        for plan, params, expected in cases:
            assert async_run(graph, plan, params)[1].rows == expected.rows
        assert sum(evaluated) > 0

    def test_khop_links_read_no_store(self, khop_graph, monkeypatch):
        evaluated, kinds = seal_links(monkeypatch)
        for plan in khop_plans(khop_graph):
            assert_chains_are_lawful(plan)
            for kernel in KERNELS:
                async_run(khop_graph, plan, {"start": 3}, kernel)
            BSPEngine(khop_graph, NODES, WPN).run(plan, {"start": 3})
        assert sum(evaluated) > 0
        # every link kind ran under its guard
        assert {FilterOp, ProjectOp, DedupOp, CountAgg} <= kinds

    def test_vertex_reading_ops_are_never_inlined(self):
        """...into a step that does not stand at their vertex: the filter
        after an Expand is dispatched (the Expand moves the traverser);
        the projection after that filter runs in the filter's step."""
        graph = make_graph(1)
        plan = (
            Traversal("t").v_param("s").out("e")
            .filter_(X.prop("weight").gt(5))
            .values("w", "weight").as_("v").select("v", "w")
        ).compile(graph)
        _machine, links = inline_table(plan)
        inlined = {idx: e for e, entries in enumerate(links.table)
                   for idx, _kind, _arg in links_of(entries)}
        for op in plan.ops:
            if isinstance(op, (FilterOp, ProjectOp)) and op.needs_vertex:
                if op.idx in inlined:
                    emitter = plan.ops[inlined[op.idx]]
                    assert emitter.keeps_vertex
                    assert emitter.routing_mode == "vertex"
                else:
                    assert type(plan.ops[op.idx - 1]) is ExpandOp
        vertex_filter = next(op for op in plan.ops if type(op) is FilterOp)
        assert vertex_filter.idx not in inlined
        values = plan.ops[vertex_filter.idx + 1]
        assert inlined[values.idx] == vertex_filter.idx


class TestNotInlined:
    def test_dedup_fed_by_two_ops_is_dispatched(self, monkeypatch):
        graph = make_graph(4)
        plan = (
            Traversal("two").v_param("s").out("e")
            .union(lambda b: b.filter_(X.prop("weight").gt(10)),
                   lambda b: b.filter_(X.prop("weight").lt(40)))
            .dedup().count()
        ).compile(graph)
        dedup = next(op for op in plan.ops if type(op) is DedupOp)
        feeders = [op for op in plan.ops if dedup.idx in op.successors()]
        assert len(feeders) == 2
        assert all(type(op) is FilterOp and op.needs_vertex
                   for op in feeders)
        _machine, links = inline_table(plan)
        for op in feeders:
            assert links.table[op.idx] is None
        for kernel in KERNELS:
            engine = AsyncPSTMEngine(graph, NODES, WPN,
                                     config=EngineConfig(kernel=kernel))
            session = engine.submit(plan, {"s": 2})
            engine.clock.run_until_idle()
            assert session.op_steps[dedup.idx] > 0
            assert dedup.idx not in session.op_inlined
            assert session.results == LocalExecutor(graph).run(plan, {"s": 2})
        # the control: the same dedup fed by one filter runs inline
        one = (Traversal("one").v_param("s").out("e")
               .filter_(X.prop("weight").gt(10)).dedup().count()
               ).compile(graph)
        _machine, links = inline_table(one)
        kinds = [kind for entries in links.table
                 for _idx, kind, _arg in links_of(entries)]
        assert kinds.count(DEDUP) == 1

    def test_count_under_barrier_route_is_dispatched(self, khop_graph):
        count = khop_plans(khop_graph)[1]
        _machine, links = inline_table(count)
        assert any(kind == ABSORB for entries in links.table
                   for _idx, kind, _arg in links_of(entries))
        _machine, links = inline_table(count, barrier_route=0)
        assert not any(kind == ABSORB for entries in links.table
                       for _idx, kind, _arg in links_of(entries))
        engine = AsyncPSTMEngine(khop_graph, NODES, WPN,
                                 config=EngineConfig(centralized_agg=True))
        session = engine.submit(count, {"start": 3})
        engine.clock.run_until_idle()
        barrier = count.stages[0].barrier_idx
        assert session.op_steps[barrier] > 0
        assert barrier not in session.op_inlined
        assert session.results == LocalExecutor(khop_graph).run(
            count, {"start": 3})

    def test_order_bound_aggregates_after_an_expand_are_dispatched(self):
        """Straight after an Expand (the child moves to its vertex's
        owner) Count, Min, Max, GroupCount and a uniquely ordered Collect
        absorb; Sum and an arrival-ordered Collect stay dispatched, where
        they see their inputs in the owner's FIFO order."""
        graph = make_graph(1)

        def after_expand(finish):
            return finish(Traversal("agg").v_param("s").values("w", "weight")
                          .out("e").as_("v")).compile(graph)

        def collect(unique):
            return lambda t: (t.select("v", "w").order_by(
                (X.binding("w"), "desc"), unique=unique).limit(3))

        plans = {
            "count": (after_expand(lambda t: t.count()), True),
            "min": (after_expand(lambda t: t.min_("w")), True),
            "max": (after_expand(lambda t: t.max_("w")), True),
            "group": (after_expand(lambda t: t.group_count("w")), True),
            "unique": (after_expand(collect(True)), True),
            "sum": (after_expand(lambda t: t.sum_("w")), False),
            "collect": (after_expand(collect(False)), False),
        }
        for name, (plan, absorbed) in plans.items():
            barrier = plan.stages[0].barrier_idx
            expand = next(op for op in plan.ops if type(op) is ExpandOp)
            _machine, links = inline_table(plan)
            targets = [idx for idx, kind, _arg in links_of(
                links.table[expand.idx]) if kind == ABSORB]
            assert targets == ([barrier] if absorbed else []), name
            expected = canon(LocalExecutor(graph).run(plan, {"s": 2}))
            for kernel in KERNELS:
                rows = async_run(graph, plan, {"s": 2}, kernel)[1].rows
                assert canon(rows) == expected, name

    def test_vertex_link_after_free_op_under_stay_local(self):
        graph = make_graph(6)
        plan = (
            Traversal("free-then-vertex").v_param("s").out("e")
            .filter_(X.vertex().neq(X.param("s")))
            .filter_(X.prop("weight").gt(5)).count()
        ).compile(graph)
        free = next(op for op in plan.ops
                    if type(op) is FilterOp and not op.needs_vertex)
        vertex = plan.ops[free.next_idx]
        assert type(vertex) is FilterOp and vertex.needs_vertex
        for policy in ({}, {"stay_local": True}):
            machine, links = inline_table(plan, **policy)
            assert machine.route_info()[free.idx][1] != "vertex"
            entries = links.table[free.idx] or {}
            assert vertex.idx not in entries
        engine = BSPEngine(graph, NODES, WPN)
        rows = engine.run(plan, {"s": 1}).rows
        machine = engine.pstm._machines[plan]
        assert machine.stay_local
        assert machine.route_info()[free.idx][1] == "local"
        assert vertex.idx not in (machine.inline_links().table[free.idx]
                                  or {})
        assert rows == LocalExecutor(graph).run(plan, {"s": 1})


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
        # Expand: 1 dispatch, 4 edges; inline: 4 filter props + 3 as_
        # props + 3 count memo ops
        expected = cm.cpu_scale * (
            1 * cm.step_base_us + 4 * cm.edge_us + 3 * cm.memo_op_us
            + (4 + 3) * cm.prop_us
        )
        execs = [e for e in engine.trace.events
                 if e.kind == EXEC and e.data["op_idx"] == expand_idx]
        assert len(execs) == 1
        assert execs[0].data["cpu"] == expected
        assert execs[0].data["spawned"] == 0
        # the links executed, inline, without dispatched steps
        count = plan.stages[0].barrier_idx
        assert session.op_steps[filter_op.idx] == 4
        assert session.op_steps[as_op.idx] == 3
        assert session.op_steps[count] == 3
        assert session.op_inlined == {filter_op.idx: 4, as_op.idx: 3,
                                      count: 3}
        # dispatched: source, expand
        assert session.qmetrics.steps_executed == 2
        assert engine.metrics.steps_executed == 2

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_khop_exit_dedup_and_count_priced_exactly(self, kernel):
        """The 1-hop count: the branch's exit child is deduplicated and
        absorbed into the count in the branch's own step, one memo op
        each and no dispatch; only the loop child is built."""
        graph = star_graph()
        plan = (Traversal("exit").v_param("s").khop("e", k=1).count()
                ).compile(graph)
        branch = next(op for op in plan.ops if type(op) is MinDistBranchOp)
        dedup, count = plan.ops[branch.exit_idx], plan.ops[branch.exit_idx + 1]
        assert (type(dedup), type(count)) == (DedupOp, CountAgg)
        engine = AsyncPSTMEngine(graph, 1, 1, config=EngineConfig(
            kernel=kernel, trace=True))
        session = engine.submit(plan, {"s": 0})
        engine.clock.run_until_idle()
        assert session.results == [5]

        cm = CostModel()
        # branch: 1 dispatch, 1 memo op; inline: dedup + count memo ops
        one = cm.cpu_scale * (
            1 * cm.step_base_us + 0 * cm.edge_us + (1 + 2) * cm.memo_op_us
            + 0 * cm.prop_us
        )
        execs = [e.data for e in engine.trace.events
                 if e.kind == EXEC and e.data["op_idx"] == branch.idx]
        # the start vertex (loop child kept), then its four neighbours
        # at k (nothing kept)
        assert execs[0]["cpu"] == one and execs[0]["spawned"] == 1
        assert sum(e["n"] for e in execs) == 5
        assert sum(e["spawned"] for e in execs) == 1
        assert session.op_steps[dedup.idx] == session.op_steps[count.idx] == 5
        # ... and the location-free ``dist = 0`` in the source's step
        assert session.op_inlined == {branch.idx - 1: 1, dedup.idx: 5,
                                      count.idx: 5}
        # dispatched: source, branch x 5, expand
        assert engine.metrics.steps_executed == 7
        assert WeightLedgerAuditor(engine.trace.events).audit().ok

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


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case", ["IC1", "IC9", "fig1", "count"])
def test_traced_runs_audit_clean(snb, khop_graph, case, kernel):
    """The k-hop plans (exit chain in the branch's step, the count
    absorbed beside the loop child) and IC1 / IC9 audit clean too."""
    if case in LDBC:
        dataset, graph = snb
        qdef, seed = LDBC[case]
        plan = qdef.build().compile(graph)
        params = qdef.make_params(dataset, random.Random(seed))
    else:
        graph = khop_graph
        plan = khop_plans(graph)[["fig1", "count"].index(case)]
        params = {"start": 3}
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
