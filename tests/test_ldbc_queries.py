"""Tests for the LDBC IC/IS query implementations.

Every query must (a) compile, (b) run on the reference executor, (c) return
identical rows on the async and BSP engines, and (d) satisfy per-query
semantic spot checks against the generated data.
"""

import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.ldbc import schema as S
from repro.ldbc.generator import SNB_SF300_SIM, SNB_TINY, generate_snb
from repro.ldbc.queries.ic import IC_QUERIES, build_ic13
from repro.ldbc.queries.short import IS_QUERIES
from repro.query.exprs import X
from repro.query.traversal import Traversal
from repro.runtime.bsp import BSPEngine
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan
from repro.runtime.reference import LocalExecutor

NODES, WPN = 2, 2


@pytest.fixture(scope="module")
def dataset():
    return generate_snb(SNB_TINY)


@pytest.fixture(scope="module")
def graph(dataset):
    return dataset.partitioned(NODES * WPN)


@pytest.fixture(scope="module")
def executor(graph):
    return LocalExecutor(graph)


@pytest.mark.parametrize("number", sorted(IC_QUERIES))
def test_ic_compiles_and_runs(dataset, graph, executor, number):
    qdef = IC_QUERIES[number]
    plan = qdef.build().compile(graph)
    rng = random.Random(100 + number)
    rows = executor.run(plan, qdef.make_params(dataset, rng))
    assert isinstance(rows, list)


@pytest.mark.parametrize("number", sorted(IC_QUERIES))
def test_ic_engines_agree(dataset, graph, number):
    qdef = IC_QUERIES[number]
    rng = random.Random(200 + number)
    params = qdef.make_params(dataset, rng)
    plan = qdef.build().compile(graph)
    expected = LocalExecutor(graph).run(plan, params)
    async_rows = AsyncPSTMEngine(graph, NODES, WPN).run(plan, params).rows
    bsp_rows = BSPEngine(graph, NODES, WPN).run(plan, params).rows
    assert async_rows == expected, qdef.name
    assert bsp_rows == expected, qdef.name


@pytest.mark.parametrize("number", sorted(IS_QUERIES))
def test_is_engines_agree(dataset, graph, number):
    qdef = IS_QUERIES[number]
    rng = random.Random(300 + number)
    params = qdef.make_params(dataset, rng)
    plan = qdef.build().compile(graph)
    expected = LocalExecutor(graph).run(plan, params)
    async_rows = AsyncPSTMEngine(graph, NODES, WPN).run(plan, params).rows
    assert async_rows == expected, qdef.name


def knows_distance(g, src, dst, cap=6):
    """BFS length of the shortest directed `knows` path, None beyond cap."""
    seen = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        if seen[v] >= cap:
            continue
        for u in g.out_neighbors(v, S.KNOWS):
            if u not in seen:
                seen[u] = seen[v] + 1
                q.append(u)
    return seen.get(dst)


class TestICSemantics:
    def run(self, dataset, graph, executor, number, **params):
        qdef = IC_QUERIES[number]
        plan = qdef.build().compile(graph)
        return executor.run(plan, params)

    def test_ic1_finds_only_matching_first_names(self, dataset, graph, executor):
        g = dataset.graph
        person = dataset.persons[0]
        # pick the first name of one of the person's friends
        friend = g.out_neighbors(person, S.KNOWS)[0]
        name = g.get_vertex_property(friend, S.FIRST_NAME)
        rows = self.run(dataset, graph, executor, 1,
                        person=person, firstName=name)
        assert rows, "a direct friend with that name must be found"
        for fid, last_name in rows:
            assert g.get_vertex_property(fid, S.FIRST_NAME) == name
            assert g.get_vertex_property(fid, S.LAST_NAME) == last_name
        # ordered by (lastName, id)
        assert rows == sorted(rows, key=lambda r: (r[1], r[0]))

    def test_ic2_dates_filtered_and_sorted(self, dataset, graph, executor):
        g = dataset.graph
        person = dataset.persons[1]
        rows = self.run(dataset, graph, executor, 2,
                        person=person, maxDate=S.MAX_DATE)
        assert len(rows) <= 20
        dates = [d for _f, _m, d in rows]
        assert dates == sorted(dates, reverse=True)
        friends = set(g.out_neighbors(person, S.KNOWS))
        for friend, message, date in rows:
            assert friend in friends
            assert g.get_vertex_property(message, S.CREATION_DATE) == date

    def test_ic7_likers_are_real(self, dataset, graph, executor):
        g = dataset.graph
        # find a person whose message has at least one like
        for person in dataset.persons:
            messages = g.in_neighbors(person, S.HAS_CREATOR)
            if any(g.in_neighbors(m, S.LIKES) for m in messages):
                break
        rows = self.run(dataset, graph, executor, 7, person=person)
        assert rows
        for liker, _name, message, _date in rows:
            assert liker in g.in_neighbors(message, S.LIKES)
            assert person in g.out_neighbors(message, S.HAS_CREATOR)

    def test_ic13_matches_bfs_distance(self, dataset, graph, executor):
        rng = random.Random(5)
        for _ in range(5):
            p1, p2 = rng.sample(dataset.persons, 2)
            rows = self.run(dataset, graph, executor, 13,
                            person1=p1, person2=p2)
            expected = knows_distance(dataset.graph, p1, p2)
            got = rows[0]
            if expected is None:
                assert got is None  # unreachable within 6 hops
            else:
                assert got == expected

    def test_ic12_counts_match_manual(self, dataset, graph, executor):
        g = dataset.graph
        person = dataset.persons[2]
        tagclass = "Thing"
        rows = self.run(dataset, graph, executor, 12,
                        person=person, tagClassName=tagclass)
        # manual recount
        manual = {}
        for friend in set(g.out_neighbors(person, S.KNOWS)):
            count = 0
            for comment in g.in_neighbors(friend, S.HAS_CREATOR):
                if g.vertex_label(comment) != S.COMMENT:
                    continue
                for parent in g.out_neighbors(comment, S.REPLY_OF):
                    if g.vertex_label(parent) != S.POST:
                        continue
                    for tag in g.out_neighbors(parent, S.HAS_TAG):
                        for tc in g.out_neighbors(tag, S.HAS_TYPE):
                            if g.get_vertex_property(tc, S.NAME) == tagclass:
                                count += 1
            if count:
                manual[friend] = count
        assert dict(rows) == dict(
            sorted(manual.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        )


class TestISSemantics:
    def test_is1_profile(self, dataset, graph, executor):
        g = dataset.graph
        person = dataset.persons[3]
        plan = IS_QUERIES[1].build().compile(graph)
        rows = executor.run(plan, {"person": person})
        assert len(rows) == 1
        first, last, birthday, browser, ip = rows[0]
        assert first == g.get_vertex_property(person, S.FIRST_NAME)
        assert last == g.get_vertex_property(person, S.LAST_NAME)

    def test_is2_limit_and_order(self, dataset, graph, executor):
        person = max(
            dataset.persons,
            key=lambda p: len(dataset.graph.in_neighbors(p, S.HAS_CREATOR)),
        )
        plan = IS_QUERIES[2].build().compile(graph)
        rows = executor.run(plan, {"person": person})
        assert len(rows) <= 10
        dates = [d for _m, d in rows]
        assert dates == sorted(dates, reverse=True)

    def test_is5_creator(self, dataset, graph, executor):
        g = dataset.graph
        message = dataset.posts[0]
        plan = IS_QUERIES[5].build().compile(graph)
        rows = executor.run(plan, {"message": message})
        assert len(rows) == 1
        creator = rows[0][0]
        assert creator in g.out_neighbors(message, S.HAS_CREATOR)

    def test_is6_forum_of_comment(self, dataset, graph, executor):
        g = dataset.graph
        comment = dataset.comments[0]
        plan = IS_QUERIES[6].build().compile(graph)
        rows = executor.run(plan, {"message": comment})
        assert len(rows) == 1
        forum, title, moderator = rows[0]
        assert g.vertex_label(forum) == S.FORUM
        assert moderator in g.out_neighbors(forum, S.HAS_MODERATOR)

    def test_is7_replies(self, dataset, graph, executor):
        g = dataset.graph
        # a post with at least one direct reply
        post = next(p for p in dataset.posts if g.in_neighbors(p, S.REPLY_OF))
        plan = IS_QUERIES[7].build().compile(graph)
        rows = executor.run(plan, {"message": post})
        assert rows
        for reply, _date, author, _name in rows:
            assert post in g.out_neighbors(reply, S.REPLY_OF)
            assert author in g.out_neighbors(reply, S.HAS_CREATOR)


# -- IC13's meet-in-the-middle join against the forward flood ------------------
#
# SNB stores every `knows` edge both ways, so no LDBC workload can tell a
# backward side that follows out-edges from one that follows in-edges.
# These graphs are directed: one-way `knows` edges among a few persons, plus
# a chain hung off one of them so distances 5, 6 and 7 (unreachable) occur.

CHAIN = 8


def forward_ic13() -> Traversal:
    """IC13 as one 6-hop flood from person1: the oracle plan."""
    return (
        Traversal("IC13.forward")
        .v_param("person1")
        .khop(S.KNOWS, k=6, dist_binding="dist", emit="improving")
        .filter_(X.vertex().eq(X.param("person2")))
        .min_("dist")
    )


@st.composite
def directed_knows(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    edges = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda e: e[0] != e[1]),
        max_size=3 * n,
    ))
    hook = draw(st.integers(0, n - 1))
    total = n + CHAIN
    pairs = draw(st.lists(
        st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)),
        min_size=1, max_size=4,
    ))
    # the chain's own distances: 5, 6, 7 (beyond 6), backwards, and zero
    c = n
    pairs += [(c, c + 5), (c, c + 6), (c, c + 7), (c + 5, c), (c + 3, c + 3)]
    return n, sorted(edges), hook, pairs


def _check_ic13_on_directed_graph(case):
    n, edges, hook, pairs = case
    b = GraphBuilder(S.PERSON)
    for v in range(n + CHAIN):
        b.vertex(v, S.PERSON)
    for src, dst in edges:
        b.edge(src, dst, S.KNOWS)
    b.edge(hook, n, S.KNOWS)
    for v in range(n, n + CHAIN - 1):
        b.edge(v, v + 1, S.KNOWS)
    raw = b.build()
    graph = PartitionedGraph.from_graph(raw, NODES * WPN)
    oracle = forward_ic13().compile(graph)
    join = build_ic13().compile(graph)
    local = LocalExecutor(graph)
    engines = {
        "run": AsyncPSTMEngine(graph, NODES, WPN),
        "scalar": AsyncPSTMEngine(graph, NODES, WPN,
                                  config=EngineConfig(kernel="scalar")),
        "bsp": BSPEngine(graph, NODES, WPN),
        # held-back packets reorder arrivals: a side's first distance to a
        # vertex can then be longer than its shortest
        "delayed": AsyncPSTMEngine(graph, NODES, WPN, config=EngineConfig(
            fault_plan=FaultPlan(seed=n, delay_rate=0.3, delay_us=50.0))),
    }
    for p1, p2 in pairs:
        params = {"person1": p1, "person2": p2}
        expected = [knows_distance(raw, p1, p2)]
        assert local.run(oracle, params) == expected, (p1, p2)
        assert local.run(join, params) == expected, (p1, p2)
        for name, engine in engines.items():
            assert engine.run(join, params).rows == expected, (name, p1, p2)


#: Under held-back packets, a join whose sides emit only the first distance
#: reached answers 3 for (6, 10) here, not 2.
FIRST_ARRIVAL_IS_LONGER = (
    12,
    [(0, 3), (0, 6), (0, 7), (0, 8), (1, 6), (1, 9), (2, 1), (2, 9), (2, 11),
     (3, 10), (4, 0), (4, 2), (4, 9), (4, 10), (5, 2), (6, 1), (6, 5), (6, 8),
     (7, 0), (7, 1), (7, 6), (7, 9), (8, 1), (8, 5), (8, 7), (8, 9), (8, 10),
     (9, 1), (9, 3), (9, 5), (9, 10), (11, 3)],
    9,
    [(6, 10)],
)


@given(case=directed_knows())
@example(case=FIRST_ARRIVAL_IS_LONGER)
@settings(max_examples=60, deadline=None)
def test_ic13_join_matches_forward_plan_on_directed_graphs(case):
    _check_ic13_on_directed_graph(case)


@pytest.mark.slow
@given(case=directed_knows())
@settings(max_examples=300, deadline=None)
def test_ic13_join_matches_forward_plan_on_directed_graphs_soak(case):
    _check_ic13_on_directed_graph(case)


def test_ic13_join_runs_in_at_most_half_the_forward_plans_steps():
    """The gain as a count, not a clock: kernel steps repeat exactly."""
    dataset = generate_snb(SNB_SF300_SIM)
    graph = dataset.partitioned(16)
    join, forward = build_ic13().compile(graph), forward_ic13().compile(graph)
    rng = random.Random(13)
    steps = {"join": 0, "forward": 0}
    for _ in range(3):
        params = IC_QUERIES[13].make_params(dataset, rng)
        runs = {}
        for name, plan in (("join", join), ("forward", forward)):
            profile = AsyncPSTMEngine(graph, 4, 4).profile(plan, params)
            runs[name] = profile.rows
            steps[name] += profile.metrics.steps_executed
        assert runs["join"] == runs["forward"], params
    assert steps["join"] <= 0.5 * steps["forward"], steps
