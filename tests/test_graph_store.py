"""The columnar edge store against a brute-force oracle.

``PropertyGraph`` keeps every edge as a row of one ``EdgeTable`` and
``PartitionedGraph`` counting-sorts each partition's CSRs from it. Every
read is checked against a scan of the generated edge list, in order:

* the graph: ``edge``, ``edges(label)``, ``out_edges``/``in_edges``,
  ``neighbors``/``degree`` in all three directions, ``edge_count`` and
  ``set_edge_property``;
* each partition: the CSR targets and eids per local source (insertion
  order), the ``_csr`` key order (out-labels by first appearance, then
  in-labels), ``edge_record`` present exactly where the source or
  destination is local, and ``edge_property`` for every held edge;

then again after a ``set_edge_property``. The footprint tests hold
``nbytes`` to ``tracemalloc`` and guard bytes and GC-tracked objects per
edge.
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.errors import EdgeNotFoundError, GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.graph.property_graph import BOTH, IN, OUT, Edge, PropertyGraph

LABELS = ("a", "b", "c")
#: sparse, unsorted ids, some past the interpreter's small-int cache
VIDS = (12, 0, 300, 5, 70_000, 257, 3, 4_096)
PARTS = 3

edge_specs = st.tuples(
    st.sampled_from(VIDS),
    st.sampled_from(VIDS),
    st.sampled_from(LABELS),
    st.one_of(st.none(), st.integers(250, 280), st.integers(250, 280)),  # eid
    st.one_of(st.just({}), st.fixed_dictionaries({"w": st.integers(-3, 999)})),
)


@st.composite
def graph_specs(draw):
    edges = draw(st.lists(edge_specs, max_size=30))
    extra = draw(st.lists(st.sampled_from(VIDS), min_size=1, max_size=3))
    vids = sorted({v for e in edges for v in e[:2]} | set(extra))
    early = draw(st.sets(st.sampled_from(vids)))
    late = draw(st.sets(st.sampled_from(vids))) - early
    return {"edges": edges, "vids": vids, "early": early, "late": late,
            "builder": draw(st.booleans())}


def build(spec):
    """The graph, its oracle — ``(eid, src, dst, label, props)`` rows in
    insertion order — and its vertex ids."""
    graph, oracle = _build(spec)
    return graph, oracle, sorted(graph.vertices())


def _build(spec):
    if spec["builder"]:
        # Auto eids; some endpoints declared before the edges, some after,
        # the rest never (they get the default label).
        b = GraphBuilder("implicit")
        for v in sorted(spec["early"]):
            b.vertex(v, "early", tag=v)
        for src, dst, label, _eid, props in spec["edges"]:
            b.edge(src, dst, label, **props)
        for v in sorted(spec["late"]):
            b.vertex(v, "late")
        graph = b.build()
        for v in {v for e in spec["edges"] for v in e[:2]}:
            expected = ("early" if v in spec["early"] else
                        "late" if v in spec["late"] else "implicit")
            assert graph.vertex_label(v) == expected
        oracle = [(i, s, d, lab, dict(p))
                  for i, (s, d, lab, _e, p) in enumerate(spec["edges"])]
        return graph, oracle
    graph = PropertyGraph()
    for v in spec["vids"]:
        graph.add_vertex(v, "v")
    oracle, next_eid = [], 0
    for src, dst, label, eid, props in spec["edges"]:
        if eid is not None and eid in {row[0] for row in oracle}:
            with pytest.raises(GraphError):
                graph.add_edge(src, dst, label, eid=eid, **props)
            continue
        added = graph.add_edge(src, dst, label, eid=eid, **props)
        eid = next_eid if eid is None else eid
        next_eid = max(next_eid, eid + 1)
        assert added == Edge(eid, src, dst, label, props)
        oracle.append((eid, src, dst, label, dict(props)))
    return graph, oracle


def as_edges(rows):
    return [Edge(*row) for row in rows]


def check_graph(graph, oracle, vids):
    assert graph.edge_count == len(oracle)
    assert list(graph.edges()) == as_edges(oracle)
    for label in LABELS + ("absent",):
        assert list(graph.edges(label)) == as_edges(r for r in oracle if r[3] == label)
    for row in oracle:
        assert graph.has_edge(row[0])
        assert graph.edge(row[0]) == Edge(*row)
    missing = max((r[0] for r in oracle), default=-1) + 1
    assert not graph.has_edge(missing) and not graph.has_edge(-1)
    with pytest.raises(EdgeNotFoundError):
        graph.edge(missing)
    for v in vids:
        for label in (None,) + LABELS:
            match = [r for r in oracle if label in (None, r[3])]
            outs = as_edges(r for r in match if r[1] == v)
            ins = as_edges(r for r in match if r[2] == v)
            assert graph.out_edges(v, label) == outs
            assert graph.in_edges(v, label) == ins
            nbrs = {OUT: [e.dst for e in outs], IN: [e.src for e in ins]}
            nbrs[BOTH] = nbrs[OUT] + nbrs[IN]
            for direction, expected in nbrs.items():
                assert graph.neighbors(v, direction, label) == expected
                assert graph.degree(v, direction, label) == len(expected)


def check_partitions(pg, oracle):
    """Every store lists its slices in insertion order."""
    placement = pg.partitioner
    missing = max((r[0] for r in oracle), default=-1) + 1
    for store in pg.stores:
        pid = store.pid
        assert set(store.local_vertices()) == {
            v for v in pg._vertex_labels if placement(v) == pid}
        outs = [r for r in oracle if placement(r[1]) == pid]
        ins = [r for r in oracle if placement(r[2]) == pid]
        keys = [(OUT, r[3]) for r in outs] + [(IN, r[3]) for r in ins]
        assert list(store._csr) == list(dict.fromkeys(keys))
        for direction, label in store._csr:
            csr = store.adjacency(direction, label)
            end, other = (1, 2) if direction == OUT else (2, 1)
            assert csr.num_sources == store.vertex_count
            for i, v in enumerate(store.local_vertices()):
                assert csr.edges(i) == [
                    (r[other], r[0]) for r in oracle if r[3] == label and r[end] == v]
        for row in oracle:
            held = pid in (placement(row[1]), placement(row[2]))
            assert store.edge_record(row[0]) == (Edge(*row) if held else None)
            if held:
                assert store.edge_property(row[0], "w") == row[4].get("w")
        assert store.edge_record(missing) is None
        assert store.edge_property(missing, "w") is None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=graph_specs(), data=st.data())
def test_store_matches_oracle(spec, data):
    graph, oracle, vids = build(spec)
    check_graph(graph, oracle, vids)
    pg = PartitionedGraph.from_graph(graph, PARTS)
    check_partitions(pg, oracle)

    if oracle:
        k = data.draw(st.integers(0, len(oracle) - 1))
        eid, src, dst, label, props = oracle[k]
        before = graph.edge(eid)
        graph.set_edge_property(eid, "w", 1_000_000 + k)
        graph.set_edge_property(eid, "x", "set")
        oracle[k] = (eid, src, dst, label, {**props, "w": 1_000_000 + k, "x": "set"})
        assert before.properties == props  # edges read earlier are values
        check_graph(graph, oracle, vids)
        check_partitions(pg, oracle)


# -- footprint ---------------------------------------------------------------

#: a power-law graph of 29 971 edges, partitioned like the spine's cluster
GUARD_GRAPH = PowerLawConfig("guard", 2_500, 12.0, gamma=2.45)
GUARD_PARTITIONS = 16
#: tracemalloc bytes retained per edge on GUARD_GRAPH when the columnar
#: store landed (51.4 raw, 40.9 partitioned; Python 3.11), plus 15 %. The
#: per-edge-object store before it retained 393 B (raw) + 120 B
#: (partitioned) per edge on the spine's k-hop graph, 380 + 120 on this one.
RAW_GUARD_BYTES = 1.15 * 51.4
PARTITIONED_GUARD_BYTES = 1.15 * 40.9


def _retained(build_it):
    """``build_it()`` and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        value = build_it()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("eid_step", [None, 2])
def test_property_graph_nbytes_tracks_tracemalloc(eid_step):
    """Dense auto eids, and explicit non-dense ones (the eid map)."""
    rng = random.Random(5)
    graph = PropertyGraph()
    for v in range(2_000):
        graph.add_vertex(v)
    ends = [(rng.randrange(2_000), rng.randrange(2_000)) for _ in range(20_000)]
    empty = graph.nbytes

    def add_edges():
        for i, (src, dst) in enumerate(ends):
            props = {"w": 1_000 + i} if i % 10 == 0 else {}
            eid = None if eid_step is None else eid_step * i
            graph.add_edge(src, dst, "ab"[i % 2], eid=eid, **props)
        graph.out_neighbors(0)
        graph.in_neighbors(0)

    _none, used = _retained(add_edges)
    assert graph.nbytes - empty == pytest.approx(used, rel=0.1)


def test_partitioned_graph_nbytes_tracks_tracemalloc():
    graph = powerlaw_graph(GUARD_GRAPH, seed=13)
    pg, used = _retained(lambda: PartitionedGraph.from_graph(graph, GUARD_PARTITIONS))
    assert pg.nbytes == pytest.approx(used, rel=0.1)


def test_bytes_and_objects_per_edge_stay_under_the_guard():
    gc.collect()
    objects = len(gc.get_objects())
    graph, raw = _retained(lambda: powerlaw_graph(GUARD_GRAPH, seed=13))
    pg, partitioned = _retained(
        lambda: PartitionedGraph.from_graph(graph, GUARD_PARTITIONS))
    edges = graph.edge_count
    gc.collect()
    added = len(gc.get_objects()) - objects
    print(f"raw {raw / edges:.1f} B/edge, partitioned {partitioned / edges:.1f}"
          f" B/edge, {added} GC-tracked objects for {edges} edges")
    assert edges >= 20_000
    assert raw / edges <= RAW_GUARD_BYTES
    assert partitioned / edges <= PARTITIONED_GUARD_BYTES
    assert added / edges < 0.01
    assert pg.edge_count == edges
