"""The placement plane: hashing, static homes, and key routing contracts.

Pinned here (see docs/PARTITIONING.md):

1. **process-independent placement** — ``key_partition`` must agree
   across interpreter runs with different ``PYTHONHASHSEED`` values, or
   a restarted node would route memo keys to the wrong partition;
2. **strict ownership lookup** — ``PartitionedGraph.partition_of``
   raises :class:`VertexNotFoundError` for ids outside the graph
   instead of silently hashing them to a valid partition;
3. **stratified homes** — ``PartitionedGraph.from_graph`` places each
   vertex by the degree-stratified rule, which depends only on the graph
   and balances Σ(degree + 1) across partitions; the home tables of the
   two spine graphs and of a graph with id holes are frozen by digest.
"""

import hashlib
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import repro
from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.errors import PartitionError, VertexNotFoundError
from repro.graph.builder import GraphBuilder
from repro.graph.partition import HashPartitioner, PartitionedGraph
from repro.graph.placement import (
    Placement,
    mix64,
    stable_key_hash,
    stratified_homes,
)
from repro.ldbc import SNB_SF300_SIM, generate_snb
from tests.conftest import random_graph

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: keys of every supported routed type (ints route like vertices; strings,
#: bytes and tuples take the stable FNV path)
SAMPLE_KEYS = [17, -3, 0, "alice", "", b"bob", ("k", 3), ("a", ("b", 2)),
               "x" * 50, 2 ** 70]

KEY_SNIPPET = (
    "from repro.graph.placement import Placement\n"
    "p = Placement(8)\n"
    "keys = [17, -3, 0, 'alice', '', b'bob', ('k', 3), ('a', ('b', 2)),"
    " 'x' * 50, 2 ** 70]\n"
    "print([p.key_partition(k) for k in keys])\n"
)


HOMES_SNIPPET = (
    "from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph\n"
    "from repro.graph.partition import PartitionedGraph\n"
    "g = powerlaw_graph(PowerLawConfig('h', 600, 8.0, gamma=2.45), seed=3)\n"
    "p = PartitionedGraph.from_graph(g, 8).partitioner\n"
    "print([p(v) for v in range(600)])\n"
)


def run_with_hashseed(seed: int, snippet: str = KEY_SNIPPET) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


class TestKeyPartitionDeterminism:
    def test_stable_across_pythonhashseed(self):
        """The contract a restarted node depends on: key routing may not
        involve the per-process string hash randomization."""
        results = {seed: run_with_hashseed(seed) for seed in (0, 1, 2)}
        assert len(set(results.values())) == 1, results

    def test_int_keys_follow_vertex_placement(self):
        graph = random_graph(n=80, partitions=4, seed=3)
        p = graph.partitioner
        inside = [v for v in range(80) if p(v) != HashPartitioner(4)(v)]
        assert inside  # the stratified homes differ from the hash somewhere
        for key in inside + [0, 79, 80, 1023, 1_007_663, -3]:
            assert p.key_partition(key) == p(key)

    def test_stable_key_hash_distinguishes_tuple_order(self):
        assert stable_key_hash(("a", "b")) != stable_key_hash(("b", "a"))
        assert stable_key_hash("ab") != stable_key_hash(("a", "b"))

    def test_stable_key_hash_str_bytes_and_int(self):
        # fixed values: changing them silently would corrupt persisted
        # checkpoints that partitioned memo keys under the old function
        assert stable_key_hash(5) == 5
        assert stable_key_hash(-1) == (1 << 64) - 1
        assert isinstance(stable_key_hash("alice"), int)
        assert stable_key_hash("alice") == stable_key_hash("alice")
        # a str hashes as its UTF-8 bytes: the wire form routes alike
        assert stable_key_hash(b"alice") == stable_key_hash("alice")

    def test_mix64_matches_reference_values(self):
        # SplitMix64 probes (the paper's H)
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465
        assert 0 <= mix64(2 ** 64 - 1) < (1 << 64)


class TestStrictPartitionOf:
    def test_out_of_range_vertex_raises(self):
        graph = random_graph(n=40, partitions=4, seed=1)
        with pytest.raises(VertexNotFoundError):
            graph.partition_of(40)
        with pytest.raises(VertexNotFoundError):
            graph.partition_of(-7)

    def test_known_vertices_resolve(self):
        graph = random_graph(n=40, partitions=4, seed=1)
        for vid in range(40):
            assert 0 <= graph.partition_of(vid) < 4


class TestPlacement:
    def test_hash_partitioner_is_a_placement(self):
        hp = HashPartitioner(4)
        assert isinstance(hp, Placement)
        assert hp.num_partitions == 4

    def test_rejects_empty_cluster(self):
        with pytest.raises(PartitionError):
            Placement(0)


def reference_homes(graph, n):
    """The placement rule written out plainly: weight = degree + 1, visit
    by (-weight, mix64(v)), each to the least-loaded partition, ties to
    the lowest pid."""
    weight = {v: graph.degree(v, "both") + 1 for v in graph.vertices()}
    loads = [0] * n
    homes = {}
    for v in sorted(weight, key=lambda v: (-weight[v], mix64(v))):
        pid = min(range(n), key=lambda p: (loads[p], p))
        homes[v] = pid
        loads[pid] += weight[v]
    return homes


#: the spine's k-hop graph shape (benchmarks/spine/workloads.py), smaller
SPINE_SHAPE = PowerLawConfig("spine-shape", 2_500, 12.0, gamma=2.45)


def holes_graph():
    """700 vertices scattered over ids below 2 000, so the home table has
    id holes the hash fills."""
    rng = random.Random(11)
    vids = sorted(rng.sample(range(2_000), 700))
    b = GraphBuilder("v")
    for v in vids:
        b.vertex(v, "v")
    for _ in range(3_000):
        b.edge(rng.choice(vids), rng.choice(vids), "e")
    return b.build()


#: the spine's two graphs at full size, and one with id holes
FROZEN_GRAPHS = {
    "snb": lambda: generate_snb(SNB_SF300_SIM).graph,
    "khop": lambda: powerlaw_graph(
        PowerLawConfig("spine-pl", 10_000, 12.0, gamma=2.45), seed=13),
    "holes": holes_graph,
}


class TestStratifiedHomes:
    @pytest.mark.parametrize("seed, n", [(4, 5), (5, 3), (6, 8)])
    def test_rule_matches_the_plain_reference(self, seed, n):
        raw = powerlaw_graph(PowerLawConfig("ref", 300, 6.0, gamma=2.2), seed=seed)
        placement = PartitionedGraph.from_graph(raw, n).partitioner
        expected = reference_homes(raw, n)
        assert {v: placement(v) for v in raw.vertices()} == expected

    def test_hand_worked_example(self):
        """Weights 6 (vertex 5), 3, 3 (0, 2), 2 (1), 1, 1 (3, 4): the hub
        takes partition 0, the two weight-3 vertices fill partition 1 to
        6, vertex 1 breaks the 6-6 tie to partition 0, and the two light
        vertices top partition 1 up to 8. Weighing by degree alone, or by
        degree + 2, homes vertices 1, 3 and 4 differently."""
        b = GraphBuilder("v")
        for v in range(6):
            b.vertex(v, "v")
        for src, dst in [(5, 0), (1, 5), (5, 2), (0, 5), (2, 5)]:
            b.edge(src, dst, "e")
        placement = PartitionedGraph.from_graph(b.build(), 2).partitioner
        assert [placement(v) for v in range(6)] == [1, 0, 1, 1, 1, 0]

    def test_load_imbalance_counts_degree_plus_one(self):
        b = GraphBuilder("v")
        for v in range(3):
            b.vertex(v, "v")
        b.edge(0, 1, "e")
        stratified = PartitionedGraph.from_graph(b.build(), 2)
        # {0, 1} on partition 0 and {2} on 1; the stratified stores hold
        # two vertices and one too, so the sizes agree with the homes
        graph = PartitionedGraph(
            Placement(2, array("q", [0, 0, 1])), stratified.stores,
            stratified.vertex_count, stratified.edge_count,
            stratified.label_counts)
        # loads 2 + 2 and 1: max 4 over mean 2.5
        assert graph.cut_stats()["load_imbalance"] == pytest.approx(1.6)

    @pytest.mark.parametrize("graph, n, digest", [
        ("snb", 16, "9ddd47ee49f72accdfd76c25d6396d823ea2d03311d24bdca16cf651cc677fe7"),
        ("khop", 16, "cabe9145bd903265d6d9206b80110ea7a41ca5d48cd9852a7c203ccb8e8f5e92"),
        ("holes", 7, "a98bafd6abc9b524cc21c08ae7b498c12b201267269fe94bac81c97be2a4b33b"),
    ], ids=["snb", "khop", "holes"])
    def test_home_tables_are_frozen(self, graph, n, digest):
        """SHA-256 of the home table, frozen when the rule had a second
        (array) implementation: any rewrite must place every vertex, and
        hash every id hole below the table's end, exactly as before."""
        raw = FROZEN_GRAPHS[graph]()
        table = raw._edges
        homes = stratified_homes(n, list(raw.vertices()), table.src, table.dst)
        assert hashlib.sha256(homes.tobytes()).hexdigest() == digest

    def test_stable_across_pythonhashseed(self):
        results = {seed: run_with_hashseed(seed, HOMES_SNIPPET) for seed in (0, 1, 2)}
        assert len(set(results.values())) == 1

    def test_depends_only_on_the_graph(self):
        """Vertex and edge insertion order do not move a home."""
        rng = random.Random(2)
        edges = [(rng.randrange(200), rng.randrange(200)) for _ in range(900)]

        def build(vertex_order, edge_order):
            b = GraphBuilder("v")
            for v in vertex_order:
                b.vertex(v, "v")
            for src, dst in edge_order:
                b.edge(src, dst, "e")
            return PartitionedGraph.from_graph(b.build(), 6).partitioner

        forward = build(range(200), edges)
        shuffled_vertices = list(range(200))
        rng.shuffle(shuffled_vertices)
        shuffled_edges = edges[:]
        rng.shuffle(shuffled_edges)
        backward = build(shuffled_vertices, shuffled_edges)
        assert [forward(v) for v in range(200)] == [backward(v) for v in range(200)]

    def test_balances_degree_weighted_load_on_the_spine_shape(self):
        raw = powerlaw_graph(SPINE_SHAPE, seed=13)
        stats = PartitionedGraph.from_graph(raw, 16).cut_stats()
        assert stats["load_imbalance"] <= 1.01
        hashed, hash_home = [0] * 16, HashPartitioner(16)
        for v in raw.vertices():
            hashed[hash_home(v)] += raw.degree(v, "both") + 1
        assert max(hashed) / (sum(hashed) / 16) > 1.05  # the hash does not

    def test_ids_outside_the_table_hash(self):
        graph = random_graph(n=40, partitions=4, seed=1)
        placement = graph.partitioner
        for vid in (40, 1_007_663, -3):
            assert placement(vid) == HashPartitioner(4)(vid)

    def test_nbytes_counts_the_home_table(self):
        graph = random_graph(n=40, partitions=4, seed=1)
        bare = Placement(4)
        assert graph.partitioner.nbytes > bare.nbytes
        assert graph.partitioner.nbytes >= sys.getsizeof(graph.partitioner._homes)
