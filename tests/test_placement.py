"""The placement plane: hashing, relocation, and key routing contracts.

Pinned here (see docs/PARTITIONING.md):

1. **process-independent placement** — ``key_partition`` must agree
   across interpreter runs with different ``PYTHONHASHSEED`` values, or
   a restarted node would route memo keys to the wrong partition;
2. **strict ownership lookup** — ``PartitionedGraph.partition_of``
   raises :class:`VertexNotFoundError` for ids outside the graph
   instead of silently hashing them to a valid partition;
3. **relocation semantics** — ``Placement.relocate`` is the single
   atomic switch of live migration: write-through into the hot-path
   cache (same dict object the workers hoisted), version-bumped,
   no-op-dropping, and range-checked;
4. **vectorized equivalence** — ``bulk_lookup`` agrees with the scalar
   path bit for bit, with and without relocations.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import PartitionError, VertexNotFoundError
from repro.graph.partition import HashPartitioner
from repro.graph.placement import (
    Placement,
    mix64,
    stable_key_hash,
)
from repro.runtime.vector import HAVE_NUMPY
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


def run_with_hashseed(seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", KEY_SNIPPET],
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
        p = Placement(8)
        for key in (0, 5, 17, 1023):
            assert p.key_partition(key) == p(key)
        p.relocate({17: 3})
        assert p.key_partition(17) == 3

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
        # SplitMix64 probes (the paper's H); vector.py and the numpy
        # table path must keep agreeing with these
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


class TestRelocation:
    def test_relocate_overrides_hash_home(self):
        p = Placement(4)
        vid = 11
        home = p.home(vid)
        target = (home + 1) % 4
        changed = p.relocate({vid: target})
        assert changed == {vid: target}
        assert p(vid) == target
        assert p.home(vid) == home          # the hash home is immutable
        assert p.is_relocated(vid)
        assert p.relocations() == {vid: target}

    def test_noop_moves_are_dropped_and_version_tracks_changes(self):
        p = Placement(4)
        v0 = p.version
        assert p.relocate({3: p(3)}) == {}  # already there
        assert p.version == v0              # nothing changed, no bump
        assert p.relocate({3: (p(3) + 1) % 4})
        assert p.version == v0 + 1

    def test_relocate_range_checked(self):
        p = Placement(4)
        with pytest.raises(PartitionError):
            p.relocate({1: 4})
        with pytest.raises(PartitionError):
            p.relocate({1: -1})

    def test_write_through_keeps_hoisted_cache_current(self):
        """The run drain hoists ``partitioner._cache`` (runs.py); a
        relocation must land in that same dict object."""
        p = Placement(4)
        cache = p._cache
        _ = p(21)                            # memoize the hash home
        p.relocate({21: (p.home(21) + 2) % 4})
        assert p._cache is cache             # identity stable across flips
        assert cache[21] == p(21)

    def test_hash_partitioner_is_a_placement(self):
        hp = HashPartitioner(4)
        assert isinstance(hp, Placement)
        assert hp.num_partitions == 4

    def test_rejects_empty_cluster(self):
        with pytest.raises(PartitionError):
            Placement(0)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")
class TestBulkLookup:
    def test_matches_scalar_without_relocations(self):
        import numpy as np

        p = Placement(8)
        vids = np.arange(0, 5000, dtype=np.int64)
        bulk = p.bulk_lookup(vids)
        assert bulk is not None
        assert list(bulk) == [p(int(v)) for v in vids]

    def test_matches_scalar_with_relocations(self):
        import numpy as np

        p = Placement(8)
        p.vertex_bound = 5000
        p.relocate({v: (p.home(v) + 3) % 8 for v in range(0, 5000, 7)})
        vids = np.arange(0, 5000, dtype=np.int64)
        bulk = p.bulk_lookup(vids)
        if bulk is None:  # dense-table path declined: scalar fallback is fine
            pytest.skip("placement declined to build a dense table")
        assert list(bulk) == [p(int(v)) for v in vids]
