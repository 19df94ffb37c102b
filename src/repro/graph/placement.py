"""The placement plane: the single source of truth for vertex ownership.

The paper (§II-C) fixes vertex placement to a static function
``H: V → PartId``; this module keeps it static but generalizes the hash to
a :class:`Placement` — a home per vertex, fixed for the whole run
(docs/PARTITIONING.md). A partitioned graph's homes come from
:func:`stratified_homes`, which balances degree-weighted load across
partitions; ids outside its table, and a ``Placement`` built without one,
take the SplitMix64 hash.

Every layer that needs a vertex's owner consults a ``Placement``:

* delivery-plane routing and the kernels (via the memoized ``_cache`` dict
  the hot paths read directly),
* memo/key partitioning (:meth:`Placement.key_partition`),
* checkpoint snapshot ownership and the CSR store layer
  (:meth:`~repro.graph.partition.PartitionedGraph.from_graph`).

No call site outside this plane computes a partition from the raw hash —
``tools/check_layering.py`` enforces it.

:class:`~repro.graph.partition.HashPartitioner` (the paper's ``H``) is the
special case with no home table.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from heapq import heapreplace
from typing import Dict, Hashable, Optional, Sequence

from repro.errors import PartitionError

__all__ = ["Placement", "home_node", "mix64", "stable_key_hash",
           "stratified_homes"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: a dense home table above this vertex-id bound is not worth the memory:
#: such a graph keeps the hash
_MAX_TABLE_BOUND = 1 << 22


def mix64(x: int) -> int:
    """SplitMix64 finalizer — a deterministic 64-bit integer hash.

    Python's builtin ``hash`` of small ints is the identity, which makes
    partition assignment depend on raw id patterns; mixing decorrelates it.
    """
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def home_node(query_id: int, nodes: int) -> int:
    """The node whose coordinator lane hosts a query attempt's weight
    ledger, seed dispatch and partial combine (docs/SIMULATION.md).

    Hashed, not ``query_id % nodes``: benchmark streams are periodic (each
    LDBC IC type recurs every 56 queries), so a modulo pins every instance
    of a heavy type to one lane.
    """
    return mix64(query_id) % nodes


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def stable_key_hash(key: Hashable) -> int:
    """A process-independent 64-bit hash for routing keys.

    Python's ``hash`` of str/bytes is randomized per process
    (PYTHONHASHSEED), so routing a group key through it lands on a
    different partition each run — harmless for results (gather merges
    all partitions) but fatal for reproducible traces and memo ownership
    across processes. FNV-1a over a canonical encoding is stable everywhere;
    tuples combine element hashes order-sensitively.
    """
    if isinstance(key, int):
        return key & _MASK64
    if isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, (bytes, bytearray)):
        data = bytes(key)
    elif isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = (h * 0x9E3779B97F4A7C15 + stable_key_hash(item) + 1) & _MASK64
        return h
    else:
        return hash(key) & _MASK64
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def stratified_homes(
    num_partitions: int, vertices: Sequence[int], src: array, dst: array
) -> Optional[array]:
    """Degree-stratified static homes, as a table indexed by vertex id.

    Every vertex weighs its total degree + 1, read off the edge table's
    ``src`` / ``dst`` columns. Vertices are visited in order of
    (−weight, ``mix64(v)``) and each goes to the partition with the least
    weight so far, ties to the lowest pid: greedy longest-first
    scheduling, so the heavy vertices spread first and the light ones
    fill the gaps. The result depends only on the graph, never on the
    process. Ids below the table's end that are not vertices keep their
    hash home. Returns ``None`` (the hash everywhere) when a vertex id is
    negative or beyond the dense-table bound.
    """
    if not vertices:
        return None
    bound = max(vertices) + 1
    if min(vertices) < 0 or bound > _MAX_TABLE_BOUND:
        return None
    n = num_partitions
    degree = Counter(src)
    degree.update(dst)
    # Sorting by the hash, then stably by degree, visits vertices by
    # (−weight, mix64(v)) without a key tuple per vertex.
    ids = sorted(vertices, key=mix64)
    ids.sort(key=degree.__getitem__, reverse=True)
    table = array("q", bytes(8 * bound))
    for v in set(range(bound)).difference(vertices):
        table[v] = mix64(v) % n
    # A heap of load * n + pid: least load first, ties to the lowest pid.
    loads = list(range(n))
    for vid in ids:
        key = loads[0]
        table[vid] = key % n
        heapreplace(loads, key + (degree[vid] + 1) * n)
    return table


class Placement:
    """Vertex → partition: a static home per vertex.

    ``placement(v)`` is ``homes[v]`` for ids inside the home table, the
    hash ``H(v)`` outside it or without one. Assignments are memoized in
    ``_cache`` — routing consults the placement several times per
    traverser, and the run kernel reads the dict directly.
    """

    def __init__(self, num_partitions: int,
                 homes: Optional[array] = None) -> None:
        if num_partitions < 1:
            raise PartitionError(f"need at least 1 partition, got {num_partitions}")
        self._n = num_partitions
        self._cache: Dict[int, int] = {}
        #: static home per vertex id below its length (see
        #: :func:`stratified_homes`); ``None`` = the hash everywhere
        self._homes = homes

    @property
    def num_partitions(self) -> int:
        return self._n

    def __call__(self, vid: int) -> int:
        pid = self._cache.get(vid)
        if pid is None:
            homes = self._homes
            if homes is not None and 0 <= vid < len(homes):
                pid = homes[vid]
            else:
                pid = mix64(vid) % self._n
            self._cache[vid] = pid
        return pid

    @property
    def nbytes(self) -> int:
        """Bytes held by the home table and the placement memo."""
        return sys.getsizeof(self._cache) + (
            0 if self._homes is None else sys.getsizeof(self._homes))

    def key_partition(self, key: Hashable) -> int:
        """Partition for an arbitrary hashable routing key (used by
        partitionable steps whose routing key is not a vertex, e.g. group
        and join keys).

        Integer keys are vertex ids by convention (dedup keys, vertex
        group keys), so they follow vertex placement — memo records and
        the traversers that probe them land on one owner. Strings, bytes,
        and tuples hash through :func:`stable_key_hash` so the owner is
        identical across processes regardless of PYTHONHASHSEED.
        """
        if isinstance(key, int):
            return self(key)
        if isinstance(key, (str, bytes, tuple)):
            return mix64(stable_key_hash(key)) % self._n
        return mix64(hash(key) & _MASK64) % self._n
