"""The placement plane: the single source of truth for vertex ownership.

The paper (§II-C) fixes vertex placement to a static hash ``H: V → PartId``;
this module generalizes it to a :class:`Placement` — the hash baseline plus
an overridable **relocation table** — so that observed traversal patterns
can move hot vertices between partitions at runtime (docs/PARTITIONING.md).
Every layer that needs a vertex's owner consults a ``Placement``:

* delivery-plane routing and the kernels (via the memoized ``_cache`` dict
  the hot paths read directly),
* memo/key partitioning (:meth:`Placement.key_partition`),
* checkpoint snapshot ownership and the CSR store layer
  (:meth:`~repro.graph.partition.PartitionedGraph.move_vertices`),
* the vector fast paths' bulk owner computation
  (:meth:`Placement.bulk_lookup`).

No call site outside this plane computes a partition from the raw hash —
``tools/check_layering.py`` enforces it.

:class:`~repro.graph.partition.HashPartitioner` (the paper's ``H``) is the
zero-relocation special case and remains the public constructor name.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping

from repro.errors import PartitionError

try:  # pragma: no cover - exercised via the numpy-absent fallback tests
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["Placement", "home_node", "mix64", "stable_key_hash"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: dense relocation lookup tables above this vertex-id bound are not worth
#: the memory; :meth:`Placement.bulk_lookup` falls back to the scalar path
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
    all partitions) but fatal for reproducible traces and relocated memo
    ownership. FNV-1a over a canonical encoding is stable everywhere;
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


if np is not None:
    _U64 = np.uint64
    _M1 = np.uint64(0x9E3779B97F4A7C15)
    _M2 = np.uint64(0xBF58476D1CE4E5B9)
    _M3 = np.uint64(0x94D049BB133111EB)
    _S30 = np.uint64(30)
    _S27 = np.uint64(27)
    _S31 = np.uint64(31)

    def mix64_np(x):
        """Vectorized SplitMix64 finalizer, bit-equal to :func:`mix64`
        (uint64 wraparound matches the scalar path's
        ``& 0xFFFFFFFFFFFFFFFF`` masking)."""
        x = x + _M1
        x = (x ^ (x >> _S30)) * _M2
        x = (x ^ (x >> _S27)) * _M3
        return x ^ (x >> _S31)


class Placement:
    """Vertex → partition: the hash baseline plus a relocation table.

    ``placement(v)`` is the current owner: the relocation override when
    one exists, else the static hash home ``H(v)``. Assignments are
    memoized in ``_cache`` — routing consults the placement several times
    per traverser, and the run kernel reads the dict directly —
    so :meth:`relocate` **writes through** the cache: the dict object's
    identity never changes, which keeps references hoisted by in-flight
    drains correct the instant the table flips.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise PartitionError(f"need at least 1 partition, got {num_partitions}")
        self._n = num_partitions
        self._cache: Dict[int, int] = {}
        self._relocated: Dict[int, int] = {}
        #: bumped on every effective :meth:`relocate` (observability)
        self.version = 0
        #: exclusive upper bound on vertex ids (set by the graph builder);
        #: sizes the dense numpy lookup table under relocation
        self.vertex_bound = 0
        self._np_table = None

    @property
    def num_partitions(self) -> int:
        return self._n

    def __call__(self, vid: int) -> int:
        pid = self._cache.get(vid)
        if pid is None:
            pid = self._relocated.get(vid)
            if pid is None:
                pid = mix64(vid) % self._n
            self._cache[vid] = pid
        return pid

    def home(self, vid: int) -> int:
        """The static hash home ``H(v)``, ignoring relocations."""
        return mix64(vid) % self._n

    def is_relocated(self, vid: int) -> bool:
        """True when the vertex lives away from its hash home."""
        return vid in self._relocated

    def relocations(self) -> Dict[int, int]:
        """A copy of the relocation table (vid → pid overrides)."""
        return dict(self._relocated)

    def relocate(self, moves: Mapping[int, int]) -> Dict[int, int]:
        """Apply placement overrides; returns the moves that took effect.

        No-op moves (vertex already owned by the target) are dropped; a
        move back to the hash home clears the override instead of storing
        it. The memo cache is written through so hot-path readers see the
        flip atomically, and the numpy table is invalidated.

        This only flips the *lookup* — callers that need the stored rows,
        memos, and in-flight traversers to follow must go through
        :meth:`~repro.graph.partition.PartitionedGraph.move_vertices` /
        :class:`~repro.runtime.migrate.Migrator`.
        """
        changed: Dict[int, int] = {}
        for vid, pid in moves.items():
            if not 0 <= pid < self._n:
                raise PartitionError(
                    f"relocation target {pid} out of range for "
                    f"{self._n} partitions"
                )
            if self(vid) != pid:
                changed[vid] = pid
        for vid, pid in changed.items():
            if pid == mix64(vid) % self._n:
                self._relocated.pop(vid, None)
            else:
                self._relocated[vid] = pid
            self._cache[vid] = pid
        if changed:
            self.version += 1
            self._np_table = None
        return changed

    def key_partition(self, key: Hashable) -> int:
        """Partition for an arbitrary hashable routing key (used by
        partitionable steps whose routing key is not a vertex, e.g. group
        and join keys).

        Integer keys are vertex ids by convention (dedup keys, vertex
        group keys), so they follow relocations — memo records and later
        probes must agree on one owner. Strings, bytes, and tuples hash
        through :func:`stable_key_hash` so the owner is identical across
        processes regardless of PYTHONHASHSEED.
        """
        if isinstance(key, int):
            return self(key)
        if isinstance(key, (str, bytes, tuple)):
            return mix64(stable_key_hash(key)) % self._n
        return mix64(hash(key) & _MASK64) % self._n

    # -- bulk lookup (vector fast paths) -------------------------------

    def bulk_lookup(self, vertices):
        """Owners for an int64 numpy array of vertex ids, or ``None``.

        Without relocations this is the pure vectorized hash (bit-equal
        to the scalar path). With relocations a dense pid table sized by
        ``vertex_bound`` is built once and gathered from; when the table
        is not buildable (no numpy, unknown bound, bound too large, or an
        out-of-range override) the caller must fall back to its scalar
        reference path.
        """
        if np is None:
            return None
        if not self._relocated:
            mixed = mix64_np(vertices.astype(np.uint64))
            return (mixed % np.uint64(self._n)).astype(np.int64)
        table = self._np_table
        if table is None:
            table = self._build_table()
            if table is None:
                return None
            self._np_table = table
        return table[vertices]

    def _build_table(self):
        bound = self.vertex_bound
        if bound <= 0 or bound > _MAX_TABLE_BOUND:
            return None
        if any(not 0 <= vid < bound for vid in self._relocated):
            return None
        ids = np.arange(bound, dtype=np.uint64)
        table = (mix64_np(ids) % np.uint64(self._n)).astype(np.int64)
        for vid, pid in self._relocated.items():
            table[vid] = pid
        return table
