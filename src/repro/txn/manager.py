"""The centralized transaction manager and LCT broadcast (paper §IV-C).

A single timestamp manager assigns commit timestamps to update transactions
and maintains the **last commit timestamp (LCT)** — the watermark below
which every transaction is committed. The LCT is broadcast to all nodes;
read-only queries take any node's cached LCT as their read timestamp
*without consulting the manager*, which keeps the manager off the read path.

Commit timestamps are assigned at commit (not begin) and commits apply in
timestamp order within this single-site manager, so LCT advancement is
simply the latest committed timestamp.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import TransactionAborted, TransactionError
from repro.graph.placement import Placement
from repro.txn.mv2pl import LockMode, LockTable
from repro.txn.transaction import (
    Transaction,
    TxnPartitionState,
    TxnStatus,
    WriteOp,
)


class TransactionManager:
    """Centralized timestamp authority + MV2PL coordinator.

    ``placement`` routes each write to its owning delta partition, and its
    partition count sizes the delta. The runtime's transaction plane passes
    the **graph's** placement, so delta rows and base rows agree on
    ownership; a standalone manager takes a
    :class:`~repro.graph.partition.HashPartitioner`.
    """

    def __init__(self, placement: Placement) -> None:
        self.partitioner = placement
        self.partitions = [
            TxnPartitionState(p) for p in range(placement.num_partitions)
        ]
        self.locks = LockTable()
        self._next_txn_id = 0
        self._next_commit_ts = 1
        self._lct = 0
        # Per-node cached LCT (the broadcast targets).
        self._node_lct: Dict[int, int] = {}
        self.commits = 0
        self.aborts = 0
        self.torn = 0
        self._wedged = False
        # Observer hooks: the runtime's transaction plane traces commits
        # and aborts through these; None keeps the package standalone.
        self.on_begin: Optional[Callable[[Transaction], None]] = None
        self.on_commit: Optional[Callable[[Transaction, int], None]] = None
        self.on_abort: Optional[Callable[[Transaction, str], None]] = None

    # -- LCT ------------------------------------------------------------------

    @property
    def lct(self) -> int:
        """The authoritative last commit timestamp."""
        return self._lct

    def broadcast_lct(self, nodes: List[int], lct: Optional[int] = None) -> None:
        """Push an LCT watermark to the given nodes' caches.

        Defaults to the current LCT; a *delayed* broadcast (the plane's
        ``lct_broadcast_lag_us``) passes the older watermark it left the
        manager with. Caches only move forward, and never past the
        authoritative LCT — staleness is the only permitted error.
        """
        value = self._lct if lct is None else min(lct, self._lct)
        for node in nodes:
            if value > self._node_lct.get(node, 0):
                self._node_lct[node] = value

    def cached_lct(self, node: int) -> int:
        """A node's cached LCT (0 before any broadcast reaches it)."""
        return self._node_lct.get(node, 0)

    # -- lifecycle ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Begin an update transaction (reads its own snapshot at LCT)."""
        txn = Transaction(self._next_txn_id, self._lct, read_only=False)
        self._next_txn_id += 1
        if self.on_begin is not None:
            self.on_begin(txn)
        return txn

    def begin_readonly(self, node: int = 0) -> Transaction:
        """Begin a read-only query using the node's cached LCT — no
        round-trip to the manager."""
        txn = Transaction(self._next_txn_id, self.cached_lct(node), read_only=True)
        self._next_txn_id += 1
        return txn

    def commit(self, txn: Transaction) -> int:
        """Assign a commit timestamp, apply buffered writes, advance LCT."""
        txn.require_active()
        if txn.read_only:
            txn.status = TxnStatus.COMMITTED
            return txn.read_ts
        if self._wedged:
            return self._tear(txn)
        commit_ts = self._next_commit_ts
        self._next_commit_ts += 1
        for op in txn.writes:
            self._apply(op, commit_ts)
        txn.commit_ts = commit_ts
        txn.status = TxnStatus.COMMITTED
        self.locks.release_all(txn.txn_id, txn.locks)
        self._lct = max(self._lct, commit_ts)
        self.commits += 1
        if self.on_commit is not None:
            self.on_commit(txn, commit_ts)
        return commit_ts

    def abort(self, txn: Transaction, reason: str = "user abort") -> None:
        """Abort a transaction and release its locks."""
        if txn.status is TxnStatus.ABORTED:
            return
        txn.require_active()
        txn.status = TxnStatus.ABORTED
        self.locks.release_all(txn.txn_id, txn.locks)
        self.aborts += 1
        if self.on_abort is not None:
            self.on_abort(txn, reason)

    # -- torn-commit fault model ----------------------------------------------

    @property
    def wedged(self) -> bool:
        """True while the manager site is "crashed mid-commit"."""
        return self._wedged

    def arm_tear(self) -> None:
        """Arm the torn-commit fault: every subsequent commit applies its
        versions to the stores but "crashes" before the commit record —
        the LCT never advances, so the versions are exactly what the
        recovery scan (:func:`repro.txn.recovery.recover`) must discard.
        Stays armed until :meth:`heal` (a crashed site cannot commit)."""
        self._wedged = True

    def heal(self) -> None:
        """Clear the torn-commit wedge (recovery has replayed the logs)."""
        self._wedged = False

    def _tear(self, txn: Transaction) -> int:
        # The timestamp is consumed and the buffered writes reach the
        # versioned stores, but no commit record exists: the LCT stays
        # put, the commit counter does not move, and the transaction
        # reports as aborted to its caller.
        commit_ts = self._next_commit_ts
        self._next_commit_ts += 1
        for op in txn.writes:
            self._apply(op, commit_ts)
        txn.status = TxnStatus.ABORTED
        self.locks.release_all(txn.txn_id, txn.locks)
        self.torn += 1
        if self.on_abort is not None:
            self.on_abort(txn, "torn_commit")
        return commit_ts

    # -- operations -----------------------------------------------------------------------

    def _lock(self, txn: Transaction, key: Any, mode: str) -> None:
        try:
            self.locks.acquire(txn.txn_id, key, mode)
        except TransactionAborted:
            self.abort(txn, "lock conflict")
            raise
        txn.locks.append(key)

    def add_edge(
        self,
        txn: Transaction,
        src: int,
        dst: int,
        label: str,
        eid: int,
        properties: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Buffer an edge insertion (locks both endpoint adjacency lists)."""
        txn.require_writable()
        self._lock(txn, ("adj", src, label), LockMode.EXCLUSIVE)
        self._lock(txn, ("adj", dst, label), LockMode.EXCLUSIVE)
        txn.buffer(WriteOp("add_edge", (src, dst, label, eid, properties)))

    def delete_edge(
        self, txn: Transaction, src: int, dst: int, label: str, eid: int
    ) -> None:
        """Buffer an edge deletion (locks both adjacency lists)."""
        txn.require_writable()
        self._lock(txn, ("adj", src, label), LockMode.EXCLUSIVE)
        self._lock(txn, ("adj", dst, label), LockMode.EXCLUSIVE)
        txn.buffer(WriteOp("del_edge", (src, dst, label, eid)))

    def set_property(self, txn: Transaction, vid: int, key: str, value: Any) -> None:
        """Buffer a vertex-property write (exclusive lock)."""
        txn.require_writable()
        self._lock(txn, ("prop", vid, key), LockMode.EXCLUSIVE)
        txn.buffer(WriteOp("set_prop", (vid, key, value)))

    def _apply(self, op: WriteOp, commit_ts: int) -> None:
        if op.kind == "add_edge":
            src, dst, label, eid, properties = op.args
            sp = self.partitioner(src)
            dp = self.partitioner(dst)
            self.partitions[sp].tel.insert_edge(
                src, dst, label, eid, commit_ts, properties,
                owns_src=True, owns_dst=(sp == dp),
            )
            if dp != sp:
                self.partitions[dp].tel.insert_edge(
                    src, dst, label, eid, commit_ts, properties,
                    owns_src=False, owns_dst=True,
                )
        elif op.kind == "del_edge":
            src, dst, label, eid = op.args
            sp = self.partitioner(src)
            dp = self.partitioner(dst)
            self.partitions[sp].tel.delete_edge(
                src, dst, label, eid, commit_ts,
                owns_src=True, owns_dst=(sp == dp),
            )
            if dp != sp:
                self.partitions[dp].tel.delete_edge(
                    src, dst, label, eid, commit_ts,
                    owns_src=False, owns_dst=True,
                )
        elif op.kind == "set_prop":
            vid, key, value = op.args
            self.partitions[self.partitioner(vid)].props.write(
                vid, key, value, commit_ts
            )
        else:  # pragma: no cover
            raise TransactionError(f"unknown write op {op.kind!r}")

    # -- snapshot reads ----------------------------------------------------------------------

    def neighbors(
        self, txn: Transaction, vid: int, direction: str, label: str
    ) -> List[int]:
        """Snapshot adjacency read at the transaction's read timestamp."""
        txn.require_active()
        pid = self.partitioner(vid)
        return self.partitions[pid].tel.neighbors(vid, direction, label, txn.read_ts)

    def get_property(
        self, txn: Transaction, vid: int, key: str, default: Any = None
    ) -> Any:
        """Snapshot property read at the txn's read timestamp."""
        txn.require_active()
        pid = self.partitioner(vid)
        return self.partitions[pid].props.read(vid, key, txn.read_ts, default)
