"""Transaction objects and multi-version storage state (paper §IV-C).

GraphDance supports transactional updates with:

* TEL multi-version adjacency (:mod:`repro.graph.tel`);
* multi-version vertex properties (:class:`VersionedProps` here);
* MV2PL: update transactions take 2PL locks, read-only transactions read a
  snapshot at their read timestamp and are never blocked.

A :class:`Transaction` buffers writes until commit; the
:class:`~repro.txn.manager.TransactionManager` assigns the commit timestamp
and applies the buffered writes to the versioned stores.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import TransactionError
from repro.graph.tel import TELStore


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class VersionedProps:
    """Multi-version vertex property storage for one partition.

    Versions are appended per ``(vertex, key)`` as ``(commit_ts, value)``;
    reads return the latest version at or before the read timestamp.
    """

    def __init__(self) -> None:
        self._versions: Dict[Tuple[int, str], List[Tuple[int, Any]]] = {}

    def write(self, vid: int, key: str, value: Any, commit_ts: int) -> None:
        """Append a property version at a commit timestamp."""
        chain = self._versions.setdefault((vid, key), [])
        chain.append((commit_ts, value))

    def read(self, vid: int, key: str, ts: int, default: Any = None) -> Any:
        """Latest version at or before ``ts`` (or ``default``)."""
        chain = self._versions.get((vid, key))
        if not chain:
            return default
        # Chains are append-ordered by commit ts; scan from the tail.
        for commit_ts, value in reversed(chain):
            if commit_ts <= ts:
                return value
        return default

    def trim_after(self, lct: int) -> int:
        """Recovery: drop versions committed after the last commit ts."""
        touched = 0
        for key, chain in list(self._versions.items()):
            kept = [(ts, v) for ts, v in chain if ts <= lct]
            touched += len(chain) - len(kept)
            if kept:
                self._versions[key] = kept
            else:
                del self._versions[key]
        return touched

    def version_count(self) -> int:
        """Total property versions stored."""
        return sum(len(chain) for chain in self._versions.values())


@dataclass
class TxnPartitionState:
    """The transactional stores of one partition."""

    pid: int
    tel: TELStore = field(default_factory=TELStore)
    props: VersionedProps = field(default_factory=VersionedProps)

    def trim_after(self, lct: int) -> int:
        """Recovery: drop/roll back versions beyond ``lct``."""
        return self.tel.trim_after(lct) + self.props.trim_after(lct)


@dataclass
class WriteOp:
    """A buffered write: applied at commit with the commit timestamp."""

    kind: str  # "add_edge" | "del_edge" | "set_prop"
    args: Tuple[Any, ...]


class Transaction:
    """One transaction: lock set + write buffer + snapshot timestamp."""

    def __init__(self, txn_id: int, read_ts: int, read_only: bool) -> None:
        self.txn_id = txn_id
        self.read_ts = read_ts
        self.read_only = read_only
        self.status = TxnStatus.ACTIVE
        self.writes: List[WriteOp] = []
        self.locks: List[Hashable] = []
        self.commit_ts: Optional[int] = None

    def require_active(self) -> None:
        """Raise unless the transaction is still active."""
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status.value}"
            )

    def require_writable(self) -> None:
        """Raise unless active and not read-only."""
        self.require_active()
        if self.read_only:
            raise TransactionError(
                f"transaction {self.txn_id} is read-only"
            )

    def buffer(self, op: WriteOp) -> None:
        """Append a write to the commit-time buffer."""
        self.require_writable()
        self.writes.append(op)
