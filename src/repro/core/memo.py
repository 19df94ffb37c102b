"""Query memoranda: per-partition, query-scoped key-value stores (§III-B).

Memos are the "stateful" half of the partitioned stateful graph model
``G = (V, E, λ, H, M)``. Each partition ``p`` owns one memo store ``M_p``;
traversers running on that partition may freely read and write it without
concurrency control (each partition is single-threaded). Two invariants from
the paper are enforced here:

* **query isolation** — a query can only access memo records it created;
  records are namespaced by query id and :meth:`MemoStore.clear_query`
  drops everything when the creating query terminates;
* **label namespacing** — within one query, records are grouped under
  user-defined labels (the paper's example: ``M_{H(v)}[Distance, v]``).

Memo access patterns used by the operators:

* ``Distance``-style get/put-if-better (k-hop pruning, Fig 5),
* set membership with insert-if-absent (incremental ``Dedup``),
* per-key append (double-pipelined ``Join`` hash tables),
* accumulate with a combine function (partition-local aggregation partials,
  weight coalescing).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.errors import MemoError

#: a snapshot of one query's memo shard: label -> {key: value} with every
#: mutable container value copied (see :meth:`QueryMemo.snapshot`)
MemoSnapshot = Dict[str, Dict[Hashable, Any]]


def _copy_value(value: Any) -> Any:
    """Copy a memo record value so a snapshot cannot alias live state.

    Operator-written values are ints, tuples, strings, or the three
    mutable containers the operators build in place: lists (join build
    sides, Collect partials), dicts (GroupCount partials), and sets. One
    level of copying suffices — the operators never nest a mutable
    container inside another memo value.
    """
    t = type(value)
    if t is list:
        return list(value)
    if t is dict:
        return dict(value)
    if t is set:
        return set(value)
    return value


class QueryMemo:
    """All memo records one query owns within one partition."""

    __slots__ = ("_tables", "_op_count", "__weakref__")

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[Hashable, Any]] = {}
        self._op_count = 0

    def table(self, label: str) -> Dict[Hashable, Any]:
        """The raw dict backing one label (created on first use)."""
        tbl = self._tables.get(label)
        if tbl is None:
            tbl = {}
            self._tables[label] = tbl
        return tbl

    # -- primitive operations -------------------------------------------

    def get(self, label: str, key: Hashable, default: Any = None) -> Any:
        """Read the record at ``key`` (or ``default``)."""
        self._op_count += 1
        return self.table(label).get(key, default)

    def put(self, label: str, key: Hashable, value: Any) -> None:
        """Write the record at ``key``."""
        self._op_count += 1
        self.table(label)[key] = value

    def contains(self, label: str, key: Hashable) -> bool:
        """True when a record exists at ``key``."""
        self._op_count += 1
        return key in self.table(label)

    def insert_if_absent(self, label: str, key: Hashable) -> bool:
        """Set-style insert. Returns True when ``key`` was newly inserted —
        the primitive behind incremental Dedup."""
        self._op_count += 1
        tbl = self.table(label)
        if key in tbl:
            return False
        tbl[key] = True
        return True

    def put_if_less(self, label: str, key: Hashable, value: Any) -> bool:
        """Keep the minimum value per key. Returns True when ``value``
        improved (or created) the record — the k-hop Distance primitive."""
        self._op_count += 1
        tbl = self.table(label)
        old = tbl.get(key)
        if old is None or value < old:
            tbl[key] = value
            return True
        return False

    def append(self, label: str, key: Hashable, value: Any) -> List[Any]:
        """Append to the list at ``key`` and return it (join build side)."""
        self._op_count += 1
        tbl = self.table(label)
        lst = tbl.get(key)
        if lst is None:
            lst = []
            tbl[key] = lst
        lst.append(value)
        return lst

    def get_list(self, label: str, key: Hashable) -> List[Any]:
        """The list at ``key`` (empty if absent) — join probe side."""
        self._op_count += 1
        lst = self.table(label).get(key)
        return lst if lst is not None else []

    def accumulate(
        self,
        label: str,
        key: Hashable,
        value: Any,
        combine: Callable[[Any, Any], Any],
    ) -> Any:
        """Fold ``value`` into the record at ``key`` with ``combine``."""
        self._op_count += 1
        tbl = self.table(label)
        if key in tbl:
            tbl[key] = combine(tbl[key], value)
        else:
            tbl[key] = value
        return tbl[key]

    # -- checkpointing ---------------------------------------------------

    def snapshot(self) -> MemoSnapshot:
        """Copy every table for a checkpoint (docs/RECOVERY.md).

        The copy is value-deep enough that later operator mutations (list
        appends, dict updates) cannot leak into a stored checkpoint; the
        snapshot is taken at a stage boundary, where no traverser of the
        query is executing, so it is trivially consistent.
        """
        return {
            label: {k: _copy_value(v) for k, v in tbl.items()}
            for label, tbl in self._tables.items()
        }

    @classmethod
    def from_snapshot(cls, tables: MemoSnapshot) -> "QueryMemo":
        """Rebuild a memo from a snapshot, copying again so one stored
        checkpoint can seed several restore attempts independently."""
        memo = cls()
        memo._tables = {
            label: {k: _copy_value(v) for k, v in tbl.items()}
            for label, tbl in tables.items()
        }
        return memo

    # -- introspection ---------------------------------------------------

    def items(self, label: str) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate the (key, value) records of one label."""
        return iter(self.table(label).items())

    def labels(self) -> List[str]:
        """All labels this query has written."""
        return list(self._tables)

    def record_count(self) -> int:
        """Total records across all labels."""
        return sum(len(tbl) for tbl in self._tables.values())

    @property
    def op_count(self) -> int:
        """Number of memo operations performed (for cost accounting)."""
        return self._op_count


class MemoStore:
    """One partition's memo store ``M_p``: query-id → :class:`QueryMemo`.

    Records are created lazily per query and destroyed when the query
    terminates — the paper's "lifetime bound to some specific query".
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self._memos: Dict[int, QueryMemo] = {}

    def for_query(self, query_id: int) -> QueryMemo:
        """The query's memo, created on first access."""
        memo = self._memos.get(query_id)
        if memo is None:
            memo = QueryMemo()
            self._memos[query_id] = memo
        return memo

    def peek(self, query_id: int) -> Optional[QueryMemo]:
        """The query's memo if it exists, without creating one."""
        return self._memos.get(query_id)

    def clear_query(self, query_id: int) -> None:
        """Drop all memo records of a terminated query: the memo is
        unlinked *and* emptied in place, so a stale holder (a context of
        the dead attempt) cannot keep its tables alive."""
        memo = self._memos.pop(query_id, None)
        if memo is not None:
            memo._tables.clear()

    def install(self, query_id: int, memo: QueryMemo) -> None:
        """Install a rebuilt memo for a query (checkpoint restore).

        Replaces whatever the query currently holds here: a restore rolls
        the shard back to the checkpointed stage boundary, so any records
        written after the snapshot must vanish (docs/RECOVERY.md).
        """
        self._memos[query_id] = memo

    def active_queries(self) -> List[int]:
        """Ids of queries holding memo records here."""
        return list(self._memos)

    def invalidate_all(self) -> List[int]:
        """Drop *every* query's records, returning the affected query ids.

        Models the memory loss of a worker crash under fault injection: the
        partition's entire ``M_p`` vanishes at once. The returned ids let
        the engine force-retry the affected queries — memo loss (unlike
        traverser loss) carries no progression weight, so without an
        explicit retry a query could terminate "successfully" with wrong
        results (e.g. a Dedup set forgetting what it has seen). See
        docs/FAULTS.md.
        """
        affected = list(self._memos)
        self._memos.clear()
        return affected

    def require(self, query_id: int) -> QueryMemo:
        """The query's memo; raises MemoError if absent."""
        memo = self._memos.get(query_id)
        if memo is None:
            raise MemoError(
                f"query {query_id} has no memo records in partition {self.pid}"
            )
        return memo
