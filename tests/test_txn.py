"""Tests for transactional processing (paper §IV-C): MV2PL, LCT, recovery."""

import pytest

from repro.errors import TransactionAborted, TransactionError
from repro.graph.partition import HashPartitioner
from repro.txn.manager import TransactionManager
from repro.txn.mv2pl import LockMode, LockTable
from repro.txn.recovery import recover
from repro.txn.transaction import Transaction, TxnStatus, VersionedProps


class TestLockTable:
    def test_shared_locks_coexist(self):
        table = LockTable()
        table.acquire(1, "k", LockMode.SHARED)
        table.acquire(2, "k", LockMode.SHARED)
        assert table.holders("k") == {1, 2}

    def test_exclusive_conflicts_with_any(self):
        table = LockTable()
        table.acquire(1, "k", LockMode.EXCLUSIVE)
        with pytest.raises(TransactionAborted):
            table.acquire(2, "k", LockMode.SHARED)
        with pytest.raises(TransactionAborted):
            table.acquire(2, "k", LockMode.EXCLUSIVE)

    def test_shared_blocks_exclusive_from_others(self):
        table = LockTable()
        table.acquire(1, "k", LockMode.SHARED)
        with pytest.raises(TransactionAborted):
            table.acquire(2, "k", LockMode.EXCLUSIVE)

    def test_reacquire_is_idempotent(self):
        table = LockTable()
        table.acquire(1, "k", LockMode.EXCLUSIVE)
        table.acquire(1, "k", LockMode.EXCLUSIVE)
        table.acquire(1, "k", LockMode.SHARED)  # weaker: no-op
        assert table.holders("k") == {1}

    def test_upgrade_when_sole_holder(self):
        table = LockTable()
        table.acquire(1, "k", LockMode.SHARED)
        table.acquire(1, "k", LockMode.EXCLUSIVE)
        assert table.mode("k") == LockMode.EXCLUSIVE

    def test_upgrade_conflict_aborts(self):
        table = LockTable()
        table.acquire(1, "k", LockMode.SHARED)
        table.acquire(2, "k", LockMode.SHARED)
        with pytest.raises(TransactionAborted):
            table.acquire(1, "k", LockMode.EXCLUSIVE)

    def test_release_all(self):
        table = LockTable()
        table.acquire(1, "a", LockMode.EXCLUSIVE)
        table.acquire(1, "b", LockMode.SHARED)
        table.acquire(2, "b", LockMode.SHARED)
        table.release_all(1, ["a", "b"])
        assert table.holders("a") == set()
        assert table.holders("b") == {2}
        assert table.held_count() == 1


class TestVersionedProps:
    def test_snapshot_reads(self):
        props = VersionedProps()
        props.write(1, "name", "v1", commit_ts=5)
        props.write(1, "name", "v2", commit_ts=10)
        assert props.read(1, "name", ts=4) is None
        assert props.read(1, "name", ts=5) == "v1"
        assert props.read(1, "name", ts=9) == "v1"
        assert props.read(1, "name", ts=10) == "v2"

    def test_default_for_missing(self):
        props = VersionedProps()
        assert props.read(1, "x", 100, default=7) == 7

    def test_trim_after(self):
        props = VersionedProps()
        props.write(1, "a", "keep", 5)
        props.write(1, "a", "drop", 15)
        props.write(2, "b", "drop", 20)
        touched = props.trim_after(lct=10)
        assert touched == 2
        assert props.read(1, "a", 100) == "keep"
        assert props.read(2, "b", 100) is None
        assert props.version_count() == 1


class TestTransactionManager:
    def test_commit_advances_lct(self):
        txm = TransactionManager(HashPartitioner(4))
        txn = txm.begin()
        txm.set_property(txn, 1, "name", "x")
        ts = txm.commit(txn)
        assert txm.lct == ts
        assert txn.status is TxnStatus.COMMITTED
        assert txm.commits == 1

    def test_readonly_sees_snapshot_at_cached_lct(self):
        """Paper: a read-only query fetches the LCT from any worker node
        without consulting the transaction manager."""
        txm = TransactionManager(HashPartitioner(4))
        txn = txm.begin()
        txm.set_property(txn, 1, "name", "new")
        txm.commit(txn)
        # broadcast reaches node 0 only
        txm.broadcast_lct([0])
        r0 = txm.begin_readonly(node=0)
        r1 = txm.begin_readonly(node=1)
        assert txm.get_property(r0, 1, "name") == "new"
        assert txm.get_property(r1, 1, "name") is None  # stale cached LCT

    def test_edge_insert_visible_after_commit(self):
        txm = TransactionManager(HashPartitioner(4))
        txn = txm.begin()
        txm.add_edge(txn, 1, 2, "knows", eid=0)
        # uncommitted: a snapshot at current LCT sees nothing
        reader = txm.begin()
        assert txm.neighbors(reader, 1, "out", "knows") == []
        txm.commit(txn)
        txm.broadcast_lct([0])
        reader2 = txm.begin_readonly(0)
        assert txm.neighbors(reader2, 1, "out", "knows") == [2]

    def test_cross_partition_edge_in_both_tels(self):
        txm = TransactionManager(HashPartitioner(4))
        txn = txm.begin()
        txm.add_edge(txn, 1, 2, "e", eid=0)
        txm.commit(txn)
        sp = txm.partitioner(1)
        dp = txm.partitioner(2)
        assert txm.partitions[sp].tel.neighbors(1, "out", "e", txm.lct) == [2]
        assert txm.partitions[dp].tel.neighbors(2, "in", "e", txm.lct) == [1]

    def test_delete_edge_tombstones(self):
        txm = TransactionManager(HashPartitioner(2))
        t1 = txm.begin()
        txm.add_edge(t1, 1, 2, "e", eid=0)
        ts1 = txm.commit(t1)
        t2 = txm.begin()
        txm.delete_edge(t2, 1, 2, "e", eid=0)
        ts2 = txm.commit(t2)
        r = txm.begin()
        assert r.read_ts >= ts2
        assert txm.neighbors(r, 1, "out", "e") == []
        # historical snapshot still sees it
        old = Transaction(99, ts1, read_only=True)
        assert txm.neighbors(old, 1, "out", "e") == [2]

    def test_conflicting_writers_abort_no_wait(self):
        txm = TransactionManager(HashPartitioner(2))
        t1 = txm.begin()
        t2 = txm.begin()
        txm.set_property(t1, 1, "name", "a")
        with pytest.raises(TransactionAborted):
            txm.set_property(t2, 1, "name", "b")
        assert t2.status is TxnStatus.ABORTED
        assert txm.aborts == 1
        # the victor commits fine
        txm.commit(t1)

    def test_abort_releases_locks(self):
        txm = TransactionManager(HashPartitioner(2))
        t1 = txm.begin()
        txm.set_property(t1, 1, "name", "a")
        txm.abort(t1)
        t2 = txm.begin()
        txm.set_property(t2, 1, "name", "b")  # no conflict now
        txm.commit(t2)

    def test_readonly_cannot_write(self):
        txm = TransactionManager(HashPartitioner(2))
        txm.broadcast_lct([0])
        r = txm.begin_readonly(0)
        with pytest.raises(TransactionError):
            txm.set_property(r, 1, "x", 1)

    def test_committed_txn_rejects_operations(self):
        txm = TransactionManager(HashPartitioner(2))
        t = txm.begin()
        txm.commit(t)
        with pytest.raises(TransactionError):
            txm.set_property(t, 1, "x", 1)

    def test_readonly_commit_is_trivial(self):
        txm = TransactionManager(HashPartitioner(2))
        r = txm.begin_readonly(0)
        assert txm.commit(r) == r.read_ts
        assert txm.commits == 0  # no timestamp consumed

    def test_aborted_writes_never_apply(self):
        txm = TransactionManager(HashPartitioner(2))
        t = txm.begin()
        txm.set_property(t, 1, "name", "ghost")
        txm.abort(t)
        reader = txm.begin()
        assert txm.get_property(reader, 1, "name") is None


class TestRecovery:
    def test_recovery_truncates_to_lct(self):
        """Paper: on restart, remove all versions with timestamps larger
        than LCT."""
        txm = TransactionManager(HashPartitioner(4))
        t1 = txm.begin()
        txm.add_edge(t1, 1, 2, "e", eid=0)
        txm.set_property(t1, 1, "name", "committed")
        txm.commit(t1)
        lct = txm.lct
        # Simulate a crash mid-commit: writes applied with a post-LCT ts.
        future = lct + 5
        txm.partitions[txm.partitioner(3)].tel.insert_edge(
            3, 4, "e", 1, create_ts=future
        )
        txm.partitions[txm.partitioner(1)].props.write(1, "name", "torn", future)
        report = recover(txm.partitions, lct)
        assert report.versions_discarded >= 2
        assert report.lct == lct
        reader = txm.begin()
        assert txm.get_property(reader, 1, "name") == "committed"
        assert txm.neighbors(reader, 3, "out", "e") == []

    def test_recovery_rolls_back_uncommitted_deletes(self):
        txm = TransactionManager(HashPartitioner(2))
        t1 = txm.begin()
        txm.add_edge(t1, 1, 2, "e", eid=0)
        txm.commit(t1)
        lct = txm.lct
        # torn delete stamped after the crash point
        txm.partitions[txm.partitioner(1)].tel.delete_edge(
            1, 2, "e", 0, delete_ts=lct + 9,
            owns_src=True, owns_dst=(txm.partitioner(1) == txm.partitioner(2)),
        )
        recover(txm.partitions, lct)
        reader = txm.begin()
        assert txm.neighbors(reader, 1, "out", "e") == [2]

    def test_recovery_is_idempotent(self):
        txm = TransactionManager(HashPartitioner(2))
        t1 = txm.begin()
        txm.add_edge(t1, 1, 2, "e", eid=0)
        txm.commit(t1)
        txm.partitions[0].tel.insert_edge(5, 6, "e", 9, create_ts=txm.lct + 1)
        first = recover(txm.partitions, txm.lct)
        second = recover(txm.partitions, txm.lct)
        assert first.versions_discarded > 0
        assert second.versions_discarded == 0
