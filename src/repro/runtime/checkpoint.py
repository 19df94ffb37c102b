"""Per-partition query checkpointing at certified stage boundaries.

The checkpoint plane (docs/RECOVERY.md). A :class:`CheckpointPlane` is
attached to the engine only when ``EngineConfig.checkpoint_interval_us``
is set; every hook guards on ``checkpoints is not None``, so the disarmed
mode costs nothing and stays bit-identical to the pre-checkpoint engine.

**What a checkpoint is.** A stage boundary is the one point in a query's
life where a globally consistent cut exists *for free*: the stage's
progression-weight ledger just reached the root weight, which certifies
(paper Theorem 1) that no traverser of the query is queued, buffered,
absorbed in a coalescing accumulator, or in flight anywhere in the
cluster. At that instant the query's complete distributed state is

* the next stage's **seed traversers** (the frontier, held at the
  coordinator — their weights *are* the progression-weight ledger share,
  freshly split to sum to the root weight),
* each partition's **memo shard** for the query (``M_p`` — the stateful
  half of the PSTM model), and
* the session's **RNG state** (weight splits draw from it; replaying a
  stage with a different RNG state would break the ledger bit-for-bit).

:class:`StageCheckpoint` captures exactly those three things. Nothing
else exists to capture: worker accumulators and tier-1 buffers are
provably empty for the query (the ledger could not have closed
otherwise), and per-partition run queues hold no traverser of it.

**Fencing.** The engine takes snapshots only from the stage-completion
path while the session's :class:`~repro.runtime.lifecycle.QueryLifecycle`
is in RUNNING — or PAUSING, for the forced snapshot a voluntary
preemption takes at the boundary it yields at — a CANCELLING or
torn-down query is never snapshotted, so a snapshot can never straddle a
reclaim. Restore (in
:class:`~repro.runtime.faults.RecoveryManager`) re-keys the dead
attempt's checkpoint to the fresh query id, so a second crash can
restore again from the same boundary.

This module is a layering leaf beside ``trace.py``: it may import only
``trace`` from the runtime package (for the event-kind constant), holds
no reference to the engine, and is handed engine/session objects by its
callers (enforced by ``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.memo import MemoSnapshot, QueryMemo
from repro.runtime.trace import CHECKPOINT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traverser import Traverser
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.lifecycle import QuerySession

__all__ = ["CheckpointPlane", "StageCheckpoint"]


class StageCheckpoint:
    """One query's complete state at one certified stage boundary."""

    __slots__ = ("query_id", "stage", "ts", "seeds", "rng_state", "memos")

    def __init__(
        self,
        query_id: int,
        stage: int,
        ts: float,
        seeds: Tuple["Traverser", ...],
        rng_state: Any,
        memos: Dict[int, MemoSnapshot],
    ) -> None:
        #: id of the attempt that took the snapshot (re-keyed on restore)
        self.query_id = query_id
        #: the stage the seeds open (resume point)
        self.stage = stage
        #: simulated time the boundary was crossed
        self.ts = ts
        #: next-stage seed traversers; their weights sum to the root weight
        self.seeds = seeds
        #: ``random.Random.getstate()`` as of the post-split boundary
        self.rng_state = rng_state
        #: per-partition memo shards: pid -> label -> {key: value}
        self.memos = memos

    def record_count(self) -> int:
        """Total memo records captured across all partition shards."""
        return sum(
            len(tbl) for shard in self.memos.values() for tbl in shard.values()
        )

    def build_memo(self, pid: int) -> Optional[QueryMemo]:
        """A fresh :class:`QueryMemo` for one partition's shard (``None``
        when the partition held no records at the boundary). Copies, so
        the stored checkpoint survives the restore attempt mutating it."""
        shard = self.memos.get(pid)
        return None if shard is None else QueryMemo.from_snapshot(shard)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StageCheckpoint(q{self.query_id}, stage={self.stage}, "
                f"ts={self.ts:.1f}, seeds={len(self.seeds)}, "
                f"partitions={len(self.memos)})")


class CheckpointPlane:
    """Stores one stage-boundary checkpoint per query: the newest.

    Restore only ever reads the newest certified boundary, so a new
    snapshot replaces the query's previous one. ``interval_us`` gates
    which boundaries actually snapshot: a boundary is skipped when the
    previous snapshot of the same query is younger than the interval
    (``0.0`` snapshots every boundary). Stage 0 never snapshots — its
    "checkpoint" is the submission itself, which the force-retry path
    already replays from scratch.
    """

    def __init__(self, interval_us: float) -> None:
        self.interval_us = interval_us
        self._by_query: Dict[int, StageCheckpoint] = {}
        self._last_ts: Dict[int, float] = {}
        #: lifetime counters (mirrored into RunMetrics by the callers)
        self.taken = 0
        self.evicted = 0

    # -- capture -------------------------------------------------------------

    def maybe_snapshot(
        self,
        engine: "AsyncPSTMEngine",
        session: "QuerySession",
        seeds: List["Traverser"],
        force: bool = False,
    ) -> bool:
        """Snapshot one stage boundary if the interval gate allows it.

        Called by the engine from ``_complete_stage`` after the next
        stage's seeds are split, *before* its ledger opens and the seeds
        are dispatched — the certified quiescent instant. The caller has
        already applied the lifecycle fence (session RUNNING). Returns
        True when a checkpoint was stored.

        ``force=True`` bypasses the interval gate: a voluntary preemption
        (docs/RECOVERY.md) must capture the boundary it yields at, because
        that snapshot *is* the evicted query — skipping it would lose the
        frontier.
        """
        query_id = session.query_id
        now = engine.clock.now
        last = self._last_ts.get(query_id)
        if not force and last is not None and now - last < self.interval_us:
            return False
        memos: Dict[int, MemoSnapshot] = {}
        for pid, runtime in enumerate(engine.runtimes):
            memo = runtime.memo_store.peek(query_id)
            if memo is not None:
                memos[pid] = memo.snapshot()
        ckpt = StageCheckpoint(
            query_id=query_id,
            stage=session.cursor.current,
            ts=now,
            seeds=tuple(seeds),
            rng_state=session.rng.getstate(),
            memos=memos,
        )
        if query_id in self._by_query:
            self.evicted += 1  # the older boundary is replaced
        self._by_query[query_id] = ckpt
        self._last_ts[query_id] = now
        self.taken += 1
        engine.metrics.checkpoints_taken += 1
        if engine.trace is not None:
            engine.trace.emit(
                CHECKPOINT, query_id, ckpt.stage, len(seeds), len(memos),
                ckpt.record_count(), force,
            )
        return True

    # -- lookup & lifecycle --------------------------------------------------

    def latest(self, query_id: int) -> Optional[StageCheckpoint]:
        """The query's stored checkpoint (restore source), if any."""
        return self._by_query.get(query_id)

    def rekey(self, old_query_id: int, new_query_id: int) -> None:
        """Move a query's checkpoint to its restored attempt's id.

        Restore runs under a fresh query id (the same fencing idiom as
        force-retry); re-keying keeps the checkpoint reachable so a
        second crash can restore from the same boundary again.
        """
        ckpt = self._by_query.pop(old_query_id, None)
        if ckpt is not None:
            ckpt.query_id = new_query_id
            self._by_query[new_query_id] = ckpt
        last = self._last_ts.pop(old_query_id, None)
        if last is not None:
            self._last_ts[new_query_id] = last

    def drop(self, query_id: int) -> None:
        """Discard a retired query's checkpoint (single engine exit)."""
        self._by_query.pop(query_id, None)
        self._last_ts.pop(query_id, None)

    @property
    def stored(self) -> int:
        """Checkpoints currently held (must drain to 0 at quiescence)."""
        return len(self._by_query)
