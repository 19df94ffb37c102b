"""Live vertex migration: the adaptive half of the placement plane.

The paper fixes vertex placement to the static hash ``H`` (§II-C), which
makes cross-partition traverser messages — the dominant cost of the
skewed LDBC-shaped workloads (Fig 11, docs/PERFORMANCE.md) — a property
of the dataset, not the workload. This module closes that gap in the
Loom/TAPER direction: observe where traversers actually flow, then move
hot vertices toward their dominant source partitions *without stopping
traffic*, using the placement plane's relocation table
(:class:`repro.graph.placement.Placement`) as the atomic switch.

Two cooperating pieces:

* :class:`TrafficMiner` — a tier-1 flush hook (``Worker.miner``) that
  folds live per-partition-pair traverser counts into a per-vertex gain
  model: a vertex whose inbound traverser traffic is dominated by one
  remote partition is a candidate to move there. Mining is pure
  observation; it never touches placement.
* :class:`Migrator` — applies a batch of moves at one simulated instant.
  The discrete-event clock makes the flip atomic for free (no other
  event interleaves), so the protocol is sequencing, not locking:

  1. **defer** while any active query is mid-broadcast-scan at stage 0
     (a scan that already ran on the old owner plus one that will run on
     the new owner would visit a moved vertex twice);
  2. **flip + reshard** — :meth:`PartitionedGraph.move_vertices` updates
     the relocation table (written through the hot-path pid cache) and
     rebuilds the affected CSR stores in place;
  3. **ship state** — resident memo records whose integer keys follow
     vertex placement (dedup members, Distance records, int join keys)
     move to the new owner's store, and stored stage-boundary
     checkpoints are resharded the same way
     (:meth:`CheckpointPlane.reshard`) so a later crash restore cannot
     resurrect a record on a partition that no longer owns its key;
  4. **sweep** — traversers already queued or inboxed at the old owners
     are re-routed through :func:`retarget_pid` and forwarded
     (:func:`forward_batch`). Their progression weight never leaves the
     ledger's "active" column — forwarding is an extra hop, not a
     reclaim — so Theorem 1 holds across the flip, which the
     :class:`~repro.runtime.trace.WeightLedgerAuditor` re-asserts at
     every MIGRATE event;
  5. **arm forwarding** — tier-1 buffers and in-flight messages still
     carry pids computed under the old placement; once
     ``DeliveryPlane.forwarding`` is armed, every later arrival is
     re-checked and strays take one extra hop to their new home. The
     flag stays off (and the check costs nothing) on unmigrated runs.

  The modeled shipping cost (CSR rows + memo bytes) rides CONTROL
  messages through the normal NIC path, so migration competes for wire
  time with the queries it is trying to speed up.

Like :mod:`repro.runtime.preempt`, this layer sits below the engine and
is handed the engine object by its callers; it may not import it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.machine import resolve_partition
from repro.core.memo import BYTES_PER_LIST_ELEMENT, BYTES_PER_RECORD
from repro.core.progress import ProgressMode
from repro.errors import ExecutionError
from repro.runtime.metrics import MsgKind
from repro.runtime.network import Message
from repro.runtime.trace import MIGRATE
from repro.runtime.txnplane import VERSION_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traverser import Traverser
    from repro.runtime.engine import AsyncPSTMEngine
    from repro.runtime.worker import PartitionRuntime

__all__ = [
    "MIGRATE_MSG_BYTES",
    "Migrator",
    "TrafficMiner",
    "forward_batch",
    "retarget_pid",
]

#: minimum wire size of one MIGRATE control message (tag + count + header)
MIGRATE_MSG_BYTES = 24


def retarget_pid(engine: "AsyncPSTMEngine", trav: "Traverser", cur_pid: int) -> int:
    """The partition ``trav`` should execute on under the *current* placement.

    ``cur_pid`` is where the traverser sits (or just arrived); it is kept
    there whenever its routing does not depend on vertex placement:
    partition-addressed broadcast seeds (``vertex = -pid - 1``), barrier
    ("fixed") routes, custom routes over non-integer keys (stable-hashed,
    placement-independent), and traversers of unknown/retired sessions —
    those are dead strays the drain loop already reclaims in place.
    """
    session = engine.sessions.get(trav.query_id)
    if session is None:
        return cur_pid
    placement = engine.graph.partitioner
    _stage, mode, op = session.machine.route_info()[trav.op_idx]
    if mode == "vertex":
        return placement(trav.vertex)
    if mode == "free":
        return placement(trav.vertex) if trav.vertex >= 0 else cur_pid
    if mode == "fixed":
        return cur_pid
    return resolve_partition(trav, placement, op.routing(placement, trav))


def forward_batch(
    engine: "AsyncPSTMEngine",
    src_node: int,
    groups: Dict[int, List["Traverser"]],
    when: float,
) -> int:
    """Send re-routed traversers from ``src_node`` to their new owners.

    The forwarding counterpart of the tier-1 flush path: one TRAVERSER
    batch per target partition on the ungated path, capacity-capped
    chunks through the target's credit gate when backpressure is armed
    (a gate-deferred forward parks like any other throttled send — the
    traversers stay in flight, never dropped). Returns the number of
    traversers forwarded.
    """
    delivery = engine.delivery
    gates = delivery.gates
    network = engine.network
    n = 0
    for pid in sorted(groups):
        travs = groups[pid]
        n += len(travs)
        dst_node = engine.node_of(pid)
        if delivery.track_inflight:
            for t in travs:
                delivery.note_outbound(t.query_id)
        if gates is None:
            size = sum(t.estimated_size_bytes() for t in travs)
            network.send(
                src_node,
                dst_node,
                [Message(MsgKind.TRAVERSER, pid, travs, size, travs[0].query_id)],
                when,
            )
        else:
            cap = gates[pid].capacity
            for i in range(0, len(travs), cap):
                chunk = travs[i:i + cap]
                size = sum(t.estimated_size_bytes() for t in chunk)
                msg = Message(
                    MsgKind.TRAVERSER, pid, chunk, size, chunk[0].query_id
                )
                send = (
                    lambda at, m=msg, dn=dst_node:
                    network.send(src_node, dn, [m], at)
                )
                gates[pid].submit(len(chunk), send, when)
    return n


class TrafficMiner:
    """Folds live traverser flow into a hot-vertex migration gain model.

    Attached to every worker (:meth:`attach` sets ``Worker.miner``), it
    sees each tier-1 flush's ``(pid, traverser, size)`` pairs and counts,
    per target vertex, how many traversers each *source* partition sent
    toward it — exactly the messages a migration could make local. Only
    vertex-placement-routed traversers count: fixed/barrier routes and
    stable-hashed custom keys would not move with the vertex.

    :meth:`mine` then proposes the Loom-style greedy batch: the
    per-vertex counts fold into per-partition-pair traffic to pick one
    consolidation target per round (the hottest cross-traffic source),
    and vertices pulled hardest toward it move, ranked by gain (pull
    minus home-source count), guarded by a dominance ratio, and capped
    by a partition balance bound. All tie-breaks are deterministic
    (lowest pid, lowest vertex id) so mining is reproducible run to run.
    """

    def __init__(self, engine: "AsyncPSTMEngine") -> None:
        self.engine = engine
        #: vertex -> {source pid -> traversers sent toward it}
        self.counts: Dict[int, Dict[int, int]] = {}
        # route tables by query id: one dict probe per traverser instead
        # of a session attribute walk on the flush path
        self._route_cache: Dict[int, List] = {}

    def attach(self) -> None:
        """Install this miner on every worker's flush hook."""
        for worker in self.engine.workers:
            worker.miner = self

    def detach(self) -> None:
        """Remove this miner from the workers (observation pause)."""
        for worker in self.engine.workers:
            if worker.miner is self:
                worker.miner = None

    def reset(self) -> None:
        """Drop all observed counts (start a fresh observation window)."""
        self.counts.clear()
        self._route_cache.clear()

    def note_pairs(
        self, src_pid: int, pairs: List[Tuple[int, "Traverser", int]]
    ) -> None:
        """Tier-1 flush hook: count placement-routed remote traversers."""
        sessions = self.engine.sessions
        cache = self._route_cache
        counts = self.counts
        for pid, trav, _size in pairs:
            if pid == src_pid:
                continue
            qid = trav.query_id
            info = cache.get(qid)
            if info is None:
                session = sessions.get(qid)
                if session is None:
                    continue
                info = cache[qid] = session.machine.route_info()
            mode = info[trav.op_idx][1]
            if mode == "vertex" or (mode == "free" and trav.vertex >= 0):
                per = counts.get(trav.vertex)
                if per is None:
                    counts[trav.vertex] = {src_pid: 1}
                else:
                    per[src_pid] = per.get(src_pid, 0) + 1

    def mine(
        self,
        top_k: int = 32,
        min_gain: int = 2,
        balance_slack: float = 0.10,
        dominance: float = 1.0,
    ) -> Dict[int, int]:
        """Propose a move batch ``{vertex: target pid}`` from the counts.

        ``min_gain`` discards cold vertices (moving them churns stores
        for noise), ``top_k`` bounds the batch, and ``balance_slack``
        caps any partition at ``(1 + slack) × mean`` vertices so the
        miner cannot trade message locality for a load hotspot — the
        same two-objective shape as Loom's fennel-style heuristic.

        Each round consolidates toward **one** target: the partition
        sourcing the most cross-partition traffic, read off the folded
        per-partition-pair counters. Per-vertex argmax targets looked
        plausible but scatter in practice — a vertex two hops out from a
        hot root draws near-uniform inbound from all partitions before
        its parents consolidate, so its "dominant source" is sampling
        noise and moving there just reshuffles which three quarters of
        its traffic are remote. Pooling the evidence across vertices
        picks a real gravity well; the two-hop shell becomes genuinely
        dominated one round later, after the one-hop ring lands, and is
        worth the wait. ``dominance`` additionally demands the target's
        pull on a vertex beat the best competing partition by a ratio.
        """
        graph = self.engine.graph
        placement = graph.partitioner
        # Fold the per-vertex counts into per-partition-pair traffic and
        # pick this round's consolidation target.
        pair_out: Dict[int, int] = {}
        for vid, per in self.counts.items():
            home = placement(vid)
            for pid, cnt in per.items():
                if pid != home:
                    pair_out[pid] = pair_out.get(pid, 0) + cnt
        if not pair_out:
            return {}
        target = max(pair_out.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        candidates: List[Tuple[int, int, int]] = []
        for vid, per in self.counts.items():
            home = placement(vid)
            if home == target:
                continue
            pull = per.get(target, 0)
            runner_up = max(
                (cnt for pid, cnt in per.items() if pid != target), default=0
            )
            if pull < dominance * max(runner_up, 1):
                continue
            gain = pull - per.get(home, 0)
            if gain >= min_gain:
                candidates.append((gain, vid, target))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        sizes = graph.partition_sizes()
        cap = int(sum(sizes) / len(sizes) * (1.0 + balance_slack)) + 1
        moves: Dict[int, int] = {}
        for _gain, vid, pid in candidates:
            if len(moves) >= top_k:
                break
            if sizes[pid] + 1 > cap:
                continue
            sizes[pid] += 1
            sizes[placement(vid)] -= 1
            moves[vid] = pid
        return moves


class Migrator:
    """Applies mined move batches to a live engine without stopping it."""

    def __init__(self, engine: "AsyncPSTMEngine", defer_us: float = 50.0) -> None:
        if engine.config.progress_mode is ProgressMode.NAIVE_CENTRAL:
            raise ExecutionError(
                "live migration requires a weighted progress mode: the naive "
                "tracker counts traversers by location and a placement flip "
                "would desynchronize its active counts"
            )
        self.engine = engine
        #: retry delay while a stage-0 broadcast scan blocks the flip
        self.defer_us = defer_us
        self.completed = 0
        self.deferred = 0

    def scan_hazard(self) -> bool:
        """True while a placement flip could double-visit a scan.

        A broadcast source scans each partition's *local vertex list*;
        the per-partition scans of one query execute as separate events,
        so a flip between them would let a moved vertex appear in an
        already-scanned list and again in a not-yet-scanned one. Any
        active session still in stage 0 of a broadcast-sourced plan is a
        hazard; fixed-vertex sources and later stages are flip-safe.
        """
        for session in self.engine.sessions.values():
            if session.cursor.current != 0:
                continue
            if any(op.broadcast for op in session.plan.source_ops()):
                return True
        return False

    def migrate(
        self,
        moves: Dict[int, int],
        on_done: Optional[callable] = None,
    ) -> Optional[Dict[str, int]]:
        """Relocate ``moves`` at the current instant (or defer past scans).

        Returns the migration report, or ``None`` when the flip was
        deferred — it reschedules itself every ``defer_us`` until the
        scan hazard clears and then runs ``on_done(report)``.
        """
        if not moves:
            report = {"vertices": 0, "bytes": 0, "swept": 0,
                      "memo_records": 0, "pairs": 0}
            if on_done is not None:
                on_done(report)
            return report
        engine = self.engine
        if self.scan_hazard():
            self.deferred += 1
            engine.clock.schedule_at(
                engine.clock.now + self.defer_us,
                lambda: self.migrate(moves, on_done),
            )
            return None
        report = self._apply(moves)
        if on_done is not None:
            on_done(report)
        return report

    # -- the flip (one simulated event, hence atomic) ----------------------

    def _apply(self, moves: Dict[int, int]) -> Dict[str, int]:
        engine = self.engine
        graph = engine.graph
        placement = graph.partitioner
        old = {vid: placement(vid) for vid in moves}
        applied, ship_bytes = graph.move_vertices(moves)
        if not applied:
            return {"vertices": 0, "bytes": 0, "swept": 0,
                    "memo_records": 0, "pairs": 0}

        memo_records, memo_bytes = self._move_memos(applied)
        ship_bytes += memo_bytes
        if engine.checkpoints is not None:
            ship_bytes += BYTES_PER_RECORD * engine.checkpoints.reshard(applied)
        plane = getattr(engine, "txnplane", None)
        if plane is not None:
            # Delta rows follow their vertex (docs/TRANSACTIONS.md):
            # committed TEL logs and property chains ship to the new owner
            # alongside the base CSR rows, or snapshot reads routed there
            # would silently miss them.
            ship_bytes += VERSION_BYTES * plane.reshard(applied)

        swept = 0
        for pid in sorted({old[vid] for vid in applied}):
            swept += self._sweep_runtime(engine.runtimes[pid])
        engine.delivery.forwarding = True

        pairs = sorted({(old[vid], pid) for vid, pid in applied.items()})
        now = engine.clock.now
        share, rem = divmod(ship_bytes, len(pairs))
        for i, (src, dst) in enumerate(pairs):
            size = max(share + (rem if i == 0 else 0), MIGRATE_MSG_BYTES)
            engine.network.send(
                engine.node_of(src),
                engine.node_of(dst),
                [Message(MsgKind.CONTROL, dst, ("migrate", -1, len(applied)),
                         size, -1)],
                now,
            )

        self.completed += 1
        engine.metrics.migrations += 1
        engine.metrics.vertices_migrated += len(applied)
        engine.metrics.migration_bytes += ship_bytes
        if engine.trace is not None:
            engine.trace.emit(
                MIGRATE, -1, len(applied), len(pairs), ship_bytes, swept,
                memo_records, placement.version,
            )
        return {"vertices": len(applied), "bytes": ship_bytes, "swept": swept,
                "memo_records": memo_records, "pairs": len(pairs)}

    def _move_memos(self, applied: Dict[int, int]) -> Tuple[int, int]:
        """Ship resident memo records whose integer keys moved.

        Integer memo keys follow vertex placement by convention
        (``Placement.key_partition``): dedup members, Distance records,
        and integer join keys all live at ``placement(key)``, and later
        probes route there — leaving a record behind would e.g. let a
        deduplicated vertex pass twice. Aggregation partials are keyed by
        the string ``"partial"`` and stable-hashed keys never move, so
        filtering on integer keys is exact. Returns (records, bytes).
        """
        runtimes = self.engine.runtimes
        records = 0
        shipped = 0
        for runtime in runtimes:
            store = runtime.memo_store
            pid = runtime.pid
            for qid in store.active_queries():
                memo = store.peek(qid)
                for label in memo.labels():
                    tbl = memo.table(label)
                    hit = [k for k in tbl
                           if type(k) is int and applied.get(k, pid) != pid]
                    for key in hit:
                        value = tbl.pop(key)
                        dest = runtimes[applied[key]].memo_store.for_query(qid)
                        dest.table(label)[key] = value
                        records += 1
                        shipped += BYTES_PER_RECORD
                        if type(value) is list:
                            shipped += BYTES_PER_LIST_ELEMENT * len(value)
        return records, shipped

    def _sweep_runtime(self, runtime: "PartitionRuntime") -> int:
        """Re-route an old owner's queued + inboxed stale traversers.

        The migration counterpart of ``reclaim_query``'s rebuild sweep,
        but weight-preserving: strays leave this partition's queue (and
        release their inbox credits — they will re-acquire at the new
        home through the forward's gate submit) and go back on the wire
        toward their re-resolved owner. Stage counts move with them; the
        ledger never hears about it, because nothing was reclaimed.
        """
        engine = self.engine
        delivery = engine.delivery
        pid = runtime.pid
        strays: Dict[int, List["Traverser"]] = {}
        moved_counts: Dict[Tuple[int, int], int] = {}
        for source, inboxed in ((runtime.queue, False), (runtime.inbox, True)):
            if not source:
                continue
            kept = []
            n_strayed = 0
            for trav in source:
                target = retarget_pid(engine, trav, pid)
                if target == pid:
                    kept.append(trav)
                else:
                    strays.setdefault(target, []).append(trav)
                    key = (trav.query_id, trav.stage)
                    moved_counts[key] = moved_counts.get(key, 0) + 1
                    n_strayed += 1
            if n_strayed:
                source.clear()
                source.extend(kept)
                if inboxed and delivery.gates is not None:
                    delivery.gates[pid].release(n_strayed)
        if not strays:
            return 0
        for key, cnt in moved_counts.items():
            runtime.dec_stage_count(key, cnt)
        n = forward_batch(engine, engine.node_of(pid), strays, engine.clock.now)
        engine.metrics.traversers_forwarded += n
        return n
