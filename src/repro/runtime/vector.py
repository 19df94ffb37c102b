"""NumPy array programs for hot run shapes: per-run accelerations.

:class:`~repro.runtime.kernels.RunKernel` drains homogeneous runs through
the shared :class:`~repro.runtime.runs.RunDrain` machinery; for run shapes
that can be proven bit-for-bit equivalent to the scalar reference it
substitutes one of this module's fast paths — bulk NumPy computation in
place of the per-element inner loops — for the reference batched body:

* **Expand runs** (:func:`_expand_run`) — the dominant shape. Neighbor
  ranges are gathered from the zero-copy CSR views
  (:meth:`~repro.graph.csr.CSRIndex.np_arrays`) with ``np.repeat`` +
  ``np.arange`` arithmetic, step costs are priced as one float64 array
  expression, partition owners come from the placement plane's bulk
  lookup (:meth:`~repro.graph.placement.Placement.bulk_lookup` — the
  vectorized SplitMix64, or a gather from the home table), and the run's
  weight splits are drawn as **one** ``getrandbits(64·m)`` call decomposed
  little-endian — exactly the words the scalar path's ``m`` sequential
  ``getrandbits(64)`` calls would consume — with the per-parent remainders
  recovered from a ``uint64`` cumulative sum (wraparound *is* the
  Z\\ :sub:`2^64` group operation).
* **Dedup runs** (:func:`_dedup_run`) — first-wins dedup against the
  partition memo with ``np.unique`` pre-collapsing duplicate keys inside
  the run, so the memo dict is touched once per distinct key.
* **Fused branch+count runs** (:func:`_fused_branch_count_run`) — the
  k-hop hot loop after plan-level fusion
  (:class:`~repro.core.fused.FusedMinDistCount`): memo-pruned distance
  updates with the count partial absorbed in bulk and only loop
  continuations materialized.

Each fast path returns False — before consuming the RNG or mutating
anything — when a run falls outside its proven shape, and the kernel then
takes :meth:`RunDrain.execute_batch`, the exact reference batched body.
That is what makes per-run dispatch safe: every path reproduces the same
simulated trajectory, so mixing fast paths and fallbacks within one drain
is invisible to simulated time.

Equivalence constraints honored throughout (the fuzz suites assert them):

* float cost accumulation keeps the scalar path's exact addition order —
  per-element array expressions are bit-equal to the scalar expression,
  and the drain's running ``cpu`` sum is accumulated sequentially in run
  order (never ``np.sum``, which reduces pairwise);
* weight arithmetic stays in Z\\ :sub:`2^64` (``uint64`` wraparound);
  finished-weight totals are summed as exact Python ints because the
  reference accumulates arbitrary-precision;
* the fast paths are only entered when the drain-wide gate holds
  (partitioned state, coalesced progress, tracing off) — the shapes whose
  observable side effects are exactly "children + cost + finished weight".

NumPy is an optional dependency (``pip install 'repro[fast]'``): the
kernel selects a fast path only when ``HAVE_NUMPY`` is set, so importing
this module never requires NumPy.
"""

from __future__ import annotations

from typing import List

from repro.core.fused import FusedMinDistCount
from repro.core.steps import DedupOp, ExpandOp
from repro.core.traverser import Traverser
from repro.graph.placement import Placement
from repro.graph.property_graph import BOTH
from repro.runtime.runs import RunDrain

try:  # pragma: no cover - exercised via the numpy-absent fallback tests
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = ["HAVE_NUMPY", "MIN_VECTOR_RUN"]

#: Runs shorter than this go straight to the reference batched body: the
#: fixed NumPy dispatch overhead outweighs the bulk win on tiny runs.
#: Purely a wall-clock knob — both paths are bit-for-bit identical.
MIN_VECTOR_RUN = 8

if HAVE_NUMPY:
    _U64 = np.uint64


def _expand_run(d: RunDrain, op: ExpandOp, run: List[Traverser]) -> bool:
    """Vectorized CSR expansion of one run. Returns False (caller falls
    back) when the run's shape is outside the proven-equivalent fast path.

    All gates and pure computation happen before the RNG draw or any
    mutation, so a False return leaves the simulation state untouched.
    """
    if op.edge_slot is not None or op.edge_prop is not None:
        return False
    direction = op.direction
    label = op.edge_label
    if label is None or direction == BOTH:
        return False
    store = d.ctx.store
    adjacency = getattr(store, "adjacency", None)
    if adjacency is None:
        return False
    csr = adjacency(direction, label)
    if csr is None:
        return False
    next_idx = op.next_idx
    c_stage, c_mode, _child_op = d.route_info[next_idx]
    if c_mode not in ("vertex", "free", "fixed"):
        return False
    partitioner = d.partitioner
    if c_mode != "fixed" and not isinstance(partitioner, Placement):
        return False

    n = len(run)
    local_ix = store.local_index_map()
    offsets, targets = csr.np_arrays()
    lis = np.fromiter((local_ix[t.vertex] for t in run), np.int64, count=n)
    lo = offsets[lis]
    deg = offsets[lis + 1] - lo
    total = int(deg.sum())
    self_pid = d.self_pid

    if total:
        cum = np.cumsum(deg)
        starts = cum - deg
        # Child k of parent i sits at CSR position lo[i] + (k_global -
        # starts[i]): one gather instead of a slice per parent.
        child_v = targets[np.repeat(lo - starts, deg) + np.arange(total)]
        if c_mode == "fixed":
            pid_l = [d.barrier_route] * total
        else:
            if c_mode == "free" and int(child_v.min()) < 0:
                # Negative (pseudo) vertices route positionally under
                # "free"; CSR targets are real gids, so this never fires
                # in practice — bail to the reference loop if it does.
                return False
            pid_l = partitioner.bulk_lookup(child_v).tolist()
        # Weight splits, scalar-exact: parents with deg >= 2 consume
        # deg - 1 sequential 64-bit draws; the last child takes the
        # remainder in Z_{2^64}. One getrandbits(64*m) consumes exactly
        # the Mersenne Twister words of m sequential getrandbits(64)
        # calls, recovered little-endian.
        ws = np.array([t.weight % d.modulus for t in run], dtype=np.uint64)
        ends = np.repeat(cum, deg)
        is_last = np.arange(total) == ends - 1
        cw = np.empty(total, dtype=np.uint64)
        m = total - int(np.count_nonzero(deg))
        if m:
            big = d.getrandbits(64 * m)
            draws = np.frombuffer(big.to_bytes(8 * m, "little"), dtype=np.uint64)
            cw[~is_last] = draws
            segdraws = cw.copy()
            segdraws[is_last] = 0
            cs = np.cumsum(segdraws)  # uint64 wraparound == group addition
            prev = np.where(starts > 0, cs[starts - 1], _U64(0))
            last_w = ws - (cs[cum - 1] - prev)  # (w - sum(draws)) mod 2^64
        else:
            last_w = ws
        cw[is_last] = last_w[deg > 0]
        cw_l = cw.tolist()
        cv_l = child_v.tolist()
    else:
        cv_l = cw_l = pid_l = []

    # Per-parent step cost, bit-equal to the scalar expression
    # cpu_scale * (1*step_base + deg*edge + 0*memo + 0*prop): the +0.0
    # terms are exact for the non-negative partial sums, and float64
    # elementwise ops match Python float arithmetic bit for bit.
    cost_l = (d.cpu_scale * (d.step_base_us + deg * d.edge_us)).tolist()
    deg_l = deg.tolist()

    # --- emission: replay the reference loop with precomputed arrays ----
    query_id = d.run_qid
    op_idx = d.run_op_idx
    stage = d.run_stage
    t = d.t
    cpu = d.cpu
    worker = d.worker
    queue_append = d.queue.append
    dist_slot = op.dist_slot
    serialize_us = d.serialize_us
    track_inflight = d.track_inflight
    note_outbound = d.note_outbound
    trav_buffers = d.trav_buffers
    buffer_bytes = d.buffer_bytes
    flush_threshold = d.flush_threshold
    flush = d.flush
    size_cache = d.size_cache
    size_cache_get = size_cache.get
    last_payload = d.last_payload
    last_size = d.last_size
    local_bufs = d.local_bufs
    local_bytes = d.local_bytes
    fin_total = 0
    fin_count = 0
    local_count = 0
    k = 0
    for i, trav in enumerate(run):
        cpu += cost_l[i]
        dg = deg_l[i]
        if dg:
            payload = trav.payload
            if dist_slot is not None:
                dist = payload[dist_slot]
                dist = 1 if dist is None else dist + 1
                payload = (
                    payload[:dist_slot] + (dist,) + payload[dist_slot + 1 :]
                )
            loops = trav.loops + 1
            for _ in range(dg):
                pid = pid_l[k]
                child = Traverser(
                    query_id, cv_l[k], next_idx, payload, cw_l[k],
                    c_stage, loops,
                )
                k += 1
                if pid == self_pid:
                    queue_append(child)
                    local_count += 1
                else:
                    cpu += serialize_us
                    # Inlined _buffer_traverser, identical to the
                    # reference batched body in runs.py.
                    if track_inflight:
                        note_outbound(query_id)
                    dst_node = pid // d.ppn
                    buf = local_bufs[dst_node]
                    if buf is None:
                        buf = trav_buffers.get(dst_node)
                        if buf is None:
                            buf = trav_buffers[dst_node] = []
                        local_bufs[dst_node] = buf
                        local_bytes[dst_node] = buffer_bytes.get(dst_node, 0)
                    if payload is last_payload:
                        size = last_size
                    else:
                        last_payload = payload
                        pk = id(payload)
                        size = size_cache_get(pk)
                        if size is None:
                            size = child.estimated_size_bytes()
                            size_cache[pk] = size
                        last_size = size
                    buf.append((pid, child, size))
                    nbytes = local_bytes[dst_node] + size
                    local_bytes[dst_node] = nbytes
                    if nbytes >= flush_threshold:
                        buffer_bytes[dst_node] = nbytes
                        local_bufs[dst_node] = None
                        cpu += flush(dst_node, t + cpu)
        else:
            weight = trav.weight
            if weight:
                fin_total += weight
                fin_count += 1
    if local_count:
        key = (query_id, c_stage)
        stage_counts = d.stage_counts
        stage_counts[key] = stage_counts.get(key, 0) + local_count
    if fin_count:
        worker._accum(query_id, stage).absorb_many(fin_total, fin_count)
    d.cpu = cpu
    d.last_payload = last_payload
    d.last_size = last_size
    d.steps += n
    d.edges_scanned += total
    d.qmetrics.steps_executed += n
    op_steps = d.op_steps
    op_steps[op_idx] = op_steps.get(op_idx, 0) + n
    if total:
        d.spawned_total += total
        op_spawned = d.op_spawned
        op_spawned[op_idx] = op_spawned.get(op_idx, 0) + total
        d.qmetrics.traversers_spawned += total
    return True


def _dedup_run(d: RunDrain, op: DedupOp, run: List[Traverser]) -> bool:
    """Vectorized first-wins dedup for the default (vertex-key) shape.

    ``np.unique`` collapses in-run duplicates so the partition memo dict
    is consulted once per distinct key; admitted children inherit the full
    parent weight and are always partition-local (the op routed here by
    the same hash its children route by).
    """
    if op.routing_mode != "vertex":  # custom key_fn — reference path
        return False
    next_idx = op.next_idx
    c_stage, c_mode, _child_op = d.route_info[next_idx]
    if c_mode not in ("vertex", "free"):
        return False
    n = len(run)
    vs = np.fromiter((t.vertex for t in run), np.int64, count=n)
    if int(vs.min()) < 0:
        return False
    _uniq, first_ix = np.unique(vs, return_index=True)
    vs_l = vs.tolist()
    admit = bytearray(n)
    tbl = d.ctx.memo.table(op.memo_label)
    for j in first_ix.tolist():
        v = vs_l[j]
        if v not in tbl:
            tbl[v] = True
            admit[j] = 1
    # Uniform (1, 0, 1, 0) cost, priced once with the scalar expression.
    cost_us = d.cpu_scale * (
        1 * d.step_base_us
        + 0 * d.edge_us
        + 1 * d.memo_op_us
        + 0 * d.prop_us
    )
    query_id = d.run_qid
    stage = d.run_stage
    modulus = d.modulus
    cpu = d.cpu
    queue_append = d.queue.append
    fin_total = 0
    fin_count = 0
    local_count = 0
    for i, trav in enumerate(run):
        cpu += cost_us
        if admit[i]:
            queue_append(
                Traverser(
                    query_id, trav.vertex, next_idx, trav.payload,
                    trav.weight % modulus, c_stage, trav.loops,
                )
            )
            local_count += 1
        else:
            weight = trav.weight
            if weight:
                fin_total += weight
                fin_count += 1
    if local_count:
        key = (query_id, c_stage)
        stage_counts = d.stage_counts
        stage_counts[key] = stage_counts.get(key, 0) + local_count
    if fin_count:
        d.worker._accum(query_id, stage).absorb_many(fin_total, fin_count)
    d.cpu = cpu
    d.steps += n
    d.memo_ops_total += n
    d.qmetrics.steps_executed += n
    op_idx = d.run_op_idx
    op_steps = d.op_steps
    op_steps[op_idx] = op_steps.get(op_idx, 0) + n
    if local_count:
        d.spawned_total += local_count
        op_spawned = d.op_spawned
        op_spawned[op_idx] = op_spawned.get(op_idx, 0) + local_count
        d.qmetrics.traversers_spawned += local_count
    return True


def _fused_branch_count_run(
    d: RunDrain, op: FusedMinDistCount, run: List[Traverser]
) -> bool:
    """The fused k-hop hot loop: memo-pruned distance update + bulk count
    absorption + loop-only continuation. Children are always local (the
    loop target is the vertex-routed Expand that sent us here)."""
    c_stage, c_mode, _child_op = d.route_info[op.loop_idx]
    if c_mode != "vertex":
        return False
    memo = d.ctx.memo
    tbl = memo.table(op.memo_label)
    tbl_get = tbl.get
    dist_slot = op.dist_slot
    max_dist = op.max_dist
    loop_idx = op.loop_idx
    # The two cost points of the fused op, priced with the scalar
    # expression: pruned (1,0,1,0) and admitted (2,0,2,0).
    cost_pruned = d.cpu_scale * (
        1 * d.step_base_us
        + 0 * d.edge_us
        + 1 * d.memo_op_us
        + 0 * d.prop_us
    )
    cost_admit = d.cpu_scale * (
        2 * d.step_base_us
        + 0 * d.edge_us
        + 2 * d.memo_op_us
        + 0 * d.prop_us
    )
    count_first = op.count_first
    query_id = d.run_qid
    stage = d.run_stage
    modulus = d.modulus
    cpu = d.cpu
    queue_append = d.queue.append
    n = len(run)
    counted = 0
    memo_ops = 0
    fin_total = 0
    fin_count = 0
    local_count = 0
    for trav in run:
        vertex = trav.vertex
        dist = trav.payload[dist_slot]
        old = tbl_get(vertex)
        if old is not None and dist >= old:
            cpu += cost_pruned
            memo_ops += 1
            weight = trav.weight
            if weight:
                fin_total += weight
                fin_count += 1
            continue
        tbl[vertex] = dist
        if old is None or not count_first:
            counted += 1
        memo_ops += 2
        cpu += cost_admit
        if dist < max_dist:
            queue_append(
                Traverser(
                    query_id, vertex, loop_idx, trav.payload,
                    trav.weight % modulus, c_stage, trav.loops,
                )
            )
            local_count += 1
        else:
            weight = trav.weight
            if weight:
                fin_total += weight
                fin_count += 1
    if counted:
        atbl = memo.table(op.agg_label)
        atbl["partial"] = atbl.get("partial", 0) + counted
    if local_count:
        key = (query_id, c_stage)
        stage_counts = d.stage_counts
        stage_counts[key] = stage_counts.get(key, 0) + local_count
    if fin_count:
        d.worker._accum(query_id, stage).absorb_many(fin_total, fin_count)
    d.cpu = cpu
    d.steps += n
    d.memo_ops_total += memo_ops
    d.qmetrics.steps_executed += n
    op_idx = d.run_op_idx
    op_steps = d.op_steps
    op_steps[op_idx] = op_steps.get(op_idx, 0) + n
    if local_count:
        d.spawned_total += local_count
        op_spawned = d.op_spawned
        op_spawned[op_idx] = op_spawned.get(op_idx, 0) + local_count
        d.qmetrics.traversers_spawned += local_count
    return True
