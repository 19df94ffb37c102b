"""Two-tier message passing over a simulated NIC (paper §IV-B).

The paper's I/O path has two tiers:

1. **Thread-level combining (TLC)** — each worker keeps one buffer per
   destination node; messages are stashed until the buffer exceeds a flush
   threshold (8 KB) or the worker idles. This tier lives in
   :class:`repro.runtime.worker.Worker`.
2. **Node-level combining (NLC)** — flushed buffers from all workers of a
   node are merged by network threads into packs, one TCP send per
   destination node. Same-node messages short-cut through shared memory.

This module implements tier 2 plus the NIC: per-node serial egress with
per-packet overhead, bandwidth-proportional serialization time, and one-way
wire latency. Message-kind counters feed Fig 11; packet counters feed
Fig 12.

Tier 2 is **work-conserving and causal**: one pump per source node hands
the NIC a pack the instant the NIC and the node's network thread are both
free (the rule Linux's TCP autocorking uses: coalesce only while the
previous send is still in progress), and a pack holds only flushes whose
own instant has come. The network thread spends ``syscall_us`` on each
pack's send — the syscall tier 1 alone makes per flush, on the flushing
worker — so the next pack cannot start before it returns. At low load a
flush leaves when it was produced; under contention everything produced
while the previous send was in progress rides together, so packing grows
with load instead of being bought with a timer (:meth:`Network._pump`).

**Node-level weight coalescing.** Tier 2 is also the second tier of weight
coalescing (§IV-A): when the progress mode coalesces, every finished-weight
report leaving in a pack beside another report for the same
``(query, stage)`` is folded into it — one report carrying the sum in
the weight group, one ``tracker_msg_us`` on the query's tracker lane
(:meth:`Network._fold_weight_reports`).

**Reliability layer.** When the engine is configured with a
:class:`~repro.runtime.faults.FaultPlan`, every remote NIC packet carries a
per-``(src, dst)`` channel sequence number and is held by the sender until
acknowledged (:meth:`Network._nic_send` → :meth:`Network._transmit` →
:meth:`Network._receive_packet` → :meth:`Network._receive_ack`). Unacked
packets are retransmitted after a timeout with exponential backoff
(:meth:`Network._check_retransmit`); the receiver suppresses duplicate
sequence numbers, so drops and duplications injected by the fault plan
never lose or double-count a traverser's progression weight. With no fault
plan the layer is entirely disarmed and the send path is byte-identical to
the unreliable one. See ``docs/FAULTS.md`` for the full protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.weight import normalize_weight
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import FaultInjector
from repro.runtime.metrics import MsgKind, RunMetrics
from repro.runtime.simclock import SimClock
from repro.runtime.trace import (
    MSG_DELIVER,
    MSG_FAULT,
    MSG_RETRANSMIT,
    MSG_SEND,
    NODE_COALESCE,
    TraceRecorder,
)

#: destination pid used for the tracker/coordinator actor
TRACKER_DST = -1

#: retransmit timeout = RTO_RTT_MULTIPLIER × estimated round-trip time
RTO_RTT_MULTIPLIER = 4.0
#: exponential-backoff cap: retransmit interval never exceeds base × this
MAX_BACKOFF_FACTOR = 16.0


@dataclass(slots=True)
class Message:
    """One logical message (traverser pack, progress report, partial, ...).

    Attributes:
        kind: wire category (:class:`~repro.runtime.metrics.MsgKind`);
            decides how the engine dispatches the delivery.
        dst_pid: destination worker partition id, or :data:`TRACKER_DST`
            for the tracker/coordinator actor.
        payload: kind-specific body (a list of traversers, a progress
            tuple, a gathered partial, ...).
        size_bytes: estimated wire size, used for NIC serialization time
            and tier-1 flush accounting.
        query_id: owning query (``-1`` for query-less control traffic);
            used by the reliability layer to attribute retransmits and
            injected faults to :class:`~repro.runtime.metrics.QueryMetrics`.
    """

    kind: MsgKind
    dst_pid: int  # worker partition id, or TRACKER_DST
    payload: Any
    size_bytes: int
    query_id: int = -1


DeliverFn = Callable[[Message], None]

#: a staged flush's instant (``Network._staged`` rows lead with it)
_WHEN = itemgetter(0)


def _is_weight_report(msg: Message) -> bool:
    """A finished-weight report (the only foldable message: ``"delta"``
    reports are ordered counts, partials carry per-partition state)."""
    return msg.kind is MsgKind.PROGRESS and msg.payload[0] == "weight"


def _ships(msg: Message) -> Tuple[tuple, ...]:
    """The barrier partials riding a weight report, each ``(pid, version,
    value, bytes)`` (``Worker._flush_idle_accums`` appends them as a fifth
    payload element when it has one to ship)."""
    return msg.payload[4] if len(msg.payload) > 4 else ()


@dataclass
class _Packet:
    """Sender-side record of one unacknowledged reliable packet."""

    src: int
    dst: int
    seq: int
    messages: List[Message]
    total: int
    attempts: int = 0


class _DupFilter:
    """Receiver-side duplicate suppression for one ``(src, dst)`` channel.

    Tracks a contiguous watermark plus the out-of-order residue so memory
    stays bounded by the retransmit window, not the packet count.
    """

    __slots__ = ("_watermark", "_ahead")

    def __init__(self) -> None:
        self._watermark = -1  # every seq <= watermark has been delivered
        self._ahead: Set[int] = set()

    def admit(self, seq: int) -> bool:
        """Record ``seq``; True when it is new (first delivery)."""
        if seq <= self._watermark or seq in self._ahead:
            return False
        self._ahead.add(seq)
        while self._watermark + 1 in self._ahead:
            self._watermark += 1
            self._ahead.discard(self._watermark)
        return True


class Network:
    """Simulated cluster interconnect with optional node-level combining.

    The engine owns one instance; workers hand it flushed tier-1 buffers
    via :meth:`send` and it schedules deliveries on the shared
    :class:`~repro.runtime.simclock.SimClock`. When ``faults`` is given,
    remote packets additionally go through the ack/retransmit layer
    described in the module docstring.

    Args:
        clock: the run's discrete-event clock.
        num_nodes: cluster node count (NIC egress is serial per node).
        cost: calibrated cost model (tx time, latencies).
        metrics: run-wide counters to update.
        deliver: callback invoked for every arriving :class:`Message`.
        node_combining: enable tier-2 (NLC) packing of the same-destination
            buffers flushed while the node's previous send was in progress
            into one packet.
        coalesce_weights: the progress mode coalesces finished weight
            (tier 1, in the workers); with ``node_combining`` each pack
            then folds its same-``(query, stage)`` weight reports too.
        faults: arm the reliability layer and draw packet fates from this
            injector; ``None`` (default) keeps the classic lossless NIC.
        on_retransmit: called with a packet's messages each time it is
            retransmitted (the engine attributes these to per-query
            metrics).
        on_packet_fault: called with ``(kind, messages)`` when the injector
            drops/duplicates/delays a packet.
    """

    def __init__(
        self,
        clock: SimClock,
        num_nodes: int,
        cost: CostModel,
        metrics: RunMetrics,
        deliver: DeliverFn,
        node_combining: bool = True,
        coalesce_weights: bool = False,
        faults: Optional[FaultInjector] = None,
        on_retransmit: Optional[Callable[[List[Message]], None]] = None,
        on_packet_fault: Optional[Callable[[str, List[Message]], None]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.clock = clock
        self.num_nodes = num_nodes
        self.cost = cost
        self.metrics = metrics
        self.deliver = deliver
        self.node_combining = node_combining
        self._fold_weights = node_combining and coalesce_weights
        # message events carry query_id -1: a packed buffer mixes queries
        self.trace = trace
        # per-node NIC egress availability
        self._nic_free_at = [0.0] * num_nodes
        # NLC: per source node, the staged flushes ``(when, dst, messages,
        # total)`` in staging order, the instant its pump is armed for, and
        # the instant its network thread returns from the last pack's send
        self._staged: List[List[Tuple[float, int, List[Message], int]]] = [
            [] for _ in range(num_nodes)
        ]
        self._pump_at = [inf] * num_nodes
        self._thread_free_at = [0.0] * num_nodes
        # -- reliability layer (armed only when a FaultPlan is configured) --
        self.faults = faults
        self.on_retransmit = on_retransmit
        self.on_packet_fault = on_packet_fault
        if faults is not None:
            self._next_seq: Dict[Tuple[int, int], int] = {}
            self._unacked: Dict[Tuple[int, int, int], _Packet] = {}
            self._dup_filters: Dict[Tuple[int, int], _DupFilter] = {}
            # Base retransmit timeout: a few round trips, where one round
            # trip is two wire latencies plus serializing a full tier-1
            # buffer. Comfortably above the lossless ack delay, so a
            # zero-rate plan never fires a spurious retransmit.
            rtt = 2.0 * cost.hardware.network_latency_us + cost.tx_time_us(8192)
            self.rto_us = RTO_RTT_MULTIPLIER * rtt

    # -- public API ---------------------------------------------------------

    def send(self, src_node: int, dst_node: int, messages: List[Message], when: float) -> None:
        """Transmit a flushed buffer from ``src_node`` toward ``dst_node``.

        ``when`` is the flush instant. Same-node traffic takes the
        shared-memory shortcut (reliable by definition — the failure model
        only injects faults on the wire); remote traffic goes through the
        NIC, with node-level combining when enabled, and through the
        ack/retransmit layer when a fault plan is armed.
        """
        if not messages:
            return
        counters = self.metrics.messages
        traverser_kind = MsgKind.TRAVERSER
        total = 0
        for msg in messages:
            total += msg.size_bytes
            # A traverser batch is many logical messages packed into one
            # buffer flush; Fig 11 counts logical messages.
            kind = msg.kind
            if kind is traverser_kind and isinstance(msg.payload, list):
                counters[kind] += len(msg.payload)
            else:
                counters[kind] += 1
        if self.trace is not None:
            self.trace.emit(MSG_SEND, -1, src_node, dst_node, len(messages),
                            total)
        if src_node == dst_node:
            self._deliver_local(messages, when)
        elif self.node_combining:
            self._combine(src_node, dst_node, messages, total, when)
        else:
            self._nic_send(src_node, dst_node, messages, total, when)

    def _deliver_local(self, messages: List[Message], when: float) -> None:
        """Same-node delivery: one shared-memory hop, no NIC."""
        self.metrics.local_deliveries += len(messages)
        arrival = when + self.cost.hardware.shm_latency_us
        self.clock.schedule_at(arrival, lambda ms=messages: self._deliver_all(ms))

    # -- node-level combining --------------------------------------------------

    def _combine(
        self,
        src: int,
        dst: int,
        messages: List[Message],
        total: int,
        when: float,
    ) -> None:
        """Stage a flush on the ``src → dst`` stream; arm ``src``'s pump."""
        self._staged[src].append((when, dst, messages, total))
        self._arm_pump(src, when)

    def _arm_pump(self, src: int, when: float) -> None:
        """Arm ``src``'s pump for ``when``, the instant its NIC frees or
        the instant its network thread does, whichever is latest. An arm
        for an earlier instant supersedes a later one."""
        at = max(when, self._nic_free_at[src], self._thread_free_at[src])
        if at < self._pump_at[src]:
            self._pump_at[src] = at
            self.clock.schedule_at(at, lambda: self._pump(src, at))

    def _pump(self, src: int, at: float) -> None:
        """One NIC hand-off: if ``src``'s NIC and network thread are
        free, the stream whose oldest staged flush is earliest (ties:
        staging order) sends every flush it holds with ``when <= now`` as
        one pack, weight reports folded, and the thread is busy with its
        send for ``syscall_us``. Later-stamped flushes of a drain still in
        progress wait for the next pack — nothing leaves the node before
        it was produced — and the pump re-arms while anything is
        staged."""
        if at != self._pump_at[src]:
            return  # superseded
        self._pump_at[src] = inf
        staged = self._staged[src]
        now = self.clock.now
        if self._nic_free_at[src] <= now and self._thread_free_at[src] <= now:
            cost = self.cost
            self._thread_free_at[src] = now + cost.syscall_us * cost.cpu_scale
            dst = min(staged, key=_WHEN)[1]
            messages: List[Message] = []
            total = 0
            rest = []
            for entry in staged:
                if entry[1] == dst and entry[0] <= now:
                    messages.extend(entry[2])
                    total += entry[3]
                else:
                    rest.append(entry)
            self._staged[src] = staged = rest
            if self._fold_weights and len(messages) > 1:
                messages, total = self._fold_weight_reports(src, messages, total)
            self._nic_send(src, dst, messages, total, now)
        if staged:
            self._arm_pump(src, min(staged, key=_WHEN)[0])

    def _fold_weight_reports(
        self, node: int, messages: List[Message], total: int
    ) -> Tuple[List[Message], int]:
        """Fold a pack's same-``(query, stage)`` weight reports.

        The stage ledger is a sum in the weight group (Theorem 1), so
        replacing the reports of one key by one report carrying their sum
        is exact. The fold keeps the first report's slot in the pack and
        gives back the wire bytes of the others; it runs before the pack is
        sequenced, so a retransmitted or duplicated packet carries the same
        folded report and the receiver's filter still admits it exactly
        once. Returns the folded pack and its byte total.
        """
        slots: Dict[Tuple[int, int], int] = {}
        # per folded key: the input weights, every input's riding partials,
        # and the bytes of those the folded-in reports brought along
        folds: Dict[Tuple[int, int], list] = {}
        out: List[Message] = []
        for msg in messages:
            if not _is_weight_report(msg):
                out.append(msg)
                continue
            query_id, stage, weight = msg.payload[1:4]
            key = (query_id, stage)
            slot = slots.get(key)
            if slot is None:
                slots[key] = len(out)
                out.append(msg)
                continue
            fold = folds.get(key)
            if fold is None:
                first = out[slot]
                fold = folds[key] = [
                    [first.payload[3]], list(_ships(first)), 0
                ]
            ships = _ships(msg)
            riding = sum(ship[3] for ship in ships)
            fold[0].append(weight)
            fold[1].extend(ships)
            fold[2] += riding
            total -= msg.size_bytes - riding
        for (query_id, stage), (inputs, ships, riding) in folds.items():
            slot = slots[(query_id, stage)]
            weight = normalize_weight(sum(inputs))
            out[slot] = Message(
                MsgKind.PROGRESS, TRACKER_DST,
                ("weight", query_id, stage, weight)
                + ((tuple(ships),) if ships else ()),
                out[slot].size_bytes + riding, query_id,
            )
            self.metrics.progress_reports_coalesced += len(inputs) - 1
            if self.trace is not None:
                # a tuple: a recorded event may not alias mutable state
                self.trace.emit(NODE_COALESCE, query_id, node, stage,
                                len(inputs), weight, tuple(inputs))
        return out, total

    # -- NIC --------------------------------------------------------------------

    def _nic_send(
        self,
        src: int,
        dst: int,
        messages: List[Message],
        total: int,
        when: float,
    ) -> None:
        """One NIC packet: serialize on the egress port, then fly.

        Lossless path when no fault plan is armed; otherwise the packet is
        sequenced, tracked until acked, and handed to :meth:`_transmit`.
        """
        if self.faults is None:
            start = max(when, self._nic_free_at[src])
            tx = self.cost.tx_time_us(total)
            self._nic_free_at[src] = start + tx
            arrival = start + tx + self.cost.hardware.network_latency_us
            self.metrics.packets_sent += 1
            self.metrics.bytes_sent += total
            self.clock.schedule_at(arrival, lambda ms=messages: self._deliver_all(ms))
            return
        key = (src, dst)
        seq = self._next_seq.get(key, 0)
        self._next_seq[key] = seq + 1
        packet = _Packet(src, dst, seq, messages, total)
        self._unacked[(src, dst, seq)] = packet
        self._transmit(packet, when)

    # -- reliability layer -------------------------------------------------------

    def _transmit(self, packet: _Packet, when: float) -> None:
        """(Re)transmit one reliable packet and arm its retransmit timer.

        Every attempt occupies the NIC and is counted in ``packets_sent``;
        the fault injector then decides whether this copy is dropped,
        duplicated, or delayed on the wire.
        """
        start = max(when, self._nic_free_at[packet.src])
        tx = self.cost.tx_time_us(packet.total)
        self._nic_free_at[packet.src] = start + tx
        arrival = start + tx + self.cost.hardware.network_latency_us
        self.metrics.packets_sent += 1
        self.metrics.bytes_sent += packet.total
        packet.attempts += 1
        fate = self.faults.packet_fate()
        trace = self.trace
        if fate.delay_us:
            arrival += fate.delay_us
            self.metrics.packets_delayed += 1
            if trace is not None:
                trace.emit(MSG_FAULT, -1, "delay", packet.src, packet.dst,
                           packet.seq)
            if self.on_packet_fault is not None:
                self.on_packet_fault("delay", packet.messages)
        if fate.drop:
            self.metrics.packets_dropped += 1
            if trace is not None:
                trace.emit(MSG_FAULT, -1, "drop", packet.src, packet.dst,
                           packet.seq)
            if self.on_packet_fault is not None:
                self.on_packet_fault("drop", packet.messages)
        else:
            self.clock.schedule_at(
                arrival, lambda p=packet: self._receive_packet(p)
            )
        if fate.duplicate:
            # The network minted a second copy; it takes its own wire trip.
            self.metrics.packets_duplicated += 1
            if trace is not None:
                trace.emit(MSG_FAULT, -1, "duplicate", packet.src, packet.dst,
                           packet.seq)
            if self.on_packet_fault is not None:
                self.on_packet_fault("duplicate", packet.messages)
            dup_arrival = arrival + self.cost.hardware.network_latency_us
            self.clock.schedule_at(
                dup_arrival, lambda p=packet: self._receive_packet(p)
            )
        # Retransmit timer: exponential backoff, capped.
        backoff = min(2.0 ** (packet.attempts - 1), MAX_BACKOFF_FACTOR)
        self.clock.schedule_at(
            start + tx + self.rto_us * backoff,
            lambda p=packet: self._check_retransmit(p),
        )

    def _check_retransmit(self, packet: _Packet) -> None:
        """Timer expiry: resend the packet unless its ack arrived."""
        if (packet.src, packet.dst, packet.seq) not in self._unacked:
            return  # acknowledged in time
        self.metrics.retransmits += 1
        if self.trace is not None:
            self.trace.emit(MSG_RETRANSMIT, -1, packet.src, packet.dst,
                            packet.seq, packet.attempts)
        if self.on_retransmit is not None:
            self.on_retransmit(packet.messages)
        self._transmit(packet, self.clock.now)

    def _receive_packet(self, packet: _Packet) -> None:
        """Reliable-path arrival: dedup by sequence number, deliver, ack.

        Duplicates (network-minted copies *and* spurious retransmits) are
        suppressed but still acknowledged — the sender may be resending
        precisely because the first ack was lost.
        """
        key = (packet.src, packet.dst)
        dup_filter = self._dup_filters.get(key)
        if dup_filter is None:
            dup_filter = self._dup_filters[key] = _DupFilter()
        if dup_filter.admit(packet.seq):
            self._deliver_all(packet.messages)
        else:
            self.metrics.duplicates_suppressed += 1
        if self.faults.drop_ack():
            return  # the retransmit timer will recover
        self.metrics.acks_sent += 1
        # Acks are tiny control frames piggybacked on reverse traffic; they
        # pay wire latency but no modelled NIC occupancy.
        self.clock.schedule_at(
            self.clock.now + self.cost.hardware.network_latency_us,
            lambda p=packet: self._receive_ack(p),
        )

    def _receive_ack(self, packet: _Packet) -> None:
        """Sender-side ack arrival: release the unacked record."""
        self._unacked.pop((packet.src, packet.dst, packet.seq), None)

    @property
    def unacked_packets(self) -> int:
        """Reliable packets still awaiting acknowledgement (0 when idle)."""
        if self.faults is None:
            return 0
        return len(self._unacked)

    # -- delivery ----------------------------------------------------------------

    def _deliver_all(self, messages: List[Message]) -> None:
        """Hand every message of an arrived packet to the engine."""
        if self.trace is not None:
            self.trace.emit(MSG_DELIVER, -1, len(messages))
        for msg in messages:
            self.deliver(msg)
