"""Tests for the two-tier network simulation (paper §IV-B)."""

import random

import pytest

from repro.core.weight import GROUP_MODULUS
from repro.runtime.costmodel import CostModel
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.metrics import MsgKind, RunMetrics
from repro.runtime.network import Message, Network, TRACKER_DST
from repro.runtime.runs import PROGRESS_MSG_BYTES
from repro.runtime.simclock import SimClock
from tests.conftest import KERNELS


def make_network(node_combining=True, num_nodes=2, coalesce_weights=False,
                 faults=None):
    clock = SimClock()
    metrics = RunMetrics()
    delivered = []
    net = Network(
        clock, num_nodes, CostModel(), metrics,
        deliver=lambda msg: delivered.append((clock.now, msg)),
        node_combining=node_combining,
        coalesce_weights=coalesce_weights,
        faults=faults,
    )
    return clock, metrics, delivered, net


def msg(kind=MsgKind.PROGRESS, dst=0, payload="x", size=16, qid=1):
    return Message(kind, dst, payload, size, qid)


def watch_packs(net):
    """Shim ``_combine`` and ``_nic_send``: returns ``(packs, early)`` —
    every pack as ``(NIC start, src, dst, [when of each flush in it])`` and
    every ``(when, start)`` of a flush whose pack started transmitting
    before the flush's own instant (the causality leak; must stay empty).
    """
    packs, early = [], []
    staged = [[] for _ in range(net.num_nodes)]  # (when, the flush's list)
    real_combine, real_nic_send = net._combine, net._nic_send

    def combine(src, dst, messages, total, when):
        staged[src].append((when, messages))
        real_combine(src, dst, messages, total, when)

    def nic_send(src, dst, messages, total, when):
        start = max(when, net._nic_free_at[src])
        held = {id(row[2]) for row in net._staged[src]}  # not in this pack
        left = [w for w, ms in staged[src] if id(ms) not in held]
        staged[src] = [(w, ms) for w, ms in staged[src] if id(ms) in held]
        packs.append((start, src, dst, left))
        early.extend((w, start) for w in left if w > start)
        real_nic_send(src, dst, messages, total, when)

    net._combine, net._nic_send = combine, nic_send
    return packs, early


class TestLocalDelivery:
    def test_same_node_uses_shared_memory(self):
        clock, metrics, delivered, net = make_network()
        net.send(0, 0, [msg()], when=0.0)
        clock.run_until_idle()
        assert len(delivered) == 1
        at, _m = delivered[0]
        assert at == pytest.approx(CostModel().hardware.shm_latency_us)
        assert metrics.packets_sent == 0
        assert metrics.local_deliveries == 1

    def test_empty_send_is_noop(self):
        clock, metrics, delivered, net = make_network()
        net.send(0, 1, [], when=0.0)
        clock.run_until_idle()
        assert delivered == []


class TestRemoteDelivery:
    def test_arrival_includes_tx_and_latency(self):
        clock, metrics, delivered, net = make_network(node_combining=False)
        cm = CostModel()
        net.send(0, 1, [msg(size=25_000)], when=0.0)
        clock.run_until_idle()
        at, _m = delivered[0]
        expected = cm.tx_time_us(25_000) + cm.hardware.network_latency_us
        assert at == pytest.approx(expected)
        assert metrics.packets_sent == 1
        assert metrics.bytes_sent == 25_000

    def test_nic_serializes_packets(self):
        """Two sends from the same node queue behind each other's tx."""
        clock, metrics, delivered, net = make_network(node_combining=False)
        cm = CostModel()
        big = 25_000  # 1 µs of tx at 200 Gbps
        net.send(0, 1, [msg(size=big)], when=0.0)
        net.send(0, 1, [msg(size=big)], when=0.0)
        clock.run_until_idle()
        t1, t2 = delivered[0][0], delivered[1][0]
        assert t2 - t1 == pytest.approx(cm.tx_time_us(big))

    def test_different_source_nodes_do_not_serialize(self):
        clock, metrics, delivered, net = make_network(
            node_combining=False, num_nodes=3
        )
        net.send(0, 2, [msg(size=25_000)], when=0.0)
        net.send(1, 2, [msg(size=25_000)], when=0.0)
        clock.run_until_idle()
        assert delivered[0][0] == pytest.approx(delivered[1][0])


class TestNodeCombining:
    """Tier 2 is one NIC pump per source node: work-conserving (a pack
    leaves the instant the NIC and the node's network thread are free)
    and causal (a pack holds only flushes whose own instant has come).
    The only "window" left is the time the previous send takes: the
    NIC's serialization or the network thread's send syscall, whichever
    is longer."""

    def test_network_thread_pays_one_send_syscall_per_pack(self):
        """Small packs leave one ``syscall_us`` apart (the thread's send,
        scaled with compute); a pack whose serialization takes longer
        holds the next one for its own transmit time instead."""
        for cm in (CostModel(), CostModel().scaled_cpu(2.0)):
            clock = SimClock()
            net = Network(clock, 2, cm, RunMetrics(),
                          deliver=lambda m: None, node_combining=True)
            packs, early = watch_packs(net)
            thread = cm.syscall_us * cm.cpu_scale
            big = int(4 * thread * cm.hardware.bytes_per_us)
            tx_big = cm.tx_time_us(big)
            for when, size in ((0.0, 16), (0.1, big), (thread + 0.1, 16),
                               (thread + tx_big + 0.1, 16)):
                net.send(0, 1, [msg(size=size)], when=when)
            clock.run_until_idle()
            assert [start for start, *_ in packs] == pytest.approx(
                [0.0, thread, thread + tx_big, 2 * thread + tx_big])
            assert not early

    def test_lone_flush_on_an_idle_nic_starts_at_its_own_instant(self):
        clock, metrics, delivered, net = make_network(node_combining=True)
        packs, early = watch_packs(net)
        cm = CostModel()
        net.send(0, 1, [msg(size=16)], when=2.5)
        clock.run_until_idle()
        assert packs == [(2.5, 0, 1, [2.5])] and not early
        assert delivered[0][0] == pytest.approx(
            2.5 + cm.tx_time_us(16) + cm.hardware.network_latency_us)

    def test_flushes_within_window_share_one_packet(self):
        """Two flushes staged while the NIC is busy with a third leave as
        one packet the instant it frees."""
        clock, metrics, delivered, net = make_network(node_combining=True)
        packs, early = watch_packs(net)
        tx = CostModel().tx_time_us(16)
        net.send(0, 1, [msg()], when=0.0)
        net.send(0, 1, [msg()], when=tx / 4)
        net.send(0, 1, [msg()], when=tx / 2)
        clock.run_until_idle()
        # the next pack waits for the NIC and the network thread's send
        free = max(tx, CostModel().syscall_us)
        assert packs == [(0.0, 0, 1, [0.0]), (free, 0, 1, [tx / 4, tx / 2])]
        assert not early
        assert metrics.packets_sent == 2
        assert len(delivered) == 3

    def test_later_stamped_flush_waits_for_the_next_pack(self):
        """One drain event stamps its flushes at ``t + cpu``: a flush staged
        before the pump fires but stamped after it goes in the next pack,
        never out of the node before it was produced."""
        clock, metrics, delivered, net = make_network(node_combining=True)
        packs, early = watch_packs(net)
        tx = CostModel().tx_time_us(16)
        net.send(0, 1, [msg()], when=0.0)
        net.send(0, 1, [msg()], when=3.0)  # same event, later instant
        clock.run_until_idle()
        assert packs == [(0.0, 0, 1, [0.0]), (3.0, 0, 1, [3.0])]
        assert not early
        assert delivered[1][0] - delivered[0][0] == pytest.approx(3.0)
        assert delivered[1][0] > 3.0 + tx

    def test_earlier_stamped_flush_supersedes_an_armed_pump(self):
        clock, metrics, delivered, net = make_network(node_combining=True)
        packs, early = watch_packs(net)
        net.send(0, 1, [msg()], when=3.0)
        net.send(0, 1, [msg()], when=1.0)
        clock.run_until_idle()
        assert packs == [(1.0, 0, 1, [1.0]), (3.0, 0, 1, [3.0])]
        assert not early

    def test_flushes_after_window_use_new_packet(self):
        clock, metrics, delivered, net = make_network(node_combining=True)
        cm = CostModel()
        net.send(0, 1, [msg()], when=0.0)
        clock.run_until(cm.tx_time_us(16) + 1)
        net.send(0, 1, [msg()], when=clock.now)
        clock.run_until_idle()
        assert metrics.packets_sent == 2

    def test_combiner_is_per_node_pair(self):
        clock, metrics, delivered, net = make_network(
            node_combining=True, num_nodes=3
        )
        net.send(0, 1, [msg()], when=0.0)
        net.send(0, 2, [msg()], when=0.0)
        clock.run_until_idle()
        assert metrics.packets_sent == 2

    def test_older_stream_goes_first(self):
        """Streams to two destinations share the node's one NIC: the one
        whose oldest staged flush is earliest is served first, and what
        its stream staged meanwhile rides along."""
        clock, metrics, delivered, net = make_network(
            node_combining=True, num_nodes=3
        )
        packs, early = watch_packs(net)
        cm = CostModel()
        tx = cm.tx_time_us(16)
        net.send(0, 1, [msg()], when=0.0)  # occupies the NIC and thread
        net.send(0, 2, [msg()], when=0.5)
        net.send(0, 1, [msg()], when=0.25)
        net.send(0, 1, [msg()], when=0.75)
        clock.run_until_idle()
        free = max(tx, cm.syscall_us)
        assert packs == [
            (0.0, 0, 1, [0.0]),
            (free, 0, 1, [0.25, 0.75]),
            (free + max(cm.tx_time_us(32), cm.syscall_us), 0, 2, [0.5]),
        ]
        assert not early

    def test_equal_instants_go_in_staging_order(self):
        clock, metrics, delivered, net = make_network(
            node_combining=True, num_nodes=3
        )
        packs, early = watch_packs(net)
        net.send(0, 2, [msg()], when=0.0)
        net.send(0, 1, [msg()], when=0.0)
        clock.run_until_idle()
        assert [dst for _start, _src, dst, _whens in packs] == [2, 1]


class TestMessageAccounting:
    def test_logical_message_counts_by_kind(self):
        clock, metrics, delivered, net = make_network()
        net.send(0, 1, [msg(MsgKind.PROGRESS), msg(MsgKind.PARTIAL)], when=0.0)
        clock.run_until_idle()
        assert metrics.messages[MsgKind.PROGRESS] == 1
        assert metrics.messages[MsgKind.PARTIAL] == 1

    def test_traverser_batches_count_each_traverser(self):
        clock, metrics, delivered, net = make_network()
        batch = Message(MsgKind.TRAVERSER, 3, ["t1", "t2", "t3"], 120, 1)
        net.send(0, 1, [batch], when=0.0)
        clock.run_until_idle()
        assert metrics.messages[MsgKind.TRAVERSER] == 3


def report(weight, qid=1, stage=0, tag="weight"):
    return Message(MsgKind.PROGRESS, TRACKER_DST, (tag, qid, stage, weight),
                   PROGRESS_MSG_BYTES, qid)


class TestNodeWeightCoalescing:
    """Tier 2 of weight coalescing: each pack — the flushes staged while
    the node's NIC was busy — folds its same-(query, stage) weight
    reports (paper §IV-A over §IV-B)."""

    def test_same_key_in_one_window_folds_to_one_report(self):
        """The window is the NIC's busy time: reports staged during it
        leave as one pack and fold per pack."""
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        big = GROUP_MODULUS - 5  # the sum wraps: the ledger is mod 2^64
        net.send(1, 0, [report(1, qid=9)], when=0.0)  # occupies the NIC
        net.send(1, 0, [report(big)], when=0.25)
        net.send(1, 0, [report(7), report(11)], when=0.5)
        clock.run_until_idle()
        assert [m.payload for _at, m in delivered] == [
            ("weight", 9, 0, 1), ("weight", 1, 0, 13)]
        assert delivered[1][1].size_bytes == PROGRESS_MSG_BYTES
        assert metrics.bytes_sent == 2 * PROGRESS_MSG_BYTES
        assert metrics.packets_sent == 2
        assert metrics.progress_reports_coalesced == 2
        # counted where the workers emitted them, not after the fold
        assert metrics.messages[MsgKind.PROGRESS] == 4

    def test_other_stage_query_tag_and_kind_never_fold(self):
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        partial = Message(MsgKind.PARTIAL, TRACKER_DST,
                          ("partial", 1, 0, "p"), 40, 1)
        sent = [
            report(3), report(5, stage=1), report(7, qid=2),
            report(1, tag="delta"), report(1, tag="delta"), partial, partial,
        ]
        net.send(1, 0, sent, when=0.0)
        clock.run_until_idle()
        assert [m.payload for _at, m in delivered] == [m.payload for m in sent]
        assert metrics.progress_reports_coalesced == 0
        assert metrics.bytes_sent == sum(m.size_bytes for m in sent)

    def test_fold_keeps_the_first_reports_slot_in_the_pack(self):
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        net.send(1, 0, [report(1), report(2, qid=2), report(4)], when=0.0)
        clock.run_until_idle()
        assert [m.payload for _at, m in delivered] == [
            ("weight", 1, 0, 5), ("weight", 2, 0, 2)]

    def test_report_after_the_window_fired_rides_the_next_one(self):
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        cm = CostModel()
        net.send(1, 0, [report(1), report(2)], when=0.0)
        clock.run_until(cm.tx_time_us(2 * PROGRESS_MSG_BYTES) + 1)
        net.send(1, 0, [report(4)], when=clock.now)
        clock.run_until_idle()
        assert [m.payload[3] for _at, m in delivered] == [3, 4]
        assert metrics.packets_sent == 2
        assert metrics.progress_reports_coalesced == 1

    def test_home_node_reports_cross_shm_unfolded(self):
        """With no timer there is nothing for a home node's own reports to
        wait for: they take the shared-memory shortcut like all same-node
        traffic, one delivery per report, at ``when + shm_latency_us``."""
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        cm = CostModel()
        batch = Message(MsgKind.TRAVERSER, 1, ["t1"], 40, 1)
        net.send(0, 0, [report(1), batch], when=0.0)
        net.send(0, 0, [report(2)], when=1.0)
        net.send(1, 0, [report(8)], when=0.0)  # a remote report: the NIC
        clock.run_until_idle()
        shm = cm.hardware.shm_latency_us
        assert [(at, m.payload) for at, m in delivered[:3]] == [
            (pytest.approx(shm), ("weight", 1, 0, 1)),
            (pytest.approx(shm), ["t1"]),
            (pytest.approx(1.0 + shm), ("weight", 1, 0, 2)),
        ]
        at, remote = delivered[3]
        assert remote.payload == ("weight", 1, 0, 8)
        assert at == pytest.approx(cm.tx_time_us(PROGRESS_MSG_BYTES)
                                   + cm.hardware.network_latency_us)
        assert metrics.packets_sent == 1  # only node 1's report hit a NIC
        assert metrics.bytes_sent == PROGRESS_MSG_BYTES
        assert metrics.local_deliveries == 3
        assert metrics.progress_reports_coalesced == 0

    def test_folded_report_survives_drops_and_dups_exactly_once(self):
        """The fold happens before the pack is sequenced, so a retransmitted
        or duplicated packet carries the same folded report and the
        receiver's sequence filter admits it once (docs/FAULTS.md)."""
        retransmits = suppressed = 0
        for seed in range(8):
            clock, metrics, delivered, net = make_network(
                coalesce_weights=True,
                faults=FaultInjector(FaultPlan(
                    seed=seed, drop_rate=0.4, dup_rate=0.4,
                    ack_drop_rate=0.2)))
            for w in (3, 5, 9):
                net.send(1, 0, [report(w)], when=0.0)
            clock.run_until_idle()
            assert [m.payload for _at, m in delivered] == [("weight", 1, 0, 17)]
            assert net.unacked_packets == 0
            retransmits += metrics.retransmits
            suppressed += metrics.duplicates_suppressed
        assert retransmits > 0 and suppressed > 0

    @pytest.mark.parametrize("node_combining, coalesce_weights",
                             [(True, False), (False, True)])
    def test_fold_needs_both_tiers(self, node_combining, coalesce_weights):
        """WEIGHTED_IMMEDIATE over NLC, and coalescing over IO_TLC/IO_SYNC,
        keep one tracker message per report (the Fig 10-12 ablation bars)."""
        clock, metrics, delivered, net = make_network(
            node_combining=node_combining, coalesce_weights=coalesce_weights)
        net.send(1, 0, [report(1), report(2)], when=0.0)
        net.send(0, 0, [report(4), report(8)], when=0.0)
        clock.run_until_idle()
        assert sorted(m.payload[3] for _at, m in delivered) == [1, 2, 4, 8]
        assert metrics.progress_reports_coalesced == 0
        shm = CostModel().hardware.shm_latency_us
        assert [at for at, m in delivered if m.payload[3] >= 4] == [
            pytest.approx(shm)] * 2


class TestCausalUnderLoad:
    """Engine level: a drain is one event at ``t`` that stamps its flushes
    at ``t + cpu``. Under the old fixed-window timer 29 % of them on a
    saturated IC run joined a window firing before their own instant."""

    NODES, WPN = 4, 2

    @pytest.fixture(scope="class")
    def snb(self):
        from repro.ldbc.generator import SNB_TINY, generate_snb
        dataset = generate_snb(SNB_TINY)
        return dataset, dataset.partitioned(self.NODES * self.WPN)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_flush_leaves_before_its_own_instant(self, snb, kernel):
        from repro.ldbc.queries.ic import IC_QUERIES
        dataset, graph = snb
        numbers = sorted(IC_QUERIES)
        plans = {n: IC_QUERIES[n].build().compile(graph) for n in numbers}
        engine = AsyncPSTMEngine(graph, self.NODES, self.WPN,
                                 config=EngineConfig(kernel=kernel))
        packs, early = watch_packs(engine.network)

        def query(i):
            number = numbers[i % len(numbers)]
            params = IC_QUERIES[number].make_params(
                dataset, random.Random(700 + i))
            return plans[number], params

        engine.run_closed_loop(query, clients=32, total_queries=96)
        assert len(engine.completed) == 96
        assert early == []
        # the run had contention: packs did combine flushes, and every
        # staged flush left in exactly one pack
        assert any(len(whens) > 1 for _s, _src, _dst, whens in packs)
        assert not any(engine.network._staged)
        assert len(packs) == engine.metrics.packets_sent
