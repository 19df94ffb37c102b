"""Tests for the two-tier network simulation (paper §IV-B)."""

import pytest

from repro.core.weight import GROUP_MODULUS
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.kernels import PROGRESS_MSG_BYTES
from repro.runtime.metrics import MsgKind, RunMetrics
from repro.runtime.network import Message, Network, TRACKER_DST
from repro.runtime.simclock import SimClock


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
    def test_flushes_within_window_share_one_packet(self):
        clock, metrics, delivered, net = make_network(node_combining=True)
        cm = CostModel()
        net.send(0, 1, [msg()], when=0.0)
        net.send(0, 1, [msg()], when=cm.nlc_window_us / 2)
        clock.run_until_idle()
        assert metrics.packets_sent == 1
        assert len(delivered) == 2

    def test_window_adds_latency(self):
        clock, metrics, delivered, net = make_network(node_combining=True)
        cm = CostModel()
        net.send(0, 1, [msg(size=16)], when=0.0)
        clock.run_until_idle()
        at = delivered[0][0]
        assert at >= cm.nlc_window_us  # combining delay included

    def test_flushes_after_window_use_new_packet(self):
        clock, metrics, delivered, net = make_network(node_combining=True)
        cm = CostModel()
        net.send(0, 1, [msg()], when=0.0)
        clock.run_until(cm.nlc_window_us + 1)
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
    """Tier 2 of weight coalescing: the combiner window folds
    same-(query, stage) weight reports (paper §IV-A over §IV-B)."""

    def test_same_key_in_one_window_folds_to_one_report(self):
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        big = GROUP_MODULUS - 5  # the sum wraps: the ledger is mod 2^64
        net.send(1, 0, [report(big)], when=0.0)
        net.send(1, 0, [report(7), report(11)], when=1.0)
        clock.run_until_idle()
        assert [m.payload for _at, m in delivered] == [("weight", 1, 0, 13)]
        assert delivered[0][1].size_bytes == PROGRESS_MSG_BYTES
        assert metrics.bytes_sent == PROGRESS_MSG_BYTES
        assert metrics.packets_sent == 1
        assert metrics.progress_reports_coalesced == 2
        # counted where the workers emitted them, not after the fold
        assert metrics.messages[MsgKind.PROGRESS] == 3

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
        clock.run_until(cm.nlc_window_us + 1)
        net.send(1, 0, [report(4)], when=clock.now)
        clock.run_until_idle()
        assert [m.payload[3] for _at, m in delivered] == [3, 4]
        assert metrics.packets_sent == 2
        assert metrics.progress_reports_coalesced == 1

    def test_tracker_node_reports_fold_in_their_own_window_over_shm(self):
        clock, metrics, delivered, net = make_network(coalesce_weights=True)
        cm = CostModel()
        batch = Message(MsgKind.TRAVERSER, 1, ["t1"], 40, 1)
        net.send(0, 0, [report(1), batch], when=0.0)
        net.send(0, 0, [report(2)], when=1.0)
        net.send(1, 0, [report(8)], when=0.0)  # another node's window
        clock.run_until_idle()
        shm = cm.hardware.shm_latency_us
        local = [(at, m.payload) for at, m in delivered if at < cm.nlc_window_us + shm + 1e-9]
        # the co-located traverser batch keeps the per-flush shortcut; the
        # two reports wait for node 0's window, then cross shared memory
        assert local == [
            (pytest.approx(shm), ["t1"]),
            (pytest.approx(cm.nlc_window_us + shm), ("weight", 1, 0, 3)),
        ]
        remote = delivered[-1]
        assert remote[1].payload == ("weight", 1, 0, 8)
        assert remote[0] > cm.nlc_window_us + cm.hardware.network_latency_us
        assert metrics.packets_sent == 1  # only node 1's report hit a NIC
        assert metrics.bytes_sent == PROGRESS_MSG_BYTES
        assert metrics.local_deliveries == 2
        assert metrics.progress_reports_coalesced == 1

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
