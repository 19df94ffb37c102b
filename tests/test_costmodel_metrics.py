"""Tests for hardware profiles, the cost model, and run metrics."""

import pytest

from repro.core.steps import OpCost
from repro.errors import ConfigurationError
from repro.runtime.costmodel import (
    CostModel,
    HardwareProfile,
    LEGACY_BOTH,
    LEGACY_CORES_8,
    LEGACY_NET_1G,
    MODERN,
    validate_cluster,
)
from repro.runtime.metrics import LatencyRecorder, MsgKind, QueryMetrics, RunMetrics


class TestHardwareProfile:
    def test_modern_matches_paper_testbed(self):
        assert MODERN.cores_per_node == 48       # 2× Xeon Gold 6240R
        assert MODERN.network_gbps == 200.0
        assert MODERN.ram_gb == 384.0

    def test_bytes_per_us(self):
        assert MODERN.bytes_per_us == pytest.approx(25_000.0)  # 200 Gbps

    def test_scaled_derivations(self):
        assert LEGACY_NET_1G.network_gbps == 1.0
        assert LEGACY_NET_1G.cores_per_node == MODERN.cores_per_node
        assert LEGACY_CORES_8.cores_per_node == 8
        assert LEGACY_BOTH.network_gbps == 10.0
        assert LEGACY_BOTH.cores_per_node == 8

    def test_profiles_are_frozen(self):
        with pytest.raises(Exception):
            MODERN.network_gbps = 1.0  # type: ignore[misc]


class TestCostModel:
    def test_op_cost_pricing(self):
        cm = CostModel()
        cost = OpCost(base=1, edges=10, memo_ops=2, props=1)
        expected = (1 * cm.step_base_us + 10 * cm.edge_us
                    + 2 * cm.memo_op_us + 1 * cm.prop_us)
        assert cm.op_cost_us(cost) == pytest.approx(expected)

    def test_cpu_scale_multiplies(self):
        cm = CostModel().scaled_cpu(2.0)
        assert cm.op_cost_us(OpCost()) == pytest.approx(2 * 0.15)

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_degenerate_cpu_scale_rejected(self, scale):
        with pytest.raises(ConfigurationError, match="cpu_scale"):
            CostModel(cpu_scale=scale)
        with pytest.raises(ConfigurationError, match="cpu_scale"):
            CostModel().scaled_cpu(scale)

    def test_tx_time_includes_packet_overhead(self):
        cm = CostModel()
        zero = cm.tx_time_us(0)
        assert zero == pytest.approx(MODERN.nic_packet_overhead_us)
        assert cm.tx_time_us(25_000) == pytest.approx(zero + 1.0)

    def test_reduced_bandwidth_slows_tx(self):
        slow = CostModel().with_hardware(LEGACY_NET_1G)
        fast = CostModel()
        assert slow.tx_time_us(10_000) > fast.tx_time_us(10_000)

    def test_shared_state_penalty_grows_with_contention(self):
        cm = CostModel()
        cost = OpCost(memo_ops=2, props=2)
        p1 = cm.shared_state_penalty_us(cost, 1)
        p4 = cm.shared_state_penalty_us(cost, 4)
        assert p4 > p1 > 0

    def test_validate_cluster(self):
        validate_cluster(8, 16, MODERN)
        with pytest.raises(ConfigurationError):
            validate_cluster(0, 4, MODERN)
        with pytest.raises(ConfigurationError):
            validate_cluster(1, 0, MODERN)
        with pytest.raises(ConfigurationError):
            validate_cluster(1, 9, LEGACY_CORES_8)  # 9 workers > 8 cores


class TestRunMetrics:
    def test_message_counters(self):
        m = RunMetrics()
        m.messages[MsgKind.TRAVERSER] += 5
        m.messages[MsgKind.PROGRESS] += 2
        m.messages[MsgKind.PARTIAL] += 1
        assert m.progress_messages == 2
        assert m.other_messages == 6
        assert m.message_count(MsgKind.SEED) == 0

    def test_snapshot_has_all_kinds(self):
        snap = RunMetrics().snapshot()
        for kind in MsgKind:
            assert f"messages_{kind.value}" in snap
        assert "steps_executed" in snap


class TestQueryMetrics:
    def test_latency(self):
        qm = QueryMetrics(1, "q", submitted_at_us=10.0, completed_at_us=35.0)
        assert qm.latency_us == 25.0
        assert qm.done

    def test_incomplete_latency_raises(self):
        qm = QueryMetrics(1, "q", submitted_at_us=10.0)
        assert not qm.done
        with pytest.raises(ValueError):
            _ = qm.latency_us


class TestLatencyRecorder:
    def test_average(self):
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.record(v)
        assert rec.average() == 2.0
        assert len(rec) == 3

    def test_percentiles_nearest_rank(self):
        rec = LatencyRecorder()
        for v in range(1, 101):
            rec.record(float(v))
        assert rec.percentile(0) == 1.0
        assert rec.percentile(50) == 50.0   # ⌈0.50·100⌉ = 50th value
        assert rec.p99() == 99.0            # ⌈0.99·100⌉ = 99th value
        assert rec.percentile(100) == 100.0

    def test_empty_recorder_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().average()
        with pytest.raises(ValueError):
            LatencyRecorder().p99()

    def test_percentile_range_checked(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_values_copy(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        values = rec.values
        values.append(2.0)
        assert len(rec) == 1


class TestDocumentedConstants:
    """docs/SIMULATION.md's "The constants" section is held to the cost
    model's defaults, and docs/OBSERVABILITY.md's "The store" to the trace
    store's ``CHUNK_EVENTS`` and ``CODEC_LEVEL``, by
    ``tools/check_docs_symbols.py``."""

    @pytest.fixture
    def tool(self):
        import sys
        from pathlib import Path
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        try:
            import check_docs_symbols
        finally:
            sys.path.pop(0)
        return check_docs_symbols

    def test_the_docs_match_the_code(self, tool):
        assert tool.constants_errors() == []

    def test_deleted_and_retuned_constants_are_caught(
            self, tool, tmp_path, monkeypatch):
        doc = tmp_path / "SIMULATION.md"
        doc.write_text(
            "## The constants\n"
            "`edge_us=0.02`, `network_gbps=200`, `nlc_window_us=4`,\n"
            "`syscall_us=3`.\n"
            "## Sensitivity\n`bsp_barrier_us=1`\n"
        )
        monkeypatch.setattr(tool, "CONSTANTS_DOC", doc)
        monkeypatch.setattr(tool, "ROOT", tmp_path)
        errors = tool.constants_errors()
        assert len(errors) == 2
        assert "nlc_window_us" in errors[0] and "syscall_us=3" in errors[1]

    def test_the_store_doc_matches_the_chunk_size(self, tool):
        assert tool.chunk_events_errors() == []

    def test_a_stale_or_missing_chunk_size_is_caught(
            self, tool, tmp_path, monkeypatch):
        doc = tmp_path / "OBSERVABILITY.md"
        monkeypatch.setattr(tool, "STORE_DOC", doc)
        monkeypatch.setattr(tool, "ROOT", tmp_path)
        doc.write_text(
            "## The store\nsealed every `CHUNK_EVENTS=1024` events\n"
            "## Event taxonomy\n`CHUNK_EVENTS=4096`\n"
        )
        (error,) = tool.chunk_events_errors()
        assert "CHUNK_EVENTS=1024" in error
        doc.write_text("## The store\nsealed every so often\n")
        (error,) = tool.chunk_events_errors()
        assert "documents no `CHUNK_EVENTS=`" in error

    def test_the_store_doc_matches_the_codec_level(self, tool):
        assert tool.codec_level_errors() == []

    def test_a_stale_or_missing_codec_level_is_caught(
            self, tool, tmp_path, monkeypatch):
        doc = tmp_path / "OBSERVABILITY.md"
        monkeypatch.setattr(tool, "STORE_DOC", doc)
        monkeypatch.setattr(tool, "ROOT", tmp_path)
        doc.write_text(
            "## The store\ncompressed at `CODEC_LEVEL=9`\n"
            "## Event taxonomy\n`CODEC_LEVEL=1`\n"
        )
        (error,) = tool.codec_level_errors()
        assert "CODEC_LEVEL=9" in error and "zlib level 1" in error
        doc.write_text("## The store\n`CHUNK_EVENTS=4096`, compressed\n")
        (error,) = tool.codec_level_errors()
        assert "documents no `CODEC_LEVEL=`" in error
