"""The observability plane itself: recorder, exporters, auditor semantics,
and the zero-cost-when-disabled / pure-observation contracts
(docs/OBSERVABILITY.md).

The auditor unit tests drive :class:`WeightLedgerAuditor` with hand-built
event lists so each violation class is exercised in isolation; the
integration tests run real engines and check the trace against the
engine's own results.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.core.progress import ProgressMode
from repro.core.weight import GROUP_MODULUS, ROOT_WEIGHT
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.metrics import MsgKind, RunMetrics
from repro.runtime.simclock import SimClock
from repro.runtime.trace import (
    CRASH_LOSS,
    EXEC,
    LIFECYCLE,
    MSG_SEND,
    NODE_COALESCE,
    RECLAIM,
    RUN_CONFIG,
    SEED_DISPATCH,
    STAGE_CLOSE,
    STAGE_OPEN,
    TRACKER_REPORT,
    WEIGHT_FLUSH,
    AuditReport,
    TraceEvent,
    TraceRecorder,
    WeightLedgerAuditor,
)
from tests.conftest import (
    KERNELS,
    khop3_count,
    make_graph,
    run_batch,
    run_one,
)

M = GROUP_MODULUS


# -- hand-built traces for the auditor ---------------------------------------
# The auditor accepts plain dicts (the JSONL form), which keeps these
# fixtures independent of TraceEvent construction details.


def ev(kind, qid=0, **data):
    return {"kind": kind, "query_id": qid, "ts": 0.0, **data}


def clean_stage(qid=0, stage=0):
    """A minimal correct single-stage trace: seed splits in two, both
    halves finish, tracker hears about all of it."""
    half = 0x1234  # an arbitrary split: half + (ROOT - half) == ROOT (mod 2^64)
    return [
        ev(STAGE_OPEN, qid, stage=stage),
        ev(SEED_DISPATCH, qid, stage=stage, n=1, weight=ROOT_WEIGHT),
        ev(EXEC, qid, stage=stage, op_idx=0, n=1, spawned=2,
           w_in=ROOT_WEIGHT, w_fin=0, w_out=ROOT_WEIGHT),
        ev(EXEC, qid, stage=stage, op_idx=1, n=1, spawned=0,
           w_in=half, w_fin=half, w_out=0),
        ev(EXEC, qid, stage=stage, op_idx=1, n=1, spawned=0,
           w_in=(ROOT_WEIGHT - half) % M, w_fin=(ROOT_WEIGHT - half) % M,
           w_out=0),
        ev(TRACKER_REPORT, qid, stage=stage, tag="weight", value=half),
        ev(TRACKER_REPORT, qid, stage=stage, tag="weight",
           value=(ROOT_WEIGHT - half) % M),
        ev(STAGE_CLOSE, qid, stage=stage, reason="terminated"),
    ]


def coalesced_stage(qid=0, stage=0):
    """clean_stage under weight coalescing: each half is flushed by its
    worker, the node's pack folds the two reports, the tracker hears one."""
    half = 0x1234
    rest = (ROOT_WEIGHT - half) % M
    trace = [ev(RUN_CONFIG, -1, mode=ProgressMode.WEIGHTED_COALESCED.value)]
    trace += clean_stage(qid, stage)[:5]
    trace += [
        ev(WEIGHT_FLUSH, qid, stage=stage, wid=2, weight=half, count=1),
        ev(WEIGHT_FLUSH, qid, stage=stage, wid=3, weight=rest, count=1),
        ev(NODE_COALESCE, qid, node=1, stage=stage, n=2,
           weight=ROOT_WEIGHT, inputs=[half, rest]),
        ev(TRACKER_REPORT, qid, stage=stage, tag="weight", value=ROOT_WEIGHT),
        ev(STAGE_CLOSE, qid, stage=stage, reason="terminated"),
    ]
    return trace


class TestAuditorUnits:
    def test_clean_trace_passes(self):
        rep = WeightLedgerAuditor(clean_stage()).audit()
        assert rep.ok, rep.violations
        assert rep.stages_opened == rep.stages_closed == 1
        assert rep.checks >= 3
        assert "OK" in str(rep)

    def test_missing_tracker_report_is_a_violation(self):
        trace = [e for e in clean_stage() if e["kind"] != TRACKER_REPORT]
        rep = WeightLedgerAuditor(trace).audit()
        assert not rep.ok
        assert any("tracker received" in v for v in rep.violations)

    def test_active_weight_at_close_is_a_violation(self):
        # Drop one finishing exec: half the root weight stays active.
        trace = clean_stage()
        del trace[3]
        rep = WeightLedgerAuditor(trace).audit()
        assert any("active weight" in v for v in rep.violations)

    def test_exec_after_close_is_a_violation(self):
        trace = clean_stage()
        trace.append(ev(EXEC, stage=0, op_idx=9, n=1, spawned=0,
                        w_in=5, w_fin=5, w_out=0))
        rep = WeightLedgerAuditor(trace).audit()
        assert any("unopened/closed" in v for v in rep.violations)

    def test_nonconserving_split_is_a_violation(self):
        trace = clean_stage()
        trace[2]["w_out"] = (trace[2]["w_out"] + 1) % M  # leak one unit
        rep = WeightLedgerAuditor(trace).audit()
        assert any("conserve" in v for v in rep.violations)

    def test_seed_weight_mismatch_is_a_violation(self):
        trace = clean_stage()
        trace[1]["weight"] = 7
        rep = WeightLedgerAuditor(trace).audit()
        assert any("root" in v and "seed" in v for v in rep.violations)

    def test_double_open_is_a_violation(self):
        trace = [ev(STAGE_OPEN, stage=0)] + clean_stage()
        rep = WeightLedgerAuditor(trace).audit()
        assert any("opened twice" in v for v in rep.violations)

    def test_stage_left_open_is_a_violation(self):
        trace = clean_stage()[:-1]  # no stage_close
        rep = WeightLedgerAuditor(trace).audit()
        assert any("still open" in v for v in rep.violations)

    def test_crash_loss_blocks_a_clean_close(self):
        # Crash-lost weight must never coexist with a terminated close:
        # recovery drops the query instead of closing the stage.
        trace = clean_stage()
        trace.insert(3, ev(CRASH_LOSS, stage=0, wid=0,
                           weight=trace[3]["w_in"], count=1))
        del trace[4]  # the traverser the crash destroyed never executes
        rep = WeightLedgerAuditor(trace).audit()
        assert any("crash-lost" in v for v in rep.violations)

    def test_reported_reclaim_balances_the_ledger(self):
        half = 0x1234  # must match clean_stage's split
        trace = clean_stage()
        # Replace the second finishing exec + its report with a reclaim.
        del trace[6]
        trace[4] = ev(RECLAIM, stage=0, weight=(ROOT_WEIGHT - half) % M,
                      count=1, reported=True)
        rep = WeightLedgerAuditor(trace).audit()
        assert rep.ok, rep.violations

    def test_unreported_reclaim_has_no_ledger_effect(self):
        trace = clean_stage()
        trace.insert(7, ev(RECLAIM, stage=0, weight=123, count=1,
                           reported=False))
        rep = WeightLedgerAuditor(trace).audit()
        assert rep.ok, rep.violations

    def test_folded_stage_passes(self):
        rep = WeightLedgerAuditor(coalesced_stage()).audit()
        assert rep.ok, rep.violations

    def test_fold_that_drops_weight_is_named_at_the_fold(self):
        # The folded report and the tracker agree with each other, so only
        # the fold's own inputs can expose it.
        trace = coalesced_stage()
        fold = next(e for e in trace if e["kind"] == NODE_COALESCE)
        fold["inputs"][1] = (fold["inputs"][1] + 1) % M
        rep = WeightLedgerAuditor(trace).audit()
        assert any("fold at node 1 does not conserve" in v
                   and f"event {trace.index(fold)}:" in v
                   for v in rep.violations), rep.violations

    def test_fold_that_double_counts_a_report_is_a_violation(self):
        # The fold's output reaches the tracker and so does one of its
        # inputs: the ledger overshoots and the report counts disagree.
        trace = coalesced_stage()
        close = trace.pop()
        trace += [ev(TRACKER_REPORT, stage=0, tag="weight", value=0x1234),
                  close]
        rep = WeightLedgerAuditor(trace).audit()
        assert any("workers flushed" in v and "in 1 report(s)" in v
                   for v in rep.violations), rep.violations

    def test_flush_that_never_reaches_the_tracker_is_a_violation(self):
        trace = coalesced_stage()
        trace.insert(-1, ev(WEIGHT_FLUSH, stage=0, wid=2, weight=9, count=1))
        rep = WeightLedgerAuditor(trace).audit()
        assert any("workers flushed" in v for v in rep.violations)

    def test_naive_mode_traces_are_rejected(self):
        trace = [ev(RUN_CONFIG, -1, mode=ProgressMode.NAIVE_CENTRAL.value)]
        with pytest.raises(ValueError, match="naive"):
            WeightLedgerAuditor(trace).audit()

    def test_accepts_trace_events_and_dicts_identically(self):
        dicts = clean_stage()
        objs = [TraceEvent(d["ts"], d["kind"], d["query_id"],
                           {k: v for k, v in d.items()
                            if k not in ("ts", "kind", "query_id")})
                for d in dicts]
        assert WeightLedgerAuditor(objs).audit().ok
        assert WeightLedgerAuditor(dicts).audit().checks == \
            WeightLedgerAuditor(objs).audit().checks

    def test_empty_trace_is_vacuously_ok(self):
        rep = WeightLedgerAuditor([]).audit()
        assert rep.ok and rep.events == 0 and isinstance(rep, AuditReport)


# -- recorder and exporters --------------------------------------------------


class TestRecorder:
    def test_emit_stamps_simulated_time_and_filters(self):
        clock = SimClock()
        rec = TraceRecorder(clock, "weighted")
        rec.emit(STAGE_OPEN, 3, 0)
        clock.schedule(10.0, lambda: rec.emit(EXEC, 3, 0, 0, 0, 0, 1))
        clock.run_until_idle()
        assert [e.kind for e in rec] == [RUN_CONFIG, STAGE_OPEN, EXEC]
        assert rec.by_kind(EXEC)[0].ts == 10.0
        assert len(rec.for_query(3)) == 2 and len(rec) == 3

    def test_run_config_leads_the_trace(self):
        rec = TraceRecorder(SimClock(), "weighted+wc", "run", 2)
        assert rec.events[0].kind == RUN_CONFIG
        assert rec.events[0].as_dict()["nodes"] == 2

    def test_jsonl_round_trip_reaudits_clean(self, tmp_path):
        graph = make_graph(5)
        engine, _ = run_one(graph, khop3_count(graph), {"s": 0},
                            EngineConfig(trace=True))
        path = tmp_path / "trace.jsonl"
        n = engine.trace.dump_jsonl(str(path), metrics=engine.metrics)
        lines = path.read_text().splitlines()
        assert len(lines) == n == len(engine.trace) + 1
        records = [json.loads(line) for line in lines]
        assert records[-1]["kind"] == "run_metrics"
        # A dumped trace must audit exactly like the in-memory one.
        rep = WeightLedgerAuditor(records[:-1]).audit()
        assert rep.ok, rep.violations
        assert rep.checks == WeightLedgerAuditor(engine.trace.events).audit().checks

    def test_chrome_trace_spans(self):
        graph = make_graph(6)
        engine, _ = run_one(graph, khop3_count(graph), {"s": 1},
                            EngineConfig(trace=True))
        doc = engine.trace.to_chrome_trace()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert len(doc["traceEvents"]) == len(engine.trace)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["cat"] == "exec" and "dur" in e for e in spans)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants and all("ts" in e for e in instants)

    def test_summary_aggregates_per_query(self):
        graph = make_graph(7)
        engine, sessions = run_batch(graph, khop3_count(graph),
                                     [{"s": v} for v in range(3)],
                                     EngineConfig(trace=True))
        summary = engine.trace.summary()
        for s in sessions:
            row = summary[s.query_id]
            assert row["traversers"] > 0
            assert row["kinds"][STAGE_OPEN] == 1
            assert row["cpu_us"] > 0.0


# -- engine integration contracts --------------------------------------------


class TestEngineContracts:
    def test_disabled_by_default_and_no_hook_fires(self, monkeypatch):
        def boom(self, *a, **k):  # pragma: no cover - the assertion
            raise AssertionError("emit() called with tracing disabled")
        monkeypatch.setattr(TraceRecorder, "emit", boom)
        graph = make_graph(8)
        engine, result = run_one(graph, khop3_count(graph), {"s": 2})
        assert engine.trace is None
        assert result.rows  # the run itself still works

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tracing_is_pure_observation(self, kernel):
        # Bit-identical rows AND identical simulated clocks, both kernels.
        graph = make_graph(9)
        plan = khop3_count(graph)
        params = [{"s": v} for v in range(4)]
        base = EngineConfig(kernel=kernel)
        traced = EngineConfig(kernel=kernel, trace=True)
        e0, s0 = run_batch(graph, plan, params, base)
        e1, s1 = run_batch(graph, plan, params, traced)
        assert [s.results for s in s0] == [s.results for s in s1]
        assert e0.clock.now == e1.clock.now

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_real_run_audits_clean(self, kernel):
        graph = make_graph(10)
        engine, sessions = run_batch(
            graph, khop3_count(graph), [{"s": v} for v in range(4)],
            EngineConfig(kernel=kernel, trace=True))
        rep = WeightLedgerAuditor(engine.trace.events).audit()
        assert rep.ok, rep.violations
        assert rep.stages_opened == rep.stages_closed > 0
        assert engine.trace.by_kind(LIFECYCLE)
        assert engine.trace.by_kind(MSG_SEND)

    def test_doctored_fold_in_a_real_trace_is_rejected(self):
        # eight concurrent queries: enough NIC contention for a fold under
        # degree-stratified and hash homes alike (four folded under hash only)
        graph = make_graph(10)
        engine, _sessions = run_batch(
            graph, khop3_count(graph), [{"s": v} for v in range(8)],
            EngineConfig(trace=True))
        events = [e.as_dict() for e in engine.trace.events]
        folds = [e for e in events if e["kind"] == NODE_COALESCE]
        assert folds and engine.metrics.progress_reports_coalesced == sum(
            e["n"] - 1 for e in folds)
        folds[0]["weight"] = (folds[0]["weight"] + 1) % M
        rep = WeightLedgerAuditor(events).audit()
        assert any("does not conserve" in v for v in rep.violations)


# -- metrics completeness ----------------------------------------------------


class TestMetricsCompleteness:
    def test_every_counter_surfaces_in_snapshot_and_dump(self, tmp_path):
        """Soak a combined fault/crash/cancel run, then check that every
        RunMetrics field reaches both ``snapshot()`` and the JSONL
        run_metrics record — the snapshot is fields-driven precisely so
        this cannot regress."""
        graph = make_graph(11)
        fault_plan = FaultPlan(
            seed=11, drop_rate=0.1, dup_rate=0.05, delay_rate=0.05,
            ack_drop_rate=0.1,
            worker_faults=(WorkerFault(wid=1, at_us=200.0, kind="crash",
                                       down_us=400.0),))
        engine = AsyncPSTMEngine(
            graph, 2, 2,
            config=EngineConfig(trace=True, fault_plan=fault_plan))
        plan = khop3_count(graph)
        sessions = [engine.submit(plan, {"s": v}) for v in range(12)]
        engine.clock.schedule_at(
            40.0, lambda: engine.cancel(sessions[0], "caller"))
        engine.clock.run_until_idle()
        snap = engine.metrics.snapshot()
        for f in fields(RunMetrics):
            if f.name == "messages":
                for kind in MsgKind:
                    assert f"messages_{kind.value}" in snap
            else:
                assert f.name in snap
        # The soak must actually exercise the planes it claims to cover.
        for key in ("messages_traverser", "retransmits", "packets_dropped",
                    "packets_duplicated", "packets_delayed", "worker_crashes",
                    "weight_reclaim_reports", "queries_cancelled"):
            assert snap[key] > 0, key
        assert snap["lifecycle_transitions"] > 0
        # And the combined run must still satisfy the weight ledger.
        assert WeightLedgerAuditor(engine.trace.events).audit().ok

        path = tmp_path / "soak.jsonl"
        engine.trace.dump_jsonl(str(path), metrics=engine.metrics)
        dumped = json.loads(path.read_text().splitlines()[-1])
        assert dumped == {"kind": "run_metrics", **snap}
