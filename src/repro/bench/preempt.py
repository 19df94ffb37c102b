"""Preemption bench: interactive tail latency with voluntary preemption.

The headline experiment for voluntary preemption (docs/RECOVERY.md). A
mixed workload shares **one** execution slot:

* **analytics** — a stream of three-stage queries (2-hop expansion,
  group, expand, group, expand — ~300 µs solo), priority 1;
* **interactive** — a stream of one-hop lookups, priority 0 (more
  urgent), arriving every 0.47 analytics-solo latencies.

Without preemption an interactive arrival waits for the resident
analytics query to *finish* — its end-to-end latency is dominated by the
analytics residual (hundreds of µs). With ``EngineConfig.preemption``
armed, the arrival preempts the analytics query, which yields at its
next certified stage boundary (tens of µs away), snapshots, and evicts;
the interactive query runs in the freed slot and the analytics query
resumes afterwards — **paused, not shed**: it still produces bit-for-bit
the rows of an uninterrupted run, and the weight-ledger audit stays
clean across every pause/resume splice.

End-to-end latency here is measured from *arrival* (submission) to
completion — it includes admission wait, which is exactly what
preemption improves (``QueryMetrics.latency_us`` counts from dispatch
and would hide it).

The acceptance gates (``--check``):

* interactive P99 is strictly better with preemption on;
* every analytics query completes (resumed, not shed) with rows
  identical to a solo run, in both modes;
* both traces audit clean and both checkpoint stores drain to zero —
  no lost work anywhere.

Usage::

    PYTHONPATH=src python -m repro preempt --out BENCH_PR8.json
    PYTHONPATH=src python -m repro preempt --quick --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.bench.harness import DEMO_GRAPH, DEMO_NODES, DEMO_WPN, demo_graph
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.trace import WeightLedgerAuditor

ENGINE_SEED = 3
START_VERTEX = 11

#: workload shape: analytics queries all submitted up front, interactive
#: arrivals on a fixed open-loop cadence
ANALYTICS_QUERIES = 4
INTERACTIVE_QUERIES = 24
QUICK_ANALYTICS = 2
QUICK_INTERACTIVE = 8
#: the interactive cadence in units of the run's own measured analytics
#: solo latency, so a change to the simulated network keeps the timeline's
#: shape (the first arrival lands mid-way through the first analytics
#: query; about two arrivals per analytics query)
FIRST_ARRIVAL_X_SOLO = 0.293
ARRIVAL_SPACING_X_SOLO = 0.4685


def analytics_plan(graph: PartitionedGraph):
    """Three stages / two certified boundaries: preemptable mid-run."""
    return (
        Traversal("analytics")
        .v_param("start")
        .khop(DEMO_GRAPH.edge_label, k=2)
        .as_("a")
        .group_count("a")
        .out(DEMO_GRAPH.edge_label)
        .as_("b")
        .group_count("b")
        .out(DEMO_GRAPH.edge_label)
        .count()
        .compile(graph)
    )


def interactive_plan(graph: PartitionedGraph):
    """A one-hop lookup: the latency-sensitive class."""
    return (
        Traversal("ic_short")
        .v_param("start")
        .out(DEMO_GRAPH.edge_label)
        .count()
        .compile(graph)
    )


def run_mixed(preemption: bool, quick: bool,
              solo_latency_us: float) -> Dict[str, Any]:
    """One open-loop mixed run; returns latency stats and gate inputs.
    ``solo_latency_us`` (an analytics query alone) sets the interactive
    arrival cadence."""
    graph = demo_graph()
    engine = AsyncPSTMEngine(
        graph, DEMO_NODES, DEMO_WPN,
        config=EngineConfig(
            trace=True,
            checkpoint_interval_us=0.0,
            max_concurrent_queries=1,
            admission_queue_size=64,
            preemption=preemption,
        ),
        seed=ENGINE_SEED,
    )
    n_analytics = QUICK_ANALYTICS if quick else ANALYTICS_QUERIES
    n_interactive = QUICK_INTERACTIVE if quick else INTERACTIVE_QUERIES
    finished: Dict[int, float] = {}
    arrivals: Dict[int, float] = {}
    sessions: Dict[str, list] = {"analytics": [], "interactive": []}

    def submit(plan, at, priority, kind):
        idx = len(arrivals)
        arrivals[idx] = at
        session = engine.submit(
            plan, {"start": START_VERTEX}, at=at, priority=priority,
            on_done=lambda s, i=idx: finished.__setitem__(
                i, engine.clock.now),
        )
        sessions[kind].append((idx, session))

    a_plan = analytics_plan(graph)
    i_plan = interactive_plan(graph)
    for _ in range(n_analytics):
        submit(a_plan, 0.0, priority=1, kind="analytics")
    first = FIRST_ARRIVAL_X_SOLO * solo_latency_us
    spacing = ARRIVAL_SPACING_X_SOLO * solo_latency_us
    for i in range(n_interactive):
        submit(i_plan, first + i * spacing, priority=0, kind="interactive")
    engine.clock.run_until_idle()

    def e2e(kind):
        recorder = LatencyRecorder()
        for i, _s in sessions[kind]:
            recorder.record(finished[i] - arrivals[i])
        return recorder

    audit = WeightLedgerAuditor(engine.trace.events).audit()
    interactive = e2e("interactive")
    analytics = e2e("analytics")
    analytics_rows = [s.results for _i, s in sessions["analytics"]]
    return {
        "preemption": preemption,
        "interactive": {
            "n": len(interactive),
            "p50_us": interactive.percentile(50),
            "p99_us": interactive.p99(),
            "max_us": interactive.percentile(100),
        },
        "analytics": {
            "n": len(analytics),
            "completed": sum(
                1 for _i, s in sessions["analytics"] if s.qmetrics.done),
            "pauses": sum(
                s.qmetrics.pauses for _i, s in sessions["analytics"]),
            "p99_us": analytics.p99(),
        },
        "analytics_rows": analytics_rows,
        "preemptions": engine.metrics.preemptions,
        "resumes": engine.metrics.resumes,
        "pause_wait_us": engine.metrics.pause_wait_us,
        "checkpoints_stored_at_idle": engine.checkpoints.stored,
        "audit_ok": audit.ok,
        "audit_violations": audit.violations[:5],
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro preempt", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", default=None, help="write a JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="CI variant: fewer arrivals")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the preemption gates hold "
                             "(better interactive P99, analytics resumed "
                             "not shed, identical rows, clean audits)")
    args = parser.parse_args(argv)

    graph = demo_graph()
    solo = AsyncPSTMEngine(
        graph, DEMO_NODES, DEMO_WPN, config=EngineConfig(), seed=ENGINE_SEED
    ).run(analytics_plan(graph), {"start": START_VERTEX})
    print(f"analytics solo: rows={solo.rows}  "
          f"latency={solo.latency_us:.1f}us")

    runs = {}
    for label, preemption in (("off", False), ("on", True)):
        run = run_mixed(preemption, args.quick, solo.latency_us)
        runs[label] = run
        ic, an = run["interactive"], run["analytics"]
        print(f"preemption {label:<3}: interactive p50={ic['p50_us']:>7.1f} "
              f"p99={ic['p99_us']:>7.1f} max={ic['max_us']:>7.1f}us  "
              f"analytics done={an['completed']}/{an['n']} "
              f"pauses={an['pauses']} resumes={run['resumes']}  "
              f"audit={'ok' if run['audit_ok'] else 'VIOLATED'}")

    on, off = runs["on"], runs["off"]
    gates = {
        "interactive_p99_improves":
            on["interactive"]["p99_us"] < off["interactive"]["p99_us"],
        "analytics_resumed_not_shed":
            on["analytics"]["completed"] == on["analytics"]["n"]
            and on["resumes"] >= 1 and on["preemptions"] >= 1,
        "analytics_rows_identical": all(
            rows == solo.rows
            for run in runs.values() for rows in run["analytics_rows"]),
        "no_lost_work": all(
            run["audit_ok"] and run["checkpoints_stored_at_idle"] == 0
            for run in runs.values()),
    }
    ok = all(gates.values())
    speedup = off["interactive"]["p99_us"] / max(on["interactive"]["p99_us"],
                                                 1e-9)
    print(f"\ninteractive p99: {off['interactive']['p99_us']:.1f}us -> "
          f"{on['interactive']['p99_us']:.1f}us "
          f"({speedup:.2f}x better with preemption)")
    for gate, held in gates.items():
        print(f"  gate {gate}: {'PASS' if held else 'FAIL'}")
    print(f"preemption gates: {'PASS' if ok else 'FAIL'}")

    if args.out:
        report = {
            "workload": {
                "analytics": runs["on"]["analytics"]["n"],
                "interactive": runs["on"]["interactive"]["n"],
                "arrival_spacing_us":
                    ARRIVAL_SPACING_X_SOLO * solo.latency_us,
                "slots": 1,
            },
            "solo_analytics": {
                "rows": solo.rows, "latency_us": solo.latency_us},
            "runs": {
                label: {k: v for k, v in run.items()
                        if k != "analytics_rows"}
                for label, run in runs.items()
            },
            "interactive_p99_speedup": speedup,
            "gates": gates,
            "ok": ok,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}")

    return 0 if (ok or not args.check) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
