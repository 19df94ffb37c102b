"""Recovery bench: crash + force-retry vs stage-boundary checkpoint restore.

The headline experiment of docs/RECOVERY.md. One two-stage query (a 2-hop
expansion grouped per binding, then a second expansion over the group keys
— real work on both sides of the stage boundary) runs three ways on the
same partitioned graph:

* **baseline** — healthy cluster, no faults;
* **force-retry** — a worker crashes mid-stage-1; the watchdog-era recovery
  path (PR4) tears the attempt down and re-executes from the stage-0 seeds;
* **checkpoint** — the same crash with stage-boundary checkpointing armed;
  recovery restores the stage-1 frontier, memo shards, and RNG state from
  the certified boundary snapshot and replays only post-boundary work.

All three must produce bit-for-bit identical rows (the simulation is exact)
and audit clean under the :class:`~repro.runtime.trace.WeightLedgerAuditor`.
The measured quantity is **replayed work**: kernel-exec trace events beyond
the baseline's count. The acceptance gate (``--check``) is that the
checkpoint run replays *strictly less* than force-retry at every crash
point — restoring from the boundary must never re-execute stage 0. A
crash that finds no live query state (no retry) is a bench error.

Usage::

    PYTHONPATH=src python -m repro recovery --out BENCH_PR7.json
    PYTHONPATH=src python -m repro recovery --quick --check   # CI gate
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
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.trace import EXEC, WeightLedgerAuditor

ENGINE_SEED = 3
START_VERTEX = 11

#: crash instants as fractions of the healthy run's stage-1 window, from
#: the stage-0 close (the checkpointed boundary) to the stage-1 close
CRASH_FRACTIONS = (0.25, 0.5, 0.75)
QUICK_CRASH_FRACTIONS = (0.5,)
CRASH_WID = 2
CRASH_DOWN_US = 30.0


def build_plan(graph: PartitionedGraph):
    """The two-stage bench query (khop3/IC9 compile to a single stage, so
    they never cross a checkpointable boundary; this plan does)."""
    return (
        Traversal("two_stage_heavy")
        .v_param("start")
        .khop(DEMO_GRAPH.edge_label, k=2)
        .as_("v")
        .group_count("v")
        .out(DEMO_GRAPH.edge_label)
        .count()
        .compile(graph)
    )


def run_once(
    crash_at: Optional[float], checkpoint: bool
) -> Dict[str, Any]:
    """One traced run; returns rows, exec counts, and the audit verdict."""
    graph = demo_graph()
    plan = build_plan(graph)
    fault_plan = None
    if crash_at is not None:
        fault_plan = FaultPlan(worker_faults=(
            WorkerFault(wid=CRASH_WID, at_us=crash_at, down_us=CRASH_DOWN_US),
        ))
    engine = AsyncPSTMEngine(
        graph, DEMO_NODES, DEMO_WPN,
        config=EngineConfig(
            trace=True,
            fault_plan=fault_plan,
            checkpoint_interval_us=0.0 if checkpoint else None,
        ),
        seed=ENGINE_SEED,
    )
    result = engine.run(plan, {"start": START_VERTEX})
    audit = WeightLedgerAuditor(engine.trace.events).audit()
    return {
        "rows": result.rows,
        "latency_us": result.latency_us,
        "exec_events": len(engine.trace.by_kind(EXEC)),
        "trace_events": len(engine.trace),
        "retries": result.metrics.retries,
        "restores": result.metrics.restores,
        "checkpoints_taken": engine.metrics.checkpoints_taken,
        "checkpoint_fallbacks": engine.metrics.checkpoint_fallbacks,
        "audit_ok": audit.ok,
        "audit_violations": audit.violations[:5],
        "stage_windows": engine.trace.stage_windows(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro recovery", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", default=None, help="write a JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="CI variant: a single crash point")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless every checkpoint run "
                             "replays strictly less work than force-retry "
                             "with identical rows and clean audits")
    args = parser.parse_args(argv)

    print("baseline (healthy cluster)...")
    base = run_once(None, checkpoint=False)
    boundary, end = base["stage_windows"][1]
    print(f"  rows={base['rows']}  exec={base['exec_events']}  "
          f"audit={'ok' if base['audit_ok'] else 'VIOLATED'}")
    crash_times = [boundary + f * (end - boundary) for f in (
        QUICK_CRASH_FRACTIONS if args.quick else CRASH_FRACTIONS)]

    rows: List[Dict[str, Any]] = []
    ok = base["audit_ok"]
    header = (f"{'crash_us':>9} {'mode':<11} {'exec':>6} {'replayed':>9} "
              f"{'of total':>9} {'retries':>8} {'restores':>9} "
              f"{'rows_ok':>8} {'audit':>6}")
    print()
    print(header)
    for crash_at in crash_times:
        retry = run_once(crash_at, checkpoint=False)
        ckpt = run_once(crash_at, checkpoint=True)
        if not (retry["retries"] and ckpt["retries"]):
            print(f"error: the crash at {crash_at:.1f} us found no live query")
            return 2
        for mode, run in (("force-retry", retry), ("checkpoint", ckpt)):
            replayed = run["exec_events"] - base["exec_events"]
            rows_ok = run["rows"] == base["rows"]
            print(f"{crash_at:>9.0f} {mode:<11} {run['exec_events']:>6} "
                  f"{replayed:>9} {run['trace_events']:>9} "
                  f"{run['retries']:>8} {run['restores']:>9} "
                  f"{'yes' if rows_ok else 'NO':>8} "
                  f"{'ok' if run['audit_ok'] else 'BAD':>6}")
            rows.append({
                "crash_at_us": crash_at, "mode": mode,
                "replayed_exec_events": replayed, **run,
            })
            ok = ok and rows_ok and run["audit_ok"]
        strictly_less = (
            ckpt["exec_events"] < retry["exec_events"]
            and ckpt["restores"] >= 1
        )
        if not strictly_less:
            print(f"  !! crash at {crash_at:.0f}: checkpoint restore did "
                  f"not replay strictly less than force-retry")
        ok = ok and strictly_less

    print()
    verdict = "PASS" if ok else "FAIL"
    print(f"recovery gates: {verdict} (identical rows, clean audits, "
          f"restore < force-retry at every crash point)")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"baseline": base, "runs": rows, "ok": ok}, fh, indent=2)
        print(f"wrote {args.out}")

    return 0 if (ok or not args.check) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
