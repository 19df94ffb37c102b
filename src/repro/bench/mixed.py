"""Mixed-workload bench: IC reads under concurrent LDBC SNB updates.

Reopens the paper's Fig 7 question for the transaction plane
(docs/TRANSACTIONS.md): what happens to interactive-complex (IC) latency
when update transactions commit concurrently — and do readers stay
snapshot-isolated while it happens?

For each kernel × update ratio ∈ {0 %, 25 %, 50 %} (updates as a
fraction of all operations), one engine with ``transactions=True`` runs a
fixed IC workload while LDBC SNB UP transactions (UP1–UP8) commit through
the transaction plane on the same simulated clock. Every query is pinned
to the tracker's cached LCT at admission; updates charge their service
time to the worker owning their home vertex, so the latency curves show
genuine writer/reader interference.

The acceptance gates (``--check``):

* **rows_identical_across_tiers** — at each update ratio, every query's
  rows are bit-identical on the run and scalar kernels;
* **rows_match_solo_snapshot** — every query's rows equal a solo
  :class:`~repro.runtime.reference.LocalExecutor` run against the
  snapshot view at its pinned timestamp (snapshot isolation, exactly);
* **audits_clean** — every trace passes the
  :class:`~repro.runtime.trace.WeightLedgerAuditor`, which also checks
  that no EXEC cites a version newer than its query's pin and that
  commit timestamps are monotonic (Theorem 1 is untouched by writers);
* **updates_interfere** — nonzero ratios actually committed updates, and
  distinct snapshot pins were observed (the LCT really advanced under
  the readers);
* **recovery_composes** — a separate crash leg arms checkpointing, tears
  a commit mid-stream, and crashes a worker: the version-log replay
  (``VERSION_REPLAY``, discarding the torn versions) must precede every
  checkpoint ``RESTORE``, and the affected queries still finish with
  rows equal to their solo-snapshot runs.

Usage::

    PYTHONPATH=src python -m repro mixed --out BENCH_PR10.json
    PYTHONPATH=src python -m repro mixed --quick --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.ldbc import schema as S
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.updates import UP_QUERIES, UpdateContext
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import CRASH, FaultPlan, WorkerFault
from repro.runtime.config import KERNEL_NAMES as KERNELS
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.reference import LocalExecutor
from repro.runtime.trace import (
    CHECKPOINT,
    RESTORE,
    STAGE_CLOSE,
    VERSION_REPLAY,
    WeightLedgerAuditor,
)

NODES, WPN = 2, 2
ENGINE_SEED = 3

#: IC types in the mix (cheap, deterministic-row shapes; cycled in order)
IC_MIX = (2, 7, 8)
N_QUERIES = 18
QUICK_N_QUERIES = 9
ARRIVAL_SPACING_US = 150.0
FIRST_ARRIVAL_US = 200.0

#: update ratios: updates as a percentage of all operations (Fig 7's axis)
UPDATE_RATIOS = (0, 25, 50)

#: crash leg shape: checkpoint every boundary, tear one commit right
#: before the crash, crash the worker mid-wave, recover shortly after
CRASH_WID = 1
CRASH_DOWN_US = 400.0


def n_updates(n_queries: int, ratio_pct: int) -> int:
    """Updates needed so updates/(updates+queries) == ratio_pct/100."""
    return round(n_queries * ratio_pct / (100 - ratio_pct)) if ratio_pct else 0


def build_workload(dataset, graph, n_queries: int, ratio_pct: int):
    """The deterministic (queries, updates) schedule for one ratio.

    Identical across kernels by construction: every param draw uses
    a ratio-seeded RNG and a fresh :class:`UpdateContext`, so the commit
    stream — and therefore every query's pinned snapshot — replays
    bit-identically on both kernels.
    """
    rng = random.Random(0xF1607 + ratio_pct)
    queries = []
    for i in range(n_queries):
        qdef = IC_QUERIES[IC_MIX[i % len(IC_MIX)]]
        at = FIRST_ARRIVAL_US + i * ARRIVAL_SPACING_US
        queries.append((at, qdef, qdef.make_params(dataset, rng)))
    ctx = UpdateContext(dataset)
    up_types = sorted(UP_QUERIES)
    n_up = n_updates(n_queries, ratio_pct)
    window = n_queries * ARRIVAL_SPACING_US
    updates = []
    for j in range(n_up):
        udef = UP_QUERIES[up_types[j % len(up_types)]]
        # Interleave through the query window, offset so commits land
        # between admissions and successive queries pin different LCTs.
        at = FIRST_ARRIVAL_US + (j + 0.5) * window / max(n_up, 1)
        updates.append((at, udef, udef.make_params(ctx, rng)))
    return queries, updates


def two_stage_plan(graph):
    """IC-style two-stage shape for the crash leg: the ``group_count``
    boundary is a certified checkpoint cut, so a crash in stage 1 can
    RESTORE instead of force-retrying — which is exactly the ordering
    (version replay, then traversal restore) the gate asserts."""
    return (
        Traversal("ic_two_stage")
        .v_param("person")
        .khop(S.KNOWS, k=2)
        .as_("f")
        .group_count("f")
        .out(S.KNOWS)
        .count()
        .compile(graph)
    )


def home_vertex(params: Dict[str, Any]) -> Optional[int]:
    """The update's home vertex (its service time is charged there)."""
    for key in ("person", "vid", "forum"):
        if key in params:
            return params[key]
    return None


def run_once(
    dataset,
    graph,
    kernel: str,
    ratio_pct: int,
    n_queries: int,
    crash: bool = False,
    crash_at_us: Optional[float] = None,
) -> Dict[str, Any]:
    """One engine run at one (kernel, update ratio); returns the record."""
    cfg = dict(trace=True, kernel=kernel, transactions=True)
    if crash:
        if crash_at_us is None:
            crash_at_us = probe_crash_time(dataset, graph, kernel,
                                           ratio_pct, n_queries)
        cfg.update(
            checkpoint_interval_us=0.0,
            fault_plan=FaultPlan(worker_faults=(
                WorkerFault(wid=CRASH_WID, at_us=crash_at_us,
                            kind=CRASH, down_us=CRASH_DOWN_US),
            )),
        )
    engine = AsyncPSTMEngine(
        graph, NODES, WPN, config=EngineConfig(**cfg), seed=ENGINE_SEED
    )
    plane = engine.txnplane
    queries, updates = build_workload(dataset, graph, n_queries, ratio_pct)
    plans = {n: IC_QUERIES[n].build().compile(graph) for n in set(IC_MIX)}
    crash_plan = two_stage_plan(graph) if crash else None

    sessions = []
    for i, (at, qdef, params) in enumerate(queries):
        if crash:
            # The crash leg runs the two-stage shape so the mid-wave
            # crash lands after a certified checkpoint boundary.
            plan, params = crash_plan, {"person": params["person"]}
        else:
            plan = plans[IC_MIX[i % len(IC_MIX)]]
        sessions.append((engine.submit(plan, params, at=at), plan, params))
    for at, udef, params in updates:
        plane.schedule_update(
            at, lambda m, u=udef, p=params: u.apply(m, p),
            label=udef.name, service_us=udef.service_us,
            home_vid=home_vertex(params),
        )
    if crash:
        # Tear one extra commit just before the worker goes down: its
        # versions reach the stores with no commit record, wedging the
        # manager until the recovery scan replays the version log.
        t = crash_at_us - 1.0
        udef = UP_QUERIES[2]
        torn_ctx = UpdateContext(dataset)
        torn_params = udef.make_params(torn_ctx, random.Random(0xDEAD))
        plane.schedule_update(
            t, lambda m, u=udef, p=torn_params: u.apply(m, p),
            label="UP2-torn", tear=True,
        )
    engine.clock.run_until_idle()

    latencies = LatencyRecorder()
    for s, _p, _a in sessions:
        latencies.record(s.qmetrics.latency_us)
    audit = WeightLedgerAuditor(engine.trace.events).audit()
    # Solo reference: replay every query alone against the snapshot view
    # at its pinned timestamp. One executor per distinct pin.
    solo_ok = True
    executors: Dict[int, LocalExecutor] = {}
    pins = []
    for s, plan, params in sessions:
        ts = s.snapshot_ts
        pins.append(ts)
        ex = executors.get(ts)
        if ex is None:
            ex = LocalExecutor(plane.snapshot_graph(ts))
            executors[ts] = ex
        if s.results != ex.run(plan, params):
            solo_ok = False
    m = engine.metrics
    record = {
        "rows": [s.results for s, _p, _a in sessions],
        "pins": pins,
        "distinct_pins": len(set(pins)),
        "mean_latency_us": latencies.average(),
        "max_latency_us": latencies.percentile(100),
        "p99_latency_us": latencies.p99(),
        "completed": sum(1 for s, _p, _a in sessions if s.qmetrics.done),
        "txn_commits": m.txn_commits,
        "txn_aborts": m.txn_aborts,
        "txn_replays": m.txn_replays,
        "snapshot_pins": m.snapshot_pins,
        "updates_applied": plane.updates_applied,
        "updates_deferred": plane.updates_deferred,
        "audit_ok": audit.ok,
        "audit_txn_commits": audit.txn_commits,
        "audit_violations": audit.violations[:5],
        "rows_match_solo_snapshot": solo_ok,
    }
    if crash:
        kinds = [ev.kind for ev in engine.trace.events]
        replay_at = kinds.index(VERSION_REPLAY) if VERSION_REPLAY in kinds else -1
        restores = [i for i, k in enumerate(kinds) if k == RESTORE]
        replay_ev = next(
            (ev for ev in engine.trace.events if ev.kind == VERSION_REPLAY), None
        )
        record.update({
            "version_replay_index": replay_at,
            "first_restore_index": restores[0] if restores else -1,
            "restores": len(restores),
            "versions_discarded":
                replay_ev.data["discarded"] if replay_ev else 0,
            "torn_commits": plane.txm.torn,
            "replay_before_restore":
                replay_at >= 0 and all(replay_at < r for r in restores),
        })
    return record


def probe_crash_time(
    dataset, graph, kernel: str, ratio_pct: int, n_queries: int
) -> float:
    """Derive the crash instant from a fault-free dry run.

    The simulation is deterministic, so a fault-free run with the same
    schedule predicts the faulted run's timeline exactly up to the crash
    (the torn update charges no service time). Crashing midway between
    the mid-wave query's checkpoint and its stage-1 close guarantees the
    query holds a certified checkpoint at the crash — it must RESTORE
    rather than full-retry, which is the ordering the gate asserts.
    """
    engine = AsyncPSTMEngine(
        graph, NODES, WPN,
        config=EngineConfig(trace=True, kernel=kernel, transactions=True,
                            checkpoint_interval_us=0.0),
        seed=ENGINE_SEED,
    )
    plane = engine.txnplane
    queries, updates = build_workload(dataset, graph, n_queries, ratio_pct)
    plan = two_stage_plan(graph)
    sessions = [
        engine.submit(plan, {"person": params["person"]}, at=at)
        for at, _qdef, params in queries
    ]
    for at, udef, params in updates:
        plane.schedule_update(
            at, lambda m, u=udef, p=params: u.apply(m, p),
            label=udef.name, service_us=udef.service_us,
            home_vid=home_vertex(params),
        )
    engine.clock.run_until_idle()
    qid = sessions[n_queries // 2].query_id
    events = engine.trace.events
    ckpt = next(ev.ts for ev in events
                if ev.kind == CHECKPOINT and ev.query_id == qid)
    close = next(ev.ts for ev in events
                 if ev.kind == STAGE_CLOSE and ev.query_id == qid
                 and ev.data["stage"] == 1)
    return (ckpt + close) / 2.0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro mixed", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", default=None, help="write a JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="CI variant: fewer queries per ratio")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless rows are bit-identical "
                             "across kernels and solo snapshot runs, audits "
                             "are clean, and crash recovery replays the "
                             "version log before traversal restore")
    args = parser.parse_args(argv)

    n_queries = QUICK_N_QUERIES if args.quick else N_QUERIES
    dataset = generate_snb(SNB_TINY)
    graph = dataset.partitioned(NODES * WPN)

    results: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for kernel in KERNELS:
        results[kernel] = {}
        for ratio in UPDATE_RATIOS:
            rec = run_once(dataset, graph, kernel, ratio, n_queries)
            results[kernel][str(ratio)] = rec
            print(f"{kernel:<7} {ratio:>3}% updates: "
                  f"mean {rec['mean_latency_us']:8.1f} us  "
                  f"p99 {rec['p99_latency_us']:8.1f} us  "
                  f"commits={rec['txn_commits']:<3} "
                  f"pins={rec['distinct_pins']:<2} "
                  f"audit={'ok' if rec['audit_ok'] else 'VIOLATED'}")

    crash_rec = run_once(dataset, graph, "run", 50, n_queries, crash=True)
    print(f"crash leg: replay@{crash_rec['version_replay_index']} "
          f"restores={crash_rec['restores']} "
          f"discarded={crash_rec['versions_discarded']} "
          f"torn={crash_rec['torn_commits']} "
          f"before_restore={crash_rec['replay_before_restore']}")

    ref = results[KERNELS[0]]
    gates = {
        "rows_identical_across_tiers": all(
            results[k][str(r)]["rows"] == ref[str(r)]["rows"]
            for k in KERNELS for r in UPDATE_RATIOS),
        "rows_match_solo_snapshot": all(
            results[k][str(r)]["rows_match_solo_snapshot"]
            for k in KERNELS for r in UPDATE_RATIOS)
            and crash_rec["rows_match_solo_snapshot"],
        "audits_clean": all(
            results[k][str(r)]["audit_ok"]
            for k in KERNELS for r in UPDATE_RATIOS)
            and crash_rec["audit_ok"],
        "updates_interfere": all(
            results[k][str(r)]["txn_commits"] > 0
            and results[k][str(r)]["distinct_pins"] > 1
            for k in KERNELS for r in UPDATE_RATIOS if r > 0),
        "recovery_composes": (
            crash_rec["replay_before_restore"]
            and crash_rec["restores"] >= 1
            and crash_rec["versions_discarded"] >= 1
            and crash_rec["torn_commits"] >= 1
            and crash_rec["txn_replays"] >= 1
            and crash_rec["completed"] == n_queries),
    }
    ok = all(gates.values())
    for gate, held in gates.items():
        print(f"  gate {gate}: {'PASS' if held else 'FAIL'}")
    print(f"mixed gates: {'PASS' if ok else 'FAIL'}")

    if args.out:
        def strip(rec: Dict[str, Any]) -> Dict[str, Any]:
            return {k: v for k, v in rec.items() if k not in ("rows", "pins")}
        report = {
            "workload": {
                "queries_per_ratio": n_queries,
                "ic_mix": list(IC_MIX),
                "update_ratios_pct": list(UPDATE_RATIOS),
                "partitions": NODES * WPN,
                "arrival_spacing_us": ARRIVAL_SPACING_US,
            },
            "kernels": {
                k: {r: strip(rec) for r, rec in runs.items()}
                for k, runs in results.items()
            },
            "crash_leg": strip(crash_rec),
            "gates": gates,
            "ok": ok,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}")

    return 0 if (ok or not args.check) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
