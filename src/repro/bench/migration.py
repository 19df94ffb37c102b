"""Migration bench: mined live migration vs static placement.

The headline experiment for the placement plane (docs/PARTITIONING.md).
A Zipf-skewed khop/IC workload — most queries start from a few hot
high-degree roots — runs in three waves on two otherwise identical
engines:

* **static** — the graph's static homes (degree-stratified, see
  :func:`~repro.graph.placement.stratified_homes`) throughout;
* **migrated** — a :class:`~repro.runtime.migrate.TrafficMiner` observes
  wave 1, a first mined batch is applied **live in the middle of
  wave 2** (queries admitted mid-migration must complete without
  restarts — migration never stops traffic), and a second batch applied
  before wave 3 consolidates each hot neighborhood; wave 3 measures the
  steady state.

Inter-partition TRAVERSER messages per wave come straight from the
Fig-11 counters (``RunMetrics.messages``), and edge-cut / balance
statistics from :meth:`PartitionedGraph.cut_stats` before and after.

The acceptance gates (``--check``):

* wave-3 traverser messages drop by ≥ 25 % vs the static engine (and
  strictly drop), on both kernels;
* every query's rows are bit-identical across static/migrated and
  across the run and scalar kernels;
* all weight-ledger audits are clean (the MIGRATE events re-assert
  Theorem 1 at each flip) and no query was retried or restarted;
* at least one migration actually flipped mid-wave traffic.

Usage::

    PYTHONPATH=src python -m repro migrate --out BENCH_PR9.json
    PYTHONPATH=src python -m repro migrate --quick --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.graph.property_graph import OUT
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.kernels import KERNEL_NAMES as KERNELS
from repro.runtime.metrics import MsgKind
from repro.runtime.migrate import Migrator, TrafficMiner
from repro.runtime.trace import WeightLedgerAuditor

#: cluster shape: 4 partitions keeps each hot 2-hop neighborhood small
#: enough to consolidate under the miner's balance cap
NODES, WPN = 2, 2
ENGINE_SEED = 3
GRAPH_SEED = 7

GRAPH_CFG = PowerLawConfig("mig-demo", 400, 6.0)

#: workload shape: per wave, a Zipf-skewed mix of 2-hop khop counts and
#: IC-style group-count lookups from a few hot roots
WAVE_QUERIES = 24
QUICK_WAVE_QUERIES = 10
WAVES = 3
ARRIVAL_SPACING_US = 40.0
HOT_ROOTS = 4
ZIPF_WEIGHTS = [12, 3, 2, 1]

#: mined batch shape (two rounds: 1-hop frontier, then the 2-hop shell).
#: The hot 2-hop neighborhoods share a ~130-vertex core, so consolidating
#: them deliberately trades balance for locality (Loom's bet); the bench
#: reports the resulting imbalance alongside the message drop.
MINE_TOP_K = 128
MINE_MIN_GAIN = 2
MINE_BALANCE_SLACK = 1.20
MINE_DOMINANCE = 1.5


def build_graph() -> PartitionedGraph:
    """The bench graph: a power-law graph partitioned over the cluster."""
    return PartitionedGraph.from_graph(
        powerlaw_graph(GRAPH_CFG, seed=GRAPH_SEED), NODES * WPN
    )


def hot_roots(graph: PartitionedGraph) -> List[int]:
    """The highest-out-degree vertices (deterministic tie-break by id)."""
    degrees = []
    for vid in range(GRAPH_CFG.num_vertices):
        store = graph.store_of(vid)
        degrees.append((-store.degree(vid, OUT), vid))
    degrees.sort()
    return [vid for _d, vid in degrees[:HOT_ROOTS]]


def khop_plan(graph: PartitionedGraph):
    """Parameterized 2-hop expansion + count (the khop workload half)."""
    return (
        Traversal("khop2")
        .v_param("start")
        .khop(GRAPH_CFG.edge_label, k=2)
        .count()
        .compile(graph)
    )


def ic_plan(graph: PartitionedGraph):
    """Parameterized IC-style 2-hop group-count (the aggregation half)."""
    return (
        Traversal("ic_group")
        .v_param("start")
        .out(GRAPH_CFG.edge_label)
        .out(GRAPH_CFG.edge_label)
        .as_("n")
        .group_count("n")
        .compile(graph)
    )


def wave_workload(roots: List[int], n_queries: int) -> List[Tuple[str, int]]:
    """The (plan kind, start vertex) list of one wave — Zipf over roots,
    alternating khop and IC shapes, identical for every engine."""
    rng = random.Random(0xC0FFEE)
    picks = rng.choices(range(len(roots)), weights=ZIPF_WEIGHTS, k=n_queries)
    return [
        ("khop" if i % 2 == 0 else "ic", roots[idx])
        for i, idx in enumerate(picks)
    ]


class BenchRun:
    """One engine (static or migrated) driven through the three waves."""

    def __init__(self, kernel: str, migrated: bool, n_queries: int) -> None:
        self.graph = build_graph()
        self.engine = AsyncPSTMEngine(
            self.graph, NODES, WPN,
            config=EngineConfig(trace=True, kernel=kernel),
            seed=ENGINE_SEED,
        )
        self.migrated = migrated
        self.plans = {"khop": khop_plan(self.graph), "ic": ic_plan(self.graph)}
        self.workload = wave_workload(hot_roots(self.graph), n_queries)
        self.miner = TrafficMiner(self.engine)
        self.migrator = Migrator(self.engine)
        if migrated:
            self.miner.attach()
        self.sessions: List[Any] = []
        self.waves: List[Dict[str, Any]] = []
        self.cut_before = self.graph.cut_stats()

    def _submit_wave(self) -> List[Any]:
        start = self.engine.clock.now
        wave_sessions = []
        for i, (kind, root) in enumerate(self.workload):
            s = self.engine.submit(
                self.plans[kind], {"start": root},
                at=start + i * ARRIVAL_SPACING_US,
            )
            wave_sessions.append(s)
        self.sessions.extend(wave_sessions)
        return wave_sessions

    def run_wave(self, mid_wave_migration: bool = False) -> None:
        """Submit one staggered wave and drain it, recording per-wave stats.

        With ``mid_wave_migration`` a mine-and-migrate is scheduled halfway
        through the arrival schedule, so the flip lands under live traffic.
        """
        metrics = self.engine.metrics
        before = metrics.messages.get(MsgKind.TRAVERSER, 0)
        wave_sessions = self._submit_wave()
        if mid_wave_migration:
            # Flip the placement while this wave's queries are in flight —
            # the live-migration case. Mining happens at the scheduled
            # moment (not submit time) so the gain model sees all traffic
            # observed so far, and the counters reset at the flip so the
            # next round mines only post-flip traffic.
            mid = self.engine.clock.now + ARRIVAL_SPACING_US * (
                len(self.workload) // 2
            )
            self.engine.clock.schedule_at(mid, self._mine_and_migrate)
        self.engine.clock.run_until_idle()
        latencies = [s.qmetrics.latency_us for s in wave_sessions]
        self.waves.append({
            "traverser_messages":
                self.engine.metrics.messages.get(MsgKind.TRAVERSER, 0) - before,
            "mean_latency_us": sum(latencies) / len(latencies),
            "max_latency_us": max(latencies),
        })

    def _mine_and_migrate(self) -> None:
        moves = self.miner.mine(
            top_k=MINE_TOP_K, min_gain=MINE_MIN_GAIN,
            balance_slack=MINE_BALANCE_SLACK, dominance=MINE_DOMINANCE,
        )
        self.miner.reset()
        self.migrator.migrate(moves)

    def execute(self) -> Dict[str, Any]:
        """Run the 3-wave experiment and return the result record."""
        self.run_wave()                                     # wave 1: observe
        self.run_wave(mid_wave_migration=self.migrated)     # wave 2: flip live
        if self.migrated:
            self._mine_and_migrate()   # second round: the 2-hop shell
        self.run_wave()                                     # wave 3: steady state
        audit = WeightLedgerAuditor(self.engine.trace.events).audit()
        m = self.engine.metrics
        return {
            "waves": self.waves,
            "rows": [s.results for s in self.sessions],
            "completed": sum(1 for s in self.sessions if s.qmetrics.done),
            "retries": sum(s.qmetrics.retries for s in self.sessions),
            "migrations": m.migrations,
            "vertices_migrated": m.vertices_migrated,
            "migration_bytes": m.migration_bytes,
            "traversers_forwarded": m.traversers_forwarded,
            "audit_ok": audit.ok,
            "audit_migrations": audit.migrations,
            "audit_violations": audit.violations[:5],
            "cut_before": self.cut_before,
            "cut_after": self.graph.cut_stats(),
            "partition_sizes": self.graph.partition_sizes(),
        }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write a JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="CI variant: fewer queries per wave")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless migration cuts wave-3 "
                             "traverser messages by >= 25%% with identical "
                             "rows and clean audits on both kernels")
    args = parser.parse_args(argv)

    n_queries = QUICK_WAVE_QUERIES if args.quick else WAVE_QUERIES
    results: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for kernel in KERNELS:
        results[kernel] = {}
        for label, migrated in (("static", False), ("migrated", True)):
            run = BenchRun(kernel, migrated, n_queries)
            results[kernel][label] = run.execute()
        static = results[kernel]["static"]
        mig = results[kernel]["migrated"]
        s3 = static["waves"][-1]["traverser_messages"]
        m3 = mig["waves"][-1]["traverser_messages"]
        drop = 1.0 - m3 / max(s3, 1)
        print(f"{kernel:<7}: wave-3 traverser msgs {s3} -> {m3} "
              f"({drop:.1%} drop)  migrations={mig['migrations']} "
              f"moved={mig['vertices_migrated']} "
              f"forwarded={mig['traversers_forwarded']}  "
              f"audit={'ok' if mig['audit_ok'] else 'VIOLATED'}")
        print("         max/mean after wave 3 (vertices, Σ(degree + 1)): "
              + "  ".join(f"{label} {run['cut_after']['imbalance']:.2f}, "
                          f"{run['cut_after']['load_imbalance']:.2f}"
                          for label, run in (("static", static),
                                             ("migrated", mig))))

    ref_rows = results[KERNELS[0]]["static"]["rows"]
    gates = {
        "messages_drop_25pct": all(
            results[k]["migrated"]["waves"][-1]["traverser_messages"]
            <= 0.75 * results[k]["static"]["waves"][-1]["traverser_messages"]
            for k in KERNELS),
        "rows_bit_identical": all(
            results[k][label]["rows"] == ref_rows
            for k in KERNELS for label in ("static", "migrated")),
        "audits_clean": all(
            results[k][label]["audit_ok"]
            for k in KERNELS for label in ("static", "migrated")),
        "no_restarts": all(
            results[k][label]["retries"] == 0
            and results[k][label]["completed"] == len(results[k][label]["rows"])
            for k in KERNELS for label in ("static", "migrated")),
        "migrated_live": all(
            results[k]["migrated"]["migrations"] >= 1
            and results[k]["migrated"]["audit_migrations"] >= 1
            for k in KERNELS),
    }
    ok = all(gates.values())
    for gate, held in gates.items():
        print(f"  gate {gate}: {'PASS' if held else 'FAIL'}")
    print(f"migration gates: {'PASS' if ok else 'FAIL'}")

    if args.out:
        report = {
            "workload": {
                "waves": WAVES,
                "queries_per_wave": n_queries,
                "hot_roots": HOT_ROOTS,
                "zipf_weights": ZIPF_WEIGHTS,
                "partitions": NODES * WPN,
            },
            "kernels": {
                k: {label: {kk: vv for kk, vv in run.items() if kk != "rows"}
                    for label, run in runs.items()}
                for k, runs in results.items()
            },
            "gates": gates,
            "ok": ok,
        }
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}")

    return 0 if (ok or not args.check) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
