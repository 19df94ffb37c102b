"""Overload soak: open-loop multi-tenant LDBC mix at rising arrival rates.

The graceful-degradation experiment of docs/OVERLOAD.md. An open-loop
arrival process (no client back-off — the adversarial case for a shared
service) fires a mixed LDBC SNB interactive workload at an engine with the
overload protections armed: bounded admission with priorities, credit-gated
per-partition inboxes, and cooperative cancellation. The arrival rate is
swept over multiples of the admitted-capacity estimate; a well-protected
engine should show

* **goodput that plateaus** at its capacity instead of collapsing,
* **shed rate that rises** to absorb the excess (``QueryRejectedError`` /
  ``AdmissionTimeoutError``), and
* **admitted-query P99 that stays bounded** (the acceptance gate: P99 at
  4x saturation within 2x of its 1x value) with **bounded queue memory**
  (peak inbox depth ≤ ``inbox_capacity``; zero leaked stage ledgers).

Usage::

    PYTHONPATH=src python -m repro overload --out BENCH_PR3.json
    PYTHONPATH=src python -m repro overload --quick --check   # CI gate
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.harness import BENCH_CLUSTER, snb_dataset, snb_graph
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.short import IS_QUERIES
from repro.query.plan import PhysicalPlan
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig, QuerySession
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.variants import make_graphdance

SOAK_SEED = 20240731

#: (kind, number, relative arrival weight): the interactive-short queries
#: are the high-rate cheap tenants, IC2 the heavy analytical tenant.
FULL_MIX: Tuple[Tuple[str, int, int], ...] = (
    ("IS", 1, 4),
    ("IS", 2, 4),
    ("IS", 3, 4),
    ("IC", 2, 1),
)
QUICK_MIX: Tuple[Tuple[str, int, int], ...] = (
    ("IS", 1, 4),
    ("IS", 2, 4),
    ("IC", 2, 1),
)

RATE_MULTIPLIERS = (1.0, 2.0, 4.0)

#: overload configuration under test
MAX_CONCURRENT = 8
ADMISSION_QUEUE = 16
INBOX_CAPACITY = 128


def _protected_config(mean_service_us: float) -> EngineConfig:
    return EngineConfig(
        max_concurrent_queries=MAX_CONCURRENT,
        admission_queue_size=ADMISSION_QUEUE,
        # A waiter older than ~one full queue drain will badly miss any
        # interactive deadline anyway; expire it instead of serving it.
        admission_timeout_us=mean_service_us * ADMISSION_QUEUE,
        inbox_capacity=INBOX_CAPACITY,
    )


def _build_mix(
    dataset_name: str, mix: Tuple[Tuple[str, int, int], ...]
) -> List[Tuple[str, PhysicalPlan, Any, int]]:
    """Compile the mix's plans once: (label, plan, qdef, weight)."""
    graph = snb_graph(dataset_name, BENCH_CLUSTER.num_partitions)
    out = []
    for kind, number, weight in mix:
        qdef = (IS_QUERIES if kind == "IS" else IC_QUERIES)[number]
        out.append((qdef.name, qdef.build().compile(graph), qdef, weight))
    return out


def _fresh_engine(dataset_name: str, config: EngineConfig) -> AsyncPSTMEngine:
    graph = snb_graph(dataset_name, BENCH_CLUSTER.num_partitions)
    return make_graphdance(graph, BENCH_CLUSTER, config=config)


def calibrate(
    dataset_name: str,
    mix: List[Tuple[str, PhysicalPlan, Any, int]],
    probes_per_type: int,
) -> float:
    """Weighted mean sequential service time (µs) of the mix."""
    dataset = snb_dataset(dataset_name)
    engine = _fresh_engine(dataset_name, EngineConfig())
    rng = random.Random(SOAK_SEED)
    total = 0.0
    total_weight = 0
    for _label, plan, qdef, weight in mix:
        for _ in range(probes_per_type):
            result = engine.run(plan, qdef.make_params(dataset, rng))
            total += result.latency_us * weight
            total_weight += weight
    return total / total_weight


def _arrival_schedule(
    mix: List[Tuple[str, PhysicalPlan, Any, int]],
    dataset: Any,
    rate_per_us: float,
    count: int,
    seed: int,
) -> List[Tuple[float, str, PhysicalPlan, Dict[str, Any], int]]:
    """``count`` Poisson arrivals: (time_us, label, plan, params, priority).

    The short queries get priority 0 and the heavy IC tenant priority 1,
    so under pressure the admission queue serves interactive traffic first
    — the multi-tenant policy the priorities exist for.
    """
    rng = random.Random(seed)
    weights = [w for _l, _p, _q, w in mix]
    arrivals = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate_per_us)
        label, plan, qdef, _w = rng.choices(mix, weights=weights, k=1)[0]
        priority = 0 if label.startswith("IS") else 1
        arrivals.append((t, label, plan, qdef.make_params(dataset, rng), priority))
    return arrivals


def run_rate(
    dataset_name: str,
    mix: List[Tuple[str, PhysicalPlan, Any, int]],
    mean_service_us: float,
    multiplier: float,
    count: int,
    protected: bool = True,
) -> Dict[str, Any]:
    """One open-loop soak at ``multiplier`` × the saturation estimate."""
    dataset = snb_dataset(dataset_name)
    config = (
        _protected_config(mean_service_us) if protected else EngineConfig()
    )
    engine = _fresh_engine(dataset_name, config)
    # Admitted capacity ≈ slots / mean service time (Little's law); the
    # 1x point offers exactly that.
    saturation_per_us = MAX_CONCURRENT / mean_service_us
    rate = saturation_per_us * multiplier
    schedule = _arrival_schedule(
        mix, dataset, rate, count, SOAK_SEED + int(multiplier * 100)
    )

    admitted = LatencyRecorder()   # dispatch → completion
    e2e = LatencyRecorder()        # arrival → completion
    outcomes = {"completed": 0, "rejected": 0, "expired": 0, "cancelled": 0}

    def on_done(session: QuerySession) -> None:
        if session.rejected:
            outcomes["rejected"] += 1
        elif session.admission_timed_out:
            outcomes["expired"] += 1
        elif session.cancelled or session.failed:
            outcomes["cancelled"] += 1
        else:
            outcomes["completed"] += 1
            admitted.record(session.qmetrics.latency_us)
            e2e.record(session.qmetrics.completed_at_us - session.arrival_us)

    for at, _label, plan, params, priority in schedule:
        engine.submit(plan, params, on_done=on_done, at=at, priority=priority)
    engine.clock.run_until_idle()

    snap = engine.overload_snapshot()
    span_us = engine.clock.now
    completed = outcomes["completed"]
    shed = outcomes["rejected"] + outcomes["expired"]
    row = {
        "multiplier": multiplier,
        "protected": protected,
        "offered_qps": round(rate * 1e6, 1),
        "offered": count,
        "completed": completed,
        "rejected": outcomes["rejected"],
        "expired": outcomes["expired"],
        "cancelled": outcomes["cancelled"],
        "goodput_qps": round(completed / (span_us / 1e6), 1) if span_us else 0.0,
        "shed_rate": round(shed / count, 4),
        "p99_ms": round(admitted.p99() / 1e3, 4) if len(admitted) else None,
        "mean_ms": round(admitted.average() / 1e3, 4) if len(admitted) else None,
        "e2e_p99_ms": round(e2e.p99() / 1e3, 4) if len(e2e) else None,
        "peak_queue_depth": snap["peak_queue_depth"],
        "peak_inbox_depth": snap["peak_inbox_depth"],
        "peak_admission_waiting": snap.get("admission_peak_waiting", 0),
        "credit_stalls": snap["credit_stalls"],
        "traversers_reclaimed": engine.metrics.traversers_reclaimed,
        "leaked_open_stages": snap["open_stages"],
        "leaked_cancelling": snap["cancelling"],
        "leaked_sessions": snap["active_sessions"],
    }
    mode = "protected" if protected else "unprotected"
    print(
        f"{multiplier:4.1f}x {mode:<12} offered {count:4d}  "
        f"completed {completed:4d}  shed {shed:4d} "
        f"({row['shed_rate']:6.1%})  p99 {row['p99_ms']} ms  "
        f"goodput {row['goodput_qps']:8.1f} qps  "
        f"leaks {row['leaked_open_stages']}/{row['leaked_cancelling']}"
    )
    return row


def evaluate(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The acceptance checks over the protected sweep."""
    protected = [r for r in rows if r["protected"]]
    base = min(protected, key=lambda r: r["multiplier"])
    top = max(protected, key=lambda r: r["multiplier"])
    p99_ratio = (
        top["p99_ms"] / base["p99_ms"]
        if top["p99_ms"] and base["p99_ms"]
        else float("inf")
    )
    return {
        "p99_ratio_top_vs_base": round(p99_ratio, 3),
        "p99_bounded": p99_ratio <= 2.0,
        "nonzero_shed_at_top": top["rejected"] > 0,
        "zero_leaks": all(
            r["leaked_open_stages"] == 0
            and r["leaked_cancelling"] == 0
            and r["leaked_sessions"] == 0
            for r in protected
        ),
        "bounded_inbox": all(
            r["peak_inbox_depth"] <= INBOX_CAPACITY for r in protected
        ),
        "goodput_monotone_not_collapsing": top["goodput_qps"]
        >= 0.5 * base["goodput_qps"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro overload", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--out", default=None, help="write a JSON report here")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI soak: smaller mix and fewer arrivals per rate",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero unless the degradation gates hold",
    )
    parser.add_argument(
        "--count", type=int, default=None,
        help="arrivals per rate point (default 150, quick 60)",
    )
    parser.add_argument(
        "--unprotected",
        action="store_true",
        help="also soak a default-config engine at the top rate",
    )
    args = parser.parse_args(argv)

    dataset_name = "sf300"
    mix_spec = QUICK_MIX if args.quick else FULL_MIX
    count = args.count or (60 if args.quick else 150)
    probes = 2 if args.quick else 3

    print(f"compiling mix ({len(mix_spec)} query types, {dataset_name})...")
    mix = _build_mix(dataset_name, mix_spec)
    mean_service_us = calibrate(dataset_name, mix, probes)
    saturation_qps = MAX_CONCURRENT / mean_service_us * 1e6
    print(
        f"mean service {mean_service_us:.1f} us  "
        f"→ saturation ≈ {saturation_qps:.0f} qps "
        f"({MAX_CONCURRENT} slots)"
    )

    rows = [
        run_rate(dataset_name, mix, mean_service_us, m, count)
        for m in RATE_MULTIPLIERS
    ]
    if args.unprotected:
        rows.append(
            run_rate(
                dataset_name, mix, mean_service_us,
                RATE_MULTIPLIERS[-1], count, protected=False,
            )
        )
    checks = evaluate(rows)
    print("checks:", json.dumps(checks))

    report = {
        "benchmark": "overload soak (open-loop LDBC mix)",
        "cluster": {
            "nodes": BENCH_CLUSTER.nodes,
            "workers_per_node": BENCH_CLUSTER.workers_per_node,
        },
        "mix": [
            {"label": label, "weight": weight}
            for label, _p, _q, weight in mix
        ],
        "overload_config": {
            "max_concurrent_queries": MAX_CONCURRENT,
            "admission_queue_size": ADMISSION_QUEUE,
            "inbox_capacity": INBOX_CAPACITY,
        },
        "calibration": {
            "mean_service_us": round(mean_service_us, 2),
            "saturation_qps": round(saturation_qps, 1),
        },
        "quick": args.quick,
        "results": rows,
        "checks": checks,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        failed = [k for k, v in checks.items() if v is False]
        if failed:
            print(f"ERROR: degradation gates failed: {failed}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
