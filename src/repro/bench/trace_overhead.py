"""Wall-clock overhead of the observability plane (docs/OBSERVABILITY.md).

Measures the real (not simulated) cost of ``EngineConfig.trace`` on the
``khop3_count`` acceptance microbenchmark, in both directions:

* **disabled mode** — the default. Every hook is a single ``is not None``
  guard on a hoisted local; no event object is ever allocated. The gate
  (``--check``) asserts the trace-off wall-clock stays within 5% of the
  pre-observability engine recorded in ``BENCH_PR4.json`` on the same
  workload.
* **enabled mode** — full event recording plus a
  :class:`~repro.runtime.trace.WeightLedgerAuditor` replay. This is the
  price of a traced debugging run; it is reported, not gated.

Tracing must also be *pure observation*: the simulated outputs (rows and
per-query latencies) of the traced and untraced runs are compared exactly
and any divergence fails the bench.

Usage::

    PYTHONPATH=src python -m repro.bench.trace_overhead --out BENCH_PR5.json
    PYTHONPATH=src python -m repro.bench.trace_overhead --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.bench.harness import BENCH_CLUSTER, khop_starts, powerlaw_partitioned
from repro.query.plan import PhysicalPlan
from repro.query.traversal import Traversal
from repro.runtime.engine import EngineConfig
from repro.runtime.trace import WeightLedgerAuditor
from repro.runtime.variants import make_graphdance

#: the regression gate: trace-off wall-clock may exceed the PR4 reference
#: (same workload, same machine) by at most this fraction
MAX_DISABLED_OVERHEAD = 0.05

#: Worker drain budget used by this benchmark. The EngineConfig default (64)
#: is tuned for latency fairness under concurrency; this throughput
#: microbenchmark uses a larger budget so per-run scheduling overhead does
#: not drown the hook cost being measured (and stays comparable with the
#: BENCH_PR4.json reference, recorded at the same value).
BENCH_BATCH_SIZE = 256

_REPO_ROOT = Path(__file__).resolve().parents[3]


@lru_cache(maxsize=None)
def _khop3_count_plan() -> PhysicalPlan:
    """Pure 3-hop neighborhood count (the traversal-dominated microbench)."""
    graph = powerlaw_partitioned("lj", BENCH_CLUSTER.num_partitions)
    return (
        Traversal("khop3count").v_param("start").khop("knows", k=3).count()
        .compile(graph)
    )


def _run_khop(trace: bool, num_starts: int) -> List[Tuple[Any, float]]:
    """One khop3_count batch; returns (rows, latency) per query."""
    config = EngineConfig(batch_size=BENCH_BATCH_SIZE, trace=trace)
    graph = powerlaw_partitioned("lj", BENCH_CLUSTER.num_partitions)
    engine = make_graphdance(graph, BENCH_CLUSTER, config=config)
    plan = _khop3_count_plan()
    out = []
    for start in khop_starts("lj", num_starts):
        result = engine.run(plan, {"start": start})
        out.append((result.rows, result.latency_us))
    if trace:
        report = WeightLedgerAuditor(engine.trace.events).audit()
        if not report.ok:  # pragma: no cover - would be a real regression
            raise AssertionError(f"trace audit failed: {report}")
    return out


def _measure(
    trace: bool, num_starts: int, repeats: int
) -> Tuple[float, List[Tuple[Any, float]]]:
    """Best-of-``repeats`` wall-clock seconds plus the simulated outputs."""
    best = float("inf")
    outputs: List[Tuple[Any, float]] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        outputs = _run_khop(trace, num_starts)
        best = min(best, time.perf_counter() - t0)
    return best, outputs


def _pr4_reference(path: Path) -> float | None:
    """The khop3_count batched wall-clock recorded by the PR4 bench."""
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    for row in report.get("results", []):
        if row.get("workload") == "khop3_count":
            return row.get("batched_wall_s")
    return None


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write a JSON report here")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: fewer queries, one repeat")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N wall-clock timing")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if disabled-mode overhead vs the "
                             "PR4 reference exceeds "
                             f"{MAX_DISABLED_OVERHEAD:.0%}")
    parser.add_argument("--pr4", default=str(_REPO_ROOT / "BENCH_PR4.json"),
                        help="path to the PR4 wallclock report")
    args = parser.parse_args(argv)

    num_starts = 2 if args.quick else 12
    repeats = 1 if args.quick else args.repeats

    # Warm-up (uncounted): builds the lru-cached graph + plan.
    _run_khop(False, num_starts)
    off_s, off_out = _measure(False, num_starts, repeats)
    on_s, on_out = _measure(True, num_starts, repeats)
    identical = off_out == on_out
    traced_overhead = on_s / off_s - 1.0 if off_s > 0 else float("inf")
    print(f"khop3_count  trace-off {off_s:7.3f}s  trace-on {on_s:7.3f}s  "
          f"traced overhead {traced_overhead:+7.1%}  identical={identical}")

    pr4_s = _pr4_reference(Path(args.pr4))
    disabled_overhead = None
    if pr4_s:
        disabled_overhead = off_s / pr4_s - 1.0
        print(f"PR4 reference (batched, same workload): {pr4_s:.4f}s → "
              f"disabled-mode overhead {disabled_overhead:+.1%} "
              f"(gate < {MAX_DISABLED_OVERHEAD:.0%})")
    else:
        print(f"no PR4 reference found at {args.pr4}; disabled-mode gate "
              f"skipped")

    report = {
        "benchmark": "trace overhead (khop3_count)",
        "cluster": {
            "nodes": BENCH_CLUSTER.nodes,
            "workers_per_node": BENCH_CLUSTER.workers_per_node,
        },
        "batch_size": BENCH_BATCH_SIZE,
        "queries": len(off_out),
        "quick": args.quick,
        "trace_off_wall_s": round(off_s, 4),
        "trace_on_wall_s": round(on_s, 4),
        "traced_overhead_pct": round(traced_overhead * 100, 1),
        "pr4_batched_wall_s": pr4_s,
        "disabled_overhead_vs_pr4_pct": (
            None if disabled_overhead is None
            else round(disabled_overhead * 100, 1)
        ),
        "identical_simulated_output": identical,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")

    if not identical:
        print("ERROR: tracing changed the simulated output", file=sys.stderr)
        return 1
    if args.check and disabled_overhead is not None and (
            disabled_overhead > MAX_DISABLED_OVERHEAD):
        print(f"ERROR: disabled-mode overhead {disabled_overhead:+.1%} "
              f"exceeds the {MAX_DISABLED_OVERHEAD:.0%} gate",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
