#!/usr/bin/env python3
"""Where an LDBC spine workload's kernel steps go, plan by plan.

    python3 tools/plan_census.py --workload ic_open --seed 1
    python3 tools/plan_census.py --root ../parent     # another checkout
    python3 tools/plan_census.py --smoke              # tiny sizes

Sets the workload up and runs it once, untraced, as
``benchmarks/spine/run.py`` does, then prints two markdown tables from
the finished sessions. *Per plan*: its queries, the kernel steps they
executed (``qmetrics.steps_executed``), their share of the run's and
their mean per query, and the simulated latency P50 and max
(``qmetrics.latency_us``, nearest rank). *Per operator* of the plan with
the most steps: the traversers that executed it (``op_steps``) and the
children it spawned (``op_spawned``), summed over that plan's queries.
``--root`` measures that checkout's own ``src/`` through its own spine.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: the spine workloads that run LDBC plans
WORKLOADS = ("ic_open", "ic_closed", "planes_idle", "mixed_rw")


def census(sessions: List[Any]) -> Dict[str, Dict[str, Any]]:
    """Per plan name: its plan, queries, steps, latencies and operator
    counts, over the sessions that finished."""
    plans: Dict[str, Dict[str, Any]] = {}
    for s in sessions:
        if not s.qmetrics.done:
            continue
        c = plans.setdefault(s.plan.name, {
            "plan": s.plan, "queries": 0, "steps": 0, "latencies": [],
            "op_steps": defaultdict(int), "op_spawned": defaultdict(int)})
        c["queries"] += 1
        c["steps"] += s.qmetrics.steps_executed
        c["latencies"].append(s.qmetrics.latency_us)
        for idx, n in s.op_steps.items():
            c["op_steps"][idx] += n
        for idx, n in s.op_spawned.items():
            c["op_spawned"][idx] += n
    return plans


def count(n: int) -> str:
    """A count with spaced thousands, as docs/PERFORMANCE.md prints them."""
    return f"{n:,}".replace(",", " ")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT), help="checkout to measure")
    parser.add_argument("--workload", default="ic_open", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="the spine's smoke sizes")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.root).resolve() / "benchmarks" / "spine"))
    import metrics
    import workloads as wl
    from spans import Recorder

    p = wl.prepare(wl.WORKLOADS[args.workload], args.seed,
                   wl.SMOKE if args.smoke else wl.FULL, Recorder())
    wl.start(p)
    p.engine.clock.run_until_idle()
    plans = census(p.sessions)
    total = sum(c["steps"] for c in plans.values())

    print(f"`{args.workload}`, seed {args.seed}: {count(total)} kernel steps "
          f"over {count(sum(c['queries'] for c in plans.values()))} queries")
    print()
    print("| plan | queries | kernel steps | share | steps/query "
          "| P50 µs | max µs |")
    print("|---|---|---|---|---|---|---|")
    ranked = sorted(plans.items(), key=lambda kv: (-kv[1]["steps"], kv[0]))
    for name, c in ranked:
        lat = sorted(c["latencies"])
        print(f"| {name} | {c['queries']} | {count(c['steps'])} "
              f"| {c['steps'] / max(total, 1):.1%} "
              f"| {count(round(c['steps'] / c['queries']))} "
              f"| {metrics.percentile(lat, 50):.1f} | {lat[-1]:.1f} |")
    name, c = ranked[0]
    print()
    print(f"Operators of {name}, the plan with the most steps:")
    print()
    print("| op | operator | op_steps | op_spawned |")
    print("|---|---|---|---|")
    for op in c["plan"].ops:
        print(f"| {op.idx} | `{op.name}` | {count(c['op_steps'][op.idx])} "
              f"| {count(c['op_spawned'][op.idx])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
