#!/usr/bin/env python3
"""Where an LDBC spine workload's kernel steps go, plan by plan.

    python3 tools/plan_census.py --workload ic_open --seed 1
    python3 tools/plan_census.py --root ../parent     # another checkout
    python3 tools/plan_census.py --smoke              # tiny sizes

Sets the workload up and runs it once, untraced, as
``benchmarks/spine/run.py`` does, then prints two markdown tables from
the finished sessions. *Per plan*: its queries, the kernel steps they
dispatched (``qmetrics.steps_executed``) and the operator executions
those steps performed (dispatched steps plus the links run inside
them), the steps' share of the run's and their mean per
query, and the simulated latency P50 and max (``qmetrics.latency_us``,
nearest rank). *Per operator* of the plan with the most steps: the
traversers that executed it (``op_steps``), how many of those were
dispatched steps rather than inlined links (``op_steps - op_inlined``;
an op that ran inline is marked ``inlined``), and the children it
spawned (``op_spawned``), summed over that plan's queries — so a
filter's selectivity stays visible after it stops being a step.
``--root`` measures that checkout's own ``src/`` through its own spine
(a checkout without inlined links reports every execution as dispatched).
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
            "op_steps": defaultdict(int), "op_spawned": defaultdict(int),
            "op_inlined": defaultdict(int)})
        c["queries"] += 1
        c["steps"] += s.qmetrics.steps_executed
        c["latencies"].append(s.qmetrics.latency_us)
        for key in ("op_steps", "op_spawned", "op_inlined"):
            for idx, n in getattr(s, key, {}).items():
                c[key][idx] += n
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
    print("| plan | queries | kernel steps | executions | share "
          "| steps/query | P50 µs | max µs |")
    print("|---|---|---|---|---|---|---|---|")
    ranked = sorted(plans.items(), key=lambda kv: (-kv[1]["steps"], kv[0]))
    for name, c in ranked:
        lat = sorted(c["latencies"])
        executions = c["steps"] + sum(c["op_inlined"].values())
        print(f"| {name} | {c['queries']} | {count(c['steps'])} "
              f"| {count(executions)} "
              f"| {c['steps'] / max(total, 1):.1%} "
              f"| {count(round(c['steps'] / c['queries']))} "
              f"| {metrics.percentile(lat, 50):.1f} | {lat[-1]:.1f} |")
    name, c = ranked[0]
    print()
    print(f"Operators of {name}, the plan with the most steps:")
    print()
    print("| op | operator | op_steps | dispatched | op_spawned |")
    print("|---|---|---|---|---|")
    for op in c["plan"].ops:
        inlined = c["op_inlined"][op.idx]
        mark = " inlined" if inlined else ""
        print(f"| {op.idx} | `{op.name}`{mark} "
              f"| {count(c['op_steps'][op.idx])} "
              f"| {count(c['op_steps'][op.idx] - inlined)} "
              f"| {count(c['op_spawned'][op.idx])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
