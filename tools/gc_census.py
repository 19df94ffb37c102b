#!/usr/bin/env python3
"""Graph-store bytes per edge and collector cost of the spine workloads.

    python3 tools/gc_census.py                        # this checkout
    python3 tools/gc_census.py --root ../parent       # another checkout
    python3 tools/gc_census.py --seed 7 --workload ic_open

Prints two markdown tables. *Bytes per edge*: what the set-up's graph
leaves allocated after generation (raw) and what partitioning adds
(``tracemalloc`` after a full collection, over the edge count), for the
k-hop graph and for the SNB graph the four LDBC workloads share.
*Collector*: per workload, one untraced timed run as
``benchmarks/spine/run.py`` times it (set-up, ``gc.collect()``, run),
with ``gc.callbacks`` counting full (generation-2) and all collections
and summing their seconds, plus the GC-tracked objects left after
set-up. Each measurement runs in a fresh interpreter. ``--root`` measures
that checkout's own ``src/`` through its own spine.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: one workload per dataset: the four LDBC workloads share ic_open's graph
GRAPHS = {"khop_solo": "k-hop power law", "ic_open": "SNB (LDBC four)"}
WORKLOADS = ("khop_solo", "ic_open", "ic_closed", "planes_idle", "mixed_rw")
#: the spans whose end marks the graph's footprint
MARKS = ("datasets.generate", "graph.partition")


def footprint(name: str, seed: int) -> Dict[str, Any]:
    """Bytes per edge left allocated after each of :data:`MARKS`."""
    import workloads as wl
    from spans import Recorder

    marks: Dict[str, int] = {}

    class Marking(Recorder):
        @contextmanager
        def span(self, span_name):
            with super().span(span_name):
                yield
            if span_name in MARKS:
                gc.collect()
                marks[span_name] = tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    p = wl.prepare(wl.WORKLOADS[name], seed, wl.FULL, Marking())
    edges = p.engine.graph.edge_count
    raw, partitioned = (marks[m] for m in MARKS)
    return {"edges": edges, "raw": raw / edges,
            "partitioned": (partitioned - raw) / edges}


def collector(name: str, seed: int) -> Dict[str, Any]:
    """Collections during one untraced timed run."""
    import workloads as wl
    from spans import Recorder

    p = wl.prepare(wl.WORKLOADS[name], seed, wl.FULL, Recorder())
    gc.collect()
    tracked = len(gc.get_objects())
    counts = {"full": [0, 0.0], "all": [0, 0.0]}
    started: List[float] = []

    def hook(phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            started.append(perf_counter())
            return
        took = perf_counter() - started.pop()
        for key in ("all", "full") if info["generation"] == 2 else ("all",):
            counts[key][0] += 1
            counts[key][1] += took

    gc.callbacks.append(hook)
    t0 = perf_counter()
    wl.start(p)
    p.engine.clock.run_until_idle()
    wall = perf_counter() - t0
    gc.callbacks.remove(hook)
    return {"wall": wall, "tracked": tracked, **counts}


def count(n: int) -> str:
    """A count with spaced thousands, as docs/PERFORMANCE.md prints them."""
    return f"{n:,}".replace(",", " ")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(ROOT), help="checkout to measure")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="collector rows (default: all five)")
    parser.add_argument("--one", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one:
        sys.path.insert(0, str(Path(args.root).resolve() / "benchmarks" / "spine"))
        kind, name = args.one
        measure = footprint if kind == "bytes" else collector
        print(json.dumps(measure(name, args.seed)))
        return 0

    def one(kind: str, name: str) -> Dict[str, Any]:
        out = subprocess.run(
            [sys.executable, __file__, "--root", args.root, "--seed",
             str(args.seed), "--one", kind, name],
            capture_output=True, text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])

    print("| graph | edges | raw B/edge | partitioned B/edge |")
    print("|---|---|---|---|")
    for name, title in GRAPHS.items():
        r = one("bytes", name)
        print(f"| {title} | {count(r['edges'])} | {r['raw']:.1f} "
              f"| {r['partitioned']:.1f} |")
    print()
    print("| workload | run s | full GCs | full-GC s | all GCs | all-GC s "
          "| GC-tracked after set-up |")
    print("|---|---|---|---|---|---|---|")
    for name in args.workload or WORKLOADS:
        r = one("gc", name)
        print(f"| `{name}` | {r['wall']:.2f} | {r['full'][0]} | {r['full'][1]:.2f} "
              f"| {count(r['all'][0])} | {r['all'][1]:.2f} | {count(r['tracked'])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
