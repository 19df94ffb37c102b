#!/usr/bin/env python3
"""A docs/PERFORMANCE.md trajectory row from two spine results.

    python3 benchmarks/spine/run.py --out parent.json     # at the parent
    python3 benchmarks/spine/run.py --out change.json     # at the change
    python3 tools/bench_trajectory.py parent.json change.json \\
        [--layers delivery.tracker_msgs,network.packets,network.bytes]

Prints the markdown table the trajectory sections carry: one row per
workload, one column per end-to-end metric of ``BENCHMARK.json``, each cell
``parent median → change median (change in %)``, marked with the verdict
``benchmarks/spine/compare.py`` gives it: **bold** = ``improved`` (better
than the parent by more than the metric's bound), ``!`` = ``regressed``,
``?`` = ``unresolved`` (either side's run-to-run spread is wider than the
bound, so the two cannot be told apart). Under the table: ``sim_digest``
and ``rows_sha`` ``equal`` / ``DIFFERS`` per workload, and with
``--layers`` a second table of those per-layer counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "spine"))
from compare import compare  # noqa: E402  (the one verdict rule)

#: how a compare.py verdict marks its cell
MARKS = {"improved": "**{}**", "regressed": "{} !", "unresolved": "{} ?",
         "unchanged": "{}"}


def number(value: float) -> str:
    """A number as the trajectory tables print it: counts whole with
    spaced thousands, measurements to one decimal from 100 up and three
    significant digits below."""
    if abs(value) >= 1000 or float(value).is_integer():
        return f"{value:,.0f}".replace(",", " ")
    if abs(value) >= 100:
        return f"{value:.1f}"
    return f"{value:#.3g}"


def cell(row: Dict[str, Any]) -> str:
    """``a → b (±x %)`` marked with the verdict of one compare.py row."""
    change = (row["b"] - row["a"]) / row["a"] if row["a"] else 0.0
    text = f"{number(row['a'])} → {number(row['b'])} ({change:+.1%})"
    return MARKS[row["verdict"]].format(text)


def table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def trajectory_row(parent: Dict[str, Any], change: Dict[str, Any],
                   spec: Dict[str, Any], layers: Sequence[str] = ()) -> str:
    """The markdown of one trajectory row (see the module docstring)."""
    names = list(parent["workloads"])
    verdicts = compare(parent, change, spec)
    lines = table(
        ["workload"] + [f"`{m['name']}`" for m in spec["end_to_end"]],
        [[f"`{w}`"] + [cell(r) for r in verdicts if r["workload"] == w]
         for w in names],
    )
    lines.append("")
    for w in names:
        a, b = parent["workloads"][w], change["workloads"][w]
        verdicts = ", ".join(
            f"`{key}` {'equal' if a[key] == b[key] else 'DIFFERS'}"
            for key in ("sim_digest", "rows_sha"))
        lines.append(f"- `{w}`: {verdicts}; failed "
                     f"{sum(a['failed'].values())} → {sum(b['failed'].values())}"
                     f" of {b['attempted']}")
    if layers:
        lines.append("")
        lines += table(
            ["workload"] + [f"`{name}`" for name in layers],
            [[f"`{w}`"] + [
                f"{number(parent['workloads'][w]['per_layer'][name])} → "
                f"{number(change['workloads'][w]['per_layer'][name])}"
                for name in layers] for w in names],
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layers", default="",
                        help="comma-separated per-layer metrics to tabulate")
    args = parser.parse_args(argv)
    docs = [json.loads(Path(p).read_text(encoding="utf-8"))
            for p in (args.parent, args.change)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = [name for name in args.layers.split(",") if name]
    print(trajectory_row(docs[0], docs[1], spec, layers))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
