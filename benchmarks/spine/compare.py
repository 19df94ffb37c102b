#!/usr/bin/env python3
"""Compare two results of the whole set: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): B against A, with the bound
frozen in ``BENCHMARK.json``. ``regressed`` / ``improved`` mean B's median
is worse / better than A's by more than the bound; ``unresolved`` means the
run-to-run spread of either side ((max - min) / median over its passes) is
wider than the bound, so the two cannot be told apart; otherwise
``unchanged``. Every ratio is printed with its base. ``sim_digest`` is
compared for exact equality: on the same seed, a change that only speeds
the simulator up must leave it equal.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import metrics


def compare(a: Dict[str, Any], b: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for m in spec["end_to_end"]:
            va, vb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse = (vb["median"] - va["median"]) / va["median"]
            if m["better"] == "higher":
                worse = -worse
            spread = max(
                (v["max"] - v["min"]) / v["median"] for v in (va, vb))
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regressed"
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"],
                "a": va["median"], "b": vb["median"], "worse_by": worse,
                "bound": m["bound"], "spread": spread, "verdict": verdict,
                "digest_equal": wa["sim_digest"] == wb["sim_digest"],
            })
    return rows


def show(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<12}{'metric':<20}{'A (base)':>14}{'B':>14}"
          f"{'B/A':>8}{'bound':>7}{'spread':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:<12}{r['metric']:<20}{r['a']:>14.6g}"
              f"{r['b']:>14.6g}{r['b'] / r['a']:>8.3f}{r['bound']:>7.2f}"
              f"{r['spread']:>8.3f}  {r['verdict']} ({r['unit']})")
    for workload in dict.fromkeys(r["workload"] for r in rows):
        equal = next(r["digest_equal"] for r in rows if r["workload"] == workload)
        print(f"{workload:<12}sim_digest {'equal' if equal else 'DIFFERS'}")


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    rows = compare(docs[0], docs[1], metrics.benchmark_json())
    show(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
