#!/usr/bin/env python3
"""The spine benchmark: five workloads, two clocks, one command.

    python3 benchmarks/spine/run.py                      # the whole set
    python3 benchmarks/spine/run.py --out spine.json     # ... kept for compare.py
    python3 benchmarks/spine/run.py --agree              # the set twice; must agree
    python3 benchmarks/spine/run.py --workload ic_open --seed 7 --seconds 10 --trace 0

With ``--workload`` (the form ``BENCHMARK.json``'s command is run in) one
workload is measured and the last line printed is one JSON object:
``--trace 0`` repeats the untraced pass until ``--seconds`` of timed run
have accumulated and reports the end-to-end metrics (host metrics as the
median over passes); ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics. Without it, every workload gets
``ROUNDS`` untraced passes, interleaved round-robin so drift hits all
alike, then one traced pass.

Every pass is a fresh subprocess: set-up, ``gc.collect()``, timed run,
untimed verification. The simulator is single-threaded and passes run one
at a time. Simulated numbers must be bit-identical across the passes of a
workload, traced or not; a mismatch fails the benchmark. The exit code is
0 only when every operation completed, verified and met its latency limit
and every check held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional

import compare
import metrics
import workloads as wl
from spans import SETUP_SPANS, UNATTRIBUTED, Recorder, install

HERE = os.path.dirname(os.path.abspath(__file__))
#: spans of traced passes land here (ignored by git)
OUT_DIR = os.path.join(HERE, "out")
#: untraced passes per workload when the whole set runs
ROUNDS = 3
#: a pass that takes longer than this is killed and fails the benchmark
PASS_TIMEOUT_S = 150
HOST_METRICS = ("setup_s", "host_wall_s", "host_peak_rss_mb")
SIM_METRICS = ("sim_latency_p50_us", "sim_latency_hi_us", "sim_throughput_qps")


# -- one pass (runs in the child process) ------------------------------------


def run_pass(name: str, seed: int, traced: bool, smoke: bool,
             spans_path: Optional[str] = None) -> Dict[str, Any]:
    """Set up, run and verify one workload once; returns its record."""
    spec = wl.WORKLOADS[name]
    rec = Recorder()
    p = wl.prepare(spec, seed, wl.SMOKE if smoke else wl.FULL, rec)
    if traced:
        install(rec, p.engine)

    gc.collect()
    t0 = perf_counter()
    wl.start(p, partial(rec.wrap, "txnplane.update") if traced else None)
    if traced:
        rec.run_events(p.engine.clock.step)
    else:
        p.engine.clock.run_until_idle()
    host_wall_s = perf_counter() - t0
    # Before verification: the oracle and the auditor are not the program.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies = wl.latencies_us(p)
    sim = metrics.simulated(latencies, wl.span_us(p))
    layers = rec.layers()
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": sum(layers[s]["total_s"] for s in SETUP_SPANS),
        "host_wall_s": host_wall_s,
        "host_peak_rss_mb": peak_rss_mb,
        **sim,
        "attempted": len(p.queries) + len(p.updates),
        "failed": wl.verify(p, latencies),
        "rows_sha": metrics.rows_sha(p),
        "sim_digest": metrics.sim_digest(p, latencies),
        "counters": metrics.counters(p, sim["span_us"]),
        "layers": layers,
    }
    if traced:
        record["malformed_spans"] = len(rec.malformed())
        if spans_path:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            rec.write(spans_path)
    return record


def spawn_pass(name: str, seed: int, traced: bool, smoke: bool) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return its record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--pass",
           "--workload", name, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{name} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# -- folding passes into one workload result ---------------------------------


def frozen_rows_sha(name: str) -> Optional[str]:
    """The default seed's row digest frozen at the seed commit."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)["rows_sha"].get(name)


def summarize(name: str, seed: int, smoke: bool, untraced: List[Dict[str, Any]],
              traced: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians of the host metrics, the (identical) simulated metrics, the
    per-layer metrics when a traced pass exists, and every check."""
    first = untraced[0]
    passes = untraced + ([traced] if traced else [])
    checks = {
        "sim_repeats_exactly": all(
            r["sim_digest"] == first["sim_digest"] for r in passes),
        "rows_repeat_exactly": all(
            r["rows_sha"] == first["rows_sha"] for r in passes),
    }
    if traced:
        checks["span_tree_well_formed"] = traced["malformed_spans"] == 0
    if seed == wl.DEFAULT_SEED and not smoke:
        checks["rows_match_frozen_digest"] = (
            first["rows_sha"] == frozen_rows_sha(name))
    failed = {
        cause: sum(r["failed"][cause] for r in untraced)
        for cause in first["failed"]
    }
    end_to_end: Dict[str, Dict[str, Any]] = {}
    for metric in HOST_METRICS:
        values = [r[metric] for r in untraced]
        end_to_end[metric] = {
            "median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values),
        }
    for metric in SIM_METRICS:
        end_to_end[metric] = {"median": first[metric], "min": first[metric],
                              "max": first[metric], "n": first["samples"]}
    attempted = sum(r["attempted"] for r in untraced)
    n_failed = sum(failed.values())
    result = {
        "end_to_end": end_to_end,
        "failed_frac": n_failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "hi_percentile": first["hi_percentile"],
        "gen_lag_us": first["gen_lag_us"],
        "rows_sha": first["rows_sha"],
        "sim_digest": first["sim_digest"],
        "checks": checks,
        "ok": n_failed == 0 and all(checks.values()),
    }
    if traced:
        # Pair the traced pass with the median untraced wall.
        base = dict(first, host_wall_s=end_to_end["host_wall_s"]["median"])
        result["per_layer"] = metrics.per_layer(base, traced)
    return result


def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def show(name: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    """Every metric by name, with its unit."""
    print(f"== {name}  ({'ok' if result['ok'] else 'FAILED'})")
    for metric, v in result["end_to_end"].items():
        note = f"n={v['n']}"
        if metric in HOST_METRICS:
            note += f" min={v['min']:.6g} max={v['max']:.6g}"
        elif metric == "sim_latency_hi_us":
            note += f" P{result['hi_percentile']}"
        print(f"  {metric:<34}{v['median']:>16.6g} {units[metric]:<6} {note}")
    print(f"  {'failed_frac':<34}{result['failed_frac']:>16.6g}        "
          f"{result['failed']} of {result['attempted']}")
    for metric, value in result.get("per_layer", {}).items():
        print(f"  {metric:<34}{value:>16.6g} {units[metric]}")
    print(f"  rows_sha {result['rows_sha'][:16]}  "
          f"sim_digest {result['sim_digest'][:16]}  gen_lag_us 0")
    for check, held in result["checks"].items():
        if not held:
            print(f"  CHECK FAILED: {check}")


# -- the two ways to run -----------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            spec: Dict[str, Any]) -> int:
    """One workload, reported as BENCHMARK.json's contract asks."""
    untraced = [spawn_pass(name, seed, False, smoke)]
    traced = None
    if trace:
        traced = spawn_pass(name, seed, True, smoke)
    else:
        while sum(r["host_wall_s"] for r in untraced) < seconds:
            untraced.append(spawn_pass(name, seed, False, smoke))
    result = summarize(name, seed, smoke, untraced, traced)
    show(name, result, _units(spec))
    values = result["per_layer"] if trace else {
        m: v["median"] for m, v in result["end_to_end"].items()}
    print(json.dumps({
        "correct": result["ok"],
        "attempted": result["attempted"],
        "failed": sum(result["failed"].values()),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
    }))
    return 0 if result["ok"] else 1


def run_set(seed: int, smoke: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Every workload: interleaved untraced rounds, then traced passes."""
    names = list(wl.WORKLOADS)
    untraced: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for _round in range(1 if smoke else ROUNDS):
        for n in names:
            untraced[n].append(spawn_pass(n, seed, False, smoke))
    results = {
        n: summarize(n, seed, smoke, untraced[n], spawn_pass(n, seed, True, smoke))
        for n in names
    }
    for n in names:
        show(n, results[n], _units(spec))

    def ratio(metric: str) -> float:
        return (results["planes_idle"]["end_to_end"][metric]["median"]
                / results["ic_open"]["end_to_end"][metric]["median"])

    cross = {
        "planes.armed_idle_wall_ratio": ratio("host_wall_s"),
        "planes.armed_idle_rss_ratio": ratio("host_peak_rss_mb"),
    }
    checks = {
        "planes_idle_rows_equal_ic_open":
            results["planes_idle"]["rows_sha"] == results["ic_open"]["rows_sha"],
    }
    print("== cross-cutting")
    for metric, value in cross.items():
        print(f"  {metric:<34}{value:>16.6g} ratio  planes_idle / ic_open")
    ok = all(r["ok"] for r in results.values()) and all(checks.values())
    for check, held in checks.items():
        if not held:
            print(f"  CHECK FAILED: {check}")
    print(f"spine: {'ok' if ok else 'FAILED'} (seed {seed}"
          f"{', smoke size' if smoke else ''}); no gain is claimed")
    return {
        "schema": "spine/1", "seed": seed, "smoke": smoke, "claim": None,
        "workloads": results, "cross": cross, "checks": checks,
        "unattributed": UNATTRIBUTED, "ok": ok,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = metrics.benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds to accumulate (with --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--out", help="write the whole set's result as JSON")
    parser.add_argument("--agree", action="store_true",
                        help="run the whole set twice; fail unless the "
                             "medians agree within BENCHMARK.json's bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.one_pass:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.json")
        print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace),
                                  args.smoke, spans_path)))
        return 0
    if args.workload:
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke, spec)
    result = run_set(args.seed, args.smoke, spec)
    ok = result["ok"]
    if args.agree:
        again = run_set(args.seed, args.smoke, spec)
        rows = compare.compare(result, again, spec)
        compare.show(rows)
        agree = all(abs(row["worse_by"]) <= row["bound"] and row["digest_equal"]
                    for row in rows)
        print(f"agree: {'yes' if agree else 'NO'}")
        ok = ok and again["ok"] and agree
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
