"""Metric arithmetic: percentiles, digests, counters, per-layer values.

Names, units, directions and bounds live in ``BENCHMARK.json`` and are read
from there; this module adds what that file cannot hold — which end-to-end
metric each per-layer metric should move, and on which workload (MOVES) —
and computes the values.

Two clocks, never mixed in one number: ``host_*`` / ``*_s`` / ``setup_s``
are host time of the simulator; ``sim_*`` and the ``worker.*`` /
``delivery.tracker_busy_frac_est`` ratios are simulated time of the
modelled cluster. Counts are exact and repeat from run to run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Any, Dict, List, Sequence, Tuple

from api import ROOT
from spans import EVENT, SETUP_SPANS

#: candidate high percentiles, highest first
_HI_LADDER = (99, 95, 90, 75)
#: a high percentile needs this many samples beyond it
_MIN_BEYOND = 10


def benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def hi_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it (P99
    from 1 000 samples, P75 for the 48 k-hop queries); the median when
    there are too few samples for any."""
    for p in _HI_LADDER:
        if n - math.ceil(p / 100.0 * n) >= _MIN_BEYOND:
            return p
    return 50


def digest(obj: Any) -> str:
    """SHA-256 of a JSON-serializable value (floats by exact repr)."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def simulated(latencies: List[float], span_us: float) -> Dict[str, Any]:
    """Simulated-clock end-to-end numbers of one finished run."""
    ordered = sorted(latencies)
    n = len(ordered)
    hi = hi_percentile(n)
    return {
        "samples": n,
        "hi_percentile": hi,
        "span_us": span_us,
        "sim_latency_p50_us": percentile(ordered, 50),
        "sim_latency_hi_us": percentile(ordered, hi),
        "sim_throughput_qps": n / (span_us / 1e6),
        # the simulated generator submits at the scheduled instant
        "gen_lag_us": 0.0,
    }


def counters(p: Any, span_us: float) -> Dict[str, float]:
    """Per-layer counts and simulated ratios from the engine's public
    counters. Exact: they repeat bit for bit on the same seed."""
    engine = p.engine
    m = engine.metrics_snapshot()
    snap = engine.overload_snapshot()
    busy = [w.busy_total for w in engine.workers]
    msgs = sum(v for k, v in m.items() if k.startswith("messages_"))
    return {
        "query.plans": len({id(q.plan) for q in p.queries}),
        "simclock.events": engine.clock.events_run,
        "kernels.steps": m["steps_executed"],
        "kernels.edges_scanned": m["edges_scanned"],
        "kernels.memo_ops": m["memo_ops"],
        "kernels.traversers_spawned": m["traversers_spawned"],
        "worker.busy_frac": engine.worker_utilization(),
        "worker.busy_imbalance": max(busy) / (sum(busy) / len(busy)),
        "worker.flushes": m["flushes"],
        "worker.peak_queue_depth": snap["peak_queue_depth"],
        "network.packets": m["packets_sent"],
        "network.bytes": m["bytes_sent"],
        "network.local_deliveries": m["local_deliveries"],
        "network.msgs_traverser": m["messages_traverser"],
        "network.msgs_progress": m["messages_progress"],
        "network.msgs_partial": m["messages_partial"],
        "network.msgs_seed": m["messages_seed"],
        "network.msgs_control": m["messages_control"],
        "network.msgs_per_packet": msgs / max(1, m["packets_sent"]),
        "delivery.tracker_msgs": engine.tracker.messages_processed,
        "delivery.tracker_busy_frac_est":
            engine.tracker.messages_processed * engine.cost.tracker_msg_us
            / span_us,
        "txnplane.pins": m["snapshot_pins"],
        "txnplane.commits": m["txn_commits"],
        "txnplane.aborts": m["txn_aborts"],
        "trace.events": len(engine.trace.events) if engine.trace else 0,
        "checkpoint.snapshots": m["checkpoints_taken"],
        "overload.credit_stalls": snap["credit_stalls"],
        "overload.admission_peak_waiting": snap.get("admission_peak_waiting", 0),
    }


def sim_digest(p: Any, latencies: List[float]) -> str:
    """Hash of every exact simulated number and counter of a run: equal
    digests prove a host-time change moved no simulated bit."""
    engine = p.engine
    return digest({
        "latencies": [lat.hex() for lat in latencies],
        "now": engine.clock.now.hex(),
        "events": engine.clock.events_run,
        "metrics": engine.metrics_snapshot(),
        "overload": engine.overload_snapshot(),
        "busy": [w.busy_total.hex() for w in engine.workers],
        "tracker": [engine.tracker.messages_processed,
                    engine.tracker.free_at.hex()],
        "pins": [s.snapshot_ts for s in p.sessions],
    })


def rows_sha(p: Any) -> str:
    """Hash of every query's result rows, in issue order."""
    return digest([s.results for s in p.sessions])


# -- per-layer values --------------------------------------------------------

#: span name -> (calls metric, self-seconds metric)
_SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "datasets.generate": ("", "datasets.generate_s"),
    "graph.partition": ("", "graph.partition_s"),
    "query.compile": ("", "query.compile_s"),
    "engine.construct": ("", "engine.construct_s"),
    EVENT: ("", "simclock.self_s"),
    "kernels.drain": ("kernels.drain_calls", "kernels.drain_s"),
    "network.send": ("network.send_calls", "network.send_self_s"),
    "delivery.deliver": ("delivery.deliver_calls", "delivery.deliver_self_s"),
    "delivery.tracker_handle": ("", "delivery.tracker_handle_self_s"),
    "engine.submit": ("engine.submit_calls", "engine.submit_self_s"),
    "txnplane.update": ("txnplane.update_calls", "txnplane.update_self_s"),
    "txnplane.store_for": ("txnplane.store_for_calls",
                           "txnplane.store_for_self_s"),
    "trace.emit": ("", "trace.emit_self_s"),
    "checkpoint.snapshot": ("", "checkpoint.snapshot_self_s"),
}


def per_layer(untraced: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    Counts come from the untraced pass's public counters, ``*_s`` and call
    counts from the traced pass's spans; a layer a workload never enters
    reads 0.
    """
    out: Dict[str, float] = dict(untraced["counters"])
    layers = traced["layers"]
    for span, (calls, self_s) in _SPAN_METRICS.items():
        agg = layers.get(span, {"calls": 0, "self_s": 0.0})
        if calls:
            out[calls] = agg["calls"]
        out[self_s] = agg["self_s"]
    wall = untraced["host_wall_s"]
    steps = out["kernels.steps"]
    out["simclock.host_us_per_event"] = wall * 1e6 / out["simclock.events"]
    out["kernels.steps_per_drain"] = steps / max(1, out["kernels.drain_calls"])
    out["kernels.host_ns_per_step"] = out["kernels.drain_s"] * 1e9 / steps
    out["spans.trace_overhead_frac"] = traced["host_wall_s"] / wall - 1.0
    out["spans.attributed_frac"] = sum(
        agg["self_s"] for span, agg in layers.items()
        if span != EVENT and span not in SETUP_SPANS
    ) / traced["host_wall_s"]
    return out


#: per-layer metric -> (end-to-end metric it should move, workload it
#: should move it on). The prediction a change to that layer is held to;
#: README.md gives the reasons and the workloads where it must NOT move.
MOVES: Dict[str, Tuple[str, str]] = {
    "datasets.generate_s": ("setup_s", "khop_solo"),
    "graph.partition_s": ("setup_s", "khop_solo"),
    "query.compile_s": ("setup_s", "ic_open"),
    "query.plans": ("setup_s", "ic_open"),
    "engine.construct_s": ("setup_s", "planes_idle"),
    "simclock.events": ("host_wall_s", "ic_open"),
    "simclock.self_s": ("host_wall_s", "ic_open"),
    "simclock.host_us_per_event": ("host_wall_s", "ic_closed"),
    "kernels.drain_calls": ("host_wall_s", "ic_open"),
    "kernels.drain_s": ("host_wall_s", "khop_solo"),
    "kernels.steps": ("host_wall_s", "khop_solo"),
    "kernels.steps_per_drain": ("host_wall_s", "ic_open"),
    "kernels.host_ns_per_step": ("host_wall_s", "khop_solo"),
    "kernels.edges_scanned": ("host_wall_s", "khop_solo"),
    "kernels.memo_ops": ("host_wall_s", "khop_solo"),
    "kernels.traversers_spawned": ("host_peak_rss_mb", "khop_solo"),
    "worker.busy_frac": ("sim_throughput_qps", "ic_closed"),
    "worker.busy_imbalance": ("sim_latency_hi_us", "ic_open"),
    "worker.flushes": ("sim_throughput_qps", "ic_closed"),
    "worker.peak_queue_depth": ("sim_latency_hi_us", "ic_open"),
    "network.send_calls": ("host_wall_s", "ic_open"),
    "network.send_self_s": ("host_wall_s", "ic_open"),
    "network.packets": ("sim_latency_p50_us", "ic_open"),
    "network.bytes": ("sim_latency_p50_us", "ic_open"),
    "network.local_deliveries": ("sim_latency_p50_us", "ic_open"),
    "network.msgs_traverser": ("sim_latency_p50_us", "khop_solo"),
    "network.msgs_progress": ("sim_throughput_qps", "ic_closed"),
    "network.msgs_partial": ("sim_throughput_qps", "ic_closed"),
    "network.msgs_seed": ("sim_latency_p50_us", "ic_open"),
    "network.msgs_control": ("sim_latency_hi_us", "planes_idle"),
    "network.msgs_per_packet": ("sim_latency_p50_us", "ic_open"),
    "delivery.deliver_calls": ("host_wall_s", "ic_open"),
    "delivery.deliver_self_s": ("host_wall_s", "ic_open"),
    "delivery.tracker_msgs": ("sim_throughput_qps", "ic_closed"),
    "delivery.tracker_handle_self_s": ("host_wall_s", "ic_closed"),
    "delivery.tracker_busy_frac_est": ("sim_throughput_qps", "ic_closed"),
    "engine.submit_calls": ("host_wall_s", "ic_closed"),
    "engine.submit_self_s": ("host_wall_s", "ic_closed"),
    "txnplane.pins": ("host_wall_s", "planes_idle"),
    "txnplane.commits": ("host_wall_s", "mixed_rw"),
    "txnplane.aborts": ("sim_latency_hi_us", "mixed_rw"),
    "txnplane.update_calls": ("host_wall_s", "mixed_rw"),
    "txnplane.update_self_s": ("host_wall_s", "mixed_rw"),
    "txnplane.store_for_calls": ("host_wall_s", "mixed_rw"),
    "txnplane.store_for_self_s": ("host_wall_s", "mixed_rw"),
    "trace.events": ("host_peak_rss_mb", "planes_idle"),
    "trace.emit_self_s": ("host_wall_s", "planes_idle"),
    "checkpoint.snapshots": ("host_wall_s", "planes_idle"),
    "checkpoint.snapshot_self_s": ("host_wall_s", "planes_idle"),
    "overload.credit_stalls": ("sim_latency_hi_us", "planes_idle"),
    "overload.admission_peak_waiting": ("sim_latency_hi_us", "planes_idle"),
    "spans.trace_overhead_frac": ("host_wall_s", "ic_open"),
    "spans.attributed_frac": ("host_wall_s", "ic_open"),
}
