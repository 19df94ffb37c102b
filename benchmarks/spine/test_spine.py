"""Tests of the benchmark itself.

Not collected by tier-1 (whose ``testpaths`` is ``tests``); run as
``PYTHONPATH=src python -m pytest benchmarks/spine -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = metrics.benchmark_json()
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    """The whole set at smoke size: (result document, seconds, stdout)."""
    out = tmp_path_factory.mktemp("spine") / "smoke.json"
    t0 = time.perf_counter()
    proc = _run("--smoke", "--out", str(out))
    took = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), took, proc.stdout


def test_smoke_set_is_quick_ok_and_claims_nothing(smoke_set):
    doc, took, _stdout = smoke_set
    assert took < 30.0
    assert doc["ok"] and doc["claim"] is None
    assert list(doc["workloads"]) == list(wl.WORKLOADS)
    assert doc["checks"]["planes_idle_rows_equal_ic_open"]
    assert set(doc["cross"]) == {
        "planes.armed_idle_wall_ratio", "planes.armed_idle_rss_ratio"}


def test_names_units_and_bounds_fit_the_contract():
    names = END_TO_END + PER_LAYER + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/spine"]


def test_every_per_layer_metric_names_what_it_should_move():
    assert list(metrics.MOVES) == PER_LAYER
    for metric, (moves, on) in metrics.MOVES.items():
        assert moves in END_TO_END, metric
        assert on in wl.WORKLOADS, metric


def test_one_command_prints_every_metric_of_every_workload(smoke_set):
    doc, _took, stdout = smoke_set
    for name, result in doc["workloads"].items():
        assert list(result["end_to_end"]) == END_TO_END
        assert list(result["per_layer"]) != [] and set(result["per_layer"]) == set(PER_LAYER)
        assert f"== {name}" in stdout
    for metric in END_TO_END + PER_LAYER + ["failed_frac"]:
        assert stdout.count(f"  {metric} ") == len(wl.WORKLOADS), metric


def test_traced_and_untraced_runs_simulate_the_same_bits(smoke_set):
    doc, _took, _stdout = smoke_set
    for name, result in doc["workloads"].items():
        assert result["checks"]["sim_repeats_exactly"], name
        assert result["checks"]["rows_repeat_exactly"], name
        assert result["checks"]["span_tree_well_formed"], name
        assert result["failed_frac"] == 0.0, name


def test_span_tree_of_a_traced_pass():
    record = run.run_pass("mixed_rw", seed=5, traced=True, smoke=True)
    assert record["malformed_spans"] == 0
    layers = record["layers"]
    assert all(agg["self_s"] >= -1e-9 for agg in layers.values())
    # every shimmed boundary this workload enters was seen
    for span in ("simclock.event", "kernels.drain", "network.send",
                 "delivery.deliver", "delivery.tracker_handle",
                 "engine.submit", "txnplane.pin", "txnplane.store_for",
                 "txnplane.update", "trace.emit"):
        assert layers[span]["calls"] > 0, span
    root = layers["simclock.event"]
    assert root["calls"] == record["counters"]["simclock.events"] + 1
    assert root["self_s"] < root["total_s"]


def test_recorder_rejects_a_broken_tree():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert rec.malformed() == []
    rec.end[1] = rec.end[0] + 1.0  # the child now outlives its parent
    assert any("leaves its parent" in msg for msg in rec.malformed())


def test_contract_line_per_trace_mode():
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = _run("--workload", "ic_closed", "--seed", "9", "--seconds",
                    "0.01", "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {n: v["unit"] for n, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed}


def test_compare_verdicts(smoke_set):
    doc, _took, _stdout = smoke_set
    rows = compare.compare(doc, doc, SPEC)
    assert len(rows) == len(wl.WORKLOADS) * len(END_TO_END)
    assert all(r["digest_equal"] for r in rows)
    assert {r["verdict"] for r in rows} == {"unchanged"}
    slower = json.loads(json.dumps(doc))
    wall = slower["workloads"]["ic_open"]["end_to_end"]["host_wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 2.0
    verdicts = {(r["workload"], r["metric"]): r["verdict"]
                for r in compare.compare(doc, slower, SPEC)}
    assert verdicts[("ic_open", "host_wall_s")] == "regressed"
    assert verdicts[("khop_solo", "host_wall_s")] == "unchanged"
