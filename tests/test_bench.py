"""Tests for the benchmark harness and report tables."""

import pytest

from repro.bench.harness import (
    BENCH_CLUSTER,
    build_engine,
    khop_starts,
    khop_traversal,
)
from repro.bench.report import Table, render_all


class TestTable:
    def test_add_and_render(self):
        t = Table("demo", ["a", "b"])
        t.add(1, "x")
        t.add(2.5, "yyyy")
        text = t.render()
        assert "demo" in text
        assert "2.50" in text
        assert "yyyy" in text

    def test_row_arity_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)

    def test_column_extraction(self):
        t = Table("demo", ["a", "b"])
        t.add(1, "x")
        t.add(2, "y")
        assert t.column("a") == [1, 2]
        assert t.column("b") == ["x", "y"]

    def test_notes_rendered(self):
        t = Table("demo", ["a"])
        t.add(1)
        t.note("important caveat")
        assert "important caveat" in t.render()

    def test_number_formatting(self):
        t = Table("demo", ["v"])
        t.add(1234567.0)
        t.add(0.0001)
        t.add(0)
        text = t.render()
        assert "1,234,567" in text
        assert "0.0001" in text

    def test_render_all_joins_tables(self):
        t1 = Table("one", ["a"])
        t1.add(1)
        t2 = Table("two", ["b"])
        t2.add(2)
        text = render_all([t1, t2])
        assert "one" in text and "two" in text

    def test_empty_table_renders_headers(self):
        text = Table("empty", ["col"]).render()
        assert "col" in text

    def test_render_bars(self):
        t = Table("latency", ["engine", "ms"])
        t.add("fast", 1.0)
        t.add("slow", 4.0)
        chart = t.render_bars("ms")
        lines = chart.splitlines()
        assert "latency — ms" in lines[0]
        fast_bar = lines[1].count("#")
        slow_bar = lines[2].count("#")
        assert slow_bar == 4 * fast_bar
        assert "fast" in lines[1] and "slow" in lines[2]

    def test_render_bars_handles_nan_and_nonnumeric(self):
        t = Table("x", ["label", "v"])
        t.add("a", float("nan"))
        t.add("b", 2.0)
        chart = t.render_bars("v")
        assert "n/a" in chart

    def test_render_bars_unknown_column_raises(self):
        t = Table("x", ["a"])
        with pytest.raises(ValueError):
            t.render_bars("missing")


class TestHarness:
    def test_khop_traversal_shape(self):
        t = khop_traversal(3)
        steps = t.logical_steps()
        assert steps  # source + khop + filter + ... + order/limit

    def test_khop_starts_deterministic(self):
        assert khop_starts("lj", 3) == khop_starts("lj", 3)
        assert len(khop_starts("lj", 5)) == 5

    def test_build_engine_kinds(self):
        gd = build_engine("graphdance", "lj", BENCH_CLUSTER)
        assert gd.config.name == "graphdance"
        bsp = build_engine("bsp", "lj", BENCH_CLUSTER)
        assert "bsp" in bsp.name
        np_engine = build_engine("non-partitioned", "lj", BENCH_CLUSTER)
        assert np_engine.graph.num_partitions == BENCH_CLUSTER.nodes
        with pytest.raises(ValueError):
            build_engine("warp-drive", "lj", BENCH_CLUSTER)


class TestBenchTrajectory:
    """``tools/bench_trajectory.py``: two spine ``--out`` results in, the
    docs/PERFORMANCE.md trajectory row out."""

    @pytest.fixture(scope="class")
    def tool(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        try:
            import bench_trajectory
        finally:
            sys.path.pop(0)
        return bench_trajectory

    SPEC = {"end_to_end": [
        {"name": "host_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "sim_latency_p50_us", "unit": "us", "better": "lower",
         "bound": 0.2},
        {"name": "sim_throughput_qps", "unit": "1/s", "better": "higher",
         "bound": 0.1},
    ]}

    @staticmethod
    def result(wall, p50, qps, digest, packets):
        def stat(median, spread=0.0):
            return {"median": median, "min": median * (1 - spread / 2),
                    "max": median * (1 + spread / 2), "n": 3}
        return {"workloads": {"ic_open": {
            "end_to_end": {"host_wall_s": stat(*wall),
                           "sim_latency_p50_us": stat(p50),
                           "sim_throughput_qps": stat(qps)},
            "sim_digest": digest, "rows_sha": "r0",
            "failed": {"incomplete": 0, "bad_rows": 0}, "attempted": 1008,
            "per_layer": {"network.packets": packets},
        }}}

    def test_row_has_medians_changes_verdicts_and_digests(self, tool):
        parent = self.result((4.0, 0.1), 36.94, 27516.0, "d0", 32999)
        change = self.result((4.1, 0.4), 26.92, 24000.0, "d1", 30828)
        text = tool.trajectory_row(parent, change, self.SPEC,
                                   ["network.packets"])
        lines = text.splitlines()
        assert lines[0] == ("| workload | `host_wall_s` | "
                            "`sim_latency_p50_us` | `sim_throughput_qps` |")
        row = lines[2].split(" | ")
        assert row[0] == "| `ic_open`"
        # spread 0.4 > bound 0.25: cannot be told apart
        assert row[1] == "4 → 4.10 (+2.5%) ?"
        # better by more than its bound
        assert row[2] == "**36.9 → 26.9 (-27.1%)**"
        # a higher-is-better metric that fell by more than its bound
        assert row[3] == "27 516 → 24 000 (-12.8%) ! |"
        assert ("- `ic_open`: `sim_digest` DIFFERS, `rows_sha` equal; "
                "failed 0 → 0 of 1008") in lines
        assert lines[-1] == "| `ic_open` | 32 999 → 30 828 |"

    def test_unchanged_cells_are_plain_and_bounds_come_from_benchmark_json(
            self, tool, tmp_path, capsys):
        import json

        same = self.result((4.0, 0.0), 36.94, 27516.0, "d0", 32999)
        full = json.loads((tool.ROOT / "BENCHMARK.json").read_text())
        # the real contract names six metrics; give the files all of them
        for m in full["end_to_end"]:
            same["workloads"]["ic_open"]["end_to_end"].setdefault(
                m["name"], {"median": 1.0, "min": 1.0, "max": 1.0, "n": 1})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(same))
        b.write_text(json.dumps(same))
        assert tool.main([str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert out.count("(+0.0%)") == len(full["end_to_end"])
        assert "**" not in out and " !" not in out and " ?" not in out
        assert "`sim_digest` equal" in out


class TestPlanCensus:
    """``tools/plan_census.py``: one untraced LDBC spine pass, its kernel
    steps and operator executions by plan and by operator of the
    heaviest plan."""

    def test_smoke_pass_accounts_for_every_step(self):
        import re
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, str(root / "tools" / "plan_census.py"),
             "--smoke", "--workload", "ic_open", "--seed", "1"],
            capture_output=True, text=True, check=True).stdout
        header, plans, caption, ops = out.strip().split("\n\n")
        total = int(re.search(r"([\d ]+) kernel steps", header)
                    .group(1).replace(" ", ""))
        rows = [line.split(" | ") for line in plans.splitlines()[2:]]
        names = [r[0].lstrip("| ") for r in rows]
        # all 21 LDBC read plans ran, heaviest first
        assert len(names) == 21 and "IC13" in names and "IS1" in names
        steps = [int(r[2].replace(" ", "")) for r in rows]
        executions = [int(r[3].replace(" ", "")) for r in rows]
        assert steps == sorted(steps, reverse=True)
        assert sum(steps) == total
        # inlined links are executions without a dispatched step
        assert all(e >= s for e, s in zip(executions, steps))
        assert sum(executions) > total
        assert caption.startswith(f"Operators of {names[0]}, ")
        op_rows = [line.split(" | ") for line in ops.splitlines()[2:]]
        assert [int(r[0].lstrip("| ")) for r in op_rows] == list(
            range(len(op_rows)))
        op_steps = [int(r[2].replace(" ", "")) for r in op_rows]
        dispatched = [int(r[3].replace(" ", "")) for r in op_rows]
        assert sum(dispatched) == steps[0]
        assert sum(op_steps) == executions[0]
        inlined = [r for r in op_rows if r[1].endswith(" inlined")]
        assert inlined and all(
            int(r[3].replace(" ", "")) < int(r[2].replace(" ", ""))
            for r in inlined)
