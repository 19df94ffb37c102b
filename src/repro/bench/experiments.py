"""One experiment function per table/figure of the paper's evaluation (§V).

Each function runs the corresponding experiment on the simulated cluster
and returns a :class:`~repro.bench.report.Table`. Absolute numbers are
simulated microseconds on scaled-down datasets; the *shapes* (system
ordering, optimization effects, crossovers) are what reproduce the paper.
The benchmark suite in ``benchmarks/`` asserts those shapes.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    BENCH_CLUSTER,
    build_engine,
    khop_plan,
    khop_starts,
    powerlaw_partitioned,
    powerlaw_raw,
    run_khop_avg,
    snb_dataset,
    snb_graph,
)
from repro.bench.report import Table
from repro.core.progress import ProgressMode
from repro.datasets.synthetic import FRIENDSTER_LIKE, LIVEJOURNAL_LIKE
from repro.ldbc import schema as S
from repro.ldbc.generator import SNB_SF1000_SIM, SNB_SF300_SIM
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.short import IS_QUERIES
from repro.ldbc.workload import WorkloadConfig, run_mixed_workload
from repro.query.traversal import Traversal
from repro.runtime.cluster import ClusterConfig
from repro.runtime.costmodel import (
    LEGACY_BOTH,
    LEGACY_CORES_8,
    LEGACY_NET_10G,
    LEGACY_NET_1G,
    MODERN,
)
from repro.runtime.engine import EngineConfig, IO_SYNC, IO_TLC, IO_TLC_NLC
from repro.runtime.variants import make_bsp, make_graphdance, make_graphscope


# ---------------------------------------------------------------------------
# Table I — workload-class characteristics
# ---------------------------------------------------------------------------


def table1_workload_characteristics() -> Table:
    """Measure the three workload classes' footprints on the same engine.

    Representative members: IS2 (transactional), IC9 (interactive complex),
    and a full vertex scan with grouping (offline analytics). Accessed-data
    fraction is operator executions (``op_steps``, inlined links included)
    over graph size; compute stages are plan operator depth.
    """
    dataset = snb_dataset("sf300")
    graph = snb_graph("sf300", BENCH_CLUSTER.num_partitions)
    engine = build_engine("graphdance", "sf300", BENCH_CLUSTER, dataset_kind="snb")
    rng = random.Random(5)
    size = graph.vertex_count + graph.edge_count

    table = Table(
        "Table I — workload characteristics (measured)",
        ["class", "example", "accessed %", "plan ops", "latency (ms)"],
    )

    def measure(label: str, cls: str, plan, params) -> None:
        profile = engine.profile(plan, params)
        accessed = 100.0 * sum(profile.op_steps.values()) / size
        table.add(cls, label, round(accessed, 4), len(plan.ops),
                  round(profile.metrics.latency_us / 1000.0, 3))

    is2 = IS_QUERIES[2]
    measure("IS2", "transactional", is2.build().compile(graph),
            is2.make_params(dataset, rng))
    ic9 = IC_QUERIES[9]
    measure("IC9", "interactive complex", ic9.build().compile(graph),
            ic9.make_params(dataset, rng))
    scan = (
        Traversal("analytics-scan")
        .scan(S.PERSON)
        .out(S.KNOWS)
        .group_count()
    ).compile(graph)
    measure("degree-count scan", "offline analytics", scan, {})
    return table


# ---------------------------------------------------------------------------
# Table II — dataset summary
# ---------------------------------------------------------------------------

#: The paper's original dataset sizes, for the scaled/original comparison.
PAPER_DATASETS = {
    "sf300": ("LDBC SNB SF300", 969_958_916, 6_729_459_600, "256 GB"),
    "sf1000": ("LDBC SNB SF1000", 2_930_667_395, 20_718_772_476, "862 GB"),
    "lj": ("LiveJournal", 3_997_962, 34_681_189, "464 MB"),
    "fs": ("Friendster", 65_608_366, 1_806_067_135, "31 GB"),
}


def table2_datasets() -> Table:
    """Run the Table 2 experiment; returns its table."""
    table = Table(
        "Table II — datasets (this reproduction vs paper)",
        ["dataset", "vertices", "edges", "raw size (MB)",
         "paper vertices", "paper edges", "paper size"],
    )
    for key in ("sf300", "sf1000"):
        ds = snb_dataset(key)
        paper = PAPER_DATASETS[key]
        table.add(
            ds.config.name,
            ds.graph.vertex_count,
            ds.graph.edge_count,
            round(ds.graph.estimated_raw_size() / 1e6, 2),
            paper[1], paper[2], paper[3],
        )
    for key in ("lj", "fs"):
        graph = powerlaw_raw(key)
        paper = PAPER_DATASETS[key]
        name = LIVEJOURNAL_LIKE.name if key == "lj" else FRIENDSTER_LIKE.name
        table.add(
            name,
            graph.vertex_count,
            graph.edge_count,
            round(graph.estimated_raw_size() / 1e6, 2),
            paper[1], paper[2], paper[3],
        )
    table.note("generated stand-ins preserve schema, skew, and size ratios; "
               "absolute scale reduced for pure-Python simulation")
    return table


# ---------------------------------------------------------------------------
# Fig 7 — mixed LDBC SNB interactive workload (TCR sweep)
# ---------------------------------------------------------------------------

#: ICs kept in the mixed workload: the paper excludes IC3/IC9/IC14 (they
#: time out on TigerGraph); we additionally drop the two join-heavy ICs
#: from the *mixed* runs for simulation-time budget (they are fully
#: measured in Fig 8).
FIG7_ICS = (1, 2, 4, 5, 7, 8, 11, 12)


def fig7_mixed_workload(
    tcrs: Sequence[float] = (3.0, 0.3, 0.03),
    engines: Sequence[str] = ("graphdance", "bsp"),
    duration_s: float = 1.0,
) -> Table:
    """Run the Fig 7 experiment; returns its table."""
    dataset = snb_dataset("sf300")
    table = Table(
        "Fig 7 — mixed interactive workload latency (ms)",
        ["engine", "TCR", "completed", "IC avg", "IC p99", "IS avg", "IS p99"],
    )
    for kind in engines:
        for tcr in tcrs:
            engine = build_engine(kind, "sf300", BENCH_CLUSTER, dataset_kind="snb")
            # Short the simulated duration at the most aggressive TCR: the
            # offered rate is 100× higher, so a fraction of the duration
            # already carries thousands of operations.
            config = WorkloadConfig(
                tcr=tcr,
                duration_s=duration_s if tcr >= 0.3 else duration_s * 0.3,
                ic_rate=2.0,
                is_rate=12.0,
                up_rate=40.0,
                include_ic=FIG7_ICS,
                overload_cap=64,
            )
            run = run_mixed_workload(engine, dataset, config)
            ic_vals: List[float] = []
            is_vals: List[float] = []
            for label in run.labels():
                values = run.per_type[label].values
                if label.startswith("IC"):
                    ic_vals.extend(values)
                elif label.startswith("IS"):
                    is_vals.extend(values)
            def stats(vals: List[float]) -> Tuple[float, float]:
                if not vals:
                    return float("nan"), float("nan")
                ordered = sorted(vals)
                p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]
                return sum(vals) / len(vals) / 1e3, p99 / 1e3
            ic_avg, ic_p99 = stats(ic_vals)
            is_avg, is_p99 = stats(is_vals)
            table.add(
                run.engine_name, tcr,
                "yes" if run.completed else "DNF (overloaded)",
                round(ic_avg, 3), round(ic_p99, 3),
                round(is_avg, 3), round(is_p99, 3),
            )
    return table


# ---------------------------------------------------------------------------
# Fig 8 — individual IC query latency and throughput
# ---------------------------------------------------------------------------


def fig8_ic_latency(
    datasets: Sequence[str] = ("sf300", "sf1000"),
    engines: Sequence[str] = ("graphdance", "bsp", "non-partitioned"),
    queries: Sequence[int] = tuple(range(1, 15)),
    param_seed: int = 31,
) -> Table:
    """Run the Fig 8 experiment; returns its table."""
    table = Table(
        "Fig 8 — IC query latency (ms)",
        ["dataset", "query"] + list(engines),
    )
    for ds_name in datasets:
        dataset = snb_dataset(ds_name)
        engine_objs = {
            kind: build_engine(kind, ds_name, BENCH_CLUSTER, dataset_kind="snb")
            for kind in engines
        }
        for number in queries:
            qdef = IC_QUERIES[number]
            rng = random.Random(param_seed + number)
            params = qdef.make_params(dataset, rng)
            row: List[object] = [ds_name, qdef.name]
            reference_rows = None
            for kind in engines:
                engine = engine_objs[kind]
                plan = qdef.build().compile(engine.graph)
                result = engine.run(plan, params)
                if reference_rows is None:
                    reference_rows = result.rows
                elif result.rows != reference_rows:
                    raise AssertionError(
                        f"{qdef.name}: {kind} returned different rows"
                    )
                row.append(round(result.latency_ms, 3))
            table.add(*row)
    return table


def fig8_ic_throughput(
    queries: Sequence[int] = (1, 5, 9),
    engines: Sequence[str] = ("graphdance", "bsp", "non-partitioned"),
    clients: int = 64,
    total: int = 64,
    ds_name: str = "sf300",
) -> Table:
    """Closed-loop max-throughput comparison on representative ICs."""
    dataset = snb_dataset(ds_name)
    table = Table(
        "Fig 8 — IC query throughput (queries/s, closed loop)",
        ["query"] + list(engines),
    )
    for number in queries:
        qdef = IC_QUERIES[number]
        row: List[object] = [qdef.name]
        for kind in engines:
            engine = build_engine(kind, ds_name, BENCH_CLUSTER, dataset_kind="snb")
            plan = qdef.build().compile(engine.graph)
            rng = random.Random(101 + number)
            param_list = [qdef.make_params(dataset, rng) for _ in range(total)]
            qps, _rec = engine.run_closed_loop(
                lambda i, p=plan, pl=param_list: (p, pl[i]), clients, total
            )
            row.append(round(qps, 1))
        table.add(*row)
    return table


def fig8_graphscope_comparison(
    queries: Sequence[int] = (1, 2, 5, 9, 12),
    param_seed: int = 57,
) -> Table:
    """§V-A3: single-node GraphScope-like vs distributed GraphDance.

    The SF300-sim dataset "fits" the single node; SF1000-sim is declared
    oversized (we scale the RAM threshold to the simulated dataset sizes so
    the paper's fits/doesn't-fit boundary lands between them).
    """
    table = Table(
        "§V-A3 — single-node (GraphScope-like) vs distributed (ms)",
        ["dataset", "query", "graphdance", "graphscope", "graphscope fits RAM"],
    )
    sf300_bytes = snb_dataset("sf300").graph.estimated_raw_size()
    sf1000_bytes = snb_dataset("sf1000").graph.estimated_raw_size()
    # Scale node RAM so SF300-sim fits and SF1000-sim does not, mirroring
    # 256 GB < 384 GB < 862 GB in the paper.
    import dataclasses

    ram_gb = (sf300_bytes + sf1000_bytes) / 2 / 1e9
    hardware = dataclasses.replace(MODERN, name="scaled-ram", ram_gb=ram_gb)
    cluster = ClusterConfig(
        nodes=BENCH_CLUSTER.nodes,
        workers_per_node=BENCH_CLUSTER.workers_per_node,
        hardware=hardware,
    )
    for ds_name, size in (("sf300", sf300_bytes), ("sf1000", sf1000_bytes)):
        dataset = snb_dataset(ds_name)
        gd = build_engine("graphdance", ds_name, cluster, dataset_kind="snb")
        single_graph = snb_graph(ds_name, cluster.workers_per_node)
        gs = make_graphscope(single_graph, cluster, size)
        for number in queries:
            qdef = IC_QUERIES[number]
            rng = random.Random(param_seed + number)
            params = qdef.make_params(dataset, rng)
            gd_res = gd.run(qdef.build().compile(gd.graph), params)
            gs_res = gs.run(qdef.build().compile(single_graph), params)
            table.add(
                ds_name, qdef.name,
                round(gd_res.latency_ms, 3), round(gs_res.latency_ms, 3),
                "yes" if gs.fits_in_memory else "no (swapping)",
            )
    return table


# ---------------------------------------------------------------------------
# Fig 9 — vertical and horizontal scalability of the k-hop query
# ---------------------------------------------------------------------------


def fig9_vertical(
    workers: Sequence[int] = (1, 4, 16),
    engines: Sequence[str] = ("graphdance", "banyan", "gaia", "bsp"),
    dataset: str = "lj",
    ks: Sequence[int] = (2, 4),
    starts: int = 3,
) -> Table:
    """Run the Fig 9 experiment; returns its table."""
    table = Table(
        f"Fig 9 — vertical scalability on {dataset} (latency ms, 1 node)",
        ["k", "engine"] + [f"{w} workers" for w in workers],
    )
    start_list = khop_starts(dataset, starts)
    for k in ks:
        for kind in engines:
            row: List[object] = [k, kind]
            for w in workers:
                cluster = ClusterConfig(nodes=1, workers_per_node=w)
                engine = build_engine(kind, dataset, cluster)
                row.append(round(run_khop_avg(engine, dataset, k, start_list), 3))
            table.add(*row)
    return table


def fig9_horizontal(
    nodes: Sequence[int] = (1, 2, 4),
    workers_per_node: int = 8,
    engines: Sequence[str] = ("graphdance", "banyan", "gaia", "bsp"),
    dataset: str = "lj",
    ks: Sequence[int] = (2, 4),
    starts: int = 3,
) -> Table:
    """Horizontal sweep.

    The scaled-down LJ stand-in (8 k vertices vs the paper's 4 M) runs out
    of useful parallelism beyond ~32 partitions — per-partition work drops
    below the per-hop network latency — so the sweep stops at 4 nodes × 8
    workers; within that regime the paper's shapes hold.
    """
    table = Table(
        f"Fig 9 — horizontal scalability on {dataset} "
        f"(latency ms, {workers_per_node} workers/node)",
        ["k", "engine"] + [f"{n} nodes" for n in nodes],
    )
    table.note("scaled dataset saturates beyond ~32 partitions; the paper's "
               "4M-vertex LJ keeps scaling to 8 nodes")
    start_list = khop_starts(dataset, starts)
    for k in ks:
        for kind in engines:
            row: List[object] = [k, kind]
            for n in nodes:
                cluster = ClusterConfig(nodes=n, workers_per_node=workers_per_node)
                engine = build_engine(kind, dataset, cluster)
                row.append(round(run_khop_avg(engine, dataset, k, start_list), 3))
            table.add(*row)
    return table


def fig9_bsp_long_query(
    dataset: str = "fs",
    k: int = 4,
    starts: int = 2,
) -> Table:
    """The paper's FS-4-hop observation: BSP amortizes barriers on the
    longest queries and can beat the async engine there."""
    table = Table(
        f"Fig 9 — longest query ({dataset} {k}-hop): BSP barrier amortization",
        ["engine", "latency (ms)"],
    )
    start_list = khop_starts(dataset, starts)
    for kind in ("graphdance", "bsp"):
        engine = build_engine(kind, dataset, BENCH_CLUSTER)
        table.add(kind, round(run_khop_avg(engine, dataset, k, start_list), 3))
    return table


# ---------------------------------------------------------------------------
# Fig 10 / §IV-A — progress tracking ablation
# ---------------------------------------------------------------------------


def fig10_weight_coalescing(
    dataset: str = "lj",
    ks: Sequence[int] = (2, 3, 4),
    starts: int = 3,
) -> Table:
    """Run the Fig 10 experiment; returns its table."""
    table = Table(
        "Fig 10 — weight coalescing impact (latency ms)",
        ["k", "WC on", "WC off", "naive central", "WC saving %"],
    )
    start_list = khop_starts(dataset, starts)
    for k in ks:
        results: Dict[str, float] = {}
        for label, mode in (
            ("wc", ProgressMode.WEIGHTED_COALESCED),
            ("nowc", ProgressMode.WEIGHTED_IMMEDIATE),
            ("naive", ProgressMode.NAIVE_CENTRAL),
        ):
            engine = build_engine(
                "graphdance", dataset, BENCH_CLUSTER,
                config=EngineConfig(name=f"graphdance[{label}]", progress_mode=mode),
            )
            results[label] = run_khop_avg(engine, dataset, k, start_list)
        saving = 100.0 * (1 - results["wc"] / results["nowc"])
        table.add(k, round(results["wc"], 3), round(results["nowc"], 3),
                  round(results["naive"], 3), round(saving, 1))
    table.note("paper: WC saves up to 77.6%; naive tracking costs up to 4.46×")
    return table


def fig11_message_counts(
    dataset: str = "lj",
    k: int = 3,
    starts: int = 3,
) -> Table:
    """Run the Fig 11 experiment; returns its table."""
    table = Table(
        "Fig 11 — progress-tracking vs other messages",
        ["config", "progress msgs", "other msgs", "reduction %"],
    )
    counts: Dict[str, Tuple[int, int]] = {}
    start_list = khop_starts(dataset, starts)
    for label, mode in (
        ("WC on", ProgressMode.WEIGHTED_COALESCED),
        ("WC off", ProgressMode.WEIGHTED_IMMEDIATE),
    ):
        engine = build_engine(
            "graphdance", dataset, BENCH_CLUSTER,
            config=EngineConfig(name=label, progress_mode=mode),
        )
        run_khop_avg(engine, dataset, k, start_list)
        counts[label] = (
            engine.metrics.progress_messages,
            engine.metrics.other_messages,
        )
    reduction = 100.0 * (1 - counts["WC on"][0] / max(counts["WC off"][0], 1))
    table.add("WC on", counts["WC on"][0], counts["WC on"][1], round(reduction, 1))
    table.add("WC off", counts["WC off"][0], counts["WC off"][1], 0.0)
    table.note("paper: WC reduces progress messages by 91.2%–99.3%")
    return table


# ---------------------------------------------------------------------------
# Fig 12 — two-tier I/O scheduler ablation
# ---------------------------------------------------------------------------


def fig12_io_scheduler(
    dataset: str = "lj",
    ks: Sequence[int] = (2, 4),
    starts: int = 3,
) -> Table:
    """Run the Fig 12 experiment; returns its table."""
    table = Table(
        "Fig 12 — two-tier I/O scheduler (latency ms)",
        ["k", "no batching", "+TLC", "+TLC+NLC", "TLC speedup ×", "packets(sync)",
         "packets(tlc)", "packets(nlc)"],
    )
    start_list = khop_starts(dataset, starts)
    for k in ks:
        lat: Dict[str, float] = {}
        pkts: Dict[str, int] = {}
        for mode in (IO_SYNC, IO_TLC, IO_TLC_NLC):
            engine = build_engine(
                "graphdance", dataset, BENCH_CLUSTER,
                config=EngineConfig(name=f"io[{mode}]", io_mode=mode),
            )
            lat[mode] = run_khop_avg(engine, dataset, k, start_list)
            pkts[mode] = engine.metrics.packets_sent
        table.add(
            k, round(lat[IO_SYNC], 3), round(lat[IO_TLC], 3),
            round(lat[IO_TLC_NLC], 3),
            round(lat[IO_SYNC] / lat[IO_TLC], 2),
            pkts[IO_SYNC], pkts[IO_TLC], pkts[IO_TLC_NLC],
        )
    table.note("paper: TLC yields up to 15.9× on the largest query; NLC is "
               "minor and can slightly hurt small latency-bound queries")
    return table


# ---------------------------------------------------------------------------
# Fig 13 — hardware sensitivity
# ---------------------------------------------------------------------------


def fig13_hardware(
    dataset: str = "lj",
    ks: Sequence[int] = (2, 4),
    starts: int = 3,
) -> Table:
    """Run the Fig 13 experiment; returns its table."""
    profiles = [MODERN, LEGACY_NET_10G, LEGACY_NET_1G, LEGACY_CORES_8, LEGACY_BOTH]
    table = Table(
        "Fig 13 — relative k-hop latency under legacy hardware",
        ["profile", "workers/node"] + [f"{k}-hop (rel)" for k in ks],
    )
    start_list = khop_starts(dataset, starts)
    baseline: Dict[int, float] = {}
    for profile in profiles:
        # Workers track available cores: legacy 8-core nodes can only run
        # half the workers of the modern 48-core nodes.
        workers = min(8, profile.cores_per_node // 2)
        cluster = ClusterConfig(
            nodes=BENCH_CLUSTER.nodes,
            workers_per_node=workers,
            hardware=profile,
        )
        row: List[object] = [profile.name, workers]
        for k in ks:
            engine = build_engine("graphdance", dataset, cluster)
            latency = run_khop_avg(engine, dataset, k, start_list)
            if profile is MODERN:
                baseline[k] = latency
            row.append(round(latency / baseline[k], 2))
        table.add(*row)
    table.note("paper: legacy hardware costs up to 2.74× on 3–4 hop queries, "
               "little on latency-bound 2-hop queries")
    return table
