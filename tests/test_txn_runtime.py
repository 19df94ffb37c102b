"""Transaction plane × async runtime: fuzzed isolation and equivalence.

The PR10 integration suite (docs/TRANSACTIONS.md). Two properties carry
everything:

1. **Snapshot equivalence** — every query admitted while LDBC SNB update
   transactions commit concurrently is pinned to the tracker's cached LCT
   and must produce rows bit-identical to a *solo*
   :class:`~repro.runtime.reference.LocalExecutor` run against the
   snapshot view at that pin — whatever the kernel and whatever
   fate (crash, cancel, preempt) hits the run midway.
   Hypothesis drives seeded interleavings of the update stream, the IC
   read wave, and the fate instant.
2. **Snapshot monotonicity** — a read pinned at timestamp T sees exactly
   the prefix of commits with ``commit_ts <= T``; delaying the LCT
   broadcast (``lct_broadcast_lag_us``) can only *shrink* the observed
   prefix (staleness), never expose an uncommitted or future version.

A subprocess determinism check mirrors ``test_placement.py``: the whole
read/write pipeline must not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ldbc import schema as S
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.updates import UP_QUERIES, UpdateContext
from repro.graph.builder import GraphBuilder
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import CRASH, FaultPlan, WorkerFault
from repro.runtime.reference import LocalExecutor
from repro.runtime.trace import TXN_COMMIT, WeightLedgerAuditor
from tests.conftest import KERNELS

NODES, WPN = 2, 2
PARTS = NODES * WPN
ENGINE_SEED = 3


#: fates a seeded interleaving can suffer midway (PR5's fuzz grammar
#: grown with a writer terminal and the PR7–PR8 disruption planes)
FATES = ("none", "crash", "cancel", "preempt")

SRC_ROOT = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def dataset():
    return generate_snb(SNB_TINY)


def two_stage_plan(graph):
    """Checkpointable IC-style shape: the group_count boundary gives
    preemption and crash-restore a certified cut to work with."""
    return (
        Traversal("ic_two_stage")
        .v_param("person")
        .khop(S.KNOWS, k=2)
        .as_("f")
        .group_count("f")
        .out(S.KNOWS)
        .count()
        .compile(graph)
    )


def home_vertex(params: Dict[str, Any]) -> Optional[int]:
    for key in ("person", "vid", "forum"):
        if key in params:
            return params[key]
    return None


def run_interleaving(dataset, kernel: str, seed: int, fate: str):
    """One seeded interleaving of IC reads × SNB updates × one fate.

    Builds a fresh partitioned graph and engine per run, so the same
    (seed, fate) replays bit-identically on both kernels. Returns ``(sessions, engine, plane)`` where sessions
    are ``(session, plan, params)`` triples.
    """
    rng = random.Random(seed)
    graph = dataset.partitioned(PARTS)
    cfg: Dict[str, Any] = dict(
        trace=True, kernel=kernel, transactions=True,
        checkpoint_interval_us=0.0,
        lct_broadcast_lag_us=rng.choice([0.0, 40.0]),
    )
    if fate == "preempt":
        cfg.update(preemption=True, max_concurrent_queries=8)
    if fate == "crash":
        cfg["fault_plan"] = FaultPlan(worker_faults=(
            WorkerFault(wid=rng.randrange(PARTS),
                        at_us=rng.uniform(200.0, 800.0),
                        kind=CRASH, down_us=150.0),
        ))
    engine = AsyncPSTMEngine(
        graph, NODES, WPN, config=EngineConfig(**cfg), seed=ENGINE_SEED
    )
    plane = engine.txnplane

    ic_plans = {n: IC_QUERIES[n].build().compile(graph) for n in (2, 7, 8)}
    staged = two_stage_plan(graph)
    ic_mix = (2, 7, 8)
    sessions: List[Tuple[Any, Any, Dict[str, Any]]] = []
    for i in range(5):
        qdef = IC_QUERIES[ic_mix[i % 3]]
        params = qdef.make_params(dataset, rng)
        if i % 2 == 1:
            plan, params = staged, {"person": params["person"]}
        else:
            plan = ic_plans[ic_mix[i % 3]]
        at = 100.0 + i * 130.0
        sessions.append((engine.submit(plan, params, at=at), plan, params))

    ctx = UpdateContext(dataset)
    up_types = sorted(UP_QUERIES)
    for _ in range(6):
        udef = UP_QUERIES[rng.choice(up_types)]
        params = udef.make_params(ctx, rng)
        plane.schedule_update(
            rng.uniform(60.0, 1000.0),
            lambda m, u=udef, p=params: u.apply(m, p),
            label=udef.name, service_us=udef.service_us,
            home_vid=home_vertex(params),
        )

    if fate == "cancel":
        victim = sessions[rng.randrange(len(sessions))][0]
        engine.clock.schedule_at(
            100.0 + rng.uniform(10.0, 500.0),
            lambda: engine.cancel(victim, "fuzz"),
        )
    elif fate == "preempt":
        idx = rng.choice([1, 3])  # the two-stage (checkpointable) shapes
        victim = sessions[idx][0]
        engine.clock.schedule_at(
            100.0 + idx * 130.0 + rng.uniform(5.0, 60.0),
            lambda: engine.preempt(victim, "fuzz"),
        )
        engine.clock.schedule_at(2500.0, lambda: engine.resume(victim))

    engine.clock.run_until_idle()
    return sessions, engine, plane


def assert_snapshot_equivalent(sessions, engine, plane) -> List[Tuple]:
    """Every finished query's rows == a solo run at its pinned snapshot.

    Returns a comparable fingerprint (rows, pin, cancelled) per query
    for cross-kernel identity checks.
    """
    fingerprint = []
    executors: Dict[int, LocalExecutor] = {}
    lct = plane.txm.lct
    for s, plan, params in sessions:
        if s.qmetrics.cancelled:
            fingerprint.append((None, s.snapshot_ts, True))
            continue
        assert s.qmetrics.done, f"query {s.query_id} never finished"
        ts = s.snapshot_ts
        assert ts is not None and 0 <= ts <= lct
        ex = executors.get(ts)
        if ex is None:
            ex = executors[ts] = LocalExecutor(plane.snapshot_graph(ts))
        assert s.results == ex.run(plan, params), (
            f"query {s.query_id} diverged from its pinned snapshot {ts}"
        )
        fingerprint.append((s.results, ts, False))
    audit = WeightLedgerAuditor(engine.trace.events).audit()
    assert audit.ok, audit.violations
    return fingerprint


class TestFuzzedInterleavings:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        fate=st.sampled_from(FATES),
    )
    @settings(max_examples=10, deadline=None)
    def test_interleavings_snapshot_equivalent_across_tiers(
        self, dataset, seed, fate
    ):
        """Seeded interleaving × fate: both kernels' rows equal the solo
        snapshot run, and the kernels agree bit-for-bit with each other."""
        reference = None
        for kernel in KERNELS:
            sessions, engine, plane = run_interleaving(
                dataset, kernel, seed, fate
            )
            fp = assert_snapshot_equivalent(sessions, engine, plane)
            if reference is None:
                reference = fp
            else:
                assert fp == reference, f"{kernel} diverged from {KERNELS[0]}"

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=8, deadline=None)
    def test_interleavings_are_deterministic(self, dataset, seed):
        """Same seed, same fate → bit-identical rows and pins."""
        first = run_interleaving(dataset, "run", seed, "none")
        second = run_interleaving(dataset, "run", seed, "none")
        fp1 = [(s.results, s.snapshot_ts) for s, _p, _a in first[0]]
        fp2 = [(s.results, s.snapshot_ts) for s, _p, _a in second[0]]
        assert fp1 == fp2

    @pytest.mark.slow
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        fate=st.sampled_from(FATES),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleavings_soak(self, dataset, seed, fate):
        """Extended-seed nightly soak on both kernels."""
        for kernel in KERNELS:
            sessions, engine, plane = run_interleaving(
                dataset, kernel, seed, fate
            )
            assert_snapshot_equivalent(sessions, engine, plane)


# -- snapshot monotonicity (the prefix law) -----------------------------------


def chain_graph(n: int = 24) -> PartitionedGraph:
    b = GraphBuilder("person")
    for v in range(n):
        b.vertex(v, "person", weight=v)
    b.edge(0, 1, "knows")
    return PartitionedGraph.from_graph(b.build(), PARTS)


def probe_plan(graph):
    return (
        Traversal("probe").v_param("s").out("knows").as_("v").select("v")
    ).compile(graph)


class TestSnapshotMonotonicity:
    @given(
        n_commits=st.integers(min_value=1, max_value=6),
        lag=st.sampled_from([0.0, 20.0, 170.0]),
        n_probes=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_pin_sees_exact_commit_prefix(self, n_commits, lag, n_probes):
        """A read pinned at T sees exactly the commits with ts <= T, and
        a lagged LCT broadcast only shrinks the prefix — it never
        exposes an uncommitted or future version."""
        graph = chain_graph()
        engine = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(trace=True, transactions=True,
                                lct_broadcast_lag_us=lag),
            seed=ENGINE_SEED,
        )
        plane = engine.txnplane
        plan = probe_plan(graph)
        commit_times = [100.0 + j * 50.0 for j in range(n_commits)]
        for j, at in enumerate(commit_times):
            def add(m, j=j):
                txn = m.begin()
                m.add_edge(txn, 0, 2 + j, "knows", 9000 + j)
                m.commit(txn)
            plane.schedule_update(at, add, label=f"UP{j}")
        # Probes land between commits and after the last broadcast.
        probe_times = [75.0 + k * 50.0 for k in range(n_probes)]
        probe_times.append(commit_times[-1] + lag + 500.0)
        sessions = [engine.submit(plan, {"s": 0}, at=t) for t in probe_times]
        engine.clock.run_until_idle()

        commit_ts = [ev.data["commit_ts"] for ev in engine.trace.events
                     if ev.kind == TXN_COMMIT]
        assert commit_ts == sorted(commit_ts)  # monotonic commit order
        for t_q, s in zip(probe_times, sessions):
            pin = s.snapshot_ts
            # The pin is exactly the newest watermark broadcast by t_q:
            # a delayed broadcast carries the LCT it left the manager
            # with, so staleness is the only permitted error.
            visible = [j for j, t_c in enumerate(commit_times)
                       if t_c + lag <= t_q]
            expected_pin = commit_ts[visible[-1]] if visible else 0
            assert pin == expected_pin
            assert pin <= plane.txm.lct
            # Rows are exactly the base edge plus the commit prefix <= pin.
            expected = {1} | {2 + j for j, ts in enumerate(commit_ts)
                              if ts <= pin}
            assert {r[0] for r in s.results} == expected
            assert len(s.results) == len(expected)

    def test_pin_reads_its_home_nodes_cache(self):
        """Nodes hear of a commit at different times (the broadcast is
        staggered here, one node every 40 us): a query's pin is what its
        *home* node — the node its start vertex lives on, recorded by the
        engine before the pin reads it — has heard of by admission: stale
        against the manager, never ahead of that cache — and its rows are
        the solo rows at that cut."""
        graph = chain_graph()
        engine = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(trace=True, transactions=True,
                                lct_broadcast_lag_us=20.0),
            seed=ENGINE_SEED,
        )
        plane, clock = engine.txnplane, engine.clock
        txm = plane.txm
        arrive = txm.broadcast_lct

        def staggered(nodes, lct=None):
            for node in nodes:
                clock.schedule_at(clock.now + 40.0 * node,
                                  lambda n=node: arrive([n], lct))

        txm.broadcast_lct = staggered
        node_of = lambda v: engine.node_of(graph.partition_of(v))
        # one start vertex per node: the probes' homes cover the cluster
        starts = [next(v for v in range(24) if node_of(v) == n)
                  for n in range(NODES)]
        for j in range(4):
            def add(m, j=j):
                txn = m.begin()
                for start in starts:
                    m.add_edge(txn, start, 12 + j, "knows", 9000 + j)
                m.commit(txn)
            plane.schedule_update(100.0 + j * 50.0, add)
        plan = probe_plan(graph)
        probes = []  # (session, start, home's cache, node 0's, manager's LCT)

        def probe(start):
            session = engine.submit(plan, {"s": start})
            home = engine.home_node(session.query_id)
            assert home == node_of(start)
            probes.append((session, start, txm.cached_lct(home),
                           txm.cached_lct(0), txm.lct))

        for k in range(12):
            clock.schedule_at(110.0 + k * 25.0,
                              lambda s=starts[k % NODES]: probe(s))
        clock.run_until_idle()

        for session, start, cached, _at_node_0, lct in probes:
            assert session.snapshot_ts == cached <= lct
            solo = LocalExecutor(plane.snapshot_graph(session.snapshot_ts))
            assert (sorted(session.results)
                    == sorted(solo.run(plan, {"s": start})))
        # the lag was observable, and so was whose cache a pin read
        assert any(cached < lct for _s, _v, cached, _0, lct in probes)
        assert any(cached != at_0 for _s, _v, cached, at_0, _l in probes)

    def test_final_probe_sees_every_commit(self):
        """After the last broadcast lands, a fresh pin covers all commits."""
        graph = chain_graph()
        engine = AsyncPSTMEngine(
            graph, NODES, WPN,
            config=EngineConfig(trace=True, transactions=True,
                                lct_broadcast_lag_us=170.0),
            seed=ENGINE_SEED,
        )
        plane = engine.txnplane
        for j in range(3):
            def add(m, j=j):
                txn = m.begin()
                m.add_edge(txn, 0, 2 + j, "knows", 9000 + j)
                m.commit(txn)
            plane.schedule_update(100.0 + j * 10.0, add)
        session = engine.submit(probe_plan(graph), {"s": 0}, at=1000.0)
        engine.clock.run_until_idle()
        assert session.snapshot_ts == plane.txm.lct
        assert {r[0] for r in session.results} == {1, 2, 3, 4}


# -- hash-seed independence (subprocess-seeded, like test_placement) ----------

MIXED_SNIPPET = """
import random
from repro.ldbc.generator import SNB_TINY, generate_snb
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.updates import UP_QUERIES, UpdateContext
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig

dataset = generate_snb(SNB_TINY)
graph = dataset.partitioned(4)
engine = AsyncPSTMEngine(
    graph, 2, 2,
    config=EngineConfig(trace=True, transactions=True,
                        lct_broadcast_lag_us=40.0),
    seed=3,
)
plane = engine.txnplane
rng = random.Random(99)
plan = IC_QUERIES[2].build().compile(graph)
sessions = [
    engine.submit(plan, IC_QUERIES[2].make_params(dataset, rng),
                  at=100.0 + i * 120.0)
    for i in range(3)
]
ctx = UpdateContext(dataset)
for j in range(4):
    udef = UP_QUERIES[sorted(UP_QUERIES)[j % 8]]
    p = udef.make_params(ctx, rng)
    plane.schedule_update(150.0 + j * 90.0,
                          lambda m, u=udef, q=p: u.apply(m, q),
                          label=udef.name)
engine.clock.run_until_idle()
print(repr([(s.snapshot_ts, s.results) for s in sessions]))
"""


def run_mixed_with_hashseed(seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC_ROOT)
    out = subprocess.run(
        [sys.executable, "-c", MIXED_SNIPPET],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


class TestHashSeedIndependence:
    def test_mixed_run_stable_across_pythonhashseed(self):
        """Pins and rows of a mixed read/write run may not depend on the
        per-process string hash randomization — the contract replayed
        checkpoints and the bit-identity gates rely on."""
        results = {seed: run_mixed_with_hashseed(seed) for seed in (0, 1, 2)}
        assert len(set(results.values())) == 1, results
