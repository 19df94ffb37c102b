"""Stage-boundary checkpointing & deterministic restore (docs/RECOVERY.md).

The contract pinned here, on both kernels:

1. **invisibility** — an armed checkpoint plane on a healthy run is
   bit-for-bit identical to the unarmed engine (same rows, same simulated
   latency), and every stored snapshot drains by engine quiescence;
2. **restore** — a worker crash after a stage boundary resumes from the
   boundary snapshot: identical rows, a clean weight-ledger audit, and
   *strictly less* replayed kernel work than the PR4 force-retry path;
3. **fallback** — a crash before the first boundary falls back to
   force-retry (stage 0 never snapshots), still masking the fault;
4. **re-restorability** — checkpoints are re-keyed to the restored
   attempt, so a second crash restores again from the same boundary.

The crash instants are fractions of the two-stage plan's stage windows,
taken from dry runs (:func:`crash_instants`).
"""

import pytest

from repro.core.memo import QueryMemo
from repro.datasets.synthetic import PowerLawConfig, powerlaw_graph
from repro.errors import ConfigurationError
from repro.core.progress import ProgressMode
from repro.graph.partition import PartitionedGraph
from repro.query.traversal import Traversal
from repro.runtime.checkpoint import StageCheckpoint
from repro.runtime.engine import AsyncPSTMEngine, EngineConfig
from repro.runtime.faults import FaultPlan, WorkerFault
from repro.runtime.trace import EXEC, RECLAIM, RESTORE, WeightLedgerAuditor
from tests.conftest import KERNELS, stage_windows, within

NODES, WPN = 4, 2
ENGINE_SEED = 3
GRAPH_SEED = 7
START = {"start": 11}

GRAPH_CFG = PowerLawConfig("ck-demo", 400, 6.0)


@pytest.fixture(scope="module")
def ck_graph():
    return PartitionedGraph.from_graph(
        powerlaw_graph(GRAPH_CFG, seed=GRAPH_SEED), NODES * WPN
    )


def two_stage_plan(graph):
    return (
        Traversal("two_stage_heavy")
        .v_param("start")
        .khop(GRAPH_CFG.edge_label, k=2)
        .as_("v")
        .group_count("v")
        .out(GRAPH_CFG.edge_label)
        .count()
        .compile(graph)
    )


def three_stage_plan(graph):
    return (
        Traversal("three_stage")
        .v_param("start")
        .khop(GRAPH_CFG.edge_label, k=1)
        .as_("a")
        .group_count("a")
        .out(GRAPH_CFG.edge_label)
        .as_("b")
        .group_count("b")
        .out(GRAPH_CFG.edge_label)
        .count()
        .compile(graph)
    )


def run_ck(graph, plan, **engine_kw):
    """One seeded engine run; returns ``(engine, result)``."""
    engine = ck_engine(graph, **engine_kw)
    return engine, engine.run(plan, START)


def ck_engine(graph, *, crashes=(), checkpoint=False, kernel="run",
              trace=True):
    """A seeded engine: ``crashes`` are ``(wid, at_us)`` pairs, each down
    for 30 us."""
    fault_plan = None
    if crashes:
        fault_plan = FaultPlan(worker_faults=tuple(
            WorkerFault(wid=wid, at_us=at, down_us=30.0)
            for wid, at in crashes
        ))
    return AsyncPSTMEngine(
        graph, NODES, WPN,
        config=EngineConfig(
            trace=trace,
            kernel=kernel,
            fault_plan=fault_plan,
            checkpoint_interval_us=0.0 if checkpoint else None,
        ),
        seed=ENGINE_SEED,
    )


def crash_instants(graph):
    """Crash instants on the two-stage plan's timeline, from dry runs:
    ``before`` three quarters into stage 0, ``after`` halfway through
    stage 1, and ``second`` halfway from ``after`` to the end of the run
    that the ``after`` crash restores."""
    plan = two_stage_plan(graph)

    def windows(**engine_kw):
        return stage_windows(ck_engine(graph, **engine_kw),
                             lambda engine: engine.submit(plan, START))

    healthy = windows()
    after = within(healthy[1], 0.5)
    restored = windows(checkpoint=True, crashes=((2, after),))
    return {"before": within(healthy[0], 0.75), "after": after,
            "second": within((after, restored[1][1]), 0.5)}


@pytest.fixture(scope="module")
def crash_at(ck_graph):
    return crash_instants(ck_graph)


def audit_of(engine):
    return WeightLedgerAuditor(engine.trace.events).audit()


# -- configuration validation ------------------------------------------------


class TestValidation:
    def test_negative_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(checkpoint_interval_us=-1.0)

    def test_naive_progress_mode_rejected(self):
        # The checkpoint cut is certified by the stage ledger reaching the
        # root weight; the naive central counter certifies nothing.
        with pytest.raises(ConfigurationError):
            EngineConfig(progress_mode=ProgressMode.NAIVE_CENTRAL,
                         checkpoint_interval_us=0.0)

    def test_disarmed_engine_has_no_plane(self, ck_graph):
        engine = AsyncPSTMEngine(ck_graph, NODES, WPN, config=EngineConfig())
        assert engine.checkpoints is None


# -- armed-but-healthy equivalence -------------------------------------------


class TestArmedEquivalence:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_armed_run_is_bit_identical_and_drains(self, ck_graph, kernel):
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        engine, armed = run_ck(ck_graph, plan, kernel=kernel, checkpoint=True)
        assert armed.rows == base.rows
        assert armed.latency_us == base.latency_us
        assert engine.metrics.checkpoints_taken == 1  # one boundary
        assert engine.checkpoints.stored == 0  # dropped at retire
        assert audit_of(engine).ok


# -- crash recovery: restore vs fallback, all kernels ------------------------


class TestCrashRecovery:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_after_boundary_restores(self, ck_graph, crash_at, kernel):
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        engine, result = run_ck(
            ck_graph, plan, kernel=kernel, checkpoint=True,
            crashes=((2, crash_at["after"]),),
        )
        assert result.rows == base.rows
        assert result.metrics.restores == 1
        assert result.metrics.retries == 1
        assert result.metrics.resumed
        assert engine.metrics.checkpoint_restores == 1
        assert engine.metrics.checkpoint_fallbacks == 0
        assert engine.checkpoints.stored == 0
        audit = audit_of(engine)
        assert audit.ok, audit.violations[:3]
        # The RESTORE event carries the resume point.
        (restore,) = engine.trace.by_kind(RESTORE)
        assert restore.data["stage"] == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_before_boundary_falls_back(self, ck_graph, crash_at, kernel):
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        engine, result = run_ck(
            ck_graph, plan, kernel=kernel, checkpoint=True,
            crashes=((2, crash_at["before"]),),
        )
        assert result.rows == base.rows
        assert result.metrics.restores == 0
        assert result.metrics.retries == 1
        assert engine.metrics.checkpoint_fallbacks == 1
        assert engine.metrics.checkpoint_restores == 0
        assert audit_of(engine).ok

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_restore_replays_strictly_less_than_force_retry(
        self, ck_graph, crash_at, kernel
    ):
        plan = two_stage_plan(ck_graph)
        crashes = ((2, crash_at["after"]),)
        retry_engine, retry = run_ck(
            ck_graph, plan, kernel=kernel, crashes=crashes
        )
        ck_engine, restored = run_ck(
            ck_graph, plan, kernel=kernel, checkpoint=True, crashes=crashes
        )
        assert restored.rows == retry.rows
        retry_exec = len(retry_engine.trace.by_kind(EXEC))
        ck_exec = len(ck_engine.trace.by_kind(EXEC))
        assert ck_exec < retry_exec
        # ...and the restored attempt still pays for the lost work in
        # simulated time relative to a healthy run, just less of it.
        _, base = run_ck(ck_graph, plan, kernel=kernel)
        assert base.latency_us < restored.latency_us <= retry.latency_us

    def test_second_crash_restores_again(self, ck_graph, crash_at):
        """Checkpoints are re-keyed to the restored attempt's query id, so
        a crash *during the restored stage* restores from the same
        boundary a second time."""
        plan = two_stage_plan(ck_graph)
        _, base = run_ck(ck_graph, plan)
        engine, result = run_ck(
            ck_graph, plan, checkpoint=True,
            crashes=((2, crash_at["after"]), (3, crash_at["second"])),
        )
        assert result.rows == base.rows
        assert result.metrics.restores == 2
        assert engine.metrics.checkpoint_restores == 2
        assert engine.checkpoints.stored == 0
        assert audit_of(engine).ok

    def test_fenced_reclaims_never_report_weight(self, ck_graph, crash_at):
        """The dead attempt's purge during a restore is fenced: RECLAIM
        events are emitted for observability but carry reported=False, so
        the ProgressTracker never double-counts the checkpointed frontier
        (satellite 5)."""
        plan = two_stage_plan(ck_graph)
        engine, _ = run_ck(
            ck_graph, plan, checkpoint=True,
            crashes=((2, crash_at["after"]),),
        )
        fenced = [ev for ev in engine.trace.by_kind(RECLAIM)
                  if ev.data.get("fenced")]
        assert fenced  # the restore purged live stage-1 state
        assert all(ev.data["reported"] is False for ev in fenced)


# -- retention ---------------------------------------------------------------


class TestRetention:
    def test_eviction_keeps_newest(self, ck_graph):
        plan = three_stage_plan(ck_graph)  # two checkpointable boundaries
        engine, _ = run_ck(ck_graph, plan, checkpoint=True)
        assert engine.checkpoints.taken == 2
        assert engine.checkpoints.evicted == 1
        assert engine.checkpoints.stored == 0


# -- snapshot isolation ------------------------------------------------------


class TestSnapshotIsolation:
    def test_memo_snapshot_is_isolated_from_live_memo(self):
        memo = QueryMemo()
        memo.put("dist", 7, 2)
        memo.append("paths", 7, [1, 2])
        snap = memo.snapshot()
        memo.put("dist", 7, 99)  # live memo keeps mutating post-boundary
        memo.append("paths", 7, [3])
        assert snap["dist"][7] == 2
        assert snap["paths"][7] == [[1, 2]]

    def test_build_memo_copies_per_restore_attempt(self):
        memo = QueryMemo()
        memo.put("dist", 7, 2)
        ckpt = StageCheckpoint(
            query_id=1, stage=1, ts=0.0, seeds=(),
            rng_state=None, memos={0: memo.snapshot()},
        )
        first = ckpt.build_memo(0)
        first.put("dist", 7, 99)  # first restore attempt mutates its copy
        second = ckpt.build_memo(0)
        assert second.get("dist", 7) == 2  # the stored shard is untouched
        assert ckpt.build_memo(3) is None  # empty partitions stay empty
        assert ckpt.record_count() == 1
