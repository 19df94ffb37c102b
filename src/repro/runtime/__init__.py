"""Execution runtimes: the reference interpreter and simulated engines."""

from repro.runtime.bsp import BSPEngine
from repro.runtime.cluster import PAPER_CLUSTER, SMALL_CLUSTER, ClusterConfig
from repro.runtime.costmodel import (
    DEFAULT_COST_MODEL,
    CostModel,
    HardwareProfile,
    MODERN,
)
from repro.runtime.delivery import DeliveryPlane, TrackerActor
from repro.runtime.engine import (
    AsyncPSTMEngine,
    EngineConfig,
    IO_SYNC,
    IO_TLC,
    IO_TLC_NLC,
    QueryProfile,
    QueryResult,
)
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    RecoveryManager,
    WorkerFault,
)
from repro.runtime.hybrid import HybridEngine, estimate_plan_work
from repro.runtime.kernels import ExecutionKernel, RunKernel, ScalarKernel
from repro.runtime.lifecycle import (
    LEGAL_TRANSITIONS,
    QueryLifecycle,
    QuerySession,
    QueryState,
)
from repro.runtime.metrics import LatencyRecorder, MsgKind, QueryMetrics, RunMetrics
from repro.runtime.reference import LocalExecutor
from repro.runtime.simclock import SimClock
from repro.runtime.trace import (
    AuditReport,
    TraceEvent,
    TraceRecorder,
    WeightLedgerAuditor,
)
from repro.runtime.variants import (
    SingleNodeEngine,
    make_banyan,
    make_bsp,
    make_gaia,
    make_graphdance,
    make_graphscope,
    make_non_partitioned,
)

__all__ = [
    "AsyncPSTMEngine",
    "AuditReport",
    "BSPEngine",
    "ClusterConfig",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DeliveryPlane",
    "EngineConfig",
    "ExecutionKernel",
    "FaultInjector",
    "FaultPlan",
    "HardwareProfile",
    "HybridEngine",
    "IO_SYNC",
    "IO_TLC",
    "IO_TLC_NLC",
    "LEGAL_TRANSITIONS",
    "LatencyRecorder",
    "LocalExecutor",
    "MODERN",
    "MsgKind",
    "PAPER_CLUSTER",
    "QueryLifecycle",
    "QueryMetrics",
    "QueryProfile",
    "QueryResult",
    "QuerySession",
    "QueryState",
    "RecoveryManager",
    "RunKernel",
    "RunMetrics",
    "ScalarKernel",
    "TrackerActor",
    "SMALL_CLUSTER",
    "SimClock",
    "SingleNodeEngine",
    "TraceEvent",
    "TraceRecorder",
    "WeightLedgerAuditor",
    "WorkerFault",
    "estimate_plan_work",
    "make_banyan",
    "make_bsp",
    "make_gaia",
    "make_graphdance",
    "make_graphscope",
    "make_non_partitioned",
]
