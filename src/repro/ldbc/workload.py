"""The LDBC SNB mixed interactive workload driver (paper §V-A1, Fig 7).

The benchmark issues interactive complex (IC), interactive short (IS), and
update (UP) operations at predefined frequencies; the **time compression
ratio (TCR)** scales all inter-arrival times — a lower TCR means a higher
offered load. The paper runs TCR ∈ {3, 0.3, 0.03} and observes TigerGraph
failing to keep up at 0.03.

The driver builds one deterministic arrival schedule and replays it against
either engine type:

* async engines (GraphDance and its variants): open-loop ``submit_at``;
* the BSP engine: arrivals injected into the shared superstep loop.

Updates execute for real against the transactional delta store
(:mod:`repro.txn`) and charge their service time to the engine, adding
realistic background load.

A run is marked **failed** (DNF) when the number of in-flight queries
exceeds ``overload_cap`` — the system cannot keep up with the issue rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ExecutionError
from repro.ldbc.generator import SNBDataset
from repro.ldbc.queries.ic import IC_QUERIES
from repro.ldbc.queries.short import IS_QUERIES
from repro.ldbc.queries.updates import UP_QUERIES, UpdateContext
from repro.query.plan import PhysicalPlan
from repro.runtime.bsp import BSPEngine
from repro.runtime.engine import AsyncPSTMEngine
from repro.runtime.metrics import LatencyRecorder
from repro.txn.manager import TransactionManager


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one mixed-workload run.

    Rates are operations per simulated second at TCR = 1; the effective
    rate of every stream is ``rate / tcr``.
    """

    tcr: float = 3.0
    duration_s: float = 2.0
    ic_rate: float = 2.0       # per IC type
    is_rate: float = 12.0      # per IS type
    up_rate: float = 30.0      # total across update types
    seed: int = 11
    overload_cap: int = 512
    include_ic: Tuple[int, ...] = tuple(range(1, 15))
    include_is: Tuple[int, ...] = tuple(range(1, 8))


@dataclass
class Arrival:
    time_us: float
    label: str            # e.g. "IC4", "IS2", "UP3"
    plan: Optional[PhysicalPlan]      # None for updates
    params: Dict[str, Any]
    update_number: int = 0            # for updates


@dataclass
class MixedWorkloadResult:
    """Latency distributions per query type for one run."""

    engine_name: str
    tcr: float
    completed: bool
    per_type: Dict[str, LatencyRecorder] = field(default_factory=dict)
    failure_reason: str = ""

    def recorder(self, label: str) -> LatencyRecorder:
        """The latency recorder of one query label, created lazily."""
        rec = self.per_type.get(label)
        if rec is None:
            rec = LatencyRecorder()
            self.per_type[label] = rec
        return rec

    def avg_ms(self, label: str) -> float:
        """Average latency of a query label in milliseconds."""
        return self.recorder(label).average() / 1000.0

    def p99_ms(self, label: str) -> float:
        """P99 latency of a query label in milliseconds."""
        return self.recorder(label).p99() / 1000.0

    def labels(self) -> List[str]:
        """Recorded query labels in canonical order."""
        return sorted(self.per_type, key=_label_key)


def _label_key(label: str) -> Tuple[str, int]:
    kind = label.rstrip("0123456789")
    num = label[len(kind):]
    return (kind, int(num) if num else 0)


def build_schedule(
    dataset: SNBDataset,
    graph,
    config: WorkloadConfig,
) -> List[Arrival]:
    """Compile plans once and lay out a deterministic arrival schedule."""
    rng = random.Random(config.seed)
    duration_us = config.duration_s * 1e6
    arrivals: List[Arrival] = []

    def poisson_times(rate_per_s: float) -> List[float]:
        if rate_per_s <= 0:
            return []
        scaled = rate_per_s / config.tcr
        times = []
        t = rng.expovariate(scaled) * 1e6
        while t < duration_us:
            times.append(t)
            t += rng.expovariate(scaled) * 1e6
        return times

    ic_plans = {n: IC_QUERIES[n].build().compile(graph) for n in config.include_ic}
    is_plans = {n: IS_QUERIES[n].build().compile(graph) for n in config.include_is}

    for n in config.include_ic:
        qdef = IC_QUERIES[n]
        for t in poisson_times(config.ic_rate):
            arrivals.append(
                Arrival(t, qdef.name, ic_plans[n], qdef.make_params(dataset, rng))
            )
    for n in config.include_is:
        qdef = IS_QUERIES[n]
        for t in poisson_times(config.is_rate):
            arrivals.append(
                Arrival(t, qdef.name, is_plans[n], qdef.make_params(dataset, rng))
            )
    update_ctx = UpdateContext(dataset)
    up_types = sorted(UP_QUERIES)
    for t in poisson_times(config.up_rate):
        number = rng.choice(up_types)
        udef = UP_QUERIES[number]
        arrivals.append(
            Arrival(t, udef.name, None, udef.make_params(update_ctx, rng), number)
        )

    arrivals.sort(key=lambda a: a.time_us)
    return arrivals


def run_mixed_workload(
    engine: Union[AsyncPSTMEngine, BSPEngine],
    dataset: SNBDataset,
    config: WorkloadConfig,
    txn_manager: Optional[TransactionManager] = None,
) -> MixedWorkloadResult:
    """Replay the workload schedule against an engine."""
    graph = engine.graph
    schedule = build_schedule(dataset, graph, config)
    plane = getattr(engine, "txnplane", None)
    if txn_manager is not None:
        txm = txn_manager
    elif plane is not None:
        # Transaction plane armed: updates commit into the plane's
        # manager, so concurrently running IC reads (pinned at admission)
        # actually observe the snapshot-isolation contract.
        txm = plane.txm
    else:
        # The graph's placement, so each delta lands with its vertex.
        txm = TransactionManager(graph.partitioner)
    if isinstance(engine, BSPEngine):
        return _run_bsp(engine, schedule, txm, config)
    return _run_async(engine, schedule, txm, config)


# -- async engines ------------------------------------------------------------


def _run_async(
    engine: AsyncPSTMEngine,
    schedule: List[Arrival],
    txm: TransactionManager,
    config: WorkloadConfig,
) -> MixedWorkloadResult:
    result = MixedWorkloadResult(engine.config.name, config.tcr, completed=True)
    overloaded: List[str] = []

    def submit(arrival: Arrival) -> None:
        if overloaded:
            return
        if len(engine.sessions) > config.overload_cap:
            overloaded.append(
                f"{len(engine.sessions)} queries in flight at "
                f"t={engine.clock.now / 1e3:.1f} ms"
            )
            return
        if arrival.plan is None:
            udef = UP_QUERIES[arrival.update_number]
            plane = getattr(engine, "txnplane", None)
            if plane is not None:
                # Through the plane: traces, metrics, abort accounting,
                # and wedge-deferral behind a torn commit all apply.
                plane.apply_update(
                    lambda m: udef.apply(m, arrival.params), label=udef.name
                )
            else:
                udef.apply(txm, arrival.params)
            # Charge the update's service time to the owning worker.
            wid = arrival.update_number % len(engine.workers)
            engine.workers[wid].add_setup_cost(engine.clock.now, udef.service_us)
            result.recorder("UP").record(udef.service_us)
            return
        engine.submit(
            arrival.plan,
            arrival.params,
            on_done=lambda s, label=arrival.label: result.recorder(label).record(
                s.qmetrics.latency_us
            ),
        )

    for arrival in schedule:
        engine.clock.schedule_at(arrival.time_us, lambda a=arrival: submit(a))
    engine.clock.run_until_idle()

    if overloaded:
        result.completed = False
        result.failure_reason = overloaded[0]
    return result


# -- BSP engine ---------------------------------------------------------------------


def _run_bsp(
    engine: BSPEngine,
    schedule: List[Arrival],
    txm: TransactionManager,
    config: WorkloadConfig,
) -> MixedWorkloadResult:
    """Open-loop replay against the BSP engine.

    Queries time-slice the cluster at superstep granularity (each superstep
    holds the global barrier exclusively), so queueing delay accumulates
    quickly as the offered load rises — the mechanism behind the paper's
    TigerGraph overload at TCR 0.03.
    """
    result = MixedWorkloadResult(engine.name, config.tcr, completed=True)
    pending = list(schedule)
    active: List = []

    while pending or active:
        if not active and pending:
            engine.time_us = max(engine.time_us, pending[0].time_us)
        # Inject all arrivals due by now.
        while pending and pending[0].time_us <= engine.time_us:
            arrival = pending.pop(0)
            if arrival.plan is None:
                udef = UP_QUERIES[arrival.update_number]
                udef.apply(txm, arrival.params)
                engine.time_us += udef.service_us / max(len(engine.graph.stores), 1)
                result.recorder("UP").record(udef.service_us)
                continue
            session = engine.submit(arrival.plan, arrival.params)
            session.qmetrics.submitted_at_us = arrival.time_us
            active.append((arrival.label, session))
            if len(active) > config.overload_cap:
                result.completed = False
                result.failure_reason = (
                    f"{len(active)} queries in flight at "
                    f"t={engine.time_us / 1e3:.1f} ms"
                )
                return result
        if not active:
            continue
        # Round-robin one exclusive superstep per active query.
        for label, session in list(active):
            engine.advance(session)
            if session.cursor.finished:
                active.remove((label, session))
                result.recorder(label).record(session.qmetrics.latency_us)
    return result
