"""Hardware profiles and the operator/network cost model.

The paper's testbed (paper §V): 8 nodes, 2× Intel Xeon Gold 6240R (48 cores
per node), 384 GB RAM, 200 Gbps interconnect. We encode that as the default
:class:`HardwareProfile`; Fig 13's "legacy hardware" sweep is expressed by
scaling ``network_gbps`` and ``cores_per_node``.

:class:`CostModel` prices the event counts the operators report
(:class:`~repro.core.steps.OpCost`) and the network primitives the two-tier
I/O scheduler performs. All constants are in **microseconds** of simulated
time and were chosen so absolute latencies land in the paper's
millisecond-scale ballpark; the benchmark shapes (who wins, crossovers) are
what the reproduction preserves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.steps import OpCost
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class HardwareProfile:
    """Per-node hardware characteristics."""

    name: str = "modern"
    cores_per_node: int = 48
    ram_gb: float = 384.0
    network_gbps: float = 200.0
    #: one-way inter-node wire latency (switch + propagation), µs
    network_latency_us: float = 5.0
    #: per-packet NIC/driver overhead, µs (limits packet rate)
    nic_packet_overhead_us: float = 1.0
    #: shared-memory hand-off latency between workers on one node, µs
    shm_latency_us: float = 0.3

    @property
    def bytes_per_us(self) -> float:
        """Usable NIC bandwidth in bytes per microsecond."""
        return self.network_gbps * 1e9 / 8 / 1e6

    def scaled(self, gbps: float = None, cores: int = None, name: str = None) -> "HardwareProfile":
        """A derived profile with reduced bandwidth and/or cores (Fig 13)."""
        return replace(
            self,
            name=name or self.name,
            network_gbps=gbps if gbps is not None else self.network_gbps,
            cores_per_node=cores if cores is not None else self.cores_per_node,
        )


#: The paper's evaluation cluster.
MODERN = HardwareProfile()

#: Fig 13 legacy configurations.
LEGACY_NET_10G = MODERN.scaled(gbps=10.0, name="10GbE")
LEGACY_NET_1G = MODERN.scaled(gbps=1.0, name="1GbE")
LEGACY_CORES_8 = MODERN.scaled(cores=8, name="8-core")
LEGACY_BOTH = MODERN.scaled(gbps=10.0, cores=8, name="10GbE+8-core")


@dataclass(frozen=True)
class CostModel:
    """Prices (µs) for compute and communication events."""

    hardware: HardwareProfile = MODERN

    # -- per-operator compute ------------------------------------------------
    #: fixed cost of dispatching one traverser step
    step_base_us: float = 0.15
    #: scanning / generating one adjacency entry
    edge_us: float = 0.02
    #: one memo read/write
    memo_op_us: float = 0.05
    #: one property access / expression evaluation
    prop_us: float = 0.03

    # -- messaging -------------------------------------------------------------
    #: CPU cost of a send syscall (charged to the flushing worker; under
    #: node-level combining, to the node's network thread once per pack)
    syscall_us: float = 2.0
    #: CPU cost of serializing one traverser into a buffer
    serialize_us: float = 0.02
    #: CPU cost of handing a buffer to the node combiner (shared memory)
    combiner_handoff_us: float = 0.3
    #: progress tracker CPU per message processed
    tracker_msg_us: float = 0.5
    #: coordinator CPU for combining one partial
    combine_partial_us: float = 1.0

    # -- engine-variant penalties ------------------------------------------------
    #: latch acquire/release on shared state (non-partitioned model)
    latch_us: float = 0.12
    #: contention growth per extra *concurrently busy* thread (non-partitioned)
    latch_contention: float = 0.18
    #: NUMA/cache-locality multiplier on all compute when state is shared
    #: across a node's threads instead of partitioned per worker (§V-A2:
    #: PSTM "ensures each worker thread accesses only the memory of its
    #: local NUMA node and improves the CPU cache hit rate")
    shared_locality_factor: float = 1.4
    #: per-(operator × worker) dataflow instantiation cost (Banyan/GAIA)
    operator_instantiation_us: float = 12.0
    #: BSP per-superstep global barrier cost (8-node barrier + straggler
    #: detection tail)
    bsp_barrier_us: float = 150.0
    #: BSP's compute scale: the BSP engine runs with ``cpu_scale *
    #: bsp_step_discount``, so the discount multiplies every compute term
    #: (dispatch, edges, memo ops, properties) and the per-child
    #: serialization, not dispatch alone. It stands for bulk processing of
    #: a superstep's frontier and is fitted, not derived from what the
    #: schedule skips
    bsp_step_discount: float = 0.82
    #: scale factor on compute (e.g. hand-optimized C++ plugins < 1.0);
    #: the one compute-scale knob, honoured by every engine
    cpu_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.cpu_scale <= 0:
            raise ConfigurationError(
                f"cpu_scale must be > 0, got {self.cpu_scale}"
            )

    def op_cost_us(self, cost: OpCost) -> float:
        """Price one operator application."""
        return self.cpu_scale * (
            cost.base * self.step_base_us
            + cost.edges * self.edge_us
            + cost.memo_ops * self.memo_op_us
            + cost.props * self.prop_us
        )

    def shared_state_penalty_us(self, cost: OpCost, busy_sharers: int) -> float:
        """Extra cost of latched access to shared memo/graph state.

        ``busy_sharers`` is the number of threads *concurrently* working on
        the shared partition: latch cost is paid always, contention grows
        with concurrency (this is why the paper's non-partitioned model
        loses 3.29× throughput but "only" 46.5% latency).
        """
        per_access = self.latch_us + self.latch_contention * max(busy_sharers - 1, 0)
        return (cost.memo_ops + cost.props + cost.edges * 0.25) * per_access

    def tx_time_us(self, size_bytes: int) -> float:
        """NIC serialization time for one packet."""
        return (
            self.hardware.nic_packet_overhead_us
            + size_bytes / self.hardware.bytes_per_us
        )

    def with_hardware(self, hardware: HardwareProfile) -> "CostModel":
        """A copy priced for a different hardware profile."""
        return replace(self, hardware=hardware)

    def scaled_cpu(self, scale: float) -> "CostModel":
        """A copy with scaled compute costs."""
        return replace(self, cpu_scale=scale)


DEFAULT_COST_MODEL = CostModel()


def validate_cluster(nodes: int, workers_per_node: int, hardware: HardwareProfile) -> None:
    """Reject configurations that oversubscribe the hardware profile."""
    if nodes < 1:
        raise ConfigurationError(f"need at least one node, got {nodes}")
    if workers_per_node < 1:
        raise ConfigurationError(
            f"need at least one worker per node, got {workers_per_node}"
        )
    if workers_per_node > hardware.cores_per_node:
        raise ConfigurationError(
            f"{workers_per_node} workers exceed {hardware.cores_per_node} "
            f"cores per node ({hardware.name})"
        )
