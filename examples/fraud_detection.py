#!/usr/bin/env python3
"""Real-time fraud-ring detection — the paper's other motivating workload.

Builds a payments property graph (accounts, devices, merchants) where a
few *fraud rings* share devices, then runs two interactive complex queries
on the simulated GraphDance cluster:

1. **shared-device ring discovery** — from a flagged account, find other
   accounts reachable through shared devices within 2 device-hops, ranked
   by how many devices they share (dedup + group-count);
2. **suspicious fan-in** — merchants receiving payments from many
   ring-connected accounts (multi-hop traversal + aggregation).

Updates (new payments) are applied transactionally through the MV2PL
transaction manager while the read queries keep running on their snapshot.

Run:  python examples/fraud_detection.py
"""

import random

from repro import ClusterConfig, make_graphdance
from repro.graph import GraphBuilder
from repro.query import Traversal, X
from repro.txn import TransactionManager

NUM_ACCOUNTS = 1500
NUM_DEVICES = 600
NUM_MERCHANTS = 60
NUM_RINGS = 5
RING_SIZE = 8


def build_payment_graph(seed: int = 7):
    """Accounts use devices and pay merchants; rings share devices."""
    rng = random.Random(seed)
    builder = GraphBuilder("account")
    accounts = []
    for i in range(NUM_ACCOUNTS):
        vid = i
        builder.vertex(vid, "account", risk=rng.random())
        accounts.append(vid)
    devices = []
    for i in range(NUM_DEVICES):
        vid = NUM_ACCOUNTS + i
        builder.vertex(vid, "device")
        devices.append(vid)
    merchants = []
    for i in range(NUM_MERCHANTS):
        vid = NUM_ACCOUNTS + NUM_DEVICES + i
        builder.vertex(vid, "merchant")
        merchants.append(vid)

    # Normal accounts: 1-2 personal devices, a handful of payments.
    for account in accounts:
        for device in rng.sample(devices, rng.randint(1, 2)):
            builder.edge(account, device, "uses")
        for _ in range(rng.randint(1, 4)):
            builder.edge(account, rng.choice(merchants), "pays",
                         amount=rng.randint(5, 500))

    # Fraud rings: RING_SIZE accounts sharing a small device pool and all
    # paying the same mule merchant.
    rings = []
    for r in range(NUM_RINGS):
        members = rng.sample(accounts, RING_SIZE)
        shared = rng.sample(devices, 3)
        mule = rng.choice(merchants)
        for member in members:
            for device in shared:
                builder.edge(member, device, "uses")
            builder.edge(member, mule, "pays", amount=rng.randint(900, 2000))
        rings.append((members, shared, mule))
    return builder.build(), rings


def ring_discovery_query() -> Traversal:
    """Accounts sharing devices with the flagged account, scored by the
    number of connecting devices."""
    return (
        Traversal("ring-discovery")
        .v_param("flagged")
        .out("uses")
        .as_("device")
        .in_("uses")
        .filter_(X.vertex().neq(X.param("flagged")))
        .as_("suspect")
        .dedup("suspect", "device")
        .group_count("suspect", limit=10)
    )


def fan_in_query() -> Traversal:
    """Merchants paid by accounts within 2 device-hops of the flagged
    account (the ring's cash-out points)."""
    return (
        Traversal("fan-in")
        .v_param("flagged")
        .khop("uses", k=2, direction="both", dist_binding="d")
        .has_label("account")
        .out("pays")
        .has_label("merchant")
        .as_("merchant")
        .group_count("merchant", limit=5)
    )


def main() -> None:
    graph, rings = build_payment_graph()
    cluster = ClusterConfig(nodes=4, workers_per_node=4)
    partitioned = cluster.partition(graph)
    engine = make_graphdance(partitioned, cluster)

    members, shared, mule = rings[0]
    flagged = members[0]
    print(f"flagged account: {flagged} (ring of {len(members)}, "
          f"{len(shared)} shared devices, mule merchant {mule})")

    plan = ring_discovery_query().compile(partitioned)
    result = engine.run(plan, {"flagged": flagged})
    print(f"\nring discovery ({result.latency_ms:.3f} ms simulated):")
    found = []
    for suspect, score in result.rows:
        marker = "RING" if suspect in members else "    "
        found.append(suspect)
        print(f"  [{marker}] account {suspect}: {score} shared devices")
    hits = sum(1 for s in found if s in members)
    print(f"  -> {hits}/{len(found)} top suspects are true ring members")

    plan = fan_in_query().compile(partitioned)
    result = engine.run(plan, {"flagged": flagged})
    print(f"\ncash-out fan-in ({result.latency_ms:.3f} ms simulated):")
    for merchant, count in result.rows:
        marker = "MULE" if merchant == mule else "    "
        print(f"  [{marker}] merchant {merchant}: {count} payments from the "
              "neighborhood")

    # -- transactional updates alongside reads ------------------------------
    txm = TransactionManager(partitioned.partitioner)
    txn = txm.begin()
    txm.add_edge(txn, flagged, mule, "pays", eid=10_000_001,
                 properties={"amount": 1500})
    commit_ts = txm.commit(txn)
    txm.broadcast_lct(list(range(cluster.nodes)))
    snapshot = txm.begin_readonly(node=2)
    visible = txm.neighbors(snapshot, flagged, "out", "pays")
    print(f"\ntransactional delta: payment committed at ts {commit_ts}; "
          f"read-only snapshot at cached LCT {snapshot.read_ts} sees "
          f"{len(visible)} delta payment(s) from account {flagged}")


if __name__ == "__main__":
    main()
