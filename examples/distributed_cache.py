"""Loosely-coupled replication: why expiration times beat delete-push.

The paper's target deployment: a server publishing data to a remote,
intermittently connected client.  This example replicates a news-profile
relation over a flaky link (latency, a mid-run partition) under the three
maintenance strategies and prints the traffic/consistency trade-off, then
ships a *difference view* to the client with the Theorem-3 patch queue --
after which the client answers every query correctly with no further
frame from the server.  Both run the served engine's own server and
client over a simulated link; traffic is frames and their bytes.

Run:  python examples/distributed_cache.py
"""

import random

from repro import Relation
from repro.distributed import (
    DifferenceViewSimulation,
    Link,
    ReplicationSimulation,
    ReplicationStrategy,
    ViewMaintenanceStrategy,
)


def profile_stream(count, seed):
    """``(arrival, (uid, deg), expires_at)`` inserts in arrival order."""
    rng = random.Random(seed)
    entries = []
    for uid in range(count):
        arrival = rng.randrange(60)
        entries.append((arrival, (uid, rng.randrange(100)),
                        arrival + rng.randint(10, 60)))
    return sorted(entries, key=lambda entry: entry[0])


def overlapping_profiles(size, seed):
    """R and S over ``(uid, deg)``: half of R's rows are in S too, each at
    its own lifetime, and S has as many rows of its own."""
    rng = random.Random(seed)
    left, right = Relation(["uid", "deg"]), Relation(["uid", "deg"])
    for uid in range(size + size // 2):
        row = (uid, rng.randrange(100))
        if uid < size:
            left.insert(row, expires_at=rng.randint(5, 80))
        if uid < size // 2 or uid >= size:
            right.insert(row, expires_at=rng.randint(5, 80))
    return left, right


def main() -> None:
    workload = profile_stream(150, seed=21)
    queries = list(range(60, 140, 2))
    partition = [(70, 110)]  # the link dies while many tuples expire

    print("replicating a profile relation over a flaky link")
    print(f"  150 inserts in [0,60), queries every 2 ticks in [60,140),")
    print(f"  link latency 2, partition during {partition[0]}\n")
    print(f"  {'strategy':<18} {'messages':>8} {'bytes':>6} "
          f"{'consistency':>11} {'stale extras':>12}")
    for strategy in ReplicationStrategy:
        report = ReplicationSimulation(
            ["uid", "deg"], workload, queries, strategy,
            link=Link(latency=2, partitions=partition, seed=5),
            snapshot_period=15,
        ).run()
        print(f"  {report.strategy:<18} {report.messages:>8} {report.bytes:>6} "
              f"{report.consistency:>11.3f} {report.extra_tuples:>12}")

    print("\nshipping a difference view (R - S) to the client")
    left, right = overlapping_profiles(100, seed=33)
    print(f"  |R| = {len(left)}, |S| = {len(right)}, queries every 3 ticks\n")
    print(f"  {'strategy':<22} {'messages':>8} {'bytes':>6} "
          f"{'consistency':>11} {'patches':>7}")
    for strategy in ViewMaintenanceStrategy:
        report = DifferenceViewSimulation(
            left.copy(), right.copy(), list(range(0, 100, 3)), strategy,
            link=Link(latency=2),
        ).run()
        print(f"  {report.strategy:<22} {report.messages:>8} {report.bytes:>6} "
              f"{report.consistency:>11.3f} {report.patches_shipped:>7}")

    print("\nthe patch strategy is Theorem 3 over the wire: two messages,"
          "\nperfect answers, and total radio silence afterwards; the other"
          "\ntwo get a patch pushed at every change, which arrives late.")


if __name__ == "__main__":
    main()
