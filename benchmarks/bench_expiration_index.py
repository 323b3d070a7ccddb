"""Experiment D2: the expiration-index substrate ([24]'s efficiency claim).

Paper dependency: "there exist efficient ways to support expiration times
with real-time performance guarantees".  The bench measures the engine's
index, a :class:`~repro.core.schedule.Schedule` of rows on raw ticks:
throughput of schedule/pop cycles across index sizes (expected shape: near
O(log n) per operation, i.e. throughput decays only slowly with n) and the
cost of renewal-heavy workloads (the stale bucket entries renewals park).

The heap-vs-timer-wheel comparison this script used to print is
historical (EXPERIMENTS.md, D2): the wheel was retired when no user path
in the repo's benchmark could tell the two substrates apart.
"""

import random
import time

from repro.core.schedule import Schedule

try:
    from benchmarks._tables import emit
except ImportError:  # direct script execution
    from _tables import emit


#: Lifetimes are drawn from a span this wide, which keeps the due-rate near
#: zero: the measurement isolates per-operation cost (the O(log n) story).
LIFETIME_SPAN = 10**6


def churn(index_size, operations, renew_fraction, seed):
    """Pre-fill an index, then run a schedule/expire churn.

    Returns ops/sec and the bucket entries left parked (held rows plus the
    stale entries of renewed ones).
    """
    rng = random.Random(seed)
    index = Schedule()
    now = 0
    for key in range(index_size):
        index.put((key,), now + rng.randint(1, LIFETIME_SPAN))
    started = time.perf_counter()
    for op in range(operations):
        if rng.random() < renew_fraction:
            key = rng.randrange(index_size)
            index.put((key,), now + rng.randint(1, LIFETIME_SPAN))
        else:
            now += rng.randint(0, 3)
            index.pop_due(now)
    elapsed = time.perf_counter() - started
    return operations / elapsed, sum(map(len, index.buckets.values()))


def run_sweep(operations=4000, seed=7):
    rows = []
    for size in (1_000, 10_000, 100_000):
        ops_per_sec, residue = churn(size, operations, 0.7, seed)
        rows.append((size, f"{ops_per_sec:,.0f}", residue))
    return rows


def print_index(rows=None):
    emit(
        "Expiration index: churn throughput vs index size",
        ["index size", "ops/sec", "parked bucket entries"],
        rows if rows is not None else run_sweep(),
    )


def test_throughput_decays_slowly():
    # Best of three runs per size to shake off scheduler noise.
    def best(size):
        return max(churn(size, 2000, 0.7, seed)[0] for seed in (3, 4, 5))

    small = best(1_000)
    large = best(100_000)
    # 100x size must cost far less than 100x throughput (log-ish scaling);
    # allow a very generous 20x factor for noisy CI machines.
    assert large > small / 20


def test_next_expiration_is_constant_time_observable():
    index = Schedule()
    rng = random.Random(1)
    for key in range(50_000):
        index.put((key,), rng.randint(1, 10**6))
    started = time.perf_counter()
    for _ in range(10_000):
        index.next_due()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0  # 10k peeks well under a second


def test_expiration_index_benchmark(benchmark):
    result = benchmark(churn, 10_000, 2000, 0.7, 11)
    assert result[0] > 0
    print_index()


if __name__ == "__main__":
    print_index()
