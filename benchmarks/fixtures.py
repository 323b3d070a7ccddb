"""Seeded workloads and the Figure 1 fixture for the paper printer.

Beside :mod:`benchmarks.paper`, which prints the paper's artefacts from
them; the benchmark gates and the tests build their inputs here too.

The generators are deterministic functions of their ``seed`` so every run
is reproducible.  Lifetimes come from pluggable distributions; the ones
the paper's application domains imply:

* **constant** -- protocol-mandated TTLs (session keys, tickets, DNS);
* **uniform** -- heterogeneous caches;
* **geometric** -- memoryless decay (monitoring samples whose next update
  time is unpredictable);
* **zipf-bucketed** -- few long-lived, many short-lived tuples (web data).

The Figure 1 fixture is the paper's motivating news service: user
profiles are ``(uid, degree-of-interest)`` pairs, and the relation a
profile lives in denotes its topic -- politics (``Pol``) with long
lifetimes, elections (``El``) with short ones.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.core.relation import Relation, relation_from_rows
from repro.core.schema import Schema
from repro.core.tuples import Row
from repro.engine.database import Database
from repro.errors import ReproError

__all__ = [
    "LifetimeDistribution",
    "ConstantLifetime",
    "UniformLifetime",
    "GeometricLifetime",
    "ZipfLifetime",
    "random_relation",
    "random_stream",
    "overlapping_relations",
    "PROFILE_SCHEMA",
    "figure1_pol",
    "figure1_el",
    "figure1_database",
]


class LifetimeDistribution:
    """Base class: draws positive lifetimes (ticks until expiration)."""

    def sample(self, rng: random.Random) -> int:
        """Draw one lifetime (ticks until expiration) from the distribution."""
        raise NotImplementedError


class ConstantLifetime(LifetimeDistribution):
    """Every tuple lives exactly ``ttl`` ticks."""

    def __init__(self, ttl: int) -> None:
        if ttl <= 0:
            raise ReproError(f"ttl must be positive, got {ttl}")
        self.ttl = ttl

    def sample(self, rng: random.Random) -> int:
        """Draw one lifetime (ticks until expiration) from the distribution."""
        return self.ttl


class UniformLifetime(LifetimeDistribution):
    """Lifetimes uniform on ``[low, high]``."""

    def __init__(self, low: int, high: int) -> None:
        if not 0 < low <= high:
            raise ReproError(f"need 0 < low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> int:
        """Draw one lifetime (ticks until expiration) from the distribution."""
        return rng.randint(self.low, self.high)


class GeometricLifetime(LifetimeDistribution):
    """Geometric (discrete memoryless) lifetimes with the given mean."""

    def __init__(self, mean: int) -> None:
        if mean <= 0:
            raise ReproError(f"mean must be positive, got {mean}")
        self.mean = mean

    def sample(self, rng: random.Random) -> int:
        """Draw one lifetime (ticks until expiration) from the distribution."""
        # Inverse-CDF sampling, success probability 1/mean.
        lifetime = 1
        p = 1.0 / self.mean
        while rng.random() > p:
            lifetime += 1
            if lifetime > self.mean * 50:
                break  # clamp the tail so pathological draws stay bounded
        return lifetime


class ZipfLifetime(LifetimeDistribution):
    """Bucketed Zipf: lifetime ``base * rank`` with P(rank) ∝ rank^-s."""

    def __init__(self, base: int = 2, buckets: int = 10, exponent: float = 1.2) -> None:
        if base <= 0 or buckets <= 0:
            raise ReproError("base and buckets must be positive")
        self.base = base
        self.buckets = buckets
        weights = [1.0 / (rank**exponent) for rank in range(1, buckets + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> int:
        """Draw one lifetime (ticks until expiration) from the distribution."""
        draw = rng.random()
        for rank, bound in enumerate(self._cumulative, start=1):
            if draw <= bound:
                return self.base * rank
        return self.base * self.buckets


def random_relation(
    schema: Schema | Sequence[str],
    size: int,
    lifetimes: LifetimeDistribution,
    value_domain: int = 100,
    seed: int = 0,
    origin: int = 0,
    key_range: Optional[int] = None,
) -> Relation:
    """A relation of ``size`` distinct random rows with random lifetimes.

    The first attribute acts as a key drawn from ``key_range`` (default:
    ``4 * size`` so collisions are rare but possible); remaining attributes
    are uniform on ``[0, value_domain)``.
    """
    schema_obj = schema if isinstance(schema, Schema) else Schema(schema)
    rng = random.Random(seed)
    keys = key_range if key_range is not None else max(4 * size, 1)
    relation = Relation(schema_obj)
    attempts = 0
    while len(relation) < size:
        attempts += 1
        if attempts > size * 100:
            raise ReproError("key space too small to draw distinct rows")
        row = (rng.randrange(keys),) + tuple(
            rng.randrange(value_domain) for _ in range(schema_obj.arity - 1)
        )
        relation.insert(row, expires_at=origin + lifetimes.sample(rng))
    return relation


def random_stream(
    schema: Schema | Sequence[str],
    count: int,
    lifetimes: LifetimeDistribution,
    arrival_span: int = 100,
    value_domain: int = 100,
    seed: int = 0,
) -> List[Tuple[int, Row, int]]:
    """A replication workload: ``(arrival_time, row, expires_at)`` entries.

    Arrival times are uniform on ``[0, arrival_span)``; each tuple expires
    ``lifetime`` ticks after its arrival.  Sorted by arrival time.
    """
    schema_obj = schema if isinstance(schema, Schema) else Schema(schema)
    rng = random.Random(seed)
    entries: List[Tuple[int, Row, int]] = []
    for index in range(count):
        arrival = rng.randrange(arrival_span)
        row = (index,) + tuple(
            rng.randrange(value_domain) for _ in range(schema_obj.arity - 1)
        )
        entries.append((arrival, row, arrival + lifetimes.sample(rng)))
    entries.sort(key=lambda entry: entry[0])
    return entries


def overlapping_relations(
    schema: Schema | Sequence[str],
    size: int,
    overlap_fraction: float,
    lifetimes: LifetimeDistribution,
    seed: int = 0,
    critical_bias: float = 0.5,
) -> Tuple[Relation, Relation]:
    """Two relations R, S sharing ``overlap_fraction`` of their rows.

    The difference benches sweep ``overlap_fraction`` (how many tuples are
    in both) and ``critical_bias`` (the probability that a shared tuple is
    *critical*, i.e. outlives its S match -- Table 2 case 3a) to control
    the recomputation-triggering set's size directly.
    """
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ReproError(f"overlap fraction must be in [0,1], got {overlap_fraction}")
    schema_obj = schema if isinstance(schema, Schema) else Schema(schema)
    rng = random.Random(seed)
    left = Relation(schema_obj)
    right = Relation(schema_obj)
    shared = int(size * overlap_fraction)
    for index in range(size):
        row = (index,) + tuple(rng.randrange(100) for _ in range(schema_obj.arity - 1))
        left_life = lifetimes.sample(rng)
        if index < shared:
            right_life = lifetimes.sample(rng)
            if rng.random() < critical_bias:
                # Force the critical order: R outlives S.
                if right_life >= left_life:
                    left_life, right_life = right_life + 1, left_life
            else:
                # Force the harmless order: S outlives (or ties) R.
                if right_life < left_life:
                    left_life, right_life = right_life, left_life
            right.insert(row, expires_at=right_life)
        left.insert(row, expires_at=left_life)
    # Pad S with rows not in R (case 2 of Table 2).
    for index in range(size, size + (size - shared)):
        row = (index,) + tuple(rng.randrange(100) for _ in range(schema_obj.arity - 1))
        right.insert(row, expires_at=lifetimes.sample(rng))
    return left, right


#: The schema of a profile relation: user id, degree of interest.
PROFILE_SCHEMA = Schema(["uid", "deg"])


def figure1_pol() -> Relation:
    """Table 'Pol' of Figure 1: politics interests at time 0.

    ======  ====  ====
    texp     UID   Deg
    ======  ====  ====
    10       1     25
    15       2     25
    10       3     35
    ======  ====  ====
    """
    return relation_from_rows(
        PROFILE_SCHEMA, [((1, 25), 10), ((2, 25), 15), ((3, 35), 10)]
    )


def figure1_el() -> Relation:
    """Table 'El' of Figure 1: election interests at time 0.

    ======  ====  ====
    texp     UID   Deg
    ======  ====  ====
    5        1     75
    3        2     85
    2        4     90
    ======  ====  ====
    """
    return relation_from_rows(
        PROFILE_SCHEMA, [((1, 75), 5), ((2, 85), 3), ((4, 90), 2)]
    )


def figure1_database() -> Database:
    """A database holding the Figure 1 tables, clock at time 0."""
    db = Database()
    pol = db.create_table("Pol", PROFILE_SCHEMA)
    for row, texp in figure1_pol().items():
        pol.insert(row, expires_at=texp)
    el = db.create_table("El", PROFILE_SCHEMA)
    for row, texp in figure1_el().items():
        el.insert(row, expires_at=texp)
    return db
