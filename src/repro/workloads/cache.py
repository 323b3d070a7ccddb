"""Web-cache workload: TTL'd cached copies with Zipf popularity.

The paper cites "cached copies" and web monitoring (time-to-live for
latency/recency trade-offs) among the natural carriers of expiration
times.  This workload models a cache of ``(url, origin_version)`` entries:
requests follow a Zipf popularity law, hits are served if an unexpired
entry exists, misses insert a fresh entry with the object's TTL.

Used by the quickstart-adjacent example and the expiration-index bench
(high churn, heavy re-insertion -- the index's stale-entry path).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.schema import Schema
from repro.engine.database import Database
from repro.engine.table import Table

__all__ = ["CACHE_SCHEMA", "CacheStats", "WebCache"]

CACHE_SCHEMA = Schema(["url", "version"])


@dataclass
class CacheStats:
    requests: int = 0
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from an unexpired entry."""
        return self.hits / self.requests if self.requests else 0.0


class WebCache:
    """A TTL cache over the expiration-enabled engine."""

    def __init__(
        self,
        urls: int = 200,
        ttl: int = 20,
        zipf_exponent: float = 1.1,
        seed: int = 0,
        database: Optional[Database] = None,
    ) -> None:
        self.urls = urls
        self.ttl = ttl
        self.database = database if database is not None else Database()
        self.table: Table = self.database.create_table("Cache", CACHE_SCHEMA)
        self.stats = CacheStats()
        self._rng = random.Random(seed)
        self._versions = [0] * urls
        weights = [1.0 / ((rank + 1) ** zipf_exponent) for rank in range(urls)]
        total = sum(weights)
        self._cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cumulative.append(acc)

    def _draw_url(self) -> int:
        draw = self._rng.random()
        lo, hi = 0, len(self._cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if draw <= self._cumulative[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def request(self) -> bool:
        """One cache lookup at the current time; returns hit/miss."""
        url = self._draw_url()
        self.stats.requests += 1
        entry = next(
            (row for row in self.table.read().rows() if row[0] == url), None
        )
        if entry is not None:
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._versions[url] += 1
        self.table.insert((url, self._versions[url]), ttl=self.ttl)
        return False

    def run(self, requests: int, requests_per_tick: int = 5) -> CacheStats:
        """Issue ``requests`` lookups, advancing time as configured."""
        for index in range(requests):
            if index and index % requests_per_tick == 0:
                self.database.tick()
            self.request()
        return self.stats
