"""The expiration index's removal policies (Section 3.2).

The paper relies on "efficient ways to support expiration times with
real-time performance guarantees" (its reference [24], the companion
technical report).  The engine's index is one
:class:`~repro.core.schedule.Schedule` per table shard, holding each stored
row at its raw ``texp`` tick -- the same structure every other holder of
"what expires by ``τ``" keeps -- with

* ``O(1)`` rescheduling and deletion (a moved row leaves a stale bucket
  entry that is skipped when its tick comes up),
* extraction of due rows in tick order, ``O(log t)`` per distinct tick,
* access to the earliest pending expiration, which gives a trigger
  scheduler its real-time bound: the engine always knows the exact next
  moment anything expires.

Rows with expiration ``∞`` are never indexed (they cannot expire).

This module holds the Section 3.2 choice between **eager** and **lazy**
removal: an eager table drains its index on every clock advance (prompt
triggers, tight space); a lazy table moves due rows to a due buffer,
leaving them physically present but invisible, and reclaims them in
batches.
"""

from __future__ import annotations

import enum

__all__ = ["RemovalPolicy"]


class RemovalPolicy(enum.Enum):
    """Section 3.2: when expired tuples are physically removed."""

    #: Remove (and fire triggers) as soon as the clock passes ``texp``.
    EAGER = "eager"

    #: Keep expired tuples invisible; reclaim in batches / on demand.
    LAZY = "lazy"
