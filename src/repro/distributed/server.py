"""Server-side origin nodes.

The server owns the base data.  Depending on the maintenance strategy it
generates different outbound traffic when the workload inserts tuples and
when tuples expire; the simulator wires its output to a link.

:class:`OriginServer` serves base-relation replication (experiment D1);
:class:`DifferenceViewServer` serves a materialised difference view to a
remote client (experiments TH3 / S34b over a network).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.patching import compute_difference_with_patches
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts
from repro.core.tuples import Row
from repro.core.validity import difference_validity_exact
from repro.distributed.anti_entropy import build_digest, build_repair
from repro.distributed.node import Node
from repro.distributed.protocols import (
    DeleteNotice,
    Digest,
    Message,
    PatchShipment,
    RecomputeResponse,
    RepairResponse,
    Snapshot,
    TupleInsert,
)
from repro.errors import ProtocolError

__all__ = ["OriginServer", "DifferenceViewServer"]

#: The simulator's send hook: (message, when).
SendHook = Callable[[Message, Timestamp], None]


class OriginServer(Node):
    """Owns one base relation and publishes it to a replica."""

    def __init__(self, name: str, schema: Schema, send: SendHook, clock_skew: int = 0) -> None:
        super().__init__(name, clock_skew)
        self.schema = schema
        self.relation = Relation(schema)
        self._send = send

    # -- ground truth -----------------------------------------------------------

    def live_rows(self, at: TimeLike) -> set:
        """Ground truth: the unexpired rows at ``at``."""
        return set(self.relation.exp_at(at).rows())

    # -- workload application per strategy -----------------------------------------

    def insert_expiration_based(self, row: Row, texp: Timestamp, now: Timestamp) -> None:
        """Expiration protocol: ship the tuple once, with its lifetime."""
        self.relation.insert(row, expires_at=texp)
        self._send(TupleInsert(row=row, expires_at=texp), now)

    def insert_explicit_delete(self, row: Row, texp: Timestamp, now: Timestamp) -> None:
        """Baseline: ship the bare tuple; a delete must follow at ``texp``."""
        self.relation.insert(row, expires_at=texp)
        self._send(TupleInsert(row=row, expires_at=None), now)

    def delete_explicit(self, row: Row, now: Timestamp) -> None:
        """Baseline: the lifetime elapsed; push the deletion."""
        self._send(DeleteNotice(row=row), now)

    def insert_local_only(self, row: Row, texp: Timestamp) -> None:
        """Periodic-snapshot strategy: nothing shipped per insert."""
        self.relation.insert(row, expires_at=texp)

    def send_snapshot(self, now: Timestamp, with_expirations: bool) -> None:
        """Periodic-snapshot strategy: ship the whole live state."""
        rows: List[Tuple[Row, Optional[Timestamp]]] = []
        for row, texp in self.relation.exp_at(now).items():
            rows.append((row, texp if with_expirations else None))
        self._send(Snapshot(rows=tuple(rows)), now)

    # -- anti-entropy ------------------------------------------------------------

    def make_digest(self, now: Timestamp, num_buckets: int) -> Digest:
        """Per-bucket hashes of the live rows, for the periodic exchange."""
        return build_digest(self.relation, now, num_buckets)

    def make_repair(
        self,
        now: Timestamp,
        buckets: Tuple[int, ...],
        num_buckets: int,
        with_expirations: bool,
    ) -> RepairResponse:
        """Authoritative bucket contents for an anti-entropy repair."""
        return build_repair(self.relation, now, buckets, num_buckets, with_expirations)


class DifferenceViewServer(Node):
    """Materialises ``R −exp S`` on request and ships it to a client."""

    def __init__(
        self,
        name: str,
        left: Relation,
        right: Relation,
        send: SendHook,
        clock_skew: int = 0,
    ) -> None:
        super().__init__(name, clock_skew)
        self.left = left
        self.right = right
        self._send = send
        self.recomputations_served = 0

    def truth_at(self, at: TimeLike) -> set:
        """Ground truth: the difference freshly computed at ``at``."""
        stamp = ts(at)
        visible_left = self.left.exp_at(stamp)
        visible_right = self.right.exp_at(stamp)
        return {
            row
            for row in visible_left.rows()
            if visible_right.expiration_or_none(row) is None
        }

    def materialise(self, now: Timestamp, view_name: str = "diff") -> RecomputeResponse:
        """The view at ``now`` with its expiration and validity metadata.

        The metadata is embedded in the response message (and counted in
        its size): a retransmitted or reordered response must remain
        self-describing under the reliable transport.
        """
        materialised, _ = compute_difference_with_patches(
            self.left, self.right, tau=now
        )
        rows = tuple((row, texp) for row, texp in materialised.items())
        validity = difference_validity_exact(
            self.left.exp_at(now), self.right.exp_at(now), now
        )
        self.recomputations_served += 1
        return RecomputeResponse(
            view_name=view_name,
            snapshot=Snapshot(rows),
            expires_at=validity.intervals[0].end if validity.intervals else ts(0),
            validity=validity,
        )

    def ship_materialisation(self, now: Timestamp, view_name: str = "diff") -> None:
        """Materialise at ``now`` and send it."""
        self._send(self.materialise(now, view_name), now)

    def ship_patches(self, now: Timestamp) -> int:
        """Theorem 3: ship the helper priority queue; returns its size."""
        _, patcher = compute_difference_with_patches(self.left, self.right, tau=now)
        patches = tuple(_drain(patcher))
        self._send(PatchShipment(patches=patches), now)
        return len(patches)


def _drain(patcher) -> list:
    """Extract all pending patches from a patcher, in due order."""
    patches = []
    while True:
        due = patcher.peek_due()
        if due is None:
            break
        batch = patcher.due_patches(due)
        if not batch:
            # A patcher that advertises a due time but yields nothing for
            # it would loop this drain forever; fail loudly instead.
            raise ProtocolError(
                f"patcher peeked due time {due} but returned no due patches"
            )
        patches.extend(batch)
    return patches
