"""A seeded, shrinking, model-based fuzzer for the whole engine.

The fuzzer drives one :class:`~repro.engine.database.Database` -- flat and
hash-partitioned tables in row and columnar layouts (``pcol``, partitioned
*and* columnar, is the shape ``AuthzStore`` runs on), an idle-timeout
table, six materialised views (a monotonic one, which folds inserts by
shape; the same difference under SCHRODINGER, PATCH and DELTA; a DELTA
aggregate; a SQL ``GROUP BY`` with no policy, folded per partition), two
standing queries (a windowed count of ``flat``, a distinct
count of ``part``'s ``k``), audit triggers, the plan cache -- through a
random but *fully concrete* operation sequence, in lockstep with a
trivially-correct oracle: a ``row -> expiration`` dict per table plus an
integer clock.
Concreteness is the point: every op is a plain tuple of literals, so any
subsequence replays deterministically, which is what makes delta-debugging
shrinks sound.  Rows are ``(k, v)`` with ints on the tables the views read;
``col`` and ``pcol`` draw ``v`` from the rest of the attribute domain
(``str``, ``None``, ``bool``, ``float`` beside an ``int``), so the log's
JSON row form and a snapshot column of mixed types -- where the packed
encodings of :mod:`repro.codec` fall back -- are written, recovered and
checkpointed under crash points too.

After **every** op three things are checked:

1. the dict oracle -- visible rows, their exact expiration times, view
   contents, and SQL results must match the model;
2. the full invariant catalogue (:mod:`repro.check.invariants`) via
   ``Database.verify(strict=True)`` -- and the database also runs with
   ``check_invariants=True``, so the audits additionally fire from inside
   every mutation and mid-sweep hook;
3. trigger soundness -- no (table, row, texp) fires twice, and nothing
   fires before its expiration time -- and, in runs without crash points
   (a crash legitimately forgets rows that expired before recovery),
   completeness: every (table, row, texp) the oracle saw lapse has fired
   exactly once by the time that table has been swept (after each op
   under EAGER, after a ``vacuum`` of it under LAZY), and nothing fires
   that the oracle did not see lapse.

A failure is shrunk with a ddmin-style pass (drop chunks, halve the chunk
size while progress stalls) down to a minimal reproducing op list, which
``python -m repro.check`` prints for copy-paste into a regression test.

Ops and semantics
-----------------

``("insert", t, (k, v), ttl)``  insert expiring at ``now + ttl`` (max-merge);
``("immortal", t, (k, v))``     insert with no explicit lifetime -- no
                                expiration, except on the ``slm`` table,
                                where the since-last-modification policy
                                stamps its default idle timeout instead;
``("renew", t, (k, v), ttl)``   re-insert (the paper's renewal idiom);
``("touch", t, (k, v))``        renewal-on-touch: restarts a live row's
                                idle timer on the ``slm`` table
                                (``max(texp, now + timeout)``); a no-op
                                on absolute tables and on dead rows --
                                a touch must never resurrect;
``("override", t, (k, v), ttl)`` set the expiration to ``now + ttl``
                                *unconditionally* (the revocation path;
                                ``ttl=0`` revokes immediately) -- the one
                                op whose oracle is last-write, not
                                max-merge;
``("delete", t, (k, v))``       explicit delete;
``("advance", d)``              advance the clock ``d`` ticks;
``("vacuum", t)``               batch-reclaim expired tuples;
``("txn", t, subops, poison)``  buffered transaction; ``poison=True``
                                appends an already-expired insert so the
                                commit aborts and must roll back cleanly;
``("view", name)``              read a materialised view, then both
                                standing queries (with a registry, the
                                rows the read folded in and any refresh
                                -- labelled by the op kind that made it
                                pending, ``overflow`` or ``validity`` --
                                are counted per view);
``("sql", t, k | (lo, hi) | None)`` SQL through the front door: the
                                point selects ``k`` and ``k + 3`` (one
                                ``part`` shard), two ranges, or a full scan;
``("fill", t, ttl)``            insert ``(k, 0)`` for keys from ``_KEYS`` up,
                                lifting ``t`` above the lookup floor.

Crash-point injection (``crash_points=True``)
---------------------------------------------

With crash points enabled the harness runs its database on a write-ahead
log (:mod:`repro.engine.wal`) in a scratch directory and three more op
kinds join the mix:

``("crash", mode)``   simulate a crash: drop every in-memory structure
                      and recover from disk.  ``mode="torn"`` first
                      appends a partial frame to the log -- the write
                      that was in flight when the machine died -- so
                      recovery must truncate-and-warn; ``mode="clean"``
                      crashes between appends.  The recovered database
                      is differentially compared against the dict oracle
                      restricted to committed-and-unexpired state (which
                      is exactly what the oracle holds -- the model is
                      only advanced after an op is acknowledged) and must
                      pass ``Database.verify(strict=True, deep=True)``;
``("checkpoint",)``   write an atomic snapshot and truncate the log --
                      the one bound on the log; the next recovery must
                      not change the state.

Crash ops replay deterministically like every other op, so shrinking
works unchanged: a failure after three crashes shrinks to the minimal op
list that still breaks, crashes included.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.codec import HEADER
from repro.core.algebra.expressions import BaseRef
from repro.core.relation import LOOKUP_FLOOR
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.recovery import recover_database
from repro.engine.views import MaintenancePolicy
from repro.errors import RelationError
from repro.sql.executor import execute_sql

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "declare_check_families",
    "generate_ops",
    "run_fuzz",
]

_TABLES = ("flat", "part", "col", "pcol", "slm")
_VIEWS = ("v_mono", "v_diff", "v_patch", "v_delta", "v_count", "v_group")
_POLICIES = {"eager": RemovalPolicy.EAGER, "lazy": RemovalPolicy.LAZY}
#: Idle timeout of the since-last-modification table.
_SLM_TTL = 6

#: Key/value/ttl/advance ranges are deliberately tiny: collisions
#: (renewals, delete-then-reinsert, shard reuse) are where the bugs live.
_KEYS = 8
_VALUES = 3
_MAX_TTL = 12
_MAX_ADVANCE = 4
#: What ``v`` stands for on the tables that no view reads (no two values
#: of a table are equal across types, as ``True == 1`` would be).
_TYPED_VALUES = {"col": (0, "é", None), "pcol": (True, 2.5, 2)}
_SHARDS = 3  # of ``part``: keys ``k`` and ``k + _SHARDS`` share a shard
#: Rows per ``fill`` (each ``part`` shard gets the floor), lifetime, period.
_FILL = {"flat": LOOKUP_FLOOR, "part": _SHARDS * LOOKUP_FLOOR}
_FILL_TTL = 40
_FILL_EVERY = 250


def _row(rng: random.Random, table: str) -> tuple:
    k, v = rng.randrange(_KEYS), rng.randrange(_VALUES)
    return (k, _TYPED_VALUES[table][v] if table in _TYPED_VALUES else v)


def declare_check_families(registry):
    """Idempotently register the ``repro_check_*`` fuzzer families."""
    ops = registry.counter(
        "repro_check_ops_total",
        "Fuzzer operations applied, by op kind.",
        labels=("op",),
    )
    failures = registry.counter(
        "repro_check_failures_total",
        "Fuzz runs that found a violation, by removal policy.",
        labels=("policy",),
    )
    replays = registry.counter(
        "repro_check_shrink_replays_total",
        "Candidate sequences replayed while shrinking failures.",
    )
    shrunk = registry.gauge(
        "repro_check_shrunk_ops",
        "Length of the most recently shrunk failing sequence.",
    )
    return ops, failures, replays, shrunk


class CheckFailed(AssertionError):
    """The engine diverged from the oracle (not an engine exception)."""


class FuzzFailure(Exception):
    """One failing step: which op, at what index, raising what."""

    def __init__(self, step: int, op: tuple, error: Exception) -> None:
        super().__init__(f"step {step} {op!r}: {type(error).__name__}: {error}")
        self.step = step
        self.op = op
        self.error = error


@dataclass
class FuzzReport:
    """The outcome of one :func:`run_fuzz` run."""

    seed: int
    policy: str
    ops_requested: int
    ops_run: int
    failure: Optional[FuzzFailure] = None
    shrunk: Optional[List[tuple]] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def summary(self) -> str:
        head = (
            f"seed={self.seed} policy={self.policy} "
            f"ops={self.ops_run}/{self.ops_requested}"
        )
        if self.ok:
            return f"PASS {head}"
        lines = [f"FAIL {head}", f"  {self.failure}"]
        if self.shrunk is not None:
            lines.append(f"  shrunk to {len(self.shrunk)} op(s):")
            lines.extend(f"    {op!r}" for op in self.shrunk)
        return "\n".join(lines)


# -- op generation -----------------------------------------------------------


def generate_ops(
    rng: random.Random, count: int, crash_points: bool = False
) -> List[tuple]:
    """``count`` concrete ops drawn from ``rng`` (replayable as any subset).

    ``crash_points=True`` mixes in ``crash`` (~4%) and ``checkpoint``
    (~4%) ops; it draws extra randomness, so a seed generates a
    different sequence with crash points on than off -- but each mode is
    deterministic for a given seed, which is all replay and shrinking
    need.
    """
    ops: List[tuple] = []
    for index in range(count):
        if index % _FILL_EVERY < 2:  # draws nothing: the rest stays put
            ops.append(("fill", ("flat", "part")[index % _FILL_EVERY], _FILL_TTL))
            continue
        if crash_points:
            injected = rng.random()
            if injected < 0.04:
                mode = "torn" if rng.random() < 0.5 else "clean"
                ops.append(("crash", mode))
                continue
            if injected < 0.08:
                ops.append(("checkpoint",))
                continue
        roll = rng.random()
        table = rng.choice(_TABLES)
        row = _row(rng, table)
        if roll < 0.30:
            ops.append(("insert", table, row, rng.randint(1, _MAX_TTL)))
        elif roll < 0.35:
            ops.append(("immortal", table, row))
        elif roll < 0.42:
            ops.append(("renew", table, row, rng.randint(1, _MAX_TTL)))
        elif roll < 0.48:
            ops.append(("override", table, row, rng.randint(0, _MAX_TTL)))
        elif roll < 0.55:
            ops.append(("delete", table, row))
        elif roll < 0.60:
            ops.append(("touch", table, row))
        elif roll < 0.70:
            ops.append(("advance", rng.randint(1, _MAX_ADVANCE)))
        elif roll < 0.75:
            ops.append(("vacuum", table))
        elif roll < 0.85:
            subops: List[tuple] = []
            for _ in range(rng.randint(1, 4)):
                srow = _row(rng, table)
                if rng.random() < 0.7:
                    subops.append(("insert", srow, rng.randint(1, _MAX_TTL)))
                else:
                    subops.append(("delete", srow))
            ops.append(("txn", table, tuple(subops), rng.random() < 0.4))
        elif roll < 0.95:
            ops.append(("view", rng.choice(_VIEWS)))
        else:
            form = rng.random()
            key = rng.randrange(_KEYS) if form < 0.5 else None
            ops.append(("sql", table, (key, key + 3) if form < 0.25 else key))
    return ops


# -- the harness -------------------------------------------------------------


class _Harness:
    """One database + one oracle, advanced op by op in lockstep."""

    def __init__(
        self,
        policy: RemovalPolicy,
        wal_dir: Optional[str] = None,
        registry=None,
    ) -> None:
        self._policy = policy
        self._wal_dir = wal_dir
        db_kwargs: dict = dict(
            default_removal_policy=policy, check_invariants=True
        )
        if registry is not None:
            db_kwargs["metrics"] = registry
        if wal_dir is not None:
            # "never" still flushes every append to the OS, which is all
            # a *simulated* crash (the process survives) can lose.
            db_kwargs.update(wal_dir=wal_dir, wal_fsync="never")
        self.db = Database(**db_kwargs)
        self.db.create_table("flat", ["k", "v"], lazy_batch_size=8)
        self.db.create_table(
            "part", ["k", "v"], partitions=_SHARDS, partition_key="k",
            lazy_batch_size=8,
        )
        # Columnar storage under the same op mix: batch kernels, the
        # swap-remove sweep path, and snapshot/WAL layout round-trips all
        # get differential coverage against the dict oracle.
        self.db.create_table(
            "col", ["k", "v"], lazy_batch_size=8, layout="columnar",
        )
        # The shape production runs on (AuthzStore's Grants / Tokens /
        # Audit): partitioned *and* columnar, so the per-shard swap-remove
        # kernel sees renewals, revocations and lazy buffers too.
        self.db.create_table(
            "pcol", ["k", "v"], partitions=3, partition_key="k",
            lazy_batch_size=8, layout="columnar",
        )
        # Renewal-on-touch under the same op mix: every touch restarts a
        # live row's idle timer; a lifetime-less insert stamps the
        # default timeout rather than immortality.
        self.db.create_table(
            "slm", ["k", "v"], lazy_batch_size=8,
            expiry="since_last_modification", default_ttl=_SLM_TTL,
        )
        self.db.materialise("v_mono", BaseRef("flat").project(1))
        diff = BaseRef("flat").difference(BaseRef("part"))
        self.db.materialise(
            "v_diff", diff, policy=MaintenancePolicy.SCHRODINGER
        )
        self.db.materialise(
            "v_patch", diff, policy=MaintenancePolicy.PATCH
        )
        # The insert-folding maintainer on its two non-monotonic shapes
        # (``v_mono`` gets it by shape): deltas, patches behind renewed
        # matches and partition re-aggregation all meet the dict oracle.
        self.db.materialise(
            "v_delta", diff, policy=MaintenancePolicy.DELTA
        )
        self.db.materialise(
            "v_count",
            BaseRef("flat").aggregate(group_by=[2], function="count"),
            policy=MaintenancePolicy.DELTA,
        )
        # π(agg(σ(flat))) keeping the group key, as SQL plans it, with the
        # policy left to the shape: deletes and overrides fold too.
        execute_sql(
            self.db,
            "CREATE MATERIALIZED VIEW v_group AS "
            "SELECT v, COUNT(*) FROM flat WHERE k < 5 GROUP BY v",
        )
        self._watch_streams()
        #: Oracle: per-table row -> expiration (math.inf = immortal) + clock.
        self.model: Dict[str, Dict[tuple, float]] = {t: {} for t in _TABLES}
        self.now = 0
        self.fired: List[Tuple[str, tuple, int, int]] = []
        self._fired_seen: set = set()
        #: Completeness oracle: per table, (row, texp) -> expirations the
        #: oracle saw lapse that have not fired yet.
        self._unfired: Dict[str, Dict[tuple, int]] = {t: {} for t in _TABLES}
        self._checked = 0  # how much of ``fired`` check() has accounted for
        #: Tables the last op swept on request (LAZY owes nothing before).
        self._vacuumed: Tuple[str, ...] = ()
        #: view -> the op kind that left a refresh pending on it, and the
        #: view's (folds, refreshes) when last billed.
        self._pending_cause: Dict[str, str] = {}
        self._view_counts: Dict[str, Tuple[int, int]] = {}
        self._kind = ""  # of the op applied last
        self._view_folds = self._view_refreshes = None
        if registry is not None:
            self._view_folds = registry.counter(
                "repro_check_view_folds_total",
                "Base changes a fuzzed view's reads folded in, by view.",
                labels=("view",),
            )
            self._view_refreshes = registry.counter(
                "repro_check_view_refreshes_total",
                "Fuzzed view refreshes, by view and by the op kind that "
                "left them pending (overflow, or validity if none did).",
                labels=("view", "cause"),
            )
        self._register_triggers()

    def _watch_streams(self) -> None:
        """Standing queries (the third kind of held answer) on two tables."""
        # Not at the top: ``Database.verify`` imports this package.
        from repro.workloads.streaming import StreamStore

        store = StreamStore(self.db)
        self._standing = (store.count("flat"), store.distinct("part", "k"))

    def _register_triggers(self) -> None:
        for name in _TABLES:
            self.db.table(name).triggers.register(
                "audit", self._make_trigger(name)
            )

    def _make_trigger(self, name: str):
        def action(event) -> None:
            self.fired.append(
                (name, event.tuple.row,
                 event.tuple.expires_at.value, event.fired_at.value)
            )

        return action

    # -- oracle views ---------------------------------------------------

    def _visible(self, table: str) -> Dict[tuple, float]:
        now = self.now
        return {
            row: e for row, e in self.model[table].items() if e > now
        }

    def _expected_view(self, name: str) -> set:
        flat = set(self._visible("flat"))
        if name == "v_mono":
            return {(k,) for k, _ in flat}
        if name == "v_count":
            sizes = Counter(v for _, v in flat)
            return {(k, v, sizes[v]) for k, v in flat}
        if name == "v_group":
            return set(Counter(v for k, v in flat if k < 5).items())
        return flat - set(self._visible("part"))

    # -- op application -------------------------------------------------

    def _lapse(self, table: str) -> None:
        """Rows of ``table`` a sweep at the current time finds due.

        They leave the model (a later insert starts a new incarnation)
        and their expirations become owed ON-EXPIRE firings.  Called at
        the two points where the engine reports rows due: a clock advance
        (every table) and an explicit vacuum (that table) -- a row
        revoked to ``now`` comes due at whichever follows first.
        """
        model = self.model[table]
        owed = self._unfired[table]
        for row in [r for r, e in model.items() if e <= self.now]:
            key = (row, int(model.pop(row)))
            owed[key] = owed.get(key, 0) + 1

    def apply(self, op: tuple) -> None:
        kind = op[0]
        self._vacuumed = ()
        if kind == "insert":
            _, table, row, ttl = op
            self.db.table(table).insert(row, ttl=ttl)
            self._model_insert(table, row, self.now + ttl)
        elif kind == "immortal":
            _, table, row = op
            self.db.table(table).insert(row)
            # A lifetime-less insert is immortal -- except on the
            # since-last-modification table, whose default idle timeout
            # stamps every insert that names neither expires_at nor ttl.
            self._model_insert(
                table, row,
                self.now + _SLM_TTL if table == "slm" else math.inf,
            )
        elif kind == "renew":
            _, table, row, ttl = op
            self.db.table(table).renew(row, ttl)
            self._model_insert(table, row, self.now + ttl)
        elif kind == "override":
            _, table, row, ttl = op
            self.db.table(table).override(row, ttl=ttl)
            # Last-write, not max-merge: the override sets the stored
            # expiration exactly (ttl=0 -> expired as of now, invisible).
            self.model[table][row] = self.now + ttl
        elif kind == "delete":
            _, table, row = op
            self.db.table(table).delete(row)
            self.model[table].pop(row, None)
        elif kind == "touch":
            _, table, row = op
            touched = self.db.table(table).touch(row)
            current = self.model[table].get(row)
            if table == "slm" and current is not None and current > self.now:
                # Live on the idle-timeout table: the timer restarts
                # (max-merge, so a longer explicit lifetime survives).
                self.model[table][row] = max(current, self.now + _SLM_TTL)
                if touched is None:
                    raise CheckFailed(
                        f"touch on live slm row {row} was refused"
                    )
            elif touched is not None:
                raise CheckFailed(
                    f"touch on {table}{row} renewed a row the oracle "
                    f"considers {'dead' if table == 'slm' else 'untouchable'}"
                )
        elif kind == "advance":
            _, delta = op
            self.db.tick(delta)
            self.now += delta
            for table in _TABLES:
                self._lapse(table)
        elif kind == "vacuum":
            _, table = op
            self.db.table(table).vacuum()
            self._lapse(table)
            self._vacuumed = (table,)
        elif kind == "txn":
            _, table, subops, poison = op
            self._apply_txn(table, subops, poison)
        elif kind == "crash":
            self._crash(op[1])
        elif kind == "checkpoint":
            self._require_wal(kind)
            self.db.checkpoint()
        elif kind == "view":
            _, name = op
            got = set(self.db.view(name).read().rows())
            expected = self._expected_view(name)
            if got != expected:
                raise CheckFailed(
                    f"view {name} read {sorted(got)} != "
                    f"oracle {sorted(expected)}"
                )
            keys = {k for k, _ in self._visible("part")}
            oracle = (len(self._visible("flat")), len(keys))
            for query, count in zip(self._standing, oracle):
                if query.read() != count:
                    raise CheckFailed(
                        f"standing query {query.name} read {query.read()} "
                        f"!= oracle {count}"
                    )
        elif kind == "fill":
            _, table, ttl = op
            self.db.check_invariants = False  # audited once, after the op
            for k in range(_KEYS, _KEYS + _FILL[table]):
                self.db.table(table).insert((k, 0), ttl=ttl)
                self._model_insert(table, (k, 0), self.now + ttl)
            self.db.check_invariants = True
        elif kind == "sql":
            _, table, key = op
            if key is None:
                selects = [("", lambda k: True)]
            elif isinstance(key, tuple):
                low, high = key
                selects = [(f" WHERE {low} <= k AND k < {high}", lambda k: low <= k < high),
                           (f" WHERE k > {low} AND k <= {high}", lambda k: low < k <= high)]
            else:  # back to back, so the second may build a lookup
                selects = [(f" WHERE k = {p}", lambda k, p=p: k == p)
                           for p in (key, key + _SHARDS)]
            for where, keep in selects:
                text = f"SELECT * FROM {table}{where}"
                got = set(execute_sql(self.db, text).rows)
                expected = {r for r in self._visible(table) if keep(r[0])}
                if got != expected:
                    raise CheckFailed(
                        f"{text!r} returned {sorted(got, key=repr)} != "
                        f"oracle {sorted(expected, key=repr)}"
                    )
        else:  # pragma: no cover - generator and apply must stay in sync
            raise ValueError(f"unknown op kind {kind!r}")
        self._kind = kind

    def _check_patch_queues(self) -> None:
        """Once caught up, a difference view queues one patch per row hidden
        behind a match it outlives -- never one per renewal of the match.
        A view with a pending cause may hold outdated patches until the
        read that refreshes it."""
        flat, part = self._visible("flat"), self._visible("part")
        hidden = sum(1 for row, e in flat.items() if part.get(row, e) < e)
        for name in ("v_patch", "v_delta"):
            view = self.db.view(name)
            queued = len(view._patcher)
            if view.cause is None and queued != hidden:
                raise CheckFailed(
                    f"view {name} queues {queued} patch(es) for {hidden} "
                    f"hidden row(s) that re-appear"
                )

    def _count_views(self) -> None:
        """Bill each view's folds and refreshes since the last op, and note
        which op kind left a refresh pending."""
        for name in _VIEWS:
            view = self.db.view(name)
            folds = getattr(view, "delta_applications", 0)
            refreshes = view.recomputations
            folds_before, refreshes_before = self._view_counts.get(name, (0, 0))
            self._view_counts[name] = (folds, refreshes)
            if folds > folds_before:
                self._view_folds.labels(name).inc(folds - folds_before)
            if refreshes > refreshes_before:
                cause = self._pending_cause.pop(name, "validity")
                self._view_refreshes.labels(name, cause).inc(
                    refreshes - refreshes_before
                )
            if view.cause is not None:
                self._pending_cause.setdefault(
                    name, "overflow" if view.cause == "overflow" else self._kind
                )

    def _model_insert(self, table: str, row: tuple, expires: float) -> None:
        # The engine's max-merge rule: a duplicate keeps the later
        # expiration.  A physically-retained expired row (lazy policy)
        # merges the same way, because its old expiration <= now < new.
        current = self.model[table].get(row)
        self.model[table][row] = (
            expires if current is None else max(current, expires)
        )

    def _require_wal(self, kind: str) -> None:
        if self._wal_dir is None:
            raise ValueError(
                f"op {kind!r} needs a WAL harness (crash_points=True)"
            )

    def _crash(self, mode: str) -> None:
        """Drop the in-memory database and recover from disk.

        The oracle is untouched: it only ever advances after an op is
        acknowledged, so it already equals committed-and-unexpired state.
        ``mode="torn"`` simulates a crash mid-append by writing a partial
        frame of the *next hypothetical* record -- unacknowledged work, so
        recovery discarding it keeps the oracle consistent.
        """
        self._require_wal("crash")
        self.db.close()
        if mode == "torn":
            log_path = os.path.join(self._wal_dir, "wal.log")
            with open(log_path, "ab") as handle:
                # A header promising 96 payload bytes of which only a few
                # reached disk before the "power went out".
                handle.write(HEADER.pack(96, 0) + b"interrupted")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the torn-tail warning is the point
            self.db = recover_database(
                self._wal_dir,
                fsync="never",
                default_removal_policy=self._policy,
                check_invariants=True,
                metrics=self.db.metrics,
            )
        # recover_database already ran verify(strict=True, deep=True);
        # the caller's post-op check() adds the oracle differential.
        self._pending_cause.clear()  # the views were rebuilt
        self._view_counts.clear()
        self._register_triggers()
        self._watch_streams()

    def _apply_txn(self, table: str, subops: tuple, poison: bool) -> None:
        txn = self.db.transaction()
        for sub in subops:
            if sub[0] == "insert":
                txn.insert(table, sub[1], ttl=sub[2])
            else:
                txn.delete(table, sub[1])
        if poison:
            # An insert expiring "now" is rejected at apply time, so the
            # commit must abort and roll the earlier subops back through
            # every derived structure.
            txn.insert(table, (_KEYS, _VALUES), expires_at=self.db.now)
            try:
                txn.commit()
            except RelationError:
                return  # aborted as intended; the oracle is unchanged
            raise CheckFailed("poisoned transaction committed")
        txn.commit()
        for sub in subops:
            if sub[0] == "insert":
                self._model_insert(table, sub[1], self.now + sub[2])
            else:
                self.model[table].pop(sub[1], None)

    # -- post-op checks -------------------------------------------------

    def check(self) -> None:
        self.db.verify(strict=True)  # deep: the audit catches views up
        self._check_patch_queues()
        if self._view_folds is not None:
            self._count_views()
        for table in _TABLES:
            visible = self._visible(table)
            got = set(self.db.table(table).read().rows())
            if got != set(visible):
                raise CheckFailed(
                    f"table {table} reads {sorted(got, key=repr)} != "
                    f"oracle {sorted(visible, key=repr)}"
                )
            relation = self.db.table(table).relation
            for row, expires in visible.items():
                texp = relation.expiration_or_none(row)
                if texp is None:
                    raise CheckFailed(
                        f"table {table} lost visible row {row}"
                    )
                if expires is math.inf:
                    if not texp.is_infinite:
                        raise CheckFailed(
                            f"table {table} row {row}: expected immortal, "
                            f"stored {texp}"
                        )
                elif texp.is_infinite or texp.value != expires:
                    raise CheckFailed(
                        f"table {table} row {row}: expected expiration "
                        f"{expires}, stored {texp}"
                    )
        complete = self._wal_dir is None
        for entry in self.fired[self._checked:]:
            table, row, texp, fired_at = entry
            if texp > fired_at:
                raise CheckFailed(
                    f"trigger on {table}{row} fired at {fired_at} before "
                    f"its expiration {texp}"
                )
            self._fired_seen.add(entry)
            owed = self._unfired[table]
            outstanding = owed.get((row, texp), 0)
            if outstanding > 1:
                owed[(row, texp)] = outstanding - 1
            elif outstanding == 1:
                del owed[(row, texp)]
            elif complete:
                raise CheckFailed(
                    f"trigger on {table}{row} fired for texp {texp}, an "
                    f"expiration the oracle never saw lapse"
                )
        self._checked = len(self.fired)
        if len(self.fired) != len(self._fired_seen):
            duplicates = len(self.fired) - len(self._fired_seen)
            raise CheckFailed(
                f"{duplicates} duplicate ON-EXPIRE firing(s): a "
                f"(table, row, texp) must fire at most once"
            )
        if complete:
            eager = self._policy is RemovalPolicy.EAGER
            for table in _TABLES if eager else self._vacuumed:
                if self._unfired[table]:
                    raise CheckFailed(
                        f"table {table} was swept but never reported "
                        f"{sorted(self._unfired[table], key=repr)} as expired"
                    )


# -- running and shrinking ---------------------------------------------------


def _replay(
    ops: List[tuple],
    policy: str,
    ops_counter=None,
    crash_points: bool = False,
    registry=None,
) -> Tuple[int, Optional[FuzzFailure]]:
    """Run ``ops`` from scratch; returns ``(ops_run, failure_or_None)``.

    With ``crash_points=True`` the harness runs on a write-ahead log in a
    scratch directory, removed when the replay finishes -- every shrink
    candidate recovers from its own blank slate, keeping replays
    independent and deterministic.  ``registry`` makes the harness
    database publish its engine metrics (``repro_wal_*`` included) there.
    """
    wal_dir = (
        tempfile.mkdtemp(prefix="repro-fuzz-wal-") if crash_points else None
    )
    harness = _Harness(_POLICIES[policy], wal_dir=wal_dir, registry=registry)
    try:
        for step, op in enumerate(ops):
            try:
                harness.apply(op)
                harness.check()
            except Exception as error:  # noqa: BLE001 - every breakage counts
                return step, FuzzFailure(step, op, error)
            if ops_counter is not None:
                ops_counter.labels(op[0]).inc()
        return len(ops), None
    finally:
        if wal_dir is not None:
            harness.db.close()
            shutil.rmtree(wal_dir, ignore_errors=True)


def _shrink(
    ops: List[tuple],
    policy: str,
    replay_counter=None,
    crash_points: bool = False,
) -> List[tuple]:
    """ddmin-style greedy chunk removal to a locally-minimal failing list."""

    def fails(candidate: List[tuple]) -> bool:
        if replay_counter is not None:
            replay_counter.inc()
        return _replay(candidate, policy, crash_points=crash_points)[1] is not None

    current = list(ops)
    chunk = max(1, len(current) // 2)
    while True:
        progress = False
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and fails(candidate):
                current = candidate
                progress = True
            else:
                index += chunk
        if not progress:
            if chunk == 1:
                return current
            chunk = max(1, chunk // 2)


def run_fuzz(
    seed: int,
    ops: int = 2000,
    policy: str = "eager",
    registry=None,
    shrink: bool = True,
    crash_points: bool = False,
) -> FuzzReport:
    """One fuzz run: generate, replay, and (on failure) shrink.

    ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`) receives
    the ``repro_check_*`` families; ``shrink=False`` skips minimisation
    (useful when the caller only wants the verdict); ``crash_points=True``
    runs the database on a write-ahead log and injects simulated crashes,
    torn log tails and checkpoints into the op mix, checking every
    recovery against the dict oracle.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {sorted(_POLICIES)}")
    families = (
        declare_check_families(registry) if registry is not None else None
    )
    ops_counter, failures, replays, shrunk_gauge = (
        families if families is not None else (None, None, None, None)
    )
    sequence = generate_ops(random.Random(seed), ops, crash_points)
    ops_run, failure = _replay(
        sequence, policy, ops_counter, crash_points=crash_points,
        registry=registry,
    )
    shrunk: Optional[List[tuple]] = None
    if failure is not None:
        if failures is not None:
            failures.labels(policy).inc()
        if shrink:
            shrunk = _shrink(
                sequence[: failure.step + 1],
                policy,
                replays,
                crash_points=crash_points,
            )
            if shrunk_gauge is not None:
                shrunk_gauge.set(len(shrunk))
    return FuzzReport(
        seed=seed,
        policy=policy,
        ops_requested=ops,
        ops_run=ops_run,
        failure=failure,
        shrunk=shrunk,
    )
