"""Expiring-authorization workload: grants, tokens, and lockouts at scale.

The flagship "millions of users" scenario (ROADMAP item 2).  A production
authz/authn system is built almost entirely out of rows that expire --
grants with TTLs, refresh tokens, API keys, lockouts, audit logs with a
retention window -- and conventionally sweeps them with cron-style
maintenance jobs.  The expiration-time model is the principled version of
exactly that: every one of those behaviours here is *just a texp*.

Layout
------

Relationship tuples ``(subject, relation, object)`` live on a
hash-partitioned columnar table; the role/group hierarchy is resolved
through join and semijoin chains over expiring membership tables:

* ``Grants``        direct ``(subject, relation, object)`` tuples,
                    partitioned on ``subject``;
* ``Members``       ``(member, role)`` -- direct role membership;
* ``GroupMembers``  ``(member, grp)`` and
* ``GroupRoles``    ``(team, role_name)`` -- the two-hop group chain;
* ``RoleGrants``    ``(holder, relation, object)`` -- what a role can do;
* ``Tokens``        ``(token, subject)`` refresh tokens, renewal-heavy;
* ``Lockouts``      ``(subject,)`` -- clearing a lockout is just a TTL;
* ``Audit``         ``(seq, subject, action)`` under *lazy* removal --
                    the retention policy is only an expiration time.

``check(subject, relation, object)`` is the hot path.  Direct grants,
tokens, and lockouts are answered by O(1) stored-expiration probes on the
base tables -- correct purely by expiration, no sweep needed, and a
revocation (a :meth:`~repro.engine.table.Table.override` to ``now``) is
never served after it commits.  The hierarchy paths are served from
materialised views probed point-wise (``contains``):

* the role chain and the group chain -- monotonic join trees, so
  Theorem 1 makes them maintenance-free under pure expiration, and
  ``Database.materialise`` builds them as insert-folding views
  (:mod:`repro.engine.maintenance`): membership *inserts* are folded in
  as deltas; only an explicit revocation marks them stale;
* a *semijoin chain* (``RoleGrants ⋉ GroupRoles ⋉ GroupMembers``) listing
  the role grants currently backed by at least one live member -- the
  admin's "what is in force" view.

All three are registered views: snapshotted, logged, droppable,
``subscribe``-able and audited by ``verify(deep=True)``.

Renewal versus revocation is the asymmetry this workload foregrounds:
``refresh_token`` is the paper's max-merge re-insert (it can only ever
lengthen a lifetime), while ``revoke``/``revoke_token``/``clear_lockout``
go through the engine's ``override`` path (last-write), which is what
makes logout and lockout semantics expressible at all (DESIGN §5i).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.algebra.expressions import BaseRef
from repro.core.schema import Schema
from repro.core.tuples import check_domain
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy

__all__ = [
    "GRANT_SCHEMA",
    "MEMBER_SCHEMA",
    "GROUP_MEMBER_SCHEMA",
    "GROUP_ROLE_SCHEMA",
    "ROLE_GRANT_SCHEMA",
    "TOKEN_SCHEMA",
    "LOCKOUT_SCHEMA",
    "AUDIT_SCHEMA",
    "AuthzStore",
    "declare_authz_families",
]

GRANT_SCHEMA = Schema(["subject", "relation", "object"])
MEMBER_SCHEMA = Schema(["member", "role"])
GROUP_MEMBER_SCHEMA = Schema(["member", "grp"])
GROUP_ROLE_SCHEMA = Schema(["team", "role_name"])
ROLE_GRANT_SCHEMA = Schema(["holder", "relation", "object"])
TOKEN_SCHEMA = Schema(["token", "subject"])
LOCKOUT_SCHEMA = Schema(["subject"])
AUDIT_SCHEMA = Schema(["seq", "subject", "action"])

#: The label values of ``repro_authz_checks_total`` and ``..._writes_total``.
_DECISIONS = {"lockout": "deny", "direct": "allow", "role": "allow",
              "group": "allow", "none": "deny"}
_WRITE_KINDS = ("grant", "renew", "revoke", "token", "lockout", "audit", "hierarchy")


def declare_authz_families(registry):
    """Idempotently register the ``repro_authz_*`` metric families.

    Returns ``(checks, writes)``.  Checks are counted, not timed: a timer
    costs about a sixth of a 2 us check, so callers time their own calls.
    """
    checks = registry.counter(
        "repro_authz_checks_total",
        "Authorization checks, by decision and the path that decided "
        "(lockout / direct / role / group / none).",
        labels=("decision", "path"),
    )
    writes = registry.counter(
        "repro_authz_writes_total",
        "Authorization-state mutations, by kind (grant / renew / revoke / "
        "token / lockout / audit / hierarchy).",
        labels=("kind",),
    )
    return checks, writes


class AuthzStore:
    """Expiring authorization on top of the expiration-enabled engine.

    >>> store = AuthzStore(partitions=2)
    >>> store.grant("alice", "read", "doc1", ttl=100)
    >>> store.check("alice", "read", "doc1")
    True
    >>> store.assign_role("bob", "editor", ttl=100)
    >>> store.grant_role("editor", "write", "doc1", ttl=100)
    >>> store.check("bob", "write", "doc1")
    True
    >>> store.revoke("alice", "read", "doc1")   # override, not max-merge
    >>> store.check("alice", "read", "doc1")
    False
    >>> store.lock_out("bob", ttl=10)
    >>> store.check("bob", "write", "doc1")
    False
    >>> _ = store.database.tick(10)             # the lockout just expires
    >>> store.check("bob", "write", "doc1")
    True
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        *,
        partitions: int = 8,
        layout: str = "columnar",
        grant_ttl: int = 1000,
        token_ttl: int = 50,
        lockout_ttl: int = 25,
        audit_retention: int = 500,
    ) -> None:
        self.database = database if database is not None else Database()
        self.grant_ttl = grant_ttl
        self.token_ttl = token_ttl
        self.lockout_ttl = lockout_ttl
        self.audit_retention = audit_retention
        db = self.database

        def table(name, schema, **kwargs):
            # Attach to a recovered database's tables instead of failing:
            # the store over a post-crash engine is the same store.
            if name in db.table_names():
                return db.table(name)
            return db.create_table(name, schema, **kwargs)

        self.grants = table(
            "Grants", GRANT_SCHEMA, partitions=partitions,
            partition_key="subject", layout=layout,
        )
        # Hierarchy tables stay row-layout: their rows feed per-insert
        # view deltas, where dict iteration beats columnar decode.
        self.members = table("Members", MEMBER_SCHEMA)
        self.group_members = table("GroupMembers", GROUP_MEMBER_SCHEMA)
        self.group_roles = table("GroupRoles", GROUP_ROLE_SCHEMA)
        self.role_grants = table("RoleGrants", ROLE_GRANT_SCHEMA)
        self.tokens = table(
            "Tokens", TOKEN_SCHEMA, partitions=partitions,
            partition_key="token", layout=layout,
        )
        self.lockouts = table("Lockouts", LOCKOUT_SCHEMA)
        # Retention is only an expiration time; lazy removal batches the
        # physical reclamation (the cron job the model replaces).
        self.audit_log = table(
            "Audit", AUDIT_SCHEMA, partitions=partitions, partition_key="seq",
            layout=layout, removal_policy=RemovalPolicy.LAZY,
            lazy_batch_size=4096,
        )
        # Hierarchy resolution: three registered, monotonic views, which
        # ``materialise`` therefore builds insert-folding.  Membership
        # inserts are folded in at the next probe, a seeding burst that
        # outgrows the stored result costs one refresh, and revocations
        # mark them stale so the next probe rebuilds (renew-cheap,
        # revoke-rare).
        def view(name, expression):
            # A store over a recovered database attaches to its views too.
            if name in db.view_names():
                return db.view(name)
            return db.materialise(name, expression)

        #: The member->grant join view.
        self.role_view = view(
            "authz_role_grants",
            BaseRef("Members")
            .join(BaseRef("RoleGrants"), on=[("role", "holder")])
            .project("member", "relation", "object"),
        )
        #: The member->group->role->grant chain view.
        self.group_view = view(
            "authz_group_grants",
            BaseRef("GroupMembers")
            .join(BaseRef("GroupRoles"), on=[("grp", "team")])
            .join(BaseRef("RoleGrants"), on=[("role_name", "holder")])
            .project("member", "relation", "object"),
        )
        # The admin's "in force" listing: role grants whose role is backed
        # by at least one live member via the group chain (a semijoin chain).
        view(
            "authz_live_group_grants",
            BaseRef("RoleGrants").semijoin(
                BaseRef("GroupRoles").semijoin(
                    BaseRef("GroupMembers"), on=[("team", "grp")]
                ),
                on=[("holder", "role_name")],
            ),
        )
        self._audit_seq = 0
        # Each series is looked up once: it reads 0 from here on.
        checks, writes = declare_authz_families(db.metrics)
        self._checked = {path: checks.labels(decision, path).inc
                         for path, decision in _DECISIONS.items()}
        self._wrote = {kind: writes.labels(kind).inc for kind in _WRITE_KINDS}

    # -- the hot path -------------------------------------------------------

    def warm_views(self) -> None:
        """Bring the hierarchy views current (call after bulk seeding)."""
        self.role_view.read()
        self.group_view.read()

    def check(self, subject, relation, obj) -> bool:
        """Is ``subject`` allowed ``relation`` on ``obj`` right now?

        Lockout first (a live lockout row denies everything), then the
        direct grant, then the role chain, then the group chain.  Every
        probe is a point lookup against storage that is correct purely by
        expiration -- no sweep has to run for a revoked or expired grant
        to stop being served.
        """
        now = self.database.clock.now
        row = (subject, relation, obj)
        if self.lockouts.relation.alive_at((subject,), now):
            path = "lockout"
        elif self.grants.relation.alive_at(row, now):
            path = "direct"
        elif self.role_view.contains(row, now):
            path = "role"
        elif self.group_view.contains(row, now):
            path = "group"
        else:
            path = "none"
        self._checked[path]()
        return _DECISIONS[path] == "allow"

    # -- direct grants ------------------------------------------------------

    def grant(self, subject, relation, obj, ttl: Optional[int] = None) -> None:
        """Grant ``relation`` on ``obj`` for ``ttl`` ticks (max-merge)."""
        self.grants.insert(
            (subject, relation, obj), ttl=ttl if ttl is not None else self.grant_ttl
        )
        self._wrote["grant"]()

    def renew_grant(self, subject, relation, obj, ttl: Optional[int] = None) -> None:
        """Re-insert: lengthens the grant's lifetime, never shortens it."""
        self.grants.renew(
            (subject, relation, obj), ttl if ttl is not None else self.grant_ttl
        )
        self._wrote["renew"]()

    def revoke(self, subject, relation, obj) -> None:
        """Revoke *now*: an override to the current time, not a delete.

        The row becomes invisible to every read immediately (``exp_τ``)
        and is reclaimed by the next sweep; recovery replays the shortened
        expiration.
        """
        self.grants.override((subject, relation, obj), expires_at=self.database.clock.now)
        self._wrote["revoke"]()

    # -- hierarchy ----------------------------------------------------------

    def assign_role(self, member, role, ttl: Optional[int] = None) -> None:
        self.members.insert(
            (member, role), ttl=ttl if ttl is not None else self.grant_ttl
        )
        self._wrote["hierarchy"]()

    def revoke_role(self, member, role) -> None:
        self.members.override((member, role), expires_at=self.database.clock.now)
        self._wrote["revoke"]()

    def join_group(self, member, grp, ttl: Optional[int] = None) -> None:
        self.group_members.insert(
            (member, grp), ttl=ttl if ttl is not None else self.grant_ttl
        )
        self._wrote["hierarchy"]()

    def leave_group(self, member, grp) -> None:
        self.group_members.override((member, grp), expires_at=self.database.clock.now)
        self._wrote["revoke"]()

    def map_group_role(self, grp, role, ttl: Optional[int] = None) -> None:
        self.group_roles.insert(
            (grp, role), ttl=ttl if ttl is not None else self.grant_ttl
        )
        self._wrote["hierarchy"]()

    def grant_role(self, role, relation, obj, ttl: Optional[int] = None) -> None:
        self.role_grants.insert(
            (role, relation, obj), ttl=ttl if ttl is not None else self.grant_ttl
        )
        self._wrote["hierarchy"]()

    def grants_in_force(self) -> List[tuple]:
        """Role grants currently backed by a live group member (semijoin chain)."""
        return sorted(self.database.view("authz_live_group_grants").read().rows())

    # -- refresh tokens ------------------------------------------------------

    def issue_token(self, token, subject, ttl: Optional[int] = None) -> None:
        self.tokens.insert(
            (token, subject), ttl=ttl if ttl is not None else self.token_ttl
        )
        self._wrote["token"]()

    def refresh_token(self, token, subject, ttl: Optional[int] = None) -> None:
        """The renewal-heavy path: one max-merge re-insert per refresh."""
        self.tokens.renew(
            (token, subject), ttl if ttl is not None else self.token_ttl
        )
        self._wrote["token"]()

    def revoke_token(self, token, subject) -> None:
        """Logout: override to now (renew could never express this)."""
        self.tokens.override((token, subject), expires_at=self.database.clock.now)
        self._wrote["revoke"]()

    def token_valid(self, token, subject) -> bool:
        return self.tokens.relation.alive_at((token, subject), self.database.clock.now)

    # -- lockouts ------------------------------------------------------------

    def lock_out(self, subject, ttl: Optional[int] = None) -> None:
        """Lock the subject out; clearing is just the row expiring."""
        self.lockouts.insert(
            (subject,), ttl=ttl if ttl is not None else self.lockout_ttl
        )
        self._wrote["lockout"]()

    def clear_lockout(self, subject) -> None:
        """Early manual unlock: shorten the lockout to now (override)."""
        if self.is_locked_out(subject):
            self.lockouts.override((subject,), expires_at=self.database.clock.now)
            self._wrote["revoke"]()

    def is_locked_out(self, subject) -> bool:
        return self.lockouts.relation.alive_at((subject,), self.database.clock.now)

    # -- audit ---------------------------------------------------------------

    def audit(self, subject, action, retention: Optional[int] = None) -> int:
        """Append an audit row; its retention policy is only a texp."""
        self._audit_seq += 1
        self.audit_log.insert(
            (self._audit_seq, subject, action),
            ttl=retention if retention is not None else self.audit_retention,
        )
        self._wrote["audit"]()
        return self._audit_seq

    def audit_window(self) -> int:
        """Audit rows still inside the retention window."""
        return len(self.audit_log)

    # -- bulk loading --------------------------------------------------------

    def load_grants(self, rows: Iterator[Tuple[tuple, int]]) -> int:
        """Bulk-load ``((subject, relation, object), ttl)`` pairs.

        The benchmark's seeding fast path: the table's trusted bulk
        load (one heapify per shard), bypassing per-row WAL/listener
        work exactly like snapshot restore does -- but each row passes
        ``check_domain`` before any is loaded.
        """
        now = self.database.clock.now
        count = self.grants.bulk_load([(check_domain(r), now + t) for r, t in rows])
        self.database.note_data_change()
        return count
