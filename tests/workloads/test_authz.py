"""The expiring-authorization workload: every lifecycle is a texp.

Grants, role/group hierarchy, refresh tokens, lockouts, and audit
retention -- plus the revocation differential (an override is never
served after it commits) and durability of revocations across a crash.
"""

import pytest

from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.workloads import AuthzStore


@pytest.fixture
def store():
    return AuthzStore(partitions=2)


class TestDirectGrants:
    def test_grant_check_expire(self, store):
        store.grant("alice", "read", "doc", ttl=10)
        assert store.check("alice", "read", "doc")
        store.database.tick(10)
        assert not store.check("alice", "read", "doc")

    def test_renew_is_max_merge(self, store):
        store.grant("alice", "read", "doc", ttl=100)
        store.renew_grant("alice", "read", "doc", ttl=5)  # shorter: kept
        store.database.tick(50)
        assert store.check("alice", "read", "doc")

    def test_revoke_is_immediate(self, store):
        store.grant("alice", "read", "doc", ttl=100)
        store.revoke("alice", "read", "doc")
        assert not store.check("alice", "read", "doc")  # same tick, no sweep


class TestHierarchy:
    def test_role_path(self, store):
        store.assign_role("bob", "editor", ttl=50)
        store.grant_role("editor", "write", "doc", ttl=50)
        assert store.check("bob", "write", "doc")
        store.revoke_role("bob", "editor")
        assert not store.check("bob", "write", "doc")

    def test_group_path_and_membership_expiry(self, store):
        store.join_group("carol", "eng", ttl=10)
        store.map_group_role("eng", "editor", ttl=50)
        store.grant_role("editor", "write", "doc", ttl=50)
        assert store.check("carol", "write", "doc")
        store.database.tick(10)  # only the *membership* lapses
        assert not store.check("carol", "write", "doc")

    def test_incremental_views_absorb_membership_inserts(self, store):
        store.grant_role("editor", "write", "doc", ttl=100)
        store.warm_views()
        before = store.role_view.recomputations
        for m in range(10):
            store.assign_role(f"m{m}", "editor", ttl=100)
            assert store.check(f"m{m}", "write", "doc")
        # The hot loop was absorbed as deltas, not rebuilds.
        assert store.role_view.recomputations == before
        assert store.role_view.delta_applications >= 10

    def test_semijoin_admin_view_lists_live_grants(self, store):
        store.join_group("carol", "eng", ttl=100)
        store.map_group_role("eng", "editor", ttl=100)
        store.grant_role("editor", "write", "doc", ttl=100)
        assert store.grants_in_force() == [("editor", "write", "doc")]
        store.leave_group("carol", "eng")  # no member left behind the chain
        assert store.grants_in_force() == []


class TestTokensAndLockouts:
    def test_refresh_token_churn_keeps_token_alive(self, store):
        store.issue_token("t1", "alice", ttl=10)
        for _ in range(5):
            store.database.tick(5)
            store.refresh_token("t1", "alice", ttl=10)
        assert store.token_valid("t1", "alice")
        store.database.tick(10)  # churn stops: the token dies by itself
        assert not store.token_valid("t1", "alice")

    def test_logout_cannot_be_expressed_by_renew_but_by_override(self, store):
        store.issue_token("t1", "alice", ttl=100)
        store.revoke_token("t1", "alice")
        assert not store.token_valid("t1", "alice")

    def test_lockout_clears_by_ttl_alone(self, store):
        store.grant("alice", "read", "doc", ttl=100)
        store.lock_out("alice", ttl=5)
        assert not store.check("alice", "read", "doc")
        store.database.tick(5)  # nothing swept, nothing deleted
        assert store.check("alice", "read", "doc")

    def test_manual_unlock_is_an_override(self, store):
        store.grant("alice", "read", "doc", ttl=100)
        store.lock_out("alice", ttl=50)
        store.clear_lockout("alice")
        assert store.check("alice", "read", "doc")
        store.clear_lockout("alice")  # idempotent on a clear subject


class TestAuditRetention:
    def test_retention_is_only_an_expiration(self, store):
        for _ in range(10):
            store.audit("alice", "login", retention=5)
        assert store.audit_window() == 10
        store.database.tick(5)
        assert store.audit_window() == 0  # aged out, no delete ever issued


class TestBulkLoadAndVerify:
    def test_bulk_loaded_grants_serve_and_audit_clean(self, store):
        n = store.load_grants(
            ((f"u{i}", "read", f"d{i}"), 50) for i in range(2_000)
        )
        assert n == 2_000
        assert store.check("u1500", "read", "d1500")
        assert not store.check("u1500", "read", "d7")
        store.database.tick(50)
        assert not store.check("u1500", "read", "d1500")
        assert store.database.verify(strict=True, deep=True) == []


class TestRevocationDurability:
    def test_revocations_survive_a_crash(self, tmp_path):
        store = AuthzStore(Database(wal_dir=tmp_path), partitions=2)
        store.grant("alice", "read", "doc", ttl=100)
        store.grant("bob", "read", "doc", ttl=100)
        store.revoke("alice", "read", "doc")
        store.database.close()

        recovered = AuthzStore(recover_database(tmp_path), partitions=2)
        assert not recovered.check("alice", "read", "doc")
        assert recovered.check("bob", "read", "doc")
        assert recovered.database.verify(strict=True, deep=True) == []
        recovered.database.close()


class TestHierarchyViewsAreRegistered:
    def _seeded(self):
        store = AuthzStore(partitions=2)
        for i in range(40):
            store.grant(f"u{i}", "read", f"d{i}", ttl=500)
            store.assign_role(f"u{i}", f"role{i % 5}", ttl=500)
            store.join_group(f"u{i}", f"team{i % 4}", ttl=500)
        for r in range(5):
            store.grant_role(f"role{r}", "write", f"d{r}", ttl=500)
        for t in range(4):
            store.map_group_role(f"team{t}", f"role{t}", ttl=500)
        store.revoke_role("u3", "role3")
        store.leave_group("u7", "team3")
        return store

    def test_snapshot_round_trip_answers_the_same_checks(self, tmp_path):
        from repro.engine.persistence import load_database, save_database

        store = self._seeded()
        save_database(store.database, tmp_path / "authz.json")
        restored = AuthzStore(load_database(tmp_path / "authz.json"), partitions=2)
        assert {"authz_role_grants", "authz_group_grants",
                "authz_live_group_grants"} <= set(restored.database.view_names())
        probes = [
            (f"u{i}", relation, f"d{j}")
            for i in range(20) for relation in ("read", "write") for j in range(5)
        ]
        assert len(probes) == 200
        answers = [store.check(*probe) for probe in probes]
        assert any(answers) and not all(answers)
        assert [restored.check(*probe) for probe in probes] == answers
        assert restored.database.verify(strict=True, deep=True) == []

    def test_views_are_audited_subscribable_and_droppable(self):
        store = self._seeded()
        db = store.database
        assert store.role_view is db.view("authz_role_grants")
        assert db.verify(strict=True, deep=True) == []
        session = db.session()
        sub = session.subscribe("authz_group_grants")
        assert ("u1", "write", "d1") in set(sub.read())
        session.close()
        db.drop_view("authz_group_grants")
        assert "authz_group_grants" not in db.view_names()


def scripted_run(store):
    """Checks decided on every path plus writes of every kind; returns the
    decisions in order."""
    store.grant("alice", "read", "doc", ttl=10)
    store.assign_role("bob", "editor", ttl=10)
    store.grant_role("editor", "write", "doc", ttl=10)
    store.join_group("carol", "eng", ttl=10)
    store.map_group_role("eng", "viewer", ttl=10)
    store.grant_role("viewer", "read", "doc", ttl=10)
    store.lock_out("dave", ttl=3)
    store.issue_token("t1", "alice", ttl=5)
    decisions = []
    for step in range(4):
        for subject, relation in (("alice", "read"), ("bob", "write"),
                                  ("carol", "read"), ("dave", "read"),
                                  ("nobody", "read")):
            decisions.append(store.check(subject, relation, "doc"))
        store.renew_grant("alice", "read", "doc", ttl=10)
        store.refresh_token("t1", "alice")
        store.audit("alice", f"step{step}")
        decisions.append(store.token_valid("t1", "alice"))
        store.database.tick(2)
    store.revoke("alice", "read", "doc")
    store.leave_group("carol", "eng")
    decisions += [store.check("alice", "read", "doc"),
                  store.check("carol", "read", "doc")]
    return decisions


CHECK_SERIES = [
    ("allow", "direct"), ("allow", "role"), ("allow", "group"),
    ("deny", "lockout"), ("deny", "none"),
]
WRITE_KINDS = ["grant", "renew", "revoke", "token", "lockout", "audit", "hierarchy"]


class TestMetrics:
    def test_decisions_and_writes_are_published(self, store):
        store.grant("alice", "read", "doc", ttl=10)
        store.assign_role("bob", "editor", ttl=10)
        store.grant_role("editor", "write", "doc", ttl=10)
        store.join_group("carol", "eng", ttl=10)
        store.map_group_role("eng", "viewer", ttl=10)
        store.grant_role("viewer", "read", "doc", ttl=10)
        store.lock_out("dave", ttl=10)
        assert store.check("alice", "read", "doc")
        assert store.check("bob", "write", "doc")
        assert store.check("carol", "read", "doc")
        assert not store.check("dave", "read", "doc")
        assert not store.check("nobody", "read", "doc")
        assert not store.check("nobody", "write", "doc")
        snap = store.database.metrics.snapshot()
        key = 'repro_authz_checks_total{{decision="{}",path="{}"}}'
        assert {pair: snap[key.format(*pair)] for pair in CHECK_SERIES} == {
            ("allow", "direct"): 1, ("allow", "role"): 1, ("allow", "group"): 1,
            ("deny", "lockout"): 1, ("deny", "none"): 2,
        }
        assert snap['repro_authz_writes_total{kind="grant"}'] == 1
        assert snap['repro_authz_writes_total{kind="hierarchy"}'] == 5
        assert "repro_authz_check_seconds" not in store.database.metrics

    def test_every_series_exists_at_zero_from_construction(self, store):
        snap = store.database.metrics.snapshot()
        for decision, path in CHECK_SERIES:
            key = f'repro_authz_checks_total{{decision="{decision}",path="{path}"}}'
            assert snap[key] == 0
        for kind in WRITE_KINDS:
            assert snap[f'repro_authz_writes_total{{kind="{kind}"}}'] == 0

    def test_checks_and_writes_look_up_no_series(self, store, monkeypatch):
        """The hot path only increments series found at construction."""
        from repro.obs.registry import Family

        store.assign_role("bob", "editor", ttl=100)
        store.grant_role("editor", "write", "doc", ttl=100)
        store.join_group("carol", "eng", ttl=100)
        store.map_group_role("eng", "viewer", ttl=100)
        store.grant_role("viewer", "read", "doc", ttl=100)
        store.warm_views()
        calls = []
        original = Family.labels

        def counting(self, *values, **kv):
            calls.append((self.name, values))
            return original(self, *values, **kv)

        monkeypatch.setattr(Family, "labels", counting)
        for i in range(20):
            store.grant(f"u{i}", "read", "doc", ttl=100)
            store.renew_grant(f"u{i}", "read", "doc", ttl=200)
            store.issue_token(f"t{i}", f"u{i}")
            store.refresh_token(f"t{i}", f"u{i}")
            store.lock_out(f"x{i}", ttl=5)
            store.audit(f"u{i}", "login")
            store.assign_role(f"m{i}", "editor", ttl=100)
            for subject, relation in ((f"u{i}", "read"), (f"m{i}", "write"),
                                      ("carol", "read"), (f"x{i}", "read"),
                                      ("nobody", "read")):
                store.check(subject, relation, "doc")
            store.revoke(f"u{i}", "read", "doc")
            store.revoke_token(f"t{i}", f"u{i}")
        assert calls == []
        snap = store.database.metrics.snapshot()
        for decision, path in CHECK_SERIES:
            key = f'repro_authz_checks_total{{decision="{decision}",path="{path}"}}'
            assert snap[key] == 20
        assert snap['repro_authz_writes_total{kind="revoke"}'] == 40

    def test_uninstrumented_store_decides_the_same(self):
        from repro.obs.registry import MetricsRegistry

        instrumented = AuthzStore(partitions=2)
        bare = AuthzStore(Database(metrics=MetricsRegistry(enabled=False)),
                          partitions=2)
        decisions = scripted_run(instrumented)
        assert scripted_run(bare) == decisions
        assert any(decisions) and not all(decisions)
        counted = sum(
            instrumented.database.metrics.snapshot()[
                f'repro_authz_checks_total{{decision="{d}",path="{p}"}}']
            for d, p in CHECK_SERIES
        )
        assert counted == 22
