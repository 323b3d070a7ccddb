"""The session surface in-process: connect(), floors, config, deprecation.

Everything here runs without a socket; the point of the API redesign is
that this exact code works unchanged against ``repro://host:port``.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.core.timestamps import ts
from repro.engine.config import DatabaseConfig
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.errors import SessionError, WalError
from repro.server.client import LocalSession, connect


class TestConnect:
    def test_default_owns_a_fresh_database(self):
        with connect() as session:
            session.execute("CREATE TABLE T (k)")
            session.execute("INSERT INTO T VALUES (1) EXPIRES AT 10")
            assert session.query("SELECT k FROM T").rows == [(1,)]
            db = session.db
        assert db.closed  # owned: closed with the session

    def test_memory_target_is_the_default(self):
        with connect(":memory:") as session:
            assert session.db.wal is None

    def test_wrapping_a_database_borrows_it(self):
        db = Database()
        with connect(db) as session:
            session.execute("CREATE TABLE T (k)")
        assert not db.closed  # borrowed: the caller keeps ownership
        assert db.has_table("T")
        db.close()

    def test_database_session_shortcut(self):
        db = Database()
        session = db.session()
        assert isinstance(session, LocalSession)
        session.execute("CREATE TABLE T (k)")
        session.close()
        assert not db.closed

    def test_durable_path_open_and_recover(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        with connect(root) as session:
            session.execute("CREATE TABLE T (k)")
            session.execute("INSERT INTO T VALUES (7) EXPIRES AT 100")
        # Second connect must crash-recover the same state, not collide.
        with connect(root) as session:
            assert session.query("SELECT k FROM T").rows == [(7,)]
        # A fresh Database on the same directory still refuses (recovery
        # stays explicit everywhere except connect()).
        with pytest.raises(WalError):
            Database(wal_dir=root)

    def test_malformed_url_rejected(self):
        with pytest.raises(SessionError, match="repro://"):
            connect("repro://nonsense")

    def test_result_is_iterable_and_sized(self):
        with connect() as session:
            session.execute("CREATE TABLE T (k)")
            session.execute("INSERT INTO T VALUES (1), (2) EXPIRES AT 9")
            result = session.query("SELECT k FROM T")
            assert len(result) == 2
            assert sorted(result) == [(1,), (2,)]

    def test_query_refuses_ddl_before_executing(self):
        with connect() as session:
            with pytest.raises(SessionError, match="row-producing"):
                session.query("CREATE TABLE T (k)")
            # Crucially: the refusal happened before execution.
            assert not session.db.has_table("T")

    def test_closed_session_refuses_work(self):
        session = connect()
        session.close()
        session.close()  # idempotent
        with pytest.raises(SessionError, match="closed"):
            session.execute("SELECT 1")


class TestFloorSemantics:
    def test_floor_ratchets_forward(self):
        with connect() as session:
            assert session.floor == ts(0)
            session.execute("CREATE TABLE T (k)")
            session.execute("ADVANCE TO 5")
            assert session.floor == ts(5)
            session.execute("ADVANCE TO 9")
            assert session.floor == ts(9)

    def test_session_never_travels_back_in_time(self):
        db = Database()
        session = db.session()
        db.advance_to(10)
        session.execute("SELECT 1 FROM DUAL" if False else "SHOW TABLES")
        assert session.floor == ts(10)
        # A second session on a *rewound* engine is impossible (clocks are
        # monotone), so simulate the only reachable case: a session whose
        # floor is ahead of the engine it is pointed at.
        fresh = Database()
        stale = fresh.session()
        stale.floor = ts(99)
        with pytest.raises(SessionError, match="travel"):
            stale.execute("SHOW TABLES")

    def test_lazy_snapshot_isolation(self):
        """A reader at clock floor τ never sees tuples expiring ≤ τ, even
        when LAZY removal retains them physically."""
        config = DatabaseConfig(default_removal_policy=RemovalPolicy.LAZY)
        with connect(config=config) as session:
            session.execute("CREATE TABLE T (k)")
            session.execute("INSERT INTO T VALUES (1) EXPIRES AT 5")
            session.execute("INSERT INTO T VALUES (2) EXPIRES AT 50")
            session.execute("ADVANCE TO 5")
            # Physically the expired tuple is still there (LAZY)...
            table = session.db.table("T")
            assert len(table.relation) == 2
            # ...but no read at the session's floor can surface it.
            assert session.query("SELECT k FROM T").rows == [(2,)]
            for row, texp in session.query("SELECT k FROM T").items:
                assert texp > session.floor


class TestLocalSubscription:
    def test_subscription_tracks_view_reads_exactly(self):
        with connect() as session:
            session.execute("CREATE TABLE Pol (uid, deg)")
            session.execute("INSERT INTO Pol VALUES (1, 25) EXPIRES AT 10")
            session.execute("INSERT INTO Pol VALUES (2, 35) EXPIRES AT 20")
            session.execute(
                "CREATE MATERIALIZED VIEW degs AS SELECT deg FROM Pol"
            )
            sub = session.subscribe("degs")
            view = session.db.view("degs")
            for advance in (None, 5, 10, 15, 20):
                if advance is not None:
                    session.execute(f"ADVANCE TO {advance}")
                assert sub.read() == sorted(view.read().rows())
            sub.close()
            with pytest.raises(SessionError, match="closed"):
                sub.read()

    def test_subscription_sees_inserts(self):
        with connect() as session:
            session.execute("CREATE TABLE T (k)")
            session.execute("CREATE MATERIALIZED VIEW v AS SELECT k FROM T")
            sub = session.subscribe("v")
            assert sub.read() == []
            session.execute("INSERT INTO T VALUES (3) EXPIRES AT 8")
            assert sub.read() == [(3,)]


class TestDatabaseConfig:
    def test_config_object_replaces_kwarg_soup(self):
        config = DatabaseConfig(
            start_time=3,
            default_removal_policy=RemovalPolicy.LAZY,
            plan_cache_capacity=7,
            check_invariants=True,
        )
        db = Database(config=config)
        assert db.clock.now == ts(3)
        assert db.default_removal_policy is RemovalPolicy.LAZY
        assert db.plan_cache.capacity == 7
        assert db.config is config
        db.close()

    def test_kwargs_override_config(self):
        config = DatabaseConfig(plan_cache_capacity=3, start_time=2)
        db = Database(config=config, plan_cache_capacity=11)
        assert db.plan_cache.capacity == 11
        assert db.clock.now == ts(2)  # untouched fields come from config
        assert db.config.plan_cache_capacity == 11  # the merged view
        db.close()

    def test_plain_kwargs_still_work(self):
        db = Database(start_time=5, plan_cache_capacity=11)
        assert db.clock.now == ts(5)
        assert db.config.start_time == 5
        db.close()

    def test_removed_switches_are_type_errors(self):
        # What runs a query is not configurable: no alias, no shim.
        with pytest.raises(TypeError):
            Database(engine="interpreted")
        with pytest.raises(TypeError):
            Database(columnar_backend="python")
        with pytest.raises(TypeError):
            DatabaseConfig(engine="compiled")
        assert [f.name for f in dataclasses.fields(DatabaseConfig)] == [
            "start_time", "default_removal_policy", "plan_cache_capacity",
            "check_invariants", "wal_dir", "wal_fsync",
        ]

    def test_config_is_immutable(self):
        config = DatabaseConfig()
        with pytest.raises(AttributeError):
            config.wal_fsync = "never"

    def test_connect_threads_config_through(self):
        config = DatabaseConfig(start_time=4)
        with connect(config=config) as session:
            assert session.db.clock.now == ts(4)

    def test_durable_connect_keeps_config_across_a_restart(self, tmp_path):
        # Regression: the recovery branch forwarded four hand-picked
        # fields, so a restart silently fell back to defaults for the rest.
        config = DatabaseConfig(
            default_removal_policy=RemovalPolicy.LAZY,
            plan_cache_capacity=9,
            check_invariants=True,
            wal_fsync="never",
            start_time=3,  # ignored on restart: the clock is recovered
        )
        with connect(tmp_path, config=config) as session:
            fresh = session.db.config
            session.execute("CREATE TABLE T (k)")
            session.execute("ADVANCE TO 8")
        with connect(tmp_path, config=config) as session:
            db = session.db
            assert db.now == ts(8)
            assert db.wal.fsync_policy == "never"
            assert db.default_removal_policy is RemovalPolicy.LAZY
            restarted = db.config
        # Every field but start_time (the recovered clock's business) and
        # wal_dir (recovery attaches the log itself, after construction).
        for field in dataclasses.fields(DatabaseConfig):
            if field.name not in ("start_time", "wal_dir"):
                assert getattr(restarted, field.name) == getattr(
                    fresh, field.name
                ), field.name


class TestEvaluateSurface:
    def test_evaluate_cached_keyword(self):
        db = Database()
        t = db.create_table("T", ["k"])
        t.insert((1,), expires_at=10)
        expr = db.table_expr("T")
        db.evaluate(expr)
        hits_before = db.plan_cache.stats.hits
        db.evaluate(expr)
        assert db.plan_cache.stats.hits == hits_before + 1
        # cached=False bypasses result reuse but still returns fresh rows.
        result = db.evaluate(expr, cached=False)
        assert sorted(result.relation.rows()) == [(1,)]
        db.close()

    def test_module_evaluate_engine_keyword(self, catalog):
        # The keyword is gone: ``evaluate`` is the reference interpreter,
        # ``evaluate_compiled`` the compiled path, and they agree.
        from repro.core.algebra import evaluate, evaluate_compiled
        from repro.core.algebra.expressions import BaseRef

        expr = BaseRef("Pol").project(2)
        interpreted = evaluate(expr, catalog, tau=0)
        compiled = evaluate_compiled(expr, catalog, tau=0)
        assert compiled.relation.same_content(interpreted.relation)
        assert compiled.validity == interpreted.validity
        with pytest.raises(TypeError):
            evaluate(expr, catalog, tau=0, engine="compiled")


class TestCloseIdempotency:
    def test_close_twice_is_safe(self):
        db = Database()
        db.create_table("T", ["k"])
        db.close()
        db.close()
        assert db.closed

    def test_close_with_wal_twice_is_safe(self, tmp_path):
        db = Database(wal_dir=tmp_path / "w")
        db.create_table("T", ["k"])
        db.table("T").insert((1,), expires_at=10)
        db.close()
        db.close()
        assert db.wal is not None and db.wal.closed

    def test_close_is_safe_from_connection_teardown_path(self):
        """The server tears sessions down on connection loss; the owned
        database must tolerate close() arriving from both paths."""
        session = connect()
        db = session.db
        db.close()  # engine closed first (e.g. server shutdown)
        session.close()  # then the session's own teardown
        assert db.closed
