"""Sanity checks on the public API surface and module doctests."""

import doctest
import importlib

import pytest

import repro


PUBLIC_MODULES = [
    "repro",
    "repro.codec",
    "repro.core",
    "repro.core.timestamps",
    "repro.core.intervals",
    "repro.core.schema",
    "repro.core.tuples",
    "repro.core.relation",
    "repro.core.aggregates",
    "repro.core.approximate",
    "repro.core.monotonicity",
    "repro.core.validity",
    "repro.core.patching",
    "repro.core.schedule",
    "repro.core.algebra",
    "repro.core.algebra.predicates",
    "repro.core.algebra.expressions",
    "repro.core.algebra.evaluator",
    "repro.core.algebra.serde",
    "repro.engine",
    "repro.engine.clock",
    "repro.engine.database",
    "repro.engine.expiration_index",
    "repro.engine.maintenance",
    "repro.engine.persistence",
    "repro.engine.table",
    "repro.engine.views",
    "repro.sql",
    "repro.cli",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.tracing",
    "repro.distributed",
    "repro.workloads",
]

DOCTEST_MODULES = [
    "repro.core.timestamps",
    "repro.core.intervals",
    "repro.core.schema",
    "repro.core.tuples",
    "repro.core.relation",
    "repro.core.patching",
    "repro.core.algebra.evaluator",
    "repro.core.algebra.serde",
    "repro.engine.database",
    "repro.sql",
    "repro.workloads.authz",
    "repro.workloads.streaming",
    "repro.obs.registry",
    "repro.obs.tracing",
]


class TestImports:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_importable(self, name):
        importlib.import_module(name)

    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_exports_resolve(self):
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name}"


class TestDoctests:
    @pytest.mark.parametrize("name", DOCTEST_MODULES)
    def test_module_doctests(self, name):
        module = importlib.import_module(name)
        failures, _ = doctest.testmod(module, verbose=False)
        assert failures == 0


class TestQuickstartFlow:
    def test_readme_flow(self):
        """The README quickstart, kept honest by CI."""
        from repro import Database

        db = Database()
        pol = db.create_table("Pol", ["uid", "deg"])
        pol.insert((1, 25), expires_at=10)
        pol.insert((2, 25), expires_at=15)
        pol.insert((3, 35), expires_at=10)

        view = db.materialise("interests", db.table_expr("Pol").project(2))
        assert sorted(view.read().rows()) == [(25,), (35,)]
        db.advance_to(10)
        assert sorted(view.read().rows()) == [(25,)]
        assert view.recomputations == 0


class TestOneDoorForViews:
    def test_incremental_view_is_not_a_public_constructor(self):
        """``Database.materialise`` is the only way a view comes to exist;
        what left the package surface with PR 22, and what stayed."""
        import repro.engine
        from repro.engine.maintenance import IncrementalView
        from repro.engine.views import MaterialisedView

        assert "IncrementalView" not in repro.__all__
        assert "IncrementalView" not in repro.engine.__all__
        assert not hasattr(repro, "IncrementalView")
        assert issubclass(IncrementalView, MaterialisedView)
        # Still public: the shape test and the policy enum (one value more).
        assert "supports_incremental" in repro.engine.__all__
        assert "MaintenancePolicy" in repro.__all__
        assert [p.name for p in repro.MaintenancePolicy] == [
            "RECOMPUTE", "SCHRODINGER", "PATCH", "DELTA",
        ]


class TestOneOwnerForBytes:
    def test_what_left_with_the_codec(self):
        """``repro.codec`` owns the value encodings (no alias is left in
        the two modules that each had a copy); ``WalRecord`` and the
        deprecated ``Database.sql`` are gone."""
        import repro.codec
        import repro.engine.wal
        import repro.server.protocol

        encodings = ["encode_exp", "decode_exp", "encode_prev",
                     "decode_prev", "encode_items", "decode_items"]
        for name in encodings:
            assert name in repro.codec.__all__
            assert not hasattr(repro.engine.wal, name)
            assert not hasattr(repro.server.protocol, name)
        assert not hasattr(repro.engine.wal, "WalRecord")
        assert not hasattr(repro.Database, "sql")
        # What a database speaks SQL through:
        assert "execute_sql" in repro.__all__
        assert hasattr(repro.Database, "session")


class TestOneWireReader:
    def test_what_left_with_the_frame_loop(self):
        """``protocol.read_frame`` (a second decoder of the wire format)
        and ``write_frame`` are gone with no alias, so ``FrameDecoder`` is
        the wire's only reader; both client sessions drive the one frame
        loop in ``_WireSessionState`` and route no frame themselves."""
        from pathlib import Path

        import repro.server.protocol
        from repro.server import client, server

        for name in ("read_frame", "write_frame"):
            for module in (repro.server, repro.server.protocol, client, server):
                assert not hasattr(module, name)
        assert repro.server.protocol.__all__ == [
            "PROTOCOL_VERSION", "MAX_FRAME", "FrameDecoder", "encode_frame"]
        package = Path(repro.__file__).parent
        assert not [path for path in package.rglob("*.py")
                    if "readexactly" in path.read_text(encoding="utf-8")]
        loop = ("_receive", "_request", "_unsubscribe", "_restore",
                "_handle_push")
        for cls in (client.NetworkSession, client.AsyncSession):
            assert not set(loop) & set(vars(cls))
            for gone in ("_inbox", "_read_some", "_absorb", "_absorb_inbox"):
                assert not hasattr(cls, gone)
        assert set(loop) <= set(vars(client._WireSessionState))


class TestOneSchedule:
    def test_what_left_with_the_schedule(self):
        """Every "key -> tick, hand back what is due" holder keeps one
        ``repro.core.schedule.Schedule``; the private copies are gone
        with no alias, and the removal policy stayed where it was."""
        import repro.core.patching
        import repro.engine
        import repro.engine.expiration_index
        import repro.workloads.streaming
        from repro.core.schedule import Schedule

        assert "ExpirationIndex" not in repro.engine.__all__
        assert not hasattr(repro.engine, "ExpirationIndex")
        assert not hasattr(repro.engine.expiration_index, "ExpirationIndex")
        assert not hasattr(repro.workloads.streaming, "LiveKeys")
        assert "RemovalPolicy" in repro.engine.__all__
        patcher = repro.core.patching.DifferencePatcher()
        assert isinstance(patcher._schedule, Schedule)
        for gone in ("_heap", "_max_heap", "_dead", "_size", "_counter"):
            assert not hasattr(patcher, gone)


class TestOneTick:
    def test_what_left_with_the_tick_conversions(self):
        """A ``Timestamp`` is its tick, an ``int``: the bridges between an
        object and a raw int are gone with no alias -- ``to_raw``, the
        interning cache, the comparison coercion, the relation's raw split,
        the table's raw pairs and the aggregates' float stand-in for ∞."""
        import repro.core.aggregates
        import repro.core.columnar
        import repro.core.relation
        import repro.core.timestamps
        import repro.engine.table
        from repro.core.timestamps import INFINITY, RAW_INFINITY, Timestamp

        timestamps = repro.core.timestamps
        for gone in ("to_raw", "_TS_CACHE", "_TS_CACHE_LIMIT", "_coerce"):
            assert not hasattr(timestamps, gone)
        assert "to_raw" not in timestamps.__all__
        assert not hasattr(repro.core.columnar, "to_raw")
        assert not hasattr(repro.core.relation, "_split_raw")
        assert not hasattr(repro.engine.table, "_raw_pairs")
        assert not hasattr(repro.core.aggregates, "_NEVER")
        assert issubclass(Timestamp, int)
        assert INFINITY == RAW_INFINITY


class TestUnreachedModules:
    def test_what_left_with_the_legacy_benchmarks(self):
        """Three modules that only the retired benchmark scripts reached
        are gone with no alias: a second answerer beside
        ``validity.QueryAnswerer`` (whose ``MOVE_BACKWARD`` serves a held
        answer at a moved time), three more executors of ``−`` beside the
        compiler's, and a web-cache workload."""
        import repro.core
        import repro.workloads

        for gone in ("repro.core.qos", "repro.core.difference_algorithms",
                     "repro.workloads.cache"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(gone)
        for name in ("QosAnswerer", "QosContract", "QosReport",
                     "StalenessBound", "DelayBound"):
            assert name not in repro.core.__all__
            assert not hasattr(repro.core, name)
        for name in ("WebCache", "CacheStats", "CACHE_SCHEMA"):
            assert name not in repro.workloads.__all__
            assert not hasattr(repro.workloads, name)
        # What stayed: the one answerer and its move policies.
        from repro.core.validity import QueryAnswerer, QueryPolicy

        assert QueryAnswerer.answer
        assert {"MOVE_BACKWARD", "MOVE_FORWARD"} <= set(QueryPolicy.__members__)


class TestOneClientServerStack:
    def test_what_left_with_the_simulated_stack(self):
        """The simulator drives the served engine's own server and client,
        so its second stack is gone with no alias: the origin server,
        replica, difference-view client and node, the message classes, the
        reliable sender/receiver and its config, and anti-entropy."""
        import importlib.util

        import repro.distributed
        import repro.errors
        from repro.server.server import ServerEnd

        for module in ("server", "client", "protocols", "node",
                       "reliability", "anti_entropy"):
            assert importlib.util.find_spec(f"repro.distributed.{module}") is None
        gone = [
            "OriginServer", "DifferenceViewServer", "Replica",
            "DifferenceViewClient", "Node", "Message", "Envelope", "Ack",
            "TupleInsert", "DeleteNotice", "Snapshot", "PatchShipment",
            "RecomputeRequest", "RecomputeResponse", "Digest",
            "RepairRequest", "RepairResponse", "ReliableSender",
            "ReliableReceiver", "ReliabilityConfig", "AntiEntropyConfig",
            "apply_repair", "bucket_hashes", "bucket_of", "build_digest",
            "build_repair", "diff_digests",
        ]
        for name in gone:
            assert name not in repro.distributed.__all__, name
            assert not hasattr(repro.distributed, name), name
        assert not hasattr(repro.errors, "ProtocolError")
        assert repro.distributed.__all__ == [
            "EventQueue", "Link", "LinkStats", "SyncReport", "BurstLoss",
            "FaultSchedule", "LinkFlap", "NodeCrash", "RetryPolicy",
            "SessionStats", "DifferenceViewSimulation", "FanOutSimulation",
            "ReplicationSimulation", "ReplicationStrategy",
            "ViewMaintenanceStrategy", "WorkloadEntry",
        ]
        from repro.distributed.simulator import _End

        assert issubclass(_End, ServerEnd)


class TestOnlyWhatAUserPathReaches:
    def test_what_left_with_the_unreached_modules(self):
        """The package keeps what ``repro.connect()`` SQL, ``repro serve``,
        the two stores, recovery, ``repro.check`` and ``repro obs`` reach.
        The select push-down rewriter (EXPLAIN printed a plan the statement
        did not run), the baselines, the demo workloads, the integrity
        constraints and helpers nothing called are gone with no alias; the
        seeded generators and the Figure 1 fixture live beside the paper
        printer in ``benchmarks/fixtures.py``."""
        import importlib.util

        import repro.core
        import repro.core.aggregates
        import repro.core.approximate
        import repro.core.monotonicity
        import repro.engine
        import repro.engine.statistics
        import repro.errors
        import repro.workloads
        import repro.workloads.streaming
        from repro.core.relation import Relation
        from repro.engine.table import Table

        for module in ("repro.core.rewriter", "repro.baselines",
                       "repro.engine.constraints", "repro.workloads.news",
                       "repro.workloads.sensors", "repro.workloads.sessions",
                       "repro.workloads.generators"):
            assert importlib.util.find_spec(module) is None, module
        for name in ("optimise", "Rewriter", "compare_plans",
                     "recomputation_pressure"):
            assert not hasattr(repro, name) and not hasattr(repro.core, name)
        for name in ("Constraint", "CheckConstraint", "KeyConstraint",
                     "ForeignKeyConstraint"):
            assert not hasattr(repro.engine, name), name
        assert not hasattr(repro.errors, "ConstraintViolation")
        assert not hasattr(Table, "add_constraint")
        assert not [family for family, _ in
                    repro.engine.statistics.ENGINE_COUNTERS.values()
                    if "constraint" in family]
        for module, name in [
            (repro.core.approximate, "approximate_count_validity"),
            (repro.core.approximate, "max_observed_error"),
            (repro.core.aggregates, "partition_invalidity"),
            (repro.core.monotonicity, "maintenance_free"),
            (Relation, "same_rows"),
            (repro.workloads.streaming.ExtentAggregate, "k_center"),
        ]:
            assert not hasattr(module, name), name
        # Still here: item 18's timeline and the suite's tolerance bands.
        assert hasattr(repro.core.aggregates, "value_timeline")
        assert "AbsoluteTolerance" in repro.core.approximate.__all__
        assert repro.workloads.__all__ == [
            "AUDIT_SCHEMA", "GRANT_SCHEMA", "LOCKOUT_SCHEMA", "TOKEN_SCHEMA",
            "AuthzStore", "declare_authz_families", "CONNECTION_SCHEMA",
            "EVENT_SCHEMA", "DistinctCount", "ExtentAggregate",
            "ReservoirSample", "StandingQuery", "StreamStore",
            "ThresholdWatch", "WindowedCount", "declare_streaming_families",
        ]
