"""Tests for the model-based fuzzer: clean runs, detection, shrinking.

The detection tests re-introduce real bug shapes (including the exact old
``Transaction._undo`` this PR fixed) via monkeypatching and assert the
fuzzer finds them and shrinks the failure -- the acceptance criterion that
the harness actually detects the bug class it was built for.
"""

import pytest

from repro.check.stateful import (
    _replay,
    generate_ops,
    run_fuzz,
)
from repro.engine.table import Table
from repro.engine.transactions import Transaction
from repro.obs.registry import MetricsRegistry

import random


class TestCleanRuns:
    @pytest.mark.parametrize("policy", ["eager", "lazy"])
    def test_fuzz_passes(self, policy):
        report = run_fuzz(101, ops=300, policy=policy)
        assert report.ok
        assert report.ops_run == 300
        assert report.summary().startswith("PASS")

    def test_generation_is_deterministic(self):
        a = generate_ops(random.Random(7), 200)
        b = generate_ops(random.Random(7), 200)
        assert a == b

    def test_metrics_published(self):
        registry = MetricsRegistry()
        run_fuzz(11, ops=120, policy="eager", registry=registry)
        text = registry.to_prom_text()
        assert 'repro_check_ops_total{op="insert"}' in text
        assert "repro_check_shrink_replays_total" in text

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            run_fuzz(1, ops=10, policy="sometimes")


def old_broken_undo(self, undo):
    """The pre-fix Transaction._undo: mutates relations directly."""
    for kind, table_name, row, previous in reversed(undo):
        table = self.database.table(table_name)
        if kind == "insert":
            if previous is None:
                table.relation.delete(row)
            else:
                table.relation.override(row, previous)
        else:
            table.relation.override(row, previous)


def forgetful_delete(self, values):
    """A delete that skips the index/listener/version bookkeeping."""
    from repro.core.tuples import make_row

    return self.relation.delete(make_row(values))


_real_override = Table.override


def maxmerge_override(self, values, expires_at=None, ttl=None):
    """The pre-fix revocation path: silently routed through max-merge.

    A shortening override is dropped on the floor -- exactly the renewal
    bug this op class exists to catch (revocations that never revoke).
    """
    from repro.core.timestamps import ts
    from repro.core.tuples import ExpiringTuple, make_row

    stamp = self.clock.now + ttl if ttl is not None else ts(expires_at)
    row = make_row(values)
    current = self.relation.expiration_or_none(row)
    if current is not None and stamp < current:
        return ExpiringTuple(row, current)  # max-merge: keep the longer
    return _real_override(self, values, expires_at=stamp)


class TestDetection:
    @pytest.mark.parametrize("policy", ["eager", "lazy"])
    def test_reverted_undo_fix_is_caught_and_shrunk(self, monkeypatch, policy):
        monkeypatch.setattr(Transaction, "_undo", old_broken_undo)
        report = run_fuzz(2, ops=400, policy=policy)
        assert not report.ok
        assert report.shrunk  # a minimal repro was produced
        assert len(report.shrunk) <= report.failure.step + 1
        # The shrunk sequence must still reproduce on a fresh database.
        assert _replay(report.shrunk, policy)[1] is not None
        # Minimality at this granularity: dropping any single op heals it.
        if len(report.shrunk) > 1:
            for index in range(len(report.shrunk)):
                candidate = (
                    report.shrunk[:index] + report.shrunk[index + 1:]
                )
                assert _replay(candidate, policy)[1] is None

    def test_bypassed_delete_is_caught(self, monkeypatch):
        monkeypatch.setattr(Table, "delete", forgetful_delete)
        report = run_fuzz(3, ops=400, policy="eager", shrink=False)
        assert not report.ok
        assert report.shrunk is None  # shrink=False reports the raw failure

    def test_failure_metrics(self, monkeypatch):
        monkeypatch.setattr(Transaction, "_undo", old_broken_undo)
        registry = MetricsRegistry()
        report = run_fuzz(2, ops=400, policy="eager", registry=registry)
        assert not report.ok
        text = registry.to_prom_text()
        assert 'repro_check_failures_total{policy="eager"} 1' in text
        assert "repro_check_shrunk_ops" in text
        assert "FAIL" in report.summary()
        assert "shrunk to" in report.summary()


class TestOverrideOp:
    """The last-write op: its oracle is ``model[t][row] = now + ttl``."""

    def test_override_ops_are_generated(self):
        ops = generate_ops(random.Random(9), 600)
        assert any(op[0] == "override" for op in ops)
        # ttl=0 (immediate revocation) must be reachable.
        assert any(op[0] == "override" and op[3] == 0
                   for op in generate_ops(random.Random(9), 5_000))

    @pytest.mark.parametrize("policy", ["eager", "lazy"])
    def test_maxmerged_override_is_caught(self, monkeypatch, policy):
        # Re-introduce the original bug: the revocation path silently
        # routed through max-merge, so shortenings never stick.  The
        # dict oracle (last-write) must diverge.
        monkeypatch.setattr(Table, "override", maxmerge_override)
        report = run_fuzz(5, ops=600, policy=policy)
        assert not report.ok
        assert any(op[0] == "override" for op in report.shrunk)

    def test_override_survives_crash_replay(self):
        # A revocation followed by a crash: recovery must not resurrect
        # the longer pre-override expiration from earlier WAL records.
        ops = [
            ("insert", "flat", (1, 1), 900),
            ("override", "flat", (1, 1), 1),
            ("crash", "clean"),
            ("advance", 2),
        ]
        assert _replay(ops, "eager", crash_points=True)[1] is None


class TestCrashPoints:
    @pytest.mark.parametrize("policy", ["eager", "lazy"])
    def test_crash_fuzz_passes(self, policy):
        report = run_fuzz(202, ops=250, policy=policy, crash_points=True)
        assert report.ok, report.summary()

    def test_crash_ops_are_generated(self):
        ops = generate_ops(random.Random(9), 600, crash_points=True)
        kinds = {op[0] for op in ops}
        assert {"crash", "checkpoint"} <= kinds
        modes = {op[1] for op in ops if op[0] == "crash"}
        assert modes == {"clean", "torn"}

    def test_typed_values_reach_the_json_row_form(self):
        """``col`` / ``pcol`` rows carry str, None, bool and float beside
        ints, so crash points replay the ``j`` row form and checkpoint a
        column of mixed types, not just packed ints."""
        ops = generate_ops(random.Random(9), 600, crash_points=True)
        drawn = {
            table: {type(op[2][1]) for op in ops
                    if op[0] == "insert" and op[1] == table}
            for table in ("flat", "col", "pcol")
        }
        assert drawn["flat"] == {int}
        assert drawn["col"] == {int, str, type(None)}
        assert drawn["pcol"] == {bool, float, int}
        failure = _replay(
            [("insert", "col", (1, "é"), 9), ("insert", "col", (1, 0), 9),
             ("insert", "pcol", (2, True), 9), ("checkpoint",),
             ("insert", "col", (3, None), 9), ("crash", "torn"),
             ("checkpoint",), ("crash", "clean")],
            "lazy", crash_points=True,
        )[1]
        assert failure is None

    def test_generation_without_crash_points_unchanged(self):
        assert generate_ops(random.Random(7), 200) == generate_ops(
            random.Random(7), 200, crash_points=False
        )

    def test_crash_ops_without_wal_rejected(self):
        failure = _replay([("crash", "clean")], "eager")[1]
        assert failure is not None
        assert "crash_points=True" in str(failure)

    def test_recovery_divergence_is_caught(self, monkeypatch):
        # Break recovery itself: physical records stop applying, so a
        # crash silently loses committed rows.  The database still passes
        # its own invariant audit (it is merely emptier), so only the
        # dict-oracle differential can catch this bug class.
        from repro.engine import recovery

        monkeypatch.setattr(
            recovery._PhysicalBatch, "flush", lambda batch: batch.pending.clear()
        )
        crash_heavy = [
            ("immortal", "flat", (1, 1)),
            ("crash", "clean"),
        ]
        failure = _replay(crash_heavy, "eager", crash_points=True)[1]
        assert failure is not None
        assert failure.op == ("crash", "clean")

    def test_wal_metrics_published(self):
        registry = MetricsRegistry()
        report = run_fuzz(
            202, ops=250, policy="eager", registry=registry,
            crash_points=True,
        )
        assert report.ok, report.summary()
        text = registry.to_prom_text()
        assert "repro_wal_bytes_appended_total" in text
        assert "repro_wal_recovery_seconds" in text


class TestCli:
    def test_main_passes(self, capsys):
        from repro.check.__main__ import main

        assert main(["--ops", "60", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "PASS seed=5 policy=eager" in out
        assert "PASS seed=5 policy=lazy" in out
        assert "repro_check_ops_total" in out

    def test_main_reports_failures(self, capsys, monkeypatch):
        from repro.check.__main__ import main

        monkeypatch.setattr(Transaction, "_undo", old_broken_undo)
        assert main(["--ops", "400", "--seed", "2", "--policy", "eager"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "shrunk to" in out


class TestColumnLookups:
    """``fill`` lifts ``flat`` and each ``part`` shard above the lookup
    floor, and a ``sql`` op's two selects let the second build and use it."""

    def test_fills_and_every_select_form_are_generated(self):
        ops = generate_ops(random.Random(9), 600)
        fills = [op[1] for op in ops if op[0] == "fill"]
        assert fills == ["flat", "part"] * 3
        forms = {type(op[2]) for op in ops if op[0] == "sql"}
        assert forms == {int, tuple, type(None)}

    @pytest.mark.parametrize("policy", ["eager", "lazy"])
    def test_the_lookup_answers_selects(self, policy):
        registry = MetricsRegistry()
        report = run_fuzz(
            20060405, ops=600, policy=policy, registry=registry, shrink=False
        )
        assert report.ok, report.summary()
        answered = registry.snapshot()[
            'repro_eval_lookup_probes_total{engine="compiled"}'
        ]
        assert answered > 0

    def test_the_cli_reports_the_count(self, capsys):
        from repro.check.__main__ import main

        assert main(["--ops", "300", "--seed", "20060405", "--policy", "eager"]) == 0
        assert "repro_eval_lookup_probes_total" in capsys.readouterr().out
