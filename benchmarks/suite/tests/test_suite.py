"""The suite measures what it says, repeatably, and fails loudly.

Run from the repo root: ``PYTHONPATH=src python -m pytest
benchmarks/suite/tests``.  The smoke invocations take about ten seconds
each; they are shared by the tests through a module-scoped fixture.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.suite import compare, harness, spec
from benchmarks.suite.generate import GENERATORS, stream_hash

REPO_ROOT = Path(__file__).resolve().parents[3]
SMOKE_BUDGET_S = 30.0

#: Per-layer metrics a workload must exercise (read non-zero): the
#: interaction table of the README, as data.
EXERCISED = {
    "served_read": [
        "server.protocol.encode_us_per_frame", "server.protocol.decode_us_per_frame",
        "server.protocol.bytes_out_per_stmt", "server.server.dispatch_self_us_per_stmt",
        "server.client.decode_us_per_stmt", "sql.parser.parse_us_per_stmt",
        "sql.planner.plan_us_per_query", "sql.executor.self_us_per_stmt",
        "core.algebra.plan_cache.hit_ratio", "core.algebra.compiler.compile_us_per_plan",
        "core.algebra.compiler.execute_us_per_miss",
        "core.algebra.compiler.rows_scanned_per_row_returned",
        "latency_p95_us", "latency_p99_us",
    ],
    "served_write": [
        "server.server.pump_us_per_stmt", "server.server.pump_envelopes_per_stmt",
        "server.session.diff_us_per_pump", "server.session.patch_rows_per_envelope",
        "sql.parser.parse_us_per_stmt", "engine.table.insert_us_per_row",
        "engine.table.mutate_us_per_row", "engine.database.advance_us_per_tick",
        "engine.views.refresh_us_per_refresh", "engine.views.refreshes_per_tick",
        "engine.wal.append_us_per_record", "engine.wal.bytes_per_record",
        "patch_lag_p50_us", "disk_bytes_per_row",
    ],
    "authz_mix": [
        "engine.table.insert_us_per_row", "engine.table.mutate_us_per_row",
        "engine.maintenance.delta_us_per_insert", "workloads.authz.check_direct_us",
        "workloads.authz.check_hierarchy_us", "workloads.authz.check_deny_us",
        "workloads.authz.write_us_per_op", "workloads.authz.allow_ratio",
    ],
    "stream_ingest": [
        "engine.table.insert_us_per_row", "engine.database.advance_us_per_tick",
        "engine.database.rows_swept_per_tick",
        "workloads.streaming.ingest_us_per_event", "workloads.streaming.touch_us_per_op",
        "workloads.streaming.read_cached_us", "workloads.streaming.read_refresh_us",
        "workloads.streaming.cached_serve_ratio",
        "workloads.streaming.resident_tuples_max",
    ],
    "crash_recovery": [
        "engine.wal.scan_us_per_record", "engine.recovery.replay_us_per_record",
        "engine.recovery.verify_s", "engine.recovery.restore_views_s",
        "engine.persistence.snapshot_load_us_per_row",
        "engine.persistence.snapshot_bytes_per_row", "time_to_ready_s",
        "disk_bytes_per_row",
    ],
}
#: Counts that must repeat exactly for one seed (no clock in them).
EXACT = [
    "core.algebra.plan_cache.hit_ratio",
    "core.algebra.compiler.rows_scanned_per_row_returned",
    "engine.wal.bytes_per_record", "engine.recovery.skipped_expired_share",
    "engine.database.rows_swept_per_tick", "workloads.authz.allow_ratio",
    "workloads.streaming.cached_serve_ratio", "disk_bytes_per_row",
]


def suite(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", *args], cwd=REPO_ROOT,
        env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two traced smoke runs of one seed: ``(first, second, seconds)``."""
    out = tmp_path_factory.mktemp("suite")
    results, elapsed = [], []
    for name in ("a.json", "b.json"):
        started = time.monotonic()
        done = suite("run", "--smoke", "--trace", "--seed", "7",
                     "--out", str(out / name))
        elapsed.append(time.monotonic() - started)
        assert done.returncode == 0, done.stdout + done.stderr
        results.append(json.loads((out / name).read_text()))
    return results[0], results[1], max(elapsed)


def test_smoke_is_quick_and_emits_every_metric(smoke):
    result, _, seconds = smoke
    assert seconds < SMOKE_BUDGET_S
    assert list(result["workloads"]) == list(spec.WORKLOADS)
    for name, workload in result["workloads"].items():
        assert workload["verdict"] == "ok" and workload["failed"] == 0
        for metric in spec.END_TO_END:
            assert workload["end_to_end"][metric.name]["value"] > 0, (name, metric.name)
        assert set(workload["per_layer"]) == {m.name for m in spec.PER_LAYER}
        for metric, stat in workload["per_layer"].items():
            assert stat["value"] is not None, (name, metric)
        for metric in EXERCISED[name]:
            assert workload["per_layer"][metric]["value"] > 0, (name, metric)
        assert abs(sum(workload["layer_share"].values()) - 1.0) < 1e-9
    exercised = {m for metrics in EXERCISED.values() for m in metrics}
    never = {m.name for m in spec.PER_LAYER} - exercised - {
        # zero unless something goes wrong, or only at full scale
        "server.session.degrade_share", "engine.wal.fsyncs_per_1k_records",
        "core.algebra.plan_cache.validity_served_ratio",
        "core.algebra.plan_cache.evictions_per_1k_lookups",
        "engine.recovery.skipped_expired_share", "failed_ops_share",
        "trace.overhead_share", "trace.unattributed_share"}
    assert not never, f"no workload exercises {sorted(never)}"


def test_same_seed_same_stream_and_counts(smoke):
    first, second, _ = smoke
    for name in spec.WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["stream_hash"] == b["stream_hash"]
        for metric in EXACT:
            assert a["per_layer"][metric]["value"] == b["per_layer"][metric]["value"], (
                name, metric)


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_seed_decides_the_stream(workload):
    generate = GENERATORS[workload]
    assert stream_hash(generate(5, 0.02)) == stream_hash(generate(5, 0.02))
    assert stream_hash(generate(5, 0.02)) != stream_hash(generate(6, 0.02))


def _rep(segments, spins, latencies, calls_at_cut):
    return {"ops": 100, "segments": segments, "spins": spins,
            "latencies": latencies, "calls_at_cut": calls_at_cut,
            "setup_s": 1.0, "setup_spins": [harness.QUIET_SPIN_S] * 2,
            "peak_rss_mb": 10.0}


def test_the_floor_sees_through_disturbed_repetitions():
    quiet = harness.QUIET_SPIN_S
    clean = _rep([1.0, 1.0], [quiet] * 3, [0.1, 0.1, 0.1, 0.1], [2, 4])
    # Each repetition has one segment (and its calls) slowed by half, a
    # different one each: the floor takes every segment where it ran clean.
    first = _rep([1.5, 1.0], [quiet] * 3, [0.15, 0.15, 0.1, 0.1], [2, 4])
    second = _rep([1.0, 1.5], [quiet] * 3, [0.1, 0.1, 0.15, 0.15], [2, 4])
    assert harness.estimate([first, second]) == harness.estimate([clean])
    assert harness.estimate([clean])["throughput_ops_s"] == 50.0
    # Slowed throughout, and the spins say the machine was: scaled down by
    # the slowdown beyond the quiet spin, never by more.
    slow = _rep([1.5, 1.5], [quiet * 1.5] * 3, [0.15] * 4, [2, 4])
    slow["setup_s"], slow["setup_spins"] = 1.5, [quiet * 1.5, quiet * 1.6]
    assert harness.estimate([slow]) == pytest.approx(harness.estimate([clean]))
    # Spins faster than the quiet box never scale a time up or down.
    brisk = _rep([1.0, 1.0], [quiet / 2] * 3, [0.1] * 4, [2, 4])
    assert harness.estimate([brisk]) == harness.estimate([clean])
    # A slowdown the spins do not vouch for stays in the number.
    regressed = _rep([1.5, 1.5], [quiet] * 3, [0.15] * 4, [2, 4])
    assert harness.estimate([regressed])["latency_p50_us"] == pytest.approx(150_000)


def _slowed(result: dict, workload: str, metric: str, factor: float) -> dict:
    slower = copy.deepcopy(result)
    stat = slower["workloads"][workload]["end_to_end"][metric]
    stat["value"] *= factor
    for key in ("raw", "halves"):
        stat[key] = [value * factor for value in stat[key]]
    return slower


def test_compare_accepts_itself_and_flags_a_slowdown(smoke, tmp_path, capsys):
    result, _, _ = smoke
    bounds = compare.load_bounds()
    # A 20 % regression is flagged wherever the bound is tighter than that
    # (memory); the time bounds are the driver's ceiling of 0.25 on this
    # box (README, "Bounds"), so there the line is five points either side
    # of the bound.
    slower = _slowed(result, "served_read", "peak_rss_mb", 1.2)
    beyond = 1 + bounds["latency_p50_us"]["bound"] + 0.05
    slower = _slowed(slower, "authz_mix", "latency_p50_us", beyond)
    slower = _slowed(slower, "served_write", "latency_p50_us", beyond - 0.1)
    slower["workloads"]["stream_ingest"]["failed"] = 3
    paths = {}
    for name, document in (("same", result), ("slower", slower)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(document))
    same = argparse.Namespace(a=str(paths["same"]), b=str(paths["same"]))
    assert compare.compare_command(same) == 0
    rows = compare.compare_results(result, slower, bounds)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdicts[("served_read", "peak_rss_mb")] == "worse"
    assert verdicts[("authz_mix", "latency_p50_us")] == "worse"
    assert verdicts[("served_write", "latency_p50_us")] == "same"
    assert verdicts[("stream_ingest", "failed_ops_share")] == "worse"
    assert verdicts[("served_read", "latency_p50_us")] == "same"
    regressed = argparse.Namespace(a=str(paths["same"]), b=str(paths["slower"]))
    assert compare.compare_command(regressed) == 1
    capsys.readouterr()


def test_driver_entry_point_prints_the_contract_line(tmp_path):
    """``run.py`` as the driver calls it: no PYTHONPATH, one JSON line."""
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, "benchmarks/suite/run.py", "--workload",
               "stream_ingest", "--seed", "7", "--seconds", "0.2", "--trace"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(command + [trace], cwd=REPO_ROOT, env=env,
                              capture_output=True, text=True, timeout=170)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in document[section]}
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in line["metrics"].values())
    # Where only BENCHMARK.json and the files under ``paths`` exist there is
    # no program to measure: no result line, non-zero exit.
    bare = tmp_path / "bare"
    shutil.copytree(REPO_ROOT / "benchmarks" / "suite",
                    bare / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(command + ["0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode != 0 and not done.stdout.strip()


def test_unresolvable_entry_point_reads_null_not_crash():
    # In a child process: installing wrappers rebinds repro's functions.
    script = (
        "from benchmarks.suite import spec, tracing\n"
        "tracing.TARGETS['inprocess'].append("
        "('repro.engine.moved_away.Table.insert', 'engine.table.insert'))\n"
        "tracer = tracing.Tracer(); tracer.install('inprocess')\n"
        "assert tracer.unresolved == ['engine.table.insert'], tracer.unresolved\n"
        "context = spec.LayerContext({}, {}, {'ops': 1}, tracer.unresolved)\n"
        "values = spec.per_layer_values(context)\n"
        "assert values['engine.table.insert_us_per_row'] is None\n"
        "assert values['engine.table.mutate_us_per_row'] == 0.0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "no longer resolves" in done.stderr


def test_benchmark_json_matches_the_spec():
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert document["paths"] == ["benchmarks/suite"]
    assert {w["name"]: w["why"] for w in document["workloads"]} == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in document["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
