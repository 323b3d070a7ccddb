"""The benchmark's vocabulary: workloads, metrics, and how each is derived.

This is the single source of the names; ``BENCHMARK.json`` at the root of
the repo lists the same names, units, directions and bounds (a self-test
keeps the two in step).

End-to-end metrics come from untraced repetitions.  Per-layer metrics come
from traced repetitions: *times* are span self times recorded by
:mod:`benchmarks.suite.tracing`, *counts and ratios* are deltas of the
program's own ``repro_*`` registry over the timed section, or numbers the
generator knows (operation counts, file sizes).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "LayerContext",
           "layer_of", "per_layer_values"]

#: name -> the one-line reason it exists (echoed in BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "served_read": (
        "Closed-loop SELECTs through repro.connect(repro://) on a static "
        "table: frame codec, SQL parse, plan/result cache and evaluator do "
        "the work; WAL, sweep and pump do almost none."),
    "served_write": (
        "Served multi-row INSERTs of short-lived rows, RENEW, revoke and "
        "DELETE with a WAL, two live views and a subscriber: WAL append, "
        "table mutation, sweep, view refresh and pump share the time."),
    "authz_mix": (
        "In-process AuthzStore, 90% check() and 10% writes: partitioned "
        "columnar probes and incremental join views with no server, SQL or "
        "WAL, so served-path changes must not move it."),
    "stream_ingest": (
        "In-process StreamStore ingest beside standing-query reads: insert, "
        "expiration sweep and validity-guarded serving trade against each "
        "other on the same tables."),
    "crash_recovery": (
        "repro.connect(path) on a crashed directory: snapshot decode, log "
        "scan, replay through expiration, deep audit and view rebuild; it "
        "reads the WAL format that served_write appends."),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower",
             "everything un-timed a repetition needs: child start, schema "
             "and bulk load, fixture build and copy"),
    EndToEnd("throughput_ops_s", "ops/s", "higher",
             "completed operations / timed wall; the operation is the "
             "workload's unit (statement, authz op, stream event, restored "
             "row or record)"),
    EndToEnd("latency_p50_us", "us", "lower",
             "median latency of the workload's primary call: statement "
             "round trip, check(), standing-query read(), or "
             "connect(path) + first SELECT"),
    EndToEnd("peak_rss_mb", "MB", "lower",
             "high-water RSS of the process under test (server child or "
             "worker child)"),
]


class LayerContext:
    """What one traced repetition measured, for the derivations below."""

    def __init__(self, spans: dict, registry: dict, extra: dict,
                 unresolved_spans=()) -> None:
        self.spans = spans
        self.registry = registry
        self.extra = extra
        self.unresolved = set(unresolved_spans)

    def self_us(self, name: str) -> Optional[float]:
        if name in self.unresolved:
            return None
        return self.spans.get(name, {}).get("self_ns", 0) / 1e3

    def count(self, name: str) -> Optional[int]:
        if name in self.unresolved:
            return None
        return self.spans.get(name, {}).get("count", 0)

    def reg(self, family: str, label: str = "") -> float:
        """Sum of a family's series (optionally those mentioning ``label``)."""
        return sum(
            value for key, value in self.registry.items()
            if (key == family or key.startswith(family + "{")) and label in key)

    def get(self, key: str):
        """A generator-side number; 0 where the workload has no such thing."""
        value = self.extra.get(key)
        return 0 if value is None else value


def _ratio(top, bottom, scale: float = 1.0) -> Optional[float]:
    if top is None or bottom is None:
        return None
    return scale * top / bottom if bottom else 0.0


def _per_call(name: str) -> Callable[[LayerContext], Optional[float]]:
    return lambda c: _ratio(c.self_us(name), c.count(name))


def _per_op(name: str) -> Callable[[LayerContext], Optional[float]]:
    return lambda c: _ratio(c.self_us(name), c.get("ops"))


def _lookups(c: LayerContext) -> float:
    return c.reg("repro_plan_cache_hits_total") + c.reg(
        "repro_plan_cache_misses_total")


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    derive: Callable[[LayerContext], Optional[float]]


PER_LAYER: List[PerLayer] = [
    # server.protocol
    PerLayer("server.protocol.encode_us_per_frame", "us", "lower",
             _per_call("server.protocol.encode")),
    PerLayer("server.protocol.decode_us_per_frame", "us", "lower",
             _per_call("server.protocol.decode")),
    PerLayer("server.protocol.bytes_out_per_stmt", "B", "lower",
             lambda c: _ratio(c.reg("repro_server_bytes_sent_total"), c.get("ops"))),
    # server.server
    PerLayer("server.server.dispatch_self_us_per_stmt", "us", "lower",
             _per_op("server.server.dispatch")),
    PerLayer("server.server.pump_us_per_stmt", "us", "lower",
             _per_op("server.server.pump")),
    PerLayer("server.server.pump_envelopes_per_stmt", "count", "lower",
             lambda c: _ratio(c.reg("repro_server_patches_sent_total")
                              + c.reg("repro_server_invalidates_sent_total"),
                              c.get("ops"))),
    # server.session
    PerLayer("server.session.diff_us_per_pump", "us", "lower",
             lambda c: _ratio(c.self_us("server.session.diff"),
                              c.count("server.server.pump"))),
    PerLayer("server.session.patch_rows_per_envelope", "count", "lower",
             lambda c: _ratio(c.reg("repro_server_patch_rows_total"),
                              c.reg("repro_server_patches_sent_total"))),
    PerLayer("server.session.degrade_share", "ratio", "lower",
             lambda c: _ratio(
                 c.reg("repro_server_backpressure_degrades_total"),
                 c.reg("repro_server_backpressure_degrades_total")
                 + c.reg("repro_server_patches_sent_total"))),
    # server.client
    PerLayer("server.client.decode_us_per_stmt", "us", "lower",
             _per_op("server.client.decode")),
    # sql
    PerLayer("sql.parser.parse_us_per_stmt", "us", "lower",
             _per_call("sql.parser.parse")),
    PerLayer("sql.planner.plan_us_per_query", "us", "lower",
             _per_call("sql.planner.plan")),
    PerLayer("sql.executor.self_us_per_stmt", "us", "lower",
             _per_call("sql.executor.execute")),
    # core.algebra.plan_cache
    PerLayer("core.algebra.plan_cache.hit_ratio", "ratio", "higher",
             lambda c: _ratio(c.reg("repro_plan_cache_hits_total"), _lookups(c))),
    PerLayer("core.algebra.plan_cache.validity_served_ratio", "ratio", "higher",
             lambda c: _ratio(c.reg("repro_plan_cache_validity_served_total"),
                              _lookups(c))),
    PerLayer("core.algebra.plan_cache.evictions_per_1k_lookups", "count", "lower",
             lambda c: _ratio(c.reg("repro_plan_cache_evictions_total"),
                              _lookups(c), 1000.0)),
    # core.algebra.compiler
    PerLayer("core.algebra.compiler.compile_us_per_plan", "us", "lower",
             _per_call("core.algebra.compiler.compile")),
    PerLayer("core.algebra.compiler.execute_us_per_miss", "us", "lower",
             _per_call("core.algebra.compiler.execute")),
    PerLayer("core.algebra.compiler.rows_scanned_per_row_returned", "ratio", "lower",
             lambda c: _ratio(c.reg("repro_eval_tuples_scanned_total"),
                              c.reg("repro_eval_tuples_emitted_total"))),
    # engine.table (+ partitioning, expiration_index, timer_wheel)
    PerLayer("engine.table.insert_us_per_row", "us", "lower",
             _per_call("engine.table.insert")),
    PerLayer("engine.table.mutate_us_per_row", "us", "lower",
             _per_call("engine.table.mutate")),
    PerLayer("engine.database.advance_us_per_tick", "us", "lower",
             _per_call("engine.database.advance")),
    PerLayer("engine.database.rows_swept_per_tick", "count", "lower",
             lambda c: _ratio(c.reg("repro_expiration_tuples_expired_total"),
                              c.count("engine.database.advance"))),
    # engine.views / engine.maintenance
    PerLayer("engine.views.refresh_us_per_refresh", "us", "lower",
             _per_call("engine.views.refresh")),
    PerLayer("engine.views.refreshes_per_tick", "count", "lower",
             lambda c: _ratio(c.count("engine.views.refresh"),
                              c.count("engine.database.advance"))),
    PerLayer("engine.maintenance.delta_us_per_insert", "us", "lower",
             _per_call("engine.maintenance.delta")),
    # engine.wal
    PerLayer("engine.wal.append_us_per_record", "us", "lower",
             _per_call("engine.wal.append")),
    PerLayer("engine.wal.bytes_per_record", "B", "lower",
             lambda c: _ratio(c.reg("repro_wal_bytes_appended_total"),
                              c.reg("repro_wal_records_total"))),
    PerLayer("engine.wal.fsyncs_per_1k_records", "count", "lower",
             lambda c: _ratio(c.reg("repro_wal_fsyncs_total"),
                              c.reg("repro_wal_records_total"), 1000.0)),
    PerLayer("engine.wal.scan_us_per_record", "us", "lower",
             lambda c: _ratio(c.self_us("engine.wal.scan"),
                              c.get("records_replayed"))),
    # engine.recovery
    PerLayer("engine.recovery.replay_us_per_record", "us", "lower",
             lambda c: _ratio(c.self_us("engine.recovery.replay"),
                              c.get("records_replayed"))),
    PerLayer("engine.recovery.skipped_expired_share", "ratio", "higher",
             lambda c: _ratio(c.get("records_skipped_expired"),
                              c.get("records_replayed"))),
    PerLayer("engine.recovery.verify_s", "s", "lower",
             lambda c: _ratio(c.self_us("engine.recovery.verify"), 1e6)),
    PerLayer("engine.recovery.restore_views_s", "s", "lower",
             lambda c: _ratio(c.self_us("engine.recovery.restore_views"), 1e6)),
    # engine.persistence
    PerLayer("engine.persistence.snapshot_load_us_per_row", "us", "lower",
             lambda c: _ratio(c.self_us("engine.persistence.snapshot_load"),
                              c.get("snapshot_rows"))),
    PerLayer("engine.persistence.snapshot_bytes_per_row", "B/row", "lower",
             lambda c: _ratio(c.get("snapshot_bytes"), c.get("snapshot_rows"))),
    # workloads.authz
    PerLayer("workloads.authz.check_direct_us", "us", "lower",
             _per_call("workloads.authz.check_direct")),
    PerLayer("workloads.authz.check_hierarchy_us", "us", "lower",
             _per_call("workloads.authz.check_hierarchy")),
    PerLayer("workloads.authz.check_deny_us", "us", "lower",
             _per_call("workloads.authz.check_deny")),
    PerLayer("workloads.authz.write_us_per_op", "us", "lower",
             _per_call("workloads.authz.write")),
    PerLayer("workloads.authz.allow_ratio", "ratio", "higher",
             lambda c: _ratio(c.get("allowed"), c.get("checks"))),
    # workloads.streaming
    PerLayer("workloads.streaming.ingest_us_per_event", "us", "lower",
             _per_call("workloads.streaming.ingest")),
    PerLayer("workloads.streaming.touch_us_per_op", "us", "lower",
             _per_call("workloads.streaming.touch")),
    PerLayer("workloads.streaming.read_cached_us", "us", "lower",
             _per_call("workloads.streaming.read_cached")),
    PerLayer("workloads.streaming.read_refresh_us", "us", "lower",
             _per_call("workloads.streaming.read_refresh")),
    PerLayer("workloads.streaming.cached_serve_ratio", "ratio", "higher",
             lambda c: _ratio(
                 c.reg("repro_streaming_query_serves_total", "cached"),
                 c.reg("repro_streaming_query_serves_total"))),
    PerLayer("workloads.streaming.resident_tuples_max", "count", "lower",
             lambda c: c.get("resident_tuples_max")),
    # the suite's own accounting (filled in by the harness, not derived here)
    PerLayer("trace.overhead_share", "ratio", "lower",
             lambda c: c.get("trace_overhead_share")),
    PerLayer("trace.unattributed_share", "ratio", "lower",
             lambda c: c.get("trace_unattributed_share")),
    # user-visible numbers kept here, unbounded: the tail percentiles spread
    # wider over ten seeds on this box than a third of the widest bound the
    # driver allows, and the others exist on one or two workloads only while
    # the driver wants every bounded metric from all
    PerLayer("failed_ops_share", "ratio", "lower",
             lambda c: c.get("failed_ops_share")),
    PerLayer("latency_p95_us", "us", "lower",
             lambda c: c.get("latency_p95_us")),
    PerLayer("latency_p99_us", "us", "lower",
             lambda c: c.get("latency_p99_us")),
    PerLayer("time_to_ready_s", "s", "lower",
             lambda c: c.get("time_to_ready_s")),
    PerLayer("patch_lag_p50_us", "us", "lower",
             lambda c: c.get("patch_lag_p50_us")),
    PerLayer("disk_bytes_per_row", "B/row", "lower",
             lambda c: c.get("disk_bytes_per_row")),
]


def layer_of(span_name: str) -> str:
    """``engine.table.insert`` -> ``engine.table``."""
    return span_name.rpartition(".")[0]


def per_layer_values(context: LayerContext) -> Dict[str, Optional[float]]:
    return {metric.name: metric.derive(context) for metric in PER_LAYER}
