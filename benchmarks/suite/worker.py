"""One group of repetitions of one workload, in a fresh process.

``python -m benchmarks.suite.worker JOB.pickle GROUP.json OUT.pickle`` --
the harness starts one of these per group.  Every repetition of a group
begins from identical state: a served workload talks to a fresh
``python -m repro serve`` child per repetition; an in-process workload
builds its state once (that is the group's ``setup_s``) and runs each
repetition in a forked copy of it, so a repetition costs its timed
section and little else and peak RSS is still per repetition.

A repetition reports, besides its totals, the time of every *segment* (a
fixed run of consecutive operations) and of every primary call: all
repetitions run the same operations from the same state, so the harness
can take each segment's and each call's fastest instance across them.

The runners touch only the engine's supported surface: ``repro.connect``,
``python -m repro serve`` flags, ``Session``/``Subscription``,
``AuthzStore``, ``StreamStore`` and ``Database.create_table/checkpoint``.
Everything an oracle needs happens with the stopwatch paused or after it
stopped.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
import warnings
from array import array
from pathlib import Path
from time import perf_counter

from benchmarks.suite import generate as g
from benchmarks.suite.generate import digest

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
SERVER_START_TIMEOUT = 60.0
#: Repetitions a group runs even when its time share has run out.
MIN_REPS = 2


def peak_rss_mb(pid="self") -> float:
    """High-water RSS of a process, from ``VmHWM`` in its /proc status.

    Not ``ru_maxrss``: across ``exec`` that keeps the high-water mark of
    the image the child was forked from, i.e. the harness's own size.
    """
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def spin(rounds: int = 10_000) -> float:
    """Seconds a fixed piece of pure-Python work takes right now."""
    begun = perf_counter()
    total = 0
    for number in range(rounds):
        total += number
    return perf_counter() - begun


def pace() -> float:
    """The machine's pace right now: the median of three spins."""
    return sorted(spin() for _ in range(3))[1]


class Segments:
    """The timed section, cut into segments with a calibration spin between.

    ``times[k]`` is the duration of segment k (less what the caller says
    was paused in it); ``spins[k]`` and ``spins[k + 1]`` are how long
    :func:`spin` took just before and just after it, which tells how fast
    the machine was running at that moment.  Spins are not part of any
    segment.  ``calls_at_cut[k]`` is how many primary calls had been timed
    when segment k ended, so each call can be put next to its spins too.
    """

    def __init__(self) -> None:
        self.times = array("d")
        self.calls_at_cut = array("l")
        self.spins = array("d", [spin()])
        self._paused = 0.0
        self._begun = perf_counter()

    def cut(self, calls: int, paused: float = 0.0) -> None:
        """End the running segment here and start the next.

        ``calls`` is the number of primary calls timed so far, ``paused``
        the stopwatch's total paused time so far.
        """
        now = perf_counter()
        self.times.append(now - self._begun - (paused - self._paused))
        self.calls_at_cut.append(calls)
        self._paused = paused
        self.spins.append(spin())
        self._begun = perf_counter()

    def report(self) -> dict:
        return {"segments": self.times, "spins": self.spins,
                "calls_at_cut": self.calls_at_cut}


def rep_indices(group):
    """0, 1, ... up to the group's repetition count or its time share."""
    for index in range(group["reps"]):
        if index >= MIN_REPS and time.time() > group["deadline"]:
            return
        yield index


def fork_reps(group, timed):
    """``timed()`` in one forked child per repetition, one after another.

    The child inherits the state this process has built, copy on write, so
    every repetition starts from the same one; this process only waits.
    """
    workdir = Path(group["workdir"])
    # Frozen objects are never visited by the child's collector, which
    # would otherwise write to (and so copy) every page of the base state,
    # and collections during the timed section scan only what it allocated.
    gc.collect()
    gc.freeze()
    setup = {"setup_s": time.time() - group["spawned_at"],
             "setup_spins": [group["pace_at_start"], pace()]}
    reps = []
    for index in rep_indices(group):
        path = workdir / f"rep-{index}.pickle"
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out, failures, trace = timed(index)
                out.update(setup, peak_rss_mb=peak_rss_mb(),
                           failed=failures.count,
                           failure_notes=failures.notes, trace=trace)
                with open(path, "wb") as handle:
                    pickle.dump(out, handle, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"repetition {index} ended with status {status}")
        with open(path, "rb") as handle:
            reps.append(pickle.load(handle))  # written by our own child
        path.unlink()
    return reps


class Failures:
    """Raised, refused and oracle-mismatched operations, with the first few."""

    def __init__(self) -> None:
        self.count = 0
        self.notes = []

    def add(self, note: str) -> None:
        self.count += 1
        if len(self.notes) < 5:
            self.notes.append(note)


# -- the served engine as a child process -----------------------------------


class ServerChild:
    """``python -m repro serve --port 0 ...`` (or the traced stand-in)."""

    def __init__(self, workdir: Path, durable: bool, traced: bool) -> None:
        self.traced = traced
        self.trace_path = workdir / "server_trace.json"
        self.wal_dir = workdir / "wal" if durable else None
        flags = ["--port", "0"]
        if durable:
            # The default policy: autocommit statements are flushed to the
            # OS but not fsynced; the same on both sides of any comparison.
            flags += ["--wal-dir", str(self.wal_dir), "--fsync", "commit"]
        if traced:
            command = [sys.executable, str(SUITE_DIR / "serve_child.py"),
                       "--trace-out", str(self.trace_path)] + flags
        else:
            command = [sys.executable, "-m", "repro", "serve"] + flags
        self.log_path = workdir / "server.stderr"
        self._log = open(self.log_path, "wb")
        # The environment (PYTHONPATH, no REPRO_NUMPY) is the harness's.
        self.process = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=self._log,
            cwd=str(REPO_ROOT))
        self.url = self._await_url()
        self.marks = 0

    def _await_url(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("serving repro://"):
                    return line.split()[1]
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(
            "server child did not start: "
            + self.log_path.read_text(errors="replace")[-2000:])

    def mark(self) -> None:
        """Tell the traced child that the timed section starts or ends."""
        if not self.traced:
            return
        self.marks += 1
        flag = Path(f"{self.trace_path}.mark{self.marks}")
        os.kill(self.process.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not flag.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server child ignored the mark")
            time.sleep(0.002)

    def disk_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.wal_dir.iterdir() if p.is_file())

    def stop(self) -> dict:
        """SIGINT, wait, and return the traced child's report (if any)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()
        if self.traced and self.trace_path.exists():
            return json.loads(self.trace_path.read_text())
        return {}


def _tracer(traced: bool, role: str):
    """A tracer with ``role``'s wrappers installed, or ``None`` untraced."""
    if not traced:
        return None
    from benchmarks.suite.tracing import Tracer

    tracer = Tracer()
    tracer.install(role)
    return tracer


def _merge_trace(tracer, first, last, server_report):
    """Generator-side spans plus the server child's, one dict."""
    spans = tracer.fold(first, last)
    for name, entry in server_report.get("spans", {}).items():
        mine = spans.setdefault(name, {"count": 0, "self_ns": 0})
        for key in mine:
            mine[key] += entry[key]
    return {
        "spans": spans,
        "registry": server_report.get("registry", {}),
        "unresolved": tracer.unresolved + server_report.get("unresolved", []),
    }


SERVED_SEGMENT = 16  # statements per segment, 10-20 ms


class quiet_generator:
    """The load generator's cyclic collector, off while it times requests.

    The generator of a served workload is not the program under test, and
    the replies it keeps for the oracle would otherwise make its
    collections ever longer.
    """

    def __enter__(self):
        gc.collect()
        gc.disable()

    def __exit__(self, *exc):
        gc.enable()


def served_read_rep(job, group, index, tracer):
    import repro

    traced = tracer is not None
    workdir = Path(group["workdir"]) / f"rep-{index}"
    workdir.mkdir()
    begun_setup, pace_before = time.time(), pace()
    server = ServerChild(workdir, durable=False, traced=traced)
    failures = Failures()
    try:
        session = repro.connect(server.url)
        for sql in job["load"]:
            session.execute(sql)
        for sql in job["warmup"]:
            session.query(sql)
        calls = [(session.execute if sql.startswith("ADVANCE") else session.query,
                  sql) for sql in job["ops"]]
        latencies, results = array("d"), []
        server.mark()
        first = tracer.mark() if traced else 0
        setup = {"setup_s": time.time() - begun_setup,
                 "setup_spins": [pace_before, pace()]}
        with quiet_generator():
            timed = Segments()
            for number, (call, sql) in enumerate(calls, 1):
                if traced:
                    tracer.current_request = number
                begun = perf_counter()
                try:
                    result = call(sql)
                except Exception as error:  # a refused statement is a failed op
                    result = error
                latencies.append(perf_counter() - begun)
                results.append(result)
                if number % SERVED_SEGMENT == 0 or number == len(calls):
                    timed.cut(number)
        last = tracer.mark() if traced else 0
        server.mark()
        for sql, result, expected in zip(job["ops"], results, job["expect"]):
            if isinstance(result, Exception):
                failures.add(f"{sql[:60]}: {result!r}")
            elif expected is not None:
                got = (len(result.rows), digest(result.rows))
                if got != expected:
                    failures.add(f"{sql[:60]}: rows {got} != model {expected}")
        rss = peak_rss_mb(server.process.pid)
        session.close()
    finally:
        report = server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"ops": len(calls), **timed.report(),
            "latencies": latencies, **setup, "peak_rss_mb": rss,
            "failed": failures.count, "failure_notes": failures.notes,
            "trace": _merge_trace(tracer, first, last, report) if traced else None}


def served_write_rep(job, group, index, tracer):
    import repro

    traced = tracer is not None
    workdir = Path(group["workdir"]) / f"rep-{index}"
    workdir.mkdir()
    begun_setup, pace_before = time.time(), pace()
    server = ServerChild(workdir, durable=True, traced=traced)
    failures = Failures()
    seen, drain, ready = {}, threading.Event(), threading.Event()
    subscriber_state = {}

    def subscriber():
        # One connection holding all three patch streams, polled from its
        # own thread; it notes when each probe row first becomes readable.
        with repro.connect(server.url) as watcher:
            subs = {name: watcher.subscribe(name) for name in job["views"]}
            probe = subs["p_view"]
            ready.set()
            quiet = False
            while not (drain.is_set() and quiet):
                quiet = watcher.poll(0.05) == 0
                if not quiet:
                    now = perf_counter()
                    for (probe_id,) in probe.read():
                        if probe_id not in seen:
                            seen[probe_id] = now
            # Observe the final clock, then take the patched end state.
            watcher.query("SELECT id FROM P")
            watcher.poll(0.05)
            for name, sub in subs.items():
                subscriber_state[name] = sub.read()

    try:
        session = repro.connect(server.url)
        for sql in job["load"]:
            session.execute(sql)
        thread = threading.Thread(target=subscriber, daemon=True)
        thread.start()
        if not ready.wait(30):
            raise RuntimeError("subscriber never became ready")
        calls = [(session.query if sql.startswith("SELECT") else session.execute,
                  sql, probe) for sql, probe in job["ops"]]
        latencies, results, sent = array("d"), [], {}
        server.mark()
        first = tracer.mark() if traced else 0
        setup = {"setup_s": time.time() - begun_setup,
                 "setup_spins": [pace_before, pace()]}
        with quiet_generator():
            timed = Segments()
            for number, (call, sql, probe) in enumerate(calls, 1):
                if traced:
                    tracer.current_request = number
                begun = perf_counter()
                try:
                    result = call(sql)
                except Exception as error:
                    result = error
                latencies.append(perf_counter() - begun)
                results.append(result)
                if probe is not None:
                    sent[probe] = begun
                if number % SERVED_SEGMENT == 0 or number == len(calls):
                    timed.cut(number)
        last = tracer.mark() if traced else 0
        server.mark()
        drain.set()
        thread.join(30)
        if thread.is_alive():
            raise RuntimeError("subscriber did not drain")
        for (sql, _), result, expected in zip(job["ops"], results, job["expect"]):
            if isinstance(result, Exception):
                failures.add(f"{sql[:60]}: {result!r}")
            elif isinstance(expected, int) and result.rowcount != expected:
                failures.add(f"{sql[:60]}: rowcount {result.rowcount} "
                             f"!= model {expected}")
            elif isinstance(expected, tuple) and (
                    len(result.rows), digest(result.rows)) != expected:
                failures.add(f"{sql[:60]}: revoked rows still served: "
                             f"{result.rows[:3]}")
        final = session.query("SELECT k, g, v FROM W").rows
        if (len(final), digest(final)) != job["expect_final"]:
            failures.add(f"final table: {len(final)} rows != model "
                         f"{job['expect_final'][0]}")
        for name in job["views"]:
            direct = sorted(session.query(f"SELECT * FROM {name}").rows)
            if subscriber_state.get(name) != direct:
                failures.add(f"view {name}: subscriber holds "
                             f"{len(subscriber_state.get(name) or ())} rows, "
                             f"server {len(direct)}")
        # In probe order: the harness takes each probe's fastest instance.
        lags = array("d", (seen[p] - sent[p] for p in sorted(sent) if p in seen))
        if len(lags) < len(sent):
            failures.add(f"{len(sent) - len(lags)} probe rows never reached "
                         f"the subscriber")
        rss = peak_rss_mb(server.process.pid)
        disk = server.disk_bytes()
        session.close()
    finally:
        drain.set()
        report = server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    return {"ops": len(calls), **timed.report(),
            "latencies": latencies, **setup, "peak_rss_mb": rss,
            "patch_lags": lags,
            "disk_bytes_per_row": disk / job["rows_acked"],
            "failed": failures.count, "failure_notes": failures.notes,
            "trace": _merge_trace(tracer, first, last, report) if traced else None}


def served_group(rep_runner):
    """One generator process, one fresh server child per repetition."""
    def run(job, group):
        tracer = _tracer(group["traced"], "client")
        return [rep_runner(job, group, index, tracer)
                for index in rep_indices(group)]
    return run


# -- in-process workloads ---------------------------------------------------


def _registry_numbers(registry) -> dict:
    return {key: value for key, value in registry.snapshot().items()
            if isinstance(value, (int, float))}


def _registry_delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if value != before.get(key, 0)}


def _inprocess_trace(tracer, first, last, before, registry):
    return {"spans": tracer.fold(first, last),
            "registry": _registry_delta(before, _registry_numbers(registry)),
            "unresolved": tracer.unresolved}


def _build_authz(job):
    from repro.workloads.authz import AuthzStore

    store = AuthzStore(partitions=8)
    store.load_grants(iter(job["load"]))
    long_ttl = g.AUTHZ_LONG_TTL[1]
    for role in range(g.AUTHZ_ROLES):
        for grant in range(g.AUTHZ_ROLE_GRANTS):
            store.grant_role(f"role{role}", "read", f"shared{role}_{grant}",
                             ttl=long_ttl)
    for group in range(g.AUTHZ_GROUPS):
        store.map_group_role(f"grp{group}", f"role{group}", ttl=long_ttl)
    for member in range(g.AUTHZ_MEMBERS):
        if member % 2:
            store.assign_role(f"m{member}", f"role{member % g.AUTHZ_ROLES}",
                              ttl=long_ttl)
        else:
            store.join_group(f"m{member}", f"grp{member % g.AUTHZ_GROUPS}",
                             ttl=long_ttl)
    for token in range(job["tokens"]):
        store.issue_token(f"tok{token}", f"u{token}")
    store.warm_views()
    return store


def _authz_writers(store):
    """op code -> callable(op), for everything that is not a check."""
    return {
        g.GRANT: lambda op: store.grant(op[1], op[2], op[3], ttl=op[4]),
        g.RENEW: lambda op: store.renew_grant(op[1], op[2], op[3], ttl=op[4]),
        g.REFRESH: lambda op: store.refresh_token(op[1], op[2]),
        g.REVOKE: lambda op: store.revoke(op[1], op[2], op[3]),
        g.LOCK: lambda op: store.lock_out(op[1], ttl=op[2]),
        g.AUDIT: lambda op: store.audit(op[1], op[2]),
        g.ASSIGN: lambda op: store.assign_role(op[1], op[2], ttl=op[4]),
        g.TICK: lambda op: store.database.tick(op[1]),
    }


AUTHZ_SEGMENT = 2_000  # ops per segment, 10-20 ms


def authz_mix_group(job, group):
    tracer = _tracer(group["traced"], "inprocess")
    store = _build_authz(job)
    check, writers = store.check, _authz_writers(store)
    ops = job["ops"]
    chunks = [ops[at:at + AUTHZ_SEGMENT]
              for at in range(0, len(ops), AUTHZ_SEGMENT)]

    def timed(index):
        latencies, results = array("d"), []
        before = _registry_numbers(store.database.metrics) if tracer else None
        first = tracer.mark() if tracer else 0
        timed = Segments()
        if tracer is None:
            for chunk in chunks:
                for op in chunk:
                    if op[0] == g.CHECK:
                        begun = perf_counter()
                        allowed = check(op[1], op[2], op[3])
                        latencies.append(perf_counter() - begun)
                        results.append(allowed)
                    else:
                        writers[op[0]](op)
                        results.append(None)
                timed.cut(len(latencies))
        else:
            names = [tracer.name_id(f"workloads.authz.check_{cls}")
                     for cls in ("direct", "hierarchy", "deny")]
            write_id = tracer.name_id("workloads.authz.write")
            number = 0
            for chunk in chunks:
                for op in chunk:
                    tracer.current_request = number
                    number += 1
                    if op[0] == g.CHECK:
                        span = tracer.begin(names[op[4]])
                        begun = perf_counter()
                        allowed = check(op[1], op[2], op[3])
                        latencies.append(perf_counter() - begun)
                        tracer.finish(span)
                        results.append(allowed)
                    elif op[0] == g.TICK:
                        writers[g.TICK](op)  # charged to engine.database.advance
                        results.append(None)
                    else:
                        span = tracer.begin(write_id)
                        writers[op[0]](op)
                        tracer.finish(span)
                        results.append(None)
                timed.cut(len(latencies))
        last = tracer.mark() if tracer else 0
        failures = Failures()
        checks = allowed_count = 0
        for op, got, expected in zip(ops, results, job["expect"]):
            if expected is None:
                continue
            checks += 1
            allowed_count += got
            if got != expected:
                failures.add(f"check{op[1:4]}: {got} != model {expected}")
        out = {"ops": len(ops), **timed.report(),
               "latencies": latencies, "checks": checks,
               "allowed": allowed_count}
        trace = _inprocess_trace(tracer, first, last, before,
                                 store.database.metrics) if tracer else None
        return out, failures, trace

    return fork_reps(group, timed)


STREAM_SEGMENT = 400  # entries of the op list per segment, 10-20 ms


def stream_ingest_group(job, group):
    import random

    from repro.core.approximate import AbsoluteTolerance
    from repro.workloads.streaming import (
        CONNECTION_SCHEMA, EVENT_SCHEMA, StreamStore)

    tracer = _tracer(group["traced"], "inprocess")
    store = StreamStore()
    store.create_stream("Events", EVENT_SCHEMA, ttl=g.STREAM_TTL[1],
                        partitions=4, partition_key="key")
    store.create_stream("Conns", CONNECTION_SCHEMA, ttl=g.STREAM_IDLE_TIMEOUT,
                        expiry="since_last_modification")
    exact = store.count("Events", name="Events:exact")
    approx = store.count("Events", name="Events:approx",
                         tolerance=AbsoluteTolerance(g.STREAM_TOLERANCE))
    sample = store.sample("Events", 64, rng=random.Random(job["sample_seed"]))
    queries = [exact, approx, store.distinct("Events", "key"),
               store.extent("Events", "value"), sample]
    events = store.stream("Events")
    ingest, touch, tick = store.ingest, store.touch, store.database.tick
    if tracer:
        ingest_id = tracer.name_id("workloads.streaming.ingest")
        touch_id = tracer.name_id("workloads.streaming.touch")
        read_ids = (tracer.name_id("workloads.streaming.read_cached"),
                    tracer.name_id("workloads.streaming.read_refresh"))

    def timed(index):
        failures = Failures()

        def oracle(answers):
            """Brute force against the live table; no standing query is read.

            ``answers`` is the read round the timed loop made just before
            (the clock has not moved since), so checking it refreshes
            nothing and leaves no span or serve count in the traced section.
            """
            exact_count, approx_count, _, _, members = answers
            live = set(events.read().rows())
            if exact_count != len(live):
                failures.add(f"exact count {exact_count} != scan {len(live)}")
            if abs(approx_count - len(live)) > g.STREAM_TOLERANCE:
                failures.add(f"tolerant count {approx_count} outside "
                             f"{len(live)} +/- {g.STREAM_TOLERANCE}")
            if len(members) > 64 or not set(members) <= live:
                failures.add("sample is not a bounded subset of the live stream")

        latencies, answers = array("d"), []
        resident = checks = 0
        paused = 0.0
        before = _registry_numbers(store.database.metrics) if tracer else None
        first = tracer.mark() if tracer else 0
        timed = Segments()
        for number, op in enumerate(job["ops"]):
            if number % STREAM_SEGMENT == 0 and number:
                timed.cut(len(latencies), paused)
            code = op[0]
            if tracer and code in (g.INGEST, g.CONN, g.TOUCH):
                tracer.current_request = number
                span = tracer.begin(touch_id if code == g.TOUCH else ingest_id)
            if code == g.INGEST:
                ingest("Events", op[1], ttl=op[2])
            elif code == g.CONN:
                ingest("Conns", op[1])
            elif code == g.TOUCH:
                touch("Conns", op[1])
            elif code == g.STICK:
                tick(1)
                resident = max(resident, store.resident_tuples("Events"))
            elif code == g.READ:
                answers.clear()
                for query in queries:
                    if tracer:
                        validity = query.validity
                        span = tracer.begin(read_ids[0])
                    begun = perf_counter()
                    answers.append(query.read())
                    latencies.append(perf_counter() - begun)
                    if tracer:
                        tracer.finish(span)
                        # A refresh installs a new validity interval set.
                        if query.validity is not validity:
                            tracer.name[span] = read_ids[1]
                continue
            else:  # ORACLE: brute force against the live table, clock stopped
                begun = perf_counter()
                oracle(answers)
                checks += 1
                paused += perf_counter() - begun
                continue
            if tracer and code in (g.INGEST, g.CONN, g.TOUCH):
                tracer.finish(span)
        timed.cut(len(latencies), paused)
        last = tracer.mark() if tracer else 0
        oracle([query.read() for query in queries])
        alive = set(store.stream("Conns").read().rows())
        missing = [conn for conn in job["kept"] if conn not in alive]
        lingering = [conn for conn in job["idle"] if conn in alive]
        if missing:
            failures.add(f"{len(missing)} touched connections expired")
        if lingering:
            failures.add(f"{len(lingering)} untouched connections still alive")
        out = {"ops": job["op_count"], **timed.report(),
               "latencies": latencies, "resident_tuples_max": resident,
               "oracle_checkpoints": checks + 1}
        trace = _inprocess_trace(tracer, first, last, before,
                                 store.database.metrics) if tracer else None
        return out, failures, trace

    return fork_reps(group, timed)


def _table_digest(table, now):
    live = [(row, texp.value) for row, texp in table.relation.items() if texp > now]
    return (len(live), digest(live))


def build_crash_fixture(job, workdir):
    """The crashed directory ``crash_recovery`` repetitions recover copies of.

    Built once per group (its time is the group's ``setup_s``).  Returns
    the directory, the snapshot's size and the whole directory's size in
    bytes.
    """
    import repro
    from repro.engine.database import Database

    source = workdir / "live"
    crashed = workdir / "crashed"
    db = Database(wal_dir=source)
    tables = {
        "A": db.create_table("A", ["k", "v"]),
        "B": db.create_table("B", ["k", "v"], layout="columnar"),
        "C": db.create_table("C", ["k", "v"], partitions=4),
    }
    with repro.connect(db) as session:
        session.execute("CREATE MATERIALIZED VIEW va AS "
                        "SELECT k, v FROM A WHERE v < 20")
        session.execute("CREATE MATERIALIZED VIEW vc AS "
                        "SELECT v, COUNT(*) FROM C GROUP BY v")
    for name, row, ttl in job["base"]:
        tables[name].insert(row, ttl=ttl)
    db.checkpoint()
    snapshot_bytes = db.wal.snapshot_path.stat().st_size
    for code, name, row, ttl in job["tail"]:
        if code == g.INS:
            tables[name].insert(row, ttl=ttl)
        elif code == g.REN:
            tables[name].renew(row, ttl)
        elif code == g.OVR:
            tables[name].override(row, ttl=ttl)
        elif code == g.DEL:
            tables[name].delete(row)
        else:
            db.tick(ttl)
    # The builder's own differential: the live engine agrees with the model
    # before the crash, so a mismatch after recovery is recovery's.
    acknowledged = {name: _table_digest(table, db.now)
                    for name, table in tables.items()}
    if acknowledged != job["expect_tables"] or db.now.value != job["expect_now"]:
        raise RuntimeError("fixture diverged from the generator's model")
    # The crash: files copied while the log is open and a transaction is
    # mid-apply (its begin and upserts are logged, its commit is not), then
    # half a frame torn onto the copy's tail.
    sentinel = job["txn"][-1][1]

    def crash(table, stored):
        if stored.row == sentinel:
            shutil.copytree(source, crashed)

    tables["A"].insert_listeners.append(crash)
    txn = db.transaction()
    for name, row in job["txn"]:
        txn.insert(name, row, ttl=1_000)
    txn.commit()
    db.close()
    with open(crashed / "wal.log", "ab") as log:
        log.write(b"\x00\x00\x01\x00partial")
    disk = sum(p.stat().st_size for p in crashed.iterdir())
    return crashed, snapshot_bytes, disk


def crash_recovery_group(job, group):
    import repro

    workdir = Path(group["workdir"])
    crashed, snapshot_bytes, fixture_bytes = build_crash_fixture(job, workdir)
    # Wrappers go in after the build, which is not the workload.
    tracer = _tracer(group["traced"], "inprocess")
    warnings.simplefilter("ignore")  # the torn-tail warning is expected

    def timed(index):
        # Recovery truncates the torn tail: each repetition gets its own copy.
        copy = workdir / f"crashed-{index}"
        shutil.copytree(crashed, copy)
        first = tracer.mark() if tracer else 0
        # One call is one segment: several spins either side of it instead
        # of one between every two segments.
        spins = array("d", (spin() for _ in range(5)))
        begun = perf_counter()
        session = repro.connect(str(copy))
        session.query("SELECT k, v FROM A WHERE k = 0")
        wall = perf_counter() - begun
        spins.extend(spin() for _ in range(5))
        last = tracer.mark() if tracer else 0
        failures = Failures()
        db = session.db
        report = db.last_recovery
        for name, expected in job["expect_tables"].items():
            got = _table_digest(db.table(name), db.now)
            if got != expected:
                failures.add(f"table {name}: recovered {got} != "
                             f"acknowledged {expected}")
        if db.now.value != job["expect_now"]:
            failures.add(f"clock {db.now.value} != acknowledged "
                         f"{job['expect_now']}")
        if not report.torn_tail_truncated:
            failures.add("the torn tail was not truncated")
        if report.transactions_rolled_back != 1:
            failures.add("the open transaction was not rolled back")
        out = {"ops": job["op_count"], "segments": array("d", [wall]),
               "spins": spins, "calls_at_cut": [1],
               "latencies": array("d", [wall]), "time_to_ready_s": wall,
               "records_replayed": report.records_replayed,
               "records_skipped_expired": report.records_skipped_expired,
               "snapshot_rows": len(job["base"]),
               "snapshot_bytes": snapshot_bytes,
               "disk_bytes_per_row": fixture_bytes / job["live_rows"]}
        # A fresh recovery starts its registry at zero: the whole of it is
        # the timed section.
        trace = _inprocess_trace(tracer, first, last, {},
                                 db.metrics) if tracer else None
        session.close()
        shutil.rmtree(copy, ignore_errors=True)
        return out, failures, trace

    return fork_reps(group, timed)


RUNNERS = {
    "served_read": served_group(served_read_rep),
    "served_write": served_group(served_write_rep),
    "authz_mix": authz_mix_group,
    "stream_ingest": stream_ingest_group,
    "crash_recovery": crash_recovery_group,
}


def main(argv) -> int:
    job_path, group_path, out_path = argv
    with open(job_path, "rb") as handle:
        job = pickle.load(handle)  # written by the harness that started us
    group = json.loads(Path(group_path).read_text())
    group["pace_at_start"] = pace()
    Path(group["workdir"]).mkdir(parents=True, exist_ok=True)
    reps = RUNNERS[group["runner"]](job, group)
    with open(out_path, "wb") as handle:
        pickle.dump(reps, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
