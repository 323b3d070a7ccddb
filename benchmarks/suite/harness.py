"""Run protocol: groups of identical repetitions, and the floor over them.

The harness never imports ``repro``.  It generates each workload's inputs
once from the seed, then runs the workload's repetitions in groups, one
fresh :mod:`benchmarks.suite.worker` process per group; every repetition
starts from identical state (see the worker).  Groups are interleaved
across workloads (A B C D E, A B C D E, ...) so machine drift hits all
workloads alike.

All repetitions of an invocation run the same operations from the same
state, so they differ only by what the machine did to them, and on this
box that only ever slows them.  The reported time of a workload is
therefore its *floor*: every segment of the operation stream (and every
primary call) is taken at its fastest instance across the repetitions,
and the segments are summed (:func:`estimate`).  Where even the fastest
instance ran while the machine was below its quiet speed -- the worker's
calibration spins next to it say so -- it is scaled down by the share of
that slowdown the spins vouch for (:func:`derating`).  The per-repetition
values and the same estimate from each half of the repetitions are kept
alongside.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.suite import spec
from benchmarks.suite.generate import GENERATORS, stream_hash

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
#: workload -> (groups, repetitions per group) without tracing.  A served
#: repetition pays for a fresh server child (start, load, warm-up), an
#: in-process one only for a fork, so the latter get more of them.
PLAN = {
    "served_read": (1, 10),
    "served_write": (1, 10),
    "authz_mix": (3, 5),
    "stream_ingest": (3, 5),
    "crash_recovery": (3, 5),
}
#: Repetitions of the one traced group ``--trace`` adds after the others.
TRACED_REPETITIONS = 2
#: ``--seconds`` at which op counts are at scale 1.0: the timed work of an
#: untraced invocation on the reference box.
REFERENCE_SECONDS = 12.0
#: A workload's groups share this many times ``--seconds`` of wall clock;
#: a group whose share has run out starts no further repetition, so a
#: noisy phase costs repetitions, not the time limit.
WALL_FACTOR = 2.5
WORKER_TIMEOUT = 170.0
SCHEMA_VERSION = 2


def fingerprint(seed: int, seconds: float, scale: float, smoke: bool) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "schema": SCHEMA_VERSION, "commit": commit,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
        "scale": scale, "smoke": smoke,
        "fsync_policy": "commit (autocommit statements flush, no fsync)",
        "repro_numpy": "unset",
    }


def percentile(ordered, q):
    """Nearest-rank q-quantile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


#: How long :func:`worker.spin` takes on the reference box running at its
#: quiet speed, with some margin.  This VM drops to about two thirds of
#: that speed for seconds to minutes at a time, with nothing in /proc to
#: show for it; a spin slower than this next to a measurement says by how
#: much the measurement was slowed.
QUIET_SPIN_S = 340e-6


#: No spin vouches for a slowdown beyond this factor: the regimes seen on
#: this box run at 0.6-0.7 of quiet speed, and a spin slower than that was
#: interrupted, which says nothing about its neighbours.
DEEPEST_DERATING = 0.6


def derating(spin_s: float) -> float:
    """The factor that takes a time measured at this spin to quiet speed.

    1.0 unless the spin loop ran slower than it ever does on the quiet
    box; then the share of the slowdown beyond that.  Never above 1: a
    measurement is only ever scaled down, and by less than the spin loop
    was slowed.
    """
    return max(DEEPEST_DERATING, min(1.0, QUIET_SPIN_S / spin_s))


def derated(rep: dict) -> tuple:
    """``(segments, latencies)`` of one repetition at quiet speed.

    Each segment is scaled by :func:`derating` of the faster of the two
    spins around it (the cautious reading of how slow the machine was),
    and so is every call made within it.
    """
    times, spins = rep["segments"], rep["spins"]
    if len(times) == 1:  # one long call: several spins either side of it
        half = len(spins) // 2
        factors = [derating(min(statistics.median(spins[:half]),
                                statistics.median(spins[half:])))]
    else:
        factors = [derating(min(spins[k], spins[k + 1]))
                   for k in range(len(times))]
    calls, scaled = rep["latencies"], []
    begin = 0
    for factor, end in zip(factors, rep["calls_at_cut"]):
        part = calls[begin:end]
        scaled.extend(part if factor == 1.0 else [t * factor for t in part])
        begin = end
    return [t * factor for t, factor in zip(times, factors)], scaled


def floor(series: Sequence[Sequence[float]]) -> List[float]:
    """Position by position, the fastest instance across repetitions."""
    if len(series) == 1:
        return list(series[0])
    return list(map(min, zip(*series)))


def estimate(reps: Sequence[dict]) -> Dict[str, float]:
    """The user-visible numbers of a workload, from identical repetitions.

    Times come from the floor over the derated ``reps``.  Set-up has no
    segments to take a floor over: it is the median of the repetitions'
    (groups') set-up times, each derated by the spins at its two ends.
    Memory is the lowest high-water mark any repetition saw.
    """
    quiet = [derated(rep) for rep in reps]
    wall = sum(floor([segments for segments, _ in quiet]))
    calls = sorted(floor([latencies for _, latencies in quiet]))
    return {
        "setup_s": statistics.median(
            rep["setup_s"] * derating(min(rep["setup_spins"])) for rep in reps),
        "throughput_ops_s": reps[0]["ops"] / wall,
        "latency_p50_us": percentile(calls, 0.50) * 1e6,
        "latency_p95_us": percentile(calls, 0.95) * 1e6,
        "latency_p99_us": percentile(calls, 0.99) * 1e6,
        "peak_rss_mb": min(rep["peak_rss_mb"] for rep in reps),
    }


class Invocation:
    """One benchmark invocation: inputs, repetitions, and their summary."""

    def __init__(self, workloads: Sequence[str], seed: int, seconds: float,
                 smoke: bool = False) -> None:
        self.workloads = list(workloads)
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.scale = seconds / REFERENCE_SECONDS / (50 if smoke else 1)
        self.fingerprint = fingerprint(seed, seconds, self.scale, smoke)
        self.root: Optional[Path] = None
        self.jobs: Dict[str, dict] = {}
        self.reps: Dict[str, List[dict]] = {name: [] for name in self.workloads}
        self._serial = 0

    def __enter__(self) -> "Invocation":
        # Inside the checkout (the benchmark may write nowhere else), on the
        # disk the WAL of ``served_write`` should land on.
        self.root = Path(tempfile.mkdtemp(prefix=".bench_suite_work-",
                                          dir=REPO_ROOT))
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- inputs --------------------------------------------------------------

    def prepare(self, workload: str) -> None:
        """Generate the workload's inputs once; every repetition reads them."""
        job = GENERATORS[workload](self.seed, self.scale)
        job_path = self.root / f"{workload}.job"
        with open(job_path, "wb") as handle:
            pickle.dump(job, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.jobs[workload] = {
            "path": job_path, "op_count": job["op_count"],
            "stream_hash": stream_hash(job),
        }

    # -- repetitions ---------------------------------------------------------

    def run_group(self, workload: str, traced: bool, reps: int,
                  share_s: float) -> None:
        """One group of repetitions in a fresh worker process, recorded."""
        self._serial += 1
        workdir = self.root / f"{workload}-{self._serial}"
        workdir.mkdir()
        now = time.time()
        group = {"runner": workload, "traced": traced, "reps": reps,
                 "workdir": str(workdir), "spawned_at": now,
                 "deadline": now + share_s}
        group_path, out_path = workdir / "group.json", workdir / "out.pickle"
        group_path.write_text(json.dumps(group))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)])
        env.pop("REPRO_NUMPY", None)
        # Its own process group, so that a worker that has to be killed
        # takes the children it started down with it.
        worker = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.suite.worker",
             str(self.jobs[workload]["path"]), str(group_path), str(out_path)],
            cwd=str(REPO_ROOT), env=env, stdout=subprocess.DEVNULL,
            start_new_session=True)
        try:
            code = worker.wait(timeout=WORKER_TIMEOUT)
        except BaseException:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
            raise
        if code != 0 or not out_path.exists():
            raise RuntimeError(f"{workload} worker failed with exit code {code}")
        with open(out_path, "rb") as handle:
            results = pickle.load(handle)  # written by the worker we started
        shutil.rmtree(workdir, ignore_errors=True)
        for result in results:
            result["traced"] = traced
            result["wall_s"] = sum(result["segments"])
        self.reps[workload].extend(results)

    def run(self, trace: bool) -> None:
        """Untraced groups, workloads interleaved, then the traced ones."""
        for workload in self.workloads:
            self.prepare(workload)
        wall = WALL_FACTOR * self.seconds
        plans = {name: (1, 1) if self.smoke else PLAN[name]
                 for name in self.workloads}
        for index in range(max(groups for groups, _ in plans.values())):
            for workload, (groups, reps) in plans.items():
                if index < groups:
                    self.run_group(workload, False, reps, wall / groups)
        if trace:
            for workload in self.workloads:
                self.run_group(workload, True,
                               1 if self.smoke else TRACED_REPETITIONS,
                               wall / 4)

    # -- summary -------------------------------------------------------------

    def summary(self, workload: str) -> dict:
        reps = self.reps[workload]
        plain = [rep for rep in reps if not rep["traced"]]
        traced = [rep for rep in reps if rep["traced"]]
        attempted = sum(rep["ops"] for rep in reps)
        failed = sum(rep["failed"] for rep in reps)
        notes = [note for rep in reps for note in rep["failure_notes"]][:5]
        out = {
            "why": spec.WORKLOADS[workload],
            "op_count": self.jobs[workload]["op_count"],
            "stream_hash": self.jobs[workload]["stream_hash"],
            "repetitions": {"untraced": len(plain), "traced": len(traced)},
            "attempted": attempted, "failed": failed,
            "verdict": "ok" if failed == 0 else "MISMATCH: " + "; ".join(notes),
            "segments": len(reps[0]["segments"]),
            "latency_samples": len(reps[0]["latencies"]),
        }
        whole = estimate(plain) if plain else None
        if plain:
            singles = [estimate([rep]) for rep in plain]
            halves = [estimate(half) for half in (plain[0::2], plain[1::2])
                      if half]
            out["end_to_end"] = {
                metric.name: _stat(whole[metric.name], metric.unit,
                                   [one[metric.name] for one in singles],
                                   [half[metric.name] for half in halves])
                for metric in spec.END_TO_END
            }
        if traced:
            out.update(self._per_layer(plain, traced, whole, failed / attempted))
        return out

    def _per_layer(self, plain: List[dict], traced: List[dict],
                   whole: Optional[dict], failed_share: float) -> dict:
        seen = plain or traced  # tracing overhead stays out where it can
        visible = whole or estimate(traced)

        def lowest(key):
            values = [rep[key] for rep in seen if rep.get(key) is not None]
            return min(values) if values else None

        lags = [rep["patch_lags"] for rep in seen if rep.get("patch_lags")]
        overhead = None
        if plain:
            # Like for like: a floor over as many untraced repetitions.
            untraced = estimate(plain[:len(traced)])["throughput_ops_s"]
            overhead = 1.0 - estimate(traced)["throughput_ops_s"] / untraced
        columns: Dict[str, list] = {m.name: [] for m in spec.PER_LAYER}
        shares: Dict[str, list] = {}
        for rep in traced:
            spans = rep["trace"]["spans"]
            wall_ns = rep["wall_s"] * 1e9
            by_layer: Dict[str, float] = {}
            for name, entry in spans.items():
                layer = spec.layer_of(name)
                by_layer[layer] = by_layer.get(layer, 0.0) + entry["self_ns"] / wall_ns
            by_layer["unattributed"] = 1.0 - sum(by_layer.values())
            for layer, share in by_layer.items():
                shares.setdefault(layer, []).append(share)
            extra = {key: value for key, value in rep.items()
                     if isinstance(value, (int, float))}
            extra.update(
                trace_unattributed_share=by_layer["unattributed"],
                trace_overhead_share=overhead,
                failed_ops_share=failed_share,
                time_to_ready_s=lowest("time_to_ready_s"),
                patch_lag_p50_us=(
                    statistics.median(floor(lags)) * 1e6 if lags else None),
                disk_bytes_per_row=lowest("disk_bytes_per_row"),
                latency_p95_us=visible["latency_p95_us"],
                latency_p99_us=visible["latency_p99_us"],
            )
            context = spec.LayerContext(
                spans, rep["trace"]["registry"], extra, rep["trace"]["unresolved"])
            for name, value in spec.per_layer_values(context).items():
                columns[name].append(value)
        per_layer = {}
        for metric in spec.PER_LAYER:
            values = [v for v in columns[metric.name] if v is not None]
            best = (max if metric.better == "higher" else min)(values) \
                if values else None
            per_layer[metric.name] = _stat(best, metric.unit, values, [])
        return {
            "per_layer": per_layer,
            "layer_share": {layer: statistics.median(values)
                            for layer, values in sorted(shares.items())},
        }

    def result(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "workloads": {name: self.summary(name) for name in self.workloads},
        }


def _stat(value: Optional[float], unit: str, raw: list, halves: list) -> dict:
    """A reported value with what it was made from.

    ``raw`` holds the same quantity from each repetition alone, ``halves``
    from the even and the odd repetitions (two estimates of ``value`` that
    share no measurement).
    """
    out = {"value": value, "unit": unit, "raw": raw, "halves": halves,
           "samples": len(raw)}
    if raw:
        out.update(median=statistics.median(raw), min=min(raw), max=max(raw))
    return out


def measure(workloads: Sequence[str], seed: int,
            seconds: float = REFERENCE_SECONDS, trace: bool = False,
            smoke: bool = False) -> dict:
    """Run ``workloads`` under the protocol and return the result document.

    The one entry point: ``python -m benchmarks.suite run`` calls it with
    every workload, ``run.py`` (the driver's command) with one.
    """
    with Invocation(workloads, seed, seconds, smoke=smoke) as run:
        run.run(trace)
        return run.result()
