"""The metrics registry: typed instruments behind one naming scheme.

Every subsystem reports through a :class:`MetricsRegistry` -- the single
source of truth the redesigned stats API (``EngineStatistics``,
``EvalStats`` flushes, ``PlanCacheStats``, ``SyncReport``) reads back out
of.  Three instrument kinds, mirroring the Prometheus data model the
exporters target:

* :class:`Counter` -- monotonically increasing (``inc``); the engine's
  operational counters ("tuples expired", "cache hits").
* :class:`Gauge` -- a value that goes both ways (``set``/``inc``/``dec``);
  divergence windows, live-tuple population.
* :class:`Histogram` -- observations bucketed into *fixed* upper bounds
  plus a running sum/count; sweep and evaluation latencies.

Instruments are registered under a *family* name following the unified
``repro_<subsystem>_<name>`` scheme, optionally with label dimensions.
Registering the same family twice returns the existing one (so every
subsystem can idempotently declare what it needs); re-registering under a
different kind or label set is an error.  Label cardinality is bounded per
family: past ``max_series`` distinct label sets, further series collapse
into a single overflow series labelled ``"__overflow__"`` -- a metrics bug
must never become a memory leak.

A disabled registry (``MetricsRegistry(enabled=False)``) hands out no-op
instruments sharing the API; the CI overhead gate benchmarks the
instrumented engine against exactly this.

>>> registry = MetricsRegistry()
>>> hits = registry.counter("repro_demo_hits_total", "demo", labels=("kind",))
>>> hits.labels(kind="a").inc()
>>> hits.labels(kind="a").inc(2)
>>> hits.labels(kind="a").value
3
>>> registry.snapshot()['repro_demo_hits_total{kind="a"}']
3
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL",
]

#: Default histogram upper bounds (seconds-flavoured, widely useful).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: The label value series beyond a family's cardinality bound collapse to.
OVERFLOW_LABEL = "__overflow__"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def set(self, value: Union[int, float]) -> None:
        """Force the counter to ``value`` (snapshot-view plumbing only)."""
        self.value = value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.value -= amount


class Histogram:
    """Observations in fixed buckets, plus a running sum and count."""

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def value(self) -> Dict[str, object]:
        """The snapshot representation (cumulative bucket counts)."""
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


class _Noop:
    """A do-nothing instrument satisfying every instrument API."""

    __slots__ = ()
    kind = "noop"
    value = 0
    sum = 0.0
    count = 0
    buckets: Tuple[float, ...] = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def dec(self, amount: Union[int, float] = 1) -> None:
        pass

    def set(self, value: Union[int, float]) -> None:
        pass

    def observe(self, value: Union[int, float]) -> None:
        pass

    def labels(self, *values: object, **kv: object) -> "_Noop":
        return self


_NOOP = _Noop()

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """One named metric family: label names plus its per-series instruments.

    An unlabelled family *is* its single series -- the instrument methods
    (``inc``/``set``/``observe``) proxy straight to it, so callers never
    special-case "no labels".
    """

    __slots__ = ("name", "help", "kind", "label_names", "max_series",
                 "_series", "_buckets")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        label_names: Tuple[str, ...],
        max_series: int,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.label_names = label_names
        self.max_series = max_series
        self._buckets = tuple(buckets) if buckets is not None else None
        self._series: Dict[Tuple[str, ...], object] = {}
        if not label_names:
            self._series[()] = self._make()

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._buckets if self._buckets is not None else DEFAULT_BUCKETS)
        return _KINDS[self.kind]()

    # -- series access -------------------------------------------------------

    def labels(self, *values: object, **kv: object):
        """The instrument for one label-value combination.

        Accepts either positional values (in ``label_names`` order) or
        keyword form.  Past ``max_series`` distinct combinations, returns
        the shared overflow series instead of growing without bound.
        """
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kv[name]) for name in self.label_names)
            except KeyError as missing:
                raise ValueError(
                    f"family {self.name!r} has labels {self.label_names!r}, "
                    f"missing {missing}"
                ) from None
            if len(kv) != len(self.label_names):
                extra = set(kv) - set(self.label_names)
                raise ValueError(f"unknown label(s) {sorted(extra)!r} for {self.name!r}")
        else:
            # Hot path: an existing series named positionally by strings.
            # Anything else (first use, non-string or unhashable values,
            # wrong arity, overflow) misses and takes the full path.
            try:
                series = self._series.get(values)
            except TypeError:
                series = None
            if series is not None:
                return series
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"family {self.name!r} needs {len(self.label_names)} label "
                f"value(s) {self.label_names!r}, got {len(values)}"
            )
        series = self._series.get(values)
        if series is None:
            if len(self._series) >= self.max_series:
                values = (OVERFLOW_LABEL,) * len(self.label_names)
                series = self._series.get(values)
                if series is None:
                    series = self._make()
                    self._series[values] = series
                return series
            series = self._make()
            self._series[values] = series
        return series

    def series(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """All (label values, instrument) pairs, insertion-ordered."""
        return self._series.items()

    # -- unlabelled proxy ----------------------------------------------------

    def _single(self):
        if self.label_names:
            raise ValueError(
                f"family {self.name!r} is labelled {self.label_names!r}; "
                f"use .labels(...)"
            )
        return self._series[()]

    @property
    def value(self):
        return self._single().value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self._single().inc(amount)

    def dec(self, amount: Union[int, float] = 1) -> None:
        self._single().dec(amount)

    def set(self, value: Union[int, float]) -> None:
        self._single().set(value)

    def observe(self, value: Union[int, float]) -> None:
        self._single().observe(value)

    # histogram passthroughs (unlabelled histograms)
    @property
    def sum(self) -> float:
        return self._single().sum

    @property
    def count(self) -> int:
        return self._single().count


def _series_key(name: str, label_names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not label_names:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in zip(label_names, values))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """A process-local registry of metric families.

    The unified naming scheme is ``repro_<subsystem>_<name>`` with the
    conventional unit/type suffixes (``_total`` for counters, ``_seconds``
    for latency histograms).  Families register idempotently; snapshots
    are plain dicts so tests can diff before/after without touching the
    live instruments.
    """

    def __init__(self, enabled: bool = True, max_series: int = 512) -> None:
        self.enabled = enabled
        self.max_series = max_series
        self._families: Dict[str, Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # -- registration --------------------------------------------------------

    def _register(
        self,
        name: str,
        help: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ):
        if not self.enabled:
            return _NOOP
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.label_names!r}"
                )
            return existing
        family = Family(name, help, kind, label_names, self.max_series, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Family:
        """Register (or fetch) a counter family."""
        return self._register(name, help, "counter", labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Family:
        """Register (or fetch) a gauge family."""
        return self._register(name, help, "gauge", labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Family:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._register(name, help, "histogram", labels, buckets)

    def get(self, name: str) -> Optional[Family]:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def families(self) -> Iterable[Family]:
        """All registered families, registration-ordered."""
        return self._families.values()

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A flat ``{series key: value}`` dict (histograms as dicts)."""
        out: Dict[str, object] = {}
        for family in self._families.values():
            for values, instrument in family.series():
                out[_series_key(family.name, family.label_names, values)] = (
                    instrument.value
                )
        return out

    def diff(self, earlier: Mapping[str, object]) -> Dict[str, object]:
        """Scalar deltas since an ``earlier`` snapshot (non-zero only).

        Histogram series are compared by observation count.
        """
        out: Dict[str, object] = {}
        for key, value in self.snapshot().items():
            before = earlier.get(key, 0)
            if isinstance(value, dict):  # histogram snapshot
                prev = before.get("count", 0) if isinstance(before, dict) else 0
                delta = value["count"] - prev
            else:
                delta = value - before
            if delta:
                out[key] = delta
        return out

    # -- exporters -----------------------------------------------------------

    def to_prom_text(self) -> str:
        """The Prometheus text exposition format of every family."""
        lines: List[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, instrument in sorted(family.series(), key=lambda item: item[0]):
                if family.kind == "histogram":
                    running = 0
                    for bound, count in zip(instrument.buckets, instrument.counts):
                        running += count
                        key = _series_key(
                            family.name + "_bucket",
                            family.label_names + ("le",),
                            values + (_format_value(bound),),
                        )
                        lines.append(f"{key} {running}")
                    key = _series_key(
                        family.name + "_bucket",
                        family.label_names + ("le",),
                        values + ("+Inf",),
                    )
                    lines.append(f"{key} {instrument.count}")
                    lines.append(
                        f"{_series_key(family.name + '_sum', family.label_names, values)}"
                        f" {_format_value(instrument.sum)}"
                    )
                    lines.append(
                        f"{_series_key(family.name + '_count', family.label_names, values)}"
                        f" {instrument.count}"
                    )
                else:
                    key = _series_key(family.name, family.label_names, values)
                    lines.append(f"{key} {_format_value(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self, indent: Optional[int] = None) -> str:
        """A JSON document of every family (kind, help, labelled series)."""
        doc = []
        for family in self._families.values():
            doc.append({
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": [
                    {"labels": list(values), "value": instrument.value}
                    for values, instrument in family.series()
                ],
            })
        return json.dumps(doc, indent=indent)


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
