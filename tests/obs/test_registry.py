"""Registry semantics: instruments, labels, cardinality, snapshots, exporters."""

import json

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABEL,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_hits_total", "hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("repro_t_hits_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_t_entries")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc()
        assert gauge.value == 8

    def test_histogram_bucketing(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.01, 0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.value
        # Cumulative counts at each upper bound: <=0.01, <=0.1, <=1.0.
        assert snap["buckets"] == [(0.01, 2), (0.1, 3), (1.0, 4)]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(5.565)

    def test_histogram_bounds_sorted_and_nonempty(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_s", buckets=(1.0, 0.1))
        assert hist._single().buckets == (0.1, 1.0)
        from repro.obs.registry import Histogram

        with pytest.raises(ValueError):
            Histogram(())


class TestFamilies:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_t_total", "help")
        again = registry.counter("repro_t_total")
        assert first is again

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_t_total")

    def test_label_set_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", labels=("engine",))
        with pytest.raises(ValueError):
            registry.counter("repro_t_total", labels=("kind",))

    def test_labels_positional_and_keyword_agree(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_t_total", labels=("a", "b"))
        family.labels("x", "y").inc()
        family.labels(b="y", a="x").inc()
        assert family.labels("x", "y").value == 2

    def test_labels_name_one_series_whatever_the_value_types(self):
        # The positional probe for an existing series keys on the values
        # as given; non-string and unhashable values must still land on
        # the series their str() names.
        family = MetricsRegistry().counter("repro_t_total", labels=("a", "b"))
        first = family.labels("3", "[1, 2]")
        assert family.labels("3", "[1, 2]") is first
        assert family.labels(3, [1, 2]) is first
        assert family.labels(a=3, b=[1, 2]) is first
        assert len(dict(family.series())) == 1

    def test_label_arity_checked(self):
        family = MetricsRegistry().counter("repro_t_total", labels=("a", "b"))
        family.labels("x", "y")
        with pytest.raises(ValueError):
            family.labels("only-one")
        with pytest.raises(ValueError):
            family.labels("x", "y", "z")
        with pytest.raises(ValueError):
            family.labels(a="x", c="nope")

    def test_unlabelled_family_proxies_instrument(self):
        family = MetricsRegistry().counter("repro_t_total")
        family.inc(2)
        assert family.value == 2

    def test_labelled_family_rejects_direct_use(self):
        family = MetricsRegistry().counter("repro_t_total", labels=("k",))
        with pytest.raises(ValueError):
            family.inc()

    def test_cardinality_collapses_to_overflow(self):
        registry = MetricsRegistry(max_series=3)
        family = registry.counter("repro_t_total", labels=("key",))
        for i in range(10):
            family.labels(f"k{i}").inc()
        series = dict(family.series())
        assert len(series) == 4  # 3 real + 1 overflow
        assert series[(OVERFLOW_LABEL,)].value == 7
        # The overflow series is stable: more new labels keep landing on it.
        family.labels("k999").inc()
        assert series[(OVERFLOW_LABEL,)].value == 8


class TestSnapshots:
    def test_snapshot_keys_and_diff(self):
        registry = MetricsRegistry()
        hits = registry.counter("repro_t_hits_total", labels=("engine",))
        hits.labels("compiled").inc(3)
        before = registry.snapshot()
        assert before['repro_t_hits_total{engine="compiled"}'] == 3
        hits.labels("compiled").inc(2)
        hits.labels("interpreted").inc()
        delta = registry.diff(before)
        assert delta == {
            'repro_t_hits_total{engine="compiled"}': 2,
            'repro_t_hits_total{engine="interpreted"}': 1,
        }

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total")
        counter.inc()
        snap = registry.snapshot()
        counter.inc(10)
        assert snap["repro_t_total"] == 1

    def test_diff_compares_histograms_by_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_seconds")
        hist.observe(0.01)
        before = registry.snapshot()
        hist.observe(0.02)
        hist.observe(0.03)
        assert registry.diff(before) == {"repro_t_seconds": 2}


class TestExporters:
    def test_prom_text_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_hits_total", "The hits.", labels=("engine",)) \
            .labels("compiled").inc(7)
        registry.gauge("repro_t_entries", "Entries.").set(3)
        text = registry.to_prom_text()
        assert "# HELP repro_t_hits_total The hits." in text
        assert "# TYPE repro_t_hits_total counter" in text
        assert 'repro_t_hits_total{engine="compiled"} 7' in text
        assert "# TYPE repro_t_entries gauge" in text
        assert "repro_t_entries 3" in text

    def test_prom_text_histogram_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_t_seconds", "Latency.",
                                  buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.to_prom_text()
        assert 'repro_t_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_t_seconds_bucket{le="1"} 2' in text
        assert 'repro_t_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_t_seconds_sum 0.55" in text
        assert "repro_t_seconds_count 2" in text

    def test_prom_text_declared_but_empty_family_keeps_headers(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "Declared, never incremented.",
                         labels=("strategy",))
        text = registry.to_prom_text()
        assert "# TYPE repro_t_total counter" in text

    def test_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("repro_t_total", "Help.", labels=("k",)) \
            .labels("v").inc(2)
        doc = json.loads(registry.to_json())
        [family] = doc
        assert family["name"] == "repro_t_total"
        assert family["kind"] == "counter"
        assert family["series"] == [{"labels": ["v"], "value": 2}]


class TestDisabledRegistry:
    def test_noop_instruments_absorb_everything(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("repro_t_total", labels=("k",))
        counter.labels("x").inc(5)
        registry.histogram("repro_t_seconds").observe(1.0)
        registry.gauge("repro_t_g").set(9)
        assert counter.labels("x").value == 0
        assert registry.snapshot() == {}
        assert registry.to_prom_text() == ""

    def test_default_buckets_are_sorted(self):
        assert tuple(sorted(DEFAULT_BUCKETS)) == DEFAULT_BUCKETS
