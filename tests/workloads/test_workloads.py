"""Tests for the seeded generators and the Figure 1 fixture that the
paper printer, the benchmark gates and the tests build on
(``benchmarks/fixtures.py``)."""

import random

import pytest

from benchmarks.fixtures import (
    ConstantLifetime,
    GeometricLifetime,
    UniformLifetime,
    ZipfLifetime,
    figure1_el,
    figure1_pol,
    overlapping_relations,
    random_relation,
    random_stream,
)

from repro.core.timestamps import ts
from repro.errors import ReproError


class TestLifetimeDistributions:
    def test_constant(self):
        rng = random.Random(0)
        assert all(ConstantLifetime(7).sample(rng) == 7 for _ in range(5))

    def test_uniform_bounds(self):
        rng = random.Random(0)
        samples = [UniformLifetime(3, 9).sample(rng) for _ in range(100)]
        assert all(3 <= s <= 9 for s in samples)
        assert min(samples) == 3 and max(samples) == 9

    def test_geometric_positive(self):
        rng = random.Random(0)
        samples = [GeometricLifetime(5).sample(rng) for _ in range(200)]
        assert all(s >= 1 for s in samples)
        assert 2 < sum(samples) / len(samples) < 10

    def test_zipf_buckets(self):
        rng = random.Random(0)
        samples = [ZipfLifetime(base=2, buckets=5).sample(rng) for _ in range(200)]
        assert set(samples) <= {2, 4, 6, 8, 10}
        # Short lifetimes dominate under Zipf.
        assert samples.count(2) > samples.count(10)

    def test_validation(self):
        with pytest.raises(ReproError):
            ConstantLifetime(0)
        with pytest.raises(ReproError):
            UniformLifetime(5, 3)
        with pytest.raises(ReproError):
            GeometricLifetime(-1)


class TestGenerators:
    def test_random_relation_size_and_determinism(self):
        a = random_relation(["k", "v"], 50, UniformLifetime(1, 20), seed=3)
        b = random_relation(["k", "v"], 50, UniformLifetime(1, 20), seed=3)
        assert len(a) == 50
        assert a.same_content(b)

    def test_random_relation_origin(self):
        rel = random_relation(["k"], 10, ConstantLifetime(5), origin=100, seed=1)
        assert all(texp == ts(105) for _, texp in rel.items())

    def test_random_stream_sorted(self):
        stream = random_stream(["k", "v"], 40, UniformLifetime(2, 9), seed=2)
        arrivals = [t for t, _, _ in stream]
        assert arrivals == sorted(arrivals)
        assert all(expiry > arrival for arrival, _, expiry in stream)

    def test_overlapping_relations_fraction(self):
        left, right = overlapping_relations(
            ["k", "v"], 40, 0.5, UniformLifetime(2, 30), seed=4
        )
        shared = sum(1 for row in left.rows() if row in right)
        assert shared == 20

    def test_overlap_critical_bias_one(self):
        left, right = overlapping_relations(
            ["k", "v"], 30, 1.0, UniformLifetime(2, 30), seed=4, critical_bias=1.0
        )
        for row, left_texp in left.items():
            right_texp = right.expiration_or_none(row)
            assert right_texp is not None
            assert right_texp < left_texp  # every shared tuple is critical

    def test_overlap_critical_bias_zero(self):
        left, right = overlapping_relations(
            ["k", "v"], 30, 1.0, UniformLifetime(2, 30), seed=4, critical_bias=0.0
        )
        for row, left_texp in left.items():
            right_texp = right.expiration_or_none(row)
            assert right_texp is not None
            assert not right_texp < left_texp  # none critical


class TestFigure1Fixtures:
    def test_pol(self):
        pol = figure1_pol()
        assert set(pol.rows()) == {(1, 25), (2, 25), (3, 35)}
        assert pol.expiration_of((2, 25)) == ts(15)

    def test_el(self):
        el = figure1_el()
        assert el.expiration_of((4, 90)) == ts(2)
