"""Tests for the time domain: ordering, infinity, arithmetic, min/max."""

import copy
import pickle
import struct
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.timestamps import (
    FOREVER,
    INFINITY,
    RAW_INFINITY,
    Timestamp,
    from_raw,
    ts,
    ts_max,
    ts_min,
)
from repro.errors import TimeError

finite_values = st.integers(min_value=0, max_value=10**9)
time_values = st.one_of(finite_values, st.none())
#: Every tick of the domain: the finite ones and ∞'s.
raw_ticks = st.one_of(st.integers(0, RAW_INFINITY - 1), st.just(RAW_INFINITY))


class TestConstruction:
    def test_finite(self):
        assert Timestamp(5).value == 5

    def test_zero_is_valid(self):
        assert Timestamp(0).is_finite

    def test_none_is_infinite(self):
        assert Timestamp(None).is_infinite

    def test_copy_constructor(self):
        assert Timestamp(Timestamp(7)) == Timestamp(7)
        assert Timestamp(INFINITY).is_infinite

    def test_negative_rejected(self):
        with pytest.raises(TimeError):
            Timestamp(-1)

    def test_bool_rejected(self):
        with pytest.raises(TimeError):
            Timestamp(True)

    def test_float_rejected(self):
        with pytest.raises(TimeError):
            Timestamp(1.5)

    def test_infinite_has_no_value(self):
        with pytest.raises(TimeError):
            INFINITY.value

    def test_forever_is_infinity(self):
        assert FOREVER is INFINITY

    def test_ts_coercion(self):
        assert ts(3) == Timestamp(3)
        assert ts(None) is INFINITY or ts(None) == INFINITY
        assert ts(Timestamp(9)) == Timestamp(9)


class TestOrdering:
    def test_finite_order(self):
        assert Timestamp(1) < Timestamp(2)
        assert Timestamp(2) > Timestamp(1)
        assert Timestamp(2) >= Timestamp(2)
        assert Timestamp(2) <= Timestamp(2)

    def test_infinity_is_largest(self):
        assert Timestamp(10**12) < INFINITY
        assert not INFINITY < Timestamp(10**12)
        assert INFINITY == INFINITY
        assert not INFINITY < INFINITY

    def test_int_interop(self):
        assert Timestamp(5) < 7
        assert Timestamp(5) == 5
        assert 5 == Timestamp(5)
        assert INFINITY > 10**9

    def test_incomparable(self):
        assert Timestamp(5) != "five"
        assert (Timestamp(5) == object()) is False

    @given(a=finite_values, b=finite_values)
    def test_order_matches_ints(self, a, b):
        assert (Timestamp(a) < Timestamp(b)) == (a < b)
        assert (Timestamp(a) == Timestamp(b)) == (a == b)

    @given(value=finite_values)
    def test_every_finite_below_infinity(self, value):
        assert Timestamp(value) < INFINITY


class TestHashing:
    def test_equal_hash(self):
        assert hash(Timestamp(4)) == hash(Timestamp(4))

    def test_usable_as_dict_key(self):
        d = {Timestamp(1): "a", INFINITY: "b"}
        assert d[Timestamp(1)] == "a"
        assert d[INFINITY] == "b"


class TestArithmetic:
    def test_addition(self):
        assert Timestamp(3) + 4 == Timestamp(7)
        assert 4 + Timestamp(3) == Timestamp(7)

    def test_subtraction(self):
        assert Timestamp(10) - 4 == Timestamp(6)

    def test_saturates_at_infinity(self):
        assert INFINITY + 100 == INFINITY
        assert INFINITY - 100 == INFINITY

    def test_negative_result_rejected(self):
        with pytest.raises(TimeError):
            Timestamp(3) - 5

    def test_int_conversion(self):
        assert int(Timestamp(42)) == 42

    @given(value=st.integers(min_value=0, max_value=10**6), delta=st.integers(min_value=0, max_value=10**6))
    def test_add_then_subtract_roundtrip(self, value, delta):
        assert Timestamp(value) + delta - delta == Timestamp(value)


class TestMinMax:
    def test_min_empty_is_infinity(self):
        assert ts_min([]) == INFINITY

    def test_max_empty_is_zero(self):
        assert ts_max([]) == Timestamp(0)

    def test_min_with_infinity(self):
        assert ts_min([INFINITY, 5, 9]) == Timestamp(5)

    def test_max_with_infinity(self):
        assert ts_max([3, INFINITY]) == INFINITY

    def test_accepts_ints_and_none(self):
        assert ts_min([7, None]) == Timestamp(7)
        assert ts_max([7, None]) == INFINITY

    @given(values=st.lists(finite_values, min_size=1))
    def test_min_max_match_builtin(self, values):
        assert ts_min(values) == Timestamp(min(values))
        assert ts_max(values) == Timestamp(max(values))

    @given(values=st.lists(time_values, min_size=1))
    def test_min_leq_max(self, values):
        assert ts_min(values) <= ts_max(values)


class TestDisplay:
    def test_repr(self):
        assert repr(Timestamp(5)) == "Timestamp(5)"
        assert repr(INFINITY) == "INFINITY"

    def test_str(self):
        assert str(Timestamp(5)) == "5"
        assert str(INFINITY) == "inf"


class TestATimestampIsItsTick:
    """``Timestamp`` subclasses ``int``: a timestamp and the plain int of
    its tick are one value to ``==``, ``hash``, ``<`` and packing."""

    def test_hash_agrees_with_the_int(self):
        assert hash(Timestamp(5)) == hash(5)
        assert Timestamp(5) in {5}
        assert 5 in {Timestamp(5)}
        assert {5: "x"}[Timestamp(5)] == "x"
        assert hash(INFINITY) == hash(RAW_INFINITY)

    @given(a=raw_ticks, b=raw_ticks)
    def test_order_equality_and_hash_are_the_ints(self, a, b):
        left, right = from_raw(a), from_raw(b)
        assert issubclass(type(left), int) and int(left) == a
        assert (left < right) == (a < b)
        assert (left <= right) == (a <= b)
        assert (left == right) == (a == b)
        assert (left == b) == (a == b) == (a == right)
        assert (left < b) == (a < b)
        assert hash(left) == hash(a)
        assert left.is_infinite == (a == RAW_INFINITY)

    def test_infinity_is_the_sentinel_tick(self):
        assert int(INFINITY) == RAW_INFINITY
        assert from_raw(RAW_INFINITY) is INFINITY
        assert array("q", [Timestamp(5), INFINITY]) == array("q", [5, RAW_INFINITY])
        assert struct.pack("<q", INFINITY) == struct.pack("<q", RAW_INFINITY)

    def test_saturating_arithmetic_at_infinity(self):
        assert INFINITY + 5 is INFINITY
        assert 5 + INFINITY is INFINITY
        assert INFINITY - 5 is INFINITY
        assert INFINITY + 0 is INFINITY
        assert type(Timestamp(3) + 4) is Timestamp
        assert type(4 + Timestamp(3)) is Timestamp
        assert type(Timestamp(3) - 1) is Timestamp
        with pytest.raises(TimeError):  # a finite sum at the ∞ sentinel
            Timestamp(RAW_INFINITY - 1) + 1
        with pytest.raises(TypeError):  # two time points do not add
            Timestamp(3) + Timestamp(4)

    def test_pickle_and_copy_keep_infinity(self):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(INFINITY, protocol)) is INFINITY
            back = pickle.loads(pickle.dumps(Timestamp(7), protocol))
            assert type(back) is Timestamp and back == 7
        assert copy.copy(INFINITY) is INFINITY
        assert copy.deepcopy([INFINITY])[0] is INFINITY

    def test_zero_is_truthy(self):
        assert bool(Timestamp(0)) is True
        assert ts(0) or False

    @pytest.mark.parametrize(
        "value", [True, False, -1, 1.5, "5", RAW_INFINITY, RAW_INFINITY + 1],
        ids=["true", "false", "negative", "float", "str", "sentinel", "beyond"],
    )
    def test_construction_refusals(self, value):
        with pytest.raises(TimeError):
            Timestamp(value)
        with pytest.raises(TimeError):
            ts(value)

    def test_display_and_value(self):
        assert f"{INFINITY}" == str(INFINITY) == "inf"
        assert f"{Timestamp(0)}" == "0"
        assert repr(Timestamp(0)) == "Timestamp(0)"
        assert type(Timestamp(9).value) is int
