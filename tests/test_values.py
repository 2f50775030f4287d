from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mwl.errors import DomainError
from mwl.values import (
    LengthValue,
    MeanRatio,
    ratio_add,
    ratio_cmp,
    ratio_eq,
    ratio_le,
    value_add,
    value_cmp,
)


def test_value_add_examples():
    assert value_add(LengthValue.log_count(2), LengthValue.log_count(2)) == LengthValue.log_count(4)
    assert value_add(LengthValue.rational(1), LengthValue.rational(1)) == LengthValue.rational(2)
    assert value_add(LengthValue.log_count(3), LengthValue.infinity()).is_infinite()


def test_zero_values():
    assert LengthValue.log_count(1).is_zero()
    assert LengthValue.rational(0).is_zero()
    assert value_add(LengthValue.log_count(1), LengthValue.log_count(5)) == LengthValue.log_count(5)


def test_kind_mixing_rejected():
    with pytest.raises(DomainError):
        value_add(LengthValue.log_count(2), LengthValue.rational(1))
    with pytest.raises(DomainError):
        value_cmp(LengthValue.log_count(2), LengthValue.rational(1))


def test_value_cmp():
    assert value_cmp(LengthValue.log_count(2), LengthValue.log_count(3)) == -1
    assert value_cmp(LengthValue.log_count(4), LengthValue.log_count(4)) == 0
    assert value_cmp(LengthValue.infinity(), LengthValue.log_count(10**9)) == 1
    assert value_cmp(LengthValue.rational(Fraction(1, 3)), LengthValue.rational(Fraction(1, 2))) == -1


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_log_addition_is_count_multiplication(m, n):
    s = value_add(LengthValue.log_count(m), LengthValue.log_count(n))
    assert s.count == m * n


def test_ratio_comparisons_exact():
    # log(4)/2 == log(2)/1
    assert ratio_eq(MeanRatio.log_ratio(4, 2), MeanRatio.log_ratio(2, 1))
    # log(8)/3 == log(2)
    assert ratio_eq(MeanRatio.log_ratio(8, 3), MeanRatio.log_ratio(2, 1))
    # log(9)/2 > log(2)
    assert ratio_cmp(MeanRatio.log_ratio(9, 2), MeanRatio.log_ratio(2, 1)) == 1
    # log(1)/n is zero
    assert MeanRatio.log_ratio(1, 25).is_zero()
    assert ratio_le(MeanRatio.log_ratio(8, 10), MeanRatio.log_ratio(8, 3))
    # equal as floats, apart as exact values
    assert ratio_cmp(MeanRatio.log_ratio(2 ** 1000 + 1, 1000), MeanRatio.log_ratio(2, 1)) == 1
    assert ratio_cmp(MeanRatio.log_ratio(2 ** 1000 - 1, 1000), MeanRatio.log_ratio(2, 1)) == -1


@given(st.integers(2, 50), st.integers(1, 8), st.integers(1, 8))
def test_power_ratios_all_equal(c, m, n):
    assert ratio_eq(MeanRatio.log_ratio(c**m, m), MeanRatio.log_ratio(c**n, n))


def test_ratio_add():
    r = ratio_add(MeanRatio.log_ratio(2, 1), MeanRatio.log_ratio(1, 3))
    assert ratio_eq(r, MeanRatio.log_ratio(2, 1))
    r2 = ratio_add(MeanRatio.log_ratio(2, 1), MeanRatio.log_ratio(2, 1))
    assert ratio_eq(r2, MeanRatio.log_ratio(4, 1))
    q = ratio_add(
        MeanRatio(LengthValue.rational(Fraction(1, 2)), 2),
        MeanRatio(LengthValue.rational(Fraction(1, 2)), 1),
    )
    assert q.value.q == Fraction(3, 4)


def test_json_round_trip_shape():
    assert LengthValue.log_count(5).to_json() == {"kind": "log", "count": 5}
    assert MeanRatio.log_ratio(8, 3).to_json() == {"kind": "log", "ratio_num": 8, "ratio_den": 3}
