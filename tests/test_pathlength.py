"""Unit tests for path-length totals over one-component networks."""
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from treechild import (
    expected_path_length,
    expected_path_length_reference,
    expected_path_length_trend,
    path_length_total,
    path_length_total_recurrence,
    unary_binary_path_length,
)
from treechild.params import exact_div


def test_anchored_values():
    assert path_length_total(2, 1, 0) == 1
    assert path_length_total(2, 2, 0) == 5
    assert path_length_total(2, 2, 1) == 6
    assert unary_binary_path_length(1, 0) == 1
    assert unary_binary_path_length(2, 0) == 5


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=18),
    st.data(),
)
def test_closed_form_equals_recurrence(d, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert path_length_total(d, n, k) == path_length_total_recurrence(d, n, k)


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=18),
    st.data(),
)
def test_factorization_into_multinomial_and_chain_count(d, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    multinomial = exact_div(factorial(d * k), factorial(d) ** k)
    assert path_length_total(d, n, k) == multinomial * unary_binary_path_length(
        n - k, d * k
    )


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=18),
    st.data(),
)
def test_total_is_at_least_one(d, n, data):
    # minimum 1 is the single root-leaf edge at n = 1, k = 0
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert path_length_total(d, n, k) >= 1


def test_domain_validation():
    with pytest.raises(ValueError):
        path_length_total(2, 2, 2)
    with pytest.raises(ValueError):
        unary_binary_path_length(0, 3)
    with pytest.raises(ValueError):
        unary_binary_path_length(2, -1)


def test_expected_value_anchors():
    assert expected_path_length(2, 2) == Fraction(17, 3)
    assert expected_path_length(3, 2) == Fraction(25, 3)


def test_expected_value_is_mean_over_networks():
    # weighted mean of P over all one-component networks with n leaves,
    # recomputed here from the raw ingredients
    from math import comb

    from treechild import count_otc, count_otc_total

    for d, n in ((2, 5), (3, 4)):
        total = sum(
            comb(n, k) * path_length_total(d, n, k) for k in range(n)
        )
        assert expected_path_length(d, n) == Fraction(total, count_otc_total(d, n))


def test_reference_constants():
    import math

    assert abs(expected_path_length_reference(2) - 2 * math.sqrt(math.pi)) < 1e-12
    assert expected_path_length_reference(4) == 1.0
    assert expected_path_length_reference(7) == 1.0
    with pytest.raises(ValueError):
        expected_path_length_reference(1)


def test_reference_constant_d3_from_bessel():
    import math

    from treechild import bessel_I

    want = 9 * (math.cosh(2) - bessel_I(0, 2)) / (2 * bessel_I(1, 2))
    assert abs(expected_path_length_reference(3) - want) < 1e-12


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=4))
def test_trend_moves_toward_reference(d):
    # scaled expectations drift toward the limiting constant from below
    trend = expected_path_length_trend(d, [8, 16, 32])
    values = list(trend.values())
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < expected_path_length_reference(d) * (1.5 if d > 3 else 1.0)


def test_trend_rejects_bad_grid():
    with pytest.raises(ValueError):
        expected_path_length_trend(2, [])
