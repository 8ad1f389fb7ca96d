"""Unit tests for asymptotic estimates, ratios, and special-function values.

scipy is the independent reference for Bessel values, the Airy zero, and the
normal CDF; the library itself never imports it.
"""
import math
import tracemalloc
from fractions import Fraction

import pytest
import scipy.special
from hypothesis import given, strategies as st

from treechild import (
    AIRY_A1,
    AsymptoticParams,
    b_max_table_binomial,
    bessel_I,
    count_otc_total,
    e_lower_bound,
    otc_asymptotic,
    otc_asymptotic_ratio,
    otc_max_k_ratio,
    params,
    ratio_sqrt_e,
    ratio_sqrt_e_reference,
    tc_envelope,
    tc_envelope_ratio,
)
from treechild.asymptotics import _bessel_I_exact


def test_airy_constant_matches_scipy():
    first_zero = scipy.special.ai_zeros(1)[0][0]
    assert abs(AIRY_A1 - first_zero) < 1e-13


def test_params_formulas():
    row = params(2)
    assert isinstance(row, AsymptoticParams)
    assert row.alpha == Fraction(-5, 3)
    assert row.beta == (1 / 3) ** (2 / 3)
    assert row.gamma == 12
    assert row.airy_a1 == AIRY_A1
    with pytest.raises(ValueError):
        params(1)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=8))
def test_bessel_matches_scipy(v, doubled_a):
    a = doubled_a / 2
    ours = bessel_I(v, a)
    reference = float(scipy.special.iv(v, a))
    assert abs(ours - reference) <= 1e-13 * abs(reference)


def test_bessel_exact_at_zero_argument():
    assert _bessel_I_exact(0, 0) == 1
    assert _bessel_I_exact(3, 0) == 0
    assert bessel_I(1, 2) == 1.590636854637329


def test_bessel_rejects_bad_order():
    with pytest.raises(ValueError):
        bessel_I(-1, 2)
    with pytest.raises(ValueError, match="non-negative a"):
        bessel_I(1, -1)


def test_otc_asymptotic_ratio_frozen_values():
    # |ratio - 1| strictly shrinking along the grid, endpoint within 2%
    for d in (2, 3, 4, 5):
        gaps = [abs(otc_asymptotic_ratio(d, n) - 1) for n in (50, 100, 150, 200)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (d, gaps)
        assert gaps[-1] < 0.02
    assert abs(otc_asymptotic_ratio(2, 50) - 0.990629259536599) < 1e-9


def test_otc_asymptotic_is_a_logvalue():
    from treechild import log_of_int

    est = otc_asymptotic(3, 100)
    exact = count_otc_total(3, 100)
    assert abs(est.ln - log_of_int(exact)) / est.ln < 1e-3


def test_max_k_ratio_limits():
    # d = 3 tends to I_1(2); d >= 4 tends to 1
    assert abs(float(otc_max_k_ratio(3, 200)) - bessel_I(1, 2)) < 1e-3
    assert abs(float(otc_max_k_ratio(4, 100)) - 1) < 0.01
    assert abs(float(otc_max_k_ratio(5, 60)) - 1) < 0.01


def test_envelope_ratio_is_stable():
    ratios = tc_envelope_ratio(2, [10, 15, 20, 25])
    values = list(ratios.values())
    assert abs(values[0] - 0.3058) < 5e-4
    assert abs(values[-1] - 0.2446) < 5e-4
    assert max(values) / min(values) <= 3
    with pytest.raises(ValueError):
        tc_envelope_ratio(2, [1, 5])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_envelope_ratio_matches_the_slice_table(d):
    grid = [200, 7, 2, 150, 7, 31, 200, 3]
    slice_table = b_max_table_binomial(d, 199)
    want = {
        n: tc_envelope(d, n).ratio_to(
            math.factorial(n) * sum(slice_table.get((n - 1, m), 0) for m in range(1, n))
        )
        for n in sorted(grid)
    }
    got = tc_envelope_ratio(d, grid)
    assert list(got.items()) == list(want.items())
    assert tc_envelope_ratio(d, iter(grid)) == want
    assert tc_envelope_ratio(d, []) == {}


def test_envelope_ratio_keeps_one_slice_row():
    tracemalloc.start()
    try:
        tc_envelope_ratio(5, [200])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_envelope_ratio_at_large_d_keeps_one_binomial_window():
    # at d = 100 the slice rows' binomial windows [nd - 1, nd + n - 2] do not
    # overlap up to n = 100, so a pass that kept every window it read would
    # hold them all; 1.81 MiB after the call and 3.02 MiB at the peak are what
    # one window and one slice row take (tracemalloc)
    tracemalloc.start()
    try:
        tc_envelope_ratio(100, [120])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 1.05 * 1.81 * 2**20, current
    assert peak < 1.05 * 3.02 * 2**20, peak


def test_envelope_value_is_finite_log():
    env = tc_envelope(4, 30)
    assert math.isfinite(env.ln)
    assert env.ln > 0


def test_sqrt_e_sandwich():
    bound = e_lower_bound()
    assert bound < Fraction(271829, 100000) ** 2 / Fraction(271828, 100000) ** 2 * bound
    for n in range(2, 15):
        r = ratio_sqrt_e(2, n)
        assert 1 <= r
        assert r * r <= bound
    assert ratio_sqrt_e_reference(2) == math.exp(0.5)
    assert ratio_sqrt_e_reference(3) == 1.0


def test_sqrt_e_ratio_monotone_toward_limit():
    values = [float(ratio_sqrt_e(2, n)) for n in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < math.exp(0.5)


def test_e_lower_bound_approximates_e():
    assert abs(float(e_lower_bound()) - math.e) < 1e-15
    # the exact partial sum 1/0! + ... + 1/29!
    assert e_lower_bound() == Fraction(
        2403440095914245030058787948979, 884176199373970195454361600000
    )
