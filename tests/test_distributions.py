"""Unit tests for exact reticulation-count distributions and diagnostics."""
from fractions import Fraction
from math import exp

import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from treechild import (
    GOLDEN_TC,
    Pmf,
    moment,
    normal_cdf,
    normal_cdf_diagnostic,
    reference_pmf,
    ret_pmf,
    total_variation,
    total_variation_exact,
    twig_expectation_bound,
)


def test_pmf_validates_total_mass():
    Pmf({0: Fraction(1, 3), 1: Fraction(2, 3)})
    with pytest.raises(ValueError):
        Pmf({0: Fraction(1, 3), 1: Fraction(1, 3)})
    with pytest.raises(ValueError):
        Pmf({0: Fraction(3, 2), 1: Fraction(-1, 2)})


def test_pmf_drops_zero_mass_points():
    pmf = Pmf({0: Fraction(1), 5: Fraction(0)})
    assert pmf.support == (0,)
    assert pmf.p(5) == 0
    assert pmf.p(123) == 0


def test_pmf_remap():
    pmf = Pmf({0: Fraction(1, 4), 1: Fraction(3, 4)})
    flipped = pmf.remap(lambda k: 1 - k)
    assert flipped.p(0) == Fraction(3, 4)
    assert flipped.p(1) == Fraction(1, 4)
    with pytest.raises(ValueError):
        pmf.remap(lambda k: 0)


def test_onecomp_pmf_small_case():
    pmf = ret_pmf("onecomp", 2, 2)
    assert pmf.p(0) == Fraction(1, 3)
    assert pmf.p(1) == Fraction(2, 3)
    assert ret_pmf("onecomp", 2, 1).p(0) == 1


def test_general_pmf_matches_tc_table():
    for d in (2, 3):
        for n in (4, 6):
            row = GOLDEN_TC[d][n]
            pmf = ret_pmf("general", d, n)
            total = sum(row)
            for k, v in enumerate(row):
                assert pmf.p(k) == Fraction(v, total)


def test_ret_pmf_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        ret_pmf("bogus", 2, 5)
    with pytest.raises(ValueError):
        ret_pmf("onecomp", 2, 300)
    with pytest.raises(ValueError):
        ret_pmf("general", 2, 30)
    monkeypatch.setenv("TREECHILD_GENERAL_CEILING", "30")
    assert ret_pmf("general", 2, 30).p(29) > 0


def test_moment_values():
    pmf = Pmf({0: Fraction(1, 4), 2: Fraction(3, 4)})
    assert moment(pmf, 1) == Fraction(3, 2)
    assert moment(pmf, 2) == Fraction(3)
    assert moment(pmf, 2, about=Fraction(3, 2)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        moment(pmf, 0)


def test_poisson_reference():
    pmf = reference_pmf("poisson")
    assert abs(float(pmf.p(0)) - exp(-0.5)) < 1e-12
    assert abs(float(pmf.p(2)) - exp(-0.5) / 8) < 1e-12
    scaled = reference_pmf("poisson", alpha=Fraction(2))
    assert abs(float(scaled.p(1)) - 2 * exp(-2)) < 1e-12


def test_bessel_reference():
    from treechild import bessel_I

    pmf = reference_pmf("bessel")
    i12 = bessel_I(1, 2)
    assert abs(float(pmf.p(0)) - 1 / i12) < 1e-12
    assert abs(float(pmf.p(1)) - 1 / (2 * i12)) < 1e-12
    assert abs(float(pmf.p(2)) - 1 / (12 * i12)) < 1e-12


def test_dirac_reference():
    pmf = reference_pmf("dirac")
    assert pmf.support == (0,)
    assert pmf.p(0) == 1
    shifted = reference_pmf("dirac", point=3)
    assert shifted.p(3) == 1


def test_reference_pmf_rejects_bad_requests():
    with pytest.raises(ValueError):
        reference_pmf("uniform")
    with pytest.raises(ValueError):
        reference_pmf("poisson", truncation=1)
    with pytest.raises(ValueError):
        reference_pmf("poisson", point=2)
    with pytest.raises(ValueError):
        reference_pmf("poisson", alpha=Fraction(100))  # truncation below mode


def test_total_variation_basics():
    a = Pmf({0: Fraction(1)})
    b = Pmf({1: Fraction(1)})
    assert total_variation_exact(a, a) == 0
    assert total_variation_exact(a, b) == 1
    assert total_variation(a, b) == 1.0


weights_st = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6)


def _pmf_from_weights(weights):
    total = sum(weights)
    if total == 0:
        weights = [1]
        total = 1
    return Pmf(
        {i: Fraction(w, total) for i, w in enumerate(weights) if w}
    )


@given(weights_st, weights_st)
def test_total_variation_is_a_metric(wa, wb):
    a = _pmf_from_weights(wa)
    b = _pmf_from_weights(wb)
    tv = total_variation_exact(a, b)
    assert 0 <= tv <= 1
    assert tv == total_variation_exact(b, a)
    assert (tv == 0) == (a.mass == b.mass)


def test_normal_cdf_against_scipy():
    for x in (-3.5, -1.0, -0.2, 0.0, 0.7, 2.4):
        assert abs(normal_cdf(x) - scipy.stats.norm.cdf(x)) < 1e-14


def test_normal_diagnostic_frozen_value():
    gap = normal_cdf_diagnostic(50)
    assert abs(gap - 0.17445140085945987) < 1e-12
    with pytest.raises(ValueError):
        normal_cdf_diagnostic(50, d=3)


def test_twig_bound_matches_direct_sum():
    n = 8
    row = GOLDEN_TC[2][n]
    total = sum(row)
    want = sum(Fraction((n - 1 - k) * v, total) for k, v in enumerate(row))
    assert twig_expectation_bound(2, n) == want
    assert 0 < want < 1
