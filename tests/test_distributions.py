"""Unit tests for exact reticulation-count distributions and diagnostics."""
from fractions import Fraction
from hashlib import sha256
from itertools import islice
from math import exp, factorial, sqrt

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
    words,
)
from treechild.distributions import _truncated, normal_sup_gap


def test_pmf_validates_weights():
    pmf = Pmf({0: 1, 1: 2})
    assert (pmf.weights, pmf.total) == ({0: 1, 1: 2}, 3)
    for bad in (-1, 0.5, True, Fraction(1, 3)):
        with pytest.raises(ValueError, match=r"^weight at 1 must be an int >= 0, got "):
            Pmf({0: 1, 1: bad})
    with pytest.raises(ValueError, match=r"^a law needs a nonzero weight$"):
        Pmf({0: 0, 1: 0})


def test_pmf_drops_zero_mass_points():
    pmf = Pmf({0: 1, 5: 0})
    assert pmf.support == (0,)
    assert pmf.p(5) == 0
    assert pmf.p(123) == 0


def test_pmf_remap():
    pmf = Pmf({0: 1, 1: 3})
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
    pmf = Pmf({0: 1, 2: 3})
    assert moment(pmf, 1) == Fraction(3, 2)
    assert moment(pmf, 2) == Fraction(3)
    assert moment(pmf, 2, about=Fraction(3, 2)) == Fraction(3, 4)
    with pytest.raises(ValueError):
        moment(pmf, 0)


def test_poisson_reference():
    pmf = reference_pmf("poisson")
    assert abs(float(pmf.p(0)) - exp(-0.5)) < 1e-12
    assert abs(float(pmf.p(2)) - exp(-0.5) / 8) < 1e-12


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


# each law's support size and the sha256 of repr((sorted(weights.items()), total)),
# which pins its exact integer weights
REFERENCE_DIGESTS = {
    "poisson": (41, "9c39a4c7f8202a8d8af46f291846983a1cce5754a1964e5a2a6501e88265bd57"),
    "bessel": (41, "1b26eda2d2b689c8608eef0d2d7a675819598f12fb177ebcff801d6535fc0f4b"),
    "dirac": (1, "d3b0df46ee3e48e1b2b649a7a364bf46fca75f524ae301dd3e237f69984bccf1"),
}


@pytest.mark.parametrize("law", sorted(REFERENCE_DIGESTS))
def test_reference_weights_are_pinned(law):
    pmf = reference_pmf(law)
    digest = sha256(repr((sorted(pmf.weights.items()), pmf.total)).encode()).hexdigest()
    assert (len(pmf.weights), digest) == REFERENCE_DIGESTS[law]


def test_reference_pmf_rejects_bad_requests():
    with pytest.raises(ValueError, match=r"^unknown law 'uniform'$"):
        reference_pmf("uniform")


def test_truncation_refuses_an_uncertified_tail():
    # the two refusals no reference law reaches: a ratio bound of at least 1
    # (terms still growing at the truncation), and a tail not below TAIL_BOUND
    with pytest.raises(ValueError, match=r"^truncation 40 is below the mode; raise it$"):
        _truncated(lambda k: Fraction(100**k, factorial(k)), Fraction(100, 41))
    with pytest.raises(ValueError, match=r"^truncation 40 leaves certified tail mass 2\.44e-02$"):
        _truncated(lambda k: Fraction(1), Fraction(1, 2))
    assert _truncated(lambda k: Fraction(1, 4**k), Fraction(1, 4)).total == (4**41 - 1) // 3


def test_total_variation_basics():
    a = Pmf({0: 1})
    b = Pmf({1: 1})
    assert total_variation_exact(a, a) == 0
    assert total_variation_exact(a, b) == 1
    assert total_variation(a, b) == 1.0


weights_st = st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any)


@given(weights_st, weights_st)
def test_total_variation_is_a_metric(wa, wb):
    a = Pmf(dict(enumerate(wa)))
    b = Pmf(dict(enumerate(wb)))
    tv = total_variation_exact(a, b)
    assert 0 <= tv <= 1
    assert tv == total_variation_exact(b, a)
    keys = range(max(len(wa), len(wb)))
    assert (tv == 0) == all(a.p(k) == b.p(k) for k in keys)


def _masses(weights):
    total = sum(weights.values())
    return {k: Fraction(w, total) for k, w in weights.items() if w}


@given(
    st.dictionaries(st.integers(-5, 40), st.integers(0, 10**30), min_size=1).filter(
        lambda w: any(w.values())
    ),
    st.dictionaries(st.integers(-5, 40), st.integers(1, 10**6), min_size=1),
    st.integers(1, 4),
    st.fractions(min_value=-10, max_value=40, max_denominator=50),
    st.integers(1, 60),
)
@settings(max_examples=60)
def test_weight_arithmetic_matches_rational_masses(wa, wb, r, about, n):
    # the rational-mass formulas the integer arithmetic replaces, as the oracle
    a, b = Pmf(wa), Pmf(wb)
    pa, pb = _masses(wa), _masses(wb)
    keys = set(pa) | set(pb)
    tv = sum(abs(pa.get(k, 0) - pb.get(k, 0)) for k in keys) / 2
    assert total_variation_exact(a, b) == tv
    assert moment(a, r, about=about) == sum((k - about) ** r * v for k, v in pa.items())
    cum, gap = Fraction(0), 0.0
    for k in sorted(pa):
        phi = normal_cdf((k - n + sqrt(n)) / (n / 4) ** 0.25)
        below = float(cum)
        cum += pa[k]
        gap = max(gap, abs(phi - below), abs(phi - float(cum)))
    assert normal_sup_gap(a, n) == gap


def test_normal_cdf_against_scipy():
    for x in (-3.5, -1.0, -0.2, 0.0, 0.7, 2.4):
        assert abs(normal_cdf(x) - scipy.stats.norm.cdf(x)) < 1e-14


def test_normal_diagnostic_frozen_value():
    gap = normal_cdf_diagnostic(50)
    assert abs(gap - 0.17445140085945987) < 1e-12


def test_twig_bound_matches_direct_sum():
    n = 8
    row = GOLDEN_TC[2][n]
    total = sum(row)
    want = sum(Fraction((n - 1 - k) * v, total) for k, v in enumerate(row))
    assert twig_expectation_bound(2, n) == want
    assert 0 < want < 1


def _top_band(d: int, n_max: int, top: int) -> dict:
    """n -> [TC(n, k) for max(0, n-1-top) <= k <= n-1], 2 <= n <= n_max: the
    top band of each TC row, from word row n-1's strands k >= n-1-top only."""
    def window(j):
        return max(0, j - top), j

    rows = islice(words._word_rows(d, window), n_max - 1)
    return {j + 1: words._tc_counts(j + 1, words._last_cells(row), window(j)[0])
            for j, row in enumerate(rows, 1)}


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_top_band_matches_the_whole_row(d):
    band = _top_band(d, 60, 3)
    assert band == {n: words.tc_row(d, n)[max(0, n - 4):] for n in range(2, 61)}


def test_d2_top_two_counts_are_in_ratio_one_half():
    # TC(n, n-2)/TC(n, n-1) is Poisson(1/2)'s P(1)/P(0) = 1/2 exactly at
    # every n, not only in the limit; pinned as computed
    band = _top_band(2, 400, 1)
    assert all(2 * band[n][0] == band[n][1] for n in range(2, 401))


def test_d2_top_ratio_approaches_its_poisson_limit():
    # TC(n, n-3)/TC(n, n-1) tends to Poisson(1/2)'s P(2)/P(0) = 1/8 from
    # below, the gap shrinking by about 1.6 a doubling of n
    band = _top_band(2, 400, 2)
    gaps = [Fraction(band[n][0], band[n][2]) - Fraction(1, 8) for n in (100, 200, 400)]
    assert [float(g) for g in gaps] == pytest.approx([-2.275e-3, -1.407e-3, -8.77e-4], rel=1e-3)
    assert abs(gaps[0]) > abs(gaps[1]) > abs(gaps[2])
