"""First-order asymptotics and exact-vs-asymptotic diagnostics.

The growth of the network counts splits into regimes:

  one-component totals   three cases by d: a stretched-exponential formula
                         at d = 2, a Bessel-constant multiple of the
                         maximal-k count at d = 3, and asymptotic equality
                         with the maximal-k count for d >= 4
  general totals         a Theta-envelope (n!)^d gamma^n e^(3 a1 beta n^(1/3))
                         n^alpha with explicit alpha, beta, gamma and the
                         principal Airy root a1; no multiplicative constant
                         is known, so diagnostics check bounded ratios, not
                         convergence
  general maximal ratio  TC_n / TC_(n,n-1) tends to sqrt(e) for d = 2 and
                         to 1 for d >= 3, and is sandwiched in [1, sqrt(e)]

Everything that compares against exact counts goes through log space so the
diagnostics run far beyond float range.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, lgamma, log, pi, sqrt

from .logvalue import LogValue
from .onecomp import count_otc_total, otc_row
from .params import at_least
from .words import _slice_sum, lambda_factor, tc_row

# principal root of the Airy function Ai, 15 significant digits
AIRY_A1 = -2.338107410459767


@dataclass(frozen=True)
class AsymptoticParams:
    """Envelope parameters: exact alpha and gamma, float beta."""

    alpha: Fraction
    beta: float
    gamma: Fraction
    airy_a1: float = AIRY_A1


def _alpha_beta(d: int) -> tuple[Fraction, float]:
    """The envelope's alpha and beta, which need no big integer."""
    return Fraction(-d * (3 * d - 1), 2 * (d + 1)), ((d - 1) / (d + 1)) ** (2.0 / 3.0)


def params(d: int) -> AsymptoticParams:
    """alpha = -d(3d-1)/(2(d+1)), beta = ((d-1)/(d+1))^(2/3),
    gamma = 4(d+1)^(d-1)/(d-1)!, four times `words.lambda_factor`.  beta is
    float with about 1e-12 accuracy; the others are exact."""
    at_least(2, d=d)
    alpha, beta = _alpha_beta(d)
    return AsymptoticParams(alpha=alpha, beta=beta, gamma=4 * lambda_factor(d))


# the tail bound at which _bessel_I_exact stops summing
_BESSEL_TOL = Fraction(1, 10**30)


def _bessel_I_exact(v: int, a) -> Fraction:
    """Partial sum of I_v(a) = sum_k (a/2)^(2k+v)/(k!(k+v)!) with the tail
    geometrically bounded below _BESSEL_TOL."""
    at_least(0, v=v)
    a = Fraction(a)
    if a <= 0:
        # the k = 0 term is the whole story at a = 0
        if a == 0:
            return Fraction(1 if v == 0 else 0)
        raise ValueError("series evaluated for non-negative a only")
    half = a / 2
    term = half**v / factorial(v)
    total = term
    k = 0
    while True:
        term *= half * half / ((k + 1) * (k + v + 1))
        total += term
        k += 1
        ratio = half * half / ((k + 1) * (k + v + 1))
        if ratio < 1 and term * ratio / (1 - ratio) < _BESSEL_TOL:
            return total


def bessel_I(v: int, a) -> float:
    """Modified Bessel function of the first kind, relative error < 1e-14
    (exact rational partial sums, tail bound well below float resolution)."""
    return float(_bessel_I_exact(v, a))


def otc_asymptotic(d: int, n: int) -> LogValue:
    """First-order estimate of the one-component total, constant included.

    d = 2:  (1/(4 pi sqrt(e))) (n!)^2 2^n e^(2 sqrt(n)) n^(-9/4)
    d = 3:  (I_1(2) sqrt(3)/(9 pi)) (n!)^3 (9/2)^n n^(-3)
    d >= 4: (d!/(d^(d-1/2) (2 pi)^((d-1)/2))) (n!)^d (d^d/d!)^n n^(3(1-d)/2)
    """
    at_least(2, d=d, n=n)
    if d == 2:
        ln = (
            -log(4 * pi)
            - 0.5
            + 2 * lgamma(n + 1)
            + n * log(2.0)
            + 2 * sqrt(n)
            - 2.25 * log(n)
        )
    elif d == 3:
        ln = (
            log(bessel_I(1, 2) * sqrt(3.0) / (9 * pi))
            + 3 * lgamma(n + 1)
            + n * log(4.5)
            - 3 * log(n)
        )
    else:
        lfact = lgamma(d + 1)
        ln = (
            lfact
            - (d - 0.5) * log(d)
            - (d - 1) / 2 * log(2 * pi)
            + d * lgamma(n + 1)
            + n * (d * log(d) - lfact)
            - 1.5 * (d - 1) * log(n)
        )
    return LogValue(ln)


def otc_asymptotic_ratio(d: int, n: int) -> float:
    """Exact total divided by the first-order estimate; tends to 1."""
    return otc_asymptotic(d, n).ratio_to(count_otc_total(d, n))


def otc_max_k_ratio(d: int, n: int) -> Fraction:
    """Exact OTC_n / OTC(n, n-1); tends to I_1(2) for d = 3 and to 1 for
    d >= 4 (for d = 2 it diverges, the mass sits away from k = n-1)."""
    row = otc_row(d, n)
    return Fraction(sum(row), row[-1])


def tc_envelope(d: int, n: int) -> LogValue:
    """The Theta-envelope (n!)^d gamma^n e^(3 a1 beta n^(1/3)) n^alpha.

    No constant: the exact count over this envelope is bounded above and
    below by positive constants, which is all the growth analysis gives.
    """
    at_least(2, d=d, n=n)
    alpha, beta = _alpha_beta(d)
    ln_gamma_factor = log(4.0) + (d - 1) * log(d + 1.0) - lgamma(d)
    ln = (
        d * lgamma(n + 1)
        + n * ln_gamma_factor
        + 3 * AIRY_A1 * beta * n ** (1.0 / 3.0)
        + float(alpha) * log(n)
    )
    return LogValue(ln)


def tc_envelope_ratio(d: int, n_values) -> dict[int, float]:
    """TC(n, n-1) / envelope over a grid; bounded, not convergent.

    The maximal-k count carries the total's growth order up to the
    polynomial factor absorbed in alpha, so this ratio sequence staying in
    a fixed band is the testable face of the Theta-result.  TC(n, n-1) is
    n! times the sum of all-heavy slice row n-1.  The sums come from a
    per-process cache that rolls d's slice once, one row at a time, up to
    the largest n asked for so far, and keeps one integer per row; n! is
    applied to a sum only here.  Keys ascend.
    """
    at_least(2, d=d)
    grid = set(n_values)
    for n in grid:
        at_least(2, n=n)
    return {
        n: tc_envelope(d, n).ratio_to(factorial(n) * _slice_sum(d, n - 1))
        for n in sorted(grid)
    }


def ratio_sqrt_e(d: int, n: int) -> Fraction:
    """Exact TC_n / TC(n, n-1)."""
    at_least(2, d=d, n=n)
    counts = tc_row(d, n)
    return Fraction(sum(counts), counts[-1])


def ratio_sqrt_e_reference(d: int) -> float:
    """Limit of ratio_sqrt_e: sqrt(e) in the binary case, else 1."""
    at_least(2, d=d)
    return exp(0.5) if d == 2 else 1.0


def e_lower_bound() -> Fraction:
    """1/0! + ... + 1/29!, a strict rational lower bound on e, short by < 1e-32.

    ratio_sqrt_e(2, n)^2 <= this bound certifies ratio <= sqrt(e) in exact
    arithmetic without touching irrationals.
    """
    return sum(Fraction(1, factorial(j)) for j in range(30))
