"""Exact reticulation-count distributions and convergence diagnostics.

The number of reticulation nodes of a uniformly random network is a random
variable with an exactly computable law: each mass is a ratio of two
integer counts.  This module builds those laws for the one-component and
general families, the paper's fixed limit laws they approach, and the
distances used to watch the convergence.  Seen from the top, i.e. for n-1
minus the count, the limits are Poisson(1/2) for the d = 2 general family,
the Bessel law 1/(I_1(2) k! (k+1)!) for d = 3 and a point mass at 0 for
d >= 4; after standardization the d = 2 one-component count is normal.

Every law is its integer weights over their sum, P(k) = weights[k] / total,
never normalized.  The Poisson and Bessel laws are their series truncated
at TRUNCATION = 40, scaled to integers over their common denominator, with
a certified tail mass below 1e-15.  Exact results are one `Fraction` built
from integer sums; floats appear only in the final distance values.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import erfc, factorial, lcm, sqrt

from .onecomp import otc_row
from .params import at_least, exact_div, within
from .words import tc_row

TAIL_BOUND = Fraction(1, 10**15)

# the last term kept of the Poisson and Bessel series
TRUNCATION = 40


@dataclass(frozen=True)
class Pmf:
    """Finite-support law given by integer weights: P(k) = weights[k] / total.

    Weights must be ints >= 0 with a positive sum; zero weights are dropped
    and `total` is their sum, computed once.  `p(k)` is the reduced
    `Fraction`.  Immutable by convention (the weight map is not copied out)."""

    weights: dict
    total: int = field(init=False)

    def __post_init__(self):
        at_least(0, **{f"weight at {k}": w for k, w in self.weights.items()})
        weights = {k: w for k, w in self.weights.items() if w}
        if not weights:
            raise ValueError("a law needs a nonzero weight")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "total", sum(weights.values()))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))

    def p(self, k: int) -> Fraction:
        return Fraction(self.weights.get(k, 0), self.total)

    def remap(self, fn) -> "Pmf":
        """Pmf of fn(X); fn must be injective on the support."""
        out: dict = {}
        for k, w in self.weights.items():
            j = fn(k)
            if j in out:
                raise ValueError("remap function is not injective on the support")
            out[j] = w
        return Pmf(out)


def ret_pmf(family: str, d: int, n: int) -> Pmf:
    """Law of the reticulation count for a uniform network with n leaves,
    with the count row itself as weights.

    family "onecomp" uses the closed-form counts (cheap, ceiling ONECOMP);
    family "general" tabulates the word recurrence (ceiling GENERAL)."""
    if family == "onecomp":
        name, row = "ONECOMP", otc_row
    elif family == "general":
        name, row = "GENERAL", tc_row
    else:
        raise ValueError(f"unknown family {family!r}")
    within(name, n, "n")
    return Pmf(dict(enumerate(row(d, n))))  # row checks d and n by Params' rule


def moment(pmf: Pmf, r: int, about=0) -> Fraction:
    """Exact r-th moment of the law about the given center."""
    at_least(1, r=r)
    center = Fraction(about)
    num, den = center.numerator, center.denominator
    # sum_k w_k (k - num/den)^r / total, over the common denominator total * den^r
    weighted = sum(w * (k * den - num) ** r for k, w in pmf.weights.items())
    return Fraction(weighted, pmf.total * den**r)


def _truncated(term, ratio_bound: Fraction) -> Pmf:
    """The law proportional to the exact rational terms term(0), ..., term(T)
    at T = TRUNCATION, scaled to integers by the lcm of their denominators
    (exact_div by each denominator is exact by construction).

    ratio_bound must dominate term(j+1)/term(j) for every j >= T, so the
    dropped tail is geometrically bounded; the certificate is exact rational."""
    if ratio_bound >= 1:
        raise ValueError(f"truncation {TRUNCATION} is below the mode; raise it")
    terms = [term(k) for k in range(TRUNCATION + 1)]
    scale = lcm(*(t.denominator for t in terms))
    weights = [t.numerator * exact_div(scale, t.denominator) for t in terms]
    tail = weights[-1] * ratio_bound / ((1 - ratio_bound) * sum(weights))
    if tail >= TAIL_BOUND:
        raise ValueError(
            f"truncation {TRUNCATION} leaves certified tail mass {float(tail):.2e}"
        )
    return Pmf(dict(enumerate(weights)))


def reference_pmf(law: str) -> Pmf:
    """The paper's limit laws seen from the top: "poisson" is Poisson(1/2),
    "bessel" has weights 1/(k! (k+1)!) over I_1(2), and "dirac" is the point
    mass at 0.  The two series stop at TRUNCATION, their tails certified."""
    if law == "poisson":
        return _truncated(
            lambda k: Fraction(1, 2**k * factorial(k)), Fraction(1, 2 * (TRUNCATION + 1))
        )
    if law == "bessel":
        return _truncated(
            lambda k: Fraction(1, factorial(k) * factorial(k + 1)),
            Fraction(1, (TRUNCATION + 1) * (TRUNCATION + 2)),
        )
    if law == "dirac":
        return Pmf({0: 1})
    raise ValueError(f"unknown law {law!r}")


def total_variation_exact(p: Pmf, q: Pmf) -> Fraction:
    """(1/2) sum |p - q| over the union support, exact: the two laws'
    weights cross-multiplied by each other's total."""
    a, b = p.total, q.total
    keys = p.weights.keys() | q.weights.keys()
    diff = sum(abs(p.weights.get(k, 0) * b - q.weights.get(k, 0) * a) for k in keys)
    return Fraction(diff, 2 * a * b)


def total_variation(p: Pmf, q: Pmf) -> float:
    return float(total_variation_exact(p, q))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function; accurate
    to about 1e-12 over the diagnostic range."""
    return erfc(-x / sqrt(2.0)) / 2


def normal_cdf_diagnostic(n: int) -> float:
    """Sup-distance between the exact CDF of the standardized reticulation
    count (R_n - n + sqrt(n)) / (n/4)^(1/4) for the d = 2 one-component
    family (the paper's only normal limit) and the standard normal CDF.

    At every atom the running exact CDF is compared from both sides, which
    is where the sup over the whole line is attained.
    """
    return normal_sup_gap(ret_pmf("onecomp", 2, n), n)


def normal_sup_gap(pmf: Pmf, n: int) -> float:
    """The sup-distance of `normal_cdf_diagnostic`, for a d = 2 one-component
    law at n that the caller already holds."""
    at_least(1, n=n)
    cum, total = 0, pmf.total
    gap = 0.0
    scale = (n / 4) ** 0.25
    for k in pmf.support:
        z = (k - n + sqrt(n)) / scale
        # int / int true division rounds correctly, as float(Fraction) does
        below = cum / total
        cum += pmf.weights[k]
        above = cum / total
        phi = normal_cdf(z)
        gap = max(gap, abs(phi - below), abs(phi - above))
    return gap


def twig_expectation_bound(d: int, n: int) -> Fraction:
    """E(n - 1 - T_n), exactly.

    Every tree node with no reticulation descendant sits in a pendant
    subtree, and the count of such nodes is bounded in expectation by this
    quantity; for d = 2 it drifts toward 1/2, for d >= 3 toward 0.
    """
    return n - 1 - moment(ret_pmf("general", d, n), 1)
