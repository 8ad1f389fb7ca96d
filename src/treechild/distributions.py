"""Exact reticulation-count distributions and convergence diagnostics.

The number of reticulation nodes of a uniformly random network is a random
variable with an exactly computable law: each mass is a ratio of two
integer counts.  This module builds those laws for the one-component and
general families, the reference limit laws they approach (normal after
standardization for d = 2 one-component; a Bessel law for d = 3; point
masses for d >= 4; a Poisson law for the d = 2 general family viewed from
the top, i.e. for n-1 minus the count), and the distances used to watch
the convergence.

Reference laws are truncated series, renormalized; construction refuses
truncations whose certified tail mass is not below 1e-15, so the
renormalization never hides real mass.  All pmf arithmetic is rational;
floats appear only in the final distance values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import erfc, factorial, sqrt

from .onecomp import otc_row
from .params import at_least, within
from .words import tc_row

TAIL_BOUND = Fraction(1, 10**15)


@dataclass(frozen=True)
class Pmf:
    """Finite-support probability mass function with exact rational masses.

    Masses must lie in [0, 1] and sum to exactly 1; zero masses are
    dropped.  Immutable by convention (the mass map is not copied out)."""

    mass: dict

    def __post_init__(self):
        total = Fraction(0)
        cleaned = {}
        for k, v in self.mass.items():
            v = Fraction(v)
            if not 0 <= v <= 1:
                raise ValueError(f"mass at {k} outside [0,1]: {v}")
            if v:
                cleaned[int(k)] = v
            total += v
        if total != 1:
            raise ValueError(f"masses sum to {total}, not 1")
        object.__setattr__(self, "mass", cleaned)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.mass))

    def p(self, k: int) -> Fraction:
        return self.mass.get(k, Fraction(0))

    def remap(self, fn) -> "Pmf":
        """Pmf of fn(X); fn must be injective on the support."""
        out: dict = {}
        for k, v in self.mass.items():
            j = fn(k)
            if j in out:
                raise ValueError("remap function is not injective on the support")
            out[j] = v
        return Pmf(out)


def ret_pmf(family: str, d: int, n: int) -> Pmf:
    """Law of the reticulation count for a uniform network with n leaves.

    family "onecomp" uses the closed-form counts (cheap, ceiling ONECOMP);
    family "general" tabulates the word recurrence (ceiling GENERAL)."""
    if family == "onecomp":
        name, row = "ONECOMP", otc_row
    elif family == "general":
        name, row = "GENERAL", tc_row
    else:
        raise ValueError(f"unknown family {family!r}")
    within(name, n, "n")
    counts = row(d, n)  # checks d and n by Params' rule
    total = sum(counts)
    return Pmf({k: Fraction(c, total) for k, c in enumerate(counts)})


def moment(pmf: Pmf, r: int, about=0) -> Fraction:
    """Exact r-th moment of the law about the given center."""
    at_least(1, r=r)
    center = Fraction(about)
    return sum((Fraction(k) - center) ** r * v for k, v in pmf.mass.items())


def _truncated(weights, truncation: int, ratio_bound: Fraction) -> Pmf:
    """Renormalize exact weights w_0..w_T, certifying the dropped tail.

    ratio_bound must dominate w_(j+1)/w_j for every j >= truncation, so the
    tail is geometrically bounded; the certificate is exact rational."""
    if not 0 < ratio_bound < 1:
        raise ValueError("need a geometric ratio bound in (0, 1)")
    w = [Fraction(x) for x in weights]
    partial = sum(w)
    tail = w[-1] * ratio_bound / (1 - ratio_bound)
    if tail / partial >= TAIL_BOUND:
        raise ValueError(
            f"truncation {truncation} leaves certified tail mass {float(tail / partial):.2e}"
        )
    return Pmf({k: v / partial for k, v in enumerate(w)})


def reference_pmf(law: str, truncation: int = 40, **params) -> Pmf:
    """Truncated-and-renormalized limit laws.

    law "poisson": rate alpha (default 1/2), masses ~ alpha^k / k!
    law "bessel":  order v and argument a (defaults 1 and 2), masses
                   ~ (a/2)^(2k+v) / (k! (k+v)!), normalizer I_v(a)
    law "dirac":   point mass at point (default 0); truncation unused
    """
    if law == "dirac":
        point = params.pop("point", 0)
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        return Pmf({int(point): Fraction(1)})
    at_least(2, truncation=truncation)
    if law == "poisson":
        alpha = Fraction(params.pop("alpha", Fraction(1, 2)))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        if alpha <= 0:
            raise ValueError("need alpha > 0")
        if alpha / (truncation + 1) >= 1:
            raise ValueError("truncation below the mode; raise it")
        weights = [alpha**k / factorial(k) for k in range(truncation + 1)]
        return _truncated(weights, truncation, alpha / (truncation + 1))
    if law == "bessel":
        v = params.pop("v", 1)
        a = Fraction(params.pop("a", 2))
        if params:
            raise ValueError(f"unexpected parameters {sorted(params)}")
        at_least(0, v=v)
        if a <= 0:
            raise ValueError("need a > 0")
        half_sq = (a / 2) ** 2
        weights = [
            (a / 2) ** (2 * k + v) / (factorial(k) * factorial(k + v))
            for k in range(truncation + 1)
        ]
        ratio = half_sq / ((truncation + 1) * (truncation + v + 1))
        if ratio >= 1:
            raise ValueError("truncation below the mode; raise it")
        return _truncated(weights, truncation, ratio)
    raise ValueError(f"unknown law {law!r}")


def total_variation_exact(p: Pmf, q: Pmf) -> Fraction:
    """(1/2) sum |p - q| over the union support, exact."""
    keys = set(p.mass) | set(q.mass)
    return sum(abs(p.p(k) - q.p(k)) for k in keys) / 2


def total_variation(p: Pmf, q: Pmf) -> float:
    return float(total_variation_exact(p, q))


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function; accurate
    to about 1e-12 over the diagnostic range."""
    return erfc(-x / sqrt(2.0)) / 2


def normal_cdf_diagnostic(n: int, d: int = 2) -> float:
    """Sup-distance between the exact CDF of the standardized reticulation
    count (R_n - n + sqrt(n)) / (n/4)^(1/4) for the d = 2 one-component
    family and the standard normal CDF.

    At every atom the running exact CDF is compared from both sides, which
    is where the sup over the whole line is attained.
    """
    if d != 2:
        raise ValueError("the normal limit is a d=2 statement")
    return normal_sup_gap(ret_pmf("onecomp", 2, n), n)


def normal_sup_gap(pmf: Pmf, n: int) -> float:
    """The sup-distance of `normal_cdf_diagnostic`, for a d = 2 one-component
    law at n that the caller already holds."""
    at_least(1, n=n)
    cum = Fraction(0)
    gap = 0.0
    scale = (n / 4) ** 0.25
    for k in pmf.support:
        z = (k - n + sqrt(n)) / scale
        below = float(cum)
        cum += pmf.p(k)
        above = float(cum)
        phi = normal_cdf(z)
        gap = max(gap, abs(phi - below), abs(phi - above))
    return gap


def twig_expectation_bound(d: int, n: int) -> Fraction:
    """E(n - 1 - T_n), exactly.

    Every tree node with no reticulation descendant sits in a pendant
    subtree, and the count of such nodes is bounded in expectation by this
    quantity; for d = 2 it drifts toward 1/2, for d >= 3 toward 0.
    """
    pmf = ret_pmf("general", d, n)
    return Fraction(n - 1) - moment(pmf, 1)
