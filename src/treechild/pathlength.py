"""Total path length of top tree components of one-component networks.

Deleting the reticulation nodes of a one-component network, together with
their incident edges and their child leaves, leaves a tree, the top tree
component.  P(N) is the sum of root distances over all vertices of that
tree.  This module computes the total of P(N) over the whole class
OC(d, n, k) in closed form, checks it against a one-step recurrence, and
relates it to the total path length of unary-binary trees.

The expected value E(P_n) over a uniformly random one-component network is
kept as an exact rational; floats appear only in the trend diagnostics.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, cosh, factorial, pi, sqrt

from .asymptotics import bessel_I
from .onecomp import count_otc_total, double_factorial
from .params import Params, at_least, exact_div


def path_length_total(d: int, n: int, k: int) -> int:
    """Sum of P(N) over the class OC(d, n, k), in closed form.

    (2n+(d-2)k)! / (d!^k (2n-2k)!) times ((2n-2k)!! - (2n-2k-1)!!).
    Always >= 1; the minimum 1 is the single root-leaf edge at n = 1, k = 0.
    """
    Params(d, n, k)
    prefactor = exact_div(
        factorial(2 * n + (d - 2) * k),
        factorial(d) ** k * factorial(2 * n - 2 * k),
    )
    return prefactor * (double_factorial(2 * n - 2 * k) - double_factorial(2 * n - 2 * k - 1))


def path_length_total_recurrence(d: int, n: int, k: int) -> int:
    """Same total, iterating P(n,k) = binom(2n+(d-2)k, d) P(n-1,k-1).

    The k = 0 base is (2n)!! - (2n-1)!!.  Kept as an independent route; the
    closed form must reproduce it everywhere.
    """
    Params(d, n, k)
    value = double_factorial(2 * (n - k)) - double_factorial(2 * (n - k) - 1)
    for i in range(1, k + 1):
        ni, ki = n - k + i, i
        value *= comb(2 * ni + (d - 2) * ki, d)
    return value


def unary_binary_path_length(L: int, K: int) -> int:
    """Total path length over unary-binary trees with L labeled leaves and
    K unary nodes: ((2L)!! - (2L-1)!!) binom(2L+K, K).

    For L = n-k and K = dk this equals path_length_total(d, n, k) divided by
    the multinomial (dk)!/(d!)^k that distributes reticulation edge slots.
    """
    at_least(1, L=L)
    at_least(0, K=K)
    return (double_factorial(2 * L) - double_factorial(2 * L - 1)) * comb(2 * L + K, K)


def expected_path_length(d: int, n: int) -> Fraction:
    """E(P_n): average top-tree path length of a random one-component
    network with n leaves, as an exact rational.

    The numerator weights each class by binom(n,k) because the k leaf labels
    below reticulations can be chosen freely without changing P.
    """
    at_least(2, d=d, n=n)
    num = sum(comb(n, k) * path_length_total(d, n, k) for k in range(n))
    return Fraction(num, count_otc_total(d, n))


def expected_path_length_reference(d: int) -> float:
    """Limit constant of the normalization used in expected_path_length_trend."""
    at_least(2, d=d)
    if d == 2:
        return 2 * sqrt(pi)
    if d == 3:
        return 9 * (cosh(2) - bessel_I(0, 2)) / (2 * bessel_I(1, 2))
    return 1.0


def expected_path_length_trend(d: int, n_values) -> dict[int, float]:
    """Normalized E(P_n) ratios whose limit is expected_path_length_reference(d).

    d = 2 normalizes by n^(7/4), d = 3 by n^2, d >= 4 by d^2 n^2 / 2.
    Convergence is slow, so this reports the sequence instead of asserting
    a tolerance at any fixed n.
    """
    n_values = list(n_values)
    if not n_values:
        raise ValueError("need at least one n value")
    out = {}
    for n in n_values:
        e = expected_path_length(d, n)
        if d == 2:
            out[n] = float(e) / n ** 1.75
        elif d == 3:
            out[n] = float(e) / n ** 2
        else:
            out[n] = float(2 * e) / (d * d * n * n)
    return out
