"""Shared parameter triple for network counting problems.

Conventions used throughout the package:

  d  in-degree of every reticulation node (d >= 2); d = 2 is the classical
     bicombining case
  n  number of labeled leaves (n >= 1)
  k  number of reticulation nodes

The tree-child condition (every non-leaf node has at least one child that is
not a reticulation node) forces 0 <= k <= n - 1, so Params rejects k outside
that range; counting routines that sum over k never leave it.

Every integer argument of the package obeys one rule, `at_least(least,
**values)`: a value that is not an int, is a bool, or lies below its least
value is refused with a ValueError that reads alike everywhere, e.g. "n must
be an int >= 2, got 1".  Bounds that tie two arguments together (k <= n - 1
here, s <= max(m - 1, 1) for component graphs) are checked after it, where
they arise.

The exponential routes refuse inputs above the safety ceilings of
CEILINGS; `ceiling(name)` reads one at call time, and the environment
variable TREECHILD_<name>_CEILING overrides its default.  Every refusal
goes through `within(name, value, what)` and reads alike, e.g. "n = 6
exceeds the WORD ceiling 5 (set TREECHILD_WORD_CEILING to raise it)".

Every exact division of the package goes through one of two helpers:
`exact_div(num, den)`, or, when the divisor is a power of two 2^e,
`exact_shift(num, e)`.  Both raise ExactnessError on a remainder, so a
count that must be an integer is computed in ints and divided once through
one of them.  Their messages name the operands by bit length only, so
building one never fails, however large the count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

# default safety ceilings of the exponential routes: brute-force word
# enumeration (n; the word length 2n+(d-1)k stays around 20), the literal
# component-graph enumeration (at k + 1 nodes) and the blow-up (k: its
# marked-sink series grows with k and d, and each n is then one coefficient
# extraction, so n needs no ceiling), and the reticulation laws (n)
CEILINGS = {"WORD": 5, "BLOWUP_K": 3, "ONECOMP": 200, "GENERAL": 25}


def ceiling(name: str) -> int:
    """The safety ceiling `name` of CEILINGS: TREECHILD_<name>_CEILING when
    that is set, otherwise the default.  Raises ValueError, naming the
    variable, when the value is not a non-negative integer."""
    default = CEILINGS[name]
    var = f"TREECHILD_{name}_CEILING"
    raw = os.environ.get(var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise ValueError(f"environment variable {var} must be a non-negative integer, got {raw!r}")
    return value


def at_least(least: int, **values) -> None:
    """Refuse each named value that is not an int, is a bool, or is below
    `least`, with a ValueError naming it: "n must be an int >= 2, got 1".
    The type test is exact: a bool, like any other subclass of int, is
    refused."""
    for name, value in values.items():
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def within(name: str, value: int, what: str) -> None:
    """Refuse `value` above the safety ceiling `name` with a ValueError that
    names `what`, its value, the ceiling in force and its variable."""
    limit = ceiling(name)
    if value > limit:
        raise ValueError(
            f"{what} = {value} exceeds the {name} ceiling {limit} "
            f"(set TREECHILD_{name}_CEILING to raise it)"
        )


class ExactnessError(ArithmeticError):
    """A remainder or recurrence check failed, or two routes
    to the same value disagree, or a verify suite caught a failure: the
    arithmetic went wrong, not the input.  The CLI reports it as a
    verification failure (exit 1).  Its messages never print a large operand
    through str(), so building one cannot fail, whatever the count's size."""


def exact_div(num: int, den: int) -> int:
    """num // den, refused with ExactnessError when the remainder is not
    zero: "division of a 12-bit integer by a 4-bit integer is not exact"."""
    q, r = divmod(num, den)
    if r:
        raise ExactnessError(
            f"division of a {num.bit_length()}-bit integer by a "
            f"{den.bit_length()}-bit integer is not exact"
        )
    return q


def exact_shift(num: int, e: int) -> int:
    """num >> e, the value of exact_div(num, 2**e) without a long division.
    When the low e bits of num are not all zero, the refusal is exact_div's,
    message and all."""
    if num & ((1 << e) - 1):
        exact_div(num, 1 << e)  # not exact, so this raises
    return num >> e


@dataclass(frozen=True)
class Params:
    d: int
    n: int
    k: int

    def __post_init__(self):
        d, n, k = self.d, self.n, self.k
        # one test admits every valid triple: Params is built once per
        # count, so the three calls below run only to name what is wrong
        if type(d) is type(n) is type(k) is int and d >= 2 and 0 <= k < n:
            return
        at_least(2, d=d)
        at_least(1, n=n)
        at_least(0, k=k)
        raise ValueError(f"reticulation count k must satisfy 0 <= k <= n-1, got k={k} with n={n}")

