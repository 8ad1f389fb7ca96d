"""Log-space representation of huge positive reals.

The asymptotic estimators evaluate expressions like (n!)^d gamma^n n^alpha
whose magnitudes overflow floats long before n reaches the ranges of
interest, so they work with natural logarithms throughout and wrap the
result in a LogValue.  A LogValue converts to float only on demand and
reports itself as mantissa * 10^exponent when the plain float would
overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .params import at_least


@dataclass(frozen=True)
class LogValue:
    """A positive real x stored as ln(x)."""

    ln: float

    @property
    def log10(self) -> float:
        return self.ln / math.log(10.0)

    def to_mantissa_exponent(self) -> tuple[float, int]:
        """(m, e) with x = m * 10^e and 1 <= m < 10."""
        exponent = math.floor(self.log10)
        mantissa = 10.0 ** (self.log10 - exponent)
        # floor + power can land on 10.0 through rounding at decade edges
        if mantissa >= 10.0:
            mantissa /= 10.0
            exponent += 1
        return mantissa, exponent

    def __float__(self) -> float:
        # inf for values beyond float range rather than raising
        try:
            return math.exp(self.ln)
        except OverflowError:
            return math.inf

    def __str__(self) -> str:
        m, e = self.to_mantissa_exponent()
        return f"{m:.6f}e{e:+d}"

    def ratio_to(self, exact: int) -> float:
        """exact / x as a float, usable when both overflow separately."""
        at_least(1, exact=exact)
        return math.exp(log_of_int(exact) - self.ln)


def log_of_int(value: int) -> float:
    """ln(value) for arbitrarily large positive ints."""
    at_least(1, value=value)
    if value.bit_length() <= 900:
        return math.log(value)
    shift = value.bit_length() - 900
    return math.log(value >> shift) + shift * math.log(2.0)
