"""Shared parameter triple for network counting problems.

Conventions used throughout the package:

  d  in-degree of every reticulation node (d >= 2); d = 2 is the classical
     bicombining case
  n  number of labeled leaves (n >= 1)
  k  number of reticulation nodes

The tree-child condition (every non-leaf node has at least one child that is
not a reticulation node) forces 0 <= k <= n - 1, so Params rejects k outside
that range.  Counting routines that sum over k construct Params themselves
and never go out of range; callers that want a zero instead of an error for
out-of-range k can pass lenient=True to count_otc.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Params:
    d: int
    n: int
    k: int

    def __post_init__(self):
        for name in ("d", "n", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.d < 2:
            raise ValueError(f"reticulation in-degree d must be >= 2, got {self.d}")
        if self.n < 1:
            raise ValueError(f"leaf count n must be >= 1, got {self.n}")
        if not 0 <= self.k <= self.n - 1:
            raise ValueError(
                f"reticulation count k must satisfy 0 <= k <= n-1, got k={self.k} with n={self.n}"
            )

