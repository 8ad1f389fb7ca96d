"""Seeded workload generators.

Each generator maps a seed to a list of argv lists for ``treechild.cli.run``.
The same seed always gives the same list.  Parameters are drawn by
stratified sampling (one draw per equal-width stratum), so seeds differ in
their inputs but hardly in their cost: the spread between runs of different
seeds stays close to the machine's own noise.
"""
from __future__ import annotations

import hashlib
import json
import random

TABLE_SWEEP_D = 2
TABLE_SWEEP_N_MAX = 200

# count tc --method all stays inside the blow-up route's default ceilings
# (n <= 8, k <= 3) and count words --method all inside the brute-force
# enumeration ceiling (n <= 5).
BLOWUP_N_MAX = 8
BLOWUP_K_MAX = 3
WORDS_N_MAX = 5

VERIFY_SUITES = ("golden-tables", "cross-method", "oracle", "inequalities", "sackin")


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers in [lo, hi], one uniform draw per equal-width stratum,
    in stratum order.  The top stratum always yields hi, so the largest call
    of each kind, which sets the peak memory and the tail, is the same for
    every seed."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + rng.random())) for i in range(count - 1)] + [hi]


def _fraction(rng: random.Random, i: int, strata: int = 20) -> float:
    """A float in [0, 1) drawn from stratum (7 i mod strata) of `strata`
    narrow ones; consecutive indices land in well-spread strata."""
    return ((7 * i) % strata + rng.random()) / strata


def table_sweep(seed: int) -> list[list[str]]:
    """One full table; the input does not depend on the seed."""
    del seed
    return [["table", "tc", "--d", str(TABLE_SWEEP_D),
             "--n-max", str(TABLE_SWEEP_N_MAX), "--format", "json"]]


def _compare_for(d: int) -> str:
    # the limit law of the shifted reticulation count depends on d
    return {2: "poisson", 3: "bessel"}.get(d, "dirac")


# query-mix: the kinds of call the benchmark's specification names for the
# stream, each CLI leaf command with the route, family or format that picks
# its code path, plus count tc at k in {1, 2}, the cells its output check
# compares with the series route.  The specification gives no weights, so
# every kind gets the same share: 15 kinds x 20 calls = 300 ops per rep.
QUERY_MIX_PER_KIND = 20
COUNT_N_MAX = 100      # count tc / otc: n <= 100
TABLE_N_MAX = 20       # "small" tables
GENERAL_N_MAX = 25     # dist ret --family general: n <= 25
ONECOMP_N_MAX = 200    # dist ret --family onecomp: n <= 200
ASYMP_N_MAX = 200      # asymp otc / tc-envelope / ratio, as for onecomp
ALL_ROUTES_N_MAX = 6   # count tc --method all: n <= 6


def query_mix(seed: int) -> list[list[str]]:
    """Short CLI calls of every kind, shuffled.

    Within each kind the cost-setting parameters follow a fixed design
    (stratum i of n gets d = D[i mod 4] and a fixed k/n stratum); the seed
    draws the values inside each stratum and the order of the calls.
    """
    rng = random.Random(seed)
    ops: list[list[str]] = []
    D = (2, 3, 4, 5)
    per = QUERY_MIX_PER_KIND

    def count(target, d, n, k=None, method=None):
        argv = ["count", target, "--d", str(d), "--n", str(n)]
        if k is not None:
            argv += ["--k", str(k)]
        if method is not None:
            argv += ["--method", method]
        ops.append(argv)

    for i, n in enumerate(_strata(rng, 2, COUNT_N_MAX, per)):
        count("tc", D[i % 4], n, min(n - 1, int(_fraction(rng, i) * n)))
    for i, n in enumerate(_strata(rng, 3, COUNT_N_MAX, per)):
        count("tc", D[i % 4], n, 1 + (i // 4) % 2)
    for i, n in enumerate(_strata(rng, 1, COUNT_N_MAX, per)):
        count("tc", D[i % 4], n)
    # the blow-up is exponential in d and k (d = 5, k = 3, n = 6 alone
    # takes a third of a second), so k = 3 only for d <= 3
    for i, n in enumerate(_strata(rng, 1, ALL_ROUTES_N_MAX, per)):
        d = D[i % 4]
        k_top = min(n - 1, BLOWUP_K_MAX if d <= 3 else 2)
        count("tc", d, n, (i // 4) % (k_top + 1), "all")
    for i, n in enumerate(_strata(rng, 1, COUNT_N_MAX, per)):
        count("otc", D[i % 4], n, int(_fraction(rng, i) * n), "all")
    for target in ("tc", "otc"):
        for fmt in ("json", "csv"):
            for i, n_max in enumerate(_strata(rng, 1, TABLE_N_MAX, per)):
                ops.append(["table", target, "--d", str(D[i % 4]), "--n-max", str(n_max),
                            "--format", fmt])
    # reticulation laws: the general family against its d-dependent limit
    # law, the one-component family against the normal law
    for i, n in enumerate(_strata(rng, 1, GENERAL_N_MAX, per)):
        d = D[i % 4]
        ops.append(["dist", "ret", "--family", "general", "--d", str(d),
                    "--n", str(n), "--compare", _compare_for(d)])
    for n in _strata(rng, 2, ONECOMP_N_MAX, per):
        ops.append(["dist", "ret", "--family", "onecomp", "--d", "2",
                    "--n", str(n), "--compare", "normal"])
    for i in range(per):
        ops.append(["asymp", "params", "--d", str(2 + i % 5)])
    for target in ("otc", "tc-envelope", "ratio"):
        for i, n in enumerate(_strata(rng, 2, ASYMP_N_MAX, per)):
            ops.append(["asymp", target, "--d", str(D[i % 4]), "--n", str(n)])

    rng.shuffle(ops)
    return ops


def crosscheck(seed: int) -> list[list[str]]:
    """Every verify suite, then a seeded sample of cross-method cells."""
    rng = random.Random(seed)
    ops = [["verify", "--suite", s] for s in VERIFY_SUITES]
    cells = []
    # blow-up cells per (d, k); the blow-up's cost is set by d and k.  The
    # cheap k <= 1 cells are the majority, so the median op lies inside them.
    for d in (2, 3, 4, 5):
        for k in range(BLOWUP_K_MAX + 1):
            for n in _strata(rng, max(k + 1, 2), BLOWUP_N_MAX, 5 if k <= 1 else 3):
                cells.append(["count", "tc", "--d", str(d), "--n", str(n),
                              "--k", str(k), "--method", "all"])
    # four word-oracle cells per d
    for d in (2, 3, 4, 5, 6):
        for i, n in enumerate(_strata(rng, 1, WORDS_N_MAX, 4)):
            k = min(n, int(_fraction(rng, i) * (n + 1)))
            cells.append(["count", "words", "--d", str(d), "--n", str(n),
                          "--k", str(k), "--method", "all"])
    rng.shuffle(cells)
    return ops + cells


WORKLOADS = {
    "table-sweep": table_sweep,
    "query-mix": query_mix,
    "crosscheck": crosscheck,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    return WORKLOADS[workload](seed)


def argv_digest(ops: list[list[str]]) -> str:
    """sha256 of the generated argv list, for the environment record."""
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()
