"""Self-verification suites: regression tables and cross-method identities.

Each suite replays one of the package's consistency guarantees and returns
structured results instead of raising, so the command line can stream them
and exit nonzero on any failure:

  golden-tables   the word-recurrence counts against frozen reference
                  tables for d = 2..6
  cross-method    word route vs blow-up route vs series route vs closed
                  forms, on overlapping domains (words vs blow-up and
                  words vs series are independent computations; the
                  blow-up and the series share the f_g calculus, see
                  `suite_cross_method`)
  oracle          definition-level word counting vs the recurrence
  inequalities    the interlacing chain, its d = 2 equality case, and the
                  two-sided d = 2 sandwich; the sqrt(e) ratio bound
  sackin          path-length closed form vs recurrence vs unary-binary
                  factorization

The frozen tables double as the package's regression fixtures: they were
tabulated independently before the library existed.

Every check runs through one runner, `_check`, over a list of cells, and
the runner alone holds three rules:

- a check whose range holds no cell is left out rather than passed, and
  `run_suite` refuses a selection that leaves no check at all;
- a cell whose route raises `params.ExactnessError` fails only its own
  check, with the failure entry (*cell, "raised <message>"), so every other
  cell and check still runs and reports;
- a check's details are its summary (a cell count or a range), followed
  by "; first mismatch <entry>" ("first failure" for the inequality and
  path-length checks) naming its first failure entry when it failed.

`COUNT_ROUTES` is the one table of which route covers which (d, n, k); the
cross-method suite and the command line's `count --method` both read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from math import factorial

from . import compgraphs, onecomp, words
from .asymptotics import e_lower_bound
from .compgraphs import count_component_graphs_total, enumerate_component_graphs
from .params import ExactnessError, Params, at_least, ceiling, exact_div
from .pathlength import (
    expected_path_length,
    path_length_total,
    path_length_total_recurrence,
    unary_binary_path_length,
)
from .words import _direct_row, count_words, tc_table


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str = ""


def _check(name: str, summary: str, cells: list, compare, word="mismatch") -> list[CheckResult]:
    """The check `name` over `cells`: [] when there is no cell, otherwise
    one CheckResult.  `compare(*cell)` returns the cell's failure entries;
    a cell that raises ExactnessError gets the one entry (*cell, "raised
    <message>") and the next cell runs.  The details append the first
    entry, if any, to `summary`."""
    if not cells:
        return []
    bad = []
    for cell in cells:
        try:
            bad += compare(*cell)
        except ExactnessError as exc:
            bad.append((*cell, f"raised {exc}"))
    if bad:
        summary += ("; " if summary else "") + f"first {word} {bad[0]}"
    return [CheckResult(name=name, passed=not bad, details=summary)]


def _same(first, second):
    """A `_check` compare whose entry is (*cell, a, b) when a = first(*cell)
    differs from b = second(*cell)."""
    def compare(*cell):
        a, b = first(*cell), second(*cell)
        return [] if a == b else [(*cell, a, b)]
    return compare


# Frozen regression fixtures: rows n -> [count at k = 0, 1, ..., n-1].
GOLDEN_TC = {
    2: {
        2: [1, 2],
        3: [3, 21, 42],
        4: [15, 228, 1272, 2544],
        5: [105, 2805, 30300, 154500, 309000],
        6: [945, 39330, 696600, 6494400, 31534200, 63068400],
        7: [10395, 623385, 16418430, 241204950, 2068516800, 9737380800,
            19474761600],
        8: [135135, 11055240, 405755280, 8609378400, 113376463200,
            920900131200, 4242782275200, 8485564550400],
    },
    3: {
        2: [1, 2],
        3: [3, 33, 150],
        4: [15, 492, 7908, 55320],
        5: [105, 7725, 291420, 6179940, 57939000],
        6: [945, 132030, 9603270, 430105320, 11292075000, 132120450000],
        7: [10395, 2471805, 307525050, 24586633890, 1284266876760,
            40079165452200, 560319972030000],
    },
    4: {
        2: [1, 2],
        3: [3, 48, 546],
        4: [15, 942, 45132, 1243704],
        5: [105, 18375, 2394360, 227116260, 11351644920],
        6: [945, 375705, 107314200, 23919407460, 3724353682560,
            291451508298720],
    },
    5: {
        2: [1, 2],
        3: [3, 66, 2016],
        4: [15, 1650, 242496, 28710864],
        5: [105, 39135, 17566470, 7876446840, 2307919133520],
    },
    6: {
        2: [1, 2],
        3: [3, 87, 7524],
        4: [15, 2700, 1246740, 676431360],
        5: [105, 76515, 118491090, 262058953860, 483098464854720],
    },
}


def suite_golden_tables(d: int | None = None, n_max: int | None = None):
    """Word-recurrence counts against every frozen table entry."""
    results = []
    for dv, table in sorted(GOLDEN_TC.items()):
        rows = {n: v for n, v in table.items() if n_max is None or n <= n_max}
        if d not in (None, dv) or not rows:
            continue

        def compare(_, top):
            computed = tc_table(dv, top)
            return [(n, k, computed[n][k], want) for n, wants in sorted(rows.items())
                    for k, want in enumerate(wants) if computed[n][k] != want]

        entries = f"{sum(map(len, rows.values()))} entries"
        results += _check(f"golden-tables d={dv}", entries, [("n_max", max(rows))], compare)
    return results


# the largest n the cross-method suite reaches, whatever --n-max asks for
_CROSS_METHOD_N_TOP = 12


def suite_cross_method(d: int | None = None, n_max: int | None = None):
    """words == blow-up for n up to n_max (6 by default) and k up to the
    BLOWUP_K ceiling; series == closed forms == words for k = 1, 2 up to
    n_max (12 by default), each route on its domain, with the blow-up in the
    k = 2 comparisons while BLOWUP_K allows k = 2.  Both checks read an
    n_max above 12 as 12.  Every route is a `COUNT_ROUTES` entry.

    What each comparison is independent of: the word recurrence shares no
    code with the blow-up or the series, so words vs blow-up and words vs
    series are independent.  The blow-up and the series both extract
    coefficients of products of the derived series f_g.  At k = 1 the
    blow-up series is literally 2 F_d F_0, the product the series route
    evaluates, so the blow-up sits in the series check at k = 2 only: there
    its series S(3) is built from marked sinks and shares only the f_g
    sweep with the series route's sum over l.  The independent checks are
    the words route and the tier-1 sum over block-size shapes, which meets
    the series without f_g."""
    tc = COUNT_ROUTES["tc"]
    by_words, by_compgraph = tc["words"][0], tc["compgraph"][0]
    m_top = ceiling("BLOWUP_K") + 1
    blowup_k2 = (by_compgraph, lambda d, n, k: k == 2 and m_top > 2)
    series = [tc["genfun"], blowup_k2, tc["closedform"]]
    results = []
    d_values = [d] if d is not None else [2, 3]
    blow_n = 6 if n_max is None else min(n_max, _CROSS_METHOD_N_TOP)
    for dv in d_values:
        cells = [(n, k) for n in range(1, blow_n + 1) for k in range(min(m_top, n))]
        compare = _same(partial(by_words, dv), partial(by_compgraph, dv))
        results += _check(f"words-vs-compgraph d={dv}", f"{len(cells)} cells", cells, compare)
    series_n = _CROSS_METHOD_N_TOP if n_max is None else min(n_max, _CROSS_METHOD_N_TOP)
    for dv in d_values:
        cells = [(n, k) for k in (1, 2) for n in range(k + 1, series_n + 1)]

        def covering(n, k):
            return [route for route, covers in series if covers(dv, n, k)]

        def compare(n, k):
            want = by_words(dv, n, k)
            got = [route(dv, n, k) for route in covering(n, k)]
            return [(n, k, g, want) for g in got if g != want]

        comparisons = f"{sum(len(covering(n, k)) for n, k in cells)} comparisons"
        results += _check(f"series-and-closed-forms d={dv}", comparisons, cells, compare)
    return results


def suite_oracle(d: int | None = None, n_max: int | None = None):
    """Definition-level counting against the recurrence for n up to n_max
    (5 by default) and the WORD ceiling, and the literal graph enumeration
    against the graph recurrence up to the blow-up's graph size.

    The definition side reads one row per (d, n), `words._direct_row`,
    cached for the run: the oracle's memo of completions to (d+1, ..., d+1)
    depends on the effective-count vector alone, so one memo serves every
    heavy subset and every k of that n."""
    results = []
    d_values = [d] if d is not None else [2, 3, 4]
    top = min(5 if n_max is None else n_max, ceiling("WORD"))
    m_top = ceiling("BLOWUP_K") + 1
    for dv in d_values:
        cells = [(n, k) for n in range(1, top + 1) for k in range(n + 1)]
        row = cache(partial(_direct_row, dv))
        compare = _same(lambda n, k: row(n)[k], partial(count_words, dv))
        results += _check(
            f"word-definition-vs-recurrence d={dv}", f"{len(cells)} classes", cells, compare
        )
    for dv in [v for v in d_values if v <= 3]:
        cells = [(m,) for m in range(1, m_top + 1)]
        compare = _same(lambda m: sum(1 for _ in enumerate_component_graphs(dv, m)),
                        partial(count_component_graphs_total, dv))
        results += _check(
            f"graph-enumeration-vs-recurrence d={dv}", f"m <= {m_top}", cells, compare
        )
    return results


def suite_inequalities(d: int | None = None, n_max: int | None = None):
    """Interlacing chain, its d = 2 equality case, the two-sided d = 2
    sandwich, and the sqrt(e) ratio certificate."""
    results = []
    d_values = [d] if d is not None else [2, 3]
    for dv in d_values:
        top = n_max if n_max is not None else (25 if dv == 2 else 12)
        if top < 2:
            continue  # every check below starts at n = 2
        # each check reads the table through its one cell ("n_max", top): a
        # passing run builds it once, and a build that raises fails each check
        table = cache(partial(tc_table, dv))

        def chain(_, top):
            rows, failures = table(top), []
            for n in range(2, top + 1):
                row = rows[n]
                failures += [("chain", n, k) for k in range(n - 1)
                             if row[k] * 2 * (n - k - 1) > row[k + 1]]
                if dv == 2 and n >= 3 and row[n - 2] * 2 != row[n - 1]:
                    failures.append(("equality", n, n - 2))
            return failures

        def sandwich(_, top):
            rows = table(top)
            return [(n, k) for n in range(2, min(top, 12) + 1) for k in range(1, n)
                    if not (Fraction(n - k, k * (3 * n - k - 3)) * rows[n][n - k]
                            <= rows[n][n - 1 - k] <= Fraction(rows[n][n - k], 2 * k))]

        def ratio(_, top):
            e_lo = e_lower_bound()
            ratios = [(n, Fraction(sum(row), row[-1])) for n, row in table(top).items() if n >= 2]
            return [(n, r) for n, r in ratios if not (1 <= r and r * r <= e_lo)]

        checks = [(f"interlacing-chain d={dv}", f"n <= {top}", chain)]
        if dv == 2:
            checks += [("two-sided-sandwich d=2", f"n <= {min(top, 12)}", sandwich),
                       ("total-over-max-ratio in [1, sqrt(e)] d=2", f"n <= {top}", ratio)]
        for name, summary, compare in checks:
            results += _check(name, summary, [("n_max", top)], compare, "failure")
    return results


def suite_sackin(d: int | None = None, n_max: int | None = None):
    """Path-length closed form vs recurrence vs factorization, plus the
    small anchored values."""
    results = []
    d_values = [d] if d is not None else [2, 3, 4, 5, 6]
    top = 25 if n_max is None else min(n_max, 25)
    for dv in d_values:
        cells = [(n, k) for n in range(1, top + 1) for k in range(n)]

        def identities(n, k):
            closed = path_length_total(dv, n, k)
            if closed != path_length_total_recurrence(dv, n, k):
                return [("recurrence", n, k)]
            multinomial = exact_div(factorial(dv * k), factorial(dv) ** k)
            if closed != multinomial * unary_binary_path_length(n - k, dv * k):
                return [("factorization", n, k)]
            return []

        results += _check(
            f"path-length identities d={dv}", f"{len(cells)} cells", cells, identities, "failure"
        )
    anchors = [
        (path_length_total, (2, 2, 0), 5),
        (unary_binary_path_length, (2, 0), 5),
        (expected_path_length, (2, 2), Fraction(17, 3)),
    ]
    for fn, args, want in anchors:
        name = f"{fn.__name__}({','.join(map(str, args))}) == {want}"
        results += _check(name, "", [args], _same(fn, lambda *_: want), "failure")
    return results


def _route(each, total=None, covers=lambda d, k: True):
    """One count route as (route, domain).  ``route(d, n, k)`` returns
    ``each(d, n, k)``, or ``total(d, n)`` when ``k is None``;
    ``domain(d, n, k)`` holds for ``k is None`` only when there is a total,
    and otherwise is ``covers(d, k)``."""
    return (lambda d, n, k: total(d, n) if k is None else each(d, n, k),
            lambda d, n, k: total is not None if k is None else covers(d, k))


# Every route to a count, by `count` target and method: ``{target: {method:
# (route, domain)}}``, each pair built by `_route`; the first method of each
# target is its default.  A covered cell can still be refused by a route's
# safety ceiling (`params.ceiling`), which the exponential routes read each
# time they run.  Routes call through their module's attribute, so a rebound
# or patched function is the one that runs.
COUNT_ROUTES = {
    "tc": {
        "words": _route(lambda d, n, k: words.count_tc_words(Params(d, n, k)),
                        lambda d, n: words.count_tc_total(d, n)),
        "compgraph": _route(lambda d, n, k: compgraphs.count_tc_compgraph(Params(d, n, k))),
        "genfun": _route(lambda d, n, k: compgraphs.count_tc_genfun_k1(d, n) if k == 1
                         else compgraphs.count_tc_genfun_k2(d, n),
                         covers=lambda d, k: k in (1, 2)),
        "closedform": _route(lambda d, n, k: compgraphs.tc_k1_closed_form(d, n) if k == 1
                             else compgraphs.tc_k2_closed_form(d, n),
                             covers=lambda d, k: k in (1, 2) and d in (2, 3)),
    },
    "otc": {
        "closedform": _route(lambda d, n, k: onecomp.count_otc(d, n, k),
                             lambda d, n: onecomp.count_otc_total(d, n)),
        "direct": _route(lambda d, n, k: onecomp.count_otc_direct(d, n, k)),
    },
    "words": {
        "words": _route(lambda d, n, k: words.count_words(d, n, k)),
        "bruteforce": _route(lambda d, n, k: words.count_words_direct(d, n, k)),
    },
    "compgraphs": {
        "compgraph": _route(lambda d, n, k: compgraphs.count_component_graphs(d, n, k),
                            lambda d, n: compgraphs.count_component_graphs_total(d, n)),
    },
    "star": {"closedform": _route(lambda d, n, k: compgraphs.count_star(Params(d, n, k)))},
}


SUITES = {
    "golden-tables": suite_golden_tables,
    "cross-method": suite_cross_method,
    "oracle": suite_oracle,
    "inequalities": suite_inequalities,
    "sackin": suite_sackin,
}


def run_suite(name: str, d: int | None = None, n_max: int | None = None):
    """Dispatch a suite by name; deterministic and idempotent.  Raises
    ValueError when `d` or `n_max` breaks the integer rule (`params.at_least`:
    d >= 2, n_max >= 1) or the suite selects no check, so a suite never
    passes on nothing."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if d is not None:
        at_least(2, d=d)
    if n_max is not None:
        at_least(1, n_max=n_max)
    results = fn(d=d, n_max=n_max)
    if not results:
        raise ValueError(f"suite {name!r} selects no check for d={d}, n_max={n_max}")
    return results
