"""Output checks for every op of every workload.

``check(workload, ops, outs)`` returns {op index: message} for each op
whose stdout is wrong.  References come from routes other than the one the
CLI took wherever the package has one: the all-heavy slice, frozen golden
rows and closed forms for table-sweep; the rolling table, the series route
and the construction-step counts for query-mix and crosscheck.  An op that
exited non-zero has no stdout to check; the caller counts it as failed.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from treechild import asymptotics, compgraphs, onecomp, words
from treechild.verify import GOLDEN_TC

RECORD_KEYS = {"command", "parameters", "results", "method"}


class CheckFailed(Exception):
    pass


def ensure(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _records(out: str) -> list[dict]:
    recs = [json.loads(line) for line in out.splitlines()]
    ensure(recs, "no records")
    for r in recs:
        ensure(set(r) == RECORD_KEYS, f"record keys {sorted(r)}")
    return recs


def _int(s) -> int:
    ensure(isinstance(s, str) and s.isdigit(), f"count {s!r} is not a decimal string")
    return int(s)


def _ratio(obj) -> Fraction:
    num = obj["numerator"]
    sign = -1 if num.startswith("-") else 1
    return Fraction(sign * _int(num.lstrip("-")), _int(obj["denominator"]))


def _opts(argv: list[str]) -> dict:
    """--flag value pairs of an argv list, ints where they parse."""
    opts = {}
    for flag, value in zip(argv, argv[1:]):
        if flag.startswith("--"):
            opts[flag[2:].replace("-", "_")] = int(value) if value.isdigit() else value
    return opts


class Refs:
    """Reference values, computed once per run and shared by the ops."""

    def __init__(self, ops):
        self.n_top: dict[int, int] = {}
        for argv in ops:
            o = _opts(argv)
            if (argv[:2] in (["count", "tc"], ["table", "tc"])
                    or o.get("family") == "general"):
                n = o.get("n", o.get("n_max"))
                self.n_top[o["d"]] = max(self.n_top.get(o["d"], 1), n)
        self._tables: dict = {}
        self._slices: dict = {}

    def tc_row(self, d: int, n: int) -> list[int]:
        """Row n of the rolling table, built once per d up to the largest n
        a count, tc table or general law asks for; larger n rebuild it."""
        if n not in self._tables.get(d, {}):
            self._tables[d] = words.tc_table(d, max(n, self.n_top.get(d, 1)))
        return self._tables[d][n]

    def tc_max_k(self, d: int, n: int) -> int:
        """TC(n, n-1) from the integer all-heavy slice."""
        if n == 1:
            return 1
        key = (d, n - 1)
        if key not in self._slices:
            self._slices[key] = words.b_max_table_binomial(d, n - 1)
        b = self._slices[key]
        return math.factorial(n) * sum(b.get((n - 1, m), 0) for m in range(1, n))


def _check_count(argv, out, refs):
    o = _opts(argv)
    target, d, n, k = argv[1], o["d"], o["n"], o.get("k")
    recs = _records(out)
    values = {_int(r["results"]["value"]) for r in recs}
    ensure(len(values) == 1, f"routes disagree: {[r['method'] for r in recs]}")
    value = values.pop()
    methods = [r["method"] for r in recs]
    if o.get("method") == "all":
        ensure(len(recs) >= 2, f"--method all gave only {methods}")
    if target == "tc":
        row = refs.tc_row(d, n)
        want = sum(row) if k is None else row[k]
        ensure(value == want, f"TC({n},{k}) = {value}, table has {want}")
        if k == 1 and n >= 2:
            ensure(value == compgraphs.count_tc_genfun_k1(d, n), "k=1 series differs")
        if k == 2 and n >= 3:
            ensure(value == compgraphs.count_tc_genfun_k2(d, n), "k=2 series differs")
        if n in GOLDEN_TC.get(d, {}) and k is not None:
            ensure(value == GOLDEN_TC[d][n][k], "golden row differs")
    elif target == "otc":
        ensure(methods == ["closedform", "direct"], f"otc methods {methods}")
        ensure(value == onecomp.count_otc_direct(d, n, k), "OTC differs from direct count")
    elif target == "words":
        ensure(methods == ["words", "bruteforce"], f"words methods {methods}")


def _table_values(argv, out) -> dict[int, list[int]]:
    o = _opts(argv)
    n_max = o["n_max"]
    rows = {}
    if o.get("format") == "csv":
        lines = list(csv.reader(io.StringIO(out)))
        ensure(lines[0] == ["n"] + [f"k={k}" for k in range(n_max)], "csv header")
        for line in lines[1:]:
            n = int(line[0])
            ensure(line[n + 1:] == [""] * (n_max - n), f"csv row {n} padding")
            rows[n] = [_int(v) for v in line[1:n + 1]]
    else:
        for r in _records(out):
            n = r["parameters"]["n"]
            ensure(r["parameters"] == {"d": o["d"], "n_max": n_max, "n": n}, "parameters")
            ensure(r["command"] == f"table {argv[1]}", "command")
            rows[n] = [_int(v) for v in r["results"]["counts"]]
    ensure(sorted(rows) == list(range(1, n_max + 1)), "row set")
    for n, row in rows.items():
        ensure(len(row) == n, f"row {n} has {len(row)} counts")
    return rows


def _check_table(argv, out, refs):
    o = _opts(argv)
    d = o["d"]
    rows = _table_values(argv, out)
    for n, row in rows.items():
        if argv[1] == "tc":
            ensure(row == refs.tc_row(d, n), f"tc row {n} differs from the table")
        else:
            want = [onecomp.count_otc_direct(d, n, k) for k in range(n)]
            ensure(row == want, f"otc row {n} differs from the direct count")


def _check_table_sweep(argv, out, refs):
    """The one big table: slice column, golden rows, closed-form columns and
    the d = 2 equality TC(n, n-2) * 2 = TC(n, n-1)."""
    d = _opts(argv)["d"]
    rows = _table_values(argv, out)
    for n, want in GOLDEN_TC.get(d, {}).items():
        if n in rows:
            ensure(rows[n] == want, f"row {n} differs from GOLDEN_TC")
    for n, row in rows.items():
        ensure(row[n - 1] == refs.tc_max_k(d, n), f"TC({n},{n - 1}) differs from the slice")
        ensure(row[0] == onecomp.count_phylo_trees(n), f"TC({n},0) is not (2n-3)!!")
        if d in (2, 3) and n >= 2:
            ensure(row[1] == compgraphs.tc_k1_closed_form(d, n), f"TC({n},1) closed form")
        if d in (2, 3) and n >= 3:
            ensure(row[2] == compgraphs.tc_k2_closed_form(d, n), f"TC({n},2) closed form")
        if d == 2 and n >= 3:
            ensure(row[n - 2] * 2 == row[n - 1], f"TC({n},{n - 2}) * 2 != TC({n},{n - 1})")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_dist(argv, out, refs):
    o = _opts(argv)
    d, n, family = o["d"], o["n"], o["family"]
    (rec,) = _records(out)
    res = rec["results"]
    ensure(res["support"] == list(range(n)), "support")
    mass = {int(k): _ratio(v) for k, v in res["mass"].items()}
    ensure(sum(mass.values()) == 1, "masses do not sum to 1")
    if family == "general":
        row = refs.tc_row(d, n)
    else:
        row = [onecomp.count_otc_direct(d, n, k) for k in range(n)]
    total = sum(row)
    for k in range(n):
        ensure(mass[k] == Fraction(row[k], total), f"P(K={k}) differs")
    tv_key = {"poisson": "tv_to_poisson_half", "bessel": "tv_to_bessel_1_2",
              "dirac": "tv_to_dirac_0", "normal": "normal_sup_gap"}[o["compare"]]
    ensure(0 <= res[tv_key] <= 1, f"{tv_key} = {res[tv_key]}")


def _check_logvalue(lv: dict) -> None:
    ensure(_close(lv["log10"], lv["ln"] / math.log(10), 1e-12), "log10 != ln / ln 10")
    ensure(1 <= lv["mantissa"] < 10, "mantissa outside [1, 10)")


def _check_asymp(argv, out, refs):
    o = _opts(argv)
    d, target = o["d"], argv[1]
    (rec,) = _records(out)
    res = rec["results"]
    if target == "params":
        pr = asymptotics.params(d)
        ensure(_ratio(res["alpha"]) == pr.alpha and _ratio(res["gamma"]) == pr.gamma,
               "alpha / gamma")
        ensure(res["beta"] == pr.beta and res["airy_a1"] == pr.airy_a1, "beta / airy_a1")
        return
    n = o["n"]
    if target == "otc":
        _check_logvalue(res["estimate"])
        exact = math.log(onecomp.count_otc_total(d, n))
        ensure(abs(res["estimate"]["ln"] - exact) < 2, "estimate far from the exact total")
    elif target == "tc-envelope":
        _check_logvalue(res["envelope"])
        if n <= 200:
            want = asymptotics.tc_envelope(d, n).ratio_to(refs.tc_max_k(d, n))
            ensure(_close(res["max_k_count_over_envelope"], want), "max-k over envelope")
    elif target == "ratio":
        want = Fraction(onecomp.count_otc_total(d, n), onecomp.count_otc(d, n, n - 1))
        ensure(_ratio(res["otc_total_over_max_k"]) == want, "otc total over max k")
        ensure(res["otc_total_over_asymptotic"] > 0, "otc total over asymptotic")
        if "tc_total_over_max_k" in res:
            row = refs.tc_row(d, n)
            ensure(_ratio(res["tc_total_over_max_k"]) == Fraction(sum(row), row[n - 1]),
                   "tc total over max k")
            ensure(res["tc_ratio_reference"] == (math.exp(0.5) if d == 2 else 1.0),
                   "tc ratio reference")


def _check_verify(argv, out, refs):
    for r in _records(out):
        ensure(r["results"]["passed"] is True, f"check failed: {r['results']['check']}")


CHECKERS = {
    "count": _check_count,
    "table": _check_table,
    "dist": _check_dist,
    "asymp": _check_asymp,
    "verify": _check_verify,
}


def check(workload: str, ops, outs) -> dict[int, str]:
    refs = Refs(ops)
    failures = {}
    for i, (argv, out) in enumerate(zip(ops, outs)):
        fn = _check_table_sweep if workload == "table-sweep" else CHECKERS[argv[0]]
        try:
            fn(argv, out, refs)
        except (CheckFailed, LookupError, ValueError, TypeError) as exc:
            failures[i] = f"{' '.join(argv)}: {type(exc).__name__}: {exc}"
    return failures
