"""End-to-end tests of the command-line interface through run()."""
import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr
from decimal import Decimal
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treechild import (
    GOLDEN_TC, ExactnessError, asymptotics, cli, compgraphs, count_otc, count_tc_words, distributions,
    onecomp, otc_asymptotic_ratio, otc_max_k_ratio, Params, verify, words,
)
from treechild.cli import _count, run
from treechild.params import CEILINGS


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def records(text: str) -> list:
    return [json.loads(line) for line in text.splitlines()]


def test_count_tc_record_shape():
    code, text = invoke("count", "tc", "--d", "2", "--n", "8", "--k", "7")
    assert code == 0
    (rec,) = records(text)
    assert rec == {
        "command": "count tc",
        "parameters": {"d": 2, "n": 8, "k": 7},
        "results": {"value": "8485564550400"},
        "method": "words",
    }


def test_count_tc_all_methods_agree():
    code, text = invoke("count", "tc", "--d", "3", "--n", "5", "--k", "2",
                        "--method", "all")
    assert code == 0
    recs = records(text)
    assert {r["method"] for r in recs} == {
        "words", "compgraph", "genfun", "closedform",
    }
    assert {r["results"]["value"] for r in recs} == {"291420"}


def test_count_disagreement_is_a_verification_failure(monkeypatch, capsys):
    true = count_tc_words(Params(2, 4, 1))
    monkeypatch.setattr(compgraphs, "count_tc_compgraph", lambda *a, **kw: true + 1)
    code, text = invoke("count", "tc", "--d", "2", "--n", "4", "--k", "1",
                        "--method", "all")
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert "methods disagree" in err
    assert f"compgraph={true + 1}" in err


def test_exactness_failure_is_a_verification_failure(monkeypatch, capsys):
    def broken(p):
        raise ExactnessError(f"division at {p} is not exact")

    monkeypatch.setattr(compgraphs, "count_tc_compgraph", broken)
    code, text = invoke("count", "tc", "--d", "2", "--n", "4", "--k", "1",
                        "--method", "compgraph")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("verification failure: division at")
    # a real remainder check failing inside the word route
    monkeypatch.setattr(words, "factorial", lambda n: factorial(n) + 1)
    code, text = invoke("count", "tc", "--d", "2", "--n", "6")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("verification failure: division")


def test_conversion_failure_exits_1_and_keeps_the_word_counts(monkeypatch, capsys):
    # the pass caches word counts and the checked shift runs after it, so a
    # failed conversion leaves the pass in place
    monkeypatch.setattr(words, "factorial", lambda n: factorial(n) + 1)
    code, text = invoke("count", "tc", "--d", "3", "--n", "6")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("verification failure: division")
    assert len(words._TC_ROWS[3][1]) == 6
    monkeypatch.undo()
    code, text = invoke("count", "tc", "--d", "3", "--n", "6")
    assert code == 0
    assert records(text)[0]["results"]["value"] == str(sum(words.tc_table(3, 6)[6]))


def test_exactness_failure_on_a_count_beyond_the_int_string_limit(monkeypatch, capsys):
    # both operands run past 4300 digits; the message names them by bit
    # length, so building it cannot fail and the exit stays 1
    monkeypatch.setattr(onecomp, "factorial", lambda n: factorial(n) + 1)
    code, text = invoke("count", "otc", "--d", "2", "--n", "1500", "--k", "3")
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.startswith("verification failure: division")


def test_usage_errors_inside_a_command_print_error(capsys):
    assert invoke("count", "tc", "--d", "2", "--n", "4", "--method", "bogus") == (2, "")
    assert capsys.readouterr().err.startswith("error: unknown method 'bogus'")
    assert invoke("asymp", "otc", "--d", "2") == (2, "")
    assert capsys.readouterr().err == "error: asymp otc requires --n\n"


def test_a_failed_verify_check_exits_1_after_every_record(monkeypatch, capsys):
    original = compgraphs.count_tc_compgraph
    monkeypatch.setattr(compgraphs, "count_tc_compgraph", lambda p: original(p) + 1)
    code, text = invoke("verify", "--suite", "cross-method", "--d", "2", "--n-max", "3")
    assert code == 1
    results = {r["results"]["check"]: r["results"] for r in records(text)}
    blowup = results["words-vs-compgraph d=2"]
    assert blowup["passed"] is False
    assert "first mismatch" in blowup["details"]
    # the blow-up is also the series check's k = 2 comparison
    series = results["series-and-closed-forms d=2"]
    assert series["passed"] is False
    assert series["details"] == "7 comparisons; first mismatch (3, 2, 43, 42)"
    assert capsys.readouterr().err.startswith("verification failure:")


def test_the_series_check_compares_the_blowup_past_the_graph_check(monkeypatch):
    # a blow-up wrong only from n = 7 on: words-vs-compgraph stops at n = 6
    # by default, and the series check's k = 2 comparison runs to n = 12
    original = compgraphs.count_tc_compgraph
    monkeypatch.setattr(compgraphs, "count_tc_compgraph",
                        lambda p: original(p) + (p.n >= 7))
    code, text = invoke("verify", "--suite", "cross-method", "--d", "2")
    assert code == 1
    results = {r["results"]["check"]: r["results"] for r in records(text)}
    assert results["words-vs-compgraph d=2"]["passed"] is True
    assert results["series-and-closed-forms d=2"] == {
        "check": "series-and-closed-forms d=2", "passed": False,
        "details": "52 comparisons; first mismatch (7, 2, 16418431, 16418430)"}


def test_an_exactness_failure_in_a_verify_cell_fails_only_its_check(monkeypatch, capsys):
    # the word route's remainder check raises in every cell that reads it;
    # each check still writes its record, naming the cell and the message
    monkeypatch.setattr(words, "factorial", lambda n: factorial(n) + 1)
    code, text = invoke("verify", "--suite", "cross-method", "--d", "2", "--n-max", "3")
    assert code == 1
    checks = {r["results"]["check"]: r["results"] for r in records(text)}
    assert set(checks) == {"words-vs-compgraph d=2", "series-and-closed-forms d=2"}
    assert not any(r["passed"] for r in checks.values())
    assert checks["words-vs-compgraph d=2"]["details"] == (
        "6 cells; first mismatch (2, 0, 'raised division of a 2-bit integer "
        "by a 2-bit integer is not exact')"
    )
    assert capsys.readouterr().err.startswith("verification failure: 2 of 2 checks failed")


# sha256 of the stdout of `verify --suite X` at default size; the records
# hold integers and strings only, so the bytes do not depend on the platform
SUITE_DIGESTS = {
    "golden-tables": "b6d48130212993bb7d660f621ecc085aa85dd8aed3b4f57f26a75004750b9180",
    "cross-method": "d201e83e788441307bbe34d1937ba506cc9fee3ba347b9015f0b8600d0315f67",
    "oracle": "c0704289342d01a424b92c5b9e6b6fbc705f7c87b5752aea3aff8673ed8a2497",
    "inequalities": "e7c3e631b5a2507fc0ee026cc41ec16e088aac3ac4b846888747dcba56331466",
    "sackin": "4dc08aa78d59eebc7f451619fd157d56b32f6fe33d6019bdd75481fce7590ad0",
}


@pytest.mark.parametrize("suite", list(SUITE_DIGESTS))
def test_verify_suites_keep_their_default_size_bytes(suite):
    code, text = invoke("verify", "--suite", suite)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGESTS[suite]


# sha256 of the stdout of `count compgraphs --d 2`, recorded while the counts
# still came from the recursion on (node count, sink count)
COMPGRAPH_DIGESTS = {
    ("--n", "100"): "fa2618d4ffb0d690eda21970cc0934364e38cec8317b65cf5211372fd9487d8f",
    ("--n", "200"): "bd9298f17fa4d162ef2a3558e12d2db3ff15e4f8bf872a18ff2fae4d576e3c05",
    ("--n", "200", "--k", "7"): "9f7e8761a0d70447caad195d7a717782e229c825e95723ca7ee4d92da096fbb9",
}


@pytest.mark.parametrize("argv", list(COMPGRAPH_DIGESTS), ids=" ".join)
def test_component_graph_counts_keep_their_bytes(argv):
    code, text = invoke("count", "compgraphs", "--d", "2", *argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == COMPGRAPH_DIGESTS[argv]


RAISED = "'raised division of a 2-bit integer by a 2-bit integer is not exact'"


def test_a_table_that_raises_fails_every_check_that_reads_it(monkeypatch, capsys):
    monkeypatch.setattr(words, "factorial", lambda n: factorial(n) + 1)
    code, text = invoke("verify", "--suite", "golden-tables", "--d", "2", "--n-max", "4")
    assert code == 1
    (rec,) = records(text)
    assert rec["results"]["details"] == f"9 entries; first mismatch ('n_max', 4, {RAISED})"
    assert capsys.readouterr().err.startswith("verification failure: 1 of 1 checks failed")
    code, text = invoke("verify", "--suite", "inequalities", "--d", "2", "--n-max", "4")
    assert code == 1
    assert [(r["results"]["check"], r["results"]["passed"], r["results"]["details"])
            for r in records(text)] == [
        (check, False, f"n <= 4; first failure ('n_max', 4, {RAISED})")
        for check in ("interlacing-chain d=2", "two-sided-sandwich d=2",
                      "total-over-max-ratio in [1, sqrt(e)] d=2")
    ]
    assert capsys.readouterr().err.startswith("verification failure: 3 of 3 checks failed")


def _anchors(text: str) -> dict:
    return {r["results"]["check"]: (r["results"]["passed"], r["results"]["details"])
            for r in records(text) if "==" in r["results"]["check"]}


def test_sackin_anchors_name_their_failure_and_pass_with_empty_details(monkeypatch):
    from treechild import pathlength

    argv = ("verify", "--suite", "sackin", "--d", "2", "--n-max", "2")
    comb = pathlength.comb
    monkeypatch.setattr(pathlength, "comb", lambda a, b: comb(a, b) + 1)
    code, text = invoke(*argv)
    assert code == 1
    assert _anchors(text) == {
        "path_length_total(2,2,0) == 5": (True, ""),
        "unary_binary_path_length(2,0) == 5": (False, "first failure (2, 0, 10, 5)"),
        "expected_path_length(2,2) == 17/3": (
            False, "first failure (2, 2, Fraction(28, 3), Fraction(17, 3))"),
    }
    monkeypatch.setattr(pathlength, "comb", comb)

    def inexact(num, den):
        raise ExactnessError("division is not exact")

    monkeypatch.setattr(pathlength, "exact_div", inexact)
    code, text = invoke(*argv)
    assert code == 1
    assert _anchors(text) == {
        "path_length_total(2,2,0) == 5": (
            False, "first failure (2, 2, 0, 'raised division is not exact')"),
        "unary_binary_path_length(2,0) == 5": (True, ""),
        "expected_path_length(2,2) == 17/3": (
            False, "first failure (2, 2, 'raised division is not exact')"),
    }


def test_recursion_too_deep_is_a_usage_error(capsys):
    # a one-word class within the WORD ceiling whose memoized walk recurses
    # once per letter, 2001 levels deep
    code, text = invoke("count", "words", "--d", "2000", "--n", "1", "--k", "1",
                        "--method", "bruteforce")
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "recursion depth" in err


def test_other_arithmetic_errors_stay_usage_errors(monkeypatch, capsys):
    def overflow(p):
        raise OverflowError("too large")

    monkeypatch.setattr(compgraphs, "count_tc_compgraph", overflow)
    code, text = invoke("count", "tc", "--d", "2", "--n", "4", "--k", "1",
                        "--method", "compgraph")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "error: too large\n"


@pytest.mark.parametrize("target", list(verify.COUNT_ROUTES))
def test_count_all_runs_every_covering_route_in_registry_order(target):
    routes = verify.COUNT_ROUTES[target]
    for d in (2, 4):
        for k in (None, 1, 2, 3):
            argv = ["count", target, "--d", str(d), "--n", "4", "--method", "all"]
            if k is not None:
                argv += ["--k", str(k)]
            want = [m for m, (_, covers) in routes.items() if covers(d, 4, k)]
            code, text = invoke(*argv)
            if not want:
                assert (code, text) == (2, ""), argv
                continue
            assert code == 0, argv
            recs = records(text)
            assert [r["method"] for r in recs] == want, argv
            assert len({r["results"]["value"] for r in recs}) == 1, argv


# the module function each count route reaches, by (target, method, k); k
# None is the total
ROUTE_FUNCTIONS = {
    ("tc", "words", None): (words, "count_tc_total"),
    ("tc", "words", 1): (words, "count_tc_words"),
    ("tc", "compgraph", 1): (compgraphs, "count_tc_compgraph"),
    ("tc", "genfun", 1): (compgraphs, "count_tc_genfun_k1"),
    ("tc", "genfun", 2): (compgraphs, "count_tc_genfun_k2"),
    ("tc", "closedform", 1): (compgraphs, "tc_k1_closed_form"),
    ("tc", "closedform", 2): (compgraphs, "tc_k2_closed_form"),
    ("otc", "closedform", None): (onecomp, "count_otc_total"),
    ("otc", "closedform", 1): (onecomp, "count_otc"),
    ("otc", "direct", 1): (onecomp, "count_otc_direct"),
    ("words", "words", 1): (words, "count_words"),
    ("words", "bruteforce", 1): (words, "count_words_direct"),
    ("compgraphs", "compgraph", None): (compgraphs, "count_component_graphs_total"),
    ("compgraphs", "compgraph", 1): (compgraphs, "count_component_graphs"),
    ("star", "closedform", 1): (compgraphs, "count_star"),
}


def test_route_functions_name_every_route_and_total():
    assert {(t, m) for t, m, _ in ROUTE_FUNCTIONS} == {
        (t, m) for t, routes in verify.COUNT_ROUTES.items() for m in routes}
    assert {(t, m) for t, m, k in ROUTE_FUNCTIONS if k is None} == {
        (t, m) for t, routes in verify.COUNT_ROUTES.items()
        for m, (_, covers) in routes.items() if covers(2, 4, None)}


@pytest.mark.parametrize("target, method, k", list(ROUTE_FUNCTIONS))
def test_every_route_calls_through_its_module_attribute(monkeypatch, target, method, k):
    module, name = ROUTE_FUNCTIONS[target, method, k]
    monkeypatch.setattr(module, name, lambda *args, **kwargs: 123456789)
    argv = ["count", target, "--d", "2", "--n", "4", "--method", method]
    if k is not None:
        argv += ["--k", str(k)]
    code, text = invoke(*argv)
    assert code == 0, argv
    assert [r["results"]["value"] for r in records(text)] == ["123456789"]


@pytest.mark.parametrize("argv, module, name", [
    (("count", "tc", "--d", "2", "--n", "3", "--k", "2"), words, "count_tc_words"),
    (("dist", "ret", "--family", "general", "--d", "2", "--n", "3"), distributions, "ret_pmf"),
])
def test_out_of_memory_is_a_usage_error(monkeypatch, capsys, argv, module, name):
    # a huge --d asks for about 2 * 10**12 row slots; raised here instead, as
    # a host that overcommits memory may grant the request and then fill it
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(module, name, exhausted)
    assert invoke(*argv) == (2, "")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_count_beyond_int_string_limit():
    code, text = invoke("count", "otc", "--d", "2", "--n", "1500", "--k", "1499")
    assert code == 0
    (rec,) = records(text)
    value = rec["results"]["value"]
    assert len(value) > 4300
    assert Decimal(value) == count_otc(2, 1500, 1499)


@pytest.mark.parametrize("digits", [4300, 4301])
def test_count_text_at_the_int_string_limit(digits):
    # 4300 digits is the interpreter's default int-to-string limit: str()
    # writes the first count, Decimal the second, with the same bytes
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        v = 7 * (10 ** digits - 1) // 9
        assert _count(v) == "7" * digits
        assert _count(-v) == "-" + "7" * digits
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_count_tc_at_large_d_reads_only_the_binomials_it_needs():
    code, text = invoke("count", "tc", "--d", "10000", "--n", "4", "--k", "3")
    assert code == 0
    (rec,) = records(text)
    slice_ = words.b_max_table(10000, 3)
    want = factorial(4) * sum(slice_[(3, m)] for m in (1, 2, 3))
    assert Decimal(rec["results"]["value"]) == want


def test_blowup_at_large_d_answers():
    # the blow-up series is built by marked sinks, not by enumerating the
    # graphs on k + 1 nodes, whose number grows as a power of d
    code, text = invoke("count", "tc", "--d", "100", "--n", "4", "--k", "3", "--method", "all")
    assert code == 0
    recs = records(text)
    assert [r["method"] for r in recs] == ["words", "compgraph"]
    assert recs[0]["results"]["value"] == recs[1]["results"]["value"]


def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "treechild.cli", "count", "tc", "--d", "2",
         "--n", "8", "--k", "7"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    (rec,) = records(proc.stdout)
    assert rec["results"]["value"] == "8485564550400"


def test_one_parser_serves_calls_back_to_back():
    calls = [
        ("count", "tc", "--d", "two", "--n", "4"),
        ("count", "tc", "--d", "2", "--n", "4", "--k", "1"),
        ("count", "tc", "--d", "2", "--n", "4"),
        ("asymp", "params", "--d", "3"),
        ("table", "otc", "--d", "2", "--n-max", "3", "--format", "csv"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(invoke(*argv))
    cli._parser.cache_clear()
    shared = [invoke(*argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _ in shared] == [2, 0, 0, 0, 0]
    # the total does not inherit --k from the call before it
    assert "k" not in records(shared[2][1])[-1]["parameters"]


def test_count_tc_total_when_k_omitted():
    code, text = invoke("count", "tc", "--d", "2", "--n", "5")
    assert code == 0
    (rec,) = records(text)
    assert rec["results"]["value"] == str(sum(GOLDEN_TC[2][5]))


def test_count_otc_both_formulas():
    code, text = invoke("count", "otc", "--d", "2", "--n", "3", "--k", "1",
                        "--method", "all")
    assert code == 0
    recs = records(text)
    assert [r["method"] for r in recs] == ["closedform", "direct"]
    assert {r["results"]["value"] for r in recs} == {"18"}


def test_count_words_and_bruteforce():
    code, text = invoke("count", "words", "--d", "3", "--n", "2", "--k", "1",
                        "--method", "all")
    assert code == 0
    values = {r["results"]["value"] for r in records(text)}
    assert values == {"11"}


def test_table_csv_layout():
    code, text = invoke("table", "tc", "--d", "3", "--n-max", "4",
                        "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,k=0,k=1,k=2,k=3"
    assert lines[-1] == "4,15,492,7908,55320"


def test_table_json_rows():
    code, text = invoke("table", "tc", "--d", "2", "--n-max", "3")
    assert code == 0
    recs = records(text)
    assert recs[-1]["results"]["counts"] == ["3", "21", "42"]


def test_dist_masses_and_comparison():
    code, text = invoke("dist", "ret", "--family", "general", "--d", "2",
                        "--n", "6", "--compare", "poisson")
    assert code == 0
    (rec,) = records(text)
    mass = rec["results"]["mass"]
    total = sum(
        int(v["numerator"]) / int(v["denominator"]) for v in mass.values()
    )
    assert abs(total - 1) < 1e-12
    assert 0.018 < rec["results"]["tv_to_poisson_half"] < 0.021


def test_dist_normal_gap_requires_d2():
    code, _ = invoke("dist", "ret", "--family", "onecomp", "--d", "3",
                     "--n", "10", "--compare", "normal")
    assert code == 2
    code, text = invoke("dist", "ret", "--family", "onecomp", "--d", "2",
                        "--n", "10", "--compare", "normal")
    assert code == 0
    (rec,) = records(text)
    assert rec["results"]["normal_sup_gap"] > 0


def test_dist_refuses_a_normal_comparison_before_building_the_law(monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("ret_pmf was called")

    monkeypatch.setattr(distributions, "ret_pmf", unreachable)
    # a d = 50 law holds weights of about 22 600 digits; general at n = 200
    # is also above its ceiling, and the flag combination is what is named
    for family, d in (("onecomp", "50"), ("general", "2")):
        argv = ("dist", "ret", "--family", family, "--d", d, "--n", "200", "--compare", "normal")
        assert invoke(*argv) == (2, "")
        assert capsys.readouterr().err == "error: --compare normal applies to --family onecomp --d 2\n"


def test_asymp_params_record():
    code, text = invoke("asymp", "params", "--d", "6")
    assert code == 0
    (rec,) = records(text)
    assert rec["results"]["gamma"] == {"numerator": "16807", "denominator": "30"}
    assert rec["results"]["alpha"] == {"numerator": "-51", "denominator": "7"}


def test_asymp_estimate_has_magnitude_fields():
    code, text = invoke("asymp", "otc", "--d", "2", "--n", "50")
    assert code == 0
    (rec,) = records(text)
    est = rec["results"]["estimate"]
    assert set(est) == {"ln", "log10", "mantissa", "exponent10"}
    assert 1 <= est["mantissa"] < 10


def test_asymp_ratio_builds_the_one_component_row_once(monkeypatch):
    built = []
    original = onecomp.otc_row

    def counted(d, n):
        built.append((d, n))
        return original(d, n)

    # every binding a route could reach the row through
    for module in (cli, asymptotics, onecomp):
        monkeypatch.setattr(module, "otc_row", counted)
    code, text = invoke("asymp", "ratio", "--d", "5", "--n", "40")
    assert code == 0
    assert built == [(5, 40)]
    (rec,) = records(text)
    assert rec["results"]["otc_total_over_asymptotic"] == otc_asymptotic_ratio(5, 40)
    assert Fraction(*map(int, rec["results"]["otc_total_over_max_k"].values())) == (
        otc_max_k_ratio(5, 40)
    )


# sha256 of the canonical JSON of each command's integer and rational
# fields, recorded before the one-component row was rolled by its ratio;
# floats computed through libm are left out, so the digests do not depend
# on the platform
ONECOMP_RECORD_DIGESTS = {
    ("table", "otc", "--d", "5", "--n-max", "40", "--format", "csv"):
        "c32d030fe63f193c8ce3bb174f8d31093b7f5b1ce4f6177431a7eb2d4aafd82a",
    ("table", "otc", "--d", "5", "--n-max", "40"):
        "5b47a65cc588a6fb2af39e39ce79bd3832ddf24f5765e0cec861a1c2ee3c73f2",
    ("dist", "ret", "--family", "onecomp", "--d", "3", "--n", "120"):
        "f01526169e376a9e2f68384f368f3a390c2f4077d4f25d60a9132aa3f914d750",
    ("count", "otc", "--d", "7", "--n", "150"):
        "2494ae777fc73b10fcdba794550690f7335ebee1edb514fee8aa8ddebacd1819",
    ("asymp", "ratio", "--d", "5", "--n", "200"):
        "3cbbe998e87cb5f3afc6f934fd4372e337844496337854190a566ac9fce3a2be",
    # recorded while laws still held rational masses; the total-variation
    # floats are rounded from exact rationals, so they are pinned too
    ("dist", "ret", "--family", "general", "--d", "2", "--n", "25", "--compare", "poisson"):
        "79f055ba17cd3f2324a19bc4809c844277254f5016923d0dbb0e6cbaab49a19b",
    ("dist", "ret", "--family", "general", "--d", "2", "--n", "25", "--compare", "bessel"):
        "d8dc67628fb5d8b867565b316e21c0624dc8e4352577ee494aacb7e5835f89e9",
    ("dist", "ret", "--family", "general", "--d", "2", "--n", "25", "--compare", "dirac"):
        "8d8e1c3d450fc4dd5eba02f23de468f1e52afb836e2f719ca436c958b2f4be62",
    ("dist", "ret", "--family", "general", "--d", "3", "--n", "25", "--compare", "poisson"):
        "6777ccae8c6a544796f158ec81485715425a3f8e697dfdf9e18de22c7588d109",
    ("dist", "ret", "--family", "general", "--d", "3", "--n", "25", "--compare", "bessel"):
        "3a94ed014ef4f13e1facec6ab08085b52291a266e54c982427e534e6e7a44d80",
    ("dist", "ret", "--family", "general", "--d", "3", "--n", "25", "--compare", "dirac"):
        "4888c0c357b93d8373a8975d1c47b056c50e67d3d9bd0ee2f727e4e90b41c73a",
    ("dist", "ret", "--family", "general", "--d", "4", "--n", "25", "--compare", "poisson"):
        "cc5e91727bbaefa14da8bd25ce1f66f360d862ea03d3685fdec961652e36c4fa",
    ("dist", "ret", "--family", "general", "--d", "4", "--n", "25", "--compare", "bessel"):
        "388450a8359544dcecbbd6f12d16eb440fc00af6bca4f4455c5bb8bc564bdc55",
    ("dist", "ret", "--family", "general", "--d", "4", "--n", "25", "--compare", "dirac"):
        "e8db7ad1b6ef05254ecc95959a039ea2ef9f12c2adf1119d02ce382eae4e5a14",
    # normal_sup_gap goes through erfc, so only the masses are pinned
    ("dist", "ret", "--family", "onecomp", "--d", "2", "--n", "200", "--compare", "normal"):
        "96a8b54d472be9bbb329a4bf39fda578b69080ef1c387d827983a7a36823555a",
}


def _exact_fields(argv, text):
    if "csv" in argv:
        return list(csv.reader(io.StringIO(text)))
    field = {"table": "counts", "dist": "mass", "count": "value",
             "asymp": "otc_total_over_max_k"}[argv[0]]
    return [value for r in records(text) for value in [r["results"][field]] + [
        r["results"][key] for key in sorted(r["results"]) if key.startswith("tv_to_")]]


@pytest.mark.parametrize("argv", list(ONECOMP_RECORD_DIGESTS), ids=" ".join)
def test_one_component_records_keep_their_exact_fields(argv):
    code, text = invoke(*argv)
    assert code == 0
    canonical = json.dumps(_exact_fields(argv, text), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ONECOMP_RECORD_DIGESTS[argv]


def test_asymp_requires_n_for_estimates():
    code, _ = invoke("asymp", "otc", "--d", "2")
    assert code == 2


def test_verify_suite_passes():
    code, text = invoke("verify", "--suite", "sackin", "--n-max", "6")
    assert code == 0
    recs = records(text)
    assert recs
    assert all(r["results"]["passed"] for r in recs)


def test_usage_errors_exit_2():
    assert invoke("count", "tc", "--d", "1", "--n", "3")[0] == 2
    assert invoke("count", "tc", "--d", "2", "--n", "3", "--k", "5")[0] == 2
    assert invoke("count", "words", "--d", "2", "--n", "3")[0] == 2
    assert invoke("count", "tc", "--d", "2", "--n", "3", "--k", "1",
                  "--method", "nope")[0] == 2
    assert invoke("count", "tc", "--d", "2", "--n", "5", "--k", "3",
                  "--method", "genfun")[0] == 2
    assert invoke("count", "tc", "--d", "4", "--n", "5", "--k", "1",
                  "--method", "closedform")[0] == 2
    assert invoke("count", "tc", "--d", "2", "--n", "5",
                  "--method", "compgraph")[0] == 2
    assert invoke("nonsense")[0] == 2
    # a verify suite that would check nothing is refused, not passed
    assert invoke("verify", "--suite", "sackin", "--n-max", "0") == (2, "")
    assert invoke("verify", "--suite", "cross-method", "--n-max", "-5") == (2, "")
    assert invoke("verify", "--suite", "golden-tables", "--d", "9") == (2, "")
    assert invoke("verify", "--suite", "golden-tables", "--n-max", "1") == (2, "")
    assert invoke("verify", "--suite", "inequalities", "--n-max", "1") == (2, "")


def test_verify_leaves_out_checks_that_compare_nothing():
    code, text = invoke("verify", "--suite", "cross-method", "--n-max", "1")
    assert code == 0
    assert [r["results"]["check"] for r in records(text)] == [
        "words-vs-compgraph d=2", "words-vs-compgraph d=3",
    ]


def _details(text: str, check: str) -> str:
    (rec,) = [r for r in records(text) if r["results"]["check"] == check]
    assert rec["results"]["passed"], rec
    return rec["results"]["details"]


def test_oracle_follows_n_max_up_to_the_word_ceiling(monkeypatch):
    argv = ("verify", "--suite", "oracle", "--d", "2", "--n-max", "6")
    words_check = "word-definition-vs-recurrence d=2"
    graphs_check = "graph-enumeration-vs-recurrence d=2"
    code, text = invoke(*argv)
    assert code == 0
    # n + 1 classes at each n: n <= 5 under the default WORD ceiling
    assert _details(text, words_check) == "20 classes"
    assert _details(text, graphs_check) == "m <= 4"
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "6")
    code, text = invoke(*argv)
    assert code == 0
    assert _details(text, words_check) == "27 classes"
    # the graph enumeration runs to the blow-up's graph size, BLOWUP_K + 1
    monkeypatch.setenv("TREECHILD_BLOWUP_K_CEILING", "2")
    code, text = invoke(*argv)
    assert code == 0
    assert _details(text, graphs_check) == "m <= 3"


@pytest.mark.parametrize("n_max, env, cells", [
    # k < min(BLOWUP_K + 1, n): 1 + 2 + 3 cells, then 4 at each n >= 4
    (None, {}, 18),
    ("8", {}, 26),
    ("12", {}, 42),
    ("10", {}, 34),
    (None, {"TREECHILD_BLOWUP_K_CEILING": "2"}, 15),
    # an --n-max above 12 reads as 12, as for the series check
    ("30", {}, 42),
    # below BLOWUP_K = 2 the blow-up leaves the series check as well
    (None, {"TREECHILD_BLOWUP_K_CEILING": "1"}, 11),
])
def test_cross_method_follows_n_max_up_to_the_blowup_ceilings(n_max, env, cells, monkeypatch):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    argv = ["verify", "--suite", "cross-method", "--d", "2"]
    if n_max is not None:
        argv += ["--n-max", n_max]
    code, text = invoke(*argv)
    assert code == 0
    assert _details(text, "words-vs-compgraph d=2") == f"{cells} cells"
    # the series check runs to n = 12: genfun and the closed form at each
    # k = 1 cell (n >= 2) and each k = 2 cell (n >= 3), and the blow-up at
    # each k = 2 cell while BLOWUP_K >= 2
    top = min(int(n_max or 12), 12)
    k2_routes = 3 if env.get("TREECHILD_BLOWUP_K_CEILING") != "1" else 2
    comparisons = 2 * (top - 1) + k2_routes * (top - 2)
    assert _details(text, "series-and-closed-forms d=2") == f"{comparisons} comparisons"


@pytest.mark.parametrize("argv", [
    ("count", "words", "--d", "2", "--n", "3", "--method", "all"),
    ("count", "star", "--d", "2", "--n", "3", "--method", "all"),
    ("count", "tc", "--d", "2", "--n", "3", "--method", "compgraph"),
])
def test_count_without_k_names_the_missing_k(argv, capsys):
    assert invoke(*argv) == (2, "")
    err = capsys.readouterr().err
    assert "requires --k" in err
    assert "k=None" not in err


@pytest.mark.parametrize("argv", [
    ("--d", "2", "--n", "2", "--k", "2", "--method", "genfun"),
    ("--d", "2", "--n", "2", "--k", "2", "--method", "closedform"),
    ("--d", "2", "--n", "1", "--k", "1", "--method", "genfun"),
    ("--d", "2", "--n", "1", "--k", "1", "--method", "closedform"),
], ids=" ".join)
def test_series_routes_name_k_when_it_reaches_n(argv, capsys):
    # Params' rule runs before a route's own bound on n, as for words
    assert invoke("count", "tc", *argv) == (2, "")
    err = capsys.readouterr().err
    assert "reticulation count k must satisfy 0 <= k <= n-1" in err, err


@pytest.mark.parametrize("target", ["tc", "otc"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("d, n_max", [(2, 0), (0, -3), (1, 3)])
def test_table_refuses_an_empty_range(target, fmt, d, n_max):
    assert invoke("table", target, "--d", str(d), "--n-max", str(n_max),
                  "--format", fmt) == (2, "")


def test_word_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "3")
    code, _ = invoke("count", "words", "--d", "2", "--n", "4", "--k", "0",
                     "--method", "bruteforce")
    assert code == 2
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "8")
    code, text = invoke("count", "words", "--d", "2", "--n", "4", "--k", "0",
                        "--method", "bruteforce")
    assert code == 0
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "zebra")
    code, _ = invoke("count", "words", "--d", "2", "--n", "4", "--k", "0",
                     "--method", "bruteforce")
    assert code == 2


def test_records_round_trip_as_json_lines():
    _, text = invoke("verify", "--suite", "golden-tables", "--d", "2")
    for line in text.splitlines():
        rec = json.loads(line)
        assert set(rec) == {"command", "parameters", "results", "method"}


# per ceiling: a cell the default admits, then the first cell above it
CEILING_CELLS = {
    "WORD": (["count", "words", "--d", "2", "--n", "5", "--k", "0", "--method", "bruteforce"],
             ["count", "words", "--d", "2", "--n", "6", "--k", "0", "--method", "bruteforce"]),
    "BLOWUP_K": (["count", "tc", "--d", "2", "--n", "4", "--k", "3", "--method", "compgraph"],
                 ["count", "tc", "--d", "2", "--n", "6", "--k", "4", "--method", "compgraph"]),
    # --compare normal recomputes the law, so it must see the raised ceiling too
    "ONECOMP": (["dist", "ret", "--family", "onecomp", "--d", "2", "--n", "200",
                 "--compare", "normal"],
                ["dist", "ret", "--family", "onecomp", "--d", "2", "--n", "201",
                 "--compare", "normal"]),
    "GENERAL": (["dist", "ret", "--family", "general", "--d", "2", "--n", "25"],
                ["dist", "ret", "--family", "general", "--d", "2", "--n", "26"]),
}


@pytest.mark.parametrize("name", list(CEILINGS))
def test_ceiling_env_override(name, monkeypatch, capsys):
    var = f"TREECHILD_{name}_CEILING"
    default = CEILINGS[name]
    at_default, above = CEILING_CELLS[name]
    assert invoke(*at_default)[0] == 0
    capsys.readouterr()
    # each refusal names the refused value, the ceiling in force and the
    # variable that raises it
    assert invoke(*above) == (2, "")
    err = capsys.readouterr().err
    assert f" = {default + 1} exceeds the {name} ceiling {default} " in err
    assert var in err
    monkeypatch.setenv(var, str(default - 1))
    assert invoke(*at_default) == (2, "")
    err = capsys.readouterr().err
    assert f" = {default} exceeds the {name} ceiling {default - 1} " in err
    assert var in err
    monkeypatch.setenv(var, str(default + 1))
    code, text = invoke(*above)
    assert code == 0
    (rec,) = records(text)
    assert rec["command"] == " ".join(above[:2])
    for bad in ("zebra", "-1", "2.5"):
        monkeypatch.setenv(var, bad)
        assert invoke(*at_default) == (2, "")
        assert var in capsys.readouterr().err


# the drawn CLI contract: sizes stay small until a cost estimate can bound
# them; a 40-digit --n or --d can run without end today
MALFORMED_INTS = ["2.0", "1e3", "", "x"]
METHODS = sorted({m for routes in verify.COUNT_ROUTES.values() for m in routes} | {"all", "nosuch"})


def _int_token(flag: str, n: int):
    value = {
        "--d": st.integers(-1, 6),
        "--n": st.just(n),
        "--k": st.integers(-1, 14) | st.sampled_from([n - 1, n]),
    }.get(flag, st.integers(-1, 14))
    return (value.map(str) | value.filter(lambda v: v >= 0).map(lambda v: f"0{v}")
            | st.sampled_from(MALFORMED_INTS))


@st.composite
def cli_argv(draw):
    """argv from the CLI's grammar table, which its parser is built from:
    every subcommand, positional choice and flag; an optional flag may be
    absent."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, targets, _, options = cli._COMMANDS[command]
    argv, n = [command], draw(st.integers(-1, 14))
    if targets is not None:
        argv.append(draw(st.sampled_from(targets)))
    for flag, (kind, choices, required, _) in options.items():
        if not required and draw(st.booleans()):
            continue
        if kind is int:
            token = draw(_int_token(flag, n))
        else:
            token = draw(st.sampled_from(choices or METHODS))
        argv += [flag, token]
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_every_drawn_call_ends_in_records_or_a_usage_error(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, text = invoke(*argv)
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert any("error:" in line for line in err.getvalue().splitlines()), argv
        assert "Traceback" not in err.getvalue(), argv
    elif "csv" not in argv:
        assert text, argv
        for line in text.splitlines():
            assert set(json.loads(line)) == {"command", "parameters", "results", "method"}, argv


def _argparse_namespace(argv):
    """argparse's Namespace for argv, or None where it refuses argv."""
    try:
        with redirect_stderr(io.StringIO()):
            return cli._parser().parse_args(argv)
    except SystemExit:
        return None


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_a_plain_argv_parses_as_argparse_parses_it(argv):
    quick, parsed = cli._quick_parse(argv), _argparse_namespace(argv)
    if quick is not None:
        assert quick == parsed
        assert list(vars(quick)) == list(vars(parsed))  # the attributes in argparse's order too
    flags = set(cli._COMMANDS[argv[0]][3])
    if parsed is not None and not any(t.startswith("-") for t in argv if t not in flags):
        assert quick is not None, argv


@pytest.mark.parametrize("argv", [
    ["-h"],
    ["count", "-h"],
    ["table", "tc", "--d", "2", "--n", "3"],  # an abbreviation of --n-max
    ["count", "tc", "--d=2", "--n", "5"],
    ["count", "tc", "--d", "2", "--n", "5", "--d", "3"],
    ["count", "tc", "--d", "2", "--n", "5", "--k", "-1"],
    ["count", "tc", "--d", "2", "--", "--n", "5"],
    ["count", "tc", "--d", "2"],  # --n is required
    ["count", "tc", "otc", "--d", "2", "--n", "5"],
    [],
], ids=" ".join)
def test_every_other_argv_goes_to_argparse(argv):
    assert cli._quick_parse(argv) is None


PLAIN_CALLS = [
    *(["count", target, "--d", "2", "--n", "4", "--k", "1"] for target in verify.COUNT_ROUTES),
    *(["table", target, "--d", "2", "--n-max", "4", "--format", fmt]
      for target in ("tc", "otc") for fmt in ("json", "csv")),
    *(["dist", "ret", "--family", family, "--d", "2", "--n", "6", "--compare", compare]
      for family in ("onecomp", "general") for compare in cli._TV_KEYS),
    ["dist", "ret", "--family", "onecomp", "--d", "2", "--n", "6", "--compare", "normal"],
    *(["asymp", target, "--d", "2", "--n", "10"] for target in ("otc", "tc-envelope", "ratio")),
    ["asymp", "params", "--d", "2"],
    *(["verify", "--suite", suite, "--n-max", "4"] for suite in sorted(verify.SUITES)),
]


def test_plain_calls_never_reach_argparse(monkeypatch):
    def refused(self, *args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refused)
    for argv in PLAIN_CALLS:
        assert invoke(*argv)[0] == 0, argv


def test_plain_calls_never_build_the_parser():
    # in a fresh interpreter, so no earlier call or import has built it
    script = (
        "import argparse, io, json, sys\n"
        "def refused(self, *args, **kwargs):\n"
        "    raise AssertionError('argparse built a parser for a plain argv')\n"
        "argparse.ArgumentParser.__init__ = refused\n"
        "from treechild import cli\n"
        "codes = [cli.run(argv, out=io.StringIO()) for argv in json.load(sys.stdin)]\n"
        "print(json.dumps([codes, cli._parser.cache_info().misses]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(PLAIN_CALLS),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(PLAIN_CALLS), 0]
