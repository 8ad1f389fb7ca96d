"""Unit tests for the verification suites and frozen fixtures."""
import pytest

from treechild import CheckResult, GOLDEN_TC, ExactnessError, run_suite, verify


def test_golden_fixture_spot_values():
    assert GOLDEN_TC[2][8][7] == 8485564550400
    assert GOLDEN_TC[3][7][6] == 560319972030000
    assert GOLDEN_TC[6][5][4] == 483098464854720
    assert GOLDEN_TC[4][2] == [1, 2]


def test_golden_fixture_row_lengths():
    for d, table in GOLDEN_TC.items():
        for n, row in table.items():
            assert len(row) == n, (d, n)


def test_every_suite_passes_at_reduced_size():
    for name in ("golden-tables", "cross-method", "oracle", "inequalities",
                 "sackin"):
        results = run_suite(name, n_max=5)
        assert results, name
        for r in results:
            assert isinstance(r, CheckResult)
            assert r.passed, (name, r)


def test_suite_dimension_filter():
    results = run_suite("golden-tables", d=3)
    assert len(results) == 1
    assert "d=3" in results[0].name


def test_cross_method_counts_only_covered_routes():
    # d = 4 and d = 5 have no closed form: genfun, and the blow-up at k = 2
    results = run_suite("cross-method", d=4, n_max=4)
    series = [r for r in results if r.name == "series-and-closed-forms d=4"]
    assert [r.details for r in series] == ["7 comparisons"]
    # 11 cells at k = 1 and 10 at k = 2, the blow-up at d = 5 up to n = 12
    results = run_suite("cross-method", d=5, n_max=12)
    series = [r for r in results if r.name == "series-and-closed-forms d=5"]
    assert series == [CheckResult("series-and-closed-forms d=5", True, "31 comparisons")]


def test_the_check_runner_holds_its_three_rules():
    def compare(n):
        if n == 2:
            raise ExactnessError("inexact")
        return [] if n != 3 else [(n, "odd")]

    # no cell, no check
    assert verify._check("empty", "0 cells", [], compare) == []
    assert verify._check("fine", "1 cell", [(1,)], compare) == [
        CheckResult("fine", True, "1 cell")]
    # a raising cell is one failure entry; the cells after it still run
    (result,) = verify._check("raising", "3 cells", [(1,), (2,), (3,)], compare, "failure")
    assert result == CheckResult("raising", False, "3 cells; first failure (2, 'raised inexact')")
    (result,) = verify._check("late", "", [(1,), (3,)], compare)
    assert result == CheckResult("late", False, "first mismatch (3, 'odd')")


def test_a_broken_d2_equality_is_a_chain_failure(monkeypatch):
    # TC(3, 2) one above 2 TC(3, 1): the chain's inequality still holds at
    # every k, and only its d = 2 equality case fails
    monkeypatch.setattr(verify, "tc_table", lambda d, top: {2: [1, 2], 3: [3, 21, 43]})
    chain = {r.name: r for r in run_suite("inequalities", d=2, n_max=3)}["interlacing-chain d=2"]
    assert chain == CheckResult("interlacing-chain d=2", False,
                                "n <= 3; first failure ('equality', 3, 1)")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("made-up")


def _answer(route, d, n, k):
    """('value', v) when the route returns, ('refused', message) when it
    raises a ValueError."""
    try:
        return "value", route(d, n, k)
    except ValueError as refused:
        return "refused", str(refused)


def test_every_covering_route_agrees_on_the_small_grid():
    # no hand-written route list: every target and method of the registry,
    # on every cell it claims to cover
    checked = 0
    for target, routes in verify.COUNT_ROUTES.items():
        for d in (2, 3, 4):
            for n in range(1, 7):
                for k in (None, *range(n + 1)):
                    answers = {
                        method: _answer(route, d, n, k)
                        for method, (route, covers) in routes.items()
                        if covers(d, n, k)
                    }
                    values = {v for kind, v in answers.values() if kind == "value"}
                    assert len(values) <= 1, (target, d, n, k, answers)
                    # a float count prints like the int while it is small
                    # and loses digits once it is large; the set above would
                    # fold 3.0 into 3, so every answer is checked
                    assert all(type(v) is int for kind, v in answers.values() if kind == "value"), (
                        target, d, n, k, answers)
                    if values:
                        checked += 1
                        # a cell one route answers is refused by another
                        # only at a safety ceiling
                        for kind, v in answers.values():
                            assert kind == "value" or "ceiling" in v, (target, d, n, k, answers)
    assert checked > 300
