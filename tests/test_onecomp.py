"""Unit tests for one-component network counts and node bookkeeping."""
from math import factorial

import pytest
from hypothesis import given, strategies as st

from treechild import (
    NodeCensus,
    Params,
    count_otc,
    count_otc_direct,
    count_otc_total,
    count_phylo_trees,
    double_factorial,
    node_census,
    onecomp,
    otc_row,
)
from treechild.params import ExactnessError, exact_div


def test_double_factorial_small_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    assert double_factorial(9) == 945


def test_double_factorial_matches_a_loop():
    for m in range(-1, 201):
        want, factor = 1, m
        while factor > 1:
            want, factor = want * factor, factor - 2
        assert double_factorial(m) == want, m


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_phylo_tree_counts():
    assert [count_phylo_trees(n) for n in range(1, 7)] == [1, 1, 3, 15, 105, 945]


@given(st.integers(min_value=2, max_value=12))
def test_phylo_trees_match_double_factorial(n):
    assert count_phylo_trees(n) == double_factorial(2 * n - 3)


def test_exact_div_guards_remainder():
    assert exact_div(12, 4) == 3
    with pytest.raises(ExactnessError):
        exact_div(13, 4)


def test_otc_spot_values():
    assert count_otc(2, 2, 1) == 2
    assert count_otc(2, 3, 1) == 18
    assert count_otc(2, 3, 2) == 18
    assert count_otc(3, 3, 2) == 60
    assert count_otc_total(2, 3) == 3 + 18 + 18


def test_otc_k_zero_is_tree_count():
    for d in (2, 3, 5):
        for n in range(1, 10):
            assert count_otc(d, n, 0) == count_phylo_trees(n)


def test_otc_lenient_out_of_range():
    with pytest.raises(ValueError):
        count_otc(2, 3, 3)
    with pytest.raises(ValueError):
        count_otc(2, 3, -1)
    with pytest.raises(ValueError):
        count_otc(1, 3, 0)


def test_otc_row_lists_every_k():
    for d in range(2, 6):
        for n in range(1, 31):
            assert otc_row(d, n) == [count_otc(d, n, k) for k in range(n)], (d, n)
    for d, n in ((1, 3), (2, 0), (2, 12.5), (2, True), (True, 3)):
        with pytest.raises(ValueError):
            otc_row(d, n)


@pytest.mark.parametrize(
    "cells",
    [[(d, n) for d in range(2, 9) for n in range(1, 61)], [(50, 200), (1000, 40)]],
    ids=["d2-8_n1-60", "large_d"],
)
def test_rolled_row_matches_both_closed_forms(cells):
    # the row rolls by the ratio of consecutive count_otc values; each
    # per-cell closed form checks it independently
    for d, n in cells:
        row = otc_row(d, n)
        assert row == [count_otc(d, n, k) for k in range(n)], (d, n)
        assert row == [count_otc_direct(d, n, k) for k in range(n)], (d, n)


def test_otc_row_factorial_calls_do_not_grow_with_n(monkeypatch):
    # a row is n small-factor steps, not n closed forms of four factorials
    calls = []

    def counted(m):
        calls.append(m)
        return factorial(m)

    monkeypatch.setattr(onecomp, "factorial", counted)
    made = {}
    for n in (2, 50, 200):
        calls.clear()
        otc_row(5, n)
        made[n] = len(calls)
    assert made[200] == made[50] == made[2] <= 2, made


@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=1, max_value=20),
    st.data(),
)
def test_otc_dual_formulas_agree(d, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert count_otc(d, n, k) == count_otc_direct(d, n, k)


def test_node_census_values():
    assert node_census(2, 3, 1) == NodeCensus(
        tree_nodes=3, total_nodes=8, free_tree_nodes=1
    )
    assert node_census(4, 5, 2) == NodeCensus(
        tree_nodes=10, total_nodes=18, free_tree_nodes=2
    )


@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=15),
    st.data(),
)
def test_node_census_is_consistent(d, n, data):
    # root + internal tree nodes + reticulations + leaves account for all
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    census = node_census(d, n, k)
    assert 1 + census.tree_nodes + k + n == census.total_nodes
    assert 0 <= census.free_tree_nodes <= census.tree_nodes


def test_params_validation():
    with pytest.raises(ValueError):
        Params(1, 3, 0)
    with pytest.raises(ValueError):
        Params(2, 0, 0)
    with pytest.raises(ValueError):
        Params(2, 3, 3)
    for bad in [(2, 3.0, 1), (2.0, 3, 1), (2, 3, 1.0), (True, 3, 1),
                (2, True, 0), (2, 3, False), (2, "3", 1), (2, 3, None)]:
        with pytest.raises(ValueError):
            Params(*bad)
    p = Params(3, 4, 2)
    assert (p.d, p.n, p.k) == (3, 4, 2)
