"""Unit tests for component graphs, the blow-up count, series extraction,
and the closed forms built on them."""
import hashlib
import inspect
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from graphlib import CycleError, TopologicalSorter
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, lgamma, log, prod
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from treechild import (
    ComponentGraph,
    LaurentPoly,
    Params,
    compgraphs,
    count_component_graphs,
    count_component_graphs_total,
    count_star,
    count_tc_compgraph,
    count_tc_genfun_k1,
    count_tc_genfun_k2,
    count_tc_words,
    enumerate_component_graphs,
    f_laurent,
    structural_k1_polynomial,
    tc_k1_closed_form,
    tc_k2_closed_form,
    z_coefficient,
)
from treechild.compgraphs import _add_edge, _blowup_series, _f_sweep, asympt_tc_fixed_k
from treechild.onecomp import count_phylo_trees, double_factorial
from treechild.params import ExactnessError, exact_div

# sink-stratified counts fixed from a hand enumeration of small cases
GRAPH_COUNTS = {
    2: {1: [1], 2: [2], 3: [12, 3], 4: [156, 96, 4]},
    3: {1: [1], 2: [2], 3: [18, 3], 4: [468, 180, 4]},
}


def test_graph_counts_by_sink_number():
    for d, rows in GRAPH_COUNTS.items():
        for m, row in rows.items():
            for s, want in enumerate(row, start=1):
                assert count_component_graphs(d, m, s) == want, (d, m, s)
            assert count_component_graphs_total(d, m) == sum(row)


# the recurrence on (node count, sink count) the counts were once computed
# by, kept as the oracle for the inclusion-exclusion over marked sinks:
# k(m, s) = sum_t C(m, s) beta(m, s, t) k(m - s, t), with
# beta(m, s, t) = sum_l (-1)^l C(t, l) C(m - s - l + d - 1, d)^s
@lru_cache(maxsize=None)
def _count_graphs_reference(d: int, m: int, s: int) -> int:
    if m == 1:
        return 1 if s == 1 else 0
    if not 1 <= s <= m - 1:
        return 0
    total = 0
    for t in range(1, m - s + 1):
        beta = sum(
            (-1) ** l * comb(t, l) * comb(m - s - l + d - 1, d) ** s
            for l in range(t + 1)
        )
        total += comb(m, s) * beta * _count_graphs_reference(d, m - s, t)
    return total


def test_graph_counts_match_the_sink_recurrence():
    for d in (2, 3, 4, 5):
        for m in range(1, 21):
            row = [count_component_graphs(d, m, s) for s in range(1, max(m - 1, 1) + 1)]
            assert row == [_count_graphs_reference(d, m, s) for s in range(1, len(row) + 1)], (d, m)
            total = count_component_graphs_total(d, m)
            assert total == sum(row), (d, m)
            # an int, not a float that equals it while it is small
            assert all(type(v) is int for v in [*row, total]), (d, m)


def test_graph_counts_do_not_recurse():
    depth = len(inspect.stack())
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        total = count_component_graphs_total(2, 150)
    finally:
        sys.setrecursionlimit(limit)
    assert total == sum(count_component_graphs(2, 150, s) for s in range(1, 150))


def test_enumeration_matches_counts():
    # every d the blow-up tests read, against the marked-sink counts, which
    # test_graph_counts_by_sink_number pins to the hand counts
    for d in (2, 3, 4, 5):
        for m in range(1, 5):
            graphs = list(enumerate_component_graphs(d, m))
            assert len(graphs) == count_component_graphs_total(d, m)
            assert len(set(graphs)) == len(graphs)
            by_sinks = Counter(len(g.sinks()) for g in graphs)
            want = {s: count_component_graphs(d, m, s) for s in range(1, max(m - 1, 1) + 1)}
            assert by_sinks == want


def _is_acyclic(m: int, mult) -> bool:
    # the reference the enumeration is held to: the standard library's
    # topological sorter, which raises CycleError on a cycle
    try:
        TopologicalSorter({v: [u for u in range(m) if mult[u][v]] for v in range(m)}).prepare()
    except CycleError:
        return False
    return True


# sha256 of the (root, mult) sequence over d 2..6 and m 1..4, recorded from
# the previous enumerator; demo 03 prints this order
ENUMERATION_ORDER_SHA256 = "06b27f97cd5d238e1f6fdc54707abba3426bc2a180056275ea977239644f4221"


def test_enumeration_order_is_pinned():
    h = hashlib.sha256()
    for d in range(2, 7):
        for m in range(1, 5):
            for g in enumerate_component_graphs(d, m):
                h.update(repr((g.root, g.mult)).encode())
    assert h.hexdigest() == ENUMERATION_ORDER_SHA256


def test_enumeration_matches_plain_filter():
    # every root and parent pick, kept when acyclic, with no grouping
    for d in (2, 3):
        for m in range(1, 5):
            want = set()
            for root in range(m):
                others = [v for v in range(m) if v != root]
                choices = [
                    combinations_with_replacement([u for u in range(m) if u != v], d)
                    for v in others
                ]
                for pick in product(*choices):
                    mult = [[0] * m for _ in range(m)]
                    for v, parents in zip(others, pick):
                        for u in parents:
                            mult[u][v] += 1
                    if _is_acyclic(m, mult):
                        want.add((root, tuple(map(tuple, mult))))
            got = [(g.root, g.mult) for g in enumerate_component_graphs(d, m)]
            assert len(got) == len(set(got))
            assert set(got) == want


def test_graph_accessors():
    g = ComponentGraph(m=2, root=0, mult=((0, 2), (0, 0)))
    assert g.in_degree(1) == 2
    assert g.in_degree(0) == 0
    assert g.out_degree(0) == 2
    assert g.sinks() == [1]


def test_graph_degree_structure():
    for g in enumerate_component_graphs(3, 3):
        assert g.in_degree(g.root) == 0
        for v in range(g.m):
            if v != g.root:
                assert g.in_degree(v) == 3
        assert _is_acyclic(g.m, g.mult)


def test_acyclicity_predicate():
    assert _is_acyclic(2, ((0, 1), (0, 0)))
    assert not _is_acyclic(2, ((0, 1), (1, 0)))


def test_enumeration_ceiling():
    with pytest.raises(ValueError):
        list(enumerate_component_graphs(2, 5))
    assert count_component_graphs(2, 5, 1) > 0


def _blowup_cells(n_lo: int, n_hi: int) -> list[tuple[int, int, int]]:
    """Every (d, n, k) with d 2..5, n_lo <= n <= n_hi and k <= BLOWUP_K."""
    return [(d, n, k) for d in (2, 3, 4, 5) for n in range(n_lo, n_hi + 1) for k in range(min(3, n - 1) + 1)]


def _assert_blowup_matches_words(cells: list[tuple[int, int, int]]) -> None:
    for d, n, k in cells:
        p = Params(d, n, k)
        assert count_tc_compgraph(p) == count_tc_words(p), (d, n, k)


def test_blowup_matches_word_count():
    # n <= 8, the domain the blow-up's retired n ceiling once allowed
    _assert_blowup_matches_words(_blowup_cells(1, 8))


def test_blowup_matches_word_count_past_its_default_ceiling():
    # past the retired n = 8 ceiling, with no environment variable
    _assert_blowup_matches_words(_blowup_cells(9, 20))


def test_blowup_matches_word_count_out_to_n_30():
    # out to n = 30, and three cells at n = 200 and 500
    _assert_blowup_matches_words(_blowup_cells(21, 30) + [(2, 200, 3), (3, 200, 3), (2, 500, 2)])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=6, max_value=8), st.integers(min_value=4, max_value=25))
def test_blowup_matches_word_count_at_k3_for_larger_d(d, n):
    # drawn cells past _blowup_cells' d <= 5, at the default ceiling k = 3
    _assert_blowup_matches_words([(d, n, 3)])


# the literal set-partition walk the blow-up once summed over, kept as the
# oracle for the closed-form shape counts
def _partitions_by_rank(universe: list, blocks: int) -> Iterator[list]:
    """Set partitions into a fixed block count, blocks ordered by smallest
    element (elements are consumed in increasing order, so a block's
    position equals the rank of its minimum)."""
    n = len(universe)

    def rec(i: int, parts: list) -> Iterator[list]:
        if i == n:
            if len(parts) == blocks:
                yield parts
            return
        if len(parts) + (n - i) < blocks:
            return
        for p in parts:
            p.append(universe[i])
            yield from rec(i + 1, parts)
            p.pop()
        if len(parts) < blocks:
            parts.append([universe[i]])
            yield from rec(i + 1, parts)
            parts.pop()

    yield from rec(0, [])


def _shapes(n: int, m: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """Block-size shapes: the non-decreasing tuples of m sizes, each at
    least `least`, summing to n."""
    if m == 1:
        if n >= least:
            yield (n,)
        return
    for b in range(least, n // m + 1):
        for rest in _shapes(n - b, m - 1, b):
            yield (b, *rest)


def _partition_count(sizes: tuple[int, ...]) -> int:
    """Set partitions of sum(sizes) labeled elements whose sorted block
    sizes are `sizes`: n! / (prod_j b_j! * prod_s r_s!), with r_s the
    number of blocks of size s."""
    return exact_div(
        factorial(sum(sizes)),
        prod(map(factorial, sizes)) * prod(map(factorial, Counter(sizes).values())),
    )


@lru_cache(maxsize=None)
def _graph_classes(d: int, m: int) -> tuple:
    """The graphs on m nodes grouped by (g_j, w_j) per node j: out-degree
    and product of edge-multiplicity factorials."""
    return tuple(Counter(
        tuple((g.out_degree(j), prod(map(factorial, g.mult[j]))) for j in range(m))
        for g in enumerate_component_graphs(d, m)
    ).items())


@lru_cache(maxsize=None)
def _node(b: int, g: int, w: int) -> int:
    return exact_div(factorial(2 * b + g - 2), factorial(b - 1) * w)


def _shape_sum(d: int, n: int, k: int) -> int:
    """The blow-up summed over block-size shapes, with no series: each shape
    of n into k+1 blocks, weighted by its partition count, times each graph
    class's product of node factors (2b + g - 2)! / ((b - 1)! w), all over
    2^(n-k-1).  Block j goes to node j, which is valid because the graph
    classes are symmetric under relabeling."""
    classes = _graph_classes(d, k + 1)
    total = sum(
        _partition_count(sizes) * sum(
            graphs * prod(_node(b, g, w) for b, (g, w) in zip(sizes, signature))
            for signature, graphs in classes
        )
        for sizes in _shapes(n, k + 1)
    )
    return exact_div(total, 2 ** (n - k - 1))


def test_series_matches_the_shape_sum():
    # at k = 1 the blow-up series is count_tc_genfun_k1's f_d f_0, so the
    # shape sum, which never reads f_g, is the independent computation
    # that meets the series there
    for d, n_top in ((2, 30), (3, 30), (4, 12), (5, 12)):
        for n in range(1, n_top + 1):
            for k in range(min(3, n - 1) + 1):
                p = Params(d, n, k)
                assert count_tc_compgraph(p) == _shape_sum(d, n, k), (d, n, k)
            if n >= 2:
                assert _shape_sum(d, n, 1) == count_tc_genfun_k1(d, n), (d, n)


def test_shape_counts_match_the_partition_walk():
    for n in range(1, 11):
        for m in range(1, min(n, 4) + 1):
            walked = Counter(
                tuple(sorted(map(len, part)))
                for part in _partitions_by_rank(list(range(1, n + 1)), m)
            )
            shapes = list(_shapes(n, m))
            assert len(shapes) == len(set(shapes))
            assert {sizes: _partition_count(sizes) for sizes in shapes} == walked, (n, m)


def _enumerated_series(d: int, m: int) -> LaurentPoly:
    """The blow-up series by its definition, over the enumerated graphs:
    sum count (d!)^(m-1) / prod_j w_j prod_j F_{g_j} over the classes of
    `_graph_classes`."""
    fs = _f_sweep(d * (m - 1))
    total = LaurentPoly()
    for signature, graphs in _graph_classes(d, m):
        weight = exact_div(factorial(d) ** (m - 1), prod(w for _, w in signature))
        term = LaurentPoly({0: graphs * weight})
        for g, _ in signature:
            term = term * fs[g]
        total = total + term
    return total


def test_blowup_series_matches_the_enumerated_graphs(monkeypatch):
    # the marked-sink recurrence against every graph's out-degrees and edge
    # multiplicities, and at d = 2 one node past the default ceiling (7 935
    # graphs on five nodes)
    monkeypatch.setenv("TREECHILD_BLOWUP_K_CEILING", "4")
    for d, m in [(d, m) for d in (2, 3, 4, 5) for m in range(1, 5)] + [(2, 5)]:
        assert _blowup_series(d, m) == _enumerated_series(d, m), (d, m)


def test_blowup_enumerates_no_graph(monkeypatch):
    def refuse(d, m):
        raise AssertionError("the blow-up enumerated component graphs")

    _blowup_series.cache_clear()
    monkeypatch.setattr(compgraphs, "enumerate_component_graphs", refuse)
    assert count_tc_compgraph(Params(3, 8, 3)) == count_tc_words(Params(3, 8, 3))


def test_blowup_series_lowest_term_is_the_fixed_k_constant():
    # TC(n, k) = n! [z^n] S / ((k+1)! (d!)^k 2^n) with S = S(k+1).  A term
    # X^e with even e >= 0 vanishes once n > e/2, and [z^n] X^(-e) ~ 4^n
    # n^(e/2-1) / Gamma(e/2) for odd e > 0, so S's lowest term sets the first
    # order.  With lowest term (k+1) (2dk-3)!! X^(-(2dk-1)) and
    # Gamma(dk - 1/2) = (2dk-3)!! sqrt(pi) / 2^(dk-1),
    #   TC(n, k) ~ n! 2^n n^(dk-3/2) 2^(dk-1) / ((d!)^k k! sqrt(pi)),
    # which is asympt_tc_fixed_k: its constant 2^(dk-1) / ((d!)^k k! sqrt(pi))
    # exactly.  The integers are pinned; the log identity is checked at n = 50.
    n = 50
    for d in (2, 3, 4, 5):
        for k in range(1, 13):
            coefficients = _blowup_series(d, k + 1).coefficients
            e = -min(coefficients)
            want = (2 * d * k - 1, (k + 1) * double_factorial(2 * d * k - 3))
            assert (e, coefficients[-e]) == want, (d, k)
            lead = (
                lgamma(n + 1) - lgamma(k + 2) - k * lgamma(d + 1) - n * log(2)
                + log(coefficients[-e]) + n * log(4) + (e / 2 - 1) * log(n) - lgamma(e / 2)
            )
            assert lead == pytest.approx(asympt_tc_fixed_k(d, n, k).ln, rel=1e-12), (d, k)


def test_blowup_ceilings(monkeypatch):
    with pytest.raises(ValueError):
        count_tc_compgraph(Params(2, 8, 4))
    monkeypatch.setenv("TREECHILD_BLOWUP_K_CEILING", "5")
    assert count_tc_compgraph(Params(2, 6, 4)) == count_tc_words(
        Params(2, 6, 4)
    )


def _relabeled(g: ComponentGraph, order: tuple[int, ...]) -> ComponentGraph:
    """g with node u renamed order[u]."""
    mult = [[0] * g.m for _ in range(g.m)]
    for u in range(g.m):
        for v in range(g.m):
            mult[order[u]][order[v]] = g.mult[u][v]
    return ComponentGraph(m=g.m, root=order[g.root], mult=tuple(map(tuple, mult)))


def test_graph_classes_are_symmetric_under_relabeling():
    # relabeling the nodes of a component graph gives another one: the
    # blow-up's 1/(k+1)! and the shape sum's block order both rely on this
    for d in (2, 3, 4, 5):
        for m in range(1, 5):
            graphs = set(enumerate_component_graphs(d, m))
            for order in permutations(range(m)):
                assert {_relabeled(g, order) for g in graphs} == graphs, (d, m, order)


def test_ceilings_hold_after_a_warm_call(monkeypatch):
    assert count_tc_compgraph(Params(2, 4, 3)) == count_tc_words(Params(2, 4, 3))
    monkeypatch.setenv("TREECHILD_BLOWUP_K_CEILING", "2")
    with pytest.raises(ValueError):
        count_tc_compgraph(Params(2, 4, 3))
    with pytest.raises(ValueError):
        list(enumerate_component_graphs(2, 4))


def test_star_spot_values():
    assert count_star(Params(2, 4, 2)) == 612
    assert count_star(Params(4, 2, 1)) == 2


def test_star_with_one_reticulation_counts_everything():
    # a single reticulation forces the star shape, so the star count must
    # equal the full class count
    for d in (2, 3, 4):
        for n in range(2, 7):
            assert count_star(Params(d, n, 1)) == count_tc_words(Params(d, n, 1))


def test_star_count_is_the_star_group_of_the_blowup_series():
    # the star graphs on k+1 nodes, one per choice of root, are the group of
    # sorted out-degrees (0, ..., 0, dk); their root edges have multiplicity
    # d each, so w = (d!)^k, and the k+1 roots leave 1/k! of the 1/(k+1)!;
    # the sweep holds F_g = 2 f_g, so the k+1 factors add 2^(k+1) below
    for d in (2, 3, 4, 5):
        fs = _f_sweep(5 * d)
        for k in range(1, 6):
            series = fs[d * k]
            for _ in range(k):
                series = series * fs[0]
            for n in range(k + 1, 25):
                scale = Fraction(factorial(n), factorial(k) * factorial(d) ** k * 2 ** n)
                assert count_star(Params(d, n, k)) == scale * z_coefficient(series, n), (d, n, k)


def test_star_requires_reticulations():
    with pytest.raises(ValueError):
        count_star(Params(2, 4, 0))


def test_laurent_poly_algebra():
    x = LaurentPoly({1: Fraction(1)})
    one = LaurentPoly({0: Fraction(1)})
    assert (x + one) * (x + one.scale(-1)) == x * x + one.scale(-1)
    inv = LaurentPoly({-1: Fraction(1)})
    assert x * inv == one
    # the edge operator at c = 0 is (X - 1/X) p'
    assert _add_edge(x, 0) == x + inv.scale(-1)
    assert _add_edge(x * x, 0) == (x * x).scale(2) + one.scale(-2)
    assert _add_edge(inv, 0) == inv * inv * inv + inv.scale(-1)


def test_laurent_poly_drops_zero_coefficients():
    p = LaurentPoly({2: Fraction(0), 0: Fraction(3)})
    assert p == LaurentPoly({0: Fraction(3)})
    q = p + p.scale(-1)
    assert q == LaurentPoly()


coeff_st = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=9),
    ),
    max_size=4,
)


@given(coeff_st, coeff_st, coeff_st)
def test_laurent_poly_distributes(a, b, c):
    pa, pb, pc = LaurentPoly(a), LaurentPoly(b), LaurentPoly(c)
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert pa * pb == pb * pa


def test_laurent_poly_keeps_int_coefficients():
    assert type(LaurentPoly({1: 1}).coefficients[1]) is int
    assert LaurentPoly({0: 0.5}).coefficients == {0: Fraction(1, 2)}
    assert type(LaurentPoly({0: 0.5}).coefficients[0]) is Fraction
    p = LaurentPoly({-3: 1, 1: -2})
    assert all(type(v) is int for v in (p * p + p.scale(3)).coefficients.values())
    assert type(z_coefficient(p, 7)) is int
    assert type(z_coefficient(p.scale(Fraction(1, 2)), 7)) is Fraction


def test_f_sweep_holds_twice_f_in_integers():
    fs = _f_sweep(40)
    assert all(type(v) is int for f in fs for v in f.coefficients.values())
    for g in range(41):
        assert f_laurent(g).scale(2) == _f_sweep(g)[g] == fs[g], g


def test_f_laurent_small_cases():
    half = Fraction(1, 2)
    assert f_laurent(0) == LaurentPoly({0: half, 1: -half})
    assert f_laurent(2) == LaurentPoly({-3: half, -1: -half})
    assert f_laurent(3) == LaurentPoly({-5: Fraction(3, 2), -3: Fraction(-3, 2)})


@settings(deadline=None)
@given(
    st.integers(min_value=-8, max_value=6),
    st.integers(min_value=0, max_value=10),
)
def test_coefficient_extraction_consistent_across_routes(e, n):
    # X^e * X = X^(e+1) ties the closed-form extraction rules for positive,
    # negative-odd, and negative-even powers to each other
    lhs = sum(
        z_coefficient(LaurentPoly({e: Fraction(1)}), j)
        * z_coefficient(LaurentPoly({1: Fraction(1)}), n - j)
        for j in range(n + 1)
    )
    assert lhs == z_coefficient(LaurentPoly({e + 1: Fraction(1)}), n)


def test_coefficient_extraction_matches_the_binomial_series():
    # [z^n] (1-4z)^(e/2) = binom(e/2, n) (-4)^n, as a Fraction product, for
    # negative e, both parities, and a few non-negative e
    for e in range(-15, 4):
        for n in range(25):
            want = Fraction(1)
            for i in range(n):
                want *= (Fraction(e, 2) - i) / (i + 1)
            want *= (-4) ** n
            assert z_coefficient(LaurentPoly({e: Fraction(1)}), n) == want, (e, n)


def test_coefficient_extraction_basics():
    x = LaurentPoly({1: Fraction(1)})
    assert z_coefficient(x, 0) == 1
    assert z_coefficient(x, 1) == -2
    assert z_coefficient(x, 2) == -2
    assert z_coefficient(LaurentPoly({0: Fraction(5)}), 0) == 5
    assert z_coefficient(LaurentPoly({0: Fraction(5)}), 3) == 0


def test_series_counts_match_golden_values():
    assert count_tc_genfun_k1(2, 4) == 228
    assert count_tc_genfun_k2(2, 5) == 30300


def test_series_counts_match_word_count_at_large_d():
    assert count_tc_genfun_k1(30, 8) == count_tc_words(Params(30, 8, 1))
    assert count_tc_genfun_k2(30, 8) == count_tc_words(Params(30, 8, 2))


def test_series_and_blowup_counts_match_the_words():
    # the integer series routes each divide once; any slip in the powers of
    # 2 or the factorials there shows as a mismatch or an inexact division
    for d in range(2, 9):
        for n in range(2, 21):
            assert count_tc_genfun_k1(d, n) == count_tc_words(Params(d, n, 1)), (d, n)
            assert count_tc_compgraph(Params(d, n, 1)) == count_tc_words(Params(d, n, 1)), (d, n)
            if n >= 3:
                want = count_tc_words(Params(d, n, 2))
                assert count_tc_genfun_k2(d, n) == want, (d, n)
                assert count_tc_compgraph(Params(d, n, 2)) == want, (d, n)


def test_closed_forms_match_series():
    for n in range(2, 10):
        assert tc_k1_closed_form(2, n) == count_tc_genfun_k1(2, n)
        assert tc_k1_closed_form(3, n) == count_tc_genfun_k1(3, n)
    for n in range(3, 10):
        assert tc_k2_closed_form(2, n) == count_tc_genfun_k2(2, n)
        assert tc_k2_closed_form(3, n) == count_tc_genfun_k2(3, n)
    with pytest.raises(ValueError):
        tc_k1_closed_form(4, 5)
    with pytest.raises(ValueError):
        tc_k2_closed_form(4, 5)


def test_structural_polynomial_known_coefficients():
    assert structural_k1_polynomial(4) == [
        Fraction(0),
        Fraction(0),
        Fraction(3, 8),
        Fraction(5, 8),
    ]


def test_structural_polynomial_matches_the_d2_d3_closed_forms():
    # tc_k1_closed_form is n ((2n-1)!! - (2n-2)!!) at d = 2 and
    # n(2n+1)/3 (2n-1)!! - n^2 (2n-2)!! at d = 3, so p = n and p = n^2
    assert structural_k1_polynomial(2) == [0, 1]
    assert structural_k1_polynomial(3) == [0, 0, 1]


def test_structural_polynomial_refuses_an_off_polynomial_sample(monkeypatch):
    d = 4
    top = 2 * d + 4
    series = compgraphs.count_tc_genfun_k1

    def off_at_top(d, n):
        return series(d, n) + (double_factorial(2 * n - 2) if n == top else 0)

    monkeypatch.setattr(compgraphs, "count_tc_genfun_k1", off_at_top)
    with pytest.raises(ExactnessError, match=f"n = 2..{top} .* order {2 * d + 2}"):
        structural_k1_polynomial(d)


def test_structural_polynomial_reproduces_counts():
    for d in (2, 3, 4, 5):
        coeffs = structural_k1_polynomial(d)
        assert len(coeffs) == d
        for n in range(2, 12):
            p_n = sum(c * n**i for i, c in enumerate(coeffs))
            value = (
                comb(2 * n + d - 2, d) * double_factorial(2 * n - 3)
                - p_n * double_factorial(2 * n - 2)
            )
            assert value == count_tc_words(Params(d, n, 1)), (d, n)
