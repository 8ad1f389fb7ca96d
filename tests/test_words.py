"""Unit tests for word classes, the b-recurrence, the tc_row cache, and
the rescaled slice."""
import functools
import gc
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import islice
from math import comb, factorial
from operator import sub

import pytest
from hypothesis import given, settings, strategies as st

from treechild import (
    ETable,
    ExactnessError,
    Params,
    Word,
    b_max_table,
    b_max_table_binomial,
    count_tc_total,
    count_tc_words,
    count_words,
    count_words_direct,
    e_table,
    enumerate_words,
    is_valid_word,
    lambda_factor,
    tc_k1_closed_form,
    tc_k2_closed_form,
    tc_row,
    tc_table,
)
from treechild.distributions import ret_pmf
from treechild import cli, words
from treechild.params import exact_div
from treechild.words import _SLICE_SUMS, _TC_ROWS, _tc_counts

# spot values fixed before the recurrence implementation existed
C_VALUES = {
    2: {(2, 0): 2, (2, 1): 7, (2, 2): 7, (3, 0): 5, (3, 1): 38, (3, 2): 106,
        (3, 3): 106, (5, 5): 87595},
    3: {(2, 1): 11, (2, 2): 25, (5, 5): 183500625},
    4: {(5, 5): 404793761526},
}


def test_word_from_string_round_trip():
    w = Word.from_string("baaabb")
    assert w.letters == (2, 1, 1, 1, 2, 2)
    assert w.profile == (3, 3)
    assert w.to_string() == "baaabb"
    with pytest.raises(ValueError):
        Word.from_letters([27, 27]).to_string()


def test_word_from_letters_infers_profile():
    w = Word.from_letters([1, 2, 1, 2])
    assert w.profile == (2, 2)
    assert Word.from_letters([]).profile == ()


def test_validity_examples_light_only():
    assert is_valid_word(2, Word.from_string("aabb"))
    assert is_valid_word(2, Word.from_string("abab"))
    assert not is_valid_word(2, Word.from_string("abba"))
    assert not is_valid_word(2, Word.from_string("baba"))
    assert not is_valid_word(2, Word.from_string("bbaa"))


def test_validity_examples_heavy():
    assert is_valid_word(2, Word.from_string("baaabb"))
    assert not is_valid_word(2, Word.from_string("bbbaaa"))
    assert is_valid_word(3, Word.from_string("bbaaaabb"))


def test_validity_rejects_malformed_words():
    with pytest.raises(ValueError):
        is_valid_word(2, Word.from_string("aab"))
    with pytest.raises(ValueError):
        is_valid_word(3, Word.from_string("aaabb"))
    with pytest.raises(ValueError):
        is_valid_word(2, Word(letters=(1, 3, 1, 3), profile=(2, 0, 2)))
    with pytest.raises(ValueError, match="outside"):
        is_valid_word(2, Word(letters=(1, 3, 1, 3), profile=(2, 2)))
    with pytest.raises(ValueError, match="do not match"):
        is_valid_word(2, Word(letters=(1, 2, 1, 1), profile=(2, 2)))


def test_count_words_spot_values():
    for d, table in C_VALUES.items():
        for (n, k), want in table.items():
            assert count_words(d, n, k) == want, (d, n, k)


def test_count_words_direct_spot_values():
    for d, table in C_VALUES.items():
        for (n, k), want in table.items():
            if n <= 3:
                assert count_words_direct(d, n, k) == want, (d, n, k)


# every class of d = 2..4 and n <= 4 except the four holding over 10^5
# words, whose streaming takes from 1.5 s, (3, 4, 3) with 102 999 words, to
# about 20 min, (4, 4, 4) with 94 597 041
LITERAL_CLASSES = [
    (d, n, k) for d in (2, 3, 4) for n in range(5) for k in range(n + 1)
    if (d, n, k) not in {(3, 4, 3), (3, 4, 4), (4, 4, 3), (4, 4, 4)}
]


@pytest.mark.parametrize("d, n, k", LITERAL_CLASSES)
def test_count_words_direct_counts_the_literal_words(d, n, k):
    assert count_words_direct(d, n, k) == sum(1 for _ in enumerate_words(d, n, k))


@pytest.mark.parametrize("d", range(2, 7))
def test_direct_row_equals_the_single_class_counts(d):
    # one _completions memo for all n + 1 classes of each n, n = 0 included
    for n in range(6):
        assert words._direct_row(d, n) == [count_words_direct(d, n, k) for k in range(n + 1)]


@pytest.mark.parametrize("call", [
    lambda: count_words_direct(3, 5, 2),
    lambda: words._direct_row(3, 5),
    lambda: list(enumerate_words(2, 3, 1)),
], ids=["count_words_direct", "_direct_row", "enumerate_words"])
def test_oracle_walks_leave_no_cycle(call):
    # each recursive walk takes itself as an argument, so its memo and
    # state are freed when the call returns, not at the next collection
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_ceiling_guard(monkeypatch):
    with pytest.raises(ValueError):
        list(enumerate_words(2, 6, 0))
    with pytest.raises(ValueError):
        count_words_direct(2, 6, 0)
    monkeypatch.setenv("TREECHILD_WORD_CEILING", "6")
    assert count_words_direct(2, 6, 0) == count_words(2, 6, 0)


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_enumeration_streams_each_valid_word_once(d, n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    seen = set()
    length = 2 * n + (d - 1) * k
    for w in enumerate_words(d, n, k):
        assert len(w.letters) == length
        assert is_valid_word(d, w)
        seen.add(w.letters)
    assert len(seen) == count_words(d, n, k)


def _window(k_max):
    """The strand window of a pass truncated at k_max; every strand when
    k_max is None."""
    return lambda n: (0, n if k_max is None else min(n, k_max))


def _nth_row(d, n, k_max):
    """Row n of a fresh pass truncated at k_max (every strand when None)."""
    return next(islice(words._word_rows(d, _window(k_max)), n - 1, None))


def _serial_rows(d, n_max):
    """Count rows 1..n_max of one serial pass straight from the kernel: the
    empty word, then the last cells of word rows 1..n_max-1."""
    return [[1]] + [[cells[-1] for cells in row] for row in islice(words._word_rows(d), n_max - 1)]


def _b_cells(d, n, k_max=None):
    """{(k, m): b(n, k, m)}: consecutive differences of the prefix sums of
    row n, _nth_row(d, n, k_max)."""
    return {
        (k, m): v
        for k, sums in enumerate(_nth_row(d, n, k_max))
        for m, v in enumerate(map(sub, sums, [0, *sums]), start=1)
    }


def test_btable_accessors():
    assert _b_cells(2, 1) == {(0, 1): 1, (1, 1): 1}  # no cell b(1, 0, 2)
    assert count_words(2, 0, 0) == 1
    with pytest.raises(ValueError):
        count_words(2, 0, 1)
    assert count_words(2, 3, 2) == 106
    assert sum(v for (k, _), v in _b_cells(2, 3).items() if k == 2) == 106


def test_btable_k_max_restriction():
    for n in range(1, 6):
        full = _b_cells(2, n)
        truncated = _b_cells(2, n, k_max=1)
        assert truncated == {(k, m): v for (k, m), v in full.items() if k <= 1}, n
        for k in range(min(n, 1) + 1):
            c = sum(v for (j, _), v in truncated.items() if j == k)
            assert c == count_words(2, n, k), (n, k)


def test_tc_spot_values():
    assert count_tc_words(Params(2, 8, 7)) == 8485564550400
    assert count_tc_words(Params(3, 7, 6)) == 560319972030000
    assert count_tc_words(Params(6, 5, 4)) == 483098464854720
    assert count_tc_words(Params(2, 1, 0)) == 1


def test_tc_table_matches_pointwise_counts():
    for d in range(2, 7):
        table = tc_table(d, 6)
        for n in range(1, 7):
            assert table[n] == [count_tc_words(Params(d, n, k)) for k in range(n)]
            assert tc_row(d, n) == table[n]
            assert count_tc_total(d, n) == sum(table[n])


def test_truncated_rows_match_closed_forms():
    # k = 1, 2 only advance the first rows' low-k cells, far past n <= 12
    for d in (2, 3):
        for n in (100, 200, 300, 500):
            k1, k2 = tc_k1_closed_form(d, n), tc_k2_closed_form(d, n)
            assert type(k1) is type(k2) is int, (d, n)
            assert count_tc_words(Params(d, n, 1)) == k1, (d, n)
            assert count_tc_words(Params(d, n, 2)) == k2, (d, n)


def _cold(d, n, k=None):
    """tc_row(d, n), or its entry k, from a fresh truncated pass."""
    if n == 1:
        return [1] if k is None else 1
    counts = _tc_counts(n, [cells[-1] for cells in _nth_row(d, n - 1, n - 1 if k is None else k)])
    return counts if k is None else counts[k]


@functools.cache
def _slice_table(d):
    return b_max_table_binomial(d, 79)


_REQUEST = st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(d), st.just(n), st.none() | st.integers(min_value=0, max_value=n - 1)
        )
    )
)


@settings(deadline=None, max_examples=40)
@given(st.lists(_REQUEST, min_size=1, max_size=8))
def test_warm_cache_answers_like_a_cold_pass(requests):
    _TC_ROWS.clear()
    for d, n, k in requests:
        if k is None:
            assert tc_row(d, n) == _cold(d, n), (d, n)
            assert count_tc_total(d, n) == sum(_cold(d, n)), (d, n)
        else:
            assert count_tc_words(Params(d, n, k)) == _cold(d, n, k), (d, n, k)


def test_cache_reaches_only_the_largest_n_asked_for():
    count_tc_words(Params(3, 30, 2))
    assert 3 not in _TC_ROWS  # a truncated pass leaves the cache alone
    tc_row(3, 12)
    tc_row(3, 7)
    assert len(_TC_ROWS[3][1]) == 12
    assert count_tc_words(Params(3, 12, 11)) == _cold(3, 12, 11)
    assert count_tc_words(Params(3, 13, 12)) == _cold(3, 13, 12)
    # one more row of the warm pass costs fewer cells than a private pass at
    # k = 12, so the call extends the cache
    assert len(_TC_ROWS[3][1]) == 13


@pytest.mark.parametrize("k_max", [None, 0, 1, 2, 5, 9])
def test_cell_count_matches_the_rows_yielded(k_max):
    for d in (2, 3):
        sizes = [sum(map(len, row)) for row in islice(words._word_rows(d, _window(k_max)), 12)]
        for start in range(12):
            for stop in range(13):  # an empty range, stop <= start, has no cells
                assert words._cells(start, stop, k_max) == sum(sizes[start:stop]), (start, stop)


@pytest.fixture
def cells_computed(monkeypatch):
    """A list that collects the cells of every word row computed from here on."""
    seen = []
    plain = words._word_rows

    def counted(*args):
        rows = plain(*args)
        row = next(rows)
        while True:
            seen.append(sum(map(len, row)))
            row = rows.send((yield row))

    monkeypatch.setattr(words, "_word_rows", counted)
    return seen


def _cone_cells(n, k):
    """Cells of count_words' pass for c(n, k): row j holds j cells for each
    strand max(0, k-n+j) <= k' <= min(j, k)."""
    return sum(j * (min(j, k) - max(0, k - n + j) + 1) for j in range(1, n + 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_count_words_matches_the_full_pass(d):
    for n, counts in enumerate(_serial_rows(d, 41)):
        assert [count_words(d, n, k) for k in range(n + 1)] == counts, n


@pytest.mark.parametrize("d", [2, 3])
def test_count_words_computes_only_its_cone(d, cells_computed):
    for n in range(16):
        for k in range(n + 1):
            cells_computed.clear()
            count_words(d, n, k)
            assert sum(cells_computed) == _cone_cells(n, k), (n, k)


def test_cold_low_k_call_leaves_the_cache_alone(cells_computed):
    assert count_tc_words(Params(2, 200, 1)) == tc_k1_closed_form(2, 200)
    assert _TC_ROWS == {}
    assert sum(cells_computed) == _cone_cells(199, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_cold_call_starts_the_pass_only_when_it_costs_no_more(d, cells_computed):
    for n in range(2, 16):
        for k in range(n):
            _TC_ROWS.clear()
            cells_computed.clear()
            trunc = words._cells(0, n - 1, k)
            starts = words._cells(0, n - 1) <= trunc
            got = count_tc_words(Params(d, n, k))
            assert sum(cells_computed) <= trunc, (n, k)
            assert (d in _TC_ROWS) == starts, (n, k)
            assert got == _cold(d, n, k), (n, k)


@pytest.mark.parametrize("d", [2, 3])
def test_warm_call_extends_the_pass_only_within_twice_its_cells(d, cells_computed):
    outcomes = set()
    for reached in (3, 10, 20):
        for n in range(2, 26):
            for k in range(0, n, 4):
                _TC_ROWS.clear()
                tc_row(d, reached)
                cells_computed.clear()
                trunc = words._cells(0, n - 1, k)
                extends = words._cells(reached - 1, n - 1) <= 2 * trunc
                got = count_tc_words(Params(d, n, k))
                assert sum(cells_computed) <= 2 * trunc, (reached, n, k)
                assert len(_TC_ROWS[d][1]) == (max(n, reached) if extends else reached)
                assert got == _cold(d, n, k), (reached, n, k)
                outcomes.add(extends and n > reached)
    assert outcomes == {True, False}  # both routes were taken


def test_rejected_arguments_leave_a_warm_cache_alone():
    tc_row(2, 10)
    for d, n in ((2, 12.5), (2, True), (True, 12), (2.0, 12), (1, 12), (2, 0), (2, -3)):
        for call in (tc_row, count_tc_total, tc_table):
            with pytest.raises(ValueError):
                call(d, n)
        assert len(_TC_ROWS[2][1]) == 10, (d, n)
    assert tc_row(2, 10) == _cold(2, 10)


def test_mutating_a_returned_row_leaves_the_cache_intact():
    row = tc_row(2, 10)
    row[0] = -1
    row.append(5)
    assert tc_row(2, 10) == _cold(2, 10)
    assert count_tc_words(Params(2, 10, 0)) == _cold(2, 10, 0)
    assert count_tc_total(2, 10) == sum(_cold(2, 10))


def test_threads_sharing_the_cache_get_cold_values():
    plan = [(d, n) for n in range(1, 31) for d in (2, 3)]
    want = {(d, n): (_cold(d, n), sum(_slice_table(d)[(n, m)] for m in range(1, n + 1)))
            for d, n in plan}
    start = threading.Barrier(4)
    answers: list = []
    errors: list = []

    def ask(shift):
        start.wait()
        # each thread walks the plan from its own offset, interleaving n,
        # across both caches
        asked = plan[shift::4] + plan[::-7]
        try:
            answers.extend(
                ((d, n), (tc_row(d, n), words._slice_sum(d, n)))
                for d, n in asked
            )
        except Exception as exc:  # surfaced below; a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so races would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(answers) == len(plan) + 4 * len(plan[::-7])
    for cell, row in answers:
        assert row == want[cell], cell


def test_failed_advance_drops_the_pass(monkeypatch):
    plain = words._split_count_rows

    def failing(d, n_max, rest):
        # count row j + 2 comes first after the word row j that rest holds
        for n, counts in enumerate(plain(d, n_max, rest), start=rest[0][0] + 2 if rest else 1):
            if n == 7:
                raise ExactnessError("injected failure at row 7")
            yield counts

    monkeypatch.setattr(words, "_split_count_rows", failing)
    tc_row(2, 5)
    with pytest.raises(ExactnessError):
        tc_row(2, 9)
    assert 2 not in _TC_ROWS
    monkeypatch.undo()
    assert tc_row(2, 9) == _cold(2, 9)


def test_a_blocked_slice_pass_blocks_no_word_row(monkeypatch):
    tc_row(2, 5)
    entered, release = threading.Event(), threading.Event()
    plain = words._slice_sums

    def blocked(d, n, rest):
        entered.set()
        release.wait(timeout=60)
        yield from plain(d, n, rest)

    monkeypatch.setattr(words, "_slice_sums", blocked)
    slow = threading.Thread(target=words._slice_sum, args=(2, 10))
    got: list = []
    quick = threading.Thread(target=lambda: got.append(tc_row(2, 6)))
    slow.start()
    try:
        assert entered.wait(timeout=60)
        quick.start()
        quick.join(timeout=10)  # the slice pass still holds its own lock
        assert not quick.is_alive()
        assert got == [_cold(2, 6)]
    finally:
        release.set()
        slow.join(timeout=60)
        quick.join(timeout=60)
    assert not slow.is_alive()


def test_a_call_waiting_on_a_failing_pass_starts_a_new_one(monkeypatch):
    entered, release = threading.Event(), threading.Event()
    plain = words._split_count_rows

    def failing(d, n_max, rest):
        yield from islice(plain(d, n_max, rest), 4)
        entered.set()
        release.wait(timeout=60)
        raise ExactnessError("injected failure at row 5")

    monkeypatch.setattr(words, "_split_count_rows", failing)
    outcomes: list = []

    def ask(n):
        try:
            outcomes.append((n, tc_row(2, n)))
        except ExactnessError as exc:
            outcomes.append((n, exc))

    first = threading.Thread(target=ask, args=(8,))
    waiting = threading.Thread(target=ask, args=(9,))
    first.start()
    try:
        assert entered.wait(timeout=60)
        monkeypatch.setattr(words, "_split_count_rows", plain)
        waiting.start()
        waiting.join(timeout=0.2)  # time to queue on the failing pass's lock
    finally:
        release.set()
        first.join(timeout=60)
        waiting.join(timeout=60)
    assert not first.is_alive() and not waiting.is_alive()
    assert isinstance(dict(outcomes)[8], ExactnessError)
    # the dropped pass is finished, so the waiting call starts a new one
    assert dict(outcomes)[9] == _cold(2, 9)
    assert len(_TC_ROWS[2][1]) == 9


def test_failed_conversion_keeps_the_pass(monkeypatch):
    # the shift checks each converted cell outside the pass, so the word
    # counts it produced stay cached
    tc_row(2, 5)
    monkeypatch.setattr(words, "factorial", lambda n: factorial(n) + 1)
    with pytest.raises(ExactnessError, match="^division of a"):
        tc_row(2, 9)
    assert len(_TC_ROWS[2][1]) == 9
    monkeypatch.undo()
    assert tc_row(2, 9) == _cold(2, 9)


def test_general_ceiling_holds_after_a_warm_cache():
    tc_row(2, 100)
    with pytest.raises(
        ValueError,
        match=r"^n = 26 exceeds the GENERAL ceiling 25 \(set TREECHILD_GENERAL_CEILING to raise it\)$",
    ):
        ret_pmf("general", 2, 26)


def test_all_heavy_slice_three_routes_agree():
    for d in (2, 3, 4):
        two_term = b_max_table(d, 10)
        assert two_term == b_max_table_binomial(d, 10)
    for d in (2, 3, 4, 5):
        binomial = b_max_table_binomial(d, 30)
        two_term = b_max_table(d, 30)
        assert two_term == binomial, d
        assert all(type(v) is int for v in two_term.values()), d
        diagonal = {
            (n, m): v
            for n in range(1, 31)
            for (k, m), v in _b_cells(d, n).items()
            if k == n
        }
        assert diagonal == binomial, d
    # at a large d the single division of each cell is by dn+m-d-1 >= 100
    two_term = b_max_table(100, 20)
    assert two_term == b_max_table_binomial(100, 20)
    assert all(type(v) is int for v in two_term.values())


def test_top_column_of_the_shared_pass_matches_the_slice():
    # TC(n + 1, n) = (n + 1)! * c(n, n), and c(n, n) sums the all-heavy slice
    for d in range(2, 6):
        slice_ = b_max_table_binomial(d, 60)
        for n in range(1, 61):
            want = factorial(n + 1) * sum(slice_[(n, m)] for m in range(1, n + 1))
            assert tc_row(d, n + 1)[n] == want, (d, n)


_SLICE_REQUEST = st.tuples(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=80))


@settings(deadline=None, max_examples=40)
@given(st.lists(_SLICE_REQUEST, min_size=1, max_size=8))
def test_cached_slice_sums_answer_like_a_recomputed_slice(requests):
    # TC(n, n - 1) = n! * c(n - 1, n - 1), in any order of requests
    _SLICE_SUMS.clear()
    top: dict = {}
    for d, n in requests:
        got = factorial(n) * words._slice_sum(d, n - 1)
        want = factorial(n) * sum(_slice_table(d)[(n - 1, m)] for m in range(1, n))
        assert got == want, (d, n)
        if n <= 30:
            assert got == tc_row(d, n)[-1], (d, n)
        top[d] = max(top.get(d, 0), n - 1)
        assert len(_SLICE_SUMS[d][1]) == top[d], (d, n)  # rolled only as far as asked


def _slice_cells(d, n_max):
    """Rows 1..n_max of the all-heavy slice, [b(n, 1), ..., b(n, n)], the
    differences of the prefix sums of the slice window k = n."""
    rows = islice(words._word_rows(d, lambda n: (n, n)), n_max)
    return [list(map(sub, sums, [0] + sums)) for (sums,) in rows]


@pytest.mark.parametrize("d", [2, 3, 7, 50])
def test_slice_rows_compute_each_binomial_once(d, monkeypatch):
    # the slice pass makes binom(a, d - 1) by comb or by the roll from
    # binom(a - 1, d - 1), which divides by a - d + 1
    made = []

    def counted_comb(a, r):
        made.append(a)
        return comb(a, r)

    def counted_div(num, den):
        made.append(den + d - 1)
        return exact_div(num, den)

    monkeypatch.setattr(words, "comb", counted_comb)
    monkeypatch.setattr(words, "exact_div", counted_div)
    rows = _slice_cells(d, 30)
    read = {m + n * d - 2 for n in range(2, 31) for m in range(1, n + 1)}
    assert sorted(made) == sorted(read)  # every a read, none twice, no other
    monkeypatch.undo()
    two_term = b_max_table(d, 30)
    assert rows == [[two_term[(n, m)] for m in range(1, n + 1)] for n in range(1, 31)]


@pytest.mark.parametrize("window", [
    lambda n: (0, n), lambda n: (n, n), lambda n: (max(0, n - 2), n),
], ids=["full", "slice", "band"])
@pytest.mark.parametrize("d", [2, 3, 50])
def test_a_resumed_pass_gives_the_rows_of_an_unbroken_one(d, window):
    # it resumes from every strand of word row j and keeps its window's
    whole = list(islice(words._word_rows(d), 30))
    unbroken = list(islice(words._word_rows(d, window), 30))
    for j in (1, 2, 9, 29):
        resumed = words._word_rows(d, window, (j, whole[j - 1]))
        assert list(islice(resumed, 30 - j)) == unbroken[j:], j
    assert whole == list(islice(words._word_rows(d), 30))  # and leaves that row alone


@pytest.mark.parametrize("d", [2, 3, 50])
def test_a_resumed_pass_computes_each_binomial_once(d, monkeypatch):
    # row 21 after a resume computes every binomial its strands read, the
    # windows [w, w + n) of strands k >= 1 with w = n - 1 + k(d - 1), once
    start = (20, next(islice(words._word_rows(d), 19, None)))
    made = []

    def counted_comb(a, r):
        made.append(a)
        return comb(a, r)

    def counted_div(num, den):
        made.append(den + d - 1)
        return exact_div(num, den)

    monkeypatch.setattr(words, "comb", counted_comb)
    monkeypatch.setattr(words, "exact_div", counted_div)
    deque(islice(words._word_rows(d, start=start), 10), maxlen=0)  # rows 21..30
    read = {n - 1 + k * (d - 1) + i
            for n in range(21, 31) for k in range(1, n + 1) for i in range(n)}
    assert sorted(made) == sorted(read)


@pytest.mark.parametrize("band", [0, 1, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_a_band_pass_yields_the_top_strands_of_the_full_pass(d, band):
    full = islice(words._word_rows(d), 40)
    banded = words._word_rows(d, lambda n: (max(0, n - band), n))
    for n, (row, top) in enumerate(zip(full, banded), start=1):
        assert top == row[max(0, n - band):], (n, band)


@pytest.mark.parametrize("d, n_max", [
    (2, 80), (3, 80), (4, 80), (5, 80), (7, 30), (50, 30), (100, 30),
])
def test_band_zero_matches_the_two_term_slice(d, n_max):
    # the rows' binomial windows [nd - 1, nd + n - 2] overlap from n = d + 1
    # on: at d = 7 from n = 8, at d = 50 and 100 not up to n = 30, so there
    # each row starts its window afresh
    two_term = b_max_table(d, n_max)
    rows = _slice_cells(d, n_max)
    assert rows == [[two_term[(n, m)] for m in range(1, n + 1)] for n in range(1, n_max + 1)]


@pytest.mark.parametrize("d", [100, 1000, 10000])
def test_large_d_cell_matches_the_two_term_slice(d):
    # TC(4, 3) = 4! * c(3, 3) / 2^0, and c(3, 3) sums the all-heavy slice at n = 3
    slice_ = b_max_table(d, 3)
    assert count_tc_words(Params(d, 4, 3)) == factorial(4) * sum(slice_[(3, m)] for m in (1, 2, 3))


@pytest.mark.parametrize("k_max", [None, 0, 1, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_yielded_rows_are_never_mutated(d, k_max):
    for n in range(1, 9):
        rows = words._word_rows(d, _window(k_max))
        held = next(islice(rows, n - 1, None))
        next(rows)  # drawing row n + 1 must leave row n as it was
        assert held == _nth_row(d, n, k_max), (n, k_max)


@pytest.mark.parametrize("k_max", [None, 0, 1, 3])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rows_held_from_one_pass_match_fresh_passes(d, k_max):
    # every row of one pass held at once, as strands are replaced in place
    held = list(islice(words._word_rows(d, _window(k_max)), 12))
    for n, row in enumerate(held, start=1):
        assert row == _nth_row(d, n, k_max), (n, k_max)


def _traced(call):
    """(bytes still traced when call() returns, its result held; the
    tracemalloc peak during the call)."""
    tracemalloc.start()
    try:
        kept = call()  # noqa: F841 -- held while the bytes are read
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d, k_max, n, bound", [
    # count rows 1..120 come from word rows up to 119 (1.02x)
    (2, None, 120, 1.3),
    # 11 strands: the old top strand and the one below it, alive while the
    # top strand is rebuilt, and the binomials add about 0.4 of a row (1.38x)
    (3, 10, 60, 1.5),
])
def test_a_pass_holds_about_one_row(d, k_max, n, bound, monkeypatch):
    # a pass that keeps the whole previous row until the next is done peaks
    # at about twice the row (1.98x and 2.10x)
    if k_max is None:
        monkeypatch.setattr(words, "SPLIT_CELLS", words._cells(0, n))  # the serial pass
        largest, _ = _traced(lambda: _nth_row(d, n - 1, k_max))
        _, peak = _traced(lambda: deque(words._split_count_rows(d, n, [], False), maxlen=0))
    else:
        largest, _ = _traced(lambda: _nth_row(d, n, k_max))
        _, peak = _traced(lambda: deque(islice(words._word_rows(d, _window(k_max)), n), maxlen=0))
    assert peak < bound * largest, (peak, largest)


def _lists_reached(value):
    """The lists reachable from value through lists, tuples and iterators."""
    seen, stack, found = set(), [value], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, list):
            found.append(obj)
        if isinstance(obj, (list, tuple, map, type(iter([])))):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("d, k_max", [(2, None), (3, 10), (3, 1), (2, 0)])
def test_a_resting_pass_holds_no_old_strand(d, k_max):
    rows = words._word_rows(d, _window(k_max))
    for n in range(1, 13):
        next(rows)
        # the suspended pass binds its strands through `row` only: a name
        # left from the last step would keep an old strand alive at rest
        at_rest = inspect.getgeneratorlocals(rows)
        strands = at_rest["row"]
        for name, value in at_rest.items():
            if name in ("row", "binoms"):
                continue
            for held in _lists_reached(value):
                assert any(held is s for s in strands), (n, name)


def _serial_table(d, n_max):
    rows = zip(range(1, n_max + 1), _serial_rows(d, n_max))
    return {n: _tc_counts(n, counts) for n, counts in rows}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children forked from here on, on a machine taken to
    have two CPUs, so that a long pass splits whatever CPUs this one has.  A
    call still blocked after 60 s raises TimeoutError instead of hanging."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def expired(signum, frame):
        raise TimeoutError("the split pass did not end")

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _rises_and_stays(n_max):
    """The word rows of a split pass of n_max count rows after which K
    rises, and those after which it stays."""
    rows = range(1, n_max - 1)
    return [n for n in rows if words._hands_down(n, n_max)], [
        n for n in rows if not words._hands_down(n, n_max)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_split_rows_match_the_serial_pass(d, forked, monkeypatch):
    rises, stays = _rises_and_stays(80)
    assert rises and stays
    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    for n_max in (2, 5, 30, 80):
        assert list(words._split_count_rows(d, n_max, [], False)) == _serial_rows(d, n_max), n_max
    # count rows 1 and 2 are the pass's start, not a pass, and come both
    assert list(words._split_count_rows(d, 1, [], False)) == _serial_rows(d, 2)
    assert len(forked) == 3
    _no_child_left()


def test_a_strand_handed_to_the_child_gets_its_whole_binomial_window(forked, monkeypatch):
    # at d = 50 the binomial windows of neighbouring strands do not overlap,
    # so nothing the child computed covers a strand this process hands it
    rises, _ = _rises_and_stays(30)
    assert rises
    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    assert list(words._split_count_rows(50, 30, [], False)) == _serial_rows(50, 30)
    assert len(forked) == 1
    _no_child_left()


@pytest.mark.parametrize("d, threshold, plans", [
    # each plan: tc_row calls from a cold cache.  The first plan splits
    # cold, then warm after a split, then stays serial for one row; the
    # second stays serial cold, splits warm, then stays serial again
    *((d, 2500, ((20, 40, 41), (5, 45, 46))) for d in (2, 3, 4, 5)),
    # at d = 50 the strands' binomial windows do not overlap, so the first
    # row after a resting row computes each window whole
    (50, 700, ((15, 25, 26), (3, 25, 26))),
])
def test_split_cache_advances_give_the_serial_rows(d, threshold, plans, forked, monkeypatch):
    monkeypatch.setattr(words, "SPLIT_CELLS", threshold)
    want = _serial_rows(d, max(map(max, plans)))
    splits = 0
    for plan in plans:
        _TC_ROWS.clear()
        routes = []
        for n in plan:
            reached = len(_TC_ROWS[d][1]) if d in _TC_ROWS else 0
            routes.append(words._cells(max(reached - 1, 1), n - 1) >= threshold)
            assert tc_row(d, n) == _tc_counts(n, want[n - 1]), (plan, n)
            assert _TC_ROWS[d][1] == want[:n], (plan, n)
            # the advance rests on the serial pass's word row n - 1, whole
            assert _TC_ROWS[d][0] == [(n - 1, _nth_row(d, n - 1, None))], (plan, n)
            _no_child_left()
        assert set(routes) == {True, False}, plan
        splits += sum(routes)
    assert len(forked) == splits  # one fork a split advance


def _trace_no_child(monkeypatch):
    """Stop tracemalloc in every child forked from here on: its memory is
    not this process's, and tracing it would slow it."""
    fork = os.fork

    def untraced_child():
        pid = fork()
        if pid == 0:
            tracemalloc.stop()
        return pid

    monkeypatch.setattr(os, "fork", untraced_child)


def test_a_split_cache_advance_holds_about_one_row(forked, monkeypatch):
    # a cold split advance to row 100, then a split advance to 120 at d = 2
    # (244 200 cells).  Beyond what they leave (the cache's rows, its
    # resting word row 119 and the returned row), they peak at 0.01 of word
    # row 119 here, the child's strands coming back one at a time.  Handing
    # them back in one frame peaks at 0.32, and keeping the resting row 99
    # through the advance at 0.59
    _trace_no_child(monkeypatch)
    row, _ = _traced(lambda: _nth_row(2, 119, None))
    kept, peak = _traced(lambda: tc_row(2, 100) and tc_row(2, 120))
    assert peak < kept + 0.1 * row, (peak, kept, row)
    assert len(forked) == 2
    _no_child_left()


def test_a_large_split_table_ends(forked):
    # frames and handed strands outgrow a 64 KiB pipe buffer near n = 200,
    # so a side that wrote before it read would block the other for good
    assert tc_table(2, 200) == _serial_table(2, 200)
    assert len(forked) == 1
    _no_child_left()


def test_a_split_table_holds_no_row_across_the_next_build(forked, monkeypatch):
    # 8.5 MiB, most of it the table; a pass here that holds each yielded
    # row while the next is built peaks at 12.2 MiB
    _trace_no_child(monkeypatch)
    _, peak = _traced(lambda: tc_table(2, 200))
    assert peak <= 10.0 * 2**20, peak
    assert len(forked) == 1
    _no_child_left()


def test_tables_split_from_the_threshold_on(forked):
    below = max(n for n in range(1, 300) if words._cells(0, n - 1) < words.SPLIT_CELLS)
    for n_max in (below, below + 1):
        assert tc_table(2, n_max) == _serial_table(2, n_max), n_max
    assert len(forked) == 1  # the table at the threshold, not the one below it
    _no_child_left()


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("serial_because",
                         ["one CPU", "no fork", "a failed fork", "a second thread"])
def test_tables_stay_serial_without_two_cpus_fork_or_a_lone_thread(
        serial_because, forked, monkeypatch):
    # neither the split pass, a table's or a cache advance, nor the table
    # formatter forks
    argv = ["table", "otc", "--d", "2", "--n-max", "30", "--format", "csv"]
    formatted = _table(argv)
    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    monkeypatch.setattr(cli, "FORMAT_BITS", 0)
    if serial_because == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif serial_because == "no fork":
        monkeypatch.delattr(os, "fork")
    elif serial_because == "a failed fork":
        monkeypatch.setattr(os, "fork", _fork_fails)
    release = threading.Event()
    waiting = threading.Thread(target=release.wait, args=(60,))
    if serial_because == "a second thread":
        waiting.start()
    try:
        assert tc_table(3, 30) == _serial_table(3, 30)
        assert _table(argv) == formatted
        assert tc_row(3, 30) == _serial_table(3, 30)[30]  # a cold cache advance
    finally:
        release.set()
        if waiting.is_alive():
            waiting.join(timeout=60)
    assert forked == []


def test_a_split_table_writes_the_serial_bytes(forked, monkeypatch):
    argv = ["table", "tc", "--d", "2", "--n-max", "40", "--format", "csv"]
    serial, split = io.StringIO(), io.StringIO()
    assert cli.run(argv, out=serial) == 0
    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    assert cli.run(argv, out=split) == 0
    assert split.getvalue() == serial.getvalue()
    assert len(forked) == 1
    _no_child_left()


def test_a_failure_in_this_process_kills_the_child(forked, monkeypatch, capsys):
    plain = words._tc_counts

    def failing(n, counts, lo=0):
        if n == 20:
            raise ExactnessError("injected failure at row 20")
        return plain(n, counts, lo)

    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    monkeypatch.setattr(words, "_tc_counts", failing)
    assert cli.run(["table", "tc", "--d", "2", "--n-max", "60"], out=io.StringIO()) == 1
    assert capsys.readouterr().err == "verification failure: injected failure at row 20\n"
    _no_child_left()
    with pytest.raises(ExactnessError) as failure:
        tc_table(2, 60)
    # reaped while the traceback, and with it the pass, is still held
    _no_child_left()
    assert "row 20" in str(failure.value)
    assert len(forked) == 2


def _raise(error):
    raise error


@pytest.mark.parametrize("fail, code, message", [
    (lambda: _raise(MemoryError()), 2,
     "error: out of memory (tc_table's child process: MemoryError)\n"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), 2,
     f"error: out of memory (tc_table's child process: killed by signal {int(signal.SIGKILL)})\n"),
    (lambda: _raise(ValueError("injected")), 1,
     "verification failure: tc_table's child process failed at word row 10: ValueError\n"),
])
def test_a_failed_child_ends_the_table_with_an_error(fail, code, message, forked, monkeypatch,
                                                       capsys):
    # the child fails building word row 10, then on a second table taking
    # the strand handed down after row 9, where K rises; there this process
    # writes the strand only once the child has ended, into a closed pipe
    assert words._hands_down(9, 60)
    parent, plain_rows, plain_send, plain_receive = (
        os.getpid(), words._word_rows, words._send, words._receive)
    handed, broken = [], []

    def failing(rows):
        sent = None
        for n in range(2, 10):  # the pass resumes from word row 1
            sent = yield rows.send(sent)
        fail()

    def rows(d, window, start=None):
        rows = plain_rows(d, window, start)
        return rows if os.getpid() == parent else failing(rows)

    earlier = [n for n in range(1, 9) if words._hands_down(n, 60)]  # handovers before row 9's

    def receive(pipe):
        if os.getpid() == parent or earlier and earlier.pop():
            return plain_receive(pipe)
        return fail()

    def send(fd, value):
        if os.getpid() == parent:
            handed.append(fd)
            if len(handed) > len(earlier):
                os.waitid(os.P_PID, forked[-1], os.WEXITED | os.WNOWAIT)
            try:
                plain_send(fd, value)
            except BrokenPipeError:
                broken.append(fd)
                raise
        else:
            plain_send(fd, value)

    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    argv = ["table", "tc", "--d", "2", "--n-max", "60"]
    for fake in ({"_word_rows": rows}, {"_receive": receive, "_send": send}):
        with monkeypatch.context() as patched:
            for name, value in fake.items():
                patched.setattr(words, name, value)
            assert cli.run(argv, out=io.StringIO()) == code
        assert capsys.readouterr().err == message
        _no_child_left()
    assert len(forked) == 2
    assert len(broken) == 1  # the handover write met the closed pipe, and no traceback escaped


@pytest.mark.parametrize("fail, error", [
    (lambda: _raise(MemoryError()), MemoryError),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), MemoryError),
    (lambda: _raise(ValueError("injected")), ExactnessError),
])
def test_a_failed_child_ends_the_cache_advance(fail, error, forked, monkeypatch):
    # the child fails building word row 25 in a split advance from the row
    # 19 the cache rests on to row 39: the call ends in the error, d's rows
    # are dropped and the next call starts over
    parent, plain = os.getpid(), words._word_rows

    def failing(rows):
        sent = None
        for _ in range(20, 25):
            sent = yield rows.send(sent)
        fail()

    def rows(d, window, start=None):
        rows = plain(d, window, start)
        return rows if os.getpid() == parent else failing(rows)

    tc_row(2, 20)
    monkeypatch.setattr(words, "SPLIT_CELLS", 0)
    with monkeypatch.context() as patched:
        patched.setattr(words, "_word_rows", rows)
        with pytest.raises(error, match="tc_row's child process"):
            tc_row(2, 40)
    assert 2 not in _TC_ROWS
    _no_child_left()
    assert tc_row(2, 40) == _cold(2, 40)
    assert len(forked) == 2
    _no_child_left()


def _table(argv):
    """(exit code, stdout) of one CLI call."""
    out = io.StringIO()
    return cli.run(argv, out=out), out.getvalue()


def _table_bits(target, d, n_max):
    """The rows' total bit_length, which cli.FORMAT_BITS is compared with."""
    rows = tc_table(d, n_max).values() if target == "tc" else [
        cli.otc_row(d, n) for n in range(1, n_max + 1)]
    return sum(v.bit_length() for values in rows for v in values)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("target", ["tc", "otc"])
def test_tables_formatted_on_two_processes_write_the_serial_bytes(target, fmt, forked,
                                                                   monkeypatch):
    # the threshold is lowered to the size of the n_max = 30 table, so the
    # table below it is written here alone and the one at it on two processes
    serial = {n_max: _table(["table", target, "--d", "2", "--n-max", str(n_max),
                             "--format", fmt]) for n_max in (29, 30)}
    assert forked == []
    monkeypatch.setattr(cli, "FORMAT_BITS", _table_bits(target, 2, 30))
    assert _table_bits(target, 2, 29) < cli.FORMAT_BITS
    for n_max, want in serial.items():
        got = _table(["table", target, "--d", "2", "--n-max", str(n_max), "--format", fmt])
        assert got == want, n_max
    assert len(forked) == 1  # the table at the threshold, not the one below it
    _no_child_left()


def test_large_query_mix_tables_format_on_one_process(forked):
    # the benchmark's short calls stop at n_max = 20
    for target in ("tc", "otc"):
        assert _table(["table", target, "--d", "5", "--n-max", "20"])[0] == 0
    assert forked == []


def test_a_cell_the_formatter_writes_is_the_cell_tc_table_returned(forked, monkeypatch):
    # the formatter forks after tc_table returns, so a cell changed in the
    # returned table (as perfbench's self-test does) is the cell written
    plain = words.tc_table

    def corrupted(d, n_max):
        table = plain(d, n_max)
        table[n_max][3] += 1
        return table

    argv = ["table", "tc", "--d", "2", "--n-max", "30"]
    want = json.loads(_table(argv)[1].splitlines()[-1])["results"]["counts"]
    monkeypatch.setattr(cli, "FORMAT_BITS", 0)
    monkeypatch.setattr(words, "tc_table", corrupted)
    code, out = _table(argv)
    assert code == 0 and len(forked) == 1
    got = json.loads(out.splitlines()[-1])["results"]["counts"]
    assert got[3] == str(int(want[3]) + 1)
    assert got[:3] + got[4:] == want[:3] + want[4:]
    _no_child_left()


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("when, fail, code, message", [
    ("formatting", lambda: _raise(MemoryError()), 2,
     "error: out of memory (table's formatter process: MemoryError)\n"),
    ("formatting", _kill_self, 2,
     f"error: out of memory (table's formatter process: killed by signal {int(signal.SIGKILL)})\n"),
    ("formatting", lambda: _raise(ValueError("injected")), 1,
     "verification failure: table's formatter process failed: ValueError\n"),
    ("sending", _kill_self, 2,
     f"error: out of memory (table's formatter process: killed by signal {int(signal.SIGKILL)})\n"),
    ("ending", None, 1,
     "verification failure: table's formatter process failed: exit status 0\n"),
])
def test_a_failed_formatter_ends_the_table_with_an_error(when, fail, code, message, forked,
                                                          monkeypatch, capsys):
    # the child fails while it formats its rows, is killed once half its
    # first frame has crossed the pipe, or ends cleanly without sending its
    # text; stdout then holds the rows this process wrote, as a frame cut
    # short writes nothing
    argv = ["table", "tc", "--d", "2", "--n-max", "40"]
    serial = _table(argv)[1]
    parent, plain_count, plain_write, plain_rows = (
        os.getpid(), cli._count, words._write_all, cli._write_rows)
    mine = []

    def count(v):
        if os.getpid() != parent:
            fail()
        return plain_count(v)

    def write_all(fd, data):
        if os.getpid() != parent and len(data) > 1000:  # a frame of the text, not the empty one
            plain_write(fd, data[: len(data) // 2])
            fail()
        plain_write(fd, data)

    def write_rows(args, method, rows, out):
        if os.getpid() == parent:
            rows = list(rows)
            mine.extend(rows)
        plain_rows(args, method, rows, out)

    monkeypatch.setattr(cli, "FORMAT_BITS", 0)
    monkeypatch.setattr(cli, "_write_rows", write_rows)
    if when == "formatting":
        monkeypatch.setattr(cli, "_count", count)
    elif when == "sending":
        monkeypatch.setattr(words, "_write_all", write_all)
    else:
        monkeypatch.setattr(cli, "_send_text", lambda *args: ())
    got, out = _table(argv)
    assert (got, capsys.readouterr().err) == (code, message)
    assert serial.startswith(out) and 0 < len(out) < len(serial)
    assert out == "".join(serial.splitlines(keepends=True)[: len(mine)])
    assert len(forked) == 1
    _no_child_left()


def test_the_formatter_writes_nothing_to_stderr():
    # a buffer export still alive when the formatter's text was finalized
    # made Python 3.13 print "Exception ignored ... BufferError" on every
    # call that forked the formatter, with exit 0 and the right stdout; and
    # a child that left the file it is handed unclosed printed "Exception
    # ignored ... ResourceWarning: unclosed file" under -W error, which a
    # child whose work returns at once shows every time, as receive reaps it
    # with a blocking wait
    table = "\n".join([
        "import os, sys",
        "from treechild import cli",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "cli.FORMAT_BITS = 0",
        "forks, fork = [], os.fork",
        "os.fork = lambda: forks.append(1) or fork()",
        "code = cli.run(['table', 'tc', '--d', '2', '--n-max', '30'])",
        "sys.exit(code or 3 * (forks != [1]))",
    ])
    returns_at_once = "\n".join([
        "import os",
        "from treechild import words",
        "from treechild.params import ExactnessError",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "with words._forked('probe', lambda handed: ()) as child:",
        "    try:",
        "        child.receive()",
        "    except ExactnessError as failed:",
        "        print(failed)",
    ])
    src = os.path.dirname(os.path.dirname(words.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    want = {
        table: _table(["table", "tc", "--d", "2", "--n-max", "30"])[1],
        returns_at_once: "probe failed: exit status 0\n",
    }
    for script, stdout in want.items():
        proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, ""), script
        assert proc.stdout == stdout, script


def test_a_failure_in_this_process_kills_the_formatter(forked, monkeypatch, capsys):
    parent, plain = os.getpid(), cli._count

    def count(v):
        if os.getpid() == parent and v == 42:  # TC(3, 2) at d = 2, in a row this process writes
            raise ExactnessError("injected failure in row 3")
        return plain(v)

    monkeypatch.setattr(cli, "FORMAT_BITS", 0)
    monkeypatch.setattr(cli, "_count", count)
    assert _table(["table", "tc", "--d", "2", "--n-max", "40"])[0] == 1
    assert capsys.readouterr().err == "verification failure: injected failure in row 3\n"
    assert len(forked) == 1
    _no_child_left()


def test_lambda_factor_values():
    assert lambda_factor(2) == 3
    assert lambda_factor(3) == 8
    assert lambda_factor(4) == Fraction(125, 6)
    with pytest.raises(ValueError):
        lambda_factor(1)


def test_e_table_boundary_and_scaling():
    for d in (2, 3):
        table = e_table(d, 6)
        assert isinstance(table, ETable)
        lam = lambda_factor(d)
        assert table.e(2, 0) == 1 / lam
        assert table.e(2, 2) == 0
        assert table.e(3, -1) == 0
        assert table.e(3, 0) == 0  # parity
        b = b_max_table(d, 6)
        want = Fraction(b[(2, 2)]) / (lam**2 * factorial(2) ** (d - 1))
        assert table.e(4, 0) == want
        assert table.as_float(4, 0) == float(want)
        with pytest.raises(ValueError):
            table.e(14, 0)


def test_e_table_refuses_a_slice_that_breaks_its_recurrence(monkeypatch):
    corrupted = dict(b_max_table_binomial(2, 4))
    corrupted[(2, 2)] += 1
    monkeypatch.setattr(words, "b_max_table_binomial", lambda d, n_max: corrupted)
    with pytest.raises(ExactnessError, match="N=4, M=0"):
        e_table(2, 4)


def test_word_class_argument_validation():
    with pytest.raises(ValueError):
        count_words(1, 3, 0)
    with pytest.raises(ValueError):
        count_words(2, 3, 4)
    with pytest.raises(ValueError):
        count_words_direct(2, 3, 4)
    with pytest.raises(ValueError):
        count_words(2, -1, 0)
    assert count_words(2, 0, 0) == 1
