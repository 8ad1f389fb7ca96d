"""Word encoding of general d-combining tree-child networks.

A network with n leaves and k reticulation nodes is encoded, up to leaf
relabeling and a power-of-two symmetry factor, by a word over n-1 letters in
which k letters occur d+1 times (heavy letters, one per reticulation node)
and the remaining n-1-k letters occur twice.  A word is valid when a prefix
dominance condition holds: scanning left to right, once a letter has been
seen more than d-2 times (with the twist that a 2-occurrence letter's
appearances count as its (d-1)st, dth and (d+1)st), every later letter of
the alphabet must have been seen at most as often.

Counting valid words is done three ways, which the test suite plays against
each other:

  count_words_direct  exhaustive evaluation of the definition, memoized on
                      prefix effective-count vectors (the slow,
                      assumption-free oracle)
  count_words         a three-index recurrence b(n, k, m), where m tracks
                      how many letters currently sit at the top occurrence
                      level, summed over m
  enumerate_words     literal generation of the words themselves

The network count follows as count_tc_words(d, n, k)
= n! * c(n-1, k) / 2^(n-k-1) with c(n, k) = sum_m b(n, k, m); tc_row gives
the counts for every k at once, and the totals, the general reticulation
law and the sqrt(e) ratio are built on it.

The dominance condition reads effective counts only, and every letter ends
at effective count d+1: a heavy letter climbs from 0, a light one from
d-1.  So the number of valid ways to finish a prefix depends on its
effective-count vector alone, not on which letters are heavy, and one memo
per (d, n) of those completion counts (_completions) serves every heavy
subset and every k; a subset only picks the start vector.

The recurrence rolls prefix-sum rows S(n, k, m) = sum_{j<=m} b(n, k, j)
in one row kernel (_word_rows), so c(n, k) is a strand's last entry, and
computes each binomial binom(a, d-1) only at the a a row reads.

tc_row reads a per-process cache: for each d, one resumable full-row pass
and the word-count rows [c(n-1, 0), ..., c(n-1, n-1)] it has produced so
far, advanced under the pass's own lock only as far as the largest n asked
for, so a long advance for one d blocks no call for another.  The counts
become networks, TC(n, k) = n! * c(n-1, k) >> (n-k-1) by the checked
shift params.exact_shift, only for the cells a call returns: the row for
tc_row, one cell for count_tc_words, which advances the shared pass or
runs a private one truncated at its k by two fixed bounds on their cells
(_cells).  tc_table and count_words stay uncached passes: a table asks
for each cell once.  For d = 2..5 up to n = 100 the cache holds about
8.9 MiB (tracemalloc).

From SPLIT_CELLS = 150 000 cells on, tc_table splits word row n of its pass
at strand K(n) = 3n // 5 across two processes (_split_count_rows); the
threshold, the rule and the serial fallbacks (_splits) are fixed.  The
fork, its pipes, the child's error frame and the reap are _forked's, which
the CLI's table formatter shares, as it shares the rule of when a process
may fork (_may_fork).

The k = n slice (every letter heavy, maximally reticulated networks) has a
two-term rational recurrence and an integer binomial form.  The binomial
form is the b-recurrence at k = n, not a second loop: the row kernel's
window k = n keeps that one strand a row and feeds the tables, while the
two-term form stays as a cross-check.  Its row sums c(n, n) have a cache
of their own, kept by the same helper (_stored): one resumable pass per d
and one integer per row, about 0.7 MiB for d = 2..5 up to n = 200, most of
it the passes' current rows.  An exactly rational rescaling e(N, M) of
that slice satisfies a two-neighbor recurrence whose verification is part
of table construction.
"""
from __future__ import annotations

import marshal
import os
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, islice
from math import comb, factorial
from operator import add, mul, sub
from typing import Callable, Iterator, NoReturn

from .params import ExactnessError, Params, at_least, exact_div, exact_shift, integral, within


@dataclass(frozen=True)
class Word:
    """A candidate word: letters[i] is a 1-based letter index; profile[j]
    is the required multiplicity of letter j+1, either 2 or d+1."""

    letters: tuple[int, ...]
    profile: tuple[int, ...]

    @classmethod
    def from_letters(cls, letters) -> "Word":
        """Build a Word inferring each letter's multiplicity from its count."""
        letters = tuple(letters)
        if not letters:
            return cls(letters=(), profile=())
        n = max(letters)
        profile = tuple(letters.count(i) for i in range(1, n + 1))
        return cls(letters=letters, profile=profile)

    @classmethod
    def from_string(cls, s: str) -> "Word":
        """Letters a..z mapped to 1..26."""
        return cls.from_letters(ord(ch) - ord("a") + 1 for ch in s)

    def to_string(self) -> str:
        if any(i > 26 for i in self.letters):
            raise ValueError("string form only supports letter indices up to 26")
        return "".join(chr(ord("a") + i - 1) for i in self.letters)


def _check_structure(d: int, w: Word) -> None:
    """Well-formedness: every multiplicity 2 or d+1, letter counts as profiled."""
    n = len(w.profile)
    for j, mult in enumerate(w.profile, start=1):
        if mult not in (2, d + 1):
            raise ValueError(f"letter {j} has profile multiplicity {mult}, need 2 or d+1={d + 1}")
    counts = [0] * n
    for i in w.letters:
        if not 1 <= i <= n:
            raise ValueError(f"letter index {i} outside 1..{n}")
        counts[i - 1] += 1
    if counts != list(w.profile):
        raise ValueError("letter counts do not match the profile")


def _append_ok(eff, i: int, d: int, n: int) -> bool:
    # dominance pairs involving letter i, right after eff[i] was bumped;
    # pairs not involving i were checked at an earlier step and unchanged
    vi = eff[i]
    for a in range(i):
        if d - 2 < eff[a] < vi:
            return False
    if vi > d - 2:
        for b in range(i + 1, n):
            if eff[b] > vi:
                return False
    return True


def is_valid_word(d: int, w: Word) -> bool:
    """Whether w satisfies the prefix dominance condition.

    A letter's effective count is its occurrence count so far, plus d-1 if
    its multiplicity is 2.  After each scanned position, every letter whose
    effective count exceeds d-2 must dominate (have effective count >= that
    of) every later letter of the alphabet.
    """
    at_least(2, d=d)
    _check_structure(d, w)
    eff = [0 if mult == d + 1 else d - 1 for mult in w.profile]
    for letter in w.letters:
        i = letter - 1
        eff[i] += 1
        if not _append_ok(eff, i, d, len(eff)):
            return False
    return True


def _word_classes(d: int, n: int, k: int) -> Iterator[tuple[tuple, tuple]]:
    """One (mult, start) pair per heavy-letter subset of the (d, n, k) word
    class: mult[i] is letter i+1's multiplicity and start[i] its effective
    count before its first occurrence (0 heavy, d-1 light).  The argument
    checks and the WORD gate run at the call, before any pair is made."""
    at_least(2, d=d)
    at_least(0, n=n, k=k)
    if k > n:
        raise ValueError(f"need k <= n, got k={k} with n={n}")
    within("WORD", n, "n")
    return (
        (tuple(d + 1 if i in heavy else 2 for i in range(n)),
         tuple(0 if i in heavy else d - 1 for i in range(n)))
        for heavy in map(frozenset, combinations(range(n), k))
    )


def enumerate_words(d: int, n: int, k: int) -> Iterator[Word]:
    """Yield every valid word with n letters, k of them heavy, exactly once.

    Words come out grouped by heavy-letter subset, lexicographic within a
    group.  Guarded by the WORD ceiling (`params.within`) because class
    sizes explode; raise it deliberately if you mean it.
    """
    length = 2 * n + (d - 1) * k
    for mult, start in _word_classes(d, n, k):
        eff = list(start)
        prefix = []

        def rec(again) -> Iterator[Word]:
            if len(prefix) == length:
                yield Word(letters=tuple(prefix), profile=mult)
                return
            for i in range(n):
                if eff[i] <= d:
                    eff[i] += 1
                    prefix.append(i + 1)
                    if _append_ok(eff, i, d, n):
                        yield from again(again)
                    prefix.pop()
                    eff[i] -= 1

        yield from rec(rec)


def _completions(d: int, n: int) -> Callable[[tuple], int]:
    """finish(start): the valid ways to append letters to a prefix whose
    effective-count vector is `start` until every letter reaches d+1.

    The count depends on the vector only, so one memo serves every start
    of (d, n): every heavy subset and every k.  It is keyed by the
    mixed-radix index sum eff[i] * (d+2)^i of one list `eff` that the walk
    bumps and restores in place, with no tuple per state.  Validity is
    decided by `_append_ok` on each appended letter.  The walk is handed
    itself as `again` rather than closing over its own name, so the memo
    is freed when `finish` is, not by the cyclic collector.
    """
    weights = [(d + 2) ** i for i in range(n)]
    eff = [0] * n
    memo = {(d + 1) * sum(weights): 1}

    def rec(key: int, again) -> int:
        r = memo.get(key)
        if r is not None:
            return r
        r = 0
        for i in range(n):
            if eff[i] <= d:
                eff[i] += 1
                if _append_ok(eff, i, d, n):
                    r += again(key + weights[i], again)
                eff[i] -= 1
        memo[key] = r
        return r

    def finish(start: tuple) -> int:
        eff[:] = start
        return rec(sum(map(mul, start, weights)), rec)

    return finish


def count_words_direct(d: int, n: int, k: int) -> int:
    """Count valid words straight from the definition.

    Sums `_completions(d, n)` over the C(n, k) start vectors, one per heavy
    subset: one memo on effective-count vectors, shared by every subset,
    covers classes far too large to stream, while validity is still decided
    only by the dominance predicate.  Independent of the b-recurrence; this
    is the oracle the recurrence is tested against.
    """
    classes = _word_classes(d, n, k)
    return sum(map(_completions(d, n), (start for _, start in classes)))


def _direct_row(d: int, n: int) -> list[int]:
    """[count_words_direct(d, n, k) for k = 0..n] from one _completions
    memo shared by all n + 1 classes."""
    classes = [_word_classes(d, n, k) for k in range(n + 1)]
    finish = _completions(d, n)
    return [sum(finish(start) for _, start in starts) for starts in classes]


# ---------------------------------------------------------------------------
# b(n, k, m) recurrence


def _word_rows(d: int, window: Callable[[int], tuple[int, int]] = lambda n: (0, n)
               ) -> Iterator[list[list[int]]]:
    """Prefix-sum rows n = 1, 2, ... of the b-table: row[k-lo][m-1] =
    S(n, k, m) = sum_{j<=m} b(n, k, j) for 1 <= m <= n and the strands
    lo <= k <= hi of (lo, hi) = window(n), 0 <= lo <= hi <= n, each bound
    rising by at most one a row.  c(n, k) is the strand's last entry.

    b(n, k, m) = P_k[m] + binom(n+m+k(d-1)-2, d-1) * P_{k-1}[m]  with
    P_k[m] = S(n-1, k, min(m, n-1)),

    so strand k is the running sum of cells built from the previous row's
    strands k and k-1.  Strand lo's neighbour is the zero strand when
    lo = 0, the old lowest strand, popped, when lo rises, and else the value
    sent in after the previous row was yielded: its strand lo-1, built by a
    pass below.  When hi rises to n, strand n starts from the zero strand;
    when it rises below n, the value sent in is strand hi of the previous
    row, built by a pass above, and joins as the top strand (lo is then 0).
    A new strand k replaces the old one once built: only the extended copy
    of old strand k, the P_{k-1} of strand k+1, is read again.  So the pass
    holds one row plus two strands, unless the consumer holds a yielded row
    (a shallow copy; strands are never mutated) while the next is built,
    which keeps every old strand alive.  binom(a, d-1) is computed only for
    the a a row reads, [w, w+n) with w = n-1+k(d-1): whole for a strand the
    previous row did not build here (at large d no other window covers it),
    else its two new ends.  Each is rolled from binom(a-1, d-1) by one exact
    division when that is known and not zero, so math.comb runs about once
    per new strand, and binomials below the lowest window are dropped.
    """
    lo, hi = window(1)
    row = [[1] for _ in range(lo, hi + 1)]
    binoms: list[int | None] = []  # binoms[a-base] = binom(a, d-1) once a row reads it
    base = 0  # every later row reads only a > base
    n = 1
    while True:
        edge = yield list(row)
        n += 1
        (was_lo, was_hi), (lo, hi) = (lo, hi), window(n)
        if lo > was_lo:  # the bound rises past the lowest strand
            edge = row.pop(0)
        fresh = len(row)  # strands from here on have no binomial window yet
        if n > hi > was_hi:  # the strand sent in joins at the top; strand 0's neighbour is zero
            row, edge = row + [edge], None
        binoms.extend([None] * (2 * n - 1 + hi * (d - 1) - base - len(binoms)))
        # P_{k-1} extends the previous row's strand k-1 to m = n; a new list, pointers only
        below = None if edge is None else edge + edge[-1:]
        for i, k in enumerate(range(lo, hi + 1)):
            if below is not None:
                w = n - 1 + k * (d - 1)
                for a in range(w if i >= fresh else w + n - 2, w + n):
                    j = a - base
                    if binoms[j] is None:
                        known = binoms[j - 1]
                        binoms[j] = exact_div(known * a, a - d + 1) if known else comb(a, d - 1)
                cells = map(mul, binoms[w - base : w - base + n], below)
            if i == len(row):  # k = n, where P_k is zero
                row.append(list(accumulate(cells)))
            else:
                same = row[i] + row[i][-1:]
                row[i] = list(accumulate(same if below is None else map(add, same, cells)))
                below = same
        edge = below = same = cells = None  # a resting pass holds no old strand
        w = n - 1 + lo * (d - 1)  # no later row reads below strand lo's window
        del binoms[: w - base]
        base = w


def _nth_row(d: int, n: int, k_max: int | None) -> list[list[int]]:
    rows = _word_rows(d, lambda n: (0, n if k_max is None else min(n, k_max)))
    return next(islice(rows, n - 1, None))


def _cells(start: int, stop: int, k_max: int | None = None) -> int:
    """Prefix-sum cells _word_rows computes for its rows start < n <= stop
    with the window (0, min(n, k_max)): row n holds n cells for each
    k <= min(n, k_max)."""
    return sum(
        n * (n + 1 if k_max is None else min(n, k_max) + 1) for n in range(start + 1, stop + 1)
    )


def _tc_counts(n: int, counts: list[int], lo: int = 0) -> list[int]:
    """TC(n, k) for k = lo, lo+1, ... from the word counts counts[k-lo] =
    c(n-1, k): n! * c(n-1, k) / 2^(n-k-1), the shift exact and checked."""
    f = factorial(n)
    return [exact_shift(f * c, n - k - 1) for k, c in enumerate(counts, lo)]


def _last_cells(row: list[list[int]]) -> list[int]:
    return [cells[-1] for cells in row]


def _count_rows(d: int) -> Iterator[list[int]]:
    """[c(n-1, 0), ..., c(n-1, n-1)] for n = 1, 2, ...: the word counts
    that row n of TC is converted from, one full-row pass.  The word rows
    are mapped, not bound to a name that would hold one while the next is
    built."""
    yield [1]  # the empty word
    yield from map(_last_cells, _word_rows(d))


def _slice_sums(d: int) -> Iterator[int]:
    """c(n, n), the sum of all-heavy slice row n, for n = 1, 2, ...: the
    last cell of the one strand of the kernel's window k = n."""
    return map(lambda row: row[0][-1], _word_rows(d, lambda n: (n, n)))


# d -> (its resumable pass, the entries n = 1, 2, ... it has yielded, the
# lock held while the pass advances): the word-count rows of _count_rows,
# and the slice sums of _slice_sums.  _CACHE_LOCK guards only adding and
# dropping entries, so a long advance of one pass blocks no other pass.
_TC_ROWS: dict[int, tuple[Iterator[list[int]], list[list[int]], threading.Lock]] = {}
_SLICE_SUMS: dict[int, tuple[Iterator[int], list[int], threading.Lock]] = {}
_CACHE_LOCK = threading.Lock()


def _stored(cache: dict, make_pass: Callable, d: int, n: int):
    """Entry n of d's pass in `cache`, advancing the pass to n first
    (starting it by make_pass(d) when d has none).  The entry is the
    cache's own: callers must not mutate it or hand it out."""
    while True:
        with _CACHE_LOCK:
            state = cache.get(d)
            if state is None:
                state = cache[d] = (make_pass(d), [], threading.Lock())
        items, done, lock = state
        with lock:
            if len(done) >= n:
                return done[n - 1]
            if cache.get(d) is not state:
                continue  # the pass raised and was dropped while this call waited
            try:
                done.extend(islice(items, n - len(done)))
            except BaseException:
                # a pass that raised is finished; the next call starts over
                with _CACHE_LOCK:
                    if cache.get(d) is state:
                        del cache[d]
                raise
            return done[n - 1]


def _tc_rows_reached(d: int) -> int | None:
    """How many rows d's cached pass has produced; None when d has none.
    Read without waiting for an advance in progress, so it may be stale."""
    state = _TC_ROWS.get(d)
    return None if state is None else len(state[1])


def _slice_sum(d: int, n: int) -> int:
    """c(n, n), the sum of all-heavy slice row n, from d's cached slice pass."""
    return _stored(_SLICE_SUMS, _slice_sums, d, n)


def count_words(d: int, n: int, k: int) -> int:
    """c(n, k): valid words with n letters, k heavy, via the b-recurrence."""
    at_least(2, d=d)
    at_least(0, n=n, k=k)
    if k > n:
        raise ValueError(f"need k <= n, got k={k} with n={n}")
    if n == 0:
        return 1  # the empty word, k = 0
    return _nth_row(d, n, k)[k][-1]


def count_tc_words(p: Params) -> int:
    """Tree-child networks with n leaves and k reticulation nodes.

    n! * c(n-1, k) / 2^(n-k-1); the division is exact and checked.  The
    call takes whichever of two passes computes fewer cells, counted by
    _cells: advancing d's shared full pass to n (`extend`, zero when it
    already reaches n, a whole pass when d has none) or a private pass
    truncated at k (`trunc`).  A cold d starts the shared pass only when
    extend <= trunc, so a one-shot call never computes more cells than the
    truncated pass; a warm d extends it when extend <= 2 * trunc, so a call
    pays at most twice its own cells and later calls for d reuse the rows.
    Both passes give the same integer; a stale extent only picks the other.
    """
    d, n, k = p.d, p.n, p.k
    if n == 1:
        return 1
    reached = _tc_rows_reached(d)
    extend = _cells(max((reached or 0) - 1, 0), n - 1)
    trunc = _cells(0, n - 1, k)
    if extend <= (trunc if reached is None else 2 * trunc):
        c = _stored(_TC_ROWS, _count_rows, d, n)[k]
    else:
        c = _nth_row(d, n - 1, k)[k][-1]
    return _tc_counts(n, [c], k)[0]


def tc_row(d: int, n: int) -> list[int]:
    """[TC(n, 0), ..., TC(n, n-1)], tree-child networks with n leaves by
    reticulation count, converted from the per-process cache's word counts."""
    Params(d, n, 0)  # d and n by Params' rule, before the cache is touched
    return _tc_counts(n, _stored(_TC_ROWS, _count_rows, d, n))


def count_tc_total(d: int, n: int) -> int:
    """All tree-child networks with n leaves, summed over k."""
    return sum(tc_row(d, n))


# tc_table splits its pass across two processes from this many cells on,
# n_max >= 77 at any d.  Below it the split saves too little to risk: at
# d = 2 a split at a fixed strand was even with the serial pass at n_max =
# 45 and 14% faster at 60, and a fork costs 2-4 ms (2-vCPU Xeon, 3.11).
SPLIT_CELLS = 150_000


def _may_fork() -> bool:
    """Whether work may be shared with a forked child: with os.fork, two
    CPUs and no other thread, whose locks a fork leaves held."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)


def _splits(n_max: int) -> bool:
    """Whether tc_table(d, n_max) splits: from SPLIT_CELLS cells on, when
    _may_fork."""
    return _cells(0, n_max - 1) >= SPLIT_CELLS and _may_fork()


def _boundary(n: int) -> int:
    """K(n): a split pass builds strands k >= K(n) of word row n here and
    the rest in the child.  This side also converts the counts, and 3n/5
    beat 11n/20 and 13n/20 at d = 2 (`table tc`, 2-vCPU Xeon, Python 3.11)."""
    return max(1, 3 * n // 5)


def _hands_down(n: int, n_max: int) -> bool:
    """Whether this process hands strand K(n) down after word row n."""
    return n < n_max - 1 and _boundary(n + 1) > _boundary(n)


def _write_all(fd: int, data) -> None:
    """Write the bytes of data down the pipe fd, however many writes it takes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send(fd: int, value) -> None:
    """Write value down the pipe fd: an 8-byte length, then its marshal."""
    frame = marshal.dumps(value)
    _write_all(fd, len(frame).to_bytes(8, "little") + frame)


def _receive(pipe):
    """The value of the next frame on the pipe, or None when it ends first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    body = pipe.read(size) if len(head) == 8 else b""
    return marshal.loads(body) if len(body) == size > 0 else None


class _Child:
    """This process's side of a child forked by _forked: its pid, the file
    `frames` it writes to and the fd `hand` it reads from."""

    def __init__(self, pid: int, what: str, frames, hand: int):
        self.pid, self.what, self.frames, self.hand = pid, what, frames, hand
        self.reaped = False

    def fail(self, frame, where: str = "") -> NoReturn:
        """Reap the child, whose last frame was `frame`, an error frame or
        None when the pipe ended first, and raise: MemoryError if it ran out
        of memory or was killed by a signal (as the out-of-memory killer
        does), else ExactnessError."""
        _, status = os.waitpid(self.pid, 0)
        self.reaped = True
        if frame == "MemoryError" or os.WIFSIGNALED(status):
            cause = frame or f"killed by signal {os.WTERMSIG(status)}"
            raise MemoryError(f"({self.what}: {cause})")
        cause = frame or f"exit status {os.WEXITSTATUS(status)}"
        raise ExactnessError(f"{self.what} failed{where}: {cause}")


@contextmanager
def _forked(what: str, work: Callable[[int, int], None]) -> Iterator[_Child | None]:
    """Run work(fd, handed) in a forked child, which writes to the pipe fd
    and may read what this process hands it from the pipe handed, and yield
    this process's side of it: a _Child, named `what` in its errors.  The
    child sends a frame naming the exception that ended work, if one did,
    and ends by os._exit, so it never returns into the code that forked it.
    When no process can be forked (out of processes or memory for one) this
    yields None, and the caller does the work itself.  However the block
    ends, the child is killed if it still runs and reaped."""
    import signal  # imported here: its enums cost 1.3 ms of every start-up

    (r, w), (handed, hand) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid is None:
        for fd in (r, w, handed, hand):
            os.close(fd)
        yield None
        return
    if pid == 0:
        import gc

        # the collector leaves the forked heap alone, so no finalizer of the
        # caller's garbage runs here and its pages stay shared
        gc.freeze()
        code = 1
        try:
            os.close(r)
            os.close(hand)
            work(w, handed)
            code = 0
        except Exception as exc:  # reported to the parent, which raises
            _send(w, type(exc).__name__)
        finally:
            os._exit(code)
    os.close(w)
    os.close(handed)
    child = _Child(pid, what, open(r, "rb"), hand)
    try:
        yield child
    finally:
        child.frames.close()
        os.close(hand)
        if not child.reaped and os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_frames(d: int, n_max: int, fd: int, handed: int) -> None:
    """The child's side of _split_count_rows: word rows 1..n_max-1 below
    K(n), a frame a row down fd (strand K(n)-1, None when K rises, and the
    counts c(n, k)), and handed strands read from `handed`.  It touches no
    cache or lock."""
    with open(handed, "rb") as strands:
        rows, strand = _word_rows(d, lambda n: (0, _boundary(n) - 1)), None
        for n in range(1, n_max):
            rises = _hands_down(n, n_max)
            row = rows.send(strand)
            _send(fd, (None if rises else row[-1], _last_cells(row)))
            # no yielded row is held while the next is built
            row, strand = None, _receive(strands) if rises else None


def _split_count_rows(d: int, n_max: int) -> Iterator[list[int]]:
    """The first n_max rows of _count_rows(d), word row n split by strand at
    K(n) = _boundary(n): a forked child builds strands k < K(n)
    (_write_frames), this process the rest.  One boundary strand crosses a
    row: the child's strand K(n)-1 when K stays, else this process's strand
    K(n), which it also pops as its own lowest strand's neighbour.  This
    process reads the child's frame before it writes, and the child writes
    before it reads, so frames larger than a pipe buffer block neither for
    good.  A failed child ends the rows in MemoryError or ExactnessError
    (_Child.fail); however they end, it is killed if it still runs and
    reaped (_forked).  When no process can be forked, one serial pass gives
    them."""
    with _forked("tc_table's child process", partial(_write_frames, d, n_max)) as child:
        if child is None:
            yield from islice(_count_rows(d), n_max)
            return
        upper = _word_rows(d, lambda n: (_boundary(n), n))
        mine = next(upper)
        yield [1]
        for n in range(1, n_max):
            frame = _receive(child.frames)
            if isinstance(frame, tuple) and _hands_down(n, n_max):
                with suppress(BrokenPipeError):  # the child ended; its next frame says how
                    _send(child.hand, mine[0])
            if not isinstance(frame, tuple):  # an error frame, or the pipe ended early
                child.fail(frame, f" at word row {n}")
            edge, lows = frame
            tops, mine = _last_cells(mine), None  # no row is held while the next is built
            yield lows + tops
            if n < n_max - 1:
                mine = upper.send(edge)


def tc_table(d: int, n_max: int) -> dict[int, list[int]]:
    """{n: [TC(n,0), ..., TC(n,n-1)]} for n = 1..n_max, one rolling pass
    that bypasses the tc_row cache, split across two processes by strand
    when _splits says so."""
    at_least(2, d=d)
    at_least(1, n_max=n_max)
    rows = _split_count_rows(d, n_max) if _splits(n_max) else _count_rows(d)
    try:
        return {n: _tc_counts(n, counts) for n, counts in zip(range(1, n_max + 1), rows)}
    finally:
        rows.close()


# ---------------------------------------------------------------------------
# k = n slice (every letter heavy)


def b_max_table(d: int, n_max: int) -> dict:
    """b(n, m) for the all-heavy slice via its two-term recurrence.

    b(n, m) = (dn+m-2)/(dn+m-d-1) * b(n, m-1) + binom(dn+m-2, d-1) * b(n-1, m)
    with b(1, 1) = 1.  Individual terms are rationals; sums are integers.
    """
    at_least(2, d=d)
    at_least(1, n_max=n_max)
    b: dict = {(1, 1): 1}
    for n in range(2, n_max + 1):
        for m in range(1, n + 1):
            v = Fraction(comb(d * n + m - 2, d - 1) * b.get((n - 1, m), 0))
            if m >= 2:
                v += Fraction(d * n + m - 2, d * n + m - d - 1) * b.get((n, m - 1), 0)
            if v:
                b[(n, m)] = integral(v, f"slice cell at n={n}, m={m}")
    return b


def b_max_table_binomial(d: int, n_max: int) -> dict:
    """The slice of b_max_table by its binomial form
    b(n, m) = binom(m+nd-2, d-1) * sum_{j<=min(m,n-1)} b(n-1, j), which is
    the word recurrence at k = n: the differences of its prefix sums."""
    at_least(2, d=d)
    at_least(1, n_max=n_max)
    return {
        (n, m): v
        for n, (sums,) in zip(range(1, n_max + 1), _word_rows(d, lambda n: (n, n)))
        for m, v in enumerate(map(sub, sums, [0] + sums), start=1)
    }


def lambda_factor(d: int) -> Fraction:
    """(d+1)^(d-1)/(d-1)!, the growth base of the all-heavy slice."""
    at_least(2, d=d)
    return Fraction((d + 1) ** (d - 1), factorial(d - 1))


@dataclass(frozen=True)
class ETable:
    """Rescaled all-heavy slice e(N, M) = b((N+M)/2, (N-M)/2) / (lambda^(N+M)/2
    * ((N+M)/2)!^(d-1)) on the even lattice 0 <= M <= N, N+M even.

    Constructed from the b slice and then verified cell by cell against the
    two-neighbor recurrence

        e(N, M) = mu(N, M) e(N-1, M+1) + nu(N, M) e(N-1, M-1),  N >= 3,

    mu = 1 + 2(d-1)/((d+1)N + (d-1)M - 2(d+1)),
    nu = prod_{i=2..d} (1 - 2(M+i)/((d+1)(N+M))),

    with boundary e(N, -1) = 0 and e(2, M) = 0 except e(2, 0) = 1/lambda.
    A mismatch anywhere raises at construction.
    """

    d: int
    n_max: int
    entries: dict

    def e(self, N: int, M: int) -> Fraction:
        if M < 0 or M > N or (N + M) % 2:
            return Fraction(0)
        if (N + M) // 2 > self.n_max:
            raise ValueError(f"cell ({N}, {M}) beyond table range n_max={self.n_max}")
        return self.entries.get((N, M), Fraction(0))

    def as_float(self, N: int, M: int) -> float:
        return float(self.e(N, M))


def e_table(d: int, n_max: int) -> ETable:
    """Build and self-verify the rescaled slice up to (N+M)/2 = n_max."""
    at_least(2, d=d, n_max=n_max)
    b = b_max_table_binomial(d, n_max)
    lam = lambda_factor(d)
    entries: dict = {}
    for n in range(1, n_max + 1):
        scale = lam**n * factorial(n) ** (d - 1)
        for m in range(1, n + 1):
            v = b.get((n, m), 0)
            if v:
                entries[(n + m, n - m)] = Fraction(v) / scale
    table = ETable(d=d, n_max=n_max, entries=entries)

    for N in range(3, 2 * n_max + 1):
        for M in range(N % 2, N + 1, 2):
            if (N + M) // 2 > n_max:
                continue
            mu = 1 + Fraction(2 * (d - 1), (d + 1) * N + (d - 1) * M - 2 * (d + 1))
            nu = Fraction(1)
            for i in range(2, d + 1):
                nu *= 1 - Fraction(2 * (M + i), (d + 1) * (N + M))
            want = mu * table.e(N - 1, M + 1) + nu * table.e(N - 1, M - 1)
            if table.e(N, M) != want:
                raise ExactnessError(f"rescaled slice recurrence fails at N={N}, M={M}")
    return table
