"""A fixed block of pure-Python work that measures the host's current speed.

The host this benchmark runs on is shared: the same call takes up to 1.5x
longer while a neighbour is busy, in bursts of a fraction of a second to
minutes, in wall and in CPU time alike.  ``Sampler`` times this block every
few tens of milliseconds while the ops run and scales each op's time to
the host speed at which one block takes REFERENCE_S.  The block does what
the package does (big-integer prefix sums and products, dict traffic,
decimal conversion and JSON) and touches no treechild code, so a change to
the package cannot move it.
"""
from __future__ import annotations

import gc
import json
import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

# median block time on an uncontended 2.1 GHz Xeon vCPU under CPython
# 3.11; a fixed scale only, so that normalized times stay close to seconds
REFERENCE_S = 0.00125


def _block() -> int:
    row = [1] * 48
    cells: dict = {}
    x = 3
    for r in range(60):
        s = 0
        for i in range(48):
            s += row[i]
            row[i] = s * x + i
            cells[r * 48 + i] = row[i] & 0xFFFF
        x = x * 3 + 1
    text = json.dumps({"counts": [str(v) for v in row[::6]], "n": len(cells)})
    return len(text)


def block_time() -> float:
    """Seconds one block takes now.  The collector is off during the block,
    so the size of the caller's heap cannot change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _block()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a block every `every` seconds of wall time, from a SIGALRM
    handler that runs between bytecodes of whatever the main thread is
    doing, so even a single long op gets samples from inside it.  Use as a
    context manager around the op loop; `edge()` adds blocks outside it."""

    def __init__(self, every: float):
        self.every = every
        self.samples: list[tuple[float, float, float]] = []  # start, end, block
        self._busy = False
        self._starts: list[float] = []
        self._cum: list[float] = []

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        b = block_time()
        self.samples.append((t0, perf_counter(), b))
        self._busy = False

    def edge(self, count: int) -> None:
        for _ in range(count):
            t0 = perf_counter()
            b = block_time()
            self.samples.append((t0, perf_counter(), b))

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def spent(self, t0: float, t1: float) -> float:
        """Seconds the sampler itself took inside [t0, t1)."""
        if len(self._cum) != len(self.samples) + 1:
            self._starts = [s for s, _, _ in self.samples]
            self._cum = [0.0]
            for s, e, _ in self.samples:
                self._cum.append(self._cum[-1] + e - s)
        return (self._cum[bisect_left(self._starts, t1)]
                - self._cum[bisect_left(self._starts, t0)])

    def normalize(self, spans, window: float) -> list[float]:
        """Each (t0, t1) span's own time, without the sampler's, scaled to
        REFERENCE_S: by the mean speed of the blocks inside the span when
        there are three or more, else by the median block time within
        `window` seconds of it (at least the four nearest blocks)."""
        starts = [s for s, _, _ in self.samples]
        blocks = [b for _, _, b in self.samples]
        out = []
        for t0, t1 in spans:
            own = (t1 - t0) - self.spent(t0, t1)
            inside = blocks[bisect_left(starts, t0):bisect_left(starts, t1)]
            if len(inside) >= 3:
                out.append(own * REFERENCE_S * sum(1 / b for b in inside) / len(inside))
                continue
            near = blocks[bisect_left(starts, t0 - window):bisect_right(starts, t1 + window)]
            if len(near) < 3:
                i = bisect_left(starts, t0)
                near = blocks[max(0, i - 2):i + 2]
            out.append(own * REFERENCE_S / median(near))
        return out
