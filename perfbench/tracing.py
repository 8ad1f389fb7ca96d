"""Span recording around the public functions of each treechild module.

``Tracer.install()`` replaces every public function of each layer module,
at every module attribute that binds it (``words.tc_table`` and
``verify.tc_table`` are the same function, so both names are wrapped), by a
wrapper that records a span: layer, function name, parent span, op id,
start, end and busy time.  Spans stay in memory; ``layer_metrics`` turns
them into per-layer self times, call counts and word-kernel counters once
the run is over.  Nothing under ``src/`` is changed on disk.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import types
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "words", "onecomp", "distributions", "asymptotics",
          "compgraphs", "pathlength", "verify")

# The rolling-row kernel entry is private but other layers call it directly
# (ret_pmf, ratio_sqrt_e); wrapping it keeps the kernel's time in `words`.
PRIVATE_ENTRIES = {("words", "_b_row")}


def _rows(d, n_rows, k_max):
    return None if n_rows < 1 else (d, n_rows, k_max)


# Calls that run the b(n, k, m) recurrence, mapped from their bound
# arguments to (d, rows advanced, k_max).  Cells are counted only at the
# outermost such call, so nested kernel calls are not counted twice.
KERNEL_CALLS = {
    ("words", "tc_table"): lambda a: _rows(a["d"], a["n_max"] - 1, a["n_max"]),
    ("words", "count_words"): lambda a: _rows(a["d"], a["n"], a["k"]),
    ("words", "count_tc_words"): lambda a: _rows(a["p"].d, a["p"].n - 1, a["p"].k),
    ("words", "count_tc_total"): lambda a: _rows(a["d"], a["n"] - 1, a["n"] - 1),
    ("words", "b_table"): lambda a: _rows(a["d"], a["n_max"], a["k_max"] or a["n_max"]),
    ("words", "_b_row"): lambda a: _rows(a["d"], a["n"], a["k_max"]),
    ("distributions", "ret_pmf"): lambda a: (
        _rows(a["d"], a["n"] - 1, a["n"] - 1) if a["family"] == "general" else None),
    ("asymptotics", "ratio_sqrt_e"): lambda a: _rows(a["d"], a["n"] - 1, a["n"] - 1),
}


def rebind(replacements: dict) -> None:
    """Replace, at every attribute of every loaded treechild module, each
    object whose id is a key of `replacements` by its value."""
    for modname, mod in list(sys.modules.items()):
        if modname != "treechild" and not modname.startswith("treechild."):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replacements:
                setattr(mod, attr, replacements[id(obj)])


def row_cells(j: int, k_max: int) -> int:
    """b-cells of row j when k runs up to k_max: m = 1..j for each k."""
    return j * (min(j, k_max) + 1)


class Tracer:
    def __init__(self):
        # span: [layer, name, parent index, op id, start, end, busy seconds,
        #        generator?]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = True
        self.depth = {layer: 0 for layer in LAYERS}
        self.kernel_depth = 0
        self.kernel_calls: list[tuple] = []  # (d, rows, k_max) per outermost call
        self.words_results: list = []        # results of outermost words calls
        self.suite_results: list = []        # CheckResult lists from run_suite

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function at every binding."""
        mods = {layer: importlib.import_module(f"treechild.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                public = not name.startswith("_") or (layer, name) in PRIVATE_ENTRIES
                if (public and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
        rebind(wrapped)

    def _wrap(self, layer: str, name: str, fn):
        kernel = KERNEL_CALLS.get((layer, name))
        sig = inspect.signature(fn) if kernel else None
        generator = inspect.isgeneratorfunction(fn)
        tracer = self

        def enter():
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, name, parent, tracer.op, 0.0, 0.0, 0.0, generator]
            tracer.spans.append(span)
            return idx, span

        def finish(args, kwargs, result, top_kernel, top_layer):
            if top_kernel:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rows = kernel(bound.arguments)
                if rows is not None:
                    tracer.kernel_calls.append(rows)
            if top_layer and layer == "words":
                tracer.words_results.append(result)
            if layer == "verify" and name == "run_suite":
                tracer.suite_results.append(result)

        if generator:
            # busy time accumulates over the resumes; the consumer's work
            # between resumes belongs to the consumer's span
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.enabled:
                    yield from fn(*args, **kwargs)
                    return
                idx, span = enter()
                gen = fn(*args, **kwargs)
                span[4] = perf_counter()
                while True:
                    tracer.stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        tracer.stack.pop()
                        span[5] = t1
                        span[6] += t1 - t0
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx, span = enter()
            top_kernel = kernel is not None and tracer.kernel_depth == 0
            top_layer = tracer.depth[layer] == 0
            tracer.stack.append(idx)
            tracer.depth[layer] += 1
            if kernel is not None:
                tracer.kernel_depth += 1
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                span[6] = span[5] - span[4]
                tracer.stack.pop()
                tracer.depth[layer] -= 1
                if kernel is not None:
                    tracer.kernel_depth -= 1
            finish(args, kwargs, result, top_kernel, top_layer)
            return result

        return traced

    # -- metrics ------------------------------------------------------------

    def busy(self, busy_fn) -> list[float]:
        """busy_fn(span) of every span: its busy seconds, corrected by the
        caller, e.g. to take out time that is not the program's or to
        rescale it."""
        return [busy_fn(span) for span in self.spans]

    def layer_metrics(self, busy_fn) -> dict:
        """Self seconds and boundary calls per layer, plus kernel counters,
        from the span times busy_fn gives (see `busy`)."""
        spans = self.spans
        busy = self.busy(busy_fn)
        child_busy = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[2] >= 0:
                child_busy[span[2]] += busy[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        for i, span in enumerate(spans):
            layer = span[0]
            out[f"{layer}.self_s"] += busy[i] - child_busy[i]
            if span[2] < 0 or spans[span[2]][0] != layer:
                out[f"{layer}.calls"] += 1

        cells = reused = 0
        covered: dict = {}  # (d, row) -> largest k prefix computed so far
        for d, n_rows, k_max in self.kernel_calls:
            for j in range(1, n_rows + 1):
                want = min(j, k_max)
                cells += row_cells(j, want)
                have = covered.get((d, j), -1)
                if have >= 0:
                    reused += row_cells(j, min(want, have))
                if want > have:
                    covered[(d, j)] = want
        out["words.cells"] = cells
        out["words.cells_per_s"] = cells / out["words.self_s"] if out["words.self_s"] else 0.0
        out["words.row_reuse_share"] = reused / cells if cells else 0.0
        out["words.max_bits"] = max((_max_bits(r) for r in self.words_results), default=0)
        checks = [r for results in self.suite_results for r in results]
        out["verify.checks"] = len(checks)
        out["verify.failed"] = sum(not r.passed for r in checks)
        return out


def _max_bits(value) -> int:
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return value.bit_length()
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, dict):
        value = value.values()
    if isinstance(value, (list, tuple, type({}.values()))):
        return max((_max_bits(v) for v in value), default=0)
    return 0
