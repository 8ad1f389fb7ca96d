"""Command-line interface emitting machine-readable records.

Counts, tables, distributions, asymptotic diagnostics and verification
suites, as JSON Lines on stdout (one record per line) or RFC-4180 CSV for
tables.  Serialization rules: integer counts are decimal strings (never
floats), exact rationals are numerator/denominator string pairs, floats
are written as Python's shortest round-trip repr (full double precision),
and every record names the method that produced it.

`count TARGET --method M` runs one route of `verify.COUNT_ROUTES`, the table
of which method covers which (d, n, k): the target's first method by
default, or with `--method all` every route whose domain holds, which must
all agree.  A method that does not cover the cell is a usage error.
`asymp ratio` adds the word-route fields `tc_total_over_max_k` and
`tc_ratio_reference` only for n up to the GENERAL ceiling.

`table` writes a table of FORMAT_BITS = 8 000 000 bits of counts or more
on two processes when `words._may_fork` allows: once the counts are built,
a forked child formats the later rows (55% of the work, estimated from
the rows' bit lengths) into its own memory while this process writes the
earlier rows, then sends its text back raw for this process to copy, so
stdout is the same to the byte.  A failed child ends the call as a failed
split pass does: exit 2 if it ran out of memory or was killed by a
signal, else 1, with stdout a prefix of the table.

Handlers only write records or raise; `run` alone turns a failure into an
exit code.  Exit codes: 0 success; 1 verification failure, printed as
"verification failure: ..." (a `params.ExactnessError`: a failed exactness
check, routes that disagree, or a verify suite with a failed check, raised
after every record is written); 2 usage error, printed as "error: ..."
(argparse's own errors aside: any other ValueError or ArithmeticError,
such as an OverflowError or an integer argument refused by
`params.at_least`; a RecursionError: an input too deep for Python's
recursion limit; and a MemoryError: an input whose tables do not fit in
memory).

Environment variables override only the safety ceilings of
`params.CEILINGS`, never science parameters; the README's "Safety
ceilings" table lists them.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, islice

from . import distributions, verify, words
from .asymptotics import (
    otc_asymptotic,
    params as asymptotic_params,
    ratio_sqrt_e,
    ratio_sqrt_e_reference,
    tc_envelope,
    tc_envelope_ratio,
)
from .onecomp import otc_row
from .params import ExactnessError, at_least, ceiling

VERIFY_FAILED = 1
USAGE_ERROR = 2


def _count(v: int) -> str:
    # str() raises ValueError past the interpreter's limit on int-to-string
    # conversion; Decimal holds every digit exactly and is not capped by it
    try:
        return str(v)
    except ValueError:
        return format(Decimal(v), "f")


def _ratio(fr: Fraction) -> dict:
    return {"numerator": _count(fr.numerator), "denominator": _count(fr.denominator)}


def _logvalue(lv) -> dict:
    m, e = lv.to_mantissa_exponent()
    return {
        "ln": lv.ln,
        "log10": lv.log10,
        "mantissa": m,
        "exponent10": e,
    }


def _emit(command: str, parameters: dict, results: dict, method: str, out) -> None:
    record = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "method": method,
    }
    # a second write, not a concatenation: writing `table tc --d 2 --n-max 200`
    # to a StringIO peaks at 44 MB this way and at 52 MB concatenated
    out.write(json.dumps(record, separators=(",", ":")))
    out.write("\n")


# ---------------------------------------------------------------------------
# count


def _cmd_count(args, out) -> None:
    d, n, k, target = args.d, args.n, args.k, args.target
    routes = verify.COUNT_ROUTES[target]
    method = args.method or next(iter(routes))
    if method != "all" and method not in routes:
        raise ValueError(
            f"unknown method {method!r} for count {target}; "
            f"choose from {', '.join(routes)} or all"
        )
    selected = [
        m for m, (_, covers) in routes.items()
        if method in ("all", m) and covers(d, n, k)
    ]
    if not selected:
        # every route that refuses the total needs a reticulation count
        why = "requires --k" if k is None else f"does not cover d={d}, n={n}, k={k}"
        raise ValueError(f"count {target} --method {method} {why}")
    pairs = [(m, routes[m][0](d, n, k)) for m in selected]
    values = {v for _, v in pairs}
    if len(values) > 1:
        found = ", ".join(f"{tag}={_count(v)}" for tag, v in pairs)
        raise ExactnessError(f"methods disagree: {found}")
    parameters = {"d": d, "n": n}
    if k is not None:
        parameters["k"] = k
    for tag, value in pairs:
        _emit(f"count {target}", parameters, {"value": _count(value)}, tag, out)


# ---------------------------------------------------------------------------
# table


# table formats its later rows in a forked child (_send_text) from this
# many bits of counts on, the rows' total bit_length.  Formatting alone, in
# a small process, took 11.5 ms in one process and 13.2 ms with the child
# for `table tc --d 2 --n-max 110` (4.5 million bits), 22.4 and 21.0 ms at
# n_max = 132 (8.1 million) and 40.5 and 33.7 ms at 150 (12.2 million); for
# `table otc --d 2 --n-max 80` (1.5 million) 5.9 and 9.4 ms (medians of 15,
# 2-vCPU Xeon, Python 3.11).
FORMAT_BITS = 8_000_000


def _write_rows(args, method: str, rows, out) -> None:
    """The records of rows, (n, counts) pairs, as CSV lines or JSON records."""
    if args.format == "csv":
        writer = csv.writer(out)
        for n, values in rows:
            writer.writerow([n] + [_count(v) for v in values] + [""] * (args.n_max - n))
    else:
        for n, values in rows:
            _emit(
                f"table {args.target}",
                {"d": args.d, "n_max": args.n_max, "n": n},
                {"counts": [_count(v) for v in values]},
                method,
                out,
            )


def _send_text(write, rows, fd: int, handed: int) -> None:
    """The formatter child's work (words._forked): the text write(rows, ...)
    makes, in its own memory, then sent down fd raw after a frame giving
    its length."""
    text = io.TextIOWrapper(io.BytesIO(), "ascii", newline="")
    write(rows, text)
    text.flush()
    data = text.buffer.getbuffer()
    words._send(fd, len(data))
    words._write_all(fd, data)


def _copy_text(child, out) -> None:
    """Write to out the text the formatter child sends (_send_text), read in
    chunks of at most 64 KiB."""
    left = words._receive(child.frames)
    if not isinstance(left, int):  # an error frame, or the pipe ended first
        child.fail(left)
    while left:
        chunk = child.frames.read(min(left, 1 << 16))
        if not chunk:
            child.fail(None)
        out.write(chunk.decode("ascii"))
        left -= len(chunk)


def _cmd_table(args, out) -> None:
    at_least(2, d=args.d)
    at_least(1, n_max=args.n_max)
    if args.target == "tc":
        table, method = words.tc_table(args.d, args.n_max), "words"
    else:
        table = {n: otc_row(args.d, n) for n in range(1, args.n_max + 1)}
        method = "closedform"
    if args.format == "csv":
        csv.writer(out).writerow(["n"] + [f"k={k}" for k in range(args.n_max)])
    write, rows = partial(_write_rows, args, method), table.items()
    bits = [sum(map(int.bit_length, values)) for values in table.values()]
    if sum(bits) >= FORMAT_BITS and words._may_fork():
        # str() of an int takes time quadratic in its length, so a row costs
        # about its bits squared over its length; this process formats 45%
        # of that, as it also copies the child's text
        work = list(accumulate(b * b // len(values) for b, values in zip(bits, table.values())))
        cut = bisect_left(work, 0.45 * work[-1])
        later = partial(_send_text, write, islice(rows, cut, None))
        with words._forked("table's formatter process", later) as child:
            if child is not None:
                write(islice(rows, cut), out)
                _copy_text(child, out)
                return
    write(rows, out)


# ---------------------------------------------------------------------------
# dist


# total-variation distance to each reference law, by --compare value
_TV_KEYS = {
    "poisson": "tv_to_poisson_half",
    "bessel": "tv_to_bessel_1_2",
    "dirac": "tv_to_dirac_0",
}


def _cmd_dist(args, out) -> None:
    family, d, n = args.family, args.d, args.n
    if args.compare == "normal" and (family != "onecomp" or d != 2):
        raise ValueError("--compare normal applies to --family onecomp --d 2")
    pmf = distributions.ret_pmf(family, d, n)
    results: dict = {
        "support": list(pmf.support),
        "mass": {str(k): _ratio(pmf.p(k)) for k in pmf.support},
    }
    method = "closedform" if family == "onecomp" else "words"
    if args.compare == "normal":
        results["normal_sup_gap"] = distributions.normal_sup_gap(pmf, n)
    elif args.compare:
        shifted = pmf.remap(lambda k: n - 1 - k)
        ref = distributions.reference_pmf(args.compare)
        results[_TV_KEYS[args.compare]] = distributions.total_variation(shifted, ref)
    _emit("dist ret", {"family": family, "d": d, "n": n}, results, method, out)


# ---------------------------------------------------------------------------
# asymp


def _cmd_asymp(args, out) -> None:
    d, n, target = args.d, args.n, args.target
    if target != "params" and n is None:
        raise ValueError(f"asymp {target} requires --n")
    if target == "params":
        pr = asymptotic_params(d)
        results = {
            "alpha": _ratio(pr.alpha),
            "beta": pr.beta,
            "gamma": _ratio(pr.gamma),
            "airy_a1": pr.airy_a1,
        }
    elif target == "otc":
        results = {"estimate": _logvalue(otc_asymptotic(d, n))}
    elif target == "tc-envelope":
        results = {"envelope": _logvalue(tc_envelope(d, n))}
        if n <= 200:
            results["max_k_count_over_envelope"] = tc_envelope_ratio(d, [n])[n]
    else:
        # otc_asymptotic_ratio and otc_max_k_ratio from one row, not one each
        estimate = otc_asymptotic(d, n)
        row = otc_row(d, n)
        total = sum(row)
        results = {
            "otc_total_over_asymptotic": estimate.ratio_to(total),
            "otc_total_over_max_k": _ratio(Fraction(total, row[-1])),
        }
        if n <= ceiling("GENERAL"):
            results["tc_total_over_max_k"] = _ratio(ratio_sqrt_e(d, n))
            results["tc_ratio_reference"] = ratio_sqrt_e_reference(d)
    parameters = {"d": d} if target == "params" else {"d": d, "n": n}
    method = "words" if target == "tc-envelope" else "closedform"
    _emit(f"asymp {target}", parameters, results, method, out)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, out) -> None:
    results = verify.run_suite(args.suite, d=args.d, n_max=args.n_max)
    for r in results:
        _emit(
            f"verify {args.suite}",
            {"d": args.d, "n_max": args.n_max},
            {"check": r.name, "passed": r.passed, "details": r.details},
            "words",
            out,
        )
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise ExactnessError(
            f"{len(failed)} of {len(results)} checks failed: {', '.join(failed)}"
        )


# ---------------------------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="treechild",
        description="Exact enumeration of d-combining tree-child networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="single exact count")
    p_count.add_argument("target", choices=list(verify.COUNT_ROUTES))
    p_count.add_argument("--d", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--method")
    p_count.set_defaults(run=_cmd_count)

    p_table = sub.add_parser("table", help="full table up to n-max")
    p_table.add_argument("target", choices=["tc", "otc"])
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_table.add_argument("--format", choices=["csv", "json"], default="json")
    p_table.set_defaults(run=_cmd_table)

    p_dist = sub.add_parser("dist", help="exact reticulation-count law")
    p_dist.add_argument("target", choices=["ret"])
    p_dist.add_argument("--family", choices=["onecomp", "general"], required=True)
    p_dist.add_argument("--d", type=int, required=True)
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--compare", choices=[*_TV_KEYS, "normal"])
    p_dist.set_defaults(run=_cmd_dist)

    p_asymp = sub.add_parser("asymp", help="asymptotic parameters and diagnostics")
    p_asymp.add_argument("target", choices=["params", "otc", "tc-envelope", "ratio"])
    p_asymp.add_argument("--d", type=int, required=True)
    p_asymp.add_argument("--n", type=int)
    p_asymp.set_defaults(run=_cmd_asymp)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument(
        "--suite",
        choices=sorted(verify.SUITES),
        required=True,
    )
    p_verify.add_argument("--d", type=int)
    p_verify.add_argument("--n-max", dest="n_max", type=int)
    p_verify.set_defaults(run=_cmd_verify)

    return parser


def run(argv=None, out=None) -> int:
    """Parse argv and execute; returns the exit code.  The one place that
    turns a failure into an exit code: ExactnessError is 1, any other
    ValueError or ArithmeticError, a RecursionError and a MemoryError are
    2."""
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        args.run(args, out)
    except ExactnessError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RecursionError as exc:
        print(f"error: {exc} (recursion limit {sys.getrecursionlimit()})", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return USAGE_ERROR
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
