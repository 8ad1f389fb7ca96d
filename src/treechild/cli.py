"""Command-line interface emitting machine-readable records.

Counts, tables, distributions, asymptotic diagnostics and verification
suites, as JSON Lines on stdout (one record per line) or RFC-4180 CSV for
tables.  Serialization rules: integer counts are decimal strings (never
floats), exact rationals are numerator/denominator string pairs, floats
carry full double precision (17 significant digits survive the round
trip), and every record names the method that produced it.

Exit codes: 0 success, 1 verification failure, 2 usage error.

Environment variables override only the safety ceilings, never science
parameters: TREECHILD_WORD_CEILING, TREECHILD_BLOWUP_N_CEILING,
TREECHILD_BLOWUP_K_CEILING, TREECHILD_ONECOMP_CEILING,
TREECHILD_GENERAL_CEILING.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import compgraphs, distributions, verify, words
from .asymptotics import (
    otc_asymptotic,
    otc_asymptotic_ratio,
    otc_max_k_ratio,
    params as asymptotic_params,
    ratio_sqrt_e,
    ratio_sqrt_e_reference,
    tc_envelope,
    tc_envelope_ratio,
)
from .onecomp import count_otc, count_otc_direct, count_otc_total
from .params import Params

VERIFY_FAILED = 1
USAGE_ERROR = 2


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"environment variable {name} must be an integer, got {raw!r}")


def _count(v: int) -> str:
    # Decimal holds every digit exactly and, unlike str(), is not capped by
    # the interpreter's limit on int-to-string conversion
    return format(Decimal(v), "f")


def _ratio(fr) -> dict:
    fr = Fraction(fr)
    return {"numerator": _count(fr.numerator), "denominator": _count(fr.denominator)}


def _float17(x: float) -> float:
    # normalizing through 17 significant digits keeps the full double
    return float(f"{x:.17g}")


def _logvalue(lv) -> dict:
    m, e = lv.to_mantissa_exponent()
    return {
        "ln": _float17(lv.ln),
        "log10": _float17(lv.log10),
        "mantissa": _float17(m),
        "exponent10": e,
    }


def _emit(record: dict, out) -> None:
    json.dump(record, out, separators=(",", ":"))
    out.write("\n")


def _record(command: str, parameters: dict, results: dict, method: str) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "results": results,
        "method": method,
    }


# ---------------------------------------------------------------------------
# count


def _cmd_count(args, out) -> int:
    d, n, k = args.d, args.n, args.k
    target = args.target
    method = args.method
    pairs = []  # (method tag, value)

    if target == "tc":
        if k is None:
            if method not in (None, "words"):
                raise SystemExit("totals are only computed via the word recurrence")
            pairs.append(("words", words.count_tc_total(d, n)))
        else:
            p = Params(d, n, k)
            chosen = method or "words"
            route = {
                "words": lambda: words.count_tc_words(p),
                "compgraph": lambda: compgraphs.count_tc_compgraph(
                    p,
                    n_ceiling=_env_int("TREECHILD_BLOWUP_N_CEILING", compgraphs.DEFAULT_BLOWUP_N_CEILING),
                    k_ceiling=_env_int("TREECHILD_BLOWUP_K_CEILING", compgraphs.DEFAULT_BLOWUP_K_CEILING),
                ),
                "genfun": lambda: {
                    1: compgraphs.count_tc_genfun_k1,
                    2: compgraphs.count_tc_genfun_k2,
                }[k](d, n),
                "closedform": lambda: {
                    1: compgraphs.tc_k1_closed_form,
                    2: compgraphs.tc_k2_closed_form,
                }[k](d, n),
            }
            if chosen == "all":
                selected = ["words", "compgraph"]
                if k in (1, 2):
                    selected.append("genfun")
                    if d in (2, 3):
                        selected.append("closedform")
            else:
                if chosen not in route:
                    raise SystemExit(f"unknown method {chosen!r} for count tc")
                if chosen in ("genfun", "closedform") and k not in (1, 2):
                    raise SystemExit(f"method {chosen!r} covers k = 1, 2 only")
                if chosen == "closedform" and d not in (2, 3):
                    raise SystemExit("closed forms cover d = 2, 3 only")
                selected = [chosen]
            for tag in selected:
                pairs.append((tag, route[tag]()))
    elif target == "otc":
        if method not in (None, "closedform", "all"):
            raise SystemExit(f"unknown method {args.method!r} for count otc")
        if k is None:
            pairs.append(("closedform", count_otc_total(d, n)))
        else:
            pairs.append(("closedform", count_otc(d, n, k)))
            if method == "all":
                pairs.append(("direct", count_otc_direct(d, n, k)))
    elif target == "words":
        if k is None:
            raise SystemExit("count words requires --k")
        chosen = method or "words"
        if chosen not in ("words", "bruteforce", "all"):
            raise SystemExit(f"unknown method {chosen!r} for count words")
        ceiling = _env_int("TREECHILD_WORD_CEILING", words.DEFAULT_ENUM_CEILING)
        if chosen in ("words", "all"):
            pairs.append(("words", words.count_words(d, n, k)))
        if chosen in ("bruteforce", "all"):
            pairs.append(("bruteforce", words.count_words_direct(d, n, k, ceiling=ceiling)))
    elif target == "compgraphs":
        if method not in (None, "compgraph"):
            raise SystemExit(f"unknown method {args.method!r} for count compgraphs")
        if k is None:
            pairs.append(("compgraph", compgraphs.count_component_graphs_total(d, n)))
        else:
            pairs.append(("compgraph", compgraphs.count_component_graphs(d, n, k)))
    elif target == "star":
        if method not in (None, "closedform"):
            raise SystemExit(f"unknown method {args.method!r} for count star")
        if k is None:
            raise SystemExit("count star requires --k")
        pairs.append(("closedform", compgraphs.count_star(Params(d, n, k))))

    values = {v for _, v in pairs}
    if len(values) > 1:
        found = ", ".join(f"{tag}={_count(v)}" for tag, v in pairs)
        print(f"methods disagree: {found}", file=sys.stderr)
        return VERIFY_FAILED
    parameters = {"d": d, "n": n}
    if k is not None:
        parameters["k"] = k
    for tag, value in pairs:
        _emit(
            _record(f"count {target}", parameters, {"value": _count(value)}, tag),
            out,
        )
    return 0


# ---------------------------------------------------------------------------
# table


def _table_rows(target: str, d: int, n_max: int):
    if target == "tc":
        table = words.tc_table(d, n_max)
        return [(n, table[n]) for n in range(1, n_max + 1)], "words"
    table = {
        n: [count_otc(d, n, k) for k in range(n)] for n in range(1, n_max + 1)
    }
    return [(n, table[n]) for n in range(1, n_max + 1)], "closedform"


def _cmd_table(args, out) -> int:
    rows, method = _table_rows(args.target, args.d, args.n_max)
    if args.format == "csv":
        writer = csv.writer(out)
        writer.writerow(["n"] + [f"k={k}" for k in range(args.n_max)])
        for n, values in rows:
            writer.writerow([n] + [_count(v) for v in values] + [""] * (args.n_max - n))
    else:
        for n, values in rows:
            _emit(
                _record(
                    f"table {args.target}",
                    {"d": args.d, "n_max": args.n_max, "n": n},
                    {"counts": [_count(v) for v in values]},
                    method,
                ),
                out,
            )
    return 0


# ---------------------------------------------------------------------------
# dist


def _cmd_dist(args, out) -> int:
    family, d, n = args.family, args.d, args.n
    pmf = distributions.ret_pmf(
        family,
        d,
        n,
        onecomp_ceiling=_env_int("TREECHILD_ONECOMP_CEILING", distributions.DEFAULT_ONECOMP_CEILING),
        general_ceiling=_env_int("TREECHILD_GENERAL_CEILING", distributions.DEFAULT_GENERAL_CEILING),
    )
    results: dict = {
        "support": list(pmf.support),
        "mass": {str(k): _ratio(pmf.p(k)) for k in pmf.support},
    }
    method = "closedform" if family == "onecomp" else "words"
    if args.compare:
        shifted = pmf.remap(lambda k: n - 1 - k)
        if args.compare == "poisson":
            ref = distributions.reference_pmf("poisson")
            results["tv_to_poisson_half"] = _float17(
                distributions.total_variation(shifted, ref)
            )
        elif args.compare == "bessel":
            ref = distributions.reference_pmf("bessel")
            results["tv_to_bessel_1_2"] = _float17(
                distributions.total_variation(shifted, ref)
            )
        elif args.compare == "dirac":
            ref = distributions.reference_pmf("dirac")
            results["tv_to_dirac_0"] = _float17(
                distributions.total_variation(shifted, ref)
            )
        elif args.compare == "normal":
            if family != "onecomp" or d != 2:
                raise SystemExit("--compare normal applies to --family onecomp --d 2")
            results["normal_sup_gap"] = _float17(
                distributions.normal_cdf_diagnostic(n)
            )
    _emit(
        _record("dist ret", {"family": family, "d": d, "n": n}, results, method),
        out,
    )
    return 0


# ---------------------------------------------------------------------------
# asymp


def _cmd_asymp(args, out) -> int:
    d = args.d
    if args.target == "params":
        pr = asymptotic_params(d)
        _emit(
            _record(
                "asymp params",
                {"d": d},
                {
                    "alpha": _ratio(pr.alpha),
                    "beta": _float17(pr.beta),
                    "gamma": _ratio(pr.gamma),
                    "airy_a1": _float17(pr.airy_a1),
                },
                "closedform",
            ),
            out,
        )
        return 0
    if args.n is None:
        raise SystemExit(f"asymp {args.target} requires --n")
    n = args.n
    if args.target == "otc":
        _emit(
            _record(
                "asymp otc",
                {"d": d, "n": n},
                {"estimate": _logvalue(otc_asymptotic(d, n))},
                "closedform",
            ),
            out,
        )
    elif args.target == "tc-envelope":
        results = {"envelope": _logvalue(tc_envelope(d, n))}
        if n <= 200:
            results["max_k_count_over_envelope"] = _float17(
                tc_envelope_ratio(d, [n])[n]
            )
        _emit(_record("asymp tc-envelope", {"d": d, "n": n}, results, "words"), out)
    elif args.target == "ratio":
        results = {
            "otc_total_over_asymptotic": _float17(otc_asymptotic_ratio(d, n)),
            "otc_total_over_max_k": _ratio(otc_max_k_ratio(d, n)),
        }
        if n <= _env_int("TREECHILD_GENERAL_CEILING", distributions.DEFAULT_GENERAL_CEILING):
            results["tc_total_over_max_k"] = _ratio(ratio_sqrt_e(d, n))
            results["tc_ratio_reference"] = _float17(ratio_sqrt_e_reference(d))
        _emit(_record("asymp ratio", {"d": d, "n": n}, results, "closedform"), out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, out) -> int:
    results = verify.run_suite(args.suite, d=args.d, n_max=args.n_max)
    failed = 0
    for r in results:
        _emit(
            _record(
                f"verify {args.suite}",
                {"d": args.d, "n_max": args.n_max},
                {"check": r.name, "passed": r.passed, "details": r.details},
                "words",
            ),
            out,
        )
        failed += not r.passed
    return VERIFY_FAILED if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treechild",
        description="Exact enumeration of d-combining tree-child networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="single exact count")
    p_count.add_argument(
        "target", choices=["tc", "otc", "words", "compgraphs", "star"]
    )
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
    p_dist.add_argument("--compare", choices=["poisson", "bessel", "dirac", "normal"])
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
    """Parse argv and execute; returns the exit code."""
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.run(args, out)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return USAGE_ERROR
        return exc.code if exc.code is not None else 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
