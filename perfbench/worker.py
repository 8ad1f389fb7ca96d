"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--check] [--trace]
                                [--corrupt N,K]

Runs every generated op in this process through ``treechild.cli.run`` with
an in-memory stdout, one after the other (closed loop, one client), then
prints one JSON object: each op's wall time, raw and scaled by the
calibration blocks sampled around and inside it (calibrate.py), exit codes
and output digests, the loop's wall time, and the process's peak RSS.  The
sampler's own time is taken out of every figure.  ``--check`` also checks
every output (see checks.py); ``--trace`` records spans and adds per-layer
metrics; ``--corrupt N,K`` adds one to cell (N, K) of every table returned
by ``words.tc_table`` while the ops run, for the gate self-test.  The
package is imported from the checkout's own ``src/``.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import re
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, rebind  # noqa: E402

CAL_EDGE = 15      # calibration blocks before and after the op loop
CAL_EVERY = 0.05   # and one every this many seconds while it runs
CAL_WINDOW = 0.1   # blocks this close to a short op set its scale

# row-advance probe: the same rows tc_table(2, 200) advances, without the
# per-row conversion of sums into counts
PROBE = (2, 199, 199)


def _corrupt_tc_table(cell):
    """Wrap words.tc_table at every binding so one returned cell is off by
    one while `state["on"]` holds."""
    from treechild import words
    n, k = cell
    state = {"on": True}
    original = words.tc_table

    def corrupted(*args, **kwargs):
        table = original(*args, **kwargs)
        if state["on"] and n in table and k < len(table[n]):
            table[n][k] += 1
        return table

    rebind({id(original): corrupted})
    return state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt")
    args = ap.parse_args(argv)

    from treechild import cli

    ops = workloads.generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    corrupt = None
    if args.corrupt:
        corrupt = _corrupt_tc_table(tuple(int(x) for x in args.corrupt.split(",")))

    run = cli.run  # the traced wrapper when tracing
    outs, rcs, spans, errors = [], [], [], {}
    real_stderr = sys.stderr
    sampler = calibrate.Sampler(CAL_EVERY)
    sampler.edge(CAL_EDGE)
    with sampler:
        start = perf_counter()
        for i, op in enumerate(ops):
            buf, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.op = i
            sys.stderr = err
            t0 = perf_counter()
            try:
                rc = run(op, out=buf)
            except Exception:  # a crash is a failed op, never a crashed benchmark
                rc = None
                err.write(traceback.format_exc())
            t1 = perf_counter()
            sys.stderr = real_stderr
            spans.append((t0, t1))
            rcs.append(rc)
            outs.append(buf.getvalue())
            if rc != 0:
                errors[i] = err.getvalue()[-2000:]
        end = perf_counter()
    sampler.edge(CAL_EDGE)
    wall = end - start - sampler.spent(start, end)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        tracer.enabled = False
    if corrupt:
        corrupt["on"] = False

    op_s = [t1 - t0 - sampler.spent(t0, t1) for t0, t1 in spans]
    op_norm_s = sampler.normalize(spans, CAL_WINDOW)
    encoded = [o.encode() for o in outs]
    result = {
        "ops": len(ops),
        "wall_s": wall,
        "op_s": op_s,
        "rcs": rcs,
        "rss_kb": rss_kb,
        "op_norm_s": op_norm_s,
        "cal_s": median(b for _, _, b in sampler.samples),
        "op_sha256": [hashlib.sha256(b).hexdigest() for b in encoded],
        "stdout_sha256": hashlib.sha256(b"".join(encoded)).hexdigest(),
        "errors": {str(i): e for i, e in errors.items()},
    }
    if args.check:
        import checks
        t0 = perf_counter()
        result["check_failures"] = {
            str(i): msg for i, msg in checks.check(args.workload, ops, outs).items()}
        result["check_s"] = perf_counter() - t0
    if tracer:
        # span times without the sampler's blocks, scaled like their op
        scale = [n / o if o > 0 else 1.0 for n, o in zip(op_norm_s, op_s)]

        def busy(span):
            own = span[6] if span[7] else span[6] - sampler.spent(span[4], span[5])
            return own * (scale[span[3]] if span[3] >= 0 else 1.0)

        layers = tracer.layer_metrics(busy)
        layers["cli.bytes_out"] = sum(len(b) for b in encoded)
        layers["cli.records_out"] = sum(o.count("\n") for o in outs)
        layers["cli.max_digits"] = max(
            (len(m) for o in outs for m in re.findall(r"\d+", o)), default=0)
        layers["words.row_advance_s"] = layers["words.row_to_count_s"] = 0.0
        if args.workload == "table-sweep":
            from treechild import words
            with sampler:
                t0 = perf_counter()
                words.count_words(*PROBE)
                t1 = perf_counter()
            probe = sampler.normalize([(t0, t1)], CAL_WINDOW)[0]
            table_s = sum(b for span, b in zip(tracer.spans, tracer.busy(busy))
                          if span[:2] == ["words", "tc_table"])
            layers["words.row_advance_s"] = probe
            layers["words.row_to_count_s"] = table_s - probe
        layers["trace.coverage"] = sum(
            v for k, v in layers.items() if k.endswith(".self_s")) / sum(op_norm_s)
        result["layers"] = layers
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
