"""treechild benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py):

  table-sweep  table tc --d 2 --n-max 200, JSON
  query-mix    300 short, seeded CLI calls of every kind
  crosscheck   the five verify suites plus seeded cross-method cells

Each repetition ("rep") runs the whole op list of the workload in a fresh
interpreter (worker.py): one client, closed loop, every op through
``treechild.cli.run``.  Reps repeat until S seconds have passed; the first
rep of a run also checks every output (checks.py), later reps must give
the same stdout byte for byte.  Set-up time is sampled in separate fresh
interpreters between reps, each followed by a reference start-up that loads
no treechild code; set-up is scaled by that reference.

Op times are scaled to a reference host speed: a fixed pure-Python block
(calibrate.py) is timed every 50 ms while the ops run, and each op's time
is multiplied by REFERENCE_S over the block's time around it.  The shared
host this was built on changes speed by up to 1.5x in bursts; the scaled
times stay within a few percent where raw ones spread by 10-30%.  The raw
medians are printed on the line before the result.  Metrics are medians
over reps; op_p50_ms and op_p95_ms are medians of each rep's percentile.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 traced reps alternate with untraced ones and it carries the
per-layer metrics (median over traced reps) instead.  The line before it
records the environment, the seed, the argv digest and the stdout digest.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DIGESTS = HERE / "digests.json"
LIMIT_S = 170.0          # every run ends well inside the 180 s budget
SETUP_FIRST = 5          # set-up samples before the first rep
SETUP_PER_REP = 4        # and after every rep
SETUP_MIN = 21
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "from treechild.cli import run; run(['asymp', 'params', '--d', '2'])")
# The reference start-up: the same interpreter start and the standard-library
# modules treechild imports, but no treechild code.  A set-up sample is scaled
# by a reference sample taken right after it, to the host speed at which the
# reference takes STARTUP_REFERENCE_S.  The calibration block tracks start-up
# cost poorly: process creation and module loading slow down less than pure
# bytecode when the host is busy.
STARTUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
                "import argparse, csv, dataclasses, fractions, functools, itertools, "
                "json, math, os, typing; print('{}')")
# median reference start-up on an uncontended 2.1 GHz Xeon vCPU under
# CPython 3.11, the same host speed as calibrate.REFERENCE_S
STARTUP_REFERENCE_S = 0.055
# metric names and units, as BENCHMARK.json defines them
BENCHMARK = ROOT / "BENCHMARK.json"


def environment(seed: int, ops) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": git_commit(),
        "seed": seed,
        "argv_sha256": workloads.argv_digest(ops),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def expected_digest(workload: str, seed: int):
    """The recorded stdout digest for this workload and seed, if any."""
    try:
        table = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return None
    per_seed = table.get(workload, {})
    return per_seed.get("*") or per_seed.get(str(seed))


def run_child(args: list[str], timeout: float) -> tuple[int | None, str, str]:
    """Run a fresh interpreter to completion; (exit code, stdout, stderr).
    The child is killed and reaped if it outlives the timeout."""
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            return None, out, err
    return proc.returncode, out, err


def first_record(code: str) -> tuple[float, str]:
    """Fresh interpreter running code -> its first stdout line written."""
    t0 = perf_counter()
    # unbuffered, so the record reaches the pipe when it is written rather
    # than when the interpreter shuts down
    with subprocess.Popen([sys.executable, "-u", "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait()
        watchdog.cancel()
    return elapsed, line if proc.returncode == 0 else ""


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.ops = workloads.generate(workload, seed)
        self.expected = expected_digest(workload, seed)
        self.start = perf_counter()
        self.setup_s: list[float] = []      # scaled to REFERENCE_S
        self.setup_raw: list[float] = []
        self.startup_raw: list[float] = []  # reference start-ups, one per sample
        self.setup_lines: set[str] = set()
        self.reps: list[dict] = []        # untraced
        self.traced: list[dict] = []
        self.attempted = self.failed = 0
        self.first_digests: list[str] | None = None  # per op, first rep
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return perf_counter() - self.start

    def sample_setup(self, count: int) -> None:
        """count set-up samples, each scaled by the reference start-up
        sampled right after it."""
        for _ in range(count):
            s, line = first_record(SETUP_CODE)
            ref, ref_line = first_record(STARTUP_CODE)
            self.setup_lines.add(line)
            if ref_line.strip() != "{}":
                self.problems.append(f"reference start-up failed: {ref_line!r}")
                self.failed += 1
            self.setup_raw.append(s)
            self.startup_raw.append(ref)
            self.setup_s.append(s * STARTUP_REFERENCE_S / ref)

    def rep(self, traced: bool, check: bool, corrupt: str | None = None) -> dict | None:
        args = [str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        args += ["--check"] * check + ["--trace"] * traced
        if corrupt:
            args += ["--corrupt", corrupt]
        t0 = perf_counter()
        rc, out, err = run_child(args, timeout=max(5.0, LIMIT_S - self.elapsed()))
        wall = perf_counter() - t0
        n = len(self.ops)
        self.attempted += n
        try:
            res = json.loads(out.splitlines()[-1]) if rc == 0 else None
        except (IndexError, ValueError):
            res = None
        if res is None:
            self.failed += n
            self.problems.append(f"worker exit {rc}: {err.strip()[-500:]}")
            return None
        res["proc_wall_s"] = wall
        bad = {int(i) for i, rc_ in enumerate(res["rcs"]) if rc_ != 0}
        for i, msg in res["errors"].items():
            self.problems.append(f"op {i} {' '.join(self.ops[int(i)])}: {msg.strip()[-300:]}")
        if check:
            bad |= {int(i) for i in res["check_failures"]}
            self.problems += list(res["check_failures"].values())
        if self.first_digests is None:
            self.first_digests = res["op_sha256"]
        else:
            changed = {i for i, (a, b) in enumerate(zip(self.first_digests, res["op_sha256"]))
                       if a != b}
            if changed:
                self.problems.append(f"ops {sorted(changed)[:10]} changed stdout between reps")
            bad |= changed
        if self.expected and res["stdout_sha256"] != self.expected:
            self.problems.append(f"stdout sha256 {res['stdout_sha256']} != recorded {self.expected}")
            if not bad:
                bad = {-1}  # the recorded digest names no op; count one
        res["failed"] = len(bad)
        self.failed += len(bad)
        (self.traced if traced else self.reps).append(res)
        return res

    def execute(self) -> None:
        self.sample_setup(SETUP_FIRST)
        walls: list[float] = []
        traced_next = False
        while True:
            traced = self.trace and traced_next
            res = self.rep(traced=traced, check=not (self.reps or self.traced))
            self.sample_setup(SETUP_PER_REP)
            if res is None:
                break
            # only the first rep checks; later ones take no check time
            walls.append(res["proc_wall_s"] - res.get("check_s", 0.0)
                         + SETUP_PER_REP * (statistics.median(self.setup_raw)
                                            + statistics.median(self.startup_raw)))
            if self.trace:
                traced_next = not traced_next
            need_more = self.trace and not (self.reps and self.traced)
            projected = self.elapsed() + statistics.median(walls)
            if projected > LIMIT_S - 10 or (projected > self.seconds and not need_more):
                break
        if len(self.setup_s) < SETUP_MIN:
            self.sample_setup(SETUP_MIN - len(self.setup_s))
        if len(self.setup_lines) != 1 or not _setup_record_ok(next(iter(self.setup_lines))):
            self.problems.append(f"set-up record wrong: {sorted(self.setup_lines)}")
            self.failed += 1

    def end_to_end(self, normalized: bool = True) -> dict:
        """Medians over reps.  Normalized times are each op's wall time
        scaled by the calibration blocks around it; raw ones are as read."""
        reps = self.reps or self.traced
        med = statistics.median
        ops = "op_norm_s" if normalized else "op_s"

        def run_s(r):
            return sum(r["op_norm_s"]) if normalized else r["wall_s"]

        return {
            "setup_s": med(self.setup_s if normalized else self.setup_raw),
            "run_s": med(run_s(r) for r in reps),
            "ops_per_s": med((r["ops"] - r["failed"]) / run_s(r) for r in reps),
            "op_p50_ms": med(percentile(r[ops], 0.50) for r in reps) * 1e3,
            "op_p95_ms": med(percentile(r[ops], 0.95) for r in reps) * 1e3,
            "peak_rss_mb": med(r["rss_kb"] for r in reps) / 1024,
        }

    def per_layer(self, units: dict) -> dict:
        out = {}
        for name, unit in units.items():
            values = [r["layers"][name] for r in self.traced if name in r["layers"]]
            value = statistics.median(values) if values else 0
            out[name] = int(value) if unit == "count" and value == int(value) else value
        if self.reps and self.traced:
            out["trace.overhead"] = (statistics.median(sum(r["op_norm_s"]) for r in self.traced)
                                     / statistics.median(sum(r["op_norm_s"]) for r in self.reps))
        out["error_rate"] = self.failed / self.attempted
        return out

    def result(self) -> dict:
        units = metric_units("per_layer" if self.trace else "end_to_end")
        values = self.per_layer(units) if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }


def metric_units(section: str) -> dict:
    """{name: unit} of one metric list of BENCHMARK.json, in its order."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def percentile(values: list[float], q: float) -> float:
    """Inclusive-method quantile of one rep's op times; a rep of one op
    gives that op's time."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _setup_record_ok(line: str) -> bool:
    try:
        rec = json.loads(line)
    except ValueError:
        return False
    return (rec.get("command") == "asymp params" and rec.get("parameters") == {"d": 2}
            and set(rec.get("results", {})) == {"alpha", "beta", "gamma", "airy_a1"})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "treechild" / "cli.py").is_file():
        print(f"no treechild sources under {ROOT / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    for line in run.problems[:20]:
        print(line, file=sys.stderr)
    reps = run.reps or run.traced
    if not reps:
        print("no rep finished; nothing to report", file=sys.stderr)
        return 1
    result = run.result()
    print(json.dumps({
        "env": environment(args.seed, run.ops),
        "workload": args.workload,
        "reps": len(run.reps),
        "traced_reps": len(run.traced),
        "setup_samples": len(run.setup_s),
        "stdout_sha256": reps[0]["stdout_sha256"],
        "recorded_sha256": run.expected,
        "raw": run.end_to_end(normalized=False),
        "cal_s": statistics.median(r["cal_s"] for r in reps),
        "elapsed_s": run.elapsed(),
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
