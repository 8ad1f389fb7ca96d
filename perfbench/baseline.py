"""Reproduce the ROADMAP baseline rows that the benchmark covers.

    python3 perfbench/baseline.py [--repeat 7]

Each case runs in its own fresh interpreter, --repeat times, one after the
other, and is timed inside that process (wall and CPU time) around the call
alone.  Prints one JSON object with the median, quartiles and range of
each case, so a single-run figure can be told apart from the machine's
run-to-run spread.
"""
from __future__ import annotations

import argparse
import json
import statistics

from run import run_child

CASES = {
    "import treechild": "import treechild",
    "tc_table(2, 200)": "treechild.tc_table(2, 200)",
    "count_tc_words(Params(2, 200, 199))": "treechild.count_tc_words(treechild.Params(2, 200, 199))",
}
TEMPLATE = """
import json, sys, time
sys.path.insert(0, "src")
{pre}
w, c = time.perf_counter(), time.process_time()
{stmt}
print(json.dumps([time.perf_counter() - w, time.process_time() - c]))
"""


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=7)
    args = ap.parse_args(argv)
    out = {}
    for name, stmt in CASES.items():
        pre = "" if stmt.startswith("import") else "import treechild"
        code = TEMPLATE.format(pre=pre, stmt=stmt)
        walls, cpus = [], []
        for _ in range(args.repeat):
            rc, stdout, err = run_child(["-c", code], timeout=300)
            if rc != 0:
                raise SystemExit(f"{name}: exit {rc}: {err[-500:]}")
            wall, cpu = json.loads(stdout.splitlines()[-1])
            walls.append(wall)
            cpus.append(cpu)
        out[name] = {"runs": args.repeat, "wall_s": summary(walls), "cpu_s": summary(cpus)}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
