"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Runs table-sweep reps whose ``words.tc_table`` result has one cell off by
one and requires that each is caught: error_rate above 0 and a stdout
digest that differs from the clean one.  Cell (150, 75) is only caught by
the recorded digest; cell (150, 149) is also caught by the check against
the all-heavy slice.  A clean rep must pass.  Exits 0 when the gate works.
"""
from __future__ import annotations

import json
import sys

from run import Run

CASES = (None, "150,75", "150,149")


def main() -> int:
    ok = True
    clean = None
    for corrupt in CASES:
        run = Run("table-sweep", 0, 0, trace=False)
        res = run.rep(traced=False, check=True, corrupt=corrupt)
        digest = res["stdout_sha256"] if res else None
        error_rate = run.failed / run.attempted
        if corrupt is None:
            clean = digest
            passed = error_rate == 0 and digest == run.expected
        else:
            passed = error_rate > 0 and digest != clean
        ok &= passed
        print(json.dumps({"corrupt_cell": corrupt, "error_rate": error_rate,
                          "stdout_sha256": digest, "recorded_sha256": run.expected,
                          "caught_by": run.problems[:2], "passed": passed}))
    print("gate self-test", "passed" if ok else "FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
