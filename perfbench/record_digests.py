"""Record the stdout sha256 of workloads into digests.json.

    python3 perfbench/record_digests.py --workload query-mix --seeds 0-31

Each (workload, seed) runs once in a fresh worker with every output
checked; nothing is recorded unless every op exits 0 and passes its check.
table-sweep's input does not depend on the seed, so it is stored under
"*".  run.py then counts a rep whose stdout differs from the recorded
digest as failed, so a later commit must reproduce these bytes exactly.
"""
from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, HERE, run_child
import workloads


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=seeds_arg, default=[0])
    args = ap.parse_args(argv)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    per_seed = table.setdefault(args.workload, {})
    seeds = [0] if args.workload == "table-sweep" else args.seeds
    for seed in seeds:
        rc, out, err = run_child([str(HERE / "worker.py"), "--workload", args.workload,
                                  "--seed", str(seed), "--check"], timeout=600)
        res = json.loads(out.splitlines()[-1]) if rc == 0 else None
        if res is None or any(res["rcs"]) or res["check_failures"]:
            print(f"seed {seed}: not recorded: {err[-500:] if res is None else res['check_failures']}",
                  file=sys.stderr)
            return 1
        key = "*" if args.workload == "table-sweep" else str(seed)
        per_seed[key] = res["stdout_sha256"]
        print(args.workload, key, res["stdout_sha256"])
    table[args.workload] = dict(sorted(per_seed.items(), key=lambda kv: (len(kv[0]), kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
