"""Benchmark entry point.

    python3 perfbench/run.py --workload synthesis --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh interpreter
with the checkout's ``src`` on the path, ``PYTHONHASHSEED`` fixed and
``SYNCHRO_THREADS`` removed, so suite fan-out is the default and hashing is
repeatable.  ``--workload all`` runs every workload in turn.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when any
output check failed or the run could not complete.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("synthesis", "threshold", "sweep")
RUN_TIMEOUT_S = 170


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, dict | None]:
    env = {k: v for k, v in os.environ.items() if k != "SYNCHRO_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(proc.stdout, end="")
        print(f"{workload}: worker exited {proc.returncode} without a result", file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "synchro", "cli.py")):
        print("run from the root of a synchro checkout (src/synchro/cli.py not found)", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    code = 0
    for name in names:
        rc, result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return rc
        code = code or rc
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
