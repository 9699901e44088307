"""Smoke check of the tracer: every listed function boundary records at
least one span on some workload, and every traced run is correct.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs `run.py --trace 1` once per workload with seed 0 (request classes
have the same counts for every seed, so the seed does not decide which
boundaries are reached) and exits 1, naming the boundaries, if any
boundary saw no call anywhere.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    seen = {name: [] for name in tracer.BOUNDARIES}
    ok = True
    for workload in sorted(workloads.WORKLOADS):
        done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", workload, "--seed", "0",
                               "--seconds", "1", "--trace", "1"],
                              capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"{workload}: run failed\n{done.stderr[-2000:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"{workload}: {result['failed']} of {result['attempted']} requests failed")
            ok = False
        for name in seen:
            if result["metrics"][f"{name}.calls"]["value"] > 0:
                seen[name].append(workload)
    for name, where in seen.items():
        print(f"{name:36s} {', '.join(where) or 'NO SPANS'}")
    missing = [name for name, where in seen.items() if not where]
    if missing:
        print(f"boundaries without spans: {', '.join(missing)}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
