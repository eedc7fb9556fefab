#!/usr/bin/env python3
"""Tier-1 suite A/B: wall time and peak RSS of `pytest -q`, fresh processes.

    python3 tools/tier1_ab.py PARENT CHANGE --pairs 3 > tier1.json

PARENT and CHANGE are clean source exports (git archive), no byte-code.
Each run is `python -B -m pytest -q -p no:cacheprovider` in one, its
src/ on PYTHONPATH, one process at a time; each pair runs both sides,
the first side alternating from pair to pair.  A run records its wall
time, exit code, the pytest summary line and the child's ru_maxrss (from
os.wait4: the pytest process itself, not the CLI subprocesses it starts).
Standard output gets one JSON object: every run and each side's medians.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-B", "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    with proc.stdout:
        lines = proc.stdout.read().strip().splitlines()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": round(time.perf_counter() - t0, 3),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1),   # KiB on Linux
            "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("parent", "change"):
        ap.add_argument(name)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = []
    for pair in range(args.pairs):
        for side in sorted(sides, reverse=pair % 2 == 1):
            runs.append(dict(pair=pair, side=side, **run(sides[side])))
            print(json.dumps(runs[-1]), file=sys.stderr)
    medians = {side: {key: statistics.median(r[key] for r in runs
                                             if r["side"] == side)
                      for key in ("wall_s", "maxrss_mb")} for side in sides}
    print(json.dumps({"sides": sides, "runs": runs, "medians": medians},
                     indent=1))


if __name__ == "__main__":
    main()
