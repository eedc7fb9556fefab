#!/usr/bin/env python3
"""Per-op A/B: each op of a bench/ workload timed in-process, two trees.

    python3 tools/op_ab.py PARENT CHANGE --workload bolza_pipeline \
        --seed 7 --pairs 3 > ops.json

PARENT and CHANGE are source checkouts whose bench/ and BENCHMARK.json
are byte-identical; the script refuses to run otherwise, with exit code
2 and the names of the files that differ, as tools/bench_ab.py does,
and runs both sides from one directory in the same way, src/ swapped
in before each run.  A run is one fresh `python3 -B` process: it builds
the workload of bench/workloads.py for the seed (the program set-up of
bench/probe.py included), calls every op once to warm caches, then calls
the ops in round order for BENCHMARK.json's run_seconds, timing each
call with time.perf_counter.  Nothing is normalized, no reference
kernel runs and no output is checked: bench/run.py does that.  Each
pair runs both sides, the first side alternating from pair to pair.
Standard output gets one JSON object: per op, labelled by its position
in the round and its name, each side's raw median ms over all its calls
and the median of each run, the change/parent ratio of the medians and
the number of pairs in which the change's run median is lower; and the
same for all ops together, the raw counterpart of op_p50_ms.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from bench_ab import differing, shared_root, swap_in

# The child: times the workload's ops in round order; prints one JSON
# line of [op label, [seconds per call, ...]] pairs.
_TIMER = """
import json, sys, time
from pathlib import Path
sys.path[:0] = ["src", "bench"]
import workloads
from probe import program_setup
workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
work = Path(".bench_work").resolve()
work.mkdir(exist_ok=True)
ops = workloads.WORKLOADS[workload](seed, program_setup(workload),
                                   str(work)).ops
for op in ops:
    op.call()
times = [[] for _ in ops]
start = time.perf_counter()
while time.perf_counter() - start < seconds:
    for op, spent in zip(ops, times):
        t0 = time.perf_counter()
        op.call()
        spent.append(time.perf_counter() - t0)
print(json.dumps([[f"{i:02d} {op.name}", spent]
                  for i, (op, spent) in enumerate(zip(ops, times))]))
"""


def _run(root: Path, src: Path, args, seconds: float) -> dict:
    """One process of one side: {op label: [ms per call, ...]}."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TIMER, args.workload, str(args.seed),
         str(seconds)], cwd=root, env=swap_in(root, src),
        stdout=subprocess.PIPE, text=True, check=True)
    return {label: [t * 1e3 for t in spent]
            for label, spent in json.loads(proc.stdout.strip().splitlines()[-1])}


def _row(runs: list, get) -> dict:
    """Each side's median over all calls and per run, the ratio of the
    medians and the pairs whose change run median is the lower."""
    row = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        row[side] = {
            "median_ms": statistics.median(t for r in mine for t in get(r)),
            "run_medians_ms": [statistics.median(get(r)) for r in mine]}
    row["ratio"] = row["change"]["median_ms"] / row["parent"]["median_ms"]
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = statistics.median(get(r))
    row["change_better_pairs"] = sum(p["change"] < p["parent"]
                                     for p in pairs.values())
    row["pairs"] = len(pairs)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("parent", "change"):
        ap.add_argument(name)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    sides = {name: Path(getattr(args, name)).resolve()
             for name in ("parent", "change")}
    differ = differing(sides)
    if differ:
        print("error: the two sides' bench/ or BENCHMARK.json differ: "
              + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    root = shared_root(sides["parent"])
    runs = []
    try:
        for pair in range(args.pairs):
            for side in sorted(sides, reverse=pair % 2 == 1):
                runs.append({"pair": pair, "side": side, "ops": _run(
                    root, sides[side] / "src", args, spec["run_seconds"])})
                print(json.dumps({"pair": pair, "side": side, "calls": sum(
                    map(len, runs[-1]["ops"].values()))}), file=sys.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    labels = list(runs[0]["ops"])
    ops = {label: _row(runs, lambda r, k=label: r["ops"][k])
           for label in labels}
    ops["all ops"] = _row(runs, lambda r: [t for k in labels
                                           for t in r["ops"][k]])
    print(json.dumps({"sides": {k: str(v) for k, v in sides.items()},
                      "workload": args.workload, "seed": args.seed,
                      "seconds": spec["run_seconds"], "ops": ops}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
