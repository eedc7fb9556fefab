#!/usr/bin/env python3
"""Benchmark A/B: bench/run.py on two source trees, from one directory.

    python3 tools/bench_ab.py PARENT CHANGE --workload euler_products \
        --seed 1 --pairs 5 > ab.json

PARENT and CHANGE are source checkouts (clean exports, say) whose
bench/ and BENCHMARK.json are byte-identical; the script refuses to run
otherwise, with exit code 2 and the names of the files that differ.
Both sides run from one fixed directory, a fresh temporary one holding
PARENT's bench/ and BENCHMARK.json: before each run its src/ is
replaced by a copy of that side's src/ (byte-code left out) and its
.bench_work/ is removed, so the two sides differ in src/ alone.
Each run is `python3 -B bench/run.py --workload W --seed S --seconds T
--trace 0` with PYTHONDONTWRITEBYTECODE=1, so neither the run nor its
set-up probes write byte-code; T is BENCHMARK.json's run_seconds.  Each
pair runs both sides, the first side alternating from pair to pair.
Standard output gets one JSON object: every run (exit code, attempted,
failed ops by check, the end-to-end metrics and the raw figures before
normalization) and, per end-to-end metric and raw set-up time, each
side's median and quartiles, the ratio of the medians and the number of
pairs in which the change reads better.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SHARED = ("bench", "BENCHMARK.json")


def _files(checkout: Path) -> dict:
    """Relative path -> bytes of every file under SHARED, byte-code left out."""
    out = {}
    for name in SHARED:
        top = checkout / name
        paths = [top] if top.is_file() else sorted(top.rglob("*"))
        for path in paths:
            if path.is_file() and "__pycache__" not in path.parts:
                out[str(path.relative_to(checkout))] = path.read_bytes()
    return out


def _run(root: Path, src: Path, args, seconds: float) -> dict:
    shutil.rmtree(root / "src", ignore_errors=True)
    shutil.rmtree(root / ".bench_work", ignore_errors=True)
    shutil.copytree(src, root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-B", "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = {"exit": proc.returncode}
    if proc.returncode in (0, 1) and lines:
        last = json.loads(lines[-1])
        detail = json.loads(next(line for line in lines
                                 if line.startswith("detail "))[7:])
        result.update(
            attempted=last["attempted"], failed=last["failed"],
            failed_by_check=detail["failed_by_check"],
            metrics={k: v["value"] for k, v in last["metrics"].items()},
            raw=detail["raw"])
    return result


def _summary(runs: list, spec: dict) -> dict:
    """Per metric: each side's median and quartiles, the change/parent
    ratio of the medians and the pairs in which the change reads better."""
    figures = [(m["name"], m["better"], lambda r, n=m["name"]: r["metrics"][n])
               for m in spec["end_to_end"]]
    figures.append(("raw_setup_s", "lower", lambda r: r["raw"]["setup_s"]))
    ok = [r for r in runs if "metrics" in r]
    out = {}
    for name, better, get in figures:
        row = {}
        for side in ("parent", "change"):
            values = [get(r) for r in ok if r["side"] == side]
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4,
                                                   method="inclusive")
            else:
                q1 = med = q3 = values[0] if values else None
            row[side] = {"median": med, "q1": q1, "q3": q3}
        if row["parent"]["median"] and row["change"]["median"] is not None:
            row["ratio"] = row["change"]["median"] / row["parent"]["median"]
        pairs = {}
        for r in ok:
            pairs.setdefault(r["pair"], {})[r["side"]] = get(r)
        sign = 1 if better == "lower" else -1
        row["change_better_pairs"] = sum(
            sign * (p["parent"] - p["change"]) > 0
            for p in pairs.values() if len(p) == 2)
        row["pairs"] = sum(len(p) == 2 for p in pairs.values())
        out[name] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("parent", "change"):
        ap.add_argument(name)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=5)
    args = ap.parse_args()
    sides = {name: Path(getattr(args, name)).resolve()
             for name in ("parent", "change")}
    files = [_files(sides[name]) for name in ("parent", "change")]
    differ = sorted(path for path in files[0].keys() | files[1].keys()
                    if files[0].get(path) != files[1].get(path))
    if differ:
        print("error: the two sides' bench/ or BENCHMARK.json differ: "
              + ", ".join(differ), file=sys.stderr)
        return 2
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    root = Path(tempfile.mkdtemp(prefix="selbergfe-ab-"))
    runs = []
    try:
        for name in SHARED:
            source = sides["parent"] / name
            if source.is_dir():
                shutil.copytree(source, root / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, root / name)
        for pair in range(args.pairs):
            for side in sorted(sides, reverse=pair % 2 == 1):
                runs.append(dict(pair=pair, side=side, **_run(
                    root, sides[side] / "src", args, spec["run_seconds"])))
                print(json.dumps(runs[-1]), file=sys.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({"sides": {k: str(v) for k, v in sides.items()},
                      "run_dir": str(root), "workload": args.workload,
                      "seed": args.seed, "seconds": spec["run_seconds"],
                      "runs": runs, "summary": _summary(runs, spec)},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
