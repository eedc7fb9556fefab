#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, against the bounds.

    python3 bench/steady.py --runs 10

Each of the two sets runs every workload once per seed (set k uses
seeds k*runs+1 .. k*runs+runs).  For each end-to-end metric it prints,
per set, the median and the quartile spread (Q3 - Q1) / median from
statistics.quantiles(n=4), and the drift of the second set's median
against the first set's in the metric's worse direction; both spreads
and the drift must stay within the metric's bound from BENCHMARK.json.
The share of failed ops must be identical in every run.  Raw
(unnormalized) medians are printed beside the normalized ones.  All
per-run results are written to .bench_work/steady-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def run_once(workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return {"code": proc.returncode, "result": json.loads(lines[-1]), "detail": detail}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {}
    for k in range(SETS):
        for name in names:
            for seed in range(k * args.runs + 1, (k + 1) * args.runs + 1):
                t0 = time.perf_counter()
                r = run_once(name, seed, spec["run_seconds"])
                r["wall_s"] = time.perf_counter() - t0
                runs.setdefault(name, []).append({"set": k, "seed": seed, **r})
                print(f"set {k} {name:15s} seed {seed:3d} exit {r['code']} "
                      f"wall {r['wall_s']:5.1f} s  " + "  ".join(
                          f"{m} {v['value']:.6g}"
                          for m, v in r["result"]["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':15s} {'metric':12s} {'bound':>6s} "
          + " ".join(f"{'median' + str(k):>11s} {'spread' + str(k):>8s}"
                     for k in range(SETS))
          + f" {'drift':>7s} {'raw medians':>24s}  verdict")
    for name in names:
        shares = {Fraction(r["result"]["failed"], r["result"]["attempted"])
                  for r in runs[name]}
        correct = all(r["result"]["correct"] and r["code"] == 0 for r in runs[name])
        for metric in spec["end_to_end"]:
            m = metric["name"]
            per_set = [[r["result"]["metrics"][m]["value"] for r in runs[name]
                        if r["set"] == k] for k in range(SETS)]
            raw = [[r["detail"]["raw"].get(m, r["detail"].get(m)) for r in runs[name]
                    if r["set"] == k] for k in range(SETS)]
            meds = [statistics.median(v) for v in per_set]
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in per_set]
            sign = 1 if metric["better"] == "lower" else -1
            drift = sign * (meds[-1] - meds[0]) / meds[0]
            good = drift <= metric["bound"] and max(spreads) <= metric["bound"]
            ok &= good
            raw_meds = " / ".join(f"{statistics.median(v):.4g}" for v in raw if None not in v)
            print(f"{name:15s} {m:12s} {metric['bound']:6.2f} "
                  + " ".join(f"{md:11.5g} {sp:8.4f}" for md, sp in zip(meds, spreads))
                  + f" {drift:+7.4f} {raw_meds:>24s}  {'ok' if good else 'OUT'}")
        print(f"{name:15s} failed share {sorted(str(s) for s in shares)} "
              f"correct={correct}")
        ok &= len(shares) == 1 and correct
    out = ROOT / ".bench_work" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs))
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}; runs written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
