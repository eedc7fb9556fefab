#!/usr/bin/env python3
"""Benchmark of selbergfe: four closed-loop workloads, one process each.

    python3 bench/run.py --workload fe_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere inside a source checkout: the program is imported
from the checkout's src/ and nowhere else.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
with --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run with every layer function wrapped.  Lines
before it give raw (unnormalized) figures and failures by check.
Exit code: 0 when every output passed its check or failed only by a
known fault, 1 when an output was wrong, 2 when the run could not start.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
NAMES = ("fe_sweep", "special_grid", "bolza_pipeline", "euler_products")
SETUP_PROBES = 7
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120


def _probe(workload: str) -> tuple:
    """One fresh-interpreter set-up: (wall s from before its start to its
    ready line, s of `import selbergfe` by its own clock)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload],
                          stdout=subprocess.PIPE, cwd=str(ROOT), env=env,
                          text=True) as proc:
        line = proc.stdout.readline()
        total = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=PROBE_TIMEOUT_S) != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} failed")
    return total, json.loads(line)["import_s"]


class _Probes:
    """Set-up probes spread over the measuring phase: one after the first
    round that ends past each n-th of the run, the rest at the end.

    Spread so, they sample the machine over the same seconds as the
    run's kernel samples, and the run scale of the interpreter kernel
    normalizes them; scaling each probe by brackets taken just around it
    made the run-to-run spread wider than the raw one.
    """

    def __init__(self, workload: str, n: int, seconds: float):
        self.workload, self.n, self.every = workload, n, seconds / n
        self.results: list = []

    def __call__(self, elapsed: float) -> None:
        if len(self.results) < self.n and elapsed >= len(self.results) * self.every:
            self.results.append(_probe(self.workload))

    def figures(self, py_scale: float) -> Dict[str, float]:
        """Medians: normalized, and raw under raw_ names."""
        while len(self.results) < self.n:
            self.results.append(_probe(self.workload))
        setup = statistics.median(t for t, _ in self.results)
        imp = statistics.median(i for _, i in self.results)
        return {"setup_s": setup * py_scale, "import_s": imp * py_scale,
                "raw_setup_s": setup, "raw_import_s": imp}


def run_one(args) -> int:
    import selbergfe
    if Path(selbergfe.__file__).resolve().parent != SRC / "selbergfe":
        print(f"error: selbergfe imported from {selbergfe.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing
    import workloads
    from probe import program_setup

    WORKDIR.mkdir(exist_ok=True)
    kernels = harness.Kernels()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    runner = harness.Runner(kernels, tracer)
    setup = runner.bracket(workloads.SETUP_KERNEL.get(args.workload, "py"),
                           lambda: program_setup(args.workload))
    built = workloads.WORKLOADS[args.workload](args.seed, setup, str(WORKDIR))
    info, under = built.info, built.underclaims
    if tracer is None:   # warm caches and lazy imports: one op of each kind
        runner.run_round(list({op.name: op for op in built.ops}.values()))
    probes = _Probes(args.workload,
                     IMPORT_PROBES if tracer is not None else SETUP_PROBES,
                     args.seconds)
    m = runner.measure(built.ops, args.seconds, probes)
    figures = harness.summarize(m, kernels)
    probed = probes.figures(kernels.run_scale("py"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(m.failures.values())
    if under is not None:
        info["err_underclaims"] = f"{len(under.keys)} of {under.evaluations}"

    if tracer is not None:
        metrics = tracer.layer_metrics(runner.scales, m.attempted)
        metrics["cli.import_s"] = probed["import_s"]
        metrics["special.err_underclaims"] = len(under.keys) if under else 0
        metrics["trace.ops_per_s"] = figures["ops_per_s"]
        tracer.dump(str(WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {"setup_s": probed["setup_s"],
                   "ops_per_s": figures["ops_per_s"],
                   "op_p50_ms": figures["op_p50_ms"],
                   "peak_rss_mb": peak_rss_mb}
    units = _units()
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "rounds": m.rounds, "wall_s": m.wall_s, "attempted": m.attempted,
        "failed": failed, "failed_by_check": dict(m.failures), "inputs": info,
        "raw": {k[4:]: v for d in (probed, figures) for k, v in d.items()
                if k.startswith("raw_")},
        "normalized": {k: v for d in (probed, figures) for k, v in d.items()
                       if not k.startswith("raw_")},
        "kernel_ms_median": {k: statistics.median(v) * 1e3
                             for k, v in kernels.samples.items() if v},
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"workload {args.workload}  seed {args.seed}  rounds {m.rounds}  "
          f"attempted {m.attempted}  failed {failed}  by check {dict(m.failures)}")
    for name, value in metrics.items():
        both = "".join(f"   {kind} {detail[kind][name]:.6g}"
                       for kind in ("raw", "normalized") if name in detail[kind])
        print(f"  {name:28s} {value:14.6g} {units.get(name, ''):6s}{both}")
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": m.correct, "attempted": m.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units.get(k, "")}
                                  for k, v in metrics.items()}}))
    for path in WORKDIR.glob("spectrum-L*.txt"):
        path.unlink()
    return 0 if m.correct else 1


def _units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process, then one table of every figure."""
    results, code = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(line for line in lines[:-1]
                                   if not line.startswith("detail ")) + "\n")
        code = max(code, proc.returncode)
        if lines:
            results[name] = json.loads(lines[-1])
    print(f"\n{'workload':16s} {'metric':28s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print(f"{name:16s} {metric:28s} {mv['value']:14.6g} {mv['unit']}")
        print(f"{name:16s} {'attempted / failed':28s} "
              f"{res['attempted']:>8d} / {res['failed']}  correct={res['correct']}")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "selbergfe" / "__init__.py").is_file():
        print(f"error: no selbergfe sources under {SRC}; run this from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
