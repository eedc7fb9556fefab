"""Closed-loop timing of one workload, normalized to reference kernels.

The 2-vCPU machine this benchmark was written on changes speed by up to
a factor of two within tens of milliseconds, in wall and CPU time
alike.  So the runner brackets every chunk of timed work (about CHUNK_S
seconds of ops of one kind) with a short reference kernel of the same
kind.  A kernel's scale is NOMINAL[kind] over its measured time, and a
normalized time is a raw time times a scale: the time the work would
take on a machine that runs the kernel in exactly its nominal time.
Per-op latencies use the local scale (the two brackets around their
chunk); throughput uses the run scale (all of the run's samples of that
kind), since over a whole run the ratio of sums tracks the machine
better than single samples do.  Raw times are kept beside both.

Two kernels exist because the speed changes hit interpreter-bound and
array-bound work differently: "py" is a pure-Python loop over small
dicts and tuples, and "array" is a batched 2x2 matmul with masking and
concatenation, the shape of the spectrum enumeration.
"""
from __future__ import annotations

import math
from array import array
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

CHUNK_S = 0.010
# Fixed nominal kernel times: changing them rescales every figure.
NOMINAL = {"py": 0.0005, "array": 0.012}
# Kernel samples per bracket, of which the bracket takes the median: a
# sample that another process preempts reads long, and a bracket of one
# long sample would shrink every op time of its chunk.
BRACKET_SAMPLES = {"py": 5, "array": 3}
PY_ITERS = 60
ARRAY_ROWS = 100_000

# Faults of the program that the workloads keep on purpose: each fails
# on every run, on inputs that do not depend on the seed.
KNOWN_FAULTS = frozenset({"systole-multiplicity", "s2-ladder-recursion"})


class CheckFailed(Exception):
    """An op's output disagreed with its independent check."""

    def __init__(self, name: str, detail: str = ""):
        super().__init__(f"{name}: {detail}" if detail else name)
        self.name = name


@dataclass
class Op:
    """One closed-loop operation: a call into the program and its check.

    `check` receives the call's return value, or the exception it
    raised, and raises CheckFailed when the output is wrong.  Checks
    run after the round, outside the timed region.
    """
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    kernel: str = "py"


def _py_kernel() -> int:
    """Small dicts, tuples, sorting and hashing: interpreter object work."""
    out = 0
    for i in range(PY_ITERS):
        d = {k: (k * i) % 5 - 2 for k in range(-3, 4)}
        e = {k: v for k, v in d.items() if v}
        t = tuple(sorted(e.items()))
        out += len(t) + hash(t) % 3
        m = dict(e)
        for k, v in d.items():
            nv = m.get(-k, 0) - v
            if nv:
                m[-k] = nv
            else:
                m.pop(-k, None)
    return out


class Kernels:
    """The reference kernels, timed on demand."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((ARRAY_ROWS, 2, 2))
        self._m = rng.standard_normal((2, 2))
        self.samples: Dict[str, List[float]] = {"py": [], "array": []}

    def _array_kernel(self) -> int:
        y = self._x @ self._m
        keep = y[:, 0, 0] > 0
        return np.concatenate([y[keep], y[~keep]]).shape[0]

    def time(self, kind: str) -> float:
        """Median time of BRACKET_SAMPLES[kind] kernel runs, all recorded."""
        fn = _py_kernel if kind == "py" else self._array_kernel
        times = []
        for _ in range(BRACKET_SAMPLES[kind]):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        self.samples[kind] += times
        return statistics.median(times)

    def scale(self, kind: str, before: float, after: float) -> float:
        """Local scale of the work between two brackets."""
        return NOMINAL[kind] / ((before + after) / 2)

    def run_scale(self, kind: str) -> float:
        """Scale from every sample of the run: the ratio of sums."""
        return NOMINAL[kind] / statistics.fmean(self.samples[kind])


@dataclass
class Measurement:
    """Per-op times of a run, kept compact: the benchmark's own memory is
    part of the peak RSS it reports, so it must not grow with the op
    count by more than a few bytes per op."""
    raw: array = field(default_factory=lambda: array("d"))     # wall s
    local: array = field(default_factory=lambda: array("d"))   # locally normalized s
    raw_by_kind: Counter = field(default_factory=Counter)      # wall s per kernel kind
    failures: Counter = field(default_factory=Counter)
    rounds: int = 0
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def correct(self) -> bool:
        return all(name in KNOWN_FAULTS for name in self.failures)


class Runner:
    """Runs rounds of ops with kernel brackets; optionally feeds a tracer."""

    def __init__(self, kernels: Kernels, tracer=None):
        self.kernels = kernels
        self.tracer = tracer
        self.scales: List[float] = []   # per traced op: its local scale

    def _begin_op(self) -> int:
        if self.tracer is None:
            return -1
        self.tracer.op_id = len(self.scales)
        self.scales.append(1.0)
        return self.tracer.op_id

    def bracket(self, kind: str, fn: Callable[[], object]):
        """Run fn() once between two kernels, as one traced op."""
        before = self.kernels.time(kind)
        idx = self._begin_op()
        out = fn()
        if idx >= 0:
            self.scales[idx] = self.kernels.scale(kind, before, self.kernels.time(kind))
        return out

    def run_round(self, ops: List[Op]) -> List[list]:
        """Execute ops in order; returns [raw s, local scale, output] per op."""
        results: List[list] = []
        traced: List[int] = []
        i = 0
        before = self.kernels.time(ops[0].kernel)
        while i < len(ops):
            kind = ops[i].kernel
            start = len(results)
            spent = 0.0
            while i < len(ops) and ops[i].kernel == kind and spent < CHUNK_S:
                traced.append(self._begin_op())
                t0 = time.perf_counter()
                try:
                    out = ops[i].call()
                except Exception as exc:  # the op's check judges it
                    # drop the traceback: it would tie this frame, and the
                    # frames of a deep recursion, into a cycle for the GC
                    out = exc.with_traceback(None)
                raw = time.perf_counter() - t0
                spent += raw
                results.append([raw, 1.0, out])
                i += 1
            after = self.kernels.time(kind)
            scale = self.kernels.scale(kind, before, after)
            for j in range(start, len(results)):
                results[j][1] = scale
                if traced[j] >= 0:
                    self.scales[traced[j]] = scale
            if i < len(ops):
                before = after if ops[i].kernel == kind \
                    else self.kernels.time(ops[i].kernel)
        return results

    def measure(self, ops: List[Op], seconds: float,
                between: Callable[[float], None] = lambda elapsed: None) -> Measurement:
        """Whole rounds of ops until `seconds` of wall time have passed.

        `between(elapsed)` runs after each round; its own time does not
        count towards `seconds`.
        """
        m = Measurement()
        t_start = time.perf_counter()
        paused = 0.0
        while True:
            results = self.run_round(ops)
            for op, (raw, scale, out) in zip(ops, results):
                m.raw.append(raw)
                m.local.append(raw * scale)
                m.raw_by_kind[op.kernel] += raw
                try:
                    op.check(out)
                except CheckFailed as exc:
                    m.failures[exc.name] += 1
                except Exception as exc:  # a check that cannot run is a failure
                    m.failures[f"{op.name}:check-error:{type(exc).__name__}"] += 1
            m.rounds += 1
            t_pause = time.perf_counter()
            between(t_pause - t_start - paused)
            paused += time.perf_counter() - t_pause
            if time.perf_counter() - t_start - paused >= seconds:
                break
        m.wall_s = time.perf_counter() - t_start - paused
        return m


def upper_percentile(values: np.ndarray):
    """(p, value) for the highest of p90/p99/p999 with at least ten
    samples above it, or (None, None)."""
    best = None
    for p in (0.9, 0.99, 0.999):
        if len(values) * (1 - p) >= 10:
            best = p
    if best is None:
        return None, None
    ordered = np.sort(values)
    return best, float(ordered[math.ceil(best * len(ordered)) - 1])


def summarize(m: Measurement, kernels: Kernels) -> Dict[str, float]:
    """End-to-end op figures, normalized and raw.

    ops_per_s scales each kind's raw time by the run scale of its kernel,
    op_p50_ms each op by the local scale of its chunk: over a whole run
    the ratio of sums tracks the machine better than single kernel
    samples, while one op sees only the speed of its own moment.
    """
    busy = math.fsum(raw * kernels.run_scale(kind) for kind, raw in m.raw_by_kind.items())
    raw, local = np.frombuffer(m.raw), np.frombuffer(m.local)
    out = {
        "ops_per_s": m.attempted / busy,
        "op_p50_ms": float(np.median(local)) * 1e3,
        "raw_ops_per_s": m.attempted / math.fsum(m.raw),
        "raw_op_p50_ms": float(np.median(raw)) * 1e3,
    }
    p, tail = upper_percentile(local)
    if p is not None:
        label = f"op_p{round(p * 1000) / 10:g}_ms"
        out[label] = tail * 1e3
        out["raw_" + label] = upper_percentile(raw)[1] * 1e3
    return out
