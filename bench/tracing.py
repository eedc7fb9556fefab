"""Spans at the layer boundaries of selbergfe, for the traced run only.

Each public function named in LAYERS is replaced by a timing wrapper,
in its own module and wherever another module of the package (its
namespace, `formal`, `cli`) holds a reference to it, so calls
between layers are captured too, e.g. cli -> geodesics and
log_gamma_r -> hurwitz_zeta_dw.  Spans are kept in memory and written
out at the end.  A span's self time is its duration minus the time its
direct child spans cover; summing self time over the spans of a layer
gives the time spent in that layer's own code.  No file of the program
is changed.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# (module, function) -> layer metric prefix
LAYERS = {
    ("laurent", "parse_poly"): "laurent.parse",
    ("laurent", "detect_automorphy"): "laurent.classify",
    ("formal", "verify_theorem2"): "formal.zeta_verdict",
    ("formal", "verify_theorem3"): "formal.zeta_verdict",
    ("formal", "verify_Z_fe"): "formal.Z_verdict",
    ("special", "hurwitz_zeta"): "special.hurwitz",
    ("special", "hurwitz_zeta_dw"): "special.hurwitz",
    ("special", "multiple_hurwitz_zeta"): "special.hurwitz",
    ("special", "log_gamma_r"): "special.log_gamma",
    ("special", "sine_r"): "special.sine",
    ("special", "s_M"): "special.sine",
    ("special", "selberg_fe_factor"): "special.quad",
    ("geodesics", "enumerate_spectrum"): "geodesics.enumerate",
    ("geodesics", "save_spectrum"): "geodesics.io",
    ("geodesics", "load_spectrum"): "geodesics.io",
    ("geodesics", "selberg_Z"): "geodesics.euler",
    ("geodesics", "euler_zeta"): "geodesics.euler",
    ("geodesics", "zeta_motive_numeric"): "geodesics.euler",
    ("geodesics", "geodesic_count"): "geodesics.count",
    ("geodesics", "pgt_table"): "geodesics.count",
    ("cli", "main"): "cli",
}

# layer prefix -> (calls-per-op metric, normalized self-seconds-per-op metric)
_METRICS = {
    "laurent.parse": ("laurent.parse_calls", "laurent.parse_s"),
    "laurent.classify": ("laurent.classify_calls", "laurent.classify_s"),
    "formal.zeta_verdict": ("formal.zeta_verdicts", "formal.zeta_verdict_s"),
    "formal.Z_verdict": ("formal.Z_verdicts", "formal.Z_verdict_s"),
    "special.hurwitz": ("special.hurwitz_calls", "special.hurwitz_s"),
    "special.log_gamma": ("special.log_gamma_calls", "special.log_gamma_s"),
    "special.sine": ("special.sine_calls", "special.sine_s"),
    "special.quad": ("special.quad_calls", "special.quad_s"),
    "geodesics.enumerate": ("geodesics.enumerate_calls", "geodesics.enumerate_s"),
    "geodesics.io": ("geodesics.io_calls", "geodesics.io_s"),
    "geodesics.euler": ("geodesics.euler_calls", "geodesics.euler_s"),
    "geodesics.count": ("geodesics.count_calls", "geodesics.count_s"),
    "cli": ("cli.calls", "cli.self_s"),
}


def install(wrap: Callable[[Callable, Tuple[str, str]], Callable]) -> None:
    """Replace every LAYERS function fn by wrap(fn, (module, name)), in
    its own module and wherever a module of selbergfe holds a reference
    to it.  Modules imported afterwards pick up the replacements."""
    replace = {}
    for key in LAYERS:
        original = getattr(importlib.import_module(f"selbergfe.{key[0]}"), key[1])
        replace[id(original)] = wrap(original, key)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "selbergfe"
                                  or name.startswith("selbergfe.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)


class Tracer:
    """Span recorder; `op_id` is set by the runner before each op."""

    def __init__(self):
        # [op_id, layer, parent span index, start_ns, end_ns, child_ns]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op_id = -1
        # sizes of the largest spectrum any wrapped call returned
        self.sizes = {"geodesics.classes": 0, "geodesics.entries": 0}

    def _wrap(self, fn, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.op_id, layer, stack[-1] if stack else -1, clock(), 0, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += span[4] - span[3]
            entries = getattr(result, "entries", None)
            if entries is not None and len(entries) > self.sizes["geodesics.entries"]:
                self.sizes["geodesics.entries"] = len(entries)
                self.sizes["geodesics.classes"] = sum(m for _, m in entries)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every LAYERS function in a span recorder."""
        install(lambda fn, key: self._wrap(fn, LAYERS[key]))

    def layer_metrics(self, scales: List[float], attempted: int) -> Dict[str, float]:
        """Calls and normalized self seconds per layer, per op, plus
        spectrum sizes.

        Op 0 is the program's set-up, which runs once per process: its
        spans count whole.  The spans of the measured ops are divided by
        the ops attempted, so a figure follows the layer's cost per op
        and not the length of the run.
        """
        calls: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        for op_id, layer, _, t0, t1, child in self.spans:
            share = 1.0 if op_id == 0 else 1.0 / attempted
            calls[layer] += share
            self_s[layer] += (t1 - t0 - child) * 1e-9 * scales[op_id] * share
        out: Dict[str, float] = {}
        for layer, (calls_name, self_name) in _METRICS.items():
            out[calls_name] = calls[layer]
            out[self_name] = self_s[layer]
        out.update(self.sizes)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (op_id, layer, parent, t0, t1, child) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "op": op_id, "layer": layer,
                                     "parent": parent, "start_ns": t0,
                                     "end_ns": t1, "child_ns": child}) + "\n")
