#!/usr/bin/env python3
"""The special-function traffic of the tier-1 suite, by special_grid op kind.

    python3 bench/mix.py

Runs tests/test_special.py and tests/test_acceptance.py in this process
with the public functions of `special` wrapped (tracing.install), and
counts the outermost calls into the layer, those made while no other
wrapped special function is running, by the special_grid op kind they
match.  The special_grid round follows the shares printed here; see
bench/README.md.
"""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TESTS = ["tests/test_special.py", "tests/test_acceptance.py"]


def op_kind(fn: str, args: tuple, kwargs: dict) -> str:
    """The special_grid op kind a call of special.<fn> matches."""
    if fn == "hurwitz_zeta":
        w = args[0] if args else kwargs["w"]
        return "hurwitz_zeta." + ("complex" if isinstance(w, complex) else "real")
    if fn == "sine_r":
        s = args[1] if len(args) > 1 else kwargs["s"]
        return "sine_r." + ("base" if 0.5 < s <= 1.5 else "ladder")
    return fn


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import pytest
    import tracing

    counts: Counter = Counter()
    depth = [0]

    def wrap(fn, key):
        if key[0] != "special":
            return fn

        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                counts[op_kind(key[1], args, kwargs)] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    tracing.install(wrap)
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT)]
                       + [str(ROOT / t) for t in TESTS])
    total = sum(counts.values())
    print(f"\nouter special calls of {' and '.join(TESTS)}: {total}")
    for kind, n in counts.most_common():
        print(f"  {kind:24s} {n:6d}  {n / total:7.2%}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
