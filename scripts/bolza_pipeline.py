#!/usr/bin/env python3
"""Run the full Bolza-surface pipeline and print a summary report.

Enumerates the primitive geodesic length spectrum up to a word-length
bound, saves it, then evaluates the Euler products, the telescoping
identity, and the prime-geodesic counting table on the result.
"""

import argparse
import math
import sys
import time

from selbergfe.geodesics import (bolza_group, enumerate_spectrum, euler_zeta,
                                 pgt_table, save_spectrum, selberg_Z)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-word-len", type=int, default=8)
    ap.add_argument("--out", default="bolza_spectrum.txt")
    args = ap.parse_args()

    t0 = time.monotonic()
    group = bolza_group()
    sp = enumerate_spectrum(group, args.max_word_len)
    save_spectrum(sp, args.out)
    print(f"spectrum: {len(sp.entries)} distinct lengths, "
          f"{sp.total_classes()} oriented classes "
          f"({time.monotonic() - t0:.1f} s)")
    print(f"systole  = {sp.entries[0][0]:.12f}  "
          f"(2 arccosh(1+sqrt 2) = {2 * math.acosh(1 + math.sqrt(2)):.12f})")
    print(f"horizon  = {sp.horizon:.6f}  -> counts complete up to "
          f"x = {math.exp(sp.horizon):.1f}")
    print(f"saved to {args.out}")

    print("\ntelescoping check  zeta(s) vs Z(s+1)/Z(s):")
    for s in (1.5, 2.0, 3.0):
        lhs = euler_zeta(s, sp).value
        rhs = selberg_Z(s + 1, sp).value / selberg_Z(s, sp).value
        print(f"  s = {s:<4}  zeta = {lhs:.15f}  rel err = "
              f"{abs(lhs - rhs) / lhs:.2e}")

    print("\ncounting table (within the horizon):")
    xs = [x for x in (10.0, 25.0, 60.0, 100.0)
          if math.log(x) <= sp.horizon]
    print(f"  {'x':>8} {'count':>8} {'x/log x':>10} {'ratio':>8}")
    for x, count, approx, ratio in pgt_table(sp, xs):
        print(f"  {x:8.1f} {count:8d} {approx:10.2f} {ratio:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
