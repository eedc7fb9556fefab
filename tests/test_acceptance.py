"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line,
and asserts at the pinned tolerance.  Run with ``pytest -v`` (add ``-s``
to see the lines for passing criteria too).
"""

import itertools
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from selbergfe import formal
from selbergfe.formal import (canonicalize, derive_base_zeta_fe,
                              from_motive_Z, verify_theorem2,
                              verify_theorem3, verify_Z_fe)
from selbergfe.geodesics import (BOLZA_LENGTH, bolza_group,
                                 enumerate_spectrum, euler_zeta,
                                 geodesic_count, load_spectrum, pgt_table,
                                 save_spectrum, selberg_Z, _cyclically_reduced,
                                 _frontiers)
from selbergfe.laurent import (LaurentPoly, binom_power, eval_at_one,
                               has_symmetry)
from selbergfe.special import (check_fe_integral, check_ladder, check_ode,
                               check_reduction, gamma_r)

ZETA_PRIME_MINUS1 = -0.16542114370045093

SUPPORT = range(-3, 4)          # exponent window for the exhaustive sweeps
COEFFS = range(-2, 3)           # coefficient window
D_RANGE = range(-8, 9)


def _report(num, label, ok):
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _sweep_polys():
    for coeffs in itertools.product(COEFFS, repeat=len(SUPPORT)):
        yield LaurentPoly(dict(zip(SUPPORT, coeffs)))


@pytest.fixture(scope="module")
def bolza():
    return bolza_group()


@pytest.fixture(scope="module")
def pipeline8(bolza, tmp_path_factory):
    """Timed word-length-8 pipeline, run twice, each spectrum saved."""
    tmp = tmp_path_factory.mktemp("acc")
    t0 = time.monotonic()
    sp1 = enumerate_spectrum(bolza, 8)
    sp2 = enumerate_spectrum(bolza, 8)
    p1, p2 = str(tmp / "sp_run1.txt"), str(tmp / "sp_run2.txt")
    save_spectrum(sp1, p1)
    save_spectrum(sp2, p2)
    elapsed = time.monotonic() - t0
    return sp1, p1, p2, elapsed


def test_criterion_01_odd_symmetry_equivalence_exhaustive():
    ok = all(verify_theorem2(f, D).holds == has_symmetry(f, D, -1)
             for f in _sweep_polys() for D in D_RANGE)
    _report(1, "odd-symmetry FE equivalence, exhaustive sweep", ok)


def test_criterion_02_even_symmetry_equivalence_exhaustive():
    ok = True
    for f in _sweep_polys():
        f1 = eval_at_one(f)
        for D in D_RANGE:
            v = verify_theorem3(f, D)
            if v.holds != has_symmetry(f, D, +1):
                ok = False
            # the even-type equation must carry (2 sin pi s)^((2-2g)*2f(1))
            if v.holds and v.rhs_canonical.sin_exp != 2 * f1:
                ok = False
        if not ok:
            break
    _report(2, "even-symmetry FE equivalence incl. sine exponent", ok)


def test_criterion_03_Z_functional_equation_family():
    inv = LaurentPoly({-1: 1, 0: -1})
    family = [inv, inv * inv] + [binom_power(r) for r in range(1, 7)]
    family.append(LaurentPoly({1: 1}) * binom_power(3))
    ok = all(verify_Z_fe(f).holds for f in family)

    v = verify_Z_fe(inv)
    ok = ok and v.rhs_canonical.sin_exp == 2 and not v.rhs_canonical.s2_exp

    v2 = verify_Z_fe(inv * inv)
    base = canonicalize(from_motive_Z(inv * inv))
    ok = (ok and v2.rhs_canonical.sin_exp == 0
          and v2.rhs_canonical.s2_exp == base.s2_exp)
    _report(3, "Z-side functional equations for the reference motives", ok)


def test_criterion_04_base_fe_derivation_and_negative_control(monkeypatch):
    ok = derive_base_zeta_fe().holds
    # negative control: without the ladder rewrite it must not close
    monkeypatch.setattr(formal, "canonicalize", lambda p: p)
    ok = ok and not derive_base_zeta_fe().holds
    _report(4, "base zeta FE derivation + negative control", ok)


def test_criterion_05_fe_integral_identity():
    ok = True
    for genus in (2, 3):
        rows = check_fe_integral(genus)
        ok = ok and len(rows) == 17
        ok = ok and all(abs(r.lhs / r.rhs - 1) < 1e-9 for r in rows)
    _report(5, "integral factor vs GammaM(s)/GammaM(1-s), 1e-9", ok)


def test_criterion_06_double_sine_ode_and_ladders():
    ode = check_ode()
    ok = len(ode) == 9 and all(abs(r.lhs - r.rhs) < 1e-6 for r in ode)
    ladder = check_ladder()
    ok = ok and all(abs(r.lhs / r.rhs - 1) < 1e-10 for r in ladder)
    _report(6, "S2 log-derivative ODE (1e-6) and ladders (1e-10)", ok)


def test_criterion_07_order2_reduction_and_gamma2_at_one():
    rows = check_reduction()
    ok = len(rows) == 3 and all(r.error <= r.tolerance for r in rows)
    target = math.exp(ZETA_PRIME_MINUS1)
    a = gamma_r(2, 1.0).value
    with mpmath.workdps(40):
        b = mpmath.exp(mpmath.zeta(-1, 1, 1))     # exp(zeta'(-1)) at 40 digits
        ok = ok and abs(a - target) < 1e-11 and abs(a - b) < 1e-11
    _report(7, "zeta_2 reduction vs double sum; Gamma_2(1)=exp(zeta'(-1))", ok)


def test_criterion_08_bolza_pipeline(bolza, pipeline8):
    sp1, p1, p2, elapsed = pipeline8
    expected = 2 + 2 * math.sqrt(2)
    traces = np.abs(np.trace(bolza, axis1=1, axis2=2))
    ok = bool(np.all(np.abs(traces - expected) < 1e-12))

    # exhaustive search over cyclically reduced length-8 words for a relator
    for n, codes, _, mats in _frontiers(bolza, 8):
        pass
    m = mats[_cyclically_reduced(codes, n)]
    dev = np.max(np.abs(m - np.sign(m[:, 0, 0])[:, None, None] * np.eye(2)),
                 axis=(1, 2))
    ok = ok and bool((dev < 1e-9).any())

    # determinism: two runs write byte-identical spectrum files
    ok = ok and Path(p1).read_bytes() == Path(p2).read_bytes()
    ok = ok and abs(sp1.entries[0][0] - 2 * math.acosh(1 + math.sqrt(2))) < 1e-10
    ok = ok and abs(sp1.entries[0][0] - BOLZA_LENGTH) < 1e-10
    ok = ok and elapsed < 300.0
    _report(8, "Bolza traces, relator, determinism, systole, runtime", ok)


def test_criterion_09_telescoping(pipeline8):
    sp, _, _, _ = pipeline8
    ok = True
    for s in (1.5, 2.0, 3.0):
        lhs = euler_zeta(s, sp).value
        rhs = selberg_Z(s + 1, sp).value / selberg_Z(s, sp).value
        ok = ok and abs(lhs - rhs) / lhs < 1e-13
    _report(9, "euler_zeta(s) = selberg_Z(s+1)/selberg_Z(s), 1e-13", ok)


def test_criterion_10_counting_reports(pipeline8):
    sp, p1, _, _ = pipeline8
    loaded = load_spectrum(p1)
    xs = sorted([25.0, 60.0, 100.0, 0.9 * math.exp(sp.horizon)])
    rows = pgt_table(sp, xs)
    counts = [r[1] for r in rows]
    ok = counts == sorted(counts)
    for x, count, _, _ in rows:
        brute = sum(mult for ell, mult in loaded.entries
                    if math.exp(ell) <= x)
        ok = ok and count == brute and count == geodesic_count(x, sp)
    _report(10, "geodesic counts vs brute-force filter, monotone", ok)
