"""The one Euler-Maclaurin kernel behind hurwitz_zeta, hurwitz_zeta_dw,
multiple_hurwitz_zeta and log_gamma_r, against mpmath at 40 digits."""
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import mpmath
import pytest

from selbergfe import special
from selbergfe.special import (DomainError, hurwitz_zeta, hurwitz_zeta_dw,
                               log_gamma_r, multiple_hurwitz_zeta)

DPS = 40


def _mp(w):
    return mpmath.mpc(w) if isinstance(w, complex) else mpmath.mpf(w)


def _binomial_in_m(r, s):
    """Coefficients in m = n + s of binom(n+r-1, r-1): the product
    prod_{i<r} (m + i - s) / (r-1)!, multiplied out in m, in the number
    type of s (mpf or Fraction)."""
    poly = [s ** 0]
    for i in range(1, r):
        nxt = [0 * s] * (len(poly) + 1)
        for t, a in enumerate(poly):
            nxt[t] += a * (i - s)
            nxt[t + 1] += a
        poly = nxt
    return [a / math.factorial(r - 1) for a in poly]


def mp_zeta_r(r, w, s, d=0):
    """d-th w-derivative of the order-r Hurwitz zeta: sum_j c_j zeta^(d)(w-j, s)."""
    with mpmath.workdps(DPS):
        sm = mpmath.mpf(s)
        return mpmath.fsum(c * mpmath.zeta(_mp(w) - j, sm, d)
                           for j, c in enumerate(_binomial_in_m(r, sm)))


def _error(value, ref):
    return float(abs(mpmath.mpmathify(value) - ref))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _away_from_one(w):
    return w if abs(w - 1) >= 0.1 else 1 + math.copysign(0.1, w - 1)


def _seeded_cases():
    """(label, function, args, (r, w, s, d) of the reference), seed 2026.

    Real w in [-3, 6] at least 0.1 from the pole, log_gamma_r of every
    order, s in [1e-3, 6]; then the wider ground of nonpositive integer
    w and complex w with |Im w| <= 100, s up to 200.
    """
    rng = random.Random(2026)
    cases = []
    for _ in range(40):
        w = _away_from_one(rng.uniform(-3, 6))
        s = _log_uniform(rng, 1e-3, 6)
        cases.append(("zeta", hurwitz_zeta, (w, s), (1, w, s, 0)))
        cases.append(("dzeta", hurwitz_zeta_dw, (w, s), (1, w, s, 1)))
    for i in range(40):
        r, s = 1 + i % 4, _log_uniform(rng, 1e-3, 6)
        cases.append(("log_gamma", log_gamma_r, (r, s), (r, 0, s, 1)))
    for _ in range(15):
        w = complex(rng.uniform(-3, 6), rng.uniform(-100, 100))
        s = _log_uniform(rng, 1e-3, 200)
        cases.append(("complex zeta", hurwitz_zeta, (w, s), (1, w, s, 0)))
        cases.append(("complex dzeta", hurwitz_zeta_dw, (w, s), (1, w, s, 1)))
        n = -rng.randint(0, 24)
        s = _log_uniform(rng, 1e-3, 200)
        cases.append(("integer zeta", hurwitz_zeta, (n, s), (1, n, s, 0)))
        cases.append(("integer dzeta", hurwitz_zeta_dw, (n, s), (1, n, s, 1)))
    return cases


def test_estimate_bounds_actual_error():
    """abs_err_estimate >= |value - mpmath| on every seeded case."""
    under = []
    for label, fn, args, ref_args in _seeded_cases():
        v = fn(*args)
        err = _error(v.value, mp_zeta_r(*ref_args))
        if err > v.abs_err_estimate:
            under.append((label, args, err, v.abs_err_estimate))
    assert under == []


def test_default_rung_agrees_with_the_last(monkeypatch):
    """Each seeded call, at the rung it takes, agrees with the same call at
    the last rung, N = 24 and B = 12, to within the sum of the two
    estimates.  (That it lies within its own estimate of mpmath is the
    test above.)"""
    cases = [(label, args, fn(*args), ref_args)
             for label, fn, args, ref_args in _seeded_cases()]
    assert special._RUNGS[-1] == (24, 12)
    monkeypatch.setattr(special, "_RUNGS", special._RUNGS[-1:])
    off = []
    for label, args, v, ref_args in cases:
        last = special._zeta_r(*ref_args)
        if abs(v.value - last.value) > v.abs_err_estimate + last.abs_err_estimate:
            off.append((label, args, v, last))
    assert off == []


def test_s2_base_window_takes_a_lower_rung(monkeypatch):
    """log Gamma_2 on S_2's base window (1/2, 3/2] stops at the first
    rung, below N = 24 and B = 12: one tail, with fewer Bernoulli terms."""
    seen = []
    tail = special._tail

    def spy(r, w, d, table, x, logx, B, cs, cabs):
        seen.append(B)
        return tail(r, w, d, table, x, logx, B, cs, cabs)

    monkeypatch.setattr(special, "_tail", spy)
    first = special._RUNGS[0][1]
    assert first < 12
    for i in range(1, 41):
        seen.clear()
        log_gamma_r(2, 0.5 + i / 40)
        assert seen == [first]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_domain_is_that_of_twelve_bernoulli_terms(r):
    """Re w > r - 26, as with N = 24 and B = 12 alone: w = r - 25.5 is
    evaluated within its estimate, w = r - 26.5 is refused."""
    w = r - 25.5
    for s in (0.5, 1.0, 3.7):
        for d in (0, 1):
            v = special._zeta_r(r, w, s, d)
            assert _error(v.value, mp_zeta_r(r, w, s, d)) <= v.abs_err_estimate
        with pytest.raises(DomainError):
            multiple_hurwitz_zeta(r, w - 1, s)
        with pytest.raises(DomainError):
            special._zeta_r(r, w - 1, s, 1)
    if r == 1:
        hurwitz_zeta_dw(-24.5, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta_dw(-25.5, 1.0)


def test_estimate_includes_rounding():
    """Rounding, not truncation, limits these: their first omitted
    Bernoulli terms are about 1e-31, their actual errors near 1e-10."""
    for v, ref in ((hurwitz_zeta_dw(-3, 1e-3), mp_zeta_r(1, -3, 1e-3, 1)),
                   (log_gamma_r(4, 3.47), mp_zeta_r(4, 0, 3.47, 1))):
        assert _error(v.value, ref) <= v.abs_err_estimate < 1e-8


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_log_gamma_r_vs_mpmath(r):
    for s in (1e-3, 0.25, 0.5, 1.0, 1.3, 2.0, 3.47, 6.0):
        ref = mp_zeta_r(r, 0, s, 1)
        assert _error(log_gamma_r(r, s).value, ref) <= 1e-9 * max(1, abs(ref))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [0.5, 2.5, 6.3, 4 + 1j, 0.5 - 7j, 2.2 + 30j])
def test_multiple_hurwitz_zeta_vs_mpmath(r, w):
    for s in (0.3, 1.0, 2.7):
        v = multiple_hurwitz_zeta(r, w, s)
        assert isinstance(v.value, type(w))
        ref = mp_zeta_r(r, w, s)
        assert _error(v.value, ref) <= 1e-9 * max(1, abs(ref))


def test_float_and_complex_arithmetic_agree():
    """Real w runs in floats, complex w in complex numbers, on one path."""
    rng = random.Random(7)
    for _ in range(50):
        w = _away_from_one(rng.uniform(-3, 6))
        s = _log_uniform(rng, 1e-3, 6)
        r, wr = rng.randint(1, 4), rng.uniform(4.2, 7)
        for fn, args, cargs in ((hurwitz_zeta, (w, s), (complex(w, 0), s)),
                                (hurwitz_zeta_dw, (w, s), (complex(w, 0), s)),
                                (multiple_hurwitz_zeta, (r, wr, s),
                                 (r, complex(wr, 0), s))):
            a, b = fn(*args).value, fn(*cargs).value
            assert isinstance(a, float) and isinstance(b, complex)
            assert abs(a - b) <= 1e-13 * abs(a)


@pytest.mark.parametrize("n,s", [(0, 0.3), (1, 1.0), (2, 2.5), (5, 0.1),
                                 (13, 1.7), (40, 0.75), (8, 0.5), (20, 1.0)])
def test_nonpositive_integer_is_bernoulli(n, s):
    """zeta_H(-n, s) = -B_{n+1}(s) / (n+1), rounded once."""
    v = hurwitz_zeta(-n, s)
    with mpmath.workdps(60):
        ref = -mpmath.bernpoly(n + 1, mpmath.mpf(s)) / (n + 1)
    assert _error(v.value, ref) <= v.abs_err_estimate
    assert v.abs_err_estimate <= 0.5 * math.ulp(v.value)


def test_nonpositive_integer_cancellations_are_exact():
    """Here the Euler-Maclaurin partial sum and tail would cancel."""
    assert hurwitz_zeta(-20, 1.0) == special.SpecialValue(0.0, 0.0)
    assert hurwitz_zeta(-8, 0.5) == special.SpecialValue(0.0, 0.0)
    assert hurwitz_zeta(-400, 2.0).value == -1.0
    assert hurwitz_zeta(-20 + 0j, 1.0).value == 0j


@pytest.mark.parametrize("r", [2, 3, 4])
def test_multiple_at_nonpositive_integer(r):
    for n, s in ((0, 0.4), (3, 1.9), (7, 0.05)):
        v = multiple_hurwitz_zeta(r, -n, s)
        assert _error(v.value, mp_zeta_r(r, -n, s)) <= v.abs_err_estimate + 1e-30


def test_non_finite_raises_domain_error():
    with pytest.raises(DomainError):
        hurwitz_zeta(-400.5, 2.0)          # (n + s)^400.5 overflows
    with pytest.raises(DomainError):
        hurwitz_zeta(-400, 0.3)            # |B_401(0.3)| / 401 overflows
    with pytest.raises(DomainError):
        hurwitz_zeta(-401, 2.0)            # past the exact range
    with pytest.raises(DomainError):
        hurwitz_zeta_dw(-30, 1.0)          # past the reach of 12 Bernoulli terms


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_simplex_table_is_the_exact_expansion(r, monkeypatch):
    """The kernel's one pass gives c_j(s) and its rounding scale
    sum_i |a_j[i]| s^i, each within a few roundings of the exact value."""
    points = (0.001, 0.5, 1.0, 1.3, 2.75, 6.0)
    for s in points:
        S = Fraction(s)
        exact = _binomial_in_m(r, S)
        rows = special._simplex_exact(r)
        assert [sum(a * S ** i for i, a in enumerate(row)) for row in rows] == exact
        scale = [sum(abs(a) * S ** i for i, a in enumerate(row)) for row in rows]
        got, got_scale = special._simplex_pair(r, s)
        for c, e in zip(got + got_scale, exact + scale):
            assert abs(Fraction(c) - e) <= 8 * sys.float_info.epsilon * max(1, abs(e))

    log_gamma_r(r, 1.0)

    def no_fractions(*args):
        raise AssertionError("a Fraction was built")
    monkeypatch.setattr(special, "Fraction", no_fractions)
    for s in points:
        special._simplex_pair(r, s)
        log_gamma_r(r, s)


def test_caches_fill_lazily():
    code = ("import selbergfe.special as s; "
            "assert s._simplex_table.cache_info().currsize == 0; "
            "assert s._tail_table.cache_info().currsize == 0; "
            "assert len(s._BERNOULLI) == 2")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def test_numpy_and_scipy_load_only_where_used(tmp_path):
    """The package, the CLI and the exact and special-function commands
    load neither numpy nor scipy; the spectrum commands load numpy, and
    nothing loads scipy: the Selberg factor is in closed form."""
    spectrum = str(tmp_path / "spectrum.txt")
    code = textwrap.dedent(f"""\
        import sys
        import selbergfe
        from selbergfe import cli

        def loaded(package):
            return any(m.split(".")[0] == package for m in sys.modules)

        def run(*commands):
            for argv in commands:
                assert cli.main(argv) == 0, argv

        run(["fe", "verify", "--poly", "0=-1,1=1"],
            ["fe", "derive-base"],
            ["motive", "analyze", "--poly", "0=-1,1=1"],
            ["special", "eval", "--fn", "sM", "--s", "0.3"],
            ["special", "check", "--identity", "ladder"],
            ["special", "eval", "--fn", "fe-factor", "--s", "0.3"],
            ["special", "check", "--identity", "fe-integral"])
        assert not loaded("numpy") and not loaded("scipy")
        run(["spectrum", "bolza", "--max-word-len", "4",
             "--out", {spectrum!r}],
            ["zeta", "eval", "--spectrum", {spectrum!r}, "--s", "2"],
            ["pgt", "--spectrum", {spectrum!r}, "--xmax", "100",
             "--points", "5"])
        assert loaded("numpy") and not loaded("scipy")
        """)
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ,
                                             PYTHONPATH=os.pathsep.join(sys.path)))
    assert run.returncode == 0, run.stderr
