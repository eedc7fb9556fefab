import cmath
import math
import random
import re

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbergfe import special
from selbergfe.special import (DomainError, PoleError, SurfaceParams,
                               check_fe_integral, check_ladder, check_ode, check_reduction,
                               double_sum_oracle, gamma_M, gamma_r,
                               hurwitz_zeta, hurwitz_zeta_dw, log_gamma_r,
                               multiple_hurwitz_zeta, s_M, selberg_fe_factor,
                               sine_r)

ZETA_PRIME_MINUS1 = -0.16542114370045093  # zeta'(-1), frozen cross-check


def truncated_sum_oracle(w, s, nmax=200000):
    """Partial sum plus integral tail bracket; independent of the kernel."""
    total = sum((n + s) ** (-w) for n in range(nmax + 1))
    hi = (nmax + s) ** (1 - w) / (w - 1)
    lo = (nmax + 1 + s) ** (1 - w) / (w - 1)
    return total + (hi + lo) / 2, (hi - lo) / 2 + (nmax + 1 + s) ** (-w)


# -- hurwitz_zeta --------------------------------------------------------

def test_hurwitz_basel():
    val = hurwitz_zeta(2, 1.0).value
    oracle, bound = truncated_sum_oracle(2, 1.0)
    assert abs(val - oracle) < bound
    assert val == pytest.approx(math.pi ** 2 / 6, abs=1e-13)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.3])
def test_hurwitz_at_zero_is_half_minus_s(s):
    assert hurwitz_zeta(0, s).value == pytest.approx(0.5 - s, abs=1e-13)


def test_hurwitz_shift_difference():
    d = hurwitz_zeta(3, 1.0).value - hurwitz_zeta(3, 2.0).value
    assert d == pytest.approx(1.0, abs=1e-13)


@given(st.floats(1.5, 6), st.floats(0.2, 4))
@settings(max_examples=60)
def test_hurwitz_shift_identity(w, s):
    lhs = hurwitz_zeta(w, s).value - hurwitz_zeta(w, s + 1).value
    assert lhs == pytest.approx(s ** (-w), rel=1e-10, abs=1e-12)


def test_hurwitz_complex_w():
    v = hurwitz_zeta(2 + 1j, 1.0).value
    assert isinstance(v, complex)
    # a direct sum converges too slowly at Re(w) = 2; mpmath at 40 digits
    with mpmath.workdps(40):
        assert abs(v - mpmath.zeta(2 + 1j, 1)) < 1e-12


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta(1, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, -1.0)


def test_error_estimate_is_honest(monkeypatch):
    # the kernel's truncation at 8 summed and 4 Bernoulli terms, where the
    # omitted term dominates the estimate
    monkeypatch.setattr(special, "_RUNGS", ((8, 4),))
    sv = special._zeta_r(1, 2, 1.0, 0)
    assert abs(sv.value - math.pi ** 2 / 6) <= sv.abs_err_estimate + 1e-14


# -- hurwitz_zeta_dw -----------------------------------------------------

def test_dw_at_zero_is_lerch():
    # zeta_H'(0, 1) = -log(2 pi)/2
    assert hurwitz_zeta_dw(0, 1.0).value == pytest.approx(
        -0.5 * math.log(2 * math.pi), abs=1e-12)


def test_dw_at_minus_one_two_configs():
    # against mpmath at 40 digits and the frozen constant
    a = hurwitz_zeta_dw(-1, 1.0).value
    with mpmath.workdps(40):
        assert abs(a - mpmath.zeta(-1, 1, 1)) < 1e-12
    assert a == pytest.approx(ZETA_PRIME_MINUS1, abs=1e-12)


def test_dw_shift_difference():
    s = 2.7
    d = hurwitz_zeta_dw(0, s).value - hurwitz_zeta_dw(0, s + 1).value
    assert d == pytest.approx(-math.log(s), abs=1e-12)


def test_dw_lerch_log_gamma():
    # zeta_H'(0, s) = log Gamma(s) - log(2 pi)/2
    for s in (0.5, 1.5, 3.2):
        assert hurwitz_zeta_dw(0, s).value == pytest.approx(
            math.lgamma(s) - 0.5 * math.log(2 * math.pi), abs=1e-12)


# -- multiple_hurwitz_zeta ----------------------------------------------

def test_order_one_reduces_to_hurwitz():
    assert multiple_hurwitz_zeta(1, 2.5, 1.3).value == pytest.approx(
        hurwitz_zeta(2.5, 1.3).value, rel=1e-14)


@pytest.mark.parametrize("w,s", [(3.0, 1.5), (4.0, 1.0), (2.5, 0.7)])
def test_order_two_vs_double_sum(w, s):
    oracle, bound = double_sum_oracle(w, s)
    assert abs(multiple_hurwitz_zeta(2, w, s).value - oracle) < bound


def test_order_two_at_one_is_apery():
    # zeta_2(4, 1) = zeta_H(3, 1) since the c_0 coefficient vanishes
    assert multiple_hurwitz_zeta(2, 4, 1.0).value == pytest.approx(
        1.2020569031595943, abs=1e-12)


@pytest.mark.parametrize("r", [3, 4])
def test_higher_order_vs_brute_force(r):
    w, s, nmax = 5.0, 1.3, 4000
    total = sum(math.comb(n + r - 1, r - 1) * (n + s) ** (-w)
                for n in range(nmax + 1))
    tail = math.comb(nmax + r, r - 1) * (nmax + s) ** (1 - w) / (w - r)
    val = multiple_hurwitz_zeta(r, w, s).value
    assert abs(val - total) < 2 * abs(tail)


@pytest.mark.parametrize("name, call", [
    ("hurwitz_zeta", lambda w, s: hurwitz_zeta(w, s)),
    ("hurwitz_zeta_dw", lambda w, s: hurwitz_zeta_dw(w, s)),
    ("multiple_hurwitz_zeta", lambda w, s: multiple_hurwitz_zeta(2, w, s)),
    ("log_gamma_r", lambda w, s: log_gamma_r(2, s)),   # its w is 0
])
def test_kernel_domain_errors_name_the_caller(name, call):
    for s in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match=re.escape(f"{name} requires s > 0, got s={s}")):
            call(3.0, s)
    if name == "log_gamma_r":
        return
    for w in (complex("infj"), math.nan, math.inf):
        with pytest.raises(DomainError, match=re.escape(f"{name} requires a finite w, got w={w}")):
            call(w, 1.0)


def test_kernel_pole_errors_name_the_caller():
    with pytest.raises(PoleError, match=r"^hurwitz_zeta_dw of order 1 has a pole at w=1$"):
        hurwitz_zeta_dw(1, 2.0)
    with pytest.raises(PoleError, match=r"^hurwitz_zeta of order 1 has a pole at w=1$"):
        hurwitz_zeta(1 + 0j, 2.0)
    with pytest.raises(PoleError, match=r"^multiple_hurwitz_zeta of order 4 has a pole at w=3$"):
        multiple_hurwitz_zeta(4, 3, 1.0)
    with pytest.raises(DomainError, match=r"^log_gamma_r: order r must be in 1\.\.4, got 0$"):
        log_gamma_r(0, 1.0)


def test_order_limits_and_poles():
    with pytest.raises(DomainError):
        multiple_hurwitz_zeta(5, 3, 1.0)
    with pytest.raises(PoleError):
        multiple_hurwitz_zeta(2, 2, 1.0)
    with pytest.raises(PoleError):
        multiple_hurwitz_zeta(2, 1, 1.0)


def test_complex_w_reduction_consistency():
    # the defining reduction, cross-checked against a double sum
    w, s = 4 + 1j, 1.5
    val = multiple_hurwitz_zeta(2, w, s).value
    direct = sum((n + 1) * (n + s) ** (-w) for n in range(20000))
    assert abs(val - direct) < 1e-4  # Re(w)=4 tail ~ N^-2
    red = hurwitz_zeta(w - 1, s).value + (1 - s) * hurwitz_zeta(w, s).value
    assert abs(val - red) < 1e-12


# -- log_gamma_r ---------------------------------------------------------

def test_log_gamma_2_at_one():
    assert log_gamma_r(2, 1.0).value == pytest.approx(ZETA_PRIME_MINUS1, abs=1e-12)
    assert gamma_r(2, 1.0).value == pytest.approx(math.exp(ZETA_PRIME_MINUS1),
                                                 abs=1e-11)


def test_log_gamma_1_at_half():
    expected = math.lgamma(0.5) - 0.5 * math.log(2 * math.pi)
    assert log_gamma_r(1, 0.5).value == pytest.approx(expected, abs=1e-12)


def test_log_gamma_2_shift_ladder():
    # zeta_2(w,s) - zeta_2(w,s+1) = zeta_1(w,s), differentiated at w=0:
    # log Gamma_2(s) - log Gamma_2(s+1) = log Gamma_1(s)
    for s in (1.0, 1.7):
        lhs = log_gamma_r(2, s).value - log_gamma_r(2, s + 1).value
        rhs = log_gamma_r(1, s).value
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma_r(2, 0.0)
    with pytest.raises(DomainError):
        log_gamma_r(7, 1.0)


# -- sine functions ------------------------------------------------------

def test_s2_at_one():
    assert sine_r(2, 1.0).value == pytest.approx(1.0, abs=1e-12)


def test_s2_half_reflection():
    prod = sine_r(2, 1.5).value * sine_r(2, 0.5).value
    assert prod == pytest.approx(1.0, rel=1e-10)


def test_s2_integer_rejected():
    for s in (0.0, 2.0, 3.0, -1.0):
        with pytest.raises(PoleError):
            sine_r(2, s)


def test_sine_order_domain():
    with pytest.raises(DomainError, match="r = 2 only"):
        sine_r(1, 0.3)
    with pytest.raises(DomainError):
        sine_r(3, 0.5)
    for s in (100000.5, -100000.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sine_r(2, s)


def _mp_s2_closed_form(s):
    """S_2(b + n) = S_2(b) (-1)^(n(n-1)/2) / (2 sin pi b)^n at 30 digits,
    b = s - n in (1/2, 3/2], S_2(b) = Gamma_2(2 - b) / Gamma_2(b) with
    log Gamma_2(x) = (1 - x) zeta'(0, x) + zeta'(-1, x)."""
    n = math.ceil(s - 1.5)
    with mpmath.workdps(30):
        b = mpmath.mpf(s) - n

        def log_gamma2(x):
            return (1 - x) * mpmath.zeta(0, x, 1) + mpmath.zeta(-1, x, 1)

        base = mpmath.exp(log_gamma2(2 - b) - log_gamma2(b))
        return base * (-1) ** (n * (n - 1) // 2) / (2 * mpmath.sinpi(b)) ** n


@pytest.mark.parametrize("s", [1200 + 1 / 6, -1000 + 1 / 6, 1e6 + 1 / 6,
                               -1e6 + 1 / 6])
def test_s2_deep_ladder(s):
    """Far along the ladder, where |2 sin pi b| = 1 keeps S_2 of order 1;
    there is no cap on |s|."""
    sv = sine_r(2, s)
    ref = _mp_s2_closed_form(s)
    err = float(abs(sv.value - ref))
    assert err <= sv.abs_err_estimate
    assert err < 1e-10 * abs(sv.value)
    assert 0.5 < abs(sv.value) < 2


@pytest.mark.parametrize("s", [99999.7, 5000.3, -5000.3])
def test_s2_outside_float_range(s):
    """|2 sin pi b| = 1.618 at every ladder step, so |S_2(s)| under- or
    overflows there: an error, not 5e-324 or inf with a zero estimate."""
    with pytest.raises(DomainError):
        sine_r(2, s)


@pytest.mark.parametrize("s", [
    1470.3, -1470.3,
    # the base window (1/2, 3/2]
    0.5001, 0.75, 1.0, 1.25, 1.5,
    # along the ladder
    -19.7, -12.35, -3.9, -0.45, 2.2, 7.61, 13.05, 29.93,
    # reflection pairs s, 2 - s
    0.3, 1.7, -4.6, 6.6, 9.15, -7.15,
])
def test_s2_near_float_range_edge(s):
    """Actual error within the estimate, and below 1e-10 relative: next to
    the float range edge, where |S_2(+-1470.3)| is about 7.6e-308 and
    3.4e+307, and on the base window, the ladder and reflection pairs."""
    sv = sine_r(2, s)
    err = float(abs(sv.value - _mp_s2_closed_form(s)))
    assert err <= sv.abs_err_estimate
    assert err < 1e-10 * abs(sv.value)


def _closed_form_grid(rng):
    """Seeded S_2 points: d next to +-1/2 along the ladder, s within 1e-9
    of 1, s 1e-11 from other integers, and |s| about 1470, where
    |S_2(s)| is close to the float range edge."""
    far = rng.sample(range(-900, 900), 5)
    near = rng.sample([k for k in range(-20, 22) if k != 1], 8)
    return ([k + 0.5 for k in far] + [k + 0.5 - 1e-12 for k in far]
            + [k - 0.5 + 1e-12 for k in far]
            + [1 + 1e-9, 1 - 1e-9, 1 + 2 ** -52, 1 - 2 ** -53]
            + [1 + rng.choice((-1, 1)) * rng.uniform(1e-12, 1e-9)
               for _ in range(4)]
            + [k + sign * 1e-11 for k in near for sign in (-1, 1)]
            + [a * 1470 + b * rng.uniform(0.12, 0.28)
               for a in (-1, 1) for b in (-1, 1) for _ in range(2)]
            + [rng.uniform(-30, 30) for _ in range(8)])


def test_s2_closed_form_grid():
    """sine_r(2, .) against the 30-digit Gamma_2 route: the actual error
    is within the estimate at every point of the seeded grid."""
    for s in _closed_form_grid(random.Random(2503)):
        sv = sine_r(2, s)
        err = float(abs(sv.value - _mp_s2_closed_form(s)))
        assert err <= sv.abs_err_estimate, s


@pytest.mark.parametrize("genus", [2, 3])
def test_s_M_closed_form_grid(genus):
    """s_M against S_2(s)^2 / (2 sin pi s) from the 30-digit Gamma_2
    route: d next to +-1/2, s within 1e-9 of 1 and 1e-11 from other
    integers, and |s| about 1470 next to d = +-1/6, where
    |2 sin pi d| = 1 keeps the value a normal float."""
    rng = random.Random(2504 + genus)
    grid = ([k + 0.5 for k in rng.sample(range(-60, 60), 3)]
            + [k - 0.5 + 1e-12 for k in rng.sample(range(-60, 60), 3)]
            + [1 + 1e-9, 1 - 1e-9, 1 + rng.uniform(1e-12, 1e-9)]
            + [k + sign * 1e-11 for k in (-2, 0, 2, 3) for sign in (-1, 1)]
            + [a * 1470 + b / 6 + rng.uniform(-0.01, 0.01)
               for a in (-1, 1) for b in (-1, 1)]
            + [rng.uniform(-3, 4) for _ in range(6)])
    for s in grid:
        sv = s_M(s, SurfaceParams(genus))
        with mpmath.workdps(30):
            a = _mp_s2_closed_form(s)
            ref = (a * a / (2 * mpmath.sinpi(s))) ** (2 - 2 * genus)
        err = float(abs(sv.value - ref))
        assert err <= sv.abs_err_estimate, s


def test_s2_base_window_matches_gamma_quotient():
    """On (1/2, 3/2] the closed form and the kernel's Gamma_2(2-b) /
    Gamma_2(b) agree within the sum of their estimates; the quotient's
    adds its two kernel estimates, and 2 eps (2 + |log|) for rounding
    2 - b (|(log Gamma_2)'| <= 1 there), the difference and the exp."""
    rng = random.Random(2505)
    grid = [0.5 + 1e-9, 0.75, 1.0, 1.25, 1.5]
    grid += [1.5 - rng.random() for _ in range(16)]
    for b in grid:
        sv = sine_r(2, b)
        lg, lg_b = log_gamma_r(2, 2 - b), log_gamma_r(2, b)
        log_q = lg.value - lg_b.value
        q = math.exp(log_q)
        q_err = q * (lg.abs_err_estimate + lg_b.abs_err_estimate
                     + 2 * special._EPS * (2 + abs(log_q)))
        assert abs(sv.value - q) <= sv.abs_err_estimate + q_err, b


def test_s2_and_s_M_call_no_kernel(monkeypatch):
    """S_2 and s_M are closed forms: with the kernel gone, they still
    return."""
    def no_kernel(*args):
        raise AssertionError("the Euler-Maclaurin kernel was called")

    monkeypatch.setattr(special, "_zeta_r", no_kernel)
    for s in (0.3, 0.75, 1.0, 1.5, -12.35, 7.61, 1470.3, -1470.3):
        assert math.isfinite(sine_r(2, s).value)
    for genus in (2, 3):
        for s in (0.05, 0.5, 0.77, -2.6, 7.4):
            assert math.isfinite(s_M(s, SurfaceParams(genus)).value)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_s2_non_finite_is_domain_error(s):
    with pytest.raises(DomainError, match=re.escape(f"S_2 requires a finite s, got s={s}")):
        sine_r(2, s)
    with pytest.raises(DomainError, match=re.escape(f"S_2 requires a finite s, got s={s}")):
        s_M(s, SurfaceParams(2))


def test_ladder_grid():
    rows = check_ladder()
    assert all(r.ok for r in rows)


def test_ode_grid():
    rows = check_ode()
    assert all(r.ok for r in rows)


# -- surface-level functions ---------------------------------------------

def test_surface_params_rejects_genus_one():
    with pytest.raises(ValueError):
        SurfaceParams(1)


@pytest.mark.parametrize("genus", [2.5, 3.0, "3", None])
def test_surface_params_refuses_non_integer_genus(genus):
    """A genus that is not an integer is a TypeError naming it, not a
    surface that does not exist or an unrelated comparison error."""
    with pytest.raises(TypeError, match=re.escape(f"genus must be an integer, "
                                                  f"got {genus!r}")):
        SurfaceParams(genus)


def test_surface_params_takes_index_types():
    class Three:
        def __index__(self):
            return 3

    params = SurfaceParams(Three())
    assert params.genus == 3 and type(params.genus) is int


def test_gamma_M_positive():
    params = SurfaceParams(2)
    assert gamma_M(0.5, params).value > 0
    with pytest.raises(DomainError):
        gamma_M(-0.5, params)


def test_gamma_M_is_log_space_composition():
    params = SurfaceParams(2)
    expected = math.exp(2 * (log_gamma_r(2, 1.0).value
                             + log_gamma_r(2, 2.0).value))
    assert gamma_M(1.0, params).value == pytest.approx(expected, rel=1e-12)


def test_s_M_equals_gamma_quotient():
    params = SurfaceParams(2)
    for s in (0.25, 0.5, 0.7):
        lhs = s_M(s, params).value
        rhs = gamma_M(s, params).value / gamma_M(1 - s, params).value
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_s_M_at_half_is_one():
    assert s_M(0.5, SurfaceParams(2)).value == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("s", [0.05, 0.3, 0.5, 0.77, 0.995, -2.6, 7.4])
def test_s_M_against_mpmath(genus, s):
    """s_M against S_2(s)^2 / (2 sin pi s) at 30 digits, which is S_2(s) S_2(s+1)
    at the exact s + 1: actual error within the estimate."""
    sv = s_M(s, SurfaceParams(genus))
    with mpmath.workdps(30):
        a = _mp_s2_closed_form(s)
        ref = (a * a / (2 * mpmath.sinpi(s))) ** (2 - 2 * genus)
    err = float(abs(sv.value - ref))
    assert err <= sv.abs_err_estimate
    assert err < 1e-10 * abs(ref)


@pytest.mark.parametrize("s", [1.000001, 3.0000001])
def test_s_M_accurate_where_s_plus_1_rounds(s):
    """s + 1 rounds here, next to a pole of cot pi s, where an evaluation
    of S_2 at the float s + 1 would be off by up to 2.7e-8 relative: s_M
    never forms s + 1, so it stays accurate and within its estimate."""
    assert (s + 1) - 1 != s
    sv = s_M(s, SurfaceParams(2))
    with mpmath.workdps(30):
        a = _mp_s2_closed_form(s)
        ref = (a * a / (2 * mpmath.sinpi(s))) ** -2
    err = float(abs(sv.value - ref))
    assert err <= 1e-10 * abs(ref)
    assert err <= sv.abs_err_estimate


@pytest.mark.parametrize("s", [0.0, 1.0, 2.0, -1.0])
def test_s_M_integer_is_pole_error(s):
    """S_2(s) S_2(s+1) has a zero or pole at every integer s, also at
    s = 1, where S_2(1) = 1 but S_2(2) is a pole."""
    with pytest.raises(PoleError, match="sine zero/pole at integer"):
        s_M(s, SurfaceParams(2))


@pytest.mark.parametrize("s", [1 - 2 ** -40, 1 + 2 ** -40, 1 + 1e-13, 1e-13,
                               3 + 1e-13, -2 + 2 ** -40])
def test_near_integer_is_a_value(s):
    """d = s - k is exact, so only an integer is a pole: next to one,
    sine_r(2, .) and s_M are values within their estimates of the
    30-digit reference."""
    sv = sine_r(2, s)
    assert float(abs(sv.value - _mp_s2_closed_form(s))) <= sv.abs_err_estimate
    sv = s_M(s, SurfaceParams(2))
    with mpmath.workdps(30):
        a = _mp_s2_closed_form(s)
        ref = (a * a / (2 * mpmath.sinpi(s))) ** -2
    assert float(abs(sv.value - ref)) <= sv.abs_err_estimate


def test_s_M_exponent_linearity():
    l2 = math.log(s_M(0.7, SurfaceParams(2)).value)
    l3 = math.log(s_M(0.7, SurfaceParams(3)).value)
    assert l3 / l2 == pytest.approx((2 - 6) / (2 - 4), rel=1e-9)


@pytest.mark.parametrize("call, what", [
    (lambda: gamma_r(2, 5e-324), "gamma_r(2, 5e-324) = inf"),
    (lambda: gamma_r(1, 200.0), "gamma_r(1, 200.0) = inf"),
    (lambda: gamma_M(1e-300, SurfaceParams(2)), "gamma_M(1e-300) at genus 2 = inf"),
    (lambda: gamma_M(50.0, SurfaceParams(100)), "gamma_M(50.0) at genus 100 = 0.0"),
    (lambda: s_M(0.3, SurfaceParams(100000)), "s_M(0.3) at genus 100000 = inf"),
    (lambda: sine_r(2, 5e-324), "sine_r(2, 5e-324) = 3e-323"),
    (lambda: s_M(1e-300, SurfaceParams(2)), "s_M(1e-300) at genus 2 = inf"),
    (lambda: selberg_fe_factor(0.999, SurfaceParams(100000)),
     "selberg_fe_factor(0.999) at genus 100000 = 0.0"),
    (lambda: selberg_fe_factor(0.001, SurfaceParams(100000)),
     "selberg_fe_factor(0.001) at genus 100000 = inf"),
])
def test_not_a_normal_float_is_domain_error(call, what):
    """An over- or underflowing value raises DomainError naming the call,
    not a bare OverflowError or a zero or subnormal with a zero estimate."""
    with pytest.raises(DomainError, match=re.escape(what)
                       + " lies outside the normal float range"):
        call()


# -- the Selberg integral factor -----------------------------------------

def test_fe_factor_trivial_at_half():
    assert selberg_fe_factor(0.5, SurfaceParams(2)).value == 1.0


def test_fe_factor_domain():
    with pytest.raises(DomainError):
        selberg_fe_factor(1.0, SurfaceParams(2))
    with pytest.raises(DomainError):
        selberg_fe_factor(-0.2, SurfaceParams(2))


def test_fe_factor_matches_sine_product():
    params = SurfaceParams(2)
    lhs = selberg_fe_factor(0.8, params).value
    rhs = s_M(0.8, params).value
    assert abs(lhs / rhs - 1) < 1e-9


@pytest.mark.parametrize("genus", [2, 3])
def test_fe_integral_grid(genus):
    rows = check_fe_integral(genus)
    assert all(r.ok for r in rows)


def _mp_fe_factor(s, genus):
    """exp((4-4g) I) at 50 digits, I = -(s - 1/2) log(2 sin pi s) -
    Cl_2(2 pi s) / (2 pi) with mpmath's Clausen function."""
    with mpmath.workdps(50):
        S = mpmath.mpf(s)
        integral = (-(S - 0.5) * mpmath.log(2 * mpmath.sinpi(S))
                    - mpmath.clsin(2, 2 * mpmath.pi * S) / (2 * mpmath.pi))
        return mpmath.exp((4 - 4 * genus) * integral)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.8, 0.95])
def test_fe_factor_oracle_is_the_integral(s):
    """_mp_fe_factor, the reference of the estimate test, against the
    integral itself by mpmath's quadrature at 50 digits."""
    with mpmath.workdps(50):
        integral = mpmath.quad(lambda t: mpmath.pi * t * mpmath.tan(mpmath.pi * t),
                               [0, mpmath.mpf(s) - 0.5])
        assert abs(mpmath.log(_mp_fe_factor(s, 2)) / -4 - integral) < 1e-40


@pytest.mark.parametrize("genus", [2, 3])
def test_fe_factor_estimate_bounds_actual_error(genus):
    """abs_err_estimate >= |value - mpmath| on a seeded grid that reaches
    within 1e-12 of both ends of (0, 1), next to the poles of tan."""
    rng = random.Random(2011)
    near_zero = [1e-12, 1e-9, 1e-6] + [10 ** -rng.uniform(1, 15) for _ in range(6)]
    grid = (near_zero + [1 - x for x in near_zero]
            + [0.25, 0.5, 1 - 2 ** -53] + [rng.random() for _ in range(12)])
    params = SurfaceParams(genus)
    for s in grid:
        sv = selberg_fe_factor(s, params)
        ref = _mp_fe_factor(s, genus)
        err = float(abs(sv.value - ref))
        assert err <= sv.abs_err_estimate, s
        assert sv.abs_err_estimate < 1e-12 * sv.value, s


def test_fe_factor_genus_scaling():
    la = math.log(selberg_fe_factor(0.8, SurfaceParams(2)).value)
    lb = math.log(selberg_fe_factor(0.8, SurfaceParams(3)).value)
    assert lb / la == pytest.approx((4 - 12) / (4 - 8), rel=1e-10)


def test_fe_factor_reflection():
    params = SurfaceParams(2)
    for s in (0.15, 0.3, 0.45, 0.8):
        prod = (selberg_fe_factor(s, params).value
                * selberg_fe_factor(1 - s, params).value)
        assert abs(prod - 1) < 1e-10


def test_reduction_check_rows():
    assert all(r.ok for r in check_reduction())


# -- determinism ---------------------------------------------------------

def test_evaluation_is_deterministic():
    a = hurwitz_zeta_dw(-1, 1.37).value
    b = hurwitz_zeta_dw(-1, 1.37).value
    assert a == b
