"""Numerical evaluation of multiple gamma / sine functions.

Everything is built on one kernel: the Hurwitz zeta function and its
analytic w-derivative, evaluated by Euler-Maclaurin summation.  The
order-r Hurwitz zeta collapses to order 1 through the exact expansion
of the simplex-counting binomial in powers of (n + s), the log of the
order-r gamma function is the w-derivative of that at w = 0, and the
double sine function is a quotient of double gammas extended by its
shift ladder.  The Selberg functional-equation integral factor is done
by direct quadrature and cross-checks the sine-product form.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple, Union

from scipy.integrate import quad

Number = Union[float, complex]


class DomainError(ValueError):
    """Argument outside the supported domain."""


class PoleError(ValueError):
    """Evaluation at a pole or zero of the function."""


@dataclass(frozen=True)
class SpecialEvaluator:
    """Precision knobs for the Euler-Maclaurin kernel.

    euler_maclaurin_cutoff: number of directly summed terms.
    bernoulli_terms: number of Bernoulli correction terms.
    """
    euler_maclaurin_cutoff: int = 24
    bernoulli_terms: int = 12

    def __post_init__(self):
        if self.euler_maclaurin_cutoff < 8:
            raise ValueError("euler_maclaurin_cutoff must be >= 8")
        if self.bernoulli_terms < 4:
            raise ValueError("bernoulli_terms must be >= 4")


@dataclass(frozen=True)
class SpecialValue:
    value: Number
    abs_err_estimate: float


@dataclass(frozen=True)
class SurfaceParams:
    genus: int

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError(f"genus must be >= 2, got {self.genus}")


DEFAULT_EVALUATOR = SpecialEvaluator()


@lru_cache(maxsize=None)
def _bernoulli_even(kmax: int) -> tuple:
    """Exact B_2, B_4, ..., B_{2*kmax} as floats, via the defining recurrence."""
    n = 2 * kmax
    b: List[Fraction] = [Fraction(0)] * (n + 1)
    b[0] = Fraction(1)
    if n >= 1:
        b[1] = Fraction(-1, 2)
    for m in range(2, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * b[j]
        b[m] = -acc / (m + 1)
    return tuple(float(b[2 * k]) for k in range(1, kmax + 1))


def _as_number(z: complex, want_complex: bool) -> Number:
    return z if want_complex else z.real


def hurwitz_zeta(w: Number, s: float,
                 ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """Analytic continuation of sum_{n>=0} (n+s)^-w by Euler-Maclaurin.

    Partial sum to N-1 plus the (N+s)^{1-w}/(w-1) and (N+s)^{-w}/2 tail
    terms and bernoulli_terms Bernoulli corrections; the error estimate
    is the magnitude of the first omitted correction.
    """
    if s <= 0:
        raise DomainError(f"hurwitz_zeta requires s > 0, got s={s}")
    wc = complex(w)
    if wc == 1:
        raise PoleError("hurwitz_zeta has a pole at w = 1")
    N = ev.euler_maclaurin_cutoff
    B = ev.bernoulli_terms
    total = 0j
    for n in range(N):
        total += (n + s) ** (-wc)
    x = N + s
    logx = math.log(x)
    xw = cmath.exp(-wc * logx)          # x^-w
    total += x * xw / (wc - 1)          # x^{1-w}/(w-1)
    total += xw / 2
    bern = _bernoulli_even(B + 1)
    # rising product w(w+1)...(w+2k-2), advanced two factors per term
    poch = wc
    fact = 2.0
    order = 1
    xpow = xw / x                       # x^{-w-1}
    term = 0j
    for k in range(1, B + 1):
        term = (bern[k - 1] / fact) * poch * xpow
        total += term
        poch *= (wc + order) * (wc + order + 1)
        order += 2
        fact *= (order) * (order + 1)
        xpow /= x * x
    next_term = (bern[B] / fact) * poch * xpow
    err = abs(next_term) + abs(term) * 1e-16
    return SpecialValue(_as_number(total, isinstance(w, complex)), err)


def hurwitz_zeta_dw(w: Number, s: float,
                    ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """Termwise analytic w-derivative of the Euler-Maclaurin expression.

    Never a finite difference: each term of hurwitz_zeta is
    differentiated in closed form, including the Pochhammer products.
    """
    if s <= 0:
        raise DomainError(f"hurwitz_zeta_dw requires s > 0, got s={s}")
    wc = complex(w)
    if wc == 1:
        raise PoleError("hurwitz_zeta has a pole at w = 1")
    N = ev.euler_maclaurin_cutoff
    B = ev.bernoulli_terms
    total = 0j
    for n in range(N):
        a = n + s
        total += -math.log(a) * a ** (-wc)
    x = N + s
    logx = math.log(x)
    xw = cmath.exp(-wc * logx)
    # d/dw [x^{1-w}/(w-1)] = x^{1-w} (-logx/(w-1) - 1/(w-1)^2)
    total += x * xw * (-logx / (wc - 1) - 1 / (wc - 1) ** 2)
    total += -logx * xw / 2
    bern = _bernoulli_even(B + 1)
    # p = w(w+1)...(w+2k-2) and dp = p' maintained by the product rule
    p = wc
    dp = 1 + 0j
    fact = 2.0
    order = 1
    xpow = xw / x
    term = 0j
    for k in range(1, B + 1):
        term = (bern[k - 1] / fact) * (dp - p * logx) * xpow
        total += term
        for _ in range(2):
            dp = dp * (wc + order) + p
            p = p * (wc + order)
            order += 1
        fact *= order * (order + 1)
        xpow /= x * x
    next_term = (bern[B] / fact) * (dp - p * logx) * xpow
    err = abs(next_term) + abs(term) * 1e-16
    return SpecialValue(_as_number(total, isinstance(w, complex)), err)


def _simplex_coeffs(r: int, s: float) -> List[float]:
    """Coefficients c_j(s) with binom(n+r-1, r-1) = sum_j c_j(s) (n+s)^j.

    The binomial is expanded exactly (rational coefficients) as a
    polynomial in n, then shifted by n = (n+s) - s.
    """
    # polynomial in n: prod_{i=1}^{r-1} (n+i) / (r-1)!
    poly = [Fraction(1)]
    for i in range(1, r):
        shifted = [Fraction(0)] + poly            # n * poly
        for t, c in enumerate(poly):
            shifted[t] += i * c
        poly = shifted
    fact = math.factorial(r - 1)
    coeffs = [c / fact for c in poly]
    # substitute n = m - s: c_j = sum_{t>=j} coeffs[t] C(t,j) (-s)^{t-j}
    out = []
    for j in range(r):
        acc = 0.0
        for t in range(j, r):
            acc += float(coeffs[t]) * math.comb(t, j) * (-s) ** (t - j)
        out.append(acc)
    return out


def multiple_hurwitz_zeta(r: int, w: Number, s: float,
                          ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """Order-r Hurwitz zeta sum_{n_1..n_r>=0} (n_1+...+n_r+s)^-w.

    Collapsed to order 1: the number of lattice points with coordinate
    sum n is binom(n+r-1, r-1), re-expanded in powers of (n+s), so the
    value is sum_j c_j(s) * zeta_H(w-j, s).
    """
    if r not in (1, 2, 3, 4):
        raise DomainError(f"order r must be in 1..4, got {r}")
    if s <= 0:
        raise DomainError(f"multiple_hurwitz_zeta requires s > 0, got s={s}")
    wc = complex(w)
    for j in range(r):
        if wc - j == 1:
            raise PoleError(f"multiple_hurwitz_zeta of order {r} has a pole at w={j + 1}")
    total = 0j
    err = 0.0
    for j, c in enumerate(_simplex_coeffs(r, s)):
        if c == 0.0:
            continue
        part = hurwitz_zeta(wc - j, s, ev)
        total += c * complex(part.value)
        err += abs(c) * part.abs_err_estimate
    return SpecialValue(_as_number(total, isinstance(w, complex)), err)


def log_gamma_r(r: int, s: float,
                ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """log of the normalized order-r gamma function: d/dw zeta_r(w,s) at w=0."""
    if r not in (1, 2, 3, 4):
        raise DomainError(f"order r must be in 1..4, got {r}")
    if s <= 0:
        raise DomainError(f"log_gamma_r requires s > 0, got s={s}")
    total = 0.0
    err = 0.0
    for j, c in enumerate(_simplex_coeffs(r, s)):
        if c == 0.0:
            continue
        part = hurwitz_zeta_dw(float(-j), s, ev)
        total += c * part.value
        err += abs(c) * part.abs_err_estimate
    return SpecialValue(total, err)


def gamma_r(r: int, s: float,
            ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    lg = log_gamma_r(r, s, ev)
    v = math.exp(lg.value)
    return SpecialValue(v, abs(v) * lg.abs_err_estimate)


def _is_integer(s: float, tol: float = 1e-12) -> bool:
    return abs(s - round(s)) < tol


# the ladder loop takes one step per unit of |s|: the cap bounds its run time
_S2_MAX_LADDER = 100_000
_EPS = sys.float_info.epsilon
_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


def _two_sin_pi(t: float) -> Tuple[float, float]:
    """2 sin(pi t) and a bound on its relative rounding error.

    t is first reduced to d in [-1, 1] by an exact subtraction, so the
    argument pi d is off only by the rounding of pi and of the product,
    about 0.7 eps |pi d|; the sine turns that into 0.7 eps |pi d cot pi d|
    of itself, and math.sin and the caller's product or quotient add an
    ulp each.
    """
    arg = math.pi * (t - 2.0 * round(t / 2.0))
    return 2.0 * math.sin(arg), _EPS * (2.0 + abs(arg / math.tan(arg)))


def _s2_raw(s: float, ev: SpecialEvaluator) -> Tuple[float, float]:
    """S_2 on the base window via gammas, elsewhere by the shift ladder.

    Returns the value and the ladder's relative rounding bound (0 on the
    base window).  The ladder runs as a loop from s to the base point b
    in (1/2, 3/2]; t -= 1 and t += 1 are exact for these |t|.  Raises
    DomainError where the ladder product or the value is not a normal
    float: there the result would be 0, inf or lose precision.
    """
    t, factor, err = s, 1.0, 0.0
    while t > 1.5:
        t -= 1
        sine, step_err = _two_sin_pi(t)
        factor /= sine
        err += step_err
    while t <= 0.5:
        sine, step_err = _two_sin_pi(t)
        factor *= sine
        err += step_err
        t += 1
    base = math.exp(log_gamma_r(2, 2 - t, ev).value
                    - log_gamma_r(2, t, ev).value)
    v = base * factor
    # |2 sin pi t| is the same at every step, so |factor| moves away from 1
    # monotonically: if it ends as a normal float, so was every step
    if not (_FLOAT_MIN <= abs(factor) <= _FLOAT_MAX
            and _FLOAT_MIN <= abs(v) <= _FLOAT_MAX):
        raise DomainError(f"S_2({s}) = {v!r} lies outside the normal float "
                          "range; it cannot be evaluated as a float")
    return v, err


def sine_r(r: int, s: float,
           ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """Normalized multiple sine of order 1 or 2.

    Order 1 is only needed on its base window (0, 1); order 2 is
    extended to non-integer real s, |s| <= 100000, by the shift ladder
    S_2(s+1) = S_2(s) / (2 sin pi s).  The order-2 error estimate is
    1e-13 for the base window plus the rounding bound of every ladder
    step, so it grows with |s|.  Raises DomainError where |S_2(s)| is
    not a normal float (it over- or underflows far along the ladder).
    """
    if r == 1:
        if not 0 < s < 1:
            raise DomainError(f"sine_r(1, s) requires 0 < s < 1, got s={s}")
        lg = log_gamma_r(1, s, ev)
        lg2 = log_gamma_r(1, 1 - s, ev)
        v = math.exp(-lg.value - lg2.value)
        return SpecialValue(v, abs(v) * (lg.abs_err_estimate + lg2.abs_err_estimate))
    if r != 2:
        raise DomainError(f"sine_r supports r in {{1, 2}}, got r={r}")
    if not abs(s) <= _S2_MAX_LADDER:
        raise DomainError(f"sine_r(2, s) requires |s| <= {_S2_MAX_LADDER}, "
                          f"got s={s}")
    if _is_integer(s) and round(s) != 1:
        raise PoleError(f"S_2 evaluation hits a sine zero/pole at integer s={s}")
    v, ladder_err = _s2_raw(s, ev)
    return SpecialValue(v, abs(v) * (1e-13 + ladder_err))


def gamma_M(s: float, params: SurfaceParams,
            ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """Completing gamma factor (Gamma_2(s) Gamma_2(s+1))^(2g-2), in log space."""
    if s <= 0:
        raise DomainError(f"gamma_M requires s > 0, got s={s}")
    e = 2 * params.genus - 2
    lg = log_gamma_r(2, s, ev)
    lg1 = log_gamma_r(2, s + 1, ev)
    v = math.exp(e * (lg.value + lg1.value))
    return SpecialValue(v, abs(v) * abs(e) * (lg.abs_err_estimate + lg1.abs_err_estimate))


def s_M(s: float, params: SurfaceParams,
        ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> SpecialValue:
    """(S_2(s) S_2(s+1))^(2-2g); equals gamma_M(s)/gamma_M(1-s) where both exist."""
    e = 2 - 2 * params.genus
    a = sine_r(2, s, ev)
    b = sine_r(2, s + 1, ev)
    v = (a.value * b.value) ** e
    return SpecialValue(v, abs(v) * abs(e) * 2e-13)


def selberg_fe_factor(s: float, params: SurfaceParams) -> SpecialValue:
    """exp((4-4g) * integral_0^{s-1/2} pi t tan(pi t) dt) for s in (0, 1)."""
    if not 0 < s < 1:
        raise DomainError(f"selberg_fe_factor requires 0 < s < 1, got s={s}")
    integral, quad_err = quad(lambda t: math.pi * t * math.tan(math.pi * t),
                              0.0, s - 0.5, epsabs=1e-13, epsrel=1e-13)
    e = 4 - 4 * params.genus
    v = math.exp(e * integral)
    return SpecialValue(v, abs(v) * abs(e) * max(quad_err, 1e-15))


# -- identity check grids (used by the CLI and the acceptance suite) -----

@dataclass(frozen=True)
class CheckRow:
    label: str
    point: float
    lhs: Number
    rhs: Number
    error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.error < self.tolerance


def check_ladder(ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> List[CheckRow]:
    """S_2(s+1) = S_2(s)/(2 sin pi s) and S_2(s+2) = -S_2(s+1)/(2 sin pi s)."""
    rows = []
    for i in range(1, 10):
        s = i / 10
        s2 = sine_r(2, s, ev).value
        s2p1 = sine_r(2, s + 1, ev).value
        s2p2 = sine_r(2, s + 2, ev).value
        sin2 = 2 * math.sin(math.pi * s)
        rows.append(CheckRow("S2(s+1)=S2(s)/(2 sin pi s)", s,
                             s2p1, s2 / sin2,
                             abs(s2p1 - s2 / sin2) / abs(s2p1), 1e-10))
        rows.append(CheckRow("S2(s+2)=-S2(s+1)/(2 sin pi s)", s,
                             s2p2, -s2p1 / sin2,
                             abs(s2p2 + s2p1 / sin2) / abs(s2p2), 1e-10))
    return rows


def check_ode(ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> List[CheckRow]:
    """(log S_2)'(s) = pi (1-s) cot(pi s), by central finite difference."""
    rows = []
    h = 1e-5
    for i in range(1, 10):
        s = i / 10
        lhs = (math.log(abs(sine_r(2, s + h, ev).value))
               - math.log(abs(sine_r(2, s - h, ev).value))) / (2 * h)
        rhs = math.pi * (1 - s) / math.tan(math.pi * s)
        rows.append(CheckRow("dlogS2 = pi(1-s)cot(pi s)", s, lhs, rhs,
                             abs(lhs - rhs), 1e-6))
    return rows


def check_fe_integral(genus: int,
                      ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> List[CheckRow]:
    """Quadrature factor vs (S_2(s) S_2(s+1))^(2-2g) on a 17-point grid."""
    params = SurfaceParams(genus)
    rows = []
    for i in range(17):
        s = 0.1 + 0.8 * (i + 0.5) / 17
        lhs = selberg_fe_factor(s, params).value
        rhs = s_M(s, params, ev).value
        rows.append(CheckRow("fe-factor = (S2(s)S2(s+1))^(2-2g)", s, lhs, rhs,
                             abs(lhs / rhs - 1), 1e-9))
    return rows


def check_reduction(ev: SpecialEvaluator = DEFAULT_EVALUATOR) -> List[CheckRow]:
    """Order-2 reduction vs the truncated raw double sum with tail estimate."""
    rows = []
    for w, s in ((3.0, 1.5), (4.0, 1.0), (2.5, 0.7)):
        oracle, bound = double_sum_oracle(w, s)
        val = multiple_hurwitz_zeta(2, w, s, ev).value
        rows.append(CheckRow("zeta_2 reduction vs double sum", s, val, oracle,
                             abs(val - oracle), bound))
    return rows


def double_sum_oracle(w: float, s: float, nmax: int = 4000):
    """Brute-force order-2 sum over n_1 + n_2 <= nmax plus an integral tail.

    Returns (estimate, bound): the truncated sum plus the midpoint of
    the two bracketing tail integrals, and half their gap plus one term
    as a rigorous accuracy bound.  Independent of the reduction path.
    """
    if w <= 2:
        raise DomainError("double-sum oracle needs w > 2 for a convergent tail")
    total = 0.0
    for n in range(nmax + 1):
        total += (n + 1) * (n + s) ** (-w)

    def tail_integral(a: float) -> float:
        # integral_a^inf (t+1)(t+s)^-w dt with u = t+s
        u = a + s
        return u ** (2 - w) / (w - 2) + (1 - s) * u ** (1 - w) / (w - 1)

    hi = tail_integral(nmax)        # >= sum_{n>nmax}
    lo = tail_integral(nmax + 1)    # <= sum_{n>nmax}
    estimate = total + (hi + lo) / 2
    bound = (hi - lo) / 2 + (nmax + 2) * (nmax + 1 + s) ** (-w)
    return estimate, bound
