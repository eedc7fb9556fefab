"""Numerical evaluation of multiple gamma / sine functions.

Everything is built on one kernel, _zeta_r: the order-r Hurwitz zeta
sum_n binom(n+r-1, r-1) (n+s)^-w or its analytic w-derivative, by
Euler-Maclaurin summation.  The partial sum carries the exact integer
simplex-counting weights; the tail expands the binomial in powers of
(n + s), with coefficients c_j(s) from an exact table built once per r,
and sums the order-1 tails of zeta_H(w - j, s).  Each call takes N
summed terms and B Bernoulli terms from a ladder of rungs, (10, 6) then
(24, 12): the first whose truncation bound lies below the rounding part
of its estimate.  The domain, Re w > r - 26, is that of B = 12.
Arithmetic is float for real w and complex for complex w.  At a
nonpositive integer w the value is the exact Bernoulli polynomial one.
hurwitz_zeta and hurwitz_zeta_dw are the kernel at r = 1, and the log of
the order-r gamma function is its w-derivative at w = 0.  The composites
(gamma_r, gamma_M, the double sine S_2, s_M and the Selberg
functional-equation factor) are each a sum in log space with the
estimates of its parts carried through, and one exp (_from_log).  The
double sine is the one multiple sine supported.  S_2, s_M and the Selberg
factor call no kernel: they are closed forms in the Clausen function,
whose series (_clausen) shares only the Bernoulli table with the kernel.
The fe-integral check pairs the Selberg factor with the kernel's Gamma_M.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, index, mul
from typing import List, Tuple, Union

Number = Union[float, complex]


class DomainError(ValueError):
    """Argument outside the supported domain."""


class PoleError(ValueError):
    """Evaluation at a pole or zero of the function."""


@dataclass(frozen=True)
class SpecialValue:
    value: Number
    abs_err_estimate: float


@dataclass(frozen=True)
class SurfaceParams:
    """A closed surface of genus >= 2.  The genus must be an integer (int,
    or any type with __index__): anything else raises TypeError naming it."""
    genus: int

    def __post_init__(self):
        try:
            genus = index(self.genus)
        except TypeError:
            raise TypeError(f"genus must be an integer, got {self.genus!r}") from None
        if genus < 2:
            raise ValueError(f"genus must be >= 2, got {genus}")
        object.__setattr__(self, "genus", genus)


_EPS = sys.float_info.epsilon
# the kernel's rungs (N directly summed terms, B Bernoulli correction
# terms), cheapest first; the last sets the domain, Re(w) > r - 2B - 2 =
# r - 26
_RUNGS = ((10, 6), (24, 12))
# zeta_r(-n, s) is summed exactly for n up to this; at the cap the
# Bernoulli numbers and the sum take about 0.1 s, the numbers once
_EXACT_MAX_N = 400
# exact B_0, B_1, ..., grown on demand by _bernoulli and never rebuilt
_BERNOULLI: List[Fraction] = [Fraction(1), Fraction(-1, 2)]


def _bernoulli(n: int) -> List[Fraction]:
    """Exact B_0, ..., B_n (at least), B_1 = -1/2, via the recurrence
    sum_{j<=m} C(m+1, j) B_j = 0.  Odd B_m vanish for m >= 3."""
    b = _BERNOULLI
    for m in range(len(b), n + 1):
        acc = Fraction(0)
        if m % 2 == 0:
            for j in range(0, m, 2):
                acc += math.comb(m + 1, j) * b[j]
            acc += (m + 1) * b[1]
        b.append(-acc / (m + 1))
    return b


@lru_cache(maxsize=None)
def _em_weights(B: int) -> Tuple[Fraction, ...]:
    """B_2k / (2k)! for k = 1..B+1: the Euler-Maclaurin correction weights,
    the last one for the first omitted term."""
    b = _bernoulli(2 * B + 2)
    return tuple(b[2 * k] / math.factorial(2 * k) for k in range(1, B + 2))


@lru_cache(maxsize=None)
def _em_float_weights(B: int) -> Tuple[Tuple[float, ...], float]:
    """_em_weights(B) rounded to floats: the B summed, and the omitted one."""
    *head, last = map(float, _em_weights(B))
    return tuple(head), last


@lru_cache(maxsize=None)
def _simplex_exact(r: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Rows a_j with c_j(s) = sum_i a_j[i] s^i exactly, where
    binom(n+r-1, r-1) = sum_j c_j(s) (n+s)^j.

    The binomial prod_{i<r} (n+i) / (r-1)! is expanded as a polynomial
    p_t n^t, then shifted by n = (n+s) - s:
    c_j(s) = sum_{t>=j} p_t C(t, j) (-s)^{t-j}.  Every p_t is positive,
    so a_j[i] has the sign (-1)^i.
    """
    poly = [Fraction(1)]
    for i in range(1, r):
        shifted = [Fraction(0)] + poly            # n * poly
        for t, c in enumerate(poly):
            shifted[t] += i * c
        poly = shifted
    fact = math.factorial(r - 1)
    return tuple(tuple(poly[j + i] * math.comb(j + i, j) * (-1) ** i / fact
                       for i in range(r - j))
                 for j in range(r))


@lru_cache(maxsize=None)
def _simplex_table(r: int) -> Tuple[Tuple[float, ...], ...]:
    """_simplex_exact(r) rounded to floats, highest power first."""
    return tuple(tuple(float(a) for a in reversed(row))
                 for row in _simplex_exact(r))


def _simplex_pair(r: int, s: float) -> Tuple[List[float], List[float]]:
    """Coefficients c_j(s) with binom(n+r-1, r-1) = sum_j c_j(s) (n+s)^j,
    and their rounding scale, by one Horner pass over the cached table at
    s and at -s.  Since a_j[i] has the sign (-1)^i, the pass at -s gives
    sum_i |a_j[i]| s^i, the scale of the rounding in c_j(s) for s > 0."""
    ms = -s
    out, scale = [], []
    for row in _simplex_table(r):
        acc = acc_m = 0.0
        for a in row:
            acc = acc * s + a
            acc_m = acc_m * ms + a
        out.append(acc)
        scale.append(acc_m)
    return out, scale


@lru_cache(maxsize=None)
def _simplex_weights(r: int, N: int) -> Tuple[float, ...]:
    """binom(n+r-1, r-1) for n < N: the partial-sum weights."""
    return tuple(float(math.comb(n + r - 1, r - 1)) for n in range(N))


@lru_cache(maxsize=64)
def _tail_table(n: int, r: int, B: int) -> tuple:
    """b_k P_k(u) and b_k P_k'(u), k = 1..B+1, at the integers u = n - j,
    j < r, in exact arithmetic, rounded to floats once: P_k(u) = u (u+1)
    ... (u+2k-2) has 2k-1 factors, and P_k' is kept by the product rule."""
    out = []
    for u in range(n, n - r, -1):
        p, dp, f, P, D = u, 1, u + 1, [], []
        for b in _em_weights(B):
            P.append(float(b * p))
            D.append(float(b * dp))
            p, dp = p * f * (f + 1), (dp * f + p) * (f + 1) + p * f
            f += 2
        out.append((P, D))
    return tuple(out)


def _zeta_r_exact(r: int, n: int, s: float) -> Tuple[float, float]:
    """zeta_r(-n, s) = -sum_j c_j(s) B_{n+j+1}(s) / (n+j+1), summed in
    exact rational arithmetic at the float s and rounded once."""
    if n > _EXACT_MAX_N:
        raise DomainError(f"at integer w the order-r zeta is evaluated for "
                          f"w >= -{_EXACT_MAX_N}, got w=-{n}")
    S = Fraction(s)
    b = _bernoulli(n + r)
    total = Fraction(0)
    for j, row in enumerate(_simplex_exact(r)):
        c = sum(a * S ** i for i, a in enumerate(row))
        m = n + j + 1
        bm = Fraction(0)                 # B_m(S) = sum_k C(m, k) B_k S^(m-k)
        for k in range(m + 1):
            bm = bm * S + math.comb(m, k) * b[k]
        total -= c * bm / m
    v = float(total)
    return v, 0.5 * math.ulp(v)


def _tail(r: int, w: Number, d: int, table, x: float, logx: float, B: int,
          cs: List[float], cabs: List[float]) -> Tuple[Number, float, float, float]:
    """One rung's tail sum_j c_j(s) T_j (see _zeta_r) at x = N+s with B
    Bernoulli terms: its value, its Backlund truncation bound, its running
    sums, and the scale of its rounding.  Coefficients come from table at
    an integer w, else from the pass that sums them against x^-2k."""
    y = 1.0 / (x * x)
    half = 0.5 / x
    scale = x ** -w * x                 # x^(1-w+j), advanced by x
    total = trunc = running = scale_tail = 0.0
    if table:
        ypows = list(accumulate(repeat(y, B + 1), mul))   # x^-2k
        y_omit = ypows.pop()
    else:
        weights, b_omit = _em_float_weights(B)
    for j, cabs_j in enumerate(cabs):
        u = w - j
        if table:
            P, D = table[j]
            s0, s1 = sum(map(mul, P, ypows)), sum(map(mul, D, ypows))
            p_omit, d_omit = P[B] * y_omit, D[B] * y_omit
        else:
            # b_k P_k(u) x^-2k and its u-derivative, as in _tail_table
            p, dp, f, s0, s1 = u * y, y, u + 1, 0.0, 0.0
            for b in weights:
                s0 += b * p
                if d:
                    s1 += b * dp
                    dp = ((dp * f + p) * (f + 1) + p * f) * y
                p = p * f * (f + 1) * y
                f += 2
            p_omit, d_omit = b_omit * p, b_omit * dp
        q = 1 / (u - 1)
        a = q + half + s0
        if d:
            bracket = logx * a + q * q - s1          # negated
            omitted = d_omit - logx * p_omit
            pieces = (logx + 1) * abs(a) + abs(q * q) + abs(s1)
        else:
            bracket = a
            omitted = p_omit
            pieces = abs(q) + half + abs(s0)
        c_scale = cs[j] * scale
        total += c_scale * bracket
        running += abs(total)
        # Backlund: the remainder is at most |u+2B+1| / (Re u + 2B+1)
        # times the first omitted term
        trunc += (abs(c_scale * omitted) * abs(u + 2 * B + 1)
                  / (u.real + 2 * B + 1))
        scale_tail += cabs_j * abs(scale) * pieces
        scale *= x
    return total, trunc, running, scale_tail


def _zeta_r(r: int, w: Number, s: float, d: int) -> SpecialValue:
    """The order-r Hurwitz zeta sum_n binom(n+r-1, r-1) (n+s)^-w (d = 0)
    or its w-derivative (d = 1): the one Euler-Maclaurin kernel.

    N summed terms and B Bernoulli terms are the first rung of _RUNGS
    whose truncation bound lies below the rounding part of its estimate,
    else the last; a rung is passed over untried outside its domain, or
    where its omitted term exceeds eps of the tail even at its least.
    Partial sum over n < N with the exact integer weights, times
    -log(n+s) for the derivative; then the tail sum_j c_j(s) T_j, where
    T_j is the Euler-Maclaurin tail of zeta_H^(d)(w-j, s) at x = N+s:

        T_j = x^(1-w+j) [A_j]                 (d = 0)
        T_j = x^(1-w+j) [A'_j - log x A_j]    (d = 1)
        A_j = 1/(u-1) + 1/(2x) + sum_k b_k P_k(u) x^-2k,    u = w - j,

    with A'_j its u-derivative and P_k the rising products of
    _tail_table.  Arithmetic is float for real w and complex for complex
    w.  At a nonpositive integer w the value is the exact Bernoulli one.
    The estimate is the first omitted correction plus the rounding: eps
    times the running sums (N times the sum of |terms| for the partial
    sum), and a few ulps per term, where rounding n+s or x moves x^-w by
    |w| log x ulps.  Raises DomainError where the value or the estimate
    is not a finite float, and where Re(w - j) + 2B + 1 <= 0 for some j
    at the last rung's B: there its remainder diverges, so the domain is
    that of B = 12 alone.
    """
    wc = complex(w)
    integral = wc.imag == 0 and wc.real.is_integer()
    try:
        if d == 0 and integral and wc.real <= 0:
            v, err = _zeta_r_exact(r, -int(wc.real), s)
            return SpecialValue(complex(v) if isinstance(w, complex) else v, err)
        top = _RUNGS[-1][1]
        if wc.real <= r - 2 * top - 2:
            raise DomainError(f"Euler-Maclaurin with {top} Bernoulli terms needs "
                              f"Re(w) > {r - 2 * top - 2} at order {r}, got w={w}")
        mw = -w
        cs, cabs = _simplex_pair(r, s)
        sum_p = 0.0
        for N, B in _RUNGS:
            x = N + s
            # untried outside its domain, or where its omitted term exceeds
            # eps of the tail at its least, |b_{B+1}| (|Im w| / x)^(2B+2):
            # each factor of P_{B+1}(u) (u-1) is at least |Im w|
            if B < top and (wc.real <= r - 2 * B - 2 or wc.imag and (
                    abs(wc.imag) / x > (_EPS / abs(_em_float_weights(B)[1]))
                    ** (1 / (2 * B + 2)))):
                continue
            points = list(map(add, range(N), repeat(s)))
            terms = _simplex_weights(r, N)
            if w != 0:
                terms = list(map(mul, terms, map(pow, points, repeat(mw))))
            if d:
                # log(n+s) (n+s)^-w: the derivative is minus their sum, and
                # T_j is negated too; |t_n| + |p_n| is its rounding scale
                sum_p = sum(map(abs, terms))
                terms = list(map(mul, map(math.log, points), terms))
            sum_t = sum(map(abs, terms))
            logx = math.log(x)
            tail, trunc, running, scale_tail = _tail(
                r, w, d, integral and _tail_table(int(wc.real), r, B),
                x, logx, B, cs, cabs)
            total = sum(terms) + tail
            per_term = 4 + r + abs(w) * (1 + max(logx, -math.log(s)))
            rounding = _EPS * (N * sum_t + running + abs(total)
                               + per_term * (sum_t + sum_p + scale_tail))
            if trunc <= rounding:
                break
        if d:
            total = -total
        err = trunc + rounding
        finite = math.isfinite(abs(total)) and math.isfinite(err)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"the order-{r} zeta at w={w}, s={s} or its error "
                          "estimate is not a finite float")
    return SpecialValue(total, err)


# orders r and poles w = 1..r: a set, so testing a float or complex w is one hash
_ORDERS = frozenset((1, 2, 3, 4))


def _kernel_args(name: str, r: int, w: Number, s: float) -> None:
    """The kernel front-ends' argument rules, naming the caller: order r
    in 1..4, s > 0, a finite w, and no pole at w = 1..r."""
    if r not in _ORDERS:
        raise DomainError(f"{name}: order r must be in 1..4, got {r}")
    if not s > 0:
        raise DomainError(f"{name} requires s > 0, got s={s}")
    if not cmath.isfinite(w):
        raise DomainError(f"{name} requires a finite w, got w={w}")
    if w in _ORDERS and complex(w).real <= r:
        raise PoleError(f"{name} of order {r} has a pole at w={complex(w).real:g}")


def hurwitz_zeta(w: Number, s: float) -> SpecialValue:
    """Analytic continuation of sum_{n>=0} (n+s)^-w: the kernel at r = 1.

    Exact, up to one rounding, at w = 0, -1, ..., -400:
    zeta_H(-n, s) = -B_{n+1}(s) / (n+1).
    """
    _kernel_args("hurwitz_zeta", 1, w, s)
    return _zeta_r(1, w, s, 0)


def hurwitz_zeta_dw(w: Number, s: float) -> SpecialValue:
    """Analytic w-derivative of the Hurwitz zeta: the kernel at r = 1.

    Never a finite difference: each Euler-Maclaurin term is
    differentiated in closed form, including the Pochhammer products.
    """
    _kernel_args("hurwitz_zeta_dw", 1, w, s)
    return _zeta_r(1, w, s, 1)


def multiple_hurwitz_zeta(r: int, w: Number, s: float) -> SpecialValue:
    """Order-r Hurwitz zeta sum_{n_1..n_r>=0} (n_1+...+n_r+s)^-w.

    The number of lattice points with coordinate sum n is
    binom(n+r-1, r-1), so the kernel sums the order-1 series with those
    weights; its tail is sum_j c_j(s) zeta_H(w-j, s) past the cutoff.
    """
    _kernel_args("multiple_hurwitz_zeta", r, w, s)
    return _zeta_r(r, w, s, 0)


def log_gamma_r(r: int, s: float) -> SpecialValue:
    """log of the normalized order-r gamma function: d/dw zeta_r(w,s) at w=0."""
    _kernel_args("log_gamma_r", r, 0.0, s)
    return _zeta_r(r, 0.0, s, 1)


_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


def _normal(v: float, what: str) -> float:
    """v, or DomainError naming `what` where |v| is not a normal float."""
    if not _FLOAT_MIN <= abs(v) <= _FLOAT_MAX:
        raise DomainError(f"{what} = {v!r} lies outside the normal float "
                          "range; it cannot be evaluated as a float")
    return v


def _exp(x: float, what: str) -> float:
    """exp(x) through _normal: an overflow reads as inf, not OverflowError."""
    try:
        return _normal(math.exp(x), what)
    except OverflowError:
        return _normal(math.inf, what)


def _from_log(log_v: float, log_err: float, what: str,
              sign: int = 1) -> SpecialValue:
    """sign * exp(log_v), the one way out of log space for every composite.

    log_err bounds the error of log_v before its last rounding; that
    rounding and exp's own add eps (|log_v| + 1) to the relative error.
    Raises DomainError naming `what` where the value is not a normal float.
    """
    v = _exp(log_v, what)
    return SpecialValue(sign * v, v * (log_err + _EPS * (abs(log_v) + 1)))


def gamma_r(r: int, s: float) -> SpecialValue:
    """Normalized order-r gamma function; DomainError where it is not a
    normal float."""
    lg = log_gamma_r(r, s)
    return _from_log(lg.value, lg.abs_err_estimate, f"gamma_r({r}, {s!r})")


# Clausen series terms summed by _clausen: at |theta| <= pi the tail
# after them is below 2e-20
_CLAUSEN_TERMS = 27


@lru_cache(maxsize=None)
def _clausen_weights() -> Tuple[Tuple[float, ...], float]:
    """|B_2n| / (2n (2n+1)!) for n = _CLAUSEN_TERMS..1, highest first for
    Horner, each from the Euler-Maclaurin weight B_2n / (2n)! and rounded
    once; and 3/2 of the first omitted term at |theta| = pi, a bound on
    the tail at every |theta| <= pi (see _clausen)."""
    *head, omitted = (abs(b) / (2 * n * (2 * n + 1))
                      for n, b in enumerate(_em_weights(_CLAUSEN_TERMS), 1))
    return (tuple(map(float, reversed(head))),
            1.5 * float(omitted) * math.pi ** (2 * _CLAUSEN_TERMS + 2))


def _clausen(u: float, log_sine: float) -> Tuple[float, float]:
    """Cl_2(2 pi u) / (2 pi) for 0 < |u| <= 1/2, and a bound on its error,
    given L = log_sine = log|2 sin pi u|.  With theta = 2 pi u in
    [-pi, pi] and Cl_2 the Clausen function,

        Cl_2(theta) / theta = C = 1 - log|theta| + P,
        P = sum_{n>=1} |B_2n| theta^2n / (2n (2n+1)!),

    and the value is u C.  Each term of P is at most (theta / 2 pi)^2 <=
    1/4 of the one before, as |B_2n| / (2n)! = 2 zeta(2n) / (2 pi)^2n:
    the tail past _CLAUSEN_TERMS terms is at most 4/3 of the first omitted
    one, and a term n carries at most (1/2 + 3n/2) eps of rounding, so P
    carries less than 4 eps P.  The bound adds

        |u| (tail + eps (|L| + |C|))
                                the truncation, and theta's rounding by
                                eps of itself, as theta C' = -L - C;
        eps |u| (1 + 2|log theta| + 4 P + |C|)
                                the log, P, the two sums, the product.
    """
    theta = 2.0 * math.pi * u
    log_theta = math.log(abs(theta))
    t = theta * theta
    weights, tail = _clausen_weights()
    p = 0.0
    for w in weights:
        p = p * t + w
    p *= t
    c = 1.0 - log_theta + p
    return u * c, abs(u) * (tail + _EPS * (abs(log_sine) + 2 * abs(c) + 1
                                           + 2 * abs(log_theta) + 4 * p))


def _log_s2(s: float) -> Tuple[float, int, float]:
    """log |S_2(s)|, the sign of S_2(s), and a bound on the log's error.

    S_2 solves (log S_2)'(t) = pi (1-t) cot pi t with S_2(1) = 1.  With k
    the integer nearest s, d = s - k in (-1/2, 1/2] (exact), n = k - 1 and
    L = log|2 sin pi d|, integration by parts on the base window b = 1 + d
    (Cl_2'(theta) = -log|2 sin(theta/2)|) gives log S_2(b) = -d L -
    Cl_2(2 pi d) / (2 pi), and the shift ladder S_2(t+1) = S_2(t) /
    (2 sin pi t) adds -n L, with n + d = s - 1:

        log |S_2(s)| = -(s - 1) L - Cl_2(2 pi d) / (2 pi),

    and the sign is (-1)^(n(n-1)/2) times that of (sin pi b)^n, as
    S_2(b) > 0.  Poles and zeros are decided on the exact d: d == 0 is a
    PoleError, save S_2(1) = 1, which is returned as it is, and every
    other s, however near an integer, gives the formula's value (where
    that is not a normal float, _from_log refuses it).  With m = s - 1,
    the bound on the log's error adds

        eps |m| (2 + 2|L|)      the sine and its log, taken once and
                                scaled by |m|: pi d is off by eps |pi d|,
                                which moves the sine by eps |pi d cot pi d|
                                <= eps of itself, and sin adds an ulp, so
                                L is off by 2 eps and its rounding adds
                                eps |L|; then the rounding of m (exact for
                                1/2 <= s <= 2) and of the product;
        |d| (tail + eps (...))  the Clausen part, as bounded by _clausen;
        eps |log |S_2(s)||      the final sum.
    """
    if not math.isfinite(s):
        raise DomainError(f"S_2 requires a finite s, got s={s}")
    k = round(s)
    d = s - k
    if d == -0.5:                   # round() ties to even
        k, d = k - 1, 0.5
    if not d:
        if k != 1:
            raise PoleError(f"S_2 evaluation hits a sine zero/pole at integer s={s}")
        return 0.0, 1, 0.0
    n = k - 1
    m = s - 1.0
    log_sine = math.log(abs(2.0 * math.sin(math.pi * d)))
    cl, cl_err = _clausen(d, log_sine)
    log_v = -m * log_sine - cl
    flips = n * (n - 1) // 2 + (n if d > 0 else 0)     # sin pi b < 0 iff d > 0
    return (log_v, -1 if flips % 2 else 1,
            _EPS * (abs(m) * (2 + 2 * abs(log_sine)) + abs(log_v)) + cl_err)


def sine_r(r: int, s: float) -> SpecialValue:
    """Normalized multiple sine of order r = 2, the one order supported,
    in log space.

    It is defined at every finite non-integer s (_log_s2), with an
    estimate that grows with |s|.  Raises PoleError at an integer other
    than 1, and DomainError where the value is not a normal float:
    |S_2(s)| over- or underflows far along the ladder, and is subnormal
    for s next to 0.
    """
    if r != 2:
        raise DomainError(f"sine_r supports r = 2 only, got r={r}")
    log_v, sign, err = _log_s2(s)
    return _from_log(log_v, err, f"sine_r(2, {s!r})", sign)


def gamma_M(s: float, params: SurfaceParams) -> SpecialValue:
    """Completing gamma factor (Gamma_2(s) Gamma_2(s+1))^(2g-2), in log space.

    Raises DomainError where the value is not a normal float.
    """
    if s <= 0:
        raise DomainError(f"gamma_M requires s > 0, got s={s}")
    e = 2 * params.genus - 2
    lg = log_gamma_r(2, s)
    lg1 = log_gamma_r(2, s + 1)
    return _from_log(e * (lg.value + lg1.value),
                     abs(e) * (lg.abs_err_estimate + lg1.abs_err_estimate),
                     f"gamma_M({s!r}) at genus {params.genus}")


def s_M(s: float, params: SurfaceParams) -> SpecialValue:
    """(S_2(s) S_2(s+1))^(2-2g), in log space: the exponent is even, so
    the signs cancel.  Equals gamma_M(s)/gamma_M(1-s) where both exist.

    One _log_s2 call: log |S_2(s+1)| = L(s) - log |2 sin pi d| by the
    ladder, with L(s) = log |S_2(s)| and d = s - round(s) exact, so s + 1
    is never formed.  The estimate adds 2 err(L(s)), the sine's rounding
    (as in _log_s2) and the rounding of the sum.  Raises PoleError at
    every integer s, where d == 0 exactly, s = 1 included, and DomainError
    where the value is not a normal float.
    """
    e = 2 - 2 * params.genus
    log_a, _, err_a = _log_s2(s)
    d = s - round(s)
    if not d:                       # s = 1: S_2(1) = 1, but S_2(2) is a pole
        raise PoleError(f"S_2 evaluation hits a sine zero/pole at integer s={s + 1}")
    log_sine = math.log(abs(2.0 * math.sin(math.pi * d)))
    log_v = 2 * log_a - log_sine
    return _from_log(e * log_v, abs(e) * (2 * err_a + _EPS * (2 + abs(log_sine)
                                                              + abs(log_v))),
                     f"s_M({s!r}) at genus {params.genus}")


def selberg_fe_factor(s: float, params: SurfaceParams) -> SpecialValue:
    """exp((4-4g) * integral_0^{s-1/2} pi t tan(pi t) dt) for s in (0, 1),
    in closed form: with h = s - 1/2 and Cl_2 the Clausen function,

        integral = -h log(2 sin pi s) - Cl_2(2 pi s) / (2 pi),

    as Cl_2'(theta) = -log|2 sin(theta/2)|.  With u = s, or s - 1 (exact,
    Sterbenz) for s > 1/2, sin pi s = sin pi|u| and Cl_2(2 pi s) =
    Cl_2(2 pi u), which _clausen sums at 2 pi u in [-pi, pi].  With
    L = log(2 sin pi|u|), the bound on the integral's error adds

        eps |h| (2 + 2|L|)      rounding h (exact for s >= 1/4), the sine
                                and its log (as in _log_s2), the product;
        |u| (tail + eps (...))  the Clausen part, as bounded by _clausen;
        eps |integral|          the difference.

    Raises DomainError where the value is not a normal float, as it is
    for every s below the normal range.
    """
    if not 0 < s < 1:
        raise DomainError(f"selberg_fe_factor requires 0 < s < 1, got s={s}")
    u = s if s <= 0.5 else s - 1.0
    h = s - 0.5
    log_sine = math.log(2.0 * math.sin(math.pi * abs(u)))
    cl, cl_err = _clausen(u, log_sine)
    integral = -h * log_sine - cl
    err = _EPS * (abs(h) * (2 + 2 * abs(log_sine)) + abs(integral)) + cl_err
    e = 4 - 4 * params.genus
    return _from_log(e * integral, abs(e) * err,
                     f"selberg_fe_factor({s!r}) at genus {params.genus}")


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


def check_ladder() -> List[CheckRow]:
    """S_2(s+1) = S_2(s)/(2 sin pi s) and S_2(s+2) = -S_2(s+1)/(2 sin pi s)."""
    rows = []
    for i in range(1, 10):
        s = i / 10
        s2 = sine_r(2, s).value
        s2p1 = sine_r(2, s + 1).value
        s2p2 = sine_r(2, s + 2).value
        sin2 = 2 * math.sin(math.pi * s)
        rows.append(CheckRow("S2(s+1)=S2(s)/(2 sin pi s)", s,
                             s2p1, s2 / sin2,
                             abs(s2p1 - s2 / sin2) / abs(s2p1), 1e-10))
        rows.append(CheckRow("S2(s+2)=-S2(s+1)/(2 sin pi s)", s,
                             s2p2, -s2p1 / sin2,
                             abs(s2p2 + s2p1 / sin2) / abs(s2p2), 1e-10))
    return rows


def check_ode() -> List[CheckRow]:
    """(log S_2)'(s) = pi (1-s) cot(pi s), by central finite difference."""
    rows = []
    h = 1e-5
    for i in range(1, 10):
        s = i / 10
        lhs = (math.log(abs(sine_r(2, s + h).value))
               - math.log(abs(sine_r(2, s - h).value))) / (2 * h)
        rhs = math.pi * (1 - s) / math.tan(math.pi * s)
        rows.append(CheckRow("dlogS2 = pi(1-s)cot(pi s)", s, lhs, rhs,
                             abs(lhs - rhs), 1e-6))
    return rows


def check_fe_integral(genus: int) -> List[CheckRow]:
    """Closed-form factor vs the kernel's Gamma_M(s) / Gamma_M(1-s), which
    is (S_2(s) S_2(s+1))^(2-2g), on a 17-point grid.  Not s_M: on (0, 1)
    that is the factor's own Clausen formula."""
    params = SurfaceParams(genus)
    rows = []
    for i in range(17):
        s = 0.1 + 0.8 * (i + 0.5) / 17
        lhs = selberg_fe_factor(s, params).value
        rhs = gamma_M(s, params).value / gamma_M(1 - s, params).value
        rows.append(CheckRow("fe-factor = GammaM(s)/GammaM(1-s)", s, lhs, rhs,
                             abs(lhs / rhs - 1), 1e-9))
    return rows


def check_reduction() -> List[CheckRow]:
    """Order-2 reduction vs the truncated raw double sum with tail estimate."""
    rows = []
    for w, s in ((3.0, 1.5), (4.0, 1.0), (2.5, 0.7)):
        oracle, bound = double_sum_oracle(w, s)
        val = multiple_hurwitz_zeta(2, w, s).value
        rows.append(CheckRow("zeta_2 reduction vs double sum", s, val, oracle,
                             abs(val - oracle), bound))
    return rows


def double_sum_oracle(w: float, s: float):
    """Brute-force order-2 sum over n_1 + n_2 <= 4000 plus an integral tail.

    Returns (estimate, bound): the truncated sum plus the midpoint of
    the two bracketing tail integrals, and half their gap plus one term
    as a rigorous accuracy bound.  Independent of the reduction path.
    """
    if w <= 2:
        raise DomainError("double-sum oracle needs w > 2 for a convergent tail")
    nmax = 4000
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
