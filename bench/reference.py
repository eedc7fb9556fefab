"""Reference computations made apart from the program under test.

Nothing here imports selbergfe.  The special-function references use
mpmath at 40 significant digits; the Euler products use mpmath over the
spectrum entries; the symmetry and counting references are direct
integer and list computations.  All of them run outside the timed
region.
"""
from __future__ import annotations

import math

import mpmath

DPS = 40
BOLZA_SYSTOLE = 2 * math.acosh(1 + math.sqrt(2))


# -- Laurent polynomials -------------------------------------------------

def reflection_holds(coeffs: dict, D: int, sign: int) -> bool:
    """a(D - k) = sign * a(k) for every integer k, by a scan of the full range."""
    if not coeffs:
        return True
    lo, hi = min(coeffs), max(coeffs)
    for k in range(min(lo, D - hi), max(hi, D - lo) + 1):
        if coeffs.get(D - k, 0) != sign * coeffs.get(k, 0):
            return False
    return True


def symmetry_kind(coeffs: dict):
    """(kind, D, C) of f(1/x) = C x^-D f(x), with D forced to min + max."""
    if not coeffs:
        return "zero", None, None
    D = min(coeffs) + max(coeffs)
    if reflection_holds(coeffs, D, -1):
        return "odd", D, -1
    if reflection_holds(coeffs, D, +1):
        return "even", D, +1
    return "none", None, None


# -- special functions ---------------------------------------------------

def _simplex_poly(r: int, s) -> list:
    """Coefficients in m = n + s of binom(n + r - 1, r - 1), exact in s.

    binom(n + r - 1, r - 1) = prod_{i=1}^{r-1} (m + i - s) / (r - 1)!,
    multiplied out directly in m.
    """
    poly = [mpmath.mpf(1)]
    for i in range(1, r):
        c = i - s
        nxt = [mpmath.mpf(0)] * (len(poly) + 1)
        for t, a in enumerate(poly):
            nxt[t] += a * c
            nxt[t + 1] += a
        poly = nxt
    fact = math.factorial(r - 1)
    return [a / fact for a in poly]


def hurwitz(w, s):
    with mpmath.workdps(DPS):
        return mpmath.zeta(_mp(w), mpmath.mpf(s))


def hurwitz_dw(w, s):
    with mpmath.workdps(DPS):
        return mpmath.zeta(_mp(w), mpmath.mpf(s), 1)


def multiple_hurwitz(r: int, w, s):
    with mpmath.workdps(DPS):
        sm = mpmath.mpf(s)
        return mpmath.fsum(c * mpmath.zeta(_mp(w) - j, sm)
                           for j, c in enumerate(_simplex_poly(r, sm)))


def log_gamma_r(r: int, s):
    """log Gamma_r(s) = zeta_r'(0, s); order 1 by Lerch's formula."""
    with mpmath.workdps(DPS):
        sm = mpmath.mpf(s)
        if r == 1:
            return mpmath.loggamma(sm) - mpmath.log(2 * mpmath.pi) / 2
        return mpmath.fsum(c * mpmath.zeta(-j, sm, 1)
                           for j, c in enumerate(_simplex_poly(r, sm)))


def sine2(s):
    """S_2(s): Gamma_2(2-b)/Gamma_2(b) on b in (1/2, 3/2], carried to s.

    The ladder S_2(t+1) = S_2(t) / (2 sin pi t) is run as a loop at 40
    digits from the base point b = s - n, so any |s| is reachable.
    """
    with mpmath.workdps(DPS):
        sm = mpmath.mpf(s)
        n = math.ceil(s - 1.5)
        b = sm - n
        v = mpmath.exp(log_gamma_r(2, 2 - b) - log_gamma_r(2, b))
        t = b
        for _ in range(max(n, 0)):
            v /= 2 * mpmath.sinpi(t)
            t += 1
        for _ in range(max(-n, 0)):
            t -= 1
            v *= 2 * mpmath.sinpi(t)
        return v


def _mp(w):
    return mpmath.mpc(w) if isinstance(w, complex) else mpmath.mpf(w)


# -- spectra -------------------------------------------------------------

def log_euler_zeta(s: float, entries) -> mpmath.mpf:
    """log prod_P (1 - N(P)^-s)^-1 over (length, multiplicity) entries."""
    with mpmath.workdps(25):
        sm = mpmath.mpf(s)
        return -mpmath.fsum(m * mpmath.log1p(-mpmath.exp(-mpmath.mpf(ell) * sm))
                            for ell, m in entries)


def count_upto(x: float, entries) -> int:
    """Classes whose norm exp(length) is at most x."""
    return sum(m for ell, m in entries if math.exp(ell) <= x)


def read_spectrum(path: str) -> dict:
    """Parse a spectrum file: '# key=value' headers, then 'length mult' rows."""
    headers, entries = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                headers[key.strip()] = value.strip()
            elif line:
                ell, mult = line.split()
                entries.append((float(ell), int(mult)))
    return {"headers": headers, "entries": entries}


def rel_err(value, ref) -> float:
    """|value - ref| / |ref| (absolute when ref is 0), as a float."""
    diff = abs(mpmath.mpmathify(value) - ref)
    return float(diff / abs(ref)) if ref != 0 else float(diff)
