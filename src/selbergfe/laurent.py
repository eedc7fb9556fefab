"""Sparse integer Laurent polynomials and their reflection symmetries.

A motive here is just an element of Z[x, x^-1], stored as a sparse map
from exponent to coefficient.  The interesting question about such an f
is whether it satisfies f(x^-1) = C * x^-D * f(x) for a sign C and an
integer weight D; the detection of that symmetry drives everything
downstream (which functional equation the twisted zeta satisfies).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Tuple


class SymmetryKind(Enum):
    ODD = "odd"      # f(x^-1) = -x^-D f(x)
    EVEN = "even"    # f(x^-1) = +x^-D f(x)
    NONE = "none"
    ZERO = "zero"


@dataclass(frozen=True)
class AutomorphyClass:
    """Detected reflection symmetry of a Laurent polynomial.

    For ODD/EVEN the weight D is forced to min_exp + max_exp and C is
    -1 / +1 respectively.  ZERO is reported for f = 0, which satisfies
    both symmetries for every D (so no meaningful D exists).
    """
    kind: SymmetryKind
    D: Optional[int] = None
    C: Optional[int] = None


class LaurentPoly:
    """Canonical sparse Laurent polynomial with exact integer coefficients.

    Exponents and coefficients must be integers (int, or any type with
    __index__, such as numpy's): anything else raises TypeError naming
    the term.  No zero coefficient is ever stored; equality is
    coefficient-wise.  `coeffs` is a read-only view (MappingProxyType) of
    the private exponent -> coefficient dict, built once in __init__:
    reading it allocates nothing, and item assignment raises TypeError.
    Nothing outside the instance holds the dict, and neither attribute
    is rebound after __init__, so instances are immutable by convention.
    """

    __slots__ = ("_coeffs", "coeffs")

    def __init__(self, coeffs: Optional[Mapping[int, int]] = None):
        clean = {}
        if coeffs:
            for k, a in coeffs.items():
                try:
                    k, a = index(k), index(a)
                except TypeError:
                    raise TypeError(f"bad term {k!r}: {a!r}: exponents and "
                                    "coefficients must be integers") from None
                if a:
                    clean[k] = a
        self._coeffs = clean
        self.coeffs = MappingProxyType(clean)

    # -- basic accessors -------------------------------------------------

    def __getitem__(self, k: int) -> int:
        return self._coeffs.get(k, 0)

    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no min exponent")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no max exponent")
        return max(self._coeffs)

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for k, a in other._coeffs.items():
            out[k] = out.get(k, 0) + a
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({k: -a for k, a in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {}
        for k1, a1 in self._coeffs.items():
            for k2, a2 in other._coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + a1 * a2
        return LaurentPoly(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = LaurentPoly({0: 1})
        for _ in range(n):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"

    def __str__(self) -> str:
        return format_poly(self)


# -- construction --------------------------------------------------------

def normalize(raw: Iterable[Tuple[int, int]]) -> LaurentPoly:
    """Sum duplicate exponents and drop zeros, yielding the canonical form."""
    out = {}
    for k, a in raw:
        out[k] = out.get(k, 0) + a
    return LaurentPoly(out)


def binom_power(r: int) -> LaurentPoly:
    """(x - 1)^r with exact binomial coefficients; r must be >= 0."""
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    return LaurentPoly({k: (-1) ** (r - k) * math.comb(r, k) for k in range(r + 1)})


# -- the operations the symmetry theory needs ----------------------------

def eval_at_one(f: LaurentPoly) -> int:
    """f(1), the sum of all coefficients."""
    return sum(f.coeffs.values())


def reverse(f: LaurentPoly, D: int) -> LaurentPoly:
    """x^D * f(x^-1): coefficient of x^k in the result is a(D - k)."""
    return LaurentPoly({D - k: a for k, a in f._coeffs.items()})


def detect_automorphy(f: LaurentPoly) -> AutomorphyClass:
    """Decide whether f(x^-1) = C x^-D f(x) for some sign C.

    For nonzero f the only candidate weight is D = min_exp + max_exp
    (the symmetry maps the lowest term to the highest).  Odd and even
    symmetry are mutually exclusive for nonzero f.
    """
    if f.is_zero():
        return AutomorphyClass(SymmetryKind.ZERO)
    D = f.min_exp + f.max_exp
    if has_symmetry(f, D, -1):
        return AutomorphyClass(SymmetryKind.ODD, D=D, C=-1)
    if has_symmetry(f, D, +1):
        return AutomorphyClass(SymmetryKind.EVEN, D=D, C=+1)
    return AutomorphyClass(SymmetryKind.NONE)


def has_symmetry(f: LaurentPoly, D: int, C: int) -> bool:
    """Check f(x^-1) = C x^-D f(x), that is a(D-k) = C a(k) for all k.

    For nonzero f this is false whenever D differs from the forced
    value min_exp + max_exp; f = 0 satisfies both signs for every D.
    D must be an integer (int or any type with __index__): anything
    else raises TypeError, also for f = 0.
    """
    if C not in (-1, 1):
        raise ValueError("C must be +1 or -1")
    D = index(D)
    c = f._coeffs
    # checking k over the support suffices: the condition at k and at
    # D-k are equivalent for C = +-1, and both-zero cases are vacuous.
    # A plain loop, not all(genexpr): a call that returns False at the
    # first term took 0.80 us through the generator against 0.36 us, and
    # 9 in 10 calls of the criteria 1-2 sweeps do (timeit, CPython 3.11,
    # Xeon VM).
    for k, a in c.items():
        if c.get(D - k, 0) != C * a:
            return False
    return True


# -- the CLI text syntax -------------------------------------------------

def parse_poly(text: str) -> LaurentPoly:
    """Parse comma-separated `k=a` pairs, e.g. "-1=1,0=-1" for x^-1 - 1.

    Whitespace is ignored; duplicate keys are summed.
    """
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"bad polynomial term {chunk!r}: expected k=a")
        k_str, a_str = chunk.split("=", 1)
        try:
            pairs.append((int(k_str.strip()), int(a_str.strip())))
        except ValueError as exc:
            raise ValueError(f"bad polynomial term {chunk!r}: {exc}") from None
    return normalize(pairs)


def format_poly(f: LaurentPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for k in sorted(f.coeffs, reverse=True):
        a = f[k]
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        if k == 0:
            term = f"{mag}"
        else:
            xk = "x" if k == 1 else f"x^{k}"
            term = xk if mag == 1 else f"{mag}*{xk}"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    out = first_term if first_sign == "+" else f"-{first_term}"
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out
