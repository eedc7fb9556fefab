"""Canonical-form engine for formal products of zeta and sine factors.

Products live in the free abelian group on four factor families:
zeta_M(s-k), Z_M(s-k), S_2(s+j), and (2 sin pi s).  A product is one
immutable exponent map from (family, shift) to a nonzero integer, so
the group law is one merge and the canonical form is one rewrite.
Every S_2 and sine exponent is stored as an integer multiple of
(2-2g), so a single verdict covers all genera g >= 2 at once.
Reflection rewrites apply the two base axioms

    zeta_M(-u) = zeta_M(u)^-1 (2 sin pi u)^(4-4g)
    Z_M(1-u)   = Z_M(u) (S_2(u) S_2(u+1))^(2-2g)

and canonicalization pushes every shifted S_2(s+j) down to S_2(s) via
the ladder S_2(s+1) = S_2(s) (2 sin pi s)^-1.  The sign picked up by
shifting a sine, (-1)^m per unit shift, is always raised to an even
power (a multiple of 2-2g) and therefore discarded.  Equality of
canonical forms is exact entry-wise comparison; no numerics here.

Zeta-side products are canonical by construction: from_motive_zeta and
reflect_zeta emit only zeta_M and sine keys, never an S_2(s+j) key.
Canonical products are closed under the group law (multiply, inverse,
power), since no S_2(s+j) key with j != 0 can appear in a merge of maps
that hold none.  So the verifiers rewrite only the Z-side reflection.
Each verifier builds its two sides and hands them to Verdict, which
sets holds itself by one comparison of the two maps: as no map stores a
zero, equal maps are exactly an empty quotient.

Each (family, shift) key is packed into the one int 4*shift + family,
so the map is an int -> int dict, which CPython's cyclic garbage
collector never tracks; a dict with tuple keys is tracked and scanned.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index
from types import MappingProxyType
from typing import Dict, Mapping, Optional

from .laurent import LaurentPoly, SymmetryKind, detect_automorphy, eval_at_one

# key = 4*shift + family, so family = key & 3 and shift = key >> 2, also
# for shift < 0.  In a sweep that keeps its verdicts alive, with
# (family, shift) tuple keys the collector took 26 % of the time and a
# verdict was 27 % slower than with int keys, where it took 4 % of the
# time (rounds of 162 polynomials x 34 verdicts, CPython 3.11, Xeon VM).
_ZETA, _BIGZ, _S2, _SIN = 0, 1, 2, 3


def _view(family: int) -> property:
    """The read-only map shift -> exponent of one family of a product."""
    return property(lambda p: MappingProxyType(
        {key >> 2: v for key, v in p._exp.items() if key & 3 == family}))


class FormalProduct:
    """Formal product; the exponent map never stores a zero entry.

    zeta_exp[k] is the exponent of zeta_M(s-k); bigz_exp[k] that of
    Z_M(s-k); s2_exp[j] = m means S_2(s+j)^((2-2g)*m); sin_exp = q
    means (2 sin pi s)^((2-2g)*q).  The four are read-only views of the
    one packed map.  Shifts, exponents and powers must be integers (int,
    or any type with __index__, such as numpy's): anything else raises
    TypeError naming the term.  Instances are immutable by convention:
    the map is private and nothing changes it after construction.
    """

    __slots__ = ("_exp",)

    def __init__(self, zeta_exp: Optional[Mapping[int, int]] = None,
                 bigz_exp: Optional[Mapping[int, int]] = None,
                 s2_exp: Optional[Mapping[int, int]] = None,
                 sin_exp: int = 0):
        exp = {}
        for family, d in ((_ZETA, zeta_exp), (_BIGZ, bigz_exp), (_S2, s2_exp)):
            if d:
                for k, v in d.items():
                    try:
                        k, v = index(k), index(v)
                    except TypeError:
                        raise TypeError(f"bad term {k!r}: {v!r}: shifts and "
                                        "exponents must be integers") from None
                    if v:
                        exp[4 * k + family] = v
        sin_exp = _integer(sin_exp, "sine exponent")
        if sin_exp:
            exp[_SIN] = sin_exp
        self._exp = exp

    zeta_exp = _view(_ZETA)
    bigz_exp = _view(_BIGZ)
    s2_exp = _view(_S2)

    @property
    def sin_exp(self) -> int:
        return self._exp.get(_SIN, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalProduct):
            return NotImplemented
        return self._exp == other._exp

    def __repr__(self) -> str:
        return f"FormalProduct({format_product(self)})"

    def is_empty(self) -> bool:
        return not self._exp

    def is_canonical(self) -> bool:
        return all(key == _S2 for key in self._exp if key & 3 == _S2)

    def __mul__(self, other: "FormalProduct") -> "FormalProduct":
        return _add(self._exp, other._exp)

    def __pow__(self, e: int) -> "FormalProduct":
        e = _integer(e, "power")
        return _wrap({key: v * e for key, v in self._exp.items()} if e else {})

    def inverse(self) -> "FormalProduct":
        return self ** -1


def _integer(x, what: str) -> int:
    """index(x), or a TypeError that names what x is."""
    try:
        return index(x)
    except TypeError:
        raise TypeError(f"bad {what} {x!r}: must be an integer") from None


def _add(a: Dict[int, int], b: Dict[int, int], sign: int = 1) -> FormalProduct:
    """The product of the maps a and b**sign; zero exponents are dropped."""
    out = dict(a)
    for key, v in b.items():
        v = out.get(key, 0) + sign * v
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return _wrap(out)


def _wrap(exp: Dict[int, int]) -> FormalProduct:
    """The product of a packed map that holds no zero entry (not copied)."""
    p = object.__new__(FormalProduct)
    p._exp = exp
    return p


EMPTY = FormalProduct()


# Slotted, not frozen: a frozen dataclass sets each field through
# object.__setattr__ in __init__, so building one took 0.87 us against
# 0.33 us slotted, and 34 are built per polynomial in a sweep.  Freezing
# bought no hash: FormalProduct has none.  Only the two sides and holds
# are stored, as sweeps read holds: building lhs / rhs in every verdict
# made a theorem 2 verdict take 4.5 us against 2.9 us, and running the
# coefficient test in it 3.1 us against 2.4 us now (timeit minima of
# verify_theorem2((x-1)^3, 3), CPython 3.11, Xeon VM).
@dataclass(slots=True, init=False)
class Verdict:
    """The outcome of one verifier: does lhs == rhs hold as a formal identity?

    Built from the two canonical sides alone: the constructor sets holds
    by comparing their exponent maps, so no verdict can hold while its
    sides differ.  residual is lhs / rhs, built when read, and empty
    exactly when holds is True.  Instances are immutable by convention:
    no code assigns a field after construction.
    """
    lhs_canonical: FormalProduct
    rhs_canonical: FormalProduct
    holds: bool

    def __init__(self, lhs_canonical: FormalProduct,
                 rhs_canonical: FormalProduct):
        self.lhs_canonical = lhs_canonical
        self.rhs_canonical = rhs_canonical
        self.holds = lhs_canonical._exp == rhs_canonical._exp

    @property
    def residual(self) -> FormalProduct:
        return _add(self.lhs_canonical._exp, self.rhs_canonical._exp, -1)


# -- constructors from a motive ------------------------------------------

def from_motive_zeta(f: LaurentPoly) -> FormalProduct:
    """zeta_{M(f)}(s) = prod_k zeta_M(s-k)^a(k)."""
    return _wrap({4 * k + _ZETA: a for k, a in f.coeffs.items()})


def from_motive_Z(f: LaurentPoly) -> FormalProduct:
    """Z_{M(f)}(s) = prod_k Z_M(s-k)^a(k)."""
    return _wrap({4 * k + _BIGZ: a for k, a in f.coeffs.items()})


# -- reflections ---------------------------------------------------------

def reflect_zeta(f: LaurentPoly, D: int) -> FormalProduct:
    """zeta_{M(f)}(D-s) rewritten as a product in s.

    Each zeta_M((D-k)-s) becomes zeta_M(s-(D-k))^-1 times a sine power;
    the shifted sine collapses to (2 sin pi s) outright because its
    exponent is the even number 4-4g, so every factor contributes two
    (2-2g)-units of sine per unit coefficient.
    """
    D = index(D)
    exp = {4 * (D - k) + _ZETA: -a for k, a in f.coeffs.items()}
    q = 2 * eval_at_one(f)
    if q:
        exp[_SIN] = q
    return _wrap(exp)


def reflect_Z(f: LaurentPoly, D: int) -> FormalProduct:
    """Z_{M(f)}(D+1-s) rewritten in s; output is not yet canonical.

    Each Z_M((D+1-k)-s) becomes, via the symmetric base rule,
    Z_M(s-(D-k)) S_2(s+(k-D))^(2-2g) S_2(s+(k-D)+1)^(2-2g).
    """
    D = index(D)
    c = f.coeffs
    lower = {4 * (D - k) + _BIGZ: a for k, a in c.items()}
    lower.update((4 * (k - D) + _S2, a) for k, a in c.items())
    return _add(lower, {4 * (k - D + 1) + _S2: a for k, a in c.items()})


def s_motive_factor(f: LaurentPoly) -> FormalProduct:
    """Canonical form of prod_k (S_2(s-k) S_2(s-k+1))^((2-2g) a(k)).

    By the ladder, S_2(s-k) S_2(s-k+1) = S_2(s)^2 (2 sin pi s)^(2k-1) up
    to a sign that the even exponent discards, so the product is
    S_2(s)^(2 f(1)) (2 sin pi s)^(sum_k (2k-1) a(k)), canonical as built.
    """
    exp = {}
    s2 = 2 * eval_at_one(f)
    q = sum((2 * k - 1) * a for k, a in f.coeffs.items())
    if s2:
        exp[_S2] = s2
    if q:
        exp[_SIN] = q
    return _wrap(exp)


# -- canonicalization and comparison -------------------------------------

def canonicalize(p: FormalProduct) -> FormalProduct:
    """Reduce every S_2(s+j) to S_2(s) times a sine power.

    S_2(s+j)^((2-2g)m) = S_2(s)^((2-2g)m) (2 sin pi s)^(-(2-2g)jm); the
    sign (-1)^(j(j-1)/2 (2-2g) m) is +1 because 2-2g is even, which is
    the one place a sign could appear, so it is discarded here.
    """
    out, s2, q = {}, 0, p.sin_exp
    for key, m in p._exp.items():
        if key & 3 == _S2:
            s2 += m
            q -= (key >> 2) * m
        elif key != _SIN:
            out[key] = m
    if s2:
        out[_S2] = s2
    if q:
        out[_SIN] = q
    return _wrap(out)


def quotient(a: FormalProduct, b: FormalProduct) -> FormalProduct:
    """a / b, canonicalized."""
    return canonicalize(_add(a._exp, b._exp, -1))


# -- theorem-level verifiers ---------------------------------------------

def verify_theorem2(f: LaurentPoly, D: int) -> Verdict:
    """Does zeta_{M(f)}(D-s) = zeta_{M(f)}(s) hold as a formal identity?

    Both sides are canonical as built, so the verdict compares their
    maps.  By theorem 2 it holds exactly when a(D-k) = -a(k), the
    coefficient test laurent.has_symmetry(f, D, -1), which is decided
    independently of this engine.
    """
    return Verdict(reflect_zeta(f, D), from_motive_zeta(f))


def verify_theorem3(f: LaurentPoly, D: int) -> Verdict:
    """Does zeta_{M(f)}(D-s) = zeta_{M(f)}(s)^-1 (2 sin pi s)^((4-4g)f(1))?

    The sine target is 2 f(1) in (2-2g)-units, the sine exponent that
    reflect_zeta has just put in the lhs.  Both sides are canonical as
    built.  By theorem 3 it holds exactly when a(D-k) = a(k).
    """
    lhs = reflect_zeta(f, D)
    rhs = {4 * k + _ZETA: -a for k, a in f.coeffs.items()}
    q = lhs._exp.get(_SIN)
    if q:
        rhs[_SIN] = q
    return Verdict(lhs, _wrap(rhs))


def verify_Z_fe(f: LaurentPoly) -> Verdict:
    """Z_{M(f)}(D+1-s) = Z_{M(f)}(s)^C S_{M(f)}(s)^C with detected (C, D).

    Only the reflection carries S_2(s+j) keys; the rhs is canonical as
    built, a product and power of canonical factors.  For f = 0 both
    sides are 1 at every D: Z_{M(0)} = S_{M(0)} = 1.
    """
    auto = detect_automorphy(f)
    if auto.kind is SymmetryKind.ZERO:
        return Verdict(EMPTY, EMPTY)
    if auto.kind is SymmetryKind.NONE:
        raise ValueError(
            f"f has no reflection symmetry (kind={auto.kind.value}); "
            "the Z functional equation requires one")
    return Verdict(canonicalize(reflect_Z(f, auto.D)),
                   (from_motive_Z(f) * s_motive_factor(f)) ** auto.C)


def derive_base_zeta_fe() -> Verdict:
    """Re-derive zeta_M(-s) zeta_M(s) = (2 sin pi s)^(4-4g) from the Z axiom.

    zeta_M is expanded as Z_M(s+1)/Z_M(s), the two reflected Z factors
    are rewritten by the symmetric base rule, and the product must
    collapse to exactly two (2-2g)-units of sine.  The negative control
    replaces canonicalize by the identity: the derivation must then leave
    a non-empty residual (rewrite incompleteness).
    """
    # zeta_M(-s) = Z_M(1-s)/Z_M(-s); apply the Z axiom to both:
    #   Z_M(1-s) = Z_M(s) S_2(s) S_2(s+1)        (each one (2-2g)-unit)
    #   Z_M(-s)  = Z_M(s+1) S_2(s+1) S_2(s+2)
    reflected = FormalProduct(bigz_exp={0: 1}, s2_exp={0: 1, 1: 1}) \
        * FormalProduct(bigz_exp={-1: 1}, s2_exp={1: 1, 2: 1}).inverse()
    # multiply by zeta_M(s) = Z_M(s+1)/Z_M(s)
    product = reflected * FormalProduct(bigz_exp={-1: 1, 0: -1})
    return Verdict(canonicalize(product), FormalProduct(sin_exp=2))


# -- display -------------------------------------------------------------

def _shift_str(var: str, k: int) -> str:
    if k == 0:
        return var
    return f"{var}{'-' if k > 0 else '+'}{abs(k)}"


def format_product(p: FormalProduct) -> str:
    if p.is_empty():
        return "1"
    parts = []
    zeta_exp, bigz_exp, s2_exp = p.zeta_exp, p.bigz_exp, p.s2_exp
    for k in sorted(zeta_exp):
        parts.append(f"zeta_M({_shift_str('s', k)})^{zeta_exp[k]}")
    for k in sorted(bigz_exp):
        parts.append(f"Z_M({_shift_str('s', k)})^{bigz_exp[k]}")
    for j in sorted(s2_exp):
        parts.append(f"S_2({_shift_str('s', -j)})^((2-2g)*{s2_exp[j]})")
    if p.sin_exp:
        parts.append(f"(2 sin pi s)^((2-2g)*{p.sin_exp})")
    return " * ".join(parts)
