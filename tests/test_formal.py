import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbergfe import formal
from selbergfe.formal import (EMPTY, FormalProduct, Verdict, _add,
                              canonicalize, derive_base_zeta_fe,
                              format_product, from_motive_Z,
                              from_motive_zeta, quotient, reflect_Z,
                              reflect_zeta, s_motive_factor, verify_theorem2,
                              verify_theorem3, verify_Z_fe)
from selbergfe.laurent import (LaurentPoly, SymmetryKind, binom_power,
                               detect_automorphy, eval_at_one, has_symmetry)

small_polys = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2),
                              max_size=7).map(LaurentPoly)
products = st.builds(
    FormalProduct,
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(-3, 3).filter(bool), max_size=4),
    st.integers(-5, 5))
# shifts on both sides of 0, so negative ones go through the packed key
wide_maps = st.dictionaries(st.integers(-8, 8), st.integers(-3, 3).filter(bool),
                            max_size=5)
wide_products = st.builds(FormalProduct, wide_maps, wide_maps, wide_maps,
                          st.integers(-5, 5))
# canonical: the only S_2 key is S_2(s) itself
canonical_products = st.builds(
    FormalProduct, wide_maps, wide_maps,
    st.dictionaries(st.just(0), st.integers(-3, 3).filter(bool)),
    st.integers(-5, 5))


# -- the exponent map ----------------------------------------------------

@given(wide_maps, wide_maps, wide_maps, st.integers(-5, 5))
@settings(max_examples=200)
def test_views_round_trip(z, b, s2, q):
    p = FormalProduct(z, b, s2, q)
    assert (p.zeta_exp, p.bigz_exp, p.s2_exp, p.sin_exp) == (z, b, s2, q)
    assert FormalProduct(zeta_exp=z, bigz_exp=b, s2_exp=s2, sin_exp=q) == p
    assert FormalProduct(p.zeta_exp, p.bigz_exp, p.s2_exp, p.sin_exp) == p


def _assert_no_zero_stored(p):
    views = (p.zeta_exp, p.bigz_exp, p.s2_exp)
    assert all(v for view in views for v in view.values())
    # a stored zero sine exponent would leave is_empty() false
    assert p.is_empty() == (not any(views) and p.sin_exp == 0)


@given(wide_products, wide_products, st.integers(-3, 3))
@settings(max_examples=200)
def test_no_zero_exponent_stored(a, b, e):
    for p in (a * b, a * a.inverse(), a ** e, quotient(a, b), quotient(a, a),
              a * b.inverse(), canonicalize(a * b)):
        _assert_no_zero_stored(p)


@pytest.mark.parametrize("bad", [0.5, 1.0, "1", None])
def test_non_integer_exponents_refused(bad):
    with pytest.raises(TypeError, match="bad term"):
        FormalProduct(zeta_exp={bad: 1})
    with pytest.raises(TypeError, match="bad term"):
        FormalProduct(s2_exp={0: bad})
    with pytest.raises(TypeError, match="bad sine exponent"):
        FormalProduct(sin_exp=bad)
    with pytest.raises(TypeError, match="bad power"):
        FormalProduct(zeta_exp={0: 1}, sin_exp=2) ** bad


def test_numpy_integer_exponents_are_ints():
    p = FormalProduct({np.int64(-1): np.int32(2)}, {np.int8(1): np.int64(-1)},
                      {np.int16(2): np.int64(3)}, np.int64(4))
    assert p == FormalProduct({-1: 2}, {1: -1}, {2: 3}, 4)
    assert all(type(x) is int for kv in p._exp.items() for x in kv)
    assert p ** np.int64(-2) == p ** -2
    assert all(type(v) is int for v in (p ** np.int64(-2))._exp.values())
    assert FormalProduct({0: np.int64(0)}, sin_exp=np.int64(0)).is_empty()


def test_zero_exponents_are_dropped_and_views_read_only():
    assert FormalProduct({0: 0}, {-1: 0}, {2: 0}, 0) == EMPTY
    assert FormalProduct({0: 0}).is_empty()
    p = FormalProduct(zeta_exp={-2: 1}, sin_exp=1)
    with pytest.raises(TypeError):
        p.zeta_exp[-2] = 2
    with pytest.raises(AttributeError):
        p.sin_exp = 2
    assert p == FormalProduct(zeta_exp={-2: 1}, sin_exp=1)


# -- constructors --------------------------------------------------------

def test_from_motive_zeta_examples():
    assert from_motive_zeta(LaurentPoly({0: 1})) == FormalProduct(zeta_exp={0: 1})
    f = LaurentPoly({-1: 1, 0: -1})
    assert from_motive_zeta(f) == FormalProduct(zeta_exp={-1: 1, 0: -1})
    assert from_motive_zeta(binom_power(2)) == FormalProduct(
        zeta_exp={2: 1, 1: -2, 0: 1})


def test_from_motive_Z_examples():
    f = LaurentPoly({-1: 1, 0: -1})
    assert from_motive_Z(f) == FormalProduct(bigz_exp={-1: 1, 0: -1})
    assert from_motive_Z(LaurentPoly()).is_empty()
    assert from_motive_Z(f * f) == FormalProduct(bigz_exp={-2: 1, -1: -2, 0: 1})


# -- reflections ---------------------------------------------------------

def test_reflect_zeta_base_case():
    # zeta_M(-s) = zeta_M(s)^-1 (2 sin pi s)^(4-4g)
    p = reflect_zeta(LaurentPoly({0: 1}), 0)
    assert p == FormalProduct(zeta_exp={0: -1}, sin_exp=2)


def test_reflect_zeta_simplest_motive():
    # sine contributions cancel because f(1) = 0
    f = LaurentPoly({1: 1, 0: -1})
    p = canonicalize(reflect_zeta(f, 1))
    assert p == FormalProduct(zeta_exp={1: 1, 0: -1})
    assert p == canonicalize(from_motive_zeta(f))


def test_reflect_zeta_zero():
    assert reflect_zeta(LaurentPoly(), 3).is_empty()


def test_reflect_zeta_sine_exponent_is_2f1():
    for f in (LaurentPoly({0: 1}), LaurentPoly({2: 1, 0: 3}),
              binom_power(2), LaurentPoly({-1: 2, 1: -1})):
        for D in (-2, 0, 3):
            assert reflect_zeta(f, D).sin_exp == 2 * eval_at_one(f)


def test_reflect_Z_base_case():
    p = reflect_Z(LaurentPoly({0: 1}), 0)
    assert p == FormalProduct(bigz_exp={0: 1}, s2_exp={0: 1, 1: 1})


def test_reflect_Z_zero():
    assert reflect_Z(LaurentPoly(), -1).is_empty()


def test_reflect_Z_inverse_motive():
    # hand application of the base rule to both factors of x^-1 - 1
    f = LaurentPoly({-1: 1, 0: -1})
    p = reflect_Z(f, -1)
    assert p.bigz_exp == {0: 1, -1: -1}
    assert p.s2_exp == {0: 1, 2: -1}  # shifts {0,1} minus shifts {1,2}


# -- canonicalization ----------------------------------------------------

def test_canonicalize_single_shift():
    p = canonicalize(FormalProduct(s2_exp={1: 1}))
    assert p == FormalProduct(s2_exp={0: 1}, sin_exp=-1)


def test_canonicalize_shift_two_quotient():
    # S_2(s)^(2-2g) S_2(s+2)^(2g-2) -> (2 sin pi s)^(4-4g)
    p = canonicalize(FormalProduct(s2_exp={0: 1, 2: -1}))
    assert p == FormalProduct(sin_exp=2)


def test_canonicalize_empty():
    assert canonicalize(EMPTY) == EMPTY


@given(products)
@settings(max_examples=200)
def test_canonicalize_idempotent(p):
    once = canonicalize(p)
    assert once.is_canonical()
    assert canonicalize(once) == once


@given(products, products)
@settings(max_examples=200)
def test_canonicalize_is_a_homomorphism(a, b):
    assert canonicalize(a * b) == canonicalize(canonicalize(a) * canonicalize(b))
    assert quotient(a, b) == quotient(canonicalize(a), canonicalize(b))


@given(products)
def test_quotient_self_is_empty(p):
    assert quotient(p, p).is_empty()


@given(small_polys, st.integers(-8, 8))
@settings(max_examples=300)
def test_reflect_zeta_involution(f, D):
    # reflecting zeta_{M(f)}(D-s) again over D returns the original:
    # apply the rewrite to each factor of the reflected product
    once = reflect_zeta(f, D)
    z = {}
    q = once.sin_exp
    for k, e in once.zeta_exp.items():
        z[D - k] = z.get(D - k, 0) - e
        q += 2 * e
    twice = FormalProduct(zeta_exp={k: v for k, v in z.items() if v},
                          sin_exp=q)
    assert canonicalize(twice) == canonicalize(from_motive_zeta(f))


# -- theorem verifiers ---------------------------------------------------

def test_theorem2_odd_powers_hold():
    v = verify_theorem2(binom_power(5), 5)
    assert v.holds and has_symmetry(binom_power(5), 5, -1)
    assert v.residual.is_empty()


def test_theorem2_even_power_fails():
    v = verify_theorem2(binom_power(2), 2)
    assert not v.holds and not has_symmetry(binom_power(2), 2, -1)
    assert verify_theorem3(binom_power(2), 2).holds


def test_theorem2_wrong_D_fails():
    f = LaurentPoly({1: 1, 0: -1})
    assert not verify_theorem2(f, 2).holds and not has_symmetry(f, 2, -1)


def test_theorem3_r0_sine_factor():
    v = verify_theorem3(LaurentPoly({0: 1}), 0)
    assert v.holds and has_symmetry(LaurentPoly({0: 1}), 0, +1)
    # the even-type equation carries (2 sin pi s)^(4-4g): 2 units of (2-2g)
    assert v.rhs_canonical.sin_exp == 2


def test_theorem3_even_power_no_sine():
    v = verify_theorem3(binom_power(4), 4)
    assert v.holds
    assert v.rhs_canonical.sin_exp == 0  # f(1) = 0


def test_theorem3_odd_motive_fails():
    f = LaurentPoly({1: 1, 0: -1})
    assert not verify_theorem3(f, 1).holds and not has_symmetry(f, 1, +1)


D_TAKERS = [reflect_zeta, reflect_Z, verify_theorem2, verify_theorem3,
            pytest.param(lambda f, D: has_symmetry(f, D, -1),
                         id="has_symmetry")]


@pytest.mark.parametrize("D", [1.5, 1.0, "1"])
@pytest.mark.parametrize("fn", D_TAKERS)
def test_non_integer_D_refused(fn, D):
    with pytest.raises(TypeError):
        fn(LaurentPoly({0: 1, 1: -1}), D)
    # the zero polynomial holds for every integer D, never for others
    with pytest.raises(TypeError):
        fn(LaurentPoly(), D)


@pytest.mark.parametrize("fn", D_TAKERS)
def test_numpy_integer_D_is_an_int(fn):
    f = LaurentPoly({0: 1, 1: -1})
    assert fn(f, np.int64(1)) == fn(f, 1)


def test_verdict_is_slotted():
    v = verify_theorem2(binom_power(3), 3)
    assert not hasattr(v, "__dict__")
    assert [fl.name for fl in dataclasses.fields(v)] == [
        "lhs_canonical", "rhs_canonical", "holds"]
    # built when read, not stored
    assert v.residual == quotient(v.lhs_canonical, v.rhs_canonical)
    assert v == verify_theorem2(binom_power(3), 3)
    # the constructor takes the two sides and sets holds itself
    assert v.holds is True and Verdict(v.lhs_canonical, v.rhs_canonical) == v
    assert Verdict(v.lhs_canonical, EMPTY).holds is False


def test_theorem_equivalence_sampled():
    # spot slice of the exhaustive acceptance sweep
    for coeffs in itertools.product((-1, 0, 1), repeat=5):
        f = LaurentPoly(dict(zip(range(-2, 3), coeffs)))
        for D in range(-4, 5):
            assert verify_theorem2(f, D).holds == has_symmetry(f, D, -1), (f, D)
            assert verify_theorem3(f, D).holds == has_symmetry(f, D, +1), (f, D)


@given(canonical_products, canonical_products, st.integers(-3, 3))
@settings(max_examples=200)
def test_canonical_products_closed_under_group_law(a, b, e):
    """The invariant the verifiers rest on: a merge or power of canonical
    products needs no rewrite."""
    assert a.is_canonical() and b.is_canonical()
    for p in (a * b, a ** e, _add(a._exp, b._exp, -1)):
        assert p.is_canonical()


def _engine_verdicts(f, D):
    """The three verdicts, each with its composition from the public
    engine (each side canonicalized) and the condition it must agree
    with: the coefficient test on the zeta side; on the Z side, where f
    has a reflection symmetry, the equation always holds."""
    def verdict(lhs, rhs):
        return Verdict(canonicalize(lhs), canonicalize(rhs))

    zeta = from_motive_zeta(f)
    yield (verify_theorem2(f, D), verdict(reflect_zeta(f, D), zeta),
           has_symmetry(f, D, -1))
    sine = FormalProduct(sin_exp=2 * eval_at_one(f))
    yield (verify_theorem3(f, D), verdict(reflect_zeta(f, D),
                                          zeta.inverse() * sine),
           has_symmetry(f, D, +1))
    auto = detect_automorphy(f)
    if D == auto.D and auto.kind in (SymmetryKind.ODD, SymmetryKind.EVEN):
        yield verify_Z_fe(f), verdict(
            reflect_Z(f, auto.D),
            (from_motive_Z(f) * s_motive_factor(f)) ** auto.C), True


def test_verifiers_equal_engine_composition():
    """Over the -3..3 window (coefficients -1..1) and (x-1)^r, x (x-1)^r
    for r = 1..8, at every D in -8..8: each verdict equals the generic
    canonicalize-then-quotient composition, holds exactly when its
    condition does, and its products are canonical."""
    window = (LaurentPoly(dict(zip(range(-3, 4), c)))
              for c in itertools.product((-1, 0, 1), repeat=7))
    binomials = [g for r in range(1, 9)
                 for g in (binom_power(r), LaurentPoly({1: 1}) * binom_power(r))]
    checked = 0
    for f in itertools.chain(window, binomials):
        for D in range(-8, 9):
            for got, want, condition in _engine_verdicts(f, D):
                assert got == want, (f, D)
                assert got.holds == condition, (f, D)
                # equality reads no residual, so it is checked on its own
                res = got.residual
                assert res == quotient(want.lhs_canonical,
                                       want.rhs_canonical), (f, D)
                assert got.holds == res.is_empty(), (f, D)
                assert all(p.is_canonical() for p in
                           (got.lhs_canonical, got.rhs_canonical, res))
                checked += 1
    assert checked > 2 * 17 * 3 ** 7


# -- the Z-side functional equation --------------------------------------

def test_s_motive_factor_inverse_motive():
    # S_{M(f)}(s) for f = x^-1 - 1 collapses to (2 sin pi s)^(4-4g)
    p = s_motive_factor(LaurentPoly({-1: 1, 0: -1}))
    assert p == FormalProduct(sin_exp=-2)


@given(small_polys)
@settings(max_examples=300)
def test_s_motive_factor_is_canonical_form_of_definition(f):
    """The closed form against its definition, canonicalized by the engine."""
    raw = EMPTY
    for k, a in f.coeffs.items():
        raw = raw * FormalProduct(s2_exp={-k: 1, 1 - k: 1}) ** a
    assert s_motive_factor(f) == canonicalize(raw)


def test_s_motive_factor_squared_motive_empty():
    f = LaurentPoly({-1: 1, 0: -1})
    assert s_motive_factor(f * f).is_empty()


def test_s_motive_factor_zero():
    assert s_motive_factor(LaurentPoly()).is_empty()


def test_verify_Z_fe_inverse_motive():
    assert verify_Z_fe(LaurentPoly({-1: 1, 0: -1})).holds


def test_verify_Z_fe_squared_motive():
    f = LaurentPoly({-1: 1, 0: -1})
    v = verify_Z_fe(f * f)
    assert v.holds
    # Z_{M(f^2)}(-1-s) = Z_{M(f^2)}(s): no gamma (S_2 or sine) factors
    assert v.rhs_canonical.s2_exp == canonicalize(from_motive_Z(f * f)).s2_exp
    assert v.rhs_canonical.sin_exp == 0


@pytest.mark.parametrize("r", range(1, 7))
def test_verify_Z_fe_binom_powers(r):
    assert verify_Z_fe(binom_power(r)).holds


def _wrong_gamma_factor(p):
    """A factor that differs from p: its square, or one sine if p is empty."""
    return p ** 2 if not p.is_empty() else FormalProduct(sin_exp=1)


@pytest.mark.parametrize("f", [LaurentPoly({1: 1, 0: -1}), LaurentPoly({0: 1}),
                               binom_power(2)], ids=["x-1", "1", "(x-1)^2"])
def test_verify_Z_fe_refuses_a_wrong_gamma_factor(monkeypatch, f):
    """A Z-side rhs built from a wrong S_{M(f)} does not hold."""
    right = s_motive_factor
    monkeypatch.setattr(formal, "s_motive_factor",
                        lambda g: _wrong_gamma_factor(right(g)))
    assert formal.s_motive_factor(f) != right(f)
    assert not verify_Z_fe(f).holds


def test_verify_Z_fe_rejects_asymmetric():
    with pytest.raises(ValueError):
        verify_Z_fe(LaurentPoly({2: 1, 1: 2}))


def test_verify_Z_fe_zero_is_empty():
    """f = 0 has Z_{M(0)} = S_{M(0)} = 1: both sides are empty and hold."""
    v = verify_Z_fe(LaurentPoly())
    assert v == Verdict(EMPTY, EMPTY)
    assert v.holds and v.residual.is_empty()


# -- base functional equation derivation ---------------------------------

def test_derive_base():
    v = derive_base_zeta_fe()
    assert v.holds
    assert v.residual.is_empty()
    assert v.lhs_canonical == FormalProduct(sin_exp=2)


def test_derive_base_negative_control(monkeypatch):
    # with the ladder rewrite switched off, the shifted S_2 factors stay
    monkeypatch.setattr(formal, "canonicalize", lambda p: p)
    v = derive_base_zeta_fe()
    assert not v.holds
    assert not v.residual.is_empty()
    assert v.residual == v.lhs_canonical * v.rhs_canonical.inverse()
    assert not v.lhs_canonical.is_canonical()


def test_derive_base_genus_symbolic():
    # the exponent is stored in (2-2g) units, independent of any genus
    assert derive_base_zeta_fe().lhs_canonical.sin_exp == 2


# -- display -------------------------------------------------------------

def test_format_product():
    assert format_product(EMPTY) == "1"
    p = FormalProduct(zeta_exp={1: -2}, s2_exp={1: 1}, sin_exp=2)
    text = format_product(p)
    assert "zeta_M(s-1)^-2" in text
    assert "S_2(s+1)" in text
    assert "(2 sin pi s)^((2-2g)*2)" in text
