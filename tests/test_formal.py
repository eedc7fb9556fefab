import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbergfe.formal import (EMPTY, FormalProduct, canonicalize,
                              derive_base_zeta_fe, format_product,
                              from_motive_Z, from_motive_zeta, quotient,
                              reflect_Z, reflect_zeta, s_motive_factor,
                              verify_theorem2, verify_theorem3, verify_Z_fe)
from selbergfe.laurent import LaurentPoly, binom_power, eval_at_one

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
              quotient(a, b, collapse_sines=False), canonicalize(a * b),
              canonicalize(a, collapse_sines=False)):
        _assert_no_zero_stored(p)


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
    assert v.holds and v.coefficient_condition and v.consistent
    assert v.residual.is_empty()


def test_theorem2_even_power_fails():
    v = verify_theorem2(binom_power(2), 2)
    assert not v.holds and v.consistent
    assert verify_theorem3(binom_power(2), 2).holds


def test_theorem2_wrong_D_fails():
    v = verify_theorem2(LaurentPoly({1: 1, 0: -1}), 2)
    assert not v.holds and v.consistent


def test_theorem3_r0_sine_factor():
    v = verify_theorem3(LaurentPoly({0: 1}), 0)
    assert v.holds and v.consistent
    # the even-type equation carries (2 sin pi s)^(4-4g): 2 units of (2-2g)
    assert v.rhs_canonical.sin_exp == 2


def test_theorem3_even_power_no_sine():
    v = verify_theorem3(binom_power(4), 4)
    assert v.holds
    assert v.rhs_canonical.sin_exp == 0  # f(1) = 0


def test_theorem3_odd_motive_fails():
    v = verify_theorem3(LaurentPoly({1: 1, 0: -1}), 1)
    assert not v.holds and v.consistent


def test_theorem_equivalence_sampled():
    # spot slice of the exhaustive acceptance sweep
    for coeffs in itertools.product((-1, 0, 1), repeat=5):
        f = LaurentPoly(dict(zip(range(-2, 3), coeffs)))
        for D in range(-4, 5):
            v2 = verify_theorem2(f, D)
            v3 = verify_theorem3(f, D)
            assert v2.consistent, (f, D)
            assert v3.consistent, (f, D)


# -- the Z-side functional equation --------------------------------------

def test_s_motive_factor_inverse_motive():
    # S_{M(f)}(s) for f = x^-1 - 1 collapses to (2 sin pi s)^(4-4g)
    p = s_motive_factor(LaurentPoly({-1: 1, 0: -1}))
    assert p == FormalProduct(sin_exp=-2)


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


def test_verify_Z_fe_rejects_asymmetric():
    with pytest.raises(ValueError):
        verify_Z_fe(LaurentPoly({2: 1, 1: 2}))
    with pytest.raises(ValueError):
        verify_Z_fe(LaurentPoly())


# -- base functional equation derivation ---------------------------------

def test_derive_base():
    v = derive_base_zeta_fe()
    assert v.holds
    assert v.residual.is_empty()
    assert v.lhs_canonical == FormalProduct(sin_exp=2)


def test_derive_base_negative_control():
    v = derive_base_zeta_fe(collapse_sines=False)
    assert not v.holds
    assert not v.residual.is_empty()


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
