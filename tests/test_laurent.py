import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selbergfe.laurent import (AutomorphyClass, LaurentPoly, SymmetryKind,
                               binom_power, detect_automorphy, eval_at_one,
                               format_poly, has_symmetry, normalize,
                               parse_poly, reverse)

small_polys = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2),
                              max_size=7).map(LaurentPoly)


def test_normalize_cancellation():
    assert normalize([(0, 1), (0, -1)]).is_zero()


def test_normalize_identity_case():
    assert normalize([(1, 1), (0, -1)]) == LaurentPoly({1: 1, 0: -1})


def test_normalize_duplicate_keys():
    # hand summation: 2 - 1 = 1 at exponent 3
    assert normalize([(3, 2), (3, -1), (-1, 4)]) == LaurentPoly({-1: 4, 3: 1})


def test_mul_binomial_square():
    x_minus_1 = LaurentPoly({1: 1, 0: -1})
    assert x_minus_1 * x_minus_1 == LaurentPoly({2: 1, 1: -2, 0: 1})


def test_mul_inverse_motive_square():
    f = LaurentPoly({-1: 1, 0: -1})
    assert f * f == LaurentPoly({-2: 1, -1: -2, 0: 1})


def test_mul_zero():
    f = LaurentPoly({-1: 1, 0: -1})
    assert (f * LaurentPoly()).is_zero()


def test_binom_power_small():
    assert binom_power(0) == LaurentPoly({0: 1})
    assert binom_power(1) == LaurentPoly({1: 1, 0: -1})
    assert binom_power(3) == LaurentPoly({3: 1, 2: -3, 1: 3, 0: -1})


@pytest.mark.parametrize("r", range(8))
def test_binom_power_matches_repeated_mul(r):
    expected = LaurentPoly({1: 1, 0: -1}) ** r
    assert binom_power(r) == expected


def test_binom_power_rejects_negative():
    with pytest.raises(ValueError):
        binom_power(-1)


@pytest.mark.parametrize("r", range(1, 7))
def test_eval_at_one_vanishes_on_binom_powers(r):
    assert eval_at_one(binom_power(r)) == 0


def test_eval_at_one_basic():
    assert eval_at_one(LaurentPoly({0: 1})) == 1
    assert eval_at_one(LaurentPoly({-1: 4, 3: 1})) == 5


def test_reverse_examples():
    f = LaurentPoly({1: 1, 0: -1})
    assert reverse(f, 1) == -f
    assert reverse(LaurentPoly(), 5).is_zero()
    g = LaurentPoly({-1: 1, 0: -1})
    assert reverse(g, -1) == -g


def test_detect_odd_cube():
    auto = detect_automorphy(binom_power(3))
    assert auto == AutomorphyClass(SymmetryKind.ODD, D=3, C=-1)


def test_detect_even_square():
    auto = detect_automorphy(binom_power(2))
    assert auto == AutomorphyClass(SymmetryKind.EVEN, D=2, C=+1)


def test_detect_even_not_odd():
    # a(3-1) = 1 = a(1): even with D = 3
    auto = detect_automorphy(LaurentPoly({2: 1, 1: 1}))
    assert auto == AutomorphyClass(SymmetryKind.EVEN, D=3, C=+1)


def test_detect_none():
    assert detect_automorphy(LaurentPoly({2: 1, 1: 2})).kind is SymmetryKind.NONE


def test_detect_zero():
    assert detect_automorphy(LaurentPoly()).kind is SymmetryKind.ZERO


def test_has_symmetry_rejects_wrong_D():
    f = LaurentPoly({1: 1, 0: -1})
    assert has_symmetry(f, 1, -1)
    assert not has_symmetry(f, 2, -1)
    assert not has_symmetry(f, 1, +1)


def test_coeffs_is_one_read_only_view():
    f = LaurentPoly({-1: 1, 0: 0, 2: -3})
    assert f.coeffs is f.coeffs
    assert f.coeffs == {-1: 1, 2: -3}
    with pytest.raises(TypeError):
        f.coeffs[0] = 5
    assert f == LaurentPoly({-1: 1, 2: -3})


@pytest.mark.parametrize("f", [LaurentPoly(), LaurentPoly({1: 1, 0: -1})],
                         ids=["zero", "nonzero"])
@pytest.mark.parametrize("C", [0, 2, -2, None])
def test_has_symmetry_refuses_a_sign_other_than_pm1(f, C):
    with pytest.raises(ValueError, match="C must be"):
        has_symmetry(f, 1, C)


@pytest.mark.parametrize("coeffs, term", [
    ({0: 2.5, 1.9: 1}, "0: 2.5"),
    ({0: "2"}, "0: '2'"),
    ({0: 0.4}, "0: 0.4"),
    ({1.0: 1}, "1.0: 1"),
])
def test_init_refuses_non_integer_terms(coeffs, term):
    with pytest.raises(TypeError, match=f"bad term {re.escape(term)}:"):
        LaurentPoly(coeffs)


def test_init_takes_integer_types_and_drops_zeros():
    f = LaurentPoly({np.int64(2): np.int64(3), True: -1, 0: np.int32(0)})
    assert f.coeffs == {2: 3, 1: -1}
    assert all(type(k) is int and type(a) is int for k, a in f.coeffs.items())
    assert LaurentPoly({0: np.int64(0)}).is_zero()


@given(st.one_of(st.just(LaurentPoly()), small_polys), st.integers(-8, 8),
       st.sampled_from([-1, 1]))
def test_has_symmetry_matches_reverse(f, D, C):
    assert has_symmetry(f, D, C) == (reverse(f, D) == (f if C == 1 else -f))


def test_zero_satisfies_everything():
    for D in range(-3, 4):
        assert has_symmetry(LaurentPoly(), D, -1)
        assert has_symmetry(LaurentPoly(), D, +1)


@given(small_polys, st.integers(-8, 8))
def test_reverse_is_an_involution(f, D):
    assert reverse(reverse(f, D), D) == f


@given(small_polys)
def test_detection_matches_reverse(f):
    auto = detect_automorphy(f)
    if f.is_zero():
        assert auto.kind is SymmetryKind.ZERO
        return
    D = f.min_exp + f.max_exp
    if auto.kind is SymmetryKind.ODD:
        assert reverse(f, D) == -f
    elif auto.kind is SymmetryKind.EVEN:
        assert reverse(f, D) == f
    else:
        assert reverse(f, D) != -f and reverse(f, D) != f


@given(small_polys)
def test_odd_implies_f1_zero(f):
    if detect_automorphy(f).kind is SymmetryKind.ODD:
        assert eval_at_one(f) == 0


@pytest.mark.parametrize("r", range(9))
def test_binom_power_parity(r):
    auto = detect_automorphy(binom_power(r))
    if r % 2 == 1:
        assert auto.kind is SymmetryKind.ODD
    else:
        assert auto.kind is SymmetryKind.EVEN
    assert auto.D == r


@given(small_polys, small_polys)
@settings(max_examples=200)
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(small_polys, small_polys, small_polys)
@settings(max_examples=100)
def test_mul_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(small_polys, small_polys)
@settings(max_examples=300)
def test_detection_respects_products(f, g):
    af, ag = detect_automorphy(f), detect_automorphy(g)
    if af.kind is SymmetryKind.ODD and ag.kind is SymmetryKind.ODD:
        prod = detect_automorphy(f * g)
        assert prod.kind is SymmetryKind.EVEN
        assert prod.D == af.D + ag.D


def test_parse_poly():
    assert parse_poly("-1=1, 0=-1") == LaurentPoly({-1: 1, 0: -1})
    assert parse_poly("2=1,2=1") == LaurentPoly({2: 2})
    assert parse_poly("").is_zero()
    with pytest.raises(ValueError):
        parse_poly("notapair")
    with pytest.raises(ValueError):
        parse_poly("x=1")


def test_format_poly_roundtrip_shape():
    assert format_poly(LaurentPoly()) == "0"
    assert format_poly(LaurentPoly({1: 1, 0: -1})) == "x - 1"
    assert format_poly(LaurentPoly({-1: 1, 0: -1})) == "-1 + x^-1"
