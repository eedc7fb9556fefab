import dataclasses
import functools
import hashlib
import math
import os
import random
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selbergfe
from selbergfe import geodesics
from selbergfe.geodesics import (BOLZA_LENGTH, LengthSpectrum,
                                 SpectrumFormatError, bolza_group,
                                 bolza_group_exact, enumerate_spectrum,
                                 euler_zeta, exact_normalize,
                                 exact_orbit_key, exact_product,
                                 exact_trace_key,
                                 geodesic_count, load_spectrum, pgt_table,
                                 save_spectrum, selberg_Z, zeta_motive_numeric,
                                 _class_firsts, _classify_frontier,
                                 _cyclically_reduced, _frontiers,
                                 _merge_rows)
from selbergfe.laurent import LaurentPoly
from selbergfe.special import DomainError


def _spectrum(rows, horizon=0.0):
    """A genus-2 LengthSpectrum of (length, multiplicity) rows."""
    return LengthSpectrum([ell for ell, _ in rows], [m for _, m in rows],
                          genus=2, source="test", horizon=horizon)


@pytest.fixture(scope="module")
def bolza():
    return bolza_group()


@pytest.fixture(scope="module")
def spectrum5(bolza):
    return enumerate_spectrum(bolza, 5)


@pytest.fixture(scope="module")
def spectrum7(bolza):
    return enumerate_spectrum(bolza, 7)


def test_letters_layout(bolza):
    assert bolza.shape == (8, 2, 2) and bolza.dtype == np.float64
    assert bolza.flags.c_contiguous


def test_generator_traces(bolza):
    """All 8 letters, generators and inverses, have |trace| 2 + 2 sqrt 2
    and determinant 1."""
    traces = np.trace(bolza, axis1=1, axis2=2)
    assert np.abs(np.abs(traces) - (2 + 2 * math.sqrt(2))).max() <= 1e-12
    assert np.abs(np.linalg.det(bolza) - 1.0).max() <= 1e-13


def test_generator_length_matches_systole(bolza):
    traces = np.abs(np.trace(bolza, axis1=1, axis2=2))
    lengths = 2 * np.arccosh(traces / 2)
    assert np.abs(lengths - BOLZA_LENGTH).max() <= 1e-12


def test_letter_inverses(bolza):
    """Letter 2k + 1 is the inverse of letter 2k."""
    products = bolza[1::2] @ bolza[0::2]
    assert np.abs(products - np.eye(2)).max() <= 1e-14


def test_letters_read_only(bolza):
    with pytest.raises(ValueError):
        bolza[0, 0, 0] = 1.0


def test_relator_exists_at_length_8(bolza):
    """Exhaustive search over cyclically reduced length-8 words finds
    exactly one relator orbit evaluating to +-identity."""
    for n, codes, _, mats in _frontiers(bolza, 8):
        pass
    mats = mats[_cyclically_reduced(codes, n)]
    signs = np.sign(mats[:, 0, 0])[:, None, None]
    dev = np.max(np.abs(mats - signs * np.eye(2)), axis=(1, 2))
    hits = dev < 1e-9
    # one relator orbit: 8 rotations x 2 orientations
    assert hits.sum() == 16


# -- the exact group ---------------------------------------------------

_IDENTITY = np.zeros((2, 2, 4), dtype=np.int64)
_IDENTITY[0, 0, 0] = _IDENTITY[1, 1, 0] = 1
# g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3, the octagon's side-pairing relation
_RELATOR = (0, 3, 4, 7, 1, 2, 5, 6)


def _exact_value(x):
    """The float values of exact numbers, held as (p0, p1, q0, q1) on the
    last axis: p0 + p1 sqrt2 + (q0 + q1 sqrt2) u, u = sqrt(1 + sqrt2)."""
    p0, p1, q0, q1 = np.moveaxis(x, -1, 0).astype(np.float64)
    r2 = math.sqrt(2)
    return p0 + p1 * r2 + (q0 + q1 * r2) * math.sqrt(1 + r2)


def test_exact_letters_equal_the_float_letters(bolza):
    exact = bolza_group_exact()
    assert exact.shape == (8, 2, 2, 4) and exact.dtype == np.int64
    assert not exact.flags.writeable
    assert np.abs(_exact_value(exact) - bolza).max() <= 1e-14


def test_exact_relator_is_the_identity(bolza):
    """The octagon relation is exactly +-I (the float product agrees), and
    each letter times its inverse is exactly I."""
    letters = bolza_group_exact()
    m = _IDENTITY
    for letter in _RELATOR:
        m = exact_product(m, letters[letter])
    assert (exact_normalize(m) == _IDENTITY).all()
    floats = np.linalg.multi_dot(bolza[list(_RELATOR)])
    assert np.abs(floats - np.eye(2)).max() < 1e-9
    assert (exact_product(letters[0::2], letters[1::2]) == _IDENTITY).all()


def test_exact_traces_of_random_words(bolza):
    """Seeded random words: every trace has zero u-part, so the key (m, n)
    exists, m + n sqrt2 is the float |trace| (to the rounding of the
    float product, which scales with its entries, not its trace), and g
    and -g share one normal form."""
    rng = np.random.default_rng(2601)
    words = rng.integers(0, 8, size=(300, 10))
    letters = bolza_group_exact()
    exact, floats = letters[words[:, 0]], bolza[words[:, 0]]
    for column in words[:, 1:].T:
        exact = exact_product(exact, letters[column])
        floats = floats @ bolza[column]
        m, n = exact_trace_key(exact).T
        value = m + n * math.sqrt(2)
        trace = np.abs(np.trace(floats, axis1=1, axis2=2))
        size = np.abs(floats).sum(axis=(1, 2))
        assert (value > 0).all()
        assert (np.abs(value - trace) <= 1e-12 * size).all()
        assert (exact_normalize(-exact) == exact_normalize(exact)).all()


def test_exact_product_refuses_overflow():
    big = np.full((2, 2, 4), 2 ** 30, dtype=np.int64)
    with pytest.raises(OverflowError):
        exact_product(big, big)


def test_orbit_count_over_the_full_disc():
    """N(R), the elements modulo +-I with cosh d(i, g i) <= cosh R, is 9,
    49, 97 and 265 at R = 4..7, as a float search over bolza_group()
    finds.  A breadth-first search over the exact letters keeps g while
    cosh d(i, g i) <= cosh(7 + 2 r_c), r_c the octagon's circumradius,
    which holds every path of adjacent tiles along the geodesic from i
    to g i; each layer is deduplicated by orbit key against itself and
    the two layers before it."""
    letters = bolza_group_exact()
    r_c = math.acosh((1 + math.sqrt(2)) ** 2)
    keep = math.cosh(7 + 2 * r_c)
    layers = [_IDENTITY[None]]
    keys = [np.zeros((0, 4), dtype=np.int64), exact_orbit_key(layers[0])]
    cosh = [np.ones(1)]
    while layers[-1].size:
        g = exact_product(layers[-1][:, None], letters).reshape(-1, 2, 2, 4)
        c = (_exact_value(g) ** 2).sum(axis=(1, 2)) / 2   # cosh d(i, g i)
        g, c = g[c <= keep], c[c <= keep]
        key = exact_orbit_key(g)
        old = np.concatenate(keys[-2:])
        _, first = np.unique(np.concatenate([old, key]), axis=0,
                             return_index=True)
        new = np.sort(first[first >= len(old)]) - len(old)
        layers.append(g[new])
        keys.append(key[new])
        cosh.append(c[new])
    cosh = np.concatenate(cosh)
    assert [int((cosh <= math.cosh(R)).sum()) for R in (4, 5, 6, 7)] == \
        [9, 49, 97, 265]
    keys = np.concatenate(keys)
    assert len(np.unique(keys, axis=0)) == len(keys) == len(cosh)


def _code(word):
    """The packed code of a word: 4 bits a letter, first letter highest."""
    return sum(a << 4 * i for i, a in enumerate(reversed(word)))


def _inverse(word):
    return tuple(a ^ 1 for a in reversed(word))


def test_frontier_codes(bolza):
    """Up to length 4 every freely reduced word appears once, with the
    code of its inverse word and the product of its letter matrices."""
    for n, codes, inv, mats in _frontiers(bolza, 4):
        words = [tuple((c >> 4 * (n - 1 - i)) & 15 for i in range(n))
                 for c in codes.tolist()]
        assert len(set(words)) == len(words) == 8 * 7 ** (n - 1)
        for word, c, ic, m in zip(words, codes.tolist(), inv.tolist(), mats):
            assert all(b != a ^ 1 for a, b in zip(word, word[1:]))
            assert c == _code(word) and ic == _code(_inverse(word))
            product = functools.reduce(np.matmul, [bolza[a] for a in word])
            assert np.abs(m - product).max() <= 1e-10 * np.abs(product).max()


@st.composite
def reduced_words(draw):
    """Freely reduced words of 1..15 letters, some of them proper powers."""
    n = draw(st.integers(1, 15))
    period = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    base = []
    for i in range(period):
        banned = {base[-1] ^ 1} if base else set()
        if base and i == period - 1 and period < n:
            banned.add(base[0] ^ 1)  # so that the repeats join reduced
        base.append(draw(st.sampled_from(
            [a for a in range(8) if a not in banned])))
    return tuple(base) * (n // period)


@given(reduced_words())
@settings(max_examples=400)
def test_class_firsts_against_tuple_rotations(word):
    """Fed a whole class, the mask marks exactly the member whose
    reversed word is least, or none when the word is a proper power."""
    n = len(word)
    members = sorted({w[r:] + w[:r] for w in (word, _inverse(word))
                      for r in range(n)})
    first = _class_firsts(
        np.array([_code(w) for w in members], dtype=np.int64),
        np.array([_code(_inverse(w)) for w in members], dtype=np.int64), n)
    periodic = any(word[r:] + word[:r] == word for r in range(1, n))
    least = min(members, key=lambda w: w[::-1])
    assert first.tolist() == [w == least and not periodic for w in members]


def test_classify_frontier_aborts_on_elliptic_word(bolza, monkeypatch):
    """A rotation (|trace| 1) past the first chunk stops the
    classification with the elliptic-word error."""
    monkeypatch.setattr(geodesics, "_CLASSIFY_CHUNK", 7)
    for n, codes, inv, mats in _frontiers(bolza, 2):
        pass
    mats = mats.copy()
    i = 7 + int(np.flatnonzero(_cyclically_reduced(codes[7:], n))[0])
    angle = math.pi / 3
    mats[i] = [[math.cos(angle), math.sin(angle)],
               [-math.sin(angle), math.cos(angle)]]
    with pytest.raises(RuntimeError, match=re.escape(
            "non-identity word with |trace| <= 2 encountered (|trace|=")):
        _classify_frontier(n, codes, inv, mats)


def test_merge_rows_anchors_on_row_first():
    """A length joins a row by its distance from the row's first length,
    not from the previous length: chaining would give rows 6 and 2."""
    lengths, mults = _merge_rows(
        np.array([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9, 5.0]))
    assert lengths.tolist() == [1.0, 1.0 + 1.2e-9, 5.0]
    assert mults.tolist() == [4, 2, 2]


def test_spectrum_word_length_one(bolza):
    sp = enumerate_spectrum(bolza, 1)
    assert len(sp.entries) == 1
    ell, mult = sp.entries[0]
    assert ell == pytest.approx(BOLZA_LENGTH, abs=1e-10)
    assert mult == 8  # four generators and their inverses


def test_spectrum_monotone_and_prefix_stable(bolza, spectrum5):
    sp4 = enumerate_spectrum(bolza, 4)
    assert len(spectrum5.entries) >= len(sp4.entries)
    prefix = tuple(e for e in sp4.entries if e[0] <= sp4.horizon)
    assert spectrum5.entries[:len(prefix)] == prefix


def test_spectrum_rejects_bad_args(bolza):
    with pytest.raises(ValueError):
        enumerate_spectrum(bolza, 0)
    with pytest.raises(ValueError, match="capped at 15"):
        enumerate_spectrum(bolza, 16)


def test_spectrum_memory_checked_before_allocating(bolza, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search started")
    monkeypatch.setattr(geodesics, "_frontiers", no_search)
    with pytest.raises(ValueError, match=r"about [\d,.]+ GiB at its peak "
                       r"\(5425784582792 words of length 15\), more than "
                       r"the [\d,.]+ GiB of physical memory"):
        enumerate_spectrum(bolza, 15)


# SHA-256 of the file save_spectrum writes for the Bolza spectrum at
# L = 1..7; L = 7 is the spectrum the benchmark's Euler products read.
# They pin the enumeration's output byte for byte, and change
# on purpose only when the classification of words changes.
SPECTRUM_SHA256 = {
    1: "1962cdaf940340da9bee9a1e5d1caa980ab19952ec7a4f43b7cf0037a697b7a6",
    2: "a01c3132a0bceb983cb338285d33165b5301612ad69eb0bafcc60d0f66f229c3",
    3: "f78515df3b603051c8f54e13b4a1f47b8ae8dd97ff1d0b394653e5c1771ae8d9",
    4: "1c38b3a807b49cc33de8541783ef17e6ab841039c22e08cde3b16f5982b8c6e4",
    5: "0027f36db1a6cd281881687eff26a5e5c1f9a0f2ba1651bab6fded157fe0e253",
    6: "cda892d10954233d87f4962d0c593c8ff9f339126b04d85081f175940e9c556f",
    7: "4b71dac66c3fd437cdbacb7cdd17eddaa124caa6b4a4104b5cfb95a25b49e5f0",
}


def _spectrum_sha256(sp, tmp_path):
    path = tmp_path / "sp.txt"
    save_spectrum(sp, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("max_word_len", sorted(SPECTRUM_SHA256))
def test_spectrum_file_golden(bolza, tmp_path, max_word_len):
    sp = enumerate_spectrum(bolza, max_word_len)
    assert _spectrum_sha256(sp, tmp_path) == SPECTRUM_SHA256[max_word_len]
    # and the file reads back bit for bit
    loaded = load_spectrum(str(tmp_path / "sp.txt"))
    assert loaded.lengths.tobytes() == sp.lengths.tobytes()
    assert loaded.entries == sp.entries


def test_spectrum_independent_of_chunk(bolza, tmp_path, monkeypatch):
    monkeypatch.setattr(geodesics, "_CLASSIFY_CHUNK", 7)
    digest = _spectrum_sha256(enumerate_spectrum(bolza, 5), tmp_path)
    assert digest == SPECTRUM_SHA256[5]


def test_spectrum_multiplicities_even(spectrum5):
    assert all(m % 2 == 0 for _, m in spectrum5.entries)


def test_spectrum_deterministic(bolza, spectrum5):
    again = enumerate_spectrum(bolza, 5)
    assert again.entries == spectrum5.entries
    assert again.horizon == spectrum5.horizon


def test_spectrum_invariants(spectrum5):
    lengths = [l for l, _ in spectrum5.entries]
    assert all(b - a > 1e-9 for a, b in zip(lengths, lengths[1:]))
    assert spectrum5.horizon <= lengths[-1]


def test_spectrum_is_frozen(spectrum5):
    assert isinstance(spectrum5.entries, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum5.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectrum5.horizon = 0.0
    with pytest.raises(ValueError):
        spectrum5.lengths[0] = 1.0


@pytest.mark.parametrize("entries, message", [
    ([(3.0, 2), (4.0, 0)], "multiplicity must be >= 1 at length 4.0"),
    ([(3.0, 2), (3.0 + 1e-10, 2)], "3.0 then 3.0000000001"),
    ([(3.0, 2), (2.0, 0)], "multiplicity must be >= 1 at length 2.0"),
    ([(3.0, 2), (2.0, 2), (4.0, 0)], "3.0 then 2.0"),
    ([(3.0, 2), (math.nan, 2)], "lengths must be finite, got nan"),
    ([(math.nan, 2)], "lengths must be finite, got nan"),
    ([(-1.0, 2), (3.0, 2)], "lengths must be positive, got -1.0"),
    ([(3.0, 10 ** 16)], "more than 2**53 classes"),
    ([(3.0, 10 ** 400)],
     "multiplicity must be an integer (not a bool) within int64 at length 3.0"),
    ([(3.0, 2), (math.inf, 2)], "lengths must be finite, got inf"),
    ([(-math.inf, 2), (3.0, 0)], "lengths must be finite, got -inf"),
])
def test_spectrum_validation_names_the_row(entries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _spectrum(entries)


@pytest.mark.parametrize("lengths, mults, length", [
    ([3.0, 4.0], [2.5, True], 3.0),
    ([3.0, 4.0], [2, True], 4.0),
    ([3.0], [True], 3.0),
    ([3.0, 4.0], np.array([2.0, 4.0]), 3.0),
    ([3.0], np.array([True]), 3.0),
], ids=["fraction", "bool-among-ints", "bool", "float-array", "bool-array"])
def test_spectrum_refuses_non_integral_multiplicities(lengths, mults, length):
    with pytest.raises(ValueError, match=re.escape(
            "multiplicity must be an integer (not a bool) within int64 at "
            f"length {length}")):
        LengthSpectrum(lengths, mults, genus=2, source="test", horizon=0.0)


def test_spectrum_refuses_rows_of_two_sizes():
    with pytest.raises(ValueError, match="must be 1-D and of one size"):
        LengthSpectrum([3.0, 4.0], [2], genus=2, source="test", horizon=0.0)


def test_spectrum_stores_owned_read_only_copies():
    """Strided views in, as a structured array's fields are: the stored
    rows are contiguous float64 copies that the caller cannot change."""
    rows = np.array([(3.0, 2), (4.0, 4)],
                    dtype=[("length", np.float64), ("mult", np.int64)])
    sp = LengthSpectrum(rows["length"], rows["mult"], genus=2,
                        source="test", horizon=3.0)
    rows[0] = (3.5, 8)
    assert (sp.lengths.tolist(), sp.mults.tolist()) == ([3.0, 4.0], [2.0, 4.0])
    assert sp.cum_mults.tolist() == [0.0, 2.0, 6.0]
    for arr in (sp.lengths, sp.mults, sp.cum_mults):
        assert arr.dtype == np.float64
        assert arr.flags.c_contiguous and arr.flags.owndata
        assert not arr.flags.writeable


def test_entries_built_only_when_read(bolza, tmp_path, monkeypatch):
    monkeypatch.setattr(geodesics, "_LOADED", None)   # a first load
    sp = enumerate_spectrum(bolza, 3)
    path = str(tmp_path / "sp.txt")
    save_spectrum(sp, path)
    loaded = load_spectrum(path)
    assert "entries" not in vars(sp) and "entries" not in vars(loaded)
    assert loaded.entries is loaded.entries == sp.entries


def test_euler_weights_built_only_when_used(bolza, tmp_path, monkeypatch):
    """Loading and counting build no Euler weights; the first Euler
    product does, once, as read-only arrays."""
    monkeypatch.setattr(geodesics, "_LOADED", None)   # a first load
    path = str(tmp_path / "sp.txt")
    save_spectrum(enumerate_spectrum(bolza, 3), path)
    sp = load_spectrum(path)
    geodesic_count(50.0, sp)
    assert "euler_weights" not in vars(sp)
    selberg_Z(2.0, sp)
    r, w = sp.euler_weights
    assert sp.euler_weights is vars(sp)["euler_weights"]
    for arr in (r, w):
        assert arr.shape == sp.lengths.shape and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    np.testing.assert_allclose(w, sp.mults / np.expm1(sp.lengths), rtol=1e-14)


@pytest.mark.parametrize("entries", [[], [(3.0, 2)]])
@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -1.0])
def test_spectrum_horizon_must_be_finite_and_nonnegative(entries, horizon):
    with pytest.raises(ValueError, match=re.escape(
            f"horizon must be finite and >= 0, got {horizon}")):
        _spectrum(entries, horizon)


@pytest.mark.parametrize("entries", [[], [(3.0, 2)]])
def test_spectrum_horizon_may_pass_the_last_length(tmp_path, entries):
    """A spectrum complete to 9 need not have a row at 9; the horizon
    reads back from its file."""
    sp = _spectrum(entries, 9.0)
    path = tmp_path / "sp.txt"
    save_spectrum(sp, str(path))
    assert load_spectrum(str(path)).horizon == sp.horizon == 9.0


# -- persistence ---------------------------------------------------------

@pytest.mark.parametrize("max_word_len", [5, 7])
def test_save_load_roundtrip(request, tmp_path, max_word_len):
    sp = request.getfixturevalue(f"spectrum{max_word_len}")
    path = str(tmp_path / "sp.txt")
    save_spectrum(sp, path)
    loaded = load_spectrum(path)
    assert loaded.entries == sp.entries
    assert loaded.lengths.tobytes() == sp.lengths.tobytes()
    assert all(type(m) is int for _, m in loaded.entries)
    assert (loaded.genus, loaded.source) == (sp.genus, sp.source)
    assert loaded.horizon == sp.horizon


@pytest.mark.parametrize("source", ["x\n3.5 2", "x\n# genus=5"])
def test_save_refuses_control_characters_in_source(tmp_path, source):
    """Written verbatim, the first would not load and the second would
    load with genus 5; neither leaves a file or a temp file behind."""
    sp = LengthSpectrum([3.0, 4.0], [2, 2], genus=2, source=source, horizon=3.0)
    with pytest.raises(ValueError, match="control character"):
        save_spectrum(sp, str(tmp_path / "sp.txt"))
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_decreasing(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# genus=2\n# horizon=2.0\n3.0 2\n2.0 2\n")
    with pytest.raises(SpectrumFormatError) as err:
        load_spectrum(str(path))
    assert err.value.lineno == 4


def test_load_rejects_missing_genus(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# horizon=2.0\n3.0 2\n")
    with pytest.raises(SpectrumFormatError):
        load_spectrum(str(path))


@pytest.mark.parametrize("text, lineno, message", [
    ("# genus=abc\n# horizon=2.0\n3.0 2\n", 1, "genus: invalid literal"),
    ("# genus=2\n# horizon=abc\n3.0 2\n", 2, "horizon: could not convert"),
    ("# genus=2\n# source=x\n# horizon=\n", 3, "horizon: could not convert"),
], ids=["genus", "horizon", "empty-horizon"])
def test_load_names_a_bad_header_value(tmp_path, text, lineno, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(SpectrumFormatError, match=f":{lineno}: {message}"):
        load_spectrum(str(path))


@pytest.mark.parametrize("horizon", ["nan", "inf", "-1.0"])
def test_load_rejects_bad_horizon(tmp_path, horizon):
    path = tmp_path / "bad.txt"
    path.write_text(f"# genus=2\n# horizon={horizon}\n")
    with pytest.raises(ValueError, match="horizon must be finite and >= 0"):
        load_spectrum(str(path))


def test_load_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# genus=2\n# horizon=2.0\n3.0\n")
    with pytest.raises(SpectrumFormatError) as err:
        load_spectrum(str(path))
    assert err.value.lineno == 3


_NOT_READ = ("expected an ASCII decimal length and an int64 multiplicity, "
             "without underscores")


@pytest.mark.parametrize("row, message", [
    ("4.0 2 # note", "expected '<length> <multiplicity>'"),
    ("4.0 2#note", "invalid literal for int() with base 10: '2#note'"),
    ("4.0 2 5", "expected '<length> <multiplicity>'"),
    ("4.0,2", "expected '<length> <multiplicity>'"),
    ("4.0 2.0", "invalid literal for int() with base 10: '2.0'"),
    ("4.0 2.5", "invalid literal for int() with base 10: '2.5'"),
    ("4.0 1e3", "invalid literal for int() with base 10: '1e3'"),
    ("0x4 2", "could not convert string to float: '0x4'"),
    ("2.0 2", "lengths must be strictly increasing"),
    ("3.0 2", "lengths must be strictly increasing"),
    # rows that float and int read but a spectrum file does not hold
    ("4.0 2_0", _NOT_READ),
    ("4_0.5 2", _NOT_READ),
    ("4.0 \u0662", _NOT_READ),
    ("4.0 99999999999999999999", _NOT_READ),
], ids=["inline-comment", "glued-comment", "three-fields", "comma",
        "float-multiplicity", "fraction", "exponent", "hex-length",
        "decreasing", "repeated", "underscore-multiplicity",
        "underscore-length", "non-ascii-digit", "beyond-int64"])
@pytest.mark.parametrize("after", ["", "5.0 x\n# genus=x\n"],
                         ids=["alone", "before-other-errors"])
def test_load_names_the_first_bad_row(tmp_path, row, message, after):
    path = tmp_path / "bad.txt"
    path.write_text(f"# genus=2\n# horizon=2.0\n3.0 2\n{row}\n5.0 2\n"
                    + after)
    with pytest.raises(SpectrumFormatError) as err:
        load_spectrum(str(path))
    assert err.value.lineno == 4
    assert str(err.value) == f"{path}:4: {message}"


_REAL_LOADTXT = np.loadtxt


def _loadtxt_via_float(lines, dtype, **kwargs):
    """np.loadtxt as numpy releases with the deprecated fallback run it:
    an int field that int() refuses is read through float, with only a
    DeprecationWarning."""
    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                  DeprecationWarning, stacklevel=2)
    as_float = [(name, np.float64) for name in dtype.names]
    return _REAL_LOADTXT(lines, dtype=as_float, **kwargs).astype(dtype)


@pytest.mark.parametrize("row, message", [
    ("4.0 2.0", "invalid literal for int() with base 10: '2.0'"),
    ("4.0 2.5", "invalid literal for int() with base 10: '2.5'"),
    ("4.0 1e3", "invalid literal for int() with base 10: '1e3'"),
    ("4.0 99999999999999999999", _NOT_READ),
], ids=["integral-float", "fraction", "exponent", "beyond-int64"])
@pytest.mark.parametrize("loadtxt", [_REAL_LOADTXT, _loadtxt_via_float],
                         ids=["numpy", "via-float-fallback"])
def test_load_refuses_int_via_float_with_warnings_ignored(
        tmp_path, monkeypatch, row, message, loadtxt):
    # the refusal is the per-line reader's own: it holds under a CLI run's
    # warning filter, not the test suite's "error", whichever np.loadtxt
    # the installed numpy release has
    monkeypatch.setattr(np, "loadtxt", loadtxt)
    path = tmp_path / "bad.txt"
    path.write_text(f"# genus=2\n# horizon=2.0\n3.0 2\n{row}\n5.0 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SpectrumFormatError) as err:
            load_spectrum(str(path))
    assert str(err.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("row, entry", [
    ("3.0\t2", (3.0, 2)),
    ("3.0\x0b2", (3.0, 2)),
    ("3.0\x0c2", (3.0, 2)),
    ("3.0\x1c2", (3.0, 2)),
    ("3.0\xa02", (3.0, 2)),
    ("3.0\u30002", (3.0, 2)),
    (" \t3.0 \t 2\xa0 ", (3.0, 2)),
    ("+3.0 +2", (3.0, 2)),
    ("3. 2", (3.0, 2)),
    (".5e1 2", (5.0, 2)),
    ("3.0 02", (3.0, 2)),
], ids=["tab", "vertical-tab", "form-feed", "file-separator", "nbsp",
        "ideographic-space", "surrounding-blanks", "plus-signs",
        "trailing-point", "leading-point", "leading-zero"])
def test_load_reads_a_row(tmp_path, row, entry):
    path = tmp_path / "sp.txt"
    path.write_text(f"# genus=2\n# horizon=2.0\n{row}\n")
    assert load_spectrum(str(path)).entries == (entry,)


@pytest.mark.parametrize("rows, message", [
    ("inf 2", "lengths must be finite, got inf"),
    ("Infinity 2", "lengths must be finite, got inf"),
    ("1e400 2", "lengths must be finite, got inf"),
    ("3.0 -0", "multiplicity must be >= 1 at length 3.0"),
    ("nan 2\n5.0 2", "lengths must be finite, got nan"),
    ("3.0 2\nnan 2\n5.0 2", "lengths must be finite, got nan"),
], ids=["inf", "infinity", "overflow", "minus-zero", "nan-first",
        "nan-between"])
def test_load_leaves_row_values_to_the_spectrum(tmp_path, rows, message):
    """Rows that parse but that LengthSpectrum refuses are refused as
    line 0: a nan length passes the order check before or after another
    row."""
    path = tmp_path / "bad.txt"
    path.write_text(f"# genus=2\n# horizon=2.0\n{rows}\n")
    with pytest.raises(SpectrumFormatError) as err:
        load_spectrum(str(path))
    assert str(err.value) == f"{path}:0: {message}"


def test_load_names_a_bad_header_before_a_bad_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# genus=2\n3.0 2\n# horizon=x\n4.0 x\n")
    with pytest.raises(SpectrumFormatError, match=":3: horizon: could not"):
        load_spectrum(str(path))


def test_load_reads_headers_after_the_rows(tmp_path):
    path = tmp_path / "sp.txt"
    path.write_text("3.0 2\n  # genus=3\n4.0 2\n# horizon=2.5\n"
                    "# source=a # b\n# note\n")
    sp = load_spectrum(str(path))
    assert sp.entries == ((3.0, 2), (4.0, 2))
    assert (sp.genus, sp.horizon, sp.source) == (3, 2.5, "a # b")


@pytest.mark.parametrize("text", ["# genus=2\n# horizon=2.0\n",
                                  "# genus=2\n\n# horizon=2.0",
                                  "\n  \n# genus=2\n# horizon=2.0\n\t\n"])
def test_load_header_only_file(tmp_path, text):
    path = tmp_path / "sp.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sp = load_spectrum(str(path))
    assert (sp.entries, sp.lengths.size, sp.genus) == ((), 0, 2)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_line_endings(tmp_path, spectrum5, newline):
    plain = tmp_path / "plain.txt"
    save_spectrum(spectrum5, str(plain))
    other = tmp_path / "other.txt"
    other.write_bytes(plain.read_bytes().replace(b"\n", newline.encode()))
    a, b = load_spectrum(str(plain)), load_spectrum(str(other))
    assert a.lengths.tobytes() == b.lengths.tobytes()
    assert (a.entries, a.genus, a.source, a.horizon) == \
        (b.entries, b.genus, b.source, b.horizon)


class _Parsed(Exception):
    """Raised by a stand-in for _parse_spectrum: the text was parsed."""


def _refuse_to_parse(*args, **kwargs):
    raise _Parsed


def test_load_reuses_the_spectrum_of_the_same_text(spectrum5, tmp_path,
                                                    monkeypatch):
    """Once a text is loaded, the same text, at its path or at another,
    returns the same object, Euler weights included, and is not parsed;
    one digit changed in one row, with the file size kept, is parsed."""
    monkeypatch.setattr(geodesics, "_LOADED", None)
    path = tmp_path / "sp.txt"
    save_spectrum(spectrum5, str(path))
    first = load_spectrum(str(path))
    selberg_Z(2.0, first)
    monkeypatch.setattr(geodesics, "_parse_spectrum", _refuse_to_parse)
    copy = tmp_path / "copy.txt"
    copy.write_bytes(path.read_bytes())
    for again in (load_spectrum(str(path)), load_spectrum(str(copy))):
        assert again is first and "euler_weights" in vars(again)
    size = path.stat().st_size
    lines = path.read_text().split("\n")
    row = lines[6]
    digit = row.index("e") - 1
    lines[6] = row[:digit] + str((int(row[digit]) + 1) % 10) + row[digit + 1:]
    path.write_text("\n".join(lines))
    assert path.stat().st_size == size
    with pytest.raises(_Parsed):
        load_spectrum(str(path))


def test_load_keeps_no_refusal(spectrum5, tmp_path, monkeypatch):
    """A bad file is refused each time with the same message; a good file
    rewritten in place with a bad row is refused naming that line, and
    the original text loads again."""
    monkeypatch.setattr(geodesics, "_LOADED", None)
    bad = tmp_path / "bad.txt"
    bad.write_text("# genus=2\n# horizon=2.0\n3.0 2\n2.0 2\n")
    messages = []
    for _ in range(2):
        with pytest.raises(SpectrumFormatError) as err:
            load_spectrum(str(bad))
        messages.append(str(err.value))
    assert messages == [f"{bad}:4: lengths must be strictly increasing"] * 2
    path = tmp_path / "sp.txt"
    save_spectrum(spectrum5, str(path))
    good = path.read_text()
    first = load_spectrum(str(path))
    lines = good.split("\n")
    lines[6] = lines[6].replace(" ", " x", 1)
    path.write_text("\n".join(lines))
    with pytest.raises(SpectrumFormatError) as err:
        load_spectrum(str(path))
    assert err.value.lineno == 7
    path.write_text(good)
    assert load_spectrum(str(path)) is first


def test_load_reused_spectrum_equals_a_fresh_parse(spectrum7, tmp_path,
                                                  monkeypatch):
    path = str(tmp_path / "sp.txt")
    save_spectrum(spectrum7, path)
    monkeypatch.setattr(geodesics, "_LOADED", None)
    load_spectrum(path)
    reused = load_spectrum(path)
    monkeypatch.setattr(geodesics, "_LOADED", None)
    fresh = load_spectrum(path)
    assert fresh is not reused
    for name in ("lengths", "mults", "cum_mults"):
        a, b = getattr(reused, name), getattr(fresh, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert (reused.genus, reused.source, reused.horizon.hex()) == \
        (fresh.genus, fresh.source, fresh.horizon.hex())


_TOKEN = st.text(alphabet="0123456789+-.eEinfINF_x", min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(length=_TOKEN, mult=_TOKEN,
       sep=st.sampled_from([" ", "\t", "  ", "\x0c", "\u3000"]))
def test_load_accepts_only_what_float_and_int_read(tmp_path_factory, length,
                                                   mult, sep):
    # a row is read, if at all, as float and int read its two fields
    path = tmp_path_factory.mktemp("row") / "sp.txt"
    path.write_text(f"# genus=2\n# horizon=0\n{length}{sep}{mult}\n")
    try:
        ell, m = load_spectrum(str(path)).entries[0]
    except ValueError:
        return
    assert type(m) is int and m == int(mult)
    assert ell == float(length)


# -- Euler products ------------------------------------------------------

def _tiny_spectrum():
    return _spectrum([(3.0571, 1)], horizon=3.0571)


def test_selberg_Z_empty_spectrum():
    sp = _spectrum([])
    assert selberg_Z(2.0, sp).value == 1.0
    assert euler_zeta(2.0, sp).value == 1.0


def test_selberg_Z_single_entry():
    sp = _tiny_spectrum()
    expected = 1.0
    for n in range(40):
        expected *= 1 - math.exp(-3.0571 * (2 + n))
    assert selberg_Z(2.0, sp).value == pytest.approx(expected, rel=1e-15)


def test_selberg_Z_factor_below_cutoff():
    """A length whose n = 0 factor is already below the cutoff drops
    out of the product, and its truncation stays in the estimate."""
    sp = _spectrum([(200.0, 2)], horizon=200.0)
    sv = selberg_Z(2.0, sp)
    assert sv.value == 1.0
    assert sv.abs_err_estimate > 0


def _mp_log_euler(s, entries, inner):
    """log of prod over the entries of prod_{n < inner} (1 - e^-l(s+n))^m."""
    sm = mpmath.mpf(s)
    return mpmath.fsum(m * mpmath.log1p(-mpmath.exp(-mpmath.mpf(l) * (sm + n)))
                       for l, m in entries for n in range(inner))


@pytest.mark.parametrize("s", [1.2, 2.0, 5.0])
def test_euler_products_vs_mpmath(spectrum5, s):
    """Each value is within its own error estimate of a 30-digit product."""
    motive = LaurentPoly({-1: 1, 0: -1})
    with mpmath.workdps(30):
        # 40 factors reach e^-(40 l) < 1e-53 for every length l >= 3
        log_z = _mp_log_euler(s, spectrum5.entries, 40)
        log_zeta = {t: -_mp_log_euler(t, spectrum5.entries, 1)
                    for t in (s, s + 1)}
        refs = (mpmath.exp(log_z), mpmath.exp(log_zeta[s]),
                mpmath.exp(log_zeta[s + 1] - log_zeta[s]))
    values = (selberg_Z(s, spectrum5), euler_zeta(s, spectrum5),
              zeta_motive_numeric(motive, s, spectrum5))
    for sv, ref in zip(values, refs):
        err = float(abs(sv.value - ref))
        assert err <= sv.abs_err_estimate
        assert sv.abs_err_estimate < 1e-13 * abs(sv.value)


_ROW_LENGTHS = st.lists(st.floats(0.2, 25.0), max_size=5, unique=True).map(
    sorted).filter(lambda ls: all(b - a > 1e-6 for a, b in zip(ls, ls[1:])))


@settings(max_examples=40, deadline=None)
@given(lengths=_ROW_LENGTHS, mults=st.lists(st.integers(1, 4), min_size=5,
                                           max_size=5),
       s=st.floats(1.01, 8.0, exclude_min=True, exclude_max=True))
def test_euler_products_within_estimates(lengths, mults, s):
    """On spectra of up to 5 rows, lengths 0.2 to 25, Z, zeta and a
    motive zeta are each within their estimate of a 30-digit product."""
    entries = list(zip(lengths, mults))
    sp = _spectrum(entries)
    with mpmath.workdps(30):
        log_z = mpmath.fsum(_mp_log_Z_parts(s, entries))
        log_zeta = {t: -_mp_log_euler(t, entries, 1) for t in (s, s + 1)}
        refs = (mpmath.exp(log_z), mpmath.exp(log_zeta[s]),
                mpmath.exp(log_zeta[s + 1] - log_zeta[s]))
    values = (selberg_Z(s, sp), euler_zeta(s, sp),
              zeta_motive_numeric(LaurentPoly({-1: 1, 0: -1}), s, sp))
    for sv, ref in zip(values, refs):
        assert float(abs(sv.value - ref)) <= sv.abs_err_estimate


@pytest.mark.parametrize("s", [3.0, 4.5, 6.0, 8.0, 30.0])
def test_zeta_and_motive_vs_mpmath_L7(spectrum7, s):
    """zeta and the x^-1 - 1 motive on the 3262-row L = 7 spectrum, where
    the cut leaves rows out, are each within their estimate of a
    30-digit product over every row."""
    with mpmath.workdps(30):
        log_zeta = {t: -_mp_log_euler(t, spectrum7.entries, 1)
                    for t in (s, s + 1)}
        refs = (mpmath.exp(log_zeta[s]),
                mpmath.exp(log_zeta[s + 1] - log_zeta[s]))
    values = (euler_zeta(s, spectrum7),
              zeta_motive_numeric(_MOTIVE, s, spectrum7))
    for sv, ref in zip(values, refs):
        assert float(abs(sv.value - ref)) <= sv.abs_err_estimate


_CUT_ROWS = st.tuples(
    st.lists(st.tuples(st.floats(0.2, 25.0), st.integers(1, 4)), max_size=3),
    st.lists(st.tuples(st.floats(30.0, 60.0), st.integers(1, 10 ** 12)),
             max_size=3)).map(lambda parts: sorted(parts[0] + parts[1])).filter(
    lambda rows: all(b[0] - a[0] > 1e-6 for a, b in zip(rows, rows[1:])))


@settings(max_examples=40, deadline=None)
@given(entries=_CUT_ROWS,
       s=st.floats(1.01, 30.0, exclude_min=True))
def test_euler_products_within_estimates_past_the_cut(entries, s):
    """On spectra of up to 6 rows, whose rows past length 30 hold up to
    10^12 classes each, so that the cut moves and the rows past it weigh
    most, Z, zeta and a motive zeta are each within their estimate of a
    30-digit product over every row."""
    sp = _spectrum(entries)
    with mpmath.workdps(30):
        log_z = mpmath.fsum(_mp_log_Z_parts(s, entries))
        log_zeta = {t: -_mp_log_euler(t, entries, 1) for t in (s, s + 1)}
        refs = (mpmath.exp(log_z), mpmath.exp(log_zeta[s]),
                mpmath.exp(log_zeta[s + 1] - log_zeta[s]))
    values = (selberg_Z(s, sp), euler_zeta(s, sp),
              zeta_motive_numeric(_MOTIVE, s, sp))
    for sv, ref in zip(values, refs):
        assert float(abs(sv.value - ref)) <= sv.abs_err_estimate


@pytest.mark.parametrize("s", [3.3, 6.0, 30.0])
def test_rows_past_the_cut_are_in_the_estimates(spectrum7, s):
    """The rows past the cut of the L = 7 spectrum are not evaluated, and
    both estimates cover them: zeta's pass error exceeds the rounding
    bound of the rows kept by at least the exact sum of the rows cut,
    and Z's truncation bound exceeds that of the rows kept, alone, by at
    least the exact series of the rows cut."""
    geodesics._log_euler_zeta.cache_clear()
    _, err, q = geodesics._log_euler_zeta(s, spectrum7)
    n = q.size
    kept, cut = spectrum7.entries[:n], spectrum7.entries[n:]
    assert cut
    _, rounding = geodesics._log_factors(spectrum7.lengths[:n], s, q,
                                         spectrum7.mults[:n])
    _, trunc, _ = geodesics._log_Z_series(s, spectrum7, math.inf, q)
    _, kept_trunc, _ = geodesics._log_Z_series(s, _spectrum(kept), math.inf,
                                               q)
    with mpmath.workdps(30):
        zeta_tail, series_tail = (-part for part in _mp_log_Z_parts(s, cut))
        assert mpmath.mpf(err) - mpmath.mpf(rounding) >= zeta_tail > 0
        assert mpmath.mpf(trunc) - mpmath.mpf(kept_trunc) >= series_tail > 0


def test_pass_stops_at_the_cut(spectrum7, monkeypatch):
    """The zeta pass takes exp over fewer than 5 % of the L = 7 rows at
    s = 6, and over every row at s = 1.2."""
    calls = _count_calls(monkeypatch, "exp")
    rows = {}
    for s in (6.0, 1.2):
        geodesics._log_euler_zeta.cache_clear()
        calls.clear()
        euler_zeta(s, spectrum7)
        rows[s] = sum(np.size(args[0]) for args in calls)
    assert rows[6.0] < 0.05 * spectrum7.lengths.size
    assert rows[1.2] == spectrum7.lengths.size


def _mp_log_Z_parts(s, entries):
    """The n = 0 and the n >= 1 parts of log prod over the entries of
    prod_n (1 - e^-l(s+n))^m.  Each row's n runs while l n < 80, which
    leaves out less than e^-(80 - l) of the row's n = 1 factor."""
    sm = mpmath.mpf(s)
    parts = ([], [])
    for l, m in entries:
        n = 0
        while l * n < 80:
            parts[n > 0].append(
                m * mpmath.log1p(-mpmath.exp(-mpmath.mpf(l) * (sm + n))))
            n += 1
    return mpmath.fsum(parts[0]), mpmath.fsum(parts[1])


def _log_Z_series(s, sp):
    """The series of selberg_Z at s with no underflow limit, from the q
    that selberg_Z passes it."""
    return geodesics._log_Z_series(s, sp, math.inf,
                                   geodesics._log_euler_zeta(s, sp)[2])


@pytest.mark.parametrize("s", [1.0011, 1.2, 2.21, 3.0, 5.0, 8.0, 30.0])
def test_selberg_Z_vs_mpmath_L7(spectrum7, s):
    """Z on the 3262-row L = 7 spectrum, from next to the domain edge to
    where the n >= 1 series has one term, is within its estimate of a
    30-digit double product, an estimate below 1e-13 of Z.  The series of
    the n >= 1 factors alone is within its truncation and rounding
    bounds of their product."""
    with mpmath.workdps(30):
        log_n0, log_rest = _mp_log_Z_parts(s, spectrum7.entries)
        ref = mpmath.exp(log_n0 + log_rest)
    sv = selberg_Z(s, spectrum7)
    assert float(abs(sv.value - ref)) <= sv.abs_err_estimate < 1e-13 * sv.value
    series, trunc, rounding = _log_Z_series(s, spectrum7)
    assert float(abs(series + log_rest)) <= trunc + rounding


@pytest.mark.parametrize("ell", [1.0, BOLZA_LENGTH, 7.0])
@pytest.mark.parametrize("s", [1.01, 2.0, 5.0])
def test_selberg_Z_truncation_bound(ell, s):
    """A row keeps its k-th series term while (k-1)(s+1)l <= 60 ln 2; the
    truncation part of the estimate bounds the exact tail beyond those
    K terms, and by no more than 2x."""
    sp = _spectrum([(ell, 2)], horizon=ell)
    _, trunc, _ = _log_Z_series(s, sp)
    K = math.floor(60 * math.log(2) / ((s + 1) * ell)) + 1
    with mpmath.workdps(30):
        y, r = mpmath.exp(-ell * (s + 1)), mpmath.exp(-ell)
        tail = 2 * mpmath.nsum(lambda k: y ** k / (k * (1 - r ** k)),
                               [K + 1, mpmath.inf])
    assert tail <= trunc <= 2 * tail


@pytest.mark.parametrize("s", [1.01, 2.0, 5.0])
def test_selberg_Z_truncation_bound_several_rows(s):
    """Rows as short as 0.3, where 1 - r and 1 - y are far from 1, and
    rows dropped at one pass, whose tails share one bound: the exact
    tails of all the rows lie within the truncation part, and it within
    4x of them, the 1 / (1 - e^-0.3) that the bound of the shortest row
    takes for each 1 / (1 - r^k)."""
    rows = [(0.3, 2), (1.0, 4), (BOLZA_LENGTH, 6), (7.0, 2), (12.0, 8)]
    _, trunc, _ = _log_Z_series(s, _spectrum(rows))
    with mpmath.workdps(30):
        tail = 0
        for ell, m in rows:
            K = math.floor(60 * math.log(2) / ((s + 1) * ell)) + 1
            y, r = mpmath.exp(-ell * (s + 1)), mpmath.exp(-ell)
            tail += m * mpmath.nsum(lambda k: y ** k / (k * (1 - r ** k)),
                                    [K + 1, mpmath.inf])
    assert tail <= trunc <= 4 * tail


def test_telescoping_seeded_L7(spectrum7):
    rng = random.Random(7)
    for s in sorted(rng.uniform(1.01, 7.0) for _ in range(20)):
        lhs = euler_zeta(s, spectrum7).value
        rhs = selberg_Z(s + 1, spectrum7).value / selberg_Z(s, spectrum7).value
        assert abs(lhs - rhs) <= 1e-14 * lhs, s


def test_selberg_Z_in_unit_interval(spectrum5):
    v = selberg_Z(4.0, spectrum5).value
    assert 0 < v < 1


def test_euler_zeta_above_one(spectrum5):
    assert euler_zeta(2.0, spectrum5).value > 1


def test_domain_errors(spectrum5):
    with pytest.raises(DomainError):
        selberg_Z(1.0, spectrum5)
    with pytest.raises(DomainError):
        euler_zeta(0.9, spectrum5)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_selberg_Z_rejects_non_finite(spectrum5, s):
    with pytest.raises(DomainError, match=f"got s={s}"):
        selberg_Z(s, spectrum5)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_euler_zeta_rejects_non_finite(spectrum5, s):
    with pytest.raises(DomainError, match=f"got s={s}"):
        euler_zeta(s, spectrum5)
    with pytest.raises(DomainError, match=f"got s - k = {s}"):
        zeta_motive_numeric(LaurentPoly({-1: 1, 0: -1}), s, spectrum5)


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_zero_motive_rejects_non_finite(spectrum5, s):
    with pytest.raises(DomainError, match=f"got s={s}"):
        zeta_motive_numeric(LaurentPoly({}), s, spectrum5)
    assert zeta_motive_numeric(LaurentPoly({}), 3.0, spectrum5).value == 1.0


@pytest.mark.parametrize("ell", [1e-3, 1e-6])
def test_selberg_Z_underflow_raises_at_first_pass(ell):
    """A very short length makes Z underflow; the first series pass
    shows it, so the error comes without running the ~1/length passes
    the series would otherwise take."""
    sp = _spectrum([(ell, 2), (3.0, 2)])
    with pytest.raises(DomainError, match=re.escape(
            "selberg_Z(2.0) lies below 2.2250738585072014e-308 (seen at "
            "series pass 1), outside the normal float range")):
        selberg_Z(2.0, sp)


@pytest.mark.parametrize("s", [1.5, 2.0, 3.0])
def test_telescoping(spectrum5, s):
    lhs = euler_zeta(s, spectrum5).value
    rhs = selberg_Z(s + 1, spectrum5).value / selberg_Z(s, spectrum5).value
    assert abs(lhs - rhs) / lhs < 1e-13


def test_zeta_motive_numeric(spectrum5):
    f = LaurentPoly({1: 1, 0: -1})
    v = zeta_motive_numeric(f, 4.0, spectrum5).value
    expected = euler_zeta(3.0, spectrum5).value / euler_zeta(4.0, spectrum5).value
    assert v == pytest.approx(expected, rel=1e-13)


def test_zeta_motive_trivial(spectrum5):
    v = zeta_motive_numeric(LaurentPoly({0: 1}), 2.0, spectrum5).value
    assert v == pytest.approx(euler_zeta(2.0, spectrum5).value, rel=1e-14)


def test_zeta_motive_domain_error_names_k(spectrum5):
    f = LaurentPoly({1: 1, 0: -1})
    with pytest.raises(DomainError) as err:
        zeta_motive_numeric(f, 1.5, spectrum5)
    assert "k=1" in str(err.value)


# -- the kept zeta passes ------------------------------------------------

_MOTIVE = LaurentPoly({-1: 1, 0: -1})   # x^-1 - 1: factors at s + 1 and s


# Z(s), Z(s + 1), zeta(s) and the x^-1 - 1 motive, in that order
_ROUND = (lambda s, sp: selberg_Z(s, sp),
          lambda s, sp: selberg_Z(s + 1, sp),
          lambda s, sp: euler_zeta(s, sp),
          lambda s, sp: zeta_motive_numeric(_MOTIVE, s, sp))


def _euler_round(s, sp):
    """(value, estimate) of each product of _ROUND, as float.hex pairs."""
    return [(v.value.hex(), v.abs_err_estimate.hex())
            for v in (fn(s, sp) for fn in _ROUND)]


def _count_calls(monkeypatch, name):
    """A list that grows by one per call of np.<name>; np.log1p runs
    once per zeta pass, np.exp once per pass or refusal."""
    calls, fn = [], getattr(np, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(np, name, counted)
    return calls


def test_kept_pass_equals_a_fresh_one(spectrum7):
    """Values and estimates read through kept passes equal those of
    fresh passes bit for bit, whichever of the two is computed first."""
    for s in (1.7, 2.0, 3.25):
        geodesics._log_euler_zeta.cache_clear()
        kept = [_euler_round(s, spectrum7) for _ in range(2)]
        fresh = []
        for fn in _ROUND:
            geodesics._log_euler_zeta.cache_clear()
            v = fn(s, spectrum7)
            fresh.append((v.value.hex(), v.abs_err_estimate.hex()))
        assert kept == [fresh, fresh], s


def test_one_pass_per_point_of_a_round(spectrum5, monkeypatch):
    """Z(s), Z(s + 1), zeta(s) and the motive's factors at s + 1 and s
    ask for 5 passes at 2 points: 2 are computed."""
    geodesics._log_euler_zeta.cache_clear()
    calls = _count_calls(monkeypatch, "log1p")
    _euler_round(2.5, spectrum5)
    assert len(calls) == 2


def test_a_fifth_point_evicts_the_first(spectrum5, monkeypatch):
    geodesics._log_euler_zeta.cache_clear()
    points = [2.0, 2.5, 3.0, 3.5, 4.0]
    for s in points:
        euler_zeta(s, spectrum5)
    calls = _count_calls(monkeypatch, "log1p")
    for s in reversed(points[1:]):
        euler_zeta(s, spectrum5)
    assert calls == []
    euler_zeta(points[0], spectrum5)
    assert len(calls) == 1


def test_kept_q_is_read_only(spectrum5):
    geodesics._log_euler_zeta.cache_clear()
    selberg_Z(2.0, spectrum5)
    _, _, q = geodesics._log_euler_zeta(2.0, spectrum5)
    with pytest.raises(ValueError, match="read-only"):
        q[0] = 0.5
    assert 0.0 < q[0] < 1.0


def test_refused_pass_is_not_kept(monkeypatch):
    """A length so short that exp(-length s) rounds to 1 is refused on
    every call, each time by a fresh pass."""
    geodesics._log_euler_zeta.cache_clear()
    sp = _spectrum([(1e-17, 2), (3.0, 2)])
    calls = _count_calls(monkeypatch, "exp")
    messages = []
    for _ in range(2):
        with pytest.raises(DomainError, match="rounds to 1") as err:
            euler_zeta(2.0, sp)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and len(calls) == 2


def test_two_spectra_at_one_point_keep_two_passes(spectrum5, monkeypatch):
    """Spectra are told apart by identity, even with equal rows."""
    twin = _spectrum(spectrum5.entries, spectrum5.horizon)
    other = _spectrum([(2.0, 2), (3.0, 4)])
    geodesics._log_euler_zeta.cache_clear()
    calls = _count_calls(monkeypatch, "log1p")
    values = [euler_zeta(2.0, sp).value for sp in (spectrum5, twin, other)]
    assert len(calls) == 3
    assert values[0] == values[1] != values[2]
    assert values[2] == pytest.approx(1.0 / ((1 - math.exp(-4.0)) ** 2
                                             * (1 - math.exp(-6.0)) ** 4),
                                      rel=1e-15)


# -- counting ------------------------------------------------------------

def test_count_below_systole(spectrum5):
    assert geodesic_count(math.exp(spectrum5.entries[0][0]) - 1, spectrum5) == 0


def test_count_at_systole(spectrum5):
    x = math.exp(spectrum5.entries[0][0])
    assert geodesic_count(x, spectrum5) == spectrum5.entries[0][1]


def test_count_at_each_length(spectrum5):
    """x = exp(length) exactly: a row counts when length <= log x."""
    for ell, _ in spectrum5.entries[:8]:
        x = math.exp(ell)
        brute = sum(m for l, m in spectrum5.entries if l <= math.log(x))
        assert geodesic_count(x, spectrum5) == brute


def test_count_empty_spectrum():
    sp = _spectrum([])
    assert geodesic_count(1.0, sp) == 0
    assert geodesic_count(1e30, sp) == 0
    assert sp.total_classes() == 0


def test_count_bounded_by_total(spectrum5):
    assert geodesic_count(1e30, spectrum5) == spectrum5.total_classes()


def test_count_brute_force_agreement(spectrum5):
    for x in (25.0, 100.0, 1000.0):
        brute = sum(m for l, m in spectrum5.entries if math.exp(l) <= x)
        assert geodesic_count(x, spectrum5) == brute


def test_count_domain(spectrum5):
    for x in (0.5, math.nan):
        with pytest.raises(DomainError):
            geodesic_count(x, spectrum5)


def test_pgt_table(spectrum5):
    xs = [25.0, 60.0, 100.0]
    rows = pgt_table(spectrum5, xs)
    assert len(rows) == 3
    for x, count, approx, ratio in rows:
        assert count == geodesic_count(x, spectrum5)
        assert approx == pytest.approx(x / math.log(x))
        assert ratio == pytest.approx(count * math.log(x) / x)
    counts = [r[1] for r in rows]
    assert counts == sorted(counts)


def test_pgt_empty():
    sp = _tiny_spectrum()
    assert pgt_table(sp, []) == []


def test_pgt_warns_beyond_horizon():
    sp = _tiny_spectrum()
    with pytest.warns(UserWarning):
        pgt_table(sp, [math.exp(sp.horizon) * 10])


def test_pgt_warns_once_for_many_points_beyond_horizon():
    """2,000 points past the horizon make one warning, naming the first."""
    sp = _tiny_spectrum()
    first = math.exp(sp.horizon) * 1.5
    xs = [10.0] + [first * (1 + i) for i in range(2000)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = pgt_table(sp, xs)
    assert len(rows) == 2001
    assert [str(w.message) for w in caught] == [
        f"2000 of 2001 points lie beyond the completeness horizon "
        f"exp(3.057100), the first at x={first}; their counts are lower bounds"]


def test_pgt_rejects_small_x(spectrum5):
    for x in (2.0, math.inf, math.nan):
        with pytest.raises(DomainError, match=re.escape(
                f"pgt_table requires e < x < inf, got x={x}")):
            pgt_table(spectrum5, [x])


_PACKAGE_NAMES = ["BOLZA_LENGTH", "LengthSpectrum", "bolza_group",
                  "enumerate_spectrum", "euler_zeta", "geodesic_count",
                  "load_spectrum", "pgt_table", "save_spectrum", "selberg_Z",
                  "zeta_motive_numeric"]


@pytest.mark.parametrize("name", _PACKAGE_NAMES)
def test_package_names_are_the_geodesics_objects(name):
    """The package's spectrum names, resolved on first read, are the
    geodesics objects under both spellings."""
    namespace = {}
    exec(f"from selbergfe import {name}", namespace)
    assert getattr(selbergfe, name) is getattr(geodesics, name)
    assert namespace[name] is getattr(geodesics, name)


def test_unknown_package_name_raises():
    with pytest.raises(AttributeError, match="'selbergfe'"):
        selbergfe.no_such_name
