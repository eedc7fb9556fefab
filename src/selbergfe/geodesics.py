"""Length spectra of hyperbolic surfaces and the Euler products over them.

The one built-in surface is the genus-2 regular-octagon (Bolza)
surface: its group is generated by four hyperbolic translations of
equal length whose axes pass through the disk origin at angles k*pi/4.
Primitive conjugacy classes are enumerated as cyclically reduced words
up to a word-length horizon; classes are cyclic-rotation classes of
words merged by trace clustering.  That classification is word-level
(relator-induced duplicate words of complementary lengths inside the
horizon are counted per word class) and the spectrum file discloses it.
The letters are also held exactly, over Z[sqrt2][u] in int64, with an
exact product, normal forms modulo +-I and exact trace and orbit keys:
the ground for an orbit enumeration, which nothing runs yet.

The breadth-first search carries each word as two int64 codes, 4 bits
per letter with the first letter highest: the word and its inverse
word.  Extending a word, testing its cyclic reduction and rotating it
are shifts and masks on those codes, so words of up to 15 letters fit.
Each frontier is built one block per last letter, so it is in
ascending order of its reversed words; a class is represented by its
first word in that order, found with no sort as the member whose
reversed word has the least code among the rotations of the word and
of its inverse.  That test needs the word alone, so each frontier is
classified in fixed-size chunks, and the last one is never held whole:
it is built and classified one letter block, an 8th of it, at a time.
Memory is the real limit: each word has 7 extensions among the 8
letters of Bolza (4 generators and their inverses), so each frontier is
7 times the one before it, and an enumeration is refused before it
starts when its estimated peak exceeds the physical memory of the
machine.

Geodesics gamma and gamma^-1 are counted as distinct throughout, the
convention under which the sine factor in the functional equation has
degree 4-4g.

A LengthSpectrum is frozen, and its rows are read-only arrays: lengths,
multiplicities and cumulative multiplicities.  The Euler products and
the counts are array arithmetic over them.  Z is summed as log Z(s) =
-log zeta(s) minus a power series in y = q r, q = exp(-length s) and
r = exp(-length), with one exp pass per s: log zeta's q is reused, and
r and the weights of each power, m r / (1 - r) for the first and
m / expm1(-k length) for the k-th, which do not depend on s, are derived
once per spectrum, on the first Euler product that reaches them.  That
pass stops at a cut, found by one searchsorted: the rows past
l_0 + (ln(C / m_0) + 60 ln 2) / s, with C classes in all and l_0 and
m_0 the first row's length and multiplicity, add less than 2^-60 of
the first row's term to log zeta, and are bounded together, from the
first of them, in zeta's estimate and in Z's, with no pass over them.
The zeta pass itself (exp, log1p, sum and error bound) is kept for the
last 4 (spectrum, s) pairs, so Z(s), Z(s + 1), zeta(s) and the motive
factors at those points share it; a kept pass is returned as it was
computed, so every value and estimate is bit-identical to a fresh one.
Each later power is one product with its weights over a shrinking
prefix of the rows, and the rows it drops have their tails bounded by
one dot product.  Each Euler product's error estimate bounds the
floating-point rounding of its terms, sums and final exp, plus the rows
past the cut and, for Z, the truncation of that series; the spectrum
itself is finite, which its completeness horizon discloses.

A spectrum file is text: '# key=value' header lines (genus and horizon
required, source optional), anywhere in the file, and one '<length>
<multiplicity>' row per other non-blank line, an ASCII decimal float
and an ASCII decimal int64, in strictly increasing length.
load_spectrum reads the lines one at a time, in one pass, and names the
first bad one.  A file is parsed once per process: load_spectrum keeps
the spectrum of the last file it accepted, keyed by the file's bytes,
and returns it, with its cached Euler weights, for as long as the file
it reads holds those same bytes.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .laurent import LaurentPoly
from .special import (_EPS, _FLOAT_MIN, DomainError, SpecialValue,
                      SurfaceParams, _exp, _normal)

_TRACE_TOL = 1e-9
_LENGTH_MERGE_TOL = 1e-9
_MAX_WORD_LEN = 15  # word codes use 4 bits per letter in a 64-bit int
# Peak memory of an enumeration per word of its last length: 20.1
# bytes measured at L = 7 and 19.5 at L = 8 (122 MiB of ru_maxrss above
# the interpreter's own for 8*7^7 words, numpy 2.4, CPython 3.11),
# rounded up.  The last frontier is never held whole (see _words).  The
# length-(L - 1) frontier is 48 bytes a word of its own (one 2x2 float64
# matrix and two int64 codes), a 7th of the words: 6.9 bytes; one letter
# block of the last length, an 8th of the words at 48 bytes, is 6; that
# block's gathered matrices, an 8th at 32 bytes, are 4; the extension's
# masks and the classification's chunks make up the rest.
_PEAK_BYTES_PER_WORD = 24
# Words classified at a time: the classification's temporaries are a
# chunk in size, whatever the word length.
_CLASSIFY_CHUNK = 1 << 16

BOLZA_LENGTH = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class LengthSpectrum:
    """Length spectrum: (length, multiplicity) rows in increasing length.

    The rows are owned, read-only, C-contiguous float64 copies of the
    caller's arrays: `lengths` and `mults` (given as integers), one
    element per row, and `cum_mults`, one element more: cum_mults[i] is
    the number of classes in the first i rows, exact below 2**53.
    `entries`, the rows as (float, int) pairs, and `euler_weights`, two
    more read-only arrays for selberg_Z, are built on first read, and
    `power_weights(k)`, one read-only array per later power of its
    series, on first use; all live as long as the spectrum.
    `horizon`, the length up to which the rows are complete, is finite
    and >= 0, and may lie past the last length: a spectrum complete to
    a length need not have a row there.
    """
    lengths: np.ndarray
    mults: np.ndarray
    genus: int
    source: str
    horizon: float
    cum_mults: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        SurfaceParams(self.genus)  # the one genus rule: an integer >= 2
        lengths = np.array(self.lengths, dtype=np.float64)
        n = lengths.size
        if lengths.shape != (n,) or np.shape(self.mults) != (n,):
            raise ValueError("lengths and mults must be 1-D and of one size")
        mults = _integer_mults(self.mults, lengths)
        bad = np.flatnonzero(~np.isfinite(lengths))
        if bad.size:
            raise ValueError(
                f"lengths must be finite, got {float(lengths[bad[0]])}")
        # the first offending row names the error, its multiplicity first
        low = np.flatnonzero(mults < 1)
        close = np.flatnonzero(~(np.diff(lengths) > _LENGTH_MERGE_TOL)) + 1
        if low.size and not (close.size and close[0] < low[0]):
            raise ValueError("multiplicity must be >= 1 at length "
                             f"{float(lengths[low[0]])}")
        if close.size:
            i = close[0]
            raise ValueError(
                f"lengths must increase by more than {_LENGTH_MERGE_TOL}: "
                f"{float(lengths[i - 1])} then {float(lengths[i])}")
        if n and not lengths[0] > 0:
            raise ValueError(
                f"lengths must be positive, got {float(lengths[0])}")
        if not 0.0 <= self.horizon < math.inf:
            raise ValueError("completeness horizon must be finite and >= 0, "
                             f"got {self.horizon}")
        mults = mults.astype(np.float64)
        cum = np.concatenate(([0.0], np.cumsum(mults)))
        if cum[-1] > 2.0 ** 53:
            raise ValueError("more than 2**53 classes: counts would be inexact")
        for name, arr in (("lengths", lengths), ("mults", mults),
                          ("cum_mults", cum)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @functools.cached_property
    def entries(self) -> Tuple[Tuple[float, int], ...]:
        return tuple(zip(self.lengths.tolist(), map(int, self.mults.tolist())))

    @functools.cached_property
    def euler_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """(r, w), read-only, one element per row: r = exp(-length) and
        w = mult r / (1 - r) = mult / (exp(length) - 1), the parts of
        selberg_Z's series that do not depend on s.  Built on first use."""
        r = np.exp(-self.lengths)
        w = self.mults * r
        w /= -np.expm1(-self.lengths)
        r.flags.writeable = w.flags.writeable = False
        return r, w

    @functools.cached_property
    def _power_tables(self) -> dict:
        return {}

    def power_weights(self, k: int) -> np.ndarray:
        """mult / expm1(-k length), read-only, the part of power k >= 2 of
        selberg_Z's series that does not depend on s: one element per row
        that the power reaches at some s the domain admits, the rows with
        (k - 1)(s + 1) length <= _SERIES_DEPTH at the least such s, found
        as _log_Z_series finds them.  Built on first use, once per k."""
        table = self._power_tables.get(k)
        if table is None:
            x = math.nextafter(_EULER_S_EDGE, math.inf) + 1.0
            n = int(self.lengths.searchsorted(_SERIES_DEPTH / ((k - 1) * x),
                                              "right"))
            table = self.mults[:n] / np.expm1(self.lengths[:n] * -k)
            table.flags.writeable = False
            self._power_tables[k] = table
        return table

    def total_classes(self) -> int:
        return int(self.cum_mults[-1])


def _integer_mults(mults, lengths: np.ndarray) -> np.ndarray:
    """mults as an integer array, of the size of lengths; ValueError naming
    the length of the first row whose multiplicity is not an integer within
    int64, bools refused.  An array is checked by its dtype, and its first
    row named; a sequence item by item, since np.asarray reads [2, True]
    as integers."""
    array = isinstance(mults, np.ndarray)
    if array:
        first = None if mults.dtype.kind in "iu" else 0
    else:
        first = next((i for i, m in enumerate(mults)
                      if isinstance(m, (bool, np.bool_))
                      or not isinstance(m, (int, np.integer))
                      or not -2 ** 63 <= m < 2 ** 63), None)
    if first is not None:
        raise ValueError("multiplicity must be an integer (not a bool) within "
                         f"int64 at length {float(lengths[first])}")
    return mults if array else np.array(mults, dtype=np.int64)


def bolza_group() -> np.ndarray:
    """The 8 letters of the regular-octagon genus-2 (Bolza) surface group.

    A read-only C-contiguous float64 array of shape (8, 2, 2): letter 2k
    is side-pairing generator k (k = 0..3) and letter 2k + 1 its inverse.
    Generator k translates by 2*arccosh(1+sqrt(2)) along a geodesic
    through the origin at tangent angle k*pi/4; it is R T R^-1, with T
    the translation along the imaginary axis and R = R(k*pi/8), since a
    rotation matrix R(phi) turns the tangent space at the base point by
    2*phi.  The products are formed in scalar float arithmetic.
    """
    half = math.acosh(1.0 + math.sqrt(2.0))
    trans = (math.exp(half), 0.0, 0.0, math.exp(-half))

    def mul(x, y):
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    rows = []
    for k in range(4):
        c, s = math.cos(k * math.pi / 8), math.sin(k * math.pi / 8)
        a, b, cc, d = mul(mul((c, s, -s, c), trans), (c, -s, s, c))
        rows += [((a, b), (cc, d)), ((d, -b), (-cc, a))]
    letters = np.array(rows)
    letters.flags.writeable = False
    return letters


# -- the exact group -----------------------------------------------------
#
# Every entry of a Bolza group element lies in Z[sqrt2][u], u = sqrt(1 +
# sqrt2), u^2 = 1 + sqrt2: it is p + q u with p and q in Z[sqrt2], held as
# the four integers (p0, p1, q0, q1) of p0 + p1 sqrt2 + (q0 + q1 sqrt2) u
# on a last axis, so an element is an int64 array of shape (2, 2, 4).

def bolza_group_exact() -> np.ndarray:
    """The letters of bolza_group(), exactly: a read-only int64 array of
    shape (8, 2, 2, 4).

    With alpha = 1 + sqrt2, the cosh of half the translation length, and
    sqrt2 u its sinh, turned by R(k pi/8) as in bolza_group, letter 2k is
    [[alpha + c_k u, -s_k u], [-s_k u, alpha - c_k u]], with (c_k) =
    (sqrt2, 1, 0, -1) and (s_k) = (0, 1, sqrt2, 1); its determinant is
    alpha^2 - (c_k^2 + s_k^2) u^2 = 1.  Letter 2k + 1, its inverse, swaps
    the diagonal and negates the off-diagonal.
    """
    c = ((0, 1), (1, 0), (0, 0), (-1, 0))     # c_k = c0 + c1 sqrt2
    s = ((0, 0), (1, 0), (0, 1), (1, 0))
    letters = np.zeros((8, 2, 2, 4), dtype=np.int64)
    for k in range(4):
        for letter, sign in ((2 * k, 1), (2 * k + 1, -1)):
            m = letters[letter]
            m[0, 0] = (1, 1, sign * c[k][0], sign * c[k][1])
            m[1, 1] = (1, 1, -sign * c[k][0], -sign * c[k][1])
            m[0, 1, 2:] = m[1, 0, 2:] = (-sign * s[k][0], -sign * s[k][1])
    letters.flags.writeable = False
    return letters


def _fits(terms: int, x: np.ndarray, y: np.ndarray) -> None:
    """OverflowError unless terms * max|x| * max|y| < 2^63, the bound on
    every int64 a product formed from x and y takes (see _z2u_mul)."""
    big = int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0))
    if terms * big >= 2 ** 63:
        raise OverflowError("an exact product could overflow int64: "
                            f"max|x| max|y| = {big}")


def _z2u_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise product in Z[sqrt2][u], on the last axis of 4:
    (p + q u)(r + t u) = p r + q t (1 + sqrt2) + (p t + q r) u.  With X
    and Y the largest |coordinate| of x and y, a Z[sqrt2] product is at
    most (3, 2) X Y in its two coordinates, times 1 + sqrt2 at most
    (7, 5) X Y, so every coordinate and partial sum is at most 10 X Y."""
    p0, p1, q0, q1 = np.moveaxis(x, -1, 0)
    r0, r1, t0, t1 = np.moveaxis(y, -1, 0)
    qt0, qt1 = q0 * t0 + 2 * q1 * t1, q0 * t1 + q1 * t0
    return np.stack([p0 * r0 + 2 * p1 * r1 + qt0 + 2 * qt1,
                     p0 * r1 + p1 * r0 + qt0 + qt1,
                     p0 * t0 + 2 * p1 * t1 + q0 * r0 + 2 * q1 * r1,
                     p0 * t1 + p1 * t0 + q0 * r1 + q1 * r0], axis=-1)


def exact_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix product x y of exact elements, shape (..., 2, 2, 4),
    broadcast over the leading axes, in int64 with no rounding.
    OverflowError, before anything is multiplied, unless every
    coordinate stays within 20 X Y < 2^63 (two terms of _z2u_mul's)."""
    _fits(20, x, y)
    return (_z2u_mul(x[..., :, :1, :], y[..., :1, :, :])
            + _z2u_mul(x[..., :, 1:, :], y[..., 1:, :, :]))


def exact_normalize(x: np.ndarray) -> np.ndarray:
    """Exact elements modulo +-I: each times the sign of its first nonzero
    coordinate in C order, so that g and -g give one array."""
    flat = x.reshape(x.shape[:-3] + (16,))
    first = np.take_along_axis(flat, np.argmax(flat != 0, axis=-1)[..., None],
                               axis=-1)
    return x * np.sign(first)[..., None, None]


def _z2_sign(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The sign of x + y sqrt2, exactly: that of x where x^2 > 2 y^2, else
    that of y.  OverflowError where a square could overflow int64."""
    if max(int(np.abs(x).max(initial=0)), int(np.abs(y).max(initial=0))) >= 2 ** 31:
        raise OverflowError("a Z[sqrt2] sign test would overflow int64")
    return np.where(x * x > 2 * y * y, np.sign(x), np.sign(y))


def exact_trace_key(x: np.ndarray) -> np.ndarray:
    """(m, n) with |trace| = m + n sqrt2, for each exact element: int64 of
    shape (..., 2).  Traces in the group have zero u-part (ValueError
    otherwise), and the sign is dropped, as -g has the trace -tr g."""
    tr = x[..., 0, 0, :] + x[..., 1, 1, :]
    if np.any(tr[..., 2:]):
        raise ValueError("a trace has a nonzero u-part: not a group element")
    sign = _z2_sign(tr[..., 0], tr[..., 1])
    return tr[..., :2] * sign[..., None]


def exact_orbit_key(x: np.ndarray) -> np.ndarray:
    """The orbit point g i of each exact element g = [[a, b], [c, d]], as
    4 integers: int64 of shape (..., 4).

    X2 = ac + bd and 2 X1 = a^2 + b^2 - c^2 - d^2, the point's
    hyperboloid coordinates, are pure u-multiples q u with q in Z[sqrt2]
    (ValueError otherwise); the key is (q0, q1) of X2, then of 2 X1.  It
    is unchanged by g -> -g, and as the group is torsion-free it tells
    the elements apart modulo +-I.  OverflowError unless every coordinate
    stays within 40 X^2 < 2^63 (four terms of _z2u_mul's).
    """
    _fits(40, x, x)
    a, b, c, d = (x[..., i, j, :] for i in (0, 1) for j in (0, 1))
    x2 = _z2u_mul(a, c) + _z2u_mul(b, d)
    x1 = _z2u_mul(a, a) + _z2u_mul(b, b) - _z2u_mul(c, c) - _z2u_mul(d, d)
    if np.any(x2[..., :2]) or np.any(x1[..., :2]):
        raise ValueError("an orbit coordinate is not a pure u-multiple: "
                         "not a group element")
    return np.concatenate([x2[..., 2:], x1[..., 2:]], axis=-1)


def _block_sizes(letters: np.ndarray, codes: np.ndarray) -> List[int]:
    """Sizes of the blocks that extend the words codes by each letter in
    turn: letter l extends the words that do not end in l ^ 1."""
    ends = np.bincount((codes & 15) ^ 1, minlength=letters.shape[0])
    return (codes.size - ends).tolist()


def _extend(letters: np.ndarray, n: int, letter: int, codes: np.ndarray,
            inv: np.ndarray, mats: np.ndarray, out) -> None:
    """Write the block of letter into out = (codes, inv, mats).

    The block holds the length-(n - 1) words codes, inv, mats (as
    _frontiers gives them) that do not end in letter ^ 1, in their
    order, each extended by letter to length n; out is sized to it (see
    _block_sizes).
    """
    mask = (codes & 15) != (letter ^ 1)
    out_codes, out_inv, out_mats = out
    np.compress(mask, codes, out=out_codes)
    out_codes <<= 4
    out_codes |= letter
    np.compress(mask, inv, out=out_inv)
    out_inv |= (letter ^ 1) << 4 * (n - 1)
    # np.compress gathers the same rows as mats[mask], 3x faster
    np.matmul(np.compress(mask, mats, axis=0), letters[letter],
              out=out_mats)


def _frontiers(letters: np.ndarray, max_len: int
               ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first search: (n, codes, inv, mats) for n = 1..max_len.

    One item holds every freely reduced word of length n over letters,
    an array such as bolza_group() returns.  codes packs a word
    w_1..w_n as sum w_i 16^(n-i), first letter highest; inv packs its
    inverse word (w_n ^ 1)..(w_1 ^ 1) the same way; mats holds the
    product of its letter matrices.  Words of length n are the words of
    length n - 1 extended by each letter in turn, one block per letter
    (see _extend), so the frontier is in ascending order of its
    reversed words w_n..w_1, whose codes are inv ^ 0x11..1.  Each block
    is written straight into the preallocated arrays of the next
    frontier.  Every frontier is whole; _words streams the last one.
    """
    codes = np.arange(letters.shape[0], dtype=np.int64)
    inv = codes ^ 1
    mats = letters.copy()
    yield 1, codes, inv, mats
    for n in range(2, max_len + 1):
        ends = np.cumsum(_block_sizes(letters, codes)).tolist()
        new = (np.empty(ends[-1], dtype=np.int64),
               np.empty(ends[-1], dtype=np.int64), np.empty((ends[-1], 2, 2)))
        for letter, (begin, end) in enumerate(zip([0] + ends, ends)):
            _extend(letters, n, letter, codes, inv, mats,
                    [a[begin:end] for a in new])
        codes, inv, mats = new
        yield n, codes, inv, mats


def _words(letters: np.ndarray, max_len: int
           ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Every freely reduced word of length 1..max_len, once, as
    (n, codes, inv, mats) items in frontier order.

    The items for n < max_len are the whole frontiers of _frontiers;
    those of length max_len >= 2 come one letter block at a time (see
    _extend), each written over the last in one buffer, so the last
    frontier, 7 times the size of the one before it, is never held
    whole.  An item is valid until the next one is drawn.
    """
    for item in _frontiers(letters, max(max_len - 1, 1)):
        yield item
    if max_len == 1:
        return
    _, codes, inv, mats = item
    sizes = _block_sizes(letters, codes)
    buffer = (np.empty(max(sizes), dtype=np.int64),
              np.empty(max(sizes), dtype=np.int64),
              np.empty((max(sizes), 2, 2)))
    for letter, size in enumerate(sizes):
        block = [a[:size] for a in buffer]
        _extend(letters, max_len, letter, codes, inv, mats, block)
        yield (max_len, *block)


def _cyclically_reduced(codes: np.ndarray, n: int) -> np.ndarray:
    """Mask of the length-n words whose last letter does not cancel the first."""
    return (codes >> 4 * (n - 1)) != ((codes & 15) ^ 1)


def _class_firsts(codes: np.ndarray, inv: np.ndarray, n: int) -> np.ndarray:
    """Mask of the length-n words that come first in their class.

    A class is a word's rotations and those of its inverse word.  In
    frontier order (see _frontiers) the first member is the one whose
    reversed word has the least code.  The reversed words of the class
    are the rotations of inv ^ ones (the word's own reversal) and of
    codes ^ ones (its inverse word's), ones = 0x11..1, where rotating
    left by r letters is rot_r(c) = ((c << 4r) & (16^n - 1)) |
    (c >> 4(n - r)).  A proper power, which a rotation by a proper
    divisor of n leaves unchanged, is never marked.  codes and inv are
    overwritten.
    """
    full = (1 << 4 * n) - 1
    ones = full // 15
    codes ^= ones
    inv ^= ones
    least = np.minimum(codes, inv)
    periodic = np.zeros(codes.shape, dtype=bool)
    rot, wrap = np.empty_like(codes), np.empty_like(codes)
    for r in range(1, n):
        for c in (codes, inv):
            np.left_shift(c, 4 * r, out=rot)
            rot &= full
            rot |= np.right_shift(c, 4 * (n - r), out=wrap)
            np.minimum(least, rot, out=least)
            if c is codes and n % r == 0:
                periodic |= rot == codes
    return (inv == least) & ~periodic


def _classify_frontier(n: int, codes: np.ndarray, inv: np.ndarray,
                       mats: np.ndarray) -> np.ndarray:
    """Per-class |trace| for the primitive word classes at length n.

    Takes one item of _words, keeps the cyclically reduced words,
    drops identity words (relators) and proper powers, aborts on any
    elliptic non-identity word, and returns one |trace| per class of
    words up to rotation and inversion: that of the class's first word
    in frontier order, the classes in that order too.  A class and its
    inverse class are merged, so both orientations carry bit-identical
    traces (a word and its inverse can otherwise differ by float noise
    and split across a cluster boundary); each merged class stands for
    exactly 2 oriented geodesics, since no element of a surface group
    is conjugate to its own inverse.  Whether a word comes first is
    decided from the word alone, so an item may be a letter block of a
    frontier, and it is classified in chunks of _CLASSIFY_CHUNK words,
    so that no temporary outgrows a chunk.
    """
    found = []
    for start in range(0, codes.size, _CLASSIFY_CHUNK):
        part = slice(start, start + _CLASSIFY_CHUNK)
        m = mats[part]
        abs_tr = np.abs(m[:, 0, 0] + m[:, 1, 1])
        keep = _cyclically_reduced(codes[part], n)
        low = keep & (abs_tr <= 2.0 + _TRACE_TOL)
        if np.any(low):
            bad_mats = m[low]
            signs = np.sign(bad_mats[:, 0, 0])[:, None, None]
            dev = np.max(np.abs(bad_mats - signs * np.eye(2)), axis=(1, 2))
            if np.any(dev > 1e-6):
                i = int(np.argmax(dev))
                raise RuntimeError(
                    "non-identity word with |trace| <= 2 encountered "
                    f"(|trace|={abs_tr[low][i]}, deviation from identity "
                    f"{dev[i]}): the group is not cocompact torsion-free "
                    "or the matrices have drifted")
            keep &= ~low
        first = _class_firsts(codes[part][keep], inv[part][keep], n)
        found.append(abs_tr[keep][first])
    return np.concatenate(found)


def _merge_rows(sorted_lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Spectrum rows (lengths, multiplicities) of ascending class lengths.

    A length joins the current row when it exceeds the row's first
    length by at most _LENGTH_MERGE_TOL, and starts a new row
    otherwise; each length adds 2 to its row, one merged class being 2
    oriented geodesics.  A gap above the tolerance to the previous
    length starts a row, since rounded subtraction is monotone and the
    row's first length is no larger.  Then, until no length is left
    out, each length is checked against the first length of its row so
    far, and the first one of each row that lies too far from it starts
    a row: the lengths before it are that row's for good.
    """
    ell = sorted_lengths
    index = np.arange(ell.size)
    starts = np.ones(ell.size, dtype=bool)
    starts[1:] = ell[1:] - ell[:-1] > _LENGTH_MERGE_TOL
    while True:
        anchor = np.maximum.accumulate(np.where(starts, index, 0))
        late = np.flatnonzero(ell - ell[anchor] > _LENGTH_MERGE_TOL)
        if not late.size:
            break
        row = anchor[late]
        starts[late[np.r_[True, row[1:] != row[:-1]]]] = True
    firsts = np.flatnonzero(starts)
    return ell[firsts], 2 * np.diff(np.append(firsts, ell.size))


def enumerate_spectrum(letters: np.ndarray,
                       max_word_len: int) -> LengthSpectrum:
    """Breadth-first word enumeration up to max_word_len, classified.

    letters is the array bolza_group() returns.  The frontiers of
    length below max_word_len are classified whole, and the last one
    one letter block at a time, as _words gives them: it is never held
    whole.  The result is deterministic: the same bound gives the same
    spectrum on every run.  Raises ValueError, before anything is
    allocated, when the estimated peak memory (_PEAK_BYTES_PER_WORD per
    word of length max_word_len) exceeds the machine's physical memory.
    """
    if max_word_len < 1:
        raise ValueError(f"max_word_len must be >= 1, got {max_word_len}")
    if max_word_len > _MAX_WORD_LEN:
        raise ValueError(f"max_word_len is capped at {_MAX_WORD_LEN}")
    n_letters = letters.shape[0]
    words = n_letters * (n_letters - 1) ** (max_word_len - 1)
    need = words * _PEAK_BYTES_PER_WORD
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"max_word_len={max_word_len} would need about "
            f"{need / 2**30:,.1f} GiB at its peak ({words} words of length "
            f"{max_word_len}), more than the {have / 2**30:,.1f} GiB of "
            "physical memory")

    found = [(n, 2.0 * np.arccosh(_classify_frontier(n, *words) / 2.0))
             for n, *words in _words(letters, max_word_len)]

    last = np.concatenate([ell for n, ell in found if n == max_word_len])
    horizon = float(np.min(last)) if last.size else 0.0
    lengths, mults = _merge_rows(
        np.sort(np.concatenate([ell for _, ell in found])))
    source = (f"bolza-octagon word-enumeration L={max_word_len}; "
              "conjugacy=cyclic-words+trace-clustering (word-level)")
    return LengthSpectrum(lengths, mults, genus=2, source=source,
                          horizon=horizon)


# -- persistence ---------------------------------------------------------

class SpectrumFormatError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


# C0 and C1 control characters: a line break in the source header would
# end it early, and the rest would read back as rows or headers
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def save_spectrum(sp: LengthSpectrum, path: str) -> None:
    """Write the ASCII spectrum file atomically (temp file + rename).

    A source with a control character is refused with ValueError before
    anything is written.  An OSError names path, not the temp file
    beside it.
    """
    if _CONTROL.search(sp.source):
        raise ValueError(f"spectrum source {sp.source!r} has a control "
                         "character; it is written as one header line")
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".spectrum-")
        with os.fdopen(fd, "w") as fh:
            fh.write(f"# genus={sp.genus}\n")
            fh.write(f"# source={sp.source}\n")
            fh.write(f"# horizon={sp.horizon:.16e}\n")
            fh.write("# convention=gamma-and-inverse-distinct\n")
            fh.writelines(map("{:.16e} {}\n".format, sp.lengths.tolist(),
                              sp.mults.astype(np.int64).tolist()))
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


# The bytes of the last file load_spectrum accepted and the spectrum built
# from them, as one (bytes, LengthSpectrum) pair assigned in one step; None
# until a file is accepted.
_LOADED: Optional[Tuple[bytes, LengthSpectrum]] = None


def load_spectrum(path: str) -> LengthSpectrum:
    """Read a file that save_spectrum wrote, or one of the same grammar.

    Lines are split at "\n", "\r\n" or "\r"; blank lines are skipped.
    A line whose first non-blank character is '#' is a header, wherever
    it lies: '# genus=<int>' and '# horizon=<float>' are required, '#
    source=<text>' is optional, the last of each wins, and any other
    header is ignored.  Every other line is one row, '<length>
    <multiplicity>' separated by whitespace: an ASCII decimal float
    (inf and nan spelled out parse, and LengthSpectrum refuses them) and
    an ASCII decimal integer within int64, neither with underscores.
    Lengths must strictly increase.

    The lines are read one at a time, in one pass, and the first bad
    line raises its SpectrumFormatError.  Every other refusal, an
    undecodable file, a missing header or a spectrum that LengthSpectrum
    refuses, is a SpectrumFormatError of line 0.

    A file is parsed once per process: every call reads the file's
    bytes, and when they equal those of the last file accepted, returns
    the spectrum built then, which is frozen and read-only.  Other bytes
    are decoded as open(path) would decode them, in the locale's
    encoding with universal newlines, and parsed.  The result depends on
    the bytes alone; path only names the file in errors, and no refusal
    is kept.
    """
    global _LOADED
    with open(path, "rb") as fh:
        raw = fh.read()
    loaded = _LOADED
    if loaded is None or loaded[0] != raw:
        try:
            text = io.TextIOWrapper(io.BytesIO(raw)).read()
        except UnicodeDecodeError as exc:
            raise SpectrumFormatError(path, 0, str(exc)) from None
        loaded = _LOADED = (raw, _parse_spectrum(path, text))
    return loaded[1]


def _parse_spectrum(path: str, text: str) -> LengthSpectrum:
    """The spectrum of one file's text, as load_spectrum describes it."""
    headers: dict = {}
    lengths: List[float] = []
    mults: List[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        try:
            if line.startswith("#"):
                _read_header(line[1:], headers)
            elif line:
                ell, mult = _read_row(line)
                # a nan length fails every comparison, so it passes this
                # check before or after another row; LengthSpectrum names it
                if lengths and ell <= lengths[-1]:
                    raise ValueError("lengths must be strictly increasing")
                lengths.append(ell)
                mults.append(mult)
        except ValueError as exc:
            raise SpectrumFormatError(path, lineno, str(exc)) from None
    if "genus" not in headers:
        raise SpectrumFormatError(path, 0, "missing '# genus=' header")
    if "horizon" not in headers:
        raise SpectrumFormatError(path, 0, "missing '# horizon=' header")
    try:
        return LengthSpectrum(np.array(lengths),
                              np.array(mults, dtype=np.int64),
                              genus=headers["genus"],
                              source=headers.get("source", ""),
                              horizon=headers["horizon"])
    except ValueError as exc:
        raise SpectrumFormatError(path, 0, str(exc)) from None


def _read_header(body: str, headers: dict) -> None:
    """Store one header, the text after its '#', in headers by key;
    ValueError, naming the key, for a bad genus or horizon."""
    key, sep, value = body.strip().partition("=")
    if not sep:
        return
    key = key.strip()
    try:
        if key == "genus":
            headers["genus"] = int(value)
        elif key == "source":
            headers["source"] = value.strip()
        elif key == "horizon":
            headers["horizon"] = float(value)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _read_row(line: str) -> Tuple[float, int]:
    """The length and multiplicity of one stripped data line; ValueError
    where load_spectrum refuses the line."""
    parts = line.split()
    if len(parts) != 2:
        raise ValueError("expected '<length> <multiplicity>'")
    ell, mult = float(parts[0]), int(parts[1])
    # float and int also read underscores, non-ASCII digits and integers
    # beyond int64, which a spectrum file does not hold
    if ("_" in line or not (parts[0].isascii() and parts[1].isascii())
            or not -2 ** 63 <= mult < 2 ** 63):
        raise ValueError("expected an ASCII decimal length and an int64 "
                         "multiplicity, without underscores")
    return ell, mult


# -- Euler products ------------------------------------------------------

# A row of the series in selberg_Z keeps its k-th term while that term's
# y^k is still above 2^-60 of y, i.e. while (k - 1)(s + 1) length <= this:
# the tail beyond it is then far below the rounding of the row's first term.
_SERIES_DEPTH = 60.0 * math.log(2.0)
# The Euler products need s above this (check_euler_s).
_EULER_S_EDGE = 1.0 + 1e-3


def _exp_above(x: float) -> float:
    """An upper bound on exp(-X), where the float x >= 0 is X after at most
    three roundings (a length times s or s + 1): shrinking x by 2 eps of
    itself undoes them, the factor 1 + 2 eps covers the rounding of exp
    and of that product, and the least subnormal, 2^-1074, a result
    below the normal range, where exp is within that much.  An x that
    overflowed to inf gives 2^-1074, and no warning."""
    return math.exp(-x * (1.0 - 2.0 * _EPS)) * (1.0 + 2.0 * _EPS) + 5e-324


def _log_factors(ell: np.ndarray, p: float, q: np.ndarray,
                 mult: np.ndarray) -> Tuple[float, float]:
    """log prod (1 - q)^-mult for q = exp(-ell p), and a bound on its rounding.

    Every term -mult log1p(-q) is >= 0, so the sum is the sum of the
    |terms|.  A term is off by at most eps (x + 5) of itself, x = ell p:
    rounding p and the product moves the exponent by eps x and so q by
    that much relatively, and exp, log1p and the product by mult add an
    ulp or so each.  numpy's pairwise sum rounds each term, by eps / 2
    at most, at most 19 + bit_length(n // 128) times: blocks of at most
    128 terms are summed by 8 accumulators of 16 terms each, then
    pairwise.
    """
    t = mult * np.log1p(-q)
    log_inv = -float(t.sum())
    roundings = 5.0 + _sum_roundings(t.size)
    return log_inv, _EPS * (roundings * log_inv - p * float(t.dot(ell)))


def _sum_roundings(n: int) -> float:
    """Rounding of numpy's pairwise sum of n terms >= 0, in eps of the sum."""
    return 0.5 * (19 + (n // 128).bit_length())


def _log_Z_series(s: float, sp: LengthSpectrum, limit: float,
                  q: np.ndarray) -> Tuple[float, float, float]:
    """sum_i m_i sum_{k>=1} y_i^k / (k (1 - r_i^k)), with two error bounds.

    y = q r, q = exp(-length s) and r = exp(-length).  selberg_Z passes
    the q that log zeta was summed from, which covers the rows up to the
    cut of _log_euler_zeta, a prefix of them.  Returns the series, a
    bound on its truncation and a bound on its rounding.  Pass 1 is one
    product w q, w = m r / (1 - r) of sp.euler_weights.  Pass k >= 2
    sums m y^k / expm1(-k length), with -1/k applied to the sum, over
    the rows with (k - 1)(s + 1) length <= _SERIES_DEPTH, a prefix of
    the sorted lengths found by one searchsorted; it lies within the cut,
    which is past _SERIES_DEPTH / s, and within sp.power_weights(k),
    which covers the prefix at every s the domain admits (RuntimeError
    otherwise, never a shorter pass).  Its terms are y^k, one product by
    y on from the last pass's, times that table.  A row dropped after K
    terms leaves at most m y^(K+1) / ((K+1)(1 - r)(1 - y)), since 1 -
    r^k >= 1 - r and 1/k <= 1/(K+1).  The rows dropped together are
    bounded by one dot, sum m y^(K+1), over the r and y of the first of
    them: they are the largest there, as the lengths increase.  The rows past the cut,
    n on, are dropped after K = 0 terms, and bounded with no pass over
    them: (C - C_n) y_n / ((1 - r_n)(1 - y_n)), C - C_n classes from
    cum_mults, with y_n from above by _exp_above and the bound taken
    1 + 8 eps times, past the six roundings of its evaluation.

    Rounding, as in _log_factors, with x = length (s + 1): q is off by
    eps (length s + 1) of itself, r and 1 - r = -expm1(-length) by eps
    each and w, after a product and a division, by 3 eps, so the pass 1
    term w q is off by eps (x + 4.5).  y = q r is off by eps (x + 2.5),
    and y^k, made by k - 1 more products, by eps k (x + 3).  The table
    entry m / expm1(-k length), divided once when it is built, is off by
    eps (3/2 + 1/2): the rounding of k length and of expm1, whose
    condition number is at most 1, then the division.  The one product
    per pass adds eps / 2, so every term is off by at most eps (k (x +
    3) + 3) of itself.  Every term is positive, so each pass's pairwise
    sum adds eps / 2 of the pass total per rounding, counted as in
    _log_factors; -1/k and the product by it add eps of it, and the fsum
    over passes eps / 2 of the whole.

    Raises DomainError once the passes so far sum to more than limit,
    which selberg_Z sets where Z would underflow: every term is
    positive, so the series only grows from there.
    """
    ell, mult = sp.lengths, sp.mults
    r, w = sp.euler_weights
    x = s + 1.0
    n = q.size
    y = q * r[:n]
    term, scale, yk, k = w[:n] * q, 1.0, y, 1
    series, partial, trunc, round_k = [], 0.0, 0.0, 0.0
    if n < ell.size:
        first = ell.item(n)
        y_n = _exp_above(first * x)
        trunc = ((sp.cum_mults.item(-1) - sp.cum_mults.item(n)) * y_n
                 / (-math.expm1(-first) * (1.0 - y_n)) * (1.0 + 8.0 * _EPS))
    while n:
        head = ell[:n]
        if k > 1:
            # m y^k / (r^k - 1): the k-th terms times -k
            weights = sp.power_weights(k)
            if weights.size < n:
                raise RuntimeError(f"power_weights({k}) holds {weights.size} "
                                   f"rows, and pass {k} at s = {s} needs {n}")
            term = weights[:n] * yk
            scale = -1.0 / k
        part = scale * float(term.sum())
        series.append(part)
        partial += part
        if partial > limit:
            raise DomainError(
                f"selberg_Z({s}) lies below {_FLOAT_MIN!r} (seen at series "
                f"pass {k}), outside the normal float range; it cannot be "
                "evaluated as a float")
        round_k += (k * scale * x * float(term.dot(head))
                    + (3.0 * k + 4.0 + _sum_roundings(n)) * part)
        # the method: np.searchsorted's dispatch costs more than the
        # search itself on these arrays
        keep = int(ell.searchsorted(_SERIES_DEPTH / (k * x), "right"))
        yk = yk * y[:n]
        if keep < n:
            first = float(ell[keep])
            trunc += float(mult[keep:n].dot(yk[keep:])) / (
                (k + 1) * math.expm1(-first) * math.expm1(-first * x))
            yk = yk[:keep]
        n, k = keep, k + 1
    total = math.fsum(series)
    return total, trunc, _EPS * (round_k + 0.5 * total)


def check_euler_s(s: float, name: str,
                  f: Optional[LaurentPoly] = None) -> None:
    """The domain of the Euler products, checked with no spectrum at hand:
    DomainError unless 1 + 1e-3 < s < inf, or, for the motive f, unless
    1 + 1e-3 < s - k < inf at every k of its support and s is finite.
    name is the evaluator that the error names.
    """
    # NaN and inf fail too: NaN would never end selberg_Z's series loop,
    # and inf makes the rounding bounds inf * 0
    if f is None:
        if not _EULER_S_EDGE < s < math.inf:
            raise DomainError(f"{name} requires 1 + 1e-3 < s < inf, got s={s}")
        return
    for k in f.support():
        if not _EULER_S_EDGE < s - k < math.inf:
            raise DomainError(
                f"motive factor k={k} needs 1 + 1e-3 < s - k < inf, "
                f"got s - k = {s - k}")
    # the zero motive has no factor to check s against
    if not math.isfinite(s):
        raise DomainError(f"{name} requires a finite s, got s={s}")


def selberg_Z(s: float, sp: LengthSpectrum) -> SpecialValue:
    """Double Euler product prod_P prod_n (1 - N(P)^-(s+n)), in log space.

    Summed as log Z(s) = -log zeta(s) - sum_i m_i sum_{k>=1} y_i^k /
    (k (1 - r_i^k)), y_i = q_i r_i, q_i = exp(-l_i s), r_i = exp(-l_i):
    the n = 0 factors are euler_zeta's, and expanding log(1 - q) and
    summing n >= 1 as a geometric series gives the rest.  q is formed
    once, for both sums; r and the weights of each power k, m r / (1 -
    r) for k = 1 and m / expm1(-k length) after it, do not depend on s
    and are formed once per spectrum, so each power costs one product
    with its weights.  Each row keeps its terms while the next is above
    2^-60 of its first (_log_Z_series), and only the rows up to the cut
    of _log_euler_zeta are evaluated.  The error estimate covers the error
    of log zeta, the truncation of the rows' series (geometric tails,
    bounded together for the rows dropped at one pass and for the rows
    past the cut) and their rounding, and the rounding of the final
    exp.  The spectrum itself is finite, disclosed via the completeness
    horizon.  Raises DomainError where Z is not a normal float, as soon
    as the series shows it.
    """
    check_euler_s(s, "selberg_Z")
    log_zeta, zeta_err, q = _log_euler_zeta(s, sp)
    series, trunc, round_err = _log_Z_series(
        s, sp, -log_zeta - math.log(_FLOAT_MIN), q)
    log_v = -log_zeta - series
    v = _normal(math.exp(log_v), f"selberg_Z({s})")
    return SpecialValue(v, v * (zeta_err + trunc + round_err
                                + _EPS * (abs(log_v) + 1.0)))


# The zeta pass at s and s + 1, which Z(s + 1) / Z(s) = zeta(s) telescopes
# between, and slack for a motive's factors at s - k.
_ZETA_PASSES = 4


@functools.lru_cache(maxsize=_ZETA_PASSES)
def _log_euler_zeta(s: float, sp: LengthSpectrum
                    ) -> Tuple[float, float, np.ndarray]:
    """log prod_P (1 - N(P)^-s)^-1, a bound on its error, and the q =
    N(P)^-s = exp(-length s) it was summed from, read-only, one per row
    up to the cut.

    The cut: only the rows with length <= l_0 + (ln(C / m_0) +
    _SERIES_DEPTH) / s are evaluated, a prefix found by one
    searchsorted, with C = cum_mults[-1] the number of classes and l_0,
    m_0 the first row's length and multiplicity.  q falls along the
    rows, so the rows from the cut index n on add at most (C - C_n)
    (-log1p(-q_n)) to the sum, q_n = exp(-l_n s) < 2^-60 (m_0 / C) q_0;
    -log1p(-q) / q rises with q, so that is below 2^-60 of the first
    term, -m_0 log1p(-q_0).  The bound, with q_n from above by
    _exp_above and taken 1 + 8 eps times, past the three roundings of
    its evaluation, is added to the rounding bound of _log_factors over
    the rows kept.

    The pass, exp, log1p, sum and error bound, is kept for the last
    _ZETA_PASSES (s, spectrum) pairs, the spectrum by identity: Z(s),
    zeta(s) and the motive factors at one s share it, and a repeat call
    returns the same tuple, so its values are those of a fresh pass bit
    for bit.  The store keeps those spectra and q arrays alive.

    Raises DomainError where a length is so short that N(P)^-s rounds
    to 1, which would make its factor infinite; a refusal is not kept.
    """
    ell, cum = sp.lengths, sp.cum_mults
    n, cut = ell.size, 0.0
    if n:
        cut = ell.item(0) + (math.log(cum.item(-1) / sp.mults.item(0))
                             + _SERIES_DEPTH) / s
        n = int(ell.searchsorted(cut, "right"))
    # no kept length exceeds the cut, so length s overflows to inf only
    # where cut s does, and only then is numpy told not to report it
    # (entering np.errstate costs about 1 us a pass): exp then gives 0,
    # the correct rounding of a value below the least subnormal
    with (np.errstate(over="ignore") if cut * s == math.inf
          else contextlib.nullcontext()):
        q = np.exp(ell[:n] * -s)
    # the lengths increase, so the first q is the largest
    if n and q[0] == 1.0:
        raise DomainError(
            f"exp(-{ell.item(0)!r} s) rounds to 1 at s = {s}: the "
            "Euler factor of that length cannot be evaluated as a float")
    log_inv, err = _log_factors(ell[:n], s, q, sp.mults[:n])
    if n < ell.size:
        q_n = _exp_above(ell.item(n) * s)
        err += ((cum.item(-1) - cum.item(n)) * -math.log1p(-q_n)
                * (1.0 + 8.0 * _EPS))
    q.flags.writeable = False
    return log_inv, err, q


def euler_zeta(s: float, sp: LengthSpectrum) -> SpecialValue:
    """Simple Euler product prod_P (1 - N(P)^-s)^-1, in log space.

    The error estimate bounds the rounding of the terms, their sum and
    the final exp, and the rows past the cut of _log_euler_zeta, which
    are not evaluated: together they add less than 2^-60 of the first
    row's term to log zeta.
    """
    check_euler_s(s, "euler_zeta")
    log_v, err, _ = _log_euler_zeta(s, sp)
    v = _exp(log_v, f"euler_zeta({s})")
    return SpecialValue(v, v * (err + _EPS))


def zeta_motive_numeric(f: LaurentPoly, s: float,
                        sp: LengthSpectrum) -> SpecialValue:
    """prod_k euler_zeta(s - k)^a(k) inside the common convergence region.

    Summed in log space; the error estimate is sum |a(k)| times each
    factor's log error, plus the rounding of the sum and the final exp.
    """
    check_euler_s(s, "zeta_motive_numeric", f)
    log_v = 0.0
    err = 0.0
    scale = 0.0
    for k, a in f.coeffs.items():
        log_part, part_err, _ = _log_euler_zeta(s - k, sp)
        log_v += a * log_part
        err += abs(a) * part_err
        scale += abs(a * log_part)
    v = _exp(log_v, f"zeta_motive_numeric({s})")
    return SpecialValue(v, v * (err + _EPS * (len(f.coeffs) * scale + 1.0)))


# -- counting ------------------------------------------------------------

def geodesic_count(x: float, sp: LengthSpectrum) -> int:
    """Number of primitive classes with norm exp(length) <= x."""
    if not x >= 1.0:
        raise DomainError(f"geodesic_count requires x >= 1, got x={x}")
    return int(sp.cum_mults[sp.lengths.searchsorted(math.log(x), "right")])


def pgt_table(sp: LengthSpectrum,
              xs: Sequence[float]) -> List[Tuple[float, int, float, float]]:
    """Rows (x, count, x/log x, count*log x / x) for the counting function.

    One warning names the first x beyond the completeness horizon and how
    many points lie there: their counts are lower bounds.
    """
    rows = []
    beyond = []
    for x in xs:
        if not math.e < x < math.inf:
            raise DomainError(f"pgt_table requires e < x < inf, got x={x}")
        if math.log(x) > sp.horizon:
            beyond.append(x)
        count = geodesic_count(x, sp)
        approx = x / math.log(x)
        rows.append((x, count, approx, count * math.log(x) / x))
    if beyond:
        warnings.warn(
            f"{len(beyond)} of {len(rows)} points lie beyond the completeness "
            f"horizon exp({sp.horizon:.6f}), the first at x={beyond[0]}; "
            "their counts are lower bounds", stacklevel=2)
    return rows
