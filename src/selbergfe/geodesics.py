"""Length spectra of hyperbolic surfaces and the Euler products over them.

The one built-in surface is the genus-2 regular-octagon (Bolza)
surface: its group is generated by four hyperbolic translations of
equal length whose axes pass through the disk origin at angles k*pi/4.
Primitive conjugacy classes are enumerated as cyclically reduced words
up to a word-length horizon; classes are cyclic-rotation classes of
words merged by trace clustering.  That classification is word-level
(relator-induced duplicate words of complementary lengths inside the
horizon are counted per word class) and the spectrum file discloses it.

The breadth-first search carries each word as two int64 codes, 4 bits
per letter with the first letter highest: the word and its inverse
word.  Extending a word, testing its cyclic reduction and rotating it
are shifts and masks on those codes, so words of up to 15 letters fit.
Each frontier is built one block per last letter, so it is in
ascending order of its reversed words; a class is represented by its
first word in that order, found with no sort as the member whose
reversed word has the least code among the rotations of the word and
of its inverse.  That test needs the word alone, so each frontier is
classified in fixed-size chunks.  Memory is the real limit: each word
has 7 extensions among the 8 letters of Bolza (4 generators and their
inverses), so the frontier grows sevenfold per letter, and an
enumeration is refused before it starts when its estimated peak
exceeds the physical memory of the machine.

Geodesics gamma and gamma^-1 are counted as distinct throughout, the
convention under which the sine factor in the functional equation has
degree 4-4g.

A LengthSpectrum is frozen and carries one read-only array view of its
rows (lengths, multiplicities, cumulative multiplicities), built when it
is made.  The Euler products and the counts are array arithmetic over
that view.  Z is summed as log Z(s) = -log zeta(s) minus a power series
in y = exp(-length (s+1)), one short pass per power over a shrinking
prefix of the rows.  Each Euler product's error estimate bounds the
floating-point rounding of its terms, sums and final exp, plus, for Z,
the truncation of that series; the spectrum itself is finite, which its
completeness horizon discloses.
"""
from __future__ import annotations

import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .laurent import LaurentPoly
from .special import (_FLOAT_MIN, DomainError, SpecialValue, SurfaceParams,
                      _exp, _normal)

_TRACE_TOL = 1e-9
_LENGTH_MERGE_TOL = 1e-9
_MAX_WORD_LEN = 15  # word codes use 4 bits per letter in a 64-bit int
# Peak memory of an enumeration per word of its last frontier: 62.7 to
# 63.6 bytes measured at L = 8 (413 to 419 MB of ru_maxrss above the
# interpreter's own for 8*7^7 words, numpy 2.4, CPython 3.11), rounded
# up.  The last frontier is 48 bytes a word (one 2x2 float64 matrix and
# two int64 codes), written in place; the frontier before it, a 7th of
# the size, and one letter's gathered matrices and renormalization
# temporaries, an 8th, make up the rest.
_PEAK_BYTES_PER_WORD = 64
# Words classified at a time: the classification's temporaries are a
# chunk in size, whatever the word length.
_CLASSIFY_CHUNK = 1 << 16

BOLZA_LENGTH = 2.0 * math.acosh(1.0 + math.sqrt(2.0))


@dataclass(frozen=True)
class LengthSpectrum:
    """Length spectrum: (length, multiplicity) rows in increasing length.

    Frozen, so the array view built once by __post_init__ cannot go
    stale.  The view is read-only float64: `lengths` and `mults`, one
    element per row, and `cum_mults`, one element more: cum_mults[i] is
    the number of classes in the first i rows, exact below 2**53.
    """
    entries: Tuple[Tuple[float, int], ...]
    genus: int
    source: str
    horizon: float
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    mults: np.ndarray = field(init=False, repr=False, compare=False)
    cum_mults: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        SurfaceParams(self.genus)  # the one genus rule: ValueError below 2
        entries = tuple(self.entries)
        n = len(entries)
        lengths = np.fromiter(map(itemgetter(0), entries), np.float64, n)
        try:
            mults = np.fromiter(map(itemgetter(1), entries), np.float64, n)
        except OverflowError:
            raise ValueError("a multiplicity exceeds the float range") from None
        # the first offending row names the error, its multiplicity first
        low = np.flatnonzero(mults < 1)
        close = np.flatnonzero(~(np.diff(lengths) > _LENGTH_MERGE_TOL)) + 1
        if low.size and not (close.size and close[0] < low[0]):
            raise ValueError("multiplicity must be >= 1 at length "
                             f"{entries[low[0]][0]}")
        if close.size:
            i = close[0]
            raise ValueError(
                f"lengths must increase by more than {_LENGTH_MERGE_TOL}: "
                f"{entries[i - 1][0]} then {entries[i][0]}")
        if n and not lengths[0] > 0:
            raise ValueError(f"lengths must be positive, got {entries[0][0]}")
        if not 0.0 <= self.horizon < math.inf:
            raise ValueError("completeness horizon must be finite and >= 0, "
                             f"got {self.horizon}")
        if n and self.horizon > lengths[-1] + 1e-12:
            raise ValueError("completeness horizon exceeds max recorded length")
        cum = np.concatenate(([0.0], np.cumsum(mults)))
        if cum[-1] > 2.0 ** 53:
            raise ValueError("more than 2**53 classes: counts would be inexact")
        for name, arr in (("lengths", lengths), ("mults", mults),
                          ("cum_mults", cum)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "entries", entries)

    def total_classes(self) -> int:
        return int(self.cum_mults[-1])


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


def _frontiers(letters: np.ndarray, max_len: int
               ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first search: (n, codes, inv, mats) for n = 1..max_len.

    One item holds every freely reduced word of length n over letters,
    an array such as bolza_group() returns.  codes packs a word
    w_1..w_n as sum w_i 16^(n-i), first letter highest; inv packs its
    inverse word (w_n ^ 1)..(w_1 ^ 1) the same way; mats holds the
    product of its letter matrices, renormalized to determinant 1 when
    it drifts.  Words of length n are the words of length n - 1
    extended by each letter in turn, one block per letter, so the
    frontier is in ascending order of its reversed words w_n..w_1,
    whose codes are inv ^ 0x11..1.  Each block is written straight
    into the preallocated arrays of the next frontier.
    """
    codes = np.arange(letters.shape[0], dtype=np.int64)
    inv = codes ^ 1
    mats = letters.copy()
    yield 1, codes, inv, mats
    for n in range(2, max_len + 1):
        last = codes & 15
        top = 4 * (n - 1)
        # the words that letter l extends are those not ending in l ^ 1
        sizes = codes.size - np.bincount(last ^ 1, minlength=letters.shape[0])
        ends = np.cumsum(sizes).tolist()
        new_codes = np.empty(ends[-1], dtype=np.int64)
        new_inv = np.empty_like(new_codes)
        new_mats = np.empty((ends[-1], 2, 2))
        begin = 0
        for letter, end in enumerate(ends):
            mask = last != (letter ^ 1)
            block_c, block_i = new_codes[begin:end], new_inv[begin:end]
            np.compress(mask, codes, out=block_c)
            block_c <<= 4
            block_c |= letter
            np.compress(mask, inv, out=block_i)
            block_i |= (letter ^ 1) << top
            # np.compress gathers the same rows as mats[mask], 3x faster
            block_m = np.matmul(np.compress(mask, mats, axis=0),
                                letters[letter], out=new_mats[begin:end])
            det = (block_m[:, 0, 0] * block_m[:, 1, 1]
                   - block_m[:, 0, 1] * block_m[:, 1, 0])
            # x / 1.0 == x exactly, so only the drifted matrices change;
            # one full division is 3x faster than a masked read-modify-write
            block_m /= np.where(np.abs(det - 1.0) > 1e-13, np.sqrt(det),
                                1.0)[:, None, None]
            begin = end
        codes, inv, mats = new_codes, new_inv, new_mats
        yield n, codes, inv, mats


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

    Takes one item of _frontiers, keeps the cyclically reduced words,
    drops identity words (relators) and proper powers, aborts on any
    elliptic non-identity word, and returns one |trace| per class of
    words up to rotation and inversion: that of the class's first word
    in frontier order, the classes in that order too.  A class and its
    inverse class are merged, so both orientations carry bit-identical
    traces (a word and its inverse can otherwise differ by float noise
    and split across a cluster boundary); each merged class stands for
    exactly 2 oriented geodesics, since no element of a surface group
    is conjugate to its own inverse.  Whether a word comes first is
    decided from the word alone, so the frontier is classified in
    chunks of _CLASSIFY_CHUNK words and no temporary outgrows a chunk.
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


def _merge_rows(sorted_lengths: np.ndarray) -> List[Tuple[float, int]]:
    """Spectrum rows (length, multiplicity) of ascending class lengths.

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
    mults = 2 * np.diff(np.append(firsts, ell.size))
    return list(zip(ell[firsts].tolist(), mults.tolist()))


def enumerate_spectrum(letters: np.ndarray,
                       max_word_len: int) -> LengthSpectrum:
    """Breadth-first word enumeration up to max_word_len, classified.

    letters is the array bolza_group() returns.  The result is
    deterministic: the same bound gives the same spectrum on every run.
    Raises ValueError, before anything is allocated, when the estimated
    peak memory (_PEAK_BYTES_PER_WORD per word of length max_word_len)
    exceeds the machine's physical memory.
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

    lengths_per_n = [2.0 * np.arccosh(_classify_frontier(*frontier) / 2.0)
                     for frontier in _frontiers(letters, max_word_len)]

    horizon = float(np.min(lengths_per_n[-1])) if lengths_per_n[-1].size else 0.0
    entries = _merge_rows(np.sort(np.concatenate(lengths_per_n)))
    source = (f"bolza-octagon word-enumeration L={max_word_len}; "
              "conjugacy=cyclic-words+trace-clustering (word-level)")
    return LengthSpectrum(entries=entries, genus=2, source=source,
                          horizon=horizon)


# -- persistence ---------------------------------------------------------

class SpectrumFormatError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def save_spectrum(sp: LengthSpectrum, path: str) -> None:
    """Write the ASCII spectrum file atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spectrum-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"# genus={sp.genus}\n")
            fh.write(f"# source={sp.source}\n")
            fh.write(f"# horizon={sp.horizon:.16e}\n")
            fh.write("# convention=gamma-and-inverse-distinct\n")
            for ell, mult in sp.entries:
                fh.write(f"{ell:.16e} {mult}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_spectrum(path: str) -> LengthSpectrum:
    genus = None
    source = ""
    horizon = None
    entries: List[Tuple[float, int]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    continue
                key, value = body.split("=", 1)
                key = key.strip()
                try:
                    if key == "genus":
                        genus = int(value)
                    elif key == "source":
                        source = value.strip()
                    elif key == "horizon":
                        horizon = float(value)
                except ValueError as exc:
                    raise SpectrumFormatError(path, lineno,
                                              f"{key}: {exc}") from None
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SpectrumFormatError(path, lineno,
                                          "expected '<length> <multiplicity>'")
            try:
                ell = float(parts[0])
                mult = int(parts[1])
            except ValueError as exc:
                raise SpectrumFormatError(path, lineno, str(exc)) from None
            if entries and ell <= entries[-1][0]:
                raise SpectrumFormatError(path, lineno,
                                          "lengths must be strictly increasing")
            entries.append((ell, mult))
    if genus is None:
        raise SpectrumFormatError(path, 0, "missing '# genus=' header")
    if horizon is None:
        raise SpectrumFormatError(path, 0, "missing '# horizon=' header")
    return LengthSpectrum(entries=entries, genus=genus, source=source,
                          horizon=horizon)


# -- Euler products ------------------------------------------------------

_EPS = sys.float_info.epsilon
# A row of the series in selberg_Z keeps its k-th term while that term's
# y^k is still above 2^-60 of y, i.e. while (k - 1)(s + 1) length <= this:
# the tail beyond it is then far below the rounding of the row's first term.
_SERIES_DEPTH = 60.0 * math.log(2.0)


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
    return log_inv, _EPS * (roundings * log_inv - p * float(np.dot(t, ell)))


def _sum_roundings(n: int) -> float:
    """Rounding of numpy's pairwise sum of n terms >= 0, in eps of the sum."""
    return 0.5 * (19 + (n // 128).bit_length())


def _log_Z_series(s: float, sp: LengthSpectrum, limit: float = math.inf
                  ) -> Tuple[float, float, float]:
    """sum_i m_i sum_{k>=1} y_i^k / (k (1 - r_i^k)), with two error bounds.

    y = exp(-length (s + 1)) and r = exp(-length).  Returns the series,
    a bound on its truncation and a bound on its rounding.  Pass k sums
    the k-th terms of the rows with (k - 1)(s + 1) length <= _SERIES_DEPTH,
    a prefix of the sorted lengths found by one searchsorted.  A row
    dropped after K terms leaves at most m y^(K+1) / ((K+1)(1 - r)(1 - y)),
    since 1 - r^k >= 1 - r and 1/k <= 1/(K+1).

    Rounding, as in _log_factors: with x = length (s + 1), y is off by
    eps x + eps/2 of itself and y^k, made by k - 1 products, by
    eps k (x + 1); 1 - r^k = -expm1(-k length) is well conditioned
    (its condition number is at most 1), so it and the divisions and
    products add an ulp or so each.  A term is therefore off by at most
    eps (k (x + 2) + 3) of itself.  Every term is positive, so each
    pass's pairwise sum adds eps / 2 of the pass total per rounding,
    counted as in _log_factors, and the fsum over passes eps / 2 of the
    whole.

    Raises DomainError once the passes so far sum to more than limit,
    which selberg_Z sets where Z would underflow: every term is
    positive, so the series only grows from there.
    """
    ell, mult = sp.lengths, sp.mults
    y = np.exp(ell * -(s + 1.0))
    one_minus_r = -np.expm1(-ell)
    yk, n, k = y, ell.size, 1
    series, partial, trunc, round_k = [], 0.0, 0.0, 0.0
    while n:
        gap = one_minus_r if k == 1 else -np.expm1(ell[:n] * -k)
        term = mult[:n] * yk / (k * gap)
        part = float(term.sum())
        series.append(part)
        partial += part
        if partial > limit:
            raise DomainError(
                f"selberg_Z({s}) lies below {_FLOAT_MIN!r} (seen at series "
                f"pass {k}), outside the normal float range; it cannot be "
                "evaluated as a float")
        round_k += k * ((s + 1.0) * float(np.dot(term, ell[:n])) + 2.0 * part
                        ) + (3.0 + _sum_roundings(n)) * part
        keep = int(np.searchsorted(ell, _SERIES_DEPTH / (k * (s + 1.0)),
                                   side="right"))
        yk = yk * y[:n]
        if keep < n:
            tail = yk[keep:] / (one_minus_r[keep:n] * (1.0 - y[keep:n]))
            trunc += float(np.dot(mult[keep:n], tail)) / (k + 1)
            yk = yk[:keep]
        n, k = keep, k + 1
    total = math.fsum(series)
    return total, trunc, _EPS * (round_k + 0.5 * total)


def selberg_Z(s: float, sp: LengthSpectrum) -> SpecialValue:
    """Double Euler product prod_P prod_n (1 - N(P)^-(s+n)), in log space.

    Summed as log Z(s) = -log zeta(s) - sum_i m_i sum_{k>=1} y_i^k /
    (k (1 - r_i^k)), y_i = exp(-l_i (s+1)), r_i = exp(-l_i): the n = 0
    factors are euler_zeta's, and expanding log(1 - q) and summing
    n >= 1 as a geometric series gives the rest.  Each row keeps its
    terms while the next is above 2^-60 of its first (_log_Z_series).
    The error estimate covers the rounding of log zeta, the truncation
    of each row's series (a geometric tail) and its rounding, and the
    rounding of the final exp.  The spectrum itself is finite, disclosed
    via the completeness horizon.  Raises DomainError where Z is not a
    normal float, as soon as the series shows it.
    """
    # NaN and inf fail too: NaN would never end the series loop, and inf
    # makes the rounding bound inf * 0
    if not 1.0 + 1e-3 < s < math.inf:
        raise DomainError(f"selberg_Z requires 1 + 1e-3 < s < inf, got s={s}")
    log_zeta, zeta_err = _log_euler_zeta(s, sp)
    series, trunc, round_err = _log_Z_series(
        s, sp, -log_zeta - math.log(_FLOAT_MIN))
    log_v = -log_zeta - series
    v = _normal(math.exp(log_v), f"selberg_Z({s})")
    return SpecialValue(v, v * (zeta_err + trunc + round_err
                                + _EPS * (abs(log_v) + 1.0)))


def _log_euler_zeta(s: float, sp: LengthSpectrum) -> Tuple[float, float]:
    """log prod_P (1 - N(P)^-s)^-1 and a bound on its rounding error.

    Raises DomainError where a length is so short that N(P)^-s rounds
    to 1, which would make its factor infinite.
    """
    q = np.exp(sp.lengths * -s)
    # the lengths increase, so the first q is the largest
    if q.size and q[0] == 1.0:
        raise DomainError(
            f"exp(-{sp.entries[0][0]!r} s) rounds to 1 at s = {s}: the "
            "Euler factor of that length cannot be evaluated as a float")
    return _log_factors(sp.lengths, s, q, sp.mults)


def euler_zeta(s: float, sp: LengthSpectrum) -> SpecialValue:
    """Simple Euler product prod_P (1 - N(P)^-s)^-1, in log space.

    The error estimate bounds the rounding of the terms, their sum and
    the final exp; the product over the finite spectrum is not truncated.
    """
    if not 1.0 + 1e-3 < s < math.inf:
        raise DomainError(f"euler_zeta requires 1 + 1e-3 < s < inf, got s={s}")
    log_v, err = _log_euler_zeta(s, sp)
    v = _exp(log_v, f"euler_zeta({s})")
    return SpecialValue(v, v * (err + _EPS))


def zeta_motive_numeric(f: LaurentPoly, s: float,
                        sp: LengthSpectrum) -> SpecialValue:
    """prod_k euler_zeta(s - k)^a(k) inside the common convergence region.

    Summed in log space; the error estimate is sum |a(k)| times each
    factor's log error, plus the rounding of the sum and the final exp.
    """
    for k in f.support():
        if not 1.0 + 1e-3 < s - k < math.inf:
            raise DomainError(
                f"motive factor k={k} needs 1 + 1e-3 < s - k < inf, "
                f"got s - k = {s - k}")
    # the zero motive has no factor to check s against
    if not math.isfinite(s):
        raise DomainError(f"zeta_motive_numeric requires a finite s, got s={s}")
    log_v = 0.0
    err = 0.0
    scale = 0.0
    for k, a in f.coeffs.items():
        log_part, part_err = _log_euler_zeta(s - k, sp)
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
    rows = np.searchsorted(sp.lengths, math.log(x), side="right")
    return int(sp.cum_mults[rows])


def pgt_table(sp: LengthSpectrum,
              xs: Sequence[float]) -> List[Tuple[float, int, float, float]]:
    """Rows (x, count, x/log x, count*log x / x) for the counting function."""
    rows = []
    for x in xs:
        if x <= math.e:
            raise DomainError(f"pgt_table requires x > e, got x={x}")
        if math.log(x) > sp.horizon:
            warnings.warn(
                f"x={x} lies beyond the completeness horizon "
                f"exp({sp.horizon:.6f}); the count is a lower bound",
                stacklevel=2)
        count = geodesic_count(x, sp)
        approx = x / math.log(x)
        rows.append((x, count, approx, count * math.log(x) / x))
    return rows
