"""The four workloads: seeded inputs, the ops that call the program, and
the check of each op's output.

Every op calls the program through its public modules, looked up at
call time, so the traced run sees the calls.  Inputs come from
random.Random(seed) only; references come from reference.py and are
computed before timing starts, or after the round for outputs that only
exist once an op has run (the spectrum files).
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import mpmath
from selbergfe import cli, formal, geodesics, laurent, special

import reference as ref
from harness import CheckFailed, Op


@dataclass
class Built:
    """One round of ops, a description of its inputs, and the underclaim
    record the special-function checks fill in."""
    ops: List[Op]
    info: dict
    underclaims: Optional["_Underclaims"] = None

D_WINDOW = range(-8, 9)   # the reflection points of the tier-1 sweeps


def _ok(out, name: str):
    """The op's output, or CheckFailed if the call raised."""
    if isinstance(out, BaseException):
        raise CheckFailed(f"{name}:{type(out).__name__}", str(out)[:200])
    return out


# -- fe_sweep ------------------------------------------------------------

def _mirrored(rng: random.Random, sign: int) -> Dict[int, int]:
    """Coefficients with a(D - k) = sign * a(k), support inside [-3, 3]."""
    lo = rng.randint(-3, 2)
    hi = rng.randint(lo + 1, 3)
    D = lo + hi
    c = {}
    for k in range(lo, D // 2 + 1):
        a = rng.choice((-2, -1, 1, 2)) if k == lo else rng.randint(-2, 2)
        if 2 * k == D and sign == -1:
            a = 0
        c[k] = a
        c[D - k] = sign * a
    return c


def _binomial(r: int, shift: int) -> Dict[int, int]:
    """x^shift (x - 1)^r."""
    return {k + shift: (-1) ** (r - k) * math.comb(r, k) for k in range(r + 1)}


def fe_sweep_inputs(seed: int) -> List[Tuple[str, str, Dict[int, int]]]:
    """(source, CLI text, coefficients) for one round of 162 polynomials."""
    rng = random.Random(seed)
    raw = []
    for _ in range(96):
        raw.append(("window", {k: rng.randint(-2, 2) for k in range(-3, 4)}))
    for sign, label in ((-1, "mirrored-odd"), (+1, "mirrored-even")):
        for _ in range(24):
            raw.append((label, _mirrored(rng, sign)))
    for r in range(1, 9):
        raw.append(("binomial", _binomial(r, 0)))
        raw.append(("binomial", _binomial(r, 1)))
    out = []
    for label, c in raw:
        items = list(c.items())
        rng.shuffle(items)
        out.append((label, ",".join(f"{k}={a}" for k, a in items),
                    {k: a for k, a in c.items() if a}))
    # two spellings of the zero polynomial: an explicit 0 and a cancellation
    out.append(("zero", "0=0", {}))
    out.append(("zero", "1=1,1=-1", {}))
    rng.shuffle(out)
    return out


def _fe_op(text: str, coeffs: Dict[int, int]) -> Op:
    kind, D0, C0 = ref.symmetry_kind(coeffs)
    conds = [(ref.reflection_holds(coeffs, D, -1), ref.reflection_holds(coeffs, D, +1))
             for D in D_WINDOW]
    f1 = sum(coeffs.values())

    def call():
        f = laurent.parse_poly(text)
        auto = laurent.detect_automorphy(f)
        v2 = [formal.verify_theorem2(f, D) for D in D_WINDOW]
        v3 = [formal.verify_theorem3(f, D) for D in D_WINDOW]
        vz = formal.verify_Z_fe(f) if auto.kind.value in ("odd", "even") else None
        return f, auto, v2, v3, vz

    def check(out):
        f, auto, v2, v3, vz = _ok(out, "fe_sweep")
        if f.coeffs != coeffs:
            raise CheckFailed("parse", text)
        if (auto.kind.value, auto.D, auto.C) != (kind, D0, C0):
            raise CheckFailed("kind", text)
        for D, a, b, (odd_ok, even_ok) in zip(D_WINDOW, v2, v3, conds):
            if a.holds != odd_ok:
                raise CheckFailed("theorem2-verdict", f"{text} D={D}")
            if b.holds != even_ok:
                raise CheckFailed("theorem3-verdict", f"{text} D={D}")
            if b.holds and b.rhs_canonical.sin_exp != 2 * f1:
                raise CheckFailed("even-sine-exponent", f"{text} D={D}")
        if kind in ("odd", "even") and not (vz is not None and vz.holds):
            raise CheckFailed("Z-verdict", text)

    return Op("fe_sweep", call, check)


def fe_sweep(seed: int, setup, workdir: str) -> Built:
    inputs = fe_sweep_inputs(seed)
    kinds: Dict[str, int] = {}
    for _, _, c in inputs:
        k = ref.symmetry_kind(c)[0]
        kinds[k] = kinds.get(k, 0) + 1
    return Built([_fe_op(text, c) for _, text, c in inputs],
                 {"ops_per_round": len(inputs), "kinds": kinds})


# -- special_grid --------------------------------------------------------

KERNEL_TOL = 1e-8      # |value - ref| / max(1, |ref|) for the Hurwitz family
SINE_TOL = 1e-10       # relative, for S_2 and the reflection product
FE_FACTOR_TOL = 1e-9   # s_M against the quadrature form
DEEP_LADDER_S = 1200 + 1 / 6   # |2 sin pi s| = 1 along the ladder: S_2 stays O(1)
# Ops per round by kind: the outermost `special` calls of the tier-1
# tests/test_special.py and tests/test_acceptance.py, as bench/mix.py
# counts them (450 calls).  s_M and selberg_fe_factor run as checked
# pairs, as many as tier-1 makes s_M calls (75; it makes 82 of the
# other); the 8 reflection ops take 16 of the 61 ladder calls.
GRID = {"hurwitz_zeta.real": 131, "hurwitz_zeta.complex": 4,
        "hurwitz_zeta_dw": 10, "multiple_hurwitz_zeta": 17, "log_gamma_r": 31,
        "sine_r.base": 39, "sine_r.ladder": 45, "sine_r.reflection": 8,
        "s_M.fe_factor": 75}


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            avoid=(), gap: float = 0.1) -> List[float]:
    """One uniform draw in each of n equal strata of [lo, hi].

    A draw within `gap` of a point in `avoid` (of an integer, if avoid
    is None) is pushed to 1.5 * gap from it, on its own side.
    """
    out = []
    for i in range(n):
        x = lo + (hi - lo) * (i + rng.random()) / n
        for p in ([round(x)] if avoid is None else avoid):
            if abs(x - p) <= gap:
                x = p + math.copysign(1.5 * gap, x - p)
        out.append(x)
    return out


class _Underclaims:
    """Evaluations whose abs_err_estimate is below the actual error."""

    def __init__(self):
        self.keys = set()
        self.evaluations = 0

    def compare(self, name: str, key, v, reference, tol: float, relative: bool):
        """Record whether v underclaims its error; raise if it misses tol
        (relative, or scaled by max(1, |reference|))."""
        err = abs(mpmath.mpmathify(v.value) - reference)
        if v.abs_err_estimate < err:
            self.keys.add(key)
        if err > tol * (abs(reference) if relative else max(1, abs(reference))):
            raise CheckFailed(f"{name}-vs-mpmath", f"{key}: {float(err):.3e}")


def _value_op(name: str, fn: str, args: tuple, reference, tol: float,
              under: _Underclaims, relative: bool = False) -> Op:
    under.evaluations += 1

    def call():
        return getattr(special, fn)(*args)

    def check(out):
        under.compare(name, (name, args), _ok(out, name), reference, tol, relative)

    return Op(name, call, check)


def special_grid(seed: int, setup, workdir: str) -> Built:
    rng = random.Random(seed)
    under = _Underclaims()
    ops: List[Op] = []
    for w in _strata(rng, GRID["hurwitz_zeta.real"], -2.0, 6.0, avoid=(1.0,)):
        s = rng.uniform(0.25, 5.0)
        ops.append(_value_op("hurwitz_zeta.real", "hurwitz_zeta", (w, s),
                             ref.hurwitz(w, s), KERNEL_TOL, under))
    for im in _strata(rng, GRID["hurwitz_zeta.complex"], -40.0, 40.0, avoid=()):
        w = complex(rng.uniform(-2.0, 4.0), im)
        s = rng.uniform(0.25, 4.0)
        ops.append(_value_op("hurwitz_zeta.complex", "hurwitz_zeta", (w, s),
                             ref.hurwitz(w, s), KERNEL_TOL, under))
    for w in _strata(rng, GRID["hurwitz_zeta_dw"], -2.0, 4.0, avoid=(1.0,)):
        s = rng.uniform(0.25, 5.0)
        ops.append(_value_op("hurwitz_zeta_dw", "hurwitz_zeta_dw", (w, s),
                             ref.hurwitz_dw(w, s), KERNEL_TOL, under))
    for i, w in enumerate(_strata(rng, GRID["multiple_hurwitz_zeta"], 0.2, 7.0,
                                  avoid=(1.0, 2.0, 3.0, 4.0))):
        r = 1 + i % 4
        s = rng.uniform(0.25, 4.0)
        ops.append(_value_op("multiple_hurwitz_zeta", "multiple_hurwitz_zeta",
                             (r, w, s), ref.multiple_hurwitz(r, w, s),
                             KERNEL_TOL, under))
    for i, s in enumerate(_strata(rng, GRID["log_gamma_r"], 0.25, 6.0, avoid=())):
        r = 1 + i % 4
        ops.append(_value_op("log_gamma_r", "log_gamma_r", (r, s),
                             ref.log_gamma_r(r, s), KERNEL_TOL, under))
    for s in _strata(rng, GRID["sine_r.base"], 0.5, 1.5, avoid=(0.5,), gap=1e-3):
        ops.append(_value_op("sine_r.base", "sine_r", (2, s), ref.sine2(s),
                             SINE_TOL, under, relative=True))
    for s in _strata(rng, GRID["sine_r.ladder"], -20.0, 30.0, avoid=None, gap=0.05):
        ops.append(_value_op("sine_r.ladder", "sine_r", (2, s), ref.sine2(s),
                             SINE_TOL, under, relative=True))
    for s in _strata(rng, GRID["sine_r.reflection"], -10.0, 10.0, avoid=None,
                     gap=0.05):
        ops.append(_reflection_op(s, under))
    for i, s in enumerate(_strata(rng, GRID["s_M.fe_factor"], 0.1, 0.9, avoid=())):
        ops.append(_fe_factor_op(s, 2 + i % 2))
    ops.append(_deep_ladder_op(under))
    rng.shuffle(ops)
    counts: Dict[str, int] = {}
    for op in ops:
        counts[op.name] = counts.get(op.name, 0) + 1
    return Built(ops, {"ops_per_round": len(ops), "ops": counts}, under)


def _reflection_op(s: float, under: _Underclaims) -> Op:
    """S_2(s) and S_2(2 - s): each against mpmath, and their product = 1."""
    refs = (ref.sine2(s), ref.sine2(2 - s))
    under.evaluations += 2

    def call():
        return special.sine_r(2, s), special.sine_r(2, 2 - s)

    def check(out):
        pair = _ok(out, "sine_r.reflection")
        for t, v, r in zip((s, 2 - s), pair, refs):
            under.compare("sine_r.reflection", ("sine_r.reflection", t), v, r,
                          SINE_TOL, relative=True)
        if abs(pair[0].value * pair[1].value - 1) > SINE_TOL:
            raise CheckFailed("s2-reflection", f"s={s}")

    return Op("sine_r.reflection", call, check)


def _fe_factor_op(s: float, genus: int) -> Op:
    """s_M beside the quadrature form of the same factor."""
    def call():
        params = special.SurfaceParams(genus)
        return special.s_M(s, params), special.selberg_fe_factor(s, params)

    def check(out):
        sm, fe = _ok(out, "s_M.fe_factor")
        if abs(sm.value / fe.value - 1) > FE_FACTOR_TOL:
            raise CheckFailed("sM-vs-fe-factor", f"s={s} genus={genus}")

    return Op("s_M.fe_factor", call, check)


def _deep_ladder_op(under: _Underclaims) -> Op:
    """S_2 far along the ladder, where the value is an ordinary float."""
    reference = ref.sine2(DEEP_LADDER_S)
    under.evaluations += 1

    def call():
        return special.sine_r(2, DEEP_LADDER_S)

    def check(out):
        if isinstance(out, RecursionError):
            raise CheckFailed("s2-ladder-recursion")
        under.compare("sine_r.deep_ladder", ("sine_r.deep_ladder", DEEP_LADDER_S),
                      _ok(out, "sine_r.deep_ladder"), reference, SINE_TOL,
                      relative=True)

    return Op("sine_r.deep_ladder", call, check)


# -- bolza_pipeline ------------------------------------------------------

# Fixed so that the cost of the cheap ops, which set op_p50_ms, does not
# depend on the seed: the motive (x^-1 - 1, two Euler factors) and the
# number of pgt points.
MOTIVE = ("-1=1,0=-1", {-1: 1, 0: -1})
PGT_POINTS = 5
SYSTOLE_MULTIPLICITY = 24   # 12 systoles (Jenni 1984), both orientations
TELESCOPE_TOL = 1e-13
EULER_TOL = 1e-12
_WROTE = re.compile(r"wrote (\d+) length entries \((\d+) classes\)")


def _run_cli(argv: List[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_text(out, name: str) -> str:
    """Standard output of a cli.main call that exited 0."""
    code, text = _ok(out, name)
    if code != 0:
        raise CheckFailed(f"{name}:exit-{code}", text[:200])
    return text


def _cli_fields(out, name: str) -> Dict[str, str]:
    fields = {}
    for line in _cli_text(out, name).splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


class _EulerRefs:
    """mpmath log zeta over a list of entries, cached per (entries, s)."""

    def __init__(self):
        self._cache = {}

    def log_zeta(self, s: float, entries) -> mpmath.mpf:
        key = (hash(tuple(entries)), len(entries), s)
        if key not in self._cache:
            self._cache[key] = ref.log_euler_zeta(s, entries)
        return self._cache[key]


def bolza_pipeline(seed: int, setup, workdir: str) -> Built:
    """Per word length L in {6, 7}, in seeded order: spectrum, Z(s),
    Z(s+1), zeta(s), a motive zeta, pgt, each one cli.main call."""
    rng = random.Random(seed)
    order = [6, 7]
    rng.shuffle(order)
    refs = _EulerRefs()
    seen: Dict[tuple, object] = {}   # parsed outputs of this round, by key
    ops: List[Op] = []
    for L in order:
        path = os.path.join(workdir, f"spectrum-L{L}.txt")
        s = rng.uniform(1.2, 6.0)
        s_motive = rng.uniform(1.2, 6.0)
        # past the horizon, which sits at the systole, so that the rows
        # beyond it have counts to check
        xmax = math.exp(rng.uniform(4.0, 9.0))
        zeta_argv = ["zeta", "eval", "--spectrum", path]
        ops += [
            Op("spectrum", _cli_call(["spectrum", "bolza", "--max-word-len",
                                      str(L), "--out", path]),
               _spectrum_check(L, path, seen), kernel="array"),
            Op("zeta-eval-Z", _cli_call(zeta_argv + ["--fn", "Z", "--s", repr(s)]),
               _store_value(("Z", L, s), seen)),
            Op("zeta-eval-Z", _cli_call(zeta_argv + ["--fn", "Z", "--s", repr(s + 1)]),
               _store_value(("Z", L, s + 1), seen)),
            Op("zeta-eval", _cli_call(zeta_argv + ["--s", repr(s)]),
               _zeta_check(L, s, seen, refs)),
            Op("zeta-eval-motive",
               _cli_call(zeta_argv + [f"--motive={MOTIVE[0]}", "--s", repr(s_motive)]),
               _motive_check(L, MOTIVE[1], s_motive, seen, refs)),
            Op("pgt", _cli_call(["pgt", "--spectrum", path, "--xmax", repr(xmax),
                                 "--points", str(PGT_POINTS)]),
               _pgt_check(L, seen)),
        ]
    return Built(ops, {"ops_per_round": len(ops), "word_lengths": order})


def _cli_call(argv: List[str]):
    return lambda: _run_cli(argv)


def _spectrum_check(L: int, path: str, seen):
    def check(out):
        fields = _cli_fields(out, "spectrum")
        spec = ref.read_spectrum(path)
        entries = spec["entries"]
        seen[("spectrum", L)] = spec
        systole = float(fields["systole"])
        if abs(systole - ref.BOLZA_SYSTOLE) > 1e-10:
            raise CheckFailed("systole-length", f"L={L}: {systole!r}")
        if not entries or entries[0][0] != systole:
            raise CheckFailed("systole-row", f"L={L}")
        if any(m % 2 for _, m in entries):
            raise CheckFailed("odd-multiplicity", f"L={L}")
        if any(b[0] <= a[0] for a, b in zip(entries, entries[1:])):
            raise CheckFailed("lengths-not-increasing", f"L={L}")
        if float(spec["headers"]["horizon"]) > entries[-1][0]:
            raise CheckFailed("horizon-beyond-last-length", f"L={L}")
        wrote = _WROTE.search(out[1])
        if not wrote or (int(wrote[1]), int(wrote[2])) != \
                (len(entries), sum(m for _, m in entries)):
            raise CheckFailed("spectrum-summary", f"L={L}")
        if entries[0][1] != SYSTOLE_MULTIPLICITY:
            raise CheckFailed("systole-multiplicity",
                              f"L={L}: {entries[0][1]} != {SYSTOLE_MULTIPLICITY}")
    return check


def _store_value(key: tuple, seen):
    def check(out):
        value = float(_cli_fields(out, "zeta-eval-Z")["value"])
        if not (math.isfinite(value) and value > 0):
            raise CheckFailed("Z-value", f"{key}: {value!r}")
        seen[key] = value
    return check


def _zeta_check(L: int, s: float, seen, refs: _EulerRefs):
    def check(out):
        value = float(_cli_fields(out, "zeta-eval")["value"])
        if abs(value - seen[("Z", L, s + 1)] / seen[("Z", L, s)]) > TELESCOPE_TOL * value:
            raise CheckFailed("telescoping", f"L={L} s={s}")
        entries = seen[("spectrum", L)]["entries"]
        if ref.rel_err(value, mpmath.exp(refs.log_zeta(s, entries))) > EULER_TOL:
            raise CheckFailed("euler-zeta-vs-mpmath", f"L={L} s={s}")
    return check


def _motive_check(L: int, coeffs: Dict[int, int], s: float, seen, refs: _EulerRefs):
    def check(out):
        value = float(_cli_fields(out, "zeta-eval-motive")["value"])
        entries = seen[("spectrum", L)]["entries"]
        log_ref = sum(a * refs.log_zeta(s - k, entries) for k, a in coeffs.items())
        if ref.rel_err(value, mpmath.exp(log_ref)) > EULER_TOL:
            raise CheckFailed("motive-vs-mpmath", f"L={L} s={s}")
    return check


def _pgt_check(L: int, seen):
    def check(out):
        text = _cli_text(out, "pgt")
        entries = seen[("spectrum", L)]["entries"]
        rows = text.splitlines()[1:]
        if not rows:
            raise CheckFailed("pgt-rows", f"L={L}")
        for row in rows:
            x, count = row.split(",")[:2]
            if int(count) != ref.count_upto(float(x), entries):
                raise CheckFailed("pgt-count", f"L={L} x={x}")
    return check


# -- euler_products ------------------------------------------------------

EULER_OPS = 8
EULER_MOTIVE = {-1: 1, 0: -1}   # x^-1 - 1: factors at s + 1 and s


def euler_products(seed: int, spectrum, workdir: str) -> Built:
    """Each op: Z(s), Z(s+1), zeta(s), a motive zeta and a count at one s."""
    rng = random.Random(seed)
    entries = list(spectrum.entries)
    motive = laurent.LaurentPoly(EULER_MOTIVE)
    ops = []
    for i in range(EULER_OPS):
        # the middle quarter of each stratum: the op cost depends on s, and
        # op_p50_ms is the median of these few costs
        s = 1.2 + 4.8 * (i + 0.375 + 0.25 * rng.random()) / EULER_OPS
        # up to the last length: the horizon sits at the systole
        x = math.exp(rng.uniform(0.0, entries[-1][0]))
        ops.append(_euler_op(s, x, spectrum, motive, entries))
    rng.shuffle(ops)
    return Built(ops, {"ops_per_round": len(ops), "entries": len(entries),
                       "classes": sum(m for _, m in entries)})


def _euler_op(s: float, x: float, sp, motive, entries) -> Op:
    log_z = {t: ref.log_euler_zeta(t, entries) for t in (s, s + 1)}
    zeta_ref = mpmath.exp(log_z[s])
    motive_ref = mpmath.exp(sum(a * log_z[s - k] for k, a in EULER_MOTIVE.items()))
    count_ref = ref.count_upto(x, entries)

    def call():
        return (geodesics.selberg_Z(s, sp), geodesics.selberg_Z(s + 1, sp),
                geodesics.euler_zeta(s, sp),
                geodesics.zeta_motive_numeric(motive, s, sp),
                geodesics.geodesic_count(x, sp))

    def check(out):
        z0, z1, zeta, zm, count = _ok(out, "euler")
        if ref.rel_err(zeta.value, zeta_ref) > EULER_TOL:
            raise CheckFailed("euler-zeta-vs-mpmath", f"s={s}")
        if ref.rel_err(zm.value, motive_ref) > EULER_TOL:
            raise CheckFailed("motive-vs-mpmath", f"s={s}")
        if abs(zeta.value - z1.value / z0.value) > TELESCOPE_TOL * zeta.value:
            raise CheckFailed("telescoping", f"s={s}")
        if count != count_ref:
            raise CheckFailed("count", f"x={x}")

    return Op("euler", call, check)


WORKLOADS = {
    "fe_sweep": fe_sweep,
    "special_grid": special_grid,
    "bolza_pipeline": bolza_pipeline,
    "euler_products": euler_products,
}
# the reference kernel matching each workload's program set-up
SETUP_KERNEL = {"euler_products": "array"}
