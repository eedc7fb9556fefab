"""Command-line front end tying all the pieces together.

Exit codes: 0 = success / identity verified, 1 = verification or
identity check failed, 2 = usage, domain or numeric error (overflow,
an enumeration that cannot go on), reported on one line.  All numeric output
uses 17 significant decimal digits; tabular output is CSV, to stdout
or to --out.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional, Sequence, Tuple

from . import formal, geodesics, laurent, special
from .laurent import SymmetryKind

_CONFIG_KEYS = {
    "genus": int,
    "euler_maclaurin_cutoff": int,
    "bernoulli_terms": int,
}


def load_config(path: str) -> dict:
    """Line-oriented key=value file; unknown keys are rejected."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, raw = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _CONFIG_KEYS[key](raw.strip())
    return values


def _surface(args) -> Tuple[special.SurfaceParams, special.SpecialEvaluator]:
    """The surface and evaluator of `special eval` and `special check`:
    the --config file's values, with --genus winning over its genus."""
    values = load_config(args.config) if args.config else {}
    if args.genus is not None:
        values["genus"] = args.genus
    params = special.SurfaceParams(values.pop("genus", 2))
    return params, special.SpecialEvaluator(**values)


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.16e}{v.imag:+.16e}j"
    return f"{v:.16e}"


class _Output:
    def __init__(self, path: Optional[str]):
        self.path = path
        self.lines: List[str] = []

    def write(self, line: str) -> None:
        self.lines.append(line)

    def flush(self) -> None:
        text = "\n".join(self.lines) + ("\n" if self.lines else "")
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


# -- subcommand implementations ------------------------------------------

def _cmd_motive_analyze(args, out: _Output) -> int:
    f = laurent.parse_poly(args.poly)
    auto = laurent.detect_automorphy(f)
    out.write(f"poly = {laurent.format_poly(f)}")
    out.write(f"kind = {auto.kind.value}")
    if auto.kind in (SymmetryKind.ODD, SymmetryKind.EVEN):
        out.write(f"C = {auto.C:+d}")
        out.write(f"D = {auto.D}")
    f1 = laurent.eval_at_one(f)
    out.write(f"f(1) = {f1}")
    if auto.kind is SymmetryKind.ODD:
        out.write(f"functional equation: zeta_M(f)({auto.D}-s) = zeta_M(f)(s)")
        out.write(f"Z functional equation: Z_M(f)({auto.D + 1}-s)"
                  f" = Z_M(f)(s)^{auto.C} S_M(f)(s)^{auto.C}")
    elif auto.kind is SymmetryKind.EVEN:
        out.write(f"functional equation: zeta_M(f)({auto.D}-s)"
                  f" = zeta_M(f)(s)^-1 (2 sin pi s)^((4-4g)*{f1})")
        out.write(f"Z functional equation: Z_M(f)({auto.D + 1}-s)"
                  f" = Z_M(f)(s)^{auto.C} S_M(f)(s)^{auto.C}")
    else:
        out.write("functional equation: none (no reflection symmetry)")
    return 0


def _cmd_fe_verify(args, out: _Output) -> int:
    f = laurent.parse_poly(args.poly)
    auto = laurent.detect_automorphy(f)
    if args.d is None:
        if auto.kind not in (SymmetryKind.ODD, SymmetryKind.EVEN):
            out.write(f"kind = {auto.kind.value}; no (C, D) detected")
            out.write("verdict: FAIL")
            return 1
        out.write(f"detected C = {auto.C:+d}, D = {auto.D}")
        D = auto.D
    else:
        D = args.d
    if args.kind == "Z":
        if auto.kind not in (SymmetryKind.ODD, SymmetryKind.EVEN):
            out.write(f"kind = {auto.kind.value}; Z functional equation "
                      "requires a reflection symmetry")
            out.write("verdict: FAIL")
            return 1
        if args.d is not None and args.d != auto.D:
            out.write(f"supplied D = {args.d} differs from forced D = {auto.D}")
            out.write("verdict: FAIL")
            return 1
        v = formal.verify_Z_fe(f)
        out.write(f"lhs  = {formal.format_product(v.lhs_canonical)}")
        out.write(f"rhs  = {formal.format_product(v.rhs_canonical)}")
        out.write(f"residual = {formal.format_product(v.residual)}")
        out.write(f"verdict: {'PASS' if v.holds else 'FAIL'}")
        return 0 if v.holds else 1
    v2 = formal.verify_theorem2(f, D)
    v3 = formal.verify_theorem3(f, D)
    if v2.holds:
        out.write(f"odd-type equation holds: zeta_M(f)({D}-s) = zeta_M(f)(s)")
        v = v2
    elif v3.holds:
        f1 = laurent.eval_at_one(f)
        out.write(f"even-type equation holds: zeta_M(f)({D}-s) = "
                  f"zeta_M(f)(s)^-1 (2 sin pi s)^((4-4g)*{f1})")
        v = v3
    else:
        out.write(f"no functional equation at D = {D}")
        v = v2
    out.write(f"canonical quotient (vs plain reflection) = "
              f"{formal.format_product(v2.residual)}")
    out.write(f"verdict: {'PASS' if v.holds else 'FAIL'}")
    return 0 if v.holds else 1


def _cmd_fe_derive_base(args, out: _Output) -> int:
    v = formal.derive_base_zeta_fe()
    out.write("claim: zeta_M(-s) zeta_M(s) = (2 sin pi s)^(4-4g)")
    out.write(f"derived = {formal.format_product(v.lhs_canonical)}")
    out.write(f"residual = {formal.format_product(v.residual)}")
    out.write(f"verdict: {'PASS' if v.holds else 'FAIL'}")
    return 0 if v.holds else 1


def _cmd_special_eval(args, out: _Output) -> int:
    params, ev = _surface(args)
    fn = args.fn
    if fn == "gamma2":
        sv = special.gamma_r(2, args.s, ev)
    elif fn == "s2":
        sv = special.sine_r(2, args.s, ev)
    elif fn == "zr":
        if args.w is None:
            raise ValueError("--fn zr requires --w")
        sv = special.multiple_hurwitz_zeta(args.r, args.w, args.s, ev)
    elif fn == "gammaM":
        sv = special.gamma_M(args.s, params, ev)
    elif fn == "sM":
        sv = special.s_M(args.s, params, ev)
    elif fn == "fe-factor":
        sv = special.selberg_fe_factor(args.s, params)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown function {fn}")
    out.write(f"value = {_fmt(sv.value)}")
    out.write(f"abs_err_estimate = {_fmt(sv.abs_err_estimate)}")
    return 0


def _cmd_special_check(args, out: _Output) -> int:
    params, ev = _surface(args)
    if args.identity == "ode":
        rows = special.check_ode(ev)
    elif args.identity == "ladder":
        rows = special.check_ladder(ev)
    elif args.identity == "fe-integral":
        rows = special.check_fe_integral(params.genus, ev)
    else:
        rows = special.check_reduction(ev)
    out.write("identity,point,lhs,rhs,error,tolerance,status")
    ok = True
    for row in rows:
        ok &= row.ok
        out.write(f"{row.label},{_fmt(row.point)},{_fmt(row.lhs)},"
                  f"{_fmt(row.rhs)},{_fmt(row.error)},{_fmt(row.tolerance)},"
                  f"{'pass' if row.ok else 'FAIL'}")
    out.write(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_spectrum_bolza(args, out: _Output) -> int:
    sp = geodesics.enumerate_spectrum(geodesics.bolza_group(),
                                      args.max_word_len)
    geodesics.save_spectrum(sp, args.spectrum_out)
    out.write(f"wrote {len(sp.entries)} length entries "
              f"({sp.total_classes()} classes) to {args.spectrum_out}")
    out.write(f"systole = {_fmt(sp.entries[0][0])}")
    out.write(f"horizon = {_fmt(sp.horizon)}")
    return 0


def _cmd_zeta_eval(args, out: _Output) -> int:
    sp = geodesics.load_spectrum(args.spectrum)
    if args.motive is not None:
        if args.fn == "Z":
            raise ValueError("--motive is only supported with --fn zeta")
        f = laurent.parse_poly(args.motive)
        sv = geodesics.zeta_motive_numeric(f, args.s, sp)
    elif args.fn == "Z":
        sv = geodesics.selberg_Z(args.s, sp)
    else:
        sv = geodesics.euler_zeta(args.s, sp)
    out.write(f"value = {_fmt(sv.value)}")
    out.write(f"abs_err_estimate = {_fmt(sv.abs_err_estimate)}")
    return 0


def _cmd_pgt(args, out: _Output) -> int:
    sp = geodesics.load_spectrum(args.spectrum)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    lo = 1.1
    if not 0.0 < args.xmax < math.inf or math.log(args.xmax) <= lo:
        raise ValueError(f"--xmax must be finite and exceed e^{lo:.2f}, "
                         f"got {args.xmax}")
    hi = math.log(args.xmax)
    if args.points == 1:
        xs = [args.xmax]
    else:
        xs = [math.exp(lo + (hi - lo) * i / (args.points - 1))
              for i in range(args.points)]
    rows = geodesics.pgt_table(sp, xs)
    out.write("x,count,x_over_logx,ratio")
    for x, count, approx, ratio in rows:
        out.write(f"{_fmt(x)},{count},{_fmt(approx)},{_fmt(ratio)}")
    return 0


# -- argument parsing ----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selbergfe",
        description="Functional equations and numerics for Selberg zeta "
                    "functions twisted by integer Laurent polynomials.")
    parser.add_argument("--out", help="write output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    motive = sub.add_parser("motive", help="Laurent polynomial analysis")
    msub = motive.add_subparsers(dest="subcommand", required=True)
    analyze = msub.add_parser("analyze", help="detect reflection symmetry")
    analyze.add_argument("--poly", required=True,
                         help="comma-separated k=a pairs, e.g. '-1=1,0=-1'")
    analyze.set_defaults(func=_cmd_motive_analyze)

    fe = sub.add_parser("fe", help="symbolic functional-equation engine")
    fesub = fe.add_subparsers(dest="subcommand", required=True)
    verify = fesub.add_parser("verify", help="verify a functional equation")
    verify.add_argument("--poly", required=True)
    verify.add_argument("--d", type=int, default=None)
    verify.add_argument("--kind", choices=["zeta", "Z"], default="zeta")
    verify.set_defaults(func=_cmd_fe_verify)
    derive = fesub.add_parser("derive-base",
                              help="re-derive the base zeta reflection")
    derive.set_defaults(func=_cmd_fe_derive_base)

    # the surface and evaluator settings, read by `special eval` and
    # `special check` only
    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("--config", help="key=value config file (flags win)")
    surface.add_argument("--genus", type=int, help="surface genus (>= 2)")

    sp = sub.add_parser("special", help="special-function numerics")
    spsub = sp.add_subparsers(dest="subcommand", required=True)
    ev = spsub.add_parser("eval", parents=[surface],
                          help="evaluate one special function")
    ev.add_argument("--fn", required=True,
                    choices=["gamma2", "s2", "zr", "gammaM", "sM", "fe-factor"])
    ev.add_argument("--s", type=float, required=True)
    ev.add_argument("--r", type=int, default=2)
    ev.add_argument("--w", type=complex, default=None)
    ev.set_defaults(func=_cmd_special_eval)
    check = spsub.add_parser("check", parents=[surface],
                             help="run an identity check grid")
    check.add_argument("--identity", required=True,
                       choices=["ode", "ladder", "fe-integral", "reduction"])
    check.set_defaults(func=_cmd_special_check)

    spectrum = sub.add_parser("spectrum", help="length-spectrum generation")
    spectrum_sub = spectrum.add_subparsers(dest="subcommand", required=True)
    bolza = spectrum_sub.add_parser("bolza", help="enumerate the Bolza spectrum")
    bolza.add_argument("--max-word-len", type=int, required=True)
    bolza.add_argument("--out", required=True, dest="spectrum_out",
                       help="write the spectrum file to this path")
    bolza.set_defaults(func=_cmd_spectrum_bolza)

    zeta = sub.add_parser("zeta", help="Euler products over a spectrum")
    zsub = zeta.add_subparsers(dest="subcommand", required=True)
    zeval = zsub.add_parser("eval")
    zeval.add_argument("--spectrum", required=True)
    zeval.add_argument("--s", type=float, required=True)
    zeval.add_argument("--motive", default=None)
    zeval.add_argument("--fn", choices=["Z", "zeta"], default="zeta")
    zeval.set_defaults(func=_cmd_zeta_eval)

    pgt = sub.add_parser("pgt", help="prime-geodesic counting table")
    pgt.add_argument("--spectrum", required=True)
    pgt.add_argument("--xmax", type=float, required=True)
    pgt.add_argument("--points", type=int, required=True)
    pgt.set_defaults(func=_cmd_pgt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = _Output(args.out)
        code = args.func(args, out)
        out.flush()
        return code
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        # a domain, usage or numeric failure: one line, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
