"""Command-line front end tying all the pieces together.

Exit codes: 0 = success / identity verified, 1 = verification or
identity check failed, 2 = usage, domain or numeric error (overflow,
an enumeration that cannot go on), reported on one line; a warning is
one `warning:` line on stderr too, whatever the process's warning
filters, and the filters are left as they were.  All numeric output
uses 17 significant decimal digits; tabular output is CSV, to stdout
or to --out.  An option is accepted only where it is read: a --genus,
--r or --w that the chosen special function or identity ignores is a
usage error, and nothing is read from a config file.  main builds the
argparse tree once per process, on its first call rather than at
import, and reuses it: argparse keeps no state between calls.  The
spectrum, zeta eval and pgt handlers import geodesics, and numpy with it,
when they run, so the other commands start without numpy.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from typing import List, Optional, Sequence

from . import formal, laurent, special
from .laurent import SymmetryKind

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

# f = 0 has every reflection symmetry, and its zeta and Z are 1
_ZERO_FE = ("functional equation: holds at every D "
            "(zeta_M(f) = Z_M(f) = 1 for f = 0)")


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
    elif auto.kind is SymmetryKind.ZERO:
        out.write(_ZERO_FE)
    else:
        out.write("functional equation: none (no reflection symmetry)")
    return 0


def _cmd_fe_verify(args, out: _Output) -> int:
    f = laurent.parse_poly(args.poly)
    auto = laurent.detect_automorphy(f)
    zero = auto.kind is SymmetryKind.ZERO
    if args.d is None:
        if auto.kind is SymmetryKind.NONE:
            out.write(f"kind = {auto.kind.value}; no (C, D) detected")
            out.write("verdict: FAIL")
            return 1
        out.write(_ZERO_FE if zero else f"detected C = {auto.C:+d}, D = {auto.D}")
    if args.kind == "Z":
        if auto.kind is SymmetryKind.NONE:
            out.write(f"kind = {auto.kind.value}; Z functional equation "
                      "requires a reflection symmetry")
            out.write("verdict: FAIL")
            return 1
        if not zero and args.d not in (None, auto.D):
            out.write(f"supplied D = {args.d} differs from forced D = {auto.D}")
            out.write("verdict: FAIL")
            return 1
        v = formal.verify_Z_fe(f)
        out.write(f"lhs  = {formal.format_product(v.lhs_canonical)}")
        out.write(f"rhs  = {formal.format_product(v.rhs_canonical)}")
        out.write(f"residual = {formal.format_product(v.residual)}")
        out.write(f"verdict: {'PASS' if v.holds else 'FAIL'}")
        return 0 if v.holds else 1
    if args.d is None and zero:
        out.write("verdict: PASS")
        return 0
    D = auto.D if args.d is None else args.d
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


# the `special eval` functions that read --genus; --r and --w are read
# by --fn zr only
_GENUS_FNS = ("gammaM", "sM", "fe-factor")


def _refuse(option: str, value, reader: str) -> None:
    """ValueError where `option` was given to a call that does not read it."""
    if value is not None:
        raise ValueError(f"{option} is read only by {reader}")


def _cmd_special_eval(args, out: _Output) -> int:
    fn = args.fn
    if fn != "zr":
        _refuse("--r", args.r, "--fn zr")
        _refuse("--w", args.w, "--fn zr")
    if fn not in _GENUS_FNS:
        _refuse("--genus", args.genus, "--fn " + ", ".join(_GENUS_FNS))
    if fn == "gamma2":
        sv = special.gamma_r(2, args.s)
    elif fn == "s2":
        sv = special.sine_r(2, args.s)
    elif fn == "zr":
        if args.w is None:
            raise ValueError("--fn zr requires --w")
        sv = special.multiple_hurwitz_zeta(2 if args.r is None else args.r,
                                           args.w, args.s)
    else:
        params = special.SurfaceParams(2 if args.genus is None else args.genus)
        if fn == "gammaM":
            sv = special.gamma_M(args.s, params)
        elif fn == "sM":
            sv = special.s_M(args.s, params)
        else:
            sv = special.selberg_fe_factor(args.s, params)
    out.write(f"value = {_fmt(sv.value)}")
    out.write(f"abs_err_estimate = {_fmt(sv.abs_err_estimate)}")
    return 0


def _cmd_special_check(args, out: _Output) -> int:
    if args.identity != "fe-integral":
        _refuse("--genus", args.genus, "--identity fe-integral")
    if args.identity == "ode":
        rows = special.check_ode()
    elif args.identity == "ladder":
        rows = special.check_ladder()
    elif args.identity == "fe-integral":
        rows = special.check_fe_integral(2 if args.genus is None else args.genus)
    else:
        rows = special.check_reduction()
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
    from . import geodesics
    sp = geodesics.enumerate_spectrum(geodesics.bolza_group(),
                                      args.max_word_len)
    geodesics.save_spectrum(sp, args.spectrum_out)
    out.write(f"wrote {sp.lengths.size} length entries "
              f"({sp.total_classes()} classes) to {args.spectrum_out}")
    out.write(f"systole = {_fmt(float(sp.lengths[0]))}")
    out.write(f"horizon = {_fmt(sp.horizon)}")
    return 0


def _cmd_zeta_eval(args, out: _Output) -> int:
    from . import geodesics
    # the arguments are checked before the spectrum file is read
    if args.motive is not None and args.fn == "Z":
        raise ValueError("--motive is only supported with --fn zeta")
    if args.motive is not None:
        f = laurent.parse_poly(args.motive)
        geodesics.check_euler_s(args.s, "zeta_motive_numeric", f)
        evaluate = functools.partial(geodesics.zeta_motive_numeric, f)
    else:
        evaluate = (geodesics.selberg_Z if args.fn == "Z"
                    else geodesics.euler_zeta)
        geodesics.check_euler_s(args.s, evaluate.__name__)
    sv = evaluate(args.s, geodesics.load_spectrum(args.spectrum))
    out.write(f"value = {_fmt(sv.value)}")
    out.write(f"abs_err_estimate = {_fmt(sv.abs_err_estimate)}")
    return 0


# each point costs a float, a row and an output line, a few hundred bytes
# in all, so an unbounded --points runs out of memory; at the cap a table
# takes about 35 MB and a second.  Checked before any point is built.
_PGT_MAX_POINTS = 100_000


def _cmd_pgt(args, out: _Output) -> int:
    from . import geodesics
    if not 1 <= args.points <= _PGT_MAX_POINTS:
        raise ValueError(f"--points must be in 1..{_PGT_MAX_POINTS}, "
                         f"got {args.points}")
    lo = 1.1
    if not 0.0 < args.xmax < math.inf or math.log(args.xmax) <= lo:
        raise ValueError(f"--xmax must be finite and exceed e^{lo:.2f}, "
                         f"got {args.xmax}")
    sp = geodesics.load_spectrum(args.spectrum)
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

class _MisplacedGenus(argparse.Action):
    """Refuses a --genus placed before the command, naming the commands
    that take it."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.exit(2, "error: --genus is an option of `special eval` and "
                       "`special check`; put it after the subcommand\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selbergfe",
        description="Functional equations and numerics for Selberg zeta "
                    "functions twisted by integer Laurent polynomials.")
    parser.add_argument("--out", help="write output to this path")
    # a --genus before the command would otherwise be read as the command
    parser.add_argument("--genus", action=_MisplacedGenus,
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
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

    # the surface genus, read by `special eval` and `special check` only
    surface = argparse.ArgumentParser(add_help=False)
    surface.add_argument("--genus", type=int,
                         help="surface genus (>= 2, default 2)")

    sp = sub.add_parser("special", help="special-function numerics")
    spsub = sp.add_subparsers(dest="subcommand", required=True)
    ev = spsub.add_parser("eval", parents=[surface],
                          help="evaluate one special function")
    ev.add_argument("--fn", required=True,
                    choices=["gamma2", "s2", "zr", "gammaM", "sM", "fe-factor"])
    ev.add_argument("--s", type=float, required=True)
    ev.add_argument("--r", type=int, help="order of --fn zr (default 2)")
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


# the one parser of the process, built by the first main call
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    error = None
    # each warning becomes one line, like an error: no source path or line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            out = _Output(args.out)
            code = args.func(args, out)
            out.flush()
        except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
            # a domain, usage or numeric failure: one line, never a traceback
            error, code = exc, 2
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
