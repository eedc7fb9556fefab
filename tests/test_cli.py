import math
import os
import subprocess
import sys
import textwrap
import warnings

import pytest

from selbergfe import cli, geodesics
from selbergfe.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_motive_analyze_odd(capsys):
    code, out, _ = run(capsys, "motive", "analyze", "--poly", "0=-1,1=1")
    assert code == 0
    assert "kind = odd" in out
    assert "C = -1" in out
    assert "D = 1" in out
    assert "f(1) = 0" in out
    assert "zeta_M(f)(1-s) = zeta_M(f)(s)" in out


def test_motive_analyze_none(capsys):
    code, out, _ = run(capsys, "motive", "analyze", "--poly", "1=2,2=1")
    assert code == 0
    assert "kind = none" in out


def test_motive_analyze_zero(capsys):
    """f = 0 gives zeta_{M(0)} = Z_{M(0)} = 1: every D holds, as fe verify
    reports at any --d."""
    code, out, _ = run(capsys, "motive", "analyze", "--poly", "0=0")
    assert code == 0
    assert out == ("poly = 0\nkind = zero\nf(1) = 0\n"
                   "functional equation: holds at every D "
                   "(zeta_M(f) = Z_M(f) = 1 for f = 0)\n")
    for d in ("-2", "3"):
        code, out, _ = run(capsys, "fe", "verify", "--poly", "0=0", "--d", d)
        assert code == 0 and "equation holds" in out


def test_fe_verify_zero_holds_at_every_d(capsys):
    """f = 0 with no --d: every D holds, PASS, exit 0."""
    code, out, err = run(capsys, "fe", "verify", "--poly", "0=0")
    assert (code, err) == (0, "")
    assert out == ("functional equation: holds at every D "
                   "(zeta_M(f) = Z_M(f) = 1 for f = 0)\nverdict: PASS\n")


@pytest.mark.parametrize("d", [(), ("--d", "3")])
def test_fe_verify_zero_kind_Z(capsys, d):
    """f = 0 on the Z side: both sides and the residual are 1, at any D."""
    code, out, err = run(capsys, "fe", "verify", "--poly", "0=0", *d,
                         "--kind", "Z")
    assert (code, err) == (0, "")
    assert out.endswith("lhs  = 1\nrhs  = 1\nresidual = 1\nverdict: PASS\n")
    assert ("holds at every D" in out) == (not d)


def test_motive_bad_poly_usage_error(capsys):
    code, _, err = run(capsys, "motive", "analyze", "--poly", "garbage")
    assert code == 2
    assert "error" in err


def test_fe_verify_even_base(capsys):
    code, out, _ = run(capsys, "fe", "verify", "--poly", "0=1",
                       "--d", "0", "--kind", "zeta")
    assert code == 0
    assert "(4-4g)*1" in out
    assert "verdict: PASS" in out


def test_fe_verify_detects_cd(capsys):
    code, out, _ = run(capsys, "fe", "verify", "--poly=-1=1,0=-1")
    assert code == 0
    assert "detected C = -1, D = -1" in out


def test_fe_verify_fails_on_wrong_D(capsys):
    code, out, _ = run(capsys, "fe", "verify", "--poly", "0=-1,1=1", "--d", "3")
    assert code == 1
    assert "verdict: FAIL" in out


def test_fe_verify_Z(capsys):
    code, out, _ = run(capsys, "fe", "verify", "--poly=-1=1,0=-1",
                       "--kind", "Z")
    assert code == 0
    assert "verdict: PASS" in out


# full stdout and exit code of the formal engine's commands, pinned so a
# rewrite of the engine keeps its output byte-identical
FE_GOLDEN = {
    "odd": (["fe", "verify", "--poly=-2=1,-1=-3,1=3,2=-1"], 0,
            "detected C = -1, D = 0\n"
            "odd-type equation holds: zeta_M(f)(0-s) = zeta_M(f)(s)\n"
            "canonical quotient (vs plain reflection) = 1\n"
            "verdict: PASS\n"),
    "even": (["fe", "verify", "--poly=-1=1,0=-1,1=1"], 0,
             "detected C = +1, D = 0\n"
             "even-type equation holds: zeta_M(f)(0-s) = "
             "zeta_M(f)(s)^-1 (2 sin pi s)^((4-4g)*1)\n"
             "canonical quotient (vs plain reflection) = zeta_M(s+1)^-2 * "
             "zeta_M(s)^2 * zeta_M(s-1)^-2 * (2 sin pi s)^((2-2g)*2)\n"
             "verdict: PASS\n"),
    "none": (["fe", "verify", "--poly", "2=1,1=2"], 1,
             "kind = none; no (C, D) detected\n"
             "verdict: FAIL\n"),
    "wrong-D": (["fe", "verify", "--poly", "0=-1,1=1", "--d", "3"], 1,
                "no functional equation at D = 3\n"
                "canonical quotient (vs plain reflection) = zeta_M(s)^1 * "
                "zeta_M(s-1)^-1 * zeta_M(s-2)^-1 * zeta_M(s-3)^1\n"
                "verdict: FAIL\n"),
    "Z-odd": (["fe", "verify", "--poly=-1=1,0=-1", "--kind", "Z"], 0,
              "detected C = -1, D = -1\n"
              "lhs  = Z_M(s+1)^-1 * Z_M(s)^1 * (2 sin pi s)^((2-2g)*2)\n"
              "rhs  = Z_M(s+1)^-1 * Z_M(s)^1 * (2 sin pi s)^((2-2g)*2)\n"
              "residual = 1\n"
              "verdict: PASS\n"),
    "Z-even": (["fe", "verify", "--poly", "0=1", "--kind", "Z"], 0,
               "detected C = +1, D = 0\n"
               "lhs  = Z_M(s)^1 * S_2(s)^((2-2g)*2) * (2 sin pi s)^((2-2g)*-1)\n"
               "rhs  = Z_M(s)^1 * S_2(s)^((2-2g)*2) * (2 sin pi s)^((2-2g)*-1)\n"
               "residual = 1\n"
               "verdict: PASS\n"),
    "derive-base": (["fe", "derive-base"], 0,
                    "claim: zeta_M(-s) zeta_M(s) = (2 sin pi s)^(4-4g)\n"
                    "derived = (2 sin pi s)^((2-2g)*2)\n"
                    "residual = 1\n"
                    "verdict: PASS\n"),
}


@pytest.mark.parametrize("case", sorted(FE_GOLDEN))
def test_fe_golden_output(capsys, case):
    argv, expected_code, expected_out = FE_GOLDEN[case]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (expected_code, expected_out, "")


def test_fe_derive_base(capsys):
    code, out, _ = run(capsys, "fe", "derive-base")
    assert code == 0
    assert "(2 sin pi s)^((2-2g)*2)" in out


def test_special_eval_s2(capsys):
    code, out, _ = run(capsys, "special", "eval", "--fn", "s2", "--s", "1.0")
    assert code == 0
    assert "value = 1.0000000000000000e+00" in out


def test_special_eval_s2_outside_float_range(capsys):
    code, out, err = run(capsys, "special", "eval", "--fn", "s2",
                         "--s", "99999.7")
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
def test_special_eval_s2_non_finite_exit_2(capsys, s):
    code, out, err = run(capsys, "special", "eval", "--fn", "s2", f"--s={s}")
    assert (code, out) == (2, "")
    assert err == f"error: S_2 requires a finite s, got s={float(s)}\n"


def test_special_eval_fe_factor_domain_error(capsys):
    code, _, err = run(capsys, "special", "eval", "--fn", "fe-factor",
                       "--s", "1.5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("s", ["1e-12", "1e-9", "0.999999999"])
def test_special_eval_fe_factor_near_the_ends_is_quiet(s):
    """Next to the poles of tan the factor is a value on stdout, with
    nothing on stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "selbergfe", "special", "eval",
                           "--fn", "fe-factor", "--s", s],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("value = ")


def test_special_eval_zr_exact_at_negative_integer(capsys):
    """zeta_H(-20, 1) = -B_21 / 21 = 0 and zeta_H(-400, 2) = -1, exactly:
    the Euler-Maclaurin partial sum and tail would cancel there."""
    for w, s, value in (("-20", "1", "0.0000000000000000e+00"),
                        ("-400", "2", "-1.0000000000000000e+00")):
        code, out, _ = run(capsys, "special", "eval", "--fn", "zr", "--r", "1",
                           f"--w={w}", "--s", s)
        assert code == 0
        assert out.splitlines()[0] == f"value = {value}+0.0000000000000000e+00j"


@pytest.mark.parametrize("argv", [
    # (n + s)^400.5 overflows in the kernel
    ("special", "eval", "--fn", "zr", "--r", "1", "--w=-400.5", "--s", "2"),
    # (S_2(s) S_2(s+1))^(2-2g) overflows in s_M itself
    ("special", "eval", "--genus", "100000", "--fn", "sM", "--s", "0.3"),
    # the integral form's exp((4-4g) integral) overflows
    ("special", "eval", "--genus", "100000", "--fn", "fe-factor", "--s", "0.001"),
])
def test_special_eval_overflow_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_special_eval_overflow_names_the_call(capsys):
    code, out, err = run(capsys, "special", "eval", "--genus", "100000",
                         "--fn", "sM", "--s", "0.3")
    assert (code, out) == (2, "")
    assert err == ("error: s_M(0.3) at genus 100000 = inf lies outside the "
                   "normal float range; it cannot be evaluated as a float\n")


def test_runtime_error_exit_2(capsys, tmp_path, monkeypatch):
    def drifted(*args):
        raise RuntimeError("non-identity word with |trace| <= 2 encountered")
    monkeypatch.setattr(geodesics, "enumerate_spectrum", drifted)
    code, out, err = run(capsys, "spectrum", "bolza", "--max-word-len", "2",
                         "--out", str(tmp_path / "sp.txt"))
    assert (code, out) == (2, "")
    assert err == "error: non-identity word with |trace| <= 2 encountered\n"


@pytest.mark.parametrize("w", ["infj", "nan", "inf"])
def test_special_eval_zr_non_finite_w_exit_2(capsys, w):
    code, out, err = run(capsys, "special", "eval", "--fn", "zr", f"--w={w}",
                         "--s", "1")
    assert (code, out) == (2, "")
    assert err == ("error: multiple_hurwitz_zeta requires a finite w, got "
                   f"w={complex(w)}\n")


def test_special_eval_zr_needs_w(capsys):
    code, _, err = run(capsys, "special", "eval", "--fn", "zr", "--s", "1.0")
    assert code == 2


def test_special_check_identities(capsys):
    for identity in ("ode", "ladder", "fe-integral", "reduction"):
        genus = ("--genus", "2") if identity == "fe-integral" else ()
        code, out, _ = run(capsys, "special", "check", *genus,
                           "--identity", identity)
        assert code == 0, identity
        assert "overall: PASS" in out


def test_special_check_table_format(capsys):
    code, out, _ = run(capsys, "special", "check", "--identity", "ladder")
    lines = out.strip().splitlines()
    assert lines[0] == "identity,point,lhs,rhs,error,tolerance,status"
    assert all(line.endswith(",pass") for line in lines[1:-1])


def test_cli_deterministic(capsys):
    _, out1, _ = run(capsys, "special", "check", "--identity", "ode")
    _, out2, _ = run(capsys, "special", "check", "--identity", "ode")
    assert out1 == out2


def test_spectrum_zeta_pgt_pipeline(capsys, tmp_path):
    spath = str(tmp_path / "sp.txt")
    code, out, _ = run(capsys, "spectrum", "bolza",
                       "--max-word-len", "3", "--out", spath)
    assert code == 0
    assert "systole" in out

    code, out, _ = run(capsys, "zeta", "eval", "--spectrum", spath,
                       "--s", "2.0")
    assert code == 0
    assert out.startswith("value = ")

    code, out, _ = run(capsys, "zeta", "eval", "--spectrum", spath,
                       "--s", "2.0", "--fn", "Z")
    assert code == 0

    code, out, _ = run(capsys, "zeta", "eval", "--spectrum", spath,
                       "--s", "4.0", "--motive", "0=-1,1=1")
    assert code == 0

    out_csv = str(tmp_path / "pgt.csv")
    code, out, err = run(capsys, "--out", out_csv, "pgt", "--spectrum", spath,
                         "--xmax", "50", "--points", "5")
    assert (code, out) == (0, "")
    # the warning is one line, with no source path or source line
    assert err.startswith("warning: ") and err.count("\n") == 1
    assert "completeness horizon" in err and "cli.py" not in err
    lines = (tmp_path / "pgt.csv").read_text().strip().splitlines()
    assert lines[0] == "x,count,x_over_logx,ratio"
    assert len(lines) == 6


def test_warning_then_error_are_one_line_each(capsys, monkeypatch):
    """A warning and then an error in one call: a `warning:` line before
    the `error:` line, exit 2, and the process's warning filters as they
    were."""
    def warn_then_fail():
        warnings.warn("first", UserWarning)
        raise ValueError("second")

    filters = list(warnings.filters)
    monkeypatch.setattr(cli.formal, "derive_base_zeta_fe", warn_then_fail)
    code, out, err = run(capsys, "fe", "derive-base")
    assert (code, out) == (2, "")
    assert err == "warning: first\nerror: second\n"
    assert warnings.filters == filters


def test_zeta_eval_domain_error(capsys, tmp_path):
    spath = str(tmp_path / "sp.txt")
    run(capsys, "spectrum", "bolza", "--max-word-len", "2", "--out", spath)
    code, _, err = run(capsys, "zeta", "eval", "--spectrum", spath, "--s", "0.5")
    assert code == 2


@pytest.mark.parametrize("s", ["nan", "inf"])
@pytest.mark.parametrize("fn", [("--fn", "zeta"), ("--motive=-1=1,0=-1",),
                                ("--motive=0=0",)])
def test_zeta_eval_non_finite_s_exit_2(capsys, tmp_path, fn, s):
    spath = str(tmp_path / "sp.txt")
    run(capsys, "spectrum", "bolza", "--max-word-len", "2", "--out", spath)
    code, out, err = run(capsys, "zeta", "eval", "--spectrum", spath,
                         "--s", s, *fn)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(f"{s}\n")


@pytest.mark.parametrize("argv", [("--s", "2"), ("--s", "2", "--fn", "Z"),
                                  ("--s", "4", "--motive", "0=-1,1=1")])
def test_zeta_eval_length_too_short_exit_2(capsys, tmp_path, argv):
    """exp(-1e-300 s) rounds to 1: one error line, no numpy warning line."""
    spath = tmp_path / "sp.txt"
    spath.write_text("# genus=2\n# horizon=0\n1e-300 2\n3.0 2\n")
    code, out, err = run(capsys, "zeta", "eval", "--spectrum", str(spath),
                         *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: exp(-1e-300 s) rounds to 1 at s = ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [(), ("--fn", "Z"), ("--motive=-1=1,0=-1",)])
def test_zeta_eval_huge_s_exit_0(capsys, tmp_path, argv):
    """length * 1e308 overflows to inf, and exp(-inf) = 0 is the correctly
    rounded factor: every factor is 1, with no numpy warning."""
    spath = str(tmp_path / "sp.txt")
    run(capsys, "spectrum", "bolza", "--max-word-len", "2", "--out", spath)
    code, out, err = run(capsys, "zeta", "eval", "--spectrum", spath,
                         "--s", "1e308", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "value = 1.0000000000000000e+00"


@pytest.mark.parametrize("xmax", ["inf", "1e400", "nan"])
@pytest.mark.parametrize("points", ["1", "3"])
def test_pgt_non_finite_xmax_exit_2(capsys, tmp_path, xmax, points):
    spath = str(tmp_path / "sp.txt")
    run(capsys, "spectrum", "bolza", "--max-word-len", "2", "--out", spath)
    code, out, err = run(capsys, "pgt", "--spectrum", spath,
                         "--xmax", xmax, "--points", points)
    assert (code, out) == (2, "")
    assert err == ("error: --xmax must be finite and exceed e^1.10, got "
                   f"{float(xmax)}\n")


@pytest.mark.parametrize("argv, message", [
    (("zeta", "eval", "--fn", "Z", "--motive=0=1", "--s", "2"),
     "--motive is only supported with --fn zeta"),
    (("zeta", "eval", "--motive", "garbage", "--s", "2"),
     "bad polynomial term 'garbage': expected k=a"),
    (("pgt", "--xmax", "2", "--points", "3"),
     "--xmax must be finite and exceed e^1.10, got 2.0"),
    (("pgt", "--xmax", "nan", "--points", "3"),
     "--xmax must be finite and exceed e^1.10, got nan"),
    (("zeta", "eval", "--s", "nan"),
     "euler_zeta requires 1 + 1e-3 < s < inf, got s=nan"),
    (("zeta", "eval", "--fn", "Z", "--s", "1.0"),
     "selberg_Z requires 1 + 1e-3 < s < inf, got s=1.0"),
    (("zeta", "eval", "--motive=0=1,1=-1", "--s", "1.5"),
     "motive factor k=1 needs 1 + 1e-3 < s - k < inf, got s - k = 0.5"),
])
def test_arguments_checked_before_the_spectrum_is_read(capsys, tmp_path,
                                                       argv, message):
    """A usage error is reported as such, even where the spectrum path
    does not exist: the file is read only once the arguments pass."""
    code, out, err = run(capsys, *argv, "--spectrum",
                         str(tmp_path / "no-such-file"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_spectrum_bolza_golden_output(capsys, tmp_path):
    spath = str(tmp_path / "sp.txt")
    code, out, err = run(capsys, "spectrum", "bolza",
                         "--max-word-len", "6", "--out", spath)
    assert (code, err) == (0, "")
    assert out == (f"wrote 421 length entries (23636 classes) to {spath}\n"
                   "systole = 3.0571418389619871e+00\n"
                   "horizon = 3.0571418389619871e+00\n")


def test_spectrum_bolza_beyond_memory_exit_2(capsys, tmp_path, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search started")
    monkeypatch.setattr(geodesics, "_frontiers", no_search)
    spath = tmp_path / "sp.txt"
    code, out, err = run(capsys, "spectrum", "bolza",
                         "--max-word-len", "15", "--out", str(spath))
    assert (code, out) == (2, "")
    assert "GiB of physical memory" in err
    assert not spath.exists()


def test_parser_built_once_not_at_import():
    script = textwrap.dedent("""
        import argparse, contextlib, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counted
        from selbergfe import cli
        counts = [len(built)]
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["fe", "derive-base"]) == 0
            counts.append(len(built))
        print(*counts)
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    at_import, first, second = map(int, proc.stdout.split())
    assert at_import == 0 and first > 0 and second == first


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "selbergfe", "fe",
                           "derive-base"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert "verdict: PASS" in proc.stdout


def test_cached_parser_keeps_no_state(capsys, tmp_path, monkeypatch):
    spath = tmp_path / "sp.txt"
    spath.write_text("# genus=2\n# horizon=3\n3.0 2\n4.0 2\n")
    calls = [
        ("special", "eval", "--fn", "nosuch", "--s", "1"),
        ("--out", str(tmp_path / "base.txt"), "fe", "derive-base"),
        ("fe", "derive-base"),
        ("zeta", "eval", "--spectrum", str(spath), "--s", "4",
         "--motive=-1=1,0=-1"),
        ("zeta", "eval", "--spectrum", str(spath), "--s", "4"),
        ("special", "eval", "--fn", "sM", "--s", "0.3", "--genus", "3"),
        ("special", "eval", "--fn", "sM", "--s", "0.3"),
    ]
    cached = [run(capsys, *argv) for argv in calls]
    # a parser built afresh for each call, as if each ran in its own process
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert cached[0][0] == 2 and "invalid choice: 'nosuch'" in cached[0][2]
    assert cached[1][1] == "" and cached[2][1].startswith("claim: ")
    assert cached[3][1] != cached[4][1] and cached[5][1] != cached[6][1]


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "special", "eval", "--fn", "nosuch", "--s", "1")
    assert code == 2


@pytest.mark.parametrize("key", ["threads", "target_rel_tol"])
def test_removed_knobs_rejected(capsys, key):
    # no such option exists on any command: each is a usage error
    code, _, err = run(capsys, "special", "check", "--config", "x",
                       "--identity", "ladder")
    assert code == 2 and "--config" in err
    code, _, _ = run(capsys, "--" + key.replace("_", "-"), "2",
                     "fe", "derive-base")
    assert code == 2


@pytest.mark.parametrize("command", [
    ("zeta", "eval", "--spectrum", "sp.txt", "--s", "2"),
    ("spectrum", "bolza", "--max-word-len", "2", "--out", "new.txt"),
    ("fe", "derive-base"),
])
@pytest.mark.parametrize("option", [("--genus", "3")])
def test_surface_options_only_on_special(capsys, tmp_path, monkeypatch,
                                         command, option):
    # --genus belongs to `special eval` and `special check`; before any
    # other command it is a usage error that names itself, not ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sp.txt").write_text("# genus=2\n# horizon=3\n3.0 2\n")
    assert run(capsys, *command)[0] == 0
    (tmp_path / "new.txt").unlink(missing_ok=True)
    code, out, err = run(capsys, *option, *command)
    assert (code, out) == (2, "")
    assert err == ("error: --genus is an option of `special eval` and "
                   "`special check`; put it after the subcommand\n")
    assert not (tmp_path / "new.txt").exists()


@pytest.mark.parametrize("argv,option", [
    (("special", "eval", "--fn", "s2", "--s", "0.5", "--w", "3"), "--w"),
    (("special", "eval", "--fn", "gamma2", "--s", "0.5", "--r", "4"), "--r"),
    (("special", "eval", "--fn", "gamma2", "--s", "0.5", "--genus", "7"),
     "--genus"),
    (("special", "check", "--identity", "ladder", "--genus", "9"), "--genus"),
])
def test_unread_special_option_exit_2(capsys, argv, option):
    # an option the chosen function or identity does not read is refused,
    # not accepted and ignored
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option} is read only by ")
    assert err.count("\n") == 1


def test_pgt_points_capped_before_allocating(capsys, tmp_path, monkeypatch):
    def no_table(*args):
        raise AssertionError("the table was built")
    monkeypatch.setattr(geodesics, "pgt_table", no_table)
    spath = tmp_path / "sp.txt"
    spath.write_text("# genus=2\n# horizon=3\n3.0 2\n")
    cap = cli._PGT_MAX_POINTS
    code, out, err = run(capsys, "pgt", "--spectrum", str(spath),
                         "--xmax", "50", "--points", str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: --points must be in 1..{cap}, got {cap + 1}\n"


def test_spectrum_bolza_status_to_top_level_out(capsys, tmp_path):
    status, spath = tmp_path / "status.txt", tmp_path / "sp.txt"
    code, out, err = run(capsys, "--out", str(status), "spectrum", "bolza",
                         "--max-word-len", "2", "--out", str(spath))
    assert (code, out, err) == (0, "", "")
    assert spath.read_text().startswith("# genus=2\n")
    lines = status.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("wrote ") and lines[0].endswith(f" to {spath}")
    assert lines[1].startswith("systole = ")
    assert lines[2].startswith("horizon = ")


@pytest.mark.parametrize("text, message", [
    (b"# genus=2\n# source=caf\xe9\n# horizon=0\n3.0 2\n",
     "codec can't decode byte 0xe9"),
    (b"# genus=1\n# horizon=0\n3.0 2\n", "genus must be >= 2, got 1"),
    (b"# genus=2\n# horizon=0\n3.0 0\n",
     "multiplicity must be >= 1 at length 3.0"),
    (b"# genus=2\n# horizon=0\n3.0 2\n3.0000000001 2\n",
     "lengths must increase by more than 1e-09: 3.0 then 3.0000000001"),
    (b"# genus=2\n# horizon=0\n3.0 99999999999999999\n",
     "more than 2**53 classes"),
    (b"# genus=2\n# horizon=3\n3.0 2\ninf 2\n",
     "lengths must be finite, got inf"),
], ids=["not-utf-8", "genus", "multiplicity", "close-lengths", "classes",
        "infinite-length"])
def test_spectrum_file_refusal_names_the_file(capsys, tmp_path, text,
                                              message):
    spath = tmp_path / "sp.txt"
    spath.write_bytes(text)
    code, out, err = run(capsys, "zeta", "eval", "--spectrum", str(spath),
                         "--s", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {spath}:0: ")
    assert message in err and err.count("\n") == 1


def test_spectrum_file_horizon_past_the_last_length(capsys, tmp_path):
    """A spectrum complete to length 9 may end before 9: the file loads,
    and pgt warns of lower bounds only past e^9."""
    spath = tmp_path / "sp.txt"
    spath.write_bytes(b"# genus=2\n# horizon=9\n3.0 2\n")
    code, out, err = run(capsys, "zeta", "eval", "--spectrum", str(spath),
                         "--s", "2")
    assert (code, err) == (0, "")
    assert out.startswith("value = ")
    code, out, err = run(capsys, "pgt", "--spectrum", str(spath),
                         "--xmax", "8000", "--points", "3")
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "pgt", "--spectrum", str(spath),
                       "--xmax", "9000", "--points", "3")
    assert code == 0
    assert err.startswith("warning: 1 of 3 points lie beyond the "
                          "completeness horizon exp(9.000000)")


@pytest.mark.parametrize("xmax, last", [
    ("30000", "3.0000000000000000e+04"),
    ("1e300", "1.0000000000000001e+300"),   # the double nearest 1e300
])
@pytest.mark.parametrize("points", ["1", "2", "5"])
def test_pgt_last_point_is_xmax(capsys, tmp_path, xmax, last, points):
    """The last row is counted at --xmax itself, not at exp(log(xmax)),
    and the first, given two points or more, at e^1.1."""
    spath = tmp_path / "sp.txt"
    spath.write_bytes(b"# genus=2\n# horizon=9\n3.0 2\n")
    code, out, _ = run(capsys, "pgt", "--spectrum", str(spath),
                       "--xmax", xmax, "--points", points)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == int(points)
    assert rows[-1].split(",")[0] == last
    if points != "1":
        assert rows[0].split(",")[0] == f"{math.exp(1.1):.16e}"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_spectrum_bolza_write_error_names_the_out_path(capsys, tmp_path,
                                                       where):
    """The file is written to a temp file beside --out and renamed; an
    error names --out, and no temp file is left behind."""
    if where == "missing-dir":
        spath = tmp_path / "no" / "such" / "x.txt"
        reason, left = "[Errno 2] No such file or directory", []
    else:
        spath = tmp_path / "x.txt"
        spath.mkdir()
        reason, left = "[Errno 21] Is a directory", ["x.txt"]
    code, out, err = run(capsys, "spectrum", "bolza", "--max-word-len", "3",
                         "--out", str(spath))
    assert (code, out) == (2, "")
    assert err == f"error: {reason}: '{spath}'\n"
    assert [p.name for p in tmp_path.iterdir()] == left
