import math

import pytest

from selbergfe import geodesics
from selbergfe.cli import load_config, main


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


def test_special_eval_fe_factor_domain_error(capsys):
    code, _, err = run(capsys, "special", "eval", "--fn", "fe-factor",
                       "--s", "1.5")
    assert code == 2
    assert "error" in err


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


def test_special_eval_zr_needs_w(capsys):
    code, _, err = run(capsys, "special", "eval", "--fn", "zr", "--s", "1.0")
    assert code == 2


def test_special_check_identities(capsys):
    for identity in ("ode", "ladder", "fe-integral", "reduction"):
        code, out, _ = run(capsys, "special", "check", "--genus", "2",
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
    with pytest.warns(UserWarning, match="completeness horizon"):
        code, _, _ = run(capsys, "--out", out_csv, "pgt", "--spectrum", spath,
                         "--xmax", "50", "--points", "5")
    assert code == 0
    lines = (tmp_path / "pgt.csv").read_text().strip().splitlines()
    assert lines[0] == "x,count,x_over_logx,ratio"
    assert len(lines) == 6


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
def test_zeta_eval_length_too_short_exit_2(capsys, tmp_path, recwarn, argv):
    """exp(-1e-300 s) rounds to 1: one error line, no numpy warning."""
    spath = tmp_path / "sp.txt"
    spath.write_text("# genus=2\n# horizon=0\n1e-300 2\n3.0 2\n")
    code, out, err = run(capsys, "zeta", "eval", "--spectrum", str(spath),
                         *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: exp(-1e-300 s) rounds to 1 at s = ")
    assert err.count("\n") == 1
    assert not recwarn.list


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


def test_spectrum_bolza_golden_output(capsys, tmp_path):
    spath = str(tmp_path / "sp.txt")
    code, out, err = run(capsys, "spectrum", "bolza",
                         "--max-word-len", "6", "--out", spath)
    assert (code, err) == (0, "")
    assert out == (f"wrote 466 length entries (23636 classes) to {spath}\n"
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


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "special", "eval", "--fn", "nosuch", "--s", "1")
    assert code == 2


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("genus = 3\neuler_maclaurin_cutoff = 32\n")
    code, out, _ = run(capsys, "special", "check", "--config", str(cfg),
                       "--identity", "fe-integral")
    assert code == 0


def test_config_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("genus = 1\n")  # invalid on its own
    code, _, err = run(capsys, "special", "check", "--config", str(cfg),
                       "--identity", "ladder")
    assert code == 2
    code, _, _ = run(capsys, "special", "check", "--config", str(cfg),
                     "--genus", "2", "--identity", "ladder")
    assert code == 0


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


@pytest.mark.parametrize("key", ["threads", "target_rel_tol"])
def test_removed_knobs_rejected(capsys, tmp_path, key):
    # neither knob did anything; a config that still sets one is refused
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(cfg))
    code, _, err = run(capsys, "special", "check", "--config", str(cfg),
                       "--identity", "ladder")
    assert code == 2 and "unknown config key" in err
    code, _, _ = run(capsys, "--threads", "2", "fe", "derive-base")
    assert code == 2


@pytest.mark.parametrize("command", [
    ("zeta", "eval", "--spectrum", "sp.txt", "--s", "2"),
    ("spectrum", "bolza", "--max-word-len", "2", "--out", "new.txt"),
    ("fe", "derive-base"),
])
@pytest.mark.parametrize("option", [("--genus", "3"), ("--config", "run.cfg")])
def test_surface_options_only_on_special(capsys, tmp_path, monkeypatch,
                                         command, option):
    # --genus and --config belong to `special eval` and `special check`;
    # before any other command they are usage errors, not ignored
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("genus = 3\n")
    (tmp_path / "sp.txt").write_text("# genus=2\n# horizon=3\n3.0 2\n")
    assert run(capsys, *command)[0] == 0
    (tmp_path / "new.txt").unlink(missing_ok=True)
    code, out, _ = run(capsys, *option, *command)
    assert (code, out) == (2, "")
    assert not (tmp_path / "new.txt").exists()


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
