import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdecay import cli, errors
from fracdecay.cli import main
from fracdecay.io import read_csv_columns, write_csv_atomic


def run(*argv):
    return main(list(argv))


def test_specfun_eval_with_bounds(capsys):
    assert run("specfun", "eval", "--alpha", "0.5", "--m", "2",
               "--l", "1", "--z", "-1") == 0
    fields = capsys.readouterr().out.strip().split("\t")
    assert len(fields) == 3
    v, lo, hi = map(float, fields)
    assert lo <= v <= hi
    assert v == pytest.approx(0.48571956423992094, rel=1e-9)


def test_specfun_eval_plain_value(capsys):
    assert run("specfun", "eval", "--alpha", "1", "--m", "2",
               "--l", "1", "--z", "1") == 0
    v = float(capsys.readouterr().out.strip())
    assert v == pytest.approx(math.exp(0.5), rel=1e-12)


def test_specfun_pole_is_config_error():
    assert run("specfun", "eval", "--alpha", "0.5", "--m", "1",
               "--l", "-2", "--z", "1") == 2


def test_ode_solve_writes_envelope_columns(tmp_path, capsys):
    assert run("--out", str(tmp_path), "ode", "solve", "--alpha", "0.5",
               "--beta", "0.5", "--delta", "2", "--nu", "1", "--h0", "1",
               "--T", "50", "--steps", "256") == 0
    names, cols = read_csv_columns(str(tmp_path / "ode_trace.csv"))
    assert names == ["t", "H", "sub_envelope", "super_envelope"]
    inner = slice(1, None)
    assert np.all(cols["H"][inner] <= cols["super_envelope"][inner] * (1 + 1e-9))


def test_ode_solve_checks_alpha_before_solving(tmp_path, monkeypatch):
    # the envelopes refuse alpha = 1 before any step is taken
    def no_solve(*args):
        raise AssertionError("solved before the alpha check")
    monkeypatch.setattr(cli, "solve_semilinear", no_solve)
    assert run("--out", str(tmp_path), "ode", "solve", "--alpha", "1",
               "--beta", "0.5", "--delta", "2", "--nu", "1", "--h0", "1",
               "--steps", "65536") == 2


def test_ode_solve_large_data_keeps_the_exact_root(tmp_path):
    # the first step's root is 1.0660681694172987e19; an absolute root
    # tolerance of 1e-14 * rhs once returned 0 at every step here
    assert run("--out", str(tmp_path), "ode", "solve", "--alpha", "0.5",
               "--beta", "0.5", "--delta", "3", "--nu", "1",
               "--h0", "1e50") == 0
    _, cols = read_csv_columns(str(tmp_path / "ode_trace.csv"))
    assert np.all(cols["H"] > 0)
    assert cols["H"][1] == pytest.approx(1.0660681694172987e19, rel=1e-12)


@pytest.mark.parametrize("h0", ["1e110", "1e200", "1e-200"])
def test_ode_solve_huge_data_neither_raises_nor_warns(tmp_path, capsys, h0):
    # H0^(delta-1) leaves the float range at 1e200 and 1e-200
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run("--out", str(tmp_path), "ode", "solve", "--alpha", "0.5",
                 "--beta", "0.5", "--delta", "3", "--nu", "1", "--h0", h0)
    assert rc == 0
    _, cols = read_csv_columns(str(tmp_path / "ode_trace.csv"))
    for name in ("sub_envelope", "super_envelope"):
        assert np.isfinite(cols[name]).all()
    assert np.all(cols["H"] <= cols["super_envelope"])


# One fresh interpreter: the package, then the four commands that never
# step, then an ODE solve.  Prints which modules were loaded after each part.
_FOOTPRINT = """
import json, sys
import fracdecay, fracdecay.cli
from fracdecay.cli import main
out, names = sys.argv[1], sys.argv[2:]
loaded = lambda: {m: m in sys.modules for m in names}
stages = [loaded()]
codes = [main(argv) for argv in (
    ["specfun", "eval", "--alpha", "0.5", "--m", "2", "--l", "0.5",
     "--z", "-5"],
    ["--out", out, "subdiffusion", "solve", "--alpha", "0.5", "--beta",
     "0.5", "--modes", "8", "--T", "1000"],
    ["--out", out, "heat", "solve", "--modes", "8"],
    ["decay", "fit", "--input", out + "/subdiffusion_trace.csv",
     "--exponent", "1"])]
stages.append(loaded())
codes.append(main(["--out", out, "ode", "solve", "--alpha", "0.5", "--beta",
                   "0.5", "--delta", "2", "--nu", "1", "--h0", "1"]))
stages.append(loaded())
print(json.dumps([codes, stages]))
"""


def test_import_does_not_load_scipy_optimize(tmp_path):
    # scipy.special is not used, and scipy.linalg (BLAS dgemm, LAPACK gtsv)
    # loads at the first march, not with the package or a spectral command;
    # scipy and mpmath stay loaded, since the benchmark worker reads their
    # versions from sys.modules
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    names = ["scipy", "scipy.special", "mpmath", "scipy.optimize",
             "scipy.linalg"]
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, str(tmp_path),
                           *names], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, stages = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0]
    for stage in stages:
        assert stage["scipy"] and stage["mpmath"]
        assert not stage["scipy.optimize"]
    for stage in stages[:2]:
        assert not stage["scipy.special"] and not stage["scipy.linalg"]
    assert stages[-1]["scipy.linalg"]


def test_subdiffusion_solve_and_fit_pipeline(tmp_path, capsys):
    assert run("--out", str(tmp_path), "subdiffusion", "solve",
               "--alpha", "0.5", "--beta", "0.5", "--modes", "16",
               "--u0", "parabola", "--T", "1000") == 0
    path = str(tmp_path / "subdiffusion_trace.csv")
    assert os.path.exists(path)
    assert run("decay", "fit", "--input", path, "--exponent", "1") == 0
    out = capsys.readouterr().out
    assert "sandwich_ok" in out


def test_subdiffusion_neumann_plateau_is_ok(tmp_path, capsys):
    # constant Neumann data keeps E = |u00|: the plateau branch of the
    # Neumann dichotomy, not a violated decay
    assert run("--out", str(tmp_path), "subdiffusion", "solve",
               "--alpha", "0.5", "--beta", "0.5", "--bc", "neumann",
               "--modes", "8", "--u0", "constant", "--T", "100") == 0
    assert "upper_only_ok" in capsys.readouterr().out
    _, cols = read_csv_columns(str(tmp_path / "subdiffusion_trace.csv"))
    assert np.all(cols["bound_lower"] <= cols["E"])
    assert np.all(cols["E"] <= cols["bound_upper"])


@pytest.mark.parametrize("extra",
                         [[], ["--bc", "neumann", "--u0", "mean_zero"]],
                         ids=["dirichlet", "neumann-mean-zero"])
def test_subdiffusion_default_beta_is_ok(tmp_path, capsys, extra):
    # beta = 0 puts every mode on E_alpha(-lam t^alpha), the m = 1 decay
    # form, whose deep arguments take the flagged surrogate
    assert run("--out", str(tmp_path), "subdiffusion", "solve",
               "--alpha", "0.5", *extra) == 0
    assert "sandwich_ok" in capsys.readouterr().out


@pytest.mark.parametrize("argv, verdict", [
    (["--bc", "neumann", "--geometry", "rectangle:3,2", "--modes", "9",
      "--u0", "mean_zero", "--alpha", "0.8", "--beta", "0.4", "--T", "300"],
     "sandwich_ok"),
    (["--alpha", "0.5", "--beta", "0.5", "--u0", "parabola", "--T", "100"],
     "sandwich_ok"),
    (["--alpha", "0.9", "--beta", "-0.3", "--T", "100"], "sandwich_ok"),
    (["--alpha", "1", "--beta", "0.5"], "upper_only_ok"),
], ids=["neumann-rectangle", "parabola-short", "beta-negative", "alpha-one"])
def test_subdiffusion_short_horizons_are_ok(tmp_path, capsys, argv, verdict):
    # closed-form traces whose tail has not settled by T are still inside
    # their explicit modal bounds; at alpha = 1 only the upper bound exists
    assert run("--out", str(tmp_path), "subdiffusion", "solve", *argv) == 0
    assert verdict in capsys.readouterr().out


def test_heat_solve(tmp_path):
    assert run("--out", str(tmp_path), "heat", "solve",
               "--coeff-kind", "power", "--kappa", "1", "--beta", "1",
               "--u0", "first_mode", "--T", "100") == 0
    names, cols = read_csv_columns(str(tmp_path / "heat_trace.csv"))
    assert np.all(cols["E"] <= cols["bound_upper"] * (1 + 1e-12))
    # E = sqrt(coeff^2) underflows before the directly computed bound does
    live = cols["E"] > 1e-300
    assert np.all(cols["bound_lower"][live] <= cols["E"][live] * (1 + 1e-12))


def test_heat_neumann_bounds_hold(tmp_path):
    # mean-zero Neumann data decays with the first positive eigenvalue on
    # both sides; E = sqrt(sum u_k^2) underflows to 0 before the bounds do
    assert run("--out", str(tmp_path), "heat", "solve", "--bc", "neumann",
               "--u0", "mean_zero") == 0
    _, cols = read_csv_columns(str(tmp_path / "heat_trace.csv"))
    live = cols["E"] > 0
    assert live.sum() > 100
    assert np.all(cols["bound_lower"][live] <= cols["E"][live] * (1 + 1e-12))
    assert np.all(cols["E"] <= cols["bound_upper"] * (1 + 1e-12))
    assert cols["bound_upper"][-1] < 1e-100


def test_heat_solve_needs_no_alpha(tmp_path):
    # the heat equation has no fractional order, so --alpha is not a flag
    assert run("--out", str(tmp_path), "heat", "solve", "--coeff-kind",
               "logarithmic", "--p", "3") == 0
    assert run("--out", str(tmp_path), "heat", "solve", "--alpha", "1") == 2


def test_nonlinear_solve(tmp_path, capsys):
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--operator", "p_laplace", "--p", "3", "--alpha", "0.5",
               "--beta", "0.5", "--points", "63", "--steps", "128") == 0
    names, _ = read_csv_columns(str(tmp_path / "nonlinear_trace.csv"))
    assert names == ["t", "E", "predicted_bound"]


def test_nonlinear_hypothesis_violation_names_key(tmp_path, capsys):
    code = run("--out", str(tmp_path), "nonlinear", "solve",
               "--alpha", "0.5", "--beta", "-0.5",
               "--points", "63", "--steps", "64")
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_nonlinear_zero_kappa_names_key(tmp_path, capsys):
    code = run("--out", str(tmp_path), "nonlinear", "solve", "--kappa", "0",
               "--points", "63", "--steps", "64")
    assert code == 2
    err = capsys.readouterr().err
    assert "kappa" in err and "beta" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_nonlinear_sweep_file(tmp_path, capsys):
    exp = tmp_path / "sweep.ini"
    exp.write_text("[scan]\noperator = porous_medium\nm = 1, 2\n"
                   "points = 63\nsteps = 256\nT = 200\n")
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--experiment", str(exp)) == 0
    assert os.path.exists(tmp_path / "nonlinear_trace_scan_m1.csv")
    assert os.path.exists(tmp_path / "nonlinear_trace_scan_m2.csv")


def test_nonlinear_sweep_unknown_key(tmp_path):
    exp = tmp_path / "sweep.ini"
    exp.write_text("[scan]\nwavelength = 3\n")
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--experiment", str(exp)) == 2


@pytest.mark.parametrize("entry", ["alpha = abc", "steps = abc", "func = 3",
                                   "u0-preset = 5%"],
                         ids=["bad-float", "bad-int", "internal-key",
                              "bad-interpolation"])
def test_nonlinear_sweep_bad_entry(tmp_path, entry):
    exp = tmp_path / "sweep.ini"
    exp.write_text(f"[scan]\n{entry}\npoints = 15\n")
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--experiment", str(exp)) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_failed_sweep_leaves_no_partial_artifacts(tmp_path, capsys):
    # the second run breaks the coefficient hypothesis beta > -alpha
    exp = tmp_path / "sweep.ini"
    exp.write_text("[scan]\nbeta = 0.5, -0.6\npoints = 15\nsteps = 32\n")
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--experiment", str(exp)) == 2
    assert not list(tmp_path.glob("*.csv"))
    assert capsys.readouterr().out == ""


def test_sweep_points_with_one_file_name_rejected(tmp_path):
    # both betas print as 0.5 under the 6-digit file-name format
    exp = tmp_path / "sweep.ini"
    exp.write_text("[scan]\nbeta = 0.5000001, 0.5000002\npoints = 15\n"
                   "steps = 32\n")
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--experiment", str(exp)) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_empty_sweep_is_ok(tmp_path):
    exp = tmp_path / "empty.ini"
    exp.write_text("")
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--experiment", str(exp)) == 0


def test_decay_fit_violation_exit_code(tmp_path, capsys):
    t = np.logspace(-1, 3, 200)
    write_csv_atomic(str(tmp_path / "slow.csv"), ["t", "E"],
                     [t, 1.0 / (1.0 + np.sqrt(t))])
    assert run("decay", "fit", "--input", str(tmp_path / "slow.csv"),
               "--exponent", "1", "--one-sided") == 3


@pytest.mark.parametrize("argv, stream", [
    (["decay", "fit", "--input", "zero.csv", "--exponent", "1"], "out"),
    (["subdiffusion", "solve", "--alpha", "0.5", "--u0", "0,0,0,0",
      "--modes", "4"], "out"),
    (["decay", "fit", "--input", "slow.csv", "--exponent", "nan"], "err"),
    (["decay", "fit", "--input", "slow.csv", "--exponent", "1",
      "--window", "0.001"], "out"),
], ids=["decay-fit", "subdiffusion-solve", "exponent-nan",
        "window-too-narrow"])
def test_decay_fit_degenerate_exit_code(tmp_path, monkeypatch, capsys, argv,
                                        stream):
    # a zero trace is `degenerate` with one exit status from every command,
    # and so are an envelope exponent that is not positive and finite and a
    # fit window too narrow to hold 10 points
    monkeypatch.chdir(tmp_path)
    t = np.logspace(-1, 3, 200)
    write_csv_atomic("zero.csv", ["t", "E"], [t, np.zeros_like(t)])
    write_csv_atomic("slow.csv", ["t", "E"], [t, t ** -0.3])
    assert run("--out", str(tmp_path), *argv) == 4
    assert "degenerate" in getattr(capsys.readouterr(), stream)


def test_decay_fit_overflowing_exponent_is_degenerate(tmp_path, capsys):
    # 1 + t^1000 overflows at the trace's last times (t up to 1e3): the
    # exponent is named in a degenerate error, with no overflow warning
    t = np.logspace(-1, 3, 200)
    path = str(tmp_path / "slow.csv")
    write_csv_atomic(path, ["t", "E"], [t, t ** -0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("decay", "fit", "--input", path, "--exponent", "1000") == 4
    assert capsys.readouterr().err.startswith(
        "degenerate: envelope exponent 1000 overflows")


def test_decay_fit_model_selection(tmp_path, capsys):
    t = np.logspace(-1, 3, 200)
    write_csv_atomic(str(tmp_path / "pow.csv"), ["t", "E"],
                     [t, 2.0 / (1.0 + t)])
    assert run("decay", "fit", "--input", str(tmp_path / "pow.csv")) == 0
    assert "power" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["subdiffusion", "solve", "--alpha", "0.5", "--geometry", "interval:abc"],
    ["heat", "solve", "--coeff-kind", "polynomial", "--poly", "1,abc"],
    ["heat", "solve", "--coeff-kind", "polynomial", "--poly", "0,1"],
    ["heat", "solve", "--coeff-kind", "polynomial", "--poly", "1,-1"],
    # a(t) = 0, and A(t) < 0 on (0, 1), break the hypothesis A(t) > 0
    ["heat", "solve", "--coeff-kind", "polynomial", "--poly", "1"],
    ["heat", "solve", "--coeff-kind", "polynomial", "--poly", "2,-1,1"],
    ["decay", "fit", "--input", "missing.csv"],
    ["decay", "fit", "--input", "binary.dat"],
    ["nonlinear", "solve", "--experiment", "inf.ini"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "1", "--T", "nan"],
    ["specfun", "eval", "--alpha", "0.5", "--m", "2", "--l", "inf",
     "--z", "-1"],
    ["specfun", "eval", "--alpha", "0.5", "--m", "inf", "--l", "1",
     "--z", "-1"],
    ["specfun", "eval", "--alpha", "0.5", "--m", "2", "--l", "nan",
     "--z", "-1"],
    ["specfun", "eval", "--alpha", "0.5", "--m", "2", "--l", "1",
     "--z", "nan"],
    ["specfun", "eval", "--alpha", "0.5", "--m", "2", "--l", "1",
     "--z=inf"],
    ["specfun", "eval", "--alpha", "0.5", "--m", "2", "--l", "1",
     "--z=-inf"],
    # a window with no points in it would let any slope pass as 0
    ["decay", "fit", "--input", "slow.dat", "--exponent", "1",
     "--window", "0"],
    ["decay", "fit", "--input", "slow.dat", "--exponent", "1",
     "--window", "-1"],
    ["decay", "fit", "--input", "slow.dat", "--exponent", "1",
     "--window", "nan"],
    ["decay", "fit", "--input", "repeat.dat", "--exponent", "1"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "1", "--grading", "nan"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "1", "--grading", "inf"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "1", "--grading", "200"],
    ["nonlinear", "solve", "--grading", "inf"],
    ["nonlinear", "solve", "--alpha", "0"],
    ["ode", "solve", "--alpha", "0", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "1"],
    # one mode has no mean-zero data and no positive Neumann eigenvalue
    ["subdiffusion", "solve", "--alpha", "0.5", "--modes", "1", "--u0",
     "mean_zero"],
    ["heat", "solve", "--modes", "1", "--u0", "mean_zero"],
    ["subdiffusion", "solve", "--alpha", "0.5", "--modes", "1", "--bc",
     "neumann", "--u0", "constant"],
    # a non-finite parameter is a usage error, not a numeric failure, a
    # warning, a NaN CSV or an error about another input
    ["nonlinear", "solve", "--operator", "p_laplace", "--p", "nan"],
    ["nonlinear", "solve", "--operator", "porous_medium", "--m", "nan"],
    ["nonlinear", "solve", "--operator", "kirchhoff", "--gamma", "nan"],
    ["nonlinear", "solve", "--operator", "degenerate", "--q", "nan"],
    ["nonlinear", "solve", "--source", "power_absorption", "--mu", "nan"],
    ["nonlinear", "solve", "--source", "power_absorption", "--mu", "inf"],
    ["nonlinear", "solve", "--L", "nan"],
    ["nonlinear", "solve", "--L", "inf"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "nan",
     "--nu", "1", "--h0", "1"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "inf", "--h0", "1"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "nan", "--h0", "1"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "inf"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "nan", "--delta", "2",
     "--nu", "1", "--h0", "1"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "inf", "--delta", "2",
     "--nu", "1", "--h0", "1"],
    ["subdiffusion", "solve", "--alpha", "0.5", "--geometry", "interval:inf"],
    ["subdiffusion", "solve", "--alpha", "0.5", "--geometry", "interval:nan"],
    ["heat", "solve", "--geometry", "interval:nan"],
    ["heat", "solve", "--geometry", "rectangle:1,nan"],
    ["heat", "solve", "--kappa", "nan"],
    ["heat", "solve", "--beta", "nan"],
    ["heat", "solve", "--coeff-kind", "polynomial", "--poly", "1,inf"],
    # finite values outside the DOMAINS table, which used to end in a
    # warning or overflow traceback, or an error about another quantity
    ["ode", "solve", "--alpha", "1e-300", "--beta", "0.5", "--delta", "2",
     "--nu", "1", "--h0", "1"],
    ["ode", "solve", "--alpha", "0.5", "--beta", "1e6", "--delta", "2",
     "--nu", "1", "--h0", "1"],
    ["heat", "solve", "--coeff-kind", "exponential_rate", "--beta", "1e6"],
    ["nonlinear", "solve", "--L", "1e-300"],
    ["heat", "solve", "--geometry", "interval:1e-300"],
    ["subdiffusion", "solve", "--alpha", "1e-9"],
    ["decay", "fit", "--input", "slow.dat", "--exponent", "1",
     "--window", "400"],
], ids=["bad-geometry", "bad-poly", "zero-poly-constant", "poly-sign-change",
        "poly-zero-primitive", "poly-negative-primitive", "missing-input",
        "undecodable-input", "sweep-T-inf", "T-nan",
        "l-inf", "m-inf", "l-nan", "z-nan", "z-inf", "z-minus-inf",
        "window-zero", "window-negative",
        "window-nan", "repeated-column", "grading-nan", "grading-inf",
        "grading-coinciding-nodes", "nonlinear-grading-inf",
        "nonlinear-alpha-zero", "ode-alpha-zero",
        "mean-zero-one-mode", "heat-mean-zero-one-mode",
        "neumann-one-mode", "p-nan", "m-nan", "gamma-nan", "q-nan",
        "mu-nan", "mu-inf", "L-nan", "L-inf", "delta-nan", "nu-inf",
        "nu-nan", "h0-inf", "ode-beta-nan", "ode-beta-inf",
        "interval-inf", "interval-nan", "heat-interval-nan",
        "heat-rectangle-nan", "kappa-nan", "heat-beta-nan", "poly-inf",
        "ode-alpha-tiny", "ode-beta-huge", "heat-exponential-beta-huge",
        "L-tiny", "heat-interval-tiny", "subdiffusion-alpha-tiny",
        "window-huge"])
def test_bad_input_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.ini").write_text("[scan]\nT = inf\npoints = 15\n")
    (tmp_path / "binary.dat").write_bytes(b"\x89\xff\xfe\x00")
    t = np.logspace(-1, 3, 200)
    write_csv_atomic("slow.dat", ["t", "E"], [t, t ** -0.3])
    write_csv_atomic("repeat.dat", ["t", "E", "E"], [t, 1.0 / t, 2.0 / t])
    assert run("--out", str(tmp_path), *argv) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_alpha_out_of_range_names_alpha(tmp_path, capsys):
    # without --grading the grading is derived from alpha, which is checked
    # first, so the message is about alpha, not the grading exponent
    assert run("--out", str(tmp_path), "nonlinear", "solve",
               "--alpha", "1.5") == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, name", [
    ("--geometry", "interval:nan", "finite L"), ("--beta", "nan", "beta"),
    ("--alpha", "1e-9", "alpha")])
def test_nan_parameter_names_itself(tmp_path, capsys, flag, value, name):
    # a NaN length used to reach the Kilbas-Saigo argument, and the
    # message named z; a NaN beta, its indices m and l; alpha = 1e-9, the
    # Kilbas-Saigo bounds ("lower bound exceeds upper bound")
    assert run("--out", str(tmp_path), "subdiffusion", "solve", "--alpha",
               "0.5", flag, value) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("error, prefix, code", [
    (errors.ConfigError, "error", 2),
    (errors.DomainError, "error", 2),
    (errors.InadmissibleParams, "error", 2),
    (errors.DegenerateTrace, "degenerate", 4),
    (errors.AmbiguousFit, "degenerate", 4),
    (errors.PositivityLoss, "violation", 3),
    (errors.NonConvergence, "numeric failure", 5),
    (errors.RootSolveFailure, "numeric failure", 5),
    (errors.NonFiniteState, "numeric failure", 5),
    (errors.StepDivergence, "numeric failure", 5),
    (errors.QuadratureUnderResolved, "numeric failure", 5),
    (errors.NonpositivePrimitive, "error", 2),
])
def test_error_family_prefix_and_exit_code(monkeypatch, capsys, error,
                                           prefix, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_specfun_eval", fail)
    assert run("specfun", "eval", "--alpha", "0.5", "--m", "1", "--l", "0",
               "--z", "1") == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_unknown_flag_is_config_error():
    assert run("specfun", "eval", "--frobnicate", "1") == 2


def test_fast_reproduce_writes_table_and_csvs(tmp_path, capsys):
    assert run("--out", str(tmp_path), "--tolerance-profile", "fast",
               "reproduce") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[1] for ln in lines[:-1]] == ["PASS"] * 12
    assert lines[-1] == "12/12 checks passed"
    assert len(list(tmp_path.glob("*.csv"))) == 17


def test_seeded_random_data_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        # the verdict on random data is not the point here, only that the
        # artifact depends on nothing but the seed
        assert run("--out", str(tmp_path / sub), "--seed", "42",
                   "subdiffusion", "solve", "--alpha", "0.5",
                   "--beta", "0.5", "--modes", "8", "--u0", "random",
                   "--T", "100") in (0, 3)
    a = (tmp_path / "a" / "subdiffusion_trace.csv").read_bytes()
    b = (tmp_path / "b" / "subdiffusion_trace.csv").read_bytes()
    assert a == b


# Each command the contract test drives: its subcommand and fixed flags,
# then per flag the DOMAINS key it reads, its value and, for sizes, a cap
# that keeps a run small (64 steps, 15 points, 4 modes); "L" stands for
# --geometry=interval:L.
_CONTRACT = {
    "ode": (["ode", "solve"], {
        "--alpha": ("alpha_frac", 0.5), "--beta": ("beta", 0.5),
        "--delta": ("delta", 2.0), "--nu": ("nu", 1.0), "--h0": ("H0", 1.0),
        "--T": ("T", 100.0), "--steps": ("steps", 64, 64),
        "--grading": ("grading", 3.0)}),
    "subdiffusion": (["subdiffusion", "solve"], {
        "--alpha": ("alpha", 0.5), "--beta": ("beta", 0.5),
        "L": ("L", math.pi), "--modes": ("modes", 4, 4),
        "--T": ("T", 1e3)}),
    "heat": (["heat", "solve"], {
        "--beta": ("beta", 0.0), "--kappa": ("kappa", 1.0),
        "--p": ("log_p", 1.0), "--q": ("poly_q", 1.0), "L": ("L", math.pi),
        "--modes": ("modes", 4, 4), "--T": ("T", 1e3)}),
    "nonlinear": (["nonlinear", "solve"], {
        "--alpha": ("alpha_frac", 0.5), "--beta": ("beta", 0.5),
        "--kappa": ("kappa", 1.0), "--L": ("L", math.pi),
        "--points": ("points", 15, 15), "--steps": ("steps", 64, 64),
        "--T": ("T", 100.0), "--grading": ("grading", 3.0),
        "--p": ("p", 2.0), "--m": ("m", 0.0), "--q": ("q", 0.0),
        "--gamma": ("gamma", 0.0), "--mu": ("mu", 0.0)}),
    # the Kilbas-Saigo indices keep their own checks; only alpha is drawn
    # from the table, with m, l and z in the near band
    "specfun": (["specfun", "eval", "--m=2.0", "--l=1.0", "--z=-0.5"], {
        "--alpha": ("alpha", 0.5)}),
}
_EDGES = ("lo_in", "lo_out", "hi_in", "hi_out", "interior")
# (command, flag, where): every end of every field, inside and outside,
# an interior draw, and beta just above and at -alpha
_CASES = [(command, flag, where)
          for command, (_, flags) in _CONTRACT.items() for flag in flags
          for where in (_EDGES if command != "specfun" else
                        ("lo_in", "hi_in", "interior"))
          + (("rel_in", "rel_out") if flag == "--beta" and "--alpha" in flags
             else ())]


def _value(data, key, where, alpha, cap=None):
    """A value of DOMAINS[key]: at or next to one end, or drawn inside."""
    span = errors.DOMAINS[key]
    lo, hi = (float(x) for x in span[1:-1].split(","))
    lo_open, hi_open = span[0] == "(", span[-1] == ")"
    if cap:  # integer sizes: closed ends, the upper one capped inside
        lo, hi = int(lo), int(hi)
    if where == "interior":
        return data.draw(st.integers(lo, cap) if cap else
                         st.floats(lo, hi, exclude_min=True, exclude_max=True))
    if where.startswith("rel"):
        return -alpha if where == "rel_out" else math.nextafter(-alpha, 1.0)
    if cap:
        return {"lo_in": lo, "lo_out": lo - 1, "hi_in": cap,
                "hi_out": hi + 1}[where]
    return {"lo_in": math.nextafter(lo, hi) if lo_open else lo,
            "lo_out": lo if lo_open else math.nextafter(lo, -math.inf),
            "hi_in": math.nextafter(hi, lo) if hi_open else hi,
            "hi_out": hi if hi_open else math.nextafter(hi, math.inf)}[where]


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_cli_contract_at_the_domain_edges(data):
    # inside the DOMAINS table a command ends in a status, never a traceback
    # or a warning, and exit 0 writes a finite CSV; just outside it, or at
    # beta <= -alpha, it is a usage error that names the field
    command, flag, where = data.draw(st.sampled_from(_CASES))
    base, flags = _CONTRACT[command]
    values = {f: spec[1] for f, spec in flags.items()}
    key, _, *cap = flags[flag]
    values[flag] = _value(data, key, where, values.get("--alpha"), *cap)
    if flag == "--beta" and "--alpha" in flags and \
            values[flag] <= -values["--alpha"]:
        where = "rel_out"
    argv = base + [f"--geometry=interval:{v!r}" if f == "L" else f"{f}={v!r}"
                   for f, v in values.items()]
    if command == "heat":
        argv.append("--coeff-kind=" + data.draw(st.sampled_from(
            ["power", "exponential_rate", "logarithmic", "polynomial"])))
    if command == "nonlinear":
        argv.append("--operator=" + data.draw(st.sampled_from(cli.OPERATORS)))
        argv.append("--source=" + data.draw(st.sampled_from(cli.SOURCES)))
    with tempfile.TemporaryDirectory() as out:
        err, txt = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(txt):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["--out", out] + argv)
        if where.endswith("out"):
            name = "beta" if where == "rel_out" else key.split("_frac")[0]
            assert rc == 2 and name in err.getvalue(), (argv, err.getvalue())
        elif rc == 0 and command == "specfun":
            assert np.isfinite([float(v) for v in txt.getvalue().split()]).all()
        elif rc == 0:
            (csv,) = os.listdir(out)
            _, cols = read_csv_columns(os.path.join(out, csv))
            assert all(np.isfinite(c).all() for c in cols.values()), argv
        assert rc in (0, 2, 3, 4, 5), (argv, rc, err.getvalue())


def test_readme_domain_table_is_the_code_table():
    # README's domain table restates errors.DOMAINS: each field has a row
    # that names it and shows its interval
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [ln for ln in fh if ln.startswith("| `")]
    for name, span in errors.DOMAINS.items():
        assert any(f"`{name}`" in row and f"`{span}`" in row
                   for row in rows), name
