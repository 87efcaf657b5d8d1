import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

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


def test_heat_solve(tmp_path):
    assert run("--out", str(tmp_path), "heat", "solve",
               "--coeff-kind", "power", "--kappa", "1", "--beta", "1",
               "--u0", "first_mode", "--T", "100") == 0
    names, cols = read_csv_columns(str(tmp_path / "heat_trace.csv"))
    assert np.all(cols["E"] <= cols["bound_upper"] * (1 + 1e-12))
    # E = sqrt(coeff^2) underflows before the directly computed bound does
    live = cols["E"] > 1e-300
    assert np.all(cols["bound_lower"][live] <= cols["E"][live] * (1 + 1e-12))


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
    # one mode has no mean-zero data and no positive Neumann eigenvalue
    ["subdiffusion", "solve", "--alpha", "0.5", "--modes", "1", "--u0",
     "mean_zero"],
    ["heat", "solve", "--modes", "1", "--u0", "mean_zero"],
    ["subdiffusion", "solve", "--alpha", "0.5", "--modes", "1", "--bc",
     "neumann", "--u0", "constant"],
], ids=["bad-geometry", "bad-poly", "zero-poly-constant", "poly-sign-change",
        "missing-input", "undecodable-input", "sweep-T-inf", "T-nan",
        "l-inf", "m-inf", "l-nan", "z-nan", "z-inf", "z-minus-inf",
        "window-zero", "window-negative",
        "window-nan", "repeated-column", "grading-nan", "grading-inf",
        "grading-coinciding-nodes", "nonlinear-grading-inf",
        "mean-zero-one-mode", "heat-mean-zero-one-mode",
        "neumann-one-mode"])
def test_bad_input_is_config_error(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.ini").write_text("[scan]\nT = inf\npoints = 15\n")
    (tmp_path / "binary.dat").write_bytes(b"\x89\xff\xfe\x00")
    t = np.logspace(-1, 3, 200)
    write_csv_atomic("slow.dat", ["t", "E"], [t, t ** -0.3])
    write_csv_atomic("repeat.dat", ["t", "E", "E"], [t, 1.0 / t, 2.0 / t])
    assert run("--out", str(tmp_path), *argv) == 2
    assert not list(tmp_path.glob("*.csv"))


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
    (errors.NonpositivePrimitive, "numeric failure", 5),
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
