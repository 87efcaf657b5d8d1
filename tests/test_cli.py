import math
import os

import numpy as np
import pytest

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


def test_subdiffusion_solve_and_fit_pipeline(tmp_path, capsys):
    assert run("--out", str(tmp_path), "subdiffusion", "solve",
               "--alpha", "0.5", "--beta", "0.5", "--modes", "16",
               "--u0", "parabola", "--T", "1000") == 0
    path = str(tmp_path / "subdiffusion_trace.csv")
    assert os.path.exists(path)
    assert run("decay", "fit", "--input", path, "--exponent", "1") == 0
    out = capsys.readouterr().out
    assert "sandwich_ok" in out


def test_heat_solve(tmp_path):
    assert run("--out", str(tmp_path), "heat", "solve", "--alpha", "1",
               "--coeff-kind", "power", "--kappa", "1", "--beta", "1",
               "--u0", "first_mode", "--T", "100") == 0
    names, cols = read_csv_columns(str(tmp_path / "heat_trace.csv"))
    assert np.all(cols["E"] <= cols["bound_upper"] * (1 + 1e-12))
    # E = sqrt(coeff^2) underflows before the directly computed bound does
    live = cols["E"] > 1e-300
    assert np.all(cols["bound_lower"][live] <= cols["E"][live] * (1 + 1e-12))


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


def test_failed_sweep_leaves_no_partial_artifacts(tmp_path):
    # the second run breaks the coefficient hypothesis beta > -alpha
    exp = tmp_path / "sweep.ini"
    exp.write_text("[scan]\nbeta = 0.5, -0.6\npoints = 15\nsteps = 32\n")
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


def test_decay_fit_degenerate_exit_code(tmp_path):
    t = np.logspace(-1, 3, 200)
    write_csv_atomic(str(tmp_path / "zero.csv"), ["t", "E"],
                     [t, np.zeros_like(t)])
    assert run("decay", "fit", "--input", str(tmp_path / "zero.csv"),
               "--exponent", "1") == 4


def test_decay_fit_model_selection(tmp_path, capsys):
    t = np.logspace(-1, 3, 200)
    write_csv_atomic(str(tmp_path / "pow.csv"), ["t", "E"],
                     [t, 2.0 / (1.0 + t)])
    assert run("decay", "fit", "--input", str(tmp_path / "pow.csv")) == 0
    assert "power" in capsys.readouterr().out


def test_unknown_flag_is_config_error():
    assert run("specfun", "eval", "--frobnicate", "1") == 2


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
