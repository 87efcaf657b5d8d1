import math

import numpy as np
import pytest

from fracdecay.errors import DomainError, QuadratureUnderResolved
from fracdecay.specfun import KilbasSaigoParams, kilbas_saigo
from fracdecay.spectral import (CoefficientSpec, interval_eigensystem,
                                log_times, project_initial_data,
                                rectangle_eigensystem, solve_heat_general,
                                solve_subdiffusion, verify_dirichlet_sandwich,
                                verify_neumann)


def test_interval_eigenvalues():
    sysD = interval_eigensystem(math.pi, "dirichlet", 5)
    assert np.allclose(sysD.lambdas, [1.0, 4.0, 9.0, 16.0, 25.0])
    sysN = interval_eigensystem(math.pi, "neumann", 5)
    assert np.allclose(sysN.lambdas, [0.0, 1.0, 4.0, 9.0, 16.0])


def test_rectangle_eigenvalues_sorted():
    sysR = rectangle_eigensystem(math.pi, math.pi / 2.0, "dirichlet", 6)
    assert sysR.lambdas[0] == pytest.approx(1.0 + 4.0)
    assert np.all(np.diff(sysR.lambdas) >= 0)


def test_basis_orthonormal_under_quadrature():
    for bc in ("dirichlet", "neumann"):
        sys_ = interval_eigensystem(2.0, bc, 8)
        G = (sys_.basis * sys_.quad_weights) @ sys_.basis.T
        assert np.max(np.abs(G - np.eye(8))) < 1e-12


def test_projection_of_pure_mode_is_exact():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 8)
    u0k = project_initial_data(sys_, lambda x: np.sin(2.0 * x))
    expected = np.zeros(8)
    expected[1] = math.sqrt(math.pi / 2.0)  # ||sin(2x)|| on (0, pi)
    assert np.max(np.abs(u0k - expected)) < 1e-12


def test_underresolved_projection_raises():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 2)
    with pytest.raises(QuadratureUnderResolved):
        project_initial_data(sys_, lambda x: np.sign(x - math.pi / 2.0))


def test_single_mode_matches_special_function():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 4)
    times = np.array([0.0, 0.5, 1.0, 5.0, 10.0])
    u0k = np.array([2.0, 0.0, 0.0, 0.0])
    tr = solve_subdiffusion(sys_, 0.5, 0.5, u0k, times)
    p = KilbasSaigoParams(alpha=0.5, m=2.0, l=1.0)
    exact = 2.0 * np.array([kilbas_saigo(p, -t) for t in times])
    assert np.max(np.abs(tr.energies - exact)) < 1e-10


def test_alpha_one_reduces_to_classical_heat():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 6)
    times = log_times(10.0, t_min=1e-2)
    u0k = np.linspace(1.0, 0.1, 6)
    beta = 0.5
    tr = solve_subdiffusion(sys_, 1.0, beta, u0k, times)
    coeff = CoefficientSpec(kind="power", kappa=1.0, beta=beta)
    trh = solve_heat_general(sys_, coeff, u0k, times)
    assert np.max(np.abs(tr.energies - trh.energies)) < 1e-12


def test_energies_monotone_for_dirichlet():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 8)
    times = log_times(1e3)
    u0k = np.ones(8)
    tr = solve_subdiffusion(sys_, 0.5, 0.5, u0k, times)
    assert np.all(np.diff(tr.energies) < 0)


def test_dirichlet_sandwich_verdict():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 16)
    u0k = project_initial_data(sys_, lambda x: x * (math.pi - x))
    times = log_times(1e3)
    tr = solve_subdiffusion(sys_, 0.5, 0.5, u0k, times)
    rep = verify_dirichlet_sandwich(tr, sys_, 0.5, 0.5)
    assert rep.verdict == "sandwich_ok"
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)
    assert 0.0 < rep.envelope_lower <= rep.envelope_upper < math.inf


def test_neumann_constant_data_plateaus():
    sys_ = interval_eigensystem(math.pi, "neumann", 8)
    times = log_times(1e3)
    u0k = np.zeros(8)
    u0k[0] = 2.0
    tr = solve_subdiffusion(sys_, 0.5, 0.5, u0k, times)
    rep = verify_neumann(tr, sys_, 0.5, 0.5, u00=2.0, u01=0.0)
    assert rep.verdict in ("upper_only_ok", "sandwich_ok")
    assert abs(tr.energies[-1] - 2.0) / 2.0 < 1e-6


def test_neumann_mean_zero_data_decays():
    sys_ = interval_eigensystem(math.pi, "neumann", 8)
    times = log_times(1e3)
    u0k = np.zeros(8)
    u0k[1] = 1.0
    tr = solve_subdiffusion(sys_, 0.5, 0.5, u0k, times)
    rep = verify_neumann(tr, sys_, 0.5, 0.5, u00=0.0, u01=1.0)
    assert rep.verdict == "sandwich_ok"


def test_heat_coefficient_catalog_primitives():
    t = np.array([0.5, 1.0, 4.0])
    c = CoefficientSpec(kind="power", kappa=2.0, beta=1.0)
    assert np.allclose(c.primitive(t), t ** 2)
    c = CoefficientSpec(kind="exponential_rate", beta=2.0)
    assert np.allclose(c.primitive(t), t ** 2)
    c = CoefficientSpec(kind="logarithmic", p=3.0)
    assert np.allclose(c.primitive(t), 3.0 * np.log(1.0 + np.log1p(t)))
    c = CoefficientSpec(kind="polynomial", q=2.0, poly=(1.0, 1.0))
    assert np.allclose(c.primitive(t), 2.0 * np.log(1.0 + t))


def test_tabulated_primitive_matches_trapezoid():
    table_t = (0.0, 1.0, 2.0, 4.0)
    table_a = (1.0, 2.0, 2.0, 0.5)
    c = CoefficientSpec(kind="tabulated", table_t=table_t, table_a=table_a)
    assert c.primitive(np.array([2.0]))[0] == pytest.approx(1.5 + 2.0)
    assert c.primitive(np.array([4.0]))[0] == pytest.approx(1.5 + 2.0 + 2.5)


def test_hypothesis_flag():
    assert CoefficientSpec(kind="power", kappa=1.0,
                           beta=-0.25).satisfies_hypothesis(0.5)
    assert not CoefficientSpec(kind="power", kappa=1.0,
                               beta=-0.75).satisfies_hypothesis(0.5)
    assert not CoefficientSpec(kind="logarithmic").satisfies_hypothesis(0.5)


def test_unknown_boundary_kind_rejected():
    with pytest.raises(DomainError):
        interval_eigensystem(1.0, "robin", 4)
    with pytest.raises(DomainError):
        rectangle_eigensystem(1.0, 1.0, "robin", 4)


def test_solver_input_validation():
    sys_ = interval_eigensystem(1.0, "dirichlet", 4)
    with pytest.raises(DomainError):
        solve_subdiffusion(sys_, 1.5, 0.5, np.ones(4), np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        solve_subdiffusion(sys_, 0.5, -0.6, np.ones(4), np.array([0.0, 1.0]))
