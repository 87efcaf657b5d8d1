import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from fracdecay.decayfit import fit_power_tail
from fracdecay.errors import (DomainError, NonpositivePrimitive,
                              QuadratureUnderResolved)
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


def _product_mode(dims, bc, ks):
    """The normalized Laplacian eigenfunction with 1-D indices ks on the box
    prod_i (0, dims[i]), from its closed form."""
    mode = np.sin if bc == "dirichlet" else np.cos

    def e(*xs):
        out = 1.0
        for L, k, x in zip(dims, ks, xs):
            out = out * math.sqrt((1.0 if k == 0 else 2.0) / L) * mode(
                k * math.pi / L * x)
        return out
    return e


def _assert_modes_project_to_unit_vectors(sys_, atol=1e-12):
    # projecting the p-th eigenfunction gives the p-th unit vector
    for p, ks in enumerate(sys_.index):
        u0k = project_initial_data(sys_, _product_mode(sys_.geometry,
                                                       sys_.bc, ks))
        np.testing.assert_allclose(u0k, np.eye(sys_.K)[p], rtol=0, atol=atol)


def test_basis_orthonormal_under_quadrature():
    for bc in ("dirichlet", "neumann"):
        _assert_modes_project_to_unit_vectors(interval_eigensystem(2.0, bc, 8))


def _lowest_modes(dims, bc, K):
    """Index pairs and eigenvalues of the K lowest modes of a rectangle,
    ties in index order, from every pair up to 2K along each axis."""
    start = 1 if bc == "dirichlet" else 0
    i, j = np.meshgrid(np.arange(start, 2 * K + 1),
                       np.arange(start, 2 * K + 1), indexing="ij")
    lam = ((i * math.pi / dims[0]) ** 2 + (j * math.pi / dims[1]) ** 2).ravel()
    order = np.argsort(lam, kind="stable")[:K]
    return list(zip(i.ravel()[order], j.ravel()[order])), lam[order]


# aspect ratios 1 to 1000 over the whole length domain [1e-3, 1e3]; a
# guessed index bound ceil(sqrt(2K)) + 2 first dropped a Dirichlet mode near
# aspect 2.04 (K = 128), 3.17 (K = 16) and 3.88 (K = 8)
@pytest.mark.parametrize("dims", [
    (1.0, 1.0), (1e-3, 1e-3), (2.1, 1.0), (1.0, 3.2), (3.93, 1.0), (4.0, 1.0),
    (1.0, 100.0), (1e3, 1.0), (1e-3, 1.0)])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_rectangle_modes_are_the_lowest(dims, bc):
    for K in (1, 8, 16, 64, 128):
        _, lam = _lowest_modes(dims, bc, K)
        sys_ = rectangle_eigensystem(*dims, bc, K)
        assert sys_.K == K
        np.testing.assert_allclose(sys_.lambdas, lam, rtol=1e-15, atol=0)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_tied_rectangle_modes_keep_index_order(bc):
    # on a square every (i, j), i != j, ties with (j, i); (min, max) first
    sys_ = rectangle_eigensystem(2.0, 2.0, bc, 16)
    np.testing.assert_array_equal(sys_.index,
                                  _lowest_modes((2.0, 2.0), bc, 16)[0])
    _assert_modes_project_to_unit_vectors(sys_)


def test_rectangle_keeps_low_modes_at_the_cli_default():
    # (9, 1) lies past the old index bound ceil(sqrt(2K)) + 2 = 8
    sys_ = rectangle_eigensystem(4.0, 1.0, "dirichlet", 16)
    assert sys_.lambdas[13] == (9.0 * math.pi / 4.0) ** 2 + math.pi ** 2
    assert tuple(sys_.index[13]) == (9, 1)


def test_long_box_projects_its_twentieth_mode():
    sys_ = rectangle_eigensystem(100.0, 1.0, "dirichlet", 64)
    u0k = project_initial_data(sys_, lambda x, y: np.sin(math.pi * y) * (
        np.sin(math.pi * x / 100.0) + 0.5 * np.sin(20.0 * math.pi * x / 100.0)))
    live = np.flatnonzero(np.abs(u0k) > 1e-12)
    assert live.tolist() == [0, 19]  # modes (1, 1) and (20, 1)
    np.testing.assert_allclose(u0k[live], [5.0, 2.5], rtol=1e-12)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_widest_box_basis_is_orthonormal(bc):
    _assert_modes_project_to_unit_vectors(
        rectangle_eigensystem(1e3, 1e-3, bc, 128))


def test_long_box_projection_stores_no_basis():
    # the 128 lowest modes of a 73.3 x 1 box take 3030 x 54 nodes: a
    # K x nq tensor-product basis would hold 168 MB, the per-axis mode
    # tables hold 3 MB
    tracemalloc.start()
    try:
        sys_ = rectangle_eigensystem(73.3, 1.0, "dirichlet", 128)
        project_initial_data(sys_, lambda x, y: x * (73.3 - x) * y * (1 - y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, f"traced peak {peak / 1e6:.1f} MB"


def test_mode_count_is_not_a_field():
    sys_ = interval_eigensystem(1.0, "neumann", 4)
    assert [f.name for f in dataclasses.fields(sys_)] == [
        "geometry", "bc", "lambdas", "index"]
    np.testing.assert_array_equal(sys_.index, [[0], [1], [2], [3]])
    wrong = dataclasses.replace(sys_, lambdas=2.0 * sys_.lambdas)
    assert wrong.K == 4 and wrong.index is sys_.index


def test_projection_of_pure_mode_is_exact():
    sys_ = interval_eigensystem(math.pi, "dirichlet", 8)
    u0k = project_initial_data(sys_, lambda x: np.sin(2.0 * x))
    expected = np.zeros(8)
    expected[1] = math.sqrt(math.pi / 2.0)  # ||sin(2x)|| on (0, pi)
    assert np.max(np.abs(u0k - expected)) < 1e-12


@pytest.mark.parametrize("u0, cause", [
    (lambda x: np.where(x > 3.0, np.nan, x), "not finite at a quadrature node"),
    (lambda x: np.where(x > 3.0, np.inf, x), "not finite at a quadrature node"),
    (lambda x: np.where(x > 3.0, -np.inf, x), "not finite at a quadrature node"),
    (lambda x: np.full_like(x, 1e200), "||u0||^2 = inf is not finite"),
], ids=["nan", "inf", "-inf", "1e200"])
def test_nonfinite_initial_data_is_refused(u0, cause):
    # a NaN coefficient slipped past the Parseval guard (NaN > x is false)
    # and an overflowing ||u0||^2 passed it with overflow warnings
    sys_ = interval_eigensystem(math.pi, "dirichlet", 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=re.escape(cause)):
            project_initial_data(sys_, u0)


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
    assert fit_power_tail(times, tr.energies)[0] == pytest.approx(1.0,
                                                                 abs=0.05)
    assert np.all(0.0 < rep.lower) and np.all(rep.lower < tr.energies)
    assert np.all(tr.energies < rep.upper)


def test_single_mode_sandwich():
    sys1 = interval_eigensystem(math.pi, "dirichlet", 1)
    tr = solve_subdiffusion(sys1, 0.3, 0.4, np.array([1.0]),
                            log_times(1e4, t_min=1.0))
    rep = verify_dirichlet_sandwich(tr, sys1, 0.3, 0.4)
    assert rep.verdict == "sandwich_ok"
    assert fit_power_tail(tr.times, tr.energies)[0] == pytest.approx(0.7,
                                                                    abs=0.05)


@pytest.mark.parametrize("bc, u0k", [
    ("dirichlet", [1.0, 0.0, 0.3, 0.0]),
    ("neumann", [2.0, 0.0, 0.0, 0.0]),
    ("neumann", [2.0, 0.5, 0.0, 0.1]),
    ("neumann", [0.0, 1.0, 0.0, 0.5]),
], ids=["dirichlet", "neumann-constant", "neumann-level", "neumann-mean-zero"])
def test_report_bounds_are_the_envelope_profile(bc, u0k):
    # bit for bit Simon's profiles 1/(1 + r lam t^(a+b)) of the slowest
    # decaying mode present, r = G(1-a) below and G(1+(m-1)a)/G(1+ma),
    # m = 1 + b/a, above,
    # scaled by |u_k*| and by the norm of the decaying data, with the
    # conserved level |u00| in quadrature
    sys_ = interval_eigensystem(2.0, bc, 4)
    times = log_times(1e3)
    u0k = np.array(u0k)
    tr = solve_subdiffusion(sys_, 0.6, 0.3, u0k, times)
    if bc == "dirichlet":
        rep = verify_dirichlet_sandwich(tr, sys_, 0.6, 0.3)
    else:
        rep = verify_neumann(tr, sys_, 0.6, 0.3, u0k[0], u0k[1])
    decaying = sys_.lambdas > 0
    level2 = np.sum(u0k[~decaying] ** 2)
    live = np.flatnonzero(decaying & (u0k != 0))
    lo = hi = np.zeros_like(times)
    if live.size:
        z = sys_.lambdas[live[0]] * times ** (0.6 + 0.3)
        m = 1.0 + 0.3 / 0.6
        rho = math.exp(math.lgamma(1.0 + (m - 1.0) * 0.6)
                       - math.lgamma(1.0 + m * 0.6))
        lo = abs(u0k[live[0]]) * (1.0 / (1.0 + math.gamma(1.0 - 0.6) * z))
        hi = np.sqrt(np.sum(u0k[live] ** 2)) * (1.0 / (1.0 + rho * z))
    assert rep.lower.tobytes() == np.sqrt(lo ** 2 + level2).tobytes()
    assert rep.upper.tobytes() == np.sqrt(hi ** 2 + level2).tobytes()
    assert rep.verdict == ("sandwich_ok" if live.size else "upper_only_ok")
    assert np.all(rep.lower <= tr.energies * (1 + 1e-12))
    assert np.all(tr.energies <= rep.upper * (1 + 1e-12))


@pytest.mark.parametrize("factor", [0.98, 1.5])
def test_wrong_eigenvalues_violate_the_bounds(factor):
    # a trace solved with every lam_k x 0.98 decays too slowly for the true
    # system's upper bound, one with lam_k x 1.5 too fast for its lower
    # bound (which is loose: x 1.02 stays inside it)
    sys_ = interval_eigensystem(math.pi, "dirichlet", 16)
    u0k = project_initial_data(sys_, lambda x: x * (math.pi - x))
    wrong = dataclasses.replace(sys_, lambdas=factor * sys_.lambdas)
    tr = solve_subdiffusion(wrong, 0.5, 0.5, u0k, log_times(1e3))
    assert verify_dirichlet_sandwich(tr, wrong, 0.5, 0.5).verdict == \
        "sandwich_ok"
    assert verify_dirichlet_sandwich(tr, sys_, 0.5, 0.5).verdict == "violated"


# (alpha, beta) over alpha in (0.1, 1) and beta in (-alpha, 1), with beta < 0
# where the series solves every mode up to T = 10
_SWEEP = [(0.15, 0.5), (0.2, 0.3), (0.3, 0.6), (0.45, -0.3), (0.5, -0.05),
          (0.6, 0.1), (0.75, -0.6), (0.8, -0.4), (0.9, 0.9), (0.95, -0.2)]


@pytest.mark.parametrize("alpha, beta", _SWEEP)
@pytest.mark.parametrize("dims", [(6.0,), (6.0, 4.5)],
                         ids=["interval", "rectangle"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_correct_traces_are_never_violated(alpha, beta, dims, bc):
    if len(dims) == 1:
        sys_ = interval_eigensystem(*dims, bc, 3)
    else:
        sys_ = rectangle_eigensystem(*dims, bc, 3)
    u0k = np.random.default_rng(1).standard_normal(3)
    tr = solve_subdiffusion(sys_, alpha, beta, u0k, log_times(10.0))
    verify = verify_dirichlet_sandwich if bc == "dirichlet" else \
        lambda *a: verify_neumann(*a, u0k[0], u0k[1])
    assert verify(tr, sys_, alpha, beta).verdict == "sandwich_ok"


def test_log_times_validation():
    assert np.all(np.diff(log_times(10.0, t_min=0.1)) > 0)
    for T, t_min in ((math.inf, 1e-2), (math.nan, 1e-2), (1e-3, 1e-2),
                     (1.0, 0.0)):
        with pytest.raises(DomainError):
            log_times(T, t_min)


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


def test_nan_primitive_rejected():
    # a NaN coefficient datum is refused where the coefficient is built,
    # before it can make a NaN primitive
    nan = math.nan
    for field, value in [("kappa", nan), ("beta", nan), ("p", nan),
                         ("q", nan), ("poly", (1.0, nan)),
                         ("table_t", (0.0, nan)), ("table_a", (1.0, nan))]:
        with pytest.raises(DomainError, match=field):
            CoefficientSpec(kind="power", **{field: value})
    # so are kappa = 0, outside the hypothesis kappa > 0, and beta = -1,
    # where the power primitive is no longer finite
    with pytest.raises(DomainError, match="kappa"):
        CoefficientSpec(kind="power", kappa=0.0)
    with pytest.raises(DomainError, match="beta"):
        CoefficientSpec(kind="power", beta=-1.0)
    # a coefficient inside its domain whose primitive is not positive still
    # reaches the solver's own check: P(t) = 2 - t + t^2 dips below P(0)
    sys_ = interval_eigensystem(math.pi, "dirichlet", 2)
    with pytest.raises(NonpositivePrimitive):
        solve_heat_general(sys_, CoefficientSpec(kind="polynomial",
                                                 poly=(2.0, -1.0, 1.0)),
                           np.ones(2), log_times(10.0))


def test_tabulated_primitive_matches_trapezoid():
    table_t = (0.0, 1.0, 2.0, 4.0)
    table_a = (1.0, 2.0, 2.0, 0.5)
    c = CoefficientSpec(kind="tabulated", table_t=table_t, table_a=table_a)
    assert c.primitive(np.array([2.0]))[0] == pytest.approx(1.5 + 2.0)
    assert c.primitive(np.array([4.0]))[0] == pytest.approx(1.5 + 2.0 + 2.5)


def test_hypothesis_flag():
    with pytest.raises(DomainError):
        CoefficientSpec(kind="logarithmic").value(1.0)


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
