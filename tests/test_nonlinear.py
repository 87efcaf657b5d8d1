import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from fracdecay.errors import (DomainError, FracdecayError, NonFiniteState,
                              PositivityLoss, StepDivergence)
from fracdecay.fracode import TimeGrid, default_grading, solve_linear_mode
from fracdecay.nonlinear import (FieldTrace, OperatorSpec, SourceSpec,
                                 SpatialGrid1D, _half_coefficient,
                                 check_energy_inequality, predict_exponent,
                                 run_scenario, solve_nonlinear)
from fracdecay.spectral import CoefficientSpec

COEFF = CoefficientSpec(kind="power", kappa=1.0, beta=0.5)


def _flux_form(spec, u, g):
    """(d Du)' by differences of the solver's half-point coefficient d."""
    Du = np.diff(np.concatenate([[0.0], u, [0.0]])) / g.h
    return np.diff(_half_coefficient(spec, u, g.h) * Du) / g.h


def test_grid_geometry():
    g = SpatialGrid1D(math.pi, 31)
    assert g.h == pytest.approx(math.pi / 32)
    assert g.x[0] == pytest.approx(g.h)
    assert g.x[-1] == pytest.approx(math.pi - g.h)


def test_laplace_stencil_second_order():
    errs = []
    for M in (63, 127):
        g = SpatialGrid1D(math.pi, M)
        u = np.sin(g.x)
        out = _flux_form(OperatorSpec(kind="laplace"), u, g)
        errs.append(np.max(np.abs(out + u)))
    assert errs[0] / errs[1] > 3.5


def test_porous_flux_matches_laplacian_of_power():
    # with g(u) = (m+1) u^m the flux form discretizes Lap(u^(m+1))
    m = 1.0
    g = SpatialGrid1D(math.pi, 255)
    u = np.sin(g.x)
    spec = OperatorSpec(kind="porous_medium", m=m, c0=m + 1.0)
    out = _flux_form(spec, u, g)
    exact = 2.0 * np.cos(2.0 * g.x)  # Lap sin^2 = 2 cos(2x)
    assert np.max(np.abs(out - exact)) < 5e-3


def test_mean_curvature_reduces_to_laplace_for_flat_data():
    g = SpatialGrid1D(math.pi, 127)
    u = 1e-6 * np.sin(g.x)
    a = _flux_form(OperatorSpec(kind="mean_curvature"), u, g)
    b = _flux_form(OperatorSpec(kind="laplace"), u, g)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_operator_validation():
    with pytest.raises(DomainError):
        OperatorSpec(kind="unknown")
    with pytest.raises(DomainError):
        OperatorSpec(kind="p_laplace", p=1.0)
    with pytest.raises(DomainError):
        OperatorSpec(kind="porous_medium", m=-1.0)
    with pytest.raises(DomainError):
        SourceSpec(kind="power_absorption", p=0.5)


def test_predict_exponent_table():
    vals = [
        ("laplace", {}, 1.0),
        ("p_laplace", {"p": 3.0}, 0.5),
        ("porous_medium", {"m": 1.0}, 0.5),
        ("degenerate", {"q": 1.0}, 0.5),
        ("mean_curvature", {}, 1.0),
        ("kirchhoff", {"gamma": 1.0, "p": 2.0}, 0.5),
    ]
    for kind, kw, expect in vals:
        pe = predict_exponent(OperatorSpec(kind=kind, **kw), 0.5, 0.5)
        assert pe.value == pytest.approx(expect)


def test_linear_diffusion_tracks_modal_solution():
    g = SpatialGrid1D(math.pi, 127)
    tg = TimeGrid(5.0, 512, 3.0)
    u0 = np.sin(g.x)
    tr = solve_nonlinear(OperatorSpec(kind="laplace"), SourceSpec(), 0.5,
                         COEFF, u0, g, tg)
    mode = solve_linear_mode(0.5, 0.5, 1.0, 1.0, tg)
    amp = math.sqrt(g.h * np.sum(u0 ** 2))
    mask = tr.times >= 0.1
    rel = np.abs(tr.energies[mask] - amp * mode.values[mask]) \
        / (amp * mode.values[mask])
    assert np.max(rel) < 2e-3


def test_energies_positive_decreasing():
    g = SpatialGrid1D(math.pi, 63)
    tg = TimeGrid(50.0, 256, 3.0)
    u0 = 0.5 * np.sin(g.x)
    for kind, kw in (("p_laplace", {"p": 3.0}),
                     ("porous_medium", {"m": 1.0}),
                     ("degenerate", {"q": 1.0}),
                     ("kirchhoff", {"gamma": 1.0, "p": 2.0})):
        tr = solve_nonlinear(OperatorSpec(kind=kind, **kw), SourceSpec(),
                             0.5, COEFF, u0, g, tg, sweeps=2)
        assert np.all(tr.energies > 0)
        assert np.all(np.diff(tr.energies) < 1e-14)


def test_porous_medium_preserves_positivity():
    g = SpatialGrid1D(math.pi, 63)
    tg = TimeGrid(20.0, 256, 3.0)
    u0 = 0.5 * np.sin(g.x)
    tr = solve_nonlinear(OperatorSpec(kind="porous_medium", m=1.0),
                         SourceSpec(), 0.5, COEFF, u0, g, tg, sweeps=2)
    assert np.min(tr.fields) >= -1e-10


def test_energy_inequality_margins():
    g = SpatialGrid1D(math.pi, 63)
    tg = TimeGrid(20.0, 256, 3.0)
    u0 = 0.5 * np.sin(g.x)
    tr = solve_nonlinear(OperatorSpec(kind="p_laplace", p=3.0), SourceSpec(),
                         0.5, COEFF, u0, g, tg, sweeps=2)
    margins = check_energy_inequality(tr, 0.5)
    assert np.min(margins) >= -1e-10


def test_energy_inequality_needs_fields():
    g = SpatialGrid1D(math.pi, 15)
    tg = TimeGrid(1.0, 16, 2.0)
    tr = solve_nonlinear(OperatorSpec(kind="laplace"), SourceSpec(), 0.5,
                         COEFF, np.sin(g.x), g, tg, keep_fields=False)
    with pytest.raises(DomainError):
        check_energy_inequality(tr, 0.5)


def test_fisher_scenario_respects_population_bounds():
    tr, rep = run_scenario("fisher_kpp", alpha=0.5, beta=0.5, points=63,
                           steps=256, horizon=50.0)
    assert isinstance(tr, FieldTrace)
    assert np.min(tr.fields[1:]) > 0.0
    assert np.max(tr.fields) <= 1.0 + 1e-12
    assert rep.verdict == "upper_only_ok"


def test_fisher_rejects_oversized_data():
    with pytest.raises(DomainError):
        run_scenario("fisher_kpp", amplitude=1.5, points=63, steps=64)


def test_pme_scenario_upper_envelope():
    tr, rep = run_scenario("semilinear_pme", alpha=0.5, beta=0.5, m=1.0,
                           mu=1.0, p=2.0, points=63, steps=256,
                           horizon=200.0)
    assert rep.verdict == "upper_only_ok"
    assert rep.predicted_exponent == pytest.approx(0.5)


def test_toy_model_scenario_sandwich():
    tr, rep = run_scenario("toy_model", alpha=0.3, beta=0.4)
    assert rep.verdict == "sandwich_ok"
    assert rep.fitted_exponent == pytest.approx(0.7, abs=0.05)


def test_shape_mismatch_rejected():
    g = SpatialGrid1D(math.pi, 15)
    with pytest.raises(DomainError):
        solve_nonlinear(OperatorSpec(kind="laplace"), SourceSpec(), 0.5,
                        COEFF, np.ones(7), g, TimeGrid(1.0, 8))


def test_coefficient_overflow_is_nonfinite_state():
    # |Du|^1.5 overflows; the step system must be refused, not handed on,
    # and without a NumPy warning on the way
    g = SpatialGrid1D(math.pi, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            solve_nonlinear(OperatorSpec(kind="p_laplace", p=3.5),
                            SourceSpec(), 0.5, COEFF, 1e250 * np.sin(g.x), g,
                            TimeGrid(10, 16, 3))


@pytest.mark.parametrize("spec", [OperatorSpec(kind="laplace"),
                                  OperatorSpec(kind="porous_medium", m=1.0)])
def test_energy_overflow_is_nonfinite_state(spec):
    # every field stays finite, but U**2 overflows in the energy; the
    # error is the report, not a NumPy warning
    g = SpatialGrid1D(math.pi, 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState):
            solve_nonlinear(spec, SourceSpec(), 0.5, COEFF,
                            1e200 * np.sin(g.x), g, TimeGrid(10, 16, 3))


@np.errstate(over="ignore", invalid="ignore")
def _reference_fields(spec, source, alpha, coeff, u0, grid, tgrid, sweeps):
    """The semi-implicit L1 step written out plainly: two powers per
    weight, all-zero source arrays, a fresh band matrix per sweep and
    scipy's solve_banded, under the solver's np.errstate.  It raises where
    solve_nonlinear must."""
    t = tgrid.nodes
    ht = np.diff(t)
    g2 = math.gamma(2.0 - alpha)
    e = 1.0 - alpha
    M, N, h = grid.interior, tgrid.steps, grid.h
    porous_guard = spec.kind == "porous_medium" and np.all(u0 >= 0.0)
    U = np.empty((N + 1, M))
    U[0] = u0
    dU = np.empty((N, M))
    for n in range(1, N + 1):
        d = t[n] - t[:n + 1]
        d[-1] = 0.0
        row = (d[:-1] ** e - d[1:] ** e) / (g2 * ht[:n])
        ann, hist, prev = row[-1], row[:-1] @ dU[:n - 1], U[n - 1]
        an = float(coeff.value(t[n]))
        ustar = unew = prev
        res_prev = math.inf
        for _ in range(sweeps):
            diag_src = np.zeros(M)
            rhs_src = np.zeros(M)
            if source.kind == "fisher_kpp":
                diag_src += 1.0
                rhs_src += ustar ** 2
            elif source.kind == "power_absorption":
                if source.mu >= 0:
                    diag_src += source.mu * np.abs(ustar) ** source.p
                else:
                    rhs_src -= source.mu * np.abs(ustar) ** source.p * ustar
            rhs = ann * prev - hist + rhs_src
            ab = np.zeros((3, M))
            if spec.kind == "degenerate":
                fv = np.abs(ustar) ** spec.q
                ab[0, 1:] = -an * fv[:-1] / h ** 2
                ab[1] = ann + diag_src + 2.0 * an * fv / h ** 2
                ab[2, :-1] = -an * fv[1:] / h ** 2
            else:
                dc = _half_coefficient(spec, ustar, h)
                ab[0, 1:] = -an * dc[1:-1] / h ** 2
                ab[1] = ann + diag_src + an * (dc[:-1] + dc[1:]) / h ** 2
                ab[2, :-1] = -an * dc[1:-1] / h ** 2
            try:
                unew = solve_banded((1, 1), ab, rhs)
            except ValueError as exc:  # raised on infs or NaNs in ab, rhs
                raise NonFiniteState(str(exc)) from exc
            if not np.all(np.isfinite(unew)):
                raise NonFiniteState("non-finite state")
            res = float(np.max(np.abs(unew - ustar)))
            ustar = unew
            if res < 1e-10 * max(1.0, float(np.max(np.abs(unew)))):
                break
            if res > 10.0 * res_prev:
                raise StepDivergence("residual grows")
            res_prev = res
        if porous_guard and float(np.min(unew)) < -1e-10:
            raise PositivityLoss("negative state")
        U[n] = unew
        dU[n - 1] = U[n] - U[n - 1]
    if not np.all(np.isfinite(np.sqrt(h * np.sum(U ** 2, axis=1)))):
        raise NonFiniteState("energy overflows")
    return U


@st.composite
def _sources(draw):
    kind = draw(st.sampled_from(["none", "fisher_kpp", "absorption",
                                 "growth"]))
    if kind in ("none", "fisher_kpp"):
        return SourceSpec(kind=kind)
    mu = draw(st.floats(0.0, 1.5))
    return SourceSpec(kind="power_absorption",
                      mu=mu if kind == "absorption" else -mu - 0.01,
                      p=draw(st.floats(1.5, 2.5)))


@pytest.mark.parametrize("kind", ["laplace", "p_laplace", "porous_medium",
                                  "degenerate", "mean_curvature",
                                  "kirchhoff"])
@settings(max_examples=30, deadline=None, database=None)
@given(data=st.data(), source=_sources(),
       alpha=st.floats(0.3, 0.9), beta=st.floats(0.0, 1.0),
       M=st.integers(3, 15), N=st.integers(1, 24),
       grading=st.floats(1.0, 3.0), sweeps=st.integers(1, 3),
       modes=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       signed_zeros=st.booleans())
def test_step_is_bit_identical_to_plain_reference(kind, data, source, alpha,
                                                  beta, M, N, grading, sweeps,
                                                  modes, signed_zeros):
    kw = {}
    if kind in ("p_laplace", "kirchhoff"):
        kw["p"] = data.draw(st.floats(1.5, 3.5))
    if kind == "porous_medium":
        kw["m"] = data.draw(st.floats(0.0, 1.5))
    if kind == "degenerate":
        kw["q"] = data.draw(st.floats(0.0, 1.5))
    if kind == "kirchhoff":
        kw["gamma"] = data.draw(st.floats(0.0, 1.5))
    spec = OperatorSpec(kind=kind, **kw)
    g = SpatialGrid1D(math.pi, M)
    tg = TimeGrid(2.0, N, grading)
    coeff = CoefficientSpec(kind="power", kappa=1.0, beta=beta)
    u0 = sum(c * np.sin((j + 1) * g.x) for j, c in enumerate(modes))
    if signed_zeros:
        u0[::2] = -0.0
    args = (spec, source, alpha, coeff, u0, g, tg, sweeps)
    try:
        ref = _reference_fields(*args)
    except FracdecayError as exc:
        with pytest.raises(type(exc)):
            solve_nonlinear(*args)
        return
    tr = solve_nonlinear(*args)
    # bit for bit, the sign of zero included
    assert np.array_equal(tr.fields, ref)
    assert tr.fields.tobytes() == ref.tobytes()
    assert np.array_equal(tr.energies, np.sqrt(g.h * np.sum(ref ** 2, axis=1)))


@settings(max_examples=40, deadline=None, database=None)
@given(m=st.floats(0.0, 2.0), c0=st.floats(0.5, 2.0),
       alpha=st.floats(0.3, 0.9), beta=st.floats(0.0, 1.0),
       M=st.integers(3, 31), N=st.integers(1, 64), sweeps=st.integers(1, 2),
       amplitude=st.floats(0.01, 2.0),
       modes=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
def test_porous_medium_keeps_nonnegative_data_nonnegative(m, c0, alpha, beta,
                                                          M, N, sweeps,
                                                          amplitude, modes):
    g = SpatialGrid1D(math.pi, M)
    u0 = np.abs(sum(c * np.sin((j + 1) * g.x) for j, c in enumerate(modes)))
    u0 = amplitude * u0 / max(float(u0.max()), 1e-300)
    tr = solve_nonlinear(OperatorSpec(kind="porous_medium", m=m, c0=c0),
                         SourceSpec(), alpha,
                         CoefficientSpec(kind="power", kappa=1.0, beta=beta),
                         u0, g, TimeGrid(20.0, N, default_grading(alpha)),
                         sweeps=sweeps)
    assert tr.fields.min() >= -1e-12 * amplitude


@settings(max_examples=40, deadline=None, database=None)
@given(alpha=st.floats(0.3, 0.9), beta=st.floats(0.0, 1.0),
       M=st.integers(3, 31), N=st.integers(1, 64),
       horizon=st.floats(0.5, 50.0),
       modes=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_dirichlet_laplace_energies_never_increase(alpha, beta, M, N, horizon,
                                                   modes):
    g = SpatialGrid1D(math.pi, M)
    u0 = sum(c * np.sin((j + 1) * g.x) for j, c in enumerate(modes))
    tr = solve_nonlinear(OperatorSpec(kind="laplace"), SourceSpec(), alpha,
                         CoefficientSpec(kind="power", kappa=1.0, beta=beta),
                         u0, g, TimeGrid(horizon, N, default_grading(alpha)),
                         keep_fields=False)
    assert np.all(np.diff(tr.energies) <= 1e-14 * tr.energies[0])
