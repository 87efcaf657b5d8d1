import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from fracdecay import fracode, reproduce
from fracdecay.decayfit import check_envelope
from fracdecay.errors import (DomainError, FracdecayError, GridMismatch,
                              NonFiniteState, PositivityLoss, StepDivergence)
from fracdecay.fracode import TimeGrid, default_grading, solve_linear_mode
from fracdecay.nonlinear import (FieldTrace, OperatorSpec, SourceSpec,
                                 SpatialGrid1D, _half_coefficient,
                                 check_energy_inequality, predict_exponent,
                                 solve_nonlinear)
from fracdecay.spectral import CoefficientSpec

COEFF = CoefficientSpec(kind="power", kappa=1.0, beta=0.5)
B = fracode._BLOCK


def _operator_rows(spec, u, g):
    """A_h(u) = (R Du_{i+1/2} - L Du_{i-1/2}) / h from the solver's row
    coefficients (L, R), with u_0 = u_{M+1} = 0."""
    Du = np.diff(np.concatenate([[0.0], u, [0.0]])) / g.h
    L, R = _half_coefficient(spec, u, g.h)
    return (R * Du[1:] - L * Du[:-1]) / g.h


@pytest.mark.parametrize("kappa, beta, key", [(0.0, 0.5, "kappa"),
                                              (math.nan, 0.5, "kappa"),
                                              (1.0, -0.5, "beta")])
def test_coefficient_hypothesis_enforced(kappa, beta, key):
    # a(t) >= kappa t^beta needs kappa > 0 and beta > -alpha; the error
    # names the field that fails and only that one
    # (a NaN kappa is refused where the coefficient is built)
    g = SpatialGrid1D(math.pi, 7)
    with pytest.raises(DomainError, match=key) as exc:
        coeff = CoefficientSpec(kind="power", kappa=kappa, beta=beta)
        solve_nonlinear(OperatorSpec(kind="laplace"), SourceSpec(), 0.5,
                        coeff, np.sin(g.x), g, TimeGrid(1.0, 4, 1.0))
    assert {"kappa": "beta", "beta": "kappa"}[key] not in str(exc.value)


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
        out = _operator_rows(OperatorSpec(kind="laplace"), u, g)
        errs.append(np.max(np.abs(out + u)))
    assert errs[0] / errs[1] > 3.5


def test_porous_flux_matches_laplacian_of_power():
    # with g(u) = (m+1) u^m the flux form discretizes Lap(u^(m+1))
    m = 1.0
    g = SpatialGrid1D(math.pi, 255)
    u = np.sin(g.x)
    spec = OperatorSpec(kind="porous_medium", m=m, c0=m + 1.0)
    out = _operator_rows(spec, u, g)
    exact = 2.0 * np.cos(2.0 * g.x)  # Lap sin^2 = 2 cos(2x)
    assert np.max(np.abs(out - exact)) < 5e-3


def test_mean_curvature_reduces_to_laplace_for_flat_data():
    g = SpatialGrid1D(math.pi, 127)
    u = 1e-6 * np.sin(g.x)
    a = _operator_rows(OperatorSpec(kind="mean_curvature"), u, g)
    b = _operator_rows(OperatorSpec(kind="laplace"), u, g)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_operator_validation():
    with pytest.raises(DomainError):
        OperatorSpec(kind="unknown")
    with pytest.raises(DomainError):
        OperatorSpec(kind="p_laplace", p=1.0)
    with pytest.raises(DomainError):
        OperatorSpec(kind="porous_medium", m=-1.0)
    with pytest.raises(DomainError, match="c0"):
        OperatorSpec(kind="porous_medium", c0=0.0)
    with pytest.raises(DomainError):
        SourceSpec(kind="power_absorption", p=0.5)


@pytest.mark.parametrize("spec", [
    OperatorSpec(kind="laplace"),
    OperatorSpec(kind="p_laplace", p=2.0),
    OperatorSpec(kind="p_laplace", p=3.0),
    OperatorSpec(kind="p_laplace", p=4.5),
    OperatorSpec(kind="porous_medium", m=1.0),
    OperatorSpec(kind="porous_medium", m=0.5, c0=2.0),
    OperatorSpec(kind="degenerate", q=1.0),
    OperatorSpec(kind="degenerate", q=2.5),
    OperatorSpec(kind="kirchhoff", gamma=1.0, p=2.0),
    OperatorSpec(kind="kirchhoff", gamma=0.5, p=3.0),
], ids=lambda spec: f"{spec.kind}-p{spec.p:g}-m{spec.m:g}-q{spec.q:g}"
                    f"-gamma{spec.gamma:g}")
@pytest.mark.parametrize("c", [0.5, 3.0])
def test_operator_rows_scale_with_the_predicted_degree(spec, c):
    # each homogeneous operator's rows, built from the (L, R) the step
    # assembles its band from, satisfy A_h(c u) = c^delta A_h(u) with the
    # delta that sets the predicted exponent (a+b)/delta
    alpha, beta = 0.3, 0.4
    delta = (alpha + beta) / predict_exponent(spec, alpha, beta)
    g = SpatialGrid1D(math.pi, 63)
    u = np.sin(g.x) - 0.4 * np.sin(2 * g.x) + 0.1 * np.sin(5 * g.x)
    ref = c ** delta * _operator_rows(spec, u, g)
    err = np.max(np.abs(_operator_rows(spec, c * u, g) - ref))
    assert err <= 1e-12 * np.max(np.abs(ref))


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
        s = predict_exponent(OperatorSpec(kind=kind, **kw), 0.5, 0.5)
        assert isinstance(s, float) and s == pytest.approx(expect)
    # beta <= -alpha would predict no decay
    with pytest.raises(DomainError, match="beta"):
        predict_exponent(OperatorSpec(kind="laplace"), 0.5, -0.5)


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
    # the inner products carry the solve's order; another order would mix
    # two derivatives in one margin
    with pytest.raises(DomainError, match="alpha"):
        check_energy_inequality(tr, 0.3)


def _per_row_sides(tr, alpha):
    """h u_n . D^a u and E_n D^a E at t_1..t_N, one weight row at a time,
    with the magnitude h sum_k |a_{n,k}| |du_k . u_n| + E_n sum_k |a_{n,k}|
    |dE_k| of both.  With d = t_n - t_k, the weights a_{n,k} G(2-a) h_k =
    d^(1-a) expm1((1-a) log1p(h_k/d)) for k < n and h_n^(1-a) for k = n
    lose no digits to cancellation."""
    U, E = tr.fields, tr.energies
    dU, dE = np.diff(U, axis=0), np.diff(E)
    t = tr.tgrid.nodes
    hk = np.diff(t)
    e, g2 = 1.0 - alpha, math.gamma(2.0 - alpha)
    rhs, lhs, mag = np.empty((3, tr.tgrid.steps))
    for n in range(1, tr.tgrid.steps + 1):
        d = t[n] - t[1:n]
        w = np.append(d ** e * np.expm1(e * np.log1p(hk[:n - 1] / d)),
                      hk[n - 1] ** e) / (g2 * hk[:n])
        du_u = tr.grid.h * (dU[:n] @ U[n])
        rhs[n - 1] = w @ du_u
        lhs[n - 1] = E[n] * (w @ dE[:n])
        aw = np.abs(w)
        mag[n - 1] = aw @ np.abs(du_u) + E[n] * (aw @ np.abs(dE[:n]))
    return rhs, lhs, mag


@settings(max_examples=60, deadline=None, database=None)
@given(N=st.one_of(st.sampled_from([1, B - 1, B, B + 1, 2 * B, 3 * B + 5,
                                    97, 1100]),
                   st.integers(1, 100)),
       alpha=st.floats(0.05, 0.99), grading=st.floats(1.0, 4.0),
       M=st.integers(3, 15))
@example(N=97, alpha=0.125, grading=4.0, M=3)
@example(N=1100, alpha=0.05, grading=4.0, M=7)
def test_energy_margins_match_the_exact_sums(N, alpha, grading, M):
    # the margins take march's history, B = 32 steps at a time, against
    # the exact D^a taken row by row: fewer steps than one block, one
    # block, one past it, partial last blocks, and a long far history at
    # small alpha on a strongly graded mesh, where two-power weights
    # lose digits; march's history leaves up to 6e-16 of the magnitude of
    # the sums (measured for N <= 100)
    g = SpatialGrid1D(math.pi, M)
    tg = TimeGrid(10.0, N, grading)
    tr = solve_nonlinear(OperatorSpec(kind="laplace"), SourceSpec(), alpha,
                         COEFF, np.sin(g.x) + 0.3 * np.sin(2.0 * g.x), g, tg)
    rhs, lhs, mag = _per_row_sides(tr, alpha)
    margins = check_energy_inequality(tr, alpha)
    assert margins.shape == (N,)
    assert np.all(np.abs(margins - (rhs - lhs)) <= 1e-13 * mag)


@pytest.mark.parametrize("rows", [33, 40, 50])
@pytest.mark.parametrize("kept", ["inner", "energies"])
def test_energy_check_rejects_a_history_off_the_grid(rows, kept):
    # 41 energies and 40 inner products on a 40-step grid; fewer or more
    # are a GridMismatch, not a NumPy broadcast error
    g = SpatialGrid1D(math.pi, 7)
    tg = TimeGrid(1.0, 40, 2.0)
    rng = np.random.default_rng(rows)
    inner = rng.standard_normal(rows - 1 if kept == "inner" else 40)
    E = rng.uniform(0.5, 1.0, rows if kept == "energies" else 41)
    with pytest.raises(GridMismatch):
        check_energy_inequality(FieldTrace(tg.nodes, E, inner, 0.5, g, tg),
                                0.5)


def _application_run(spec, source, horizon):
    """The application runs of reproduce at 63 points and 256 steps."""
    g = SpatialGrid1D(math.pi, 63)
    tr = solve_nonlinear(spec, source, 0.5, COEFF, 0.5 * np.sin(g.x), g,
                         TimeGrid(horizon, 256, default_grading(0.5)),
                         sweeps=2)
    s = predict_exponent(spec, 0.5, 0.5)
    return tr, s, check_envelope(tr.times, tr.energies, s, two_sided=False)


def test_fisher_scenario_respects_population_bounds():
    tr, _, rep = _application_run(OperatorSpec(kind="laplace"),
                                  SourceSpec(kind="fisher_kpp"), 50.0)
    assert np.min(tr.fields[1:]) > 0.0
    assert np.max(tr.fields) <= 1.0 + 1e-12
    assert rep.verdict == "upper_only_ok"


def test_pme_scenario_upper_envelope():
    # Lap |w|^m w in flux form has mobility (m+1)|w|^m, here m = 1
    _, s, rep = _application_run(
        OperatorSpec(kind="porous_medium", m=1.0, c0=2.0),
        SourceSpec(kind="power_absorption", mu=1.0, p=2.0), 200.0)
    assert s == pytest.approx(0.5)
    assert rep.verdict == "upper_only_ok"


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
    """The semi-implicit L1 step written out plainly: one weight row per
    step, d^(1-a) expm1((1-a) log1p(h_k/d)) and h_n^(1-a) over G(2-a) h_k,
    all-zero source arrays, a fresh band matrix per sweep and scipy's
    solve_banded, under the solver's np.errstate.  It raises where
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
        d = t[n] - t[1:n]
        row = np.append(d ** e * np.expm1(e * np.log1p(ht[:n - 1] / d)),
                        ht[n - 1:n] ** e) / (g2 * ht[:n])
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
                L, R = _half_coefficient(spec, ustar, h)
                dc = np.append(L, R[-1])  # the M+1 half-point values
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
       alpha=st.floats(0.3, 0.9), M=st.integers(3, 15), N=st.integers(1, 24),
       grading=st.floats(1.0, 3.0), sweeps=st.integers(1, 3),
       modes=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       signed_zeros=st.booleans())
def test_step_is_bit_identical_to_plain_reference(kind, data, source, alpha,
                                                  M, N, grading, sweeps, modes,
                                                  signed_zeros):
    # beta < 0 makes a(0) infinite; the solver must neither read nor warn
    beta = data.draw(st.floats(-alpha, 1.0, exclude_min=True))
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


@pytest.mark.parametrize("kind", ["laplace", "p_laplace", "porous_medium",
                                  "degenerate", "mean_curvature",
                                  "kirchhoff"])
@pytest.mark.parametrize("source", [SourceSpec(kind="fisher_kpp"),
                                    SourceSpec(kind="power_absorption",
                                               mu=0.5, p=2.5)])
@pytest.mark.parametrize("N", [1, 7, 32, 3 * 32 + 5])
def test_kept_and_unkept_fields_give_the_same_energies(kind, source, N):
    # keep_fields=False sums each block's energies from march's own buffer;
    # the bits match those of the kept history, which they are summed from,
    # and so do the margins, which take no fields
    spec = OperatorSpec(kind=kind, p=3.0, m=1.0, q=1.0, gamma=0.5)
    g = SpatialGrid1D(math.pi, 15)
    args = (spec, source, 0.6, COEFF, np.sin(g.x) - 0.3 * np.sin(2 * g.x),
            g, TimeGrid(5.0, N, 2.0))
    kept = solve_nonlinear(*args, keep_fields=True)
    lean = solve_nonlinear(*args, keep_fields=False)
    assert lean.fields is None and kept.fields.shape == (N + 1, 15)
    assert kept.energies.tobytes() == lean.energies.tobytes()
    assert np.array_equal(kept.energies,
                          np.sqrt(g.h * np.sum(kept.fields ** 2, axis=1)))
    assert check_energy_inequality(kept, 0.6).tobytes() \
        == check_energy_inequality(lean, 0.6).tobytes()


def _traced_peak(f, *args, **kwargs):
    """Peak bytes that tracemalloc traces while f runs."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        f(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_field_history_memory_does_not_grow_with_steps():
    # keep_fields=False holds one block of the field history: at 255 x 8192
    # the whole history would be 16.7 MB (33 MB with its increments)
    g = SpatialGrid1D(math.pi, 255)
    spec = OperatorSpec(kind="p_laplace", p=3.0)
    peaks = [_traced_peak(solve_nonlinear, spec, SourceSpec(), 0.5, COEFF,
                          np.sin(g.x), g, TimeGrid(10.0, N, 3.0),
                          keep_fields=False)
             for N in (2048, 8192)]
    assert peaks[1] < 4e6 and peaks[1] <= 1.5 * peaks[0]


def test_operator_suite_keeps_margins_not_fields():
    suite = reproduce.run_operator_suite(points=63, steps=256)
    assert [c[0] for c in suite] == [n for n, _ in reproduce._OPERATOR_CASES]
    for (name, tr, _), (_, kw) in zip(suite, reproduce._OPERATOR_CASES):
        assert tr.fields is None
        kept, _ = reproduce._fd_run(OperatorSpec(**kw), SourceSpec(),
                                    lambda g: 0.5 * np.sin(g.x), 63, 256,
                                    100.0)
        assert kept.energies.tobytes() == tr.energies.tobytes()
        assert check_energy_inequality(kept, 0.5).tobytes() \
            == check_energy_inequality(tr, 0.5).tobytes(), name


def test_operator_suite_holds_one_history_at_a_time():
    # the suite keeps no field history: what remains is one solve's march
    # state, 0.68 of one (N+1) x M history at 255 x 512 (measured)
    points, steps = 255, 512
    peak = _traced_peak(reproduce.run_operator_suite, points=points,
                        steps=steps)
    assert peak < 0.75 * (steps + 1) * points * 8
