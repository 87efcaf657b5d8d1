import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdecay.errors import DomainError, GridMismatch
from fracdecay.fracode import (CaputoL1Operator, SemilinearParams, TimeGrid,
                               default_grading, lemma_envelope,
                               lemma_sandwich_factors, solve_linear_mode,
                               solve_semilinear)


def test_grid_nodes_monotone_and_graded():
    g = TimeGrid(10.0, 64, 3.0)
    t = g.nodes
    assert t[0] == 0.0 and t[-1] == pytest.approx(10.0)
    assert np.all(np.diff(t) > 0)
    # grading clusters nodes at the origin
    assert t[1] < 10.0 / 64


def test_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid(-1.0, 16)
    with pytest.raises(DomainError):
        TimeGrid(1.0, 16, 0.5)
    # a fractional step count would put the last node past the horizon
    with pytest.raises(DomainError):
        TimeGrid(10.0, 2.5)
    with pytest.raises(DomainError):
        CaputoL1Operator(TimeGrid(1.0, 16), 1.5)


def test_default_grading():
    assert default_grading(0.5) == pytest.approx(3.0)
    assert default_grading(0.2) == 4.0


def test_weights_positive_and_increasing():
    op = CaputoL1Operator(TimeGrid(5.0, 32, 2.0), 0.4)
    for n in (1, 7, 32):
        row = op.weights_row(n)
        assert row.shape == (n,)
        assert np.all(row > 0)
        assert np.all(np.diff(row) >= 0)  # key to the energy inequality


@settings(max_examples=50, deadline=None, database=None)
@given(alpha=st.floats(0.05, 0.99), horizon=st.floats(0.1, 100.0),
       steps=st.integers(1, 300), grading=st.floats(1.0, 4.0))
def test_weights_row_is_the_two_power_formula(alpha, horizon, steps, grading):
    grid = TimeGrid(horizon, steps, grading)
    op = CaputoL1Operator(grid, alpha)
    t, h = grid.nodes, np.diff(grid.nodes)
    e, g2 = 1.0 - alpha, math.gamma(2.0 - alpha)
    for n in range(1, steps + 1):
        d = t[n] - t[:n + 1]
        d[-1] = 0.0
        expected = (d[:-1] ** e - d[1:] ** e) / (g2 * h[:n])
        assert np.array_equal(op.weights_row(n), expected)


def test_derivative_of_constant_is_zero():
    grid = TimeGrid(2.0, 40, 2.0)
    op = CaputoL1Operator(grid, 0.6)
    out = op.apply(np.ones(41))
    assert np.max(np.abs(out)) == 0.0


def test_exact_on_linear_samples():
    # D^a t = t^(1-a)/Gamma(2-a); the L1 interpolant is exact here
    alpha = 0.35
    grid = TimeGrid(3.0, 50, 2.0)
    op = CaputoL1Operator(grid, alpha)
    t = grid.nodes
    out = op.apply(t.copy())
    exact = t[1:] ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    assert np.max(np.abs(out - exact) / exact) < 1e-12


def test_convergence_order_on_quadratic():
    # D^a t^2 = 2 t^(2-a)/Gamma(3-a); error should drop by >= 2^1.4
    # per uniform halving (order 2-a with a = 0.5)
    alpha = 0.5
    errs = []
    for N in (64, 128):
        grid = TimeGrid(1.0, N, 1.0)
        op = CaputoL1Operator(grid, alpha)
        t = grid.nodes
        out = op.apply(t ** 2)
        exact = 2.0 * t[1:] ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs.append(np.max(np.abs(out - exact)))
    assert errs[0] / errs[1] >= 2.0 ** 1.4


def test_apply_shape_checks():
    op = CaputoL1Operator(TimeGrid(1.0, 8), 0.5)
    with pytest.raises(GridMismatch):
        op.apply(np.ones(7))


def test_linear_mode_zero_rate_is_constant():
    tr = solve_linear_mode(0.5, 0.5, 0.0, 3.0, TimeGrid(10.0, 64, 3.0))
    assert np.max(np.abs(tr.values - 3.0)) < 1e-14


def test_linear_mode_alpha_one_matches_exponential():
    # du/dt = -t^b u  =>  u = exp(-t^(1+b)/(1+b))
    beta = 0.5
    grid = TimeGrid(2.0, 4096, 2.0)
    tr = solve_linear_mode(1.0, beta, 1.0, 1.0, grid)
    exact = np.exp(-grid.nodes ** (1.0 + beta) / (1.0 + beta))
    assert np.max(np.abs(tr.values - exact)) < 2e-3


def test_linear_mode_positive_decreasing():
    tr = solve_linear_mode(0.5, 0.5, 1.0, 1.0, TimeGrid(50.0, 256, 3.0))
    assert np.all(tr.values > 0)
    assert np.all(np.diff(tr.values) < 0)


def test_linear_mode_rejects_bad_exponent():
    with pytest.raises(DomainError):
        solve_linear_mode(0.5, -0.6, 1.0, 1.0, TimeGrid(1.0, 16))


def test_semilinear_positive_decreasing():
    params = SemilinearParams(nu=1.0, delta=2.0, beta=0.5, H0=1.0)
    tr = solve_semilinear(params, 0.5, TimeGrid(100.0, 512, 3.0))
    assert np.all(tr.values > 0)
    assert np.all(np.diff(tr.values) < 0)


def test_semilinear_alpha_one_branch():
    # dH/dt = -t^b H^2  =>  H = 1/(1 + t^(1+b)/(1+b))
    params = SemilinearParams(nu=1.0, delta=2.0, beta=1.0, H0=1.0)
    grid = TimeGrid(5.0, 2048, 2.0)
    tr = solve_semilinear(params, 1.0, grid)
    exact = 1.0 / (1.0 + grid.nodes ** 2 / 2.0)
    assert np.max(np.abs(tr.values - exact)) < 2e-3


@settings(max_examples=25, deadline=None, database=None)
@given(alpha=st.floats(0.2, 1.0), beta=st.floats(-0.1, 1.0),
       nu=st.floats(0.3, 2.0))
def test_semilinear_delta_one_is_linear_mode(alpha, beta, nu):
    grid = TimeGrid(5.0, 512, default_grading(alpha))
    lin = solve_linear_mode(alpha, beta, nu, 1.0, grid)
    params = SemilinearParams(nu=nu, delta=1.0, beta=beta, H0=1.0)
    semi = solve_semilinear(params, alpha, grid)
    assert np.max(np.abs(semi.values - lin.values) / lin.values) < 1e-12
    # at alpha = 1 the L1 weights are those of backward Euler
    op = CaputoL1Operator(grid, 1.0)
    h = np.diff(grid.nodes)
    for n in (1, 2, 512):
        expected = np.zeros(n)
        expected[-1] = 1.0 / h[n - 1]
        assert np.array_equal(op.weights_row(n), expected)


def test_envelopes_continuous_and_ordered():
    params = SemilinearParams(nu=1.0, delta=2.0, beta=0.5, H0=1.0)
    sub, sup = lemma_envelope(params, 0.5)
    for f in (sub, sup):
        ts = f.switch_time
        left, right = f(np.array([ts * (1 - 1e-9), ts * (1 + 1e-9)]))
        assert left == pytest.approx(right, rel=1e-6)
    t = np.logspace(-2, 3, 200)
    assert np.all(sub(t) <= sup(t) * (1 + 1e-12))
    # both decay like t^(-(a+b)/delta) in the far tail
    s = (0.5 + 0.5) / 2.0
    for f in (sub, sup):
        ratio = f(np.array([1e5]))[0] / f(np.array([1e6]))[0]
        assert ratio == pytest.approx(10.0 ** s, rel=1e-6)


def test_solution_between_scaled_envelopes():
    params = SemilinearParams(nu=1.0, delta=2.0, beta=0.5, H0=1.0)
    tr = solve_semilinear(params, 0.5, TimeGrid(100.0, 1024, 3.0))
    c, C = lemma_sandwich_factors(tr, params, 0.5)
    assert 0.0 < c <= 1.0 <= C < math.inf
    sub, sup = lemma_envelope(params, 0.5)
    t, v = tr.times[1:], tr.values[1:]
    assert np.all(c * sub(t) <= v * (1 + 1e-12))
    assert np.all(v <= C * sup(t) * (1 + 1e-12))


def test_semilinear_param_validation():
    with pytest.raises(DomainError):
        SemilinearParams(nu=-1.0, delta=2.0, beta=0.5, H0=1.0)
    with pytest.raises(DomainError):
        SemilinearParams(nu=1.0, delta=0.0, beta=0.5, H0=1.0)
