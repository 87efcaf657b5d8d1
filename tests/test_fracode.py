import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdecay import fracode
from fracdecay.errors import DomainError
from fracdecay.fracode import (CaputoL1Operator, SemilinearParams, TimeGrid,
                               default_grading, lemma_envelope,
                               solve_linear_mode, solve_semilinear)


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
    # a non-finite horizon has no nodes to step to
    for horizon in (math.inf, math.nan):
        with pytest.raises(DomainError):
            TimeGrid(horizon, 16)
    # nor a non-finite grading, nor one past 10, whose first nodes could
    # underflow to 0
    for grading in (math.inf, math.nan, 200.0):
        with pytest.raises(DomainError):
            TimeGrid(1.0, 1024, grading)
    with pytest.raises(DomainError):
        CaputoL1Operator(TimeGrid(1.0, 16), 1.5)


def test_default_grading():
    assert default_grading(0.5) == pytest.approx(3.0)
    assert default_grading(0.2) == 4.0
    assert default_grading(1.0) == 1.0
    for alpha in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError, match="alpha"):
            default_grading(alpha)


B = fracode._BLOCK


def _squares(op):
    """(n0, W) for every in-block square W of the weights march forms."""
    N = op.grid.steps
    for n0 in range(0, N, B):
        m = min(B, N - n0)
        yield n0, op._weights(n0, np.empty((m, m)))


def test_weights_positive_and_increasing():
    op = CaputoL1Operator(TimeGrid(5.0, 32, 2.0), 0.4)
    _, W = next(_squares(op))
    for n in (1, 7, 32):
        row = W[n - 1, :n]
        assert np.all(row > 0)
        assert np.all(np.diff(row) >= 0)  # key to the energy inequality


@settings(max_examples=50, deadline=None, database=None)
@given(alpha=st.floats(0.05, 0.99), horizon=st.floats(0.1, 100.0),
       steps=st.integers(1, 300), grading=st.floats(1.0, 4.0))
def test_weights_square_is_the_log_formula(alpha, horizon, steps, grading):
    # every in-block square bit for bit, with d = t_n - t_k; on a uniform
    # mesh, where the two powers barely cancel, also their difference to
    # 1e-12 (within 5e-13 over 300 draws)
    e, g2 = 1.0 - alpha, math.gamma(2.0 - alpha)
    for r in (grading, 1.0):
        grid = TimeGrid(horizon, steps, r)
        t, h = grid.nodes, np.diff(grid.nodes)
        for n0, W in _squares(CaputoL1Operator(grid, alpha)):
            tn, hk = t[n0 + 1:n0 + len(W) + 1], h[n0:n0 + len(W)]
            log_form = np.diag(hk ** e)
            for i in range(1, len(W)):
                d = tn[i] - tn[:i]
                log_form[i, :i] = d ** e * np.expm1(e * np.log1p(hk[:i] / d))
            assert np.array_equal(W, log_form / (g2 * hk))
            if r == 1.0:
                two_power = (np.maximum(tn[:, None] - t[n0:n0 + len(W)], 0.0)
                             ** e - np.maximum(tn[:, None] - tn, 0.0) ** e)
                two_power /= g2 * hk
                assert np.all(np.abs(W - two_power) <= 1e-12 * two_power)


def _march_derivative(op, samples):
    """D^a of the samples at t_1..t_N as march forms it: each replayed
    step records hist + a_nn (s_n - s_{n-1}) and returns s_n."""
    samples = np.asarray(samples, dtype=float)
    out = np.empty((op.grid.steps,) + samples.shape[1:])

    def solve(n, ann, hist, prev):
        out[n - 1] = hist + ann * (samples[n] - prev)
        return samples[n]

    for _ in op.march(samples[0], solve):
        pass
    return out


def test_derivative_of_constant_is_zero():
    grid = TimeGrid(2.0, 40, 2.0)
    op = CaputoL1Operator(grid, 0.6)
    out = _march_derivative(op, np.ones(41))
    assert np.max(np.abs(out)) == 0.0


def test_exact_on_linear_samples():
    # D^a t = t^(1-a)/Gamma(2-a); the L1 interpolant is exact here, and
    # past the first block the far history is a sum of exponentials
    alpha = 0.35
    grid = TimeGrid(3.0, 50, 2.0)
    op = CaputoL1Operator(grid, alpha)
    t = grid.nodes
    out = _march_derivative(op, t)
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
        out = _march_derivative(op, t ** 2)
        exact = 2.0 * t[1:] ** (2.0 - alpha) / math.gamma(3.0 - alpha)
        errs.append(np.max(np.abs(out - exact)))
    assert errs[0] / errs[1] >= 2.0 ** 1.4


def _march_nodes(op, u0, solve):
    """Every node of op.march, collected from its blocks, which must tile
    0..N in order, each starting at the node the one before ended on."""
    U = np.empty((op.grid.steps + 1,) + np.shape(u0))
    U[0] = u0
    end = 0
    for n0, V in op.march(u0, solve):
        assert n0 == end and 2 <= len(V) <= B + 1
        assert np.array_equal(V[0], U[n0])
        U[n0:n0 + len(V)] = V
        end = n0 + len(V) - 1
    assert end == op.grid.steps
    return U


def _exact_row(op, n):
    """Weights a_{n,1..n} formed without cancellation: with d = t_n - t_k,
    a_{n,k} G(2-a) h_k = d^(1-a) expm1((1-a) log1p(h_k/d)) for k < n and
    h_n^(1-a) for k = n."""
    e, t = 1.0 - op.alpha, op.nodes
    d, h = t[n] - t[1:n], np.diff(t[:n + 1])
    num = np.append(d ** e * np.expm1(e * np.log1p(h[:-1] / d)), h[-1] ** e)
    return num / (math.gamma(2.0 - op.alpha) * h)


def _per_row_march(op, u0, solve):
    """Step-by-step history from the per-row weights of _exact_row."""
    u0 = np.asarray(u0, dtype=float)
    N = op.grid.steps
    U = np.empty((N + 1,) + u0.shape)
    U[0] = u0
    dU = np.empty((N,) + u0.shape)
    for n in range(1, N + 1):
        row = _exact_row(op, n)
        U[n] = solve(n, row[-1], row[:-1] @ dU[:n - 1], U[n - 1])
        dU[n - 1] = U[n] - U[n - 1]
    return U


@settings(max_examples=60, deadline=None, database=None)
@given(alpha=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       steps=st.sampled_from([1, B - 1, B, B + 1, 3 * B + 5, 1068]),
       width=st.sampled_from([None, 1, 5]), grading=st.floats(1.0, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
# the largest alpha below 1: the far-history kernel's sin(pi a) kept digits
# only once taken at pi (1 - a)
@example(alpha=0.9999999999999999, steps=101, width=None, grading=1.0,
         seed=280)
@example(alpha=0.05, steps=1068, width=5, grading=4.0,
         seed=1)
def test_blocked_history_matches_per_row_sums(alpha, steps, width, grading,
                                              seed):
    # march takes the far history as a sum of exponentials: it stays
    # within 1e-10 of a march whose weights lose no digits to cancellation
    # (the two-power weights lose up to 4e-9 here)
    op = CaputoL1Operator(TimeGrid(10.0, steps, grading), alpha)
    rng = np.random.default_rng(seed)
    shape = () if width is None else (width,)
    lam = rng.uniform(0.1, 2.0, shape)

    def solve(n, ann, hist, prev):
        return (ann * prev - hist) / (ann + lam)

    u0 = rng.uniform(0.5, 1.5, shape)
    ref = _per_row_march(op, u0, solve)
    U = _march_nodes(op, u0, solve)
    assert U.shape == ref.shape
    assert np.all(np.abs(U - ref) <= 1e-10 * np.abs(ref))


def test_march_matches_a_40_digit_march():
    # alpha = 0.05 on a grading-4 mesh: the hardest case for the in-block
    # weights (two powers lost 2.8e-11 here, the log form 6.6e-16) and the
    # sum-of-exponentials history
    op = CaputoL1Operator(TimeGrid(10.0, 101, 4.0), 0.05)

    def solve(n, ann, hist, prev):
        return (ann * prev - hist) / (ann + 1)

    U = _march_nodes(op, 1.0, solve)
    mp = mpmath.MPContext()
    mp.dps = 40
    t = [mp.mpf(x) for x in op.grid.nodes]  # the float nodes, exactly
    e, g2 = 1 - mp.mpf(0.05), mp.gamma(2 - mp.mpf(0.05))
    u = [mp.mpf(1)]
    for n in range(1, len(t)):
        a = [((t[n] - t[k - 1]) ** e - (t[n] - t[k]) ** e)
             / (g2 * (t[k] - t[k - 1])) for k in range(1, n + 1)]
        hist = mp.fsum(a[k - 1] * (u[k] - u[k - 1]) for k in range(1, n))
        u.append((a[-1] * u[-1] - hist) / (a[-1] + 1))
    ref = np.array([float(x) for x in u])
    assert np.all(np.abs(U - ref) <= 1e-13 * ref)


def test_march_derivative_matches_exact_sums_on_a_long_graded_mesh():
    # alpha = 0.3, r = 4, T = 1e6: the first steps are ~1e-6 of t_30, so
    # two-power weights lose up to 5e-2 across a whole row and 3.4e-11
    # inside the first block; march's in-block weights lose nothing
    # (1.7e-16), and its sum of exponentials past the block 2.8e-15
    grid = TimeGrid(1e6, 8192, 4.0)
    tr = solve_linear_mode(0.3, -0.2, 1.0, 1.0, grid)
    op = CaputoL1Operator(grid, 0.3)
    out = _march_derivative(op, tr.values)
    du = np.diff(tr.values)
    err = np.empty(len(du))
    for n in range(1, len(du) + 1):
        row = _exact_row(op, n)
        err[n - 1] = abs(out[n - 1] - row @ du[:n]) / (np.abs(row)
                                                       @ np.abs(du[:n]))
    assert np.max(err) <= 1e-13


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


def test_scalar_solvers_share_the_node_array():
    # the operator's nodes serve the step callback and the trace's times:
    # 5.06 node-length arrays at the peak, 8.01 with three more node arrays
    grid = TimeGrid(10.0, 32768, 3.0)
    params = SemilinearParams(nu=1.0, delta=1.0, beta=0.5, H0=1.0)
    for solve, args in ((solve_linear_mode, (0.5, 0.5, 1.0, 1.0, grid)),
                        (solve_semilinear, (params, 0.5, grid))):
        tracemalloc.start()
        try:
            tr = solve(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(tr.times, grid.nodes)
        assert peak <= 5.5 * grid.nodes.nbytes


def test_linear_mode_positive_decreasing():
    tr = solve_linear_mode(0.5, 0.5, 1.0, 1.0, TimeGrid(50.0, 256, 3.0))
    assert np.all(tr.values > 0)
    assert np.all(np.diff(tr.values) < 0)


def test_linear_mode_rejects_bad_exponent():
    with pytest.raises(DomainError):
        solve_linear_mode(0.5, -0.6, 1.0, 1.0, TimeGrid(1.0, 16))
    # and an eigenvalue outside [0, 1e12]
    for lam in (-1.0, math.nan, 1e13):
        with pytest.raises(DomainError, match="lam"):
            solve_linear_mode(0.5, 0.5, lam, 1.0, TimeGrid(1.0, 16))


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
    for n0, W in _squares(op):
        assert np.array_equal(W, np.diag(1.0 / h[n0:n0 + len(W)]))
    u = lin.values
    assert np.array_equal(_march_derivative(op, u), 1.0 / h * np.diff(u))


_MP = mpmath.MPContext()
_MP.dps = 50


def _mp_step_root(c, delta, rhs):
    """50-digit root of w + c w^delta = rhs, solved for x = log w."""
    C, D, L = _MP.mpf(c), _MP.mpf(delta), _MP.log(rhs)
    top = min(L, (L - _MP.log(C)) / D)  # the larger term alone reaches rhs

    def g(x):
        return _MP.log(_MP.exp(x) + C * _MP.exp(D * x)) - L

    return _MP.exp(_MP.findroot(g, (top - 4, top), solver="anderson"))


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("n, b", [(20, 0.0), (12, 0.05 - 1.0),
                                  (12, 0.5 - 1.0), (12, 0.99 - 1.0)])
def test_gauss_rules_match_mpmath(n, b):
    # _soe's two rules: 20-node Gauss-Legendre and 12-node Gauss-Jacobi
    # with weight (1+x)^(a-1), against mpmath's at 30 digits
    mp = mpmath.MPContext()
    mp.dps = 30
    X, W = mp.gauss_quadrature(n, "jacobi", 0, mp.mpf(b))
    order = sorted(range(n), key=lambda i: X[i])
    x, w = fracode._LEGENDRE if b == 0.0 else fracode._gauss_jacobi(n, b)
    assert np.all(np.diff(x) > 0)
    for i, j in enumerate(order):
        assert abs(x[i] - X[j]) <= 1e-14
        assert abs(w[i] - W[j]) <= 5e-13 * W[j]


@settings(max_examples=60, deadline=None, database=None)
@given(alpha=st.floats(0.05, 0.99), hi=_decades(-3, 4),
       ratio=_decades(0.1, 14), x=st.floats(0.0, 1.0))
@example(alpha=0.05, hi=1.0, ratio=1e14, x=1.0)
@example(alpha=0.99, hi=1.0, ratio=1e14, x=0.0)
def test_soe_nodes_meet_their_tolerance(alpha, hi, ratio, x):
    # sum_j c_j e^{-s_j x} = x^-a / G(1-a) to 5e-13 on [lo, hi], checked on
    # 64 points spread in log x from lo to hi and one point drawn between
    lo = hi / ratio
    s, c = fracode._soe(alpha, lo, hi)
    assert np.all(s > 0) and np.all(c > 0)
    mp = mpmath.MPContext()
    mp.dps = 30
    xs = np.append(np.geomspace(lo, hi, 64), lo * ratio ** x)
    g = mp.gamma(1 - mp.mpf(alpha))
    for y in xs:
        exact = mp.mpf(y) ** -mp.mpf(alpha) / g
        approx = math.fsum(c * np.exp(-s * y))
        assert abs(approx - exact) <= 5e-13 * exact


@settings(max_examples=200, deadline=None, database=None)
@given(c=_decades(-12, 12), delta=st.floats(0.2, 5.0), rhs=_decades(-200, 200))
@example(c=1e-12, delta=0.2, rhs=1e200)  # (rhs/c)^(1/delta) above every float
@example(c=1e12, delta=0.2, rhs=1e-200)  # the root underflows to 0
@example(c=1e-300, delta=5.0, rhs=1.7e308)  # w^delta overflows, c w^delta not
def test_step_root_is_the_exact_root(c, delta, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = fracode._step_root(c, delta, rhs)
    assert 0.0 <= w <= rhs
    exact = _mp_step_root(c, delta, rhs)
    assert abs(_MP.mpf(w) - exact) <= 2 * math.ulp(float(exact))


@settings(max_examples=200, deadline=None, database=None)
@given(c=_decades(-12, 12), rhs=_decades(-200, 200))
def test_step_root_at_delta_one_is_the_quotient(c, rhs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = fracode._step_root(c, 1.0, rhs)
    exact = float(Fraction(rhs) / (1 + Fraction(c)))  # correctly rounded
    assert abs(w - exact) <= math.ulp(exact)


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


def test_solution_between_lemma_envelopes():
    # the lemma's envelopes themselves, with no constant in front; the
    # margins, 8.3e-8 here at the first node, shrink like N^-3
    params = SemilinearParams(nu=1.0, delta=2.0, beta=0.5, H0=1.0)
    tr = solve_semilinear(params, 0.5, TimeGrid(100.0, 1024, 3.0))
    sub, sup = lemma_envelope(params, 0.5)
    t, v = tr.times[1:], tr.values[1:]
    assert np.all(sub(t) <= v * (1 + 1e-12))
    assert np.all(v <= sup(t) * (1 + 1e-12))
    assert np.min(v / sub(t)) - 1.0 > 1e-9
    assert 1.0 - np.max(v / sup(t)) > 1e-9


def test_semilinear_param_validation():
    with pytest.raises(DomainError):
        SemilinearParams(nu=-1.0, delta=2.0, beta=0.5, H0=1.0)
    with pytest.raises(DomainError):
        SemilinearParams(nu=1.0, delta=0.0, beta=0.5, H0=1.0)
