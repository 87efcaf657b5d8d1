"""Caputo L1 discretization on graded meshes and scalar mode solvers.

The L1 scheme replaces the derivative inside the Caputo convolution by the
slope of the piecewise-linear interpolant, giving at node t_n

    (D^a u)_n ~= sum_{k=1..n} a_{n,k} (u_k - u_{k-1}),
    a_{n,k} = [(t_n - t_{k-1})^{1-a} - (t_n - t_k)^{1-a}] / (G(2-a) h_k).

Weight rows are generated on demand (the full table is O(N^2)).  Solutions
of the mode equation  D^a u + lam t^b u = 0  carry a weak singularity at
t = 0, which the graded mesh t_j = T (j/N)^r compensates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, GridMismatch, RootSolveFailure


def default_grading(alpha: float) -> float:
    """Grading exponent (2-a)/a, capped at 4."""
    return min((2.0 - alpha) / alpha, 4.0)


@dataclass(frozen=True)
class TimeGrid:
    """Graded mesh t_j = T (j/N)^r on [0, T]."""

    horizon: float
    steps: int
    grading: float = 1.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise DomainError("horizon must be positive")
        if not isinstance(self.steps, numbers.Integral):
            raise DomainError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise DomainError("need at least one step")
        if self.grading < 1.0:
            raise DomainError("grading exponent must be >= 1")

    @property
    def nodes(self) -> np.ndarray:
        j = np.arange(self.steps + 1, dtype=float)
        return self.horizon * (j / self.steps) ** self.grading


@dataclass(frozen=True)
class ScalarTrace:
    """One scalar trajectory sampled on a TimeGrid."""

    times: np.ndarray
    values: np.ndarray


class CaputoL1Operator:
    """Discrete Caputo derivative of order alpha in (0,1] on a fixed grid.

    At alpha = 1 the weights take their L1 limit, which is backward Euler.
    """

    def __init__(self, grid: TimeGrid, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise DomainError("L1 weights require alpha in (0,1]")
        self.grid = grid
        self.alpha = alpha
        self._t = grid.nodes
        self._h = np.diff(self._t)
        self._g2h = math.gamma(2.0 - alpha) * self._h

    def weights_row(self, n: int) -> np.ndarray:
        """Weights a_{n,1..n} of the convolution at node t_n."""
        if self.alpha == 1.0:
            # (t_n - t_k)^(1-a) -> 1 for k < n but -> 0 for k = n
            row = np.zeros(n)
            row[-1] = 1.0 / self._h[n - 1]
            return row
        t = self._t
        e = 1.0 - self.alpha
        d = t[n] - t[:n + 1]
        d[-1] = 0.0  # guard roundoff at k = n
        p = d ** e
        return (p[:-1] - p[1:]) / self._g2h[:n]

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Discrete D^a of per-node samples; values at t_1..t_N.

        samples may be (N+1,) or (N+1, M) for M independent trajectories.
        """
        samples = np.asarray(samples, dtype=float)
        N = self.grid.steps
        if samples.shape[0] != N + 1:
            raise GridMismatch(
                f"expected {N + 1} samples, got {samples.shape[0]}"
            )
        du = np.diff(samples, axis=0)
        out = np.empty_like(du)
        for n in range(1, N + 1):
            out[n - 1] = self.weights_row(n) @ du[:n]
        return out

    def march(self, u0, solve) -> np.ndarray:
        """Implicit L1 time stepping from u0, a scalar or an (M,) field.

        At each node t_n, n = 1..N, the scheme reads
        a_nn (u_n - u_{n-1}) + hist = (rest of the equation at t_n) with the
        explicit history hist = sum_{k<n} a_{n,k} (u_k - u_{k-1});
        ``solve(n, a_nn, hist, u_{n-1})`` returns u_n.  Returns the nodal
        values, shape (N+1,) or (N+1, M).
        """
        u0 = np.asarray(u0, dtype=float)
        N = self.grid.steps
        U = np.empty((N + 1,) + u0.shape)
        U[0] = u0
        dU = np.empty((N,) + u0.shape)
        for n in range(1, N + 1):
            row = self.weights_row(n)
            U[n] = solve(n, row[-1], row[:-1] @ dU[:n - 1], U[n - 1])
            dU[n - 1] = U[n] - U[n - 1]
        return U


def solve_linear_mode(alpha: float, beta: float, lam: float, u0: float,
                      grid: TimeGrid) -> ScalarTrace:
    """Implicit L1 stepping of  D^a u + lam t^b u = 0,  u(0) = u0.

    The coefficient t^b is taken at the right endpoint of each step, so
    negative b never touches t = 0.  At alpha = 1 the L1 weights reduce
    to backward Euler.
    """
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    op = CaputoL1Operator(grid, alpha)
    if beta <= -alpha:
        raise DomainError("require beta > -alpha")
    t = grid.nodes

    def solve(n, ann, hist, prev):
        return (ann * prev - hist) / (ann + lam * t[n] ** beta)

    return ScalarTrace(times=t, values=op.march(u0, solve))


@dataclass(frozen=True)
class SemilinearParams:
    """Data of  D^a H + nu t^b H^delta = 0,  H(0) = H0 > 0."""

    nu: float
    delta: float
    beta: float
    H0: float

    def __post_init__(self):
        if self.nu <= 0 or self.delta <= 0 or self.H0 <= 0:
            raise DomainError("nu, delta, H0 must all be positive")


def solve_semilinear(params: SemilinearParams, alpha: float,
                     grid: TimeGrid) -> ScalarTrace:
    """Implicit L1 step with a per-step monotone scalar root solve.

    Each step reduces to  w + c w^delta = rhs  with c > 0, whose left side
    is strictly increasing on w >= 0, so a bracketed solve on [0, rhs]
    cannot fail as long as rhs stays positive.  At alpha = 1 the L1
    weights reduce to backward Euler.
    """
    op = CaputoL1Operator(grid, alpha)
    if params.beta <= -alpha:
        raise DomainError("require beta > -alpha")
    t = grid.nodes
    nu, delta, beta = params.nu, params.delta, params.beta

    def step(c, rhs):
        if rhs <= 0.0:
            raise RootSolveFailure(
                "nonpositive step data; refine the mesh near t = 0"
            )
        f = lambda w: w + c * w ** delta - rhs
        try:
            return brentq(f, 0.0, rhs, xtol=1e-14 * max(1.0, rhs), maxiter=200)
        except ValueError as exc:
            raise RootSolveFailure(str(exc)) from exc

    def solve(n, ann, hist, prev):
        return step(nu * t[n] ** beta / ann, prev - hist / ann)

    return ScalarTrace(times=t, values=op.march(params.H0, solve))


def lemma_envelope(params: SemilinearParams, alpha: float):
    """Explicit sub/super-solution pair for the semilinear mode equation.

    Both envelopes start at H0, stay constant or algebraic near the origin,
    and decay like t^(-(a+b)/delta) past their switch times t1, t2.
    Returns (sub, super) as vectorized callables of t >= 0.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("envelopes require alpha in (0,1)")
    if params.beta <= -alpha:
        raise DomainError("require beta > -alpha")
    nu, delta, beta, H0 = params.nu, params.delta, params.beta, params.H0
    ab = alpha + beta
    g1 = math.gamma(1.0 - alpha)
    g2 = math.gamma(2.0 - alpha)

    t1 = (H0 ** (1.0 - delta) / (2.0 * nu * g1)) ** (1.0 / ab)
    amp = (H0 ** (1.0 - delta) / (2.0 * nu * g1)) ** (1.0 / delta) * 0.5 * H0
    t2 = ((H0 ** (1.0 - delta) / nu)
          * (2.0 ** alpha / g1
             + (ab / delta) * 2.0 ** (alpha + ab / delta) / g2)) ** (1.0 / ab)

    def sub(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        early = t <= t1
        out[early] = H0 - nu * g1 * H0 ** delta * t[early] ** ab
        out[~early] = amp * t[~early] ** (-ab / delta)
        return out

    def sup(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, H0)
        late = t > t2
        out[late] = H0 * t2 ** (ab / delta) * t[late] ** (-ab / delta)
        return out

    sub.switch_time = t1
    sup.switch_time = t2
    return sub, sup


def lemma_sandwich_factors(trace: ScalarTrace, params: SemilinearParams,
                           alpha: float):
    """Factors (c, C) with c*sub <= H <= C*super at every node past the first."""
    sub, sup = lemma_envelope(params, alpha)
    t = trace.times[1:]
    v = trace.values[1:]
    c = float(np.min(v / sub(t)))
    C = float(np.max(v / sup(t)))
    return min(c, 1.0), max(C, 1.0)
