"""Caputo L1 discretization on graded meshes and scalar mode solvers.

The L1 scheme replaces the derivative inside the Caputo convolution by the
slope of the piecewise-linear interpolant, giving at node t_n

    (D^a u)_n ~= sum_{k=1..n} a_{n,k} (u_k - u_{k-1}),
    a_{n,k} = [(t_n - t_{k-1})^{1-a} - (t_n - t_k)^{1-a}] / (G(2-a) h_k).

Weights are generated on demand (the full table is O(N^2)).  The L1
history by blocks of steps, exact weights inside a block and a sum of
exponentials for the blocks before it, exists once, as
`CaputoL1Operator._history`: `march` steps with it in O(N) time per node,
and the energy check takes its margins from it.  `apply` is the exact
O(N^2) sum, the independent reference.  Solutions of the mode equation
D^a u + lam t^b u = 0  carry a weak singularity at t = 0, which the graded
mesh t_j = T (j/N)^r compensates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridMismatch, RootSolveFailure

# steps per history block; with the SOE history, 32 was fastest on the
# fd_stepping solves (best of 4: 0.77 s against 0.79-0.88 s for 16, 24, 48
# and 64, one BLAS thread, 2-core Xeon)
_BLOCK = 32
# nodes per chunk of apply's exact sum; 1024 beat 512 and 256 on a 511 x 4096
# exact-sum energy check (0.25 against 0.26, 0.27 s, one BLAS thread)
_CHUNK = 1024
_CUT = 40.0  # an exponential e^{-s x} is dropped where s x > 40


def _gauss_jacobi(n, b):
    """Nodes x and weights w of the n-point Gauss rule for the weight
    (1+x)^b on [-1, 1], b > -1, by Golub and Welsch (Math. Comp. 23, 1969):
    x are the eigenvalues of the symmetric tridiagonal matrix of the
    three-term recurrence of the Jacobi polynomials P^(0,b), w the squared
    first components of its eigenvectors times the weight's integral
    2^(b+1)/(b+1)."""
    k = np.arange(1.0, n)
    s = 2.0 * k + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)  # b^2/(s(s+2)) at k = 0, also at b = 0
    diag[1:] = b * b / (s * (s + 2.0))
    off = 2.0 * k * (k + b) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (b + 1.0) / (b + 1.0) * v[0] ** 2


# the 20-node Gauss-Legendre rule of every _soe panel
_LEGENDRE = _gauss_jacobi(20, 0.0)


def _soe(alpha, lo, hi):
    """Nodes s and weights c with sum_j c_j e^{-s_j x} = x^{-a}/G(1-a) to a
    relative 5e-13 for lo <= x <= hi (4e-14 measured, a in [0.01, 1)).

    x^{-a}/G(1-a) = sin(pi a)/pi int_0^inf tau^{a-1} e^{-tau x} dtau, the
    sine taken at pi min(a, 1-a) to keep its digits as a -> 1: 12
    Gauss-Jacobi nodes on [0, 1/hi], where tau x <= 1, then 20-node
    Gauss-Legendre panels of width 3.4 in log tau up to 40/lo, past which
    e^{-tau x} <= e^{-40}.  About 200 nodes for hi/lo = 1e11.
    """
    xi, wj = _gauss_jacobi(12, alpha - 1.0)
    y, wg = _LEGENDRE
    panels = math.ceil(math.log(_CUT * hi / lo) / 3.4)
    u = 1.7 * (2.0 * np.arange(panels)[:, None] + 1.0 + y) - math.log(hi)
    s = np.concatenate([0.5 / hi * (1.0 + xi), np.exp(u).ravel()])
    c = np.concatenate([(0.5 / hi) ** alpha * wj,
                        (1.7 * wg * np.exp(alpha * u)).ravel()])
    return s, math.sin(math.pi * min(alpha, 1.0 - alpha)) / math.pi * c


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
        if not 0.0 < self.horizon < math.inf:
            raise DomainError("horizon must be positive and finite")
        if not isinstance(self.steps, numbers.Integral):
            raise DomainError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise DomainError("need at least one step")
        if not 1.0 <= self.grading < math.inf:
            raise DomainError("grading exponent must be >= 1 and finite")
        if not np.all(np.diff(self.nodes) > 0.0):
            raise DomainError("grading makes nodes near t = 0 coincide")

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

    def _weights(self, n0: int, start: int, out) -> np.ndarray:
        """Weights a_{n,k} of the rows n = n0+1..n1 over k = start+1..end,
        written into ``out`` of shape (n1 - n0, end - start); 0 for k > n."""
        n1, end = n0 + out.shape[0], start + out.shape[1]
        if self.alpha == 1.0:
            # (t_n - t_k)^(1-a) -> 1 for k < n but -> 0 for k = n
            out[...] = 0.0
            np.fill_diagonal(out[:, n0 - start:], 1.0 / self._h[n0:n1])
            return out
        p = self._t[n0 + 1:n1 + 1, None] - self._t[start:end + 1]
        np.maximum(p, 0.0, out=p)
        p **= 1.0 - self.alpha  # 0 for k >= n; p is the one temporary
        np.subtract(p[:, :-1], p[:, 1:], out=out)
        return np.divide(out, self._g2h[start:end], out=out)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Discrete D^a of (N+1,) or (N+1, M) per-node samples at t_1..t_N:
        the exact O(N^2) sum, by pairs of a block of _BLOCK increments and a
        chunk of up to _CHUNK nodes.  The caller's array is not written to.
        """
        from scipy.linalg.blas import dgemm
        samples = np.asarray(samples, dtype=float)
        N = self.grid.steps
        if samples.shape[0] != N + 1:
            raise GridMismatch(f"expected {N + 1} samples, got {len(samples)}")
        out = np.zeros((N,) + samples.shape[1:])
        out2 = out.reshape(N, -1)  # a 2-D view, also of a 1-D result
        B = min(_BLOCK, N)
        w = np.empty(min(_CHUNK, N) * B)
        for k0 in range(0, N, B):
            k1 = min(k0 + B, N)
            dK = np.diff(samples[k0:k1 + 1], axis=0).reshape(k1 - k0, -1)
            for n0 in range(k0, N, _CHUNK):
                n1 = min(n0 + _CHUNK, N)
                W = w[:(n1 - n0) * (k1 - k0)].reshape(n1 - n0, k1 - k0)
                self._weights(n0, k0, W)
                # out += W dK in place: BLAS writes the transposed view of out
                dgemm(1.0, dK.T, W.T, 1.0, out2[n0:n1].T, overwrite_c=1)
        return out

    def _history(self, shape):
        """The L1 history of samples of ``shape`` (() or (M,)) by blocks.

        Per block n0 < n <= n1 = n0 + m of B = _BLOCK steps, yields (n0, m,
        W, far, dU): the exact in-block weights W[i, j] = a_{n0+1+i, n0+1+j}
        (0 for k > n), far[i], node n0+1+i's history from before n0, and
        dU, which the caller fills with the block's m increments before it
        resumes the generator; the next block overwrites all three.

        The far part is a sum of exponentials,
            far_n = sum_j c_j e^{-s_j (t_n - t_n0)} Y_j,
            Y_j = sum_{k<=n0} e^{-s_j (t_n0 - t_k)} phi(s_j h_k) (u_k - u_{k-1}),
        with phi(z) = -expm1(-z)/z the exact mean of each exponential over
        a step.  The nodes (s_j, c_j) fit the kernel x^{-a}/G(1-a) on
        [delta, T], delta = h_{B+1} the shortest far distance, to a relative
        eps = 5e-13 (`_soe`), so each far weight is within eps of a_{n,k}.
        Y is updated once per block, and a node drops out for good once
        e^{-s_j h_{n0+1}} < e^{-_CUT}: O(N J M) work and O((B + J) M)
        memory, J <= ~250, against O(N^2 M) and O(N M) for the exact sum.
        The first block (N <= B is exact, bit for bit) and alpha = 1, whose
        far weights vanish, have no far part.
        """
        # scipy.linalg (dgemm here, gtsv in the nonlinear step) loads at a
        # process's first march, not with the package: the spectral and
        # special-function paths never step, and its import costs them ~6 MB
        from scipy.linalg.blas import dgemm
        N = self.grid.steps
        B = min(_BLOCK, N)
        dU = np.empty((B,) + shape)
        W = np.empty((B, B))  # row i: in-block weights of step n0 + 1 + i
        far = np.zeros((B,) + shape)
        t, h = self._t, self._h
        J = 0  # nodes in use; none without a far part
        if N > B and self.alpha < 1.0:
            s, c = _soe(self.alpha, h[B], t[N])
            J = s.size
            far2, dU2 = far.reshape(B, -1), dU.reshape(B, -1)  # 2-D views
            Y = np.zeros((J, dU2.shape[1]))
            E, G = np.empty((B, J)), np.empty((J, B))
        for n0 in range(0, N, B):
            n1 = min(n0 + B, N)
            m = n1 - n0
            self._weights(n0, n0, W[:m, :m])
            if n0 and J:  # E_ij = c_j e^{-s_j (t_n - t_n0)}
                Ej = E[:m, :J]
                np.multiply.outer(t[n0] - t[n0 + 1:n1 + 1], s[:J], out=Ej)
                np.multiply(np.exp(Ej, out=Ej), c[:J], out=Ej)
                np.matmul(Ej, Y[:J], out=far2[:m])
            yield n0, m, W[:m, :m], far[:m], dU[:m]
            if n1 < N and J:  # every block but the last is full
                # far distances from here on are >= h_{n1+1}
                J = min(J, int(np.searchsorted(s, _CUT / h[n1], "right")))
                sj, Gj = s[:J], G[:J]
                # G_jk = e^{-s_j (t_n1 - t_k)} phi(s_j h_k), k in (n0, n1]
                np.multiply.outer(sj, h[n0:n1], out=Gj)
                phi = -np.expm1(-Gj) / Gj
                np.multiply.outer(sj, t[n0 + 1:n1 + 1] - t[n1], out=Gj)
                np.multiply(np.exp(Gj, out=Gj), phi, out=Gj)
                Y[:J] *= np.exp((t[n0] - t[n1]) * sj)[:, None]
                # Y += G dU in place: BLAS writes the transposed view of Y
                dgemm(1.0, dU2.T, Gj.T, 1.0, Y[:J].T, overwrite_c=1)

    def march(self, u0, solve):
        """Implicit L1 time stepping from u0, a scalar or an (M,) field.

        At each node t_n, n = 1..N, the scheme reads
        a_nn (u_n - u_{n-1}) + hist = (rest of the equation at t_n) with the
        explicit history hist = sum_{k<n} a_{n,k} (u_k - u_{k-1}) from
        `_history`; ``solve(n, a_nn, hist, u_{n-1})`` returns u_n.  Yields
        (n0, V) per block, V = u_{n0..n1}, a view the next block overwrites.
        """
        u0 = np.asarray(u0, dtype=float)
        U = np.full((min(_BLOCK, self.grid.steps) + 1,) + u0.shape, u0)
        for n0, m, W, far, dU in self._history(u0.shape):
            for i, n in enumerate(range(n0 + 1, n0 + m + 1)):
                hist = far[i] + W[i, :i].dot(dU[:i])
                U[i + 1] = solve(n, W[i, i], hist, U[i])
                dU[i] = U[i + 1] - U[i]
            yield n0, U[:m + 1]
            U[0] = U[m]


def _scalar_trace(grid, alpha, beta, u0, solve) -> ScalarTrace:
    """Every node of the L1 march of a mode equation with factor t^beta."""
    op = CaputoL1Operator(grid, alpha)
    if beta <= -alpha:
        raise DomainError("require beta > -alpha")
    values = np.empty(grid.steps + 1)
    for n0, V in op.march(u0, solve):
        values[n0:n0 + len(V)] = V
    return ScalarTrace(times=grid.nodes, values=values)


def solve_linear_mode(alpha: float, beta: float, lam: float, u0: float,
                      grid: TimeGrid) -> ScalarTrace:
    """Implicit L1 stepping of  D^a u + lam t^b u = 0,  u(0) = u0.

    The coefficient t^b is taken at the right endpoint of each step, so
    negative b never touches t = 0.  At alpha = 1 the L1 weights reduce
    to backward Euler.
    """
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    t = grid.nodes

    def solve(n, ann, hist, prev):
        return (ann * prev - hist) / (ann + lam * t[n] ** beta)

    return _scalar_trace(grid, alpha, beta, u0, solve)


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


def _step_root(c, delta, rhs):
    """Root in [0, rhs] of the increasing f(w) = w + c w^delta - rhs.

    Newton bisects whenever it leaves the bracket, and an overflowing
    c w^delta counts as f > 0.  A double residual moves the root by up to
    1/delta ulps, so the last Newton step takes it in extended precision."""
    try:  # min(rhs, (rhs/c)^(1/delta)) bounds the root from above
        w = math.exp((math.log(rhs) - math.log(c)) / delta) or math.ulp(0.0)
    except (OverflowError, ValueError):  # above every float, or c = 0
        w = rhs
    lo, hi, w = 0.0, rhs, min(w, rhs)
    k = min(1.0, 1.0 / delta)  # k w f'(w) <= w + c w^delta: no overflow
    while True:
        try:
            b = c * w ** delta
        except OverflowError:  # w^delta overflows; c w^delta need not
            e = math.log(c) + delta * math.log(w)
            b = math.exp(e) if e <= 709.782712893384 else math.inf  # log(max)
        f = w + b - rhs
        lo, hi = (w, hi) if f < 0.0 else (lo, w)
        d = k * w + k * delta * b  # bisect once c w^delta overflows
        new = w - f / d * (k * w) if d < math.inf else math.nan
        if new != w and not lo < new < hi:
            new = lo + 0.5 * (hi - lo)
        if not lo < new < hi:  # converged, or two adjacent floats
            break
        w = new
    x = np.longdouble(w)
    b = c * x ** delta
    return min(max(float(x - (x + b - rhs) / (x + delta * b) * x), 0.0), rhs)


def solve_semilinear(params: SemilinearParams, alpha: float,
                     grid: TimeGrid) -> ScalarTrace:
    """Implicit L1 steps, each the root of  w + c w^delta = rhs  (c > 0) on
    [0, rhs] to about an ulp; it exists while rhs stays positive.  At
    alpha = 1 the L1 weights reduce to backward Euler."""
    t = grid.nodes
    nu, delta, beta = params.nu, params.delta, params.beta

    def solve(n, ann, hist, prev):
        rhs = float(prev - hist / ann)
        if not 0.0 < rhs < math.inf:
            raise RootSolveFailure("step data not positive and finite; "
                                   "refine the mesh near t = 0")
        return _step_root(float(nu * t[n] ** beta / ann), delta, rhs)

    return _scalar_trace(grid, alpha, beta, params.H0, solve)


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

    # Logarithms throughout: H0^(1-delta), t1, t2 and the amplitudes leave
    # the float range for extreme H0.  l1 = log t1^(a+b), l2 = log t2^(a+b),
    # and lsub, lsup are the logs of the tails' factors of t^(-(a+b)/delta).
    lh = math.log(H0)
    l1 = (1.0 - delta) * lh - math.log(2.0 * nu * g1)
    l2 = (1.0 - delta) * lh - math.log(nu) + float(np.logaddexp(
        alpha * math.log(2.0) - math.log(g1),
        math.log(ab / delta) + (alpha + ab / delta) * math.log(2.0)
        - math.log(g2)))
    with np.errstate(over="ignore", under="ignore"):  # t1, t2 may be 0 or inf
        t1, t2 = (float(x) for x in np.exp([l1 / ab, l2 / ab]))
    t1 = max(t1, math.ulp(0.0))  # keeps sub(0) = H0 when t1 underflows
    lsub = l1 / delta + math.log(0.5) + lh
    lsup = l2 / delta + lh

    def sub(t):
        t = np.asarray(t, dtype=float)
        out = np.empty_like(t)
        early = t <= t1
        out[early] = H0 * (1.0 - 0.5 * (t[early] / t1) ** ab)  # no H0^delta
        out[~early] = np.exp(lsub - ab / delta * np.log(t[~early]))
        return out

    def sup(t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, H0)
        late = t > t2
        out[late] = np.exp(lsup - ab / delta * np.log(t[late]))
        return out

    sub.switch_time = t1
    sup.switch_time = t2
    return sub, sup
