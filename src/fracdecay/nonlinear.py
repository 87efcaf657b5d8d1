"""Semi-implicit Caputo-L1 finite-difference solvers in one dimension.

The six operators (Laplace, p-Laplace, porous medium, degenerate,
mean curvature, Kirchhoff) are discretized by second-order differences
on a uniform interior grid with homogeneous Dirichlet closure: five in
conservative flux form at half-points, the degenerate one as f(u) times
the three-point Laplacian.  Each is one decay degree delta (`_DEGREE`)
and one pair of row coefficients (L, R), which fill the step band alike
for all six.  Time stepping freezes (L, R) at the previous iterate, so a
step is one (or a few) tridiagonal solves; the history stays explicit.

Each solve allocates its step system once: a (4, M) array of the super-,
main and subdiagonal rows and the right-hand side, which LAPACK gtsv
solves in place, and M-sized buffers for (L, R), the source term, the
current iterate and the residual.  a(t_n) is evaluated on all nodes at
once, and a_nn u_{n-1} - hist once per step; each sweep only writes into
these buffers, and a single sweep computes no residual.

Energies are summed per block of nodes from `march`; only keep_fields=True
keeps the N x M field history.  Each step also records h u_n . D^a u_n,
with D^a u_n = hist + a_nn (u_n - u_{n-1}) from the history `march` hands
it, so the energy check needs no fields and no second pass over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DomainError, GridMismatch, NonFiniteState,
                     PositivityLoss, StepDivergence, require)
from .fracode import CaputoL1Operator, TimeGrid
from .spectral import CoefficientSpec


@dataclass(frozen=True)
class SpatialGrid1D:
    """Uniform interior grid on (0, L) with Dirichlet closure u = 0."""

    length: float
    interior: int

    def __post_init__(self):
        require(L=self.length, points=self.interior)

    @property
    def h(self) -> float:
        return self.length / (self.interior + 1)

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(1, self.interior + 1)


# decay degree delta of each operator kind, A(c u) = c^delta A(u), which
# sets the predicted rate t^-(a+b)/delta (mean curvature takes 1)
_DEGREE = {"laplace": lambda o: 1.0, "p_laplace": lambda o: o.p - 1.0,
           "porous_medium": lambda o: o.m + 1.0,
           "degenerate": lambda o: o.q + 1.0, "mean_curvature": lambda o: 1.0,
           "kirchhoff": lambda o: o.gamma + o.p - 1.0}
OPERATORS = tuple(_DEGREE)
SOURCES = ("none", "fisher_kpp", "power_absorption")


@dataclass(frozen=True)
class OperatorSpec:
    """One of the supported elliptic operators with its hypothesis data."""

    kind: str
    p: float = 2.0      # p-Laplace / Kirchhoff exponent
    m: float = 0.0      # porous medium: mobility g(u) = c0 |u|^m
    c0: float = 1.0
    q: float = 0.0      # degenerate: f(u) = |u|^q in f(u) Lap u
    gamma: float = 0.0  # Kirchhoff: M(s) = s^gamma, s = (h sum |Du|^2)^(1/2)

    def __post_init__(self):
        if self.kind not in OPERATORS:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        require(p=self.p, m=self.m, c0=self.c0, q=self.q, gamma=self.gamma)


@dataclass(frozen=True)
class SourceSpec:
    """Reaction term added to the diffusion equation."""

    kind: str = "none"          # one of SOURCES
    mu: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in SOURCES:
            raise DomainError(f"unknown source kind {self.kind!r}")
        require(mu=self.mu, p=self.p)


def predict_exponent(spec: OperatorSpec, alpha: float, beta: float) -> float:
    """Theoretical upper-bound decay exponent s = (a+b)/delta."""
    require(alpha_frac=alpha, beta=beta)
    return (alpha + beta) / _DEGREE[spec.kind](spec)


def _half_coefficient(spec: OperatorSpec, u, h, out=None):
    """(L, R) of A_h(u)_i = (R_i (u_{i+1} - u_i) - L_i (u_i - u_{i-1})) / h^2,
    u_0 = u_{M+1} = 0, as views of ``out`` (M+1 values): (d[:-1], d[1:]) of
    the half-point d in flux form, (f, f), f = |u|^q, for f(u) Lap u."""
    out = np.empty(len(u) + 1) if out is None else out
    if spec.kind == "degenerate":
        f = np.abs(u, out=out[:-1])
        f **= spec.q
        return f, f
    if spec.kind == "laplace":
        out.fill(1.0)
        return out[:-1], out[1:]
    # boundary values are zero outside, so u_0 = u_{M+1} = 0 below
    if spec.kind == "porous_medium":
        np.add(u[:-1], u[1:], out=out[1:-1])
        out[0], out[-1] = 0.0 + u[0], u[-1] + 0.0
        out *= 0.5
        np.abs(out, out=out)
        out **= spec.m
        out *= spec.c0
        return out[:-1], out[1:]
    np.subtract(u[1:], u[:-1], out=out[1:-1])  # Du
    out[0], out[-1] = u[0] - 0.0, 0.0 - u[-1]
    out /= h
    if spec.kind == "mean_curvature":
        out **= 2
        out += 1.0
        np.sqrt(out, out=out)
        np.divide(1.0, out, out=out)
        return out[:-1], out[1:]
    np.abs(out, out=out)
    if spec.kind == "kirchhoff":
        s = (h * np.sum(out ** 2.0)) ** (1.0 / 2.0)
    if spec.p < 2.0:
        out += 1e-14
    out **= spec.p - 2.0
    if spec.kind == "kirchhoff":
        out *= s ** spec.gamma
    return out[:-1], out[1:]


@dataclass(frozen=True)
class FieldTrace:
    """Field history and energy trace of one nonlinear solve."""

    times: np.ndarray                 # (N+1,)
    energies: np.ndarray              # (N+1,)
    inner: np.ndarray                 # (N,) h u_n . D^a u_n at t_1..t_N
    alpha: float                      # the order a in inner
    grid: SpatialGrid1D
    tgrid: TimeGrid
    fields: Optional[np.ndarray] = None  # (N+1, M) when kept


def solve_nonlinear(spec: OperatorSpec, source: SourceSpec, alpha: float,
                    coeff: CoefficientSpec, u0: np.ndarray,
                    grid: SpatialGrid1D, tgrid: TimeGrid,
                    sweeps: int = 1, keep_fields: bool = True) -> FieldTrace:
    """Semi-implicit L1 stepping of  D^a u = a(t) A(u) - source(u).

    Per step: the Caputo history is explicit, the operator is applied
    implicitly with coefficients frozen at the previous iterate, and each
    extra sweep refreezes at the new iterate (up to 10).  Raises
    DomainError unless a(t) = kappa t^beta meets the hypothesis beta > -alpha,
    and NonFiniteState when a step system, a state or an energy is not finite.
    """
    from scipy.linalg.lapack import dgtsv
    require(alpha_frac=alpha, beta=coeff.beta)
    if not 1 <= sweeps <= 10:
        raise DomainError("sweeps must lie in 1..10")
    u0 = np.asarray(u0, dtype=float)
    M = grid.interior
    if u0.shape != (M,):
        raise DomainError(f"u0 must have shape ({M},)")
    h = grid.h
    h2 = h ** 2
    op = CaputoL1Operator(tgrid, alpha)
    t = op.nodes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = coeff.value(t)  # a(0) is inf for beta < 0; node 0 is never read
    porous_guard = spec.kind == "porous_medium" and (u0 >= 0.0).all()
    # One step system per solve, which each sweep writes into: the super-,
    # main and subdiagonal rows and the right-hand side.  The corners
    # system[0, 0] and system[2, -1] stay zero.
    system = np.zeros((4, M))
    up, main, low, rhs = system[0, 1:], system[1], system[2, :-1], system[3]
    d = np.empty(M + 1)   # row coefficients (L, R), views of d
    base = np.empty(M)    # a_nn u_{n-1} - hist, once per step
    src = np.empty(M)     # source term at the current iterate
    cur = np.empty(M)     # the iterate the next sweep freezes at
    work = np.empty(M)     # residual and scale, then u_n - u_{n-1}
    inner = np.empty(tgrid.steps)  # u_n . D^a u_n at t_1..t_N

    def solve(n, ann, hist, prev):
        an = float(a[n])
        np.multiply(prev, ann, out=base)
        np.subtract(base, hist, out=base)
        ustar = prev
        res_prev = math.inf
        for _ in range(sweeps):
            # A zero source leaves diag = ann > 0 and adds the scalar 0.0 to
            # the right-hand side, which rounds and signs zeros exactly as
            # an all-zero array would, so no such array is built.
            diag = ann
            rhs_src = 0.0
            if source.kind == "fisher_kpp":
                diag = ann + 1.0
                rhs_src = np.square(ustar, out=src)
            elif source.kind == "power_absorption":
                # ** keeps NumPy's exact shortcuts (p = 2 squares)
                s = np.abs(ustar, out=src)
                s **= source.p
                s *= source.mu
                if source.mu >= 0:
                    diag = np.add(s, ann, out=s)
                else:
                    s *= ustar
                    rhs_src = np.subtract(0.0, s, out=s)
            np.add(base, rhs_src, out=rhs)

            L, R = _half_coefficient(spec, ustar, h, out=d)
            np.multiply(R[:-1], -an, out=up)
            np.divide(up, h2, out=up)
            np.multiply(L[1:], -an, out=low)
            np.divide(low, h2, out=low)
            np.add(L, R, out=main)
            np.multiply(main, an, out=main)
            np.divide(main, h2, out=main)
            np.add(main, diag, out=main)
            if not np.isfinite(system).all():
                raise NonFiniteState(f"non-finite step system at t = {t[n]:g}")
            # LAPACK gtsv on the band rows; it overwrites them and rhs
            unew, info = dgtsv(low, main, up, rhs, 1, 1, 1, 1)[3:]
            if info != 0:
                raise NonFiniteState(f"singular step matrix at t = {t[n]:g}")
            if not np.isfinite(unew).all():
                raise NonFiniteState(f"non-finite state at t = {t[n]:g}")
            if sweeps == 1:
                break  # neither residual test below can act on one sweep
            np.subtract(unew, ustar, out=work)
            res = float(np.abs(work, out=work).max())
            scale = float(np.abs(unew, out=work).max())
            if res < 1e-10 * max(1.0, scale):
                break
            if res > 10.0 * res_prev:
                raise StepDivergence(
                    f"fixed-point residual grows at t = {t[n]:g}"
                )
            res_prev = res
            cur[:] = unew  # the next sweep overwrites unew
            ustar = cur
        if porous_guard and float(unew.min()) < -1e-10:
            raise PositivityLoss(f"negative state at t = {t[n]:g}")
        # u_n . D^a u_n with D^a u_n = hist + a_nn (u_n - u_{n-1})
        np.subtract(unew, prev, out=work)
        inner[n - 1] = hist.dot(unew) + ann * work.dot(unew)
        return unew

    U = np.empty((tgrid.steps + 1, M)) if keep_fields else None
    ss = np.empty(tgrid.steps + 1)  # sum_i u_i^2 at each node
    # overflow is reported by the finiteness checks, not by NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, V in op.march(u0, solve):  # V = u_{n0..n1}
            ss[n0:n0 + len(V)] = np.square(V).sum(axis=1)
            if keep_fields:
                U[n0:n0 + len(V)] = V
        energies = np.sqrt(h * ss)
    if not np.isfinite(energies).all():
        raise NonFiniteState("energy overflows on a finite field")
    return FieldTrace(t, energies, h * inner, alpha, grid, tgrid, fields=U)


def check_energy_inequality(trace: FieldTrace, alpha: float) -> np.ndarray:
    """Margins of  ||u|| D^a ||u|| <= int u D^a u  at nodes t_1..t_N.

    Both sides take the weights `march` steps with; nonnegative margins (up
    to roundoff) certify the discrete energy inequality the decay estimates
    rest on.  The right side is the solve's own `inner` column, so alpha
    must be the order the trace was solved with; D^a E comes from a scalar
    `march` over the energies, O(N J) work.
    """
    if alpha != trace.alpha:
        raise DomainError(f"trace was solved at alpha = {trace.alpha:g}, "
                          f"not {alpha:g}")
    E, N = trace.energies, trace.tgrid.steps
    if not len(E) == len(trace.inner) + 1 == N + 1:
        raise GridMismatch(f"expected {N + 1} energies and {N} inner "
                           f"products, got {len(E)} and {len(trace.inner)}")
    dE = np.empty(N)  # D^a E at t_1..t_N

    def solve(n, ann, hist, prev):
        dE[n - 1] = hist + ann * (E[n] - prev)
        return E[n]

    for _ in CaputoL1Operator(trace.tgrid, alpha).march(E[0], solve):
        pass
    return trace.inner - E[1:] * dE
