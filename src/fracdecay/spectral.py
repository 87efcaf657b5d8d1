"""Eigenfunction-expansion solutions on intervals and rectangles.

Geometries are restricted to (0, L) and (0, Lx) x (0, Ly), where the
Dirichlet/Neumann Laplacian eigenpairs are explicit, so every modal
trajectory is a closed form:

    sub-diffusion:  u_k(t) = u_{0k} E_{a, 1+b/a, b/a}(-lam_k t^(a+b)),
    heat:           u_k(t) = u_{0k} exp(-lam_k int_0^t a(s) ds).

Inner products use composite Gauss-Legendre panels sized to the mode
count; a Parseval-defect guard catches under-resolved projections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decayfit import DecayReport
from .errors import (DomainError, NonpositivePrimitive,
                     QuadratureUnderResolved, require)
from .fracode import _gauss_jacobi
from .specfun import KilbasSaigoParams, bound_rates, kilbas_saigo

PER_DECADE = 40  # log_times samples per decade
# relative slack of the modal bounds, the series' own accuracy level
BOUND_SLACK = 1e-9


def _panel_rule(a, b, panels):
    """Composite 6-point Gauss-Legendre nodes/weights on [a, b]."""
    x0, w0 = _gauss_jacobi(6, 0.0)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class EigenSystem:
    """Explicit Laplacian eigenpairs with a quadrature for inner products."""

    geometry: tuple          # (L,) or (Lx, Ly)
    bc: str                  # "dirichlet" | "neumann"
    lambdas: np.ndarray      # (K,) ascending
    basis: np.ndarray        # (K, nq) eigenfunctions at quadrature nodes
    quad_nodes: np.ndarray   # (nq, d)
    quad_weights: np.ndarray # (nq,)

    @property
    def K(self) -> int:
        return len(self.lambdas)


def _first_mode(bc):
    """Lowest 1-D mode index: sine modes start at 1, cosine modes at 0."""
    if bc not in ("dirichlet", "neumann"):
        raise DomainError(f"unknown boundary kind {bc!r}")
    return 1 if bc == "dirichlet" else 0


def _mode_1d(L, bc, k, x):
    """k-th normalized eigenfunction of -d^2/dx^2 on (0, L) at x."""
    if bc == "dirichlet":
        return math.sqrt(2.0 / L) * np.sin(k * math.pi / L * x)
    if k == 0:
        return np.full_like(x, math.sqrt(1.0 / L))
    return math.sqrt(2.0 / L) * np.cos(k * math.pi / L * x)


def _box_eigensystem(lengths, bc, K):
    """The K lowest product modes of the box prod_i (0, L_i), ties in index
    order.  A mode with an axis index >= start + K has K modes below it
    along that axis, so the index tuples in [start, start + K)^d hold them
    all.  An axis using n 1-D modes gets 4n + 1 six-point Gauss-Legendre
    panels; basis and quadrature are tensor products over the axes."""
    require(L=lengths, modes=K)
    start = _first_mode(bc)
    idx = np.array(list(itertools.product(range(start, start + K),
                                          repeat=len(lengths))))
    lam = np.sum((idx * math.pi / np.array(lengths)) ** 2, axis=1)
    order = np.argsort(lam, kind="stable")[:K]
    idx, lam = idx[order], lam[order]
    basis, weights, axes = np.ones((K, 1)), np.ones(1), []
    for L, ks in zip(lengths, idx.T):
        x, w = _panel_rule(0.0, L, 4 * (ks.max() + 1 - start) + 1)
        modes = np.array([_mode_1d(L, bc, k, x) for k in ks])
        basis = (basis[:, :, None] * modes[:, None, :]).reshape(K, -1)
        weights = np.outer(weights, w).ravel()
        axes.append(x)
    nodes = np.meshgrid(*axes, indexing="ij")
    return EigenSystem(geometry=tuple(lengths), bc=bc, lambdas=lam,
                       basis=basis, quad_weights=weights,
                       quad_nodes=np.column_stack([x.ravel() for x in nodes]))


def interval_eigensystem(L: float, bc: str = "dirichlet", K: int = 64) -> EigenSystem:
    return _box_eigensystem((L,), bc, K)


def rectangle_eigensystem(Lx: float, Ly: float, bc: str = "dirichlet",
                          K: int = 64) -> EigenSystem:
    return _box_eigensystem((Lx, Ly), bc, K)


def log_times(T: float, t_min: float = 1e-2) -> np.ndarray:
    """Log-spaced sample times for decay reports."""
    require(T=T, t_min=t_min)
    if not t_min < T:
        raise DomainError(f"sample times need t_min < T, got {t_min:g}, {T:g}")
    decades = math.log10(T / t_min)
    n = max(2, int(round(decades * PER_DECADE)) + 1)
    return np.logspace(math.log10(t_min), math.log10(T), n)


def project_initial_data(sys: EigenSystem, u0) -> np.ndarray:
    """Modal coefficients u_{0k} = int u0 e_k dx by quadrature.

    Raises QuadratureUnderResolved when the Parseval defect
    ||u0||^2 - sum u_{0k}^2 exceeds 1% of ||u0||^2.
    """
    vals = np.asarray(u0(*sys.quad_nodes.T), dtype=float)
    coeffs = sys.basis @ (sys.quad_weights * vals)
    norm2 = float(sys.quad_weights @ vals ** 2)
    defect = norm2 - float(coeffs @ coeffs)
    if norm2 > 0 and defect > 0.01 * norm2:
        raise QuadratureUnderResolved(
            f"Parseval defect {defect:.3g} exceeds 1% of ||u0||^2 = {norm2:.3g}"
        )
    return coeffs


@dataclass(frozen=True)
class SolutionTrace:
    """Modal trajectories and the L2 energy E(t) = (sum_k u_k^2)^(1/2)."""

    times: np.ndarray        # (Nt,)
    coeffs: np.ndarray       # (K, Nt)
    u0k: np.ndarray          # (K,) initial coefficients

    @property
    def energies(self) -> np.ndarray:
        return np.sqrt(np.sum(self.coeffs ** 2, axis=0))


def _mode_decay_factor(alpha, beta, lam, times):
    """E_{a,1+b/a,b/a}(-lam t^(a+b)) per time; exact exponential at a = 1."""
    ab = alpha + beta
    if lam == 0.0:
        return np.ones_like(times)
    if alpha == 1.0:
        return np.exp(-lam * times ** ab / ab)
    params = KilbasSaigoParams(alpha, 1.0 + beta / alpha, beta / alpha)
    return np.array([kilbas_saigo(params, -lam * t ** ab) for t in times])


def solve_subdiffusion(sys: EigenSystem, alpha: float, beta: float,
                       u0k: np.ndarray, times: np.ndarray) -> SolutionTrace:
    """Closed-form modal evolution of  D^a u = a(t) Lap u  with a(t) = t^b."""
    require(alpha=alpha, beta=beta)
    times = np.asarray(times, dtype=float)
    u0k = np.asarray(u0k, dtype=float)
    coeffs = np.zeros((sys.K, len(times)))
    for k in np.flatnonzero(u0k):
        coeffs[k] = u0k[k] * _mode_decay_factor(alpha, beta, sys.lambdas[k],
                                                times)
    return SolutionTrace(times=times, coeffs=coeffs, u0k=u0k)


# {{{ time-dependent diffusion coefficients


@dataclass(frozen=True)
class CoefficientSpec:
    """Diffusion coefficient a(t) with its primitive A(t) = int_0^t a.

    kinds: power(kappa, beta) | exponential_rate(beta) | logarithmic(p)
    | polynomial(q, coeffs a_0..a_m) | tabulated(t_i, a_i).
    """

    kind: str
    kappa: float = 1.0
    beta: float = 0.0
    p: float = 1.0
    q: float = 1.0
    poly: tuple = (1.0,)
    table_t: tuple = ()
    table_a: tuple = ()

    def __post_init__(self):
        require(kappa=self.kappa, beta=self.beta, log_p=self.p, poly_q=self.q,
                poly=self.poly, table_t=self.table_t, table_a=self.table_a)

    def value(self, t):
        """a(t); only the power kind, which the stepping solvers use."""
        if self.kind != "power":
            raise DomainError(f"no pointwise value for kind {self.kind!r}")
        return self.kappa * np.asarray(t, dtype=float) ** self.beta

    def primitive(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return self.kappa * t ** (self.beta + 1.0) / (self.beta + 1.0)
        if self.kind == "exponential_rate":
            return t ** self.beta
        if self.kind == "logarithmic":
            return self.p * np.log(1.0 + np.log1p(t))
        if self.kind == "polynomial":
            a = np.asarray(self.poly)
            P = sum(a[j] * t ** j for j in range(len(a)))
            if not (a[0] > 0 and (P > 0).all()):
                raise DomainError("polynomial needs a_0 > 0 and P(t) > 0")
            return self.q * np.log(P / a[0])
        if self.kind == "tabulated":
            # exact integral of the linear interpolant on a refined grid
            tt = np.unique(np.concatenate([np.asarray(self.table_t, float),
                                           np.atleast_1d(t)]))
            tt = tt[tt <= np.max(t)] if np.ndim(t) else tt
            aa = np.interp(tt, self.table_t, self.table_a)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (aa[1:] + aa[:-1])
                                                   * np.diff(tt))])
            return np.interp(t, tt, cum)
        raise DomainError(f"unknown coefficient kind {self.kind!r}")


def solve_heat_general(sys: EigenSystem, coeff: CoefficientSpec,
                       u0k: np.ndarray, times: np.ndarray) -> SolutionTrace:
    """Modal evolution u_k(t) = u_{0k} exp(-lam_k A(t)) of the heat equation."""
    times = np.asarray(times, dtype=float)
    u0k = np.asarray(u0k, dtype=float)
    A = np.asarray(coeff.primitive(times), dtype=float)
    if not (A[times > 0] > 0.0).all():
        raise NonpositivePrimitive("int_0^t a(s) ds must be positive for t > 0")
    coeffs = u0k[:, None] * np.exp(-sys.lambdas[:, None] * A[None, :])
    return SolutionTrace(times=times, coeffs=coeffs, u0k=u0k)


def heat_bounds(trace: SolutionTrace, sys: EigenSystem,
                coeff: CoefficientSpec):
    """`modal_bounds` of a heat trace: each mode decays as exp(-lam A(t))."""
    A = np.asarray(coeff.primitive(trace.times), dtype=float)
    return modal_bounds(trace, sys, lambda lam: (np.exp(-lam * A),) * 2)


# }}}


# {{{ decay verification


def modal_bounds(trace: SolutionTrace, sys: EigenSystem, profiles):
    """(lower, upper) bounds of trace.energies from its initial data:
    |u_k*| lower <= E <= ||u_live|| upper for (lower, upper) =
    profiles(lam_k*), k* the slowest decaying (lam > 0) mode with
    u_k* != 0 and u_live the nonzero decaying coefficients; the conserved
    modes (lam = 0) add their norm in quadrature."""
    u0k, decaying = trace.u0k, sys.lambdas > 0.0
    live = np.flatnonzero(decaying & (u0k != 0.0))
    lo = hi = np.zeros_like(trace.times)
    if live.size:  # eigenvalues ascend, so live[0] is k*
        lower, upper = profiles(sys.lambdas[live[0]])
        lo = abs(u0k[live[0]]) * lower
        hi = np.sqrt(np.sum(u0k[live] ** 2)) * upper
    level2 = np.sum(u0k[~decaying] ** 2)
    return np.sqrt(lo ** 2 + level2), np.sqrt(hi ** 2 + level2)


def verify_subdiffusion(trace: SolutionTrace, sys: EigenSystem,
                        alpha: float, beta: float) -> DecayReport:
    """Verdict against `modal_bounds` with Simon's profiles 1/(1 + r x),
    x = lam t^(a+b), for the two rates r of `specfun.bound_rates`
    (Electron. J. Probab. 19, 2014).  For b < 0 (m < 1) those bounds are
    measured, not proved (Boudabsa & Simon, Mathematics 9, 2021, study
    m > 0).  ``sandwich_ok`` needs a < 1 and a decaying mode; at a = 1 (no
    lower bound) or with conserved modes alone only the upper bound is
    checked, ``upper_only_ok``; all-zero data is ``degenerate``."""
    if not (sys.lambdas > 0).any():
        raise DomainError("need a mode with a positive eigenvalue to decay")
    ts = trace.times ** (alpha + beta)
    lower_rate, upper_rate = bound_rates(alpha, 1.0 + beta / alpha)
    lo, hi = modal_bounds(trace, sys, lambda lam: (
        1.0 / (1.0 + lower_rate * (lam * ts)) if alpha < 1.0 else 0.0 * ts,
        1.0 / (1.0 + upper_rate * (lam * ts))))
    E, u0k = trace.energies, trace.u0k
    one_sided = alpha == 1.0 or not u0k[sys.lambdas > 0.0].any()
    holds = np.all(E <= hi * (1.0 + BOUND_SLACK)) and (
        one_sided or np.all(lo * (1.0 - BOUND_SLACK) <= E))
    verdict = ("degenerate" if not u0k.any() else "violated" if not holds
               else "upper_only_ok" if one_sided else "sandwich_ok")
    return DecayReport(verdict, lower=lo, upper=hi)


def verify_dirichlet_sandwich(trace: SolutionTrace, sys: EigenSystem,
                              alpha: float, beta: float) -> DecayReport:
    """`verify_subdiffusion` of a Dirichlet trace."""
    if sys.bc != "dirichlet":
        raise DomainError("sandwich check expects a Dirichlet trace")
    return verify_subdiffusion(trace, sys, alpha, beta)


def verify_neumann(trace: SolutionTrace, sys: EigenSystem, alpha: float,
                   beta: float, u00: float, u01: float) -> DecayReport:
    """`verify_subdiffusion` of a Neumann trace; u00 and u01 are not read,
    since the trace carries its initial coefficients."""
    if sys.bc != "neumann":
        raise DomainError("need a Neumann trace")
    return verify_subdiffusion(trace, sys, alpha, beta)


# }}}
