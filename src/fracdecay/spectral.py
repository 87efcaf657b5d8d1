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

import math
from dataclasses import dataclass

import numpy as np

from . import decayfit
from .decayfit import DecayReport
from .errors import DomainError, NonpositivePrimitive, QuadratureUnderResolved
from .specfun import DEFAULT_ACCURACY, KilbasSaigoParams, SeriesAccuracy, kilbas_saigo

_GL_POINTS = 6
# |u00| above which Neumann data has a conserved level E(t) -> |u00|
NEUMANN_PLATEAU_TOL = 1e-12


def _panel_rule(a, b, panels):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x0, w0 = np.polynomial.legendre.leggauss(_GL_POINTS)
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
    K: int
    lambdas: np.ndarray      # (K,) ascending
    basis: np.ndarray        # (K, nq) eigenfunctions at quadrature nodes
    quad_nodes: np.ndarray   # (nq,) or (nq, 2)
    quad_weights: np.ndarray # (nq,)

    @property
    def dim(self) -> int:
        return len(self.geometry)


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


def interval_eigensystem(L: float, bc: str = "dirichlet", K: int = 64) -> EigenSystem:
    if L <= 0 or K < 1:
        raise DomainError("need L > 0 and K >= 1")
    start = _first_mode(bc)
    ks = np.arange(start, start + K)
    lam = (ks * math.pi / L) ** 2
    nodes, weights = _panel_rule(0.0, L, 4 * K + 1)
    basis = np.array([_mode_1d(L, bc, k, nodes) for k in ks])
    return EigenSystem(geometry=(L,), bc=bc, K=K, lambdas=lam, basis=basis,
                       quad_nodes=nodes, quad_weights=weights)


def rectangle_eigensystem(Lx: float, Ly: float, bc: str = "dirichlet",
                          K: int = 64) -> EigenSystem:
    if Lx <= 0 or Ly <= 0 or K < 1:
        raise DomainError("need positive side lengths and K >= 1")
    start = _first_mode(bc)
    kmax = int(math.ceil(math.sqrt(2.0 * K))) + 2
    pairs = [(i, j) for i in range(start, kmax + 1) for j in range(start, kmax + 1)]
    lam = [(i * math.pi / Lx) ** 2 + (j * math.pi / Ly) ** 2 for i, j in pairs]
    order = np.argsort(lam, kind="stable")[:K]
    pairs = tuple(pairs[i] for i in order)
    lam = np.array([lam[i] for i in order])

    k1 = max(p[0] for p in pairs)
    k2 = max(p[1] for p in pairs)
    nx, wx = _panel_rule(0.0, Lx, 4 * k1 + 1)
    ny, wy = _panel_rule(0.0, Ly, 4 * k2 + 1)
    X, Y = np.meshgrid(nx, ny, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    weights = np.outer(wx, wy).ravel()
    basis = np.empty((K, len(weights)))
    for i, (kx, ky) in enumerate(pairs):
        basis[i] = (_mode_1d(Lx, bc, kx, nx)[:, None]
                    * _mode_1d(Ly, bc, ky, ny)[None, :]).ravel()
    return EigenSystem(geometry=(Lx, Ly), bc=bc, K=K, lambdas=lam, basis=basis,
                       quad_nodes=nodes, quad_weights=weights)


def log_times(T: float, t_min: float = 1e-2, per_decade: int = 40) -> np.ndarray:
    """Log-spaced sample times for decay reports."""
    decades = math.log10(T / t_min)
    n = max(2, int(round(decades * per_decade)) + 1)
    return np.logspace(math.log10(t_min), math.log10(T), n)


def project_initial_data(sys: EigenSystem, u0) -> np.ndarray:
    """Modal coefficients u_{0k} = int u0 e_k dx by quadrature.

    Raises QuadratureUnderResolved when the Parseval defect
    ||u0||^2 - sum u_{0k}^2 exceeds 1% of ||u0||^2.
    """
    if sys.dim == 1:
        vals = np.asarray(u0(sys.quad_nodes), dtype=float)
    else:
        vals = np.asarray(u0(sys.quad_nodes[:, 0], sys.quad_nodes[:, 1]), dtype=float)
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

    @property
    def energies(self) -> np.ndarray:
        return np.sqrt(np.sum(self.coeffs ** 2, axis=0))


def _mode_decay_factor(alpha, beta, lam, times, acc):
    """E_{a,1+b/a,b/a}(-lam t^(a+b)) per time; exact exponential at a = 1."""
    ab = alpha + beta
    if lam == 0.0:
        return np.ones_like(times)
    if alpha == 1.0:
        return np.exp(-lam * times ** ab / ab)
    params = KilbasSaigoParams(alpha, 1.0 + beta / alpha, beta / alpha)
    return np.array([kilbas_saigo(params, -lam * t ** ab, acc) for t in times])


def solve_subdiffusion(sys: EigenSystem, alpha: float, beta: float,
                       u0k: np.ndarray, times: np.ndarray,
                       acc: SeriesAccuracy = DEFAULT_ACCURACY) -> SolutionTrace:
    """Closed-form modal evolution of  D^a u = a(t) Lap u  with a(t) = t^b."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha must lie in (0, 1]")
    if beta <= -alpha:
        raise DomainError("require beta > -alpha")
    times = np.asarray(times, dtype=float)
    u0k = np.asarray(u0k, dtype=float)
    coeffs = np.empty((sys.K, len(times)))
    for k in range(sys.K):
        if u0k[k] == 0.0:
            coeffs[k] = 0.0
            continue
        coeffs[k] = u0k[k] * _mode_decay_factor(alpha, beta, sys.lambdas[k],
                                                times, acc)
    return SolutionTrace(times=times, coeffs=coeffs)


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

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return self.kappa * t ** self.beta
        if self.kind == "exponential_rate":
            return self.beta * t ** (self.beta - 1.0)
        if self.kind == "logarithmic":
            return self.p / ((1.0 + np.log1p(t)) * (1.0 + t))
        if self.kind == "polynomial":
            a = np.asarray(self.poly)
            num = sum(j * a[j] * t ** (j - 1) for j in range(1, len(a)))
            den = sum(a[j] * t ** j for j in range(len(a)))
            return self.q * num / den
        if self.kind == "tabulated":
            return np.interp(t, self.table_t, self.table_a)
        raise DomainError(f"unknown coefficient kind {self.kind!r}")

    def primitive(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            if self.beta <= -1.0:
                raise NonpositivePrimitive("power primitive needs beta > -1")
            return self.kappa * t ** (self.beta + 1.0) / (self.beta + 1.0)
        if self.kind == "exponential_rate":
            return t ** self.beta
        if self.kind == "logarithmic":
            return self.p * np.log(1.0 + np.log1p(t))
        if self.kind == "polynomial":
            a = np.asarray(self.poly)
            P = sum(a[j] * t ** j for j in range(len(a)))
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

    def satisfies_hypothesis(self, alpha: float) -> bool:
        """Power-law lower bound kappa t^beta with beta > -alpha."""
        return self.kind == "power" and self.kappa > 0 and self.beta > -alpha


def solve_heat_general(sys: EigenSystem, coeff: CoefficientSpec,
                       u0k: np.ndarray, times: np.ndarray) -> SolutionTrace:
    """Modal evolution u_k(t) = u_{0k} exp(-lam_k A(t)) of the heat equation."""
    times = np.asarray(times, dtype=float)
    u0k = np.asarray(u0k, dtype=float)
    A = np.asarray(coeff.primitive(times), dtype=float)
    if np.any(A[times > 0] <= 0.0):
        raise NonpositivePrimitive("int_0^t a(s) ds must be positive for t > 0")
    coeffs = u0k[:, None] * np.exp(-sys.lambdas[:, None] * A[None, :])
    return SolutionTrace(times=times, coeffs=coeffs)


# }}}


# {{{ decay verification


def verify_dirichlet_sandwich(trace: SolutionTrace, sys: EigenSystem,
                              alpha: float, beta: float) -> DecayReport:
    """Two-sided check of E(t) against m1/(1+lam_1 t^(a+b)) <= E <= M1/(...)."""
    if sys.bc != "dirichlet":
        raise DomainError("sandwich check expects a Dirichlet trace")
    E = trace.energies
    if np.max(E) <= decayfit.ENERGY_FLOOR:
        return DecayReport(verdict="degenerate", notes="zero solution")
    lam1 = sys.lambdas[0]
    s = alpha + beta
    # fold lam_1 into the time variable so the profile is 1/(1+tau)
    tau = lam1 ** (1.0 / s) * trace.times
    return decayfit.check_envelope(tau, E, s, two_sided=True,
                                   predicted_tag="alpha+beta")


def verify_neumann(trace: SolutionTrace, sys: EigenSystem, alpha: float,
                   beta: float, u00: float, u01: float) -> DecayReport:
    """Neumann dichotomy: plateau at |u00| or, for mean-zero data, a full
    sandwich against the first nonzero eigenvalue."""
    if sys.bc != "neumann":
        raise DomainError("expected a Neumann trace")
    E = trace.energies
    lam2 = sys.lambdas[sys.lambdas > 0][0]
    s = alpha + beta
    tau = lam2 ** (1.0 / s) * trace.times
    if abs(u00) > NEUMANN_PLATEAU_TOL:
        # fluctuation above the conserved-mode level decays like the
        # first nonzero mode
        fluct = E - abs(u00)
        rep = decayfit.check_envelope(tau, np.maximum(fluct, 0.0), s,
                                      two_sided=False, predicted_tag="alpha+beta")
        if rep.verdict == "degenerate":
            # no fluctuation at all: an exact plateau
            rep = DecayReport(verdict="upper_only_ok", envelope_lower=0.0,
                              envelope_upper=0.0, upper_ok=True)
        level_err = abs(E[-1] - abs(u00)) / abs(u00)
        notes = f"plateau |u00| = {abs(u00):.6g}, final rel dev {level_err:.3g}"
        return DecayReport(verdict=rep.verdict, fitted_exponent=rep.fitted_exponent,
                           window=rep.window, residual_rms=rep.residual_rms,
                           predicted_exponent=s, predicted_tag="alpha+beta",
                           envelope_lower=rep.envelope_lower,
                           envelope_upper=rep.envelope_upper,
                           upper_ok=rep.upper_ok, notes=notes)
    return decayfit.check_envelope(tau, E, s, two_sided=True,
                                   predicted_tag="alpha+beta")


# }}}
