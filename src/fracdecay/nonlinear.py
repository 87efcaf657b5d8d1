"""Semi-implicit Caputo-L1 finite-difference solvers in one dimension.

The six operators (Laplace, p-Laplace, porous medium, degenerate,
mean curvature, Kirchhoff) are discretized by second-order differences
on a uniform interior grid with homogeneous Dirichlet closure: five in
conservative flux form at half-points, the degenerate one as f(u) times
the three-point Laplacian.  Time stepping freezes the nonlinear
coefficient at the previous iterate, so every step is one (or a few)
tridiagonal solves; the Caputo history stays explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import decayfit, spectral
from .errors import (DomainError, NonFiniteState, PositivityLoss,
                     StepDivergence)
from .fracode import CaputoL1Operator, TimeGrid, default_grading
from .spectral import CoefficientSpec


@dataclass(frozen=True)
class SpatialGrid1D:
    """Uniform interior grid on (0, L) with Dirichlet closure u = 0."""

    length: float
    interior: int

    def __post_init__(self):
        if self.length <= 0:
            raise DomainError("length must be positive")
        if self.interior < 3:
            raise DomainError("need at least 3 interior points")

    @property
    def h(self) -> float:
        return self.length / (self.interior + 1)

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(1, self.interior + 1)


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
        kinds = ("laplace", "p_laplace", "porous_medium", "degenerate",
                 "mean_curvature", "kirchhoff")
        if self.kind not in kinds:
            raise DomainError(f"unknown operator kind {self.kind!r}")
        if self.kind in ("p_laplace", "kirchhoff") and self.p <= 1:
            raise DomainError("p-Laplace requires p > 1")
        if self.kind == "porous_medium" and (self.m < 0 or self.c0 <= 0):
            raise DomainError("porous medium requires m >= 0, c0 > 0")
        if self.kind == "degenerate" and self.q < 0:
            raise DomainError("degenerate operator requires q >= 0")
        if self.kind == "kirchhoff" and self.gamma < 0:
            raise DomainError("Kirchhoff requires gamma >= 0")


@dataclass(frozen=True)
class SourceSpec:
    """Reaction term added to the diffusion equation."""

    kind: str = "none"          # none | fisher_kpp | power_absorption
    mu: float = 0.0
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in ("none", "fisher_kpp", "power_absorption"):
            raise DomainError(f"unknown source kind {self.kind!r}")
        if self.kind == "power_absorption" and self.p <= 1:
            raise DomainError("absorption exponent must satisfy p > 1")


@dataclass(frozen=True)
class PredictedExponent:
    value: float
    tag: str

    def __post_init__(self):
        if not self.value > 0:
            raise DomainError("predicted exponent must be positive")


def predict_exponent(spec: OperatorSpec, alpha: float, beta: float) -> PredictedExponent:
    """Theoretical upper-bound decay exponent for the given operator."""
    ab = alpha + beta
    if spec.kind == "laplace":
        return PredictedExponent(ab, "alpha+beta")
    if spec.kind == "p_laplace":
        return PredictedExponent(ab / (spec.p - 1.0), "(alpha+beta)/(p-1)")
    if spec.kind == "porous_medium":
        return PredictedExponent(ab / (spec.m + 1.0), "(alpha+beta)/(m+1)")
    if spec.kind == "degenerate":
        return PredictedExponent(ab / (spec.q + 1.0), "(alpha+beta)/(q+1)")
    if spec.kind == "mean_curvature":
        return PredictedExponent(ab, "alpha+beta")
    return PredictedExponent(ab / (spec.gamma + spec.p - 1.0),
                             "(alpha+beta)/(gamma+p-1)")


def _half_gradient(u, h):
    """Du at the M+1 half-points, boundary values zero outside."""
    ue = np.concatenate([[0.0], u, [0.0]])
    return np.diff(ue) / h


def _half_coefficient(spec: OperatorSpec, u, h):
    """Diffusion coefficient d at half-points for flux-form operators."""
    if spec.kind == "laplace":
        return np.ones(len(u) + 1)
    Du = _half_gradient(u, h)
    if spec.kind == "p_laplace":
        return np.abs(Du) ** (spec.p - 2.0) if spec.p >= 2.0 \
            else (np.abs(Du) + 1e-14) ** (spec.p - 2.0)
    if spec.kind == "porous_medium":
        ue = np.concatenate([[0.0], u, [0.0]])
        return spec.c0 * np.abs(0.5 * (ue[:-1] + ue[1:])) ** spec.m
    if spec.kind == "mean_curvature":
        return 1.0 / np.sqrt(1.0 + Du ** 2)
    if spec.kind == "kirchhoff":
        s = (h * np.sum(np.abs(Du) ** 2.0)) ** (1.0 / 2.0)
        base = np.abs(Du) ** (spec.p - 2.0) if spec.p >= 2.0 \
            else (np.abs(Du) + 1e-14) ** (spec.p - 2.0)
        return s ** spec.gamma * base
    raise DomainError(f"{spec.kind} has no flux form")


@dataclass(frozen=True)
class FieldTrace:
    """Field history and energy trace of one nonlinear solve."""

    times: np.ndarray                 # (N+1,)
    energies: np.ndarray              # (N+1,)
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
    NonFiniteState when a step system, a state or an energy is not finite.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("solver requires alpha in (0, 1)")
    if not 1 <= sweeps <= 10:
        raise DomainError("sweeps must lie in 1..10")
    u0 = np.asarray(u0, dtype=float)
    M = grid.interior
    if u0.shape != (M,):
        raise DomainError(f"u0 must have shape ({M},)")
    h = grid.h
    h2 = h ** 2
    t = tgrid.nodes
    op = CaputoL1Operator(tgrid, alpha)
    porous_guard = spec.kind == "porous_medium" and (u0 >= 0.0).all()
    ab = np.zeros((3, M))  # band rows: super-, main and subdiagonal

    def solve(n, ann, hist, prev):
        an = float(coeff.value(t[n]))
        ustar = prev
        unew = ustar
        res_prev = math.inf
        for sweep in range(sweeps):
            # A zero source term is the scalar 0.0.  Adding it (or, below,
            # subtracting from it) rounds and signs zeros exactly as an
            # all-zero array would, so no such array is built.
            diag_src = rhs_src = 0.0
            if source.kind == "fisher_kpp":
                diag_src = 1.0
                rhs_src = ustar ** 2
            elif source.kind == "power_absorption":
                if source.mu >= 0:
                    diag_src = source.mu * np.abs(ustar) ** source.p
                else:
                    rhs_src = 0.0 - source.mu * np.abs(ustar) ** source.p * ustar

            rhs = ann * prev - hist + rhs_src
            if spec.kind == "degenerate":
                fv = np.abs(ustar) ** spec.q
                ab[0, 1:] = -an * fv[:-1] / h2
                ab[1] = ann + diag_src + 2.0 * an * fv / h2
                ab[2, :-1] = -an * fv[1:] / h2
            else:
                d = _half_coefficient(spec, ustar, h)
                ab[0, 1:] = ab[2, :-1] = -an * d[1:-1] / h2
                ab[1] = ann + diag_src + an * (d[:-1] + d[1:]) / h2
            if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
                raise NonFiniteState(f"non-finite step system at t = {t[n]:g}")
            # LAPACK gtsv on the band rows; it overwrites ab and rhs
            unew, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs,
                               1, 1, 1, 1)[3:]
            if info != 0:
                raise NonFiniteState(f"singular step matrix at t = {t[n]:g}")
            if not np.isfinite(unew).all():
                raise NonFiniteState(f"non-finite state at t = {t[n]:g}")
            res = float(np.abs(unew - ustar).max())
            ustar = unew
            if res < 1e-10 * max(1.0, float(np.abs(unew).max())):
                break
            if res > 10.0 * res_prev:
                raise StepDivergence(
                    f"fixed-point residual grows at t = {t[n]:g}"
                )
            res_prev = res
        if porous_guard and float(unew.min()) < -1e-10:
            raise PositivityLoss(f"negative state at t = {t[n]:g}")
        return unew

    # overflow is reported by the finiteness checks, not by NumPy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        U = op.march(u0, solve)
        energies = np.sqrt(h * np.sum(U ** 2, axis=1))
    if not np.isfinite(energies).all():
        raise NonFiniteState("energy overflows on a finite field")
    return FieldTrace(times=t, energies=energies, grid=grid, tgrid=tgrid,
                      fields=U if keep_fields else None)


def check_energy_inequality(trace: FieldTrace, alpha: float) -> np.ndarray:
    """Margins of  ||u|| D^a ||u|| <= int u D^a u  at nodes t_1..t_N.

    Both sides use the same discrete L1 operator; nonnegative margins (up
    to roundoff) certify the discrete energy inequality the decay
    estimates rest on.
    """
    if trace.fields is None:
        raise DomainError("trace was run with keep_fields=False")
    op = CaputoL1Operator(trace.tgrid, alpha)
    h = trace.grid.h
    dE = op.apply(trace.energies)
    lhs = trace.energies[1:] * dE
    dU = op.apply(trace.fields)
    rhs = h * np.sum(trace.fields[1:] * dU, axis=1)
    return rhs - lhs


# {{{ preset scenarios


def run_scenario(name: str, *, alpha: float = 0.5, beta: float = 0.5,
                 mu: float = 1.0, m: float = 1.0, p: float = 2.0,
                 amplitude: float = 0.5, L: float = math.pi,
                 points: int = 127, steps: int = 1024, horizon: float = 100.0,
                 sweeps: int = 2):
    """Run one of the application presets; returns (trace, report)."""
    if name == "toy_model":
        sys1 = spectral.interval_eigensystem(L, "dirichlet", 1)
        times = spectral.log_times(1e4, t_min=1.0)
        tr = spectral.solve_subdiffusion(sys1, alpha, beta, np.array([1.0]), times)
        s = alpha + beta
        tau = sys1.lambdas[0] ** (1.0 / s) * times
        rep = decayfit.check_envelope(tau, tr.energies, s, two_sided=True,
                                      predicted_tag="alpha+beta")
        return tr, rep

    grid = SpatialGrid1D(L, points)
    tgrid = TimeGrid(horizon, steps, default_grading(alpha))
    coeff = CoefficientSpec(kind="power", kappa=1.0, beta=beta)
    lam1 = (math.pi / L) ** 2
    if name == "fisher_kpp":
        if not 0.0 < amplitude <= 1.0:
            raise DomainError("Fisher-KPP needs 0 < u0 <= 1")
        u0 = amplitude * np.sin(math.pi * grid.x / L)
        spec = OperatorSpec(kind="laplace")
        src = SourceSpec(kind="fisher_kpp")
        tr = solve_nonlinear(spec, src, alpha, coeff, u0, grid, tgrid,
                             sweeps=sweeps)
        if np.min(tr.fields[1:]) <= 0.0 or np.max(tr.fields) > 1.0 + 1e-10:
            raise PositivityLoss("Fisher-KPP order interval (0, 1] violated")
        s = alpha + beta
        tau = lam1 ** (1.0 / s) * tr.times
        rep = decayfit.check_envelope(tau, tr.energies, s, two_sided=False,
                                      predicted_tag="alpha+beta")
        return tr, rep
    if name == "semilinear_pme":
        if mu < 0 or m < 0 or p <= 1:
            raise DomainError("need mu >= 0, m >= 0, p > 1")
        u0 = amplitude * np.sin(math.pi * grid.x / L)
        # Lap |w|^m w in flux form has mobility (m+1)|w|^m
        spec = OperatorSpec(kind="porous_medium", m=m, c0=m + 1.0)
        src = SourceSpec(kind="power_absorption", mu=mu, p=p)
        tr = solve_nonlinear(spec, src, alpha, coeff, u0, grid, tgrid,
                             sweeps=sweeps)
        s = (alpha + beta) / (m + 1.0)
        rep = decayfit.check_envelope(tr.times, tr.energies, s, two_sided=False,
                                      predicted_tag="(alpha+beta)/(m+1)")
        return tr, rep
    raise DomainError(f"unknown scenario {name!r}")


# }}}
