"""Tail-profile extraction from energy traces.

Decay estimates bound energies by profiles of the shape c/(1+t^s),
c exp(-lam t^b), c (1+log(1+t))^(-p) or a plateau; this module fits those
families in log space and checks two-sided envelopes.  Verdicts are data,
not exceptions: a failed sandwich comes back as ``violated``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousFit, DegenerateTrace

ENERGY_FLOOR = 1e-14
# relative tail slope of E(t)(1+t^s) below which the envelope constant is
# considered stabilized
SLOPE_TOL = 0.1


@dataclass(frozen=True)
class DecayReport:
    """Outcome of an envelope/fit check on one energy trace."""

    verdict: str                      # sandwich_ok | upper_only_ok | violated | degenerate
    fitted_exponent: float = math.nan
    intercept: float = math.nan
    window: tuple = (math.nan, math.nan)
    residual_rms: float = math.nan
    predicted_exponent: float = math.nan
    predicted_tag: str = ""
    envelope_lower: float = math.nan  # tightest m with m/(1+t^s) <= E
    envelope_upper: float = math.nan  # tightest M with E <= M/(1+t^s)
    upper_ok: bool = False
    notes: str = ""


@dataclass(frozen=True)
class FitModel:
    kind: str        # power | exponential | logarithmic | plateau
    params: dict
    residual: float


def _valid(t, e):
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    mask = (t > 0) & (e > ENERGY_FLOOR) & np.isfinite(e)
    return t[mask], e[mask]


def _tail_window(t, decades, drop_final=0.05):
    """Indices of the last `decades` decades of t, final 5% excluded."""
    n = len(t)
    keep = max(10, int(math.floor(n * (1.0 - drop_final))))
    t_hi = t[keep - 1]
    t_lo = t_hi / 10.0 ** decades
    mask = (t >= t_lo) & (t <= t_hi)
    return mask, (t_lo, t_hi)


def fit_power_tail(times, energies, window: float = 2.0):
    """Least-squares line on (log t, log E) over the last `window` decades.

    Returns (s, intercept, residual_rms) with s the negated slope.
    """
    t, e = _valid(times, energies)
    if len(t) < 10:
        raise DegenerateTrace("fewer than 10 usable (t, E) points")
    mask, _ = _tail_window(t, window)
    if mask.sum() < 10:
        raise DegenerateTrace("fewer than 10 points in the fit window")
    slope, intercept, resid = _line_fit(np.log(t[mask]), np.log(e[mask]))
    return -float(slope), float(intercept), resid


def _line_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    return slope, intercept, float(np.sqrt(np.mean((y - pred) ** 2)))


def fit_model_select(times, energies, window: float = 2.0) -> FitModel:
    """Pick the decay family with the lowest log-space RMS on the tail.

    Families: power c t^(-s); exponential c exp(-lam t^b) via a double-log
    transform; logarithmic c (1+log(1+t))^(-p); plateau (constant level).
    Raises AmbiguousFit when the two best residuals differ by under 5%.
    """
    t, e = _valid(times, energies)
    if len(t) < 10:
        raise DegenerateTrace("fewer than 10 usable (t, E) points")
    mask, _ = _tail_window(t, window)
    if mask.sum() < 10:
        raise DegenerateTrace("fewer than 10 points in the fit window")
    tt, ee = t[mask], e[mask]
    le = np.log(ee)
    candidates = []

    s_p, c_p, r_p = _line_fit(np.log(tt), le)
    candidates.append(FitModel("power", {"s": -s_p, "intercept": c_p}, r_p))

    lx = np.log(1.0 + np.log1p(tt))
    s_l, c_l, r_l = _line_fit(lx, le)
    candidates.append(FitModel("logarithmic", {"p": -s_l, "intercept": c_l}, r_l))

    # exponential: y = log(E0/E) = lam t^b, fitted where the drop is resolvable
    e0 = float(np.max(e))
    y = np.log(e0 / ee)
    expmask = y > 0.05
    if expmask.sum() >= 10:
        b, lc, _ = _line_fit(np.log(tt[expmask]), np.log(y[expmask]))
        lam = math.exp(lc)
        pred = math.log(e0) - lam * tt ** b
        r_e = float(np.sqrt(np.mean((le - pred) ** 2)))
        candidates.append(FitModel("exponential", {"rate": lam, "power": b}, r_e))

    level = float(np.exp(np.mean(le)))
    r_c = float(np.sqrt(np.mean((le - math.log(level)) ** 2)))
    candidates.append(FitModel("plateau", {"level": level}, r_c))

    candidates.sort(key=lambda f: f.residual)
    # essentially-exact fits: break the tie toward the simplest family
    exact = [f for f in candidates if f.residual < 1e-8]
    if exact:
        order = {"plateau": 0, "power": 1, "logarithmic": 2, "exponential": 3}
        return min(exact, key=lambda f: order[f.kind])
    best, second = candidates[0], candidates[1]
    gap = (second.residual - best.residual) / max(second.residual, 1e-12)
    if gap < 0.05:
        raise AmbiguousFit(
            f"{best.kind} (rms {best.residual:.3g}) vs "
            f"{second.kind} (rms {second.residual:.3g})"
        )
    return best


def check_envelope(times, energies, exponent: float, two_sided: bool = True,
                   predicted_tag: str = "", fit_window: float = 2.0) -> DecayReport:
    """Tightest constants of E(t) against the profile 1/(1 + t^exponent).

    M = max E (1+t^s) and m = min E (1+t^s); the constants only count as
    finite when they stabilize, i.e. the tail slope of E(1+t^s) in log-log
    stays within +-SLOPE_TOL.  A drifting lower constant turns a requested
    sandwich into ``violated`` (with upper_ok still reported).
    """
    if exponent <= 0:
        raise DegenerateTrace("envelope exponent must be positive")
    t, e = _valid(times, energies)
    if len(t) < 10:
        return DecayReport(verdict="degenerate", notes="zero or underflowed trace")
    q = e * (1.0 + t ** exponent)
    m = float(np.min(q))
    M = float(np.max(q))
    mask, window = _tail_window(t, fit_window)
    if mask.sum() >= 10:
        slope, _, _ = _line_fit(np.log(t[mask]), np.log(q[mask]))
    else:
        slope = 0.0
    upper_ok = slope <= SLOPE_TOL
    lower_ok = slope >= -SLOPE_TOL

    try:
        s_fit, c_fit, resid = fit_power_tail(t, e, fit_window)
    except DegenerateTrace:
        s_fit = c_fit = resid = math.nan

    if two_sided:
        verdict = "sandwich_ok" if (upper_ok and lower_ok) else "violated"
    else:
        verdict = "upper_only_ok" if upper_ok else "violated"
    return DecayReport(
        verdict=verdict,
        fitted_exponent=s_fit,
        intercept=c_fit,
        window=window,
        residual_rms=resid,
        predicted_exponent=exponent,
        predicted_tag=predicted_tag,
        envelope_lower=m,
        envelope_upper=M,
        upper_ok=upper_ok,
        notes=f"tail slope of E(1+t^s): {slope:+.3f}",
    )
