"""Tail-profile extraction from energy traces.

Decay estimates bound energies by profiles of the shape c/(1+t^s),
c exp(-lam t^b), c (1+log(1+t))^(-p) or a plateau; this module fits those
families in log space and checks two-sided envelopes.  ``check_envelope``
decides the verdicts of traces that carry no modal data (``decay fit`` on
a CSV, the nonlinear solves); spectral traces are judged against their
explicit modal bounds in ``spectral``.  Verdicts are data, not exceptions:
a failed sandwich comes back as ``violated``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousFit, DegenerateTrace, require

ENERGY_FLOOR = 1e-14
TAIL_DROP = 0.05  # share of the final samples left out of fit windows
# relative tail slope of E(t)(1+t^s) below which the envelope constant is
# considered stabilized
SLOPE_TOL = 0.1


@dataclass(frozen=True)
class DecayReport:
    """Outcome of an envelope/fit check on one energy trace."""

    verdict: str                      # sandwich_ok | upper_only_ok | violated | degenerate
    fitted_exponent: float = math.nan  # power-law tail fit of E itself
    window: tuple = (math.nan, math.nan)
    residual_rms: float = math.nan
    predicted_exponent: float = math.nan
    envelope_lower: float = math.nan  # tightest m with m/(1+t^s) <= E
    envelope_upper: float = math.nan  # tightest M with E <= M/(1+t^s)
    notes: str = ""
    lower: np.ndarray = None  # the bounds the verdict was decided on,
    upper: np.ndarray = None  # one per sample time


@dataclass(frozen=True)
class FitModel:
    kind: str        # power | exponential | logarithmic | plateau
    params: dict
    residual: float


def _tail(times, energies, window):
    """The one tail rule of every fit and verdict: (t, E) samples with
    t > 0 and finite E above ENERGY_FLOOR, the mask of their last `window`
    decades without the final TAIL_DROP share (10 samples kept at least),
    and its bounds.  DomainError for a window outside its DOMAINS entry;
    DegenerateTrace when samples or window hold fewer than 10 points."""
    require(window=window)
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    usable = (t > 0) & (e > ENERGY_FLOOR) & np.isfinite(e)
    t, e = t[usable], e[usable]
    if len(t) < 10:
        raise DegenerateTrace("fewer than 10 usable (t, E) points")
    t_hi = t[max(10, int(math.floor(len(t) * (1.0 - TAIL_DROP)))) - 1]
    t_lo = t_hi / 10.0 ** window
    mask = (t >= t_lo) & (t <= t_hi)
    if mask.sum() < 10:
        raise DegenerateTrace("fewer than 10 points in the fit window")
    return t, e, mask, (t_lo, t_hi)


def fit_power_tail(times, energies, window: float = 2.0):
    """Least-squares line on (log t, log E) over the last `window` decades.

    Returns (s, intercept, residual_rms) with s the negated slope.
    """
    t, e, mask, _ = _tail(times, energies, window)
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
    t, e, mask, _ = _tail(times, energies, window)
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
                   fit_window: float = 2.0) -> DecayReport:
    """Tightest constants of E(t) against the profile 1/(1 + t^exponent).

    M = max E (1+t^s) and m = min E (1+t^s); the constants only count as
    finite when they stabilize, i.e. the tail slope of E(1+t^s) in log-log
    stays within +-SLOPE_TOL.  A drifting upper constant is ``violated``
    either way; a drifting lower one only when a sandwich is requested.
    The window is ``_tail``'s, as in ``fit_power_tail``, which gives the
    same ``fitted_exponent`` and ``residual_rms``; a trace or window that
    ``_tail`` finds too small is ``degenerate``, with its reason as notes.
    An exponent not positive and finite, or whose profile 1 + t^s or
    envelope constant E(1 + t^s) overflows at a finite time of the trace,
    raises DegenerateTrace.
    """
    if not 0.0 < exponent < math.inf:
        raise DegenerateTrace("envelope exponent not positive and finite")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN before t = 0
        prof = 1.0 + np.asarray(times, dtype=float) ** exponent
    if np.isinf(prof[np.isfinite(times)]).any():
        raise DegenerateTrace(f"envelope exponent {exponent:g} overflows "
                              f"1 + t^s on the trace's times")
    try:
        t, e, mask, window = _tail(times, energies, fit_window)
    except DegenerateTrace as exc:
        nan = np.full(np.shape(times), math.nan)
        return DecayReport("degenerate", notes=str(exc), lower=nan, upper=nan)
    with np.errstate(over="ignore"):
        q = e * (1.0 + t ** exponent)
    if np.isinf(q).any():
        raise DegenerateTrace(f"envelope constant E(1 + t^s) overflows at "
                              f"exponent {exponent:g}")
    lt = np.log(t[mask])
    slope = _line_fit(lt, np.log(q[mask]))[0]
    neg_s, _, resid = _line_fit(lt, np.log(e[mask]))
    if two_sided:
        verdict = "sandwich_ok" if abs(slope) <= SLOPE_TOL else "violated"
    else:
        verdict = "upper_only_ok" if slope <= SLOPE_TOL else "violated"
    lower, upper = float(np.min(q)), float(np.max(q))
    return DecayReport(
        verdict, fitted_exponent=-float(neg_s), window=window,
        residual_rms=resid, predicted_exponent=exponent,
        envelope_lower=lower, envelope_upper=upper,
        notes=f"tail slope of E(1+t^s): {slope:+.3f}",
        lower=lower / prof, upper=upper / prof)
