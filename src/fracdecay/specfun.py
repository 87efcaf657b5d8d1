"""Kilbas-Saigo and Mittag-Leffler functions with two-sided decay bounds.

The three-index function

    E_{alpha,m,l}(z) = 1 + sum_k  prod_{j<k} [G(a(jm+l)+1)/G(a(jm+l+1)+1)] z^k

solves the scalar linear Caputo equation with a power-law coefficient, and
on the negative real axis (with l = m-1) it is squeezed between the two
rational profiles returned by :func:`kilbas_saigo_bounds`.  The series is
entire but numerically hostile for z < 0: terms grow to ~10^20 before they
decay, so the summation switches between three regimes

  * plain double-precision summation while cancellation is mild,
  * big-float summation (working precision sized from the peak term) while
    the truncation budget still covers the tail: mpmath computes the Gamma
    ratios at that precision, and the sum runs on Python integers scaled
    by 2**F, with F the precision in bits plus guard bits, rounded once
    to a double at the end,
  * beyond that, a bound-respecting surrogate: the geometric mean of the
    two-sided bounds, rescaled so it matches the last trustworthy series
    value.  Values from this branch are flagged as approximate.

The log-ratio partial sums that plan the summation, the double-precision
ratios and the fixed-point ratios are tables built on first use, once per
parameter set (and precision), and extended when more terms are needed.

Mittag-Leffler is the m = 1 case, E_{a,b}(z) = E_{a,1,(b-1)/a}(z) / G(b),
summed by the same engine; for z < -10 it uses its algebraic tail instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
from mpmath.libmp import to_fixed
from scipy.special import gammaln, gammasgn, rgamma

from .errors import DomainError, InadmissibleParams, NonConvergence

_LN10 = math.log(10.0)
# |z| beyond which the decay branch stops trying the series
_SERIES_CUTOFF = 10.0 * (1.0 + 1e-12)
# digits of cancellation tolerated in plain double precision
_DOUBLE_DIGITS = 3.0


@dataclass(frozen=True)
class SeriesAccuracy:
    """Truncation control for the power series."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 512

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0 or self.abs_tol + self.rel_tol <= 0:
            raise DomainError("need abs_tol + rel_tol > 0 with both nonnegative")
        if self.max_terms < 8:
            raise DomainError("max_terms must be at least 8")


DEFAULT_ACCURACY = SeriesAccuracy()


@dataclass(frozen=True)
class KilbasSaigoParams:
    """Indices (alpha, m, l) of the three-parameter function."""

    alpha: float
    m: float
    l: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.m > 0):
            raise InadmissibleParams("require alpha > 0 and m > 0")
        # pole scan: a(jm+l)+1 must avoid nonpositive integers for every
        # Gamma factor the truncated series can touch
        for j in range(DEFAULT_ACCURACY.max_terms + 1):
            x = self.alpha * (j * self.m + self.l) + 1.0
            if x <= 0.5 and abs(x - round(x)) < 1e-9:
                raise InadmissibleParams(
                    f"alpha*({j}*m+l)+1 = {x:g} hits a Gamma pole"
                )

    @property
    def is_decay_form(self) -> bool:
        """True for the (alpha, m, m-1) family with 0 < alpha < 1, m > 1."""
        return 0.0 < self.alpha < 1.0 and self.m > 1.0 and abs(self.l - (self.m - 1.0)) < 1e-9


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise DomainError("lower bound exceeds upper bound")


def kilbas_saigo_bounds(alpha: float, m: float, z: float) -> BoundPair:
    """Two-sided rational bounds for E_{alpha,m,m-1}(-z), z >= 0.

    lower = 1/(1 + G(1-alpha) z),  upper = 1/(1 + [G(1+(m-1)a)/G(1+ma)] z).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("bounds require 0 < alpha < 1")
    if not m > 1.0:
        raise DomainError("bounds require m > 1")
    if z < 0.0:
        raise DomainError("bounds are stated for z >= 0")
    lower = 1.0 / (1.0 + math.gamma(1.0 - alpha) * z)
    ratio = math.exp(gammaln(1.0 + (m - 1.0) * alpha) - gammaln(1.0 + m * alpha))
    upper = 1.0 / (1.0 + ratio * z)
    return BoundPair(lower=lower, upper=upper)


# {{{ series internals


def _log_ratio(alpha, m, l, j):
    """log |Gamma ratio| appended when extending the product from j to j+1."""
    x = alpha * (j * m + l) + 1.0
    y = alpha * (j * m + l + 1.0) + 1.0
    return gammaln(x) - gammaln(y)


def _sign_ratio(alpha, m, l, j):
    x = alpha * (j * m + l) + 1.0
    y = alpha * (j * m + l + 1.0) + 1.0
    return gammasgn(x) * gammasgn(y)


# every table of the series engine, see _table
_RATIO_CACHE: dict = {}
# fractional bits of the fixed-point sum beyond the ratio table's precision
_GUARD_BITS = 64


def _table(key, n, extend):
    """The table cached under key, grown to at least n entries.

    extend(table, n) returns table followed by its entries up to n.  The
    longer table is built in full before it replaces the cached one, so a
    concurrent reader only ever sees a complete table.  Keys hold the exact
    parameters: a value never depends on which nearby parameters were
    evaluated first.
    """
    table = _RATIO_CACHE.get(key, ())
    if len(table) < n:
        table = extend(table, n)
        _RATIO_CACHE[key] = table
    return table


def _log_prefix(alpha, m, l, table, n):
    """Partial sums log|c_k| = sum_{j<k} log|ratio_j|, k = 1..n, summed
    in order from the first term on."""
    logc = table[-1] if table else 0.0
    more = []
    for j in range(len(table), n):
        logc += _log_ratio(alpha, m, l, j)
        more.append(float(logc))
    return table + tuple(more)


def _double_ratios(alpha, m, l, table, n):
    """Signed Gamma-ratio factors in double precision."""
    return table + tuple(
        float(_sign_ratio(alpha, m, l, j) * math.exp(_log_ratio(alpha, m, l, j)))
        for j in range(len(table), n))


def _fixed_ratios(alpha, m, l, ctx, frac, table, n):
    """Gamma-ratio factors at ctx's precision, each converted exactly (for
    |ratio| >= 2**-_GUARD_BITS) to an integer with frac fractional bits."""
    a, mm, ll = ctx.mpf(alpha), ctx.mpf(m), ctx.mpf(l)
    more = []
    for j in range(len(table), n):
        x = a * (j * mm + ll) + 1
        more.append(to_fixed((ctx.gamma(x) / ctx.gamma(x + a))._mpf_, frac))
    return table + tuple(more)


def _plan(alpha, m, l, z, acc):
    """Log-space walk of the term magnitudes.

    Returns (terms_needed, peak_log) where peak_log is the natural log of
    the largest term magnitude, or raises NonConvergence when the budget
    max_terms cannot push the tail below the target.
    """
    logz = math.log(abs(z))
    floor = math.log(max(acc.abs_tol, 1e-280)) - 2.0 * _LN10
    logcs = _table(("plan", alpha, m, l), acc.max_terms,
                   functools.partial(_log_prefix, alpha, m, l))
    peak = 0.0
    quiet = 0
    for k, logc in zip(range(1, acc.max_terms + 1), logcs):
        lt = logc + k * logz
        if lt > peak:
            peak = lt
        if lt < floor:
            quiet += 1
            if quiet >= 3:
                return k, peak
        else:
            quiet = 0
    raise NonConvergence(
        f"series needs more than {acc.max_terms} terms at z = {z:g}"
    )


def _sum(ratios, z, acc):
    """1 + sum_k prod_{j<k} ratios[j] z in double precision.

    The ratios run to _plan's term count, whose stop is stricter than the
    one here, so running out of them means the sum did not settle.
    """
    s = term = 1.0
    quiet = 0
    for r in ratios:
        term *= r * z
        s += term
        if abs(term) < acc.abs_tol + acc.rel_tol * abs(s):
            quiet += 1
            if quiet >= 3:
                return s
        else:
            quiet = 0
    raise NonConvergence("series summation exhausted the planned terms")


def _fixed_sum(ratios, frac, z, acc):
    """_sum on integers that carry frac fractional bits.

    z and the tolerances convert exactly, and each step truncates by less
    than 2**-frac, far below the rounding of the ratio table itself; the
    final division rounds correctly to a double.
    """
    num, den = float(z).as_integer_ratio()
    shift = frac + den.bit_length() - 1
    an, ad = acc.abs_tol.as_integer_ratio()
    rn, rd = acc.rel_tol.as_integer_ratio()
    # |term| < abs_tol + rel_tol |s|, both sides times ad rd 2**frac
    t_mul, limit, s_mul = ad * rd, an * rd << frac, rn * ad
    s = term = 1 << frac
    quiet = 0
    for r in ratios:
        term = term * r * num >> shift
        s += term
        if abs(term) * t_mul < limit + s_mul * abs(s):
            quiet += 1
            if quiet >= 3:
                return s / (1 << frac)
        else:
            quiet = 0
    raise NonConvergence("series summation exhausted the planned terms")


@functools.lru_cache(maxsize=None)
def _mp_context(dps):
    """An mpmath context fixed at dps digits.  Unlike mpmath.workdps it
    leaves the process-wide precision alone, which threads share."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


def _series_value(alpha, m, l, z, acc):
    n, peak = _plan(alpha, m, l, z, acc)
    digits = peak / _LN10
    # positive z: all-positive terms, no cancellation, only overflow to guard
    if digits <= (280.0 if z > 0.0 else _DOUBLE_DIGITS):
        ratios = _table(("double", alpha, m, l), n,
                        functools.partial(_double_ratios, alpha, m, l))
        return _sum(ratios[:n], z, acc)
    # digits rounded up to a multiple of 10 so nearby arguments share a table
    dps = -(-(int(digits) + 25) // 10) * 10
    ctx = _mp_context(dps)
    frac = ctx.prec + _GUARD_BITS
    ratios = _table(("fixed", alpha, m, l, dps), n,
                    functools.partial(_fixed_ratios, alpha, m, l, ctx, frac))
    return _fixed_sum(ratios[:n], frac, z, acc)


# }}}


# {{{ bound-anchored surrogate for deep negative arguments

_SEAM_CACHE: dict = {}


def _geomean(alpha, m, z):
    b = kilbas_saigo_bounds(alpha, m, z)
    return math.sqrt(b.lower * b.upper)


def _seam(params, acc):
    """(z0, scale) anchoring the surrogate branch to the series.

    z0 is the largest |z| <= cutoff at which the series is still summable
    within the budget; scale matches the surrogate to the series there, so
    the evaluated function stays continuous and inside the two-sided
    bounds for every z < -z0.
    """
    hit = _SEAM_CACHE.get((params, acc))
    if hit is not None:
        return hit
    alpha, m, l = params.alpha, params.m, params.l
    z0 = _SERIES_CUTOFF
    for _ in range(40):
        try:
            _plan(alpha, m, l, -z0, acc)
            break
        except NonConvergence:
            z0 *= 0.5
    else:
        raise NonConvergence("series infeasible even near z = 0")
    # push z0 back up toward the feasibility edge
    hi = min(2.0 * z0, _SERIES_CUTOFF)
    for _ in range(25):
        mid = 0.5 * (z0 + hi)
        if mid <= z0 * (1 + 1e-6):
            break
        try:
            _plan(alpha, m, l, -mid, acc)
            z0 = mid
        except NonConvergence:
            hi = mid
    scale = _series_value(alpha, m, l, -z0, acc) / _geomean(alpha, m, z0)
    _SEAM_CACHE[params, acc] = (z0, scale)
    return z0, scale


# }}}


def kilbas_saigo_with_info(params: KilbasSaigoParams, z: float,
                           acc: SeriesAccuracy = DEFAULT_ACCURACY):
    """Evaluate E_{alpha,m,l}(z); returns (value, approximate_flag).

    approximate=True marks values from the bound-anchored surrogate used
    for deep negative arguments of the decay family (alpha, m, m-1).
    """
    if z == 0.0:
        return 1.0, False
    if z < 0.0 and params.is_decay_form:
        z0, scale = _seam(params, acc)
        if -z > z0:
            return scale * _geomean(params.alpha, params.m, -z), True
    return _series_value(params.alpha, params.m, params.l, z, acc), False


def kilbas_saigo(params: KilbasSaigoParams, z: float,
                 acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """Evaluate the Kilbas-Saigo function E_{alpha,m,l}(z) on the real line."""
    return kilbas_saigo_with_info(params, z, acc)[0]


def mittag_leffler(alpha: float, beta: float, z: float,
                   acc: SeriesAccuracy = DEFAULT_ACCURACY) -> float:
    """Two-parameter function sum_k z^k / Gamma(alpha k + beta).

    Summed by the Kilbas-Saigo engine with m = 1, l = (beta-1)/alpha.  For
    z < -10 the classical algebraic tail -sum_{k=1..5} z^{-k}/G(beta-alpha k)
    replaces the series (which is hopeless there in finite precision).
    """
    if not (alpha > 0 and beta > 0):
        raise DomainError("mittag_leffler requires alpha > 0 and beta > 0")
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if z < -10.0:
        return -sum(z ** (-k) * rgamma(beta - alpha * k) for k in range(1, 6))

    # a j + b > 0 for every j: no Gamma pole, so no KilbasSaigoParams scan
    return (_series_value(alpha, 1.0, (beta - 1.0) / alpha, z, acc)
            / math.gamma(beta))

