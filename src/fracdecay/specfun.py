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

One pass over the Gamma arguments a(jm+l)+1 per parameter set builds the
log-ratio partial sums that plan the summation and the double-precision
ratios, and rejects a Gamma pole among the terms it evaluates.  The
fixed-point ratios of a parameter set are one table at one precision: the
precision needed at the set's feasibility edge z0, the largest |z| <= 10
the term budget can sum on the negative axis.  Peak term and term count
grow with |z| there, so that table serves every negative argument up to
z0.  For m = 1 consecutive Gamma arguments differ by a, so the table takes
one Gamma per term.  Tables are built on first use and extended when more
terms are needed.

Mittag-Leffler is the m = 1 case, E_{a,b}(z) = E_{a,1,(b-1)/a}(z) / G(b),
summed by the same engine; for z < -10 it uses its algebraic tail instead.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import mpmath
from mpmath.libmp import to_fixed

from .errors import DomainError, InadmissibleParams, NonConvergence

_LN10 = math.log(10.0)
# |z| beyond which the decay branch stops trying the series
_SERIES_CUTOFF = 10.0 * (1.0 + 1e-12)
# digits of cancellation tolerated in plain double precision
_DOUBLE_DIGITS = 3.0


def _lgamma(x):
    """(log|G(x)|, sign of G(x)) from math.lgamma; (inf, 0.0) at the poles
    x = 0, -1, -2, ..., and log|G(x)| = inf where it overflows, as
    scipy.special.gammaln."""
    if x <= 0.0 and x == math.floor(x):
        return math.inf, 0.0
    try:
        lg = math.lgamma(x)
    except OverflowError:
        lg = math.inf
    return lg, -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def _rgamma(x):
    """1/G(x) from math.gamma, as scipy.special.rgamma: 0.0 at the poles
    and where G(x) overflows above x = 171.6, x itself where it overflows
    near 0, and +-inf where 1/G(x) overflows (x < -171)."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:  # 1/G(x) = x (1 + O(x)) for |x| < 1e-300
        return x if abs(x) < 1.0 else 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


@dataclass(frozen=True)
class SeriesAccuracy:
    """Truncation control for the power series."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_terms: int = 512

    def __post_init__(self):
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise DomainError("abs_tol and rel_tol must be finite")
        if self.abs_tol < 0 or self.rel_tol < 0 or self.abs_tol + self.rel_tol <= 0:
            raise DomainError("need abs_tol + rel_tol > 0 with both nonnegative")
        if not isinstance(self.max_terms, numbers.Integral):
            raise DomainError(f"max_terms must be an integer, got {self.max_terms!r}")
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
        if not (0 < self.alpha < math.inf and 0 < self.m < math.inf
                and math.isfinite(self.l)):
            raise InadmissibleParams("require finite alpha > 0, m > 0 and l")

    @property
    def is_decay_form(self) -> bool:
        """True for the (alpha, m, m-1) family with 0 < alpha < 1, m >= 1."""
        return 0.0 < self.alpha < 1.0 and self.m >= 1.0 and abs(self.l - (self.m - 1.0)) < 1e-9


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
    At m = 1 they are Simon's bounds for E_alpha(-z) (Electron. J. Probab.
    19, 2014).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("bounds require 0 < alpha < 1")
    if not m >= 1.0:
        raise DomainError("bounds require m >= 1")
    if not z >= 0.0:  # also NaN
        raise DomainError(f"bounds are stated for z >= 0, got z = {z!r}")
    lower = 1.0 / (1.0 + math.gamma(1.0 - alpha) * z)
    ratio = math.exp(math.lgamma(1.0 + (m - 1.0) * alpha)
                     - math.lgamma(1.0 + m * alpha))
    upper = 1.0 / (1.0 + ratio * z)
    return BoundPair(lower=lower, upper=upper)


# {{{ series internals


# every table of the series engine, see _gamma_table and _fixed_ratios.
# Keys hold the exact parameters: a value never depends on which nearby
# parameters were evaluated first.  A longer table is built in full before
# it replaces the cached one, so a concurrent reader only ever sees a
# complete table.
_RATIO_CACHE: dict = {}
# fractional bits of the fixed-point sum beyond the ratio table's precision
_GUARD_BITS = 64


def _gamma_table(alpha, m, l, n):
    """Columns (log|c_k|, ratio_j) for k = 1..n and j < n, cached under
    (alpha, m, l) and grown to at least n entries.

    ratio_j = G(x)/G(y) with x = a(jm+l)+1, y = a(jm+l+1)+1, in double
    precision and signed; log|c_k| sums log|ratio_j| over j < k in order from the
    first term on.  A Gamma pole at x rejects the parameters.
    """
    logcs, ratios = _RATIO_CACHE.get((alpha, m, l), ((), ()))
    if len(logcs) >= n:
        return logcs, ratios
    logc = logcs[-1] if logcs else 0.0
    more_logcs, more_ratios = [], []
    for j in range(len(logcs), n):
        x = alpha * (j * m + l) + 1.0
        if x <= 0.5 and abs(x - round(x)) < 1e-9:
            raise InadmissibleParams(
                f"alpha*({j}*m+l)+1 = {x:g} hits a Gamma pole"
            )
        y = alpha * (j * m + l + 1.0) + 1.0
        (lx, sx), (ly, sy) = _lgamma(x), _lgamma(y)
        lr = lx - ly
        logc += lr
        more_logcs.append(logc)
        more_ratios.append(sx * sy * math.exp(lr))
    table = (logcs + tuple(more_logcs), ratios + tuple(more_ratios))
    _RATIO_CACHE[alpha, m, l] = table
    return table


@functools.lru_cache(maxsize=None)
def _mp_context(dps):
    """An mpmath context fixed at dps digits.  Unlike mpmath.workdps it
    leaves the process-wide precision alone, which threads share."""
    ctx = mpmath.MPContext()
    ctx.dps = dps
    return ctx


def _fixed_ratios(alpha, m, l, dps, n):
    """(table, frac): at least n Gamma-ratio factors at dps digits, each
    converted exactly (for |ratio| >= 2**-_GUARD_BITS) to an integer with
    frac fractional bits, cached under (alpha, m, l, dps)."""
    ctx = _mp_context(dps)
    frac = ctx.prec + _GUARD_BITS
    table, last = _RATIO_CACHE.get((alpha, m, l, dps), ((), None))
    if len(table) < n:
        a, mm, ll = ctx.mpf(alpha), ctx.mpf(m), ctx.mpf(l)
        xs = [a * (j * mm + ll) + 1 for j in range(len(table), n + 1)]
        if m == 1.0:
            # G(x_j + a) = G(x_{j+1}): one Gamma per term; the last one is
            # kept for the next extension
            gs = [ctx.gamma(xs[0]) if last is None else last]
            gs += [ctx.gamma(x) for x in xs[1:]]
            ratios, last = (g / h for g, h in zip(gs, gs[1:])), gs[-1]
        else:
            ratios = (ctx.gamma(x) / ctx.gamma(x + a) for x in xs[:-1])
        table += tuple(to_fixed(r._mpf_, frac) for r in ratios)
        _RATIO_CACHE[alpha, m, l, dps] = table, last
    return table, frac


def _floor(acc):
    """Log magnitude below which a term counts as quiet in _plan."""
    return math.log(max(acc.abs_tol, 1e-280)) - 2.0 * _LN10


def _plan(alpha, m, l, z, acc):
    """Log-space walk of the term magnitudes.

    Returns (terms_needed, peak_log) where peak_log is the natural log of
    the largest term magnitude, or raises NonConvergence when the budget
    max_terms cannot push the tail below the target.
    """
    logz = math.log(abs(z))
    floor = _floor(acc)
    logcs = _gamma_table(alpha, m, l, acc.max_terms)[0]
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


def _dps(digits):
    """Working digits for a peak term of 10**digits: 25 guard digits,
    rounded up to a multiple of 10."""
    return -(-(int(digits) + 25) // 10) * 10


def _series_value(alpha, m, l, z, acc):
    n, peak = _plan(alpha, m, l, z, acc)
    digits = peak / _LN10
    # positive z: all-positive terms, no cancellation, only overflow to guard
    if digits <= (280.0 if z > 0.0 else _DOUBLE_DIGITS):
        return _sum(_gamma_table(alpha, m, l, n)[1][:n], z, acc)
    dps = _dps(digits)
    if z < 0.0:
        # one table per parameter set, at the precision of its edge
        dps = max(dps, _edge(alpha, m, l, acc)[1])
    ratios, frac = _fixed_ratios(alpha, m, l, dps, n)
    return _fixed_sum(ratios[:n], frac, z, acc)


@functools.lru_cache(maxsize=None)
def _edge(alpha, m, l, acc):
    """(z0, dps): z0 is the largest |z| <= cutoff at which the series is
    still summable within the budget on the negative axis, dps the working
    precision there.

    _plan stops at three consecutive quiet terms, and term k is quiet
    while log|z| < q_k = (floor - log|c_k|)/k.  So the series is summable
    exactly for log|z| below max_k min(q_{k-2}, q_{k-1}, q_k), which the
    log-ratio column of _gamma_table gives in one pass; z0 sits 1e-9
    (relative) inside that edge.  Peak term and term count grow with |z|,
    so dps covers every negative argument up to z0.
    """
    floor, n = _floor(acc), acc.max_terms
    logcs = _gamma_table(alpha, m, l, n)[0][:n]
    q = [(floor - c) / k for k, c in enumerate(logcs, 1)]
    edge = min(max(map(min, q, q[1:], q[2:])), 3.0)  # e^3 > cutoff
    z0 = min(_SERIES_CUTOFF, math.exp(edge) * (1.0 - 1e-9))
    return z0, _dps(_plan(alpha, m, l, -z0, acc)[1] / _LN10)


# }}}


# {{{ bound-anchored surrogate for deep negative arguments

def _geomean(alpha, m, z):
    b = kilbas_saigo_bounds(alpha, m, z)
    return math.sqrt(b.lower * b.upper)


@functools.lru_cache(maxsize=None)
def _seam(params, acc):
    """(z0, scale) anchoring the surrogate branch to the series at the
    feasibility edge z0 of _edge; scale matches the surrogate to the series
    there, so the evaluated function stays continuous and inside the
    two-sided bounds for every z < -z0.
    """
    alpha, m, l = params.alpha, params.m, params.l
    z0 = _edge(alpha, m, l, acc)[0]
    return z0, _series_value(alpha, m, l, -z0, acc) / _geomean(alpha, m, z0)


# }}}


def kilbas_saigo_with_info(params: KilbasSaigoParams, z: float,
                           acc: SeriesAccuracy = DEFAULT_ACCURACY):
    """Evaluate E_{alpha,m,l}(z); returns (value, approximate_flag).

    approximate=True marks values from the bound-anchored surrogate used
    for deep negative arguments of the decay family (alpha, m, m-1).
    """
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got z = {z!r}")
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
    At alpha = beta = 1 negative arguments return e^z.
    """
    if not (alpha > 0 and beta > 0):
        raise DomainError("mittag_leffler requires alpha > 0 and beta > 0")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got z = {z!r}")
    if z == 0.0:
        return 1.0 / math.gamma(beta)
    if alpha == beta == 1.0 and z < 0.0:
        # the tail below vanishes term by term at beta = 1
        return math.exp(z)
    if z < -10.0:
        return -sum(z ** (-k) * _rgamma(beta - alpha * k) for k in range(1, 6))
    return (_series_value(alpha, 1.0, (beta - 1.0) / alpha, z, acc)
            / math.gamma(beta))

