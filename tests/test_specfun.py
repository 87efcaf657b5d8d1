import math
import os
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx, gammaln, gammasgn, rgamma

from fracdecay import specfun
from fracdecay.errors import (DomainError, FracdecayError, InadmissibleParams,
                              NonConvergence)
from fracdecay.specfun import (KilbasSaigoParams, SeriesAccuracy,
                               kilbas_saigo, kilbas_saigo_bounds,
                               kilbas_saigo_with_info, mittag_leffler)

TIGHT = SeriesAccuracy(abs_tol=1e-15, rel_tol=1e-14, max_terms=512)

# frozen 60-digit big-float series references
KS_HALF_2 = {  # alpha=0.5, m=2, l=1
    -1.0: 0.48571956423992094,
    -5.0: 0.12533708631263858,
    -10.0: 0.061180387483541345,
}
KS_03_15 = 0.29694398836240667971      # alpha=0.3, m=1.5, l=0.5, z=-2
KS_07_3 = 0.18807199388009463848       # alpha=0.7, m=3,   l=2,   z=-4
KS_M1 = 0.50729084738210196063         # alpha=0.5, m=1,   l=1,   z=-1
ML_HALF_5 = 0.11070463773306862637     # E_{1/2,1}(-5) = e^{25} erfc(5)
ML_HALF_50 = 0.0112815362653237725


def test_value_at_zero_is_one():
    p = KilbasSaigoParams(alpha=0.5, m=2.0, l=1.0)
    assert kilbas_saigo(p, 0.0) == 1.0


def test_frozen_series_references():
    p = KilbasSaigoParams(alpha=0.5, m=2.0, l=1.0)
    for z, ref in KS_HALF_2.items():
        assert kilbas_saigo(p, z, TIGHT) == pytest.approx(ref, rel=1e-12)
    # alternating double-precision sums lose a few digits to cancellation
    p = KilbasSaigoParams(alpha=0.3, m=1.5, l=0.5)
    assert kilbas_saigo(p, -2.0, TIGHT) == pytest.approx(KS_03_15, rel=1e-10)
    p = KilbasSaigoParams(alpha=0.7, m=3.0, l=2.0)
    assert kilbas_saigo(p, -4.0, TIGHT) == pytest.approx(KS_07_3, rel=1e-10)


def test_exponential_identity_alpha_one():
    # E_{1,m,m-1}(z) = exp(z/m)
    for m in (1.5, 2.0, 3.0):
        p = KilbasSaigoParams(alpha=1.0, m=m, l=m - 1.0)
        for z in (-5.0, -1.0, 0.5, 3.0):
            assert kilbas_saigo(p, z, TIGHT) == pytest.approx(
                math.exp(z / m), rel=1e-12, abs=1e-13)


def test_m_one_reduction():
    p = KilbasSaigoParams(alpha=0.5, m=1.0, l=1.0)
    assert kilbas_saigo(p, -1.0, TIGHT) == pytest.approx(KS_M1, rel=1e-12)
    # E_{a,1,l}(z) = Gamma(a l + 1) E_{a, a l + 1}(z); mittag_leffler sums
    # this same series, so this leg checks the scale
    assert kilbas_saigo(p, -1.0, TIGHT) == pytest.approx(
        math.gamma(1.5) * mittag_leffler(0.5, 1.5, -1.0, TIGHT), rel=1e-10)


def test_two_sided_bounds_contain_series():
    zs = np.logspace(-3, 1, 30)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        for m in (1.5, 2.0, 5.0):
            p = KilbasSaigoParams(alpha=alpha, m=m, l=m - 1.0)
            for z in zs:
                v = kilbas_saigo(p, -z)
                b = kilbas_saigo_bounds(alpha, m, z)
                assert b.lower - 1e-9 <= v <= b.upper + 1e-9


def test_bounds_ordering_and_limits():
    b = kilbas_saigo_bounds(0.5, 2.0, 0.0)
    assert b.lower == b.upper == 1.0
    b = kilbas_saigo_bounds(0.5, 2.0, 3.0)
    assert 0.0 < b.lower < b.upper < 1.0


def test_monotone_decay_across_surrogate_seam():
    # deep negative arguments switch to the bound-anchored surrogate;
    # the curve must stay decreasing through the seam
    p = KilbasSaigoParams(alpha=0.5, m=2.0, l=1.0)
    zs = np.linspace(8.0, 14.0, 61)
    vals = [kilbas_saigo(p, -z) for z in zs]
    assert np.all(np.diff(vals) < 0.0)
    _, approx_near = kilbas_saigo_with_info(p, -9.0)
    _, approx_far = kilbas_saigo_with_info(p, -14.0)
    assert not approx_near and approx_far


def test_small_alpha_deep_argument_stays_in_bounds():
    p = KilbasSaigoParams(alpha=0.1, m=2.0, l=1.0)
    for z in (2.0, 5.0, 10.0):
        v, _ = kilbas_saigo_with_info(p, -z)
        b = kilbas_saigo_bounds(0.1, 2.0, z)
        assert b.lower <= v <= b.upper


@settings(max_examples=25, deadline=None, database=None)
@given(alpha=st.floats(0.1, 0.95), m=st.floats(1.0, 5.0),
       z1=st.floats(0.0, 60.0), z2=st.floats(0.0, 60.0))
@example(alpha=0.7, m=1.0, z1=0.5, z2=50.0)
def test_decay_family_within_bounds_and_monotone(alpha, m, z1, z2):
    # on the decay family l = m - 1, E(-z) lies between the two-sided
    # bounds and does not increase in z, also past the surrogate seam;
    # m = 1 is E_alpha(-z) with Simon's bounds
    p = KilbasSaigoParams(alpha=alpha, m=m, l=m - 1.0)
    lo, hi = sorted((z1, z2))
    v_lo, v_hi = kilbas_saigo(p, -lo), kilbas_saigo(p, -hi)
    for z, v in ((lo, v_lo), (hi, v_hi)):
        b = kilbas_saigo_bounds(alpha, m, z)
        assert b.lower - 1e-9 <= v <= b.upper + 1e-9
    assert v_hi <= v_lo + 1e-12


def test_half_order_decay_form_is_erfcx():
    # E_{1/2,1,0}(-x) = E_{1/2}(-x) = erfcx(x): Simon's m = 1 bounds hold
    # it, and below the surrogate seam the series matches it
    p = KilbasSaigoParams(alpha=0.5, m=1.0, l=0.0)
    assert p.is_decay_form
    for x in (1e-3, 0.5, 2.0, 5.0, 9.0, 20.0, 1e3):
        v, approx = kilbas_saigo_with_info(p, -x)
        b = kilbas_saigo_bounds(0.5, 1.0, x)
        assert b.lower <= erfcx(x) <= b.upper
        assert b.lower <= v <= b.upper
        assert approx == (x > 10.0)
        if not approx:
            assert v == pytest.approx(erfcx(x), rel=1e-10)


def test_gamma_pole_rejected():
    # a pole is found when the series is evaluated; E(0) = 1 needs no term
    p = KilbasSaigoParams(alpha=0.5, m=1.0, l=-2.0)
    assert kilbas_saigo(p, 0.0) == 1.0
    with pytest.raises(InadmissibleParams):
        kilbas_saigo(p, 1.0)
    with pytest.raises(InadmissibleParams):
        KilbasSaigoParams(alpha=-0.5, m=2.0, l=1.0)


def test_gamma_pole_beyond_default_budget_rejected():
    # alpha*(600*m+l)+1 = 0: the pole lies past the default 512 terms, so
    # it must be found for the longer budget that reaches it
    p = KilbasSaigoParams(alpha=0.5, m=0.002, l=-3.2)
    with pytest.raises(InadmissibleParams):
        kilbas_saigo(p, 0.5, SeriesAccuracy(max_terms=1024))


def test_nonconvergence_outside_decay_family():
    # no surrogate applies off the decay family, so an infeasible series
    # must fail loudly instead of returning garbage
    p = KilbasSaigoParams(alpha=0.1, m=2.0, l=0.5)
    with pytest.raises(NonConvergence):
        kilbas_saigo(p, -50.0, SeriesAccuracy(max_terms=64))


@pytest.mark.parametrize("kwargs", [
    {"abs_tol": math.nan}, {"abs_tol": math.inf}, {"rel_tol": math.nan},
    {"rel_tol": math.inf}, {"max_terms": 600.5}, {"max_terms": "600"},
])
def test_series_accuracy_rejects_unusable_values(kwargs):
    # a NaN tolerance never stops the sum, an infinite one cannot be a
    # fixed-point bound, and a fractional budget is no term count
    with pytest.raises(DomainError):
        SeriesAccuracy(**kwargs)
    assert SeriesAccuracy(max_terms=np.int64(600)).max_terms == 600


def test_nan_argument_is_a_domain_error():
    p = KilbasSaigoParams(alpha=0.5, m=2.0, l=1.0)
    for call in (lambda: kilbas_saigo_with_info(p, math.nan),
                 lambda: mittag_leffler(0.5, 1.0, math.nan),
                 lambda: kilbas_saigo_bounds(0.5, 2.0, math.nan)):
        with pytest.raises(DomainError, match=r"\bz\b"):
            call()
    # the bounds keep their limit at an infinite argument
    b = kilbas_saigo_bounds(0.5, 2.0, math.inf)
    assert b.lower == b.upper == 0.0


@pytest.mark.parametrize("z", [math.inf, -math.inf])
def test_infinite_argument_is_a_domain_error(z):
    # no term budget sums the series at an infinite argument, and the
    # surrogate and the algebraic tail are stated for finite ones
    for params in (KilbasSaigoParams(0.5, 2.0, 1.0),
                   KilbasSaigoParams(0.5, 2.0, 0.5)):
        with pytest.raises(DomainError, match=r"\bz\b"):
            kilbas_saigo_with_info(params, z)
        with pytest.raises(DomainError, match=r"\bz\b"):
            kilbas_saigo(params, z)
    with pytest.raises(DomainError, match=r"\bz\b"):
        mittag_leffler(0.5, 1.0, z)


_NON_INTEGERS = [1e-300, 1e-8, 0.5, 1.0 + 1e-9, 2.5, 9.75, 100.3, 171.6,
                 -1e-300, -1e-8, -0.5, -1.5, -2.25, -10.5, -100.3, -170.5,
                 -171.5, -200.5]


@pytest.mark.parametrize("x", _NON_INTEGERS)
def test_gamma_helpers_match_scipy(x):
    lg, sign = specfun._lgamma(x)
    assert lg == pytest.approx(gammaln(x), rel=1e-14, abs=1e-14)
    assert sign == gammasgn(x)
    assert specfun._rgamma(x) == pytest.approx(rgamma(x), rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0])
def test_gamma_helpers_at_poles(x):
    # log|G| is infinite and 1/G vanishes there, as in scipy.special; G has
    # no sign at a pole
    assert specfun._lgamma(x) == (math.inf, 0.0) and gammaln(x) == math.inf
    assert specfun._rgamma(x) == rgamma(x) == 0.0


@pytest.mark.parametrize("x", [171.7, 172.0, 200.5, 1e5, 1e308])
def test_gamma_helpers_past_overflow(x):
    # G(x) overflows past x = 171.6: 1/G is 0.0, and log|G| stays finite
    # until lgamma itself overflows, as in scipy.special
    assert specfun._rgamma(x) == rgamma(x) == 0.0
    assert specfun._lgamma(x)[0] == pytest.approx(gammaln(x), rel=1e-14)


def test_mittag_leffler_classical_values():
    assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)
    assert mittag_leffler(2.0, 1.0, -1.0) == pytest.approx(
        math.cos(1.0), rel=1e-12)
    assert mittag_leffler(0.5, 1.0, -5.0) == pytest.approx(
        ML_HALF_5, rel=1e-9)


def test_mittag_leffler_asymptotic_branch():
    # |z| beyond the series range uses the algebraic tail expansion
    assert mittag_leffler(0.5, 1.0, -50.0) == pytest.approx(
        ML_HALF_50, rel=1e-6)


def _ml_reference(alpha, beta, z):
    """sum_k z^k / Gamma(alpha k + beta) summed by mpmath, with alpha k + beta
    formed in mpf and the precision sized from the largest term."""
    a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
    if z == 0.0:
        return float(mpmath.rgamma(b))
    logs = []
    while True:
        k = len(logs)
        logs.append(k * math.log(abs(z)) - math.lgamma(alpha * k + beta))
        if k > 2 and logs[-1] < -40.0 * math.log(10.0) and logs[-1] < logs[-2]:
            break
    with mpmath.workdps(int(max(logs) / math.log(10.0)) + 30):
        zz = mpmath.mpf(z)
        return float(mpmath.fsum(zz ** k * mpmath.rgamma(a * k + b)
                                 for k in range(len(logs))))


@settings(deadline=None, database=None)
@given(alpha=st.floats(0.3, 1.0), beta=st.floats(0.5, 2.0),
       z=st.floats(-9.5, 3.0))
@example(alpha=0.4, beta=1.0, z=-5.0)
@example(alpha=0.6, beta=1.0, z=-9.0)
def test_mittag_leffler_matches_mpmath_series(alpha, beta, z):
    # a value is either accurate or refused; the series stops at
    # abs_tol = 1e-12, so near a zero of E (beta < alpha) the error is
    # absolute
    try:
        v = mittag_leffler(alpha, beta, z)
    except NonConvergence:
        return
    assert v == pytest.approx(_ml_reference(alpha, beta, z), rel=1e-9,
                              abs=1e-11)


def _gamma_args(alpha, m, l, j):
    """x, y of the Gamma ratio G(x)/G(y) that extends term j to j+1."""
    return alpha * (j * m + l) + 1.0, alpha * (j * m + l + 1.0) + 1.0


def _log_ratio(alpha, m, l, j):
    x, y = _gamma_args(alpha, m, l, j)
    return math.lgamma(x) - math.lgamma(y)


def _sign_ratio(alpha, m, l, j):
    x, y = _gamma_args(alpha, m, l, j)
    return gammasgn(x) * gammasgn(y)


def _reference_series(alpha, m, l, z, acc):
    """The series value computed without specfun's tables: the plan walks
    freshly computed log-ratios, and the sum is a double loop or an mpf loop
    over an mpmath Gamma-ratio table at the planned precision."""
    logz = math.log(abs(z))
    floor = math.log(max(acc.abs_tol, 1e-280)) - 2.0 * math.log(10.0)
    logc = peak = 0.0
    quiet = 0
    for k in range(1, acc.max_terms + 1):
        logc += _log_ratio(alpha, m, l, k - 1)
        lt = logc + k * logz
        peak = max(peak, lt)
        quiet = quiet + 1 if lt < floor else 0
        if quiet >= 3:
            break
    else:
        raise NonConvergence(
            f"series needs more than {acc.max_terms} terms at z = {z:g}")
    digits = peak / math.log(10.0)
    if digits <= specfun._DOUBLE_DIGITS:
        ratios = [_sign_ratio(alpha, m, l, j)
                  * math.exp(_log_ratio(alpha, m, l, j))
                  for j in range(k)]
        s = term = 1.0
    else:
        ctx = mpmath.MPContext()
        ctx.dps = -(-(int(digits) + 25) // 10) * 10
        a, mm, ll = ctx.mpf(alpha), ctx.mpf(m), ctx.mpf(l)
        xs = [a * (j * mm + ll) + 1 for j in range(k)]
        ratios = [ctx.gamma(x) / ctx.gamma(x + a) for x in xs]
        s = term = ctx.mpf(1)
        z = ctx.mpf(z)
    quiet = 0
    for r in ratios:
        term *= r * z
        s += term
        quiet = quiet + 1 if abs(term) < acc.abs_tol + acc.rel_tol * abs(s) else 0
        if quiet >= 3:
            return float(s)
    raise NonConvergence("series summation exhausted the planned terms")


def _outcome(f, *args):
    """The bits of a float result, or the message of NonConvergence."""
    try:
        return float(f(*args)).hex()
    except NonConvergence as exc:
        return str(exc)


@settings(deadline=None, database=None, max_examples=40)
@given(alpha=st.floats(0.3, 0.95), beta=st.floats(0.05, 1.0),
       z=st.floats(-10.0, -1.0))
@example(alpha=0.5, beta=0.5, z=-5.0)
@example(alpha=0.5, beta=0.5, z=-10.0)
def test_kilbas_saigo_bits_match_reference_sum(alpha, beta, z):
    # decay family (alpha, 1 + beta/alpha, beta/alpha); values past the
    # seam are the surrogate anchored at the series value there
    m = 1.0 + beta / alpha
    p = KilbasSaigoParams(alpha, m, m - 1.0)
    acc = specfun.DEFAULT_ACCURACY
    try:
        approx = kilbas_saigo_with_info(p, z)[1]
    except NonConvergence:
        approx = False
    if approx:
        z0 = specfun._seam(p, acc)[0]
        expected = (_reference_series(alpha, m, p.l, -z0, acc)
                    / specfun._geomean(alpha, m, z0)
                    * specfun._geomean(alpha, m, -z)).hex()
    else:
        expected = _outcome(_reference_series, alpha, m, p.l, z, acc)
    assert _outcome(kilbas_saigo, p, z) == expected


@settings(deadline=None, database=None, max_examples=40)
@given(alpha=st.floats(0.3, 0.95), z=st.floats(-10.0, -1.0))
@example(alpha=0.45, z=-6.0)
def test_mittag_leffler_bits_match_reference_sum(alpha, z):
    acc = specfun.DEFAULT_ACCURACY
    assert (_outcome(mittag_leffler, alpha, 1.0, z)
            == _outcome(_reference_series, alpha, 1.0, 0.0, z, acc))


def test_longer_budget_extends_cached_tables(monkeypatch):
    # E_{0.5}(-9.9) needs 590 terms: the 512-term tables cached by the
    # default budget must grow, not be reused short
    monkeypatch.setattr(specfun, "_RATIO_CACHE", {})
    with pytest.raises(NonConvergence):
        mittag_leffler(0.5, 1.0, -9.9)
    acc = SeriesAccuracy(max_terms=1024)
    assert (_outcome(mittag_leffler, 0.5, 1.0, -9.9, acc)
            == _outcome(_reference_series, 0.5, 1.0, 0.0, -9.9, acc))


def test_big_float_sums_are_thread_safe(monkeypatch):
    # mid-band arguments from an empty ratio cache: both functions build
    # their Gamma-ratio tables and sum in big floats while threads switch
    # every microsecond
    p = KilbasSaigoParams(alpha=0.45, m=2.0, l=0.5)
    calls = [(mittag_leffler, 0.45, 1.0, -z) for z in (3.0, 4.5, 6.0, 7.5)]
    calls += [(kilbas_saigo, p, -z) for z in (3.0, 5.0)]

    def values():
        out = []
        for f, *args in calls:
            try:
                out.append(f(*args))
            except FracdecayError as exc:
                out.append(type(exc).__name__)
        return out

    monkeypatch.setattr(specfun, "_RATIO_CACHE", {})
    serial = values()
    monkeypatch.setattr(specfun, "_RATIO_CACHE", {})
    results = {}

    def work(i):
        results[i] = values()

    threads = [threading.Thread(target=work, args=(i,), daemon=True)
               for i in range((os.cpu_count() or 1) + 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results.get(i) for i in range(len(threads))] == [serial] * len(threads)


def test_mittag_leffler_alpha_beta_one_is_exp():
    # every term 1/G(beta - k) of the algebraic tail vanishes at beta = 1
    for z in (-12.0, -50.0, -300.0):
        assert mittag_leffler(1.0, 1.0, z) == math.exp(z)


def _from_cold_caches(calls):
    """Outcomes of the calls, made in order from empty series caches."""
    specfun._RATIO_CACHE = {}
    specfun._edge.cache_clear()
    specfun._seam.cache_clear()
    return {c[-1]: _outcome(*c) for c in calls}


@settings(deadline=None, database=None, max_examples=15)
@given(alpha=st.floats(0.3, 0.95), beta=st.floats(0.05, 1.0),
       decay=st.booleans(),
       zs=st.lists(st.floats(-10.0, -1.0), min_size=2, max_size=6,
                   unique=True))
def test_values_do_not_depend_on_call_order(alpha, beta, decay, zs):
    # each value is a function of (parameters, z, acc): from cold caches,
    # ascending and descending |z| give the same bits
    if decay:
        m = 1.0 + beta / alpha
        p = KilbasSaigoParams(alpha, m, m - 1.0)
        calls = [(kilbas_saigo, p, z) for z in sorted(zs, reverse=True)]
    else:
        calls = [(mittag_leffler, alpha, 1.0 + beta, z)
                 for z in sorted(zs, reverse=True)]
    saved = specfun._RATIO_CACHE
    try:
        ascending = _from_cold_caches(calls)
        descending = _from_cold_caches(calls[::-1])
    finally:
        specfun._RATIO_CACHE = saved
    assert ascending == descending


def test_one_fixed_point_table_per_parameter_set(monkeypatch):
    # ascending mid-band arguments share the table sized at the set's edge
    monkeypatch.setattr(specfun, "_RATIO_CACHE", {})
    p = KilbasSaigoParams(alpha=0.45, m=2.0, l=1.0)
    for z in np.linspace(1.5, 10.0, 18):
        kilbas_saigo(p, -z)
        try:
            mittag_leffler(0.6, 1.0, -z)
        except NonConvergence:
            pass
    fixed = [k[:3] for k in specfun._RATIO_CACHE if len(k) == 4]
    assert sorted(fixed) == [(0.45, 2.0, 1.0), (0.6, 1.0, 0.0)]


@settings(deadline=None, database=None, max_examples=60)
@given(alpha=st.floats(0.05, 1.0), m=st.floats(0.5, 5.0),
       l=st.one_of(st.none(), st.floats(-0.5, 5.0)),
       acc=st.sampled_from([specfun.DEFAULT_ACCURACY, TIGHT]))
@example(alpha=0.1, m=1.5, l=None, acc=specfun.DEFAULT_ACCURACY)
def test_edge_is_the_feasibility_edge(alpha, m, l, acc):
    # z0 is summable, and below the cutoff 1e-8 past it is not (l = None
    # stands for the decay form l = m - 1)
    l = m - 1.0 if l is None else l
    z0, _ = specfun._edge(alpha, m, l, acc)
    specfun._plan(alpha, m, l, -z0, acc)
    if z0 < specfun._SERIES_CUTOFF:
        with pytest.raises(NonConvergence):
            specfun._plan(alpha, m, l, -z0 * (1.0 + 1e-8), acc)


def test_m_one_table_takes_one_gamma_per_term(monkeypatch):
    # G(x_j + a) = G(x_{j+1}): n ratios from n + 1 Gammas, also when the
    # table is extended, and equal to the two-Gamma ratios at dps digits
    monkeypatch.setattr(specfun, "_RATIO_CACHE", {})
    ctx = specfun._mp_context(60)
    gamma, calls = ctx.gamma, []

    def counted(x):
        calls.append(x)
        return gamma(x)

    monkeypatch.setattr(ctx, "gamma", counted)
    alpha, l = 0.45, 0.5
    table, frac = specfun._fixed_ratios(alpha, 1.0, l, 60, 100)
    assert (len(table), len(calls)) == (100, 101)
    table, frac = specfun._fixed_ratios(alpha, 1.0, l, 60, 150)
    assert (len(table), len(calls)) == (150, 151)
    a = ctx.mpf(alpha)
    for j in (0, 99, 100, 149):
        x = a * (j + ctx.mpf(l)) + 1
        ref = gamma(x) / gamma(x + a)
        assert abs(ctx.mpf(table[j]) / 2 ** frac - ref) <= 1e-55 * ref
