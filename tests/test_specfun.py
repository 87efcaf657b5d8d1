import math
import os
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdecay import specfun
from fracdecay.errors import FracdecayError, InadmissibleParams, NonConvergence
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
@given(alpha=st.floats(0.1, 0.95), m=st.floats(1.05, 5.0),
       z1=st.floats(0.0, 60.0), z2=st.floats(0.0, 60.0))
def test_decay_family_within_bounds_and_monotone(alpha, m, z1, z2):
    # on the decay family l = m - 1, E(-z) lies between the two-sided
    # bounds and does not increase in z, also past the surrogate seam
    p = KilbasSaigoParams(alpha=alpha, m=m, l=m - 1.0)
    lo, hi = sorted((z1, z2))
    v_lo, v_hi = kilbas_saigo(p, -lo), kilbas_saigo(p, -hi)
    for z, v in ((lo, v_lo), (hi, v_hi)):
        b = kilbas_saigo_bounds(alpha, m, z)
        assert b.lower - 1e-9 <= v <= b.upper + 1e-9
    assert v_hi <= v_lo + 1e-12


def test_gamma_pole_rejected():
    with pytest.raises(InadmissibleParams):
        KilbasSaigoParams(alpha=0.5, m=1.0, l=-2.0)
    with pytest.raises(InadmissibleParams):
        KilbasSaigoParams(alpha=-0.5, m=2.0, l=1.0)


def test_nonconvergence_outside_decay_family():
    # no surrogate applies off the decay family, so an infeasible series
    # must fail loudly instead of returning garbage
    p = KilbasSaigoParams(alpha=0.1, m=2.0, l=0.5)
    with pytest.raises(NonConvergence):
        kilbas_saigo(p, -50.0, SeriesAccuracy(max_terms=64))


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


def _reference_series(alpha, m, l, z, acc):
    """The series value computed without specfun's tables: the plan walks
    freshly computed log-ratios, and the sum is a double loop or an mpf loop
    over an mpmath Gamma-ratio table at the planned precision."""
    logz = math.log(abs(z))
    floor = math.log(max(acc.abs_tol, 1e-280)) - 2.0 * math.log(10.0)
    logc = peak = 0.0
    quiet = 0
    for k in range(1, acc.max_terms + 1):
        logc += specfun._log_ratio(alpha, m, l, k - 1)
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
        ratios = [specfun._sign_ratio(alpha, m, l, j)
                  * math.exp(specfun._log_ratio(alpha, m, l, j))
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
