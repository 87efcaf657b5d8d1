import numpy as np
import pytest

from fracdecay.decayfit import (check_envelope, fit_model_select,
                                fit_power_tail)
from fracdecay.errors import DegenerateTrace

T = np.logspace(-1, 4, 301)


def test_power_tail_recovers_exponent():
    e = 2.0 / (1.0 + T ** 1.5)
    s, intercept, resid = fit_power_tail(T, e, window=2.0)
    assert s == pytest.approx(1.5, abs=0.02)
    assert resid < 1e-3


def test_power_tail_on_pure_power():
    e = 3.0 * T ** -0.7
    s, intercept, resid = fit_power_tail(T, e)
    assert s == pytest.approx(0.7, rel=1e-10)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-10)
    assert resid < 1e-12


def test_short_trace_rejected():
    with pytest.raises(DegenerateTrace):
        fit_power_tail(np.array([1.0, 2.0]), np.array([1.0, 0.5]))


def test_model_select_power():
    fm = fit_model_select(T, 2.0 / (1.0 + T))
    assert fm.kind == "power"
    assert fm.params["s"] == pytest.approx(1.0, abs=0.05)


def test_model_select_exponential():
    t = np.logspace(-2, 1, 301)
    fm = fit_model_select(t, np.exp(-t ** 2), window=1.0)
    assert fm.kind == "exponential"
    assert fm.params["rate"] == pytest.approx(1.0, rel=0.02)
    assert fm.params["power"] == pytest.approx(2.0, rel=0.02)


def test_model_select_logarithmic():
    e = (1.0 + np.log1p(T)) ** -3.0
    fm = fit_model_select(T, e)
    assert fm.kind == "logarithmic"
    assert fm.params["p"] == pytest.approx(3.0, rel=0.02)


def test_model_select_plateau():
    fm = fit_model_select(T, np.full_like(T, 0.7))
    assert fm.kind == "plateau"
    assert fm.params["level"] == pytest.approx(0.7)


def test_envelope_sandwich_on_exact_profile():
    e = 1.0 / (1.0 + T)
    rep = check_envelope(T, e, 1.0)
    assert rep.verdict == "sandwich_ok"
    assert rep.envelope_lower == pytest.approx(1.0, rel=1e-10)
    assert rep.envelope_upper == pytest.approx(1.0, rel=1e-10)
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)


def test_envelope_detects_slow_decay():
    # claimed exponent 1 against a t^(-0.5) trace: the upper constant
    # drifts upward without bound
    e = 1.0 / (1.0 + T ** 0.5)
    rep = check_envelope(T, e, 1.0, two_sided=False)
    assert rep.verdict == "violated"


def test_envelope_faster_decay_is_upper_only():
    e = 1.0 / (1.0 + T ** 2)
    rep = check_envelope(T, e, 1.0, two_sided=False)
    assert rep.verdict == "upper_only_ok"
    rep2 = check_envelope(T, e, 1.0, two_sided=True)
    assert rep2.verdict == "violated"


def test_envelope_degenerate_trace():
    rep = check_envelope(T, np.zeros_like(T), 1.0)
    assert rep.verdict == "degenerate"


def test_envelope_narrow_window_is_degenerate():
    # a window too narrow to fit gives no verdict; it is not a zero slope
    t = np.logspace(-1, 3, 200)
    e = t ** -0.3
    rep = check_envelope(t, e, 1.0, fit_window=0.001)
    assert rep.verdict == "degenerate"
    assert np.isnan(rep.fitted_exponent)
    assert check_envelope(t, e, 1.0, fit_window=2.0).verdict == "violated"


@pytest.mark.parametrize("window", [0.5, 1.0, 2.0])
def test_envelope_window_is_the_power_tail_window(window):
    e = 2.0 / (1.0 + T ** 0.8)
    rep = check_envelope(T, e, 0.8, fit_window=window)
    s, _, resid = fit_power_tail(T, e, window=window)
    assert rep.fitted_exponent == s
    assert rep.residual_rms == resid
    # 301 samples: the last 16 (5%, rounded up) are left out
    t_hi = T[284]
    assert rep.window[1] == t_hi
    assert rep.window[0] == pytest.approx(t_hi * 10.0 ** -window, rel=1e-14)


def test_envelope_rejects_bad_exponent():
    with pytest.raises(DegenerateTrace):
        check_envelope(T, 1.0 / (1.0 + T), -1.0)


def test_underflowed_samples_ignored():
    e = np.exp(-T)  # underflows below the energy floor in the far tail
    fm = fit_model_select(T, e, window=1.0)
    assert fm.kind == "exponential"
    assert fm.params["power"] == pytest.approx(1.0, rel=0.05)
