"""Exception taxonomy, and the one table of parameter domains."""

import numbers


class FracdecayError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FracdecayError):
    """An argument lies outside the mathematical domain of an operation."""


# The domain of each equation and grid parameter: the paper's hypotheses are
# inner edges, plain limits close the rest, each with its reason.
DOMAINS = {
    "alpha": "[0.01, 1]",         # 1 is backward Euler; _soe holds from 0.01
    "alpha_frac": "[0.01, 1)",    # the envelopes and nonlinear solver's order
    "beta": "(-1, 10]",           # beta > -alpha > -1; t^(beta+1) < 1e133 to T
    "kappa": "(0, 1e6]",          # a(t) and its primitive stay below 1e137
    "T": "[1e-6, 1e12]",          # t_1 >= 6e-73: distinct nodes, weight < 2e72
    "t_min": "[1e-6, 1e12]",      # first log_times sample, also below T
    "steps": "[1, 4194304]",      # 2^22: a scalar march takes minutes
    "grading": "[1, 10]",         # uniform to steep; default_grading <= 4
    "L": "[1e-3, 1e3]",           # (K pi / L)^2 <= 1.6e11 at 128 modes
    "points": "[3, 65536]",       # far history of J M floats, J <= 752: 0.4 GB
    "modes": "[1, 128]",          # widest 128-mode projection: 10 MB
    "lam": "[0, 1e12]",           # eigenvalues reach 1.6e11 (L and modes)
    "nu": "(0, 1e6]",             # semilinear rate, bounded as kappa
    "delta": "[0.01, 10]",        # envelope exponent (a + b)/delta <= 1100
    "H0": "[1e-200, 1e200]",      # times an L1 weight (< 2e72) stays finite
    "p": "[1.5, 10]",             # degree p - 1 >= 0.5: t^s finite, s <= 22
    "m": "[0, 10]",               # porous-medium mobility |u|^m, degree m + 1
    "q": "[0, 10]",               # degenerate factor |u|^q, degree q + 1
    "gamma": "[0, 10]",           # Kirchhoff s^gamma, degree gamma + p - 1
    "c0": "(0, 1e6]",             # mobility scale, bounded as kappa
    "mu": "[-1e6, 1e6]",          # source rate; a negative one grows u
    "log_p": "(0, 1e6]",          # heat --p: A(t) = p log(1 + log(1 + t)) > 0
    "poly_q": "(0, 1e6]",         # heat --q: A(t) = q log(P(t)/a_0)
    "poly": "[-1e6, 1e6]",        # coefficients a_0..a_m of P, as kappa
    "table_t": "[0, 1e12]",       # tabulated times, within the horizon bound
    "table_a": "(0, 1e6]",        # tabulated a(t) > 0, bounded as kappa
    "window": "(0, 300]",         # fit window in decades; 10^300 is a float
}
INTEGERS = ("steps", "points", "modes")


def require(**values):
    """DomainError, naming the field and its interval, unless each named
    value (each entry of a sequence) lies in DOMAINS, and beta > -alpha."""
    for name, value in values.items():
        span, integer = DOMAINS[name], name in INTEGERS
        lo, hi = (float(x) for x in span[1:-1].split(","))
        for x in value if hasattr(value, "__len__") else (value,):
            if not ((lo < x if span[0] == "(" else lo <= x)
                    and (x < hi if span[-1] == ")" else x <= hi)
                    and (not integer or isinstance(x, numbers.Integral))):
                raise DomainError(
                    f"need {('a finite', 'an integer')[integer]} {name} in "
                    f"{span}, got {x if integer else float(x)!r}")
    alpha = values.get("alpha", values.get("alpha_frac", 1.0))
    if not values.get("beta", 0.0) > -alpha:  # without alpha: beta > -1
        raise DomainError(f"need beta > -alpha = {-alpha:g}, "
                          f"got beta = {float(values['beta'])!r}")


class InadmissibleParams(FracdecayError):
    """Kilbas-Saigo indices not finite, or at a Gamma-ratio pole."""


class NonConvergence(FracdecayError):
    """A series truncation budget was exhausted before the tolerance was met."""


class GridMismatch(FracdecayError):
    """Sample array does not line up with the time grid."""


class RootSolveFailure(FracdecayError):
    """A per-step scalar root solve got step data with no positive root."""


class QuadratureUnderResolved(FracdecayError):
    """Parseval defect of a projection exceeds the resolution guard."""


class NonpositivePrimitive(FracdecayError):
    """The coefficient primitive integral is not positive for t > 0."""


class NonFiniteState(FracdecayError):
    """A spatial field contains NaN or infinite entries."""


class StepDivergence(FracdecayError):
    """The fixed-point sweep of a semi-implicit step failed to contract."""


class PositivityLoss(FracdecayError):
    """A run that requires a nonnegative state produced negative values."""


class DegenerateTrace(FracdecayError):
    """An energy trace has too little usable signal to fit."""


class AmbiguousFit(FracdecayError):
    """Two decay models explain the trace equally well."""


class ConfigError(FracdecayError):
    """An experiment configuration is malformed or breaks a precondition."""
