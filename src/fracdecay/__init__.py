"""Decay-rate toolkit for time-fractional diffusion with time-dependent
coefficients: special functions, Caputo L1 solvers, spectral solutions,
nonlinear finite-difference schemes and tail-profile verification."""

# No module needs scipy at load time (scipy.linalg loads at the first
# march), but benchmarks/worker.py reads scipy's version from sys.modules
# after every pass.
import scipy  # noqa: F401

from .decayfit import (DecayReport, FitModel, check_envelope,
                       fit_model_select, fit_power_tail)
from .errors import FracdecayError
from .fracode import (CaputoL1Operator, SemilinearParams, TimeGrid,
                      default_grading, lemma_envelope, solve_linear_mode,
                      solve_semilinear)
from .nonlinear import (OperatorSpec, SourceSpec, SpatialGrid1D,
                        check_energy_inequality, predict_exponent,
                        solve_nonlinear)
from .specfun import (KilbasSaigoParams, SeriesAccuracy, kilbas_saigo,
                      kilbas_saigo_bounds, mittag_leffler)
from .spectral import (CoefficientSpec, EigenSystem, interval_eigensystem,
                       log_times, project_initial_data,
                       rectangle_eigensystem, solve_heat_general,
                       solve_subdiffusion)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
