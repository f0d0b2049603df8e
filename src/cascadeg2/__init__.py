"""Polarization-resolved two-photon correlations of a driven radiative cascade.

The package builds the Lindblad generator of a five-level cascade (upper
level, split intermediate doublet, driven auxiliary level, ground level),
evaluates two-time intensity correlations both by the quantum regression
theorem and by closed-form kernels, and derives degree-of-correlation and
CHSH Bell observables across parameter sweeps.
"""

from .errors import DivergentAverageError, NumericError
from .model import (CascadeBatch, CascadeParams, DetectorSetting, Level,
                    N_LEVELS, omega_star)
from .liouvillian import build_generator, evolve_grid, unvectorize, vectorize
from .correlate import (CorrelationCurve, TwoPhotonResponse,
                        correlation_curve, g2_analytic, g2_avg_analytic,
                        g2_avg_numeric, g2_numeric, g2_numeric_grid,
                        two_photon_response)
from .observables import (STANDARD_CHSH_ANGLES, TSIRELSON_BOUND,
                          bell_s_chsh_from_response, bell_s_from_response,
                          chsh_from_response, degree_from_response)

__version__ = "0.1.0"

__all__ = [
    "CascadeBatch",
    "CascadeParams",
    "CorrelationCurve",
    "DetectorSetting",
    "DivergentAverageError",
    "Level",
    "N_LEVELS",
    "NumericError",
    "STANDARD_CHSH_ANGLES",
    "TSIRELSON_BOUND",
    "TwoPhotonResponse",
    "bell_s_chsh_from_response",
    "bell_s_from_response",
    "build_generator",
    "chsh_from_response",
    "correlation_curve",
    "degree_from_response",
    "evolve_grid",
    "g2_analytic",
    "g2_avg_analytic",
    "g2_avg_numeric",
    "g2_numeric",
    "g2_numeric_grid",
    "omega_star",
    "two_photon_response",
    "unvectorize",
    "vectorize",
    "__version__",
]
