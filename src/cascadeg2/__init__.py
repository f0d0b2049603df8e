"""Polarization-resolved two-photon correlations of a driven radiative cascade.

The package builds the Lindblad generator of a five-level cascade (upper
level, split intermediate doublet, driven auxiliary level, ground level),
evaluates two-time intensity correlations both by the quantum regression
theorem and by closed-form kernels, and derives degree-of-correlation and
CHSH Bell observables across parameter sweeps.
"""

from .errors import DivergentAverageError, NumericError
from .model import (CascadeBatch, CascadeParams, DetectorSetting, Level,
                    N_LEVELS, omega_pm, omega_star, polarization_rotation)
from .liouvillian import (build_generator, evolve, evolve_grid, unvectorize,
                          vectorize)
from .correlate import (CorrelationCurve, SpecialCase, SpecialCaseResult,
                        correlation_curve, g2_analytic, g2_avg_analytic,
                        g2_avg_numeric, g2_numeric, g2_numeric_grid,
                        special_case, two_photon_response)
from .observables import (STANDARD_CHSH_ANGLES, TSIRELSON_BOUND, BellResult,
                          CorrelationDegree, bell_s_chsh, bell_s_from_response,
                          bell_s_shortcut, chsh_coefficient,
                          degree_from_response, degree_of_correlation,
                          degree_of_correlation_instant)

__version__ = "0.1.0"

__all__ = [
    "BellResult",
    "CascadeBatch",
    "CascadeParams",
    "CorrelationCurve",
    "CorrelationDegree",
    "DetectorSetting",
    "DivergentAverageError",
    "Level",
    "N_LEVELS",
    "NumericError",
    "STANDARD_CHSH_ANGLES",
    "SpecialCase",
    "SpecialCaseResult",
    "TSIRELSON_BOUND",
    "bell_s_chsh",
    "bell_s_from_response",
    "bell_s_shortcut",
    "build_generator",
    "chsh_coefficient",
    "correlation_curve",
    "degree_from_response",
    "degree_of_correlation",
    "degree_of_correlation_instant",
    "evolve",
    "evolve_grid",
    "g2_analytic",
    "g2_avg_analytic",
    "g2_avg_numeric",
    "g2_numeric",
    "g2_numeric_grid",
    "omega_pm",
    "omega_star",
    "polarization_rotation",
    "special_case",
    "two_photon_response",
    "unvectorize",
    "vectorize",
    "__version__",
]
