"""Degree of polarization correlation and CHSH Bell observables.

All observables are ratios of time-averaged coincidence rates, so the overall
correlation normalization cancels.  Analyzer phases are zero throughout
(linear polarization bases).

Every averaged coincidence is a bilinear form in (cos 2theta_i,
sin 2theta_i) of one two-photon response per parameter point: four
population averages and one coherence average
(:func:`~cascadeg2.correlate.two_photon_response`).  Each observable computes
that response once and evaluates all its analyzer pairs on it.
``degree_from_response`` and ``bell_s_from_response`` evaluate a stacked
response of many points, and arrays of angles, at once; sweeps use them to
evaluate a whole axis in a few array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlate import _angle_weights, _braces, two_photon_response
from .model import CascadeParams

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Analyzer angles (a1, a2, b1, b2) that maximize S for the ideal cascade.
STANDARD_CHSH_ANGLES = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


@dataclass(frozen=True)
class CorrelationDegree:
    """Degree of correlation in the linear basis rotated by basis_angle."""

    value: float
    basis_angle: float

    def __post_init__(self) -> None:
        _check_degrees(np.asarray(self.value))


@dataclass(frozen=True)
class BellResult:
    """CHSH Bell parameter with its analyzer settings.

    ``violated`` flags s > 2; |s| can never exceed the Tsirelson bound
    2 sqrt(2) for this model.
    """

    s: float
    violated: bool
    settings: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        _check_bell(np.asarray(self.s))


def _check_degrees(values: np.ndarray) -> None:
    outside = values[~(np.abs(values) <= 1.0 + 1e-9)]
    if outside.size:
        raise ValueError(f"degree of correlation {outside[0]} outside [-1, 1]")


def _check_bell(values: np.ndarray) -> None:
    # a nan fails the comparison
    outside = values[~(np.abs(values) <= TSIRELSON_BOUND + 1e-6)]
    if outside.size:
        if not np.isfinite(outside[0]):
            raise ValueError(f"S = {outside[0]} is not finite")
        raise ValueError(f"|S| = {abs(outside[0])} exceeds the Tsirelson bound")


def degree_from_response(response: np.ndarray, theta) -> np.ndarray:
    """Degree of correlation C(theta) of each point of a two-photon response.

    ``theta`` is an angle or an array of angles that broadcasts against the
    points; raises ValueError if any |C| exceeds 1.
    """
    # C keeps its coincidence form.  Written out, C = (b c + d c^2 + e s^2)
    # / (k + a c) with c, s = cos, sin 2 theta, k, d and e as in _chsh, a =
    # P11 - P12 + P21 - P22 and b = P11 + P12 - P21 - P22; but k + a c
    # cancels near an analyzer eigenbasis when one decay path dominates,
    # while co + cross adds two nonnegative coincidences
    co = _braces(response, theta, theta)
    cross = _braces(response, theta, theta + math.pi / 2.0)
    values = (co - cross) / (co + cross)
    _check_degrees(values)
    return values


def bell_s_from_response(response: np.ndarray) -> np.ndarray:
    """Shortcut S = sqrt(2)(C_H + C_D) of each point of a two-photon response.

    Raises ValueError if any |S| exceeds the Tsirelson bound.
    """
    s = math.sqrt(2.0) * (degree_from_response(response, 0.0)
                          + degree_from_response(response, math.pi / 4.0))
    _check_bell(s)
    return s


def degree_of_correlation(params: CascadeParams, theta: float,
                          method: str = "analytic") -> CorrelationDegree:
    """Time-averaged degree of correlation C in the basis rotated by theta.

    C = (co - cross) / (co + cross) from the averaged coincidences at
    analyzer pairs (theta, theta) and (theta, theta + pi/2); theta = 0 gives
    C_H, theta = pi/4 gives C_D.
    """
    _require_finite(theta)
    value = degree_from_response(two_photon_response([params], method), theta)
    return CorrelationDegree(value=float(value[0]), basis_angle=theta)


def _require_finite(*angles: float) -> None:
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"analyzer angles must be finite, got {angles}")


def _chsh(response: np.ndarray, alpha, beta) -> np.ndarray:
    """E(alpha, beta) of each point; the angles may be arrays.

    In the four coincidences at (alpha, beta), (alpha, beta + pi/2),
    (alpha + pi/2, beta) and (alpha + pi/2, beta + pi/2) a quarter turn
    flips the signs of ci = cos 2 angle_i and si = sin 2 angle_i, so their
    total is 4 k with k = P11 + P12 + P21 + P22, and E = (d c1 c2 + e s1 s2)
    / k with d = P11 - P12 - P21 + P22 and e = 2 Re avg_w.
    """
    p11, p12, p21, p22 = np.real(response[:4])
    c1, c2, s1, s2 = _angle_weights(alpha, beta)
    d = p11 - p12 - p21 + p22
    e = 2.0 * np.real(response[4])
    return (d * c1 * c2 + e * s1 * s2) / (p11 + p12 + p21 + p22)


def chsh_coefficient(params: CascadeParams, alpha: float, beta: float,
                     method: str = "analytic") -> float:
    """Correlation coefficient E(alpha, beta) = p_plus - p_minus.

    The correlated/anticorrelated fractions come from the four normalized
    averaged coincidences at (alpha, beta), (alpha, beta+pi/2),
    (alpha+pi/2, beta) and (alpha+pi/2, beta+pi/2).
    """
    _require_finite(alpha, beta)
    return float(_chsh(two_photon_response([params], method), alpha, beta)[0])


def bell_s_chsh(params: CascadeParams, a1: float, a2: float, b1: float,
                b2: float, method: str = "analytic") -> BellResult:
    """CHSH parameter S = E(a1,b1) - E(a1,b2) + E(a2,b1) + E(a2,b2)."""
    _require_finite(a1, a2, b1, b2)
    e = _chsh(two_photon_response([params], method),
              np.array([a1, a1, a2, a2]), np.array([b1, b2, b1, b2]))
    s = float(e[0] - e[1] + e[2] + e[3])
    return BellResult(s=s, violated=s > 2.0, settings=(a1, a2, b1, b2))


def bell_s_shortcut(params: CascadeParams, method: str = "analytic") -> BellResult:
    """Bell parameter in the rectilinear-diagonal form S = sqrt(2)(C_H + C_D).

    Coincides with :func:`bell_s_chsh` at the standard analyzer angles for
    symmetric rates.
    """
    s = float(bell_s_from_response(two_photon_response([params], method))[0])
    return BellResult(s=s, violated=s > 2.0, settings=STANDARD_CHSH_ANGLES)
