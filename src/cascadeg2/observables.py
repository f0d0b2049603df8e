"""Degree of polarization correlation and CHSH Bell observables.

All observables are ratios of time-averaged coincidence rates, so the overall
correlation normalization cancels.  Analyzer phases are zero throughout
(linear polarization bases).

Every averaged coincidence is a bilinear form in (cos 2theta_i,
sin 2theta_i) of the time-averaged two-photon response of the points, a
:class:`~cascadeg2.correlate.TwoPhotonResponse` from
:func:`~cascadeg2.correlate.two_photon_response`.  The observables are
functions of that response, of any batch of points and of arrays of angles
that broadcast against the points: C(theta) (``degree_from_response``), E
(``chsh_from_response``), the four-setting CHSH S
(``bell_s_chsh_from_response``) and the shortcut S = sqrt(2)(C_H + C_D)
(``bell_s_from_response``).  A point's response, with 0-d slots, gives 0-d
observables and serves the CLI ``degree`` and ``bell`` commands; sweeps and
figures evaluate a whole axis in a few array operations.  Each refuses a
non-finite analyzer angle before any arithmetic, and a C or S outside its
bound.  The one-point averages ``g2_avg_analytic`` and ``g2_avg_numeric``
stay in :mod:`cascadeg2.correlate` because the benchmark calls them.
"""

from __future__ import annotations

import math

import numpy as np

from .correlate import TwoPhotonResponse, _angle_weights, _braces

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

# Analyzer angles (a1, a2, b1, b2) that maximize S for the ideal cascade.
STANDARD_CHSH_ANGLES = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)


def _check_angles(*angles) -> None:
    for angle in angles:
        bad = np.asarray(angle)[~np.isfinite(angle)]
        if bad.size:
            raise ValueError(f"analyzer angles must be finite, got {bad[0]}")


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


def degree_from_response(response: TwoPhotonResponse, theta) -> np.ndarray:
    """Degree of correlation C(theta) of each point of a two-photon response.

    C = (co - cross) / (co + cross) from the averaged coincidences at
    analyzer pairs (theta, theta) and (theta, theta + pi/2); theta = 0 gives
    C_H, theta = pi/4 gives C_D.  ``theta`` is an angle or an array of
    angles that broadcasts against the points; raises ValueError if any is
    not finite or any |C| exceeds 1.
    """
    _check_angles(theta)
    # C keeps its coincidence form.  Written out, C = (b c + d c^2 + e s^2)
    # / (k + a c) with c, s = cos, sin 2 theta, k, d and e as in
    # chsh_from_response, a = P11 - P12 + P21 - P22 and b = P11 + P12 - P21
    # - P22; but k + a c cancels near an analyzer eigenbasis when one decay
    # path dominates, while co + cross adds two nonnegative coincidences.
    # One _braces call on the pairs (theta, theta) and (theta, theta +
    # pi/2), stacked along a new leading axis (theta first padded to the
    # slots' rank), gives both, bit for bit as a call per pair
    theta = np.reshape(theta, (1,) * (np.ndim(response.p11) - np.ndim(theta))
                       + np.shape(theta))
    co, cross = _braces(response, np.array([theta, theta]),
                        np.array([theta, theta + math.pi / 2.0]))
    values = (co - cross) / (co + cross)
    _check_degrees(values)
    return values


# the basis angles of C_H and C_D
_BELL_BASES = np.array([0.0, math.pi / 4.0])


def bell_s_from_response(response: TwoPhotonResponse) -> np.ndarray:
    """Shortcut S = sqrt(2)(C_H + C_D) of each point of a two-photon response.

    It equals :func:`bell_s_chsh_from_response` at STANDARD_CHSH_ANGLES for
    symmetric rates.  Raises ValueError if any |C| exceeds 1 or any |S| the
    Tsirelson bound.
    """
    # one basis per leading row, against points of any rank
    c_h, c_d = degree_from_response(response, _BELL_BASES.reshape(
        (2,) + (1,) * np.ndim(response.p11)))
    s = math.sqrt(2.0) * (c_h + c_d)
    _check_bell(s)
    return s


def chsh_from_response(response: TwoPhotonResponse, alpha,
                       beta) -> np.ndarray:
    """Correlation coefficient E(alpha, beta) of each point of a two-photon
    response; the angles may be arrays that broadcast against the points.

    In the four coincidences at (alpha, beta), (alpha, beta + pi/2),
    (alpha + pi/2, beta) and (alpha + pi/2, beta + pi/2) a quarter turn
    flips the signs of ci = cos 2 angle_i and si = sin 2 angle_i, so their
    total is 4 k with k = P11 + P12 + P21 + P22, and E = (d c1 c2 + e s1 s2)
    / k with d = P11 - P12 - P21 + P22 and e = 2 Re w.  Raises ValueError
    if an angle is not finite.
    """
    _check_angles(alpha, beta)
    r = response
    c1, c2, s1, s2 = _angle_weights(alpha, beta)
    d = r.p11 - r.p12 - r.p21 + r.p22
    e = 2.0 * np.real(r.w)
    return (d * c1 * c2 + e * s1 * s2) / (r.p11 + r.p12 + r.p21 + r.p22)


def bell_s_chsh_from_response(response: TwoPhotonResponse, a1, a2, b1,
                              b2) -> np.ndarray:
    """CHSH parameter S = E(a1,b1) - E(a1,b2) + E(a2,b1) + E(a2,b2) of each
    point of a two-photon response; the angles may be arrays that broadcast
    against the points.

    Raises ValueError if an angle is not finite or any |S| exceeds the
    Tsirelson bound.
    """
    # all four before the first E is formed
    _check_angles(a1, a2, b1, b2)
    s = (chsh_from_response(response, a1, b1)
         - chsh_from_response(response, a1, b2)
         + chsh_from_response(response, a2, b1)
         + chsh_from_response(response, a2, b2))
    _check_bell(s)
    return s
