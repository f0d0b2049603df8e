import math

import numpy as np
import pytest

from cascadeg2 import (STANDARD_CHSH_ANGLES, TSIRELSON_BOUND, CascadeParams,
                       TwoPhotonResponse, bell_s_chsh_from_response,
                       bell_s_from_response, chsh_from_response,
                       degree_from_response, omega_star, two_photon_response)

IDEAL = CascadeParams()


def _one_point(p11, p12, p21, p22, avg_w):
    """A planted one-point response."""
    return TwoPhotonResponse(p11=np.array([p11]), p12=np.array([p12]),
                             p21=np.array([p21]), p22=np.array([p22]),
                             w=np.array([avg_w], dtype=complex))


def _symmetric(rng):
    gd = rng.uniform(0.0, 1.5)
    return CascadeParams(delta_fs=rng.uniform(0, 8), rabi=rng.uniform(0, 20),
                         detuning=rng.uniform(0, 60), gamma12=gd, gamma21=gd)


def _degree(points, theta, method="analytic"):
    return degree_from_response(two_photon_response(points, method), theta)


class TestDegreeOfCorrelation:
    def test_ideal_cascade_is_perfectly_correlated(self):
        values = _degree([IDEAL], np.linspace(0.0, np.pi / 2.0, 13))
        assert values == pytest.approx(np.ones(13), abs=1e-9)

    def test_splitting_degradation_law(self):
        # C_D = 1 / (1 + delta_fs^2) in unit-gamma rates, from the
        # integral of e^{-tau} cos(delta_fs tau)
        delta_fs = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
        values = _degree([CascadeParams(delta_fs=d) for d in delta_fs],
                         math.pi / 4.0)
        assert values == pytest.approx(1.0 / (1.0 + delta_fs ** 2), abs=1e-8)

    def test_rectilinear_immune_to_splitting(self):
        (value,) = _degree([CascadeParams(delta_fs=7.0)], 0.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_limits_rectilinear(self):
        # C_H = gamma / (gamma + 2 gamma_d)
        (value,) = _degree([CascadeParams(gamma12=1.0, gamma21=1.0)], 0.0)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_monotone_degradation_with_splitting(self):
        values = _degree([CascadeParams(delta_fs=d)
                          for d in np.linspace(0.0, 10.0, 11)], math.pi / 4.0)
        assert np.all(values[:-1] > values[1:])

    def test_basis_period_and_symmetry(self):
        params = CascadeParams(delta_fs=3.0, gamma12=0.4, gamma21=0.4)
        for theta in (0.15, 0.6):
            base, turned, mirrored = _degree(
                [params], np.array([theta, theta + np.pi / 2.0,
                                    np.pi / 2.0 - theta]))
            assert turned == pytest.approx(base, abs=1e-12)
            assert mirrored == pytest.approx(base, abs=1e-12)

    def test_numeric_route_agrees(self):
        params = CascadeParams(delta_fs=4.0, rabi=6.0, detuning=10.0,
                               gamma12=0.3, gamma21=0.3)
        analytic = _degree([params], math.pi / 4.0)
        numeric = _degree([params], math.pi / 4.0, method="numeric")
        assert numeric == pytest.approx(analytic, abs=1e-8)

    def test_numeric_route_reproduces_halved_diagonal_degree(self):
        # splitting equal to the linewidth halves C_D: 1/(1 + 1) = 1/2
        (value,) = _degree([CascadeParams(delta_fs=1.0)], math.pi / 4.0,
                           method="numeric")
        assert value == pytest.approx(0.5, abs=1e-6)
        (ideal,) = _degree([CascadeParams()], 0.3, method="numeric")
        assert ideal == pytest.approx(1.0, abs=1e-8)

    def test_value_range_validated(self):
        # C_H = (P11 - P21) / (P11 + P21) = 1.1
        with pytest.raises(ValueError, match="degree of correlation 1.1 outside"):
            degree_from_response(_one_point(2.1, 0.0, -0.1, 0.0, 0.0), 0.0)


class TestChshCoefficient:
    def test_perfectly_correlated(self):
        (e,) = chsh_from_response(two_photon_response([IDEAL]), 0.4, 0.4)
        assert e == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_analyzers_anticorrelated(self):
        (e,) = chsh_from_response(two_photon_response([IDEAL]), 0.0,
                                  math.pi / 2.0)
        assert e == pytest.approx(-1.0, abs=1e-9)

    def test_structure_identity(self):
        # E(alpha, beta) = C_H cos2a cos2b + C_D sin2a sin2b
        rng = np.random.default_rng(33)
        for _ in range(4):
            response = two_photon_response([_symmetric(rng)])
            c_h, c_d = degree_from_response(response,
                                            np.array([0.0, math.pi / 4.0]))
            alpha, beta = rng.uniform(0, np.pi, size=2)
            expected = (c_h * math.cos(2 * alpha) * math.cos(2 * beta)
                        + c_d * math.sin(2 * alpha) * math.sin(2 * beta))
            (e,) = chsh_from_response(response, alpha, beta)
            assert e == pytest.approx(expected, abs=1e-9)


def _bell(points, *angles):
    """S of each point, and whether it exceeds 2: the shortcut without
    angles, the four-setting CHSH sum with them."""
    response = two_photon_response(points)
    if angles:
        s = bell_s_chsh_from_response(response, *angles)
    else:
        s = bell_s_from_response(response)
    return s, s > 2.0


class TestBell:
    def test_ideal_reaches_tsirelson(self):
        (s,), (violated,) = _bell([IDEAL], *STANDARD_CHSH_ANGLES)
        assert s == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
        assert violated

    def test_degenerate_settings_cannot_violate(self):
        (s,), _ = _bell([IDEAL], 0.2, 0.2, 0.7, 0.7)
        (e,) = chsh_from_response(two_photon_response([IDEAL]), 0.2, 0.7)
        assert s == pytest.approx(2.0 * e, abs=1e-12)
        assert abs(s) <= 2.0 + 1e-9

    def test_split_cascade_value(self):
        (s,), (violated,) = _bell([CascadeParams(delta_fs=5.0)],
                                  *STANDARD_CHSH_ANGLES)
        assert s == pytest.approx(math.sqrt(2.0) * (1.0 + 1.0 / 26.0),
                                  abs=1e-9)
        assert not violated

    def test_shortcut_equals_chsh_at_standard_angles(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            params = _symmetric(rng)
            (shortcut,), _ = _bell([params])
            (chsh,), _ = _bell([params], *STANDARD_CHSH_ANGLES)
            assert shortcut == pytest.approx(chsh, abs=1e-9)

    def test_tsirelson_bound_respected(self):
        rng = np.random.default_rng(35)
        for idx in range(8):
            gd = rng.uniform(0, 2)
            params = CascadeParams(delta_fs=rng.uniform(0, 10),
                                   rabi=rng.uniform(0, 35),
                                   detuning=rng.uniform(0, 100),
                                   gamma12=gd, gamma21=gd,
                                   gamma_u=0.01 if idx % 2 else 0.0)
            (s,), _ = _bell([params])
            assert abs(s) <= TSIRELSON_BOUND + 1e-6

    def test_revival_by_detuned_drive(self):
        split = CascadeParams(delta_fs=5.0)
        revived = split.with_(rabi=omega_star(5.0, 25.0), detuning=25.0)
        _, violated = _bell([split, revived])
        assert violated.tolist() == [False, True]

    def test_bound_validated(self):
        # at the standard angles S = sqrt(2) (d + 2 Re avg_w) / k = 3.0
        response = _one_point(1.0, 1.0, 1.0, 1.0, 3.0 * math.sqrt(2.0))
        with pytest.raises(ValueError, match=r"\|S\| = 3\.0 exceeds"):
            bell_s_chsh_from_response(response, *STANDARD_CHSH_ANGLES)

    @pytest.mark.parametrize("avg_w, s", [(math.nan, "nan"), (1e300, "inf"),
                                          (-1e300, "-inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_s_refused(self, avg_w, s):
        # E at (pi/4, b) overflows to +-inf on a 1e300 coherence over 4e-300
        response = _one_point(1e-300, 1e-300, 1e-300, 1e-300, avg_w)
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=f"S = {s} is not finite"):
            bell_s_chsh_from_response(response, *STANDARD_CHSH_ANGLES)


class TestAngles:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_refused_by_every_function(self, bad):
        response = two_photon_response([IDEAL, CascadeParams(delta_fs=2.0)])
        bell_angles = [[bad if i == k else angle
                        for i, angle in enumerate(STANDARD_CHSH_ANGLES)]
                       for k in range(4)]
        calls = [(degree_from_response, (bad,)),
                 (degree_from_response, (np.array([0.1, bad]),)),
                 (chsh_from_response, (bad, 0.0)),
                 (chsh_from_response, (0.0, np.array([bad, 0.2]))),
                 *((bell_s_chsh_from_response, angles) for angles in bell_angles)]
        for function, angles in calls:
            with pytest.raises(ValueError, match="analyzer angles must be finite"):
                function(response, *angles)

    def test_chsh_angles_broadcast_against_the_points(self):
        points = [IDEAL, CascadeParams(delta_fs=2.0),
                  CascadeParams(delta_fs=5.0, rabi=3.0)]
        response = two_photon_response(points)
        angles = np.array([[0.0, 0.3, 0.5], [0.7, 0.1, 0.2],
                           [0.4, 0.9, 1.3], [1.1, 0.6, 0.8]])
        s = bell_s_chsh_from_response(response, *angles)
        for k, params in enumerate(points):
            one = two_photon_response([params])
            assert s[k] == bell_s_chsh_from_response(one, *angles[:, k])[0]
