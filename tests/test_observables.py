import math

import numpy as np
import pytest

from cascadeg2 import (STANDARD_CHSH_ANGLES, TSIRELSON_BOUND, BellResult,
                       CascadeParams, CorrelationDegree, bell_s_chsh,
                       bell_s_shortcut, chsh_coefficient,
                       degree_of_correlation, omega_star)

IDEAL = CascadeParams()


def _symmetric(rng):
    gd = rng.uniform(0.0, 1.5)
    return CascadeParams(delta_fs=rng.uniform(0, 8), rabi=rng.uniform(0, 20),
                         detuning=rng.uniform(0, 60), gamma12=gd, gamma21=gd)


class TestDegreeOfCorrelation:
    def test_ideal_cascade_is_perfectly_correlated(self):
        for theta in np.linspace(0.0, np.pi / 2.0, 13):
            assert degree_of_correlation(IDEAL, float(theta)).value == pytest.approx(
                1.0, abs=1e-9)

    def test_splitting_degradation_law(self):
        # C_D = 1 / (1 + delta_fs^2) in unit-gamma rates, from the
        # integral of e^{-tau} cos(delta_fs tau)
        for delta_fs in (0.0, 1.0, 2.0, 5.0, 10.0):
            value = degree_of_correlation(CascadeParams(delta_fs=delta_fs),
                                          math.pi / 4.0).value
            assert value == pytest.approx(1.0 / (1.0 + delta_fs ** 2), abs=1e-8)

    def test_rectilinear_immune_to_splitting(self):
        value = degree_of_correlation(CascadeParams(delta_fs=7.0), 0.0).value
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_limits_rectilinear(self):
        # C_H = gamma / (gamma + 2 gamma_d)
        params = CascadeParams(gamma12=1.0, gamma21=1.0)
        assert degree_of_correlation(params, 0.0).value == pytest.approx(
            1.0 / 3.0, abs=1e-8)

    def test_monotone_degradation_with_splitting(self):
        values = [degree_of_correlation(CascadeParams(delta_fs=d),
                                        math.pi / 4.0).value
                  for d in np.linspace(0.0, 10.0, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_basis_period_and_symmetry(self):
        params = CascadeParams(delta_fs=3.0, gamma12=0.4, gamma21=0.4)
        for theta in (0.15, 0.6):
            base = degree_of_correlation(params, theta).value
            assert degree_of_correlation(params, theta + np.pi / 2.0).value == \
                pytest.approx(base, abs=1e-12)
            mirrored = degree_of_correlation(params, np.pi / 2.0 - theta).value
            assert mirrored == pytest.approx(base, abs=1e-12)

    def test_numeric_route_agrees(self):
        params = CascadeParams(delta_fs=4.0, rabi=6.0, detuning=10.0,
                               gamma12=0.3, gamma21=0.3)
        analytic = degree_of_correlation(params, math.pi / 4.0).value
        numeric = degree_of_correlation(params, math.pi / 4.0,
                                        method="numeric").value
        assert numeric == pytest.approx(analytic, abs=1e-8)

    def test_numeric_route_reproduces_halved_diagonal_degree(self):
        # splitting equal to the linewidth halves C_D: 1/(1 + 1) = 1/2
        value = degree_of_correlation(CascadeParams(delta_fs=1.0),
                                      math.pi / 4.0, method="numeric").value
        assert value == pytest.approx(0.5, abs=1e-6)
        ideal = degree_of_correlation(CascadeParams(), 0.3,
                                      method="numeric").value
        assert ideal == pytest.approx(1.0, abs=1e-8)

    def test_value_range_validated(self):
        with pytest.raises(ValueError):
            CorrelationDegree(value=1.1, basis_angle=0.0)


class TestChshCoefficient:
    def test_perfectly_correlated(self):
        assert chsh_coefficient(IDEAL, 0.4, 0.4) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_analyzers_anticorrelated(self):
        assert chsh_coefficient(IDEAL, 0.0, math.pi / 2.0) == pytest.approx(
            -1.0, abs=1e-9)

    def test_structure_identity(self):
        # E(alpha, beta) = C_H cos2a cos2b + C_D sin2a sin2b
        rng = np.random.default_rng(33)
        for _ in range(4):
            params = _symmetric(rng)
            c_h = degree_of_correlation(params, 0.0).value
            c_d = degree_of_correlation(params, math.pi / 4.0).value
            alpha, beta = rng.uniform(0, np.pi, size=2)
            expected = (c_h * math.cos(2 * alpha) * math.cos(2 * beta)
                        + c_d * math.sin(2 * alpha) * math.sin(2 * beta))
            assert chsh_coefficient(params, alpha, beta) == pytest.approx(
                expected, abs=1e-9)


class TestBell:
    def test_ideal_reaches_tsirelson(self):
        result = bell_s_chsh(IDEAL, *STANDARD_CHSH_ANGLES)
        assert result.s == pytest.approx(TSIRELSON_BOUND, abs=1e-6)
        assert result.violated

    def test_degenerate_settings_cannot_violate(self):
        result = bell_s_chsh(IDEAL, 0.2, 0.2, 0.7, 0.7)
        assert result.s == pytest.approx(2.0 * chsh_coefficient(IDEAL, 0.2, 0.7),
                                         abs=1e-12)
        assert abs(result.s) <= 2.0 + 1e-9

    def test_split_cascade_value(self):
        result = bell_s_chsh(CascadeParams(delta_fs=5.0), *STANDARD_CHSH_ANGLES)
        assert result.s == pytest.approx(math.sqrt(2.0) * (1.0 + 1.0 / 26.0),
                                         abs=1e-9)
        assert not result.violated

    def test_shortcut_equals_chsh_at_standard_angles(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            params = _symmetric(rng)
            shortcut = bell_s_shortcut(params)
            chsh = bell_s_chsh(params, *STANDARD_CHSH_ANGLES)
            assert shortcut.s == pytest.approx(chsh.s, abs=1e-9)
            assert shortcut.settings == STANDARD_CHSH_ANGLES

    def test_tsirelson_bound_respected(self):
        rng = np.random.default_rng(35)
        for idx in range(8):
            gd = rng.uniform(0, 2)
            params = CascadeParams(delta_fs=rng.uniform(0, 10),
                                   rabi=rng.uniform(0, 35),
                                   detuning=rng.uniform(0, 100),
                                   gamma12=gd, gamma21=gd,
                                   gamma_u=0.01 if idx % 2 else 0.0)
            assert abs(bell_s_shortcut(params).s) <= TSIRELSON_BOUND + 1e-6

    def test_revival_by_detuned_drive(self):
        split = CascadeParams(delta_fs=5.0)
        revived = split.with_(rabi=omega_star(5.0, 25.0), detuning=25.0)
        assert not bell_s_shortcut(split).violated
        assert bell_s_shortcut(revived).violated

    def test_bound_validated_on_construction(self):
        with pytest.raises(ValueError):
            BellResult(s=3.0, violated=True, settings=STANDARD_CHSH_ANGLES)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_s_refused_on_construction(self, s):
        with pytest.raises(ValueError, match="not finite"):
            BellResult(s=s, violated=False, settings=(0.0, 0.0, 0.0, 0.0))
