"""Acceptance criteria for the cascade correlation simulator.

Each test pins one shipping criterion at its stated tolerance and prints a
single PASS line (visible with ``pytest -s`` or on failure).  Everything runs
at desk scale; the full suite stays well under a minute.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cascadeg2 import (CascadeParams, DetectorSetting,
                       bell_s_chsh_from_response, bell_s_from_response,
                       degree_from_response, g2_analytic, g2_avg_analytic,
                       g2_numeric_grid, omega_star, two_photon_response,
                       STANDARD_CHSH_ANGLES)
from cascadeg2.verify import (check_generator_restriction,
                              check_hermiticity_preservation,
                              check_positivity, check_semigroup,
                              check_trace_preservation)

ROOT2 = math.sqrt(2.0)


def _announce(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {message}")


def _degree(points, theta):
    """C(theta) of each point."""
    return degree_from_response(two_photon_response(points), theta)


def _bell(points):
    """The shortcut S of each point."""
    return bell_s_from_response(two_photon_response(points))


def test_criterion_01_oracle_equivalence():
    # regression-theorem route vs closed-form route, symmetric-rate family
    rng = np.random.default_rng(2024)
    taus = np.linspace(0.0, 10.0, 100)
    worst = 0.0
    for idx in range(50):
        gd = rng.uniform(0.0, 2.0)
        params = CascadeParams(delta_fs=rng.uniform(0.0, 10.0),
                               rabi=rng.uniform(0.0, 35.0),
                               detuning=rng.uniform(0.0, 100.0),
                               gamma12=gd, gamma21=gd,
                               gamma_u=0.01 if idx % 2 else 0.0)
        det1 = DetectorSetting(rng.uniform(0.0, np.pi))
        det2 = DetectorSetting(rng.uniform(0.0, np.pi))
        numeric = g2_numeric_grid(params, det1, det2, taus)
        analytic = g2_analytic(params, det1, det2, taus)
        err = np.max(np.abs(numeric - analytic)
                     / np.maximum(1.0, np.abs(analytic)))
        worst = max(worst, float(err))
        assert err < 1e-6
    _announce(1, f"oracle equivalence over 50 sets x 100 delays, "
                 f"max relative deviation {worst:.2e} < 1e-6")


def test_criterion_02_ideal_entanglement():
    ideal = CascadeParams()
    values = _degree([ideal], np.linspace(0.0, np.pi / 2.0, 19))
    assert values == pytest.approx(np.ones(19), abs=1e-9)
    (s,) = _bell([ideal])
    assert s == pytest.approx(2.0 * ROOT2, abs=1e-6)
    _announce(2, f"ideal cascade: C(theta) = 1 within 1e-9 and "
                 f"S = {s:.8f} = 2*sqrt(2) within 1e-6")


def test_criterion_03_splitting_degradation_law():
    delta_fs = np.array([0.0, 1.0, 2.0, 5.0, 10.0])
    values = _degree([CascadeParams(delta_fs=d) for d in delta_fs],
                     math.pi / 4.0)
    assert values == pytest.approx(1.0 / (1.0 + delta_fs ** 2), abs=1e-8)
    (c5,) = _degree([CascadeParams(delta_fs=5.0)], math.pi / 4.0)
    assert c5 == pytest.approx(1.0 / 26.0, abs=1e-8)
    _announce(3, "C_D = gamma^2/(gamma^2 + delta_fs^2) within 1e-8 for "
                 "delta_fs in {0, 1, 2, 5, 10}; C_D(5) = 1/26")


def test_criterion_04_bell_crossing():
    crossing = brentq(
        lambda d: _bell([CascadeParams(delta_fs=d)])[0] - 2.0,
        0.8, 1.6, xtol=1e-10)
    expected = math.sqrt((2.0 - ROOT2) / (ROOT2 - 1.0))  # = 2**(1/4)
    assert crossing == pytest.approx(expected, abs=1e-3)
    assert abs(crossing - 1.19) <= 0.3  # figure-reading agreement
    _announce(4, f"no-field S crosses 2 at delta_fs = {crossing:.6f} gamma "
                 f"(derived {expected:.6f}, within 1e-3)")


def test_criterion_05_large_splitting_plateau():
    (s,) = _bell([CascadeParams(delta_fs=10.0)])
    derived = ROOT2 * (1.0 + 1.0 / 101.0)
    assert s == pytest.approx(derived, abs=1e-6)
    assert abs(s - 1.5) <= 0.1  # published plateau, figure-reading tolerance
    _announce(5, f"plateau S(delta_fs = 10) = {s:.7f} = sqrt(2)(1 + 1/101) "
                 f"within 1e-6")


# Frozen by this simulation (gamma_u = gamma_d = 0); regression guards below.
RESONANT_CD = 0.6681415929203540
DETUNED_CD = 0.9230951254141031


def test_criterion_06_field_revival():
    resonant, detuned = _degree(
        [CascadeParams(delta_fs=5.0, rabi=5.0),
         CascadeParams(delta_fs=5.0, detuning=25.0, rabi=omega_star(5.0, 25.0))],
        math.pi / 4.0)
    assert 0.65 <= resonant <= 0.90
    assert detuned >= 0.90
    assert resonant == pytest.approx(RESONANT_CD, abs=1e-12)
    assert detuned == pytest.approx(DETUNED_CD, abs=1e-12)
    _announce(6, f"revival at delta_fs = 5: resonant C_D = {resonant:.6f} in "
                 f"[0.65, 0.90], detuned C_D = {detuned:.6f} >= 0.90")


def test_criterion_07_dephasing_compensation():
    dephased = CascadeParams(gamma12=1.0, gamma21=1.0)
    (c_h,) = _degree([dephased], 0.0)
    assert c_h == pytest.approx(1.0 / 3.0, abs=1e-8)
    thetas = np.linspace(0.0, np.pi / 2.0, 31)

    def spread(params):
        values = _degree([params], thetas)
        return values.max() - values.min()

    off = spread(dephased)
    on = spread(dephased.with_(rabi=1.0))
    assert on <= 0.1 * off
    _announce(7, f"gamma_d = gamma: C_H = 1/3 within 1e-8; basis spread "
                 f"{on:.2e} with the field vs {off:.2e} without (<= 10%)")


def test_criterion_08_bell_revival():
    grid = np.concatenate(([0.01], np.linspace(0.5, 10.0, 20)))
    detuned_values = _bell([CascadeParams(delta_fs=d, detuning=5.0 * d,
                                          rabi=omega_star(d, 5.0 * d))
                            for d in grid])
    resonant_values = _bell([CascadeParams(delta_fs=d, rabi=d) for d in grid])
    assert all(s > 2.0 for s in detuned_values)
    assert all(s >= 2.0 for s in resonant_values)
    plateau = resonant_values[-1]
    assert abs(plateau - 2.5) <= 0.2
    _announce(8, f"starred drive keeps S > 2 on (0, 10] (min "
                 f"{min(detuned_values):.4f}); resonant plateau "
                 f"{plateau:.4f} = 2.5 +- 0.2")


def test_criterion_09_dephasing_limit_on_bell():
    grid = np.linspace(0.0, 1.5, 31)
    driven = CascadeParams(delta_fs=5.0, detuning=25.0,
                           rabi=omega_star(5.0, 25.0))
    s_driven = _bell([driven.with_(gamma12=float(g), gamma21=float(g))
                      for g in grid])
    assert s_driven[0] > 2.0
    crossings = [g for g, s in zip(grid, s_driven) if s < 2.0]
    assert crossings and crossings[0] < 1.0
    undriven = CascadeParams(delta_fs=5.0)
    s_undriven = _bell([undriven.with_(gamma12=float(g), gamma21=float(g))
                        for g in grid])
    assert all(s < 2.0 for s in s_undriven)
    _announce(9, f"detuned field at delta_fs = 5: S crosses 2 near gamma_d = "
                 f"{crossings[0]:.3f} < 1; no field: S < 2 for all gamma_d")


def test_criterion_10_structural_identity():
    params = CascadeParams(delta_fs=3.7, rabi=8.0, detuning=14.0,
                           gamma12=0.35, gamma21=0.35)
    thetas = np.linspace(0.0, np.pi, 10, endpoint=False)
    design, rhs = [], []
    for th1 in thetas:
        for th2 in thetas:
            design.append([1.0, math.cos(2 * th1) * math.cos(2 * th2),
                           math.sin(2 * th1) * math.sin(2 * th2)])
            rhs.append(g2_avg_analytic(params, DetectorSetting(th1),
                                       DetectorSetting(th2)))
    design, rhs = np.asarray(design), np.asarray(rhs)
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    residual = np.max(np.abs(design @ coeffs - rhs)) / coeffs[0]
    assert residual < 1e-9
    response = two_photon_response([params])
    (shortcut,) = bell_s_from_response(response)
    (chsh,) = bell_s_chsh_from_response(response, *STANDARD_CHSH_ANGLES)
    assert shortcut == pytest.approx(chsh, abs=1e-9)
    _announce(10, f"averaged coincidences fit 1 + C_H c1c2 + C_D s1s2 with "
                  f"residual {residual:.2e}; shortcut = CHSH within 1e-9")


def test_criterion_11_generator_hygiene():
    checks = [
        check_trace_preservation(n_sets=1000, tol=1e-12),
        check_hermiticity_preservation(tol=1e-12),
        check_positivity(tol=1e-10),
        check_semigroup(tol=1e-8),
        check_generator_restriction(tol=1e-14),
    ]
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    _announce(11, "; ".join(f"{c.name} ok ({c.detail})" for c in checks))
