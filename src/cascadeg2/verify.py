"""Self-contained oracle-equivalence and invariant checks.

These power the ``verify`` CLI command, and have no settings.  Each check
takes no arguments: it draws one fixed number of inputs from its own seed,
builds any generator it needs with
:func:`~cascadeg2.liouvillian.build_generator`, holds one fixed bar, which
its detail names, and returns a :class:`CheckResult`; the suite passes only
if every check passes.  The equation-of-motion coefficient tables are
hard-coded here, independent of the generator construction they validate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .correlate import (_braces, _conditioned_state, g2_analytic,
                        g2_numeric_grid, two_photon_response)
from .liouvillian import (build_generator, evolve, evolve_grid,
                          propagate_steps, unvectorize, vectorize)
from .model import CascadeParams, DetectorSetting, Level
from .observables import (STANDARD_CHSH_ANGLES, TSIRELSON_BOUND,
                          bell_s_chsh_from_response, bell_s_from_response,
                          chsh_from_response, degree_from_response)

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float | None = None  # wall time, set by run_all_checks


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _random_params(rng: np.random.Generator, idx: int) -> CascadeParams:
    # the transfer rates are drawn apart: with gamma12 = gamma21 and
    # phase-free analyzers a transposed generator sector only swaps the
    # roles of the two analyzers, and G(tau) and the averages would not see it
    return CascadeParams(
        delta_fs=rng.uniform(0.0, 10.0),
        rabi=rng.uniform(0.0, 35.0),
        detuning=rng.uniform(0.0, 100.0),
        gamma12=rng.uniform(0.0, 2.0), gamma21=rng.uniform(0.0, 2.0),
        gamma_u=0.01 if idx % 2 else 0.0,
    )


# Right-hand sides of the cascade equations of motion, one entry per
# independent matrix element, written with the intermediate-level splitting
# off.  Keys are (row element, {column element: coefficient}).
def _equation_table(p: CascadeParams) -> dict:
    g = (p.gamma1, p.gamma2, p.gamma3, p.gamma4)
    om, dl = p.rabi, p.detuning
    up, x1, x2, u, gr = (Level.TWO_X, Level.X1, Level.X2, Level.U, Level.G)
    return {
        (up, x1): {(up, x1): -0.5 * (g[0] + g[1] + g[2] + p.gamma21)},
        (up, x2): {(up, x2): -0.5 * (g[0] + g[1] + g[3] + p.gamma_u + p.gamma12),
                   (up, u): -1j * om},
        (up, gr): {(up, gr): -0.5 * (g[0] + g[1])},
        (up, u): {(up, u): -0.5 * (g[0] + g[1]) - 1j * dl, (up, x2): -1j * om},
        (x1, gr): {(x1, gr): -0.5 * (g[2] + p.gamma21)},
        (x1, u): {(x1, u): -0.5 * (g[2] + p.gamma21) - 1j * dl,
                  (x1, x2): -1j * om},
        (x1, x2): {(x1, x2): -0.5 * (g[2] + g[3] + p.gamma_u + p.gamma21 + p.gamma12),
                   (x1, u): -1j * om},
        (x2, gr): {(x2, gr): -0.5 * (g[3] + p.gamma_u + p.gamma12), (u, gr): 1j * om},
        (x2, u): {(x2, u): -0.5 * (g[3] + p.gamma_u + p.gamma12) - 1j * dl,
                  (x2, x2): -1j * om, (u, u): 1j * om},
        (u, gr): {(u, gr): 1j * dl, (x2, gr): 1j * om},
        (up, up): {(up, up): -(g[0] + g[1])},
        (x1, x1): {(x1, x1): -(g[2] + p.gamma21), (up, up): g[0], (x2, x2): p.gamma12},
        (x2, x2): {(x2, x2): -(g[3] + p.gamma_u + p.gamma12), (up, up): g[1],
                   (x1, x1): p.gamma21, (u, x2): 1j * om, (x2, u): -1j * om},
        (u, u): {(x2, x2): p.gamma_u, (u, x2): -1j * om, (x2, u): 1j * om},
    }


def _vec_index(element) -> int:
    i, j = element
    return int(i) + 5 * int(j)


def check_generator_restriction() -> CheckResult:
    """Row-by-row coefficient agreement with the equations of motion."""
    tol = 1e-14
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        params = CascadeParams(
            gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
            gamma3=rng.uniform(0, 2), gamma4=rng.uniform(0, 2),
            gamma_u=rng.uniform(0, 1), gamma12=rng.uniform(0, 2),
            gamma21=rng.uniform(0, 2), delta_fs=0.0,
            rabi=rng.uniform(0, 20), detuning=rng.uniform(-50, 50))
        gen = build_generator(params)
        for element, expected in _equation_table(params).items():
            row = gen[_vec_index(element)]
            target = np.zeros(25, dtype=complex)
            for col, coeff in expected.items():
                target[_vec_index(col)] = coeff
            worst = max(worst, float(np.max(np.abs(row - target))))
    return _result("generator_restriction", worst <= tol,
                   f"max coefficient deviation {worst:.2e} (tol {tol:.0e})")


def check_trace_preservation() -> CheckResult:
    tol, draws = 1e-12, 1000
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(draws):
        params = CascadeParams(
            gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
            gamma3=rng.uniform(0, 2), gamma4=rng.uniform(0, 2),
            gamma_u=rng.uniform(0, 1), gamma12=rng.uniform(0, 2),
            gamma21=rng.uniform(0, 2), delta_fs=rng.uniform(-10, 10),
            rabi=rng.uniform(0, 35), detuning=rng.uniform(-100, 100))
        gen = build_generator(params)
        herm = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        herm = herm + herm.conj().T
        worst = max(worst, abs(np.trace(unvectorize(gen @ vectorize(herm)))))
    return _result("trace_preservation", worst <= tol,
                   f"max  |tr(M x)| {worst:.2e} over {draws} sets (tol {tol:.0e})")


def check_hermiticity_preservation() -> CheckResult:
    tol = 1e-12
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        params = _random_params(rng, 0)
        gen = build_generator(params)
        herm = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        herm = herm + herm.conj().T
        out = unvectorize(gen @ vectorize(herm))
        worst = max(worst, float(np.max(np.abs(out - out.conj().T))))
    return _result("hermiticity_preservation", worst <= tol,
                   f"max |M(x) - M(x)^dag| {worst:.2e} (tol {tol:.0e})")


def check_positivity() -> CheckResult:
    tol = 1e-10
    rng = np.random.default_rng(8)
    rho0 = np.zeros((5, 5), dtype=complex)
    rho0[Level.TWO_X, Level.TWO_X] = 1.0
    # the delays of a uniform grid from 0, so the grid is filled by doubling
    taus = np.linspace(0.0, 20.0, 201)
    worst = 0.0
    for idx in range(5):
        gen = build_generator(_random_params(rng, idx))
        states = evolve_grid(gen, rho0, taus)[1:]
        for state in states:
            worst = min(worst, float(np.linalg.eigvalsh(
                0.5 * (state + state.conj().T))[0]))
    return _result("positivity", worst >= -tol,
                   f"min eigenvalue {worst:.2e} (floor -{tol:.0e})")


def check_semigroup() -> CheckResult:
    """:func:`propagate_steps`, the exact propagator of every delay grid of
    both routes, against itself: two steps against one, and the doubling
    fill of a uniform grid against the same grid reversed, which takes one
    exponential per delay."""
    tol = 1e-12
    rng = np.random.default_rng(9)
    taus = np.linspace(0.0, 20.0, 201)
    worst_step = worst_fill = 0.0
    for idx in range(4):
        gen = build_generator(_random_params(rng, idx))
        y0 = vectorize(_conditioned_state(DetectorSetting(rng.uniform(0, np.pi))))
        t1, t2 = rng.uniform(0.2, 3.0, size=2)
        two_step = propagate_steps(gen, propagate_steps(gen, y0, [t1])[0], [t2])
        one_step = propagate_steps(gen, y0, [t1 + t2])
        per_delay = propagate_steps(gen, y0, taus[::-1])[::-1]
        worst_step = max(worst_step, float(np.max(np.abs(two_step - one_step))))
        worst_fill = max(worst_fill, float(np.max(np.abs(
            propagate_steps(gen, y0, taus) - per_delay))))
    return _result("semigroup", worst_step <= tol and worst_fill <= tol,
                   f"propagate_steps: max |e^{{Mt2}}e^{{Mt1}} - e^{{M(t1+t2)}}| "
                   f"{worst_step:.2e}, doubling vs per-delay fill "
                   f"{worst_fill:.2e} (tol {tol:.0e})")


def check_evolve_routes() -> CheckResult:
    tol = 1e-8
    rng = np.random.default_rng(10)
    worst = 0.0
    for idx in range(4):
        gen = build_generator(_random_params(rng, idx))
        x0 = _conditioned_state(DetectorSetting(rng.uniform(0, np.pi)))
        tau = rng.uniform(0.5, 5.0)
        diff = evolve(gen, x0, tau) - evolve_grid(gen, x0, [tau])[0]
        worst = max(worst, float(np.max(np.abs(diff))))
    return _result("evolve_route_agreement", worst <= tol,
                   f"max ODE vs expm deviation {worst:.2e} (tol {tol:.0e})")


def check_w_phase() -> CheckResult:
    """The cross coherence must rotate at -delta_fs when the drive is off."""
    tol = 1e-12
    delta_fs = 5.0
    params = CascadeParams(delta_fs=delta_fs)
    gen = build_generator(params)
    taus = np.linspace(0.01, 2.0, 200)
    states = evolve_grid(gen, _conditioned_state(DetectorSetting(np.pi / 4)), taus)
    coherence = states[:, Level.X1, Level.X2]
    phase = np.unwrap(np.angle(coherence))
    slope = np.polyfit(taus, phase, 1)[0]
    deviation = abs(slope + delta_fs)
    return _result("w_phase", deviation <= tol,
                   f"phase slope {slope:+.8f}, expected {-delta_fs:+.1f} "
                   f"(deviation {deviation:.2e}, tol {tol:.0e})")


def check_tau0_normalization() -> CheckResult:
    tol = 1e-10
    rng = np.random.default_rng(12)
    worst = 0.0
    for idx in range(8):
        params = _random_params(rng, idx)
        th1, th2 = rng.uniform(0, np.pi, size=2)
        ph1, ph2 = rng.uniform(-np.pi, np.pi, size=2)
        det1, det2 = DetectorSetting(th1, ph1), DetectorSetting(th2, ph2)
        expected = (2.0 + 2.0 * np.cos(2 * th1) * np.cos(2 * th2)
                    + 2.0 * np.sin(2 * th1) * np.sin(2 * th2) * np.cos(ph1 + ph2))
        ana = g2_analytic(params, det1, det2, 0.0)
        num = g2_numeric_grid(params, det1, det2, np.array([0.0, 1.0]))[0]
        worst = max(worst, abs(ana - expected), abs(num - expected))
    return _result("tau0_normalization", worst <= tol,
                   f"max deviation from closed form at tau=0: {worst:.2e} "
                   f"(tol {tol:.0e})")


def check_oracle_equivalence() -> CheckResult:
    """|g2_numeric_grid - g2_analytic| <= tol max(1, |g2|), both routes exact."""
    tol, draws = 1e-12, 50
    rng = np.random.default_rng(2024)
    taus = np.linspace(0.0, 10.0, 100)
    worst = 0.0
    for idx in range(draws):
        params = _random_params(rng, idx)
        det1 = DetectorSetting(rng.uniform(0, np.pi))
        det2 = DetectorSetting(rng.uniform(0, np.pi))
        numeric = g2_numeric_grid(params, det1, det2, taus)
        analytic = g2_analytic(params, det1, det2, taus)
        err = np.max(np.abs(numeric - analytic)
                     / np.maximum(1.0, np.abs(analytic)))
        worst = max(worst, float(err))
    return _result("oracle_equivalence", worst <= tol,
                   f"max relative deviation {worst:.2e} over {draws} "
                   f"parameter sets x {taus.size} delays; both sides run "
                   f"liouvillian.expm on the driven populations "
                   f"(tol {tol:.0e})")


def check_average_cross_oracle() -> CheckResult:
    tol, draws = 1e-12, 10
    rng = np.random.default_rng(31)
    points, angles = [], []
    for idx in range(draws):
        points.append(_random_params(rng, idx))
        angles.append(rng.uniform(0, np.pi, size=2))
    theta1, theta2 = np.transpose(angles)
    ana = _braces(two_photon_response(points), theta1, theta2)
    num = _braces(two_photon_response(points, "numeric"), theta1, theta2)
    worst = float(np.max(np.abs(num - ana) / np.maximum(1e-30, np.abs(ana))))
    return _result("average_cross_oracle", worst <= tol,
                   f"max relative deviation {worst:.2e} over {draws} sets; "
                   f"the sides share only the refusal rule _refuse_divergent "
                   f"(tol {tol:.0e})")


def check_structural_identity() -> CheckResult:
    """Averaged coincidences fit 1 + C_H c1 c2 + C_D s1 s2 exactly."""
    tol = 1e-9
    params = CascadeParams(delta_fs=3.7, rabi=8.0, detuning=14.0,
                           gamma12=0.35, gamma21=0.35)
    response = two_photon_response([params])
    thetas = np.linspace(0.0, np.pi, 10, endpoint=False)
    th1, th2 = np.repeat(thetas, 10), np.tile(thetas, 10)
    rows = np.column_stack([np.ones_like(th1), np.cos(2 * th1) * np.cos(2 * th2),
                            np.sin(2 * th1) * np.sin(2 * th2)])
    rhs = _braces(response, th1, th2)
    coeffs, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    residual = np.max(np.abs(rows @ coeffs - rhs)) / coeffs[0]
    c_h, c_d = degree_from_response(response, np.array([0.0, np.pi / 4.0]))
    coeff_dev = max(abs(coeffs[1] / coeffs[0] - c_h),
                    abs(coeffs[2] / coeffs[0] - c_d))
    ok = residual <= tol and coeff_dev <= tol
    return _result("structural_identity", ok,
                   f"fit residual {residual:.2e}, coefficient vs C_H/C_D "
                   f"deviation {coeff_dev:.2e} (tol {tol:.0e})")


def check_bell_bridge() -> CheckResult:
    tol = 1e-9
    rng = np.random.default_rng(14)
    points, angles = [], []
    for _ in range(5):
        gd = rng.uniform(0, 1.5)
        points.append(CascadeParams(delta_fs=rng.uniform(0, 8),
                                    rabi=rng.uniform(0, 20),
                                    detuning=rng.uniform(0, 60),
                                    gamma12=gd, gamma21=gd))
        angles.append(rng.uniform(0, np.pi, size=2))
    alpha, beta = np.transpose(angles)
    response = two_photon_response(points)
    shortcut = bell_s_from_response(response)
    chsh = bell_s_chsh_from_response(response, *STANDARD_CHSH_ANGLES)
    worst_bridge = float(np.max(np.abs(shortcut - chsh)))
    c_h, c_d = degree_from_response(response, np.array([[0.0], [np.pi / 4.0]]))
    e_val = chsh_from_response(response, alpha, beta)
    e_pred = (c_h * np.cos(2 * alpha) * np.cos(2 * beta)
              + c_d * np.sin(2 * alpha) * np.sin(2 * beta))
    worst_e = float(np.max(np.abs(e_val - e_pred)))
    ok = worst_bridge <= tol and worst_e <= tol
    return _result("bell_bridge", ok,
                   f"shortcut vs CHSH deviation {worst_bridge:.2e}, "
                   f"E-structure deviation {worst_e:.2e} (tol {tol:.0e})")


def check_tsirelson() -> CheckResult:
    rng = np.random.default_rng(15)
    points = [_random_params(rng, idx) for idx in range(10)]
    worst = float(np.max(np.abs(bell_s_from_response(two_photon_response(points)))))
    return _result("tsirelson_bound", worst <= TSIRELSON_BOUND,
                   f"max |S| {worst:.6f} vs bound {TSIRELSON_BOUND:.6f}")


# the suite in the order it runs and reports
_CHECKS = (
    ("generator_restriction", check_generator_restriction),
    ("trace_preservation", check_trace_preservation),
    ("hermiticity_preservation", check_hermiticity_preservation),
    ("positivity", check_positivity),
    ("semigroup", check_semigroup),
    ("evolve_route_agreement", check_evolve_routes),
    ("w_phase", check_w_phase),
    ("tau0_normalization", check_tau0_normalization),
    ("oracle_equivalence", check_oracle_equivalence),
    ("average_cross_oracle", check_average_cross_oracle),
    ("structural_identity", check_structural_identity),
    ("bell_bridge", check_bell_bridge),
    ("tsirelson_bound", check_tsirelson),
)


def run_all_checks() -> list[CheckResult]:
    """Run the whole suite, each check against its own fixed bar."""
    results = []
    for name, check in _CHECKS:
        start = time.perf_counter()
        try:
            result = check()
        except Exception as exc:  # a crashed check is a failed check
            result = _result(name, False, f"raised {exc!r}")
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def summarize(results: Sequence[CheckResult]) -> tuple[str, bool]:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name}: {res.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines), n_fail == 0
