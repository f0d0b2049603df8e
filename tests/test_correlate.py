import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from cascadeg2 import (CascadeBatch, CascadeParams, CorrelationCurve,
                       DetectorSetting, DivergentAverageError, Level,
                       N_LEVELS, TSIRELSON_BOUND, TwoPhotonResponse,
                       build_generator, correlation_curve,
                       evolve_grid, g2_analytic,
                       g2_avg_analytic, g2_avg_numeric, g2_numeric,
                       g2_numeric_grid, two_photon_response)
from cascadeg2.correlate import (_DECAY_FLOOR, _DENSITY_CONE,
                                 _POPULATION_CONE, _POPULATION_U, _SECTOR,
                                 _SECTOR_BLOCK, _Cone, _braces,
                                 _coherence_generator, _conditioned_state,
                                 _decoupled,
                                 _delay_response, _density_cone,
                                 _detection_projector, _exp_entries,
                                 _g2_closed_form, _population_cone, _population_generator,
                                 _population_propagators, _refuse_divergent,
                                 _sector_blocks)
from cascadeg2.cli import main
from cascadeg2.liouvillian import check_tau_grid, propagate_steps
from cascadeg2.observables import (STANDARD_CHSH_ANGLES,
                                   bell_s_chsh_from_response,
                                   bell_s_from_response, chsh_from_response,
                                   degree_from_response)
from cascadeg2.verify import _random_params

UP, X1, X2, U, G = Level.TWO_X, Level.X1, Level.X2, Level.U, Level.G

H = DetectorSetting(0.0)
V = DetectorSetting(math.pi / 2.0)
D = DetectorSetting(math.pi / 4.0)


def _symmetric_params(rng, with_gamma_u):
    gd = rng.uniform(0.0, 2.0)
    return CascadeParams(delta_fs=rng.uniform(0, 10), rabi=rng.uniform(0, 35),
                         detuning=rng.uniform(0, 100), gamma12=gd, gamma21=gd,
                         gamma_u=0.01 if with_gamma_u else 0.0)


def _zero_or(*bands):
    return st.one_of(st.just(0.0), *(st.floats(lo, hi) for lo, hi in bands))


def _domain(*tiny):
    """Rates drawn independently, so gamma3/gamma4 and gamma12/gamma21 are
    asymmetric and zero rates occur; ``tiny`` adds a band of small rates."""
    rate = _zero_or(*tiny, (1e-3, 2.0))
    return st.builds(
        CascadeParams, gamma3=rate, gamma4=rate, gamma12=rate, gamma21=rate,
        gamma_u=_zero_or(*tiny, (1e-3, 1.0)), rabi=_zero_or((0.0, 35.0)),
        detuning=st.floats(-100.0, 100.0), delta_fs=st.floats(-10.0, 10.0))


# half the draws reach into the ill-conditioned band 1e-8..1e-5
_DOMAIN = st.one_of(_domain(), _domain((1e-8, 1e-5)))


def _near_exceptional_point(gamma4, gamma_u, gamma12, shift):
    """A point within ``shift`` of the coherence exceptional point, detuning
    0 and rabi = (gamma4 + gamma_u + gamma12) / 4, where h = 0; a shift of
    1e-10 gives |h| of about 1e-5 at unit rates."""
    return CascadeParams(gamma4=gamma4, gamma_u=gamma_u, gamma12=gamma12,
                         rabi=(gamma4 + gamma_u + gamma12) / 4.0 + shift)


_NEAR_EXCEPTIONAL_POINT = st.builds(
    _near_exceptional_point, st.floats(0.1, 2.0), st.floats(0.0, 1.0),
    st.floats(0.0, 2.0), _zero_or((-1e-8, 1e-8)))


class TestJumpOperators:
    # A = cos(theta) |X1><2X| + e^{i phi} sin(theta) |X2><2X| conditions the
    # state on the first photon; B = cos(theta) |g><X1| + e^{i phi}
    # sin(theta) |g><X2| detects the second
    def test_first_photon_structure(self):
        rho = _conditioned_state(DetectorSetting(0.3, 0.8))
        assert rho[X1, X1] == pytest.approx(math.cos(0.3) ** 2)
        assert rho[X2, X1] == pytest.approx(np.exp(0.8j) * math.sin(0.3)
                                            * math.cos(0.3))
        assert np.count_nonzero(rho) == 4

    def test_second_photon_structure(self):
        proj = _detection_projector(DetectorSetting(1.1, -0.4))
        assert proj[X1, X1] == pytest.approx(math.cos(1.1) ** 2)
        assert proj[X1, X2] == pytest.approx(np.exp(-0.4j) * math.sin(1.1)
                                             * math.cos(1.1))
        assert np.count_nonzero(proj) == 4

    def test_normalized_projection(self):
        det = DetectorSetting(0.7, 0.2)
        assert np.trace(_conditioned_state(det)).real == pytest.approx(1.0)
        assert np.trace(_detection_projector(det)).real == pytest.approx(1.0)


def _paper_coefficients(p):
    """The paper's closed-form constants (a0, b0, eta, mu, q).

    a0 and mu fix the cross-coherence sector, b0 and eta the undriven
    population pair; both roots take the principal branch.
    """
    a0 = -0.25 * (2 * p.gamma3 + 2 * p.gamma21 + p.gamma4 + p.gamma12
                  + p.gamma_u + 2j * p.detuning)
    b0 = -0.5 * (p.gamma3 + p.gamma4 + p.gamma21 + p.gamma12 + p.gamma_u)
    d = p.gamma3 - p.gamma4 + p.gamma21 - p.gamma12 - p.gamma_u
    eta = np.sqrt(d * d + 4.0 * p.gamma12 * p.gamma21 + 0j)
    q = p.gamma4 + p.gamma12 + p.gamma_u - 2j * p.detuning
    mu = np.sqrt(16.0 * p.rabi ** 2 - q * q)
    return a0, b0, eta, mu, q


def _paper_w(p, taus):
    """The paper's coherence kernel, e^{(a0 - i delta_fs) tau} [cos(mu tau/4)
    - (q/mu) sin(mu tau/4)], for mu != 0."""
    a0, _, _, mu, q = _paper_coefficients(p)
    quarter = 0.25 * mu * taus
    return np.exp((a0 - 1j * p.delta_fs) * taus) * (np.cos(quarter)
                                                    - q * np.sin(quarter) / mu)


def _paper_average_slots(p):
    """The paper's averages of f1, f2, g2, g1 (slots P11, P12, P21, P22): the
    zero-frequency Laplace transforms of the undriven hyperbolic kernels."""
    _, b0, eta, _, _ = _paper_coefficients(p)
    den = b0 * b0 - 0.25 * eta * eta
    return ((p.gamma4 + p.gamma12 + p.gamma_u) / den, p.gamma12 / den,
            p.gamma21 / den, (p.gamma3 + p.gamma21) / den)


def _mp_expm(block, tau):
    """e^{block tau} from a 30-digit mpmath exponential."""
    with mpmath.workdps(30):
        arg = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                             for row in block]) * mpmath.mpf(tau)
        exp = mpmath.expm(arg)
        return np.array([[complex(exp[i, j]) for j in range(2)]
                         for i in range(2)])


def _blocks(params):
    """The coherence block and the leading 2x2 of the population block."""
    return _coherence_generator(params), _population_generator(params)[:2, :2]


def _exp_block(block, tau):
    """e^{block tau} at one delay, from all four entries of _exp_entries."""
    entries = _exp_entries(block, np.array([tau]), (0, 0), (0, 1), (1, 0),
                           (1, 1))
    return np.array([entry[0] for entry in entries]).reshape(2, 2)


def _same_pair(got, want):
    """Largest deviation of two eigenvalue pairs, in either order."""
    got, want = np.asarray(got), np.asarray(want)
    return min(np.max(np.abs(got - want)), np.max(np.abs(got[::-1] - want)))


class TestBlockExponential:
    @pytest.mark.parametrize("params", [
        CascadeParams(gamma3=1.3, gamma4=0.7, gamma12=0.4, gamma21=0.9,
                      gamma_u=0.05, rabi=6.0, detuning=11.0, delta_fs=2.0),
        CascadeParams(gamma12=0.2, gamma21=0.7, rabi=0.1, detuning=40.0),
        CascadeParams(delta_fs=3.0, rabi=9.0, detuning=-17.0, gamma12=0.6,
                      gamma21=0.6, gamma_u=0.01),
        CascadeParams(gamma3=1.4, gamma4=0.6, gamma12=0.5, gamma21=1.1,
                      gamma_u=0.2, delta_fs=5.0),
    ])
    def test_block_eigenvalues_are_the_paper_coefficients(self, params):
        a0, b0, eta, mu, _ = _paper_coefficients(params)
        coherence, population = _blocks(params)
        shift = a0 - 1j * params.delta_fs
        assert _same_pair(np.linalg.eigvals(coherence),
                          [shift + 0.25j * mu, shift - 0.25j * mu]) < 1e-12
        assert _same_pair(np.linalg.eigvals(population),
                          [b0 + 0.5 * eta, b0 - 0.5 * eta]) < 1e-12

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_DOMAIN)
    def test_blocks_are_restrictions_of_the_generator(self, params):
        m = build_generator(params)
        coherence = [X1 + 5 * X2, X1 + 5 * U]
        assert np.allclose(_coherence_generator(params),
                           m[np.ix_(coherence, coherence)], rtol=0, atol=1e-14)
        # the population block is the restriction to (X1X1, X2X2, uu, X2u,
        # uX2) in the real basis (X1X1, X2X2, uu, X2u + uX2, i(X2u - uX2))
        idx = [i + 5 * j for i, j in
               [(X1, X1), (X2, X2), (U, U), (X2, U), (U, X2)]]
        basis = np.eye(5, dtype=complex)
        basis[3:, 3:] = [[1, 1], [1j, -1j]]
        similar = basis @ m[np.ix_(idx, idx)] @ np.linalg.inv(basis)
        block = _population_generator(params)
        assert np.isrealobj(block)
        assert np.allclose(block, similar, rtol=0, atol=1e-14)

    def test_tau_zero_is_identity(self):
        p = CascadeParams(delta_fs=3.0, rabi=9.0, detuning=17.0,
                          gamma12=0.6, gamma21=0.6, gamma_u=0.01)
        for block in _blocks(p):
            assert np.array_equal(_exp_block(block, 0.0), np.eye(2))

    # about 200 draws of each domain
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.one_of(_DOMAIN, _NEAR_EXCEPTIONAL_POINT), st.floats(0.0, 10.0))
    # the coherence exceptional point (mu = 0) and the undriven defaults
    # (eta = 0), where h = 0 and F = g tau
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5, rabi=0.5), 3.0)
    @example(CascadeParams(), 3.0)
    # h = 1.2e-5 for the population pair, so |h tau| is about 1e-4, where
    # expm1 must keep F = -g x/(2h) exact
    @example(CascadeParams(gamma3=1.000024), 8.0)
    @example(CascadeParams(gamma3=1.000024), 9.0)
    # scipy.linalg.expm is 2e-10 off here
    @example(CascadeParams(gamma3=1e-8, gamma4=0.0, gamma_u=1.0, gamma21=1.0),
             4.07)
    # h = 0 exactly in the coherence block with gamma3 = gamma21 = 0, and
    # |h| = 1e-5 on either side of the exceptional point at tau 9.6 to 10
    @example(CascadeParams(gamma3=0.0, gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5), 0.0)
    @example(CascadeParams(gamma3=0.0, gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5), 3.0)
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5 + 1e-10), 0.0)
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5 + 1e-10), 9.6)
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5 + 1e-10), 9.99)
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5 + 1e-10), 10.0)
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5 - 1e-10), 9.6)
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5,
                           rabi=0.5 - 1e-10), 10.0)
    def test_matches_high_precision_exponential(self, params, tau):
        # all four entries of both blocks
        for block in _blocks(params):
            got = _exp_block(block, tau)
            want = _mp_expm(block, tau)
            assert np.max(np.abs(got - want)
                          / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_average_slots_match_laplace_solution_without_drive(self):
        p = CascadeParams(gamma3=1.4, gamma4=0.6, gamma12=0.5, gamma21=1.1,
                          gamma_u=0.2)
        slots = _populations(two_photon_response([p]))
        for slot, paper in zip(slots, _paper_average_slots(p)):
            assert complex(slot[0]) == pytest.approx(paper, rel=1e-12)

    def test_average_slots_survive_drive_when_u_channel_closed(self):
        # branching ratios are insensitive to coherent X2-u cycling
        p = CascadeParams(gamma12=0.5, gamma21=0.5, rabi=20.0, detuning=30.0)
        slots = _populations(two_photon_response([p]))
        for slot, paper in zip(slots, _paper_average_slots(p)):
            assert complex(slot[0]) == pytest.approx(paper, rel=1e-12)


class TestTauZero:
    def test_copolarized_value_is_four(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            params = _symmetric_params(rng, with_gamma_u=True)
            theta = rng.uniform(0, np.pi)
            det = DetectorSetting(theta)
            assert g2_analytic(params, det, det, 0.0) == pytest.approx(4.0, abs=1e-10)
            assert g2_numeric(params, det, det, 0.0) == pytest.approx(4.0, abs=1e-10)

    def test_general_angles_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(8):
            params = _symmetric_params(rng, with_gamma_u=False)
            th1, th2 = rng.uniform(0, np.pi, size=2)
            ph1, ph2 = rng.uniform(-np.pi, np.pi, size=2)
            det1, det2 = DetectorSetting(th1, ph1), DetectorSetting(th2, ph2)
            expected = (2 + 2 * np.cos(2 * th1) * np.cos(2 * th2)
                        + 2 * np.sin(2 * th1) * np.sin(2 * th2) * np.cos(ph1 + ph2))
            assert g2_analytic(params, det1, det2, 0.0) == pytest.approx(
                expected, abs=1e-10)
            assert g2_numeric(params, det1, det2, 0.0) == pytest.approx(
                expected, abs=1e-10)

    def test_linear_basis_reduces_to_cos_squared(self):
        params = CascadeParams(delta_fs=2.0)
        th1, th2 = 0.9, 0.2
        value = g2_analytic(params, DetectorSetting(th1), DetectorSetting(th2), 0.0)
        assert value == pytest.approx(4.0 * math.cos(th1 - th2) ** 2, abs=1e-12)


class TestOracleEquivalence:
    TAUS = np.linspace(0.0, 8.0, 60)

    def _check(self, params, det1, det2, tol=1e-6):
        numeric = g2_numeric_grid(params, det1, det2, self.TAUS)
        analytic = g2_analytic(params, det1, det2, self.TAUS)
        err = np.max(np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic)))
        assert err < tol

    def test_symmetric_family(self):
        rng = np.random.default_rng(23)
        for idx in range(8):
            params = _symmetric_params(rng, with_gamma_u=bool(idx % 2))
            det1 = DetectorSetting(rng.uniform(0, np.pi))
            det2 = DetectorSetting(rng.uniform(0, np.pi))
            self._check(params, det1, det2)

    def test_nonzero_analyzer_phases(self):
        rng = np.random.default_rng(24)
        for _ in range(2):
            params = _symmetric_params(rng, with_gamma_u=True)
            det1 = DetectorSetting(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            det2 = DetectorSetting(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            self._check(params, det1, det2)

    def test_asymmetric_rates_exercise_cross_terms(self):
        params = CascadeParams(gamma3=1.3, gamma4=0.7, gamma12=0.4, gamma21=0.9,
                               gamma_u=0.05, delta_fs=3.0, rabi=8.0, detuning=12.0)
        self._check(params, DetectorSetting(0.35), DetectorSetting(1.25))
        self._check(params, H, D)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_DOMAIN, st.floats(0.0, math.pi), st.floats(0.0, math.pi),
           st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
    @example(CascadeParams(detuning=17.0, delta_fs=2.2250738585e-313, rabi=3.0),
             0.4, 1.2, 0.7, -0.3)
    def test_sector_grid_equals_full_generator(self, params, theta1, theta2,
                                               phi1, phi2):
        # the conditioned state never leaves the averaged sector, so the
        # 9x9 propagation reads the same as the 25x25 one
        det1, det2 = DetectorSetting(theta1, phi1), DetectorSetting(theta2, phi2)
        taus = np.linspace(0.0, 10.0, 41)
        full = evolve_grid(build_generator(params), _conditioned_state(det1), taus)
        want = 4.0 * np.real(np.einsum("ij,kji->k", _detection_projector(det2), full))
        got = g2_numeric_grid(params, det1, det2, taus)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13
        if params.rabi == 0.0:
            # without the drive the decoupled 9x9 block reads as the 4x4
            # sector of {X1, X2} alone
            pair = _pair_grid(params, det1, det2, taus)
            assert np.max(np.abs(got - pair) / np.maximum(1.0, np.abs(pair))) <= 1e-14

    def test_nonfinite_delays_are_bad_input_on_both_routes(self):
        params = CascadeParams(delta_fs=2.0, rabi=3.0)
        for taus in ([0.0, math.nan, 1.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                g2_numeric_grid(params, H, D, taus)
            with pytest.raises(ValueError, match="finite"):
                g2_analytic(params, H, D, taus)
        with pytest.raises(ValueError, match="finite"):
            evolve_grid(build_generator(params), np.eye(5), [math.nan])

    def test_analytic_delays_in_any_order_but_one_dimension(self):
        # unsorted, repeated and decreasing delays are valid, driven and
        # undriven; a 2-d array is bad input
        for rabi in (3.0, 0.0):
            params = CascadeParams(delta_fs=2.0, rabi=rabi, detuning=5.0)
            for taus in ([1.0, 0.0, 2.5, 1.0], np.linspace(10.0, 0.0, 7)):
                want = [g2_analytic(params, H, D, tau) for tau in taus]
                assert np.max(np.abs(g2_analytic(params, H, D, taus)
                                     - want)) <= 1e-13
        with pytest.raises(ValueError, match="1-d"):
            g2_analytic(params, H, D, [[0.0, 1.0]])

    @pytest.mark.parametrize("drive", [{}, {"rabi": 3.0, "detuning": 5.0}])
    def test_long_delays_stay_finite_and_agree(self, drive):
        # the slow mode decays at 1e-3 and the fast ones at about 5 or 10:
        # no factor of the 2x2 closed form exceeds 1 in size, so nothing
        # overflows far beyond the fast decay time
        params = CascadeParams(gamma3=1e-3, gamma4=10.0, **drive)
        taus = np.concatenate([np.linspace(0.0, 5000.0, 501),
                               np.geomspace(5e3, 1e5, 20)[1:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for det1, det2 in ((H, H), (H, D), (D, D)):
                got = g2_analytic(params, det1, det2, taus)
                want = g2_numeric_grid(params, det1, det2, taus)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - want)
                              / np.maximum(1.0, np.abs(want))) <= 1e-12

    def test_single_delay_methods(self):
        # "expm", the default, is the exact one-point grid and the one method
        params = CascadeParams(delta_fs=2.0, rabi=3.0, detuning=5.0,
                               gamma12=0.3, gamma21=0.3)
        for tau in (0.0, 0.7, 4.0):
            grid = g2_numeric_grid(params, H, D, [tau])[0]
            assert g2_numeric(params, H, D, tau) == grid
        for method in ("ode", "magic"):
            with pytest.raises(ValueError, match=f"unknown method '{method}'"):
                g2_numeric(params, H, D, 1.0, method=method)


class TestAgainstClosedFormOracles:
    def test_ideal_cross_polarized_vanishes(self):
        # perfect rectilinear correlation forbids HV coincidences
        params = CascadeParams()
        taus = np.linspace(0.0, 6.0, 40)
        assert np.max(np.abs(g2_analytic(params, H, V, taus))) < 1e-12
        assert np.max(np.abs(g2_numeric_grid(params, H, V, taus))) < 1e-9

    def test_split_cascade_diagonal_beat(self):
        # undriven split doublet: G = 2 e^{-tau} (1 + cos(delta_fs tau))
        params = CascadeParams(delta_fs=5.0)
        taus = np.linspace(0.0, 8.0, 80)
        expected = 2.0 * np.exp(-taus) * (1.0 + np.cos(5.0 * taus))
        assert np.max(np.abs(g2_analytic(params, D, D, taus) - expected)) < 1e-12
        assert np.max(np.abs(g2_numeric_grid(params, D, D, taus) - expected)) < 1e-8

    def test_w_phase_slope(self):
        params = CascadeParams(delta_fs=5.0)
        gen = build_generator(params)
        taus = np.linspace(0.01, 2.0, 150)
        states = evolve_grid(gen, _conditioned_state(D), taus)
        phase = np.unwrap(np.angle(states[:, X1, X2]))
        slope = np.polyfit(taus, phase, 1)[0]
        assert slope == pytest.approx(-5.0, abs=1e-6)

    def test_symmetric_reduction_to_three_terms(self):
        # undriven symmetric rates with a closed u channel: the braces are
        # 2 [e^{-g tau} + c1 c2 e^{-(g + 2 gd) tau} + s1 s2 * 2 Re w(tau)]
        params = CascadeParams(delta_fs=4.0, gamma12=0.7, gamma21=0.7)
        taus = np.linspace(0.0, 6.0, 50)
        th1, th2 = 0.5, 1.0
        c1, c2 = math.cos(2 * th1), math.cos(2 * th2)
        s1, s2 = math.sin(2 * th1), math.sin(2 * th2)
        expected = 2.0 * (np.exp(-taus) + c1 * c2 * np.exp(-(1 + 2 * 0.7) * taus)
                          + s1 * s2 * np.real(_paper_w(params, taus)))
        value = g2_analytic(params, DetectorSetting(th1), DetectorSetting(th2), taus)
        assert np.max(np.abs(value - expected)) < 1e-12

    def test_angle_flip_isolates_the_coherence_kernel(self):
        # theta2 -> -theta2 flips only the s1 s2 term, so the half-difference
        # equals s1 s2 * 2 Re w(tau) exactly, drive on or off
        params = CascadeParams(delta_fs=4.0, rabi=9.0, detuning=13.0,
                               gamma12=0.7, gamma21=0.7, gamma_u=0.01)
        taus = np.linspace(0.0, 6.0, 50)
        th1, th2 = 0.5, 1.0
        plus = g2_analytic(params, DetectorSetting(th1), DetectorSetting(th2), taus)
        minus = g2_analytic(params, DetectorSetting(th1), DetectorSetting(-th2), taus)
        isolated = 0.5 * (plus - minus)
        expected = (math.sin(2 * th1) * math.sin(2 * th2)
                    * 2.0 * np.real(_paper_w(params, taus)))
        assert np.max(np.abs(isolated - expected)) < 1e-12

    def test_scalar_and_array_paths_agree(self):
        params = CascadeParams(delta_fs=2.0, rabi=3.0, detuning=4.0)
        taus = np.array([0.0, 0.7, 2.1])
        arr = g2_analytic(params, H, D, taus)
        for tau, val in zip(taus, arr):
            assert g2_analytic(params, H, D, float(tau)) == pytest.approx(val)
        # the driven population block is stepped along the sorted grid
        assert np.allclose(g2_analytic(params, H, D, taus[::-1]), arr[::-1],
                           rtol=0, atol=1e-14)

    def test_polarizer_angle_period(self):
        params = CascadeParams(delta_fs=3.0, rabi=5.0, detuning=8.0,
                               gamma12=0.3, gamma21=0.3)
        taus = np.linspace(0.0, 5.0, 30)
        det1 = DetectorSetting(0.4)
        det1_shift = DetectorSetting(0.4 + np.pi)
        det2 = DetectorSetting(1.3)
        assert np.allclose(g2_analytic(params, det1, det2, taus),
                           g2_analytic(params, det1_shift, det2, taus),
                           rtol=0, atol=1e-12)


class TestTimeAverages:
    def test_ideal_copolarized_average(self):
        # integral of 4 e^{-tau} is 4 in units of 1/gamma
        assert g2_avg_analytic(CascadeParams(), H, H) == pytest.approx(4.0)
        assert g2_avg_numeric(CascadeParams(), H, H) == pytest.approx(4.0, rel=1e-12)

    def test_quadrature_of_analytic_matches_closed_form(self):
        rng = np.random.default_rng(25)
        # gamma_u > 0 together with the drive adds a slow population-return
        # tail that a tau <= 60 window would truncate; that path is covered
        # by the full-generator resolvent cross-oracle instead
        cases = [CascadeParams(delta_fs=5.0),
                 CascadeParams(delta_fs=7.0, rabi=9.0, detuning=14.0,
                               gamma12=1.2, gamma21=1.2),
                 CascadeParams(gamma3=1.2, gamma4=0.8, gamma12=0.3,
                               gamma21=0.6, gamma_u=0.05, delta_fs=2.0)]
        for params in cases:
            det1 = DetectorSetting(rng.uniform(0, np.pi))
            det2 = DetectorSetting(rng.uniform(0, np.pi))
            closed = g2_avg_analytic(params, det1, det2)
            # piecewise quadrature keeps the oscillatory integrand resolved
            numeric = sum(
                quad(lambda t: g2_analytic(params, det1, det2, t),
                     lo, lo + 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
                for lo in range(60))
            assert closed == pytest.approx(numeric, rel=1e-8, abs=1e-8)

    def test_average_cross_oracle_family(self):
        # closed-form averages vs the full-generator resolvent over 50
        # symmetric-rate parameter sets spanning the verify drive range,
        # weak drives included, plus undriven sets
        rng = np.random.default_rng(77)
        for idx in range(50):
            gd = rng.uniform(0.0, 2.0)
            params = CascadeParams(
                delta_fs=rng.uniform(0, 10),
                rabi=0.0 if idx % 5 == 0 else rng.uniform(0.0, 35.0),
                detuning=rng.uniform(0, 100), gamma12=gd, gamma21=gd,
                gamma_u=0.01 if idx % 2 else 0.0)
            det1 = DetectorSetting(rng.uniform(0, np.pi))
            det2 = DetectorSetting(rng.uniform(0, np.pi))
            analytic = g2_avg_analytic(params, det1, det2)
            numeric = g2_avg_numeric(params, det1, det2)
            assert numeric == pytest.approx(analytic, rel=1e-12)

    def test_weak_drive_average_matches_closed_form(self):
        # ultra-weak drive mixing with the u channel open parks population
        # in u for a long time; the resolvent integrates that tail exactly
        params = CascadeParams(delta_fs=3.0, rabi=0.6, detuning=90.0,
                               gamma12=0.8, gamma21=0.8, gamma_u=0.01)
        assert g2_avg_numeric(params, D, D) == pytest.approx(
            g2_avg_analytic(params, D, D), rel=1e-12)

    def test_numeric_methods_agree(self):
        params = CascadeParams(delta_fs=4.0, rabi=10.0, detuning=20.0,
                               gamma12=0.5, gamma21=0.5, gamma_u=0.01)
        num = g2_avg_numeric(params, D, D)
        ana = g2_avg_analytic(params, D, D)
        assert num == pytest.approx(ana, rel=1e-12)

    def test_all_rates_zero_diverges(self):
        params = CascadeParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0)
        with pytest.raises(DivergentAverageError):
            g2_avg_analytic(params, H, H)
        with pytest.raises(DivergentAverageError):
            g2_avg_numeric(params, H, H)

    def test_lossless_driven_pair_diverges(self):
        # X2 cycles to u forever when its decay channels are closed
        params = CascadeParams(gamma4=0.0, rabi=5.0)
        with pytest.raises(DivergentAverageError):
            g2_avg_analytic(params, D, D)
        with pytest.raises(DivergentAverageError):
            g2_avg_numeric(params, D, D)

    def test_undecaying_coherence_diverges(self):
        # gamma3 = gamma21 = 0 leaves the X1-u channel undamped
        params = CascadeParams(gamma3=0.0, rabi=3.0, detuning=1.0)
        with pytest.raises(DivergentAverageError):
            g2_avg_analytic(params, D, D)
        with pytest.raises(DivergentAverageError):
            g2_avg_numeric(params, D, D)


def _mixed_family(seed, n=24):
    """Draws of the verify oracle family, every third one undriven."""
    rng = np.random.default_rng(seed)
    points = [_random_params(rng, idx) for idx in range(n)]
    return [p.with_(rabi=0.0) if idx % 3 == 0 else p
            for idx, p in enumerate(points)]


def _asymmetric_family(seed, n=12):
    rng = np.random.default_rng(seed)
    return [CascadeParams(gamma3=rng.uniform(0.2, 2), gamma4=rng.uniform(0.2, 2),
                          gamma_u=rng.uniform(0, 0.5), gamma12=rng.uniform(0, 2),
                          gamma21=rng.uniform(0, 2), delta_fs=rng.uniform(0, 10),
                          rabi=0.0 if idx % 3 == 0 else rng.uniform(0, 35),
                          detuning=rng.uniform(-100, 100))
            for idx in range(n)]


def _populations(response):
    """The four population slots of a response, as (P11, P12, P21, P22)."""
    return response.p11, response.p12, response.p21, response.p22


def _relative_to_point_scale(got, want):
    """Largest deviation per point, relative to that point's largest slot;
    ``got`` and ``want`` are responses, or the same slots of two."""
    scale = np.max([np.abs(slot) for slot in want], axis=0)
    return max(np.max(np.abs(g - w) / scale) for g, w in zip(got, want))


def _map_slots(function, response):
    """The response with ``function`` applied to each slot."""
    return TwoPhotonResponse(*map(function, response))


def _response_or_refusal(params, method):
    try:
        return two_photon_response([params], method)
    except DivergentAverageError:
        return None


def _level_sector(levels):
    """Vectorized indices of the elements with both indices in ``levels``."""
    return np.array([i + N_LEVELS * j for j in levels for i in levels])


# The 9x9 sector that both numeric paths read, and the 4x4 sector of {X1,
# X2} alone, the undriven physical block, kept here as a reference
_SECTOR_LEVELS, _PAIR_LEVELS = (X1, X2, U), (X1, X2)
_PAIR = _level_sector(_PAIR_LEVELS)


def _pair_block(params):
    """The 4x4 sector of {X1, X2} of the generator, closed without the
    drive."""
    return build_generator(params)[np.ix_(_PAIR, _PAIR)]


def _sector_block(params):
    """The 9x9 sector of {X1, X2, u} of the generator, as the numeric grid
    and resolvent read it: without the drive, the elements with a u index
    are modes of their own, decaying at rate 1."""
    sector = _level_sector(_SECTOR_LEVELS)
    block = build_generator(params)[np.ix_(sector, sector)]
    if params.rabi == 0.0:
        u = ~np.isin(sector, _PAIR)
        block[u] = block[:, u] = 0.0
        block[u, u] = -1.0
    return block


def _pair_grid(params, det1, det2, taus):
    """The undriven G(tau) propagated on the 4x4 sector of {X1, X2}."""
    states = propagate_steps(_pair_block(params),
                             _conditioned_state(det1).ravel(order="F")[_PAIR],
                             taus)
    return 4.0 * np.real(states @ _detection_projector(det2).ravel()[_PAIR])


@pytest.mark.parametrize("levels", [_PAIR_LEVELS, _SECTOR_LEVELS])
def test_sector_table_takes_the_sector_block(levels):
    # the one constant table reads the same block as an index gather of the
    # sector, from one point's generator and from a mixed batch's stack,
    # and the blocks read through it are the sector blocks above; the
    # levels' sub-block of what it reads is the block of those levels alone,
    # so the undriven {X1, X2} block needs no table of its own
    assert np.array_equal(_SECTOR, _level_sector(_SECTOR_LEVELS))
    assert not (_SECTOR.flags.writeable or _SECTOR_BLOCK.flags.writeable)
    sector = _level_sector(levels)
    sub = np.ix_(np.isin(_SECTOR, sector), np.isin(_SECTOR, sector))
    point = CascadeParams(gamma_u=0.01, gamma12=0.3, gamma21=0.2,
                          delta_fs=2.0, rabi=3.0, detuning=7.0)
    gen = build_generator(point)
    n = len(_SECTOR)
    assert np.array_equal(gen.take(_SECTOR_BLOCK),
                          gen[np.ix_(_SECTOR, _SECTOR)])
    assert np.array_equal(gen.take(_SECTOR_BLOCK).reshape(n, n)[sub],
                          gen[np.ix_(sector, sector)])
    points = [point, point.with_(rabi=0.0), point.with_(delta_fs=-1.0, rabi=0.5)]
    batch = CascadeBatch.stack(points)
    stack = build_generator(batch)
    taken = stack.reshape(len(batch), -1)[:, _SECTOR_BLOCK]
    assert np.array_equal(taken, stack[:, _SECTOR][:, :, _SECTOR])
    assert np.array_equal(_sector_blocks(batch),
                          [_sector_block(p) for p in points])
    for p in points:
        assert np.array_equal(_sector_blocks(p), _sector_block(p))
        want = (_pair_block(p) if levels == _PAIR_LEVELS
                else build_generator(p)[np.ix_(sector, sector)])
        if p.rabi or levels == _PAIR_LEVELS:
            assert np.array_equal(_sector_blocks(p)[sub], want)


def _slowest_decay(params):
    """Decay rate of the slowest mode of the averaged generator sector."""
    return -np.max(np.linalg.eigvals(_sector_block(params)).real)


def _mp_response(params):
    """The one-point response from a 50-digit mpmath solve of the averaged
    sector of the generator."""
    block = _sector_block(params)
    x11, x22, x12 = 0, 4, 3
    with mpmath.workdps(50):
        inv = mpmath.inverse(-mpmath.matrix(
            [[mpmath.mpc(complex(v)) for v in row] for row in block]))
        return _map_slots(lambda v: np.array([complex(v)]), TwoPhotonResponse(
            p11=inv[x11, x11], p12=inv[x11, x22], p21=inv[x22, x11],
            p22=inv[x22, x22], w=inv[x12, x12]))


def _rate_system_slots(params):
    """(P11, P12, P21, P22) from the 2x2 rate system of the averaged
    populations, shape (4, 1): X2 leaves at gamma4 when driven, since the
    drive returns all of u, and at gamma4 + gamma_u when undriven."""
    p = params
    x2_out = p.gamma4 if p.rabi else p.gamma4 + p.gamma_u
    a1, a2 = p.gamma3 + p.gamma21, x2_out + p.gamma12
    d = p.gamma3 * a2 + p.gamma21 * x2_out
    return np.array([[a2], [p.gamma12], [p.gamma21], [a1]]) / d


def _mp_block_response(params):
    """The one-point response from 50-digit inverses of the 5x5 population
    block and the 2x2 coherence block, assembled at 50 digits from the exact
    parameters, so that no rounded sum of rates enters."""
    p = params
    with mpmath.workdps(50):
        g3, g4, gu, g12, g21, rabi, detuning, dfs = map(mpmath.mpf, (
            p.gamma3, p.gamma4, p.gamma_u, p.gamma12, p.gamma21, p.rabi,
            p.detuning, p.delta_fs))
        a1, a2 = g3 + g21, g4 + gu + g12
        m = mpmath.zeros(5)
        m[0, 0], m[0, 1], m[1, 0], m[1, 1], m[2, 1] = -a1, g12, g21, -a2, gu
        m[3, 3] = m[4, 4] = -a2 / 2
        m[3, 4], m[4, 3] = -detuning, detuning
        m[1, 4], m[2, 4], m[4, 1], m[4, 2] = -rabi, rabi, 2 * rabi, -2 * rabi
        inv = mpmath.inverse(-m)
        c00 = -(a1 + a2) / 2 - 1j * dfs
        c11 = -a1 / 2 - 1j * (dfs + detuning)
        return _map_slots(lambda v: np.array([complex(v)]), TwoPhotonResponse(
            p11=inv[0, 0], p12=inv[0, 1], p21=inv[1, 0], p22=inv[1, 1],
            w=-c11 / (c00 * c11 + rabi ** 2)))


# a weak drive far off resonance: ill-conditioned driven 5x5 population
# blocks, which LAPACK solved up to 6e-12 of the point's scale off
_FAR_DETUNED = st.builds(
    CascadeParams, gamma3=st.floats(1e-3, 2.0), gamma4=st.floats(1e-3, 2.0),
    gamma12=st.floats(1e-3, 2.0), gamma21=st.floats(1e-3, 2.0),
    gamma_u=st.floats(0.0, 1.0), rabi=st.floats(0.5, 1.5),
    detuning=st.one_of(st.floats(-100.0, -70.0), st.floats(70.0, 100.0)),
    delta_fs=st.floats(-10.0, 10.0))


# undriven points with 1e-12 < gamma3 + gamma21 <= 2e-12
_BAND = [CascadeParams(gamma3=1.5e-12, gamma4=1.0),
         CascadeParams(gamma3=1.5e-12, gamma4=1.0, delta_fs=3.0, detuning=-3.0)]


class TestTwoPhotonResponse:
    @pytest.mark.parametrize("points", [
        _mixed_family(2024), _mixed_family(31), _asymmetric_family(3),
        # a coherence denominator below 1e-14, yet every mode decays
        [CascadeParams(gamma3=1e-7, gamma4=1e-7)]])
    def test_routes_agree_on_mixed_batches(self, points):
        analytic = two_photon_response(points)
        numeric = two_photon_response(points, method="numeric")
        assert all(slot.shape == (len(points),)
                   for slot in (*analytic, *numeric))
        assert _relative_to_point_scale(numeric, analytic) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_DOMAIN)
    @example(CascadeParams(gamma3=1e-7, gamma4=1e-7))
    # the coherence-sector exceptional point, rabi = (gamma4 + gamma12 +
    # gamma_u)/4 at zero detuning, where mu = 0
    @example(CascadeParams(gamma4=1.0, gamma12=0.5, gamma_u=0.5, rabi=0.5))
    @example(CascadeParams(gamma3=3.27e-6, gamma4=0.0, gamma12=6.37e-6,
                           gamma21=1.74, gamma_u=1.98, rabi=33.2, detuning=31.4))
    @example(_BAND[0])
    @example(_BAND[1])
    def test_routes_refuse_alike_and_agree(self, params):
        analytic = _response_or_refusal(params, "analytic")
        numeric = _response_or_refusal(params, "numeric")
        assert (analytic is None) == (numeric is None)
        # A mode decaying at a slow rate kappa costs both routes accuracy
        # alike (both are 1e-9 off a 60-digit solve at kappa ~ 1e-7).  24000
        # random draws from this domain found no one-sided refusal, no
        # deviation above 1.3e-11 of the point's largest slot where kappa >=
        # 1e-4, and up to 3.2e-4 below it, where only refusal is compared.
        if analytic is not None and _slowest_decay(params) >= 1e-4:
            assert _relative_to_point_scale(numeric, analytic) <= 1e-9

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_domain())
    def test_routes_match_high_precision_solve(self, params):
        # the slow-mode band, where both routes lose accuracy, is out of scope
        if _slowest_decay(params) < 1e-4:
            return
        reference = _mp_response(params)
        for method in ("analytic", "numeric"):
            got = two_photon_response([params], method)
            assert _relative_to_point_scale(got, reference) <= 1e-11

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_FAR_DETUNED)
    def test_closed_form_slots_match_high_precision_solve(self, params):
        # at most 1.7 eps over 1500 draws: the slots are written out
        got = two_photon_response([params])
        assert (_relative_to_point_scale(got, _mp_block_response(params))
                <= 4.0 * np.finfo(float).eps)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_DOMAIN, st.floats(0.1, 35.0), st.floats(-100.0, 100.0))
    def test_averaged_populations_do_not_depend_on_the_drive(self, params,
                                                             rabi, detuning):
        # the full-generator route knows nothing of the rate system, whose
        # slots hold neither rabi nor detuning.  Its solve is off by up to
        # eps cond(sector) (0.29 of it at most on 2324 answered draws), so
        # the bound is 1e-12 up to a condition number of about 4500.
        for point in (params.with_(rabi=rabi),
                      params.with_(rabi=rabi, detuning=detuning)):
            got = _response_or_refusal(point, "numeric")
            if got is not None:
                cond = np.linalg.cond(_sector_block(point))
                assert (_relative_to_point_scale(_populations(got),
                                                 _rate_system_slots(point))
                        <= max(1e-12, np.finfo(float).eps * cond))

    @pytest.mark.parametrize("params, refused", [
        # products of two such rates overflow unless the blocks are scaled
        *(pytest.param(CascadeParams(gamma4=rate, gamma21=rate, rabi=rabi * rate),
                       False, id=f"{name}-{rate:g}")
          for rate in (1e200, 1e300)
          for name, rabi in (("undriven", 0.0), ("driven", 1.0))),
        # near the float maximum so do sums of two of them unless each is
        # halved first; a unit drive leaves u a mode decaying at about
        # 1 / rate, slower than the floor, so both routes refuse it
        *(pytest.param(CascadeParams(gamma4=rate, gamma21=rate, gamma12=rate,
                                     rabi=rabi), rabi > 0.0, id=f"{name}-{rate:g}")
          for rate in (5e307, 8e307)
          for name, rabi in (("undriven", 0.0), ("driven", 1.0))),
        # so does z, whose terms are halved before the sum, at a drive as
        # large as the rates
        *(pytest.param(CascadeParams(gamma4=8e307, gamma21=8e307,
                                     gamma12=gamma12, rabi=8e307),
                       False, id=f"driven-8e+307-gamma12-{gamma12:g}")
          for gamma12 in (8e307, 0.0)),
    ])
    def test_routes_agree_at_huge_rates(self, params, refused):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                for method in ("analytic", "numeric"):
                    with pytest.raises(DivergentAverageError):
                        two_photon_response([params], method)
                return
            analytic = two_photon_response([params])
            numeric = two_photon_response([params], method="numeric")
            degrees = [degree_from_response(response, 0.3)[0]
                       for response in (analytic, numeric)]
        assert _relative_to_point_scale(analytic, numeric) <= 1e-12
        assert degrees[0] == pytest.approx(degrees[1], rel=1e-12)

    @pytest.mark.parametrize("params", _BAND)
    def test_undriven_band_answers_by_both_routes(self, params):
        # the X1-u coherence is slower than the floor here, but an undriven
        # average never reaches it; the point's largest slot is 6.7e11, so
        # the coherence slot is compared on its own scale
        analytic = two_photon_response([params]).w[0]
        numeric = two_photon_response([params], method="numeric").w[0]
        assert abs(analytic - numeric) <= 1e-12 * abs(numeric)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_DOMAIN, st.floats(0.0, math.pi), st.floats(0.0, math.pi),
           st.floats(-math.pi, math.pi))
    # a subnormal splitting, undriven and driven: scipy's expm overflowed on
    # the difference of two diagonal entries of the generator
    @example(CascadeParams(detuning=17.0, delta_fs=2.2250738585e-313), 0.0, 0.0, 0.0)
    @example(CascadeParams(detuning=17.0, delta_fs=2.2250738585e-313, rabi=3.0),
             0.0, 0.0, 0.0)
    def test_grid_and_observable_bounds(self, params, theta1, theta2, phi):
        taus = np.linspace(0.0, 10.0, 41)
        det1, det2 = DetectorSetting(theta1, phi), DetectorSetting(theta2)
        analytic = g2_analytic(params, det1, det2, taus)
        numeric = g2_numeric_grid(params, det1, det2, taus)
        assert np.max(np.abs(analytic - numeric)
                      / np.maximum(1.0, np.abs(numeric))) <= 1e-9
        assert min(analytic.min(), numeric.min()) >= -1e-12
        if _slowest_decay(params) >= 1e-4:
            for method in ("analytic", "numeric"):
                response = two_photon_response([params], method)
                (c,) = degree_from_response(response, theta1)
                (s,) = bell_s_chsh_from_response(response,
                                                 *STANDARD_CHSH_ANGLES)
                assert abs(c) <= 1.0 and abs(s) <= TSIRELSON_BOUND

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    def test_batch_equals_one_point_calls(self, method):
        points = _mixed_family(7, n=9)
        batch = two_photon_response(points, method)
        single = [two_photon_response([p], method) for p in points]
        single = TwoPhotonResponse(*map(np.concatenate, zip(*single)))
        assert _relative_to_point_scale(batch, single) <= 1e-14

    def test_chsh_at_standard_angles_equals_shortcut(self):
        # they coincide for symmetric rates: gamma3 = gamma4, gamma12 =
        # gamma21 and no decay into u, which would favour X1 over X2
        symmetric = [p.with_(gamma21=p.gamma12)
                     for p in _mixed_family(2024, n=16) if p.gamma_u == 0.0]
        assert any(p.rabi == 0.0 for p in symmetric)
        for params in symmetric:
            for method in ("analytic", "numeric"):
                response = two_photon_response([params], method)
                chsh = bell_s_chsh_from_response(response, *STANDARD_CHSH_ANGLES)
                shortcut = bell_s_from_response(response)
                assert chsh == pytest.approx(shortcut, rel=1e-12)

    @pytest.mark.parametrize("divergent", [
        CascadeParams(gamma4=0.0, rabi=5.0),
        CascadeParams(gamma3=0.0, rabi=3.0, detuning=1.0),
        CascadeParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0),
    ])
    @pytest.mark.parametrize("method, scalar_call", [
        ("analytic", g2_avg_analytic), ("numeric", g2_avg_numeric)])
    def test_divergent_point_refuses_the_batch(self, divergent, method,
                                               scalar_call):
        with pytest.raises(DivergentAverageError) as scalar:
            scalar_call(divergent, D, D)
        batch = _mixed_family(11, n=6)
        batch.insert(4, divergent)
        with pytest.raises(DivergentAverageError) as batched:
            two_photon_response(batch, method)
        assert str(batched.value) == str(scalar.value)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            two_photon_response([CascadeParams()], method="magic")

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    @pytest.mark.parametrize("params", _mixed_family(5, n=4))
    def test_one_point_batch_equals_point_list(self, params, method):
        batch = CascadeBatch.broadcast(params)
        for got, want in zip(two_photon_response(batch, method),
                             two_photon_response([params], method)):
            assert np.array_equal(got, want)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_DOMAIN)
    def test_population_slots_are_float64_and_w_complex128(self, params):
        for method in ("analytic", "numeric"):
            response = _response_or_refusal(params, method)
            if response is None:
                continue
            assert [slot.dtype for slot in _populations(response)] == [
                np.float64] * 4
            assert response.w.dtype == np.complex128


def _x_state(response):
    """The unnormalized two-photon state of a response in the basis {HH, HV,
    VH, VV}, first photon first: the diagonal holds the population slots in
    the order (P11, P21, P12, P22) and rho_HH,VV = conj(w).  Shape
    ``response.p11.shape + (4, 4)``."""
    r = response
    rho = np.zeros(np.shape(r.p11) + (4, 4), dtype=complex)
    for k, slot in enumerate((r.p11, r.p21, r.p12, r.p22)):
        rho[..., k, k] = slot
    rho[..., 0, 3] = np.conj(r.w)
    rho[..., 3, 0] = r.w
    return rho


def _analyzer(theta, phi):
    """The projector onto cos(theta) |H> + e^{i phi} sin(theta) |V>."""
    v = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
    return np.outer(v, v.conj())


_ANGLE = st.floats(-2.0 * math.pi, 2.0 * math.pi)


def _degree_per_pair(response, theta):
    """C(theta) from a _braces call per analyzer pair, as the fused
    degree_from_response was first written."""
    co = _braces(response, theta, theta)
    cross = _braces(response, theta, theta + math.pi / 2.0)
    return (co - cross) / (co + cross)


def _assert_degrees_equal(response, theta, want):
    """degree_from_response gives ``want`` bit for bit, or refuses it as
    outside [-1, 1]."""
    if np.all(np.abs(want) <= 1.0 + 1e-9):
        assert np.array_equal(degree_from_response(response, theta), want)
    else:
        with pytest.raises(ValueError, match="outside"):
            degree_from_response(response, theta)


class TestBraces:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_DOMAIN, _ANGLE, _ANGLE, _ANGLE, _ANGLE)
    def test_braces_is_the_x_state_coincidence(self, params, theta1, theta2,
                                               phi1, phi2):
        # 4 Tr[rho (Pi1 x Pi2)] of the X-state the slots stand for, on the
        # averages of both routes and on the delay-grid slots of the
        # closed-form kernel; the coincidence is at most 4 Tr rho
        projector = np.kron(_analyzer(theta1, phi1), _analyzer(theta2, phi2))
        responses = [_response_or_refusal(params, method)
                     for method in ("analytic", "numeric")]
        taus = np.linspace(0.0, 8.0, 17)
        responses.append(_delay_response(params, taus))
        for response in responses:
            if response is None:
                continue
            rho = _x_state(response)
            want = 4.0 * np.einsum("...ij,ji->...", rho, projector).real
            got = _braces(response, theta1, theta2, phi1 + phi2)
            scale = 4.0 * np.trace(rho, axis1=-2, axis2=-1).real
            assert np.all(np.abs(got - want) <= 1e-13 * scale)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_DOMAIN, _ANGLE, _ANGLE)
    def test_chsh_is_its_four_coincidence_definition(self, params, alpha,
                                                     beta):
        # E = (g_pp + g_oo - g_po - g_op) / (g_pp + g_po + g_op + g_oo) at
        # asymmetric rates and any angles, on both routes; |E| <= 1, so the
        # bound is absolute
        quarter = math.pi / 2.0
        for method in ("analytic", "numeric"):
            response = _response_or_refusal(params, method)
            if response is None:
                continue
            g_pp = _braces(response, alpha, beta)
            g_po = _braces(response, alpha, beta + quarter)
            g_op = _braces(response, alpha + quarter, beta)
            g_oo = _braces(response, alpha + quarter, beta + quarter)
            want = (g_pp + g_oo - g_po - g_op) / (g_pp + g_po + g_op + g_oo)
            got = chsh_from_response(response, alpha, beta)
            assert np.abs(got - want).max() <= 1e-14

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.lists(_DOMAIN, min_size=1, max_size=5), _ANGLE)
    def test_fused_observables_equal_a_braces_call_per_pair(self, points,
                                                            theta):
        # one _braces call on the stacked analyzer pairs gives, bit for
        # bit, the C and S of a call per pair: a scalar angle on the points,
        # 91 angles against the points as the figures take them, the same
        # with the slots given a trailing axis, and each point as a
        # one-point batch
        grid = np.linspace(0.0, math.pi / 2.0, 91)
        for method in ("analytic", "numeric"):
            try:
                response = two_photon_response(points, method)
            except DivergentAverageError:
                continue
            cases = [(response, theta), (response, grid[:, None]),
                     (_map_slots(lambda slot: slot[:, None], response), grid),
                     *((_map_slots(lambda slot: slot[k:k + 1], response),
                        theta) for k in range(len(points)))]
            for slots, angle in cases:
                _assert_degrees_equal(slots, angle,
                                      _degree_per_pair(slots, angle))
            c_h = _degree_per_pair(response, 0.0)
            c_d = _degree_per_pair(response, math.pi / 4.0)
            want = math.sqrt(2.0) * (c_h + c_d)
            if np.all(np.abs([c_h, c_d]) <= 1.0 + 1e-9):
                assert np.array_equal(bell_s_from_response(response), want)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(_DOMAIN)
    def test_undriven_delay_grid_slots_are_float64(self, params):
        # without the drive the population slots are the entries of the
        # exponential of the real 2x2 rate block, in real arithmetic (with
        # the drive they come real from the real 5x5 block)
        taus = np.linspace(0.0, 8.0, 17)
        slots = _population_propagators(params.with_(rabi=0.0), taus)
        assert [slot.dtype for slot in slots] == [np.float64] * 4


# rates: zero, near the refusal floor, or up to 1e3
_RATE = st.one_of(st.just(0.0), st.floats(1e-14, 1e-10), st.floats(0.0, 1e3))


def _route_blocks(params):
    """The block of the one point ``params`` in each route's refusal stack:
    the 5x5 population block and the 9x9 generator sector, an undriven
    point's with its u elements decoupled."""
    batch = CascadeBatch.broadcast(params)
    return (_decoupled(_population_generator(batch), batch.rabi == 0.0,
                       _POPULATION_U)[0],
            _sector_blocks(params))


def _averaged_blocks(params):
    """Every averaged block of a point, each beside the block that stands
    for it in its route's refusal stack and that stack's cone: the 2x2 rate
    block and the 4x4 generator sector without the drive and, if ``params``
    is driven, the 5x5 population block and the 9x9 generator sector."""
    undriven = params.with_(rabi=0.0)
    population, sector = _route_blocks(undriven)
    blocks = [(_population_generator(undriven)[:2, :2], population,
               _POPULATION_CONE),
              (_pair_block(undriven), sector, _DENSITY_CONE)]
    if params.rabi != 0.0:
        population, sector = _route_blocks(params)
        blocks += [(population, population, _POPULATION_CONE),
                   (sector, sector, _DENSITY_CONE)]
    return blocks


def _refused(block, cone):
    try:
        _refuse_divergent(block[None], "block", cone)
    except DivergentAverageError:
        return True
    return False


def _mp_slowest_rate(block):
    """The largest real part of the eigenvalues of ``block``, at 60 digits."""
    with mpmath.workdps(60):
        eigenvalues = mpmath.eig(mpmath.matrix(
            [[mpmath.mpc(complex(v)) for v in row] for row in block]),
            left=False, right=False)
        return float(max(mpmath.re(e) for e in eigenvalues))


# Points whose slowest rate lies within about 1e-12 of the floor.  Refusing
# by eigvals and by s + |h| answered about one undriven point in 70 and one
# driven point in 190 of these by one route only.
def _near_floor_points(seed, n, driven):
    rng = np.random.default_rng(seed)
    return [CascadeParams(
        gamma3=rng.uniform(0.0, 2e-12), gamma4=rng.uniform(1e2, 1e3),
        gamma12=rng.choice([0.0, rng.uniform(0.0, 1e3)]),
        gamma21=rng.choice([0.0, rng.uniform(0.0, 1e-12)]),
        rabi=rng.uniform(0.1, 35.0) if driven else 0.0) for _ in range(n)]


def _scaled_quadratic_form(x):
    """The population-cone test as first written: each vector scaled to a
    largest entry of 1, then x0 > 0, x1 > 0 and 4 x1 x2 > x3^2 + x4^2."""
    scale = np.max(np.abs(x), axis=-1, keepdims=True)
    if not np.all(np.isfinite(scale) & (scale > 0)):
        return False
    x0, x1, x2, x3, x4 = (x / scale).T
    return bool(np.all((x0 > 0) & (x1 > 0)
                       & (4.0 * x1 * x2 > x3 * x3 + x4 * x4)))


def _exact_margin(x):
    """4 x1 x2 - x3^2 - x4^2 in exact rationals, over their sum of
    magnitudes."""
    x1, x2, x3, x4 = map(Fraction, x[1:].tolist())
    return (4 * x1 * x2 - x3 * x3 - x4 * x4) / (4 * abs(x1 * x2)
                                                + x3 * x3 + x4 * x4)


_SIGNED_MANTISSA = st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))
# a vector near the cone's boundary: off-diagonal of t times 2 sqrt(x1 x2)
_POPULATION_VECTOR = st.builds(
    lambda x0, x1, x2, t, phi: np.array([x0, x1, x2,
                                         t * 2.0 * math.sqrt(abs(x1 * x2))
                                         * math.cos(phi),
                                         t * 2.0 * math.sqrt(abs(x1 * x2))
                                         * math.sin(phi)]),
    _SIGNED_MANTISSA, _SIGNED_MANTISSA, _SIGNED_MANTISSA,
    st.floats(0.0, 2.0), st.floats(-math.pi, math.pi))


def _orthant(x):
    """Whether every vector of the stack x is inside the positive orthant,
    and finite."""
    return bool(np.all((x > 0) & (x < np.inf)))


# the cones of the undriven 2x2 rate block and 4x4 generator sector
_RATE_CONE = _Cone(np.ones(2), _orthant)
_PAIR_DENSITY_CONE = _Cone(np.eye(2).ravel(), _density_cone)


def _per_size_refused(params, method):
    """The refusal of one point by a block of its own size: the rate block
    in the orthant or the 4x4 sector in PSD(2) without the drive, the 5x5
    population block in R+ x PSD(2) or the 9x9 sector in PSD(3) with it."""
    analytic = method == "analytic"
    if params.rabi != 0.0:
        block, cone = ((_population_generator(params), _POPULATION_CONE)
                       if analytic else (_sector_block(params), _DENSITY_CONE))
    else:
        block, cone = ((_population_generator(params)[:2, :2], _RATE_CONE)
                       if analytic else (_pair_block(params), _PAIR_DENSITY_CONE))
    return _refused(block, cone)


def _per_size_resolvent(params):
    """The one-point response of a solve on the point's own averaged sector
    of the generator, 4x4 without the drive, 9x9 with it."""
    n = 3 if params.rabi else 2
    block = _sector_block(params) if params.rabi else _pair_block(params)
    x = np.linalg.solve(-block, np.eye(n * n)[:, [0, n + 1, n]])
    return _map_slots(lambda v: np.array([v]), TwoPhotonResponse(
        x[0, 0].real, x[0, 1].real, x[n + 1, 0].real, x[n + 1, 1].real,
        x[n, 2]))


# _DOMAIN with planted rates that are zero, near the floor or large, and
# drives that are zero, weak or ordinary
_REFUSAL_DOMAIN = st.one_of(_DOMAIN, st.builds(
    CascadeParams, gamma3=_RATE, gamma4=_RATE, gamma_u=_RATE, gamma12=_RATE,
    gamma21=_RATE, rabi=_zero_or((1e-12, 1e-3), (0.1, 35.0)),
    detuning=st.floats(-100.0, 100.0), delta_fs=st.floats(-10.0, 10.0)))


class TestPopulationCone:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(_POPULATION_VECTOR, min_size=1, max_size=4),
           st.integers(-300, 300))
    def test_agrees_with_the_scaled_quadratic_form(self, vectors, exponent):
        # entries from about 1e-303 to 1e303, within 1e6 of each other in
        # a vector, so that the scaled squares stay exact enough; vectors
        # within round-off of the boundary may be decided either way
        x = np.array(vectors) * 10.0 ** exponent
        if any(abs(_exact_margin(v)) < 1e-9 for v in x):
            return
        assert _population_cone(x) == _scaled_quadratic_form(x)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.floats(-300.0, 300.0), min_size=5, max_size=5),
           st.lists(st.booleans(), min_size=5, max_size=5))
    def test_exact_at_any_scale(self, exponents, negative):
        # independent entries from 1e-300 to 1e300, where the scaled squares
        # underflow: the test is the exact one off the boundary
        x = np.where(negative, -1.0, 1.0) * 10.0 ** np.array(exponents)
        margin = _exact_margin(x)
        if abs(margin) < 1e-9:
            return
        assert _population_cone(x[None]) == bool(x[0] > 0 and x[1] > 0
                                                 and margin > 0)

    @pytest.mark.parametrize("entry, value", [
        (0, np.inf), (1, np.inf), (2, np.inf), (3, -np.inf), (0, np.nan),
        (1, np.nan), (2, np.nan), (4, np.nan), (1, 0.0), (2, -1.0),
        (2, -1e-300), (1, -1.0), (0, 0.0)])
    def test_refuses_non_finite_and_boundary_vectors(self, entry, value):
        inside = np.array([[1.0, 2.0, 3.0, 0.5, -0.5], [1e-300, 1e300, 1.0,
                                                        1e100, 1e100]])
        assert _population_cone(inside)
        bad = inside[0].copy()
        bad[entry] = value
        # alone, and in a stack whose other vectors are inside
        assert not _population_cone(bad[None])
        assert not _population_cone(np.vstack([inside, bad]))


class TestRefusalRule:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.builds(CascadeParams, gamma3=_RATE, gamma4=_RATE, gamma_u=_RATE,
                     gamma12=_RATE, gamma21=_RATE, rabi=_zero_or((0.1, 35.0)),
                     detuning=st.floats(-100.0, 100.0)))
    @example(CascadeParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0))
    @example(_BAND[0])
    @example(_BAND[1])
    # gamma3 = gamma4 = 0 with dephasing: a mode that never decays
    @example(CascadeParams(gamma3=0.0, gamma4=0.0, gamma12=1.0, gamma21=1.0))
    @example(CascadeParams(gamma3=0.0, gamma4=0.0, gamma12=1e3, gamma21=0.3))
    @example(CascadeParams(gamma3=0.0, gamma4=0.0, gamma12=0.7, gamma21=1e3,
                           gamma_u=1e-3))
    # the slowest rate is -9.834e-13 exactly, within round-off of the floor
    @example(CascadeParams(gamma3=9.83413876e-13, gamma4=623.082976))
    # X2 cycles to u forever when its decay channels are closed
    @example(CascadeParams(gamma4=0.0, rabi=5.0))
    # driven, with rates of 1e-6 beside rates of 1
    @example(CascadeParams(gamma3=3.27e-6, gamma4=0.0, gamma12=6.37e-6,
                           gamma21=1.74, gamma_u=1.98, rabi=33.2, detuning=31.4))
    def test_refusal_matches_eigenvalues(self, params):
        for block, stacked, cone in _averaged_blocks(params):
            lapack = np.max(np.linalg.eigvals(block).real)
            # the solve and LAPACK's rate both carry round-off of order eps
            # times the block's largest entry; inside that band of the
            # floor the two may decide differently
            bound = 4.0 * np.finfo(float).eps * np.max(np.abs(block))
            if abs(lapack + _DECAY_FLOOR) > bound:
                assert _refused(stacked, cone) == (lapack >= -_DECAY_FLOOR)

    def test_rate_within_round_off_of_the_floor(self):
        # s + |h| cancelled to -1.023e-12 here and answered the point; the
        # exact slowest rate of every block is -9.834e-13
        params = CascadeParams(gamma3=9.83413876e-13, gamma4=623.082976)
        for block, stacked, cone in _averaged_blocks(params):
            assert _mp_slowest_rate(block) >= -_DECAY_FLOOR
            assert _refused(stacked, cone)

    def test_infinite_solve_is_refused(self):
        # a planted Metzler rate block, decoupled as an undriven point's,
        # whose refusal solve overflows: (x0, x1) = (inf, 1.1e11) is
        # positive, but x0 is no float, so the cone test refuses the block
        # rather than answer inf
        block = -np.eye(5)
        block[:2, :2] = [[-1e-11, 1e300], [0.0, -1e-11]]
        with pytest.raises(DivergentAverageError):
            _refuse_divergent(block[None], "population block", _POPULATION_CONE)

    def test_undriven_blocks_are_decoupled(self):
        # an undriven point's u elements are modes of their own, decaying
        # at rate 1: its X1 and X2 part stands alone beside -I
        params = CascadeParams(gamma_u=0.3, gamma12=0.2, gamma21=0.7,
                               delta_fs=2.0, detuning=5.0)
        population, sector = _route_blocks(params)
        want = -np.eye(5)
        want[:2, :2] = _population_generator(params)[:2, :2]
        assert np.array_equal(population, want)
        x1x2 = np.isin(_level_sector(_SECTOR_LEVELS), _PAIR)
        want = -np.eye(9, dtype=complex)
        want[np.ix_(x1x2, x1x2)] = _pair_block(params)
        assert np.array_equal(sector, want)
        assert np.array_equal(_sector_block(params), want)
        # a driven point's blocks are the route's blocks as built
        driven = params.with_(rabi=3.0)
        population, sector = _route_blocks(driven)
        assert np.array_equal(population, _population_generator(driven))
        assert np.array_equal(sector, _sector_block(driven))

    @pytest.mark.parametrize("method, block", [("analytic", (5, 5)),
                                               ("numeric", (9, 9))])
    def test_one_refusal_per_batch(self, method, block, monkeypatch):
        # a mixed batch is one stack of one block size
        stacks, refuse = [], _refuse_divergent

        def counted(blocks, *args):
            stacks.append(blocks.shape)
            return refuse(blocks, *args)

        monkeypatch.setattr("cascadeg2.correlate._refuse_divergent", counted)
        points = _mixed_family(2024, n=6)
        assert {p.rabi == 0.0 for p in points} == {True, False}
        two_photon_response(points, method)
        assert stacks == [(6, *block)]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(_REFUSAL_DOMAIN, min_size=1, max_size=5),
           st.sampled_from(["analytic", "numeric"]))
    @example([CascadeParams(gamma3=0.0, gamma4=0.0, gamma12=1.0, gamma21=1.0),
              CascadeParams(rabi=3.0)], "analytic")
    @example([CascadeParams(gamma4=0.0, rabi=1e-9), CascadeParams()], "numeric")
    @example([_BAND[0], _BAND[1].with_(rabi=2.0)], "analytic")
    @example([_BAND[0], _BAND[1].with_(rabi=2.0)], "numeric")
    def test_one_stack_refuses_as_the_per_size_rule(self, points, method):
        # each point alone is refused as the rule of one block size per
        # drive refused it, and a mixed batch exactly when one of its points
        # is refused alone; an answered batch's resolvent solves as each
        # point's own sector would
        alone = [_response_or_refusal(p, method) is None for p in points]
        assert alone == [_per_size_refused(p, method) for p in points]
        try:
            response = two_photon_response(points, method)
        except DivergentAverageError:
            assert any(alone)
            return
        assert not any(alone)
        if method == "numeric":
            want = TwoPhotonResponse(*map(np.concatenate, zip(
                *map(_per_size_resolvent, points))))
            assert (_relative_to_point_scale(response, want)
                    <= 4.0 * np.finfo(float).eps)

    @pytest.mark.parametrize("driven, n", [(False, 1500), (True, 1000)])
    def test_routes_refuse_alike_near_the_floor(self, driven, n):
        one_sided = [p for p in _near_floor_points(1700 + driven, n, driven)
                     if (_response_or_refusal(p, "analytic") is None)
                     != (_response_or_refusal(p, "numeric") is None)]
        assert one_sided == []

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_DOMAIN)
    def test_coherence_decays_no_slower_than_populations(self, params):
        # why the closed form needs no refusal of its coherence average
        for point in {params.with_(rabi=0.0), params}:
            c, m = _coherence_generator(point), _population_generator(point)
            if point.rabi == 0.0:
                # an undriven average reaches rho_X1X2 alone
                c, m = c[:1, :1], m[:2, :2]
            coherence = np.max(np.linalg.eigvals(c).real)
            population = np.max(np.linalg.eigvals(m).real)
            scale = max(np.max(np.abs(c)), np.max(np.abs(m)))
            assert coherence <= population + 4.0 * np.finfo(float).eps * scale


# analyzer phases away from 0, where e^{-i phase} w rounds like w
_PHASE = st.floats(0.1, 3.0)

# _REFUSAL_DOMAIN with huge rates and drives planted too
_HUGE = st.floats(1e100, 1e300)
_POINT_DOMAIN = st.one_of(_REFUSAL_DOMAIN, st.builds(
    CascadeParams, gamma3=st.one_of(_RATE, _HUGE), gamma4=st.one_of(_RATE, _HUGE),
    gamma_u=st.one_of(_RATE, _HUGE), gamma12=st.one_of(_RATE, _HUGE),
    gamma21=st.one_of(_RATE, _HUGE),
    rabi=_zero_or((1e-12, 1e-3), (0.1, 35.0), (1e100, 1e300)),
    detuning=st.floats(-100.0, 100.0), delta_fs=st.floats(-10.0, 10.0)))


def _outcome(call):
    """What ``call()`` returns, or the refusal or floating-point warning
    (an error under the test filter) that it raises."""
    try:
        return call()
    except (DivergentAverageError, RuntimeWarning) as exc:
        return exc


def _refusal(exc: Exception) -> tuple:
    """The type and message of a refusal or warning; numpy names an
    overflow of a scalar operation "scalar", which is dropped."""
    return type(exc), str(exc).replace("scalar ", "")


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


class TestPointResponse:
    """A CascadeParams is a point, not a one-point batch: its response has
    0-d slots with the bits of the one-point batch's."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(_POINT_DOMAIN, _ANGLE, _ANGLE, _PHASE, _PHASE)
    # e^{-i phase} w of a 0-d w, multiplied as a complex scalar and not by
    # the array loop, is one ulp off here
    @example(CascadeParams(rabi=0.5, delta_fs=0.5), 0.75, 0.5, 1.25, 0.75)
    def test_point_has_the_bits_of_its_one_point_batch(self, params, theta1,
                                                         theta2, phi1, phi2):
        det1, det2 = DetectorSetting(theta1, phi1), DetectorSetting(theta2, phi2)
        for method, average in (("analytic", g2_avg_analytic),
                                ("numeric", g2_avg_numeric)):
            batch = _outcome(lambda: two_photon_response([params], method))
            point = _outcome(lambda: two_photon_response(params, method))
            got = _outcome(lambda: average(params, det1, det2))
            if isinstance(batch, Exception):
                assert _refusal(point) == _refusal(got) == _refusal(batch)
                continue
            for slot, row in zip(point, batch):
                assert np.shape(slot) == ()
                assert _bits(slot) == _bits(row[0])
            want = float(_braces(batch, det1.theta, det2.theta,
                                 det1.phi + det2.phi)[0])
            assert _bits(got) == _bits(want)

    def test_one_point_average_builds_no_batch(self, monkeypatch):
        def refuse(self, table):
            raise AssertionError("a CascadeBatch was built")

        monkeypatch.setattr(CascadeBatch, "__init__", refuse)
        params = CascadeParams(delta_fs=1.3, rabi=2.0, detuning=0.7)
        with pytest.raises(AssertionError, match="CascadeBatch was built"):
            two_photon_response([params])
        for method in ("analytic", "numeric"):
            assert all(np.shape(slot) == ()
                       for slot in two_photon_response(params, method))
        g2_avg_analytic(params, D, H)
        g2_avg_numeric(params, D, H)
        for argv in ("degree --theta 0.3 --rabi 2", "bell --rabi 2",
                     "bell --angles 0 0.8 0.4 1.2 --rabi 2"):
            assert main(argv.split()) == 0

    @pytest.mark.parametrize("rabi", [1e155, 1e200, 1e300])
    def test_huge_drive_answers_as_the_numeric_route(self, rabi):
        # rabi^2 / |d| passes the float maximum: the closed form inverts z/2
        # divided by rabi, with no warning (an error under the test filter),
        # and its S is the full-generator route's, on a point and on a batch
        points = [CascadeParams(rabi=rabi, delta_fs=delta_fs, detuning=detuning)
                  for delta_fs, detuning in ((0.0, 0.0), (1.0, 0.0), (5.0, 25.0))]
        for sample in (*points, CascadeBatch.stack(points)):
            s = bell_s_from_response(two_photon_response(sample))
            want = bell_s_from_response(two_photon_response(sample, "numeric"))
            np.testing.assert_allclose(s, want, rtol=1e-12, atol=0.0)

    def test_batch_inside_a_list_refused(self):
        # a batch's field-major table is not one point's row of fields
        batch = CascadeBatch.stack([CascadeParams(delta_fs=1.0, rabi=2.0),
                                    CascadeParams(delta_fs=5.0)])
        with pytest.raises(TypeError, match="item 0 is a CascadeBatch"):
            two_photon_response([batch])
        assert np.array_equal(two_photon_response(batch).p11, [1.0, 1.0])


class TestSpecialCases:
    # closed forms that the analytic route must reproduce in limiting regimes
    def test_case_i_bridges_the_general_result(self):
        # no drive, no dephasing: 2 e^{-tau}(1 + c1 c2 + s1 s2 cos(delta_fs tau))
        params = CascadeParams(delta_fs=5.0)
        taus = np.linspace(0.0, 6.0, 40)
        for det1, det2 in ((H, H), (D, D), (H, D), (DetectorSetting(0.3), V)):
            c1, c2 = math.cos(2.0 * det1.theta), math.cos(2.0 * det2.theta)
            s1, s2 = math.sin(2.0 * det1.theta), math.sin(2.0 * det2.theta)
            want = 2.0 * np.exp(-taus) * (1.0 + c1 * c2
                                          + s1 * s2 * np.cos(5.0 * taus))
            assert np.max(np.abs(want - g2_analytic(params, det1, det2, taus))) < 1e-12

    def test_case_i_example_value(self):
        assert g2_analytic(CascadeParams(), D, D, 1.0) == pytest.approx(
            4.0 * math.exp(-1.0), rel=1e-12)

    def test_case_iv_rectilinear_bridge_without_drive(self):
        # the dephasing-regulated decay of the rectilinear term is exact
        params = CascadeParams(gamma12=0.4, gamma21=0.4)
        taus = np.linspace(0.0, 5.0, 30)
        want = 2.0 * np.exp(-taus) * (1.0 + np.exp(-0.8 * taus))
        assert np.max(np.abs(want - g2_analytic(params, H, H, taus))) < 1e-12

    def test_case_ii_beats_at_twice_the_rabi_frequency(self):
        om = 30.0
        params = CascadeParams(delta_fs=om, rabi=om)
        taus = np.linspace(0.0, 8.0, 4096)
        signal = g2_analytic(params, D, D, taus)
        assert _dominant_frequency(signal, taus) == pytest.approx(2.0 * om, abs=1.0)

    def test_case_iii_beats_at_generalized_rabi(self):
        om, delta = 20.0, 40.0
        beat = math.hypot(delta, 2.0 * om)
        # the lower sideband of the drive sits on the splitting
        params = CascadeParams(delta_fs=(beat - delta) / 2.0, rabi=om,
                               detuning=delta)
        taus = np.linspace(0.0, 8.0, 4096)
        signal = g2_analytic(params, D, D, taus)
        assert _dominant_frequency(signal, taus) == pytest.approx(beat, abs=1.0)


def _dominant_frequency(signal, taus, floor=10.0):
    sig = np.asarray(signal) - np.mean(signal)
    spectrum = np.abs(np.fft.rfft(sig * np.hanning(sig.size)))
    freqs = np.fft.rfftfreq(taus.size, taus[1] - taus[0]) * 2.0 * np.pi
    mask = freqs > floor
    return freqs[mask][np.argmax(spectrum[mask])]


class TestCorrelationCurve:
    def test_curve_from_both_routes(self):
        params = CascadeParams(delta_fs=2.0)
        taus = np.linspace(0.0, 4.0, 20)
        for method in ("analytic", "numeric"):
            curve = correlation_curve(params, D, D, taus, method=method)
            assert isinstance(curve, CorrelationCurve)
            assert np.all(curve.values >= 0.0)

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    @pytest.mark.parametrize("detuning", [1e16, 1e100, 1e300])
    def test_undriven_curve_does_not_depend_on_the_detuning(self, detuning,
                                                            method):
        # without the drive the detuning acts on no element a curve reads;
        # the closed form once rounded it into the phase of its coherence
        # kernel, which cancels, and was 0.35 off at detuning 1e16
        params = CascadeParams(gamma_u=0.01, gamma12=0.4, gamma21=0.4,
                               delta_fs=2.0)
        taus = np.linspace(0.0, 10.0, 300)
        want = correlation_curve(params, D, D, taus, method).values
        got = correlation_curve(params.with_(detuning=detuning), D, D, taus,
                                method).values
        assert np.array_equal(got, want)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0, -1e-6]))

    def test_negative_round_off_is_washed_out(self, monkeypatch):
        # undriven, with crossed diagonal analyzers the closed form is zero
        # but for round-off, half its values in [-4.4e-16, 0)
        crossed = DetectorSetting(-math.pi / 4.0)
        taus = np.linspace(0.0, 10.0, 300)
        raw = _g2_closed_form(CascadeParams(), D, crossed, taus)
        assert np.any(raw < 0.0) and raw.min() > -1e-12
        curve = correlation_curve(CascadeParams(), D, crossed, taus)
        assert np.array_equal(curve.values, np.where(raw < 0, 0.0, raw))
        # a value below -1e-12 is no round-off and is still refused
        planted = raw.copy()
        planted[7] = -2e-12
        monkeypatch.setattr("cascadeg2.correlate._g2_closed_form",
                            lambda *args: planted)
        with pytest.raises(ValueError, match="negative coincidence rate"):
            correlation_curve(CascadeParams(), D, crossed, taus)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            CorrelationCurve(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("taus, values, message", [
        ([0.0, math.nan, 2.0], [1.0, math.nan, 1.0], "taus"),
        ([0.0, math.inf], [1.0, 1.0], "taus"),
        ([0.0, 1.0], [1.0, math.inf], "finite"),
        ([0.0, 1.0], [math.nan, 1.0], "finite"),
        ([0.0, 1.0], [1.0, -math.inf], "negative"),
    ], ids=["nan-grid", "inf-grid", "inf-value", "nan-value", "-inf-value"])
    def test_nonfinite_curve_rejected(self, taus, values, message):
        with pytest.raises(ValueError, match=message):
            CorrelationCurve(np.array(taus), np.array(values))

    def test_curve_grid_follows_the_grid_rule(self):
        # the curve's grid is refused exactly as check_tau_grid refuses it
        for taus in ([], [[0.0, 1.0]], [-1.0, 0.0], [0.0, 0.0]):
            with pytest.raises(ValueError) as want:
                check_tau_grid(taus)
            with pytest.raises(ValueError) as got:
                CorrelationCurve(np.array(taus), np.ones(np.shape(taus)))
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="matching"):
            CorrelationCurve(np.array([0.0, 1.0]), np.array([1.0]))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            correlation_curve(CascadeParams(), H, H, np.array([0.0, 1.0]),
                              method="magic")

    @pytest.mark.parametrize("method", ["analytic", "numeric"])
    @pytest.mark.parametrize("taus", [
        [], [[0.0, 1.0]], [1.0, 0.5], [0.0, 0.0], [-1.0, 0.0], [0.0, math.nan],
    ], ids=["empty", "2-d", "decreasing", "repeated", "negative", "nan"])
    def test_bad_grids_refused_alike_by_both_routes(self, taus, method):
        with pytest.raises(ValueError) as want:
            check_tau_grid(taus)
        with pytest.raises(ValueError) as got:
            correlation_curve(CascadeParams(rabi=3.0), H, D, taus, method=method)
        assert str(got.value) == str(want.value)
