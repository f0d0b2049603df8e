import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascadeg2 import (CascadeBatch, CascadeParams, DetectorSetting,
                       degree_of_correlation, degree_of_correlation_instant,
                       omega_pm, omega_star, polarization_rotation)
from cascadeg2.model import PARAM_FIELDS


class TestOmegaStar:
    def test_drive_condition_split5(self):
        # drive that re-degenerates the dressed state at delta = 5 x splitting
        value = omega_star(5.0, 25.0)
        assert value == pytest.approx(math.sqrt(150.0), rel=1e-15)
        assert value == pytest.approx(12.247, abs=5e-4)

    def test_zero_splitting_needs_no_drive(self):
        assert omega_star(0.0, 7.0) == 0.0
        assert omega_star(0.0, 0.0) == 0.0

    def test_derived_value_split10(self):
        value = omega_star(10.0, 100.0)
        assert value == pytest.approx(math.sqrt(1100.0), rel=1e-15)
        # the published rounded field strength is 3.5 x splitting
        assert value / 10.0 == pytest.approx(3.5, abs=0.2)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            omega_star(1.0, -2.0)

    def test_negative_splitting_rejected(self):
        with pytest.raises(ValueError):
            omega_star(-1.0, 0.0)

    def test_elementwise_on_arrays(self):
        delta_fs = np.linspace(0.0, 10.0, 21)
        got = omega_star(delta_fs, 5.0 * delta_fs)
        assert np.array_equal(got, [omega_star(x, 5.0 * x) for x in delta_fs])
        with pytest.raises(ValueError):
            omega_star(delta_fs, -2.0 * delta_fs)


class TestOmegaPm:
    def test_resonant_reduces_to_rabi(self):
        assert omega_pm(1.0, 0.0) == pytest.approx((1.0, 1.0), rel=1e-15)

    def test_detuned_sidebands(self):
        plus, minus = omega_pm(math.sqrt(150.0), 25.0)
        assert plus == pytest.approx(30.0, rel=1e-13)
        assert minus == pytest.approx(5.0, rel=1e-13)

    def test_no_drive_bare_detuning(self):
        assert omega_pm(0.0, 7.0) == pytest.approx((7.0, 0.0), abs=1e-15)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            omega_pm(-0.5, 0.0)

    def test_sum_and_product_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rabi = rng.uniform(0.0, 50.0)
            detuning = rng.uniform(-100.0, 100.0)
            plus, minus = omega_pm(rabi, detuning)
            total = math.sqrt(detuning ** 2 + 4.0 * rabi ** 2)
            assert plus + minus == pytest.approx(total, rel=1e-12, abs=1e-12)
            assert plus * minus == pytest.approx(rabi ** 2, rel=1e-12, abs=1e-12)

    def test_dressed_resonance_consistency(self):
        # the lower sideband of the starred drive equals the splitting
        rng = np.random.default_rng(43)
        for _ in range(1000):
            delta_fs = rng.uniform(0.0, 20.0)
            detuning = rng.uniform(0.0, 200.0)
            _, minus = omega_pm(omega_star(delta_fs, detuning), detuning)
            assert minus == pytest.approx(delta_fs, rel=1e-12, abs=1e-12)


class TestPolarizationRotation:
    def test_identity_at_zero(self):
        assert np.allclose(polarization_rotation(0.0, 0.0), np.eye(2))

    def test_diagonal_basis(self):
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(polarization_rotation(math.pi / 4.0, 0.0), expected)

    def test_unitary_everywhere(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            mat = polarization_rotation(rng.uniform(-np.pi, np.pi),
                                        rng.uniform(-np.pi, np.pi))
            dev = np.max(np.abs(mat @ mat.conj().T - np.eye(2)))
            assert dev < 1e-14

    def test_detector_vectors_orthonormal(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            det = DetectorSetting(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            vecs = det.unit_vectors()
            gram = vecs @ vecs.conj().T
            assert np.max(np.abs(gram - np.eye(2))) < 1e-14

    def test_nonfinite_angles_rejected(self):
        params = CascadeParams()
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="theta"):
                DetectorSetting(bad)
            with pytest.raises(ValueError, match="phi"):
                DetectorSetting(0.3, bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    degree_of_correlation(params, bad)
                with pytest.raises(ValueError, match="must be finite"):
                    degree_of_correlation_instant(params, bad, 1.0)


class TestCascadeParams:
    def test_defaults_are_unit_gamma(self):
        params = CascadeParams()
        assert params.gamma == 1.0
        assert params.gamma3 == params.gamma4 == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            CascadeParams(gamma3=-0.1)
        with pytest.raises(ValueError):
            CascadeParams(rabi=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CascadeParams(delta_fs=float("nan"))

    def test_non_number_rejected(self):
        # numpy would read the string as 1.0; the field must be a number
        with pytest.raises(TypeError):
            CascadeParams(gamma3="1")

    def test_gamma_d_requires_symmetry(self):
        assert CascadeParams(gamma12=0.3, gamma21=0.3).gamma_d == 0.3
        with pytest.raises(ValueError):
            _ = CascadeParams(gamma12=0.3, gamma21=0.4).gamma_d

    def test_symmetric_rate_combinations(self):
        params = CascadeParams(gamma12=0.5, gamma21=0.5, gamma_u=0.3)
        assert params.big_gamma == pytest.approx(1.0 + 0.5 + 0.1)
        assert params.big_gamma1 == pytest.approx(1.0 + 0.5 + 0.3)
        with pytest.raises(ValueError):
            _ = CascadeParams(gamma3=1.0, gamma4=2.0).big_gamma

    def test_with_returns_modified_copy(self):
        base = CascadeParams()
        changed = base.with_(delta_fs=5.0)
        assert changed.delta_fs == 5.0
        assert base.delta_fs == 0.0


_BAD_VALUES = st.one_of(st.floats(max_value=-1e-300), st.just(math.inf),
                        st.just(-math.inf), st.just(math.nan))


def _row(params):
    """The fields of one point, in the order of a batch table's rows."""
    return [getattr(params, name) for name in PARAM_FIELDS]


class TestCascadeBatch:
    def test_broadcast_sets_axes_and_keeps_the_base(self):
        base = CascadeParams(gamma_u=0.01, delta_fs=5.0)
        xs = np.linspace(0.0, 2.0, 5)
        batch = CascadeBatch.broadcast(base, gamma12=xs, gamma21=xs)
        assert len(batch) == 5
        assert np.array_equal(batch.gamma12, xs)
        assert np.array_equal(batch.gamma21, xs)
        assert np.array_equal(batch.delta_fs, np.full(5, 5.0))
        point = base.with_(gamma12=xs[3], gamma21=xs[3])
        assert np.array_equal(batch.table[:, 3], _row(point))

    def test_broadcast_of_two_axes_follows_c_order(self):
        batch = CascadeBatch.broadcast(CascadeParams(), rabi=[[1.0], [2.0]],
                                       detuning=[3.0, 4.0, 5.0])
        assert np.array_equal(batch.rabi, [1, 1, 1, 2, 2, 2])
        assert np.array_equal(batch.detuning, [3, 4, 5, 3, 4, 5])

    def test_stack_and_concatenate_keep_the_points(self):
        points = [CascadeParams(rabi=float(k), detuning=-k) for k in range(4)]
        batch = CascadeBatch.stack(points)
        assert np.array_equal(batch.table.T, [_row(p) for p in points])
        joined = CascadeBatch.concatenate([CascadeBatch.stack(points[:1]),
                                           CascadeBatch.stack(points[1:])])
        assert np.array_equal(joined.table, batch.table)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="gama_u"):
            CascadeBatch.broadcast(CascadeParams(), gama_u=[0.0, 1.0])

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.sampled_from(PARAM_FIELDS), _BAD_VALUES,
           st.integers(1, 6), st.data())
    def test_validation_matches_cascade_params(self, name, bad, n, data):
        if name in ("delta_fs", "detuning") and math.isfinite(bad):
            bad = math.inf  # signed fields may be negative
        with pytest.raises(ValueError) as single:
            CascadeParams(**{name: bad})
        axis = np.ones(n)
        axis[data.draw(st.integers(0, n - 1))] = bad
        with pytest.raises(ValueError) as batched:
            CascadeBatch.broadcast(CascadeParams(), **{name: axis})
        assert str(batched.value) == str(single.value)
