import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cascadeg2 import (CascadeBatch, CascadeParams, DetectorSetting,
                       degree_from_response, omega_star, two_photon_response)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_input_rejected(self, bad):
        with pytest.raises(ValueError, match=f"delta_fs must be finite, got {bad}"):
            omega_star(bad, 25.0)
        with pytest.raises(ValueError, match=f"detuning must be finite, got {bad}"):
            omega_star(5.0, bad)
        with pytest.raises(ValueError, match="detuning must be finite"):
            omega_star(np.array([1.0, 2.0]), np.array([3.0, bad]))

    def test_elementwise_on_arrays(self):
        delta_fs = np.linspace(0.0, 10.0, 21)
        got = omega_star(delta_fs, 5.0 * delta_fs)
        assert np.array_equal(got, [omega_star(x, 5.0 * x) for x in delta_fs])
        with pytest.raises(ValueError):
            omega_star(delta_fs, -2.0 * delta_fs)

    def test_dressed_resonance_consistency(self):
        # the lower sideband of the starred drive equals the splitting
        rng = np.random.default_rng(43)
        for _ in range(1000):
            delta_fs = rng.uniform(0.0, 20.0)
            detuning = rng.uniform(0.0, 200.0)
            rabi = omega_star(delta_fs, detuning)
            minus = 0.5 * math.hypot(detuning, 2.0 * rabi) - 0.5 * detuning
            assert minus == pytest.approx(delta_fs, rel=1e-12, abs=1e-12)


class TestDetectorSetting:
    def test_nonfinite_angles_rejected(self):
        response = two_photon_response([CascadeParams()])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="theta"):
                DetectorSetting(bad)
            with pytest.raises(ValueError, match="phi"):
                DetectorSetting(0.3, bad)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    degree_from_response(response, bad)


class TestCascadeParams:
    def test_defaults_are_unit_gamma(self):
        params = CascadeParams()
        assert params.gamma1 + params.gamma2 == 1.0
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

    def test_stack_and_table_keep_the_points(self):
        points = [CascadeParams(rabi=float(k), detuning=-k) for k in range(4)]
        batch = CascadeBatch.stack(points)
        assert np.array_equal(batch.table.T, [_row(p) for p in points])
        # a table of the fields as rows, one column per point
        table = np.array([_row(p) for p in points]).T
        assert np.array_equal(CascadeBatch(table).table, batch.table)
        # and no table of another shape
        with pytest.raises(ValueError, match=r"expected a \(10, n\) table"):
            CascadeBatch(np.zeros((3, 2)))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="gama_u"):
            CascadeBatch.broadcast(CascadeParams(), gama_u=[0.0, 1.0])

    def test_each_field_is_its_row_of_the_table(self):
        batch = CascadeBatch.stack([CascadeParams(rabi=float(k), delta_fs=-k)
                                    for k in range(3)])
        for row, name in enumerate(PARAM_FIELDS):
            field = getattr(batch, name)
            assert np.array_equal(field, batch.table[row])
            assert np.shares_memory(field, batch.table)
            assert not field.flags.writeable

    @pytest.mark.parametrize("name", ("table",) + PARAM_FIELDS)
    def test_batch_is_read_only(self, name):
        batch = CascadeBatch.broadcast(CascadeParams(), rabi=[0.0, 1.0])
        before = batch.table.copy()
        with pytest.raises(AttributeError):
            setattr(batch, name, np.zeros_like(getattr(batch, name)))
        with pytest.raises(AttributeError):
            delattr(batch, name)
        assert np.array_equal(batch.table, before)
        assert np.array_equal(batch.rabi, [0.0, 1.0])

    def test_pickle_and_copy_keep_the_batch(self):
        batch = CascadeBatch.broadcast(CascadeParams(), rabi=[0.0, 1.0])
        for twin in (pickle.loads(pickle.dumps(batch)), copy.copy(batch),
                     copy.deepcopy(batch)):
            assert np.array_equal(twin.table, batch.table)
            assert np.shares_memory(twin.rabi, twin.table)
            assert not twin.table.flags.writeable

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
