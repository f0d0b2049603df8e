import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from cascadeg2 import (CascadeBatch, CascadeParams, DetectorSetting, Level,
                       NumericError, build_generator, evolve_grid,
                       g2_numeric_grid, liouvillian, unvectorize, vectorize)
from cascadeg2.correlate import _population_generator, _sector_blocks
from cascadeg2.liouvillian import propagate_steps
from cascadeg2.verify import _eigenvector_propagate

UP, X1, X2, U, G = Level.TWO_X, Level.X1, Level.X2, Level.U, Level.G


def _idx(element):
    i, j = element
    return int(i) + 5 * int(j)


def _random_params(rng, full_range=True):
    gd12 = rng.uniform(0, 2)
    gd21 = rng.uniform(0, 2) if full_range else gd12
    return CascadeParams(
        gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
        gamma3=rng.uniform(0, 2), gamma4=rng.uniform(0, 2),
        gamma_u=rng.uniform(0, 1), gamma12=gd12, gamma21=gd21,
        delta_fs=rng.uniform(-10, 10), rabi=rng.uniform(0, 35),
        detuning=rng.uniform(-100, 100))


def _pure(level):
    rho = np.zeros((5, 5), dtype=complex)
    rho[level, level] = 1.0
    return rho


def _apply(gen, op):
    """d(op)/dt as a 5x5 operator."""
    return unvectorize(gen @ vectorize(op))


def _random_hermitian(rng):
    mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    return mat + mat.conj().T


# Independent coefficient tables for the fourteen equations of motion with
# the intermediate splitting off.  Keys: row element -> {column element: rhs
# coefficient}.  Transcribed by hand, kept separate from the construction
# code on purpose.
def _expected_rows(p: CascadeParams):
    om, dl = p.rabi, p.detuning
    return {
        (UP, X1): {(UP, X1): -0.5 * (p.gamma1 + p.gamma2 + p.gamma3 + p.gamma21)},
        (UP, X2): {(UP, X2): -0.5 * (p.gamma1 + p.gamma2 + p.gamma4
                                     + p.gamma_u + p.gamma12),
                   (UP, U): -1j * om},
        (UP, G): {(UP, G): -0.5 * (p.gamma1 + p.gamma2)},
        (UP, U): {(UP, U): -0.5 * (p.gamma1 + p.gamma2) - 1j * dl,
                  (UP, X2): -1j * om},
        (X1, G): {(X1, G): -0.5 * (p.gamma3 + p.gamma21)},
        (X1, U): {(X1, U): -0.5 * (p.gamma3 + p.gamma21) - 1j * dl,
                  (X1, X2): -1j * om},
        (X1, X2): {(X1, X2): -0.5 * (p.gamma3 + p.gamma4 + p.gamma_u
                                     + p.gamma21 + p.gamma12),
                   (X1, U): -1j * om},
        (X2, G): {(X2, G): -0.5 * (p.gamma4 + p.gamma_u + p.gamma12),
                  (U, G): 1j * om},
        (X2, U): {(X2, U): -0.5 * (p.gamma4 + p.gamma_u + p.gamma12) - 1j * dl,
                  (X2, X2): -1j * om, (U, U): 1j * om},
        (U, G): {(U, G): 1j * dl, (X2, G): 1j * om},
        (UP, UP): {(UP, UP): -(p.gamma1 + p.gamma2)},
        (X1, X1): {(X1, X1): -(p.gamma3 + p.gamma21), (UP, UP): p.gamma1,
                   (X2, X2): p.gamma12},
        (X2, X2): {(X2, X2): -(p.gamma4 + p.gamma_u + p.gamma12),
                   (UP, UP): p.gamma2, (X1, X1): p.gamma21,
                   (U, X2): 1j * om, (X2, U): -1j * om},
        (U, U): {(X2, X2): p.gamma_u, (U, X2): -1j * om, (X2, U): 1j * om},
    }


# The generator in its textbook superoperator form, kept here as the reference
# for the element fill of build_generator: the Hamiltonian commutator plus,
# for each jump L = |lower><upper| at rate r,
# r (kron(L*, L) - 1/2 kron(I, L^dag L) - 1/2 kron((L^dag L)^T, I)).
def _textbook_generator(p: CascadeParams) -> np.ndarray:
    ident = np.eye(5, dtype=complex)
    ham = np.zeros((5, 5), dtype=complex)
    ham[X1, X1] = p.delta_fs
    ham[U, U] = -p.detuning
    ham[X2, U] = ham[U, X2] = -p.rabi
    m = -1j * (np.kron(ident, ham) - np.kron(ham.T, ident))
    for rate, upper, lower in ((p.gamma1, UP, X1), (p.gamma2, UP, X2),
                               (p.gamma3, X1, G), (p.gamma4, X2, G),
                               (p.gamma_u, X2, U), (p.gamma21, X1, X2),
                               (p.gamma12, X2, X1)):
        lop = np.zeros((5, 5), dtype=complex)
        lop[lower, upper] = 1.0
        ldl = lop.conj().T @ lop
        m += rate * (np.kron(lop.conj(), lop) - 0.5 * np.kron(ident, ldl)
                     - 0.5 * np.kron(ldl.T, ident))
    return m


_RATE = st.floats(0.0, 2.0)
_PARAMS = st.builds(
    CascadeParams, gamma1=_RATE, gamma2=_RATE, gamma3=_RATE, gamma4=_RATE,
    gamma_u=st.floats(0.0, 1.0), gamma12=_RATE, gamma21=_RATE,
    delta_fs=st.floats(-10.0, 10.0), rabi=st.floats(0.0, 35.0),
    detuning=st.floats(-100.0, 100.0))


def _blocks_times_tau(params, tau):
    """The real population block and the 9x9 averaged generator sector in
    its real basis, an undriven one decoupled as the grid route propagates
    it, times tau."""
    return _population_generator(params) * tau, _sector_blocks(params) * tau


def _mp_expm(a):
    """e^a from a 30-digit mpmath exponential."""
    with mpmath.workdps(30):
        exp = mpmath.expm(mpmath.matrix(
            [[mpmath.mpc(complex(x)) for x in row] for row in a]))
        return np.array([[complex(exp[i, j]) for j in range(a.shape[1])]
                         for i in range(a.shape[0])])


def _deviation(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


_TAU = st.floats(0.0, 50.0)
# the strongest drive and detuning at the longest delay
_EXTREME = CascadeParams(delta_fs=10.0, rabi=35.0, detuning=-100.0,
                         gamma12=2.0, gamma21=2.0, gamma_u=1.0)


class TestMatrixExponential:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(_PARAMS, _TAU)
    @example(_EXTREME, 50.0)
    def test_matches_scipy_on_blocks(self, params, tau):
        # scipy itself is 1.2e-11 off the exact rotation by 1026 rad, where
        # this exponential is 3e-14 off; see the 30-digit reference below
        for a in _blocks_times_tau(params, tau):
            got = liouvillian.expm(a)
            assert got.dtype == a.dtype
            assert _deviation(got, expm(a)) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(_PARAMS, _TAU)
    @example(_EXTREME, 50.0)
    @example(CascadeParams(detuning=17.0, delta_fs=2.2250738585e-313,
                           rabi=3.0), 50.0)
    def test_matches_high_precision_exponential(self, params, tau):
        for a in _blocks_times_tau(params, tau):
            assert _deviation(liouvillian.expm(a), _mp_expm(a)) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=8)
    @given(_PARAMS)
    @example(_EXTREME)
    def test_doubling_matches_high_precision_at_grid_end(self, params):
        # the last of 1000 delays over [0, 50] is reached through nine
        # squarings of e^{M dt}; the whole propagator is pinned, so every y0
        for m in _blocks_times_tau(params, 1.0):
            y0 = np.eye(len(m))
            last = propagate_steps(m, y0, np.linspace(0.0, 50.0, 1000))[-1]
            assert _deviation(last, _mp_expm(m * 50.0) @ y0) <= 1e-12

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(liouvillian.expm(np.zeros((4, 4))), np.eye(4))
        stack = liouvillian.expm(np.zeros((2, 3, 9, 9), dtype=complex))
        assert stack.dtype == np.complex128
        assert np.array_equal(stack, np.broadcast_to(np.eye(9), (2, 3, 9, 9)))

    def test_one_matrix_and_a_real_stack(self):
        rng = np.random.default_rng(10)
        one = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert liouvillian.expm(one).shape == (5, 5)
        assert _deviation(liouvillian.expm(one), expm(one)) <= 1e-13
        # 1-norms from 1e-3 to 1e3, so each matrix takes its own squarings
        stack = rng.normal(size=(7, 5, 5)) * np.logspace(-3, 2, 7)[:, None, None]
        got = liouvillian.expm(stack)
        assert got.dtype == np.float64 and got.shape == (7, 5, 5)
        for a, e in zip(stack, got):
            assert _deviation(e, expm(a)) <= 1e-11

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_stack_slices_have_the_bits_of_one_matrix(self, n, dtype):
        # one matrix keeps its rank, and each matrix of a stack is scaled
        # and squared by its own count: every slice of a stack, with equal
        # and with mixed squaring counts, is the one-matrix call to the bit
        rng = np.random.default_rng(n)
        base = rng.normal(size=(6, n, n)).astype(dtype)
        if dtype is complex:
            base += 1j * rng.normal(size=(6, n, n))
        base /= np.linalg.norm(base, 1, axis=(1, 2))[:, None, None]
        # 1-norm 20 takes 2 squarings each; 1e-3 to 1e2 take 0 to 5
        for norms in (np.full(6, 20.0), np.logspace(-3, 2, 6)):
            stack = base * norms[:, None, None]
            got = liouvillian.expm(stack)
            assert got.dtype == stack.dtype and got.shape == stack.shape
            assert np.array_equal(liouvillian.expm(stack.reshape(2, 3, n, n)),
                                  got.reshape(2, 3, n, n))
            for a, e in zip(stack, got):
                one = liouvillian.expm(a)
                assert one.shape == (n, n) and one.dtype == e.dtype
                assert np.array_equal(one, e)

    @pytest.mark.parametrize("bad", ["m", "y0", "taus"])
    def test_nonfinite_input_to_propagate_steps(self, bad):
        args = {"m": -np.eye(3), "y0": np.ones(3), "taus": [0.0, 1.0]}
        args[bad] = np.full(np.shape(args[bad]), np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                propagate_steps(args["m"], args["y0"], args["taus"])

    def test_overflow_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflowed"):
                propagate_steps(800.0 * np.eye(3), np.ones(3), [0.0, 1.0])


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        op = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(unvectorize(vectorize(op)), op)

    def test_column_major_convention(self):
        op = np.arange(25, dtype=complex).reshape(5, 5)
        vec = vectorize(op)
        for i in range(5):
            for j in range(5):
                assert vec[i + 5 * j] == op[i, j]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            vectorize(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            unvectorize(np.zeros(24))


class TestGeneratorCoefficients:
    def test_equation_rows_match_at_zero_splitting(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            params = _random_params(rng).with_(delta_fs=0.0)
            gen = build_generator(params)
            for element, expected in _expected_rows(params).items():
                row = gen[_idx(element)].copy()
                target = np.zeros(25, dtype=complex)
                for col, coeff in expected.items():
                    target[_idx(col)] = coeff
                # coefficient-by-coefficient, including absent entries
                assert np.max(np.abs(row - target)) <= 1e-14

    @settings(derandomize=True, deadline=None)
    @given(_PARAMS)
    @example(CascadeParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0,
                           delta_fs=4.0, rabi=35.0, detuning=-100.0))
    def test_element_fill_matches_textbook_form(self, params):
        # all 625 entries, any splitting, zero and asymmetric rates
        diff = build_generator(params) - _textbook_generator(params)
        assert np.max(np.abs(diff)) <= 1e-15

    @settings(derandomize=True, deadline=None)
    @given(st.lists(_PARAMS, min_size=1, max_size=6))
    def test_stack_equals_one_point_builds(self, points):
        stack = build_generator(CascadeBatch.stack(points))
        assert stack.shape == (len(points), 25, 25)
        for gen, params in zip(stack, points):
            assert gen.tobytes() == build_generator(params).tobytes()

    def test_splitting_enters_intermediate_coherences(self):
        base = CascadeParams(delta_fs=0.0, rabi=3.0, detuning=7.0)
        split = base.with_(delta_fs=4.0)
        diff = build_generator(split) - build_generator(base)
        assert diff[_idx((X1, X2)), _idx((X1, X2))] == pytest.approx(-4.0j)
        assert diff[_idx((X1, U)), _idx((X1, U))] == pytest.approx(-4.0j)
        assert diff[_idx((X2, X1)), _idx((X2, X1))] == pytest.approx(4.0j)
        assert diff[_idx((U, X1)), _idx((U, X1))] == pytest.approx(4.0j)
        # populations never acquire splitting terms
        for pop in ((UP, UP), (X1, X1), (X2, X2), (U, U), (G, G)):
            assert diff[_idx(pop), _idx(pop)] == 0.0

    def test_frozen_dynamics(self):
        params = CascadeParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0)
        assert np.all(build_generator(params) == 0.0)

    def test_trace_preservation(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            gen = build_generator(_random_params(rng))
            worst = max(worst, abs(np.trace(_apply(gen, _random_hermitian(rng)))))
        assert worst <= 1e-12

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            gen = build_generator(_random_params(rng))
            out = _apply(gen, _random_hermitian(rng))
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12


class TestEvolve:
    def test_identity_at_tau_zero(self):
        gen = build_generator(CascadeParams(delta_fs=3.0, rabi=2.0))
        rho = _pure(UP)
        assert np.array_equal(evolve_grid(gen, rho, [0.0])[0], rho)

    def test_upper_level_decay_decouples(self):
        # the 2X population decays at gamma1 + gamma2 for any parameters
        rng = np.random.default_rng(4)
        taus = np.linspace(0.1, 5.0, 20)
        for _ in range(3):
            params = _random_params(rng)
            gen = build_generator(params)
            states = evolve_grid(gen, _pure(UP), taus)
            pop = states[:, UP, UP].real
            rate = params.gamma1 + params.gamma2
            assert np.max(np.abs(pop - np.exp(-rate * taus))) < 1e-8

    def test_rabi_oscillation_oracle(self):
        # lossless driven pair: X2 population is cos^2(rabi * tau)
        params = CascadeParams(gamma1=0, gamma2=0, gamma3=0, gamma4=0, rabi=1.0)
        gen = build_generator(params)
        taus = np.linspace(0.05, 6.0, 60)
        states = evolve_grid(gen, _pure(X2), taus)
        pop = states[:, X2, X2].real
        assert np.max(np.abs(pop - np.cos(taus) ** 2)) < 1e-8

    def test_cascade_conservation(self):
        # everything ends in the ground level without drive or side channels
        gen = build_generator(CascadeParams())
        final = evolve_grid(gen, _pure(UP), [50.0])[0]
        assert abs(final[G, G].real - 1.0) < 1e-8

    def test_eigenvectors_and_expm_agree(self):
        # eigenvector propagation shares no code with expm
        rng = np.random.default_rng(5)
        for _ in range(4):
            gen = build_generator(_random_params(rng))
            x0 = _random_hermitian(rng)
            tau = rng.uniform(0.2, 4.0)
            state, _cond = _eigenvector_propagate(gen, vectorize(x0), tau)
            diff = unvectorize(state) - evolve_grid(gen, x0, [tau])[0]
            assert np.max(np.abs(diff)) < 1e-8

    def test_semigroup_property(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            gen = build_generator(_random_params(rng))
            x0 = _pure(UP)
            t1, t2 = rng.uniform(0.2, 3.0, size=2)
            via = evolve_grid(gen, evolve_grid(gen, x0, [t1])[0], [t2])[0]
            direct = evolve_grid(gen, x0, [t1 + t2])[0]
            assert np.max(np.abs(via - direct)) < 1e-8

    def test_positivity_along_evolution(self):
        rng = np.random.default_rng(7)
        taus = np.linspace(0.1, 20.0, 200)
        for _ in range(4):
            gen = build_generator(_random_params(rng))
            states = evolve_grid(gen, _pure(UP), taus)
            for state in states:
                sym = 0.5 * (state + state.conj().T)
                assert np.linalg.eigvalsh(sym)[0] > -1e-10

    def test_state_invariants_preserved(self):
        gen = build_generator(CascadeParams(delta_fs=5.0, rabi=8.0,
                                            detuning=12.0, gamma12=0.4,
                                            gamma21=0.4, gamma_u=0.01))
        state = evolve_grid(gen, _pure(UP), [1.7])[0]
        assert np.max(np.abs(state - state.conj().T)) <= 1e-12
        assert abs(np.trace(state) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(0.5 * (state + state.conj().T))[0] >= -1e-10

    def test_nonfinite_input_rejected(self):
        gen = build_generator(CascadeParams())
        bad = np.full((5, 5), np.nan, dtype=complex)
        with pytest.raises(NumericError):
            evolve_grid(gen, bad, [1.0])

    def test_generator_shape_checked(self):
        stack = build_generator(CascadeBatch.stack([CascadeParams()] * 2))
        for bad in (stack, stack[0, :5, :5]):
            with pytest.raises(ValueError, match="25x25 generator"):
                evolve_grid(bad, _pure(UP), [0.0, 1.0])
        # and the operator it propagates
        with pytest.raises(ValueError, match="expected a 5x5 operator"):
            evolve_grid(build_generator(CascadeParams()), np.zeros((4, 4)), [1.0])

    def test_negative_tau_rejected(self):
        gen = build_generator(CascadeParams())
        with pytest.raises(ValueError):
            evolve_grid(gen, _pure(UP), [-1.0])

    def test_step_propagators_exact_on_uniform_grid(self, monkeypatch):
        # a uniform grid from 0 is filled by doubling: one exponential call,
        # e^{M dt}, and the first state is rho itself; every point matches a
        # direct exponential to round-off
        gen = build_generator(CascadeParams(delta_fs=3.0, rabi=7.0, detuning=11.0,
                                            gamma12=0.4, gamma21=0.4,
                                            gamma_u=0.01))
        rho = _pure(UP)
        taus = np.linspace(0.0, 10.0, 100)
        calls = []

        def counted(mat):
            calls.append(mat)
            return expm(mat)

        monkeypatch.setattr(liouvillian, "expm", counted)
        states = evolve_grid(gen, rho, taus)
        assert len(calls) == 1
        assert calls[0].shape == (25, 25)
        assert np.array_equal(states[0], rho)
        monkeypatch.undo()
        for tau, state in zip(taus[::9], states[::9]):
            direct = evolve_grid(gen, rho, [tau])[0]
            assert np.max(np.abs(state - direct)) < 1e-13

    def test_step_propagators_accept_any_square_block(self, monkeypatch):
        rng = np.random.default_rng(8)
        mat = rng.normal(size=(4, 4)) - 3.0 * np.eye(4)
        cols = np.eye(4, 2)
        sizes = []

        def counted(stack):
            # the number of matrices, one for a single (4, 4) matrix
            sizes.append(int(np.prod(np.shape(stack)[:-2])))
            return expm(stack)

        monkeypatch.setattr(liouvillian, "expm", counted)
        # a repeated delay, a geometric, a decreasing and a shuffled grid
        # take one matrix per delay, all in one stacked call; the last point
        # of linspace(0, 7.3, 4) is 1 ulp off t0 + 3 dt, which still counts
        # as uniform and is filled by doubling from 0, with e^{M dt} alone;
        # one point needs no step propagator
        for taus, matrices in (([0.0, 0.3, 0.3, 1.1, 2.6], 5),
                               (np.geomspace(0.01, 5.0, 9), 9),
                               (np.linspace(7.3, 0.0, 6), 6),
                               (rng.permutation(np.linspace(0.0, 7.3, 8)), 8),
                               (np.linspace(0.0, 7.3, 4), 1), ([2.6], 1)):
            sizes.clear()
            out = propagate_steps(mat, cols, taus)
            assert sizes == [matrices]
            assert out.shape == (len(taus), 4, 2)
            for tau, block in zip(taus, out):
                assert np.max(np.abs(block - expm(mat * tau) @ cols)) < 1e-13

    def test_uniform_grid_from_zero_starts_at_y0(self, monkeypatch):
        # from 0 the one exponential is e^{M dt}, a single matrix, and the
        # first state is y0 itself; from t0 > 0 one stacked call of two
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(5, 5)) - 3.0 * np.eye(5)
        y0 = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        shapes = []

        def counted(stack):
            shapes.append(np.shape(stack))
            return expm(stack)

        monkeypatch.setattr(liouvillian, "expm", counted)
        for t0, want in ((0.0, [(5, 5)]), (0.5, [(2, 5, 5)])):
            shapes.clear()
            taus = np.linspace(t0, t0 + 3.0, 17)
            out = propagate_steps(mat, y0, taus)
            assert shapes == want
            if t0 == 0.0:
                assert np.array_equal(out[0], y0)
            for tau, block in zip(taus, out):
                assert np.max(np.abs(block - expm(mat * tau) @ y0)) < 1e-13

    def test_step_propagators_keep_a_real_block_real(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(5, 5)) - 3.0 * np.eye(5)
        out = propagate_steps(mat, np.eye(5, 2), np.linspace(0.0, 2.0, 7))
        assert out.dtype == np.float64
        complex_out = propagate_steps(mat, np.eye(5, 2, dtype=complex),
                                      np.linspace(0.0, 2.0, 7))
        assert complex_out.dtype == np.complex128
        assert np.max(np.abs(out - complex_out)) < 1e-13
        # integer input is not truncated to an integer state
        decay = propagate_steps(-np.eye(2, dtype=int), np.ones(2, dtype=int),
                                [0.0, 1.0])
        assert decay.dtype == np.float64
        assert np.max(np.abs(decay[1] - np.exp(-1.0))) < 1e-15

    def test_grid_must_increase(self):
        gen = build_generator(CascadeParams())
        rho = _pure(UP)
        with pytest.raises(ValueError):
            evolve_grid(gen, rho, np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("taus", [
        [], [[0.0, 1.0]], [-0.5, 1.0], [0.0, np.nan], [0.0, np.inf],
        [0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_bad_grids_rejected_by_both_grid_routes(self, taus):
        params = CascadeParams(delta_fs=2.0, rabi=3.0)
        det = DetectorSetting(0.3)
        with pytest.raises(ValueError, match="taus"):
            evolve_grid(build_generator(params), _pure(UP), taus)
        with pytest.raises(ValueError, match="taus"):
            g2_numeric_grid(params, det, det, taus)

