"""Lindblad generator of the cascade and propagation of vectorized operators.

The generator acts on column-major vectorized 5x5 operators: ``vec(X)[i + 5j]
= X[i, j]``, so ``vec(A X B) = kron(B.T, A) vec(X)``.  The Hamiltonian

    H = delta_fs |X1><X1| - detuning |u><u| - rabi (|X2><u| + |u><X2|)

in the frame rotating at the drive frequency enters as its commutator; the
splitting gives the cross coherence <X1|rho|X2> its e^{-i delta_fs tau} phase.
The seven jumps |lower><upper| at rate r are filled in element by element:
rho_upper,upper feeds rho_lower,lower at rate r, and rho_ij decays at
(out_i + out_j) / 2, out_k being the total rate out of level k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .errors import NumericError
from .model import Level, N_LEVELS, CascadeParams

DIM = N_LEVELS * N_LEVELS

# Default tolerances of the adaptive integrator behind evolve(method="ode"),
# the cross-check of the exact matrix-exponential propagation.
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def vectorize(op: np.ndarray) -> np.ndarray:
    """Column-major vectorization of a 5x5 operator."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"expected a {N_LEVELS}x{N_LEVELS} operator, got {op.shape}")
    return op.reshape(-1, order="F")


def unvectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (DIM,):
        raise ValueError(f"expected a length-{DIM} vector, got {vec.shape}")
    return vec.reshape((N_LEVELS, N_LEVELS), order="F")


@dataclass(frozen=True)
class DensityMatrix:
    """A 5x5 operator over the levels [2X, X1, X2, u, g].

    Physical states are Hermitian, unit trace and positive semidefinite;
    conditional operators fed through the regression pipeline are general
    operators and carry no such constraints.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (N_LEVELS, N_LEVELS):
            raise ValueError(f"expected a {N_LEVELS}x{N_LEVELS} matrix, got {rho.shape}")
        object.__setattr__(self, "rho", rho)

    @classmethod
    def pure(cls, level: Level) -> "DensityMatrix":
        rho = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
        rho[level, level] = 1.0
        return cls(rho)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.rho))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho + self.rho.conj().T))[0])

    def validate_physical(self, herm_tol: float = 1e-12, trace_tol: float = 1e-12,
                          psd_tol: float = 1e-10) -> None:
        """Raise ValueError unless Hermitian, unit-trace and PSD within tolerance."""
        dev = np.max(np.abs(self.rho - self.rho.conj().T))
        if dev > herm_tol:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {dev:.3e}")
        tr_dev = abs(self.trace - 1.0)
        if tr_dev > trace_tol:
            raise ValueError(f"trace deviates from 1 by {tr_dev:.3e}")
        if self.min_eigenvalue < -psd_tol:
            raise ValueError(f"negative eigenvalue {self.min_eigenvalue:.3e}")


@dataclass(frozen=True)
class Liouvillian:
    """Dense 25x25 generator acting on column-major vectorized operators."""

    m: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"expected a {DIM}x{DIM} matrix, got {m.shape}")
        object.__setattr__(self, "m", m)

    def apply(self, op: np.ndarray) -> np.ndarray:
        """Return d(op)/dt as a 5x5 operator."""
        return unvectorize(self.m @ vectorize(op))


def build_generator(params: CascadeParams) -> Liouvillian:
    """Assemble the Lindblad generator for the given cascade parameters."""
    ident = np.eye(N_LEVELS, dtype=complex)

    ham = np.zeros((N_LEVELS, N_LEVELS), dtype=complex)
    ham[Level.X1, Level.X1] = params.delta_fs
    ham[Level.U, Level.U] = -params.detuning
    ham[Level.X2, Level.U] = -params.rabi
    ham[Level.U, Level.X2] = -params.rabi

    jumps = (
        (params.gamma1, Level.TWO_X, Level.X1),
        (params.gamma2, Level.TWO_X, Level.X2),
        (params.gamma3, Level.X1, Level.G),
        (params.gamma4, Level.X2, Level.G),
        (params.gamma_u, Level.X2, Level.U),
        (params.gamma21, Level.X1, Level.X2),
        (params.gamma12, Level.X2, Level.X1),
    )

    m = -1j * (np.kron(ident, ham) - np.kron(ham.T, ident))
    out = np.zeros(N_LEVELS)
    # the population rho_kk sits at vec index k (N_LEVELS + 1)
    for rate, upper, lower in jumps:
        m[lower * (N_LEVELS + 1), upper * (N_LEVELS + 1)] += rate
        out[upper] += rate
    m[np.diag_indices(DIM)] -= 0.5 * np.add.outer(out, out).ravel()
    return Liouvillian(m)


def _as_operator(x0) -> np.ndarray:
    if isinstance(x0, DensityMatrix):
        x0 = x0.rho
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"expected a {N_LEVELS}x{N_LEVELS} operator, got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise NumericError("initial operator contains non-finite entries")
    return x0


def propagate_steps(m: np.ndarray, y0: np.ndarray, taus) -> np.ndarray:
    """Return exp(m tau) @ y0 for every tau of a nondecreasing nonnegative grid.

    ``m`` is any square matrix and ``y0`` a vector or a block of columns.
    The state is stepped from one grid point to the next with one matrix
    exponential per distinct step value (matched exactly), so a uniform grid
    costs a handful of exponentials and matrix products, with no
    discretization error beyond round-off.  Returns an array of shape
    ``(len(taus),) + y0.shape``.
    """
    steps = np.diff(np.asarray(taus, dtype=float), prepend=0.0)
    values, which = np.unique(steps, return_inverse=True)
    props = [expm(m * step) for step in values]
    out = np.empty((steps.size,) + np.shape(y0), dtype=complex)
    y = np.asarray(y0, dtype=complex)
    for k, idx in enumerate(which):
        y = props[idx] @ y
        out[k] = y
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix-exponential propagation overflowed")
    return out


def evolve_grid(gen: Liouvillian, x0, taus) -> np.ndarray:
    """Propagate x0 exactly to every time in ``taus``.

    ``taus`` must be finite, nonnegative and strictly increasing.  Returns an
    array of shape (len(taus), 5, 5).
    """
    x0 = _as_operator(x0)
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus must be a nonempty 1-d array")
    if not np.all(np.isfinite(taus)) or taus[0] < 0 or np.any(np.diff(taus) <= 0):
        raise ValueError("taus must be finite, nonnegative and strictly increasing")
    vecs = propagate_steps(gen.m, vectorize(x0), taus)
    # row k holds vec(X_k) column-major, so the reshape yields X_k transposed
    return vecs.reshape(taus.size, N_LEVELS, N_LEVELS).transpose(0, 2, 1)


def evolve(gen: Liouvillian, x0, tau: float, method: str = "ode") -> np.ndarray:
    """Return exp(M tau) applied to the operator x0.

    method "ode" uses adaptive DOP853 integration at DEFAULT_RTOL and
    DEFAULT_ATOL, kept as an independent cross-check; method "expm" uses the
    dense scaling-and-squaring matrix exponential.  Both agree to better than
    1e-8 over the rate and drive ranges this package sweeps.
    """
    if method not in ("ode", "expm"):
        raise ValueError(f"unknown method {method!r}, expected 'ode' or 'expm'")
    x0 = _as_operator(x0)
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0.0:
        return x0.copy()
    if method == "expm":
        return unvectorize(propagate_steps(gen.m, vectorize(x0), [tau])[0])
    sol = solve_ivp(lambda _t, y: gen.m @ y, (0.0, float(tau)), vectorize(x0),
                    method="DOP853", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise NumericError(f"ODE propagation failed: {sol.message}")
    return unvectorize(sol.y[:, -1])
