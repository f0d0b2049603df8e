"""Lindblad generator of the cascade and propagation of vectorized operators.

The generator acts on column-major vectorized 5x5 operators: ``vec(X)[i + 5j]
= X[i, j]``, so ``vec(A X B) = kron(B.T, A) vec(X)``.  The Hamiltonian

    H = delta_fs |X1><X1| - detuning |u><u| - rabi (|X2><u| + |u><X2|)

in the frame rotating at the drive frequency enters as its commutator, and the
seven jumps |lower><upper| at rate r with it; all are filled in element by
element.  rho_ij rotates at -(E_i - E_j), E_k being the diagonal of H, so the
splitting gives the cross coherence <X1|rho|X2> its e^{-i delta_fs tau} phase;
the drive adds 20 off-diagonal entries.  rho_upper,upper feeds
rho_lower,lower at rate r, and rho_ij decays at (out_i + out_j) / 2, out_k
being the total rate out of level k.

scipy is imported on first use: ``scipy.linalg`` by the first matrix
exponential and ``scipy.integrate`` by the first ODE solve, so the closed-form
time averages behind figures, degree, Bell and sweeps load numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import Level, N_LEVELS, CascadeParams

DIM = N_LEVELS * N_LEVELS

# Default tolerances of the adaptive integrator behind evolve(method="ode"),
# the cross-check of the exact matrix-exponential propagation.
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def expm(m: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(m)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


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


def _drive_pattern() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vec rows, columns and signs s of the entries i rabi s of -i[H, rho].

    They come from the drive H_ab = -rabi, (a, b) = (X2, u) and (u, X2):
    (H rho)_aj takes rho_bj and (rho H)_ib takes rho_ia, for every level i
    and j.  The 20 entries are distinct and off the diagonal.
    """
    levels = np.arange(N_LEVELS)
    rows, cols = [], []
    for a, b in ((Level.X2, Level.U), (Level.U, Level.X2)):
        rows += [a + N_LEVELS * levels, levels + N_LEVELS * b]
        cols += [b + N_LEVELS * levels, levels + N_LEVELS * a]
    signs = np.tile(np.repeat([1.0, -1.0], N_LEVELS), 2)
    return np.concatenate(rows), np.concatenate(cols), signs


_DRIVE_ROWS, _DRIVE_COLS, _DRIVE_SIGNS = _drive_pattern()


def build_generator(params: CascadeParams) -> Liouvillian:
    """Assemble the Lindblad generator for the given cascade parameters."""
    energy = np.zeros(N_LEVELS)
    energy[Level.X1] = params.delta_fs
    energy[Level.U] = -params.detuning

    jumps = (
        (params.gamma1, Level.TWO_X, Level.X1),
        (params.gamma2, Level.TWO_X, Level.X2),
        (params.gamma3, Level.X1, Level.G),
        (params.gamma4, Level.X2, Level.G),
        (params.gamma_u, Level.X2, Level.U),
        (params.gamma21, Level.X1, Level.X2),
        (params.gamma12, Level.X2, Level.X1),
    )

    m = np.zeros((DIM, DIM), dtype=complex)
    m[_DRIVE_ROWS, _DRIVE_COLS] = 1j * params.rabi * _DRIVE_SIGNS
    out = np.zeros(N_LEVELS)
    # the population rho_kk sits at vec index k (N_LEVELS + 1)
    for rate, upper, lower in jumps:
        m[lower * (N_LEVELS + 1), upper * (N_LEVELS + 1)] += rate
        out[upper] += rate
    # rho_ij rotates at -(E_i - E_j) and decays at (out_i + out_j) / 2; each
    # outer product's [j, i] entry ravels to 5j + i, the vec index of rho_ij
    m.flat[::DIM + 1] = (1j * np.subtract.outer(energy, energy)
                         - 0.5 * np.add.outer(out, out)).ravel()
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


def _flush_subnormal(a: np.ndarray) -> np.ndarray:
    """Zero the subnormal real and imaginary parts of ``a`` in place.

    scipy's expm divides by differences of diagonal entries, which overflows
    when one is subnormal; each dropped part is below 2.3e-308.
    """
    parts = a.view(a.real.dtype)  # real and imaginary parts side by side
    parts[np.abs(parts) < np.finfo(parts.dtype).tiny] = 0.0
    return a


def propagate_steps(m: np.ndarray, y0: np.ndarray, taus) -> np.ndarray:
    """Return exp(m tau) @ y0 for every tau of a nondecreasing nonnegative grid.

    ``m`` is any square matrix and ``y0`` a vector or a block of columns.
    The state is stepped from one grid point to the next with one matrix
    exponential per distinct step value (matched exactly), so a uniform grid
    costs a handful of exponentials and matrix products, with no
    discretization error beyond round-off.  Returns an array of shape
    ``(len(taus),) + y0.shape`` and dtype ``result_type(m, y0)``, so a real
    block steps in real arithmetic.
    """
    steps = np.diff(np.asarray(taus, dtype=float), prepend=0.0)
    values, which = np.unique(steps, return_inverse=True)
    # C order, so that the stack of every m * step views as real pairs
    scaled = _flush_subnormal(values[:, None, None] * np.ascontiguousarray(m))
    props = [expm(a) for a in scaled]
    dtype = np.result_type(m, y0)
    out = np.empty((steps.size,) + np.shape(y0), dtype=dtype)
    y = np.asarray(y0, dtype=dtype)
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
