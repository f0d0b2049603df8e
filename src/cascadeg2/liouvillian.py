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

The generator is a plain complex array: ``build_generator`` fills one (25,
25) matrix for a CascadeParams point, or a stack of shape (n, 25, 25) for
the n points of a CascadeBatch, entry for entry the same.  ``evolve`` and
``evolve_grid`` take one (25, 25) matrix.

Exact propagation, ``evolve_grid``, goes through ``expm``, a numpy
scaling-and-squaring Padé exponential that takes a whole stack of matrices
at once.  scipy is imported only by ``evolve``, on its first DOP853 solve,
the independent cross-check of that propagation; every other path loads
numpy only.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .model import Level, N_LEVELS, CascadeBatch, CascadeParams

DIM = N_LEVELS * N_LEVELS

# Default tolerances of the adaptive integrator behind evolve, the
# cross-check of the exact matrix-exponential propagation.
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


# Coefficients b_0..b_13 of the [13/13] Padé approximant of exp, divided by
# b_0 so that a zero matrix gives the identity exactly, and the largest
# 1-norm theta_13 at which its backward error stays below the unit roundoff
# of double precision (Higham 2005, Table 2.3).
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of one square matrix or of each matrix of a
    stack of shape (..., n, n).

    Scaling and squaring with the [13/13] Padé approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005) 1179): each matrix is scaled by 2^-s into
    the 1-norm ball of radius theta_13, the approximant is one stacked
    solve, and each result is squared its own s times.  A real input gives
    a real result.  The input must be finite.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    shape, n = a.shape, a.shape[-1]
    a = a.reshape(-1, n, n)
    # s = max(0, ceil(log2(|a|_1 / theta_13))), read off the binary exponent
    mantissa, exponent = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1) / _THETA13)
    s = np.maximum(0, exponent - (mantissa == 0.5))
    a = a * np.exp2(-s)[:, None, None]
    b, eye = _PADE13, np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(s.max(initial=0)):
        square = s > k
        part = r[square]
        r[square] = part @ part
    return r.reshape(shape)


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


def _drive_pattern() -> tuple[np.ndarray, np.ndarray]:
    """Positions (row * DIM + column) and signs s of the entries i rabi s of
    -i[H, rho] in the generator.

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
    return np.concatenate(rows) * DIM + np.concatenate(cols), signs


_DRIVE, _DRIVE_SIGNS = _drive_pattern()

# (rate, upper, lower) of the seven jumps |lower><upper|
_JUMPS = (
    ("gamma1", Level.TWO_X, Level.X1),
    ("gamma2", Level.TWO_X, Level.X2),
    ("gamma3", Level.X1, Level.G),
    ("gamma4", Level.X2, Level.G),
    ("gamma_u", Level.X2, Level.U),
    ("gamma21", Level.X1, Level.X2),
    ("gamma12", Level.X2, Level.X1),
)


def build_generator(params: CascadeParams | CascadeBatch) -> np.ndarray:
    """The Lindblad generator of one parameter point, shape (25, 25), or of
    each point of a CascadeBatch, shape (n, 25, 25)."""
    p = params
    lead = np.shape(p.rabi)
    energy = np.zeros(lead + (N_LEVELS,))
    energy[..., Level.X1] = p.delta_fs
    energy[..., Level.U] = -p.detuning
    # the total rate out of each level, its jumps summed in the order above
    out = np.zeros(lead + (N_LEVELS,))
    out[..., Level.TWO_X] = p.gamma1 + p.gamma2
    out[..., Level.X1] = p.gamma3 + p.gamma21
    out[..., Level.X2] = p.gamma4 + p.gamma_u + p.gamma12

    m = np.zeros(lead + (DIM, DIM), dtype=complex)
    flat = m.reshape(lead + (DIM * DIM,))
    flat[..., _DRIVE] = np.multiply.outer(1j * p.rabi, _DRIVE_SIGNS)
    # the population rho_kk sits at vec index k (N_LEVELS + 1)
    for name, upper, lower in _JUMPS:
        m[..., lower * (N_LEVELS + 1), upper * (N_LEVELS + 1)] = getattr(p, name)
    # rho_ij rotates at -(E_i - E_j) and decays at (out_i + out_j) / 2; each
    # outer difference's [j, i] entry ravels to 5j + i, the vec index of rho_ij
    flat[..., ::DIM + 1] = (
        1j * (energy[..., :, None] - energy[..., None, :])
        - 0.5 * (out[..., :, None] + out[..., None, :])).reshape(lead + (DIM,))
    return m


def _as_generator(gen) -> np.ndarray:
    gen = np.asarray(gen, dtype=complex)
    if gen.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} generator, got {gen.shape}")
    return gen


def _as_operator(x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (N_LEVELS, N_LEVELS):
        raise ValueError(f"expected a {N_LEVELS}x{N_LEVELS} operator, got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise NumericError("initial operator contains non-finite entries")
    return x0


def propagate_steps(m: np.ndarray, y0: np.ndarray, taus) -> np.ndarray:
    """Return exp(m tau) @ y0 for every tau of a grid.

    ``m`` is any square matrix and ``y0`` a vector or a block of columns.
    A uniform grid of n points, ``t_k = t0 + k dt`` with ``dt = (t[-1] -
    t[0]) / (n - 1)``, is filled by doubling: one stacked :func:`expm` call
    gives ``e^{m t0}`` and ``P = e^{m dt}``, the first state is ``e^{m t0}
    y0``, and each round sets states ``h .. 2h - 1`` to ``P^h`` times states
    ``0 .. h - 1`` and squares ``P^h``, so ceil(log2 n) stacked products fill
    the grid.  A grid counts as uniform when every ``t_k`` lies within one
    spacing of ``t0 + k dt``, as every ``linspace`` grid does; treating
    ``t_k`` as ``t0 + k dt`` moves a delay by at most about 2 ulp(tau), so a
    state by at most about ``2 ulp(tau) |m|`` relative to its size.  Any
    other grid (unsorted, repeated or non-uniform) is stepped from one
    point to the next with the propagator of its step, all distinct step
    values exponentiated in one stacked call.  Neither way adds
    discretization error beyond round-off.  Returns an array of shape
    ``(len(taus),) + y0.shape`` and dtype ``result_type(m, y0, float)``, so
    a real block is propagated in real arithmetic.  Raises NumericError if an
    input is not finite or the propagation overflows.
    """
    m, y0, taus = np.asarray(m), np.asarray(y0), np.asarray(taus, dtype=float)
    if not all(np.all(np.isfinite(x)) for x in (m, y0, taus)):
        raise NumericError("non-finite generator, state or delay")
    dtype, n = np.result_type(m, y0, float), taus.size
    # an overflow surfaces as a non-finite entry, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        dt = (taus[-1] - taus[0]) / max(n - 1, 1) if n else 0.0
        uniform = n > 0 and np.all(
            np.abs(taus - (taus[0] + np.arange(n) * dt)) <= np.abs(np.spacing(taus)))
        if uniform:
            out = _fill_by_doubling(m, y0, taus[0], dt, n, dtype)
        else:
            out = _fill_by_stepping(m, y0, taus, dtype)
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix-exponential propagation overflowed")
    return out


def _fill_by_doubling(m, y0, t0, dt, n, dtype):
    """exp(m (t0 + k dt)) @ y0 for k < n, in ceil(log2 n) stacked products."""
    # a one-point grid needs no step propagator
    props = expm(np.array([t0, dt][:n])[:, None, None] * m)
    start, power = props[0], props[-1]
    cols = y0.reshape(y0.shape[0], -1)
    width = cols.shape[1]
    # row block k holds state k transposed, so a round is one matrix product
    rows = np.empty((n * width, y0.shape[0]), dtype=dtype)
    rows[:width] = (start @ cols).T
    h = 1
    while h < n:
        k = min(h, n - h)
        rows[h * width:(h + k) * width] = rows[:k * width] @ power.T
        h *= 2
        if h < n:
            power = power @ power
    return rows.reshape(n, width, -1).swapaxes(1, 2).reshape((n,) + y0.shape)


def _fill_by_stepping(m, y0, taus, dtype):
    """exp(m tau) @ y0 on any grid, one propagator product per point."""
    steps = np.diff(taus, prepend=0.0)
    values, which = np.unique(steps, return_inverse=True)
    out = np.empty((steps.size,) + y0.shape, dtype=dtype)
    y = y0.astype(dtype)
    props = list(expm(values[:, None, None] * m))
    for k, idx in enumerate(which.tolist()):
        y = out[k] = props[idx] @ y
    return out


def check_tau_grid(taus) -> np.ndarray:
    """``taus`` as a float array, which must be a nonempty 1-d grid that is
    finite, nonnegative and strictly increasing; else ValueError."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus must be a nonempty 1-d array")
    # a nan or an inf breaks a strict increase from a nonnegative start to a
    # finite end, so this one pass also proves every delay finite
    if not (taus[0] >= 0 and taus[-1] < np.inf and (taus[1:] > taus[:-1]).all()):
        raise ValueError("taus must be finite, nonnegative and strictly increasing")
    return taus


def evolve_grid(gen: np.ndarray, x0, taus) -> np.ndarray:
    """Propagate x0 exactly to every time in ``taus`` under the (25, 25)
    generator ``gen``.

    ``taus`` must be finite, nonnegative and strictly increasing.  Returns an
    array of shape (len(taus), 5, 5).
    """
    gen, x0, taus = _as_generator(gen), _as_operator(x0), check_tau_grid(taus)
    vecs = propagate_steps(gen, vectorize(x0), taus)
    # row k holds vec(X_k) column-major, so the reshape yields X_k transposed
    return vecs.reshape(taus.size, N_LEVELS, N_LEVELS).transpose(0, 2, 1)


def evolve(gen: np.ndarray, x0, tau: float) -> np.ndarray:
    """Return exp(M tau) applied to the operator x0, M being the (25, 25)
    generator ``gen``, by adaptive DOP853 integration at DEFAULT_RTOL and
    DEFAULT_ATOL.

    The independent cross-check of the exact propagation of
    :func:`evolve_grid`; the two agree to better than 1e-8 over the rate and
    drive ranges this package sweeps.
    """
    gen, x0 = _as_generator(gen), _as_operator(x0)
    if not np.isfinite(tau) or tau < 0:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    if tau == 0.0:
        return x0.copy()
    sol = solve_ivp(lambda _t, y: gen @ y, (0.0, float(tau)), vectorize(x0),
                    method="DOP853", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
    if not sol.success or not np.all(np.isfinite(sol.y)):
        raise NumericError(f"ODE propagation failed: {sol.message}")
    return unvectorize(sol.y[:, -1])
