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

The generator is a plain complex array, filled by one rule over a tuple of
levels (``_fill_levels``): the block of the elements rho_ij with i and j
among the levels, its drive, jump and diagonal positions in constant
tables built once per tuple (``_fill_tables``).  ``build_generator`` is
that fill over all five levels, one (25, 25) matrix for a CascadeParams
point or a stack of shape (n, 25, 25) for the n points of a CascadeBatch,
entry for entry the same; :mod:`cascadeg2.correlate` fills the 9x9 block
of {X1, X2, u} alone, entry for entry the generator's.  ``evolve_grid``
takes one (25, 25) matrix.

Exact propagation, ``evolve_grid``, goes through ``propagate_steps`` and
``expm``, a numpy scaling-and-squaring Padé exponential that takes one
matrix as one matrix, or a whole stack of matrices at once, its four
polynomial pieces one coefficient product on the stacked powers.  A
uniform grid from 0 costs one exponential, of the step.
``propagate_steps`` checks the state and the delays, then calls its core,
``_propagate``, which ``evolve_grid`` and the routes of
:mod:`cascadeg2.correlate` call directly on the grids and states they have
already checked.  The identity of each size is built once, on its first
use, and shared read-only (``_identity``): ``expm`` stacks it as the
zeroth power, and :mod:`cascadeg2.correlate` decouples the u elements of
an undriven block with it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericError
from .model import Level, N_LEVELS, CascadeBatch, CascadeParams

DIM = N_LEVELS * N_LEVELS

# Coefficients b_0..b_13 of the [13/13] Padé approximant of exp, divided by
# b_0 so that a zero matrix gives the identity exactly, and the largest
# 1-norm theta_13 at which its backward error stays below the unit roundoff
# of double precision (Higham 2005, Table 2.3).
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152
# The approximant is r = (v - u)^-1 (v + u) with u = A (A^6 U1 + U2) and
# v = A^6 V1 + V2; row k of this table holds the coefficients of piece k
# of (U1, V1, U2, V2) on the powers (A^6, A^4, A^2, I).
_PADE13_PIECES = np.array([
    [_PADE13[13], _PADE13[11], _PADE13[9], 0.0],
    [_PADE13[12], _PADE13[10], _PADE13[8], 0.0],
    [_PADE13[7], _PADE13[5], _PADE13[3], _PADE13[1]],
    [_PADE13[6], _PADE13[4], _PADE13[2], _PADE13[0]]])


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n float identity, built once per size and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of one square matrix or of each matrix of a
    stack of shape (..., n, n).

    Scaling and squaring with the [13/13] Padé approximant (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005) 1179): each matrix is scaled by 2^-s into
    the 1-norm ball of radius theta_13; its powers (A^6, A^4, A^2, I) are
    stacked, so the four polynomial pieces of the approximant are one
    coefficient product and the approximant is one stacked solve.  Each
    result is then squared its own s times, the whole stack at once when
    every matrix takes the same s.  The count s = max(0, ceil(log2(|A|_1 /
    theta_13))) is the binary exponent that ``math.frexp`` gives |A|_1 /
    theta_13, less one where its mantissa is exactly 1/2.  One matrix keeps
    its rank, and each matrix of a stack has the bits of its own call.  A
    real input gives a real result.  The input must be finite.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    # the 1-norm of each matrix, its largest absolute column sum
    norms = np.maximum.reduce(np.add.reduce(np.abs(a), axis=-2), axis=-1)
    squarings = [max(0, exponent - (mantissa == 0.5)) for mantissa, exponent
                 in map(math.frexp, np.ravel(norms / _THETA13).tolist())]
    top = max(squarings, default=0)
    if top:
        s = np.reshape(squarings, norms.shape)
        a = a * np.exp2(-s)[..., None, None]
    # each power a contiguous stack, so the pieces are one matrix product
    powers = np.empty((4,) + a.shape, dtype=a.dtype)
    a6, a4, a2 = powers[0], powers[1], powers[2]
    powers[3] = _identity(a.shape[-1])
    np.matmul(a, a, out=a2)
    np.matmul(a2, a2, out=a4)
    np.matmul(a4, a2, out=a6)
    pieces = (_PADE13_PIECES @ powers.reshape(4, -1)).reshape(powers.shape)
    # (A^6 U1 + U2, A^6 V1 + V2), the second of which is v
    uv = a6 @ pieces[:2] + pieces[2:]
    u, v = a @ uv[0], uv[1]
    r = np.linalg.solve(v - u, v + u)
    if min(squarings, default=0) == top:
        for _ in range(top):
            r = r @ r
    else:
        for j in range(top):
            square = s > j
            part = r[square]
            r[square] = part @ part
    return r


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

# The seven jumps |lower><upper|: their rates, and the vec indices k (N_LEVELS
# + 1) of the populations rho_kk of their upper and lower levels
_JUMP_RATES = ("gamma1", "gamma2", "gamma3", "gamma4", "gamma_u", "gamma21",
               "gamma12")
_JUMP_UPPER = np.array([Level.TWO_X, Level.TWO_X, Level.X1, Level.X2, Level.X2,
                        Level.X1, Level.X2]) * (N_LEVELS + 1)
_JUMP_LOWER = np.array([Level.X1, Level.X2, Level.G, Level.G, Level.U,
                        Level.X2, Level.X1]) * (N_LEVELS + 1)

_ALL_LEVELS = tuple(Level)


@functools.cache
def _fill_tables(levels: tuple) -> tuple:
    """The constant tables of the block of ``levels``, the elements rho_ij
    with i and j among them, j major, as ``vectorize`` orders them, built
    once: an index of the levels into the per-level energies and rates,
    their number, the flat block positions of the drive entries and their
    signs, and the (rate name, flat block position) of each jump."""
    index = np.array(levels)
    n = index.size ** 2
    # the block position of each vec index, -1 for one outside the block
    position = np.full(DIM, -1)
    position[(N_LEVELS * index[:, None] + index).ravel()] = np.arange(n)
    rows, cols = position[_DRIVE // DIM], position[_DRIVE % DIM]
    inside = (rows >= 0) & (cols >= 0)
    jump_rows, jump_cols = position[_JUMP_LOWER], position[_JUMP_UPPER]
    jumps = np.flatnonzero((jump_rows >= 0) & (jump_cols >= 0))
    drive, drive_signs = rows[inside] * n + cols[inside], _DRIVE_SIGNS[inside]
    # every call shares the tables, so they are read-only
    for table in (index, drive, drive_signs):
        table.flags.writeable = False
    return (index, index.size, drive, drive_signs,
            tuple((_JUMP_RATES[k], jump_rows[k] * n + jump_cols[k])
                  for k in jumps))


def _fill_levels(params, levels: tuple) -> np.ndarray:
    """The block of the generator of ``params`` on the elements rho_ij with
    i and j in ``levels``: shape (k^2, k^2) for k levels, or (n, k^2, k^2)
    for the n points of a CascadeBatch, entry for entry the generator's.

    One rule fills every block, element by element: the drive entries
    inside it, each jump whose two populations are in it, and the
    diagonal.
    """
    p = params
    index, size, drive, drive_signs, jumps = _fill_tables(levels)
    lead = np.shape(p.rabi)
    energy = np.zeros(lead + (N_LEVELS,))
    energy[..., Level.X1] = p.delta_fs
    energy[..., Level.U] = -p.detuning
    # the total rate out of each level, its jumps summed in _JUMP_RATES order
    out = np.zeros(lead + (N_LEVELS,))
    out[..., Level.TWO_X] = p.gamma1 + p.gamma2
    out[..., Level.X1] = p.gamma3 + p.gamma21
    out[..., Level.X2] = p.gamma4 + p.gamma_u + p.gamma12
    energy, out = energy[..., index], out[..., index]

    n = size ** 2
    m = np.zeros(lead + (n, n), dtype=complex)
    flat = m.reshape(lead + (n * n,))
    flat[..., drive] = np.multiply.outer(1j * p.rabi, drive_signs)
    for name, position in jumps:
        flat[..., position] = getattr(p, name)
    # rho_ij rotates at -(E_i - E_j) and decays at out_i/2 + out_j/2, halved
    # before the sum, which rates near the float maximum would overflow; each
    # outer difference's [j, i] entry ravels to k j + i, the position of rho_ij
    half = 0.5 * out
    flat[..., ::n + 1] = (
        1j * (energy[..., :, None] - energy[..., None, :])
        - (half[..., :, None] + half[..., None, :])).reshape(lead + (n,))
    return m


def build_generator(params: CascadeParams | CascadeBatch) -> np.ndarray:
    """The Lindblad generator of one parameter point, shape (25, 25), or of
    each point of a CascadeBatch, shape (n, 25, 25)."""
    return _fill_levels(params, _ALL_LEVELS)


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
    t[0]) / (n - 1) >= 0``, is filled by doubling.  On a grid from 0 the
    first state is ``y0`` itself and one :func:`expm` gives ``P = e^{m
    dt}``; otherwise one stacked call gives ``e^{m t0}`` and ``P``, and the
    first state is ``e^{m t0} y0``.  Each round sets states ``h .. 2h - 1``
    to ``P^h`` times states ``0 .. h - 1`` and squares ``P^h``, so
    ceil(log2 n) block products fill the grid.  A grid counts as uniform
    when every ``t_k`` lies within one spacing of ``t0 + k dt``, as every
    increasing ``linspace`` grid does; treating ``t_k`` as ``t0 + k dt``
    moves a delay by at most about 2 ulp(tau), so a state by at most about
    ``2 ulp(tau) |m|`` relative to its size.  Any other grid (unsorted,
    decreasing or non-uniform) takes one exponential per delay, ``e^{m
    tau} y0``, all of them in one stacked call, so no state is carried from
    one delay to the next and the order of the delays does not matter.
    Neither way adds discretization error beyond round-off.  Returns an
    array of shape ``(len(taus),) + y0.shape`` and dtype ``result_type(m,
    y0, float)``, so a real block is propagated in real arithmetic.  Raises
    NumericError if an input is not finite or the propagation overflows.

    The public checks, a finite state and finite delays, come first; the
    core, ``_propagate``, checks the generator and the result under one
    ``np.errstate`` guard.  :func:`evolve_grid` and the routes of
    :mod:`cascadeg2.correlate` have checked their delays and their state,
    so they call the core directly, under the one guard of their call.
    """
    m, y0, taus = np.asarray(m), np.asarray(y0), np.asarray(taus, dtype=float)
    if not (np.isfinite(y0).all() and np.isfinite(taus).all()):
        raise NumericError("non-finite generator, state or delay")
    # an overflow surfaces as a non-finite entry, refused by the core
    with np.errstate(over="ignore", invalid="ignore"):
        return _propagate(m, y0, taus)


def _propagate(m: np.ndarray, y0: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """:func:`propagate_steps` on a finite state ``y0`` and a finite 1-d
    float array ``taus``, which the caller has checked, under the caller's
    ``np.errstate`` guard against overflow and invalid values.  Raises
    NumericError if ``m`` is not finite or the propagation overflows."""
    if not np.isfinite(m).all():
        raise NumericError("non-finite generator, state or delay")
    dtype, n = np.result_type(m, y0, float), taus.size
    dt = (taus[-1] - taus[0]) / max(n - 1, 1) if n else 0.0
    uniform = n > 0 and dt >= 0 and (
        np.abs(taus - (taus[0] + np.arange(n, dtype=float) * dt))
        <= np.abs(np.spacing(taus))).all()
    if uniform:
        out = _fill_by_doubling(m, y0, taus[0], dt, n, dtype)
    else:
        out = expm(taus[:, None, None] * m) @ y0
    if not np.isfinite(out).all():
        raise NumericError("matrix-exponential propagation overflowed")
    return out


def _fill_by_doubling(m, y0, t0, dt, n, dtype):
    """exp(m (t0 + k dt)) @ y0 for k < n, in ceil(log2 n) block products."""
    cols = y0.reshape(y0.shape[0], -1)
    width = cols.shape[1]
    # row block k holds state k transposed, so a round is one matrix product
    rows = np.empty((n * width, y0.shape[0]), dtype=dtype)
    # a grid from 0 starts at y0 itself; a one-point grid needs no step
    # propagator
    if t0 == 0.0:
        rows[:width] = cols.T
        step = expm(dt * m) if n > 1 else None
    else:
        props = expm(np.array([t0, dt][:n])[:, None, None] * m)
        rows[:width] = (props[0] @ cols).T
        step = props[-1]
    if n > 1:
        # (P^h)^T, kept contiguous so each round is one 2-d product written
        # into the rows; ndarray.dot costs less per call than matmul
        power_t = np.ascontiguousarray(step.T)
    h = 1
    while h < n:
        k = min(h, n - h)
        rows[:k * width].dot(power_t, out=rows[h * width:(h + k) * width])
        h *= 2
        if h < n:
            power_t = power_t.dot(power_t)
    return rows.reshape(n, width, -1).swapaxes(1, 2).reshape((n,) + y0.shape)


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
    # the state and the grid are checked: the core checks the generator
    with np.errstate(over="ignore", invalid="ignore"):
        vecs = _propagate(gen, vectorize(x0), taus)
    # row k holds vec(X_k) column-major, so the reshape yields X_k transposed
    return vecs.reshape(taus.size, N_LEVELS, N_LEVELS).transpose(0, 2, 1)
