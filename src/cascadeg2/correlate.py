"""Two-time polarization-resolved intensity correlations of the cascade.

Two independent routes compute the same normalized correlation:

* ``g2_numeric`` applies the quantum regression theorem over the full 25x25
  generator: G(tau) = 4 Tr[ B^dag B  e^{M tau}( A |2X><2X| A^dag ) ] with A
  and B the polarization-projected first- and second-photon jump operators.
  ``g2_numeric_grid`` does the same on a delay grid, on the sector of the
  generator that the conditioned state never leaves (``_average_sector``).

* ``g2_analytic`` evaluates the same quantity from two hand-written blocks
  of the conditioned dynamics: the 2x2 cross-coherence block (rho_X1X2,
  rho_X1u), whose X1X2 entry of e^{C tau} is the coherence kernel ``w``, and
  the 5x5 population block (X1, X2, u populations plus the driven X2-u
  coherence as a real pair, so the block is real).  One closed-form 2x2
  exponential, ``_expm2``, gives ``w`` and, with the drive off, the
  population propagators from the leading 2x2 rate block; the driven
  population block is propagated exactly in real arithmetic along the grid.

The normalization sets the dimensional emission prefactor to one and
conditions on the emitter occupying |2X> at the first detection, so the
co-polarized correlation at tau = 0 equals 4 for every analyzer angle.

Time-averaged correlations integrate the same quantities over tau in
[0, infinity).  Every averaged coincidence is one bilinear form in
(cos 2theta_i, sin 2theta_i) of five numbers per parameter point: the
averages of the four population propagators and of the coherence kernel.
``two_photon_response`` computes them for a whole CascadeBatch of points,
by either route as a Laplace transform at zero frequency: from the two
blocks, or from the full generator restricted to the elements that the
conditioned state reaches and the second detection sees.  Both routes build
their matrices for the whole batch at once, as stacks.  The population
blocks and the generator blocks go through one resolvent, ``_resolvent``: a
stack of blocks M is refused with DivergentAverageError if a mode decays
slower than the floor, else -M x = y0 is solved for the integral x of
e^{M tau} y0.  The coherence average is the X1X2 entry of -C^{-1}, written
out, and refused by the same floor on the eigenvalues of C that the average
reaches: rho_X1X2 alone without the drive, both with it.
``g2_avg_analytic`` and ``g2_avg_numeric`` are one-point calls of it.
On a delay grid the averaged sector of the generator and the driven
population block are propagated exactly by ``propagate_steps``: a uniform
grid of n delays is filled by doubling, ceil(log2 n) stacked products of
the states with powers of the one-step propagator, any other grid by
stepping; one stacked numpy matrix exponential serves either way.  scipy
loads only for the DOP853 cross-check, ``g2_numeric(..., method="ode")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergentAverageError
from .liouvillian import (_as_generator, build_generator, check_tau_grid,
                          evolve, evolve_grid, propagate_steps, vectorize)
from .model import Level, N_LEVELS, CascadeBatch, CascadeParams, DetectorSetting

# Below this argument size sinh(z)/z switches to a 3-term Taylor series to
# avoid 0/0.
_SERIES_CUTOFF = 1e-4

# A time average exists only if every mode of the sector it integrates
# decays faster than this rate; both routes refuse at the same threshold.
_DECAY_FLOOR = 1e-12


@dataclass(frozen=True)
class CorrelationCurve:
    """Sampled correlation G(tau) on an increasing nonnegative tau grid."""

    tau_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_grid, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if tau.ndim != 1 or tau.shape != val.shape:
            raise ValueError("tau_grid and values must be matching 1-d arrays")
        if tau.size and (tau[0] < 0 or np.any(np.diff(tau) <= 0)):
            raise ValueError("tau_grid must be nonnegative and strictly increasing")
        if val.size and np.min(val) < -1e-12:
            raise ValueError(f"negative coincidence rate {np.min(val):.3e}")
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "values", val)


def _sinhc(z: np.ndarray) -> np.ndarray:
    """sinh(z)/z with a series limit near z = 0."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, z)
    z2 = z * z
    return np.where(small, 1.0 + z2 / 6.0 + z2 * z2 / 120.0, np.sinh(safe) / safe)


def _split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half trace s and a root h of ((m00 - m11)/2)^2 + m01 m10 of 2x2 blocks.

    The eigenvalues of each block are s + h and s - h.
    """
    s = 0.5 * (m[..., 0, 0] + m[..., 1, 1])
    h = np.sqrt(0.25 * (m[..., 0, 0] - m[..., 1, 1]) ** 2
                + m[..., 0, 1] * m[..., 1, 0] + 0j)
    return s, h


def _expm2(m: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """e^{m tau} of one 2x2 block m for every tau, shape (len(taus), 2, 2).

    e^{m tau} = e^{s tau} [cosh(h tau) I + (m - s I) tau sinhc(h tau)], with
    s and h from :func:`_split`.  Both factors are even in h, so the branch of
    its square root does not matter, and the series limit of sinhc covers
    the exceptional point h = 0.
    """
    s, h = _split(m)
    t = np.asarray(taus, dtype=float)[:, None, None]
    eye = np.eye(2)
    return np.exp(s * t) * (np.cosh(h * t) * eye
                            + (m - s * eye) * t * _sinhc(h * t))


def _coherence_generator(params) -> np.ndarray:
    """Generator of the conditioned cross coherence.

    Basis: (rho_X1X2, rho_X1u).  The drive couples the X1-X2 coherence to the
    X1-u coherence; the eigenvalue split of this block is the dressed-state
    splitting.  Batched rates give one 2x2 block per point, shape (n, 2, 2).
    """
    p = params
    alpha1 = p.gamma3 + p.gamma21
    alpha2 = p.gamma4 + p.gamma_u + p.gamma12
    m = np.zeros(np.shape(alpha1) + (2, 2), dtype=complex)
    m[..., 0, 0] = -(0.5 * (alpha1 + alpha2) + 1j * p.delta_fs)
    m[..., 1, 1] = -(0.5 * alpha1 + 1j * (p.delta_fs + p.detuning))
    m[..., 0, 1] = m[..., 1, 0] = -1j * p.rabi
    return m


def _population_generator(params) -> np.ndarray:
    """Generator of the conditioned population sector, in a real basis.

    Basis: (rho_X1X1, rho_X2X2, rho_uu, rho_X2u + rho_uX2,
    i(rho_X2u - rho_uX2)).  The last two elements are real on Hermitian
    operators, which the generator maps to Hermitian operators, so the
    block is real; it is similar to the block on the elements (rho_X1X1,
    rho_X2X2, rho_uu, rho_X2u, rho_uX2), with the same spectrum and the
    same X1 and X2 slots.  The drive couples the X2 population to u, so the
    pointwise propagators depend on rabi and detuning; without it the
    leading 2x2 rate block is closed.  Batched rates give one 5x5 block per
    point, shape (n, 5, 5).
    """
    p = params
    alpha1 = p.gamma3 + p.gamma21
    alpha2 = p.gamma4 + p.gamma_u + p.gamma12
    m = np.zeros(np.shape(alpha1) + (5, 5))
    m[..., 0, 0], m[..., 0, 1] = -alpha1, p.gamma12
    m[..., 1, 0], m[..., 1, 1] = p.gamma21, -alpha2
    m[..., 2, 1] = p.gamma_u
    m[..., 3, 3] = m[..., 4, 4] = -0.5 * alpha2
    m[..., 3, 4], m[..., 4, 3] = -p.detuning, p.detuning
    # the drive couples X2X2 and uu through the imaginary part of rho_X2u
    m[..., 1, 4], m[..., 2, 4] = -p.rabi, p.rabi
    m[..., 4, 1], m[..., 4, 2] = 2.0 * p.rabi, -2.0 * p.rabi
    return m


def _population_propagators(params: CascadeParams, taus: np.ndarray):
    """Exact population propagators (P11, P12, P21, P22) on the tau grid."""
    m = _population_generator(params)
    if params.rabi == 0.0:
        cols = _expm2(m[:2, :2], taus)
    else:
        # the first two columns of the propagator on the sorted grid, filled
        # by doubling when it is uniform and by stepping otherwise
        order = np.argsort(taus, kind="stable")
        cols = np.empty((taus.size, 5, 2))
        cols[order] = propagate_steps(m, np.eye(5, 2), taus[order])
    return cols[:, 0, 0], cols[:, 0, 1], cols[:, 1, 0], cols[:, 1, 1]


def _angle_weights(theta1, theta2):
    c1, c2 = np.cos(2.0 * theta1), np.cos(2.0 * theta2)
    s1, s2 = np.sin(2.0 * theta1), np.sin(2.0 * theta2)
    return c1, c2, s1, s2


def _braces(response, theta1, theta2, phase=0.0):
    """Angular combination of the four population slots and the coherence slot.

    ``response`` is (P11, P12, P21, P22, w): propagators on a delay grid, or
    their time averages from :func:`two_photon_response`.  Equals f1 + f2 +
    g1 + g2 + (c1 + c2)(f1 - g1) + (c1 - c2)(g2 - f2) + c1 c2 (f1 + g1 - f2 -
    g2) + s1 s2 * 2 Re[e^{-i phase} w], with ci = cos(2 theta_i), si =
    sin(2 theta_i), phase = phi1 + phi2 (the e^{+i phi} jump convention) and
    the slot mapping f1, f2, g2, g1 = P11, P12, P21, P22.  Slots and angles
    broadcast against each other.
    """
    p11, p12, p21, p22, w = response
    c1, c2, s1, s2 = _angle_weights(theta1, theta2)
    wterm = 2.0 * np.real(np.exp(-1j * phase) * w)
    return np.real((1 + c1) * (1 + c2) * p11 + (1 - c1) * (1 + c2) * p12
                   + (1 + c1) * (1 - c2) * p21 + (1 - c1) * (1 - c2) * p22
                   + s1 * s2 * wterm)


def _validate_taus(tau) -> tuple[np.ndarray, bool]:
    """A delay or a 1-d array of delays, in any order, as a 1-d float array,
    and whether it was a scalar; else ValueError."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    if taus.ndim != 1:
        raise ValueError(f"tau must be a scalar or a 1-d array, got shape {taus.shape}")
    if np.any(taus < 0) or not np.all(np.isfinite(taus)):
        raise ValueError("tau must be finite and >= 0")
    return taus, np.ndim(tau) == 0


def g2_analytic(params: CascadeParams, det1: DetectorSetting,
                det2: DetectorSetting, tau):
    """Closed-form normalized correlation at delay tau (scalar or array)."""
    taus, scalar = _validate_taus(tau)
    w = _expm2(_coherence_generator(params), taus)[:, 0, 0]
    response = (*_population_propagators(params, taus), w)
    value = _braces(response, det1.theta, det2.theta, det1.phi + det2.phi)
    return float(value[0]) if scalar else value


def _polarization_vector(det: DetectorSetting) -> np.ndarray:
    """cos(theta) |X1> + e^{i phi} sin(theta) |X2>."""
    v = np.zeros(N_LEVELS, dtype=complex)
    v[Level.X1] = np.cos(det.theta)
    v[Level.X2] = np.exp(1j * det.phi) * np.sin(det.theta)
    return v


def _conditioned_state(det1: DetectorSetting) -> np.ndarray:
    """A |2X><2X| A^dag for the first-photon jump operator
    A = cos(theta) |X1><2X| + e^{i phi} sin(theta) |X2><2X|."""
    a = _polarization_vector(det1)  # A |2X>
    return np.outer(a, a.conj())


def _detection_projector(det2: DetectorSetting) -> np.ndarray:
    """B^dag B for the second-photon jump operator
    B = cos(theta) |g><X1| + e^{i phi} sin(theta) |g><X2|."""
    b = _polarization_vector(det2)  # <g| B, as a row
    return np.outer(b.conj(), b)


def g2_numeric_grid(params: CascadeParams, det1: DetectorSetting,
                    det2: DetectorSetting, taus,
                    gen: np.ndarray | None = None) -> np.ndarray:
    """Regression-theorem correlation on a strictly increasing tau grid.

    ``gen`` is the (25, 25) generator of ``params``, built if not given.
    The conditioned state is propagated exactly on the averaged sector of
    ``gen`` (see :func:`_average_sector`), which it never leaves: a 4x4
    block without the drive, 9x9 with it.
    """
    taus = check_tau_grid(taus)
    gen = build_generator(params) if gen is None else _as_generator(gen)
    sector = _average_sector(_DRIVEN_LEVELS if params.rabi != 0.0
                             else _UNDRIVEN_LEVELS)
    states = propagate_steps(gen[np.ix_(sector, sector)],
                             vectorize(_conditioned_state(det1))[sector], taus)
    # Tr[P X] = vec(P^T) . vec(X)
    proj = vectorize(_detection_projector(det2).T)[sector]
    return 4.0 * np.real(states @ proj)


def g2_numeric(params: CascadeParams, det1: DetectorSetting,
               det2: DetectorSetting, tau: float, method: str = "ode") -> float:
    """Regression-theorem correlation at a single delay.

    method "ode" integrates adaptively (DOP853, see :func:`evolve`); method
    "expm" propagates exactly on a one-point grid (see :func:`evolve_grid`).
    """
    if method not in ("ode", "expm"):
        raise ValueError(f"unknown method {method!r}, expected 'ode' or 'expm'")
    taus, _ = _validate_taus(float(tau))
    gen, x0 = build_generator(params), _conditioned_state(det1)
    if method == "ode":
        op = evolve(gen, x0, taus[0])
    else:
        op = evolve_grid(gen, x0, taus)[0]
    return float(4.0 * np.real(np.trace(_detection_projector(det2) @ op)))


def correlation_curve(params: CascadeParams, det1: DetectorSetting,
                      det2: DetectorSetting, taus,
                      method: str = "analytic") -> CorrelationCurve:
    """Sample the correlation on a tau grid with the chosen route.

    ``taus`` must be a nonempty, finite, nonnegative and strictly increasing
    1-d grid; both routes refuse any other with the same ValueError.
    """
    taus = check_tau_grid(taus)
    if method == "analytic":
        values = g2_analytic(params, det1, det2, taus)
    elif method == "numeric":
        values = g2_numeric_grid(params, det1, det2, taus)
    else:
        raise ValueError(f"unknown method {method!r}")
    # wash out harmless negative round-off before the curve invariant check
    values = np.where((values < 0) & (values > -1e-12), 0.0, values)
    return CorrelationCurve(taus, values)


def _resolvent(blocks: np.ndarray, rhs: np.ndarray, sector: str) -> np.ndarray:
    """The integrals over tau in [0, inf) of e^{M tau} rhs for a stack of
    blocks M: the solutions x of -M x = rhs.

    Every population and generator block is solved here.  An integral exists
    only if every mode of M decays faster than the refusal floor; otherwise,
    or if the solve fails, raise DivergentAverageError naming the sector.
    """
    if np.max(np.linalg.eigvals(blocks).real) >= -_DECAY_FLOOR:
        raise DivergentAverageError(f"{sector} has a non-decaying mode")
    try:
        return np.linalg.solve(-blocks, rhs)
    except np.linalg.LinAlgError as exc:
        raise DivergentAverageError(str(exc)) from None


def _closed_form_response(params: CascadeBatch) -> np.ndarray:
    c = _coherence_generator(params)
    driven = params.rabi != 0.0
    # without the drive rho_X1X2 evolves alone; with it, both modes count
    s, h = _split(c)
    slowest = np.where(driven, s.real + np.abs(h.real), c[:, 0, 0].real)
    if np.any(slowest >= -_DECAY_FLOOR):
        raise DivergentAverageError("coherence sector has a non-decaying mode")
    m = _population_generator(params)
    response = np.empty((5, len(params)), dtype=complex)
    # undriven points average their 2x2 rate block, driven points the 5x5
    # block; the X1 and X2 rows of the first two columns are the slots
    for mask, size in ((~driven, 2), (driven, 5)):
        if mask.any():
            cols = _resolvent(m[mask, :size, :size], np.eye(size, 2),
                              "population sector")
            response[:4, mask] = cols[:, :2].transpose(1, 2, 0).reshape(4, -1)
    # avg_w is the X1X2 entry of -c^{-1}
    det = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    response[4] = -c[:, 1, 1] / det
    return response


# The averaged sector: both indices in these levels, X1 and X2 leading.
_UNDRIVEN_LEVELS = (Level.X1, Level.X2)
_DRIVEN_LEVELS = (Level.X1, Level.X2, Level.U)


def _average_sector(levels) -> np.ndarray:
    """Vectorized indices of the elements with both indices in ``levels``.

    The conditioned state A|2X><2X|A^dag lives on {X1, X2}, and B^dag B only
    reads that block.  Elements with both indices in {X1, X2, u} evolve among
    themselves: they leak into g but are fed only from 2X, which stays empty.
    Without the drive u is a trap that never feeds back into {X1, X2}, so it
    is left out too.  Propagating or averaging the sector alone is exact.
    """
    return np.array([i + N_LEVELS * j for j in levels for i in levels])


def _resolvent_response(params: CascadeBatch) -> np.ndarray:
    """The response from the full generator, restricted to the averaged sector.

    The integral of e^{M tau} y0 over [0, inf) is x with M_SS x = -y0_S; one
    solve per point takes y0 = |X1><X1|, |X2><X2| and |X1><X2|, whose
    solutions hold the population slots and the coherence slot.  The
    generators of all points are built as one stack.
    """
    response = np.empty((5, len(params)), dtype=complex)
    gens = build_generator(params)
    driven = params.rabi != 0.0
    for mask, levels in ((~driven, _UNDRIVEN_LEVELS), (driven, _DRIVEN_LEVELS)):
        if not mask.any():
            continue
        sector = _average_sector(levels)
        m_ss = gens[np.ix_(mask, sector, sector)]
        # sector positions of X1X1, X2X2 and X1X2 (X1 and X2 lead ``levels``)
        n = len(levels)
        x11, x22, x12 = 0, n + 1, n
        x = _resolvent(m_ss, np.eye(n * n)[:, [x11, x22, x12]],
                       "the averaged sector of the generator")
        response[:, mask] = (x[:, x11, 0], x[:, x11, 1], x[:, x22, 0],
                             x[:, x22, 1], x[:, x12, 2])
    return response


def two_photon_response(points, method: str = "analytic") -> np.ndarray:
    """Time-averaged two-photon response of each of n parameter points.

    ``points`` is a CascadeBatch, or a sequence of CascadeParams, which is
    stacked into one.  Returns a (5, n) complex array, rows (P11, P12, P21,
    P22, avg_w): the integrals over tau in [0, inf) of the population
    propagators X1 -> X1, X2 -> X1, X1 -> X2, X2 -> X2 and of the coherence
    kernel w.  Every averaged coincidence is :func:`_braces` of it.  method
    "analytic" uses the coherence and population blocks, "numeric" the
    resolvent of the full generator.  Raises DivergentAverageError if any
    point has a mode decaying slower than the refusal floor.
    """
    if method not in ("analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(points, CascadeBatch):
        points = CascadeBatch.stack(points)
    if method == "analytic":
        return _closed_form_response(points)
    return _resolvent_response(points)


def _average(response: np.ndarray, det1: DetectorSetting,
             det2: DetectorSetting) -> float:
    return float(_braces(response, det1.theta, det2.theta,
                         det1.phi + det2.phi)[0])


def g2_avg_analytic(params: CascadeParams, det1: DetectorSetting,
                    det2: DetectorSetting) -> float:
    """Closed-form time-averaged correlation, integral of g2 over [0, inf)."""
    return _average(two_photon_response([params]), det1, det2)


def g2_avg_numeric(params: CascadeParams, det1: DetectorSetting,
                   det2: DetectorSetting) -> float:
    """Time-averaged correlation from the resolvent of the full generator.

    The integral of 4 Tr[B^dag B e^{M tau} y0] over [0, inf) is linear in
    y0; see :func:`_resolvent_response`.  Exact up to round-off.
    """
    return _average(two_photon_response([params], method="numeric"), det1, det2)
