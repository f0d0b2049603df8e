"""Two-time polarization-resolved intensity correlations of the cascade.

Two independent routes compute the same normalized correlation:

* ``g2_numeric`` applies the quantum regression theorem over the full 25x25
  generator: G(tau) = 4 Tr[ B^dag B  e^{M tau}( A |2X><2X| A^dag ) ] with A
  and B the polarization-projected first- and second-photon jump operators.
  ``g2_numeric_grid`` does the same on a delay grid, on the 9x9 sector of
  the generator that the conditioned state never leaves, {X1, X2, u}
  (``_SECTOR_LEVELS``), an undriven point's with its u elements
  decoupled, so that its block holds no detuning.  ``_sector_blocks``
  builds that block, for the grid and for the averages alike, by the
  generator's own fill rule over the three levels, entry for entry the
  block of ``build_generator``, then takes it by one constant real map
  of its float view (``_REAL_SIMILARITY``) to a real Hermitian basis
  (``_TO_REAL``), where the route propagates and solves in real
  arithmetic.  The conditioned state and the detection dual are formed
  from the three sector amplitudes of the analyzers.

* ``g2_analytic`` evaluates the same quantity from two hand-written blocks
  of the conditioned dynamics: the 2x2 cross-coherence block (rho_X1X2,
  rho_X1u), whose X1X2 entry of e^{C tau} is the coherence kernel ``w``, and
  the 5x5 population block (X1, X2, u populations plus the driven X2-u
  coherence as a real pair, so the block is real).  One closed form,
  ``_exp_entries``, gives the requested entries of e^{m tau} of a 2x2
  block m without overflow at any delay: ``w`` is the X1X2 entry of the
  coherence block, and with the drive off the four population propagators
  are the entries of the leading 2x2 rate block, in real arithmetic.  The
  driven population block is propagated exactly in real arithmetic along
  the grid.

The normalization sets the dimensional emission prefactor to one and
conditions on the emitter occupying |2X> at the first detection, so the
co-polarized correlation at tau = 0 equals 4 for every analyzer angle.

Every coincidence, at a delay or averaged, is one bilinear form in
(cos 2theta_i, sin 2theta_i) of a ``TwoPhotonResponse``: the four
population propagators and the coherence kernel of each point, on a delay
grid or integrated over tau in [0, infinity); that type states the slots.
``two_photon_response`` computes the averages for a whole CascadeBatch, by
either route as a Laplace transform at zero frequency, from one stack of
one block size: the 5x5 population blocks, or the 9x9 sectors of {X1, X2,
u} of the generator.  A CascadeParams is a point, not a one-point batch:
its fields are read as numpy scalars, each route runs the same body on
single blocks, indexed from the end (``[..., i, j]``), and the slots are
0-d, with the bits of the one-point batch's.  Without the drive u never
feeds back into {X1, X2}, so an undriven point's elements with a u index
are decoupled as modes of their own (``_decoupled``): its block solves and
refuses as its 2x2 rate block or 4x4 sector would.  The full-generator
route, the independent cross-check, solves -M x = y0 for the integral x of e^{M tau} y0 in one
stacked LAPACK solve (``_resolvent_response``).  The closed form solves
nothing for its averages: u has no decay of its own, so with the drive on
all that X2 sends to u comes back, and integrating dP1/dt and d(P2 +
Pu)/dt over [0, inf) gives a 2x2 rate system whose inverse is written out
as ratios of rates; the field acts through the coherence average alone,
the X1X2 entry of -C^{-1}, written out as 1/z, where Im z is the
Stark-shifted splitting.
Each route refuses its stack of 5x5 population blocks by one call of one
rule, ``_refuse_divergent``, with no eigenvalues: it is refused with
DivergentAverageError if a mode of a block decays slower than the floor,
which one stacked solve of the blocks shifted by a constant and a test
of the cone R+ x PSD(2) decide.  The
full-generator route takes its blocks from its own sector: the leading
5x5 block of the real sector.  The coherence average needs no refusal of its
own: the slowest mode of a positive semigroup has a positive semidefinite
eigenvector, which has no coherence entries, so the coherence modes decay
at least as fast as the slowest population mode.  The population slots
are real on both routes, so degrees, Bell parameters and G(tau) are real
arithmetic.
``g2_avg_analytic`` and ``g2_avg_numeric`` call it on their point; they
stay beside the batch surface of :mod:`cascadeg2.observables` because the
benchmark calls them.
On a delay grid the averaged sector of the generator and the driven
population block are propagated exactly by ``propagate_steps``: a uniform
grid of n delays is filled by doubling, ceil(log2 n) products of the
states with powers of the one-step propagator, any other grid, in any
order, by one exponential per delay; one numpy matrix exponential call
serves either way, of the step alone on a uniform grid from 0.
``correlation_curve`` checks its grid once, with ``check_tau_grid``,
before either route runs, so both refuse a bad grid alike; neither route
nor the curve checks it again.  Each public call pays each fixed cost
once: the routes call the propagation core of :mod:`cascadeg2.liouvillian`
directly on their checked grids and finite states, under one
``np.errstate`` guard per call, and a point's closed-form averages stay
numpy scalars.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergentAverageError, NumericError
from .liouvillian import _fill_levels, _identity, _propagate, check_tau_grid
from .model import (PARAM_FIELDS, Level, N_LEVELS, CascadeBatch, CascadeParams,
                    DetectorSetting, _field_values)

# A time average exists only if every mode of the sector it integrates
# decays faster than this rate; both routes refuse at the same threshold.
_DECAY_FLOOR = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a constant that every call shares."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CorrelationCurve:
    """Sampled correlation G(tau) on a grid that :func:`check_tau_grid`
    accepts; the values must be finite and at least -1e-12."""

    tau_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self._accept(check_tau_grid(self.tau_grid), self.values)

    @classmethod
    def _on_checked_grid(cls, tau: np.ndarray, values) -> "CorrelationCurve":
        """The curve of ``values`` on a grid that :func:`check_tau_grid` has
        already returned: only the values are checked."""
        curve = object.__new__(cls)
        curve._accept(tau, values)
        return curve

    def _accept(self, tau: np.ndarray, values) -> None:
        """Check ``values`` against the accepted grid ``tau``; store both."""
        val = np.asarray(values, dtype=float)
        if tau.shape != val.shape:
            raise ValueError("tau_grid and values must be matching 1-d arrays")
        # a nan fails both comparisons
        low = val.min()
        if not (low >= -1e-12 and val.max() < np.inf):
            if low < -1e-12:
                raise ValueError(f"negative coincidence rate {low:.3e}")
            raise ValueError("coincidence rates must be finite")
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "values", val)


def _exp_entries(m: np.ndarray, taus: np.ndarray, *entries) -> tuple:
    """The ``entries``, (i, j) index pairs, of e^{m tau} of one 2x2 block m,
    each as an array over a 1-d float array of delays.

    With s the half trace and h the principal root (Re h >= 0) of
    ((m00 - m11)/2)^2 + m01 m10, the eigenvalues are s +- h and
    e^{m tau} = E I + (m - s I) F, where E = e^{s tau} cosh(h tau) and
    F = e^{s tau} sinh(h tau)/h.  Written with g = e^{(s + h) tau} and
    x = expm1(-2 h tau), E = g (1 + x/2) and F = -g x/(2h), F = g tau at
    h = 0: on a block whose modes do not grow no factor exceeds 1 in size,
    so nothing overflows at long delays, and expm1 keeps F exact near the
    exceptional point h = 0.  Where |s + h| < |s - h| the sum s + h
    cancels, and an error in it grows with tau in g, so g takes the slower
    eigenvalue as det(m) / (s - h) there.  A triangular block, m01 m10 = 0,
    has the diagonal entries e^{m_ii tau}, taken as they are: s +- h would
    round a large m00 - m11, such as an undriven detuning, into a phase
    that should cancel.  A real block with real h gives real entries.
    """
    triangular = m[0, 1] * m[1, 0] == 0
    if triangular and all(i == j for i, j in entries):
        # the diagonal entries alone need neither E nor F
        return tuple(np.exp(m[i, i] * taus) for i, _ in entries)
    s = 0.5 * (m[0, 0] + m[1, 1])
    h2 = 0.25 * (m[0, 0] - m[1, 1]) ** 2 + m[0, 1] * m[1, 0]
    # a real block keeps a real root where it has one
    h = np.sqrt(h2 if h2.real >= 0 else h2 + 0j)
    if abs(s - h) > abs(s + h):
        slow = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) / (s - h)
    else:
        slow = s + h
    g = np.exp(slow * taus)
    if h == 0:
        e, f = g, g * taus
    else:
        x = np.expm1(-2.0 * h * taus)
        e, f = g * (1.0 + 0.5 * x), g * x / (-2.0 * h)
    return tuple(m[i, j] * f if i != j
                 else np.exp(m[i, i] * taus) if triangular
                 else e + (m[i, i] - s) * f for i, j in entries)


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
    # halved before the sum, which rates near the float maximum would overflow
    m[..., 0, 0] = -(0.5 * alpha1 + 0.5 * alpha2 + 1j * p.delta_fs)
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


# the X1 and X2 unit columns of the population block's basis
_POPULATION_UNITS = _frozen(np.eye(5, 2))


def _population_propagators(params: CascadeParams, taus: np.ndarray):
    """Exact population propagators on the tau grid, in the field order of
    :class:`TwoPhotonResponse`."""
    m = _population_generator(params)
    if params.rabi == 0.0:
        return _exp_entries(m[:2, :2], taus, (0, 0), (0, 1), (1, 0), (1, 1))
    # the first two columns of the propagator, under the guard of
    # _g2_closed_form
    cols = _propagate(m, _POPULATION_UNITS, taus)
    return cols[:, 0, 0], cols[:, 0, 1], cols[:, 1, 0], cols[:, 1, 1]


def _angle_weights(theta1, theta2):
    c1, c2 = np.cos(2.0 * theta1), np.cos(2.0 * theta2)
    s1, s2 = np.sin(2.0 * theta1), np.sin(2.0 * theta2)
    return c1, c2, s1, s2


class TwoPhotonResponse(NamedTuple):
    """The two-photon response of a batch of parameter points: four
    population slots and the coherence slot, each an array of the same
    shape, one entry per point (and per delay on a grid), or 0-d for a
    single point's time averages.

    ``p11``, ``p12``, ``p21`` and ``p22`` are float arrays: Pij is the
    population propagator from the intermediate level Xj, which the first
    photon's emission ends in, to Xi, which the second photon is emitted
    from, so P12 runs X2 -> X1 and P21 X1 -> X2.  ``w`` is a complex array:
    the coherence kernel, the X1X2 entry of e^{C tau} for the coherence
    block C of :func:`_coherence_generator`.  On a delay grid the slots are
    their values at each delay; from :func:`two_photon_response` they are
    their integrals over tau in [0, inf).  In the basis {HH, HV, VH, VV} of
    the two photons' linear polarizations, first photon first, the slots
    are the unnormalized X-state with diagonal (P11, P21, P12, P22) and
    rho_HH,VV = conj(w); :func:`_braces` is 4 Tr[rho (Pi1 x Pi2)] for
    analyzer projectors Pi1 and Pi2.  The slots broadcast against angles of
    any shape.
    """

    p11: np.ndarray
    p12: np.ndarray
    p21: np.ndarray
    p22: np.ndarray
    w: np.ndarray


def _braces(response: TwoPhotonResponse, theta1, theta2, phase=0.0):
    """The coincidence of a two-photon response at analyzer angles theta1
    and theta2 and phase = phi1 + phi2 (the e^{+i phi} jump convention):
    each population slot Pij weighted by (1 + c1) for j = 1 or (1 - c1)
    for j = 2, times (1 + c2) for i = 1 or (1 - c2) for i = 2, plus s1 s2 *
    2 Re[e^{-i phase} w], with ci = cos(2 theta_i) and si = sin(2 theta_i).
    Slots and angles broadcast against each other.
    """
    r = response
    c1, c2, s1, s2 = _angle_weights(theta1, theta2)
    # w as an array: numpy multiplies a complex scalar by a complex scalar
    # with other rounding than its array loop, so a point's 0-d w would
    # lose the bits of a batch's
    wterm = 2.0 * np.real(np.exp(-1j * phase) * np.asarray(r.w))
    return ((1 + c1) * (1 + c2) * r.p11 + (1 - c1) * (1 + c2) * r.p12
            + (1 + c1) * (1 - c2) * r.p21 + (1 - c1) * (1 - c2) * r.p22
            + s1 * s2 * wterm)


def _validate_taus(tau) -> tuple[np.ndarray, bool]:
    """A delay or a 1-d array of delays, in any order, as a 1-d float array,
    and whether it was a scalar; else ValueError."""
    taus = np.asarray(tau, dtype=float)
    scalar = taus.ndim == 0
    if scalar:
        taus = taus.reshape(1)
    elif taus.ndim != 1:
        raise ValueError(f"tau must be a scalar or a 1-d array, got shape {taus.shape}")
    # a nan fails both comparisons
    if taus.size and not (taus.min() >= 0 and taus.max() < np.inf):
        raise ValueError("tau must be finite and >= 0")
    return taus, scalar


def _delay_response(params: CascadeParams,
                    taus: np.ndarray) -> TwoPhotonResponse:
    """The two-photon response at each delay of a 1-d float array: the
    population propagators and the coherence kernel, unchecked."""
    w, = _exp_entries(_coherence_generator(params), taus, (0, 0))
    return TwoPhotonResponse(*_population_propagators(params, taus), w)


def _g2_closed_form(params: CascadeParams, det1: DetectorSetting,
                    det2: DetectorSetting, taus: np.ndarray) -> np.ndarray:
    """:func:`g2_analytic` on a 1-d float array of delays, unchecked."""
    # an overflow surfaces as a non-finite value, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        values = _braces(_delay_response(params, taus), det1.theta,
                         det2.theta, det1.phi + det2.phi)
    if not np.isfinite(values).all():
        raise NumericError("closed-form exponential overflowed")
    return values


def g2_analytic(params: CascadeParams, det1: DetectorSetting,
                det2: DetectorSetting, tau):
    """Closed-form normalized correlation at delay tau (scalar or array).

    Raises NumericError if the exponential of a block overflows.
    """
    taus, scalar = _validate_taus(tau)
    value = _g2_closed_form(params, det1, det2, taus)
    return float(value[0]) if scalar else value


def _sector_amplitudes(det: DetectorSetting) -> np.ndarray:
    """cos(theta) |X1> + e^{i phi} sin(theta) |X2>, on the sector levels
    (X1, X2, u)."""
    v = np.zeros(3, dtype=complex)
    v[0] = np.cos(det.theta)
    v[1] = np.exp(1j * det.phi) * np.sin(det.theta)
    return v


def _polarization_vector(det: DetectorSetting) -> np.ndarray:
    """cos(theta) |X1> + e^{i phi} sin(theta) |X2>."""
    v = np.zeros(N_LEVELS, dtype=complex)
    v[Level.X1:Level.U + 1] = _sector_amplitudes(det)
    return v


def _conditioned_state(det1: DetectorSetting) -> np.ndarray:
    """A |2X><2X| A^dag for the first-photon jump operator
    A = cos(theta) |X1><2X| + e^{i phi} sin(theta) |X2><2X|."""
    a = _polarization_vector(det1)  # A |2X>
    return np.outer(a, a.conj())


def g2_numeric_grid(params: CascadeParams, det1: DetectorSetting,
                    det2: DetectorSetting, taus) -> np.ndarray:
    """Regression-theorem correlation on a strictly increasing tau grid.

    The conditioned state is propagated exactly on the 9x9 averaged sector
    of the generator of ``params`` (see :func:`_sector_blocks`), which it
    never leaves; without the drive the sector's u elements are decoupled.
    The Hermitian state is propagated as a real vector of its real basis.
    """
    return _g2_sector_grid(params, det1, det2, check_tau_grid(taus))


def _g2_sector_grid(params: CascadeParams, det1: DetectorSetting,
                    det2: DetectorSetting, taus: np.ndarray) -> np.ndarray:
    """:func:`g2_numeric_grid` on an accepted grid."""
    # the sector of X = A|2X><2X|A^dag from a = A|2X> on the sector levels:
    # vec(X) is the column-major ravel of X, the row-major ravel of its
    # transpose [j, i] = a_i conj(a_j); a Hermitian X has real coordinates
    # in the real basis
    a = _sector_amplitudes(det1)
    state = (_TO_REAL @ (a * a.conj()[:, None]).ravel()).real
    # Tr[P X] = vec(P^T) . vec(X), and vec(P^T) is the row-major ravel of
    # P = B^dag B, [i, j] = conj(b_i) b_j; its dual in the real basis is
    # real for a Hermitian P
    b = _sector_amplitudes(det2)
    dual = ((b.conj()[:, None] * b).ravel() @ _FROM_REAL).real
    # a drive past half the float maximum overflows in the real pairs, and
    # an overflow surfaces as a non-finite entry, refused by the propagation
    with np.errstate(over="ignore", invalid="ignore"):
        states = _propagate(_sector_blocks(params), state, taus)
    return 4.0 * (states @ dual)


def g2_numeric(params: CascadeParams, det1: DetectorSetting,
               det2: DetectorSetting, tau: float, method: str = "expm") -> float:
    """Regression-theorem correlation at a single delay.

    The one method, "expm", is :func:`g2_numeric_grid` on the one-point
    grid ``[tau]``; any other raises ValueError.
    """
    if method != "expm":
        raise ValueError(f"unknown method {method!r}, expected 'expm'")
    return float(g2_numeric_grid(params, det1, det2, [tau])[0])


def correlation_curve(params: CascadeParams, det1: DetectorSetting,
                      det2: DetectorSetting, taus,
                      method: str = "analytic") -> CorrelationCurve:
    """Sample the correlation on a tau grid with the chosen route.

    ``taus`` must be a nonempty, finite, nonnegative and strictly increasing
    1-d grid; both routes refuse any other with the same ValueError.
    """
    taus = check_tau_grid(taus)
    # the one grid check: the routes and the curve take the grid as it is
    if method == "analytic":
        values = _g2_closed_form(params, det1, det2, taus)
    elif method == "numeric":
        values = _g2_sector_grid(params, det1, det2, taus)
    else:
        raise ValueError(f"unknown method {method!r}")
    # wash out harmless negative round-off before the curve's value check
    if values.min() < 0:
        values = np.where((values < 0) & (values > -1e-12), 0.0, values)
    return CorrelationCurve._on_checked_grid(taus, values)


def _population_cone(x: np.ndarray) -> bool:
    """Whether every vector of the stack x is inside R+ x PSD(2), in the real
    basis of :func:`_population_generator`: x0 > 0 and the {X2, u} block
    [[x1, (x3 - i x4)/2], [(x3 + i x4)/2, x2]] positive definite, that is
    x1 > 0 and hypot(x3, x4) < 2 sqrt(x1) sqrt(x2).

    No square of an entry is formed, so the test holds at any finite scale;
    a stack with a non-finite entry is refused.
    """
    if not np.isfinite(x).all():
        return False
    x0, x1, x2, x3, x4 = x.T
    # a negative x1 or x2 has no root, and its nan fails the comparison
    with np.errstate(invalid="ignore"):
        return bool(((x0 > 0) & (x1 > 0) & (
            np.hypot(x3, x4) < 2.0 * np.sqrt(x1) * np.sqrt(x2))).all())


# the interior point of R+ x PSD(2) that the refusal solve takes, and the
# shift of a population block by the floor
_POPULATION_UNIT = _frozen(np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
_FLOOR_SHIFT = _frozen(_DECAY_FLOOR * np.eye(5))


def _refuse_divergent(blocks: np.ndarray, sector: str) -> None:
    """Raise DivergentAverageError, naming ``sector``, unless every mode of
    every 5x5 population block M of the stack, in the real basis of
    :func:`_population_generator`, decays faster than the refusal floor.

    The integral over tau in [0, inf) of e^{M tau} exists only if M + floor I
    is stable.  Each block generates a positive semigroup on the proper cone
    R+ x PSD(2) of the X1 population and the {X2, u} block, and such a block
    is stable exactly when -(M + floor I) u = y has its solution u inside
    the cone for y inside it (Schneider and Vidyasagar, SIAM J. Numer. Anal.
    7 (1970) 508): then u is the integral of e^{(M + floor I) tau} y.  So
    the stack is refused if that solve, with y the cone's unit, is singular
    or leaves the cone (:func:`_population_cone`) for any block; one stacked
    LAPACK solve serves every block, from either route.  The shift by the
    floor is one constant 5x5 block, ``_FLOOR_SHIFT``, so the refusal of a
    point costs little beside the solve it guards.
    """
    shifted = blocks + _FLOOR_SHIFT
    try:
        inside = _population_cone(np.linalg.solve(-shifted, _POPULATION_UNIT))
    except np.linalg.LinAlgError:
        inside = False
    if not inside:
        raise DivergentAverageError(
            f"time average diverges: the {sector} has a mode decaying "
            f"slower than {_DECAY_FLOOR:g}")


def _decoupled(blocks: np.ndarray, undriven: np.ndarray,
               u_entries: np.ndarray) -> np.ndarray:
    """The stack ``blocks``, or one block with a 0-d ``undriven``, with
    the ``u_entries`` of each ``undriven`` block set in place to those of -I.

    Without the drive u never feeds back into {X1, X2}, whose elements alone
    the averages and the delay grid read.  The elements with a u index
    become modes of their own, decaying at rate 1: the block is block
    diagonal, and its solve, cone test and exponential are those of its X1
    and X2 part, with no detuning.
    """
    np.copyto(blocks, -_identity(blocks.shape[-1]),
              where=undriven[..., None, None] & u_entries)
    return blocks


def _closed_form_response(params: CascadeBatch) -> TwoPhotonResponse:
    """The response from the two blocks, with no solve for the averages.

    ``params`` is a CascadeBatch, or a point with numpy-scalar fields, whose
    slots are then numpy scalars: no selection leaves a 0-d array behind.
    The batch is refused as one stack of 5x5 population blocks, a point as
    one block; an undriven point's u and X2-u rows and columns are
    decoupled, so its cone test is
    the orthant test of its 2x2 rate block's (x0, x1).  The drive leaves
    the averaged populations alone: u has no decay of its own, so what X2
    sends to u comes back when driven, and integrating dP1/dt and d(P2 +
    Pu)/dt over [0, inf) gives the 2x2 rate system with X2 leaving at
    x2_out = gamma4 (driven) or gamma4 + gamma_u (undriven).  With a1 =
    gamma3 + gamma21 and a2 = x2_out + gamma12, its inverse is P11 =
    1/(gamma3 + gamma21 (x2_out/a2)), P22 = 1/(a2 (gamma3/a1) + x2_out
    (gamma21/a1)), P12 = (gamma12/a2) P11 and P21 = (gamma21/a1) P22:
    ratios of rates at most 1 over sums of nonnegative terms, so no product
    of two rates overflows and nothing cancels.  The field acts through
    avg_w alone, the X1X2 entry of -c^{-1} for the coherence block c: 1/z
    with z = a/2 + i delta_fs + rabi^2 / (a1/2 + i (delta_fs + detuning)),
    a = a1 + gamma4 + gamma_u + gamma12.  Im z is the Stark-shifted
    splitting, Re z - a/2 the width the drive adds.
    """
    driven = params.rabi != 0.0
    # past half the float maximum 2 rabi overflows, and the block is refused
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _decoupled(_population_generator(params), ~driven,
                            _POPULATION_U)
    _refuse_divergent(blocks, "population block")
    p = params
    # [()] makes a point's 0-d selection a scalar, and is a batch's view
    x2_out = np.where(driven, p.gamma4, p.gamma4 + p.gamma_u)[()]
    a1, a2 = p.gamma3 + p.gamma21, x2_out + p.gamma12
    p11 = 1.0 / (p.gamma3 + p.gamma21 * (x2_out / a2))
    p22 = 1.0 / (a2 * (p.gamma3 / a1) + x2_out * (p.gamma21 / a1))
    # the coherence modes decay at least as fast as the slowest population
    # mode, so avg_w needs no refusal of its own.  It is 0.5 / (z/2): every
    # term of z is halved before the sum, which rates and drives near the
    # float maximum would overflow, and exactly, so avg_w keeps the bits of
    # 1/z.  The drive adds rabi times drive = rabi / (2 d) to z/2, with
    # d = a1/2 + i (delta_fs + detuning).
    rest = (0.25 * a1 + 0.25 * (p.gamma4 + p.gamma_u + p.gamma12)
            + 0.5j * p.delta_fs)
    drive = 0.5 * p.rabi / (0.5 * a1 + 1j * (p.delta_fs + p.detuning))
    # Where that product would pass the float maximum, z/2 is divided by
    # rabi before it is inverted; elsewhere by 1, which keeps its bits.  A
    # part of drive times rabi overflows exactly where the two factors, each
    # scaled by 2^-512, have a product of at least 1: a power of two scales
    # exactly, and the scaled product cannot overflow
    huge = (2.0 ** -512 * p.rabi) * (
        2.0 ** -512 * np.maximum(abs(drive.real), abs(drive.imag))) >= 1.0
    scale = np.where(huge, p.rabi, 1.0)[()]
    half_z = rest / scale + (p.rabi / scale) * drive
    return TwoPhotonResponse(p11=p11, p12=p.gamma12 / a2 * p11,
                             p21=p.gamma21 / a1 * p22, p22=p22,
                             w=(0.5 / scale) / half_z)


# The averaged sector: the elements with both indices in {X1, X2, u}, X1
# and X2 leading.  The conditioned state A|2X><2X|A^dag lives on {X1, X2},
# and B^dag B only reads that block.  Elements with both indices in {X1,
# X2, u} evolve among themselves: they leak into g but are fed only from
# 2X, which stays empty.  Propagating or averaging the sector alone is
# exact.
_SECTOR_LEVELS = (Level.X1, Level.X2, Level.U)

# The entries in a row or column of an element with a u index: of the u
# population and X2-u pair of the population block, and of the 9x9 sector,
# whose element k is rho_ij with i = k % 3 and j = k // 3 in _SECTOR_LEVELS
_POPULATION_U, _SECTOR_U = (_frozen(has_u[:, None] | has_u) for has_u in (
    np.arange(5) >= 2, (np.arange(9) % 3 == 2) | (np.arange(9) >= 6)))

# The sector's real Hermitian basis, real on Hermitian operators: the
# populations (X1X1, X2X2, uu) at sector positions (0, 4, 8), then each
# coherence pair (ij, ji) as (ij + ji, i(ij - ji)), for (X2, u), (X1, X2)
# and (X1, u) at (7, 5), (3, 1) and (6, 2); its leading five elements are
# the population block's basis.  _TO_REAL takes a sector vector to it and
# _FROM_REAL back: each pair's inverse is its conjugate transpose over 2
_TO_REAL = np.zeros((9, 9), dtype=complex)
_TO_REAL[:3, [0, 4, 8]] = np.eye(3)
_TO_REAL[3:, [7, 5, 3, 1, 6, 2]] = np.kron(np.eye(3), [[1.0, 1.0], [1j, -1j]])
_FROM_REAL = _frozen(_TO_REAL.conj().T * np.repeat([1.0, 0.5], [3, 6]))
_frozen(_TO_REAL)



def _real_similarity() -> np.ndarray:
    """The similarity ``_TO_REAL @ m @ _FROM_REAL`` of a complex 9x9 block m
    whose image is real, as one real (162, 81) map of m's float view: each
    entry m_kl, as its pair (Re, Im), adds Re(c m_kl) with c = _TO_REAL[a,
    k] _FROM_REAL[l, b] to entry (a, b) of the image."""
    c = np.einsum("ak,lb->klab", _TO_REAL, _FROM_REAL).reshape(81, 81)
    return _frozen(np.stack([c.real, -c.imag], axis=1).reshape(162, 81))


_REAL_SIMILARITY = _real_similarity()

# The resolvent's right-hand sides in the real basis: the units of X1X1,
# X2X2 and of the X1X2 pair's two real elements, at positions 0, 1, 5 and 6
_RESOLVENT_RHS = _frozen(np.eye(9)[:, [0, 1, 5, 6]])


def _sector_blocks(params) -> np.ndarray:
    """The 9x9 averaged sector of the generator of ``params`` in the real
    basis of ``_TO_REAL``, where it is real: one block for a point, a stack
    for a CascadeBatch, each undriven block with its u elements decoupled
    (see :func:`_decoupled`).

    The generator's fill rule fills the sector alone, entry for entry the
    generator's, and one real product with ``_REAL_SIMILARITY`` takes it to
    the real basis, with no complex product and no imaginary part to drop.
    A drive past half the float maximum overflows in the real pairs, as in
    the population block: the caller holds the ``np.errstate`` guard, and
    refuses the non-finite block.
    """
    # np.equal, since a CascadeParams' rabi == 0.0 is a bool, not an array
    m_ss = _decoupled(_fill_levels(params, _SECTOR_LEVELS),
                      np.equal(params.rabi, 0.0), _SECTOR_U)
    lead = m_ss.shape[:-2]
    real = m_ss.view(float).reshape(lead + (162,)) @ _REAL_SIMILARITY
    return real.reshape(lead + (9, 9))


def _resolvent_response(params: CascadeBatch) -> TwoPhotonResponse:
    """The response from the full generator, restricted to the averaged sector.

    The integral of e^{M tau} y0 over [0, inf) is x with M_SS x = -y0_S; one
    real solve per point takes y0 = |X1><X1|, |X2><X2| and the two real
    elements of the X1X2 pair, whose solutions hold the population slots
    and, as the pair's complex solution, the coherence slot.  The 9x9
    sectors of {X1, X2, u} of all points of a CascadeBatch are filled as one
    stack, an undriven point's with its u elements decoupled: one refusal
    and one solve serve the batch.  A point with numpy-scalar fields takes
    the same steps on its one sector and gives 0-d slots.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m_ss = _sector_blocks(params)
    sector = "averaged sector of the generator"
    _refuse_divergent(m_ss[..., :5, :5], sector)
    try:
        x = np.linalg.solve(-m_ss, _RESOLVENT_RHS)
    except np.linalg.LinAlgError:
        raise DivergentAverageError(f"time average diverges: the {sector} "
                                    "is singular") from None
    # the X1X2 element of the pair (r5, r6) is (r5 - i r6)/2, and the
    # complex solution is the first pair source's plus i times the second's
    re, im = (x[..., 5, 2] + x[..., 6, 3], x[..., 5, 3] - x[..., 6, 2])
    return TwoPhotonResponse(x[..., 0, 0], x[..., 0, 1], x[..., 1, 0],
                             x[..., 1, 1], 0.5 * re + 0.5j * im)


# A point's fields as numpy scalars: each expression of a route then runs
# on the point as on a row of a batch, to the bit, where Python's own
# complex division would round differently
_PointFields = collections.namedtuple("_PointFields", PARAM_FIELDS)


def two_photon_response(points, method: str = "analytic") -> TwoPhotonResponse:
    """Time-averaged two-photon response of each of n parameter points.

    ``points`` is a CascadeBatch, or a sequence of CascadeParams, which is
    stacked into one, or a single CascadeParams.  Returns a
    :class:`TwoPhotonResponse` whose slots are arrays of shape (n,), or 0-d
    for a single point, with the bits of its one-point batch: the integrals
    over tau in [0, inf) of the population propagators and of the coherence
    kernel.  A point is no batch of one: none is stacked or validated
    again.  Every averaged coincidence is :func:`_braces` of it.  method
    "analytic" uses the coherence and population blocks, "numeric" the
    resolvent of the full generator.  Raises DivergentAverageError if any
    point has a mode decaying slower than the refusal floor.
    """
    if method not in ("analytic", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(points, CascadeParams):
        points = _PointFields._make(map(np.float64, _field_values(points)))
    elif not isinstance(points, CascadeBatch):
        points = CascadeBatch.stack(points)
    if method == "analytic":
        return _closed_form_response(points)
    return _resolvent_response(points)


def _average(response: TwoPhotonResponse, det1: DetectorSetting,
             det2: DetectorSetting) -> float:
    return float(_braces(response, det1.theta, det2.theta,
                         det1.phi + det2.phi))


def g2_avg_analytic(params: CascadeParams, det1: DetectorSetting,
                    det2: DetectorSetting) -> float:
    """Closed-form time-averaged correlation, integral of g2 over [0, inf)."""
    return _average(two_photon_response(params), det1, det2)


def g2_avg_numeric(params: CascadeParams, det1: DetectorSetting,
                   det2: DetectorSetting) -> float:
    """Time-averaged correlation from the resolvent of the full generator.

    The integral of 4 Tr[B^dag B e^{M tau} y0] over [0, inf) is linear in
    y0; see :func:`_resolvent_response`.  Exact up to round-off.
    """
    return _average(two_photon_response(params, method="numeric"), det1, det2)
