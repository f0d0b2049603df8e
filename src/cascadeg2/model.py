"""Parameters, unit conventions and analyzer settings for the driven cascade.

The system is a five-level radiative cascade: an upper level ``2X`` decays to
two intermediate levels ``X1``/``X2`` (split by ``delta_fs``), which decay to
the ground level ``g``.  An auxiliary level ``u`` is coupled to ``X2`` by a
classical drive of Rabi frequency ``rabi`` and detuning ``detuning``.

All rates and frequencies are dimensionless, in units of the total upper-level
radiative rate, the sum gamma1 + gamma2.  With the defaults gamma1 = gamma2 =
1/2 and gamma3 = gamma4 = 1, the unit rate is also the radiative rate of each
intermediate level, which is the normalization used for every swept quantity.

``CascadeParams`` is one parameter point; ``CascadeBatch`` holds many as
arrays with the same field names, for sweeps, and both are validated by one
rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter, ge

import numpy as np


class Level(enum.IntEnum):
    """Global level ordering; every matrix in the package uses these indices."""

    TWO_X = 0
    X1 = 1
    X2 = 2
    U = 3
    G = 4


N_LEVELS = 5


@dataclass(frozen=True)
class CascadeParams:
    """Rates, splittings and drive parameters, in units of gamma1 + gamma2.

    gamma1, gamma2   radiative decays 2X -> X1, 2X -> X2
    gamma3, gamma4   radiative decays X1 -> g, X2 -> g
    gamma_u          radiative decay X2 -> u
    gamma12          incoherent population transfer X2 -> X1
    gamma21          incoherent population transfer X1 -> X2
    delta_fs         splitting of the intermediate levels (X1 above X2)
    rabi             drive Rabi frequency on X2 <-> u (real, nonnegative)
    detuning         drive detuning delta = omega_X2u - nu_L
    """

    gamma1: float = 0.5
    gamma2: float = 0.5
    gamma3: float = 1.0
    gamma4: float = 1.0
    gamma_u: float = 0.0
    gamma12: float = 0.0
    gamma21: float = 0.0
    delta_fs: float = 0.0
    rabi: float = 0.0
    detuning: float = 0.0

    def __post_init__(self) -> None:
        values = _field_values(self)
        # TypeError unless each is a real number (not "1"); a valid point
        # passes the bounds of _check_fields here, any other is refused there
        finite = [math.isfinite(value) for value in values]
        if not (all(finite) and all(map(ge, values, _LOWER_BOUNDS))):
            _check_fields(np.array(values, dtype=float))

    def with_(self, **changes) -> "CascadeParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


PARAM_FIELDS = tuple(f.name for f in fields(CascadeParams))
_field_values = attrgetter(*PARAM_FIELDS)
_FIELD_ROWS = {name: row for row, name in enumerate(PARAM_FIELDS)}

# rows of the fields that may be negative; every other field is a rate or
# the Rabi frequency, bounded below by zero
_SIGNED = np.isin(PARAM_FIELDS, ("delta_fs", "detuning"))
_LOWER = np.where(_SIGNED, -np.inf, 0.0)[:, None]
_LOWER_BOUNDS = tuple(_LOWER[:, 0].tolist())


def _check_fields(table: np.ndarray) -> None:
    """The one validation rule of CascadeParams and CascadeBatch.

    ``table`` holds one row per field of PARAM_FIELDS, a value or a column
    per point.  Rates and rabi must be finite and >= 0, delta_fs and
    detuning finite; the ValueError names the first bad value, rates and
    rabi before the signed fields.
    """
    table = table.reshape(len(PARAM_FIELDS), -1)
    ok = np.isfinite(table) & (table >= _LOWER)
    if ok.all():
        return
    bad = ~ok
    row = min(np.flatnonzero(bad.any(axis=1)), key=lambda k: _SIGNED[k])
    name = PARAM_FIELDS[row]
    if _SIGNED[row]:
        raise ValueError(f"{name} must be finite")
    value = float(table[row, np.argmax(bad[row])])
    raise ValueError(f"{name} must be finite and >= 0, got {value}")


class CascadeBatch:
    """n parameter points as arrays: the CascadeParams fields, each a float
    array of shape (n,).

    Build a batch by broadcasting a base point against axis arrays
    (:meth:`broadcast`), by stacking points (:meth:`stack`) or from a table
    of the fields as rows, in the order of PARAM_FIELDS, one column per
    point.  It is validated once, on construction, by the rule of
    CascadeParams, and read-only after; ``table`` holds that table.  Each
    field is a slot set once, on construction, to its row of ``table``, a
    read-only view, so reading it calls no Python code; setting or
    deleting ``table`` or a field raises AttributeError.
    """

    __slots__ = ("table",) + PARAM_FIELDS

    def __init__(self, table) -> None:
        table = np.array(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != len(PARAM_FIELDS):
            raise ValueError(f"expected a ({len(PARAM_FIELDS)}, n) table, "
                             f"got shape {table.shape}")
        _check_fields(table)
        table.flags.writeable = False
        set_slot = object.__setattr__
        set_slot(self, "table", table)
        for name, row in zip(PARAM_FIELDS, table):
            set_slot(self, name, row)

    def __setattr__(self, name, value):
        raise AttributeError(f"CascadeBatch is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CascadeBatch is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild the batch from its table, since the slots
        # refuse the assignments that the default protocol makes
        return CascadeBatch, (self.table,)

    @classmethod
    def broadcast(cls, base: CascadeParams, **axes) -> "CascadeBatch":
        """The points of ``base`` with the named fields set from arrays.

        The axis arrays broadcast against each other; the points follow
        their broadcast shape in C order.
        """
        unknown = axes.keys() - _FIELD_ROWS.keys()
        if unknown:
            raise ValueError(f"unknown parameter {sorted(unknown)[0]!r}")
        shape = np.broadcast_shapes(*map(np.shape, axes.values()))
        table = np.empty((len(PARAM_FIELDS), math.prod(shape)))
        table[:] = np.array(_field_values(base))[:, None]
        for name, axis in axes.items():
            table[_FIELD_ROWS[name]] = np.broadcast_to(axis, shape).ravel()
        return cls(table)

    @classmethod
    def stack(cls, points) -> "CascadeBatch":
        """The batch of a sequence of CascadeParams, in order."""
        return cls(np.array([_field_values(p) for p in points],
                            dtype=float).reshape(-1, len(PARAM_FIELDS)).T)

    def __len__(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class DetectorSetting:
    """Linear-polarization analyzer orientation (theta, phi), in radians.

    The analyzer passes the polarization cos(theta) H + e^{i phi} sin(theta) V,
    H and V being the photons of the X1 and X2 decay paths.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def omega_star(delta_fs: float | np.ndarray,
               detuning: float | np.ndarray) -> float | np.ndarray:
    """Drive amplitude that Stark-shifts the upper dressed state onto X1.

    Solves Omega_minus = sqrt(detuning^2 + 4 Omega^2)/2 - detuning/2 =
    delta_fs, the lower sideband of the driven X2-u pair, giving
    Omega* = sqrt(delta_fs^2 + delta_fs * detuning).  The sideband leaves
    out the decay width, so the shift holds only up to it: the splitting
    Im z of :func:`~cascadeg2.correlate._closed_form_response` vanishes at
    rabi^2 = delta_fs ((a1/2)^2 + y^2) / y, a1 = gamma3 + gamma21, y =
    delta_fs + detuning.  Element-wise on arrays; scalars give a float.
    Raises ValueError on a non-finite input or when no real drive amplitude
    exists.
    """
    delta_fs = np.asarray(delta_fs, dtype=float)
    detuning = np.asarray(detuning, dtype=float)
    for name, value in (("delta_fs", delta_fs), ("detuning", detuning)):
        bad = value[~np.isfinite(value)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {bad[0]}")
    if np.any(delta_fs < 0):
        raise ValueError(f"delta_fs must be >= 0, got {delta_fs.min()}")
    radicand = delta_fs * delta_fs + delta_fs * detuning
    if np.any(radicand < 0):
        raise ValueError(
            f"delta_fs^2 + delta_fs*detuning = {radicand.min()} < 0: no real "
            "drive amplitude brings the dressed state into degeneracy")
    root = np.sqrt(radicand)
    return float(root) if root.ndim == 0 else root
