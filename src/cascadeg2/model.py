"""Parameters, unit conventions and polarization algebra for the driven cascade.

The system is a five-level radiative cascade: an upper level ``2X`` decays to
two intermediate levels ``X1``/``X2`` (split by ``delta_fs``), which decay to
the ground level ``g``.  An auxiliary level ``u`` is coupled to ``X2`` by a
classical drive of Rabi frequency ``rabi`` and detuning ``detuning``.

All rates and frequencies are dimensionless, in units of the total upper-level
radiative rate gamma = gamma1 + gamma2.  With the defaults gamma1 = gamma2 =
1/2 and gamma3 = gamma4 = 1, the unit rate is also the radiative rate of each
intermediate level, which is the normalization used for every swept quantity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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
        for name in ("gamma1", "gamma2", "gamma3", "gamma4", "gamma_u",
                     "gamma12", "gamma21", "rabi"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        for name in ("delta_fs", "detuning"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def gamma(self) -> float:
        """Total radiative decay of the upper level, gamma1 + gamma2."""
        return self.gamma1 + self.gamma2

    @property
    def gamma_d(self) -> float:
        """Common dephasing rate; defined only when gamma12 == gamma21."""
        if self.gamma12 != self.gamma21:
            raise ValueError("gamma_d is defined only for gamma12 == gamma21")
        return self.gamma12

    def _require_symmetric(self) -> None:
        if self.gamma3 != self.gamma4 or self.gamma12 != self.gamma21:
            raise ValueError(
                "requires symmetric rates (gamma3 == gamma4, gamma12 == gamma21)")

    @property
    def big_gamma(self) -> float:
        """Gamma = gamma + gamma_d + gamma_u/3 of the symmetric-rate model."""
        self._require_symmetric()
        return self.gamma3 + self.gamma12 + self.gamma_u / 3.0

    @property
    def big_gamma1(self) -> float:
        """Gamma_1 = gamma + gamma_d + gamma_u of the symmetric-rate model."""
        self._require_symmetric()
        return self.gamma3 + self.gamma12 + self.gamma_u

    def with_(self, **changes) -> "CascadeParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class DetectorSetting:
    """Linear-polarization analyzer orientation (theta, phi), in radians.

    The two analyzer unit vectors in the (H, V) component basis are the rows
    of ``polarization_rotation(theta, phi)`` and are orthonormal.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("theta", "phi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")

    def unit_vectors(self) -> np.ndarray:
        """Rows are the two analyzer polarization vectors in the (H, V) basis."""
        return polarization_rotation(self.theta, self.phi)


def polarization_rotation(theta: float, phi: float = 0.0) -> np.ndarray:
    """Unitary mapping (H, V) components onto the rotated analyzer pair.

    Returns [[cos(theta), e^{-i phi} sin(theta)],
             [-e^{i phi} sin(theta), cos(theta)]].
    """
    ct, st = np.cos(theta), np.sin(theta)
    return np.array(
        [[ct, np.exp(-1j * phi) * st],
         [-np.exp(1j * phi) * st, ct]],
        dtype=complex,
    )


def omega_pm(rabi: float, detuning: float) -> tuple[float, float]:
    """Generalized Rabi sidebands (Omega_plus, Omega_minus) of the driven pair.

    Omega_pm = sqrt(detuning^2 + 4 rabi^2)/2 +- detuning/2.  They satisfy
    Omega_plus + Omega_minus = sqrt(detuning^2 + 4 rabi^2) and
    Omega_plus * Omega_minus = rabi^2.
    """
    if rabi < 0:
        raise ValueError(f"rabi must be >= 0, got {rabi}")
    half_split = 0.5 * math.hypot(detuning, 2.0 * rabi)
    return half_split + 0.5 * detuning, half_split - 0.5 * detuning


def omega_star(delta_fs: float, detuning: float) -> float:
    """Drive amplitude that Stark-shifts the upper dressed state onto X1.

    Solves Omega_minus(Omega, detuning) = delta_fs, giving
    Omega* = sqrt(delta_fs^2 + delta_fs * detuning).
    """
    if delta_fs < 0:
        raise ValueError(f"delta_fs must be >= 0, got {delta_fs}")
    radicand = delta_fs * delta_fs + delta_fs * detuning
    if radicand < 0:
        raise ValueError(
            f"delta_fs^2 + delta_fs*detuning = {radicand} < 0: no real drive "
            "amplitude brings the dressed state into degeneracy")
    return math.sqrt(radicand)
