"""Input types and error classes shared by every layer, free of numpy.

The closed-form theory, the sweep specification and the CLI need only
these, so importing them loads no numpy; the converged numerics import
numpy themselves. Each name is re-exported from the module that used to
define it (basis, hamiltonian, minimal, numeric) as the same object.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import cos, sin


class AssemblyError(ValueError):
    """Invalid assembly request (dimension overflow, missing parameters)."""


class SolverError(RuntimeError):
    """H does not fit the sector solve, or its eigenpairs fail the residual
    check."""


class PairingError(ValueError):
    """The spectrum is not a sequence of exactly degenerate pairs."""


class NearDegeneracyError(ValueError):
    """A perturbative closed form used outside its range: mixing too close
    to a subband crossing, or a flat-dot expansion whose correction outweighs
    its leading term."""


class DegenerateQubitError(ValueError):
    """The ground doublet does not split; qubit axes are undefined."""


@dataclass(frozen=True)
class BasisCutoff:
    N_x: int
    N_y: int
    N_z: int

    def __post_init__(self):
        for axis, n in (("N_x", self.N_x), ("N_y", self.N_y), ("N_z", self.N_z)):
            if not (isinstance(n, int) and n >= 1):
                raise ValueError(f"{axis} must be a positive integer, got {n!r}")

    @property
    def n_orbital(self) -> int:
        return self.N_x * self.N_y * self.N_z

    @property
    def dimension(self) -> int:
        return 4 * self.n_orbital


class Orientation(enum.Enum):
    DOT_110 = "110"
    DOT_100 = "100"


@dataclass(frozen=True)
class BoxGeometry:
    L_x: float  # nm
    L_y: float  # nm
    L_z: float  # nm

    def __post_init__(self):
        for axis, L in (("L_x", self.L_x), ("L_y", self.L_y), ("L_z", self.L_z)):
            if not L > 0:
                raise ValueError(f"{axis} must be positive, got {L}")


# slotted: a direction grid holds one instance per point
@dataclass(frozen=True, slots=True)
class FieldConfig:
    B: float = 0.0      # T
    theta: float = 0.0  # rad, polar angle of b_hat
    phi: float = 0.0    # rad, azimuth of b_hat
    E0: float = 0.0     # mV/nm, static field along +y
    E_ac: float = 0.0   # mV/nm, drive amplitude along +y

    def __post_init__(self):
        if self.B < 0:
            raise ValueError(f"B must be >= 0, got {self.B}")
        if self.E_ac < 0:
            raise ValueError(f"E_ac must be >= 0, got {self.E_ac}")


@dataclass(frozen=True)
class StrainConfig:
    eps_parallel: float  # dimensionless, eps_xx = eps_yy


def bhat_from_angles(theta: float, phi: float) -> tuple[float, float, float]:
    """The unit field direction (sin t cos p, sin t sin p, cos t)."""
    return (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))
