"""Hamiltonian assembly over the product sine basis.

Terms: four-band kinetic part (P, Q, R, S structure), static electric
potential -e E0 y, Zeeman coupling 2 kappa mu_B B.J, paramagnetic coupling
(terms linear in the vector potential A = (B x r)/2, gauge origin at the
box center), and biaxial Bir-Pikus strain.

Conventions fixed here and inherited everywhere:
- spin order (+3/2, +1/2, -1/2, -3/2), flat index j_z fastest;
- positive (electron-like) hole dispersion, energies in meV;
- DOT_110 has x || [110], y || [-110], z || [001]; DOT_100 has x || [100],
  y || [010]; the two differ only by exchanging gamma2 and gamma3 inside
  the R term;
- b_hat = (sin t cos p, sin t sin p, cos t) for polar angle t, azimuth p.

Every operator is a sum of Kronecker products of the per-axis 1D tables of
basis.py with a 4x4 spin matrix. The products are formed sparse and each
assembler returns the sum as it is, still sparse; the numerics work on it
by sparse matrix products. A dense N x N view is built only when
`HamiltonianMatrix.matrix` is read.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import cos, pi, sin, sqrt
from typing import TYPE_CHECKING

import numpy as np

from .basis import (BasisCutoff, derivative_matrix, ksquared_matrix,
                    posderiv_matrix, position_matrix)
from .constants import CONST
from .materials import MaterialParams

if TYPE_CHECKING:
    import scipy.sparse as sp

# A dense N x N complex matrix takes 16 N^2 bytes, 1.07 GB at 8192. The
# numerics never form one: their largest dense array is the real
# N/2 x N/2 mirror block handed to eigh (2 N^2 bytes). The guard still
# counts a full dense matrix, which any read of HamiltonianMatrix.matrix
# allocates.
MAX_DIMENSION = 8192


class AssemblyError(ValueError):
    """Invalid assembly request (dimension overflow, missing parameters)."""


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


@dataclass(frozen=True)
class FieldConfig:
    B: float = 0.0      # T
    theta: float = 0.0  # rad, polar angle of b_hat
    phi: float = 0.0    # rad, azimuth of b_hat
    E0: float = 0.0     # mV/nm, static field along +y
    E_ac: float = 0.0   # mV/nm, drive amplitude along +y

    def __post_init__(self):
        if self.B < 0:
            raise ValueError(f"B must be >= 0, got {self.B}")

    @property
    def bhat(self) -> np.ndarray:
        return bhat_from_angles(self.theta, self.phi)


@dataclass(frozen=True)
class StrainConfig:
    eps_parallel: float  # dimensionless, eps_xx = eps_yy

    def eps_perp(self, material: MaterialParams) -> float:
        material.require_strain()
        return -material.nu * self.eps_parallel


@dataclass(frozen=True)
class HamiltonianMatrix:
    operator: sp.sparray     # the summed sparse operator, as assembled
    cutoff: BasisCutoff | None
    terms: tuple[str, ...]

    def __post_init__(self):
        shape = self.operator.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"operator must be square, got shape {shape}")
        if self.cutoff is not None and shape[0] != self.cutoff.dimension:
            raise ValueError(
                f"operator dimension {shape[0]} != cutoff dimension {self.cutoff.dimension}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense complex view of the operator, built on first access."""
        return self.operator.toarray().astype(complex, copy=False)

    @property
    def dimension(self) -> int:
        return self.operator.shape[0]

    def hermiticity_residual(self) -> float:
        """max |H - H^dagger| / max |H|, 0 for an all-zero matrix."""
        scale = np.max(np.abs(self.matrix))
        if scale == 0.0:
            return 0.0
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)) / scale)

    def __add__(self, other: "HamiltonianMatrix") -> "HamiltonianMatrix":
        if self.operator.shape != other.operator.shape:
            raise AssemblyError("cannot add Hamiltonians of different dimension")
        if self.cutoff is not None and other.cutoff is not None \
                and self.cutoff != other.cutoff:
            raise AssemblyError("cannot add Hamiltonians over different cutoffs")
        return HamiltonianMatrix(
            operator=self.operator + other.operator,
            cutoff=self.cutoff or other.cutoff,
            terms=self.terms + other.terms,
        )


def bhat_from_angles(theta: float, phi: float) -> np.ndarray:
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


# ---------------------------------------------------------------------------
# spin-space building blocks, order (+3/2, +1/2, -1/2, -3/2)

_SQ3 = sqrt(3.0)
_I4 = np.eye(4)
_DQ = np.diag([1.0, -1.0, -1.0, 1.0])

# R occupies (3/2, -1/2) and (1/2, -3/2); S occupies (3/2, 1/2) with a minus
# sign and (-1/2, -3/2) with a plus sign.
_R_RE = np.zeros((4, 4)); _R_RE[0, 2] = _R_RE[2, 0] = _R_RE[1, 3] = _R_RE[3, 1] = 1.0
_R_IM = np.zeros((4, 4), dtype=complex)
_R_IM[0, 2] = _R_IM[1, 3] = 1j; _R_IM[2, 0] = _R_IM[3, 1] = -1j
_S_RE = np.zeros((4, 4)); _S_RE[0, 1] = _S_RE[1, 0] = -1.0; _S_RE[2, 3] = _S_RE[3, 2] = 1.0
_S_IM = np.zeros((4, 4), dtype=complex)
_S_IM[0, 1] = 1j; _S_IM[1, 0] = -1j; _S_IM[2, 3] = -1j; _S_IM[3, 2] = 1j


def _r_gammas(material: MaterialParams, orientation: Orientation) -> tuple[float, float]:
    """(coefficient of kx^2 - ky^2, coefficient of kx ky) inside R."""
    if orientation is Orientation.DOT_110:
        return material.gamma3, material.gamma2
    return material.gamma2, material.gamma3


def _spin_weights(material: MaterialParams, orientation: Orientation) -> dict[str, np.ndarray]:
    """Dimensionless spin matrices multiplying each k-bilinear channel."""
    g1, g2, g3 = material.gamma1, material.gamma2, material.gamma3
    gr1, gr2 = _r_gammas(material, orientation)
    return {
        "xx": g1 * _I4 + g2 * _DQ - _SQ3 * gr1 * _R_RE,
        "yy": g1 * _I4 + g2 * _DQ + _SQ3 * gr1 * _R_RE,
        "zz": g1 * _I4 - 2.0 * g2 * _DQ,
        "xy": 2.0 * _SQ3 * gr2 * _R_IM,
        "xz": 2.0 * _SQ3 * g3 * _S_RE,
        "yz": 2.0 * _SQ3 * g3 * _S_IM,
    }


def _kron3(ax: np.ndarray, ay: np.ndarray, az: np.ndarray) -> sp.sparray:
    """Sparse orbital kron with n_x fastest (to match the flat-index
    ordering) of the dense 1D tables."""
    # scipy is imported where it is used, so the closed-form commands,
    # which never assemble, do not load it
    import scipy.sparse as sp
    # CSR factors and output: the default block format would store the
    # zeros of the half-filled tables and carry them through every sum
    return sp.kron(sp.csr_array(az),
                   sp.kron(sp.csr_array(ay), sp.csr_array(ax), format="csr"),
                   format="csr")


def _embed(orbital: sp.sparray, spin: np.ndarray) -> sp.sparray:
    import scipy.sparse as sp
    return sp.kron(orbital, spin, format="csr")


def _orbital_identity(cutoff: BasisCutoff) -> sp.sparray:
    import scipy.sparse as sp
    return sp.eye_array(cutoff.n_orbital, format="csr")


def _wrap(H: sp.sparray, cutoff: BasisCutoff,
          *terms: str) -> HamiltonianMatrix:
    return HamiltonianMatrix(operator=H, cutoff=cutoff, terms=terms)


def _check_dimension(cutoff: BasisCutoff) -> None:
    if cutoff.dimension > MAX_DIMENSION:
        gb = 16 * cutoff.dimension ** 2 / 1e9
        raise AssemblyError(
            f"cutoff {cutoff} gives dimension {cutoff.dimension} "
            f"> MAX_DIMENSION {MAX_DIMENSION}; one dense complex matrix "
            f"would take 16 N^2 bytes = {gb:.2f} GB")


def _lk(material: MaterialParams, geometry: BoxGeometry,
        orientation: Orientation, cutoff: BasisCutoff) -> sp.sparray:
    Nx, Ny, Nz = cutoff.N_x, cutoff.N_y, cutoff.N_z
    Ix, Iy, Iz = np.eye(Nx), np.eye(Ny), np.eye(Nz)
    Kx = ksquared_matrix(Nx, geometry.L_x)
    Ky = ksquared_matrix(Ny, geometry.L_y)
    Kz = ksquared_matrix(Nz, geometry.L_z)
    Dx = derivative_matrix(Nx, geometry.L_x)
    Dy = derivative_matrix(Ny, geometry.L_y)
    Dz = derivative_matrix(Nz, geometry.L_z)

    orbital = {
        "xx": _kron3(Kx, Iy, Iz),
        "yy": _kron3(Ix, Ky, Iz),
        "zz": _kron3(Ix, Iy, Kz),
        # k_a k_b = (-i d_a)(-i d_b) = -d_a d_b
        "xy": -_kron3(Dx, Dy, Iz),
        "xz": -_kron3(Dx, Iy, Dz),
        "yz": -_kron3(Ix, Dy, Dz),
    }
    spin = _spin_weights(material, orientation)
    return sum(CONST.hbar2_over_2m0 * _embed(orb, spin[ch])
               for ch, orb in orbital.items())


def _dipole(geometry: BoxGeometry, cutoff: BasisCutoff) -> sp.sparray:
    Y = position_matrix(cutoff.N_y, geometry.L_y)
    return _embed(_kron3(np.eye(cutoff.N_x), Y, np.eye(cutoff.N_z)), _I4)


def _electric(E0: float, geometry: BoxGeometry,
              cutoff: BasisCutoff) -> sp.sparray:
    return -CONST.e_scale * E0 * _dipole(geometry, cutoff)


def _strain(material: MaterialParams, strain: StrainConfig,
            cutoff: BasisCutoff) -> sp.sparray:
    material.require_strain()
    eps = strain.eps_parallel
    a_v_meV = material.a_v * 1e3
    b_v_meV = material.b_v * 1e3
    nu = material.nu
    d_hh = ((nu - 2) * a_v_meV - (nu + 1) * b_v_meV) * eps
    d_lh = ((nu - 2) * a_v_meV + (nu + 1) * b_v_meV) * eps
    return _embed(_orbital_identity(cutoff), np.diag([d_hh, d_lh, d_lh, d_hh]))


def assemble_lk(material: MaterialParams, geometry: BoxGeometry,
                orientation: Orientation,
                cutoff: BasisCutoff) -> HamiltonianMatrix:
    """Kinetic four-band Hamiltonian at zero fields.

    Cross products k_i k_j on different axes factorize exactly in the
    product basis, so the symmetrization (k_i k_j + k_j k_i)/2 is the
    identity here; k_i^2 uses the exact diagonal element, not the squared
    truncated derivative matrix.
    """
    _check_dimension(cutoff)
    return _wrap(_lk(material, geometry, orientation, cutoff), cutoff, "lk")


def dipole_y(geometry: BoxGeometry, cutoff: BasisCutoff) -> HamiltonianMatrix:
    """The y position operator (nm), spin-diagonal."""
    return _wrap(_dipole(geometry, cutoff), cutoff, "dipole_y")


def assemble_electric(E0: float, geometry: BoxGeometry,
                      cutoff: BasisCutoff) -> HamiltonianMatrix:
    """Static potential -e E0 y; couples n_y of opposite parity only."""
    return _wrap(_electric(E0, geometry, cutoff), cutoff, "electric")


def zeeman_spin_block(kappa: float, B: float, bhat: np.ndarray) -> np.ndarray:
    """The 4x4 block of 2 kappa mu_B B.J in the (+3/2..-3/2) order."""
    bx, by, bz = bhat
    bp, bm = bx + 1j * by, bx - 1j * by
    k = kappa * CONST.mu_B * B
    return k * np.array([
        [3 * bz, _SQ3 * bm, 0, 0],
        [_SQ3 * bp, bz, 2 * bm, 0],
        [0, 2 * bp, -bz, _SQ3 * bm],
        [0, 0, _SQ3 * bp, -3 * bz],
    ], dtype=complex)


def assemble_zeeman(material: MaterialParams, B: float, theta: float, phi: float,
                    cutoff: BasisCutoff) -> HamiltonianMatrix:
    block = zeeman_spin_block(material.kappa, B, bhat_from_angles(theta, phi))
    return _wrap(_embed(_orbital_identity(cutoff), block), cutoff, "zeeman")


def assemble_paramagnetic(material: MaterialParams, geometry: BoxGeometry,
                          B: float, theta: float, phi: float,
                          cutoff: BasisCutoff, *,
                          orientation: Orientation = Orientation.DOT_110,
                          ) -> HamiltonianMatrix:
    """Terms linear in A = (B x r)/2 after k -> -i grad + (e/hbar) A.

    Every channel factorizes into per-axis 1D operators drawn from
    {identity, position, derivative, position*derivative}; the composite
    same-axis element keeps the projection exact in the truncated basis.
    Each orbital factor below is real antisymmetric, so -i times it is
    Hermitian and the assembled matrix is Hermitian by construction.
    """
    Nx, Ny, Nz = cutoff.N_x, cutoff.N_y, cutoff.N_z
    Ix, Iy, Iz = np.eye(Nx), np.eye(Ny), np.eye(Nz)
    Xx = position_matrix(Nx, geometry.L_x)
    Xy = position_matrix(Ny, geometry.L_y)
    Xz = position_matrix(Nz, geometry.L_z)
    Dx = derivative_matrix(Nx, geometry.L_x)
    Dy = derivative_matrix(Ny, geometry.L_y)
    Dz = derivative_matrix(Nz, geometry.L_z)
    Qx, Qy, Qz = posderiv_matrix(Nx), posderiv_matrix(Ny), posderiv_matrix(Nz)

    bx, by, bz = bhat_from_angles(theta, phi)
    # (b x r) . grad pieces per k-bilinear channel; q_a = r_a d/dr_a
    ops = {
        "xx": by * _kron3(Dx, Iy, Xz) - bz * _kron3(Dx, Xy, Iz),
        "yy": bz * _kron3(Xx, Dy, Iz) - bx * _kron3(Ix, Dy, Xz),
        "zz": bx * _kron3(Ix, Xy, Dz) - by * _kron3(Xx, Iy, Dz),
        "xy": bz * (_kron3(Qx, Iy, Iz) - _kron3(Ix, Qy, Iz))
        - bx * _kron3(Dx, Iy, Xz) + by * _kron3(Ix, Dy, Xz),
        "xz": bx * _kron3(Dx, Xy, Iz)
        - by * (_kron3(Qx, Iy, Iz) - _kron3(Ix, Iy, Qz)) - bz * _kron3(Ix, Xy, Dz),
        "yz": bx * (_kron3(Ix, Qy, Iz) - _kron3(Ix, Iy, Qz))
        - by * _kron3(Xx, Dy, Iz) + bz * _kron3(Xx, Iy, Dz),
    }
    spin = _spin_weights(material, orientation)
    H = sum(CONST.mu_B * B * (-1j if ch in ("xx", "yy", "zz") else -0.5j)
            * _embed(orb, spin[ch]) for ch, orb in ops.items())
    return _wrap(H, cutoff, "paramagnetic")


def assemble_strain(material: MaterialParams, strain: StrainConfig,
                    cutoff: BasisCutoff) -> HamiltonianMatrix:
    """Biaxial Bir-Pikus shifts: rigid HH and LH diagonal offsets in meV."""
    return _wrap(_strain(material, strain, cutoff), cutoff, "strain")


def assemble_static(material: MaterialParams, geometry: BoxGeometry,
                    orientation: Orientation, cutoff: BasisCutoff,
                    E0: float = 0.0, strain: StrainConfig | None = None,
                    ) -> HamiltonianMatrix:
    """LK + electric (+ strain): the B-independent part of the Hamiltonian."""
    _check_dimension(cutoff)
    H, terms = _lk(material, geometry, orientation, cutoff), ("lk",)
    if E0 != 0.0:
        H, terms = H + _electric(E0, geometry, cutoff), terms + ("electric",)
    if strain is not None and strain.eps_parallel != 0.0:
        H, terms = H + _strain(material, strain, cutoff), terms + ("strain",)
    return _wrap(H, cutoff, *terms)
