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

Every operator is a sum of Kronecker terms, coef * O (x) spin, where O is
one weighted product w * z (x) y (x) x of the per-axis 1D tables of
basis.py and spin is a 4x4 block. The assemblers only collect these terms.
`HamiltonianMatrix @ V` applies them to a vector block factor by factor, one
small matrix product per axis, without forming any N x N object; that is how
the numerics apply the field generators and the dipole. Summed entries come
from one place, `HamiltonianMatrix.scatter_terms`: it builds the nonzero
entries (a, b) of each term's orbital factor O from the nonzeros of its
per-axis tables, never O itself, and coef * (O[a, b] * spin[s, t]) is
scattered into the (a, s), (b, t) slots. The numerics scatter only into the
real mirror block of the static H0 (numeric._plus_sector); the dense N x N
view `HamiltonianMatrix.matrix` scatters into all 16 spin slots and is built
only when it is read.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

from .basis import (derivative_matrix, ksquared_matrix, posderiv_matrix,
                    position_matrix)
from .constants import CONST
# the input types and bhat_from_angles, defined without numpy, keep this home
from .inputs import (AssemblyError, BasisCutoff, BoxGeometry,  # noqa: F401
                     FieldConfig, Orientation, StrainConfig, bhat_from_angles)
from .materials import MaterialParams

# A dense N x N complex matrix takes 16 N^2 bytes, 1.07 GB at 8192. The
# numerics never form one. Their largest array is the real n x n mirror
# block (n = N/2), which LAPACK's subset dsyevr (numeric.solve_spectrum)
# overwrites in place at every size, adding only the n x k kept
# eigenvectors and O(n) workspace. Only its lower triangle, all that the
# solver reads, is written, into an anonymous mapping whose upper pages are
# never touched: about n^2 / 2 doubles resident plus n k (N^2 bytes, 67 MB
# at n = 4096). The Ge [100] 3x3 converged angle-map peaks at 35.5, 42.1,
# 56.3 and 83.1 MiB resident at cutoffs (8,8,5) to (14,14,8) (VmHWM, 2-core
# VM, numpy 2.4). Where numpy's dsyevr cannot be bound, the fallback
# np.linalg.eigh keeps the block and, during the call, a full copy of it,
# the n x n eigenvectors and dsyevd's ~2 n^2 workspace: measured
# +4.4 n^2 doubles over the dsyevr peak at n = 1200 and 2016, so about
# 5 n^2 doubles (0.7 GB at n = 4096).
# The guard still counts a full dense matrix, which any read of
# HamiltonianMatrix.matrix allocates. Every HamiltonianMatrix checks it.
MAX_DIMENSION = 8192

# columns of V per pass of HamiltonianMatrix @ V (and of the solver's norm
# and residual passes): one pass keeps its few temporaries in cache, and
# memory does not grow with the number of columns
APPLY_COLUMNS = 16


# One Kronecker term: coef * O (x) spin, where the orbital factor O is one
# product (weight, x, y, z) standing for weight * z (x) y (x) x with n_x
# fastest; a None factor is the identity on its axis. The weight stays in O,
# not folded into coef: an entry coef * ((w * x) * spin) then rounds as the
# dense channel-by-channel construction does, which (coef * w) * ... would not.
Product = tuple[float, "np.ndarray | None", "np.ndarray | None",
                "np.ndarray | None"]
Term = tuple[complex, Product, np.ndarray]


@dataclass(frozen=True)
class HamiltonianMatrix:
    terms: tuple[Term, ...]
    cutoff: BasisCutoff

    def __post_init__(self):
        _check_dimension(self.cutoff)
        sizes = (self.cutoff.N_x, self.cutoff.N_y, self.cutoff.N_z)
        for _, product, spin in self.terms:
            if np.shape(spin) != (4, 4):
                raise ValueError(f"spin block must be 4x4, got {np.shape(spin)}")
            if len(product) != 4 or not np.isscalar(product[0]):
                raise ValueError("a term's orbital factor must be one "
                                 "product (weight, x, y, z)")
            for axis, n, table in zip("xyz", sizes, product[1:]):
                if table is not None and np.shape(table) != (n, n):
                    raise ValueError(
                        f"{axis} factor has shape {np.shape(table)}, "
                        f"cutoff needs ({n}, {n})")

    def scatter_terms(self) -> Iterator[tuple[complex, np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]]:
        """(coef, a, b, o, spin) for each term in order: (a, b) are the
        nonzero entries of the term's orbital factor O (orbitals flat with
        n_x fastest), each once, and o = O[a, b]. The term's entry at
        orbitals (a, b) and spin slots (s, t) is coef * (o * spin[s, t]);
        summing those in term order is the one way the package sums an
        operator.

        O is never formed, so memory follows the term's nonzeros, not
        n_orbital^2. They are the Kronecker product of the tables'
        nonzeros, built axis by axis from x (fastest) to z: an entry (r, c)
        of an axis of stride s adds s * (r * n_orbital + c) to the flat key
        a * n_orbital + b of the faster axes, and the values are
        w * (z * (y * x)) as np.kron rounds them. An identity axis
        multiplies by 1.0, which is exact; a zero weight yields no
        entries."""
        c = self.cutoff
        for coef, (w, *tables), spin in self.terms:
            key, value = np.zeros(1, dtype=np.intp), np.ones(1)
            stride = 1
            for size, table in zip((c.N_x, c.N_y, c.N_z), tables):
                if table is None:
                    table = np.eye(size)
                rows, cols = np.nonzero(table)
                key = np.add.outer(stride * (rows * c.n_orbital + cols),
                                   key).ravel()
                value = np.multiply.outer(table[rows, cols], value).ravel()
                stride *= size
            o = w * value
            kept = o != 0
            yield (coef, *np.divmod(key[kept], c.n_orbital), o[kept], spin)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense complex N x N view, built on first access."""
        n = self.cutoff.n_orbital
        M = np.zeros((n, 4, n, 4), dtype=complex)
        for coef, a, b, o, spin in self.scatter_terms():
            for s, t in zip(*np.nonzero(spin)):
                M[a, s, b, t] += coef * (o * spin[s, t])
        return M.reshape(4 * n, 4 * n)

    @property
    def dimension(self) -> int:
        return self.cutoff.dimension

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        """H V for an (N,) vector or an (N, k) block, applied factor by
        factor; no N x N object is formed."""
        c = self.cutoff
        V = np.asarray(V)
        if V.shape[0] != c.dimension:
            raise ValueError(f"H has dimension {c.dimension}, "
                             f"got a block of shape {V.shape}")
        spinor = V.reshape(c.n_orbital, 4, -1)
        out = np.empty(spinor.shape, dtype=complex)
        for j in range(0, spinor.shape[2], APPLY_COLUMNS):
            part = spinor[:, :, j:j + APPLY_COLUMNS]
            k = part.shape[2]
            # spin axis first, (4, N_z, N_y, N_x, k): then the spin block
            # and each per-axis table act as one matrix product apiece
            W = np.ascontiguousarray(part.transpose(1, 0, 2), dtype=complex)
            W = W.reshape(4, -1)
            acc = np.zeros(W.shape, dtype=complex)
            for coef, (w, *tables), spin in self.terms:
                S = _product(coef * spin, W)
                acc += _along_axes(S, w, tables, c, k)
            out[:, :, j:j + k] = acc.reshape(4, c.n_orbital, k).transpose(1, 0, 2)
        return out.reshape(V.shape)

    def __add__(self, other: "HamiltonianMatrix") -> "HamiltonianMatrix":
        if self.cutoff != other.cutoff:
            raise AssemblyError("cannot add Hamiltonians over different cutoffs")
        return HamiltonianMatrix(terms=self.terms + other.terms,
                                 cutoff=self.cutoff)


def _product(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a @ W for a C-contiguous complex W; a real a acts on the real and
    imaginary parts of W in one real matrix product."""
    if np.isrealobj(a):
        return (a @ W.view(np.float64)).view(complex)
    return a @ W


def _along_axes(S: np.ndarray, w: float, tables, cutoff: BasisCutoff,
                k: int) -> np.ndarray:
    """w z (x) y (x) x applied to S laid out as (4, N_z, N_y, N_x, k);
    identities are skipped and w is folded into the first table applied."""
    Nz, Ny, Nx = cutoff.N_z, cutoff.N_y, cutoff.N_x
    shapes = ((4 * Nz * Ny, Nx, k), (4 * Nz, Ny, Nx * k), (4, Nz, Ny * Nx * k))
    for table, shape in zip(tables, shapes):
        if table is not None:
            S = _product(w * table, S.reshape(shape))
            w = 1.0
    return (S if w == 1.0 else w * S).reshape(4, -1)


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


def _check_dimension(cutoff: BasisCutoff) -> None:
    if cutoff.dimension > MAX_DIMENSION:
        gb = 16 * cutoff.dimension ** 2 / 1e9
        raise AssemblyError(
            f"cutoff {cutoff} gives dimension {cutoff.dimension} "
            f"> MAX_DIMENSION {MAX_DIMENSION}; one dense complex matrix "
            f"would take 16 N^2 bytes = {gb:.2f} GB")


def _lk(material: MaterialParams, geometry: BoxGeometry,
        orientation: Orientation, cutoff: BasisCutoff) -> tuple[Term, ...]:
    """Kinetic four-band Hamiltonian at zero fields.

    Cross products k_i k_j on different axes factorize exactly in the
    product basis, so the symmetrization (k_i k_j + k_j k_i)/2 is the
    identity here; k_i^2 uses the exact diagonal element, not the squared
    truncated derivative matrix.
    """
    Nx, Ny, Nz = cutoff.N_x, cutoff.N_y, cutoff.N_z
    Kx = ksquared_matrix(Nx, geometry.L_x)
    Ky = ksquared_matrix(Ny, geometry.L_y)
    Kz = ksquared_matrix(Nz, geometry.L_z)
    Dx = derivative_matrix(Nx, geometry.L_x)
    Dy = derivative_matrix(Ny, geometry.L_y)
    Dz = derivative_matrix(Nz, geometry.L_z)

    orbital = {
        "xx": (1.0, Kx, None, None),
        "yy": (1.0, None, Ky, None),
        "zz": (1.0, None, None, Kz),
        # k_a k_b = (-i d_a)(-i d_b) = -d_a d_b
        "xy": (-1.0, Dx, Dy, None),
        "xz": (-1.0, Dx, None, Dz),
        "yz": (-1.0, None, Dy, Dz),
    }
    spin = _spin_weights(material, orientation)
    return tuple((CONST.hbar2_over_2m0, orb, spin[ch])
                 for ch, orb in orbital.items())


def _dipole(geometry: BoxGeometry, cutoff: BasisCutoff) -> Product:
    return (1.0, None, position_matrix(cutoff.N_y, geometry.L_y), None)


def _strain(material: MaterialParams, strain: StrainConfig) -> np.ndarray:
    """Biaxial Bir-Pikus shifts: the 4x4 block of rigid HH and LH diagonal
    offsets in meV, the same on every orbital."""
    material.require_strain()
    eps = strain.eps_parallel
    a_v_meV = material.a_v * 1e3
    b_v_meV = material.b_v * 1e3
    nu = material.nu
    d_hh = ((nu - 2) * a_v_meV - (nu + 1) * b_v_meV) * eps
    d_lh = ((nu - 2) * a_v_meV + (nu + 1) * b_v_meV) * eps
    return np.diag([d_hh, d_lh, d_lh, d_hh])


_ORBITAL_IDENTITY = (1.0, None, None, None)


def dipole_y(geometry: BoxGeometry, cutoff: BasisCutoff) -> HamiltonianMatrix:
    """The y position operator (nm), spin-diagonal."""
    return HamiltonianMatrix(terms=((1.0, _dipole(geometry, cutoff), _I4),),
                             cutoff=cutoff)


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
    return HamiltonianMatrix(terms=((1.0, _ORBITAL_IDENTITY, block),),
                             cutoff=cutoff)


def assemble_paramagnetic(material: MaterialParams, geometry: BoxGeometry,
                          B: float, theta: float, phi: float,
                          cutoff: BasisCutoff, *,
                          orientation: Orientation) -> HamiltonianMatrix:
    """Terms linear in A = (B x r)/2 after k -> -i grad + (e/hbar) A.

    Every channel factorizes into per-axis 1D operators drawn from
    {identity, position, derivative, position*derivative}; the composite
    same-axis element keeps the projection exact in the truncated basis.
    Each channel's sum of products below is real antisymmetric (the
    q_a - q_b pairs cancel on the diagonal), so -i times it is Hermitian
    and the assembled matrix is Hermitian by construction. Each product is
    its own term, in channel and product order.
    """
    Nx, Ny, Nz = cutoff.N_x, cutoff.N_y, cutoff.N_z
    Xx = position_matrix(Nx, geometry.L_x)
    Xy = position_matrix(Ny, geometry.L_y)
    Xz = position_matrix(Nz, geometry.L_z)
    Dx = derivative_matrix(Nx, geometry.L_x)
    Dy = derivative_matrix(Ny, geometry.L_y)
    Dz = derivative_matrix(Nz, geometry.L_z)
    Qx, Qy, Qz = posderiv_matrix(Nx), posderiv_matrix(Ny), posderiv_matrix(Nz)

    bx, by, bz = bhat_from_angles(theta, phi)
    # (b x r) . grad pieces per k-bilinear channel, as (weight, x, y, z);
    # q_a = r_a d/dr_a
    ops = {
        "xx": ((by, Dx, None, Xz), (-bz, Dx, Xy, None)),
        "yy": ((bz, Xx, Dy, None), (-bx, None, Dy, Xz)),
        "zz": ((bx, None, Xy, Dz), (-by, Xx, None, Dz)),
        "xy": ((bz, Qx, None, None), (-bz, None, Qy, None),
               (-bx, Dx, None, Xz), (by, None, Dy, Xz)),
        "xz": ((bx, Dx, Xy, None), (-by, Qx, None, None),
               (by, None, None, Qz), (-bz, None, Xy, Dz)),
        "yz": ((bx, None, Qy, None), (-bx, None, None, Qz),
               (-by, Xx, Dy, None), (bz, Xx, None, Dz)),
    }
    spin = _spin_weights(material, orientation)
    return HamiltonianMatrix(terms=tuple(
        (CONST.mu_B * B * (-1j if ch in ("xx", "yy", "zz") else -0.5j),
         product, spin[ch]) for ch, products in ops.items()
        for product in products), cutoff=cutoff)


def assemble_static(material: MaterialParams, geometry: BoxGeometry,
                    orientation: Orientation, cutoff: BasisCutoff,
                    E0: float = 0.0, strain: StrainConfig | None = None,
                    ) -> HamiltonianMatrix:
    """LK + electric (+ strain): the B-independent part of the Hamiltonian.

    The static potential -e E0 y couples n_y of opposite parity only.
    """
    terms = _lk(material, geometry, orientation, cutoff)
    if E0 != 0.0:
        terms += ((-CONST.e_scale * E0, _dipole(geometry, cutoff), _I4),)
    if strain is not None and strain.eps_parallel != 0.0:
        terms += ((1.0, _ORBITAL_IDENTITY, _strain(material, strain)),)
    return HamiltonianMatrix(terms=terms, cutoff=cutoff)
