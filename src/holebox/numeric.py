"""Converged-basis qubit pipeline.

The static Hamiltonian (kinetic + electric + strain) is diagonalized at
B = 0, where every level is a Kramers doublet. The magnetic part, linear
in B, is then treated at first order: its 2x2 projection on the ground
doublet gives the Larmor frequency, and the drive matrix element between
the split qubit states comes from a sum over excited doublets.

The static problem is solved in one mirror sector. H0 commutes with
M_z = P_z exp(-i pi J_z) (P_z: z parity, which is (-1)^(n_z + 1) on the
sine basis), so it is block diagonal in the M_z = +i sector
(n_z odd, j_z in {+3/2, -1/2}) and (n_z even, j_z in {+1/2, -3/2}) and the
-i sector holding the rest. Time reversal T = K antidiag(1, -1, 1, -1)
(complex conjugation K, spin order +3/2..-3/2) commutes with H0 and maps
one sector onto the other. Only the N/2 + sector is diagonalized, as a
real symmetric block after a diagonal phase change; the partner of each
of its states v is T v, so Kramers doublets come out exactly degenerate,
interleaved as (v, T v), by construction.

All physical outputs are invariant under the pseudo-spin gauge (unitary
rotations within each doublet); eigenvector phases are nevertheless fixed
deterministically so that intermediate dumps are reproducible.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .basis import BasisCutoff
from .constants import CONST
from .hamiltonian import (BoxGeometry, FieldConfig, HamiltonianMatrix,
                          Orientation, StrainConfig, assemble_paramagnetic,
                          assemble_static, assemble_zeeman, dipole_y)
from .materials import MaterialParams
from .minimal import DegenerateQubitError

if TYPE_CHECKING:
    import scipy.sparse as sp

DEGENERACY_TOL = 1e-8   # meV; smallest ground-to-excited doublet gap
RESIDUAL_TOL = 1e-9     # relative to the matrix norm
DEFAULT_N_EXCITED = 40
MIN_SPLIT = 1e-12       # meV; below it the qubit states are ill-defined
GRID_BLOCK = 1024       # field directions per batched step of rabi_grid

# the tiers a RabiResult can carry, indexed by include_paramagnetic
CONVERGED_TIERS = ("converged_zeeman", "converged_full")


class SolverError(RuntimeError):
    """H does not fit the sector solve, or its eigenpairs fail the residual
    check."""


class PairingError(ValueError):
    """The spectrum is not a sequence of exactly degenerate pairs."""


@dataclass(frozen=True)
class SpinorSpectrum:
    energies: np.ndarray           # ascending, meV
    vectors: np.ndarray            # orthonormal columns, matching order

    @property
    def n_states(self) -> int:
        return self.energies.shape[0]


@dataclass(frozen=True)
class KramersDoublet:
    E: float
    v_up: np.ndarray
    v_down: np.ndarray
    index: int


@dataclass(frozen=True)
class RabiResult:
    f_L: float                                     # GHz
    f_R: float                                     # GHz
    g_principal: tuple[float, float, float] | None
    tier: str
    tail_fraction: float | None = None

    def __post_init__(self):
        if self.tier not in CONVERGED_TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.f_L < 0 or self.f_R < 0:
            raise ValueError("frequencies must be non-negative")


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each (unit-norm) column so its largest-magnitude entry is
    real positive."""
    rows = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[rows, np.arange(vectors.shape[1])]
    # hypot rounds like the scalar abs(); np.abs of a complex array may not
    return vectors * (lead.conj() / np.hypot(lead.real, lead.imag))


def _plus_sector(H: HamiltonianMatrix,
                 ) -> tuple[np.ndarray, np.ndarray, sp.sparray, float]:
    """The M_z = +i block of H, made real by a diagonal phase.

    A state is in the + sector when n_z - 1 and its spin slot (0..3 for
    +3/2..-3/2) have equal parity. On it D = i^(n_x + n_z) (0-based n)
    turns the block into D^* H_++ D, which is real symmetric when H is
    time-reversal even: every term that flips the parity of n_x or n_z
    carries a matching factor i from R or S. Returns the + sector's flat
    indices, D on them, the real block as a sparse array, and the infinity
    norm of the whole H; raises SolverError if H couples the sectors or the
    phased block is not real. This is the one place the numerics sum H
    into a sparse operator.
    """
    import scipy.sparse as sp
    cutoff = H.cutoff
    flat = np.arange(cutoff.dimension)
    n_x = flat // 4 % cutoff.N_x
    n_z = flat // (4 * cutoff.N_x * cutoff.N_y)
    plus = (n_z + flat % 4) % 2 == 0
    A = H.operator
    norm = abs(A).sum(axis=1).max()
    rows = A.tocsr()[plus]
    if rows[:, ~plus].count_nonzero():
        raise SolverError("H couples the two mirror (M_z) sectors; the "
                          "sector solver needs a static Hamiltonian")
    # the phases are powers of i, so every product below is exact
    D = np.array([1, 1j, -1, -1j])[(n_x + n_z)[plus] % 4]
    block = sp.diags_array(D.conj()) @ rows[:, plus] @ sp.diags_array(D)
    if np.any(block.imag.data):
        raise SolverError("the phased mirror (M_z) block of H is not real; "
                          "the sector solver needs a time-reversal-even H")
    return np.flatnonzero(plus), D, block.real, norm


_T_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _time_reversed(vectors: np.ndarray) -> np.ndarray:
    """T v = K antidiag(1, -1, 1, -1) v on every orbital, column by column."""
    dim, k = vectors.shape
    spin = vectors.reshape(dim // 4, 4, k)[:, ::-1, :].conj()
    return (spin * _T_SIGNS[:, None]).reshape(dim, k)


def solve_spectrum(H: HamiltonianMatrix, n_states: int) -> SpinorSpectrum:
    """Lowest n_states eigenpairs, ascending and deterministically phased.

    H must commute with the mirror M_z (a static Hamiltonian does; any B
    component off z breaks it) and be time-reversal even; only the real +
    sector block is diagonalized, densely (the dimension guard of
    HamiltonianMatrix bounds it by MAX_DIMENSION / 2 rows), and the states
    come out as exactly degenerate (v, T v) pairs.
    """
    dim = H.dimension
    n = min(n_states, dim)
    if n < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    indices, phase, block, scale = _plus_sector(H)
    k = (n + 1) // 2
    # imported here so that importing the package does not load scipy;
    # importing it before _plus_sector raises the (10,10,6) peak RSS by 1 MB
    import scipy.linalg
    e, w = scipy.linalg.eigh(block.toarray(), subset_by_index=[0, k - 1],
                             overwrite_a=True)
    v = np.zeros((dim, k), dtype=complex)
    v[indices] = phase[:, None] * w
    vectors = np.empty((dim, 2 * k), dtype=complex)
    vectors[:, 0::2], vectors[:, 1::2] = v, _time_reversed(v)
    energies, vectors = np.repeat(e, 2)[:n], vectors[:, :n]
    residual = np.max(np.linalg.norm(H @ vectors - vectors * energies, axis=0))
    if scale > 0 and residual > RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenpair residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * |H| = {RESIDUAL_TOL * scale:.3e}")
    return SpinorSpectrum(energies=energies, vectors=_fix_phases(vectors))


def _paired_energies(e: np.ndarray) -> np.ndarray:
    """Doublet energies of a spectrum of adjacent (v, T v) pairs, which
    solve_spectrum makes exactly equal; degenerate doublets need no
    tie-break."""
    n = e.shape[0]
    if n % 2 == 1:
        warnings.warn("odd number of states; dropping the unpaired top state",
                      stacklevel=3)
        n -= 1
    unequal = np.flatnonzero(e[0:n:2] != e[1:n:2])
    if unequal.size:
        i = 2 * unequal[0]
        raise PairingError(
            f"states {i} and {i + 1} differ by {e[i + 1] - e[i]:.3e} meV "
            f"(energies {e[i]:.9f}, {e[i + 1]:.9f}); not a (v, T v) pair")
    return e[0:n:2]


def pair_doublets(spectrum: SpinorSpectrum) -> list[KramersDoublet]:
    """The adjacent (v, T v) pairs of a spectrum from solve_spectrum."""
    V = spectrum.vectors
    return [KramersDoublet(E=E, v_up=V[:, 2 * k], v_down=V[:, 2 * k + 1], index=k)
            for k, E in enumerate(_paired_energies(spectrum.energies))]


def qubit_h1(ground: KramersDoublet, Hm_prime: HamiltonianMatrix) -> np.ndarray:
    """2x2 projection of the magnetic Hamiltonian on the ground doublet."""
    G = np.stack([ground.v_up, ground.v_down], axis=1)
    return G.conj().T @ (Hm_prime @ G)


def rabi_sum_over_states(doublets: list[KramersDoublet],
                         Hm_prime: HamiltonianMatrix,
                         dipole_y: HamiltonianMatrix, E_ac: float,
                         n_excited: int = DEFAULT_N_EXCITED, *,
                         tier: str = CONVERGED_TIERS[True],
                         g_principal: tuple[float, float, float] | None = None,
                         ) -> RabiResult:
    """First-order-in-B Larmor and Rabi frequencies of the ground doublet.

    The drive matrix element is accumulated doublet by doublet; the
    reported tail fraction is the relative weight of the last 10% of the
    excited doublets, a cheap convergence diagnostic.
    """
    if len(doublets) < 2:
        raise ValueError("need the ground doublet plus at least one excited")
    ground = doublets[0]
    excited = doublets[1:1 + n_excited]
    H1 = qubit_h1(ground, Hm_prime)
    w, U = np.linalg.eigh(H1)
    split = w[1] - w[0]
    if split < MIN_SPLIT:
        raise DegenerateQubitError(
            f"qubit splitting {split:.3e} meV too small; Rabi frequency "
            "ill-defined for this field direction")
    f_L = split / CONST.h_planck
    s0 = U[0, 0] * ground.v_up + U[1, 0] * ground.v_down
    s1 = U[0, 1] * ground.v_up + U[1, 1] * ground.v_down
    s = np.stack([s0, s1], axis=1)
    (y_s0, y_s1), (m_s0, m_s1) = (dipole_y @ s).T, (Hm_prime @ s).T
    contribs = []
    for d in excited:
        gap = ground.E - d.E
        if abs(gap) <= DEGENERACY_TOL:
            raise DegenerateQubitError(
                f"excited doublet {d.index} at E = {d.E:.9f} meV degenerate "
                "with the ground doublet; first-order sum invalid")
        c = 0.0 + 0.0j
        for v in (d.v_up, d.v_down):
            # Y and Hm are Hermitian, so <s1|Y|v> = <v|Y|s1>* etc.; the
            # four factors then need no further matvecs
            c += (np.vdot(y_s1, v) * np.vdot(v, m_s0)
                  + np.vdot(m_s1, v) * np.vdot(v, y_s0)) / gap
        contribs.append(c)
    total = sum(contribs)
    f_R = CONST.e_scale * E_ac * abs(total) / CONST.h_planck
    tail_n = max(1, len(contribs) // 10)
    tail = abs(sum(contribs[-tail_n:])) / abs(total) if abs(total) > 0 else 0.0
    return RabiResult(f_L=f_L, f_R=f_R, g_principal=g_principal, tier=tier,
                      tail_fraction=tail)


# ---------------------------------------------------------------------------
# high-level pipeline

def _magnetic_hamiltonian(material: MaterialParams, geometry: BoxGeometry,
                          orientation: Orientation, fields: FieldConfig,
                          cutoff: BasisCutoff,
                          include_paramagnetic: bool) -> HamiltonianMatrix:
    H = assemble_zeeman(material, fields.B, fields.theta, fields.phi, cutoff)
    if include_paramagnetic:
        H = H + assemble_paramagnetic(material, geometry, fields.B,
                                      fields.theta, fields.phi, cutoff,
                                      orientation=orientation)
    return H


def _principal_g(ground: KramersDoublet, axis_generators) -> tuple[float, float, float]:
    """|g| along the three axes from unit-B magnetic generators."""
    out = []
    for G in axis_generators:
        w = np.linalg.eigvalsh(qubit_h1(ground, G))
        out.append((w[1] - w[0]) / CONST.mu_B)
    return tuple(out)


def converged_rabi(material: MaterialParams, geometry: BoxGeometry,
                   orientation: Orientation, fields: FieldConfig,
                   cutoff: BasisCutoff, *,
                   include_paramagnetic: bool = True,
                   strain: StrainConfig | None = None,
                   n_excited: int = DEFAULT_N_EXCITED,
                   with_g: bool = False) -> RabiResult:
    """One-shot pipeline: assemble, solve, pair, project, sum."""
    H0 = assemble_static(material, geometry, orientation, cutoff,
                         E0=fields.E0, strain=strain)
    n_states = min(2 * (n_excited + 1), H0.dimension)
    spectrum = solve_spectrum(H0, n_states)
    doublets = pair_doublets(spectrum)
    Hm = _magnetic_hamiltonian(material, geometry, orientation, fields,
                               cutoff, include_paramagnetic)
    Y = dipole_y(geometry, cutoff)
    g = None
    if with_g:
        gens = [_magnetic_hamiltonian(
            material, geometry, orientation,
            FieldConfig(B=1.0, theta=th, phi=ph), cutoff, include_paramagnetic)
            for th, ph in ((np.pi / 2, 0.0), (np.pi / 2, np.pi / 2), (0.0, 0.0))]
        g = _principal_g(doublets[0], gens)
    return rabi_sum_over_states(doublets, Hm, Y, fields.E_ac, n_excited,
                                tier=CONVERGED_TIERS[include_paramagnetic],
                                g_principal=g)


# ---------------------------------------------------------------------------
# reduced model for dense angle grids

@dataclass(frozen=True)
class ReducedModel:
    """Static eigenbasis projection of the field generators.

    The B = 0 problem is solved once; the Zeeman and paramagnetic parts are
    linear in B b_hat, so their projections on the kept eigenvectors let an
    angle grid be swept with small-matrix algebra only. In this basis the
    ground doublet is the first two unit vectors, and first order in B needs
    only the generators' columns on it: their 2x2 ground block and their
    couplings to the excited states. Only those columns are kept, and a
    whole grid of directions is evaluated as one batched sum over states.
    """
    energies: np.ndarray       # (n,) kept eigenvalues, meV
    zeeman: np.ndarray         # (3, n, 2) unit-B generators, axes x, y, z
    paramagnetic: np.ndarray   # (3, n, 2)
    dipole: np.ndarray         # (n, 2)

    @cached_property
    def _doublet_energies(self) -> np.ndarray:
        # pairing depends on the energies only, so it runs once per model
        return _paired_energies(self.energies)

    def _excited_gaps(self, n_excited: int) -> np.ndarray:
        """E_ground - E_d for the excited doublets in the sum."""
        E = self._doublet_energies
        if E.shape[0] < 2:
            raise ValueError("need the ground doublet plus at least one excited")
        gaps = E[0] - E[1:1 + n_excited]
        degenerate = np.flatnonzero(np.abs(gaps) <= DEGENERACY_TOL)
        if degenerate.size:
            k = degenerate[0] + 1
            raise DegenerateQubitError(
                f"excited doublet {k} at E = {E[k]:.9f} meV degenerate "
                "with the ground doublet; first-order sum invalid")
        return gaps

    def _drive_terms(self, B: float, thetas: np.ndarray, phis: np.ndarray,
                     include_paramagnetic: bool, n_excited: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Qubit splitting (meV) and the per-state terms of the drive sum,
        for the field directions of the 1-D angle arrays."""
        gaps = self._excited_gaps(n_excited)
        columns = self.zeeman
        if include_paramagnetic:
            columns = columns + self.paramagnetic
        bhat = np.stack([np.sin(thetas) * np.cos(phis),
                         np.sin(thetas) * np.sin(phis), np.cos(thetas)], axis=1)
        n = columns.shape[1]
        # one (1, 3) x (3, 2n) product per direction: a single (k, 3) product
        # would round a lone direction differently from a batched one
        M = ((B * bhat)[:, None, :] @ columns.reshape(3, 2 * n)).reshape(-1, n, 2)
        w, U = np.linalg.eigh(M[:, :2, :])
        # Y s_a and M s_a on the excited states, s_a = U[:, a] the qubit states
        excited = slice(2, 2 + 2 * gaps.shape[0])
        m_s = M[:, excited, :] @ U
        y_s = self.dipole[excited] @ U
        # Y and M are Hermitian: <s1|Y|v><v|M|s0> + <s1|M|v><v|Y|s0>
        terms = (y_s[..., 1].conj() * m_s[..., 0]
                 + m_s[..., 1].conj() * y_s[..., 0]) / np.repeat(gaps, 2)
        return w[:, 1] - w[:, 0], terms

    @staticmethod
    def _frequencies(split: np.ndarray, terms: np.ndarray,
                     E_ac: float) -> tuple[np.ndarray, np.ndarray]:
        ok = split >= MIN_SPLIT
        f_L = np.where(ok, split / CONST.h_planck, np.nan)
        f_R = CONST.e_scale * E_ac * np.abs(terms.sum(axis=-1)) / CONST.h_planck
        return f_L, np.where(ok, f_R, np.nan)

    def rabi_grid(self, B: float, thetas, phis, E_ac: float, *,
                  include_paramagnetic: bool = True,
                  n_excited: int = DEFAULT_N_EXCITED,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """f_L and f_R (GHz) for every direction of the broadcast
        (thetas, phis), NaN where the qubit splitting is below MIN_SPLIT.

        Directions are processed GRID_BLOCK at a time, so memory does not
        grow with the grid. Raises DegenerateQubitError when an excited
        doublet is degenerate with the ground one, which makes every
        direction ill-defined; excited doublets degenerate with each other
        are valid pairs and raise nothing.
        """
        thetas, phis = np.broadcast_arrays(np.asarray(thetas, dtype=float),
                                           np.asarray(phis, dtype=float))
        t, p = thetas.ravel(), phis.ravel()
        f_L, f_R = np.empty(t.shape), np.empty(t.shape)
        for start in range(0, t.shape[0], GRID_BLOCK):
            block = slice(start, start + GRID_BLOCK)
            split, terms = self._drive_terms(B, t[block], p[block],
                                             include_paramagnetic, n_excited)
            f_L[block], f_R[block] = self._frequencies(split, terms, E_ac)
        return f_L.reshape(thetas.shape), f_R.reshape(thetas.shape)

    def rabi(self, B: float, theta: float, phi: float, E_ac: float, *,
             include_paramagnetic: bool = True,
             n_excited: int = DEFAULT_N_EXCITED) -> RabiResult:
        """One direction of rabi_grid, with the tail fraction."""
        split, terms = self._drive_terms(B, np.array([theta]), np.array([phi]),
                                         include_paramagnetic, n_excited)
        if split[0] < MIN_SPLIT:
            raise DegenerateQubitError(
                f"qubit splitting {split[0]:.3e} meV too small; Rabi frequency "
                "ill-defined for this field direction")
        f_L, f_R = self._frequencies(split, terms, E_ac)
        # tail: weight of the last 10% of the excited doublets, as in
        # rabi_sum_over_states; each doublet has two terms
        terms = terms[0]
        total = abs(terms.sum())
        tail_n = 2 * max(1, terms.shape[0] // 20)
        tail = abs(terms[-tail_n:].sum()) / total if total > 0 else 0.0
        return RabiResult(f_L=float(f_L[0]), f_R=float(f_R[0]),
                          g_principal=None, tail_fraction=tail,
                          tier=CONVERGED_TIERS[include_paramagnetic])


def reduce_model(material: MaterialParams, geometry: BoxGeometry,
                 orientation: Orientation, cutoff: BasisCutoff, E0: float, *,
                 strain: StrainConfig | None = None,
                 n_excited: int = DEFAULT_N_EXCITED) -> ReducedModel:
    n_states = min(2 * (n_excited + 1), cutoff.dimension)
    spectrum = solve_spectrum(assemble_static(material, geometry, orientation,
                                              cutoff, E0=E0, strain=strain),
                              n_states)
    V = spectrum.vectors

    axes = ((np.pi / 2, 0.0), (np.pi / 2, np.pi / 2), (0.0, 0.0))
    operators = ([assemble_zeeman(material, 1.0, th, ph, cutoff)
                  for th, ph in axes]
                 + [assemble_paramagnetic(material, geometry, 1.0, th, ph,
                                          cutoff, orientation=orientation)
                    for th, ph in axes]
                 + [dipole_y(geometry, cutoff)])
    # the ground-doublet columns V^H (G V[:, :2]), each G applied to the two
    # columns factor by factor and never summed into an N x N operator
    columns = V.conj().T @ np.stack([G @ V[:, :2] for G in operators])
    return ReducedModel(energies=spectrum.energies, zeeman=columns[0:3],
                        paramagnetic=columns[3:6], dipole=columns[6])
