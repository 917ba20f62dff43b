"""Converged-basis qubit pipeline.

The static Hamiltonian (kinetic + electric + strain) is diagonalized at
B = 0, where every level is a Kramers doublet. The magnetic part, linear
in B, is then treated at first order: its 2x2 projection on the ground
doublet gives the Larmor frequency, and the drive matrix element between
the split qubit states comes from a sum over excited doublets. For angle
grids, ReducedModel contracts both once into two real 3x3 matrices (gm,
gp), so that a field direction costs a few 3-vectors.

The static problem is solved in one mirror sector. H0 commutes with
M_z = P_z exp(-i pi J_z) (P_z: z parity, which is (-1)^(n_z + 1) on the
sine basis), so it is block diagonal in the M_z = +i sector
(n_z odd, j_z in {+3/2, -1/2}) and (n_z even, j_z in {+1/2, -3/2}) and the
-i sector holding the rest. Time reversal T = K antidiag(1, -1, 1, -1)
(complex conjugation K, spin order +3/2..-3/2) commutes with H0 and maps
one sector onto the other. Only the N/2 + sector is diagonalized, as a
real symmetric block after a diagonal phase change; the partner of each
of its states v is T v, so Kramers doublets come out exactly degenerate,
interleaved as (v, T v), by construction. The block is scattered term by
term from the Kronecker terms of H0, so the other sector is never formed.
Its lowest states come from LAPACK's subset eigensolver dsyevr (MRRR), in
place in the block. dsyevr is taken from scipy's compiled LAPACK module,
loaded on the first solve without importing the scipy package itself.

What each step allocates: the solve holds the real n x n block (n = N/2)
and then its n x k eigenvectors w, k = ceil(n_states / 2); the residual is
checked a few (v, T v) pairs at a time. A SpinorSpectrum keeps w and builds
the N x n_states complex eigenvectors only when they are first read.
reduce_model never reads them: it builds the phase-fixed ground doublet
(N x 2), applies the seven generators to it (N x 14) and projects onto every
kept state through w, using <D w_j|y> = w_j^T (D^* y)_+ and
<T D w_j|y> = -conj(w_j^T (D^* T y)_+), which gives 2k x 14 numbers.

All physical outputs are invariant under the pseudo-spin gauge (unitary
rotations within each doublet); eigenvector phases are nevertheless fixed
deterministically so that intermediate dumps are reproducible.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import CONST
from .hamiltonian import (APPLY_COLUMNS, HamiltonianMatrix,
                          assemble_paramagnetic, assemble_static,
                          assemble_zeeman, dipole_y)
from .inputs import (BasisCutoff, BoxGeometry, DegenerateQubitError,
                     FieldConfig, Orientation, PairingError, SolverError,
                     StrainConfig)
from .materials import MaterialParams

DEGENERACY_TOL = 1e-8   # meV; smallest ground-to-excited doublet gap
RESIDUAL_TOL = 1e-9     # relative to the matrix norm
DEFAULT_N_EXCITED = 40
MIN_SPLIT = 1e-12       # meV; below it the qubit states are ill-defined

# the tiers a RabiResult can carry, indexed by include_paramagnetic
CONVERGED_TIERS = ("converged_zeeman", "converged_full")


class SpinorSpectrum:
    """The lowest eigenpairs, ascending: energies (meV) and orthonormal
    vectors in matching order. A spectrum from solve_spectrum holds the
    solved mirror sector and forms its N x n_states complex vectors only
    when they are first read; reduce_model reads the sector instead."""

    def __init__(self, energies: np.ndarray, vectors: np.ndarray | None = None,
                 *, sector: _Sector | None = None):
        if (vectors is None) == (sector is None):
            raise ValueError("give exactly one of vectors and sector")
        self.energies, self.sector = energies, sector
        if vectors is not None:
            self.vectors = vectors      # the cached_property is then unused

    @cached_property
    def vectors(self) -> np.ndarray:
        """The phase-fixed (v, T v) columns, N x n_states."""
        k = self.sector.w.shape[1]
        return _fix_phases(self.sector.pairs(0, k)[:, :self.n_states])

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
    f_L: float      # GHz
    f_R: float      # GHz
    tier: str

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


_POWERS_OF_I = np.array([1, 1j, -1, -1j])


def _plus_sector(H: HamiltonianMatrix,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The M_z = +i block of H, made real by a diagonal phase.

    A state is in the + sector when n_z - 1 and its spin slot (0..3 for
    +3/2..-3/2) have equal parity, so each orbital holds two of its states.
    On it D = i^(n_x + n_z) (0-based n) turns the block into D^* H_++ D,
    which is real symmetric when H is time-reversal even: every term that
    flips the parity of n_x or n_z carries a matching factor i from R or S.
    The block is scattered term by term from HamiltonianMatrix.scatter_terms;
    the phases are powers of i, so every product is exact and the block
    equals the phased + rows of the summed H bit for bit. Returns the +
    sector's flat indices, D on them, the real block (in Fortran order) and
    its infinity norm (that of the whole H when H is time-reversal even);
    raises SolverError if a term couples the sectors or a phased term is not
    real.
    """
    cutoff = H.cutoff
    orbital = np.arange(cutoff.n_orbital)
    n_z = orbital // (cutoff.N_x * cutoff.N_y)
    k = orbital % cutoff.N_x + n_z
    n = 2 * cutoff.n_orbital
    # + sector row 2 a + s // 2 holds orbital a in spin slot s, s = n_z (mod 2)
    # (column-major, LAPACK's order, so that eigh needs no copy of the block)
    block = np.zeros((n, n), order="F")
    not_real = False
    for coef, a, b, o, spin in H.scatter_terms():
        # D^* at a times D at b, a power of i
        phase = _POWERS_OF_I[(k[b] - k[a]) % 4]
        parity_a, parity_b = n_z[a] % 2, n_z[b] % 2
        for s, t in zip(*np.nonzero(spin)):
            rows = parity_a == s % 2
            plus = rows & (parity_b == t % 2)
            if np.any(coef * (o[rows & ~plus] * spin[s, t])):
                raise SolverError("H couples the two mirror (M_z) sectors; "
                                  "the sector solver needs a static "
                                  "Hamiltonian")
            value = phase[plus] * (coef * (o[plus] * spin[s, t]))
            not_real = not_real or np.any(value.imag)
            block[2 * a[plus] + s // 2, 2 * b[plus] + t // 2] += value.real
    if not_real:
        raise SolverError("the phased mirror (M_z) block of H is not real; "
                          "the sector solver needs a time-reversal-even H")
    flat = np.arange(cutoff.dimension)
    in_plus = (flat // (4 * cutoff.N_x * cutoff.N_y) + flat % 4) % 2 == 0
    # the largest column sum of |block|, the infinity norm of the symmetric
    # block, a few contiguous columns at a time: no n x n |block| is formed
    scale = np.max([np.sum(np.abs(block[:, j:j + APPLY_COLUMNS]), axis=0).max()
                    for j in range(0, n, APPLY_COLUMNS)])
    return (np.flatnonzero(in_plus), np.repeat(_POWERS_OF_I[k % 4], 2), block,
            scale)


_T_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _time_reversed(vectors: np.ndarray) -> np.ndarray:
    """T v = K antidiag(1, -1, 1, -1) v on every orbital, column by column."""
    dim, k = vectors.shape
    spin = vectors.reshape(dim // 4, 4, k)[:, ::-1, :].conj()
    return (spin * _T_SIGNS[:, None]).reshape(dim, k)


@dataclass(frozen=True)
class _Sector:
    """The solved M_z = +i sector: the lowest k eigenpairs (e, w) of the
    real block, the sector's flat indices and the phase D on them. State j
    is v_j = D w_j on those rows, and its Kramers partner is T v_j."""
    e: np.ndarray           # (k,) ascending, meV
    w: np.ndarray           # (n, k) real orthonormal columns
    indices: np.ndarray     # (n,) ascending
    phase: np.ndarray       # (n,) powers of i
    dimension: int          # N

    def pairs(self, start: int, stop: int) -> np.ndarray:
        """The (v, T v) columns of states start..stop - 1, interleaved and
        not yet phase fixed: an N x 2 (stop - start) complex array."""
        w = self.w[:, start:stop]
        pairs = np.zeros((self.dimension, 2 * w.shape[1]), dtype=complex)
        pairs[self.indices, 0::2] = self.phase[:, None] * w
        pairs[:, 1::2] = _time_reversed(pairs[:, 0::2])
        return pairs

    def overlaps(self, Y: np.ndarray) -> np.ndarray:
        """<u|Y> for every phase-fixed (v, T v) column u, as
        SpinorSpectrum.vectors holds them (2k x m for an N x m complex Y),
        without forming the columns.

        <v_j|y> = w_j^T (D^* y)_+, where _+ takes the sector's rows. T is
        antiunitary with T^2 = -1, so <T v_j|y> = -conj(<v_j|T y>), and
        (T y)_+ reads y on the rows indices ^ 3, the same orbital's opposite
        spin slots. _fix_phases multiplies a column by conj(l) / |l| for its
        first largest entry l, which turns <u|y> into l <u|y> / |l|."""
        w, idx, D = self.w, self.indices, self.phase
        # the T sign at each sector row; T v_j holds -tau conj(D w_j) on the
        # rows idx ^ 3, which swap each orbital's two sector rows in order
        tau = _T_SIGNS[idx % 4]
        swap = np.arange(w.shape[0]) ^ 1
        size = np.abs(w)
        lead = np.argmax(size, axis=0)
        lead_t = swap[np.argmax(size[swap], axis=0)]
        states = np.arange(w.shape[1])
        unit = D[lead] * np.sign(w[lead, states])
        unit_t = -tau[lead_t] * D[lead_t].conj() * np.sign(w[lead_t, states])

        def project(Z):     # w^T Z for a complex Z, with no complex copy of w
            return (w.T @ Z.view(float)).view(complex)

        out = np.empty((2 * w.shape[1], Y.shape[1]), dtype=complex)
        out[0::2] = unit[:, None] * project(D.conj()[:, None] * Y[idx])
        out[1::2] = -unit_t[:, None] * project((D * tau)[:, None] * Y[idx ^ 3])
        return out


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's compiled LAPACK module, which holds dsyevr, loaded once per
    process without running the scipy or scipy.linalg package __init__: that
    import takes ~0.3 s and ~28 MB (numpy.random, hashlib, OpenSSL) for this
    one routine. The module is registered under its own name, so a later
    import of scipy.linalg reuses it. If the extension file cannot be found
    or loaded directly, the public scipy.linalg.lapack, which exposes the
    same functions, is imported instead."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        scipy = importlib.util.find_spec("scipy")    # locates, does not import
        spec = scipy and importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES)).find_spec(_FLAPACK)
        try:
            if spec is None:
                raise ImportError(f"no {_FLAPACK} extension file")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            from scipy.linalg import lapack as module
        else:
            sys.modules[_FLAPACK] = module
    return module


def solve_spectrum(H: HamiltonianMatrix, n_states: int) -> SpinorSpectrum:
    """Lowest n_states eigenpairs, ascending and deterministically phased.

    H must commute with the mirror M_z (a static Hamiltonian does; any B
    component off z breaks it) and be time-reversal even; only the real +
    sector block is diagonalized, densely (the dimension guard of
    HamiltonianMatrix bounds it by MAX_DIMENSION / 2 rows), and the states
    come out as exactly degenerate (v, T v) pairs. LAPACK's dsyevr computes
    only the lowest k = (n_states + 1) // 2 states of the block, overwriting
    the block in place, with the arguments scipy.linalg.eigh passes for
    subset_by_index: about 1 n^2 doubles plus the n x k eigenvectors live.
    The block is freed right after the solve, and the residual of H is then
    checked over each v and its partner T v, a few pairs at a time, so no
    n x n array outlives the solve and H V is never formed whole; checking
    T v too catches an H that keeps the mirror but is not time-reversal
    even. The returned spectrum keeps the n x k real vectors; its
    N x n_states complex vectors, phase fixed by _fix_phases, are formed
    when first read. Raises SolverError if dsyevr reports a failure or
    misses states, or if the residual check fails or is NaN.
    """
    n = min(n_states, H.dimension)
    if n < 1:
        raise ValueError(f"n_states must be >= 1, got {n_states}")
    indices, phase, block, scale = _plus_sector(H)
    k = (n + 1) // 2
    lapack = _lapack()
    lwork, liwork, info = lapack.dsyevr_lwork(block.shape[0], lower=1)
    if info != 0:
        raise SolverError(f"LAPACK dsyevr_lwork failed (info = {info})")
    # the Fortran-order block is overwritten in place, not copied
    e, w, found, _, info = lapack.dsyevr(
        block, compute_v=1, range="I", lower=1, il=1, iu=k,
        lwork=int(lwork), liwork=liwork, overwrite_a=1)
    del block       # dsyevr has overwritten it; H checks the result
    if info != 0 or found < k:
        raise SolverError(f"LAPACK dsyevr failed (info = {info}) or found "
                          f"fewer than the {k} requested eigenpairs")
    sector = _Sector(e=e[:k], w=w, indices=indices, phase=phase,
                     dimension=H.dimension)
    step = APPLY_COLUMNS // 2
    residual = np.max([np.linalg.norm(
        H @ pairs - pairs * np.repeat(sector.e[j:j + step], 2), axis=0).max()
        for j in range(0, k, step) for pairs in [sector.pairs(j, j + step)]])
    # written so that a NaN residual (or norm) fails it
    if not residual <= RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenpair residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * |H| = {RESIDUAL_TOL * scale:.3e}")
    return SpinorSpectrum(np.repeat(sector.e, 2)[:n], sector=sector)


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


def rabi_sum_over_states(doublets: list[KramersDoublet],
                         Hm_prime: HamiltonianMatrix,
                         dipole_y: HamiltonianMatrix, E_ac: float,
                         n_excited: int = DEFAULT_N_EXCITED, *,
                         tier: str) -> RabiResult:
    """First-order-in-B Larmor and Rabi frequencies of the ground doublet,
    with the drive matrix element summed doublet by doublet. tier names the
    operator Hm_prime: converged_zeeman or converged_full."""
    if len(doublets) < 2:
        raise ValueError("need the ground doublet plus at least one excited")
    ground = doublets[0]
    G = np.stack([ground.v_up, ground.v_down], axis=1)
    w, U = np.linalg.eigh(G.conj().T @ (Hm_prime @ G))
    split = w[1] - w[0]
    if split < MIN_SPLIT:
        raise DegenerateQubitError(
            f"qubit splitting {split:.3e} meV too small; Rabi frequency "
            "ill-defined for this field direction")
    s = np.stack([U[0, a] * ground.v_up + U[1, a] * ground.v_down
                  for a in (0, 1)], axis=1)
    (y_s0, y_s1), (m_s0, m_s1) = (dipole_y @ s).T, (Hm_prime @ s).T
    total = 0.0
    for d in doublets[1:1 + n_excited]:
        gap = ground.E - d.E
        if abs(gap) <= DEGENERACY_TOL:
            raise DegenerateQubitError(
                f"excited doublet {d.index} at E = {d.E:.9f} meV degenerate "
                "with the ground doublet; first-order sum invalid")
        # Y and Hm are Hermitian, so <s1|Y|v> = <v|Y|s1>* etc.; the four
        # factors then need no further matvecs. Summing each doublet before
        # adding it to the total fixes the rounding order.
        total += sum((np.vdot(y_s1, v) * np.vdot(v, m_s0)
                      + np.vdot(m_s1, v) * np.vdot(v, y_s0)) / gap
                     for v in (d.v_up, d.v_down))
    return RabiResult(f_L=split / CONST.h_planck,
                      f_R=CONST.e_scale * E_ac * abs(total) / CONST.h_planck,
                      tier=tier)


# ---------------------------------------------------------------------------
# high-level pipeline

def _static_spectrum(material: MaterialParams, geometry: BoxGeometry,
                     orientation: Orientation, cutoff: BasisCutoff, E0: float,
                     strain: StrainConfig | None,
                     n_excited: int) -> SpinorSpectrum:
    """The ground and n_excited excited doublets of the static problem.
    assemble_static and solve_spectrum are looked up in this module, so a
    rebinding here (as a tracer does) sees both pipelines' calls."""
    H0 = assemble_static(material, geometry, orientation, cutoff, E0=E0,
                         strain=strain)
    return solve_spectrum(H0, min(2 * (n_excited + 1), H0.dimension))


def converged_rabi(material: MaterialParams, geometry: BoxGeometry,
                   orientation: Orientation, fields: FieldConfig,
                   cutoff: BasisCutoff, *,
                   include_paramagnetic: bool = True,
                   strain: StrainConfig | None = None,
                   n_excited: int = DEFAULT_N_EXCITED) -> RabiResult:
    """One-shot pipeline: assemble, solve, pair, project, sum."""
    doublets = pair_doublets(_static_spectrum(
        material, geometry, orientation, cutoff, fields.E0, strain, n_excited))
    Hm = assemble_zeeman(material, fields.B, fields.theta, fields.phi, cutoff)
    if include_paramagnetic:
        Hm = Hm + assemble_paramagnetic(material, geometry, fields.B,
                                        fields.theta, fields.phi, cutoff,
                                        orientation=orientation)
    return rabi_sum_over_states(doublets, Hm, dipole_y(geometry, cutoff),
                                fields.E_ac, n_excited,
                                tier=CONVERGED_TIERS[include_paramagnetic])


# ---------------------------------------------------------------------------
# reduced model for dense angle grids

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class ReducedModel:
    """Static eigenbasis projection of the field generators.

    The B = 0 problem is solved once; the Zeeman and paramagnetic parts are
    linear in B b_hat, so their projections on the kept eigenvectors let an
    angle grid be swept with small-matrix algebra only. In this basis the
    ground doublet is the first two unit vectors, and first order in B needs
    only the generators' columns on it: their 2x2 ground block and their
    couplings to the excited states. Only those columns are kept. A grid
    contracts them once into two real 3x3 matrices (g_matrices) and then
    costs a few 3-vectors per direction.
    """
    energies: np.ndarray       # (n,) kept eigenvalues, meV
    zeeman: np.ndarray         # (3, n, 2) unit-B generators, axes x, y, z
    paramagnetic: np.ndarray   # (3, n, 2)
    dipole: np.ndarray         # (n, 2)

    def _excited_gaps(self, n_excited: int) -> np.ndarray:
        """E_ground - E_d for the excited doublets in the sum."""
        E = _paired_energies(self.energies)
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

    def g_matrices(self, include_paramagnetic: bool = True,
                   n_excited: int = DEFAULT_N_EXCITED,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The tier's real 3x3 gm[j, i] = Re Tr(sigma_j A_i) (meV/T) and
        gp[j, i] = Re Tr(sigma_j (C_i + C_i^H)) (nm/T): A_i is the ground
        block of the unit-B generator G_i on axis i (Zeeman, plus paramagnetic
        for the full tier), C_i = G_i^H Y / (E_ground - E_e) over the first
        n_excited excited doublets."""
        gaps = np.repeat(self._excited_gaps(n_excited), 2)
        G = self.zeeman
        if include_paramagnetic:
            G = G + self.paramagnetic
        exc = slice(2, 2 + gaps.shape[0])
        C = G[:, exc].mT.conj() @ (self.dipole[exc] / gaps[:, None])
        return tuple(np.einsum("jab,iba->ji", _PAULI, X).real
                     for X in (G[:, :2], C + C.mT.conj()))

    def rabi_grid(self, B: float, thetas, phis, E_ac: float, *,
                  include_paramagnetic: bool = True,
                  n_excited: int = DEFAULT_N_EXCITED,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """f_L and f_R (GHz) for every direction of the broadcast
        (thetas, phis), NaN where the qubit splitting is below MIN_SPLIT.

        With v = gm b and w = gp b (g_matrices), the splitting is B |v|,
        f_L = B |v| / h and f_R = e E_ac B |v x w| / (2 h |v|); memory is a
        few 3-vectors per direction. Raises ValueError for E_ac < 0, and
        DegenerateQubitError for an excited doublet degenerate with the
        ground one (not for excited doublets degenerate with each other).
        """
        if E_ac < 0:
            raise ValueError(f"E_ac must be >= 0, got {E_ac}")
        t, p = np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float)
        b = np.stack(np.broadcast_arrays(
            np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)), axis=-1)
        gm, gp = self.g_matrices(include_paramagnetic, n_excited)
        # elementwise over the three axes, not a matmul over directions, so
        # that a lone direction rounds like a batched one
        v, w = (sum(g[:, i] * b[..., i, None] for i in range(3))
                for g in (gm, gp))
        # NaN where the splitting |B| |v| is below MIN_SPLIT, which then
        # makes f_R NaN with no floating-point warning
        v_norm = np.linalg.norm(v, axis=-1)
        B = abs(B)      # a field -B along b is B along -b: same frequencies
        v_norm = np.where(B * v_norm >= MIN_SPLIT, v_norm, np.nan)
        cross = np.linalg.norm(np.cross(v, w), axis=-1)
        f_R = CONST.e_scale * E_ac * B * cross / (2 * CONST.h_planck * v_norm)
        return B * v_norm / CONST.h_planck, f_R

    def rabi(self, B: float, theta: float, phi: float, E_ac: float, *,
             include_paramagnetic: bool = True,
             n_excited: int = DEFAULT_N_EXCITED) -> RabiResult:
        """One direction of rabi_grid; raises DegenerateQubitError where the
        grid gives NaN."""
        f_L, f_R = self.rabi_grid(B, theta, phi, E_ac,
                                  include_paramagnetic=include_paramagnetic,
                                  n_excited=n_excited)
        if np.isnan(f_L):
            raise DegenerateQubitError(
                f"qubit splitting below {MIN_SPLIT:.0e} meV; Rabi frequency "
                "ill-defined for this field direction")
        return RabiResult(f_L=float(f_L), f_R=float(f_R),
                          tier=CONVERGED_TIERS[include_paramagnetic])


def reduce_model(material: MaterialParams, geometry: BoxGeometry,
                 orientation: Orientation, cutoff: BasisCutoff, E0: float, *,
                 strain: StrainConfig | None = None,
                 n_excited: int = DEFAULT_N_EXCITED) -> ReducedModel:
    """The static problem's ReducedModel: the ground doublet and n_excited
    excited doublets. After the solve it allocates the phase-fixed ground
    doublet (N x 2), the seven generators applied to it (N x 14) and their
    projections on the kept states (n x 14), taken through the sector's real
    vectors: no N x n_states eigenvector array is formed."""
    spectrum = _static_spectrum(material, geometry, orientation, cutoff, E0,
                                strain, n_excited)
    sector, n = spectrum.sector, spectrum.n_states
    ground = _fix_phases(sector.pairs(0, 1))

    axes = ((np.pi / 2, 0.0), (np.pi / 2, np.pi / 2), (0.0, 0.0))
    operators = ([assemble_zeeman(material, 1.0, th, ph, cutoff)
                  for th, ph in axes]
                 + [assemble_paramagnetic(material, geometry, 1.0, th, ph,
                                          cutoff, orientation=orientation)
                    for th, ph in axes]
                 + [dipole_y(geometry, cutoff)])
    # the ground-doublet columns V^H (G V[:, :2]), each G applied to the two
    # columns factor by factor and never summed into an N x N operator
    columns = sector.overlaps(np.concatenate(
        [G @ ground for G in operators], axis=1))[:n]
    columns = columns.reshape(n, len(operators), 2).transpose(1, 0, 2)
    return ReducedModel(energies=spectrum.energies, zeeman=columns[0:3],
                        paramagnetic=columns[3:6], dipole=columns[6])
