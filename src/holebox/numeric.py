"""Converged-basis qubit pipeline.

The static Hamiltonian (kinetic + electric + strain) is diagonalized at
B = 0, where every level is a Kramers doublet. The magnetic part, linear
in B, is then treated at first order: its 2x2 projection on the ground
doublet gives the Larmor frequency, and the drive matrix element between
the split qubit states comes from a sum over excited doublets.
ReducedModel.g_matrices contracts both once into two real 3x3 matrices
(gm, gp). Their diagonals (g, p) = gmatrix.diagonal(gm, gp) are the hand-off
to holebox.gmatrix, which evaluates every direction of both routes; the
exact minimal route hands over its own (g, p). rabi_sum_over_states,
which forms no (gm, gp), checks that route direction by direction.
Callers choose the operator by include_paramagnetic; no tier is named here
(the tier names live in holebox.sweeps.TIERS).

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
place in the block, through one call, _lowest_pairs. It binds
LAPACKE_dsyevr from the OpenBLAS that numpy itself loaded, so the solve and
the numpy work around it share one BLAS library and thread pool; only where
that symbol cannot be bound does it call numpy's own np.linalg.eigh, which
agrees to rounding. Neither path needs more than numpy.

What each step allocates: the solve holds the real n x n block (n = N/2),
of which only the lower triangle, all that the solver reads, is written and
resident, and then its n x k eigenvectors w, k = n_states / 2. The block
has an anonymous mapping of its own, returned whole to the OS when the
block is freed right after the solve. The SpinorSpectrum it
returns is the solved sector: it keeps w and one energy per doublet, and
its pairs method is the only constructor of the complex (v, T v) columns
and of their phase factor. The residual check and reduce_model both read the
columns a few pairs at a time, so neither forms the N x n_states
eigenvectors: reduce_model builds the ground doublet (N x 2), applies the
seven generators to it (N x 14) and projects that onto each chunk of
columns, which gives 2k x 14 numbers.

All physical outputs are invariant under the pseudo-spin gauge (unitary
rotations within each doublet); eigenvector phases are nevertheless fixed
by one rule, so that intermediate dumps are reproducible: each (v, T v)
column's first largest entry is real positive. pairs applies it with an
exact power of i, so every reader of the columns sees the same bits.
"""
from __future__ import annotations

import ctypes
import mmap
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import gmatrix
from .constants import CONST
from .gmatrix import MIN_SPLIT
from .hamiltonian import (APPLY_COLUMNS, HamiltonianMatrix,
                          assemble_paramagnetic, assemble_static,
                          assemble_zeeman, dipole_y)
from .inputs import (DEFAULT_N_EXCITED, BasisCutoff, BoxGeometry,
                     DegenerateQubitError, FieldConfig, Orientation,
                     SolverError, StrainConfig)
from .materials import MaterialParams

DEGENERACY_TOL = 1e-8   # meV; smallest ground-to-excited doublet gap
RESIDUAL_TOL = 1e-9     # relative to the matrix norm


@dataclass(frozen=True)
class KramersDoublet:
    E: float
    v_up: np.ndarray
    v_down: np.ndarray
    index: int


@dataclass(frozen=True)
class RabiResult:
    """The Larmor and Rabi frequencies of one field direction."""
    f_L: float      # GHz
    f_R: float      # GHz

    def __post_init__(self):
        if self.f_L < 0 or self.f_R < 0:
            raise ValueError("frequencies must be non-negative")


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
    the phases are powers of i, so every product is exact and the block's
    lower triangle equals that of the phased + rows of the summed H bit for
    bit. Only entries with row >= column are written, as dsyevr (uplo L)
    and np.linalg.eigh read no others, so the pages of the strict upper
    triangle (0.0) are never touched and never resident; both checks below
    still see every scattered value. Returns the + sector's flat indices, D
    on them, the real block (in Fortran order, in an anonymous mapping of
    its own, unmapped when the block is freed) and the infinity norm of the
    symmetric block it stands for (that of the whole H when H is
    time-reversal even); raises SolverError if a term couples the sectors
    or a phased term is not real.
    """
    cutoff = H.cutoff
    orbital = np.arange(cutoff.n_orbital)
    n_z = orbital // (cutoff.N_x * cutoff.N_y)
    k = orbital % cutoff.N_x + n_z
    n = 2 * cutoff.n_orbital
    # + sector row 2 a + s // 2 holds orbital a in spin slot s, s = n_z (mod 2)
    # (column-major, LAPACK's order, so that eigh needs no copy of the block),
    # in an anonymous mapping, not a numpy array: numpy backs arrays of 4 MiB
    # or more with huge pages, which a lower-only block makes resident whole
    block = np.frombuffer(mmap.mmap(-1, 8 * n * n)).reshape((n, n), order="F")
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
            row, col = 2 * a[plus] + s // 2, 2 * b[plus] + t // 2
            lower = row >= col
            block[row[lower], col[lower]] += value.real[lower]
    if not_real:
        raise SolverError("the phased mirror (M_z) block of H is not real; "
                          "the sector solver needs a time-reversal-even H")
    flat = np.arange(cutoff.dimension)
    in_plus = (flat // (4 * cutoff.N_x * cutoff.N_y) + flat % 4) % 2 == 0
    # the infinity norm of the symmetric block, its largest absolute column
    # sum: the lower triangle's column sum plus its row sum, less the
    # diagonal, a few contiguous columns at a time from the diagonal down, so
    # no n x n |block| is formed and the upper triangle is read only inside
    # each diagonal square, where it is 0.0
    sums = -np.abs(np.diagonal(block))
    for j in range(0, n, APPLY_COLUMNS):
        part = np.abs(block[j:, j:j + APPLY_COLUMNS])
        sums[j:j + APPLY_COLUMNS] += part.sum(axis=0)
        sums[j:] += part.sum(axis=1)
    scale = sums.max()
    return (np.flatnonzero(in_plus), np.repeat(_POWERS_OF_I[k % 4], 2), block,
            scale)


class SpinorSpectrum:
    """The lowest k Kramers doublets of a static H, ascending, as
    solve_spectrum finds them in the M_z = +i sector: the lowest k
    eigenpairs (e, w) of its real block (w: n x k, real orthonormal), the
    sector's ascending flat indices and the phase D on them. Doublet j is
    v_j = D w_j on those rows and its Kramers partner T v_j, both at energy
    e_j. pairs is the only constructor of the (v, T v) columns and of their
    phase factor."""

    def __init__(self, e: np.ndarray, w: np.ndarray, indices: np.ndarray,
                 phase: np.ndarray, dimension: int):
        self.e, self.w, self.indices, self.phase, self.dimension = (
            e, w, indices, phase, dimension)

    @property
    def n_states(self) -> int:
        return 2 * self.e.shape[0]

    @cached_property
    def vectors(self) -> np.ndarray:
        """The phase-fixed (v, T v) columns, N x n_states."""
        return self.pairs(0, self.e.shape[0])

    def pairs(self, start: int, stop: int) -> np.ndarray:
        """The (v, T v) columns of states start..stop - 1, interleaved: an
        N x 2 (stop - start) complex array. Each column is phase fixed by
        conj(l) / |l| for its first largest entry l, a power of i times a
        real number, so the factor is sign(Re l) - i sign(Im l), exact where
        a division l / |l| would round."""
        w, dim = self.w[:, start:stop], self.dimension
        m = w.shape[1]
        pairs = np.zeros((dim, 2 * m), dtype=complex)
        pairs[self.indices, 0::2] = self.phase[:, None] * w
        # T v = K antidiag(1, -1, 1, -1) v on every orbital
        spin = pairs[:, 0::2].reshape(dim // 4, 4, m)[:, ::-1, :].conj()
        pairs[:, 1::2] = (spin * [[1], [-1], [1], [-1]]).reshape(dim, m)
        lead = pairs[np.argmax(np.abs(pairs), axis=0), np.arange(2 * m)]
        pairs *= np.sign(lead.real) - 1j * np.sign(lead.imag)
        return pairs


_LAPACK_COL_MAJOR = 102     # LAPACKE's matrix_layout for Fortran order


@cache
def _dsyevr():
    """LAPACKE_dsyevr of the OpenBLAS that numpy loaded, bound once per
    process, with the library's lapack_int as a numpy dtype; or None where
    it cannot be bound.

    numpy's LAPACK extension is opened again by its path, which returns
    the library numpy already loaded, and the symbols are looked up
    through it in its dependencies: the scipy-openblas wheels name them
    scipy_<name>64_ (64-bit integers) or scipy_<name>, a plain OpenBLAS
    <name>64_ or <name>. The integer width is read from the library's
    build configuration. A numpy on MKL or Accelerate, or a library whose
    symbols cannot be found, gives None."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", ""):
            try:
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                dsyevr = getattr(lib, f"{prefix}LAPACKE_dsyevr{suffix}")
            except AttributeError:
                continue
            config.restype, config.argtypes = ctypes.c_char_p, []
            wide = b"USE64BITINT" in (config() or b"").split()
            c_int = ctypes.c_int64 if wide else ctypes.c_int32
            ptr, char, real = ctypes.c_void_p, ctypes.c_char, ctypes.c_double
            dsyevr.restype = c_int
            dsyevr.argtypes = [ctypes.c_int, char, char, char, c_int, ptr,
                               c_int, real, real, c_int, c_int, real, ptr,
                               ptr, ptr, c_int, ptr]
            return dsyevr, np.dtype(c_int)
    return None


def _lowest_pairs(block: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs (e, w) of the real symmetric Fortran-order
    block, ascending (w: n x k), read from its lower triangle only (both
    paths ignore the strict upper one); raises ValueError for any other
    block or a k outside 1..n, which the bound dsyevr, reading raw
    pointers, cannot take.

    dsyevr from numpy's own OpenBLAS (_dsyevr) computes only those k, in
    place in the block, with its own workspace query, so the solve, the
    residual check and reduce_model's projections share one BLAS library
    and thread pool. Where it cannot be bound (numpy on MKL or Accelerate),
    np.linalg.eigh (LAPACK's dsyevd) solves a copy of the block whole and
    its first k pairs are kept: the same pairs to rounding, not to the bit,
    with about 4 n^2 more doubles live during the call. Neither path needs
    more than numpy. Raises SolverError if the solver fails or dsyevr finds
    fewer than k pairs."""
    n = block.shape[0]
    if (block.dtype != np.float64 or not block.flags.f_contiguous
            or block.shape != (n, n) or not 1 <= k <= n):
        raise ValueError("the sector solve needs a square Fortran-order "
                         "float64 block and 1 <= k <= its order")
    bound = _dsyevr()
    if bound is None:
        try:
            e, w = np.linalg.eigh(block)
        except np.linalg.LinAlgError as err:
            raise SolverError(f"numpy's eigh (LAPACK dsyevd) failed: {err}"
                              ) from err
        # a copy, so that the n x n eigenvectors are freed on return
        return e[:k], w[:, :k].copy(order="F")
    dsyevr, lapack_int = bound
    e, w = np.zeros(n), np.zeros((n, k), order="F")
    m, isuppz = np.zeros(1, lapack_int), np.zeros(2 * k, lapack_int)
    info = dsyevr(_LAPACK_COL_MAJOR, b"V", b"I", b"L", n, block.ctypes.data,
                  n, 0.0, 0.0, 1, k, 0.0, m.ctypes.data, e.ctypes.data,
                  w.ctypes.data, n, isuppz.ctypes.data)
    found = int(m[0])
    if info != 0 or found < k:
        raise SolverError(f"LAPACK dsyevr failed (info = {info}) or found "
                          f"{found} of the {k} requested eigenpairs")
    return e[:k], w


def solve_spectrum(H: HamiltonianMatrix, n_states: int) -> SpinorSpectrum:
    """Lowest n_states eigenpairs (at most N), ascending and
    deterministically phased.

    H must commute with the mirror M_z (a static Hamiltonian does; any B
    component off z breaks it) and be time-reversal even; only the real +
    sector block is diagonalized, densely (the dimension guard of
    HamiltonianMatrix bounds it by MAX_DIMENSION / 2 rows), and the states
    come out as exactly degenerate (v, T v) pairs. LAPACK's dsyevr
    (_lowest_pairs) computes only the lowest k = n_states / 2 states of the
    block, overwriting the block in place: the block's lower triangle,
    about n^2 / 2 doubles resident, plus the n x k eigenvectors live (where
    it cannot be bound, numpy's eigh takes about 4 n^2 more for the
    duration of the call).
    The block is freed right after the solve, and the residual of H is then
    checked over each v and its partner T v, a few pairs at a time, so no
    n x n array outlives the solve and H V is never formed whole; checking
    T v too catches an H that keeps the mirror but is not time-reversal
    even. The returned spectrum keeps the n x k real vectors; its
    N x n_states phase-fixed complex vectors are formed when first read.
    Raises ValueError for an n_states that is not a positive even number,
    and SolverError if the eigensolver reports a failure or misses states,
    or if the residual check fails or is NaN.
    """
    if n_states < 1 or n_states % 2:
        raise ValueError(f"n_states must be a positive even number (whole "
                         f"Kramers doublets), got {n_states}")
    indices, phase, block, scale = _plus_sector(H)
    k = min(n_states, H.dimension) // 2
    e, w = _lowest_pairs(block, k)
    del block       # dsyevr has overwritten it; H checks the result
    spectrum = SpinorSpectrum(e, w, indices, phase, H.dimension)
    step = APPLY_COLUMNS // 2
    residual = np.max([np.linalg.norm(
        H @ pairs - pairs * np.repeat(e[j:j + step], 2), axis=0).max()
        for j in range(0, k, step) for pairs in [spectrum.pairs(j, j + step)]])
    # written so that a NaN residual (or norm) fails it
    if not residual <= RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenpair residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * |H| = {RESIDUAL_TOL * scale:.3e}")
    return spectrum


def pair_doublets(spectrum: SpinorSpectrum) -> list[KramersDoublet]:
    """The (v, T v) doublets of a spectrum from solve_spectrum, one per
    energy; degenerate doublets need no tie-break."""
    V = spectrum.vectors
    return [KramersDoublet(E=E, v_up=V[:, 2 * k], v_down=V[:, 2 * k + 1], index=k)
            for k, E in enumerate(spectrum.e)]


def rabi_sum_over_states(doublets: list[KramersDoublet],
                         Hm_prime: HamiltonianMatrix,
                         dipole_y: HamiltonianMatrix, E_ac: float,
                         n_excited: int | None = None) -> RabiResult:
    """First-order-in-B Larmor and Rabi frequencies of the ground doublet,
    with the drive matrix element summed doublet by doublet over the first
    n_excited excited doublets, or over every given one for None. Hm_prime
    is the magnetic operator at the field: Zeeman only, or Zeeman plus
    paramagnetic."""
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
    for d in doublets[1:None if n_excited is None else 1 + n_excited]:
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
                      f_R=CONST.e_scale * E_ac * abs(total) / CONST.h_planck)


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
                                fields.E_ac, n_excited)


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
    couplings to the excited states. Only those columns are kept.
    g_matrices contracts them once into two real 3x3 matrices; an angle grid
    then evaluates their diagonals with gmatrix.frequencies, a few products
    per direction.
    """
    e: np.ndarray              # (n/2,) kept doublet energies, meV
    zeeman: np.ndarray         # (3, n, 2) unit-B generators, axes x, y, z
    paramagnetic: np.ndarray   # (3, n, 2)
    dipole: np.ndarray         # (n, 2)

    def _excited_gaps(self, n_excited: int | None) -> np.ndarray:
        """E_ground - E_d for the excited doublets in the sum: the first
        n_excited, or every kept one for None."""
        e = self.e
        if e.shape[0] < 2:
            raise ValueError("need the ground doublet plus at least one excited")
        gaps = e[0] - (e[1:] if n_excited is None else e[1:1 + n_excited])
        degenerate = np.flatnonzero(np.abs(gaps) <= DEGENERACY_TOL)
        if degenerate.size:
            k = degenerate[0] + 1
            raise DegenerateQubitError(
                f"excited doublet {k} at E = {e[k]:.9f} meV degenerate "
                "with the ground doublet; first-order sum invalid")
        return gaps

    def g_matrices(self, include_paramagnetic: bool = True,
                   n_excited: int | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The real 3x3 gm[j, i] = Re Tr(sigma_j A_i) (meV/T) and
        gp[j, i] = Re Tr(sigma_j (C_i + C_i^H)) (nm/T): A_i is the ground
        block of the unit-B generator G_i on axis i (Zeeman, plus paramagnetic
        if include_paramagnetic), C_i = G_i^H Y / (E_ground - E_e) over the
        first n_excited excited doublets, or over every kept one when
        n_excited is None."""
        gaps = np.repeat(self._excited_gaps(n_excited), 2)
        G = self.zeeman
        if include_paramagnetic:
            G = G + self.paramagnetic
        exc = slice(2, 2 + gaps.shape[0])
        C = G[:, exc].mT.conj() @ (self.dipole[exc] / gaps[:, None])
        return tuple(np.einsum("jab,iba->ji", _PAULI, X).real
                     for X in (G[:, :2], C + C.mT.conj()))

    def rabi(self, B: float, theta: float, phi: float, E_ac: float, *,
             include_paramagnetic: bool = True,
             n_excited: int | None = None) -> RabiResult:
        """One direction, by holebox.gmatrix.qubit on g_matrices'
        diagonals: raises DegenerateQubitError where gmatrix.frequencies
        gives NaN. No command calls it; it is kept only because the
        benchmark's cutoff ladder (bench/ladder.py) calls it with n_excited,
        and goes with that call."""
        pair = self.g_matrices(include_paramagnetic, n_excited)
        f_R, f_L = gmatrix.qubit(*gmatrix.diagonal(*pair), B, theta, phi, E_ac)
        return RabiResult(f_L=f_L, f_R=f_R)


def reduce_model(material: MaterialParams, geometry: BoxGeometry,
                 orientation: Orientation, cutoff: BasisCutoff, E0: float, *,
                 strain: StrainConfig | None = None,
                 n_excited: int = DEFAULT_N_EXCITED) -> ReducedModel:
    """The static problem's ReducedModel: the ground doublet and n_excited
    excited doublets. After the solve it allocates the phase-fixed ground
    doublet (N x 2), the seven generators applied to it (N x 14) and their
    projections on the kept states (n x 14), taken against the (v, T v)
    columns from SpinorSpectrum.pairs APPLY_COLUMNS at a time: no
    N x n_states eigenvector array is formed."""
    spectrum = _static_spectrum(material, geometry, orientation, cutoff, E0,
                                strain, n_excited)
    n, k = spectrum.n_states, spectrum.e.shape[0]
    ground = spectrum.pairs(0, 1)

    axes = ((np.pi / 2, 0.0), (np.pi / 2, np.pi / 2), (0.0, 0.0))
    operators = ([assemble_zeeman(material, 1.0, th, ph, cutoff)
                  for th, ph in axes]
                 + [assemble_paramagnetic(material, geometry, 1.0, th, ph,
                                          cutoff, orientation=orientation)
                    for th, ph in axes]
                 + [dipole_y(geometry, cutoff)])
    # the ground-doublet columns V^H (G V[:, :2]), each G applied to the two
    # columns factor by factor, and V^H taken a few pairs at a time
    Y = np.concatenate([G @ ground for G in operators], axis=1)
    step = APPLY_COLUMNS // 2
    columns = np.concatenate([spectrum.pairs(j, j + step).conj().T @ Y
                              for j in range(0, k, step)])
    columns = columns.reshape(n, len(operators), 2).transpose(1, 0, 2)
    return ReducedModel(e=spectrum.e, zeeman=columns[0:3],
                        paramagnetic=columns[3:6], dipole=columns[6])
