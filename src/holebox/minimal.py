"""Closed-form qubit theory in the four-state minimal basis.

The basis keeps the two lowest y subbands (n_x = n_z = 1, n_y = 1, 2), each
a heavy-light doublet mixed by the in-plane anisotropy term R. Everything
downstream is written in terms of the six subband constants P_i, Q_i, R_i:
mixing amplitudes (h_i, l_i), the electric couplings between subbands, the
principal g-factors of the ground doublet, and the transverse matrix element
that yields the Rabi frequency at first order in B.

Two independent evaluation routes coexist on purpose:
- rabi_linearized: channel-resolved closed forms, first order in E0;
- minimal_exact_rabi: exact diagonalization of the 8x8 minimal Hamiltonian,
  nonperturbative in E0, with a generic sum over excited doublets.
They must agree in slope as E0 -> 0; tests enforce it.

Sign conventions: Lambda = -e E0 <1|y|2> > 0 for E0 > 0; h = -R/W carries
the sign of -R; beta is real non-negative and alpha carries all the phase
of the qubit amplitudes.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, hypot, inf, pi, sin, sqrt

import numpy as np

from .basis import position_element
from .constants import CONST
from .hamiltonian import (BoxGeometry, FieldConfig, Orientation, StrainConfig,
                          bhat_from_angles, zeeman_spin_block)
from .materials import MaterialParams

_SQ3 = sqrt(3.0)

# spin slots in the 4x4 blocks, same order as the Zeeman block
_J32, _J12, _JM12, _JM32 = 0, 1, 2, 3

# 8-state product order used by the exact route: the first four states span
# the block that is closed under (LK + electric), the last four its
# time-reversed copy. Entries are (n_y, spin slot).
_BASIS8 = ((1, _J32), (1, _JM12), (2, _J32), (2, _JM12),
           (1, _JM32), (1, _J12), (2, _JM32), (2, _J12))


class NearDegeneracyError(ValueError):
    """Perturbative mixing requested too close to a subband crossing."""


class DegenerateQubitError(ValueError):
    """The ground doublet does not split; qubit axes are undefined."""


# ---------------------------------------------------------------------------
# subband constants and mixing

@dataclass(frozen=True)
class SubbandParams:
    """Diagonal and mixing constants of the two lowest y subbands, meV."""
    P1: float
    Q1: float
    R1: float
    P2: float
    Q2: float
    R2: float


@dataclass(frozen=True)
class MixedSubband:
    """One heavy-light doublet: amplitudes and the split energies.

    h multiplies the |±3/2> component of the lower state, l the |∓1/2>
    component; h^2 + l^2 = 1. The partner state at E_plus has amplitudes
    (-l, h).
    """
    h: float
    l: float
    E_minus: float
    E_plus: float

    @property
    def heavy_weight(self) -> float:
        return self.h * self.h


def _r_gamma(material: MaterialParams, orientation: Orientation) -> float:
    # in-plane anisotropy coupling: gamma3 for the 110 frame, gamma2 for 100
    return material.gamma3 if orientation is Orientation.DOT_110 else material.gamma2


def subband_params(material: MaterialParams, geometry: BoxGeometry,
                   orientation: Orientation, *,
                   strain: StrainConfig | None = None) -> SubbandParams:
    """Exact subband constants; strain folds into rigid P and Q shifts."""
    c = CONST.hbar2_over_2m0 * pi ** 2
    g1, g2 = material.gamma1, material.gamma2
    gR = _r_gamma(material, orientation)
    ax, ay, az = geometry.L_x ** -2, geometry.L_y ** -2, geometry.L_z ** -2
    P1 = c * g1 * (ax + ay + az)
    Q1 = c * g2 * (ax + ay - 2 * az)
    R1 = -c * _SQ3 * gR * (ax - ay)
    P2 = c * g1 * (ax + 4 * ay + az)
    Q2 = c * g2 * (ax + 4 * ay - 2 * az)
    R2 = -c * _SQ3 * gR * (ax - 4 * ay)
    if strain is not None and strain.eps_parallel != 0.0:
        material.require_strain()
        eps = strain.eps_parallel
        dP = (material.nu - 2) * material.a_v * 1e3 * eps
        dQ = -(material.nu + 1) * material.b_v * 1e3 * eps
        P1, P2 = P1 + dP, P2 + dP
        Q1, Q2 = Q1 + dQ, Q2 + dQ
    return SubbandParams(P1, Q1, R1, P2, Q2, R2)


def _mix(Q: float, R: float) -> tuple[float, float]:
    # (h, l) without cancellation for either sign of Q; W = 0 only when
    # Q = R = 0, where any unit pair will do
    x = hypot(Q, R)
    if Q >= 0:
        t = Q + x
    else:
        t = (R * R / (x - Q)) if (x - Q) > 0 else 0.0
    W = hypot(R, t)
    if W == 0.0:
        return 1.0, 0.0
    return -R / W, t / W


def mixed_subbands(sp: SubbandParams) -> tuple[MixedSubband, MixedSubband]:
    out = []
    for P, Q, R in ((sp.P1, sp.Q1, sp.R1), (sp.P2, sp.Q2, sp.R2)):
        h, l = _mix(Q, R)
        x = hypot(Q, R)
        out.append(MixedSubband(h=h, l=l, E_minus=P - x, E_plus=P + x))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# electric mixing between the subbands

@dataclass(frozen=True)
class ElectricMixing:
    """First-order admixture coefficients induced by the static field.

    c_2m_1m is the amplitude of the upper-subband |2-> state mixed into
    |1->, and so on; the reversed coefficients are the negatives of these.
    lambda_thin is the flat-dot limit of c_2m_1m (None when no material
    was supplied to compute it).
    """
    Lambda: float
    c_2m_1m: float
    c_2p_1p: float
    c_2m_1p: float
    c_2p_1m: float
    lambda_thin: float | None

    @property
    def lambda_coeffs(self) -> tuple[float, float, float, float]:
        return (self.c_2m_1m, self.c_2p_1p, self.c_2m_1p, self.c_2p_1m)


DEGENERACY_TOL = 1e-6  # meV; below this the perturbative mixing is rejected


def mixing_strength(E0: float, L_y: float) -> float:
    """Lambda = -e E0 <1|y|2>, the electric intersubband element in meV."""
    return -CONST.e_scale * E0 * position_element(1, 2, L_y)


def electric_mixing(ms: tuple[MixedSubband, MixedSubband], E0: float,
                    geometry: BoxGeometry, *,
                    material: MaterialParams | None = None) -> ElectricMixing:
    m1, m2 = ms
    lam = mixing_strength(E0, geometry.L_y)
    pairs = {
        "E1- / E2-": m1.E_minus - m2.E_minus,
        "E1+ / E2+": m1.E_plus - m2.E_plus,
        "E1+ / E2-": m1.E_plus - m2.E_minus,
        "E1- / E2+": m1.E_minus - m2.E_plus,
    }
    for label, de in pairs.items():
        if abs(de) < DEGENERACY_TOL:
            raise NearDegeneracyError(
                f"perturbation theory invalid near crossing: |{label}| = "
                f"{abs(de):.3g} meV < {DEGENERACY_TOL} meV")
    same = m1.h * m2.h + m1.l * m2.l
    cross = m1.h * m2.l - m2.h * m1.l
    lam_thin = None
    if material is not None:
        g12 = material.gamma1 + material.gamma2
        lam_thin = (-16 * CONST.e_scale * E0 * geometry.L_y ** 3
                    / (27 * pi ** 4 * CONST.hbar2_over_2m0 * g12))
    return ElectricMixing(
        Lambda=lam,
        c_2m_1m=lam * same / pairs["E1- / E2-"],
        c_2p_1p=lam * same / pairs["E1+ / E2+"],
        c_2m_1p=lam * cross / pairs["E1+ / E2-"],
        c_2p_1m=-lam * cross / pairs["E1- / E2+"],
        lambda_thin=lam_thin,
    )


# ---------------------------------------------------------------------------
# ground-doublet qubit

@dataclass(frozen=True)
class QubitCoefficients:
    g_x: float
    g_y: float
    g_z: float
    alpha: complex | None
    beta: float | None
    f_L: float  # GHz
    degenerate: bool


def qubit_coefficients(ms, theta: float, phi: float, B: float,
                       material: MaterialParams) -> QubitCoefficients:
    """Principal g-factors and qubit amplitudes of the lower doublet.

    Accepts the (lower, upper) subband pair or the lower subband alone;
    only (h_1, l_1) enter.
    """
    m1 = ms[0] if isinstance(ms, tuple) else ms
    h1, l1 = m1.h, m1.l
    kap = material.kappa
    gx = 4 * kap * (_SQ3 * h1 * l1 + l1 * l1)
    gy = 4 * kap * (_SQ3 * h1 * l1 - l1 * l1)
    gz = 2 * kap * (3 * h1 * h1 - l1 * l1)
    bx, by, bz = bhat_from_angles(theta, phi)
    S = sqrt((gx * bx) ** 2 + (gy * by) ** 2 + (gz * bz) ** 2)
    f_L = CONST.mu_B * B * S / CONST.h_planck
    scale = max(abs(gx), abs(gy), abs(gz), 1e-300)
    if B == 0.0 or S <= 1e-12 * scale:
        return QubitCoefficients(gx, gy, gz, None, None, 0.0, True)
    N = sqrt((gx * bx) ** 2 + (gy * by) ** 2 + (gz * bz + S) ** 2)
    if N < 1e-12 * S:
        # exactly at the parametrization's south pole; the lower state is
        # the first pseudo-spin slot
        alpha, beta = complex(1.0), 0.0
    else:
        alpha = (-gx * bx + 1j * gy * by) / N
        beta = (gz * bz + S) / N
    return QubitCoefficients(gx, gy, gz, alpha, beta, f_L, False)


# ---------------------------------------------------------------------------
# linearized Rabi frequency (first order in E0)

def rabi_linearized(material: MaterialParams, geometry: BoxGeometry,
                    orientation: Orientation, fields: FieldConfig, *,
                    strain: StrainConfig | None = None) -> float:
    """Rabi frequency in GHz from the channel-resolved closed forms.

    Each excited doublet contributes one transverse matrix element built
    from its Zeeman blocks (Z factors), its electric admixtures (the four
    c coefficients) and the bare dipoles D. B and E0 enter linearly and
    live inside those factors.
    """
    if fields.B == 0.0 or fields.E0 == 0.0 or fields.E_ac == 0.0:
        return 0.0
    sp = subband_params(material, geometry, orientation, strain=strain)
    m1, m2 = mixed_subbands(sp)
    em = electric_mixing((m1, m2), fields.E0, geometry)
    qc = qubit_coefficients((m1, m2), fields.theta, fields.phi, fields.B, material)
    if qc.degenerate:
        raise DegenerateQubitError(
            "ground doublet does not split in this field; Rabi frequency undefined")
    al, be = qc.alpha, qc.beta
    bx, by, bz = bhat_from_angles(fields.theta, fields.phi)
    bp, bm = bx + 1j * by, bx - 1j * by
    k = material.kappa * CONST.mu_B * fields.B
    hh = (m1.h, m2.h)
    ll = (m1.l, m2.l)

    def Z1(i):
        return k * (3 * hh[i - 1] ** 2 - ll[i - 1] ** 2) * bz

    def Z2(i):
        return 2 * k * (_SQ3 * hh[i - 1] * ll[i - 1] * bm + ll[i - 1] ** 2 * bp)

    def Z3(i):
        return -4 * k * hh[i - 1] * ll[i - 1] * bz

    def Z4(i):
        return 2 * k * (_SQ3 / 2 * (hh[i - 1] ** 2 - ll[i - 1] ** 2) * bm
                        + hh[i - 1] * ll[i - 1] * bp)

    def Z5(i):
        return k * (3 * ll[i - 1] ** 2 - hh[i - 1] ** 2) * bz

    def Z6(i):
        return 2 * k * (-_SQ3 * hh[i - 1] * ll[i - 1] * bm + hh[i - 1] ** 2 * bp)

    y12 = position_element(1, 2, geometry.L_y)
    D1 = y12 * (m1.h * m2.h + m1.l * m2.l)
    D2 = y12 * (m2.h * m1.l - m1.h * m2.l)

    def bra(z3, z4):
        # <1| projection of a doublet-changing Zeeman block
        return -4 * al * be * z3 - 2 * be ** 2 * z4 + 2 * al ** 2 * np.conj(z4)

    c2m1m, c2p1p, c2m1p, c2p1m = em.lambda_coeffs
    E1m, E1p, E2m, E2p = m1.E_minus, m1.E_plus, m2.E_minus, m2.E_plus

    bra_a = (-4 * al * be * (Z1(2) - Z1(1)) - 2 * be ** 2 * (Z2(2) - Z2(1))
             + 2 * al ** 2 * (np.conj(Z2(2)) - np.conj(Z2(1))))
    pi_2m = D1 / (E1m - E2m) * (c2m1m * bra_a + c2p1m * bra(Z3(2), Z4(2))
                                - c2m1p * bra(Z3(1), Z4(1)))
    bra_b = (-4 * al * be * (Z5(2) - Z1(1)) - 2 * be ** 2 * (Z6(2) - Z2(1))
             + 2 * al ** 2 * (np.conj(Z6(2)) - np.conj(Z2(1))))
    pi_2p = D2 / (E1m - E2p) * (c2m1m * bra(Z3(2), Z4(2))
                                - c2p1p * bra(Z3(1), Z4(1)) + c2p1m * bra_b)
    pi_1p = (bra(Z3(1), Z4(1)) / (E1m - E1p)
             * (D1 * (c2m1p + c2p1m) + D2 * (c2p1p - c2m1m)))
    total = pi_2m + pi_2p + pi_1p
    return CONST.e_scale * fields.E_ac * abs(total) / CONST.h_planck


# ---------------------------------------------------------------------------
# exact minimal-basis route

def _static_block(sp: SubbandParams, lam: float) -> np.ndarray:
    # basis (1,+3/2), (1,-1/2), (2,+3/2), (2,-1/2); the time-reversed block
    # is identical because the matrix is real
    return np.array([
        [sp.P1 + sp.Q1, sp.R1, lam, 0.0],
        [sp.R1, sp.P1 - sp.Q1, 0.0, lam],
        [lam, 0.0, sp.P2 + sp.Q2, sp.R2],
        [0.0, lam, sp.R2, sp.P2 - sp.Q2]])


_N8 = np.array([n for n, _ in _BASIS8])
_J8 = np.array([j for _, j in _BASIS8])
_SAME_N8 = _N8[:, None] == _N8[None, :]
# 8x8 templates over _BASIS8: the Zeeman block for b along x, y, z per unit
# kappa and B (it is linear in b), and where the dipole carries <1|y|2>
_ZEEMAN8 = np.stack([zeeman_spin_block(1.0, 1.0, axis)[np.ix_(_J8, _J8)]
                     * _SAME_N8 for axis in np.eye(3)])
_DIPOLE8 = ((_J8[:, None] == _J8[None, :]) & ~_SAME_N8).astype(float)

GRID_BLOCK = 4096  # field directions per batched step of qubit_grid


@dataclass(frozen=True)
class MinimalExactModel:
    """The exact minimal-basis route for one dot, E0 and strain.

    The eight eigenstates are the columns of the real 4x4 static block,
    each placed in the first four slots (u_k) and in its time-reversed copy
    (d_k), ordered (u_0, d_0, u_1, d_1, ...). Only the ground-doublet rows
    of the rotated operators enter the qubit, so those are all it keeps.
    """
    zeeman: np.ndarray  # (3, 2, 8) complex: <u_0, d_0| kappa Z_axis |n>
    dipole: np.ndarray  # (2, 6) real: <u_0, d_0| y |n>, n excited
    gaps: np.ndarray    # (6,) E_0 - E_n, n excited

    def qubit_grid(self, B: float, thetas, phis,
                   E_ac: float) -> tuple[np.ndarray, np.ndarray]:
        """(f_R, f_L) in GHz for every direction of the broadcast angle
        arrays: the splitting of the ground doublet and the drive matrix
        element at first order in B, summed over the six excited states."""
        th, ph = np.broadcast_arrays(np.asarray(thetas, dtype=float),
                                     np.asarray(phis, dtype=float))
        f_R, f_L = np.empty(th.shape), np.empty(th.shape)
        flat = [a.reshape(-1) for a in (th, ph, f_R, f_L)]
        for lo in range(0, th.size, GRID_BLOCK):
            t, p, out_R, out_L = (a[lo:lo + GRID_BLOCK] for a in flat)
            out_R[:], out_L[:] = self._qubit_block(B, t, p, E_ac)
        return f_R, f_L

    def _qubit_block(self, B: float, theta: np.ndarray, phi: np.ndarray,
                     E_ac: float) -> tuple[np.ndarray, np.ndarray]:
        # the contractions are written out elementwise, not as matmul, so a
        # direction's result does not depend on the batch it is part of
        s = np.sin(theta)
        b = (s * np.cos(phi), s * np.sin(phi), np.cos(theta))
        z = self.zeeman
        # ground rows of B Z(b): (n, 2, 8)
        rows = B * (b[0][:, None, None] * z[0] + b[1][:, None, None] * z[1]
                    + b[2][:, None, None] * z[2])
        w, U = np.linalg.eigh(rows[:, :, :2])
        f_L = (w[:, 1] - w[:, 0]) / CONST.h_planck
        s0, s1 = U[:, :, 0], U[:, :, 1]
        c1 = s1.conj()
        exc = rows[:, :, 2:]
        y_up = c1[:, 0, None] * self.dipole[0] + c1[:, 1, None] * self.dipole[1]
        y_dn = s0[:, 0, None] * self.dipole[0] + s0[:, 1, None] * self.dipole[1]
        z_up = c1[:, 0, None] * exc[:, 0] + c1[:, 1, None] * exc[:, 1]
        # <n|Z|s0> = conj(<s0|Z|n>): Z is Hermitian
        z_dn = (s0[:, 0, None] * exc[:, 0].conj()
                + s0[:, 1, None] * exc[:, 1].conj())
        total = ((y_up * z_dn + z_up * y_dn) / self.gaps).sum(axis=1)
        f_R = CONST.e_scale * E_ac * np.abs(total) / CONST.h_planck
        return f_R, f_L


def minimal_exact_model(material: MaterialParams, geometry: BoxGeometry,
                        orientation: Orientation, E0: float, *,
                        strain: StrainConfig | None = None,
                        ) -> MinimalExactModel:
    """Diagonalize the static minimal problem once for any field direction.

    The static 8x8 Hamiltonian splits into a real 4x4 block and its
    time-reversed copy, so one real diagonalization yields all four
    doublets; the unit-axis Zeeman generators and the dipole are rotated
    into that eigenbasis.
    """
    sp = subband_params(material, geometry, orientation, strain=strain)
    energies, V = np.linalg.eigh(
        _static_block(sp, mixing_strength(E0, geometry.L_y)))
    W = np.zeros((8, 8))
    W[:4, 0::2] = V
    W[4:, 1::2] = V
    ground = W[:, :2].T
    zeeman = material.kappa * np.einsum("ga,xab,bn->xgn", ground, _ZEEMAN8, W)
    dipole = position_element(1, 2, geometry.L_y) * (ground @ _DIPOLE8 @ W)
    return MinimalExactModel(zeeman=zeeman, dipole=dipole[:, 2:],
                             gaps=energies[0] - np.repeat(energies[1:], 2))


def minimal_exact_qubit(material: MaterialParams, geometry: BoxGeometry,
                        orientation: Orientation, fields: FieldConfig, *,
                        strain: StrainConfig | None = None,
                        ) -> tuple[float, float]:
    """(f_R, f_L) in GHz from exact minimal-basis eigenstates: the
    one-direction case of MinimalExactModel.qubit_grid."""
    model = minimal_exact_model(material, geometry, orientation, fields.E0,
                                strain=strain)
    f_R, f_L = model.qubit_grid(fields.B, fields.theta, fields.phi,
                                fields.E_ac)
    return float(f_R), float(f_L)


def minimal_exact_rabi(material: MaterialParams, geometry: BoxGeometry,
                       orientation: Orientation, fields: FieldConfig, *,
                       strain: StrainConfig | None = None) -> float:
    """Rabi frequency in GHz, nonperturbative in E0."""
    f_R, _ = minimal_exact_qubit(material, geometry, orientation, fields,
                                 strain=strain)
    return f_R


# ---------------------------------------------------------------------------
# flat-dot expansions

def _angular_factor(material: MaterialParams, geometry: BoxGeometry,
                    gR: float, theta: float) -> float:
    """G(theta) sin(theta) in a form stable at theta = 90 degrees."""
    cF = gR / (2 * material.gamma2) * (geometry.L_z ** 2 / geometry.L_y ** 2
                                       - geometry.L_z ** 2 / geometry.L_x ** 2)
    s, c = sin(theta), cos(theta)
    den = sqrt(c * c + cF * cF * s * s)
    if den == 0.0:
        return 1.0
    return abs(s * c) / den


def rabi_thin_dot(material: MaterialParams, geometry: BoxGeometry,
                  orientation: Orientation, fields: FieldConfig,
                  order: int = 2) -> float:
    """Leading flat-dot Rabi frequency in GHz; order 4 adds the first
    correction in (L_z/L)^2, which also brings in the azimuthal dependence.
    """
    if order not in (2, 4):
        raise ValueError(f"order must be 2 or 4, got {order}")
    m = material
    gR = _r_gamma(m, orientation)
    Lx, Ly, Lz = geometry.L_x, geometry.L_y, geometry.L_z
    base = (256 / (81 * pi ** 8) * CONST.mu_B * fields.B * CONST.e_scale ** 2
            * fields.E_ac * abs(fields.E0) * Ly ** 4 * Lz ** 2 * gR
            * abs(m.kappa) / (m.gamma2 * (m.gamma1 + m.gamma2) ** 2)
            / (CONST.hbar2_over_2m0 ** 2 * CONST.h_planck))
    f2 = base * _angular_factor(m, geometry, gR, fields.theta)
    if order == 2:
        return f2
    A1 = 10 * (m.gamma1 * m.gamma2 + m.gamma2 ** 2 + 3 * gR ** 2)
    A2 = 12 * gR ** 2
    A3 = gR * (m.gamma1 + m.gamma2)
    # phi is measured from the x axis; the anisotropic term is largest when
    # the in-plane field component lies along y (the driven direction)
    corr = (A1 * Lz ** 2 / Ly ** 2 - A2 * Lz ** 2 / Lx ** 2
            - A3 * (5 * Lz ** 2 / Ly ** 2 - 2 * Lz ** 2 / Lx ** 2)
            * cos(2 * fields.phi))
    return f2 * (1 + corr / (4 * m.gamma2 * (m.gamma1 + m.gamma2)))


# ---------------------------------------------------------------------------
# large-E0 renormalization

def e0_max(material: MaterialParams, geometry: BoxGeometry,
           orientation: Orientation = Orientation.DOT_110) -> float:
    """Field scale (mV/nm) where the ground-state dipole saturates."""
    m1, m2 = mixed_subbands(subband_params(material, geometry, orientation))
    D1 = position_element(1, 2, geometry.L_y) * (m1.h * m2.h + m1.l * m2.l)
    return (m2.E_minus - m1.E_minus) / (2 * sqrt(2.0) * CONST.e_scale * abs(D1))


def e0_max_thin(material: MaterialParams, geometry: BoxGeometry) -> float:
    """Flat-dot limit of e0_max; depends only on L_y."""
    g12 = material.gamma1 + material.gamma2
    return (27 * pi ** 4 * CONST.hbar2_over_2m0 * g12
            / (32 * sqrt(2.0) * CONST.e_scale * geometry.L_y ** 3))


def renormalized_rabi(fr_linear: float, E0: float, geometry: BoxGeometry,
                      material: MaterialParams, *,
                      orientation: Orientation = Orientation.DOT_110,
                      e_max: float | None = None) -> float:
    """Scale a linear-in-E0 Rabi frequency by the dipole saturation factor.

    The factor [1 + (E0/E_max)^2/2]^(-3/2) peaks f(E0) at E0 = E_max.
    """
    if e_max is None:
        e_max = e0_max(material, geometry, orientation)
    return fr_linear * (1 + 0.5 * (E0 / e_max) ** 2) ** -1.5


# ---------------------------------------------------------------------------
# upper-doublet (mostly light hole) qubit

def light_hole_rabi(material: MaterialParams, geometry: BoxGeometry,
                    fields: FieldConfig) -> float:
    """Flat-dot Rabi frequency of the |1+> doublet in GHz (110 frame).

    Same structure as the heavy-hole result with the in-plane light mass
    replacing the heavy one; the angular factor peaks at theta = 90,
    phi = 45 degrees instead of dropping to zero in the plane.
    """
    m = material
    Lx, Ly, Lz = geometry.L_x, geometry.L_y, geometry.L_z
    s, c = sin(fields.theta), cos(fields.theta)
    s2p = sin(2 * fields.phi)
    den = c * c + 4 * s * s
    ang = abs(s) * sqrt((c * c + 4 * s * s * s2p * s2p) / den) if den > 0 else 0.0
    return (256 / (81 * pi ** 8) * CONST.mu_B * fields.B * CONST.e_scale ** 2
            * fields.E_ac * abs(fields.E0) * Ly ** 4 * Lz ** 2 * m.gamma3
            * abs(m.kappa) / (m.gamma2 * (m.gamma1 - m.gamma2) ** 2)
            / (CONST.hbar2_over_2m0 ** 2 * CONST.h_planck) * ang)


# ---------------------------------------------------------------------------
# strain equivalences

def _strain_slope(material: MaterialParams) -> float:
    """dQ/d(eps_parallel) in meV: the rigid heavy-light splitting rate."""
    material.require_strain()
    return (material.nu + 1) * material.b_v * 1e3


def strain_equivalent_height(material: MaterialParams, L_z: float,
                             eps_parallel: float) -> float:
    """Signed squared height L_z'^2 (nm^2) mimicking the strained dot.

    Biaxial strain shifts Q exactly like a change of the vertical
    confinement, so the unstrained dot of height L_z' has the same
    frequencies. The result diverges and changes sign across the
    compensation point.
    """
    inv = (1.0 / L_z ** 2 + _strain_slope(material) * eps_parallel
           / (2 * CONST.hbar2_over_2m0 * pi ** 2 * material.gamma2))
    if inv == 0.0:
        return inf
    return 1.0 / inv


def strain_divergence_eps(material: MaterialParams, L_z: float) -> float:
    """Strain where the equivalent squared height diverges."""
    return (-(1.0 / L_z ** 2) * 2 * CONST.hbar2_over_2m0 * pi ** 2
            * material.gamma2 / _strain_slope(material))


def strain_transition_eps(material: MaterialParams,
                          geometry: BoxGeometry) -> float:
    """Strain where the lower subband's Q crosses zero (character swap)."""
    sp = subband_params(material, geometry, Orientation.DOT_110)
    return sp.Q1 / _strain_slope(material)


def strain_equal_mixing_eps(material: MaterialParams, geometry: BoxGeometry,
                            orientation: Orientation) -> float:
    """Strain where both subbands reach the same mixing angle (h1 = h2).

    At this point the cross dipole D2 vanishes and the driven matrix
    element dips. Requires R1 != R2.
    """
    sp = subband_params(material, geometry, orientation)
    if abs(sp.R2 - sp.R1) < 1e-12:
        raise ValueError("R1 = R2: the mixing angles never cross under "
                         "biaxial strain")
    delta = (sp.R2 * sp.Q1 - sp.R1 * sp.Q2) / (sp.R2 - sp.R1)
    return delta / _strain_slope(material)
