"""Closed-form qubit theory in the four-state minimal basis.

The basis keeps the two lowest y subbands (n_x = n_z = 1, n_y = 1, 2), each
a heavy-light doublet mixed by the in-plane anisotropy term R. Everything
downstream is written in terms of the six subband constants P_i, Q_i, R_i:
mixing amplitudes (h_i, l_i), the electric couplings between subbands, and
the diagonals (g, p) of the ground doublet's two g-matrices, from which
holebox.gmatrix reads the Larmor and Rabi frequencies at first order in B.

Two independent routes build that pair on purpose:
- rabi_linearized: channel-resolved closed forms, first order in E0: g of
  the lower subband's doublet and p summed over the 2-, 2+ and 1+
  channels (_linearized_pair);
- minimal_exact_rabi: exact static eigenstates of the 8x8 minimal
  Hamiltonian, nonperturbative in E0, summed over the three excited
  doublets (MinimalExactModel).
The linearized pair is the exact one's g at E0 = 0 and its slope of p in
E0; tests enforce it.

Both routes run on Python floats, and each evaluates its pair with
gmatrix.qubit or gmatrix.frequencies, as the converged route does its own:
gmatrix is all they share with the converged numerics. The exact route
builds its (gm, gp) with its own 4x4 Jacobi eigensolver and Zeeman and
dipole templates; the linearized one uses neither.

Sign conventions: Lambda = -e E0 <1|y|2> > 0 for E0 > 0; h = -R/W carries
the sign of -R.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import cos, hypot, inf, pi, sin, sqrt

from . import gmatrix
from .basis import position_element
from .constants import CONST
from .inputs import (BoxGeometry, DegenerateQubitError, FieldConfig,
                     NearDegeneracyError, Orientation, StrainConfig)
from .materials import MaterialParams

_SQ3 = sqrt(3.0)

# spin slots in the 4x4 blocks, same order as the Zeeman block
_J32, _J12, _JM12, _JM32 = 0, 1, 2, 3

# 8-state product order used by the exact route: the first four states span
# the block that is closed under (LK + electric), the last four its
# time-reversed copy. Entries are (n_y, spin slot).
_BASIS8 = ((1, _J32), (1, _JM12), (2, _J32), (2, _JM12),
           (1, _JM32), (1, _J12), (2, _JM32), (2, _J12))


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
    """
    Lambda: float
    c_2m_1m: float
    c_2p_1p: float
    c_2m_1p: float
    c_2p_1m: float

    @property
    def lambda_coeffs(self) -> tuple[float, float, float, float]:
        return (self.c_2m_1m, self.c_2p_1p, self.c_2m_1p, self.c_2p_1m)


# meV; a smaller gap in a first-order denominator (a subband crossing, or an
# excited doublet at the ground energy) is rejected
DEGENERACY_TOL = 1e-6


def mixing_strength(E0: float, L_y: float) -> float:
    """Lambda = -e E0 <1|y|2>, the electric intersubband element in meV."""
    return -CONST.e_scale * E0 * position_element(1, 2, L_y)


def electric_mixing(ms: tuple[MixedSubband, MixedSubband], E0: float,
                    geometry: BoxGeometry) -> ElectricMixing:
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
    return ElectricMixing(
        Lambda=lam,
        c_2m_1m=lam * same / pairs["E1- / E2-"],
        c_2p_1p=lam * same / pairs["E1+ / E2+"],
        c_2m_1p=lam * cross / pairs["E1+ / E2-"],
        c_2p_1m=-lam * cross / pairs["E1- / E2+"],
    )


# ---------------------------------------------------------------------------
# linearized Rabi frequency (first order in E0)

def _zeeman_g(u: tuple[float, float],
              v: tuple[float, float]) -> tuple[float, float, float]:
    """Re Tr(sigma_i Z_i) per kappa mu_B, i = x, y, z, between the doublets
    of two mixed states u = (a0, a1) and v = (b0, b1) of one subband, with
    amplitudes on |+-3/2> and |-+1/2>."""
    (a0, a1), (b0, b1) = u, v
    s, t = _SQ3 * (a0 * b1 + a1 * b0), 2 * a1 * b1
    return 2 * (s + t), 2 * (s - t), 2 * (3 * a0 * b0 - a1 * b1)


def _linearized_pair(material: MaterialParams, geometry: BoxGeometry,
                     orientation: Orientation, E0: float, *,
                     strain: StrainConfig | None = None,
                     ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(g, p) of the ground doublet at first order in E0, from the
    channel-resolved closed forms: g (meV/T) at E0 = 0 and p (nm/T)
    linear in E0, summed over the three excited doublets 2-, 2+ and 1+.
    Raises DegenerateQubitError where |1+> is degenerate with the ground
    doublet (Q1 = R1 = 0, as in a cube), whose channel divides by E1- - E1+.
    """
    sp = subband_params(material, geometry, orientation, strain=strain)
    m1, m2 = mixed_subbands(sp)
    if m1.E_plus - m1.E_minus <= DEGENERACY_TOL:
        raise DegenerateQubitError(
            f"|1+> at E = {m1.E_plus:.9f} meV is degenerate with the ground "
            "doublet; first-order sum invalid")
    em = electric_mixing((m1, m2), E0, geometry)
    c2m1m, c2p1p, c2m1p, c2p1m = em.lambda_coeffs
    E1m, E1p, E2m, E2p = m1.E_minus, m1.E_plus, m2.E_minus, m2.E_plus
    y12 = position_element(1, 2, geometry.L_y)
    D1 = y12 * (m1.h * m2.h + m1.l * m2.l)
    D2 = y12 * (m2.h * m1.l - m1.h * m2.l)
    k = material.kappa * CONST.mu_B

    def channels(z1m1m, z1m1p, z2m2m, z2m2p, z2p2p):
        # one axis of p; zanbm is _zeeman_g between the states an and bm
        pi_2m = D1 / (E1m - E2m) * (c2m1m * (z2m2m - z1m1m) + c2p1m * z2m2p
                                    - c2m1p * z1m1p)
        pi_2p = D2 / (E1m - E2p) * (c2m1m * z2m2p - c2p1p * z1m1p
                                    + c2p1m * (z2p2p - z1m1m))
        pi_1p = (z1m1p / (E1m - E1p)
                 * (D1 * (c2m1p + c2p1m) + D2 * (c2p1p - c2m1m)))
        return 2 * k * (pi_2m + pi_2p + pi_1p)

    s1m, s1p = (m1.h, m1.l), (-m1.l, m1.h)
    s2m, s2p = (m2.h, m2.l), (-m2.l, m2.h)
    z1m1m = _zeeman_g(s1m, s1m)
    p = tuple(map(channels, z1m1m, _zeeman_g(s1m, s1p), _zeeman_g(s2m, s2m),
                  _zeeman_g(s2m, s2p), _zeeman_g(s2p, s2p)))
    return tuple(k * z for z in z1m1m), p


def rabi_linearized(material: MaterialParams, geometry: BoxGeometry,
                    orientation: Orientation, fields: FieldConfig, *,
                    strain: StrainConfig | None = None) -> float:
    """Rabi frequency in GHz at first order in B and E0: gmatrix.qubit on
    the channel-resolved (g, p) of _linearized_pair. 0.0 where B, E0 or
    E_ac is zero; raises DegenerateQubitError where |1+> is degenerate with
    the ground doublet or the doublet does not split in this field."""
    if fields.B == 0.0 or fields.E0 == 0.0 or fields.E_ac == 0.0:
        return 0.0
    g, p = _linearized_pair(material, geometry, orientation, fields.E0,
                            strain=strain)
    return gmatrix.qubit(g, p, fields.B, fields.theta, fields.phi,
                         fields.E_ac)[0]


# ---------------------------------------------------------------------------
# exact minimal-basis route

_JACOBI_SWEEPS = 50  # a 4x4 block converges in well under ten


def _jacobi_eigh(a) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues, ascending, and orthonormal eigenvectors of the real
    symmetric matrix a (a sequence of rows), by cyclic Jacobi rotations in
    Rutishauser's form. An off-diagonal element that, even a hundred times
    over, changes neither diagonal element it couples is set to zero, and
    the sweeps stop when every off-diagonal element is zero.
    Returns (w, vecs) with vecs[k] the eigenvector of w[k]."""
    n = len(a)
    a = [[float(x) for x in row] for row in a]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(_JACOBI_SWEEPS):
        if not any(a[p][q] for p, q in pairs):
            break
        for p, q in pairs:
            apq, app, aqq = a[p][q], a[p][p], a[q][q]
            g = 100.0 * abs(apq)
            if abs(app) + g == abs(app) and abs(aqq) + g == abs(aqq):
                a[p][q] = a[q][p] = 0.0
                continue
            # t = tan of the angle that zeroes a[p][q], the smaller root
            h = aqq - app
            if abs(h) + g == abs(h):
                t = apq / h
            else:
                theta = 0.5 * h / apq
                t = 1.0 / (abs(theta) + sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            tau = s / (1.0 + c)
            a[p][p], a[q][q] = app - t * apq, aqq + t * apq
            a[p][q] = a[q][p] = 0.0
            for r in range(n):
                if r != p and r != q:
                    arp, arq = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = arp - s * (arq + tau * arp)
                    a[r][q] = a[q][r] = arq + s * (arp - tau * arq)
                vrp, vrq = v[r][p], v[r][q]
                v[r][p] = vrp - s * (vrq + tau * vrp)
                v[r][q] = vrq + s * (vrp - tau * vrq)
    order = sorted(range(n), key=lambda k: a[k][k])
    return [a[k][k] for k in order], [[row[k] for row in v] for k in order]


def _zeeman4(bx: float, by: float, bz: float) -> tuple[tuple, ...]:
    """The 4x4 block of 2 mu_B J.b per unit kappa and B, in the
    (+3/2, +1/2, -1/2, -3/2) order."""
    bp, bm = complex(bx, by), complex(bx, -by)
    return tuple(tuple(CONST.mu_B * x for x in row) for row in (
        (3 * bz, _SQ3 * bm, 0, 0),
        (_SQ3 * bp, bz, 2 * bm, 0),
        (0, 2 * bp, -bz, _SQ3 * bm),
        (0, 0, _SQ3 * bp, -3 * bz)))


@cache
def _templates() -> tuple[tuple[tuple, ...], tuple[tuple[int, int], ...]]:
    """The nonzero entries (a, b, value) over _BASIS8 of the Zeeman block
    for b along x, y and z per unit kappa and B (it is linear in b), and the
    slot pairs (a, b) where the dipole carries <1|y|2>. Built on the exact
    route's first use, not at import."""
    zeeman = tuple(
        tuple((a, b, block[ja][jb])
              for a, (na, ja) in enumerate(_BASIS8)
              for b, (nb, jb) in enumerate(_BASIS8)
              if na == nb and block[ja][jb] != 0)
        for block in (_zeeman4(1.0, 0.0, 0.0), _zeeman4(0.0, 1.0, 0.0),
                      _zeeman4(0.0, 0.0, 1.0)))
    dipole = tuple((a, b) for a, (na, ja) in enumerate(_BASIS8)
                   for b, (nb, jb) in enumerate(_BASIS8)
                   if ja == jb and na != nb)
    return zeeman, dipole


def _pauli_parts(x00, x01, x10, x11) -> tuple[float, float, float]:
    """Re Tr(sigma_j X) for j = x, y, z of the 2x2 matrix X."""
    return (x01 + x10).real, (x10 - x01).imag, (x00 - x11).real


@dataclass(frozen=True)
class MinimalExactModel:
    """The exact minimal-basis route for one dot, E0 and strain: the
    diagonals g (meV/T) and p (nm/T) of its gm and gp, three floats each."""
    g: tuple[float, float, float]
    p: tuple[float, float, float]


def minimal_exact_model(material: MaterialParams, geometry: BoxGeometry,
                        orientation: Orientation, E0: float, *,
                        strain: StrainConfig | None = None,
                        ) -> MinimalExactModel:
    """Diagonalize the static minimal problem once for any field direction.

    The static 8x8 Hamiltonian splits into a real 4x4 block and its
    time-reversed copy, so one real diagonalization yields all four
    doublets. Each eigenvector is placed in the first four slots (u_k) and
    in the time-reversed copy (d_k), ordered (u_0, d_0, u_1, d_1, ...); the
    unit-axis Zeeman templates and the dipole are contracted between these
    states, entry by nonzero entry, into gm[j][i] = Tr(sigma_j A_i), with
    A_i the ground block of kappa Z_i, and gp[j][i] = Tr(sigma_j K_i), with
    K_i = C_i + C_i^H and C_i = sum_n <g|kappa Z_i|n><n|y|g> / (E_0 - E_n)
    over the six excited states n; gmatrix.diagonal keeps their diagonals.
    Raises DegenerateQubitError for an excited doublet degenerate with the
    ground one, whose gap the sum divides by.
    """
    zeeman, dipole = _templates()
    sp = subband_params(material, geometry, orientation, strain=strain)
    lam = mixing_strength(E0, geometry.L_y)
    # basis (1,+3/2), (1,-1/2), (2,+3/2), (2,-1/2); the time-reversed block
    # is identical because the matrix is real
    energies, vecs = _jacobi_eigh((
        (sp.P1 + sp.Q1, sp.R1, lam, 0.0),
        (sp.R1, sp.P1 - sp.Q1, 0.0, lam),
        (lam, 0.0, sp.P2 + sp.Q2, sp.R2),
        (0.0, lam, sp.R2, sp.P2 - sp.Q2)))
    if energies[1] - energies[0] <= DEGENERACY_TOL:
        raise DegenerateQubitError(
            f"excited doublet at E = {energies[1]:.9f} meV is degenerate with "
            "the ground doublet; first-order sum invalid")
    zero = [0.0] * 4
    states = [s for vec in vecs for s in (vec + zero, zero + vec)]
    ground = states[:2]
    # Z[i][g][n] = <g| kappa Z_i |n> for all n, Y[k][h] = <n| y |h> over
    # the gap E_0 - E_n for the excited n = states[k + 2]
    kappa, y12 = material.kappa, position_element(1, 2, geometry.L_y)
    Z = [[[kappa * sum(g[a] * z * n[b] for a, b, z in entries)
           for n in states] for g in ground] for entries in zeeman]
    Y = [[y12 * sum(n[a] * h[b] for a, b in dipole)
          / (energies[0] - energies[k // 2 + 1]) for h in ground]
         for k, n in enumerate(states[2:])]
    gm = zip(*(_pauli_parts(Zi[0][0], Zi[0][1], Zi[1][0], Zi[1][1])
               for Zi in Z))
    # Re Tr(sigma_j C^H) = Re Tr(sigma_j C), so C + C^H gives twice C
    C = [[sum(zg[k + 2] * Y[k][h] for k in range(6)) for zg in Zi
          for h in (0, 1)] for Zi in Z]
    gp = zip(*(_pauli_parts(*(2 * c for c in Ci)) for Ci in C))
    return MinimalExactModel(*gmatrix.diagonal(tuple(gm), tuple(gp)))


def minimal_exact_qubit(material: MaterialParams, geometry: BoxGeometry,
                        orientation: Orientation, fields: FieldConfig, *,
                        strain: StrainConfig | None = None,
                        ) -> tuple[float, float]:
    """(f_R, f_L) in GHz from exact minimal-basis eigenstates: gmatrix.qubit
    on a fresh model's (g, p)."""
    model = minimal_exact_model(material, geometry, orientation, fields.E0,
                                strain=strain)
    return gmatrix.qubit(model.g, model.p, fields.B, fields.theta, fields.phi,
                         fields.E_ac)


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

    Order 4 multiplies the leading term by 1 + correction. Where that factor
    is negative (a dot narrow in x or y against its height), the expansion
    has broken down and NearDegeneracyError is raised instead of returning
    a negative frequency.
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
    factor = 1 + corr / (4 * m.gamma2 * (m.gamma1 + m.gamma2))
    if factor < 0:
        raise NearDegeneracyError(
            f"flat-dot expansion breaks down: the (L_z/L)^2 correction "
            f"factor is {factor:.3g} < 0 for L = ({Lx}, {Ly}, {Lz}) nm")
    return f2 * factor


# ---------------------------------------------------------------------------
# large-E0 renormalization

def e0_max(material: MaterialParams, geometry: BoxGeometry,
           orientation: Orientation) -> float:
    """Field scale (mV/nm) where the ground-state dipole saturates; inf
    where the dipole D1 vanishes (the two lowest subbands' mixing vectors
    are orthogonal, as for L_z = L_x < L_y < 2 L_x), which no field
    saturates."""
    m1, m2 = mixed_subbands(subband_params(material, geometry, orientation))
    D1 = position_element(1, 2, geometry.L_y) * (m1.h * m2.h + m1.l * m2.l)
    if D1 == 0.0:
        return inf
    return (m2.E_minus - m1.E_minus) / (2 * sqrt(2.0) * CONST.e_scale * abs(D1))


def renormalized_rabi(fr_linear: float, E0: float, geometry: BoxGeometry,
                      material: MaterialParams, *,
                      orientation: Orientation,
                      e_max: float | None = None) -> float:
    """Scale a linear-in-E0 Rabi frequency by the dipole saturation factor.

    The factor [1 + (E0/E_max)^2/2]^(-3/2) peaks f(E0) at E0 = E_max.
    """
    if e_max is None:
        e_max = e0_max(material, geometry, orientation)
    return fr_linear * (1 + 0.5 * (E0 / e_max) ** 2) ** -1.5


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
