"""Shared test oracles and samplers.

The direct evaluators here rebuild the Zeeman block, the dipole operator,
the static minimal Hamiltonian and the qubit amplitudes from first
principles so that only the subband constants are shared with the library
code under test.
"""
from __future__ import annotations

from math import cos, sin, sqrt

import numpy as np

from holebox import (BoxGeometry, MaterialParams, Orientation, StrainConfig,
                     electric_mixing, mixed_subbands, subband_params)
from holebox.constants import CONST

SQ3 = sqrt(3.0)

# minimal basis layout: (subband, j_z slot) with j_z slots ordered
# +3/2, +1/2, -1/2, -3/2
BASIS8 = ((1, 0), (1, 2), (2, 0), (2, 2), (1, 3), (1, 1), (2, 3), (2, 1))
_LABELS = ("1m", "1p", "2m", "2p")


def zeeman4(kappa: float, B: float, bhat) -> np.ndarray:
    bx, by, bz = bhat
    bp, bm = bx + 1j * by, bx - 1j * by
    k = kappa * CONST.mu_B * B
    return k * np.array([
        [3 * bz, SQ3 * bm, 0, 0],
        [SQ3 * bp, bz, 2 * bm, 0],
        [0, 2 * bp, -bz, SQ3 * bm],
        [0, 0, SQ3 * bp, -3 * bz]])


def zeeman8(kappa: float, B: float, bhat) -> np.ndarray:
    h4 = zeeman4(kappa, B, bhat)
    H = np.zeros((8, 8), dtype=complex)
    for a, (na, ja) in enumerate(BASIS8):
        for b, (nb, jb) in enumerate(BASIS8):
            if na == nb:
                H[a, b] = h4[ja, jb]
    return H


def dipole8(L_y: float) -> np.ndarray:
    y12 = -16.0 * L_y / (9.0 * np.pi ** 2)
    Y = np.zeros((8, 8))
    for a, (na, ja) in enumerate(BASIS8):
        for b, (nb, jb) in enumerate(BASIS8):
            if ja == jb and na != nb:
                Y[a, b] = y12
    return Y


def qubit_amplitudes(h1: float, l1: float, kappa: float, bhat):
    """(alpha, beta, S): lower-doublet composition and g-factor norm."""
    bx, by, bz = bhat
    gx = 4 * kappa * (SQ3 * h1 * l1 + l1 * l1)
    gy = 4 * kappa * (SQ3 * h1 * l1 - l1 * l1)
    gz = 2 * kappa * (3 * h1 * h1 - l1 * l1)
    S = sqrt((gx * bx) ** 2 + (gy * by) ** 2 + (gz * bz) ** 2)
    N = sqrt((gx * bx) ** 2 + (gy * by) ** 2 + (gz * bz + S) ** 2)
    if N == 0.0:
        return 1.0 + 0j, 0.0 + 0j, S
    return (-gx * bx + 1j * gy * by) / N, (gz * bz + S) / N, S


def _v0(label: str, s: int, hl4) -> np.ndarray:
    h1, l1, h2, l2 = hl4
    v = np.zeros(8, dtype=complex)
    base = 4 * s
    comps = {"1m": (0, h1, 1, l1), "1p": (0, -l1, 1, h1),
             "2m": (2, h2, 3, l2), "2p": (2, -l2, 3, h2)}[label]
    v[base + comps[0]] = comps[1]
    v[base + comps[2]] = comps[3]
    return v


def direct_rabi_first_order(material: MaterialParams, geometry: BoxGeometry,
                            orientation: Orientation, fields) -> float:
    """Sum-over-states Rabi frequency with explicitly perturbed states.

    Each minimal-basis doublet is corrected to first order in the electric
    mixing; every product in the sum keeps terms up to first order. This
    is the brute-force counterpart of the channel-resolved closed forms.
    """
    sp = subband_params(material, geometry, orientation)
    ms = mixed_subbands(sp)
    mix = electric_mixing(ms, fields.E0, geometry)
    m1, m2 = ms
    hl4 = (m1.h, m1.l, m2.h, m2.l)
    c2m1m, c2p1p, c2m1p, c2p1m = mix.lambda_coeffs

    theta, phi = fields.theta, fields.phi
    bhat = (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))
    HZ = zeeman8(material.kappa, fields.B, bhat)
    Y = dipole8(geometry.L_y)
    al, be, _ = qubit_amplitudes(m1.h, m1.l, material.kappa, bhat)

    v0 = {(lab, s): _v0(lab, s, hl4) for lab in _LABELS for s in (0, 1)}
    d1 = {}
    for s in (0, 1):
        d1[("1m", s)] = c2m1m * v0[("2m", s)] + c2p1m * v0[("2p", s)]
        d1[("1p", s)] = c2m1p * v0[("2m", s)] + c2p1p * v0[("2p", s)]
        d1[("2m", s)] = -c2m1m * v0[("1m", s)] - c2m1p * v0[("1p", s)]
        d1[("2p", s)] = -c2p1m * v0[("1m", s)] - c2p1p * v0[("1p", s)]

    q0_0 = al * v0[("1m", 0)] + be * v0[("1m", 1)]
    q0_1 = al * d1[("1m", 0)] + be * d1[("1m", 1)]
    q1_0 = -be * v0[("1m", 0)] + np.conj(al) * v0[("1m", 1)]
    q1_1 = -be * d1[("1m", 0)] + np.conj(al) * d1[("1m", 1)]

    ener = {"1p": m1.E_plus, "2m": m2.E_minus, "2p": m2.E_plus}
    total = 0.0 + 0.0j
    for lab in ("1p", "2m", "2p"):
        for s in (0, 1):
            a0, a1 = v0[(lab, s)], d1[(lab, s)]
            y0 = q1_0.conj() @ Y @ a0
            y1 = q1_1.conj() @ Y @ a0 + q1_0.conj() @ Y @ a1
            z0 = a0.conj() @ HZ @ q0_0
            z1 = a1.conj() @ HZ @ q0_0 + a0.conj() @ HZ @ q0_1
            za0 = q1_0.conj() @ HZ @ a0
            za1 = q1_1.conj() @ HZ @ a0 + q1_0.conj() @ HZ @ a1
            yb0 = a0.conj() @ Y @ q0_0
            yb1 = a1.conj() @ Y @ q0_0 + a0.conj() @ Y @ q0_1
            total += (y0 * z1 + y1 * z0 + za0 * yb1 + za1 * yb0) \
                / (m1.E_minus - ener[lab])
    return CONST.e_scale * fields.E_ac * abs(total) / CONST.h_planck


def static8(material: MaterialParams, geometry: BoxGeometry,
            orientation: Orientation, E0: float,
            strain: StrainConfig | None = None) -> np.ndarray:
    """The static minimal Hamiltonian (LK + E0 + strain) on BASIS8."""
    sp = subband_params(material, geometry, orientation, strain=strain)
    P, Q, R = {1: sp.P1, 2: sp.P2}, {1: sp.Q1, 2: sp.Q2}, {1: sp.R1, 2: sp.R2}
    lam = -CONST.e_scale * E0 * dipole8(geometry.L_y)[0, 2]
    H = np.zeros((8, 8))
    for a, (na, ja) in enumerate(BASIS8):
        for b, (nb, jb) in enumerate(BASIS8):
            if na == nb and ja == jb:
                # heavy holes (j_z = +-3/2) at P + Q, light holes at P - Q
                H[a, b] = P[na] + (Q[na] if ja in (0, 3) else -Q[na])
            elif na == nb and {ja, jb} in ({0, 2}, {1, 3}):
                H[a, b] = R[na]
            elif na != nb and ja == jb:
                H[a, b] = lam
    return H


def exact_qubit8(material: MaterialParams, geometry: BoxGeometry,
                 orientation: Orientation, fields,
                 strain: StrainConfig | None = None) -> tuple[float, float]:
    """(f_R, f_L) in GHz by diagonalizing the full 8x8 static Hamiltonian
    and summing over its six excited states for one field direction."""
    E, V = np.linalg.eigh(static8(material, geometry, orientation, fields.E0,
                                  strain))
    theta, phi = fields.theta, fields.phi
    bhat = (sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta))
    HZ = zeeman8(material.kappa, fields.B, bhat)
    Y = dipole8(geometry.L_y)
    ground = V[:, :2]
    w, U = np.linalg.eigh(ground.conj().T @ HZ @ ground)
    s0, s1 = ground @ U[:, 0], ground @ U[:, 1]
    total = 0.0 + 0.0j
    for n in range(2, 8):
        v = V[:, n]
        total += ((s1.conj() @ Y @ v) * (v.conj() @ HZ @ s0)
                  + (s1.conj() @ HZ @ v) * (v.conj() @ Y @ s0)) / (E[0] - E[n])
    return (CONST.e_scale * fields.E_ac * abs(total) / CONST.h_planck,
            (w[1] - w[0]) / CONST.h_planck)


# ---------------------------------------------------------------------------
# randomized sampling with physicality guards

def random_material(rng: np.random.Generator, *, name: str = "rnd",
                    min_kappa: float = 0.1) -> MaterialParams:
    g2 = rng.uniform(0.3, 8.0)
    g3 = rng.uniform(0.3, 8.0)
    g1 = 2 * max(g2, g3) + rng.uniform(0.5, 12.0)
    kappa = rng.uniform(min_kappa, 8.0) * rng.choice([-1.0, 1.0])
    return MaterialParams(name=name, gamma1=g1, gamma2=g2, gamma3=g3,
                          kappa=kappa)


def random_geometry(rng: np.random.Generator) -> BoxGeometry:
    return BoxGeometry(*(float(x) for x in rng.uniform(6.0, 55.0, 3)))


def well_separated_sample(rng: np.random.Generator, *, min_gap: float = 0.5):
    """(material, geometry) whose minimal-basis doublets are well apart.

    Perturbative closed forms assume the lower doublet of subband 1 is the
    global ground state and all four doublets stay at least min_gap (meV)
    from one another; resample until both hold.
    """
    while True:
        material = random_material(rng)
        geometry = random_geometry(rng)
        m1, m2 = mixed_subbands(subband_params(material, geometry,
                                               Orientation.DOT_110))
        levels = [m1.E_minus, m1.E_plus, m2.E_minus, m2.E_plus]
        gaps = [abs(levels[i] - levels[j])
                for i in range(4) for j in range(i + 1, 4)]
        if min(gaps) < min_gap:
            continue
        if m1.E_minus + min_gap > min(m1.E_plus, m2.E_minus, m2.E_plus):
            continue
        return material, geometry
