"""Qubit frequencies from the two g-matrices (gm, gp) of a ground doublet.

Each qubit route builds its own pair (holebox.minimal, holebox.numeric)
and evaluates it here. With v = gm b and w = gp b for the field direction
b, the doublet splits by |B| |v|, f_L = |B| |v| / h and
f_R = e E_ac |B| |v x w| / (2 h |v|) (Venitucci, Bourdet, Pouzada & Niquet,
PRB 98, 155319 (2018)). Where the splitting is below MIN_SPLIT both are
undefined, since |v x w| / |v| = |w| sin(v, w) has no limit as v -> 0.
Python floats only, so that the minimal route loads no numpy.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import atan2, cos, degrees, isnan, nan, sin, sqrt

from .constants import CONST
from .inputs import DegenerateQubitError

MIN_SPLIT = 1e-12       # meV; below it the qubit states are ill-defined


def frequencies(gm, gp, B: float, thetas: Sequence[float],
                phis: Sequence[float], E_ac: float,
                ) -> tuple[list[float], list[float]]:
    """f_R and f_L in GHz, as two lists, at the field directions
    (thetas[k], phis[k]) in radians, for 3x3 nested sequences gm and gp;
    NaN in both below MIN_SPLIT. Raises ValueError for E_ac < 0."""
    if E_ac < 0:
        raise ValueError(f"E_ac must be >= 0, got {E_ac}")
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = (float(x) for row in gm for x in row)
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = (float(x) for row in gp for x in row)
    B = abs(B)      # a field -B along b is B along -b: same frequencies
    drive, h, h2 = CONST.e_scale * E_ac * B, CONST.h_planck, 2 * CONST.h_planck
    f_R, f_L = [], []
    for theta, phi in zip(thetas, phis):
        st = sin(theta)
        b0, b1, b2 = st * cos(phi), st * sin(phi), cos(theta)
        v0, v1, v2 = (m0 * b0 + m1 * b1 + m2 * b2, m3 * b0 + m4 * b1 + m5 * b2,
                      m6 * b0 + m7 * b1 + m8 * b2)
        # products, not powers: a float power raises OverflowError
        v_norm = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
        if not B * v_norm >= MIN_SPLIT:   # written so that NaN fails it too
            f_R.append(nan)
            f_L.append(nan)
            continue
        w0, w1, w2 = (p0 * b0 + p1 * b1 + p2 * b2, p3 * b0 + p4 * b1 + p5 * b2,
                      p6 * b0 + p7 * b1 + p8 * b2)
        c0, c1, c2 = v1 * w2 - v2 * w1, v2 * w0 - v0 * w2, v0 * w1 - v1 * w0
        f_R.append(drive * sqrt(c0 * c0 + c1 * c1 + c2 * c2) / (h2 * v_norm))
        f_L.append(B * v_norm / h)
    return f_R, f_L


def qubit(gm, gp, B: float, theta: float, phi: float,
          E_ac: float) -> tuple[float, float]:
    """(f_R, f_L) in GHz for one field direction; raises
    DegenerateQubitError where frequencies gives NaN."""
    (f_R,), (f_L,) = frequencies(gm, gp, B, (theta,), (phi,), E_ac)
    if isnan(f_L):
        raise DegenerateQubitError(
            f"qubit splitting below {MIN_SPLIT:.0e} meV; Rabi frequency "
            "ill-defined for this field direction")
    return f_R, f_L


def best_direction(gm, gp) -> tuple[float, float]:
    """(theta_deg, phi_deg) maximizing f_R for a (gm, gp) pair diagonal in
    the box axes, in [0, 90] degrees: f_R then depends on b only through
    b_i^2, which also makes f_R(theta, phi) = f_R(theta, 180 - phi).

    With g = diag(gm), p = diag(gp), x_i = b_i^2 and
    d_ij = g_i p_j - g_j p_i, f_R^2 is proportional to
    sum_{i<j} d_ij^2 x_i x_j / sum_i g_i^2 x_i, whose maximum over the
    simplex sum x_i = 1 lies on an edge (i, j): |d_ij| / (|g_i| + |g_j|), at
    b_i^2 = |g_j| / (|g_i| + |g_j|). The edges xz (phi = 0), yz (phi = 90)
    and xy (theta = 90) are tried in that order from (0, 0) at score 0, and
    only a strictly higher score replaces the best: ties go to the first
    edge, and a map flat at zero reports (0, 0). Raises
    DegenerateQubitError when the winning edge has a zero g, whose supremum
    lies at a direction with no splitting, and ValueError when an
    off-diagonal entry exceeds 1e-12 of its matrix's largest diagonal one.
    """
    for m in (gm, gp):
        scale = max(abs(m[i][i]) for i in range(3))
        if any(abs(m[i][j]) > 1e-12 * scale
               for i in range(3) for j in range(3) if i != j):
            raise ValueError("(gm, gp) is not diagonal in the box axes")
    g, p = [gm[i][i] for i in range(3)], [gp[i][i] for i in range(3)]
    best, angles, zero_g = 0.0, (0.0, 0.0), False
    # edge (i, j): b_i = sin(a) and b_j = cos(a), with tan(a)^2 = |g_j / g_i|
    for i, j, edge in ((0, 2, lambda a: (a, 0.0)), (1, 2, lambda a: (a, 90.0)),
                       (1, 0, lambda a: (90.0, a))):
        den = abs(g[i]) + abs(g[j])
        score = abs(g[i] * p[j] - g[j] * p[i]) / den if den else 0.0
        if score > best:
            best, zero_g = score, 0.0 in (g[i], g[j])
            angles = edge(degrees(atan2(sqrt(abs(g[j])), sqrt(abs(g[i])))))
    if zero_g:
        raise DegenerateQubitError("the best direction has no qubit splitting")
    return angles
