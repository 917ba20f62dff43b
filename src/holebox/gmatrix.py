"""Qubit frequencies from the two g-matrices (gm, gp) of a ground doublet.

Each qubit route builds its own pair (holebox.minimal, holebox.numeric),
which the dot's mirrors make diagonal in the box axes: diagonal reduces it
to (g, p). For the field direction b, v = gm b and w = gp b, the doublet
splits by |B| |v|, f_L = |B| |v| / h and f_R = e E_ac |B| |v x w| / (2 h |v|)
(Venitucci, Bourdet, Pouzada & Niquet, PRB 98, 155319 (2018)). With
x_i = b_i^2 and d_ij = g_i p_j - g_j p_i, |v|^2 = sum_i g_i^2 x_i and
|v x w|^2 = sum_{i<j} d_ij^2 x_i x_j. Below MIN_SPLIT both are undefined:
|v x w| / |v| has no limit as v -> 0. Python floats only, so that the
minimal route loads no numpy.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import atan2, cos, degrees, isnan, nan, sin, sqrt

from .constants import CONST
from .inputs import DegenerateQubitError

MIN_SPLIT = 1e-12       # meV; below it the qubit states are ill-defined


def diagonal(gm, gp) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(g, p), the diagonals of gm and gp as 3-tuples of floats. ValueError
    where an off-diagonal entry exceeds 1e-12 of its largest diagonal one."""
    for m in (gm, gp):
        scale = max(abs(m[i][i]) for i in range(3))
        if any(abs(m[i][j]) > 1e-12 * scale
               for i in range(3) for j in range(3) if i != j):
            raise ValueError("(gm, gp) is not diagonal in the box axes")
    return tuple(tuple(float(m[i][i]) for i in range(3)) for m in (gm, gp))


def _d(g, p, i: int, j: int) -> float:
    """d_ij = g_i p_j - g_j p_i, so |v x w|^2 = sum_{i<j} d_ij^2 x_i x_j."""
    return g[i] * p[j] - g[j] * p[i]


def frequencies(g, p, B: float, thetas: Sequence[float],
                phis: Sequence[float], E_ac: float,
                ) -> tuple[list[float], list[float]]:
    """f_R and f_L in GHz, as two lists, at the field directions
    (thetas[k], phis[k]) in radians, for the diagonals (g, p) of a pair;
    NaN in both below MIN_SPLIT. Raises ValueError for E_ac < 0."""
    if E_ac < 0:
        raise ValueError(f"E_ac must be >= 0, got {E_ac}")
    # products, not powers: a float power raises OverflowError
    g0, g1, g2 = (x * x for x in g)
    d01, d02, d12 = (d * d for d in (_d(g, p, 0, 1), _d(g, p, 0, 2),
                                     _d(g, p, 1, 2)))
    B = abs(B)      # a field -B along b is B along -b: same frequencies
    drive, h, h2 = CONST.e_scale * E_ac * B, CONST.h_planck, 2 * CONST.h_planck
    f_R, f_L = [], []
    for theta, phi in zip(thetas, phis):
        st = sin(theta)
        b0, b1, b2 = st * cos(phi), st * sin(phi), cos(theta)
        x0, x1, x2 = b0 * b0, b1 * b1, b2 * b2
        v_norm = sqrt(g0 * x0 + g1 * x1 + g2 * x2)
        split = B * v_norm >= MIN_SPLIT     # False for a NaN too
        f_R.append(drive * sqrt(d01 * x0 * x1 + d02 * x0 * x2 + d12 * x1 * x2)
                   / (h2 * v_norm) if split else nan)
        f_L.append(B * v_norm / h if split else nan)
    return f_R, f_L


def qubit(g, p, B: float, theta: float, phi: float,
          E_ac: float) -> tuple[float, float]:
    """(f_R, f_L) in GHz for one field direction; raises
    DegenerateQubitError where frequencies gives NaN."""
    (f_R,), (f_L,) = frequencies(g, p, B, (theta,), (phi,), E_ac)
    if isnan(f_L):
        raise DegenerateQubitError(
            f"qubit splitting below {MIN_SPLIT:.0e} meV; Rabi frequency "
            "ill-defined for this field direction")
    return f_R, f_L


def best_direction(g, p) -> tuple[float, float]:
    """(theta_deg, phi_deg) maximizing the f_R of frequencies for the
    diagonals (g, p), in [0, 90] degrees: f_R depends on b only through
    x_i = b_i^2, which also makes f_R(theta, phi) = f_R(theta, 180 - phi).

    f_R^2 is proportional to sum_{i<j} d_ij^2 x_i x_j / sum_i g_i^2 x_i,
    whose maximum over the simplex sum x_i = 1 lies on an edge (i, j):
    |d_ij| / (|g_i| + |g_j|), at b_i^2 = |g_j| / (|g_i| + |g_j|). The edges
    xz (phi = 0), yz (phi = 90) and xy (theta = 90) are tried in that order
    from (0, 0) at score 0, and only a strictly higher score replaces the
    best: ties go to the first edge, and a map flat at zero reports (0, 0).
    Raises DegenerateQubitError when the winning edge has a zero g, whose
    supremum lies at a direction with no splitting.
    """
    best, angles, zero_g = 0.0, (0.0, 0.0), False
    # edge (i, j): b_i = sin(a) and b_j = cos(a), with tan(a)^2 = |g_j / g_i|
    for i, j, edge in ((0, 2, lambda a: (a, 0.0)), (1, 2, lambda a: (a, 90.0)),
                       (1, 0, lambda a: (90.0, a))):
        den = abs(g[i]) + abs(g[j])
        score = abs(_d(g, p, i, j)) / den if den else 0.0
        if score > best:
            best, zero_g = score, 0.0 in (g[i], g[j])
            angles = edge(degrees(atan2(sqrt(abs(g[j])), sqrt(abs(g[i])))))
    if zero_g:
        raise DegenerateQubitError("the best direction has no qubit splitting")
    return angles
