"""Particle-in-a-box sine basis: indexing and exact 1D matrix elements.

Basis functions on |u| <= L/2 with hard walls:

    chi_n(u) = sqrt(2/L) sin(n pi (u/L + 1/2)),   n = 1, 2, ...

The full spinor basis is the product {|n_x n_y n_z>} x {|j_z>} with j_z
ordered (+3/2, +1/2, -1/2, -3/2).  Flat indices run j_z fastest, then n_x,
then n_y, then n_z, so the 4x4 spin blocks stay contiguous.

All elements are closed forms (validated against quadrature in the test
suite, not integrated at runtime).  The sign convention is anchored by
<chi_2|u|chi_1> = -16 L / (9 pi^2); every downstream coupling inherits it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BasisCutoff:
    N_x: int
    N_y: int
    N_z: int

    def __post_init__(self):
        for axis, n in (("N_x", self.N_x), ("N_y", self.N_y), ("N_z", self.N_z)):
            if not (isinstance(n, int) and n >= 1):
                raise ValueError(f"{axis} must be a positive integer, got {n!r}")

    @property
    def n_orbital(self) -> int:
        return self.N_x * self.N_y * self.N_z

    @property
    def dimension(self) -> int:
        return 4 * self.n_orbital


def position_element(n: int, m: int, L: float) -> float:
    """<chi_n| u |chi_m>.  Zero for n+m even; (1,2) gives -16 L/(9 pi^2)."""
    if (n + m) % 2 == 0:
        return 0.0
    s, d = n + m, n - m
    return 2.0 * L / np.pi ** 2 * (1.0 / s ** 2 - 1.0 / d ** 2)


def derivative_element(n: int, m: int, L: float) -> float:
    """<chi_n| d/du |chi_m>.  Antisymmetric; zero for n+m even."""
    if (n + m) % 2 == 0:
        return 0.0
    return 4.0 * n * m / (L * (n - m) * (n + m))


def ksquared_element(n: int, m: int, L: float) -> float:
    """<chi_n| -d^2/du^2 |chi_m> = delta_nm (n pi / L)^2."""
    if n != m:
        return 0.0
    return (n * np.pi / L) ** 2


def posderiv_element(n: int, m: int) -> float:
    """<chi_n| u d/du |chi_m>, dimensionless.

    Needed for the magnetic terms that pair a coordinate with a derivative
    along the same axis.  The product of the truncated position and
    derivative matrices is *not* exact in a finite basis, so this composite
    element carries its own closed form: -1/2 on the diagonal (integration
    by parts), -2nm/(n^2 - m^2) for n != m of equal parity, 0 otherwise.
    Satisfies posderiv(n, m) + posderiv(m, n) = -delta_nm.
    """
    if n == m:
        return -0.5
    if (n + m) % 2 == 1:
        return 0.0
    return -2.0 * n * m / ((n - m) * (n + m))


def _table(fn, N: int) -> np.ndarray:
    out = np.empty((N, N))
    for i in range(N):
        for j in range(N):
            out[i, j] = fn(i + 1, j + 1)
    return out


def position_matrix(N: int, L: float) -> np.ndarray:
    return _table(lambda n, m: position_element(n, m, L), N)


def derivative_matrix(N: int, L: float) -> np.ndarray:
    return _table(lambda n, m: derivative_element(n, m, L), N)


def ksquared_matrix(N: int, L: float) -> np.ndarray:
    return _table(lambda n, m: ksquared_element(n, m, L), N)


def posderiv_matrix(N: int) -> np.ndarray:
    return _table(posderiv_element, N)
