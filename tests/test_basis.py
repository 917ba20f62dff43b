import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from holebox import BasisCutoff
from holebox.basis import (derivative_element, derivative_matrix,
                           ksquared_element, position_element, position_matrix,
                           posderiv_element, posderiv_matrix)


def _chi(n, L):
    # particle-in-a-box mode on [-L/2, L/2]
    return lambda u: np.sqrt(2.0 / L) * np.sin(n * np.pi * (u / L + 0.5))


def _dchi(n, L):
    return lambda u: (np.sqrt(2.0 / L) * n * np.pi / L
                      * np.cos(n * np.pi * (u / L + 0.5)))


@pytest.mark.parametrize("L", [1.0, 7.3])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 3), (1, 4), (2, 4),
                                 (3, 5), (4, 5)])
def test_position_element_against_quadrature(L, n, m):
    exact, _ = quad(lambda u: u * _chi(n, L)(u) * _chi(m, L)(u), -L / 2, L / 2)
    assert position_element(n, m, L) == approx(exact, abs=1e-12)


@pytest.mark.parametrize("L", [1.0, 7.3])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 3), (1, 4), (2, 4),
                                 (3, 3), (4, 5)])
def test_derivative_element_against_quadrature(L, n, m):
    exact, _ = quad(lambda u: _chi(n, L)(u) * _dchi(m, L)(u), -L / 2, L / 2)
    assert derivative_element(n, m, L) == approx(exact, abs=1e-12)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (1, 3), (2, 4), (3, 5),
                                 (1, 2)])
def test_posderiv_element_against_quadrature(n, m):
    L = 3.7
    exact, _ = quad(lambda u: u * _chi(n, L)(u) * _dchi(m, L)(u), -L / 2, L / 2)
    assert posderiv_element(n, m) == approx(exact, abs=1e-12)


def test_posderiv_integration_by_parts():
    # u d/du + (u d/du)^T = -1 exactly, from d(u chi_n chi_m)/du integrating
    # to zero at hard walls
    for n in range(1, 7):
        for m in range(1, 7):
            s = posderiv_element(n, m) + posderiv_element(m, n)
            assert s == approx(-1.0 if n == m else 0.0, abs=1e-15)


def test_ksquared_is_diagonal():
    L = 5.0
    assert ksquared_element(2, 3, L) == 0.0
    assert ksquared_element(3, 3, L) == approx((3 * np.pi / L) ** 2)


def test_known_dipole_element():
    L = 30.0
    assert position_element(1, 2, L) == approx(-16 * L / (9 * np.pi ** 2),
                                               rel=1e-15)


def test_matrices_match_elements():
    L = 4.2
    X = position_matrix(3, L)
    D = derivative_matrix(3, L)
    P = posderiv_matrix(3)
    for i in range(3):
        for j in range(3):
            assert X[i, j] == position_element(i + 1, j + 1, L)
            assert D[i, j] == derivative_element(i + 1, j + 1, L)
            assert P[i, j] == posderiv_element(i + 1, j + 1)
    assert np.allclose(X, X.T)
    assert np.allclose(D, -D.T)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        BasisCutoff(0, 1, 1)
