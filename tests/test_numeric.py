import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import product
from math import pi, radians
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from pytest import approx

import holebox.numeric as numeric
from holebox import (BasisCutoff, BoxGeometry, DegenerateQubitError,
                     FieldConfig, HamiltonianMatrix, Orientation, RabiResult,
                     StrainConfig, assemble_paramagnetic, assemble_static,
                     assemble_zeeman, converged_rabi, dipole_y, get_material,
                     gmatrix, minimal_exact_qubit, pair_doublets,
                     rabi_sum_over_states, reduce_model, solve_spectrum)
from holebox.basis import derivative_matrix
from oracles import (exact_finite_field, hermiticity_residual,
                     well_separated_sample)

SI = get_material("Si")
BOX = BoxGeometry(40.0, 30.0, 10.0)
D110 = Orientation.DOT_110
REF_FIELDS = FieldConfig(B=1.0, theta=radians(45), phi=radians(90),
                         E0=0.1, E_ac=0.03)


def test_solve_spectrum_matches_dense_reference():
    H = assemble_static(SI, BOX, D110, BasisCutoff(3, 3, 2), E0=0.1)
    spec = solve_spectrum(H, 10)
    want = np.linalg.eigvalsh(H.matrix)[:10]
    energies = np.repeat(spec.e, 2)
    assert energies == approx(want, rel=1e-12)
    # orthonormal eigenvectors
    V = spec.vectors
    assert np.allclose(V.conj().T @ V, np.eye(10), atol=1e-12)
    assert np.allclose(H.matrix @ V, V * energies, atol=1e-9)


def test_solve_spectrum_phase_is_deterministic():
    H = assemble_static(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1)
    a = solve_spectrum(H, 8).vectors
    b = solve_spectrum(H, 8).vectors
    assert np.array_equal(a, b)
    lead = np.argmax(np.abs(a), axis=0)
    for j, i in enumerate(lead):
        assert a[i, j].imag == approx(0.0, abs=1e-14)
        assert a[i, j].real > 0


@pytest.mark.parametrize("material, orientation, cut", [
    (SI, D110, BasisCutoff(6, 6, 4)),
    (get_material("Ge"), Orientation.DOT_100, BasisCutoff(4, 4, 3))],
    ids=["Si-110", "Ge-100"])
def test_one_gauge_for_every_column(material, orientation, cut):
    """Each column's first largest entry is max|w_j| itself, with a zero
    imaginary part: the phase factor is an exact power of i, not a rounded
    division. pairs builds the same columns as .vectors, bit for bit."""
    H0 = assemble_static(material, BOX, orientation, cut, E0=0.1)
    spectrum = solve_spectrum(H0, 82)
    V = spectrum.vectors
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    size = np.repeat(np.max(np.abs(spectrum.w), axis=0), 2)
    assert np.array_equal(lead.real, size)
    assert np.array_equal(lead.imag, np.zeros(82))
    for j in range(41):
        for m in (1, 2, 5):
            assert np.array_equal(spectrum.pairs(j, j + m),
                                  V[:, 2 * j:2 * (j + m)])


def test_pair_doublets_keeps_degenerate_pairs():
    # two degenerate doublets are still two adjacent (v, T v) pairs
    spectrum = SimpleNamespace(e=np.zeros(2), vectors=np.eye(4, dtype=complex))
    got = pair_doublets(spectrum)
    assert [d.index for d in got] == [0, 1]
    assert [d.E for d in got] == [0.0, 0.0]
    assert np.array_equal(got[1].v_down, np.eye(4)[:, 3])


def test_rabi_result_validation():
    with pytest.raises(ValueError, match="non-negative"):
        RabiResult(f_L=-1.0, f_R=0.1)


def test_degenerate_qubit_raises_in_sum():
    # B = 0 gives a vanishing qubit splitting
    cut = BasisCutoff(1, 2, 1)
    H0 = assemble_static(SI, BOX, D110, cut, E0=0.1)
    doublets = pair_doublets(solve_spectrum(H0, 8))
    HZ = assemble_zeeman(SI, 0.0, 0.0, 0.0, cut)
    Y = dipole_y(BOX, cut)
    with pytest.raises(DegenerateQubitError):
        rabi_sum_over_states(doublets, HZ, Y, 0.03, n_excited=3)


def test_minimal_cutoff_reproduces_exact_minimal_route():
    """Zeeman-only numerics on the 8-state basis must agree with the
    closed 8x8 treatment to floating-point accuracy."""
    rng = np.random.default_rng(17)
    for _ in range(15):
        m, g = well_separated_sample(rng)
        f = FieldConfig(B=rng.uniform(0.2, 3), theta=rng.uniform(0, pi),
                        phi=rng.uniform(0, 2 * pi),
                        E0=rng.uniform(0.01, 0.4), E_ac=0.03)
        want_r, want_l = minimal_exact_qubit(m, g, D110, f)
        got = converged_rabi(m, g, D110, f, BasisCutoff(1, 2, 1),
                             include_paramagnetic=False, n_excited=3)
        assert got.f_R == approx(want_r, rel=1e-10, abs=1e-15)
        assert got.f_L == approx(want_l, rel=1e-10)


def test_gauge_invariance_under_doublet_rotations():
    """Physical outputs must not depend on the arbitrary unitary within
    each Kramers doublet."""
    cut = BasisCutoff(2, 2, 2)
    H0 = assemble_static(SI, BOX, D110, cut, E0=0.1)
    doublets = pair_doublets(solve_spectrum(H0, 16))
    HZ = assemble_zeeman(SI, REF_FIELDS.B, REF_FIELDS.theta, REF_FIELDS.phi,
                         cut)
    Y = dipole_y(BOX, cut)
    ref = rabi_sum_over_states(doublets, HZ, Y, 0.03, n_excited=7)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rotated = []
        for d in doublets:
            # Haar-ish random 2x2 unitary from a QR decomposition
            Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            Q, R = np.linalg.qr(Z)
            U = Q * (np.diag(R) / np.abs(np.diag(R)))
            vu = U[0, 0] * d.v_up + U[1, 0] * d.v_down
            vd = U[0, 1] * d.v_up + U[1, 1] * d.v_down
            rotated.append(type(d)(E=d.E, v_up=vu, v_down=vd, index=d.index))
        got = rabi_sum_over_states(rotated, HZ, Y, 0.03, n_excited=7)
        assert got.f_R == approx(ref.f_R, rel=1e-10)
        assert got.f_L == approx(ref.f_L, rel=1e-10)


def test_sum_over_states_defaults_to_every_given_doublet():
    """With no n_excited the sum runs over every excited doublet it is
    given, as ReducedModel's does, not over the first DEFAULT_N_EXCITED."""
    ge, cut = get_material("Ge"), BasisCutoff(6, 6, 4)
    H0 = assemble_static(ge, BOX, Orientation.DOT_100, cut, E0=0.1)
    doublets = pair_doublets(solve_spectrum(H0, 162))
    assert len(doublets) == 81
    HZ = assemble_zeeman(ge, REF_FIELDS.B, REF_FIELDS.theta, REF_FIELDS.phi,
                         cut)
    Y = dipole_y(BOX, cut)

    def f_R(**kwargs):
        return rabi_sum_over_states(doublets, HZ, Y, REF_FIELDS.E_ac,
                                    **kwargs).f_R
    assert f_R() == f_R(n_excited=80)
    assert f_R() == approx(0.014292, abs=5e-7)
    assert f_R(n_excited=numeric.DEFAULT_N_EXCITED) == approx(0.014524,
                                                              abs=5e-7)


def test_reduced_model_keeps_ground_doublet_columns():
    """The reduced model's generators and dipole are the first two columns
    of their full projections V^H G V on the kept static eigenvectors."""
    cut = BasisCutoff(3, 3, 2)
    red = reduce_model(SI, BOX, D110, cut, E0=0.1, n_excited=15)
    V = solve_spectrum(assemble_static(SI, BOX, D110, cut, E0=0.1),
                       2 * (15 + 1)).vectors
    n = V.shape[1]
    assert red.e.shape == (n // 2,)
    assert red.zeeman.shape == red.paramagnetic.shape == (3, n, 2)
    assert red.dipole.shape == (n, 2)

    def columns(G):
        return (V.conj().T @ G.matrix @ V)[:, :2]

    axes = ((pi / 2, 0.0), (pi / 2, pi / 2), (0.0, 0.0))
    zeeman = [columns(assemble_zeeman(SI, 1.0, th, ph, cut)) for th, ph in axes]
    para = [columns(assemble_paramagnetic(SI, BOX, 1.0, th, ph, cut,
                                          orientation=D110))
            for th, ph in axes]
    for got, want in ((red.zeeman, zeeman), (red.paramagnetic, para),
                      (red.dipole, columns(dipole_y(BOX, cut)))):
        np.testing.assert_allclose(got, np.array(want), rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("material, orientation, cut, n_excited", [
    (SI, D110, BasisCutoff(6, 6, 4), 40),
    (get_material("Ge"), Orientation.DOT_100, BasisCutoff(6, 6, 4), 40),
    # 16 states: k = 8 solved states are the whole + block
    (SI, D110, BasisCutoff(2, 2, 1), 7)],
    ids=["Si-110", "Ge-100", "Si-110-whole-block"])
def test_sector_projection_matches_the_full_eigenbasis(material, orientation,
                                                       cut, n_excited):
    """reduce_model projects chunk by chunk on SpinorSpectrum.pairs; its
    stored columns equal the explicit projection V^H G V[:, :2] on
    solve_spectrum's vectors row by row, the v rows and the T v rows
    separately, as a sign error in <T v|y> would cancel in f_L and f_R, and
    so do its (gm, gp)."""
    H0 = assemble_static(material, BOX, orientation, cut, E0=0.1)
    spectrum = solve_spectrum(H0, min(2 * (n_excited + 1), cut.dimension))
    V = spectrum.vectors
    axes = ((pi / 2, 0.0), (pi / 2, pi / 2), (0.0, 0.0))

    def columns(G):
        return V.conj().T @ (G.matrix @ V[:, :2])

    explicit = numeric.ReducedModel(
        e=spectrum.e,
        zeeman=np.array([columns(assemble_zeeman(material, 1.0, th, ph, cut))
                         for th, ph in axes]),
        paramagnetic=np.array([columns(assemble_paramagnetic(
            material, BOX, 1.0, th, ph, cut, orientation=orientation))
            for th, ph in axes]),
        dipole=columns(dipole_y(BOX, cut)))
    red = reduce_model(material, BOX, orientation, cut, 0.1,
                       n_excited=n_excited)
    assert np.array_equal(red.e, spectrum.e)
    for name in ("zeeman", "paramagnetic", "dipole"):
        got, want = getattr(red, name), getattr(explicit, name)
        assert got.shape == want.shape
        for rows in (slice(0, None, 2), slice(1, None, 2)):
            np.testing.assert_allclose(got[..., rows, :], want[..., rows, :],
                                       rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))
    for flag in (False, True):
        for g, g_want in zip(red.g_matrices(flag, n_excited),
                             explicit.g_matrices(flag, n_excited)):
            np.testing.assert_allclose(g, g_want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(g_want)))


def test_reduce_model_forms_no_full_eigenbasis(monkeypatch):
    """reduce_model never forms the N x n_states eigenvectors: it asks
    pairs for the ground doublet, and the residual check and the projection
    ask for at most APPLY_COLUMNS columns at a time, against 82 kept states
    here."""
    requested = []
    pairs = numeric.SpinorSpectrum.pairs

    def counted_pairs(self, start, stop):
        requested.append((start, stop))
        return pairs(self, start, stop)

    def no_vectors(self):
        raise AssertionError("reduce_model read SpinorSpectrum.vectors")

    monkeypatch.setattr(numeric.SpinorSpectrum, "pairs", counted_pairs)
    monkeypatch.setattr(numeric.SpinorSpectrum, "vectors",
                        property(no_vectors))
    red = reduce_model(SI, BOX, D110, BasisCutoff(6, 6, 4), E0=0.1)
    assert red.e.shape == (41,)
    assert (0, 1) in requested
    assert all(2 * (stop - start) <= numeric.APPLY_COLUMNS
               for start, stop in requested)


def test_pipelines_sum_only_the_static_operator(monkeypatch):
    """reduce_model and converged_rabi assemble H0 once and sum only its
    terms, once, into the mirror block: they never read the dense .matrix,
    and the field generators and the dipole are only ever applied factor by
    factor, never summed in any form."""
    summed, dense, static = [], [], []
    terms = HamiltonianMatrix.scatter_terms
    build = HamiltonianMatrix.matrix.func

    def counted_terms(self):
        summed.append(self)
        return terms(self)

    def counted_matrix(self):
        dense.append(self)
        return build(self)

    def assemble(*args, **kwargs):
        static.append(assemble_static(*args, **kwargs))
        return static[-1]

    monkeypatch.setattr(HamiltonianMatrix, "scatter_terms", counted_terms)
    monkeypatch.setattr(HamiltonianMatrix, "matrix", property(counted_matrix))
    monkeypatch.setattr(numeric, "assemble_static", assemble)
    cut = BasisCutoff(3, 3, 2)
    reduce_model(SI, BOX, D110, cut, E0=0.1, n_excited=10)
    assert len(static) == 1
    assert len(summed) == 1 and summed[0] is static[0]
    converged_rabi(SI, BOX, D110, REF_FIELDS, cut, n_excited=10)
    assert len(static) == 2
    assert len(summed) == 2 and summed[1] is static[1]
    assert dense == []


def _pair(red, include_paramagnetic=True, n_excited=None):
    """The (g, p) that a converged angle-map hands to holebox.gmatrix."""
    return gmatrix.diagonal(*red.g_matrices(include_paramagnetic, n_excited))


def test_reduced_model_sums_every_kept_doublet_by_default():
    """Without n_excited, g_matrices, the kernel on their pair and rabi sum
    over every doublet that reduce_model kept, not over DEFAULT_N_EXCITED
    of them."""
    red = reduce_model(get_material("Ge"), BOX, Orientation.DOT_100,
                       BasisCutoff(6, 6, 4), E0=0.1, n_excited=80)
    for flag in (False, True):
        for g, g_all in zip(red.g_matrices(flag), red.g_matrices(flag, 80)):
            assert np.array_equal(g, g_all)
    point = (1.0, radians(45), radians(90), 0.03)
    assert red.rabi(*point) == red.rabi(*point, n_excited=80)
    assert red.rabi(*point) != red.rabi(
        *point, n_excited=numeric.DEFAULT_N_EXCITED)
    grid = ([0.0, 0.0, radians(45), radians(45)],
            [0.0, radians(90), 0.0, radians(90)])
    assert (gmatrix.frequencies(*_pair(red), 1.0, *grid, 0.03)
            == gmatrix.frequencies(*_pair(red, n_excited=80), 1.0, *grid,
                                   0.03))


@pytest.mark.parametrize("material, orientation", [
    (m, o) for m in (SI, get_material("Ge")) for o in Orientation],
    ids=["Si-110", "Si-100", "Ge-110", "Ge-100"])
def test_reduced_model_parity_in_e0(material, orientation):
    """y -> -y takes the box onto itself and E0 onto -E0, so gm is even and
    gp odd in E0. The two static solves round differently, so the pairs
    agree to rounding only: the worst case measured on these four dots is
    6.6e-13 of the largest |entry| (Ge [100], full tier), and the bound is
    1e-11."""
    cut = BasisCutoff(6, 6, 4)
    plus = reduce_model(material, BOX, orientation, cut, E0=0.1)
    minus = reduce_model(material, BOX, orientation, cut, E0=-0.1)
    for flag in (False, True):
        (g, p), (g_minus, p_minus) = _pair(plus, flag), _pair(minus, flag)
        assert np.max(np.abs(np.subtract(g_minus, g))) \
            <= 1e-11 * np.max(np.abs(g))
        assert np.max(np.abs(np.add(p_minus, p))) <= 1e-11 * np.max(np.abs(p))


def test_reduced_model_matches_direct_pipeline():
    cut = BasisCutoff(4, 4, 3)
    red = reduce_model(SI, BOX, D110, cut, E0=0.1, n_excited=20)
    for theta, phi in ((0.0, 0.0), (radians(45), radians(90)),
                       (radians(80), radians(30))):
        f = replace(REF_FIELDS, theta=theta, phi=phi)
        for flag in (False, True):
            want = converged_rabi(SI, BOX, D110, f, cut,
                                  include_paramagnetic=flag, n_excited=20)
            got = red.rabi(f.B, theta, phi, f.E_ac, include_paramagnetic=flag,
                           n_excited=20)
            assert got.f_R == approx(want.f_R, rel=1e-10, abs=1e-14)
            assert got.f_L == approx(want.f_L, rel=1e-10)


def test_rabi_grid_matches_full_basis_pipeline():
    """gmatrix.frequencies on the model's (g, p), as an angle-map evaluates
    it, agrees with the full-basis route point by point, on a grid with
    theta = 0 and both phi endpoints, and equals the scalar reduced-model
    call exactly."""
    cut = BasisCutoff(4, 4, 3)
    red = reduce_model(SI, BOX, D110, cut, E0=0.1, n_excited=20)
    thetas, phis = zip(*product([0.0, radians(45), radians(90)],
                                [0.0, radians(70), radians(180)]))
    for flag in (False, True):
        f_R, f_L = gmatrix.frequencies(*_pair(red, flag, 20), REF_FIELDS.B,
                                       thetas, phis, REF_FIELDS.E_ac)
        assert len(f_R) == len(f_L) == 9
        for k, (theta, phi) in enumerate(zip(thetas, phis)):
            f = replace(REF_FIELDS, theta=theta, phi=phi)
            want = converged_rabi(SI, BOX, D110, f, cut,
                                  include_paramagnetic=flag, n_excited=20)
            assert f_R[k] == approx(want.f_R, rel=1e-10, abs=1e-14)
            assert f_L[k] == approx(want.f_L, rel=1e-10)
            one = red.rabi(f.B, f.theta, f.phi, f.E_ac,
                           include_paramagnetic=flag, n_excited=20)
            assert (f_R[k], f_L[k]) == (one.f_R, one.f_L)


def test_rabi_grid_gives_nan_where_the_splitting_vanishes():
    """A vanishing splitting gives NaN in the kernel on the model's (g, p),
    with no floating-point warning, where the scalar call raises: at B = 0,
    and for a model whose field generators vanish."""
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    thetas = np.linspace(0.0, pi / 2, 7).tolist()
    f_R, f_L = gmatrix.frequencies(*_pair(red), 0.0, thetas, [0.0] * 7, 0.03)
    assert np.all(np.isnan(f_L)) and np.all(np.isnan(f_R))
    with pytest.raises(DegenerateQubitError):
        red.rabi(0.0, 0.3, 0.0, 0.03)
    blank = replace(red, zeeman=np.zeros_like(red.zeeman),
                    paramagnetic=np.zeros_like(red.paramagnetic))
    t, p = zip(*product(thetas, np.linspace(0.0, pi, 5).tolist()))
    for flag in (False, True):
        with np.errstate(all="raise"):
            f_R, f_L = gmatrix.frequencies(*_pair(blank, flag), 1.0, t, p,
                                           0.03)
        assert len(f_L) == len(f_R) == 7 * 5
        assert np.all(np.isnan(f_L)) and np.all(np.isnan(f_R))


def test_rabi_grid_rejects_negative_drive():
    # the one-direction call and the kernel on the pair all reject E_ac < 0
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    g, p = _pair(red)
    for call in (lambda: red.rabi(1.0, 0.3, 0.2, -0.03),
                 lambda: gmatrix.frequencies(g, p, 1.0, [0.3], [0.2], -0.03),
                 lambda: gmatrix.qubit(g, p, 1.0, 0.3, 0.2, -0.03)):
        with pytest.raises(ValueError, match="E_ac must be >= 0"):
            call()
    assert gmatrix.frequencies(g, p, 1.0, [0.3], [0.2], 0.0)[0] == [0.0]


@pytest.mark.parametrize("material, orientation", [
    ("Si", D110), ("Ge", Orientation.DOT_100), ("Ge", D110)])
def test_g_matrices_are_diagonal_in_the_box_axes(material, orientation):
    """Both tiers' gm and gp are diagonal in the box axes: a cheap check of
    the symmetry of every field generator and of the dipole."""
    red = reduce_model(get_material(material), BOX, orientation,
                       BasisCutoff(4, 4, 3), E0=0.1)
    for flag in (False, True):
        for g in red.g_matrices(include_paramagnetic=flag):
            diagonal = np.diag(g)
            off = g - np.diag(diagonal)
            assert np.max(np.abs(off)) <= 1e-12 * np.min(np.abs(diagonal))


def test_rabi_grid_accepts_degenerate_excited_doublets():
    """Two excited doublets degenerate with each other are each a true
    (v, T v) pair: the sum stays finite and continuous in their gap."""
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    e = red.e.copy()
    e[2] = e[1]
    near = e.copy()
    near[2] += 1e-7
    got, want = (gmatrix.frequencies(*_pair(replace(red, e=x)), 1.0, [0.3],
                                     [0.2], 0.03) for x in (e, near))
    assert np.all(np.isfinite(got)) and got[0][0] > 0
    np.testing.assert_allclose(got, want, rtol=1e-5)


@pytest.mark.parametrize("pipeline", ["converged_rabi", "g_matrices"])
def test_gamma8_quadruplet_ground_is_degenerate_not_unpaired(pipeline):
    """A Ge [100] cube at E0 = 0 has a fourfold (Gamma_8) ground level: the
    first excited doublet is degenerate with the ground one, which the
    first-order sum must refuse; the pairing itself is fine."""
    ge, cube = get_material("Ge"), BoxGeometry(20.0, 20.0, 20.0)
    cut = BasisCutoff(4, 4, 4)
    fields = replace(REF_FIELDS, E0=0.0)
    with pytest.raises(DegenerateQubitError,
                       match="degenerate with the ground doublet"):
        if pipeline == "converged_rabi":
            converged_rabi(ge, cube, Orientation.DOT_100, fields, cut,
                           n_excited=10)
        else:
            reduce_model(ge, cube, Orientation.DOT_100, cut, 0.0,
                         n_excited=10).g_matrices()


def test_reduced_model_scales_linearly_in_b():
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    a = red.rabi(0.5, radians(45), radians(90), 0.03)
    b = red.rabi(1.5, radians(45), radians(90), 0.03)
    assert b.f_R == approx(3 * a.f_R, rel=1e-12)
    assert b.f_L == approx(3 * a.f_L, rel=1e-12)


def test_solver_rejects_bad_state_count():
    H = assemble_static(SI, BOX, D110, BasisCutoff(1, 2, 1), E0=0.1)
    # no state, or half a Kramers doublet
    for n_states in (0, 3):
        with pytest.raises(ValueError, match="positive even"):
            solve_spectrum(H, n_states)


# time reversal in the spin order (+3/2, +1/2, -1/2, -3/2): T v = A conj(v)
_T_SPIN = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])


_STATIC_CASES = [
    (SI, D110, BasisCutoff(3, 3, 2), 0.1, StrainConfig(2e-4)),
    (get_material("Ge"), Orientation.DOT_100, BasisCutoff(2, 3, 3), 0.2, None),
]


@pytest.mark.parametrize("material, orientation, cut, E0, strain",
                         _STATIC_CASES)
def test_sector_solve_gives_exact_kramers_pairs(material, orientation, cut,
                                                E0, strain):
    """The subset dsyevr solve gives exact (v, T v) pairs that pass the
    residual check, with the energies of the phased + block."""
    H0 = assemble_static(material, BOX, orientation, cut, E0=E0, strain=strain)
    T = np.kron(np.eye(cut.n_orbital), _T_SPIN)
    scale = np.max(np.sum(np.abs(H0.matrix), axis=1))
    spec = solve_spectrum(H0, 20)
    e, V = np.repeat(spec.e, 2), spec.vectors
    assert e == approx(np.linalg.eigvalsh(H0.matrix)[:20], rel=0, abs=1e-10)
    residual = np.linalg.norm(H0 @ V - V * e, axis=0)
    assert np.max(residual) <= numeric.RESIDUAL_TOL * scale
    for i in range(0, 20, 2):
        pair = V[:, i:i + 2]
        assert np.allclose(pair.conj().T @ pair, np.eye(2), atol=1e-12)
        # the partner is T v up to the phase that makes its first largest
        # entry real positive
        assert abs(np.vdot(V[:, i + 1], T @ V[:, i].conj())) == approx(1.0)
    block = np.linalg.eigvalsh(_phased_plus_block(H0).real)[:10]
    assert e[0::2] == approx(block, rel=1e-12, abs=0)


def _patch_dsyevr(monkeypatch, stand_in):
    """Bind solve_spectrum's dsyevr to stand_in(dsyevr, *args), called with
    numpy's bound LAPACKE_dsyevr and the arguments of each call."""
    dsyevr, lapack_int = numeric._dsyevr()
    monkeypatch.setattr(numeric, "_dsyevr", lambda: (
        lambda *args: stand_in(dsyevr, *args), lapack_int))


# the two entries to the sector solve, at cutoff (2,2,2) with 8 states
_SOLVES = {
    "solve_spectrum": lambda: solve_spectrum(
        assemble_static(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1), 8),
    "reduce_model": lambda: reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2),
                                         E0=0.1, n_excited=3),
}

_IU = 10    # LAPACKE_dsyevr's argument iu, the last eigenpair requested


@pytest.mark.parametrize("pipeline", _SOLVES)
@pytest.mark.parametrize("stand_in", [
    lambda dsyevr, *args: 1,
    lambda dsyevr, *args: dsyevr(*args[:_IU], args[_IU] - 1, *args[_IU + 1:])],
    ids=["info", "missing_states"])
def test_lapack_failure_raises_solver_error(stand_in, pipeline, monkeypatch):
    """A dsyevr failure (info != 0) or a short subset is a typed error."""
    _patch_dsyevr(monkeypatch, stand_in)
    with pytest.raises(numeric.SolverError, match="dsyevr"):
        _SOLVES[pipeline]()


_UNTAKEABLE = {
    "c_order": (np.eye(4, order="C") + np.eye(4, k=1), 2),
    "float32": (np.eye(4, dtype=np.float32, order="F"), 2),
    "not_square": (np.eye(4, 3, order="F"), 2),
    "k_zero": (np.eye(4, order="F"), 0),
    "k_above_n": (np.eye(4, order="F"), 5),
}


# the direct path keeps the case's bare id, the numpy fallback adds -numpy
@pytest.mark.parametrize("block, k, bound", [
    pytest.param(*_UNTAKEABLE[case], bound,
                 id=case if bound else f"{case}-numpy")
    for case in _UNTAKEABLE for bound in (True, False)])
def test_direct_dsyevr_refuses_what_it_cannot_take(block, k, bound,
                                                   monkeypatch):
    """The bound dsyevr reads raw pointers, so a block it cannot take, or
    a k outside 1..n, is refused before the call; the numpy fallback
    refuses the same inputs, k = 0 included, which eigh followed by [:k]
    would turn into zero pairs."""
    if not bound:
        monkeypatch.setattr(numeric, "_dsyevr", lambda: None)
    with pytest.raises(ValueError, match="square Fortran-order float64"):
        numeric._lowest_pairs(block, k)


def _eigh_fails(block):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("pipeline", _SOLVES)
@pytest.mark.parametrize("stand_in", [_eigh_fails], ids=["info"])
def test_fallback_failure_raises_solver_error(stand_in, pipeline,
                                              monkeypatch):
    """Where numpy's dsyevr cannot be bound, a LinAlgError of the
    np.linalg.eigh fallback (LAPACK info != 0) is a SolverError, as a
    failure of the direct path is."""
    monkeypatch.setattr(numeric, "_dsyevr", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", stand_in)
    with pytest.raises(numeric.SolverError, match="eigh"):
        _SOLVES[pipeline]()


@pytest.mark.parametrize("pipeline", _SOLVES)
def test_nan_eigenvectors_fail_the_residual_check(pipeline, monkeypatch):
    """NaN vectors give a NaN residual, which must fail the check rather
    than return NaN energies and vectors."""
    lowest_pairs = numeric._lowest_pairs

    def nan_vectors(block, k):
        e, w = lowest_pairs(block, k)
        return e, np.full_like(w, np.nan)
    monkeypatch.setattr(numeric, "_lowest_pairs", nan_vectors)
    with pytest.raises(numeric.SolverError, match="residual"):
        _SOLVES[pipeline]()


def test_lapack_loads_without_the_scipy_package_and_falls_back(tmp_path):
    """In a fresh process the solve binds dsyevr from numpy's own OpenBLAS;
    where numpy's library cannot be opened, it falls back to np.linalg.eigh.
    Neither path loads any scipy module. The fallback is another LAPACK
    driver (dsyevd), so it cannot give dsyevr's bits: its energies agree to
    1e-12 relative and its phase-fixed vectors to 1e-11, bounds over the
    1.3e-14 and 4.2e-13 measured up to cutoff (10,10,6)."""
    src = str(Path(numeric.__file__).resolve().parents[1])
    code = """\
import ctypes, sys
import numpy as np
from holebox import BasisCutoff, BoxGeometry, Orientation, get_material
from holebox import numeric
from holebox.hamiltonian import assemble_static

class Unbindable(ctypes.CDLL):
    def __init__(self, *args, **kwargs):
        raise OSError("cannot open numpy's LAPACK")

if sys.argv[1] == "fallback":
    ctypes.CDLL = Unbindable
H0 = assemble_static(get_material("Ge"), BoxGeometry(40.0, 30.0, 10.0),
                     Orientation.DOT_100, BasisCutoff(3, 3, 3), E0=0.1)
spec = numeric.solve_spectrum(H0, 12)
np.savez(sys.argv[2], e=spec.e, vectors=spec.vectors)
print(numeric._dsyevr() is None)
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
"""
    results = {}
    for mode in ("direct", "fallback"):
        out = tmp_path / f"{mode}.npz"
        res = subprocess.run([sys.executable, "-c", code, mode, str(out)],
                             cwd=src, capture_output=True, text=True,
                             check=True)
        results[mode] = res.stdout.splitlines(), np.load(out)
    assert results["direct"][0] == ["False", "False"]
    assert results["fallback"][0] == ["True", "False"]
    direct, fallback = results["direct"][1], results["fallback"][1]
    np.testing.assert_allclose(fallback["e"], direct["e"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(fallback["vectors"], direct["vectors"],
                               rtol=0, atol=1e-11)


def test_sector_solve_rejects_mirror_breaking_hamiltonian():
    cut = BasisCutoff(2, 2, 2)
    H = (assemble_static(SI, BOX, D110, cut, E0=0.1)
         + assemble_zeeman(SI, 1.0, 0.7, 0.3, cut))
    with pytest.raises(numeric.SolverError, match="mirror"):
        solve_spectrum(H, 4)


def _phased_plus_block(H: HamiltonianMatrix) -> np.ndarray:
    """D^* H_++ D from the dense view, with D = i^(n_x + n_z) (0-based)
    on the M_z = +i sector (n_z - 1 and the spin slot of equal parity)."""
    cut = H.cutoff
    flat = np.arange(cut.dimension)
    n_x = flat // 4 % cut.N_x
    n_z = flat // (4 * cut.N_x * cut.N_y)
    plus = (n_z + flat % 4) % 2 == 0
    D = np.array([1, 1j, -1, -1j])[(n_x + n_z)[plus] % 4]
    return D.conj()[:, None] * H.matrix[np.ix_(plus, plus)] * D[None, :]


@pytest.mark.parametrize("material, orientation, cut, E0, strain",
                         _STATIC_CASES)
def test_phased_plus_block_is_exactly_real(material, orientation, cut, E0,
                                           strain):
    """The sector block holds the phased + rows bit for bit on and below
    the diagonal, which is all that the solver reads; its strict upper
    triangle is never written. Its norm, taken from that triangle, is the
    infinity norm of the whole symmetric block."""
    H0 = assemble_static(material, BOX, orientation, cut, E0=E0, strain=strain)
    want = _phased_plus_block(H0)
    assert np.all(want.imag == 0.0)
    _, _, block, scale = numeric._plus_sector(H0)
    assert np.array_equal(np.tril(block), np.tril(want.real))
    assert np.all(np.triu(block, 1) == 0.0)
    assert scale == approx(np.abs(want).sum(axis=0).max(), rel=1e-14)


@pytest.mark.parametrize("bound", [True, False], ids=["dsyevr", "numpy"])
def test_lowest_pairs_read_only_the_lower_triangle(bound, monkeypatch):
    """dsyevr is called with uplo L and np.linalg.eigh reads L by default,
    so on both paths the lower-only block gives the bits of the full
    symmetric block."""
    if not bound:
        monkeypatch.setattr(numeric, "_dsyevr", lambda: None)
    H0 = assemble_static(get_material("Ge"), BOX, Orientation.DOT_100,
                         BasisCutoff(2, 3, 3), E0=0.2)
    lower = numeric._plus_sector(H0)[2]
    full = np.asfortranarray(lower + np.tril(lower, -1).T)
    assert np.array_equal(full, _phased_plus_block(H0).real)
    e, w = numeric._lowest_pairs(lower, 6)
    e_full, w_full = numeric._lowest_pairs(full, 6)
    assert np.array_equal(e, e_full)
    assert np.array_equal(w, w_full)


def test_sector_solve_rejects_complex_phased_block():
    """k_y = -i d/dy keeps the mirror but breaks time reversal, and its
    phased block is imaginary: the solver must refuse it, not drop it."""
    cut = BasisCutoff(2, 2, 2)
    # one Kronecker term: -i (d/dy on the y axis) times the spin identity
    k_y = (-1j, (1.0, None, derivative_matrix(cut.N_y, BOX.L_y), None),
           np.eye(4))
    H = (assemble_static(SI, BOX, D110, cut, E0=0.1)
         + HamiltonianMatrix(terms=(k_y,), cutoff=cut))
    assert hermiticity_residual(H) == 0.0
    assert np.any(_phased_plus_block(H).imag != 0.0)
    with pytest.raises(numeric.SolverError, match="not real"):
        solve_spectrum(H, 4)


@pytest.mark.parametrize("material, orientation", [
    (SI, D110), (get_material("Ge"), Orientation.DOT_100)])
def test_sector_solve_rejects_field_along_z(material, orientation):
    """B along z keeps the mirror but breaks time reversal, so T v is not
    the partner of v; the full-H residual over both must catch it."""
    cut = BasisCutoff(2, 2, 2)
    H0 = assemble_static(material, BOX, orientation, cut, E0=0.1)
    for Hm in (assemble_zeeman(material, 1.0, 0.0, 0.0, cut),
               assemble_paramagnetic(material, BOX, 1.0, 0.0, 0.0, cut,
                                     orientation=orientation)):
        with pytest.raises(numeric.SolverError, match="residual"):
            solve_spectrum(H0 + Hm, 4)


def test_converged_rabi_stays_below_two_dense_matrices():
    """The pipeline forms no dense N x N operator: its traced peak stays
    below two dense complex N x N matrices."""
    cut = BasisCutoff(8, 8, 5)
    N = cut.dimension
    assert N == 1280
    tracemalloc.start()
    try:
        converged_rabi(SI, BOX, D110, REF_FIELDS, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * N ** 2


def test_openblas_sector_solve_holds_one_block():
    """dsyevr solves the block in place and it is freed before the vectors
    are built: at (8,8,5) the traced peak of solve_spectrum stays below two
    N x n_states complex arrays. The block lives in an anonymous mapping,
    which tracemalloc does not see, so the bound has no n x n term: any
    numpy copy of the block (8 n^2 bytes, n = N/2) would break it (the
    peak is 2.5 MB against a bound of 3.4 MB, and a numpy-allocated block
    puts it at 3.9 MB). LAPACKE allocates dsyevr's workspace itself, with
    malloc, which tracemalloc does not see either."""
    # a first solve, so that binding the LAPACK library is not traced
    solve_spectrum(assemble_static(SI, BOX, D110, BasisCutoff(2, 2, 2)), 4)
    cut = BasisCutoff(8, 8, 5)
    N, n_states = cut.dimension, 82
    H0 = assemble_static(get_material("Ge"), BOX, Orientation.DOT_100, cut,
                         E0=0.1)
    tracemalloc.start()
    try:
        solve_spectrum(H0, n_states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * N * n_states


# Relative bound of the first-order routes against exact diagonalization at
# finite B. At (4,4,3), over the reference and best directions of the three
# dots and both tiers, the worst deviations measured were 3.2e-8 (f_R) and
# 7.8e-9 (f_L): eigh's rounding on a splitting ~1e-4 meV wide, not the B^2
# term, which the extrapolation removes. 1e-6 leaves a factor of 30 over
# that floor and is still far below any change of the physics.
_EXACT_TOL = 1e-6


@pytest.mark.parametrize("material, orientation", [
    (SI, D110), (get_material("Ge"), Orientation.DOT_100),
    (get_material("Ge"), D110)], ids=["Si-110", "Ge-100", "Ge-110"])
def test_first_order_routes_match_exact_finite_field_diagonalization(
        material, orientation):
    """ReducedModel.rabi and converged_rabi, each keeping every doublet,
    give the f_L and f_R of an exact finite-B diagonalization that shares
    no solve, pairing or gauge with them, on both tiers at the reference
    direction and at the tier's best direction."""
    cut = BasisCutoff(4, 4, 3)
    every = cut.dimension // 2 - 1
    red = reduce_model(material, BOX, orientation, cut, E0=REF_FIELDS.E0,
                       n_excited=every)
    for flag in (False, True):
        best = gmatrix.best_direction(*gmatrix.diagonal(*red.g_matrices(flag)))
        for theta, phi in ((REF_FIELDS.theta, REF_FIELDS.phi),
                           tuple(map(radians, best))):
            fields = replace(REF_FIELDS, theta=theta, phi=phi)
            f_L, f_R = exact_finite_field(material, BOX, orientation, cut,
                                          fields, include_paramagnetic=flag)
            for got in (red.rabi(fields.B, theta, phi, fields.E_ac,
                                 include_paramagnetic=flag),
                        converged_rabi(material, BOX, orientation, fields, cut,
                                       include_paramagnetic=flag,
                                       n_excited=every)):
                assert got.f_L == approx(f_L, rel=_EXACT_TOL, abs=0)
                assert got.f_R == approx(f_R, rel=_EXACT_TOL, abs=0)
