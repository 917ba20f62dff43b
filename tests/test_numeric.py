import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import pi, radians
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from pytest import approx

import holebox.numeric as numeric
from holebox import (BasisCutoff, BoxGeometry, DegenerateQubitError,
                     FieldConfig, HamiltonianMatrix, Orientation, PairingError,
                     RabiResult, StrainConfig, assemble_paramagnetic,
                     assemble_static, assemble_zeeman, converged_rabi,
                     dipole_y, get_material, minimal_exact_qubit,
                     pair_doublets, rabi_sum_over_states, reduce_model,
                     solve_spectrum)
from holebox.basis import derivative_matrix
from holebox.numeric import SpinorSpectrum
from oracles import well_separated_sample

SI = get_material("Si")
BOX = BoxGeometry(40.0, 30.0, 10.0)
D110 = Orientation.DOT_110
REF_FIELDS = FieldConfig(B=1.0, theta=radians(45), phi=radians(90),
                         E0=0.1, E_ac=0.03)


def test_solve_spectrum_matches_dense_reference():
    H = assemble_static(SI, BOX, D110, BasisCutoff(3, 3, 2), E0=0.1)
    spec = solve_spectrum(H, 10)
    want = np.linalg.eigvalsh(H.matrix)[:10]
    assert spec.energies == approx(want, rel=1e-12)
    # orthonormal eigenvectors
    V = spec.vectors
    assert np.allclose(V.conj().T @ V, np.eye(10), atol=1e-12)
    assert np.allclose(H.matrix @ V, V * spec.energies, atol=1e-9)


def test_solve_spectrum_phase_is_deterministic():
    H = assemble_static(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1)
    a = solve_spectrum(H, 8).vectors
    b = solve_spectrum(H, 8).vectors
    assert np.array_equal(a, b)
    lead = np.argmax(np.abs(a), axis=0)
    for j, i in enumerate(lead):
        assert a[i, j].imag == approx(0.0, abs=1e-14)
        assert a[i, j].real > 0


def test_pair_doublets_detects_split_and_keeps_degenerate_pairs():
    def fake(energies):
        n = len(energies)
        return SpinorSpectrum(energies=np.array(energies, dtype=float),
                              vectors=np.eye(n, dtype=complex))

    with pytest.raises(PairingError, match="differ by"):
        pair_doublets(fake([0.0, 1.0, 2.0, 2.0]))
    # pairs are exact, so even a split of 1e-15 meV is not a pair
    with pytest.raises(PairingError, match="differ by"):
        pair_doublets(fake([1.0, 1.0 + 1e-15]))
    # two degenerate doublets are still two adjacent pairs
    assert [d.index for d in pair_doublets(fake([0.0, 0.0, 0.0, 0.0]))] == [0, 1]
    with pytest.warns(UserWarning, match="odd"):
        got = pair_doublets(fake([0.0, 0.0, 1.0, 1.0, 2.0]))
    assert len(got) == 2
    assert got[1].E == approx(1.0)


def test_rabi_result_validation():
    with pytest.raises(ValueError, match="tier"):
        RabiResult(f_L=1.0, f_R=0.1, tier="nonsense")
    with pytest.raises(ValueError, match="non-negative"):
        RabiResult(f_L=-1.0, f_R=0.1, tier="converged_full")


def test_degenerate_qubit_raises_in_sum():
    # B = 0 gives a vanishing qubit splitting
    cut = BasisCutoff(1, 2, 1)
    H0 = assemble_static(SI, BOX, D110, cut, E0=0.1)
    doublets = pair_doublets(solve_spectrum(H0, 8))
    HZ = assemble_zeeman(SI, 0.0, 0.0, 0.0, cut)
    Y = dipole_y(BOX, cut)
    with pytest.raises(DegenerateQubitError):
        rabi_sum_over_states(doublets, HZ, Y, 0.03, n_excited=3,
                             tier="converged_zeeman")


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
        assert got.tier == "converged_zeeman"


def test_gauge_invariance_under_doublet_rotations():
    """Physical outputs must not depend on the arbitrary unitary within
    each Kramers doublet."""
    cut = BasisCutoff(2, 2, 2)
    H0 = assemble_static(SI, BOX, D110, cut, E0=0.1)
    doublets = pair_doublets(solve_spectrum(H0, 16))
    HZ = assemble_zeeman(SI, REF_FIELDS.B, REF_FIELDS.theta, REF_FIELDS.phi,
                         cut)
    Y = dipole_y(BOX, cut)
    ref = rabi_sum_over_states(doublets, HZ, Y, 0.03, n_excited=7,
                               tier="converged_zeeman")
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
        got = rabi_sum_over_states(rotated, HZ, Y, 0.03, n_excited=7,
                                   tier="converged_zeeman")
        assert got.f_R == approx(ref.f_R, rel=1e-10)
        assert got.f_L == approx(ref.f_L, rel=1e-10)


def test_converged_rabi_reports_tier():
    res = converged_rabi(SI, BOX, D110, REF_FIELDS, BasisCutoff(3, 3, 2),
                         include_paramagnetic=True, n_excited=15)
    assert res.tier == "converged_full"
    assert res.f_R > 0 and res.f_L > 0


def test_reduced_model_keeps_ground_doublet_columns():
    """The reduced model's generators and dipole are the first two columns
    of their full projections V^H G V on the kept static eigenvectors."""
    cut = BasisCutoff(3, 3, 2)
    red = reduce_model(SI, BOX, D110, cut, E0=0.1, n_excited=15)
    V = solve_spectrum(assemble_static(SI, BOX, D110, cut, E0=0.1),
                       2 * (15 + 1)).vectors
    n = V.shape[1]
    assert red.energies.shape == (n,)
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
    """reduce_model projects through the sector's real vectors; its
    (gm, gp) equal those of the explicit projection V^H G V[:, :2] on
    solve_spectrum's vectors, and the sector overlaps equal V^H Y row by
    row: the (v, T v) rows separately, as a sign error in <T v|y> would
    cancel in f_L and f_R."""
    H0 = assemble_static(material, BOX, orientation, cut, E0=0.1)
    spectrum = solve_spectrum(H0, min(2 * (n_excited + 1), cut.dimension))
    V = spectrum.vectors
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((cut.dimension, 3)) \
        + 1j * rng.standard_normal((cut.dimension, 3))
    got = spectrum.sector.overlaps(Y)[:spectrum.n_states]
    want = V.conj().T @ Y
    for rows in (slice(0, None, 2), slice(1, None, 2)):
        np.testing.assert_allclose(got[rows], want[rows], rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))

    axes = ((pi / 2, 0.0), (pi / 2, pi / 2), (0.0, 0.0))

    def columns(G):
        return V.conj().T @ (G.matrix @ V[:, :2])

    explicit = numeric.ReducedModel(
        energies=spectrum.energies,
        zeeman=np.array([columns(assemble_zeeman(material, 1.0, th, ph, cut))
                         for th, ph in axes]),
        paramagnetic=np.array([columns(assemble_paramagnetic(
            material, BOX, 1.0, th, ph, cut, orientation=orientation))
            for th, ph in axes]),
        dipole=columns(dipole_y(BOX, cut)))
    red = reduce_model(material, BOX, orientation, cut, 0.1,
                       n_excited=n_excited)
    assert np.array_equal(red.energies, spectrum.energies)
    for flag in (False, True):
        for g, g_want in zip(red.g_matrices(flag, n_excited),
                             explicit.g_matrices(flag, n_excited)):
            np.testing.assert_allclose(g, g_want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(g_want)))


def test_reduce_model_forms_no_full_eigenbasis(monkeypatch):
    """reduce_model never forms the N x n_states eigenvectors: it phase
    fixes the ground doublet alone, and the residual check builds at most
    APPLY_COLUMNS columns at a time, against 82 kept states here."""
    widths, fixed = [], []
    pairs, fix = numeric._Sector.pairs, numeric._fix_phases

    def counted_pairs(self, start, stop):
        built = pairs(self, start, stop)
        widths.append(built.shape[1])
        return built

    def counted_fix(vectors):
        fixed.append(vectors.shape[1])
        return fix(vectors)

    monkeypatch.setattr(numeric._Sector, "pairs", counted_pairs)
    monkeypatch.setattr(numeric, "_fix_phases", counted_fix)
    red = reduce_model(SI, BOX, D110, BasisCutoff(6, 6, 4), E0=0.1)
    assert red.energies.shape == (82,)
    assert fixed == [2]
    assert max(widths) <= numeric.APPLY_COLUMNS


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
    """The batched grid agrees with the full-basis route point by point,
    on a grid with theta = 0 and both phi endpoints, and equals the scalar
    reduced-model call exactly."""
    cut = BasisCutoff(4, 4, 3)
    red = reduce_model(SI, BOX, D110, cut, E0=0.1, n_excited=20)
    thetas = np.radians([0.0, 45.0, 90.0])
    phis = np.radians([0.0, 70.0, 180.0])
    for flag in (False, True):
        f_L, f_R = red.rabi_grid(REF_FIELDS.B, thetas[:, None], phis[None, :],
                                 REF_FIELDS.E_ac, include_paramagnetic=flag,
                                 n_excited=20)
        assert f_L.shape == f_R.shape == (3, 3)
        for i, theta in enumerate(thetas):
            for j, phi in enumerate(phis):
                f = replace(REF_FIELDS, theta=float(theta), phi=float(phi))
                want = converged_rabi(SI, BOX, D110, f, cut,
                                      include_paramagnetic=flag, n_excited=20)
                assert f_R[i, j] == approx(want.f_R, rel=1e-10, abs=1e-14)
                assert f_L[i, j] == approx(want.f_L, rel=1e-10)
                one = red.rabi(f.B, f.theta, f.phi, f.E_ac,
                               include_paramagnetic=flag, n_excited=20)
                assert (f_R[i, j], f_L[i, j]) == (one.f_R, one.f_L)


def test_rabi_grid_gives_nan_where_the_splitting_vanishes():
    """A vanishing splitting gives NaN in the grid, with no floating-point
    warning, where the scalar call raises: at B = 0, and for a model whose
    field generators vanish."""
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    thetas = np.linspace(0.0, pi / 2, 7)
    f_L, f_R = red.rabi_grid(0.0, thetas, 0.0, 0.03)
    assert np.all(np.isnan(f_L)) and np.all(np.isnan(f_R))
    with pytest.raises(DegenerateQubitError):
        red.rabi(0.0, 0.3, 0.0, 0.03)
    blank = replace(red, zeeman=np.zeros_like(red.zeeman),
                    paramagnetic=np.zeros_like(red.paramagnetic))
    for flag in (False, True):
        with np.errstate(all="raise"):
            f_L, f_R = blank.rabi_grid(1.0, thetas[:, None],
                                       np.linspace(0.0, pi, 5)[None, :],
                                       0.03, include_paramagnetic=flag)
        assert f_L.shape == f_R.shape == (7, 5)
        assert np.all(np.isnan(f_L)) and np.all(np.isnan(f_R))


def test_rabi_grid_rejects_negative_drive():
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    with pytest.raises(ValueError, match="E_ac must be >= 0"):
        red.rabi_grid(1.0, 0.3, 0.2, -0.03)
    assert red.rabi_grid(1.0, 0.3, 0.2, 0.0)[1] == 0.0


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


def test_rabi_grid_rejects_unusable_spectrum():
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    split = replace(red, energies=red.energies + np.arange(red.energies.size))
    with pytest.raises(PairingError, match="differ by"):
        split.rabi_grid(1.0, 0.3, 0.2, 0.03)


def test_rabi_grid_accepts_degenerate_excited_doublets():
    """Two excited doublets degenerate with each other are each a true
    (v, T v) pair: the sum stays finite and continuous in their gap."""
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    e = red.energies.copy()
    e[4:6] = e[2]
    near = e.copy()
    near[4:6] += 1e-7
    got = replace(red, energies=e).rabi_grid(1.0, 0.3, 0.2, 0.03)
    assert np.all(np.isfinite(got)) and got[1] > 0
    want = replace(red, energies=near).rabi_grid(1.0, 0.3, 0.2, 0.03)
    np.testing.assert_allclose(got, want, rtol=1e-5)


@pytest.mark.parametrize("pipeline", ["converged_rabi", "rabi_grid"])
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
                         n_excited=10).rabi_grid(1.0, 0.3, 0.2, 0.03)


def test_reduced_model_scales_linearly_in_b():
    red = reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1,
                       n_excited=10)
    a = red.rabi(0.5, radians(45), radians(90), 0.03)
    b = red.rabi(1.5, radians(45), radians(90), 0.03)
    assert b.f_R == approx(3 * a.f_R, rel=1e-12)
    assert b.f_L == approx(3 * a.f_L, rel=1e-12)


def test_solver_rejects_bad_state_count():
    H = assemble_static(SI, BOX, D110, BasisCutoff(1, 2, 1), E0=0.1)
    with pytest.raises(ValueError):
        solve_spectrum(H, 0)


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
    e, V = spec.energies, spec.vectors
    assert np.array_equal(e[0::2], e[1::2])
    assert e == approx(np.linalg.eigvalsh(H0.matrix)[:20], rel=0, abs=1e-10)
    residual = np.linalg.norm(H0 @ V - V * e, axis=0)
    assert np.max(residual) <= numeric.RESIDUAL_TOL * scale
    for i in range(0, 20, 2):
        pair = V[:, i:i + 2]
        assert np.allclose(pair.conj().T @ pair, np.eye(2), atol=1e-12)
        # the partner is T v up to the phase fixed by _fix_phases
        assert abs(np.vdot(V[:, i + 1], T @ V[:, i].conj())) == approx(1.0)
    block = np.linalg.eigvalsh(_phased_plus_block(H0).real)[:10]
    assert e[0::2] == approx(block, rel=1e-12, abs=0)


def _patch_dsyevr(monkeypatch, change):
    """Route solve_spectrum's dsyevr through change(e, w, m, isuppz, info)."""
    lapack = numeric._lapack()

    def dsyevr(*args, **kwargs):
        return change(*lapack.dsyevr(*args, **kwargs))
    monkeypatch.setattr(numeric, "_lapack", lambda: SimpleNamespace(
        dsyevr=dsyevr, dsyevr_lwork=lapack.dsyevr_lwork))


# the two entries to the sector solve, at cutoff (2,2,2) with 8 states
_SOLVES = {
    "solve_spectrum": lambda: solve_spectrum(
        assemble_static(SI, BOX, D110, BasisCutoff(2, 2, 2), E0=0.1), 8),
    "reduce_model": lambda: reduce_model(SI, BOX, D110, BasisCutoff(2, 2, 2),
                                         E0=0.1, n_excited=3),
}


@pytest.mark.parametrize("pipeline", _SOLVES)
@pytest.mark.parametrize("change", [
    lambda e, w, m, isuppz, info: (e, w, m, isuppz, 1),
    lambda e, w, m, isuppz, info: (e, w, m - 1, isuppz, info)],
    ids=["info", "missing_states"])
def test_lapack_failure_raises_solver_error(change, pipeline, monkeypatch):
    """A dsyevr failure (info != 0) or a short subset is a typed error."""
    _patch_dsyevr(monkeypatch, change)
    with pytest.raises(numeric.SolverError, match="dsyevr"):
        _SOLVES[pipeline]()


@pytest.mark.parametrize("pipeline", _SOLVES)
def test_nan_eigenvectors_fail_the_residual_check(pipeline, monkeypatch):
    """NaN vectors give a NaN residual, which must fail the check rather
    than return NaN energies and vectors."""
    _patch_dsyevr(monkeypatch, lambda e, w, m, isuppz, info:
                  (e, np.full_like(w, np.nan), m, isuppz, info))
    with pytest.raises(numeric.SolverError, match="residual"):
        _SOLVES[pipeline]()


def test_lapack_loads_without_the_scipy_package_and_falls_back(tmp_path):
    """In a fresh process the first solve loads scipy's LAPACK extension
    alone, and a later import of scipy.linalg reuses it; when the extension
    file cannot be found, the solve goes through scipy.linalg.lapack
    instead and gives the same bits."""
    src = str(Path(numeric.__file__).resolve().parents[1])
    code = """\
import importlib.abc, importlib.machinery, sys
import numpy as np
from holebox import BasisCutoff, BoxGeometry, Orientation, get_material
from holebox.hamiltonian import assemble_static
from holebox.numeric import _lapack, solve_spectrum

class Missing(importlib.machinery.FileFinder):
    def find_spec(self, fullname, target=None):
        return None

if sys.argv[1] == "fallback":
    # the import system keeps its own reference to the class (importlib.abc,
    # imported above, registers it by name), so only the solver's lookup
    # of the extension file misses
    importlib.machinery.FileFinder = Missing
H0 = assemble_static(get_material("Ge"), BoxGeometry(40.0, 30.0, 10.0),
                     Orientation.DOT_100, BasisCutoff(3, 3, 3), E0=0.1)
spec = solve_spectrum(H0, 12)
np.save(sys.argv[2], np.column_stack([spec.energies, spec.vectors.T]))
print("scipy.linalg.lapack" in sys.modules, "scipy" in sys.modules)
dsyevr = _lapack().dsyevr
import scipy.linalg
print(scipy.linalg.lapack.dsyevr is dsyevr)
"""
    results = {}
    for mode in ("direct", "fallback"):
        out = tmp_path / f"{mode}.npy"
        res = subprocess.run([sys.executable, "-c", code, mode, str(out)],
                             cwd=src, capture_output=True, text=True,
                             check=True)
        results[mode] = res.stdout.split(), np.load(out)
    assert results["direct"][0] == ["False", "False", "True"]
    assert results["fallback"][0] == ["True", "True", "True"]
    assert np.array_equal(results["direct"][1], results["fallback"][1])


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
    H0 = assemble_static(material, BOX, orientation, cut, E0=E0, strain=strain)
    want = _phased_plus_block(H0)
    assert np.all(want.imag == 0.0)
    assert np.array_equal(numeric._plus_sector(H0)[2], want.real)


def test_sector_solve_rejects_complex_phased_block():
    """k_y = -i d/dy keeps the mirror but breaks time reversal, and its
    phased block is imaginary: the solver must refuse it, not drop it."""
    cut = BasisCutoff(2, 2, 2)
    # one Kronecker term: -i (d/dy on the y axis) times the spin identity
    k_y = (-1j, ((1.0, None, derivative_matrix(cut.N_y, BOX.L_y), None),),
           np.eye(4))
    H = (assemble_static(SI, BOX, D110, cut, E0=0.1)
         + HamiltonianMatrix(terms=(k_y,), cutoff=cut))
    assert H.hermiticity_residual() == 0.0
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


def test_scipy_sector_solve_holds_one_block():
    """dsyevr solves the block in place and it is freed before the vectors
    are built: at (8,8,5) the traced peak of solve_spectrum stays below one
    real n x n block (n = N/2) plus two N x n_states complex arrays."""
    # a first solve, so that loading the LAPACK module is not traced
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
    assert peak < 8 * (N // 2) ** 2 + 2 * 16 * N * n_states
