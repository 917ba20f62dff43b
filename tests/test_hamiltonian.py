import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

import holebox.hamiltonian as hamiltonian
from holebox import (AssemblyError, BasisCutoff, BoxGeometry, FieldConfig,
                     HamiltonianMatrix, Orientation, StrainConfig,
                     assemble_paramagnetic, assemble_static, assemble_zeeman,
                     bhat_from_angles, dipole_y, get_material, mixed_subbands,
                     subband_params)
from holebox.basis import (derivative_matrix, ksquared_matrix,
                           posderiv_matrix, position_matrix)
from holebox.constants import CONST
from holebox.hamiltonian import _spin_weights, _strain, zeeman_spin_block
from oracles import hermiticity_residual, random_material

SI = get_material("Si")
GE = get_material("Ge")
BOX = BoxGeometry(40.0, 30.0, 10.0)
D110 = Orientation.DOT_110


def test_bhat_from_angles():
    assert bhat_from_angles(0.0, 0.0) == approx((0.0, 0.0, 1.0))
    b = bhat_from_angles(np.pi / 3, 1.1)
    assert np.linalg.norm(b) == approx(1.0, rel=1e-15)
    assert b[0] == approx(np.sin(np.pi / 3) * np.cos(1.1))


def test_field_config_rejects_negative_b():
    with pytest.raises(ValueError):
        FieldConfig(B=-0.5)


def test_geometry_rejects_nonpositive_lengths():
    with pytest.raises(ValueError):
        BoxGeometry(0.0, 10.0, 10.0)


def test_zeeman_spin_block_along_z():
    h = zeeman_spin_block(-0.42, 1.0, (0.0, 0.0, 1.0))
    mu_b = 0.057883817982
    assert np.allclose(h, -0.42 * mu_b * np.diag([3.0, 1.0, -1.0, -3.0]),
                       atol=1e-15)


def test_assembled_terms_are_hermitian():
    rng = np.random.default_rng(3)
    cut = BasisCutoff(3, 3, 2)
    for _ in range(5):
        m = random_material(rng)
        m_strained = replace(m, nu=0.7, b_v=-2.0)
        g = BoxGeometry(*(float(x) for x in rng.uniform(8, 40, 3)))
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        H = (assemble_static(m_strained, g, Orientation.DOT_110, cut, E0=0.2,
                             strain=StrainConfig(3e-4))
             + assemble_zeeman(m, 1.3, theta, phi, cut)
             + assemble_paramagnetic(m, g, 1.3, theta, phi, cut,
                                     orientation=D110))
        assert hermiticity_residual(H) < 1e-12


def test_lk_positive_definite_spectrum():
    # positive (electron-like) hole dispersion: confinement energies > 0
    H = assemble_static(SI, BOX, D110, BasisCutoff(3, 3, 3))
    e = np.linalg.eigvalsh(H.matrix)
    assert e[0] > 0


@pytest.mark.parametrize("orientation", [Orientation.DOT_110,
                                         Orientation.DOT_100])
def test_minimal_cutoff_reduces_to_subband_theory(orientation):
    """At cutoff (1,2,1) the zero-field spectrum is the four doublets of
    the two lowest y-subbands."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_material(rng)
        g = BoxGeometry(*(float(x) for x in rng.uniform(8, 50, 3)))
        H = assemble_static(m, g, orientation, BasisCutoff(1, 2, 1), E0=0.0)
        got = np.linalg.eigvalsh(H.matrix)
        m1, m2 = mixed_subbands(subband_params(m, g, orientation))
        want = np.sort(np.repeat([m1.E_minus, m1.E_plus,
                                  m2.E_minus, m2.E_plus], 2))
        assert got == approx(want, rel=1e-12)


def test_orientations_agree_when_gammas_equal():
    from holebox import MaterialParams
    iso = MaterialParams("iso", 10.0, 2.0, 2.0, 1.4)
    cut = BasisCutoff(2, 2, 2)
    h110 = assemble_static(iso, BOX, Orientation.DOT_110, cut).matrix
    h100 = assemble_static(iso, BOX, Orientation.DOT_100, cut).matrix
    assert np.allclose(h110, h100, atol=1e-14)


def test_orientations_differ_when_anisotropic():
    cut = BasisCutoff(2, 2, 2)
    h110 = assemble_static(SI, BOX, Orientation.DOT_110, cut).matrix
    h100 = assemble_static(SI, BOX, Orientation.DOT_100, cut).matrix
    assert not np.allclose(h110, h100, atol=1e-10)


def test_kramers_degeneracy_with_electric_field():
    # time reversal survives E0 and strain; cutoff and tolerance follow the
    # stated invariant
    H = assemble_static(SI, BOX, Orientation.DOT_110, BasisCutoff(6, 6, 6),
                        E0=0.15, strain=StrainConfig(2e-4))
    e = np.linalg.eigvalsh(H.matrix)
    gaps = e[1::2] - e[0::2]
    assert np.max(np.abs(gaps)) < 1e-9


def test_electric_term_dipole_anchor():
    # <1|y|2> = -16 L_y / 9 pi^2, so at E0 = 0.1 mV/nm and L_y = 30 nm the
    # intersubband element is 0.5404 meV
    cut = BasisCutoff(1, 2, 1)
    H = (assemble_static(SI, BOX, D110, cut, E0=0.1).matrix
         - assemble_static(SI, BOX, D110, cut).matrix)
    val = H[0, 4]
    assert val == approx(0.1 * 16 * 30 / (9 * np.pi ** 2), rel=1e-12)
    assert val == approx(0.54038, abs=1e-5)
    assert np.count_nonzero(H) == 8


def test_dipole_y_is_block_structure_of_position():
    Y = dipole_y(BOX, BasisCutoff(1, 2, 1)).matrix
    assert Y[0, 4] == approx(-16 * 30 / (9 * np.pi ** 2))
    assert np.allclose(Y, Y.conj().T)


def test_strain_term_diagonal_shifts():
    # Si at eps = 0.1%: heavy slots rise by 3.717 meV, light slots drop
    cut = BasisCutoff(1, 1, 1)
    H = (assemble_static(SI, BOX, D110, cut, strain=StrainConfig(1e-3)).matrix
         - assemble_static(SI, BOX, D110, cut).matrix)
    assert np.allclose(np.diag(H).real,
                       [3.717, -3.717, -3.717, 3.717], atol=1e-12)
    assert np.count_nonzero(H - np.diag(np.diag(H))) == 0


def test_strain_requires_parameters():
    from holebox import MaterialError
    with pytest.raises(MaterialError):
        assemble_static(GE, BOX, D110, BasisCutoff(1, 1, 1),
                        strain=StrainConfig(1e-3))


def test_paramagnetic_vanishes_on_minimal_basis():
    H = assemble_paramagnetic(SI, BOX, 1.0, 0.7, 0.3, BasisCutoff(1, 2, 1),
                              orientation=D110)
    assert np.max(np.abs(H.matrix)) == 0.0


def test_paramagnetic_linear_in_b():
    cut = BasisCutoff(2, 2, 2)
    h1 = assemble_paramagnetic(SI, BOX, 1.0, 0.7, 0.3, cut,
                               orientation=D110).matrix
    h2 = assemble_paramagnetic(SI, BOX, 2.0, 0.7, 0.3, cut,
                               orientation=D110).matrix
    assert np.allclose(h2, 2 * h1, atol=1e-14)


def test_cubic_frame_spectrum_isotropy():
    """In the [100] frame a cubic dot cannot tell B along x, y or z apart.

    This exercises every magnetic channel (Zeeman and all six orbital
    couplings) against an exact symmetry."""
    m = get_material("GaAs")
    g = BoxGeometry(15.0, 15.0, 15.0)
    cut = BasisCutoff(3, 3, 3)
    ori = Orientation.DOT_100
    H0 = assemble_static(m, g, ori, cut, E0=0.0)
    spectra = []
    for theta, phi in ((0.0, 0.0), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)):
        H = (H0 + assemble_zeeman(m, 1.0, theta, phi, cut)
             + assemble_paramagnetic(m, g, 1.0, theta, phi, cut,
                                     orientation=ori))
        spectra.append(np.linalg.eigvalsh(H.matrix))
    assert spectra[1] == approx(spectra[0], abs=1e-9)
    assert spectra[2] == approx(spectra[0], abs=1e-9)


_APPLY_CUT = BasisCutoff(3, 4, 2)     # non-cubic, so a mixed-up axis fails
_APPLY_CASES = {
    **{f"static_{o.value}": (lambda o=o: assemble_static(
        SI, BOX, o, _APPLY_CUT, E0=0.15, strain=StrainConfig(2e-4)))
       for o in Orientation},
    "zeeman": lambda: assemble_zeeman(SI, 1.3, 0.7, 0.4, _APPLY_CUT),
    **{f"paramagnetic_{o.value}": (lambda o=o: assemble_paramagnetic(
        SI, BOX, 1.3, 0.7, 0.4, _APPLY_CUT, orientation=o))
       for o in Orientation},
    "dipole": lambda: dipole_y(BOX, _APPLY_CUT),
}


@pytest.mark.parametrize("case", sorted(_APPLY_CASES))
def test_kronecker_apply_matches_summed_operator(case, monkeypatch):
    """H @ V, applied factor by factor, equals the summed dense matrix
    times V, for a block, for a block taken in several passes, and for a
    single vector."""
    H = _APPLY_CASES[case]()
    rng = np.random.default_rng(7)
    V = (rng.standard_normal((H.dimension, 3))
         + 1j * rng.standard_normal((H.dimension, 3)))
    want = H.matrix @ V
    scale = np.max(np.abs(want))
    assert scale > 0
    got = H @ V
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    # two passes over the columns, the last one a single column
    monkeypatch.setattr(hamiltonian, "APPLY_COLUMNS", 2)
    assert np.max(np.abs(H @ V - want)) <= 1e-13 * scale
    one = H @ V[:, 1]
    assert one.shape == (H.dimension,)
    assert np.max(np.abs(one - want[:, 1])) <= 1e-13 * scale


def test_add_requires_matching_cutoffs():
    a = assemble_static(SI, BOX, D110, BasisCutoff(1, 2, 1))
    b = assemble_static(SI, BOX, D110, BasisCutoff(2, 2, 1))
    with pytest.raises(AssemblyError, match="cutoffs"):
        _ = a + b
    # same dimension, different cutoff
    c = assemble_static(SI, BOX, D110, BasisCutoff(2, 1, 1))
    with pytest.raises(AssemblyError, match="cutoffs"):
        _ = a + c


def test_add_sums_operators():
    cut = BasisCutoff(1, 2, 1)
    a = assemble_static(SI, BOX, D110, cut, E0=0.1)
    b = assemble_zeeman(SI, 1.0, 0.7, 0.3, cut)
    c = a + b
    assert c.cutoff == cut
    assert np.array_equal(c.matrix, a.matrix + b.matrix)


def test_dimension_guard():
    with pytest.raises(AssemblyError, match="dimension"):
        assemble_static(SI, BOX, D110, BasisCutoff(20, 20, 11))
    # the guard is part of the type: a directly built operator is refused
    with pytest.raises(AssemblyError, match="dimension 9216"):
        HamiltonianMatrix(terms=(), cutoff=BasisCutoff(16, 16, 9))


def test_dimension_guard_refuses_before_allocating():
    cut = BasisCutoff(16, 16, 9)            # N = 9216 > MAX_DIMENSION
    tracemalloc.start()
    try:
        with pytest.raises(AssemblyError, match=r"16 N\^2 bytes = 1\.36 GB"):
            assemble_static(SI, BOX, Orientation.DOT_110, cut, E0=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_assemblers_match_dense_kron_reference():
    """The per-term orbital factors, scattered into the spin slots and
    summed, equal the dense np.kron construction of every term exactly."""
    N = (3, 2, 2)
    cut = BasisCutoff(*N)
    L = (BOX.L_x, BOX.L_y, BOX.L_z)
    K = [ksquared_matrix(n, l) for n, l in zip(N, L)]
    D = [derivative_matrix(n, l) for n, l in zip(N, L)]
    X = [position_matrix(n, l) for n, l in zip(N, L)]
    Q = [posderiv_matrix(n) for n in N]

    def orb(x=None, y=None, z=None):
        x, y, z = (np.eye(n) if a is None else a for n, a in zip(N, (x, y, z)))
        return np.kron(z, np.kron(y, x))

    def channels(ops, weights, scale):
        return sum(scale(ch) * np.kron(o, weights[ch])
                   for ch, o in ops.items())

    kinetic = {"xx": orb(x=K[0]), "yy": orb(y=K[1]), "zz": orb(z=K[2]),
               "xy": -orb(x=D[0], y=D[1]), "xz": -orb(x=D[0], z=D[2]),
               "yz": -orb(y=D[1], z=D[2])}
    B, theta, phi = 1.3, 0.7, 0.4
    bx, by, bz = bhat_from_angles(theta, phi)
    orbital_magnetic = {
        "xx": by * orb(x=D[0], z=X[2]) - bz * orb(x=D[0], y=X[1]),
        "yy": bz * orb(x=X[0], y=D[1]) - bx * orb(y=D[1], z=X[2]),
        "zz": bx * orb(y=X[1], z=D[2]) - by * orb(x=X[0], z=D[2]),
        "xy": bz * (orb(x=Q[0]) - orb(y=Q[1]))
        - bx * orb(x=D[0], z=X[2]) + by * orb(y=D[1], z=X[2]),
        "xz": bx * orb(x=D[0], y=X[1])
        - by * (orb(x=Q[0]) - orb(z=Q[2])) - bz * orb(y=X[1], z=D[2]),
        "yz": bx * (orb(y=Q[1]) - orb(z=Q[2]))
        - by * orb(x=X[0], y=D[1]) + bz * orb(x=X[0], z=D[2]),
    }
    lk = {}
    for orientation in Orientation:
        w = _spin_weights(SI, orientation)
        lk[orientation] = channels(kinetic, w,
                                   lambda ch: CONST.hbar2_over_2m0)
        assert np.array_equal(
            assemble_static(SI, BOX, orientation, cut).matrix, lk[orientation])
        para = channels(orbital_magnetic, w, lambda ch: CONST.mu_B * B * (
            -1j if ch in ("xx", "yy", "zz") else -0.5j))
        assert np.array_equal(assemble_paramagnetic(
            SI, BOX, B, theta, phi, cut, orientation=orientation).matrix, para)

    dipole = np.kron(orb(y=X[1]), np.eye(4))
    assert np.array_equal(dipole_y(BOX, cut).matrix, dipole)
    electric = -CONST.e_scale * 0.2 * dipole
    assert np.array_equal(
        assemble_static(SI, BOX, Orientation.DOT_110, cut, E0=0.2).matrix,
        lk[Orientation.DOT_110] + electric)
    block = zeeman_spin_block(SI.kappa, B, bhat_from_angles(theta, phi))
    zeeman = np.kron(np.eye(cut.n_orbital), block)
    assert np.array_equal(assemble_zeeman(SI, B, theta, phi, cut).matrix,
                          zeeman)
    eps = StrainConfig(2e-4)
    shifts = _strain(SI, eps)
    strain = np.kron(np.eye(cut.n_orbital), shifts)
    assert np.array_equal(
        assemble_static(SI, BOX, Orientation.DOT_110, cut, strain=eps).matrix,
        lk[Orientation.DOT_110] + strain)
    static = assemble_static(SI, BOX, Orientation.DOT_110, cut, E0=0.2,
                             strain=eps)
    assert np.array_equal(static.matrix,
                          lk[Orientation.DOT_110] + electric + strain)


def _scatter_operators(cut):
    """Every assembler's operator at one cutoff: both static orientations
    with E0 and strain, Zeeman, both paramagnetic orientations, the dipole."""
    return ([assemble_static(SI, BOX, o, cut, E0=0.15,
                             strain=StrainConfig(2e-4)) for o in Orientation]
            + [assemble_zeeman(SI, 1.3, 0.7, 0.4, cut)]
            + [assemble_paramagnetic(SI, BOX, 1.3, 0.7, 0.4, cut,
                                     orientation=o) for o in Orientation]
            + [dipole_y(BOX, cut)])


def _dense_orbital_factor(product, cut):
    """A term's orbital factor w * z (x) y (x) x from np.kron of the
    per-axis tables (identities for None)."""
    w, *tables = product
    eyes = (np.eye(cut.N_x), np.eye(cut.N_y), np.eye(cut.N_z))
    x, y, z = (eye if t is None else t for eye, t in zip(eyes, tables))
    return w * np.kron(z, np.kron(y, x))


@pytest.mark.parametrize("cut", [BasisCutoff(3, 4, 2), BasisCutoff(4, 3, 5)])
def test_scatter_terms_yield_the_nonzeros_of_dense_kron(cut):
    """For every term, scatter_terms yields exactly the nonzero entries of
    its dense np.kron product, each once and bit for bit, with the term's
    own coefficient and spin block."""
    for H in _scatter_operators(cut):
        scattered = list(H.scatter_terms())
        assert len(scattered) == len(H.terms)
        for (coef, product, spin), (c, a, b, o, s) in zip(H.terms, scattered):
            assert c == coef and s is spin
            O = _dense_orbital_factor(product, cut)
            order = np.lexsort((b, a))
            rows, cols = np.nonzero(O)
            assert np.array_equal(a[order], rows)
            assert np.array_equal(b[order], cols)
            assert np.array_equal(o[order], O[rows, cols])


def test_terms_must_be_single_products_of_matching_tables():
    """A term is (coef, (w, x, y, z), spin): a spin block that is not 4x4,
    a table whose shape does not match the cutoff, and a term in a nested
    form ((w, x, y, z),) are refused where the operator is built."""
    cut = BasisCutoff(2, 3, 2)
    D_y = derivative_matrix(cut.N_y, BOX.L_y)
    with pytest.raises(ValueError, match="4x4"):
        HamiltonianMatrix(terms=((1.0, (1.0, None, D_y, None), np.eye(2)),),
                          cutoff=cut)
    with pytest.raises(ValueError, match=r"x factor has shape \(3, 3\)"):
        HamiltonianMatrix(terms=((1.0, (1.0, D_y, None, None), np.eye(4)),),
                          cutoff=cut)
    with pytest.raises(ValueError, match="one product"):
        HamiltonianMatrix(terms=((1.0, ((1.0, None, D_y, None),), np.eye(4)),),
                          cutoff=cut)


def test_scatter_terms_form_no_orbital_square_array():
    """At (10,10,6), n_orbital = 600: scattering every assembler's terms
    stays below one n_orbital x n_orbital float64 array (2.9 MB), so no
    dense orbital factor is formed."""
    cut = BasisCutoff(10, 10, 6)
    operators = _scatter_operators(cut)
    tracemalloc.start()
    try:
        for H in operators:
            for _ in H.scatter_terms():
                pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cut.n_orbital ** 2
