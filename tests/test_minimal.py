from dataclasses import replace
from math import hypot, pi, radians, sqrt

import numpy as np
import pytest
from pytest import approx

from holebox import (BoxGeometry, DegenerateQubitError, FieldConfig,
                     MaterialParams, NearDegeneracyError, Orientation,
                     StrainConfig, e0_max, e0_max_thin, electric_mixing,
                     get_material, light_hole_rabi, minimal_exact_model,
                     minimal_exact_qubit, minimal_exact_rabi, mixed_subbands,
                     qubit_coefficients,
                     rabi_linearized, rabi_thin_dot, renormalized_rabi,
                     strain_divergence_eps, strain_equal_mixing_eps,
                     strain_equivalent_height, strain_transition_eps,
                     subband_params)
from holebox.constants import CONST
from holebox.minimal import GRID_BLOCK
from holebox.sweeps import _optimal_direction, resolve_spec
from oracles import (direct_rabi_first_order, exact_qubit8,
                     well_separated_sample)

SI = get_material("Si")
BOX = BoxGeometry(40.0, 30.0, 10.0)
D110 = Orientation.DOT_110
# B in the y-z plane at 45 degrees: theta = 45, azimuth 90 measured from x
REF_FIELDS = FieldConfig(B=1.0, theta=radians(45), phi=radians(90),
                         E0=0.1, E_ac=0.03)


def test_subband_constants_against_plain_formulas():
    sp = subband_params(SI, BOX, D110)
    c = CONST.hbar2_over_2m0 * pi ** 2
    lx2, ly2, lz2 = 40.0 ** -2, 30.0 ** -2, 10.0 ** -2
    assert sp.P1 == approx(c * SI.gamma1 * (lx2 + ly2 + lz2), rel=1e-14)
    assert sp.Q1 == approx(c * SI.gamma2 * (lx2 + ly2 - 2 * lz2), rel=1e-14)
    assert sp.R1 == approx(-c * sqrt(3) * SI.gamma3 * (lx2 - ly2), rel=1e-14)
    assert sp.P2 == approx(c * SI.gamma1 * (lx2 + 4 * ly2 + lz2), rel=1e-14)
    # the 100 frame couples the subbands through gamma2 instead of gamma3
    sp100 = subband_params(SI, BOX, Orientation.DOT_100)
    assert sp100.R1 == approx(sp.R1 * SI.gamma2 / SI.gamma3, rel=1e-14)


def test_subband_energies_and_mixing():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m, g = well_separated_sample(rng)
        sp = subband_params(m, g, D110)
        m1, m2 = mixed_subbands(sp)
        for ms, (Q, R, P) in ((m1, (sp.Q1, sp.R1, sp.P1)),
                              (m2, (sp.Q2, sp.R2, sp.P2))):
            assert hypot(ms.h, ms.l) == approx(1.0, rel=1e-14)
            assert ms.E_minus == approx(P - hypot(Q, R), rel=1e-12)
            assert ms.E_plus == approx(P + hypot(Q, R), rel=1e-12)
            # (h, l) diagonalizes [[Q, R], [R, -Q]] with eigenvalue -|.|
            v = np.array([ms.h, ms.l])
            A = np.array([[Q, R], [R, -Q]])
            assert A @ v == approx(-hypot(Q, R) * v, abs=1e-10)


def test_mixing_handles_zero_coupling():
    # R = 0 keeps the heavy state pure regardless of the sign of Q
    flat = subband_params(SI, BoxGeometry(30, 30, 5), D110)
    m1, _ = mixed_subbands(flat)
    assert abs(m1.h) == approx(1.0) and m1.l == approx(0.0)


def test_electric_mixing_antisymmetry_and_thin_limit():
    sp = subband_params(SI, BOX, D110)
    ms = mixed_subbands(sp)
    mix = electric_mixing(ms, 0.1, BOX, material=SI)
    # swapping bra and ket flips the sign: lambda_{ab} = -lambda_{ba}, so
    # reproducing the four coefficients from raw matrix elements suffices
    lam = mix.Lambda
    m1, m2 = ms
    assert mix.c_2m_1m == approx(lam * (m1.h * m2.h + m1.l * m2.l)
                                 / (m1.E_minus - m2.E_minus), rel=1e-12)
    assert mix.c_2p_1m == approx(-lam * (m1.h * m2.l - m2.h * m1.l)
                                 / (m1.E_minus - m2.E_plus), rel=1e-12)
    assert mix.lambda_thin is not None
    # flattening the dot drives c_2m_1m toward the thin-dot closed form
    thin_box = BoxGeometry(400.0, 30.0, 0.5)
    thin = electric_mixing(mixed_subbands(subband_params(SI, thin_box, D110)),
                           0.1, thin_box, material=SI)
    assert thin.c_2m_1m == approx(thin.lambda_thin, rel=5e-3)


def test_lambda_thin_closed_form():
    mix = electric_mixing(mixed_subbands(subband_params(SI, BOX, D110)),
                          0.1, BOX, material=SI)
    want = -16 * CONST.e_scale * 0.1 * 30.0 ** 3 / (
        27 * pi ** 4 * CONST.hbar2_over_2m0 * (SI.gamma1 + SI.gamma2))
    assert mix.lambda_thin == approx(want, rel=1e-12)


def test_qubit_coefficients_normalization_and_larmor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m, g = well_separated_sample(rng)
        ms = mixed_subbands(subband_params(m, g, D110))
        theta, phi = rng.uniform(0, pi), rng.uniform(0, 2 * pi)
        qc = qubit_coefficients(ms, theta, phi, 1.0, m)
        assert abs(qc.alpha) ** 2 + abs(qc.beta) ** 2 == approx(1.0, rel=1e-12)
        s = sqrt((qc.g_x * np.sin(theta) * np.cos(phi)) ** 2
                 + (qc.g_y * np.sin(theta) * np.sin(phi)) ** 2
                 + (qc.g_z * np.cos(theta)) ** 2)
        assert qc.f_L == approx(CONST.mu_B * s / CONST.h_planck, rel=1e-12)


def test_exact_route_matches_perturbative_at_weak_field():
    weak = replace(REF_FIELDS, E0=1e-4)
    exact = minimal_exact_rabi(SI, BOX, D110, weak)
    lin = rabi_linearized(SI, BOX, D110, weak)
    assert exact == approx(lin, rel=1e-5)


def test_exact_larmor_matches_doublet_g_at_zero_field():
    fields = replace(REF_FIELDS, E0=0.0)
    _, f_L = minimal_exact_qubit(SI, BOX, D110, fields)
    ms = mixed_subbands(subband_params(SI, BOX, D110))
    qc = qubit_coefficients(ms, fields.theta, fields.phi, fields.B, SI)
    assert f_L == approx(qc.f_L, rel=1e-10)


def test_pi_sum_equals_direct_first_order():
    rng = np.random.default_rng(42)
    for _ in range(40):
        m, g = well_separated_sample(rng)
        f = FieldConfig(B=rng.uniform(0.2, 3), theta=rng.uniform(0, pi),
                        phi=rng.uniform(0, 2 * pi),
                        E0=rng.uniform(0.005, 0.3), E_ac=0.03)
        a = rabi_linearized(m, g, D110, f)
        b = direct_rabi_first_order(m, g, D110, f)
        assert a == approx(b, rel=1e-12, abs=1e-18)


def test_linearized_is_linear_in_drives():
    f1 = rabi_linearized(SI, BOX, D110, REF_FIELDS)
    f2 = rabi_linearized(SI, BOX, D110, replace(REF_FIELDS, E_ac=0.06))
    f3 = rabi_linearized(SI, BOX, D110, replace(REF_FIELDS, E0=0.2))
    assert f2 == approx(2 * f1, rel=1e-12)
    assert f3 == approx(2 * f1, rel=1e-12)
    assert rabi_linearized(SI, BOX, D110, replace(REF_FIELDS, B=0.0)) == 0.0
    assert rabi_linearized(SI, BOX, D110, replace(REF_FIELDS, E0=0.0)) == 0.0


def test_near_degenerate_subbands_raise():
    # a very wide dot squeezes the two y-subbands together until the
    # perturbative denominators dip below tolerance
    m = MaterialParams("t", 10.0, 1.0, 1.0, 1.0)
    g = BoxGeometry(500.0, 1.2e5, 500.0)
    ms = mixed_subbands(subband_params(m, g, D110))
    with pytest.raises(NearDegeneracyError, match="crossing"):
        electric_mixing(ms, 0.1, g, material=m)


def test_thin_dot_f2_ignores_azimuth():
    vals = [rabi_thin_dot(SI, BOX, D110, replace(REF_FIELDS, phi=radians(p)))
            for p in (0.0, 30.0, 90.0, 123.0)]
    assert vals[0] > 0
    assert all(v == vals[0] for v in vals)


def test_thin_dot_vanishes_for_in_plane_field():
    # proportional to cos(theta); radians(90) leaves a ~1e-17 remnant
    f = replace(REF_FIELDS, theta=radians(90))
    assert rabi_thin_dot(SI, BOX, D110, f) == approx(0.0, abs=1e-12)
    assert rabi_thin_dot(SI, BOX, D110, f, 4) == approx(0.0, abs=1e-12)


def test_thin_dot_square_dot_angular_factor_is_sin_cos():
    # L_x = L_y removes the out-of-plane correction, so G sin(theta)
    # collapses to |sin(theta)| and the cos factor cancels in ratios
    square = BoxGeometry(30.0, 30.0, 5.0)
    f45 = rabi_thin_dot(SI, square, D110, replace(REF_FIELDS, theta=radians(45)))
    f20 = rabi_thin_dot(SI, square, D110, replace(REF_FIELDS, theta=radians(20)))
    assert f20 / f45 == approx(np.sin(radians(20)) / np.sin(radians(45)),
                               rel=1e-12)


def test_thin_dot_orders_converge_to_linearized():
    # the expansion in L_z closes the gap to the full Pi-sum as the dot
    # flattens
    g = replace(BOX, L_z=2.0)
    lin = rabi_linearized(SI, g, D110, REF_FIELDS)
    f2 = rabi_thin_dot(SI, g, D110, REF_FIELDS, 2)
    f4 = rabi_thin_dot(SI, g, D110, REF_FIELDS, 4)
    assert abs(f4 - lin) < abs(f2 - lin)
    assert f4 == approx(lin, rel=5e-3)


def test_renormalized_tracks_saturation():
    e_max = e0_max(SI, BOX, D110)
    lin = rabi_linearized(SI, BOX, D110, REF_FIELDS)
    ren = renormalized_rabi(lin, 0.1, BOX, SI, e_max=e_max)
    assert ren < lin
    assert renormalized_rabi(lin, 0.0, BOX, SI, e_max=e_max) == approx(lin)
    factor = (1 + 0.5 * (0.1 / e_max) ** 2) ** -1.5
    assert ren == approx(lin * factor, rel=1e-12)


def test_e0_max_thin_value():
    # 27 pi^4 hb (gamma1 + gamma2) / (32 sqrt(2) e L_y^3) for L_y = 30 nm
    assert e0_max_thin(SI, BOX) == approx(0.3792, abs=2e-4)
    # the exact value approaches the flat-dot limit quadratically in L_z
    thin = e0_max_thin(SI, BOX)
    d1 = abs(e0_max(SI, replace(BOX, L_z=1.0), D110) - thin) / thin
    d2 = abs(e0_max(SI, replace(BOX, L_z=0.5), D110) - thin) / thin
    assert d1 < 5e-3
    assert d1 / d2 == approx(4.0, rel=0.15)


def test_light_hole_angular_maximum():
    best = (0.0, None)
    for t in np.linspace(0, pi / 2, 91):
        for p in np.linspace(0, pi / 2, 91):
            f = light_hole_rabi(SI, BOX, replace(REF_FIELDS, theta=t, phi=p))
            if f > best[0]:
                best = (f, (t, p))
    assert best[1] == approx((pi / 2, pi / 4), abs=1e-9)
    assert light_hole_rabi(SI, BOX, replace(REF_FIELDS, theta=0.0)) == 0.0


def test_strain_equivalence_identity():
    for eps in (-4e-4, -1e-4, 2e-4, 5e-4):
        lz2 = strain_equivalent_height(SI, 10.0, eps)
        assert lz2 > 0
        fr_eps = minimal_exact_rabi(SI, BOX, D110, REF_FIELDS,
                                    strain=StrainConfig(eps))
        fr_eq = minimal_exact_rabi(SI, replace(BOX, L_z=sqrt(lz2)), D110,
                                   REF_FIELDS)
        assert fr_eps == approx(abs(fr_eq), rel=1e-12)


def test_strain_characteristic_points():
    eps_div = strain_divergence_eps(SI, 10.0)
    assert 100 * eps_div == approx(0.0686, abs=1e-4)
    lz2_at_pole = strain_equivalent_height(SI, 10.0, eps_div)
    assert not np.isfinite(lz2_at_pole) or abs(lz2_at_pole) > 1e10
    eps_star = strain_transition_eps(SI, BOX)
    assert 100 * eps_star == approx(0.0626, abs=1e-4)
    # Q1 vanishes there: equal heavy and light weights in the lower subband
    sp = subband_params(SI, BOX, D110, strain=StrainConfig(eps_star))
    assert sp.Q1 == approx(0.0, abs=1e-12)


def test_strain_equal_mixing_dips_the_drive():
    eps0 = strain_equal_mixing_eps(SI, BOX, D110)
    m1, m2 = mixed_subbands(subband_params(SI, BOX, D110,
                                           strain=StrainConfig(eps0)))
    # both subbands share one mixing angle there (up to sign conventions)
    assert abs(m1.h * m2.l - m2.h * m1.l) < 1e-12
    near = minimal_exact_rabi(SI, BOX, D110, REF_FIELDS,
                              strain=StrainConfig(eps0))
    off = minimal_exact_rabi(SI, BOX, D110, REF_FIELDS,
                             strain=StrainConfig(eps0 * 0.9))
    assert near < 0.01 * off


def test_degenerate_direction_flagged():
    # with g_x g_y g_z of mixed signs some field direction closes the
    # splitting; kappa = 0 kills it everywhere
    ms = mixed_subbands(subband_params(SI, BOX, D110))
    qc = qubit_coefficients(ms, 0.3, 0.1, 1.0, replace(SI, kappa=0.0))
    assert qc.degenerate
    assert qc.f_L == 0.0


def test_minimal_exact_handles_zero_drive():
    f_R, f_L = minimal_exact_qubit(SI, BOX, D110,
                                   replace(REF_FIELDS, E_ac=0.0))
    assert f_R == 0.0 and f_L > 0.0


# ---------------------------------------------------------------------------
# the exact route batched over field directions

GE = get_material("Ge")
THETAS = np.radians(np.linspace(0, 90, 7))[:, None]
PHIS = np.radians(np.linspace(0, 180, 9))[None, :]


def _assert_close(got, want):
    # rel 1e-12 on the cells that carry a value, 1e-15 GHz on the zeros
    big = np.abs(want) > 1e-9
    assert np.all(np.abs(got - want)[big] <= 1e-12 * np.abs(want)[big])
    assert np.all(np.abs(got - want)[~big] <= 1e-15)


def test_batched_exact_route_matches_8x8_reference():
    cases = [(m, o, 0.1, None) for m in (SI, GE) for o in Orientation]
    cases += [(SI, o, 0.1, StrainConfig(eps)) for o in Orientation
              for eps in (5e-4, 1e-3)]
    # past the saturation field the subbands are strongly mixed
    cases += [(m, o, 3 * e0_max(m, BOX, o), None) for m in (SI, GE)
              for o in Orientation]
    for m, o, E0, strain in cases:
        f_R, f_L = minimal_exact_model(m, BOX, o, E0, strain=strain
                                       ).qubit_grid(1.0, THETAS, PHIS, 0.03)
        want = np.array([[exact_qubit8(m, BOX, o, FieldConfig(
            B=1.0, theta=t, phi=p, E0=E0, E_ac=0.03), strain)
            for p in PHIS.ravel()] for t in THETAS.ravel()])
        assert f_R.shape == f_L.shape == (7, 9)
        _assert_close(f_R, want[..., 0])
        _assert_close(f_L, want[..., 1])


def test_batched_exact_route_vanishes_at_zero_field():
    f_R, f_L = minimal_exact_model(SI, BOX, D110, 0.1).qubit_grid(
        0.0, THETAS, PHIS, 0.03)
    assert f_R.shape == (7, 9)
    assert not f_R.any() and not f_L.any()


def test_scalar_exact_route_is_one_batched_element():
    n = 65
    assert n * n > GRID_BLOCK      # the grid spans two blocks
    th = np.radians(np.linspace(0, 90, n))[:, None]
    ph = np.radians(np.linspace(0, 180, n))[None, :]
    strain = StrainConfig(5e-4)
    f_R, f_L = minimal_exact_model(SI, BOX, D110, 0.1, strain=strain
                                   ).qubit_grid(1.0, th, ph, 0.03)
    for i, j in ((0, 0), (3, 17), (40, 64), (63, 2), (64, 64)):
        fields = replace(REF_FIELDS, theta=float(th[i, 0]),
                         phi=float(ph[0, j]))
        assert minimal_exact_qubit(SI, BOX, D110, fields, strain=strain) \
            == (f_R[i, j], f_L[i, j])


@pytest.mark.parametrize("orientation", list(Orientation))
@pytest.mark.parametrize("eps", [0.0, 5e-4, 1e-3])
def test_exact_route_mirror_symmetry(orientation, eps):
    # x -> -x combined with time reversal flips b_x alone:
    # f_R(theta, phi) = f_R(theta, 180 - phi)
    th = np.radians(np.linspace(0, 90, 46))[:, None]
    ph = np.radians(np.linspace(0, 180, 91))[None, :]
    f_R, _ = minimal_exact_model(SI, BOX, orientation, 0.1,
                                 strain=StrainConfig(eps)
                                 ).qubit_grid(1.0, th, ph, 0.03)
    _assert_close(f_R[:, ::-1], f_R)


@pytest.mark.parametrize("orientation, eps", [
    (D110, 0.0), (D110, 7e-4), (D110, 1e-3), (Orientation.DOT_100, 5e-4)])
def test_strain_sweep_optimum(orientation, eps):
    # 7e-4 has two maxima 5e-5 apart in f_R and 30 degrees apart in phi;
    # at 1e-3 the optimum lies at theta = 90, where the mirror pair ties
    import scipy.optimize

    spec = replace(resolve_spec("strain-sweep"), orientation=orientation)
    strain = StrainConfig(eps)
    t_opt, p_opt = _optimal_direction(spec, strain)
    model = minimal_exact_model(SI, BOX, orientation, spec.fields.E0,
                                strain=strain)

    def f_R(t_deg, p_deg):
        return model.qubit_grid(1.0, np.radians(t_deg), np.radians(p_deg),
                                0.03)[0]

    assert 0.0 <= t_opt <= 90.0 and 0.0 <= p_opt <= 90.0
    assert round(t_opt, 3) == t_opt and round(p_opt, 3) == p_opt
    best = f_R(t_opt, p_opt)
    coarse = f_R(np.arange(0.0, 91.0, 10.0)[:, None],
                 np.arange(0.0, 181.0, 10.0)[None, :])
    assert best >= coarse.max()
    # reference: a dense 0.5-degree scan polished by Nelder-Mead
    t = np.arange(0.0, 90.25, 0.5)[:, None]
    p = np.arange(0.0, 180.25, 0.5)[None, :]
    dense = f_R(t, p)
    i, j = np.unravel_index(np.argmax(dense), dense.shape)
    res = scipy.optimize.minimize(
        lambda x: -float(f_R(*x)), x0=[t[i, 0], p[0, j]],
        method="Nelder-Mead", bounds=[(0, 90), (0, 180)],
        options={"xatol": 1e-7, "fatol": 1e-18, "maxiter": 2000})
    t_ref, p_ref = res.x[0], min(res.x[1], 180 - res.x[1])
    assert best >= -res.fun * (1 - 1e-9)
    assert abs(t_opt - t_ref) <= 2e-3 and abs(p_opt - p_ref) <= 2e-3
