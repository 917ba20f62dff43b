"""End-to-end acceptance checks.

Every test here pins one headline behavior at its stated tolerance and
wall-clock budget and emits a single summary line; run with

    pytest -v -s tests/test_acceptance.py

to see the lines as the criteria complete.
"""
from dataclasses import replace
from math import pi, radians, sqrt
import time

import numpy as np
from pytest import approx

from holebox import (BasisCutoff, BoxGeometry, FieldConfig, Orientation,
                     assemble_static, converged_rabi, e0_max, figures_of_merit,
                     get_material, minimal_exact_model, minimal_exact_qubit,
                     minimal_exact_rabi, mixed_subbands, rabi_linearized,
                     rabi_thin_dot, reduce_model, renormalized_rabi,
                     strain_equivalent_height, subband_params, StrainConfig,
                     assemble_zeeman, dipole_y, pair_doublets,
                     rabi_sum_over_states, solve_spectrum)
from oracles import (direct_rabi_first_order, hermiticity_residual,
                     light_hole_rabi, random_geometry, random_material,
                     strain_divergence_eps, strain_transition_eps,
                     well_separated_sample)

D110 = Orientation.DOT_110
SI = get_material("Si")
BOX = BoxGeometry(40.0, 30.0, 10.0)
# reference drive: B = 1 T along y+z, static tilt 0.1 mV/nm, 0.03 mV/nm ac
REF = FieldConfig(B=1.0, theta=radians(45), phi=radians(90), E0=0.1,
                  E_ac=0.03)


def _finish(label: str, budget_s: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, \
        f"{label}: {elapsed:.2f} s exceeded the {budget_s:.0f} s budget"
    print(f"acceptance {label}: PASS ({elapsed:.2f} s)")


# reference figures of merit, quoted at their printed precision: masses to
# three decimals, zeta columns to two decimals after the x100 scaling
_TABLE = {
    #        m_z     m_xy    z110   z100   z'110  z'100
    "Si":   (0.277,  0.216,  8.38,  1.96,  92.25, 21.63),
    "Ge":   (0.204,  0.057,  1.47,  1.10,  7.62,  5.68),
    "InP":  (0.606,  0.152,  3.17,  2.23,  21.58, 15.15),
    "GaAs": (0.377,  0.112,  2.07,  1.50,  15.43, 11.17),
    "InAs": (0.263,  0.035,  1.01,  0.92,  3.82,  3.48),
    "InSb": (0.244,  0.019,  0.58,  0.54,  2.00,  1.87),
}


def test_01_material_figures_of_merit():
    """Masses and Rabi figures of merit match the quoted six-material
    table within 1% or the table's own rounding, whichever is looser."""
    t0 = time.perf_counter()
    for name, (m_z, m_xy, z110, z100, zp110, zp100) in _TABLE.items():
        fom = figures_of_merit(get_material(name))
        got = (fom.m_z, fom.m_xy, 100 * fom.zeta_110, 100 * fom.zeta_100,
               100 * fom.zeta_prime_110, 100 * fom.zeta_prime_100)
        ulps = (5e-4, 5e-4, 5e-3, 5e-3, 5e-3, 5e-3)
        for g, want, ulp in zip(got, (m_z, m_xy, z110, z100, zp110, zp100),
                                ulps):
            tol = max(0.01 * abs(want), ulp)
            assert abs(g - want) <= tol, \
                f"{name}: {g} vs {want} (tol {tol})"
    _finish("01 material-figures", 1.0, t0)


def test_02_minimal_spectrum_closed_form():
    """The assembled two-subband Hamiltonian reproduces the closed-form
    doublet energies to 1e-10 relative over 100 random samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    cut = BasisCutoff(1, 2, 1)
    for _ in range(100):
        m = random_material(rng)
        g = random_geometry(rng)
        H = assemble_static(m, g, D110, cut, E0=0.0)
        got = np.linalg.eigvalsh(H.matrix)
        m1, m2 = mixed_subbands(subband_params(m, g, D110))
        want = np.sort(np.repeat([m1.E_minus, m1.E_plus,
                                  m2.E_minus, m2.E_plus], 2))
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10
    _finish("02 minimal-spectrum", 5.0, t0)


def test_03_channel_sum_equals_direct_perturbation():
    """The channel-resolved linear Rabi formula equals brute-force
    first-order perturbation theory to 1e-12 relative, 100 samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        m, g = well_separated_sample(rng)
        f = FieldConfig(B=rng.uniform(0.2, 3.0), theta=rng.uniform(0, pi),
                        phi=rng.uniform(0, 2 * pi),
                        E0=rng.uniform(0.005, 0.3), E_ac=0.03)
        a = rabi_linearized(m, g, D110, f)
        b = direct_rabi_first_order(m, g, D110, f)
        if b == 0.0:
            assert a == 0.0
            continue
        worst = max(worst, abs(a - b) / b)
    assert worst < 1e-12, f"worst relative deviation {worst:.3e}"
    _finish("03 perturbative-equivalence", 10.0, t0)


def test_04_static_field_dependence():
    """Reference dot, B = 1 T along y+z: the linear slope matches the
    exact slope within 1%; the exact curve has a single interior maximum
    on E0 in [0, 1] mV/nm; the saturation-renormalized curve tracks the
    exact one within 15%."""
    t0 = time.perf_counter()
    slope_lin = rabi_linearized(SI, BOX, D110, replace(REF, E0=1.0))
    slope_exact = minimal_exact_rabi(SI, BOX, D110,
                                     replace(REF, E0=1e-3)) / 1e-3
    assert slope_exact == approx(slope_lin, rel=0.01)

    grid = np.linspace(0.0, 1.0, 101)
    exact = np.array([minimal_exact_rabi(SI, BOX, D110,
                                         replace(REF, E0=float(e)))
                      for e in grid])
    k = int(np.argmax(exact))
    assert 0 < k < len(grid) - 1, "maximum sits on the boundary"
    steps = np.diff(exact)
    assert np.all(steps[:k] > 0) and np.all(steps[k:] < 0), \
        "more than one extremum"

    e_m = e0_max(SI, BOX, D110)
    ren = np.array([renormalized_rabi(slope_lin * float(e), float(e), BOX, SI,
                                      orientation=D110, e_max=e_m)
                    for e in grid])
    mask = exact > 0
    worst = np.max(np.abs(ren[mask] - exact[mask]) / exact[mask])
    assert worst < 0.15, f"renormalized curve off by {worst:.1%}"
    _finish("04 field-dependence", 30.0, t0)


def test_05_height_expansion_hierarchy():
    """For L_z = 1..10 nm the quadratic, quartic and full linear-response
    frequencies obey f2 <= f4, f4 >= f_inf, f4/f_inf in [1.0, 1.3]."""
    t0 = time.perf_counter()
    for lz in range(1, 11):
        g = replace(BOX, L_z=float(lz))
        f2 = rabi_thin_dot(SI, g, D110, REF, 2)
        f4 = rabi_thin_dot(SI, g, D110, REF, 4)
        fi = rabi_linearized(SI, g, D110, REF)
        assert f2 <= f4, f"L_z = {lz}: f2 > f4"
        assert f4 >= fi, f"L_z = {lz}: f4 < f_inf"
        assert 1.0 <= f4 / fi <= 1.3, f"L_z = {lz}: ratio {f4 / fi:.4f}"
    _finish("05 height-hierarchy", 30.0, t0)


def test_06_kramers_pairing_and_hermiticity():
    """Cutoff (6,6,5), B = 0, E0 = 0.1 mV/nm: every level pairs below
    1e-8 meV and the assembled matrix is Hermitian to 1e-12 relative."""
    t0 = time.perf_counter()
    H = assemble_static(SI, BOX, D110, BasisCutoff(6, 6, 5), E0=0.1)
    assert hermiticity_residual(H) < 1e-12
    e = np.linalg.eigvalsh(H.matrix)
    gaps = e[1::2] - e[0::2]
    assert np.max(np.abs(gaps)) < 1e-8, \
        f"worst Kramers split {np.max(np.abs(gaps)):.3e} meV"
    _finish("06 kramers-hermiticity", 120.0, t0)


def test_07_numeric_pipeline_cross_check():
    """The generic numeric pipeline restricted to the two-subband basis
    (cutoff (1,2,1), Zeeman only) reproduces the closed 8x8 route to
    1e-10 relative over 50 random samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(50):
        m, g = well_separated_sample(rng)
        f = FieldConfig(B=rng.uniform(0.2, 3.0), theta=rng.uniform(0, pi),
                        phi=rng.uniform(0, 2 * pi),
                        E0=rng.uniform(0.01, 0.4), E_ac=0.03)
        want = minimal_exact_rabi(m, g, D110, f)
        got = converged_rabi(m, g, D110, f, BasisCutoff(1, 2, 1),
                             include_paramagnetic=False, n_excited=3)
        assert got.f_R == approx(want, rel=1e-10, abs=1e-15)
    _finish("07 cross-tier", 60.0, t0)


def test_08_orbital_magnetic_sign():
    """At cutoff (6,6,5) on the reference dot with B along y+z, the
    orbital magnetic coupling speeds the drive up in Si and slows it
    down in Ge."""
    t0 = time.perf_counter()
    cut = BasisCutoff(6, 6, 5)
    for name, expect_up in (("Si", True), ("Ge", False)):
        m = get_material(name)
        off = converged_rabi(m, BOX, D110, REF, cut,
                             include_paramagnetic=False)
        on = converged_rabi(m, BOX, D110, REF, cut,
                            include_paramagnetic=True)
        if expect_up:
            assert on.f_R > off.f_R, f"{name}: expected an increase"
        else:
            assert on.f_R < off.f_R, f"{name}: expected a decrease"
    _finish("08 orbital-magnetic-sign", 300.0, t0)


def test_09_strain_equivalence():
    """Biaxial strain acts like a change of dot height: frequencies agree
    to 1e-10 on 20 strain points, and the divergence and heavy-light
    transition strains sit at their closed-form positions."""
    t0 = time.perf_counter()
    checked = 0
    for eps in np.linspace(-5e-4, 6.5e-4, 24):
        lz2 = strain_equivalent_height(SI, BOX.L_z, float(eps))
        if not (0.0 < lz2 < np.inf) or checked >= 20:
            continue
        fr = minimal_exact_rabi(SI, BOX, D110, REF,
                                strain=StrainConfig(float(eps)))
        fr_eq = minimal_exact_rabi(SI, replace(BOX, L_z=sqrt(lz2)), D110, REF)
        assert fr == approx(abs(fr_eq), rel=1e-10)
        checked += 1
    assert checked == 20

    eps_div = strain_divergence_eps(SI, BOX.L_z)
    assert eps_div == approx(0.000686, rel=0.005)
    eps_star = strain_transition_eps(SI, BOX)
    assert eps_star == approx(0.000625, rel=0.02)
    _finish("09 strain-equivalence", 120.0, t0)


def test_10_angular_anisotropy():
    """Angular structure: the flat-dot leading order ignores azimuth and
    dies for in-plane B when L_x != L_y; the light-hole response peaks at
    (90, 45) degrees; the converged map prefers the tilted field."""
    t0 = time.perf_counter()
    f2_ref = rabi_thin_dot(SI, BOX, D110, REF, 2)
    for p in np.linspace(0.0, 2 * pi, 25):
        assert rabi_thin_dot(SI, BOX, D110, replace(REF, phi=float(p)), 2) \
            == f2_ref
    f2_inplane = rabi_thin_dot(SI, BOX, D110, replace(REF, theta=pi / 2), 2)
    assert f2_inplane < 1e-12 * f2_ref

    best, best_at = -1.0, None
    for th in np.linspace(0.0, pi / 2, 91):
        for ph in np.linspace(0.0, pi / 2, 91):
            v = light_hole_rabi(SI, BOX, replace(REF, theta=float(th),
                                                 phi=float(ph)))
            if v > best:
                best, best_at = v, (th, ph)
    assert best_at == approx((pi / 2, pi / 4), abs=1e-9)

    red = reduce_model(SI, BOX, D110, BasisCutoff(6, 6, 5), E0=REF.E0)
    thetas = np.linspace(0.0, pi / 2, 46)
    phis = np.linspace(0.0, pi, 91)
    grid = np.empty((46, 91))
    for i, th in enumerate(thetas):
        for j, ph in enumerate(phis):
            grid[i, j] = red.rabi(REF.B, float(th), float(ph), REF.E_ac).f_R
    assert np.all(np.isfinite(grid))
    in_plane = red.rabi(REF.B, pi / 2, 0.0, REF.E_ac).f_R
    tilted = red.rabi(REF.B, pi / 4, 0.0, REF.E_ac).f_R
    assert in_plane < tilted
    _finish("10 angular-anisotropy", 600.0, t0)


def test_11_pseudospin_gauge_invariance():
    """Larmor and Rabi frequencies are invariant to 1e-10 under random
    unitaries inside each Kramers doublet, 20 trials."""
    t0 = time.perf_counter()
    cut = BasisCutoff(2, 2, 2)
    H0 = assemble_static(SI, BOX, D110, cut, E0=0.1)
    doublets = pair_doublets(solve_spectrum(H0, 16))
    HZ = assemble_zeeman(SI, REF.B, REF.theta, REF.phi, cut)
    Y = dipole_y(BOX, cut)
    ref = rabi_sum_over_states(doublets, HZ, Y, REF.E_ac, n_excited=7)
    rng = np.random.default_rng(404)
    for _ in range(20):
        rotated = []
        for d in doublets:
            Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            Q, R = np.linalg.qr(Z)
            U = Q * (np.diag(R) / np.abs(np.diag(R)))
            rotated.append(type(d)(
                E=d.E,
                v_up=U[0, 0] * d.v_up + U[1, 0] * d.v_down,
                v_down=U[0, 1] * d.v_up + U[1, 1] * d.v_down,
                index=d.index))
        got = rabi_sum_over_states(rotated, HZ, Y, REF.E_ac, n_excited=7)
        assert got.f_R == approx(ref.f_R, rel=1e-10)
        assert got.f_L == approx(ref.f_L, rel=1e-10)
    _finish("11 pseudospin-gauge", 60.0, t0)


# Prototype ratios at the best direction of each dot, in the order Si
# 110/100, Ge 110/100, Si/Ge [110], Si/Ge [100]:
#   minimal      6.11  1.53   5.56  1.39
#   Zeeman-only  7.26  1.81   4.88  1.22
#   full         3.98  1.45  14.8   5.41
# The bounds below sit under the lowest entry of each kind in this table.
_MIN_ORIENTATION_GAIN = 1.3   # [110] over [100], same material
_MIN_SI_OVER_GE = 1.1         # Si over Ge, same orientation


def test_12_best_direction_headline_claims():
    """At each dot's best field direction, on the minimal route and both
    converged tiers at cutoff (8,8,5): [110] beats [100] for Si and for Ge,
    and Si beats Ge in each orientation. On the converged tiers the best
    direction also tops a 2-degree (theta, phi) grid."""
    from holebox.gmatrix import (best_direction as _best_direction,
                                 diagonal, frequencies, qubit)

    t0 = time.perf_counter()
    B, E_ac, n_excited = REF.B, REF.E_ac, 40
    thetas, phis = zip(*((radians(t), radians(p))
                         for t in range(0, 91, 2) for p in range(0, 181, 2)))
    routes = {"minimal": {}, "converged_zeeman": {}, "converged_full": {}}
    for name in ("Si", "Ge"):
        m = get_material(name)
        for o in Orientation:
            model = minimal_exact_model(m, BOX, o, REF.E0)
            t, p = _best_direction(model.g, model.p)
            routes["minimal"][name, o] = qubit(model.g, model.p, B,
                                               radians(t), radians(p), E_ac)[0]
            red = reduce_model(m, BOX, o, BasisCutoff(8, 8, 5), E0=REF.E0,
                               n_excited=n_excited)
            for tier, flag in (("converged_zeeman", False),
                               ("converged_full", True)):
                pair = diagonal(*red.g_matrices(flag, n_excited))
                t, p = _best_direction(*pair)
                (best,), _ = frequencies(*pair, B, [radians(t)], [radians(p)],
                                         E_ac)
                grid = frequencies(*pair, B, thetas, phis, E_ac)[0]
                assert best >= np.nanmax(grid), (tier, name, o)
                routes[tier][name, o] = best
    D100 = Orientation.DOT_100
    for route, f in routes.items():
        for name in ("Si", "Ge"):
            assert f[name, D110] >= _MIN_ORIENTATION_GAIN * f[name, D100], \
                (route, name)
        for o in Orientation:
            assert f["Si", o] >= _MIN_SI_OVER_GE * f["Ge", o], (route, o)
    _finish("12 best-direction-claims", 60.0, t0)
