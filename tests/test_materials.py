import pytest
from pytest import approx

from holebox import (MaterialError, MaterialParams, builtin_materials,
                     figures_of_merit, get_material, load_materials)
from holebox.materials import parse_materials


def test_builtin_roster():
    names = [m.name for m in builtin_materials()]
    assert names == ["Si", "Ge", "InP", "GaAs", "InAs", "InSb"]


def test_get_material_unknown():
    with pytest.raises(MaterialError, match="unknown material"):
        get_material("Diamond")


def test_validation_rejects_unphysical_parameters():
    with pytest.raises(MaterialError, match="gamma2 > 0"):
        MaterialParams("bad", 5.0, 0.0, 1.0, 1.0)
    with pytest.raises(MaterialError, match="gamma1 > 2"):
        MaterialParams("bad", 2.0, 1.5, 1.0, 1.0)
    with pytest.raises(MaterialError, match="gamma3 > 0"):
        MaterialParams("bad", 5.0, 1.0, -0.2, 1.0)
    with pytest.raises(MaterialError, match="name"):
        MaterialParams("", 5.0, 1.0, 1.0, 1.0)


def test_figures_of_merit_internal_relations():
    for m in builtin_materials():
        fom = figures_of_merit(m)
        gp = m.gamma1 + m.gamma2
        assert fom.zeta_prime_110 == approx(fom.zeta_110 * gp / abs(m.kappa))
        assert fom.zeta_prime_100 == approx(fom.zeta_100 * gp / abs(m.kappa))
        assert fom.zeta_110 / fom.zeta_100 == approx(m.gamma3 / m.gamma2)
        assert fom.m_xy == approx(1.0 / gp)
        assert fom.m_z == approx(1.0 / (m.gamma1 - 2 * m.gamma2))


def test_figures_of_merit_si_pinned():
    # regression pin at full precision; the 1% table comparison lives in
    # the acceptance suite
    fom = figures_of_merit(get_material("Si"))
    assert fom.zeta_110 == approx(0.08378807915724227, rel=1e-12)
    assert fom.zeta_100 == approx(0.01964326337088875, rel=1e-12)
    assert fom.zeta_prime_110 == approx(0.9224668524359248, rel=1e-12)
    assert fom.zeta_prime_100 == approx(0.21626297577854668, rel=1e-12)
    assert fom.m_z == approx(0.2772387025228722, rel=1e-12)
    assert fom.m_xy == approx(0.21626297577854668, rel=1e-12)


def test_strain_parameters_presence():
    si = get_material("Si")
    assert si.has_strain_params
    si.require_strain()
    ge = get_material("Ge")
    assert not ge.has_strain_params
    with pytest.raises(MaterialError, match="no strain parameters"):
        ge.require_strain()


def test_parse_rejects_malformed_input():
    with pytest.raises(MaterialError, match="unknown field"):
        parse_materials("[material.X]\ngamma1 = 9\ngamma2 = 1\ngamma3 = 1\n"
                        "kappa = 1\ncolor = red\n")
    with pytest.raises(MaterialError, match="missing"):
        parse_materials("[material.X]\ngamma1 = 9\n")
    with pytest.raises(MaterialError, match="not a number"):
        parse_materials("[material.X]\ngamma1 = nine\ngamma2 = 1\n"
                        "gamma3 = 1\nkappa = 1\n")
    with pytest.raises(MaterialError, match="already exists|duplicate"):
        parse_materials("[material.X]\ngamma1 = 9\ngamma2 = 1\ngamma3 = 1\n"
                        "kappa = 1\n[material.X]\ngamma1 = 9\ngamma2 = 1\n"
                        "gamma3 = 1\nkappa = 1\n")
    with pytest.raises(MaterialError, match="does not match"):
        parse_materials("[notes]\nauthor = someone\n")


def test_parse_minimal_section():
    text = "[material.X]\ngamma1 = 9\ngamma2 = 1\ngamma3 = 1.2\nkappa = -0.5\n"
    (mat,) = parse_materials(text)
    assert mat.name == "X"
    assert mat.kappa == approx(-0.5)
    assert not mat.has_strain_params


def test_load_materials_missing_file(tmp_path):
    with pytest.raises(MaterialError, match="cannot read"):
        load_materials(tmp_path / "nope.cfg")


def test_load_materials_from_file(tmp_path):
    p = tmp_path / "mats.cfg"
    p.write_text("[material.Y]\ngamma1 = 10\ngamma2 = 2\ngamma3 = 3\n"
                 "kappa = 1.5\nE_g = 0.9\nDelta_SO = 0.3\nnu = 0.8\n"
                 "b_v = -1.9\n", encoding="utf-8")
    (mat,) = load_materials(p)
    assert mat.name == "Y"
    assert mat.has_strain_params
    assert mat.nu == approx(0.8)
    assert (mat.E_g, mat.Delta_SO) == (0.9, 0.3)
