from math import radians
from pathlib import Path

import pytest
from pytest import approx

import holebox.sweeps as sweeps
from holebox import (BasisCutoff, NearDegeneracyError, Orientation,
                     PairingError)
from holebox.sweeps import (TIERS, ConfigError, resolve_spec, run_angle_map,
                            run_e0_sweep, run_lz_sweep, run_materials_table,
                            run_strain_sweep)


def _read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_defaults_describe_reference_scenario():
    spec = resolve_spec("e0-sweep")
    assert spec.material.name == "Si"
    assert (spec.geometry.L_x, spec.geometry.L_y, spec.geometry.L_z) == \
        (40.0, 30.0, 10.0)
    assert spec.orientation is Orientation.DOT_110
    assert spec.fields.B == 1.0
    assert spec.fields.theta == approx(radians(45))
    assert spec.fields.phi == approx(radians(90))
    assert spec.fields.E0 == approx(0.1)
    assert spec.fields.E_ac == approx(0.03)
    assert spec.cutoff == BasisCutoff(8, 8, 5)
    assert spec.tiers == ("minimal_exact", "linearized", "renormalized")
    assert len(spec.config_hash) == 12


def test_overrides_and_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[geometry]\nL_z = 4\n[fields]\nB = 2.0\n",
                   encoding="utf-8")
    spec = resolve_spec("lz-sweep", config_path=cfg,
                        overrides=["fields.B=0.5", "sweep.lz_count=3"])
    assert spec.geometry.L_z == 4.0
    assert spec.fields.B == 0.5          # --set wins over the file
    assert spec.grid["lz_count"] == 3


def test_resolve_rejects_unknown_settings(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[plotting]\ncolor = red\n", encoding="utf-8")
        resolve_spec("e0-sweep", config_path=cfg)
    with pytest.raises(ConfigError, match="unknown key"):
        cfg2 = tmp_path / "bad2.cfg"
        cfg2.write_text("[fields]\nB_field = 1\n", encoding="utf-8")
        resolve_spec("e0-sweep", config_path=cfg2)
    with pytest.raises(ConfigError, match="unknown setting"):
        resolve_spec("e0-sweep", overrides=["fields.nope=1"])
    with pytest.raises(ConfigError, match="section.key"):
        resolve_spec("e0-sweep", overrides=["B=1"])
    with pytest.raises(ConfigError, match="not found"):
        resolve_spec("e0-sweep", config_path=tmp_path / "missing.cfg")


def test_resolve_validates_values():
    with pytest.raises(ConfigError, match="not a number"):
        resolve_spec("e0-sweep", overrides=["fields.B=fast"])
    with pytest.raises(ConfigError, match="orientation"):
        resolve_spec("e0-sweep", overrides=["geometry.orientation=111"])
    with pytest.raises(ConfigError, match="three integers"):
        resolve_spec("e0-sweep", overrides=["solver.cutoff=4,4"])
    with pytest.raises(ConfigError, match="unknown material"):
        resolve_spec("e0-sweep", overrides=["material.name=Unobtanium"])
    with pytest.raises(ConfigError, match=">= 2"):
        resolve_spec("e0-sweep", overrides=["sweep.e0_count=1"])
    with pytest.raises(ConfigError, match="tier"):
        resolve_spec("e0-sweep", tiers="analytic2")


def test_materials_table_columns_and_empty(tmp_path):
    spec = resolve_spec("materials-table")
    out = run_materials_table(spec, tmp_path / "t.csv")
    meta, header, rows = _read_csv(out)
    assert meta[0] == "# holebox materials-table"
    assert header[0] == "material"
    assert [r[0] for r in rows] == ["Si", "Ge", "InP", "GaAs", "InAs", "InSb"]

    empty = resolve_spec("materials-table", overrides=["materials.names="])
    out2 = run_materials_table(empty, tmp_path / "empty.csv")
    meta2, header2, rows2 = _read_csv(out2)
    assert header2 == header and rows2 == []


def test_csv_output_is_byte_deterministic(tmp_path):
    spec = resolve_spec("lz-sweep", overrides=["sweep.lz_count=4"])
    a = run_lz_sweep(spec, tmp_path / "a.csv")
    b = run_lz_sweep(spec, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_sidecar_echoes_resolved_config(tmp_path):
    spec = resolve_spec("lz-sweep", overrides=["sweep.lz_count=3",
                                               "fields.B=2.5"])
    out = run_lz_sweep(spec, tmp_path / "s.csv")
    sidecar = out.parent / (out.name + ".cfg")
    text = sidecar.read_text(encoding="utf-8")
    assert text == spec.resolved_text
    assert "B = 2.5" in text
    assert f"# config-hash: {spec.config_hash}" in out.read_text("utf-8")


def test_e0_sweep_respects_tier_selection(tmp_path):
    spec = resolve_spec("e0-sweep", overrides=["sweep.e0_count=3"],
                        tiers="linearized")
    out = run_e0_sweep(spec, tmp_path / "e.csv")
    meta, header, rows = _read_csv(out)
    assert header == ["E0", "f_L", "f_R_linearized"]
    assert "# tiers: linearized" in meta
    assert len(rows) == 3
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][2]) == 0.0      # linear response vanishes at E0 = 0


def test_e0_sweep_tier_order_is_canonical(tmp_path):
    spec = resolve_spec("e0-sweep", overrides=["sweep.e0_count=2"],
                        tiers="renormalized,minimal_exact")
    out = run_e0_sweep(spec, tmp_path / "e2.csv")
    _, header, _ = _read_csv(out)
    assert header == ["E0", "f_L", "f_R_minimal_exact", "f_R_renormalized"]


def test_strain_sweep_marks_reference_and_absent_heights(tmp_path):
    spec = resolve_spec("strain-sweep",
                        overrides=["sweep.eps_count=5", "sweep.eps_max=0.001"])
    out = run_strain_sweep(spec, tmp_path / "st.csv")
    _, header, rows = _read_csv(out)
    ref_flags = [r[header.index("is_reference")] for r in rows]
    assert ref_flags.count("1") == 1
    eps_col = [float(r[0]) for r in rows]
    assert eps_col == sorted(eps_col)
    assert 0.0 in eps_col
    lz_col = [r[header.index("lz_eff")] for r in rows]
    assert "" in lz_col                  # past the divergence the height is gone
    assert lz_col[eps_col.index(0.0)] != ""


def test_strain_sweep_needs_strain_parameters():
    from holebox import MaterialError
    spec = resolve_spec("strain-sweep", overrides=["material.name=Ge",
                                                   "sweep.eps_count=2"])
    with pytest.raises(MaterialError):
        run_strain_sweep(spec, "/tmp/never-written.csv")


def test_material_file_extends_pool(tmp_path):
    mats = tmp_path / "extra.cfg"
    mats.write_text("[material.Zed]\ngamma1 = 9\ngamma2 = 1.5\ngamma3 = 2\n"
                    "kappa = 1.1\n", encoding="utf-8")
    spec = resolve_spec("e0-sweep",
                        overrides=[f"material.file={mats}",
                                   "material.name=Zed", "sweep.e0_count=2"])
    assert spec.material.name == "Zed"
    assert spec.material.gamma2 == approx(1.5)


def test_readme_tier_table_matches_tiers():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text("utf-8").split("### Result tiers")[1]
    rows = {}
    for line in section.split("\n\n")[1].splitlines()[2:]:
        name, _, commands, default = (c.strip() for c in line.strip("|").split("|"))
        rows[name.strip("`")] = (tuple(c.strip(" `") for c in commands.split(",")),
                                 default == "yes")
    assert list(rows) == list(TIERS)
    assert rows == {t: (tier.commands, tier.default) for t, tier in TIERS.items()}


def test_point_errors_empty_a_cell_or_a_converged_column(tmp_path,
                                                         monkeypatch):
    # a closed form that raises empties its cell; a converged model that
    # raises empties its whole column
    thin_dot = sweeps.rabi_thin_dot

    def flaky_thin_dot(material, geometry, orientation, fields, order):
        if fields.theta > 1.0:
            raise NearDegeneracyError("synthetic")
        return thin_dot(material, geometry, orientation, fields, order)

    class Unpairable:
        def rabi_grid(self, *args, **kwargs):
            raise PairingError("synthetic")

    monkeypatch.setattr(sweeps, "rabi_thin_dot", flaky_thin_dot)
    monkeypatch.setattr(sweeps, "reduce_model", lambda *a, **k: Unpairable())
    spec = resolve_spec("angle-map", tiers="analytic2,converged_full",
                        overrides=["sweep.theta_count=3", "sweep.phi_count=2"])
    _, header, rows = _read_csv(run_angle_map(spec, tmp_path / "m.csv"))
    assert header == ["theta_deg", "phi_deg", "f_R_analytic2",
                      "f_R_converged_full"]
    assert [row[2] == "" for row in rows] == [row[0] == "90.0" for row in rows]
    assert all(row[3] == "" for row in rows)
