import dataclasses
import hashlib
import tracemalloc
from functools import partial
from math import radians
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from pytest import approx

import holebox.cli as cli
import holebox.sweeps as sweeps
from holebox import (BasisCutoff, DegenerateQubitError, FieldConfig,
                     MinimalExactModel, NearDegeneracyError, Orientation,
                     SolverError, StrainConfig, gmatrix, minimal_exact_model,
                     reduce_model)
from holebox.constants import CONST
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
    for names in ("", "Si,Ge"):
        with pytest.raises(ConfigError, match="exactly one material"):
            resolve_spec("e0-sweep", overrides=[f"material.name={names}"])
    for key in ("lz_min", "lz_max"):
        with pytest.raises(ConfigError, match=f"{key} must be > 0"):
            resolve_spec("lz-sweep", overrides=[f"sweep.{key}=0"])
    with pytest.raises(ConfigError, match="E_ac must be >= 0"):
        resolve_spec("e0-sweep", overrides=["fields.E_ac=-1"])


_LOW, _HIGH = sweeps.LENGTH_RANGE


@pytest.mark.parametrize("start,stop", [
    (0.0, 1.0), (1.0, 10.0), (10.0, 1.0), (-5.0, -1.0), (-1.0, -5.0),
    (-0.3, 0.7), (0.0, 0.001), (0.0, 90.0), (0.0, 180.0), (3.0, 3.0),
    (-0.0, -0.0), (_LOW, _HIGH), (_HIGH, _LOW), (_LOW, _LOW),
    (-sweeps.MAX_E0, sweeps.MAX_E0), (sweeps.MAX_E0, -sweeps.MAX_E0),
    (0.0, 5e-324)])
def test_axis_equals_linspace_bit_for_bit(start, stop):
    # the grid is built without numpy; every point must still carry the
    # bits numpy.linspace gives, signed zeros included
    for count in (2, 10, 46, 91, 101, 10001):
        spec = SimpleNamespace(grid={"x_min": start, "x_max": stop,
                                     "x_count": count})
        axis = sweeps._axis(spec, "x")
        assert all(type(x) is float for x in axis)
        assert (np.array(axis).tobytes()
                == np.linspace(start, stop, count).tobytes()), count


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
    # the digest a reader (and the benchmark's check) recomputes from the file
    assert spec.config_hash == hashlib.sha256(
        sidecar.read_bytes()).hexdigest()[:12]


def test_csv_rows_are_streamed(tmp_path):
    # a default angle-map's 4,186 rows: writing them holds a few rows, not
    # the table as text
    spec = resolve_spec("angle-map")
    columns = ["theta_deg", "phi_deg", "f_R_analytic2", "f_R_analytic4",
               "f_R_minimal_exact"]
    rows = [(t / 3, p / 7, t * p / 11, 1 / (1 + t + p), None)
            for t in range(46) for p in range(91)]
    tracemalloc.start()
    try:
        out = sweeps._write_csv(tmp_path / "big.csv", spec, columns, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert len(out.read_text("utf-8").splitlines()) == 5 + 4186
    assert peak < size / 4, (peak, size)


@pytest.mark.parametrize("tiers, grid, built", [
    ("converged_zeeman,converged_full", (46, 91), 0),
    ("analytic2", (3, 4), 12)], ids=["converged", "analytic2"])
def test_angle_map_builds_field_configs_only_for_closed_forms(
        tmp_path, monkeypatch, tiers, grid, built):
    # the direction run goes to the models as two lists of radians, so a
    # converged-only map builds no per-direction FieldConfig; a closed form
    # evaluated point by point builds one per direction
    spec = resolve_spec("angle-map", tiers=tiers, overrides=[
        "solver.cutoff=3,3,2", f"sweep.theta_count={grid[0]}",
        f"sweep.phi_count={grid[1]}"])
    made = []
    check = FieldConfig.__post_init__

    def counted(self):
        made.append(self)
        check(self)

    monkeypatch.setattr(FieldConfig, "__post_init__", counted)
    _, _, rows = _read_csv(run_angle_map(spec, tmp_path / "map.csv"))
    assert len(rows) == grid[0] * grid[1]
    assert len(made) == built


def test_sweep_points_copy_every_field_but_the_direction():
    # each point's FieldConfig is built field by field, so a field added to
    # FieldConfig must be copied here too; none is left at its default
    names = [f.name for f in dataclasses.fields(FieldConfig)]
    fields = FieldConfig(**{n: 0.5 + k for k, n in enumerate(names)})
    spec = resolve_spec("angle-map", tiers="analytic2")
    run = (spec.geometry, fields, [0.1, 0.2], [0.3, 0.4])
    points = sweeps._Sweep(spec, [run]).points
    assert points == [(spec.geometry, dataclasses.replace(fields, theta=t,
                                                          phi=p))
                      for t, p in ((0.1, 0.3), (0.2, 0.4))]


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


@pytest.mark.parametrize("eps_min, eps_max, count", [
    ("-0.0007", "0.0007", 11), ("-0.0007", "0.0021", 21),
    ("-1e-16", "1e-16", 3)])
def test_strain_sweep_reference_row_survives_rounding(tmp_path, eps_min,
                                                      eps_max, count):
    # on the first two grids the middle point rounds to -1.08e-19, not to
    # zero; on the third every point lies within 1e-15 of zero
    spec = resolve_spec("strain-sweep", overrides=[
        f"sweep.eps_min={eps_min}", f"sweep.eps_max={eps_max}",
        f"sweep.eps_count={count}"])
    _, header, rows = _read_csv(run_strain_sweep(spec, tmp_path / "st.csv"))
    assert len({r[0] for r in rows}) == len(rows) == count
    ref = [r for r in rows if r[header.index("is_reference")] == "1"]
    assert len(ref) == 1 and ref[0][header.index("eps_parallel")] == "0.0"


def test_strain_sweep_builds_one_model_per_point(tmp_path, monkeypatch):
    # the optimum's f_R and f_L come from the model its angles came from
    import holebox.minimal
    calls = []
    eigh = holebox.minimal._jacobi_eigh
    monkeypatch.setattr(holebox.minimal, "_jacobi_eigh",
                        lambda a: calls.append(a) or eigh(a))
    spec = resolve_spec("strain-sweep", overrides=["sweep.eps_count=2"])
    run_strain_sweep(spec, tmp_path / "st.csv")
    assert len(calls) == 2


@pytest.mark.parametrize("overrides, eps", [
    (["fields.E0=0.8"], 7.25e-4),
    (["geometry.L_x=25", "geometry.L_y=22"], 6.25e-4)])
def test_strain_sweep_reports_the_optimum_on_an_edge(tmp_path, overrides,
                                                     eps):
    # the optimum of these rows lies on the phi = 90 edge; a coarse-to-fine
    # grid search stalled 3.4e-4 below it, at 18.045/81.11 and 8.952/61.11
    spec = resolve_spec("strain-sweep", overrides=overrides)
    _, header, rows = _read_csv(run_strain_sweep(spec, tmp_path / "st.csv"))
    cells = dict(zip(header, min(rows, key=lambda r: abs(float(r[0]) - eps))))
    model = minimal_exact_model(
        spec.material, spec.geometry, spec.orientation, spec.fields.E0,
        strain=StrainConfig(float(cells["eps_parallel"])))
    a = np.radians(np.linspace(0.0, 90.0, 9001))
    edges = ((a, 0.0), (a, np.pi / 2), (np.pi / 2, a))
    qubit = np.vectorize(partial(gmatrix.qubit, model.g, model.p))
    scan = max(qubit(spec.fields.B, t, p, spec.fields.E_ac)[0].max()
               for t, p in edges)
    assert float(cells["phi_opt_deg"]) == 90.0
    assert float(cells["f_R"]) >= scan


def _diagonal_model(g, p):
    return MinimalExactModel(g=tuple(g), p=tuple(p))


def test_best_direction_ties_go_to_the_first_edge():
    # the xz and yz edges both score 1/2; xz comes first
    model = _diagonal_model((1.0, 1.0, 1.0), (0.0, 0.0, 1.0))
    assert gmatrix.best_direction(model.g, model.p) == (45.0, 0.0)


def test_best_direction_with_no_splitting_raises():
    # the xz edge wins, and its supremum lies along x, where gm b = 0
    model = _diagonal_model((0.0, 1.0, 2.0), (1.0, 0.0, 0.0))
    with pytest.raises(DegenerateQubitError):
        gmatrix.best_direction(model.g, model.p)


def test_best_direction_beats_the_sampled_simplex():
    # f_R depends on the direction through x_i = b_i^2 on the simplex
    # sum x_i = 1; the closed form must reach every sample of it at step 1/60
    rng = np.random.default_rng(21)
    k = np.array([(i, j, 60 - i - j) for i in range(61)
                  for j in range(61 - i)], dtype=float)
    b = np.sqrt(k / 60)
    for _ in range(500):
        g, p = rng.standard_normal(3), rng.standard_normal(3)
        model = _diagonal_model(tuple(g), tuple(p))
        t, ph = gmatrix.best_direction(model.g, model.p)
        got = gmatrix.qubit(model.g, model.p, 1.0, radians(t), radians(ph),
                            0.03)[0]
        v, w = g * b, p * b
        sampled = (CONST.e_scale * 0.03 * np.linalg.norm(np.cross(v, w), axis=1)
                   / (2 * CONST.h_planck * np.linalg.norm(v, axis=1)))
        assert got >= sampled.max(), (g, p)


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


def test_readme_library_examples_run():
    # the python blocks under "## Library use" run in order in one namespace
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text("utf-8").split("\n## Library use\n")[1]
    blocks = section.split("\n## ")[0].split("```python\n")[1:]
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(block.split("```")[0], namespace)
    assert len(namespace["f_R"]) == len(namespace["f_L"]) == 46 * 91


def test_point_errors_empty_a_cell_or_a_converged_column(tmp_path,
                                                         monkeypatch):
    # a closed form that raises empties its cell; a converged model that
    # raises empties its whole column
    thin_dot = sweeps.rabi_thin_dot

    def flaky_thin_dot(material, geometry, orientation, fields, order):
        if fields.theta > 1.0:
            raise NearDegeneracyError("synthetic")
        return thin_dot(material, geometry, orientation, fields, order)

    class Unsolvable:
        def g_matrices(self, *args, **kwargs):
            raise SolverError("synthetic")

    monkeypatch.setattr(sweeps, "rabi_thin_dot", flaky_thin_dot)
    monkeypatch.setattr(sweeps, "reduce_model", lambda *a, **k: Unsolvable())
    spec = resolve_spec("angle-map", tiers="analytic2,converged_full",
                        overrides=["sweep.theta_count=3", "sweep.phi_count=2"])
    _, header, rows = _read_csv(run_angle_map(spec, tmp_path / "m.csv"))
    assert header == ["theta_deg", "phi_deg", "f_R_analytic2",
                      "f_R_converged_full"]
    assert [row[2] == "" for row in rows] == [row[0] == "90.0" for row in rows]
    assert all(row[3] == "" for row in rows)


def test_a_pair_off_the_box_axes_stops_the_command(tmp_path, monkeypatch):
    # gmatrix.diagonal's ValueError is an invariant violation, not a solver
    # error: it must not be turned into empty cells
    class Tilted:
        def g_matrices(self, *args, **kwargs):
            tilted = ((1.0, 1e-9, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
            return tilted, tilted

    monkeypatch.setattr(sweeps, "reduce_model", lambda *a, **k: Tilted())
    spec = resolve_spec("angle-map", tiers="converged_full",
                        overrides=["sweep.theta_count=3", "sweep.phi_count=2"])
    with pytest.raises(ValueError, match="not diagonal"):
        run_angle_map(spec, tmp_path / "m.csv")


@pytest.mark.parametrize("E0", [0.0, 1e-5])
def test_converged_map_runs_where_gp_vanishes(tmp_path, E0):
    # at E0 = 0 the y mirror makes gp vanish: the solved gp is rounding
    # noise, but its off-diagonal entries, which also need the x mirror
    # broken, are noise of that noise (at most 6e-17 of gp's diagonal over
    # 40 random Si and Ge boxes at cutoff (4,4,3)), so gmatrix.diagonal
    # accepts the pair and every cell holds an f_R of about zero
    out = tmp_path / "m.csv"
    assert cli.main([
        "angle-map", "--out", str(out),
        "--tier", "converged_zeeman,converged_full",
        "--set", "solver.cutoff=4,4,3", "--set", f"fields.E0={E0}"]) == 0
    _, _, rows = _read_csv(out)
    assert len(rows) == 46 * 91
    f_R = np.array([[float(x) for x in row[2:]] for row in rows])
    assert np.isfinite(f_R).all()
    if E0 == 0:
        assert np.abs(f_R).max() <= 1e-14
    spec = resolve_spec("angle-map", overrides=[f"fields.E0={E0}"])
    red = reduce_model(spec.material, spec.geometry, spec.orientation,
                       BasisCutoff(4, 4, 3), E0)
    t, p = (a.ravel().tolist() for a in np.broadcast_arrays(
        np.linspace(0, 1.5, 7)[:, None], np.linspace(0, 3, 9)[None, :]))
    for flag in (False, True):
        f_R, f_L = gmatrix.frequencies(
            *gmatrix.diagonal(*red.g_matrices(flag)), 1.0, t, p, 0.03)
        assert np.isfinite(f_L).all() and np.isfinite(f_R).all()
