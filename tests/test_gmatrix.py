"""The one kernel that both qubit routes evaluate their (gm, gp) pair with:
its diagonals (g, p), by gmatrix.diagonal."""
import subprocess
import sys
from dataclasses import replace
from math import isfinite, isnan, radians
from pathlib import Path

import numpy as np
import pytest

import holebox
import holebox.cli as cli
from holebox import (BasisCutoff, BoxGeometry, DegenerateQubitError,
                     FieldConfig, Orientation, get_material, gmatrix,
                     minimal_exact_model, minimal_exact_qubit, reduce_model)
from holebox.constants import CONST

SI = get_material("Si")
BOX = BoxGeometry(40.0, 30.0, 10.0)
D110 = Orientation.DOT_110
REF = FieldConfig(B=1.0, theta=radians(45), phi=radians(90), E0=0.1,
                  E_ac=0.03)
THETAS = np.radians(np.linspace(0, 90, 7))[:, None]
PHIS = np.radians(np.linspace(0, 180, 9))[None, :]
GRID = [a.ravel().tolist() for a in np.broadcast_arrays(THETAS, PHIS)]


def _minimal(material):
    """The exact minimal route's pair, and its one-direction calls."""
    model = minimal_exact_model(material, BOX, D110, REF.E0)
    return (model.g, model.p), [
        lambda f: gmatrix.qubit(model.g, model.p, f.B, f.theta, f.phi,
                                f.E_ac),
        lambda f: minimal_exact_qubit(material, BOX, D110, f)]


def _converged(material):
    """The converged Zeeman-only pair, and its one-direction call: with
    kappa = 0 it has no field coupling at all, while the orbital term of the
    full tier would still split the doublet."""
    model = reduce_model(material, BOX, D110, BasisCutoff(3, 3, 2), REF.E0)

    def rabi(f):
        r = model.rabi(f.B, f.theta, f.phi, f.E_ac,
                       include_paramagnetic=False)
        return r.f_R, r.f_L
    return gmatrix.diagonal(*model.g_matrices(False)), [rabi]


@pytest.mark.parametrize("route", [_minimal, _converged])
@pytest.mark.parametrize("material, fields", [
    (SI, replace(REF, B=0.0)), (replace(SI, kappa=0.0), REF)],
    ids=["B=0", "kappa=0"])
def test_no_splitting_leaves_both_frequencies_undefined(route, material,
                                                        fields):
    pair, calls = route(material)
    f_R, f_L = gmatrix.frequencies(*pair, fields.B, *GRID, fields.E_ac)
    assert len(f_R) == len(f_L) == 7 * 9
    assert all(isnan(f) for f in f_R + f_L)
    for call in calls:
        with pytest.raises(DegenerateQubitError, match="splitting below"):
            call(fields)


@pytest.mark.parametrize("route", [_minimal, _converged])
def test_zero_drive_gives_zero_rabi_on_a_split_qubit(route):
    pair, calls = route(SI)
    fields = replace(REF, E_ac=0.0)
    f_R, f_L = gmatrix.frequencies(*pair, fields.B, *GRID, fields.E_ac)
    assert f_R == [0.0] * (7 * 9)
    assert all(isfinite(f) and f > 0 for f in f_L)
    for call in calls:
        f_R, f_L = call(fields)
        assert f_R == 0.0 and isfinite(f_L) and f_L > 0


@pytest.mark.parametrize("material, orientation", [
    ("Si", D110), ("Si", Orientation.DOT_100), ("Ge", Orientation.DOT_100),
    ("Ge", D110)])
def test_diagonal_kernel_matches_the_full_pair(material, orientation,
                                               monkeypatch):
    # the kernel on (g, p) against the 3x3 algebra on the full pair,
    # v = gm b and w = gp b, for the minimal pair and both converged tiers.
    # Worst over these dots on this grid, f_L agreed to 2.0e-15 relative and
    # f_R to 7.8e-15 of the map's largest f_R (1.1e-14 at (8,8,5)); f_R is
    # bounded on the map's scale because at its symmetry zeros both sides
    # are rounding noise. The bounds, 1e-14 and 1e-13, leave a factor of 5+.
    m, pairs = get_material(material), []
    with monkeypatch.context() as patch:    # the minimal route's full pair
        diagonal = gmatrix.diagonal
        patch.setattr(gmatrix, "diagonal",
                      lambda *pair: pairs.append(pair) or diagonal(*pair))
        minimal_exact_model(m, BOX, orientation, REF.E0)
    red = reduce_model(m, BOX, orientation, BasisCutoff(4, 4, 3), REF.E0)
    pairs += [red.g_matrices(False), red.g_matrices(True)]
    assert len(pairs) == 3
    t, p = np.broadcast_arrays(np.radians(np.linspace(0, 90, 46))[:, None],
                               np.radians(np.linspace(0, 180, 91))[None, :])
    b = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                 axis=-1).reshape(-1, 3)
    for gm, gp in pairs:
        v, w = b @ np.array(gm).T, b @ np.array(gp).T
        v_norm = np.linalg.norm(v, axis=1)
        want_L = REF.B * v_norm / CONST.h_planck
        want_R = (CONST.e_scale * REF.E_ac * REF.B
                  * np.linalg.norm(np.cross(v, w), axis=1)
                  / (2 * CONST.h_planck * v_norm))
        f_R, f_L = gmatrix.frequencies(*gmatrix.diagonal(gm, gp), REF.B,
                                       t.ravel().tolist(), p.ravel().tolist(),
                                       REF.E_ac)
        assert np.all(np.abs(np.array(f_L) - want_L) <= 1e-14 * want_L)
        assert np.all(np.abs(np.array(f_R) - want_R) <= 1e-13 * want_R.max())


def test_diagonal_rejects_a_tilted_pair():
    # an off-diagonal entry of 3.3e-10 relative, above the 1e-12 bound, in
    # either matrix; all-zero matrices (B = 0 or kappa = 0) pass
    diag = ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
    tilted = ((1.0, 1e-9, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
    for gm, gp in ((diag, tilted), (tilted, diag)):
        with pytest.raises(ValueError, match="not diagonal"):
            gmatrix.diagonal(gm, gp)
    zero = ((0.0,) * 3,) * 3
    assert gmatrix.diagonal(zero, zero) == ((0.0, 0.0, 0.0),) * 2
    assert gmatrix.diagonal(diag, zero) == ((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("module, absent", [
    ("holebox.minimal", ["numpy", "holebox.hamiltonian", "holebox.numeric"]),
    ("holebox.numeric", ["holebox.minimal"]),
    ("holebox.cli", ["holebox.gmatrix"])], ids=["minimal", "numeric", "cli"])
def test_routes_share_only_the_kernel(module, absent):
    # each route builds its own pair and loads the kernel, not the other
    # route; importing the CLI, which every command pays for, loads neither
    # route nor the kernel
    src = str(Path(holebox.__file__).resolve().parents[1])
    code = (f"import sys, {module}\n"
            f"print([m for m in {absent!r} if m in sys.modules],\n"
            "      'holebox.gmatrix' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == f"[] {module != 'holebox.cli'}"


def test_angle_map_calls_the_kernel_once_per_tier(tmp_path, monkeypatch):
    # every tier, closed-form or converged, looks the kernel up by its
    # module's name, so one rebinding sees both routes
    calls = []
    frequencies = gmatrix.frequencies

    def counted(g, p, B, thetas, phis, E_ac):
        calls.append(len(thetas))
        return frequencies(g, p, B, thetas, phis, E_ac)

    monkeypatch.setattr(gmatrix, "frequencies", counted)
    assert cli.main([
        "angle-map", "--out", str(tmp_path / "m.csv"),
        "--tier", "minimal_exact,converged_zeeman,converged_full",
        "--set", "solver.cutoff=3,3,2", "--set", "sweep.theta_count=3",
        "--set", "sweep.phi_count=4"]) == 0
    assert calls == [12, 12, 12]
